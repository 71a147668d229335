"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact integer arithmetic; there are no tolerances
to tune.  The A5 run of criterion 6 is opt-in via QPCOX_LARGE=1.
"""

import os

from qpcox.barcanon import (
    PhiMaps,
    canonical_basis,
    inversion_check,
    iplus_qp_classes,
    primed_basis,
    verify_bar_operator,
    verify_mu_lemma,
    verify_multiplication,
    verify_parity,
    verify_recurrences,
)
from qpcox.classify import (
    is_perfect,
    survey,
    survey_cross_checks,
    universal_qp_check,
)
from qpcox.coxeter import ExtElement, build_system
from qpcox.hecke import kl_basis
from qpcox.qpsets import (
    check_quasiparabolic,
    conjugacy_set,
    coset_set,
    regular_set,
    revalidate_witness,
)
from qpcox.wgraph import build_wgraph, cells, check_quasi_admissible, verify_wgraph_module

from oracle_canonical import brute_force_canonical, table_as_int_dicts, table_entries
from oracle_hecke import OracleHecke
from oracle_qpsets import payloads


def report(number, name, ok):
    print(f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def ext(system, word, theta=None):
    theta = theta or system.identity_aut()
    return ExtElement(system.element_from_word(word), theta)


def fpf_class(system):
    return conjugacy_set(system, ext(system, tuple(range(0, system.rank, 2))))


def nontrivial_involution(system):
    (aut,) = [
        a
        for a in system.diagram_automorphisms()
        if not a.is_identity() and (a * a).is_identity()
    ]
    return aut


def test_criterion_1_f4_anchor():
    f4 = build_system("F4")
    swap = nontrivial_involution(f4)
    reports = survey(f4, thetas=[swap])
    row = next(r for r in reports if r.seed_word == ())
    ok = row.size == 72 and row.qp.is_qp and row.perfect is False
    report(1, "F4 anchor: 72-element class, qp, not perfect", ok)


def test_criterion_2_i2_2m_family():
    ok = True
    for m in (1, 2, 3, 4):
        sys = build_system(f"I2({2 * m})")
        s1_class = conjugacy_set(sys, ext(sys, (0,)))
        s2_class = conjugacy_set(sys, ext(sys, (1,)))
        ok = ok and len(s1_class) == m and len(s2_class) == m
        ok = ok and not (set(s1_class.keys) & set(s2_class.keys))
        swap = nontrivial_involution(sys)
        aut_class = conjugacy_set(sys, ExtElement(sys.identity, swap))
        ok = ok and len(aut_class) == 2 * m
        for K in (s1_class, s2_class, aut_class):
            ok = ok and check_quasiparabolic(K).is_qp
        ok = ok and is_perfect(s1_class) == (m in (1, 2))
        ok = ok and is_perfect(s2_class) == (m in (1, 2))
        ok = ok and is_perfect(aut_class) == (m == 1)
    report(2, "I2(2m) sizes, quasiparabolicity, perfectness", ok)


def test_criterion_3_symmetric_group_classification():
    ok = True
    for t in ("A2", "A3"):
        sys = build_system(t)
        reports = survey(sys, thetas=[sys.identity_aut()], involutions_only=True)
        qp_seeds = sorted(r.seed_word for r in reports if r.qp.is_qp)
        expect = [()] if t == "A2" else [(), (0, 2)]
        ok = ok and qp_seeds == expect
        s1_row = next(r for r in reports if r.seed_word == (0,))
        ok = ok and not s1_row.qp.is_qp and s1_row.qp.axiom == "QP1"
        ok = ok and revalidate_witness(s1_row.X, s1_row.qp.witness())
    report(3, "A2/A3 involution classes: {1} and fpf only; s1 fails QP1", ok)


def test_criterion_4_d4_triality():
    d4 = build_system("D4")
    rot = next(a for a in d4.diagram_automorphisms() if a.order() == 3)
    reports = survey(d4, thetas=[rot])
    unique_min = [r for r in reports if r.n_min_length == 1]
    ok = sorted(r.seed_word for r in unique_min) == [(), (1,)]
    for r in unique_min:
        ok = ok and not r.qp.is_qp and r.qp.axiom == "QP1"
        ok = ok and revalidate_witness(r.X, r.qp.witness())
        print(
            f"  D4 triality class seed={list(r.seed_word)} size={r.size} "
            f"witness={r.qp.witness()}"
        )
    ok = ok and not any(r.qp.is_qp for r in reports)
    report(4, "D4 triality: (1,t) and (s2,t) unique-minimal, both fail QP1", ok)


def test_criterion_5_finite_classification():
    types = ["A2", "A3", "B2", "B3", "D4", "I2(2)", "I2(3)", "I2(4)", "I2(5)",
             "I2(6)", "I2(7)", "I2(8)", "F4"]
    ok = True
    for t in types:
        sys = build_system(t)
        reports = survey(sys)
        ok = ok and not survey_cross_checks(reports)
        for r in reports:
            if r.qp.is_qp:
                ok = ok and r.is_twisted_involution_class  # QP implies I+
            if r.perfect:
                ok = ok and r.qp.is_qp  # perfect implies QP
    report(5, "all theta over 13 types: QP within I+, perfect implies QP", ok)


def _bar_canonical_carriers():
    a3 = build_system("A3")
    a2 = build_system("A2")
    b2 = build_system("B2")
    carriers = [("A3 fpf", fpf_class(a3))]
    for J in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
        carriers.append((f"A3 coset {J}", coset_set(a3, J)))
    carriers.append(("A2 regular", regular_set(a2)))
    carriers.append(("B2 regular", regular_set(b2)))
    if os.environ.get("QPCOX_LARGE"):
        carriers.append(("A5 fpf", fpf_class(build_system("A5"))))
    return carriers


def test_criterion_6_bar_canonical_suite():
    ok = True
    for label, X in _bar_canonical_carriers():
        tables = {}
        for kind in ("M", "N"):
            verdict = verify_bar_operator(kind, X)
            ok = ok and verdict.ok
            table = canonical_basis(kind, X)
            tables[kind] = table
            ok = ok and verify_parity(table).ok
            ok = ok and verify_multiplication(table).ok
            ok = ok and verify_recurrences(table).ok
            ok = ok and verify_mu_lemma(table).ok
        ok = ok and PhiMaps(X).verify().ok
        ok = ok and primed_basis(tables["M"], tables["N"], "M")[1].ok
        ok = ok and primed_basis(tables["M"], tables["N"], "N")[1].ok
        if X.kind == "regular":
            kl = kl_basis(X.system)
            ids = [X.system.element_from_word(w).key for w in X.keys]
            for kind in ("M", "N"):
                got = {
                    (ids[x], ids[y]): c
                    for (x, y), c in table_entries(tables[kind].cols).items()
                }
                ok = ok and got == table_entries(kl.cols)
            # kl_basis is the M table itself; the oracle solves independently
            ok = ok and (table_entries(kl.cols), table_entries(kl.mus)) == OracleHecke(X.system).kl()
        assert ok, label
    report(6, "bar/canonical suite on fpf, cosets, regular carriers", ok)


def test_criterion_7_inversion():
    ok = True
    for t in ("A2", "A3", "B2"):
        verdict = inversion_check(build_system(t))
        ok = ok and verdict.ok
    report(7, "inversion identity over all of I+_QP for A2, A3, B2", ok)


def test_criterion_8_wgraphs():
    a2 = build_system("A2")
    X = regular_set(a2)
    gm = build_wgraph(canonical_basis("M", X))
    gn = build_wgraph(canonical_basis("N", X))
    classical = {
        frozenset({()}),
        frozenset({(0,), (1, 0)}),
        frozenset({(1,), (0, 1)}),
        frozenset({(0, 1, 0)}),
    }

    points = payloads(X)

    def cell_words(G):
        return {
            frozenset(tuple(points[p].word()) for p in cell)
            for cell in cells(G).cells
        }

    ok = cell_words(gm) == classical and cell_words(gn) == classical
    # the two presentations carry the same classical graph: complementary
    # tau-sets, transposed edges, identical mu data
    full = frozenset(range(X.n_gens))
    ok = ok and all(gn.tau[x] == full - gm.tau[x] for x in range(len(X)))
    ok = ok and gn.omega == {(y, x): w for (x, y), w in gm.omega.items()}

    for label, Y in _bar_canonical_carriers():
        for kind in ("M", "N"):
            G = build_wgraph(canonical_basis(kind, Y))
            qa = check_quasi_admissible(G)
            ok = ok and qa.quasi_admissible
            ok = ok and verify_wgraph_module(G).ok
        assert ok, label
    report(8, "regular A2 gives the 4 left cells; all graphs verify", ok)


def test_criterion_9_universal():
    u3 = build_system("U3")
    rot = next(a for a in u3.diagram_automorphisms() if a.order() == 3)
    seed = ExtElement(u3.identity, rot)
    criterion = universal_qp_check(u3, seed)
    ok = criterion.is_qp and not criterion.in_iplus
    K = conjugacy_set(u3, seed, cutoff=8)
    brute = check_quasiparabolic(K)
    ok = ok and brute.is_qp == criterion.is_qp
    # a non-quasiparabolic seed for contrast: both routes must say no
    bad = ext(u3, (0, 1))
    ok = ok and not universal_qp_check(u3, bad).is_qp
    ok = ok and not check_quasiparabolic(conjugacy_set(u3, bad, cutoff=8)).is_qp
    report(9, "U3 3-cycle class: qp, outside I+, brute force agrees", ok)


def test_criterion_10_oracle_equivalence():
    ok = True
    checked = 0
    for label, X in _bar_canonical_carriers():
        if len(X) > 30:
            continue
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            ok = ok and table_as_int_dicts(table) == brute_force_canonical(X, kind)
            checked += 1
        assert ok, label
    for K in iplus_qp_classes(build_system("B2")):
        for kind in ("M", "N"):
            table = canonical_basis(kind, K)
            ok = ok and table_as_int_dicts(table) == brute_force_canonical(K, kind)
            checked += 1
    assert checked >= 20
    report(10, f"brute-force oracle agrees on {checked} tables (<= 30 points)", ok)
