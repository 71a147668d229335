import copy
import inspect
import itertools
import random
import tracemalloc

import pytest

from qpcox import barcanon, laurent
from qpcox.barcanon import (
    CheckVerdict,
    ModuleVector,
    PhiMaps,
    _bar_columns,
    _kinds_agree,
    _table_checks,
    act_hecke,
    bar_columns,
    canonical_basis,
    inversion_check,
    iplus_qp_classes,
    phi_maps,
    primed_basis,
    table_checks,
    verify_bar_operator,
    verify_mu_lemma,
    verify_multiplication,
    verify_parity,
    verify_recurrences,
)
from qpcox.classify import twisted_classes, w0_translate
from qpcox.coxeter import Element, ExtElement, build_system
from qpcox.errors import ConsistencyError, SystemMismatch, TruncationRequired, UncertifiedBar
from qpcox.hecke import HeckeElt, kl_basis
from qpcox.laurent import ONE, V, VINV
from qpcox.qpsets import (
    bruhat_order,
    check_quasiparabolic,
    conjugacy_set,
    coset_set,
    even_double_cover,
    lowest_descent,
    regular_set,
    rht_witness,
)

from oracle_canonical import (
    act_bar_gen,
    act_bar_word,
    act_gen,
    brute_force_canonical,
    closed_form_bar_columns,
    composed_bar_gen,
    fold_bar_columns,
    fold_bar_verdict,
    fold_canonical_columns,
    fold_inversion_check,
    fold_multiplication,
    fold_primed_check,
    full_bar_verdict,
    full_phi_verdict,
    generic_canonical_columns,
    memo_multiplication,
    memo_recurrences,
    memo_table_checks,
    pair_table_checks,
    table_as_int_dicts,
    table_entries,
    to_canonical_coords,
    v_power,
    vector_bar_verdict,
    vector_phi_verdict,
    vector_primed_basis,
)
from oracle_group import is_twisted_involution
from oracle_hecke import OracleHecke, replay_bar_columns
from oracle_qpsets import payloads


def ext(system, word, theta=None):
    theta = theta or system.identity_aut()
    return ExtElement(system.element_from_word(word), theta)


def fpf_class(system):
    return conjugacy_set(system, ext(system, tuple(range(0, system.rank, 2))))


def M(X, pid):
    return ModuleVector.standard("M", X, pid)


def N(X, pid):
    return ModuleVector.standard("N", X, pid)


# -- generator action ---------------------------------------------------------


def test_act_gen_equal_height_cases():
    a2 = build_system("A2")
    X = coset_set(a2, [1])
    e = X.index[a2.identity.word()]
    assert act_gen(M(X, e), 1) == M(X, e).scale(V)
    assert act_gen(N(X, e), 1) == N(X, e).scale(-VINV)


def test_act_gen_ascent():
    a3 = build_system("A3")
    X = fpf_class(a3)
    assert act_gen(M(X, 0), 1) == M(X, 1)  # height rises from s1 s3


def test_vectors_of_different_modules_do_not_mix():
    # sums and differences need one kind on one carrier, as Hecke elements
    # need one system
    a2 = build_system("A2")
    X = regular_set(a2)
    n1 = ModuleVector.standard("N", X, 1)
    other = M(regular_set(a2), 1)
    for a, b in ((M(X, 0), n1), (n1, M(X, 0)), (M(X, 0), other)):
        with pytest.raises(SystemMismatch):
            a + b
        with pytest.raises(SystemMismatch):
            a - b
    assert M(X, 0) + M(X, 1) - M(X, 1) == M(X, 0)


def test_act_hecke_module_laws():
    a3 = build_system("A3")
    X = coset_set(a3, [2])
    unit = HeckeElt.unit(a3)
    v0 = M(X, 1) + M(X, 0).scale(V - 2)
    assert act_hecke(v0, unit) == v0
    s = a3.generator(0)
    hs = HeckeElt.basis(a3, s.key)
    assert act_hecke(act_hecke(v0, hs), hs.bar()) == v0
    # act(H_w, M_x0) = M_x for the height witness w
    for pid in range(len(X)):
        w = rht_witness(X, pid)
        assert act_hecke(M(X, X.minimal_elements()[0]), HeckeElt.basis(a3, w.key)) == M(X, pid)
    # module-algebra compatibility on a pair of random-ish elements
    a = HeckeElt.basis(a3, a3.element_from_word((0, 1)).key).scale(V) + hs
    b = HeckeElt.basis(a3, a3.element_from_word((2,)).key) + unit.scale(VINV)
    assert act_hecke(v0, a * b) == act_hecke(act_hecke(v0, b), a)


# -- bar operators ------------------------------------------------------------


def test_bar_fixes_minimal_points():
    a3 = build_system("A3")
    for X in (fpf_class(a3), coset_set(a3, [0]), regular_set(a3)):
        for kind in ("M", "N"):
            cols = bar_columns(kind, X)
            for x0 in X.minimal_elements():
                assert cols[x0] == ModuleVector.standard(kind, X, x0)


def test_bar_on_coset_kind_matches_hecke_bar_action():
    a3 = build_system("A3")
    X = coset_set(a3, [1])
    e = X.index[a3.identity.word()]
    for kind in ("M", "N"):
        cols = bar_columns(kind, X)
        for pid, w in enumerate(payloads(X)):
            expect = act_hecke(
                ModuleVector.standard(kind, X, e), HeckeElt.basis(a3, w.key).bar()
            )
            assert cols[pid] == expect
            assert cols[pid] == act_bar_word(ModuleVector.standard(kind, X, e), w.word())


def test_bar_on_regular_kind_is_hecke_bar():
    a2 = build_system("A2")
    X = regular_set(a2)
    cols = bar_columns("M", X)
    for pid, w in enumerate(payloads(X)):
        hbar = HeckeElt.basis(a2, w.key).bar()
        expect = {X.index[a2.word_of(u)]: c for u, c in hbar.coords.items()}
        assert dict(cols[pid].coords) == expect
        # hecke's bar is bar_vector on this carrier, so also compare with the
        # Element-keyed oracle
        oracle = OracleHecke(a2).bar_of_basis(w)
        assert dict(cols[pid].coords) == {X.index[u.word()]: c for u, c in oracle.items()}


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3", "I2(5)", "D4"])
def test_bar_columns_match_witness_replay(name):
    # every coset set, every twisted class under every automorphism, and the
    # double covers of the regular set and of the first coset set
    system = build_system(name)
    carriers = [regular_set(system)]
    for r in range(1, system.rank + 1):
        carriers.extend(coset_set(system, J) for J in itertools.combinations(range(system.rank), r))
    carriers.extend(even_double_cover(X) for X in carriers[:2])
    for theta in system.diagram_automorphisms():
        carriers.extend(twisted_classes(system, theta))
    for X in carriers:
        for kind in ("M", "N"):
            assert bar_columns(kind, X) == replay_bar_columns(kind, X), (X, kind)


def _truncated_u3_classes(cutoffs=(5, 7)):
    """(seed, cutoff, class) for a few U3 classes truncated at the cutoffs."""
    u3 = build_system("U3")
    auts = u3.diagram_automorphisms()
    s1, s2, _ = u3.generators()
    seeds = [ExtElement(u3.identity, a) for a in auts] + [ExtElement(s1, auts[0]), ExtElement(s1 * s2, auts[0])]
    return [(seed, cutoff, conjugacy_set(u3, seed, cutoff)) for cutoff in cutoffs for seed in seeds]


def _pooled(X) -> bool:
    """Whether each bar matrix on X, of either kind, and each canonical
    table of a kind whose bar operator is certified, holds one object per
    distinct polynomial."""
    builds = [[col.coords for col in bar_columns(kind, X)] for kind in ("M", "N")]
    builds += [canonical_basis(kind, X).cols for kind in ("M", "N") if verify_bar_operator(kind, X).ok]
    return all(_one_object_per_value(cols) for cols in builds)


def _one_object_per_value(cols) -> bool:
    first = {}  # value -> the first object holding it
    return all(first.setdefault(c, c) is c for col in cols for c in col.values())


def test_truncated_bar_columns_match_witness_replay():
    for seed, cutoff, X in _truncated_u3_classes():
        for kind in ("M", "N"):
            assert bar_columns(kind, X) == replay_bar_columns(kind, X), (seed, cutoff, kind)
        assert _pooled(X), (seed, cutoff)


def test_bar_columns_are_pooled_and_shared_between_kinds():
    X = regular_set(build_system("A4"))
    assert _kinds_agree(X) and _pooled(X)
    m, n = bar_columns("M", X), bar_columns("N", X)
    assert all(n[x].kind == "N" and n[x].coords[w] is c for x in range(len(X)) for w, c in m[x].coords.items())
    assert len({id(c) for col in m for c in col.coords.values()}) < sum(len(col.coords) for col in m) // 100


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)", "F4"])
def test_bar_columns_match_closed_form(name):
    # the recurrence against the paper's closed form, on every quasiparabolic
    # twisted-involution class under every involutive automorphism
    classes = iplus_qp_classes(build_system(name))
    assert classes
    for X in classes:
        for kind in ("M", "N"):
            assert bar_columns(kind, X) == closed_form_bar_columns(kind, X), (X, kind)
        assert _pooled(X), X


def test_truncated_bar_columns_match_closed_form():
    compared = 0
    for seed, cutoff, X in _truncated_u3_classes((5, 6, 7)):
        if all(map(is_twisted_involution, payloads(X))) and check_quasiparabolic(X).is_qp:
            compared += 1
            for kind in ("M", "N"):
                assert bar_columns(kind, X) == closed_form_bar_columns(kind, X), (seed, cutoff, kind)
    assert compared == 15  # five twisted-involution seeds at each cutoff


def test_bar_unitriangular_on_fpf_top():
    a3 = build_system("A3")
    X = fpf_class(a3)
    top = len(X) - 1
    col = bar_columns("M", X)[top]
    assert col.coeff(top) == ONE
    assert set(col.coords) <= {0, 1, 2}


def test_verify_bar_operator_passes():
    a3 = build_system("A3")
    a2 = build_system("A2")
    carriers = [
        fpf_class(a3),
        coset_set(a2, [1]),
        coset_set(a3, [0, 2]),
        regular_set(a2),
    ]
    for X in carriers:
        for kind in ("M", "N"):
            verdict = verify_bar_operator(kind, X)
            assert verdict.ok, verdict.failure


def test_verify_bar_operator_reports_non_qp():
    a2 = build_system("A2")
    X = conjugacy_set(a2, ext(a2, (0,)))
    verdict = verify_bar_operator("M", X)
    assert not verdict.ok and verdict.failure["reason"] == "not quasiparabolic"


def _verdict(v):
    return v.ok, v.checked, v.skipped, v.failure


def _untruncated_carriers(system):
    """The regular set, every coset set, every twisted class under every
    automorphism, and the double covers of the maximal-parabolic coset sets."""
    cosets = [
        coset_set(system, J)
        for r in range(1, system.rank + 1)
        for J in itertools.combinations(range(system.rank), r)
    ]
    carriers = [regular_set(system), *cosets]
    carriers.extend(even_double_cover(X) for X in cosets if len(X.J) == system.rank - 1)
    for theta in system.diagram_automorphisms():
        carriers.extend(twisted_classes(system, theta))
    return carriers


def _matches_oracles(kind, X):
    """Whether the bar verdict matches checking every point, and on a carrier
    that passes it, whether the bar columns and the canonical table match
    the ones built for this kind alone (not shared with M) and the generic
    triangular solve over those columns."""
    verdict = verify_bar_operator(kind, X)
    if _verdict(verdict) != _verdict(full_bar_verdict(kind, X)):
        return False
    if not verdict.ok:
        return True
    own = _bar_columns(kind, X)
    table = canonical_basis(kind, X)
    return bar_columns(kind, X) == own and (table_entries(table.cols), table_entries(table.mus)) == generic_canonical_columns(
        [col.coords for col in own]
    )


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)"])
def test_minima_checks_match_full_oracle(name):
    # the involution, the Phi inverse and the Phi-bar squares are checked at
    # the orbit minima only; the verdicts and counts match checking every
    # point.  The canonical tables match the generic solve.  Phi is compared
    # only where both bar verdicts pass: elsewhere it is refused
    for X in _untruncated_carriers(build_system(name)):
        for kind in ("M", "N"):
            assert _matches_oracles(kind, X), (X, kind)
        certified = all(verify_bar_operator(kind, X).ok for kind in ("M", "N"))
        if certified and len(X) <= 60:  # the full Phi oracle is the slow part
            assert PhiMaps(X).verify() == full_phi_verdict(PhiMaps(X)), X


def test_f4_class_without_fixed_points_shares_the_m_stages():
    # 72 points, no generator fixes one: N's stages are M's relabeled, and
    # they match the ones built for N alone
    f4 = build_system("F4")
    flip = next(a for a in f4.diagram_automorphisms() if a.sigma == (3, 2, 1, 0))
    X = conjugacy_set(f4, ExtElement(f4.identity, flip))
    assert len(X) == 72 and _kinds_agree(X)
    for kind in ("M", "N"):
        assert _matches_oracles(kind, X), kind


def test_truncated_checks_match_full_oracle():
    for seed, cutoff, X in _truncated_u3_classes():
        for kind in ("M", "N"):
            assert _matches_oracles(kind, X), (seed, cutoff, kind)


def _mutated(name, old, new):
    """The function name of laurent with one line of its source replaced."""
    source = inspect.getsource(getattr(laurent, name))
    assert old in source
    namespace = dict(vars(laurent))
    exec(source.replace(old, new), namespace)
    return namespace[name]


def _mutated_solve(old, new):
    """laurent.canonical_columns with one line of its source replaced."""
    return _mutated("canonical_columns", old, new)


# each id names the line a mutation replaced in the add_scaled solve and
# kernel, which tests/oracle_canonical.py keeps as fold_canonical_columns
# and fold_act_generator; the mu-correction mutation now empties the terms
# of the solve's combine
@pytest.mark.parametrize("old, new, kind", [
    pytest.param("for w, m in mus[sy].items()", "for w, m in ()", "M",  # no mu correction
                 id="add_scaled(col, cols[w], -m)-pass-M"),
    pytest.param("for w, m in mus[sy].items()", "for w, m in ()", "N",
                 id="add_scaled(col, cols[w], -m)-pass-N"),
    ('weak = kind == "M"', "weak = False", "M"),  # strict descent for M
])
def test_broken_solve_is_refused_by_its_certificate(old, new, kind):
    X = coset_set(build_system("A3"), [1])  # a fixed point under s2 at the minimum
    with pytest.raises(ConsistencyError):
        _mutated_solve(old, new)(kind, X.action, X.height2)


def test_bar_broken_off_the_minima_is_refused():
    X = regular_set(build_system("A3"))
    top = len(X) - 1
    cols = bar_columns("M", X)
    cols[top] = cols[top] + M(X, 0).scale(VINV)  # still unitriangular
    verdict = verify_bar_operator("M", X)
    assert not verdict.ok and verdict.failure["reason"] == "incompatible with H_s"
    assert fold_bar_verdict("M", X) == verdict
    assert full_bar_verdict("M", X).failure == {"reason": "not an involution", "x": top}


def test_bar_broken_at_a_twisted_involution_minimum_is_refused():
    X = fpf_class(build_system("A3"))
    x0 = X.minimal_elements()[0]
    for kind in ("M", "N"):
        cols = bar_columns(kind, X)
        cols[x0] = cols[x0].scale(V)
        verdict = verify_bar_operator(kind, X)
        assert not verdict.ok and verdict.failure["x"] == x0
        assert fold_bar_verdict(kind, X) == verdict


def test_phi_on_a_bar_column_broken_off_the_minima_is_refused():
    # Phi_MN reads N's bar columns: a wrong one fails N's bar verdict, and
    # the Phi verdict with that witness; the every-point oracles refuse the
    # maps it gives on their own
    X = coset_set(build_system("A3"), [1])
    top = len(X) - 1  # two generator moves or more from the minimum
    cols = bar_columns("N", X)
    cols[top] = cols[top] + N(X, 0).scale(V)
    phi = PhiMaps(X)
    witness = {"bar": "N", "reason": "incompatible with H_s", "s": 0, "x": 10}
    assert phi.verify() == CheckVerdict(False, "phi-bar-operator", witness)
    expect = CheckVerdict(False, "phi-twisted-law", {"s": 2, "x": 9})
    assert full_phi_verdict(phi) == expect and vector_phi_verdict(phi) == expect


def _bar_matches_vector_oracle(kind, X):
    verdict, oracle = verify_bar_operator(kind, X), vector_bar_verdict(kind, X)
    return _verdict(verdict) == _verdict(oracle) and verdict.label == oracle.label


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)"])
def test_column_checks_match_vector_oracles(name):
    # the column comparisons give the verdicts, counts and witnesses of the
    # checks they replaced, on every carrier: the bar operator, the four
    # table checks, the Phi maps and the primed bases
    for X in _untruncated_carriers(build_system(name)):
        for kind in ("M", "N"):
            assert _bar_matches_vector_oracle(kind, X), (X, kind)
        if not all(verify_bar_operator(kind, X).ok for kind in ("M", "N")):
            continue
        tables = {kind: canonical_basis(kind, X) for kind in ("M", "N")}
        for kind, table in tables.items():
            assert table_checks(kind, X) == pair_table_checks(table), (X, kind)
        phi = phi_maps(X)
        assert phi.verify() == vector_phi_verdict(phi), X
        for kind in ("M", "N"):
            assert primed_basis(tables["M"], tables["N"], kind) == vector_primed_basis(tables["M"], tables["N"], kind)


def test_truncated_verdicts_match_vector_oracles():
    for seed, cutoff, X in _truncated_u3_classes():
        for kind in ("M", "N"):
            assert _bar_matches_vector_oracle(kind, X), (seed, cutoff, kind)
            if verify_bar_operator(kind, X).ok:
                table = canonical_basis(kind, X)
                assert table_checks(kind, X) == pair_table_checks(table), (seed, cutoff, kind)


def _qp_carriers(name):
    return [X for X in _untruncated_carriers(build_system(name)) if check_quasiparabolic(X).is_qp]


def _matches_fold_oracles(kind, X):
    """Whether the bar columns, the bar verdict (its counts and witness too)
    and, where that passes, the canonical table equal by value the ones the
    add_scaled kernel they replaced builds, with nothing pooled."""
    verdict = verify_bar_operator(kind, X)
    if bar_columns(kind, X) != fold_bar_columns(kind, X) or verdict != fold_bar_verdict(kind, X):
        return False
    if not verdict.ok:
        return True
    table = canonical_basis(kind, X)
    return (table_entries(table.cols), table_entries(table.mus)) == fold_canonical_columns(kind, X.action, X.height2)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)"])
def test_key_by_key_kernels_match_the_fold_oracles(name):
    carriers = _qp_carriers(name)
    assert carriers
    for X in carriers:
        for kind in ("M", "N"):
            assert _matches_fold_oracles(kind, X), (X, kind)
        assert _pooled(X), X


def test_truncated_key_by_key_kernels_match_the_fold_oracles():
    for seed, cutoff, X in _truncated_u3_classes((5, 6, 7)):
        for kind in ("M", "N"):
            assert _matches_fold_oracles(kind, X), (seed, cutoff, kind)
        assert _pooled(X), (seed, cutoff)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_bar_stages_and_tables_form_no_vector_sum(name, monkeypatch):
    # the bar columns, the bar verdict and both canonical tables are built
    # key by key through a memo: lincomb does not run
    def fail(*args, **kw):
        pytest.fail("a vector sum ran")

    carriers = _qp_carriers(name)  # fresh carriers: none of their stages is built
    assert carriers
    for module in (barcanon, laurent):
        monkeypatch.setattr(module, "lincomb", fail)
    for X in carriers:
        for kind in ("M", "N"):
            assert len(bar_columns(kind, X)) == len(X)
            assert verify_bar_operator(kind, X).ok, (X, kind)
            assert canonical_basis(kind, X).kind == kind


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_primed_and_inversion_checks_form_no_vector_sum(name, monkeypatch):
    # the primed image and the inversion columns are summed key by key
    # through a memo (laurent.combine): lincomb does not run
    def fail(*args, **kw):
        pytest.fail("a vector sum ran")

    system = build_system(name)
    carriers = _qp_carriers(name)
    assert carriers
    for module in (barcanon, laurent):
        monkeypatch.setattr(module, "lincomb", fail)
    for X in carriers:
        table_m, table_n = canonical_basis("M", X), canonical_basis("N", X)
        for kind in ("M", "N"):
            assert primed_basis(table_m, table_n, kind)[1] == CheckVerdict(True, f"primed-{kind}"), (X, kind)
    assert inversion_check(system).ok


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)"])
def test_primed_and_inversion_checks_match_the_fold_oracles(name):
    # the key-by-key sums give the vectors, verdicts and witnesses of the
    # add_scaled folds they replaced, on every quasiparabolic carrier in both
    # kinds; test_primed_break_fails_as_primed_phi compares them where the
    # check fails
    for X in _qp_carriers(name):
        tables = {kind: canonical_basis(kind, X) for kind in ("M", "N")}
        for kind in ("M", "N"):
            assert primed_basis(tables["M"], tables["N"], kind) == fold_primed_check(tables["M"], tables["N"], kind)
    system = build_system(name)
    assert inversion_check(system) == fold_inversion_check(system)


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_perturbed_inversion_is_refused_as_by_the_fold(name):
    # one changed entry of an N table: the key-by-key columns fail at the
    # class and (x, y) where the add_scaled fold fails
    system = build_system(name)
    classes = iplus_qp_classes(system)
    K = next(K for K in classes if len(K) >= 3)
    theta, keys = w0_translate(K)
    table_n = canonical_basis("N", next(c for c in classes if c.theta == theta and keys[0] in c.index))
    table_n.cols = [dict(col) for col in table_n.cols]
    table_n.cols[-1][0] = table_n.poly(0, len(table_n.cols) - 1) + VINV
    verdict = inversion_check(system)
    assert not verdict.ok and verdict == fold_inversion_check(system)


def test_primed_and_inversion_checks_pass_on_every_qp_carrier():
    for name in ("A3", "B3"):
        system = build_system(name)
        for X in _qp_carriers(name):
            tables = [canonical_basis(kind, X) for kind in ("M", "N")]
            assert phi_maps(X).verify().ok
            for kind in ("M", "N"):
                assert primed_basis(*tables, kind)[1].ok, (X, kind)
        assert inversion_check(system).ok


def test_bar_kernel_is_its_definition():
    # act_bar_gen applies bar(H_s) in one pass; it must equal H_s + (v^-1 - v)
    # built from the H_s rule, on vectors with polynomial coefficients too
    a3 = build_system("A3")
    carriers = [regular_set(a3), coset_set(a3, [1]), fpf_class(a3), coset_set(build_system("B3"), [0, 2])]
    carriers += [X for _, _, X in _truncated_u3_classes((5,))]
    for X in carriers:
        for kind in ("M", "N"):
            vectors = [ModuleVector.standard(kind, X, x) for x in range(len(X))] + bar_columns(kind, X)
            if X.truncated_at is None:
                vectors += [canonical_basis(kind, X).underline(y) for y in range(len(X))]
            for vec in vectors:
                for s in range(X.n_gens):
                    try:
                        expect = composed_bar_gen(vec, s)
                    except laurent.TruncationRequired:
                        continue
                    assert act_bar_gen(vec, s) == expect, (X, kind, s, vec)


def _mutated_kernel(name, old, new, monkeypatch):
    """Plant barcanon's act_generator or generator_rule with one line of its
    source replaced: the bar columns, the bar verdict and act_gen and
    act_bar_gen then run on it, and laurent's canonical solve does not."""
    monkeypatch.setattr(barcanon, name, _mutated(name, old, new))


def test_bar_broken_off_the_recurrence_is_refused(monkeypatch):
    # a bar(H_s) kernel that drops the coefficient of each coordinate it
    # raises (multiplying v^-1 - v by 1 in its place) is right on every
    # standard vector, and the columns are built with it, so every
    # recurrence step holds: the broken columns show only at a raising edge
    # (s, x) that is not the recurrence step of sx.  H_s has no raising
    # coefficient, so its rule is unchanged.  The parent's loop refuses them
    # with the same reason.
    _mutated_kernel("act_generator", "mul(a, c)", "mul(a, c if d < 0 else ONE)", monkeypatch)
    X = regular_set(build_system("A3"))
    for kind in ("M", "N"):
        verdict = verify_bar_operator(kind, X)
        assert not verdict.ok and verdict.failure["reason"] == "incompatible with H_s"
        s, x = verdict.failure["s"], verdict.failure["x"]
        sx = X.action[s][x]
        assert X.height2[sx] > X.height2[x] and lowest_descent(X.action, X.height2, sx)[0] != s
        assert vector_bar_verdict(kind, X).failure["reason"] == "incompatible with H_s"


@pytest.mark.parametrize("old, new, carrier, edge", [  # ids as for the broken solve
    # a wrong raising coefficient of bar(H_s) = H_s + c (v^-1, not v^-1 - v;
    # H_s has c = 0): the raising checks alone pass it on the regular
    # carrier, where no generator keeps a height.  It is refused at the
    # first raising edge
    pytest.param("(c, V - VINV + c", "(c and VINV, V - VINV + c", regular_set, (0, 0),
                 id="VINV - V if bar else V - VINV-VINV if bar else V - VINV-regular_set"),
    pytest.param("(c, V - VINV + c", "(c and VINV, V - VINV + c", lambda W: coset_set(W, [1]), (0, 0),
                 id="VINV - V if bar else V - VINV-VINV if bar else V - VINV-<lambda>"),
    # the H_s eigenvalue where bar(H_s)'s belongs, refused at the first
    # edge where s keeps the height
    pytest.param("eigen + c)", "eigen)", lambda W: coset_set(W, [1]), (0, 4), id="VINV if bar else V)-V)-<lambda>"),
])
def test_bar_kernel_broken_on_standard_vectors_is_refused(monkeypatch, old, new, carrier, edge):
    # the comparisons rest on the three-case rule, so the kernel is checked
    # against it on every standard vector, for the rules of H_s and of
    # bar(H_s) alike; the parent's loop refuses these too, at the same edge
    _mutated_kernel("generator_rule", old, new, monkeypatch)
    X = carrier(build_system("A3"))
    verdict = verify_bar_operator("M", X)
    assert verdict.failure == {"reason": "incompatible with H_s", "s": edge[0], "x": edge[1]}
    assert vector_bar_verdict("M", X).failure["reason"] == "incompatible with H_s"


def _table_copy(table):
    """A copy of table whose columns and mu views can be changed."""
    out = copy.copy(table)
    out.cols = [dict(col) for col in table.cols]
    out.mus = [dict(col) for col in table.mus]
    return out


def _refusal(table):
    """The names of the table checks that refuse table, if the pair-scanning
    checks give the same verdicts in order, with the same witnesses except
    for mu-delta, whose scan order changed (y-major, not x-major)."""
    new, old = _table_checks(table), pair_table_checks(table)
    assert [(c.ok, c.name) for c in new] == [(c.ok, c.name) for c in old]
    assert all(a == b for a, b in zip(new, old) if a.name != "mu-delta")
    return {c.name for c in new if not c.ok}


def _int_checks(table):
    """The multiplication, recurrence and mu-delta verdicts of table."""
    return [verify_multiplication(table), verify_recurrences(table), verify_mu_lemma(table)]


def _mutation_carriers():
    a3 = build_system("A3")
    return [coset_set(a3, [1]), fpf_class(a3), coset_set(build_system("B3"), [0]), regular_set(a3)]


def test_perturbed_p_is_refused_as_at_the_parent():
    # v^2 added to v^(ht y - ht x) p[x, y]: parity still holds, so the later
    # checks must see it
    for X in _mutation_carriers():
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            entries = [(x, y) for y, col in enumerate(table.cols) for x in col if x != y]
            for x, y in entries[::max(1, len(entries) // 40)]:
                broken = _table_copy(table)
                d = (X.height2[y] - X.height2[x]) // 2
                broken.cols[y][x] = broken.cols[y][x] + v_power(2 - d)
                assert _refusal(broken), (X, kind, x, y)
                assert verify_multiplication(broken) == fold_multiplication(broken), (X, kind, x, y)
                assert _int_checks(broken) == memo_table_checks(broken), (X, kind, x, y)


def test_flipped_mu_is_refused_as_at_the_parent():
    # parity ties mu to the v^-1 coefficients of the table, so every flip is
    # refused, also a mu that no other check reads (as mu(3, 6) of the M
    # table on A3 / <s2>), and the pair-scanning checks refuse it the same way
    sampled = 0
    for X in _mutation_carriers():
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            flips = [(x, y) for y, col in enumerate(table.mus) for x in col]
            for x, y in flips[::max(1, len(flips) // 40)]:
                broken = _table_copy(table)
                broken.mus[y][x] = -broken.mus[y][x]
                assert "parity" in _refusal(broken), (X, kind, x, y)
                assert verify_multiplication(broken) == fold_multiplication(broken), (X, kind, x, y)
                assert _int_checks(broken) == memo_table_checks(broken), (X, kind, x, y)
                sampled += 1
    assert sampled >= 40


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)"])
def test_multiplication_matches_the_fold_oracle(name):
    # the key-by-key comparison gives the verdict and the witness (s, x) of
    # the vector fold it replaced, on every quasiparabolic carrier; the
    # mutation tests above compare them where the theorem fails
    checked = 0
    for X in _untruncated_carriers(build_system(name)):
        if check_quasiparabolic(X).is_qp:
            for kind in ("M", "N"):
                table = canonical_basis(kind, X)
                assert verify_multiplication(table) == fold_multiplication(table), (X, kind)
                checked += 1
    assert checked >= 10


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)"])
def test_int_checks_match_the_memo_oracles(name):
    # the checks at v = 2^b and on down-set bitsets give the verdicts and
    # witnesses of the PolyMemo forms they replaced, on every quasiparabolic
    # carrier, in both kinds
    checked = 0
    for X in _untruncated_carriers(build_system(name)):
        if check_quasiparabolic(X).is_qp:
            for kind in ("M", "N"):
                table = canonical_basis(kind, X)
                assert _int_checks(table) == memo_table_checks(table), (X, kind)
                checked += 1
    assert checked >= 10


@pytest.mark.parametrize("name", ["A3", "B3", "I2(5)"])
def test_int_checks_refuse_random_mutations_as_the_memo_oracles(name):
    # an entry changed, dropped or planted anywhere (above its column's
    # point and outside its orbit too), and a mu changed anywhere: every
    # verdict and witness is the memo oracle's
    rng = random.Random(31)
    refused = 0
    for X in _untruncated_carriers(build_system(name)):
        if not check_quasiparabolic(X).is_qp:
            continue
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            entries = [(x, y) for y, col in enumerate(table.cols) for x in col]
            for _ in range(6):
                x, y = rng.choice(entries)
                changed, dropped, planted, flipped = (_table_copy(table) for _ in range(4))
                changed.cols[y][x] = changed.cols[y][x] + rng.choice((1, -1, 2)) * v_power(rng.randrange(-4, 4))
                del dropped.cols[y][x]
                planted.cols[rng.randrange(len(X))][rng.randrange(len(X))] = v_power(rng.randrange(-5, 1))
                x2, y2 = rng.randrange(len(X)), rng.randrange(len(X))
                flipped.mus[y2][x2] = flipped.mus[y2].get(x2, 0) + rng.choice((1, -1))
                for broken in (changed, dropped, planted, flipped):
                    expect = memo_table_checks(broken)
                    assert _int_checks(broken) == expect, (X, kind)
                    refused += not all(v.ok for v in expect)
    assert refused >= 50


def _off_order_plants(table):
    """Copies of table with one entry planted at an (x, y) outside y's
    Bruhat down-set, for every such pair in one orbit at an odd height
    difference k: v^-k, whose weighted value is 1, with mu(x, y) = 1 where
    k = 1, so parity holds; and copies with mu(y, y) = 1 planted, per y."""
    X = table.X
    order, h2 = bruhat_order(X), X.height2
    for y in range(len(X)):
        for x in range(len(X)):
            k, odd = divmod(h2[y] - h2[x], 2)
            if not odd and k % 2 and not order.leq(x, y):
                planted = _table_copy(table)
                planted.cols[y][x] = v_power(-k)
                if k == 1:
                    planted.mus[y][x] = 1
                yield planted
        planted = _table_copy(table)
        planted.mus[y][y] = 1
        yield planted


def test_off_order_plants_are_read_as_by_the_memo_oracles():
    # the recurrence reads only x <= y and the theorem every held key, so
    # the two checks may part on an entry outside its column's down-set;
    # each keeps the verdict and witness of its memo oracle there
    a3 = build_system("A3")
    for X in (regular_set(a3), coset_set(a3, [1])):
        parted = 0
        for kind in ("M", "N"):
            plants = list(_off_order_plants(canonical_basis(kind, X)))
            assert len(plants) > len(X), (X, kind)
            for broken in plants:
                mult, rec = verify_multiplication(broken), verify_recurrences(broken)
                assert mult == memo_multiplication(broken), (X, kind)
                assert rec == memo_recurrences(broken), (X, kind)
                parted += rec.ok != mult.ok
        assert parted, X


def test_both_table_checks_read_the_one_multiplication_kernel(monkeypatch):
    # a multiplication kernel that reports a nonzero difference fails both
    # the theorem and the recurrences: neither keeps a loop of its own
    a3 = build_system("A3")
    tables = [canonical_basis(kind, X) for X in (regular_set(a3), coset_set(a3, [1])) for kind in ("M", "N")]
    assert all(verify_multiplication(t).ok and verify_recurrences(t).ok for t in tables)
    monkeypatch.setattr(barcanon, "_theorem_gap", lambda table, cols, b, down, row, move, x: [x])
    for table in tables:
        assert not verify_multiplication(table).ok, (table.X, table.kind)
        assert not verify_recurrences(table).ok, (table.X, table.kind)


def _scaled(table, lam):
    """A copy of table with every entry multiplied by lam, its mu kept: the
    multiplication theorem and the recurrences are linear in the entries
    for a fixed mu, so they hold on it exactly where they hold on table."""
    out = _table_copy(table)
    out.cols = [{x: c * lam for x, c in col.items()} for col in table.cols]
    return out


def test_int_checks_on_entries_beyond_64_bits_match_the_memo_oracles():
    # canonical tables scaled past 2^64 pass; adding (v - 2^64) v^e to one
    # entry makes every difference of two sides a multiple of v - 2^64,
    # which a check read at v = 2^64 would pass
    a3 = build_system("A3")
    for X in (coset_set(a3, [1]), fpf_class(a3), regular_set(a3)):
        for kind in ("M", "N"):
            for lam in (2**70 + 1, -(2**64) - 3):
                table = _scaled(canonical_basis(kind, X), lam)
                assert _int_checks(table) == memo_table_checks(table) == [
                    CheckVerdict(True, "multiplication"), CheckVerdict(True, "recurrence"),
                    CheckVerdict(True, "mu-delta")], (X, kind, lam)
                entries = [(x, y) for y, col in enumerate(table.cols) for x in col]
                for x, y in entries[::max(1, len(entries) // 8)]:
                    broken = _table_copy(table)
                    broken.cols[y][x] = broken.cols[y][x] + (V - 2**64) * v_power((X.height2[x] - X.height2[y]) // 2)
                    expect = memo_table_checks(broken)
                    assert not expect[0].ok and not expect[1].ok, (X, kind, x, y)
                    assert _int_checks(broken) == expect, (X, kind, x, y)
                assert barcanon._int_table(table)[1] > 64


@pytest.mark.parametrize("kind", ["M", "N"])
def test_a_difference_with_a_root_at_half_of_2_to_the_b_is_refused(kind):
    # On A1 the table [[W/2], [W/2 v^-1, W/2]] with no mu passes both
    # checks (mu-delta refuses it: it wants mu(0, 1) = 1); v - W added to
    # its (0, 0) entry makes each difference of two sides a multiple of
    # v - W.  Its entries' largest L1 norm is W/2 + 1, so b is the bit
    # length of 3 (W/2 + 1), one more than W's exponent: the difference
    # vanishes at v = 2^(b-1), and would pass at a b one bit short
    X = regular_set(build_system("A1"))
    no_mu = CheckVerdict(False, "mu-delta", {"s": 0, "x": 0, "y": 1})
    for exp in (4, 5, 64, 65, 100):
        W = 2**exp
        table = _scaled(canonical_basis(kind, X), W // 2)
        table.mus = [{}, {}]
        assert _int_checks(table) == memo_table_checks(table) == [
            CheckVerdict(True, "multiplication"), CheckVerdict(True, "recurrence"), no_mu]
        table.cols[0][0] = table.cols[0][0] + V - W
        assert _int_checks(table) == memo_table_checks(table) == [
            CheckVerdict(False, "multiplication", {"s": 0, "x": 0}),
            CheckVerdict(False, "recurrence", {"s": 0, "y": 1, "x": 0}), no_mu], (kind, exp)
        assert barcanon._int_table(table)[1] == exp + 1


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_table_checks_do_no_polynomial_arithmetic(name, monkeypatch):
    # with LaurentPoly's +, - and * and every PolyMemo method made to fail,
    # the table checks still pass
    carriers = [X for X in _untruncated_carriers(build_system(name)) if check_quasiparabolic(X).is_qp]
    for X in carriers:
        for kind in ("M", "N"):
            canonical_basis(kind, X)

    def fail(*args, **kw):
        pytest.fail("polynomial arithmetic ran")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(laurent.LaurentPoly, op, fail)
    for op in ("__init__", "intern", "add", "mul"):
        monkeypatch.setattr(laurent.PolyMemo, op, fail)
    for X in carriers:
        for kind in ("M", "N"):
            assert all(v.ok for v in table_checks(kind, X)), (X, kind)


def test_multiplication_reads_a_planted_copy_by_value():
    # an entry replaced by an equal polynomial made outside the solve is a
    # distinct object: the sides are still equal, so the check passes
    planted = 0
    for X in _mutation_carriers():
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            entries = [(x, y) for y, col in enumerate(table.cols) for x in col]
            for x, y in entries[::max(1, len(entries) // 20)]:
                planted_table = _table_copy(table)
                planted_table.cols[y][x] = laurent.LaurentPoly(dict(table.cols[y][x].terms))
                assert planted_table.cols[y][x] is not table.cols[y][x]
                expect = CheckVerdict(True, "multiplication")
                assert verify_multiplication(planted_table) == fold_multiplication(planted_table) == expect
                planted += 1
    assert planted >= 40


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_table_checks_run_no_column_operation(name, monkeypatch):
    # the multiplication theorem and the recurrences are checked key by key
    def fail(*args, **kw):
        pytest.fail("a column operation ran")

    tables = [canonical_basis(kind, X) for X in _untruncated_carriers(build_system(name))
              if check_quasiparabolic(X).is_qp for kind in ("M", "N")]
    assert tables
    for module in (barcanon, laurent):
        for kernel in ("act_generator", "lincomb"):
            monkeypatch.setattr(module, kernel, fail)
    for table in tables:
        assert verify_multiplication(table) == CheckVerdict(True, "multiplication"), table.X
        assert verify_recurrences(table) == CheckVerdict(True, "recurrence"), table.X


def test_parity_decides_each_polynomial_per_height_difference():
    # one polynomial object at two height differences: it passes at the
    # first, and at an odd distance from it v^k p has odd exponents, so
    # parity refuses there, at the same (x, y) as the pair scan
    planted = 0
    for X in _mutation_carriers():
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            h2 = X.height2
            scan = [(x, y, (h2[y] - h2[x]) // 2) for y, col in enumerate(table.cols) for x in col if x != y]
            x1, y1, d1 = scan[0]
            for x2, y2 in [(x, y) for x, y, d in scan if (d - d1) % 2][:3]:
                broken = _table_copy(table)
                broken.cols[y2][x2] = table.cols[y1][x1]
                assert verify_parity(broken) == pair_table_checks(broken)[0] == CheckVerdict(
                    False, "parity", {"x": x2, "y": y2}), (X, kind, x2, y2)
                planted += 1
    assert planted >= 12


def test_table_checks_read_entries_outside_the_pool_by_value():
    # the recurrence check compares interned values by identity: an entry held
    # by a new object is interned by its value, so equal copies still pass
    for X in _mutation_carriers():
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            copied = _table_copy(table)
            copied.cols = [{x: laurent.LaurentPoly(dict(c.terms)) for x, c in col.items()} for col in table.cols]
            assert [c.ok for c in _table_checks(copied)] == [True] * 4
            assert verify_recurrences(copied) == verify_recurrences(table)


def test_primed_break_fails_as_primed_phi():
    # bar(u) = u is no longer computed: it follows from u = eps Phi(C), which
    # is checked along the multiplication theorem.  A primed vector that is
    # not bar-invariant fails as primed-phi at the same point where the
    # vector loop failed it as primed-bar-invariance
    X = coset_set(build_system("A3"), [1])
    table_m, table_n = canonical_basis("M", X), canonical_basis("N", X)
    for y in range(1, len(X)):
        broken = _table_copy(table_n)
        broken.cols[y][0] = broken.cols[y].get(0, laurent.ZERO) + v_power(-1 - X.height2[y] // 2)
        assert primed_basis(table_m, broken, "M")[1] == CheckVerdict(False, "primed-phi", {"y": y})
        assert fold_primed_check(table_m, broken, "M")[1] == CheckVerdict(False, "primed-phi", {"y": y})
        assert vector_primed_basis(table_m, broken, "M")[1] == CheckVerdict(False, "primed-bar-invariance", {"y": y})


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_phi_refuses_uncertified_bar_operators(name):
    # Phi is built on a bar operator: where a bar verdict fails, the Phi
    # verdict names that failure.  The every-point loop it replaces passed
    # the maps on 4 of the 6 non-quasiparabolic twisted classes
    system = build_system(name)
    refused = passed_by_vector_loop = 0
    for theta in system.diagram_automorphisms():
        for X in twisted_classes(system, theta):
            failed = [v for v in (verify_bar_operator(kind, X) for kind in ("M", "N")) if not v.ok]
            assert bool(failed) == (not check_quasiparabolic(X).is_qp), X
            if failed:
                expect = CheckVerdict(False, "phi-bar-operator", {"bar": failed[0].kind, **failed[0].failure})
                assert phi_maps(X).verify() == expect, X
                refused += 1
                passed_by_vector_loop += vector_phi_verdict(phi_maps(X)).ok
    assert (refused, passed_by_vector_loop) == (6, 4)


def test_phi_and_primed_refuse_truncated_carriers(monkeypatch):
    # a boundary point's generator images leave a truncated carrier, so the
    # Phi maps, and the primed bases that need them, refuse it before any
    # column operation (they raised from inside the loop on every class
    # with more than one point).  A class whose bar verdict fails has no
    # tables to give primed_basis (test_canonical_basis_refuses_uncertified_bar)
    for seed, cutoff, X in _truncated_u3_classes():
        phi = phi_maps(X)
        certified = all(verify_bar_operator(kind, X).ok for kind in ("M", "N"))
        tables = [canonical_basis("M", X), canonical_basis("N", X)] if certified else None
        message = f"^the Phi maps need an untruncated carrier, and this one is cut off at height {cutoff}$"
        with monkeypatch.context() as patch:
            patch.setattr(barcanon, "act_generator", lambda *args, **kw: pytest.fail("a column operation ran"))
            with pytest.raises(TruncationRequired, match=message):
                phi.verify()
            for kind in ("M", "N") if tables else ():
                with pytest.raises(TruncationRequired, match=message):
                    primed_basis(*tables, kind)


def test_canonical_basis_refuses_uncertified_bar():
    # a table is canonical only for a certified bar operator: where the bar
    # verdict fails, canonical_basis raises instead of solving
    refused = []
    for seed, cutoff, X in _truncated_u3_classes((5, 6, 7)):
        for kind in ("M", "N"):
            if not verify_bar_operator(kind, X).ok:
                with pytest.raises(UncertifiedBar, match=f"^no canonical {kind}-table"):
                    canonical_basis(kind, X)
                assert "_tables" not in vars(X)
                refused.append((seed.x.word(), cutoff, len(X), kind))
    assert ((0, 1), 5, 4, "M") in refused  # the 4-point class of s1 s2 at cutoff 5
    assert len(refused) == 6


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_phi_verdict_runs_no_column_operation(name, monkeypatch):
    # with both bar verdicts passed, every Phi identity is one they certify
    def fail(*args, **kw):
        pytest.fail("a column operation ran")

    certified = [X for X in _untruncated_carriers(build_system(name))
                 if all(verify_bar_operator(kind, X).ok for kind in ("M", "N"))]
    assert certified
    for kernel in ("act_generator", "lincomb"):
        monkeypatch.setattr(barcanon, kernel, fail)
    for X in certified:
        assert PhiMaps(X).verify() == CheckVerdict(True, "phi"), X


def test_phi_maps_keep_no_column_copies():
    # the maps read the bar columns: verifying them retains almost nothing
    X = regular_set(build_system("A4"))
    for kind in ("M", "N"):
        assert verify_bar_operator(kind, X).ok
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert phi_maps(X).verify().ok
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_phi_verdict_is_computed_once(monkeypatch):
    X = coset_set(build_system("A3"), [1])
    phi = PhiMaps(X)
    first = phi.verify()
    monkeypatch.setattr(PhiMaps.verify, "__wrapped__", lambda self: pytest.fail("verified twice"))
    assert phi.verify() is first and first.ok


# -- canonical bases -----------------------------------------------------------


def test_canonical_minimal_and_cover_columns():
    a2 = build_system("A2")
    X = coset_set(a2, [1])
    table = canonical_basis("M", X)
    x0, x1 = 0, 1  # heights 0 and 1
    assert table.underline(x0) == M(X, x0)
    assert table.underline(x1) == M(X, x1) + M(X, x0).scale(VINV)


def test_regular_table_equals_kl_table():
    for t in ("A2", "B2"):
        sys = build_system(t)
        X = regular_set(sys)
        kl = kl_basis(sys)
        points = payloads(X)
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            for (x, y), c in table_entries(table.cols).items():
                assert kl.poly(points[x].key, points[y].key) == c
            assert len(table_entries(table.cols)) == len(table_entries(kl.cols))
        # kl_basis is this table, so also compare with the Element-keyed solve
        assert (table_entries(kl.cols), table_entries(kl.mus)) == OracleHecke(sys).kl()


def test_fpf_a3_table_and_brute_force_oracle():
    a3 = build_system("A3")
    X = fpf_class(a3)
    for kind in ("M", "N"):
        table = canonical_basis(kind, X)
        assert verify_parity(table).ok
        assert table_as_int_dicts(table) == brute_force_canonical(X, kind)


def test_brute_force_oracle_on_assorted_carriers():
    a3 = build_system("A3")
    b2 = build_system("B2")
    carriers = [coset_set(a3, [1]), coset_set(b2, [0]), regular_set(b2)]
    for X in carriers:
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            assert table_as_int_dicts(table) == brute_force_canonical(X, kind)


def test_multiplication_theorem_and_recurrences():
    a2 = build_system("A2")
    a3 = build_system("A3")
    carriers = [coset_set(a2, [1]), fpf_class(a3), coset_set(a3, [0]), regular_set(a2)]
    for X in carriers:
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            assert verify_multiplication(table).ok
            assert verify_recurrences(table).ok
            assert verify_mu_lemma(table).ok


def test_equal_height_multiplication_examples():
    a2 = build_system("A2")
    X = coset_set(a2, [1])
    e = 0
    table_m = canonical_basis("M", X)
    u = table_m.underline(e)
    assert act_gen(u, 1) + u.scale(VINV) == u.scale(V + VINV)
    # kind N: underline H_s underline N_x has no underline N_x term when s fixes x
    table_n = canonical_basis("N", X)
    un = table_n.underline(e)
    out = act_gen(un, 1) + un.scale(VINV)
    coords = to_canonical_coords(table_n, out)
    assert e not in coords


def test_coset_m_entries_nonnegative():
    # {m_{x,y}} sits inside {h_{x,y}} on coset carriers, so all coefficients
    # are nonnegative there; N-entries may go negative and are only recorded
    for t, J in (("A2", [0]), ("A3", [1]), ("A3", [0, 2]), ("B2", [1])):
        X = coset_set(build_system(t), J)
        table = canonical_basis("M", X)
        for c in table_entries(table.cols).values():
            assert all(v >= 0 for v in c.terms.values())


def test_primed_bases():
    a3 = build_system("A3")
    a2 = build_system("A2")
    for X in (coset_set(a2, [1]), fpf_class(a3), coset_set(a3, [2])):
        table_m = canonical_basis("M", X)
        table_n = canonical_basis("N", X)
        for kind in ("M", "N"):
            vectors, verdict = primed_basis(table_m, table_n, kind)
            assert verdict.ok, verdict
            for x0 in X.minimal_elements():
                assert vectors[x0] == ModuleVector.standard(kind, X, x0)


def test_primed_one_step_coset():
    a2 = build_system("A2")
    X = coset_set(a2, [1])
    table_m = canonical_basis("M", X)
    table_n = canonical_basis("N", X)
    vectors, verdict = primed_basis(table_m, table_n, "M")
    assert verdict.ok
    assert vectors[1] == M(X, 1) - M(X, 0).scale(V)


def test_phi_maps():
    a3 = build_system("A3")
    a2 = build_system("A2")
    for X in (fpf_class(a3), coset_set(a2, [1]), regular_set(a2)):
        phi = PhiMaps(X)
        assert phi.verify().ok
        for x0 in X.minimal_elements():
            assert phi.mn(M(X, x0)) == N(X, x0)


def test_kind_gates_raise_typed_errors():
    # typed errors, not asserts, so the gates survive python -O
    X = regular_set(build_system("A2"))
    with pytest.raises(ConsistencyError):
        ModuleVector("Q", X, {0: ONE})
    phi = PhiMaps(X)
    with pytest.raises(ConsistencyError):
        phi.mn(N(X, 0))
    with pytest.raises(ConsistencyError):
        phi.nm(M(X, 0))


def test_inversion_a1_trivial():
    verdict = inversion_check(build_system("A1"))
    assert verdict.ok
    assert len(verdict.classes) == 2  # {(1, id)} and {(s1, id)}


def test_inversion_a2_a3_b2():
    for t in ("A2", "A3", "B2"):
        verdict = inversion_check(build_system(t))
        assert verdict.ok, (t, verdict.failure)
        assert all(c["size"] >= 1 for c in verdict.classes)
    # A3 pairs the fpf class with the twisted identities of the flip
    a3 = inversion_check(build_system("A3"))
    sizes = sorted((c["size"], c["partner_size"]) for c in a3.classes)
    assert (3, 3) in sizes


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_w0_partners_on_keys_match_element_products(name):
    # the partner map of inversion_check, (x, theta) w0+ = (x w0, theta theta0)
    # on keys, against ExtElement products with w0+ on every class it pairs
    system = build_system(name)
    w0p = ExtElement(system.longest_element(), system.w0_aut())
    classes = iplus_qp_classes(system)
    for K in classes:
        theta, keys = w0_translate(K)
        assert [ExtElement(Element(system, k), theta) for k in keys] == [p * w0p for p in payloads(K)]
        partner = next(c for c in classes if c.theta == theta and keys[0] in c.index)
        assert sorted(keys) == sorted(partner.keys)
    assert inversion_check(system).ok


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_inversion_refuses_a_perturbed_n_table(name):
    # one changed entry of the N table of a class with at least 3 points
    # breaks the identity; the reported (x, y) is a pair whose alternating
    # sum is not delta(x, y)
    system = build_system(name)
    classes = iplus_qp_classes(system)
    K = next(K for K in classes if len(K) >= 3)
    theta, keys = w0_translate(K)
    K2 = next(c for c in classes if c.theta == theta and keys[0] in c.index)
    table_n = canonical_basis("N", K2)
    table_n.cols = [dict(col) for col in table_n.cols]  # the M table may share them
    top = len(K2) - 1
    table_n.cols[top][0] = table_n.poly(0, top) + VINV
    verdict = inversion_check(system)
    assert not verdict.ok and verdict.failure["class"] == K.describe_point(0)
    x, y = verdict.failure["x"], verdict.failure["y"]
    table_m, part = canonical_basis("M", K), [K2.index[k] for k in keys]
    total = laurent.ZERO
    for w in range(len(K)):
        sign = -1 if ((K.height2[y] - K.height2[w]) // 2) % 2 else 1
        total = total + table_m.poly(x, w) * table_n.poly(part[y], part[w]) * sign
    assert total != (ONE if x == y else laurent.ZERO)


def test_iplus_qp_classes_a3():
    a3 = build_system("A3")
    classes = iplus_qp_classes(a3)
    id_classes = [K for K in classes if K.theta.is_identity()]
    sizes = sorted(len(K) for K in id_classes)
    assert sizes == [1, 3]  # {1} and the fixed-point-free class


def test_truncated_universal_bar_and_table():
    u3 = build_system("U3")
    rot = next(a for a in u3.diagram_automorphisms() if a.order() == 3)
    X = conjugacy_set(u3, ExtElement(u3.identity, rot), cutoff=6)
    verdict = verify_bar_operator("M", X)
    assert verdict.ok, verdict.failure
    assert verdict.label == "verified up to height 6"
    assert verdict.skipped > 0  # boundary points are skipped, not asserted
    table = canonical_basis("M", X)
    assert table.label == "verified up to height 6"
    for (x, y), c in table_entries(table.cols).items():
        if x != y:
            assert max(c.terms) < 0
