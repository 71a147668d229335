import csv
import io

import pytest

import oracle_classify
from oracle_qpsets import payloads
from qpcox.classify import (
    SURVEY_COLUMNS,
    check_w0_translation,
    class_report,
    iota,
    is_perfect,
    structure_check,
    survey,
    survey_cross_checks,
    twisted_classes,
    universal_qp_check,
)
from qpcox.classify import _strong_exchange
from qpcox.cli import _survey_csv
from qpcox.coxeter import ExtElement, build_system
from qpcox.errors import NoUniqueMinimal, NotInvolutionClass, TruncationRequired
from qpcox.qpsets import ScaledWSet, check_quasiparabolic, conjugacy_set


def ext(system, word, theta=None):
    theta = theta or system.identity_aut()
    return ExtElement(system.element_from_word(word), theta)


def nontrivial_involution(system):
    return next(
        a
        for a in system.diagram_automorphisms()
        if not a.is_identity() and (a * a).is_identity()
    )


def test_twisted_classes_a3_involutions():
    a3 = build_system("A3")
    classes = twisted_classes(a3, a3.identity_aut(), involutions_only=True)
    sizes = sorted(len(K) for K in classes)
    assert sizes == [1, 3, 6]  # {1}, fixed-point-free, transpositions


def test_twisted_classes_i24():
    i4 = build_system("I2(4)")
    id_classes = twisted_classes(i4, i4.identity_aut())
    by_seed = {payloads(K)[0].x.word(): len(K) for K in id_classes}
    assert by_seed[(0,)] == 2 and by_seed[(1,)] == 2  # disjoint of size m = 2
    swap = nontrivial_involution(i4)
    K = iota(i4, swap)
    assert len(K) == 4  # size 2m


def test_twisted_classes_refuse_universal_system():
    # a universal group has infinitely many classes, so there is nothing to partition
    u3 = build_system("U3")
    for theta in u3.diagram_automorphisms():
        with pytest.raises(TruncationRequired):
            twisted_classes(u3, theta)


def test_iota_is_class_of_one():
    a2 = build_system("A2")
    swap = nontrivial_involution(a2)
    K = iota(a2, swap)
    assert any(p.x.is_identity() for p in payloads(K))


def test_is_perfect():
    a3 = build_system("A3")
    fpf = conjugacy_set(a3, ext(a3, (0, 2)))
    assert is_perfect(fpf)
    i8 = build_system("I2(8)")
    K = conjugacy_set(i8, ext(i8, (0,)))
    assert not is_perfect(K)  # m = 4 is not in {1, 2}
    a1 = build_system("A1")
    assert is_perfect(iota(a1, a1.identity_aut()))
    with pytest.raises(NotInvolutionClass):
        b2 = build_system("B2")
        is_perfect(conjugacy_set(b2, ext(b2, (0, 1))))  # rotation class


def test_i2_2m_perfectness_pattern():
    for m in (1, 2, 3, 4):
        sys = build_system(f"I2({2 * m})")
        gen_class = conjugacy_set(sys, ext(sys, (0,)))
        assert len(gen_class) == m
        assert is_perfect(gen_class) == (m in (1, 2))
        swap = nontrivial_involution(sys)
        aut_class = iota(sys, swap)
        assert len(aut_class) == 2 * m
        assert is_perfect(aut_class) == (m == 1)
        assert check_quasiparabolic(gen_class).is_qp
        assert check_quasiparabolic(aut_class).is_qp


def test_structure_check_fpf():
    a3 = build_system("A3")
    flags = structure_check(conjugacy_set(a3, ext(a3, (0, 2))))
    assert flags.all_ok()


def test_structure_check_trivial_class():
    a2 = build_system("A2")
    swap = nontrivial_involution(a2)
    flags = structure_check(iota(a2, swap))
    assert flags.all_ok()


def test_survey_a3():
    a3 = build_system("A3")
    reports = survey(a3, thetas=[a3.identity_aut()])
    assert not survey_cross_checks(reports)
    qp_inv = [r for r in reports if r.qp.is_qp]
    seeds = sorted(r.seed_word for r in qp_inv)
    assert seeds == [(), (0, 2)]  # {1} and the fpf class only
    s1_class = next(r for r in reports if r.seed_word == (0,))
    assert not s1_class.qp.is_qp and s1_class.qp.axiom == "QP1"


def test_survey_builds_no_key_index():
    # the key -> id dict is built on first read, and a survey reads none
    reports = survey(build_system("B3"))
    qp = [rep.X for rep in reports if rep.qp.is_qp]
    assert qp and not any("index" in X.__dict__ for X in qp)
    assert qp[0].index[qp[0].keys[-1]] == len(qp[0]) - 1 and "index" in qp[0].__dict__


def test_survey_a2_class_of_s1_witness():
    a2 = build_system("A2")
    reports = survey(a2, thetas=[a2.identity_aut()])
    assert not survey_cross_checks(reports)
    s1_class = next(r for r in reports if r.seed_word == (0,))
    assert not s1_class.qp.is_qp
    assert s1_class.qp.witness()["axiom"] == "QP1"


def test_survey_d4_triality():
    d4 = build_system("D4")
    rot = next(a for a in d4.diagram_automorphisms() if a.order() == 3)
    reports = survey(d4, thetas=[rot])
    assert not survey_cross_checks(reports)
    unique_min = [r for r in reports if r.n_min_length == 1]
    assert sorted(r.seed_word for r in unique_min) == [(), (1,)]
    for r in unique_min:
        assert not r.qp.is_qp
        assert r.qp.axiom == "QP1"
    # no class in this twisted part is quasiparabolic (theta is not an involution)
    assert not any(r.qp.is_qp for r in reports)


def test_survey_exhaustive_small_types():
    for t in ("A2", "B2", "I2(6)"):
        sys = build_system(t)
        reports = survey(sys)
        assert not survey_cross_checks(reports)
        for r in reports:
            if r.qp.is_qp:
                assert r.is_twisted_involution_class
            if r.perfect:
                assert r.qp.is_qp


def test_w0_translation_reverses_orders():
    assert check_w0_translation(build_system("A3"))
    assert check_w0_translation(build_system("B2"))


def test_odd_dihedral_automorphism_class_is_not_qp():
    # A2 = I2(3): the twisted identities of the diagram flip have a unique
    # minimal element but still violate QP1; the singleton (w0, flip) is QP
    a2 = build_system("A2")
    swap = nontrivial_involution(a2)
    K = iota(a2, swap)
    assert len(K) == 3 and K.height2 == [0, 2, 2]
    verdict = check_quasiparabolic(K)
    assert not verdict.is_qp and verdict.axiom == "QP1"
    w0_class = conjugacy_set(a2, ExtElement(a2.longest_element(), swap))
    assert len(w0_class) == 1
    assert check_quasiparabolic(w0_class).is_qp


def test_qp_classes_have_unique_w_minimal_point():
    for t in ("A3", "B2", "I2(6)", "D4"):
        sys = build_system(t)
        for rep in survey(sys):
            if rep.qp.is_qp:
                assert rep.n_w_minimal == 1
                assert rep.n_min_length == 1


def test_universal_qp_check():
    u3 = build_system("U3")
    rot = next(a for a in u3.diagram_automorphisms() if a.order() == 3)
    verdict = universal_qp_check(u3, ExtElement(u3.identity, rot))
    assert verdict.is_qp and not verdict.in_iplus  # theta^2 != 1

    u2 = build_system("U2")
    v2 = universal_qp_check(u2, ext(u2, (0,)))
    assert v2.is_qp and v2.in_iplus

    v3 = universal_qp_check(u3, ext(u3, (0, 1)))
    assert not v3.is_qp
    assert v3.stuck_length == 2


def test_universal_truncated_brute_force_agrees():
    u3 = build_system("U3")
    rot = next(a for a in u3.diagram_automorphisms() if a.order() == 3)
    cases = [
        ExtElement(u3.identity, rot),
        ext(u3, (0,)),
        ext(u3, (0, 1)),
    ]
    for seed in cases:
        criterion = universal_qp_check(u3, seed)
        K = conjugacy_set(u3, seed, cutoff=6)
        brute = check_quasiparabolic(K)
        assert brute.is_qp == criterion.is_qp


def test_report_rows_and_json():
    a2 = build_system("A2")
    reports = survey(a2, thetas=[a2.identity_aut()])
    payload = [r.to_json() for r in reports]
    rows = list(csv.reader(io.StringIO(_survey_csv(payload))))
    assert rows[0] == SURVEY_COLUMNS and len(rows) == len(reports) + 1
    for r, d, row in zip(reports, payload, rows[1:]):
        assert row[0] == "A2" and int(row[2]) == r.size
        assert d["qp"] == r.qp.is_qp and row[5] == str(r.qp.is_qp)
    # the 5-bit structure column, in the order documented in the README
    order = [
        "J_theta_stable", "centralizer_is_twisted_normalizer", "fixed_by_J",
        "squares_onto_iota", "x_is_longest",
    ]
    for i, flag in enumerate(order):
        rep = dict(payload[0], structure={k: k == flag for k in order})
        row = list(csv.reader(io.StringIO(_survey_csv([rep]))))[1]
        assert row[-1] == "".join("1" if j == i else "0" for j in range(5))


def test_diagnostics_fields():
    a3 = build_system("A3")
    rep = class_report(conjugacy_set(a3, ext(a3, (0, 2))), diagnostics=True)
    assert rep.order_agrees is True
    assert rep.strong_exchange_ok is True


def _or_none(check, K):
    """check(K), or None where the check does not apply to K."""
    try:
        return check(K)
    except (NoUniqueMinimal, NotInvolutionClass):
        return None


def class_data(K):
    return (K.keys, K.height2, K.action)


@pytest.mark.parametrize("type_string", ["A3", "B3", "D4", "F4", "H3", "I2(5)"])
def test_classes_and_structure_match_element_oracle(type_string):
    # searches, structure checks and perfectness on ids against Element
    # arithmetic, on every class under every theta
    system = build_system(type_string)
    flags = set()
    for theta in system.diagram_automorphisms():
        for involutions_only in (True, False):
            new = twisted_classes(system, theta, involutions_only=involutions_only)
            old = oracle_classify.twisted_classes(system, theta, involutions_only=involutions_only)
            assert [class_data(K) for K in new] == [class_data(L) for L in old]
        for K, L in zip(new, old):
            structure = _or_none(structure_check, K)
            assert structure == _or_none(oracle_classify.structure_check, L)
            assert structure == _or_none(oracle_classify.rows_structure_check, K)
            assert _or_none(is_perfect, K) == _or_none(oracle_classify.is_perfect, L)
            assert _strong_exchange(K) == oracle_classify.strong_exchange(L)
            if structure is not None:
                flags.add(structure.all_ok())
    assert flags == {True}  # every class with a unique minimum here passes


@pytest.mark.parametrize("type_string", ["A3", "B3", "I2(5)", "D4"])
def test_structure_flags_match_element_oracle_off_the_classes(type_string):
    # (x, theta) alone as a one-point carrier, for every x: there the flags
    # also fail, which no class with a unique minimum shows.  On D4 only the
    # trialities (sigma != id and theta^2 != 1), on a sample of the ids
    system = build_system(type_string)
    triality = type_string == "D4"
    seen = set()
    for theta in system.diagram_automorphisms():
        if triality and (theta * theta).is_identity():
            continue
        for x in system.elements()[::3 if triality else 1]:
            K = ScaledWSet(system, "conjugacy", [x.key], [x.length], [[0]] * system.rank, theta=theta)
            flags = structure_check(K)
            assert flags == oracle_classify.structure_check(K) == oracle_classify.rows_structure_check(K)
            seen.add(flags.centralizer_is_twisted_normalizer)
    assert seen == {True, False}


def test_universal_criterion_matches_element_oracle():
    for type_string in ("U2", "U3", "B3"):  # the criterion reads words on a finite system too
        system = build_system(type_string)
        for theta in system.diagram_automorphisms():
            for word in [(), (0,), (0, 1), (1, 0, 1), (0, 1, 0, 1)]:
                seed = ext(system, tuple(s % system.rank for s in word), theta)
                if seed.x.length != len(word):
                    continue
                assert universal_qp_check(system, seed) == oracle_classify.universal_qp_check(system, seed)
