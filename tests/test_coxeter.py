import random

import pytest

from oracle_group import OracleGroup, bruhat_leq, is_twisted_involution, left_descents, right_descents, scan_roots
from qpcox import coxeter
from qpcox.coxeter import ExtElement, KeyTwist, build_system, twisted_conjugate
from qpcox.errors import (
    BadMatrix, ConsistencyError, GroupTooLarge, InfiniteParabolic, NotFinite, SystemMismatch
)


# ---------------------------------------------------------------------------
# Independent oracle for type A: one-line permutations of {0..n}, with
# s_i = the adjacent transposition (i, i+1) acting by left multiplication.

def perm_mult(p, q):
    return tuple(p[i] for i in q)


def perm_of_word(n, word):
    p = tuple(range(n))
    for s in word:
        t = list(range(n))
        t[s], t[s + 1] = t[s + 1], t[s]
        p = perm_mult(p, tuple(t))
    return p


def inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def sym_elements(system):
    """Map each element of a type-A system to its one-line permutation."""
    n = system.rank + 1
    return {w: perm_of_word(n, w.word()) for w in system.elements()}


def test_build_small_types():
    a2 = build_system("A2")
    assert a2.order() == 6
    assert len(a2.reflections()) == 3
    i24 = build_system("I2(4)")
    assert i24.order() == 8
    assert i24.longest_element().length == 4
    u3 = build_system("U3")
    assert u3.family == "universal"
    assert u3.identity.length == 0


def test_build_orders_match_known_formulas():
    # |A_n| = (n+1)!, |B_n| = 2^n n!, |D4| = 192, |F4| = 1152, |I2(m)| = 2m
    assert build_system("A3").order() == 24
    assert build_system("B2").order() == 8
    assert build_system("B3").order() == 48
    assert build_system("D4").order() == 192
    assert build_system("F4").order() == 1152
    assert build_system("I2(7)").order() == 14
    assert build_system("H3").order() == 120


def test_root_tables_without_enumeration():
    e6 = build_system("E6")
    assert e6.n_positive_roots == 36
    assert e6._table is None  # building roots must not enumerate 51840 elements
    f4 = build_system("F4")
    assert f4.n_positive_roots == 24
    h4 = build_system("H4")
    assert h4.n_positive_roots == 60


@pytest.mark.parametrize("type_string", [
    *(f"A{n}" for n in range(1, 9)), *(f"B{n}" for n in range(2, 7)), "D4", "D5", "D6",
    "E6", "E7", "E8", "F4", "H3", "H4", *(f"I2({m})" for m in (5, 8, 12, 50, 997)),
])
def test_hashed_roots_match_scan_oracle(type_string):
    # roots looked up by hashing are found in the order the linear scan found them
    system = build_system(type_string)
    assert (system.gen_root_perm, system.positive) == scan_roots(system.matrix)


@pytest.mark.parametrize("type_string, reason", [("I2(7)", "not an involution"), ("H4", "braid relation")])
def test_mis_snapped_roots_fail_loudly(monkeypatch, type_string, reason):
    # a grid this coarse merges distinct roots: a structural self-check refuses them
    monkeypatch.setattr(coxeter, "_SNAP", 0.9)
    with pytest.raises(NotFinite, match=reason):
        build_system(type_string)


def test_bad_matrices():
    with pytest.raises(BadMatrix):
        build_system([[1, 3], [4, 1]])  # not symmetric
    with pytest.raises(BadMatrix):
        build_system([[1, 1], [1, 1]])  # off-diagonal < 2
    with pytest.raises(BadMatrix):
        build_system("Q7")
    with pytest.raises(BadMatrix):
        build_system([[1, 3, 0], [3, 1, 3], [0, 3, 1]])  # mixed finite/infinite


def test_affine_matrix_rejected():
    # the affine A~2 matrix (all bonds 3 on a triangle) is not positive definite
    with pytest.raises(NotFinite):
        build_system([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


def test_group_arithmetic_against_symmetric_group_oracle():
    a3 = build_system("A3")
    table = sym_elements(a3)
    assert len(set(table.values())) == 24
    elements = a3.elements()
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.choice(elements), rng.choice(elements)
        assert table[a * b] == perm_mult(table[a], table[b])
        assert inversions(table[a]) == a.length
    for a in elements:
        inv = a.inverse()
        assert perm_mult(table[a], table[inv]) == tuple(range(4))
        assert inv.length == a.length
    # descent sets: s in Des_L(w) iff w^-1(s) > w^-1(s+1) in one-line form,
    # and right descents are the left descents of the inverse
    for a in elements:
        p = table[a]
        expect = {s for s in range(3) if p.index(s) > p.index(s + 1)}
        assert left_descents(a) == expect
        assert right_descents(a) == left_descents(a.inverse())


def test_multiply_examples():
    a2 = build_system("A2")
    s1, s2 = a2.generators()
    assert (s1 * s2) * s2 == s1
    assert (s1 * s2) * s2 == s1
    assert left_descents(a2.longest_element()) == {0, 1}
    assert (s1 * s2).inverse() == s2 * s1
    with pytest.raises(SystemMismatch):
        s1 * build_system("A2").generator(0)


def test_braid_and_parity_invariants():
    for t in ("A2", "B2", "A3", "I2(5)"):
        sys = build_system(t)
        gens = sys.generators()
        for i, s in enumerate(gens):
            for j, t_ in enumerate(gens):
                prod = sys.identity
                for _ in range(sys.matrix[i][j]):
                    prod = prod * (s * t_)
                assert prod.is_identity()
        rng = random.Random(11)
        elements = sys.elements()
        for _ in range(100):
            x, w = rng.choice(elements), rng.choice(elements)
            assert (x * w).length % 2 == (x.length + w.length) % 2
            assert x.inverse().length == x.length


def test_reflection_counts():
    assert len(build_system("A2").reflections()) == 3
    assert len(build_system("B2").reflections()) == 4
    assert len(build_system("A3").reflections()) == 6  # transpositions of S4
    for t in ("A2", "A3", "B2", "B3"):
        sys = build_system(t)
        assert len(sys.reflections()) == sys.longest_element().length
        assert all(r * r == sys.identity for r in sys.reflections())


def test_reflections_are_conjugates_of_generators():
    a3 = build_system("A3")
    expect = {
        w * s * w.inverse() for w in a3.elements() for s in a3.generators()
    }
    assert set(a3.reflections()) == expect


def bruhat_subword_oracle(x, y):
    """Subword property: x <= y iff some subword of a fixed reduced word of y is x."""
    word = y.word()
    sys = x.system
    for mask in range(1 << len(word)):
        sub = [word[i] for i in range(len(word)) if mask >> i & 1]
        if sys.element_from_word(sub) == x:
            return True
    return False


@pytest.mark.parametrize("t", ["A2", "A3", "B2"])
def test_bruhat_matches_subword_oracle(t):
    sys = build_system(t)
    elements = sys.elements()
    for x in elements:
        for y in elements:
            assert bruhat_leq(x, y) == bruhat_subword_oracle(x, y), (x, y)


def test_bruhat_examples():
    a2 = build_system("A2")
    s1, s2 = a2.generators()
    assert bruhat_leq(s1, s1 * s2)
    assert not bruhat_leq(s1, s2)
    for x in a2.elements():
        assert bruhat_leq(x, x)


def test_longest_element():
    a2 = build_system("A2")
    s1, s2 = a2.generators()
    assert a2.longest_element([0]) == s1
    w0 = a2.longest_element()
    assert w0 == s1 * s2 * s1 and w0.length == 3
    a3 = build_system("A3")
    assert a3.longest_element([0, 2]) == a3.generator(0) * a3.generator(2)
    assert a3.longest_element([]).is_identity()
    with pytest.raises(InfiniteParabolic):
        build_system("U2").longest_element([0, 1])


def test_diagram_automorphisms():
    assert len(build_system("A2").diagram_automorphisms()) == 2
    assert len(build_system("A1").diagram_automorphisms()) == 1
    assert len(build_system("D4").diagram_automorphisms()) == 6
    assert len(build_system("F4").diagram_automorphisms()) == 2
    assert len(build_system("B3").diagram_automorphisms()) == 1
    # D4 automorphisms permute the outer nodes {s1, s3, s4} and fix the branch node s2
    for aut in build_system("D4").diagram_automorphisms():
        assert aut.sigma[1] == 1


def assert_group_automorphism(system, aut, seed, pairs):
    rng = random.Random(seed)
    elements = system.elements()
    for _ in range(pairs):
        x, y = rng.choice(elements), rng.choice(elements)
        assert aut(x * y) == aut(x) * aut(y)
        assert aut(x).length == x.length


def test_aut_acts_as_group_automorphism():
    a3 = build_system("A3")
    rev = next(a for a in a3.diagram_automorphisms() if not a.is_identity())
    assert_group_automorphism(a3, rev, 3, 100)
    assert (rev * rev).is_identity()


def test_d4_triality_is_a_group_automorphism():
    d4 = build_system("D4")
    rot = next(a for a in d4.diagram_automorphisms() if a.order() == 3)
    assert rot.sigma[1] == 1  # fixes the branch node
    assert (rot * rot * rot).is_identity()
    assert_group_automorphism(d4, rot, 17, 60)


def test_e6_flip_is_a_group_automorphism():
    e6 = build_system("E6")
    flip = next(a for a in e6.diagram_automorphisms() if not a.is_identity())
    assert flip.sigma == (5, 1, 4, 3, 2, 0)  # s1<->s6, s3<->s5, fixing s2 and s4
    assert_group_automorphism(e6, flip, 19, 300)


@pytest.mark.parametrize("type_string", ["A4", "B4", "D4", "D5", "F4", "H3", "I2(8)"])
def test_group_tables_match_root_permutation_oracle(type_string):
    system = build_system(type_string)
    table = system._ensure_table()
    oracle = OracleGroup(system)
    # the same element gets the same id on both sides
    assert table.perms == [oracle.simple_root_key(w) for w in range(len(oracle.perms))]
    assert table.length == oracle.length
    assert table.rmult == oracle.rmult
    assert table.lmult == oracle.lmult
    assert table.inverse == oracle.inverse
    rng = random.Random(23)
    n = len(oracle.perms)
    for _ in range(2000):
        a, b = rng.randrange(n), rng.randrange(n)
        assert table.mult_ids(a, b) == oracle.mult_ids(a, b)
    for aut in system.diagram_automorphisms():
        images = [aut(w).key for w in system.elements()]
        assert images == oracle.automorphism_images(system, aut.sigma), aut


def test_automorphism_table_gate_checks_every_edge():
    a3 = build_system("A3")
    flip = next(a for a in a3.diagram_automorphisms() if not a.is_identity())
    theta = [flip(x).key for x in a3.elements()]  # from an intact table
    a3 = build_system("A3")
    flip = next(a for a in a3.diagram_automorphisms() if not a.is_identity())
    table = a3._ensure_table()

    def tree_edge(w, s):
        ws = table.rmult[w][s]
        return table.parent[ws] == w and table.last[ws] == s

    # the recurrence reads only the images of tree edges, and flip is an
    # involution: corrupt an edge off the tree whose image is off it too, so
    # that only the check over every edge can see it
    w, s = next(
        (w, s)
        for w in range(len(table.perms))
        for s in range(3)
        if table.length[table.rmult[w][s]] > table.length[w]
        and not tree_edge(w, s)
        and not tree_edge(theta[w], flip.sigma[s])
    )
    table.rmult[w][s] = w
    with pytest.raises(ConsistencyError, match="theta"):
        flip(a3.identity)


def test_enumeration_refused_above_max_order(monkeypatch):
    assert 362880 <= coxeter.MAX_ORDER < 2903040  # |A8| <= limit < |E7|
    monkeypatch.setattr(coxeter, "MAX_ORDER", 1000)
    b5 = build_system("B5")
    with pytest.raises(GroupTooLarge, match="MAX_ORDER = 1000"):
        b5.order()


def test_ext_group_laws():
    a2 = build_system("A2")
    s1, s2 = a2.generators()
    ident, swap = a2.diagram_automorphisms()
    a = ExtElement(s1, swap)
    assert a * a == ExtElement(s1 * s2, ident)  # swap(s1) = s2
    b = ExtElement(s1, ident)
    c = ExtElement(s2, ident)
    assert b * c == ExtElement(s1 * s2, ident)
    assert (a * a.inverse()).is_identity()
    # twisted conjugation instance
    one_theta = ExtElement(a2.identity, swap)
    out = twisted_conjugate(s1, one_theta)
    assert out == ExtElement(s1 * swap(s1).inverse(), swap)


def test_twisted_involutions():
    a2 = build_system("A2")
    s1, _ = a2.generators()
    ident, swap = a2.diagram_automorphisms()
    assert is_twisted_involution(ExtElement(a2.identity, swap))
    assert not is_twisted_involution(ExtElement(s1, swap))  # swap(s1) = s2 != s1
    w0 = a2.longest_element()
    assert is_twisted_involution(ExtElement(w0, ident))  # w0^2 = 1 in A2
    # the key-level test src/ reads agrees with (x, theta)^2 = 1
    u3 = build_system("U3")
    for system in (a2, build_system("A3"), u3):
        points = u3.reflections_up_to(5) + [u3.element_from_word((0, 1))] if system is u3 else system.elements()
        for theta in system.diagram_automorphisms():
            twist = KeyTwist(theta)
            assert [twist.involutive(x.key) for x in points] == [
                is_twisted_involution(ExtElement(x, theta)) for x in points
            ]


def test_w0_aut():
    a2 = build_system("A2")
    theta0 = a2.w0_aut()
    assert not theta0.is_identity()  # conjugation by w0 swaps s1, s2 in A2
    b2 = build_system("B2")
    assert b2.w0_aut().is_identity()  # w0 central in B2
    w0 = a2.longest_element()
    for s in a2.generators():
        assert theta0(s) == w0 * s * w0


def test_universal_elements():
    u3 = build_system("U3")
    s0, s1, s2 = u3.generators()
    w = s0 * s1 * s0
    assert w.length == 3 and w.word() == (0, 1, 0)
    assert (w * w).is_identity()
    assert (s0 * s1) * (s1 * s2) == s0 * s2
    assert w.inverse() == w
    assert bruhat_leq(s0, w) and not bruhat_leq(s2, w)
    assert bruhat_subword_oracle(s0, w) and not bruhat_subword_oracle(s2, w)
    refl = u3.reflections_up_to(3)
    assert len(refl) == 3 + 6  # three generators plus six length-3 palindromes
    assert all(r.word() == tuple(reversed(r.word())) for r in refl)


def test_fused_word_conjugation_matches_two_products():
    # w x theta(w)^-1 cancelled in one pass against two junction products, on
    # every pair of U3 words of length <= 6 under every theta
    u3 = build_system("U3")
    words = [()]
    for n in range(6):
        words += [w + (s,) for w in words if len(w) == n for s in range(3) if not w or w[-1] != s]
    assert len(words) == 1 + 3 + 6 + 12 + 24 + 48 + 96
    for theta in u3.diagram_automorphisms():
        conj = KeyTwist(theta).conj
        for w in words:
            tail = tuple(theta.sigma[s] for s in reversed(w))
            for x in words:
                assert conj(w, x) == coxeter._u_mult(coxeter._u_mult(w, x), tail)


def test_word_is_reduced_and_reproduces_element():
    for t in ("A3", "B2", "I2(6)"):
        sys = build_system(t)
        for w in sys.elements():
            word = w.word()
            assert len(word) == w.length
            assert sys.element_from_word(word) == w


def system_to_json(system):
    """The JSON summary of a system that CoxeterSystem.to_json used to give."""
    out = {
        "schema_version": 1,
        "name": system.name,
        "rank": system.rank,
        "family": system.family,
        "matrix": [list(row) for row in system.matrix],
    }
    if system.family == "finite":
        out["order"] = system.order()
        out["n_reflections"] = system.n_positive_roots
    return out


def test_system_json():
    d = system_to_json(build_system("B2"))
    assert d["order"] == 8 and d["n_reflections"] == 4 and d["rank"] == 2
