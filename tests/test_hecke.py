import random

import pytest

from qpcox import barcanon, hecke
from qpcox.barcanon import ModuleVector, act_hecke, bar_vector
from qpcox.coxeter import ExtElement, build_system
from qpcox.errors import ConsistencyError, InfiniteParabolic
from qpcox.hecke import HeckeElt, kl_basis
from qpcox.laurent import ONE, V, VINV
from qpcox.qpsets import conjugacy_set, coset_set

from oracle_canonical import table_entries, v_power
from oracle_group import bruhat_leq
from oracle_hecke import OracleHecke, by_element, from_t_pairs, mult, to_t_pairs


def H(w):
    return HeckeElt.basis(w.system, w.key)


def random_hecke(rng, system, elements):
    coords = {}
    for _ in range(rng.randrange(4)):
        coords[rng.choice(elements).key] = v_power(rng.randrange(-3, 4)) * rng.randrange(-3, 4)
    return HeckeElt(system, {w: c for w, c in coords.items() if c})  # coordinates hold no zero


def test_quadratic_relation():
    a2 = build_system("A2")
    s = a2.generator(0)
    hs = H(s)
    assert hs * hs == HeckeElt.unit(a2) + hs.scale(V - VINV)


def test_unit_and_length_additive():
    a2 = build_system("A2")
    s1, s2 = a2.generators()
    A = H(s1 * s2).scale(V) + H(s2)
    assert HeckeElt.unit(a2) * A == A
    assert H(s1) * H(s2 * s1) == H(s1 * s2 * s1)


def test_bar_examples():
    a2 = build_system("A2")
    s1, s2 = a2.generators()
    hs = H(s1)
    assert hs.bar() == hs + HeckeElt.unit(a2).scale(VINV - V)
    one = HeckeElt.unit(a2)
    assert one.bar() == one
    w = H(s1 * s2)
    assert w.bar().bar() == w


def test_mul_associative_random():
    for t in ("A2", "B2", "A3"):
        sys = build_system(t)
        elements = sys.elements()
        rng = random.Random(42)
        for _ in range(25):
            A = random_hecke(rng, sys, elements)
            B = random_hecke(rng, sys, elements)
            C = random_hecke(rng, sys, elements)
            assert (A * B) * C == A * (B * C)


def test_bar_is_ring_homomorphism_random():
    for t in ("A2", "B2"):
        sys = build_system(t)
        elements = sys.elements()
        rng = random.Random(7)
        for _ in range(25):
            A = random_hecke(rng, sys, elements)
            B = random_hecke(rng, sys, elements)
            assert (A * B).bar() == A.bar() * B.bar()
            assert (A + B).bar() == A.bar() + B.bar()


def test_every_basis_element_invertible_a3():
    a3 = build_system("A3")
    one = HeckeElt.unit(a3)
    for w in a3.elements():
        # (H_w)^-1 = bar(H_{w^-1})
        assert H(w.inverse()).bar() * H(w) == one


def test_kl_basis_small():
    a2 = build_system("A2")
    table = kl_basis(a2)
    s1, s2 = a2.generators()
    assert table.underline(a2.identity.key) == HeckeElt.unit(a2)
    assert table.underline(s1.key) == H(s1) + HeckeElt.unit(a2).scale(VINV)
    # underline H_{w0} = sum over x of v^(len(x) - 3) H_x, all six elements
    w0 = a2.longest_element()
    expect = HeckeElt(a2, {x.key: v_power(x.length - 3) for x in a2.elements()})
    assert table.underline(w0.key) == expect


def test_kl_polys_properties():
    for t in ("A2", "A3", "B2"):
        sys = build_system(t)
        table = kl_basis(sys)
        for y in sys.elements():
            u = table.underline(y.key)
            assert u.bar() == u
            for x, c in by_element(u).items():
                if x == y:
                    assert c == ONE
                else:
                    assert bruhat_leq(x, y)
                    assert max(c.terms) < 0
        if t.startswith("A"):
            # positivity holds in general; spot-check type A
            for c in table_entries(table.cols).values():
                assert all(v >= 0 for v in c.terms.values())


def test_kl_dihedral_closed_form():
    # in dihedral groups every entry is the bare monomial v^(len x - len y)
    for t in ("I2(5)", "I2(6)", "B2"):
        sys = build_system(t)
        table = kl_basis(sys)
        lengths = sys._table.length
        assert all(
            c == v_power(lengths[x] - lengths[y]) for (x, y), c in table_entries(table.cols).items()
        )


def test_kl_a3_singular_pairs():
    # the classical 3412 / 4231 patterns of S4 carry the polynomial 1 + q,
    # i.e. v^-3 + v^-1 here; everything else is a monomial
    a3 = build_system("A3")
    table = kl_basis(a3)
    w3412 = a3.element_from_word((1, 0, 2, 1))
    w4231 = a3.element_from_word((0, 1, 2, 1, 0))
    assert table.poly(a3.generator(1).key, w3412.key) == v_power(-3) + v_power(-1)
    assert table.poly((a3.generator(0) * a3.generator(2)).key, w4231.key) == v_power(-3) + v_power(-1)
    nontrivial = [(x, y) for (x, y), c in table_entries(table.cols).items() if len(c.terms) > 1]
    assert len(nontrivial) == 6
    assert all(y in (w3412.key, w4231.key) for _, y in nontrivial)


def test_t_basis_roundtrip():
    b2 = build_system("B2")
    rng = random.Random(1)
    elements = b2.elements()
    for _ in range(20):
        A = random_hecke(rng, b2, elements)
        assert from_t_pairs(b2, to_t_pairs(A)) == A
    # T_s = v H_s
    s = b2.generator(0)
    assert to_t_pairs(H(s).scale(V)) == [[[0], [[0, 1]]]]


def test_first_bar_builds_the_bar_matrix_once(monkeypatch):
    # a bar reads the whole bar matrix: the first bar on A4 regular fills
    # every column, and later bars, theta and N bars (no generator fixes a
    # point, so N reads M's columns relabeled N) fill none
    a4 = build_system("A4")
    X = hecke.regular_module(a4)
    fills, fill = [], barcanon._bar_columns
    monkeypatch.setattr(barcanon, "_bar_columns", lambda kind, X: fills.append(kind) or fill(kind, X))
    s1 = a4.generator(0)
    assert H(s1).bar() == H(s1) + HeckeElt.unit(a4).scale(VINV - V)
    assert fills == ["M"] and len(X._barcols["M"]) == len(X)
    w = a4.element_from_word((0, 1, 2))
    assert H(w).theta() == H(w).bar().scale(-1)
    assert all(H(w).bar().bar() == H(w) for w in a4.elements())
    bar_n = bar_vector(ModuleVector.standard("N", X, w.key))
    assert bar_n.kind == "N" and bar_n.coords == H(w).bar().coords
    assert fills == ["M"]


def test_theta_is_algebra_automorphism():
    a2 = build_system("A2")
    rng = random.Random(13)
    elements = a2.elements()
    for _ in range(20):
        A = random_hecke(rng, a2, elements)
        B = random_hecke(rng, a2, elements)
        assert (A * B).theta() == A.theta() * B.theta()
    s = a2.generator(0)
    assert H(s).theta() == H(s).bar().scale(-1)


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3", "I2(5)", "D4"])
def test_hecke_matches_element_oracle(name):
    # H as M(regular), keyed by element id, against Element multiplication
    # and the Element-keyed bar
    sys = build_system(name)
    oracle = OracleHecke(sys)
    table = kl_basis(sys)
    h, mu = oracle.kl()
    assert table_entries(table.cols) == h and table_entries(table.mus) == mu
    elements = sys.elements()
    for w in elements:
        assert by_element(H(w).bar()) == oracle.bar({w: ONE})
    rng = random.Random(5)
    for _ in range(10):
        A = random_hecke(rng, sys, elements)
        B = random_hecke(rng, sys, elements)
        assert by_element(A * B) == mult(sys, by_element(A), by_element(B))
        assert by_element(A.bar()) == oracle.bar(by_element(A))
        assert by_element(A.theta()) == oracle.theta(by_element(A))


def test_universal_products_need_a_finite_system():
    u3 = build_system("U3")
    s1, s2, _ = u3.generators()
    hs = H(s1)
    for op in (lambda: hs * hs, hs.bar, hs.theta, lambda: kl_basis(u3)):
        with pytest.raises(InfiniteParabolic):
            op()
    # sums, and the action on a truncated carrier, only read words
    assert (hs + hs).coords == {s1.key: ONE + ONE} == {(0,): ONE + ONE}
    X = conjugacy_set(u3, ExtElement(s1, u3.identity_aut()), cutoff=5)
    top = X.index[(s2 * s1 * s2).key]
    assert act_hecke(ModuleVector.standard("M", X, 0), H(s2)) == ModuleVector.standard("M", X, top)


def test_regular_module_checks_point_ids(monkeypatch):
    # a carrier whose point ids are not the element ids is refused
    monkeypatch.setattr(hecke, "regular_set", lambda system: coset_set(system, (0,)))
    with pytest.raises(ConsistencyError):
        hecke.regular_module(build_system("A2"))
