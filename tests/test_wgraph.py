import random

import pytest

from qpcox.barcanon import canonical_basis, primed_basis
from qpcox.coxeter import ExtElement, build_system
from qpcox.laurent import LaurentPoly, V, VINV, ZERO
from qpcox.qpsets import conjugacy_set, coset_set, even_double_cover, regular_set
from oracle_canonical import act_gen, to_canonical_coords
from oracle_qpsets import payloads
from oracle_wgraph import poly_verify_wgraph_module, quadratic_failures, rho_columns
from qpcox.wgraph import (
    WGraph,
    build_wgraph,
    cells,
    check_quasi_admissible,
    to_dot,
    to_json,
    verify_wgraph_module,
)


def fpf_class(system):
    seed = ExtElement(
        system.element_from_word(tuple(range(0, system.rank, 2))),
        system.identity_aut(),
    )
    return conjugacy_set(system, seed)


def graphs_for(X):
    return {
        "m": build_wgraph(canonical_basis("M", X)),
        "n": build_wgraph(canonical_basis("N", X)),
    }


def module_verdict(G):
    """verify_wgraph_module's verdict, which must equal the polynomial oracle's."""
    verdict = verify_wgraph_module(G)
    assert verdict == poly_verify_wgraph_module(G)
    return verdict


def point_words(X, pids):
    points = payloads(X)
    return {tuple(points[p].word()) for p in pids}


def test_regular_a2_cells_are_the_left_cells_of_s3():
    a2 = build_system("A2")
    X = regular_set(a2)
    gs = graphs_for(X)
    expect = {
        frozenset({()}),
        frozenset({(0,), (1, 0)}),
        frozenset({(1,), (0, 1)}),
        frozenset({(0, 1, 0)}),
    }
    for G in gs.values():
        part = cells(G)
        got = {frozenset(point_words(X, cell)) for cell in part.cells}
        assert got == expect


def test_regular_graphs_are_dual_presentations():
    # tau_n complements tau_m on an even carrier and the edges transpose, so
    # the two graphs carry the same classical KL structure
    a2 = build_system("A2")
    X = regular_set(a2)
    gs = graphs_for(X)
    gm, gn = gs["m"], gs["n"]
    full = frozenset(range(X.n_gens))
    for x in range(len(X)):
        assert gn.tau[x] == full - gm.tau[x]
    assert gn.omega == {(y, x): w for (x, y), w in gm.omega.items()}
    assert {frozenset(c) for c in cells(gm).cells} == {frozenset(c) for c in cells(gn).cells}


def test_fpf_a3_graph():
    a3 = build_system("A3")
    X = fpf_class(a3)
    gs = graphs_for(X)
    gm = gs["m"]
    bottom = 0  # the s1 s3 point
    assert gm.tau[bottom] == frozenset({0, 2})
    for G in gs.values():
        verdict = check_quasi_admissible(G)
        assert verdict.quasi_admissible
        assert module_verdict(G).ok
        part = cells(G)
        assert sorted(sum(part.cells, [])) == list(range(len(X)))


def test_quasi_admissibility_and_module_axioms_everywhere():
    a2 = build_system("A2")
    a3 = build_system("A3")
    b2 = build_system("B2")
    carriers = [
        regular_set(a2),
        regular_set(b2),
        coset_set(a3, [1]),
        coset_set(a3, [0, 2]),
        fpf_class(a3),
    ]
    for X in carriers:
        for G in graphs_for(X).values():
            verdict = check_quasi_admissible(G)
            assert verdict.quasi_admissible, verdict.failure
            assert module_verdict(G).ok
    # admissibility (nonnegative weights) holds on these classical carriers
    # but is reported, never assumed
    assert check_quasi_admissible(graphs_for(regular_set(a2))["m"]).admissible


def test_covers_of_covers_are_w_graph_modules():
    # the rho-matrices of a cover of a cover satisfy the braid relations of
    # W x A1 x A1, both bit flips included
    a2, b2, a3 = build_system("A2"), build_system("B2"), build_system("A3")
    for X in (coset_set(a2, [0]), coset_set(b2, [0]), fpf_class(a3)):
        C = even_double_cover(even_double_cover(X))
        for G in graphs_for(C).values():
            assert module_verdict(G).ok
            assert check_quasi_admissible(G).quasi_admissible
            assert G.n_gens == C.system.rank == X.n_gens + 2


def test_single_vertex_graph():
    a1 = build_system("A1")
    X = coset_set(a1, [0])  # one point
    for G in graphs_for(X).values():
        assert module_verdict(G).ok
        assert cells(G).cells == [[0]]


def test_rho_matches_module_action_on_canonical_basis():
    # for the n-graph, the coefficient of underline N_y in H_s underline N_x
    # reproduces the labeled-graph action exactly
    a3 = build_system("A3")
    for X in (coset_set(a3, [2]), fpf_class(a3), regular_set(build_system("A2"))):
        table = canonical_basis("N", X)
        G = build_wgraph(table)
        for s in range(X.n_gens):
            for x in range(len(X)):
                image = act_gen(table.underline(x), s)
                coords = to_canonical_coords(table, image)
                if s not in G.tau[x]:
                    assert coords == {x: V}
                else:
                    expect = {x: -VINV}
                    for (xx, y), w in G.omega.items():
                        if xx == x and s not in G.tau[y]:
                            expect[y] = LaurentPoly.const(w)
                    expect = {k: v for k, v in expect.items() if v}
                    assert coords == expect


def test_transpose_law_for_m_graph():
    # the m-graph action is the transpose of the action on the primed n-basis
    a3 = build_system("A3")
    X = coset_set(a3, [1])
    table_m = canonical_basis("M", X)
    table_n = canonical_basis("N", X)
    G = build_wgraph(table_m)
    primed, verdict = primed_basis(table_m, table_n, "N")
    assert verdict.ok

    def expand_over_primed(vec):
        rem = dict(vec.coords)
        out = {}
        for y in range(len(X) - 1, -1, -1):
            c = rem.get(y)
            if not c:
                continue
            out[y] = c
            for x, q in primed[y].coords.items():
                s = rem.get(x, ZERO) - c * q
                if s:
                    rem[x] = s
                else:
                    rem.pop(x, None)
        assert not rem
        return out

    for s in range(X.n_gens):
        rho = rho_columns(G, s)
        for x in range(len(X)):
            coords = expand_over_primed(act_gen(primed[x], s))
            for y in range(len(X)):
                assert coords.get(y, ZERO) == rho[y].get(x, ZERO)


def test_cell_quotient_is_a_dag():
    a3 = build_system("A3")
    for X in (regular_set(a3), coset_set(a3, [0])):
        G = build_wgraph(canonical_basis("M", X))
        part = cells(G)
        for i in range(len(part.cells)):
            for j in range(len(part.cells)):
                if i != j and part.leq[i] >> j & 1:
                    assert not part.leq[j] >> i & 1  # antisymmetric


def test_bipartite_by_height_parity():
    a3 = build_system("A3")
    for X in (fpf_class(a3), coset_set(a3, [1])):
        for G in graphs_for(X).values():
            for (x, y) in G.omega:
                assert G.bipartition_color(x) != G.bipartition_color(y)


def test_dot_and_json_exports():
    a2 = build_system("A2")
    X = regular_set(a2)
    G = build_wgraph(canonical_basis("M", X))
    dot = to_dot(G)
    assert "digraph" in dot and "v0" in dot
    d = to_json(G, check_quasi_admissible(G))
    assert d["quasi_admissible"] is True
    assert len(d["vertices"]) == 6
    assert all(len(e) == 3 for e in d["edges"])


def pair_scan_omega(table, tau):
    """The edge weights of build_wgraph as it formed them before it read
    only the nonzero mu: every ordered pair, in (x, y) order."""
    n = len(tau)
    omega = {}
    for x in range(n):
        for y in range(n):
            if x != y and not tau[x] <= tau[y]:
                w = table.mu_of(x, y) + table.mu_of(y, x)
                if w:
                    omega[(x, y)] = w
    return omega


def test_weights_from_the_nonzero_mu_match_the_pair_scan():
    # the same items in the same order, so cells, JSON and DOT are unchanged
    carriers = [regular_set(build_system(name)) for name in ("A3", "B3", "H3", "A4")]
    carriers += [coset_set(build_system("B3"), [0]), fpf_class(build_system("A5"))]
    for X in carriers:
        for kind in ("M", "N"):
            table = canonical_basis(kind, X)
            G = build_wgraph(table)
            assert list(G.omega.items()) == list(pair_scan_omega(table, G.tau).items()), (X, kind)
            assert G.omega, (X, kind)
            assert module_verdict(G).ok, (X, kind)


def mutations(G):
    """Each graph with one edge weight raised by 1, then each with one edge dropped."""
    for e, w in G.omega.items():
        yield G._replace(omega={**G.omega, e: w + 1})
    for e in G.omega:
        yield G._replace(omega={k: w for k, w in G.omega.items() if k != e})


@pytest.mark.parametrize("carrier", ["regular", "fpf"])
@pytest.mark.parametrize("kind", ["M", "N"])
def test_mutated_graphs_fail_the_module_check_as_the_oracle_does(carrier, kind):
    a3 = build_system("A3")
    X = regular_set(a3) if carrier == "regular" else fpf_class(a3)
    G = build_wgraph(canonical_basis(kind, X))
    # an edge between tau-incomparable points: changing or dropping it
    # breaks a braid relation on both carriers
    x, y = next(e for e in sorted(G.omega) if not G.tau[e[1]] <= G.tau[e[0]])
    changed = G._replace(omega={**G.omega, (x, y): G.omega[(x, y)] + 1})
    dropped = G._replace(omega={k: w for k, w in G.omega.items() if k != (x, y)})
    for H in (changed, dropped):
        verdict = module_verdict(H)
        assert not verdict.ok and verdict.name == "wgraph-braid"
        assert set(verdict.failure) == {"s", "t"}
    failed = [not module_verdict(H).ok for H in mutations(G)]
    assert sum(failed) >= len(failed) // 2


@pytest.mark.parametrize("name", ["I2(8)", "I2(12)"])
def test_module_check_on_dihedral_regular_graphs_matches_the_oracle(name):
    # m_st = 8 and 12: the longest products, and the largest 2^b
    X = regular_set(build_system(name))
    for G in graphs_for(X).values():
        assert module_verdict(G).ok
        e = min(G.omega)
        assert module_verdict(G._replace(omega={**G.omega, e: -G.omega[e]})) == (
            False, "wgraph-braid", {"s": 0, "t": 1})


def hand_built(name, tau, omega):
    X = regular_set(build_system(name))  # only its system's matrix is read
    return WGraph("m", X, [frozenset(t) for t in tau], omega, X.n_gens)


def test_module_check_with_weights_beyond_64_bits_matches_the_oracle():
    big = 2**70 + 1
    # on A1 x A1 the edge from {s, t} to {s} may carry any weight
    assert module_verdict(hand_built("I2(2)", [{0}, {0, 1}], {(1, 0): big})).ok
    assert module_verdict(hand_built("I2(2)", [{0}, {0, 1}], {(1, 0): -(2**64)})).ok
    assert not module_verdict(hand_built("I2(2)", [{0}, {1}], {(0, 1): 2**64})).ok
    # on A2 the two weights of a {s} -- {t} pair must multiply to 1
    assert module_verdict(hand_built("A2", [{0}, {1}], {(0, 1): -1, (1, 0): -1})).ok
    for a, b in ((2**64, 2**64), (2**64, 1), (big, -big), (2**64 + 1, 2**64 - 1)):
        verdict = module_verdict(hand_built("A2", [{0}, {1}], {(0, 1): a, (1, 0): b}))
        assert verdict == (False, "wgraph-braid", {"s": 0, "t": 1})
    # the braid difference of this A2 graph is -v^2 (v - W)(W v - 1) at (2, 3)
    # and zero elsewhere, so reading it at v = W would pass it
    for W in (2, 2**64, 2**100):
        omega = {(0, 1): 1, (1, 0): 1, (0, 2): 1, (3, 0): W, (3, 1): W * W + 1}
        verdict = module_verdict(hand_built("A2", [{0}, {1}, set(), {0, 1}], omega))
        assert verdict == (False, "wgraph-braid", {"s": 0, "t": 1})
    # a classical graph with every weight scaled past 2^64
    G = build_wgraph(canonical_basis("M", regular_set(build_system("A3"))))
    for c in (2**64, -(2**80) - 3):
        assert not module_verdict(G._replace(omega={e: c * w for e, w in G.omega.items()})).ok
    assert module_verdict(G._replace(omega={e: -w for e, w in G.omega.items()})).ok


def test_quadratic_relation_holds_on_every_labeled_graph():
    # verify_wgraph_module checks only the braid relations: the oracle's
    # quadratic check passes arbitrary tau-sets and weights, negative,
    # asymmetric and past 2^64, while many of these graphs break a braid relation
    rng = random.Random(29)
    weights = (-(2**64) - 1, -5, -1, 1, 2, 3, 2**64, 2**70 + 1)
    braid_failures = 0
    for name, rank in (("I2(2)", 2), ("A2", 2), ("B3", 3), ("I2(5)", 2)):
        for _ in range(15):
            n = rng.randint(1, 6)
            tau = [set(rng.sample(range(rank), rng.randint(0, rank))) for _ in range(n)]
            omega = {(x, y): rng.choice(weights) for x in range(n) for y in range(n)
                     if x != y and rng.random() < 0.6}
            G = hand_built(name, tau, omega)
            assert quadratic_failures(G) == []
            braid_failures += not module_verdict(G).ok
    assert braid_failures >= 10


def test_module_check_does_no_polynomial_arithmetic(monkeypatch):
    # the rho-matrices are read at v = 2^b: with LaurentPoly's +, - and *
    # made to fail, every verdict is still the oracle's
    a3 = build_system("A3")
    graphs = [G for X in (regular_set(a3), fpf_class(a3), regular_set(build_system("I2(8)")))
              for G in graphs_for(X).values()]
    graphs += list(mutations(graphs[0]))[:20]
    expect = [poly_verify_wgraph_module(G) for G in graphs]
    assert not all(v.ok for v in expect)

    def fail(*args):
        pytest.fail("polynomial arithmetic ran")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(LaurentPoly, op, fail)
    assert [verify_wgraph_module(G) for G in graphs] == expect
