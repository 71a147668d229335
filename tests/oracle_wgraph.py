"""The W-graph module check on polynomial matrices.

This is verify_wgraph_module as wgraph ran it before it read v rho(H_s) at
v = 2^b and multiplied int columns: rho(H_s) as columns of LaurentPoly
entries (rho_columns), every product of rho-matrices by one add_scaled per
entry, the quadratic relation as (rho - v)(rho + v^-1) = 0 and each braid
relation as the equality of the two alternating products.  It is kept as an
independent oracle for the verdict and its witness.  verify_wgraph_module
does not check the quadratic relation, which holds on every labeled graph
(its docstring has the proof); quadratic_failures does, and test_wgraph runs
it on arbitrary labeled graphs.
"""

from qpcox.barcanon import CheckVerdict
from qpcox.laurent import V, VINV, LaurentPoly

from oracle_canonical import add_scaled


def rho_columns(G, s: int) -> list[dict]:
    """The columns of rho(H_s): -v^-1 at x and the weight w at y for each
    edge (x, y) with s outside tau(y), where s is in tau(x); else v at x."""
    cols = [{x: -VINV if s in G.tau[x] else V} for x in G.vertices()]
    for (x, y), w in G.omega.items():  # omega holds nonzero weights off the diagonal
        if s in G.tau[x] and s not in G.tau[y]:
            cols[x][y] = LaurentPoly.const(w)
    return cols


def mat_mult(A: list[dict], B: list[dict]) -> list[dict]:
    out = []
    for col in B:
        acc: dict = {}
        for y, c in col.items():
            add_scaled(acc, A[y], c)
        out.append(acc)
    return out


def alternating(A, B, m):
    """The product of m factors alternating between A and B, A rightmost."""
    out = None
    seq = [A if i % 2 == 0 else B for i in range(m)]
    for M in reversed(seq):
        out = M if out is None else mat_mult(out, M)
    return out


def quadratic_failures(G) -> list[int]:
    """The s with (rho(H_s) - v)(rho(H_s) + v^-1) != 0, in order."""
    out = []
    for s in range(G.n_gens):
        rho = rho_columns(G, s)
        minus = [add_scaled(dict(col), {x: V}, -1) for x, col in enumerate(rho)]
        plus = [add_scaled(dict(col), {x: VINV}) for x, col in enumerate(rho)]
        if any(col for col in mat_mult(minus, plus)):
            out.append(s)
    return out


def poly_verify_wgraph_module(G) -> CheckVerdict:
    """The quadratic relation and the braid relations for the rho-matrices."""
    system = G.X.system
    rho = [rho_columns(G, s) for s in range(G.n_gens)]
    failures = quadratic_failures(G)
    if failures:
        return CheckVerdict(False, "wgraph-quadratic", {"s": failures[0]})
    for s in range(G.n_gens):
        for t in range(s + 1, G.n_gens):
            m_st = system.matrix[s][t]
            left = alternating(rho[s], rho[t], m_st)
            right = alternating(rho[t], rho[s], m_st)
            if left != right:
                return CheckVerdict(False, "wgraph-braid", {"s": s, "t": t})
    return CheckVerdict(True, "wgraph-module")
