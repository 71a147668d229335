"""W-graphs from canonical tables: tau-sets, edge weights, cells.

A labeled graph (V, omega, tau) encodes an H-module where H_s scales a
vertex by v when s is outside its tau-set and otherwise contributes -v^-1
plus weighted edges into vertices avoiding s.  The m-graph labels a vertex
with the generators that weakly lower it, the n-graph with those that weakly
raise it; edge weights are the symmetrized mu-coefficients, zeroed when the
tau-sets are nested (the "reduced" condition).  Cells are the strongly
connected components of the nonzero-weight digraph.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .barcanon import CanonicalTable, CheckVerdict
from .errors import TruncationRequired
from .laurent import V, VINV, LaurentPoly, add_scaled
from .qpsets import ScaledWSet


class WGraph(NamedTuple):
    kind: str  # "m" or "n"
    X: ScaledWSet
    tau: list[frozenset[int]]
    omega: dict[tuple[int, int], int]
    n_gens: int

    def vertices(self):
        return range(len(self.tau))

    def bipartition_color(self, x: int) -> int:
        """The parity of the height of x above its orbit minimum."""
        return self.X.parity[x]


def build_wgraph(table: CanonicalTable) -> WGraph:
    X = table.X
    kind = table.kind.lower()
    n = len(X)
    h2 = X.height2
    tau = []
    for x in range(n):
        moves = []
        for s in range(X.n_gens):
            y = X.action[s][x]
            if y is None:
                raise TruncationRequired(
                    f"generator {s} leaves the carrier at point {x}: a W-graph needs the tau-set of every point"
                )
            moves.append((s, h2[y] - h2[x]))
        # m: the generators that weakly lower x; n: those that weakly raise it
        tau.append(frozenset(s for s, d in moves if (d <= 0 if kind == "m" else d >= 0)))
    omega: dict[tuple[int, int], int] = {}
    for x in range(n):
        for y in range(n):
            if x == y or tau[x] <= tau[y]:
                continue
            w = table.mu_of(x, y) + table.mu_of(y, x)
            if w:
                omega[(x, y)] = w
    return WGraph(kind, X, tau, omega, X.n_gens)


class AdmissibilityVerdict(NamedTuple):
    quasi_admissible: bool
    admissible: bool
    failure: Optional[dict] = None


def check_quasi_admissible(G: WGraph) -> AdmissibilityVerdict:
    """Reduced, integral, bipartite by height parity, symmetric on tau-incomparable pairs."""
    for (x, y), w in G.omega.items():
        if G.tau[x] <= G.tau[y]:
            return AdmissibilityVerdict(False, False, {"reason": "not reduced", "x": x, "y": y})
        if not isinstance(w, int):
            return AdmissibilityVerdict(False, False, {"reason": "non-integer weight", "x": x, "y": y})
        if G.bipartition_color(x) == G.bipartition_color(y):
            return AdmissibilityVerdict(False, False, {"reason": "not bipartite", "x": x, "y": y})
        if not G.tau[y] <= G.tau[x]:
            # tau-incomparable pair: the weight must be symmetric
            if G.omega.get((y, x), 0) != w:
                return AdmissibilityVerdict(
                    False, False, {"reason": "asymmetric weight", "x": x, "y": y}
                )
    admissible = all(w >= 0 for w in G.omega.values())
    return AdmissibilityVerdict(True, admissible)


# ---------------------------------------------------------------------------
# the module defined by a labeled graph


def _rho_columns(G: WGraph, s: int) -> list[dict[int, LaurentPoly]]:
    cols = [{x: -VINV if s in G.tau[x] else V} for x in G.vertices()]
    for (x, y), w in G.omega.items():  # omega holds nonzero weights off the diagonal
        if s in G.tau[x] and s not in G.tau[y]:
            cols[x][y] = LaurentPoly.const(w)
    return cols


def _mat_mult(A: list[dict], B: list[dict]) -> list[dict]:
    out = []
    for col in B:
        acc: dict[int, LaurentPoly] = {}
        for y, c in col.items():
            add_scaled(acc, A[y], c)
        out.append(acc)
    return out


def verify_wgraph_module(G: WGraph) -> CheckVerdict:
    """The quadratic relation and the braid relations for the rho-matrices."""
    system = G.X.system
    rho = [_rho_columns(G, s) for s in range(G.n_gens)]
    for s in range(G.n_gens):
        # (rho(H_s) - v)(rho(H_s) + v^-1) = 0
        minus = [add_scaled(dict(col), {x: V}, -1) for x, col in enumerate(rho[s])]
        plus = [add_scaled(dict(col), {x: VINV}) for x, col in enumerate(rho[s])]
        if any(col for col in _mat_mult(minus, plus)):
            return CheckVerdict(False, "wgraph-quadratic", {"s": s})
    for s in range(G.n_gens):
        for t in range(s + 1, G.n_gens):
            m_st = system.matrix[s][t]
            left = _alternating(rho[s], rho[t], m_st)
            right = _alternating(rho[t], rho[s], m_st)
            if left != right:
                return CheckVerdict(False, "wgraph-braid", {"s": s, "t": t})
    return CheckVerdict(True, "wgraph-module")


def _alternating(A, B, m):
    """A B A B ... with m factors, rightmost applied first."""
    out = None
    seq = [A if i % 2 == 0 else B for i in range(m)]
    for M in reversed(seq):
        out = M if out is None else _mat_mult(out, M)
    return out


# ---------------------------------------------------------------------------
# cells


class CellPartition(NamedTuple):
    cells: list[list[int]]  # each sorted; listed in topological order
    leq: list[int]  # bitmask over cell indices: reachability in the quotient


def cells(G: WGraph) -> CellPartition:
    """Strongly connected components of the nonzero-weight digraph, Tarjan-style."""
    n = len(G.tau)
    adj = [[] for _ in range(n)]
    for (x, y) in G.omega:
        adj[x].append(y)
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    comps = []
    counter = [0]

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                onstack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                u = adj[v][i]
                if index[u] is None:
                    work.append((v, i + 1))
                    work.append((u, 0))
                    recurse = True
                    break
                if onstack[u]:
                    low[v] = min(low[v], index[u])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    onstack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    comps.reverse()  # Tarjan emits in reverse topological order
    cell_of = {}
    for i, comp in enumerate(comps):
        for x in comp:
            cell_of[x] = i
    leq = [1 << i for i in range(len(comps))]
    for i in range(len(comps) - 1, -1, -1):
        for x in comps[i]:
            for y in adj[x]:
                j = cell_of[y]
                if j != i:
                    leq[i] |= leq[j]
    return CellPartition(comps, leq)


# ---------------------------------------------------------------------------
# export


def _fmt_height(h2: int) -> str:
    return str(h2 // 2) if h2 % 2 == 0 else f"{h2}/2"


def to_dot(G: WGraph) -> str:
    part = cells(G)
    lines = [f"digraph wgraph_{G.kind} {{"]
    for x in G.vertices():
        tau = ",".join(f"s{s + 1}" for s in sorted(G.tau[x]))
        label = f"{x} | {_fmt_height(G.X.height2[x])} | {{{tau}}}"
        lines.append(f'  v{x} [label="{label}"];')
    for (x, y), w in sorted(G.omega.items()):
        attr = f' [label="{w}"]' if w != 1 else ""
        lines.append(f"  v{x} -> v{y}{attr};")
    lines.append(f'  // cells: {part.cells}')
    lines.append("}")
    return "\n".join(lines)


def to_json(G: WGraph, verdict: Optional[AdmissibilityVerdict] = None) -> dict:
    part = cells(G)
    out = {
        "schema_version": 1,
        "kind": G.kind,
        "system": G.X.system.name,
        "carrier": G.X.kind,
        "vertices": [
            {"id": x, "height2": G.X.height2[x], "tau": sorted(G.tau[x])}
            for x in G.vertices()
        ],
        "edges": [[x, y, w] for (x, y), w in sorted(G.omega.items())],
        "cells": part.cells,
        "cell_order": [
            [i, j]
            for i in range(len(part.cells))
            for j in range(len(part.cells))
            if i != j and part.leq[i] >> j & 1
        ],
    }
    if verdict is not None:
        out["quasi_admissible"] = verdict.quasi_admissible
        out["admissible"] = verdict.admissible
    return out
