"""Deformed modules on a quasiparabolic carrier and their canonical bases.

For a carrier X the free Z[v, v^-1]-modules M(X) and N(X) on the standard
basis {M_x} / {N_x} carry Hecke algebra actions differing only in the
equal-height case (v M_x versus -v^-1 N_x).  A bar operator is the
antilinear involution fixing the minimal standard vectors and compatible
with the bar involution upstairs, so on every carrier it is built by the
recurrence bar M_x = bar(H_s) bar M_sx for the lowest generator s lowering x.
(On a twisted-involution class the paper gives it in closed form,
bar M_(x,t) = v^lmin . bar(H_x) M_(x^-1,t); the tests keep that as an oracle.)
Canonical bases (built by laurent.canonical_columns from the multiplication
theorem), their mu-coefficients, the primed bases, the Phi twists between M
and N, and the inversion pairing of a class with its w0+-translate are all
built and verified here; every verification returns a verdict object rather
than asserting, so failures surface with witnesses.

The certificates cost about as much as the columns they check.  On an
untruncated carrier bar(H_s M_x) = bar(H_s) bar(M_x) is a comparison of
columns: where s raises x, bar M_sx = bar(H_s) bar M_x; where s keeps the
height, bar(H_s) bar M_x is bar M_x times the conjugate eigenvalue; where s
lowers x, the identity follows from the raising one at (s, sx), because
bar(H_s)^2 = 1 + (v^-1 - v) bar(H_s) (see verify_bar_operator).  The Phi
twisted law is the same comparison with Theta(H_s) = -bar(H_s).  The table
checks visit only the points below the columns they read.

The carrier is the cache of its own stages: the bar columns, bar verdict,
canonical table and table checks of each kind (X._barcols[kind], ...) and
the Phi maps are coxeter.stage functions, computed once per carrier and
shared by every caller holding it.  The per-kind ones go through
_kind_stage, whose one rule is this: where no generator keeps the height of
a point (on a quasiparabolic carrier, fixes one), as on the regular
carrier, the N stages are the M stages relabeled N.  That is exact: act_gen,
and with it the bar recurrence, differs between the kinds only where s keeps
the height, and so does the descent (weak for M, strict for N) of the solve
and of the table checks.  Only the parity check's constant-term clause reads
the kind everywhere, so it runs per kind.

The Hecke algebra itself is M on the regular carrier (see hecke), so this
module never imports hecke: act_hecke reads only the words of an element's
support.
"""

from __future__ import annotations

import copy
import functools
from typing import NamedTuple, Optional, Sequence

from .classify import twisted_classes, w0_translate
from .coxeter import CoxeterSystem, stage
from .errors import ConsistencyError, SystemMismatch, TruncationRequired, UncertifiedBar
from .laurent import (
    ONE, V, VINV, ZERO, LaurentPoly, PolyMemo, act_generator, add_scaled, canonical_columns, lincomb, v_power,
)
from .qpsets import ScaledWSet, bruhat_order, check_quasiparabolic, lowest_descent


class ModuleVector:
    """A finitely supported vector over the standard basis of M(X) or N(X)."""

    __slots__ = ("kind", "X", "coords")

    def __init__(self, kind: str, X: ScaledWSet, coords: dict[int, LaurentPoly]):
        if kind not in ("M", "N"):
            raise ConsistencyError(f"module kind must be 'M' or 'N', got {kind!r}")
        self.kind = kind
        self.X = X
        self.coords = {p: c for p, c in coords.items() if c}

    @classmethod
    def standard(cls, kind: str, X: ScaledWSet, pid: int) -> "ModuleVector":
        return cls(kind, X, {pid: ONE})

    def _check(self, other):
        if other.kind != self.kind or other.X is not self.X:
            raise SystemMismatch("vectors of different modules or carriers")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check(other)
        return ModuleVector(self.kind, self.X, add_scaled(dict(self.coords), other.coords))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._check(other)
        return ModuleVector(self.kind, self.X, add_scaled(dict(self.coords), other.coords, -1))

    def scale(self, c) -> "ModuleVector":
        return ModuleVector(self.kind, self.X, add_scaled({}, self.coords, c))

    def coeff(self, pid: int) -> LaurentPoly:
        return self.coords.get(pid, ZERO)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.kind == other.kind
            and self.X is other.X
            and self.coords == other.coords
        )

    def __repr__(self):
        if not self.coords:
            return "0"
        basis = self.kind
        return " + ".join(
            f"({self.coords[p]}){basis}[{p}]" for p in sorted(self.coords)
        )


# ---------------------------------------------------------------------------
# the H-action


def act_gen(vec: ModuleVector, s: int) -> ModuleVector:
    """Left action of H_s, by the three-case rule."""
    X = vec.X
    return ModuleVector(vec.kind, X, act_generator(vec.coords, X.action, s, X.height2, vec.kind))


def act_bar_gen(vec: ModuleVector, s: int) -> ModuleVector:
    """Left action of bar(H_s) = H_s^-1 = H_s + (v^-1 - v)."""
    X = vec.X
    return ModuleVector(vec.kind, X, act_generator(vec.coords, X.action, s, X.height2, vec.kind, bar=True))


def act_word(vec: ModuleVector, word) -> ModuleVector:
    """Left action of H_{s_1} ... H_{s_k}."""
    for s in reversed(word):
        vec = act_gen(vec, s)
    return vec


def act_hecke(vec: ModuleVector, A) -> ModuleVector:
    """Left action of a Hecke element A (a hecke.HeckeElt of X's system)."""
    return _combine(vec.kind, vec.X, ((act_word(vec, w.word()).coords, c) for w, c in A.coords.items()))


def _combine(kind: str, X: ScaledWSet, terms) -> ModuleVector:
    """The vector sum of c * coords over the (coords, c) pairs of terms, each
    distinct product computed once (laurent.lincomb)."""
    return ModuleVector(kind, X, lincomb(terms))


# ---------------------------------------------------------------------------
# bar operators


@stage("_kinds_agree")
def _kinds_agree(X: ScaledWSet) -> bool:
    """Whether M and N share their stages on X (see the module docstring)."""
    return all(y is None or X.height2[y] != X.height2[x] for row in X.action for x, y in enumerate(row))


def _as_n(obj, X=None):
    """A shallow copy of a stage result of kind M, labeled N (X is unused)."""
    out = copy.copy(obj)
    out.kind = "N"
    return out


def _kind_stage(attr: str, relabel=_as_n):
    """A decorator for a stage build(kind, X) of a carrier: it runs once per
    carrier and kind, kept as X.<attr>[kind] (a coxeter.stage); where the
    kinds agree on X, N's result is relabel(M's result, X)."""
    def decorate(build):
        @stage(attr)
        @functools.wraps(build)
        def per_kind(X, kind):
            if kind == "N" and _kinds_agree(X):
                return relabel(per_kind(X, "M"), X)
            return build(kind, X)
        return functools.wraps(per_kind)(lambda kind, X: per_kind(X, kind))
    return decorate


@stage("_polys")
def _polys(X: ScaledWSet) -> dict:
    """The carrier's pool: one object per distinct polynomial, shared by its
    bar columns and canonical tables of both kinds.  Few distinct values
    occur (81 among the 98,407 entries of each bar matrix of A5 regular, 123
    among the 5,491 table entries of H3 regular).  ONE is the entry of every
    minimal column."""
    return {ONE: ONE}


@stage("_barpart")
def _bar_part(X: ScaledWSet, kind: str) -> dict:
    """The bar columns of kind filled so far, by point id (see _bar_fill)."""
    return {}


@_kind_stage("_barcols", relabel=lambda cols, X: [_as_n(col) for col in cols])
def bar_columns(kind: str, X: ScaledWSet) -> list[ModuleVector]:
    """bar of every standard basis vector, as columns indexed by point id."""
    return _bar_columns(kind, X)


def _bar_columns(kind: str, X: ScaledWSet) -> list[ModuleVector]:
    # ids refine height, so in id order each fill is one recurrence step
    # from a column already filled
    part = _bar_part(X, kind)
    for x in range(len(X)):
        _bar_fill(kind, X, part, x)
    return [part[x] for x in range(len(X))]


def _bar_fill(kind: str, X: ScaledWSet, part: dict, x: int) -> None:
    """Fill part[x] and the columns its recurrence reads: bar M_x =
    bar(H_s) bar M_sx for the lowest generator s lowering x, down the chain
    of such steps to a filled column or a minimal point, which keeps M_x.
    Each entry is the carrier's pooled object (_polys)."""
    pool = _polys(X)
    chain = []
    while x not in part:
        step = lowest_descent(X.action, X.height2, x)
        if step is None:
            part[x] = ModuleVector.standard(kind, X, x)
            break
        chain.append((x, step))
        x = step[1]
    for y, (s, sy) in reversed(chain):
        col = part[y] = act_bar_gen(part[sy], s)
        for p, c in col.coords.items():
            col.coords[p] = pool.setdefault(c, c)


def bar_vector(vec: ModuleVector) -> ModuleVector:
    """The antilinear extension of the bar operator to any vector.

    Reads bar_columns where they are built; otherwise it fills only the
    columns below the support of vec (the partial store X._barpart), and
    completes bar_columns once those cover the carrier."""
    kind, X = vec.kind, vec.X
    cols = X.__dict__.get("_barcols", {}).get(kind)
    if cols is None:
        cols = _bar_part(X, kind)
        for p in vec.coords:
            _bar_fill(kind, X, cols, p)
        if len(cols) == len(X):
            cols = bar_columns(kind, X)
    return _combine(kind, X, ((cols[p].coords, c.bar()) for p, c in vec.coords.items()))


class BarVerdict(NamedTuple):
    ok: bool
    kind: str
    failure: Optional[dict] = None
    checked: int = 0
    skipped: int = 0
    label: Optional[str] = None


@_kind_stage("_barverdicts", relabel=lambda verdict, X: verdict._replace(kind="N"))
def verify_bar_operator(kind: str, X: ScaledWSet) -> BarVerdict:
    """Certify the bar operator on this carrier.

    Checks that bar is unitriangular for the Bruhat order, that it commutes
    with the H-action generator by generator, bar(H_s M_x) = bar(H_s) bar(M_x)
    (which on a finite carrier is equivalent to well-definedness over all
    height witnesses), and that it is an involution on standard vectors.
    Points whose neighborhoods fall outside a truncation are skipped and
    counted.

    On an untruncated carrier the commutation is a comparison of columns,
    by the three-case rule for H_s M_x:
      - s raises x: H_s M_x = M_sx, so cols[sx] must be bar(H_s) cols[x];
      - s keeps the height of x: H_s M_x is v M_x (M) or -v^-1 N_x (N), so
        bar(H_s) cols[x] must be v^-1 cols[x] (M) or -v cols[x] (N);
      - s lowers x: nothing is left to check.  With y = sx, s raises y and
        M_x = H_s M_y, so the raising check at (s, y) gives
        bar(M_x) = bar(H_s) bar(M_y).  The three-case rule satisfies
        H_s^2 = 1 + (v - v^-1) H_s on every orbit of <s>, hence
        bar(H_s)^2 = 1 + (v^-1 - v) bar(H_s), and
        bar(H_s M_x) = bar(M_y + (v - v^-1) M_x)
                     = bar(M_y) + (v^-1 - v) bar(H_s) bar(M_y)
                     = bar(H_s)^2 bar(M_y) = bar(H_s) bar(M_x).
    Ids refine height, so in id order the raising check at (s, sx) has
    passed before (s, x) is reached, and the lowering case is counted there.
    The argument holds for the three-case rule, so at every (s, x) act_gen
    and act_bar_gen must first send M_x where that rule and bar(H_s) = H_s +
    (v^-1 - v) say; the columns are built with act_bar_gen, and a kernel that
    broke the quadratic relation could otherwise pass every raising check.

    The involution is then checked only at the minimal points, those no
    generator lowers.  The commutation gives bar(H_s V) = bar(H_s) bar(V) for
    every vector V, so bar∘bar commutes with every H_s, as bar(bar(H_s)) =
    H_s.  If s lowers x then s raises sx and M_x = H_s M_sx, hence
    bar(bar(M_x)) = H_s bar(bar(M_sx)), and by induction on height bar∘bar
    fixes every M_x once it fixes the minimal ones.  checked still counts
    n (1 + n_gens) identities: the n - |minima| involutions this lemma
    certifies are counted once the commutation has passed.  A break at a
    non-minimal point therefore fails as "incompatible with H_s", not as
    "not an involution".  On a truncated carrier a witness word can leave
    the carrier, so every identity is checked directly at every point.
    """
    verdict = check_quasiparabolic(X)
    if not verdict.is_qp:
        return BarVerdict(False, kind, {"reason": "not quasiparabolic", **(verdict.witness() or {})})
    cols = bar_columns(kind, X)
    checked = skipped = 0
    full = X.truncated_at is None

    if full:
        order = bruhat_order(X)
        for x in range(len(X)):
            col = cols[x]
            if col.coeff(x) != ONE or any(
                not order.lt(w, x) for w in col.coords if w != x
            ):
                return BarVerdict(False, kind, {"reason": "not unitriangular", "x": x}, checked, skipped, X.label)

    points = X.minimal_elements() if full else range(len(X))
    for x in points:
        try:
            bb = bar_vector(cols[x])
        except TruncationRequired:
            skipped += 1
            continue
        checked += 1
        if bb != ModuleVector.standard(kind, X, x):
            return BarVerdict(False, kind, {"reason": "not an involution", "x": x}, checked, skipped, X.label)

    for s in range(X.n_gens):
        for x in range(len(X)):
            try:
                if full:
                    ok = _commutes_on_columns(kind, X, cols, s, x)
                else:
                    ok = bar_vector(act_gen(ModuleVector.standard(kind, X, x), s)) == act_bar_gen(cols[x], s)
            except TruncationRequired:
                skipped += 1
                continue
            checked += 1
            if not ok:
                return BarVerdict(
                    False, kind, {"reason": "incompatible with H_s", "s": s, "x": x},
                    checked, skipped, X.label,
                )
    if full:
        checked += len(X) - len(points)  # the involutions the lemma certifies
    return BarVerdict(True, kind, None, checked, skipped, X.label)


def _commutes_on_columns(kind: str, X: ScaledWSet, cols: list[ModuleVector], s: int, x: int) -> bool:
    """bar(H_s M_x) = bar(H_s) bar(M_x) on an untruncated carrier, as a
    comparison of columns, after the two kernels are checked on M_x against
    the three-case rule (see verify_bar_operator)."""
    sx = X.action[s][x]
    d = X.height2[sx] - X.height2[x]
    eigen = V if kind == "M" else -VINV  # H_s M_x where s keeps the height of x
    rule = {sx: ONE} if d > 0 else {sx: ONE, x: V - VINV} if d < 0 else {x: eigen}
    if act_generator({x: ONE}, X.action, s, X.height2, kind) != rule:
        return False
    if act_generator({x: ONE}, X.action, s, X.height2, kind, bar=True) != add_scaled(rule, {x: ONE}, VINV - V):
        return False
    if d < 0:
        return True  # follows from the raising check at (s, sx)
    image = act_generator(cols[x].coords, X.action, s, X.height2, kind, bar=True)
    return image == (cols[sx].coords if d > 0 else add_scaled({}, cols[x].coords, eigen.bar()))


# ---------------------------------------------------------------------------
# canonical bases


class CanonicalTable:
    """The triangular array p[x, y] expanding the canonical basis of M or N,
    stored column by column: cols[y] = {x: p[x, y]}, and its nonzero
    mu-coefficients likewise: mus[y] = {x: mu(x, y)}."""

    def __init__(self, kind: str, X: ScaledWSet):
        self.kind = kind
        self.X = X
        p, mu = canonical_columns(kind, X.action, X.height2)
        # the one store, shared with every caller: read-only; each entry is
        # the carrier's pooled object (_polys)
        self.cols: list[dict[int, LaurentPoly]] = [{} for _ in range(len(X))]
        pool = _polys(X)
        for (x, y), c in p.items():
            self.cols[y][x] = pool.setdefault(c, c)
        self.mus: list[dict[int, int]] = [{} for _ in range(len(X))]
        for (x, y), m in mu.items():
            self.mus[y][x] = m
        self.label = X.label
        for y in range(len(X)) if X.truncated_at is not None else ():  # small: check bar invariance too
            if bar_vector(self.underline(y)) != self.underline(y):
                raise ConsistencyError(f"canonical {kind}-column {y} is not bar-invariant")

    def poly(self, x: int, y: int) -> LaurentPoly:
        return self.cols[y].get(x, ZERO)

    def mu_of(self, x: int, y: int) -> int:
        return self.mus[y].get(x, 0)

    def underline(self, y: int) -> ModuleVector:
        return ModuleVector(self.kind, self.X, self.cols[y])

    def to_json(self) -> dict:
        # one [exponent, coefficient] list per pooled polynomial, shared by
        # every entry holding it, so jsonout renders each once
        pairs = {c: c.to_pairs() for c in {c for col in self.cols for c in col.values()}}
        return {
            "schema_version": 1,
            "kind": self.kind,
            "system": self.X.system.name,
            "carrier": {
                "kind": self.X.kind,
                "size": len(self.X),
                "truncated_at": self.X.truncated_at,
            },
            "label": self.label,
            "entries": [
                [x, y, pairs[col[x]]] for y, col in enumerate(self.cols) for x in sorted(col)
            ],
            "mu": [[x, y, col[x]] for y, col in enumerate(self.mus) for x in sorted(col)],
        }


def canonical_basis(kind: str, X: ScaledWSet) -> CanonicalTable:
    """The canonical table of kind on X, built once per carrier and kind.  Its
    columns are the canonical ones only for a certified bar operator, so a
    failing bar verdict (memoized, so certified callers pay nothing more)
    raises UncertifiedBar instead."""
    verdict = verify_bar_operator(kind, X)
    if not verdict.ok:
        raise UncertifiedBar(f"no canonical {kind}-table: the bar operator fails its certificate ({verdict.failure})")
    return _canonical_table(kind, X)


@_kind_stage("_tables")
def _canonical_table(kind: str, X: ScaledWSet) -> CanonicalTable:
    return CanonicalTable(kind, X)


class CheckVerdict(NamedTuple):
    ok: bool
    name: str
    failure: Optional[dict] = None


@_kind_stage("_checks", relabel=lambda checks, X: [verify_parity(canonical_basis("N", X)), *checks[1:]])
def table_checks(kind: str, X: ScaledWSet) -> list[CheckVerdict]:
    """Parity, and on an untruncated carrier also the multiplication theorem,
    the recurrences and the mu-delta lemma, on the canonical table of kind.
    Where the kinds agree, the last three are M's verdicts: they read the
    kind only where a generator keeps a height.  Parity runs per kind."""
    return _table_checks(canonical_basis(kind, X))


def _table_checks(table: CanonicalTable) -> list[CheckVerdict]:
    checks = [verify_parity(table)]
    if table.X.truncated_at is None:
        checks += [verify_multiplication(table), verify_recurrences(table), verify_mu_lemma(table)]
    return checks


def verify_parity(table: CanonicalTable) -> CheckVerdict:
    """v^(ht y - ht x) p[x, y] lies in 1 + v^2 Z[v^2] (kind M) or Z[v^2] (kind N),
    and mus[y] is exactly {x: [v^-1] p[x, y]} over the nonzero coefficients.
    Together these give mu(x, y) = 0 wherever ht y - ht x is even.

    Each (polynomial, height difference) is decided once per call, in a
    memo keyed by value (the entries are the carrier's pooled objects): one
    polynomial can pass at one difference and fail at another."""
    X = table.X
    h2 = X.height2
    unit = table.kind == "M"  # M also needs the constant term 1
    passes: dict = {}  # (p, k) -> whether v^k p lies in the lattice of the kind
    for y, col in enumerate(table.cols):
        for x, c in col.items():
            k = (h2[y] - h2[x]) // 2
            ok = passes.get((c, k))
            if ok is None:
                ok = passes[c, k] = all(e + k >= 0 and not (e + k) % 2 for e in c.terms) and (
                    not unit or c.terms.get(-k) == 1)
            if not ok:
                return CheckVerdict(False, "parity", {"x": x, "y": y})
        mus = table.mus[y]
        expect = {x: c.terms[-1] for x, c in col.items() if -1 in c.terms}
        if mus != expect:
            x = min(x for x in mus.keys() | expect.keys() if mus.get(x) != expect.get(x))
            return CheckVerdict(False, "parity", {"x": x, "y": y, "mu": mus.get(x, 0)})
    return CheckVerdict(True, "parity")


def verify_multiplication(table: CanonicalTable) -> CheckVerdict:
    """The action of underline H_s on the canonical basis, per kind."""
    X = table.X
    h2 = X.height2
    order = bruhat_order(X)
    weak = table.kind == "M"  # M descends weakly, N strictly

    def descends(s, x):
        d = h2[X.action[s][x]] - h2[x]
        return d < 0 or (weak and d == 0)

    for s in range(X.n_gens):
        for x in range(len(X)):
            u = table.cols[x]
            lhs = act_generator(u, X.action, s, h2, table.kind)
            add_scaled(lhs, u, VINV)
            sx = X.action[s][x]
            if descends(s, x):
                rhs = add_scaled({}, u, V + VINV)
            else:
                rhs = dict(table.cols[sx]) if h2[sx] > h2[x] else {}
                for w, m in table.mus[x].items():
                    if m and order.leq(w, x) and descends(s, w):
                        add_scaled(rhs, table.cols[w], m)
            if lhs != rhs:
                return CheckVerdict(False, "multiplication", {"s": s, "x": x})
    return CheckVerdict(True, "multiplication")


def verify_recurrences(table: CanonicalTable) -> CheckVerdict:
    """The translated-polynomial recurrences that compute the table column-by-column.

    For (s, y) with s lowering y, x runs over D + s D only, where D is
    down(y) + down(sy): a nonzero term needs x <= y, sx <= y, x <= sy,
    sx <= sy or x <= t <= sy, so outside that set both sides are 0.  Where s
    keeps the height of y (kind M), sy = y and D is down(y).

    The arithmetic goes through a PolyMemo private to the call: each
    distinct shift, sum and product is done once, and every value is
    interned, so the two sides are compared by identity."""
    X = table.X
    kind = table.kind
    order = bruhat_order(X)
    down = order.downsets
    h2 = X.height2
    ar = PolyMemo()
    shift, add, mul = ar.shift, ar.add, ar.mul

    # wts[y] = {x: v^(ht y - ht x) p[x, y]} on x <= y, interned
    wts = [
        {x: shift(c, (h2[y] - h2[x]) // 2) for x, c in col.items() if order.leq(x, y)}
        for y, col in enumerate(table.cols)
    ]

    def near(s, bits):  # the ids of D + s D, ascending, for D given by bits
        row = X.action[s]
        ids = [i for i in range(bits.bit_length()) if bits >> i & 1]
        return sorted(set(ids).union(row[i] for i in ids))

    for s in range(X.n_gens):
        row = X.action[s]
        for y in range(len(X)):
            sy = row[y]
            wt_y = wts[y]
            if kind == "M" and h2[sy] == h2[y]:
                for x in near(s, down[y]):
                    if wt_y.get(x, ZERO) is not wt_y.get(row[x], ZERO):
                        return CheckVerdict(False, "recurrence", {"s": s, "y": y, "x": x})
                continue
            if h2[sy] >= h2[y]:
                continue
            # the correction runs over x <= t < sy with s descending t (weakly
            # for M, strictly for N); the t = x term is nonzero exactly when
            # mu(x, sy) is.  Each term is wt(x, t) times -mu(t, sy) v^(ht y - ht t)
            corrections = []
            for t, m in table.mus[sy].items():
                drop = h2[row[t]] - h2[t]
                if m and order.lt(t, sy) and (drop < 0 or (kind == "M" and drop == 0)):
                    corrections.append((wts[t], ar.intern(-m * v_power((h2[y] - h2[t]) // 2))))
            wt_sy = wts[sy]
            for x in near(s, down[y] | down[sy]):
                sx = row[x]
                dh = h2[sx] - h2[x]
                a, b = wt_sy.get(x, ZERO), wt_sy.get(sx, ZERO)  # wt(x, sy), wt(sx, sy)
                if dh > 0:
                    total = add(a, shift(b, 2))
                elif dh < 0 or kind == "M":
                    total = add(shift(a, 2), b)
                else:
                    total = ZERO
                for wt_t, c in corrections:
                    w = wt_t.get(x)
                    if w is not None:
                        total = add(total, mul(w, c))
                here = wt_y.get(x, ZERO)
                if here is not total or here is not wt_y.get(sx, ZERO):
                    return CheckVerdict(False, "recurrence", {"s": s, "y": y, "x": x})
    return CheckVerdict(True, "recurrence")


def verify_mu_lemma(table: CanonicalTable) -> CheckVerdict:
    """mu(x, y) = delta_{sx,y} whenever s descends y (weakly/strictly) but not x."""
    X = table.X
    order = bruhat_order(X)
    h2 = X.height2
    for y in range(len(X)):
        mus = table.mus[y]
        for x in order.downset_ids(y):
            if x == y:
                continue
            for s in range(X.n_gens):
                sx, sy = X.action[s][x], X.action[s][y]
                if table.kind == "M":
                    applies = h2[sy] <= h2[y] and h2[sx] > h2[x]
                else:
                    applies = h2[sy] < h2[y] and h2[sx] >= h2[x]
                if applies:
                    expect = 1 if sx == y else 0
                    if mus.get(x, 0) != expect:
                        return CheckVerdict(False, "mu-delta", {"s": s, "x": x, "y": y})
    return CheckVerdict(True, "mu-delta")


# ---------------------------------------------------------------------------
# Phi maps and primed bases


@stage("_phi")
def phi_maps(X: ScaledWSet) -> "PhiMaps":
    """The Phi maps of the carrier, built once and kept on X."""
    return PhiMaps(X)


class PhiMaps:
    """The Theta-twisted bijections between M(X) and N(X)."""

    def __init__(self, X: ScaledWSet):
        self.X = X
        self.eps = [-1 if p else 1 for p in X.parity]
        bar_n = bar_columns("N", X)
        bar_m = bar_columns("M", X)
        self.mn_cols = [bar_n[x].scale(self.eps[x]) for x in range(len(X))]
        self.nm_cols = [bar_m[x].scale(self.eps[x]) for x in range(len(X))]

    def mn(self, vec: ModuleVector) -> ModuleVector:
        return self._apply(vec, "M", "N", self.mn_cols)

    def nm(self, vec: ModuleVector) -> ModuleVector:
        return self._apply(vec, "N", "M", self.nm_cols)

    def _apply(self, vec: ModuleVector, source: str, target: str, cols) -> ModuleVector:
        if vec.kind != source:
            raise ConsistencyError(f"this Phi map takes a vector of kind {source}, got {vec.kind}")
        return _combine(target, self.X, ((cols[p].coords, c) for p, c in vec.coords.items()))

    @stage("_verdict")
    def verify(self) -> CheckVerdict:
        """Check the twisted law, that the two maps are mutually inverse, and
        that each commutes with the bar operators; computed once per object.

        The paper builds Phi on a certified bar operator, so a failing bar
        verdict fails this one ("phi-bar-operator"), and a truncated carrier,
        whose boundary images leave it, raises TruncationRequired before any
        column operation.

        The twisted law Phi(H_s V) = Theta(H_s) Phi(V), Theta(H_s) = -bar(H_s),
        is checked for both maps.  Then Phi_NM∘Phi_MN is H-linear, because
        Theta is an algebra automorphism with Theta² = id, and so is
        Phi_MN∘Phi_NM.  With both bar operators certified, Phi∘bar and bar∘Phi
        both satisfy F(H_s V) = -H_s F(V).  Each orbit is generated from its
        minimal points by the H_s that raise, so two maps with the same H-law
        agree everywhere once they agree at the minima: the inverse and the
        two bar squares are checked only there.

        The twisted law is a comparison of columns, as in verify_bar_operator:
        where s raises x, Phi(M_sx) must be -bar(H_s) Phi(M_x); where s keeps
        the height of x, -bar(H_s) Phi(M_x) must be v Phi(M_x) (Phi_MN) or
        -v^-1 Phi(N_x) (Phi_NM).  Where s lowers x the law follows from the
        raising check at (s, sx): Phi is linear, and Theta(H_s) satisfies the
        quadratic relation of H_s, as Theta is an algebra automorphism; the
        bar verdicts have certified act_bar_gen against bar(H_s) = H_s +
        (v^-1 - v).
        """
        X = self.X
        if X.truncated_at is not None:
            raise TruncationRequired(
                f"the Phi maps need an untruncated carrier, and this one is cut off at height {X.truncated_at}"
            )
        for k in ("M", "N"):
            bar = verify_bar_operator(k, X)
            if not bar.ok:
                return CheckVerdict(False, "phi-bar-operator", {"bar": k, **(bar.failure or {})})
        h2 = X.height2
        for x in range(len(X)):
            for s in range(X.n_gens):
                sx = X.action[s][x]
                if h2[sx] < h2[x]:
                    continue  # follows from the raising check at (s, sx)
                for name, cols, eigen in (("phi-twisted-law", self.mn_cols, V),
                                          ("phi-twisted-law-n", self.nm_cols, -VINV)):
                    lhs = cols[sx].coords if h2[sx] > h2[x] else add_scaled({}, cols[x].coords, eigen)
                    image = act_generator(cols[x].coords, X.action, s, h2, cols[x].kind, bar=True)
                    if lhs != add_scaled({}, image, -1):  # Theta(H_s) Phi(M_x)
                        return CheckVerdict(False, name, {"s": s, "x": x})
        for x in X.minimal_elements():
            m_std = ModuleVector.standard("M", X, x)
            n_std = ModuleVector.standard("N", X, x)
            if self.nm(self.mn_cols[x]) != m_std or self.mn(self.nm_cols[x]) != n_std:
                return CheckVerdict(False, "phi-inverse", {"x": x})
            # commuting squares with the two bar operators
            if self.mn(bar_vector(m_std)) != bar_vector(self.mn_cols[x]):
                return CheckVerdict(False, "phi-bar-square", {"x": x})
            if self.nm(bar_vector(n_std)) != bar_vector(self.nm_cols[x]):
                return CheckVerdict(False, "phi-bar-square-n", {"x": x})
        return CheckVerdict(True, "phi")


def primed_basis(
    table_m: CanonicalTable, table_n: CanonicalTable, kind: str
) -> tuple[list[ModuleVector], CheckVerdict]:
    """The primed canonical basis, built from the other kind's polynomials.

    M'_y uses the N-polynomials and vice versa; entries are sign-twisted bars,
    so the congruence is modulo v Z[v] instead of v^-1 Z[v^-1].

    Each u_y is checked to be unitriangular with that congruence and to equal
    eps_y Phi(C_y), C_y the other kind's canonical vector ("primed-phi").  As
    Phi_NM(N_x) = eps_x bar(M_x), and eps_x eps_y is the sign of u_y at x (x
    and y lie in one orbit), eps_y Phi(C_y) is bar(u_y): primed-phi says u_y
    is bar-invariant.  It is checked along the multiplication theorem the
    solve builds C_y by, C_y = (H_s + v^-1) C_sy - sum mu(w, sy) C_w over the
    w < sy that s descends, which Phi carries to
        eps_y u_y = (v^-1 - bar(H_s)) eps_sy u_sy - sum mu(w, sy) eps_w u_w,
    at the cost of one column operation per point.  That identity makes u_y
    bar-invariant once u_sy and the u_w are, whatever the table: v^-1 -
    bar(H_s) = v - H_s commutes with a bar operator that commutes with H_s.
    So the Phi verdict, which requires both bar verdicts, is required; without
    it no vector passes.
    """
    X = table_m.X
    src = table_n if kind == "M" else table_m
    h2, parity = X.height2, X.parity
    vectors = [
        ModuleVector(kind, X, {x: c.bar() * (-1 if parity[x] != parity[y] else 1) for x, c in col.items()})
        for y, col in enumerate(src.cols)
    ]

    phi = phi_maps(X)
    certified = phi.verify()
    if not certified.ok:
        return vectors, CheckVerdict(False, "primed-phi", {"phi": certified.name, **(certified.failure or {})})
    eps = phi.eps
    weak = src.kind == "M"  # the descent of the other kind's solve
    for y, u in enumerate(vectors):
        if u.coeff(y) != ONE:
            return vectors, CheckVerdict(False, "primed-unitriangular", {"y": y})
        for x, c in u.coords.items():
            if x != y and c.min_exp() < 1:
                return vectors, CheckVerdict(False, "primed-congruence", {"x": x, "y": y})
        step = lowest_descent(X.action, h2, y)
        if step is None:  # C_y is the standard vector
            image = (phi.nm_cols if kind == "M" else phi.mn_cols)[y].coords
        else:  # Phi(C_y) from Phi(C_sy) = eps_sy u_sy and the Phi(C_w) = eps_w u_w
            s, sy = step
            prev = add_scaled({}, vectors[sy].coords, eps[sy])
            image = add_scaled({}, act_generator(prev, X.action, s, h2, kind, bar=True), -1)
            add_scaled(image, prev, VINV)
            for w, c in src.cols[sy].items():
                d = h2[X.action[s][w]] - h2[w]
                if w < sy and -1 in c.terms and (d < 0 or (weak and d == 0)):
                    add_scaled(image, vectors[w].coords, -c.terms[-1] * eps[w])
            image = add_scaled({}, image, eps[y])
        if u.coords != image:
            return vectors, CheckVerdict(False, "primed-phi", {"y": y})
    return vectors, CheckVerdict(True, f"primed-{kind}")


# ---------------------------------------------------------------------------
# the inversion identity


class InversionVerdict(NamedTuple):
    ok: bool
    classes: Sequence[dict] = ()
    failure: Optional[dict] = None


@stage("_iplus_qp")
def iplus_qp_classes(system: CoxeterSystem):
    """All quasiparabolic conjugacy classes of twisted involutions, over every
    involutive diagram automorphism (including the identity); built once and
    kept on the system, so their stages are shared by every caller."""
    return [
        K
        for theta in system.diagram_automorphisms()
        if (theta * theta).is_identity()
        for K in twisted_classes(system, theta, involutions_only=True)
        if check_quasiparabolic(K).is_qp
    ]


def inversion_check(system: CoxeterSystem) -> InversionVerdict:
    """The pairing of M-polynomials on K with N-polynomials on K w0+.

    For every pair x, y in a quasiparabolic twisted-involution class K the
    alternating sum over w of (-1)^((len y - len w)/2) m[x, w] n[y w0+, w w0+]
    collapses to the identity matrix.  Column y of that matrix is checked as
    one vector: the coefficient of M_x in sum_w (-1)^((len y - len w)/2)
    n[y w0+, w w0+] C_w, C_w the canonical M-vectors, is exactly the sum at
    (x, y), so the vector must be M_y (the standard basis expands over the
    canonical one), one add_scaled per nonzero n entry.
    """
    classes = iplus_qp_classes(system)
    paired = []
    for K in classes:
        theta2, keys = w0_translate(K)
        K2 = next((c for c in classes if c.theta == theta2 and keys[0] in c.index), None)
        if K2 is None:
            return InversionVerdict(False, failure={"reason": "partner class is not QP", "class": K.describe_point(0)})
        table_m = canonical_basis("M", K)
        table_n = canonical_basis("N", K2)
        part = [K2.index[k] for k in keys]
        n = len(K)
        for y in range(n):
            col: dict[int, LaurentPoly] = {}
            for w in range(n):
                c = table_n.poly(part[y], part[w])
                if c:
                    add_scaled(col, table_m.cols[w], c * (-1 if K.parity[y] != K.parity[w] else 1))
            if col != {y: ONE}:
                x = min(x for x in col.keys() | {y} if col.get(x) != (ONE if x == y else None))
                return InversionVerdict(False, failure={"class": K.describe_point(0), "x": x, "y": y})
        paired.append(
            {
                "theta": list(K.theta.sigma),
                "size": len(K),
                "partner_theta": list(K2.theta.sigma),
                "partner_size": len(K2),
                "self_paired": K2 is K,
            }
        )
    return InversionVerdict(True, paired)
