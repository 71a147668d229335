"""Deformed modules on a quasiparabolic carrier and their canonical bases.

For a carrier X the free Z[v, v^-1]-modules M(X) and N(X) on the standard
basis {M_x} / {N_x} carry Hecke algebra actions differing only in the
equal-height case (v M_x versus -v^-1 N_x).  A bar operator is the
antilinear involution fixing the minimal standard vectors and compatible
with the bar involution upstairs, so on every carrier it is built by the
recurrence bar M_x = bar(H_s) bar M_sx for the lowest generator s lowering x,
one step per column in id order (ids refine height), into the whole bar
matrix, which every bar of a vector reads.
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
maps are read from the bar columns, Phi_MN(M_x) = eps_x bar(N_x), so their
verdict is the two bar verdicts (see PhiMaps.verify).  The multiplication
theorem is read at v = 2^b, on one int column per table column, packed
once per table_checks call and dropped with it, by one kernel
(_theorem_gap, see verify_multiplication); the recurrences are that theorem
at (s, sy), on the same columns cut to the Bruhat down-sets; the mu-delta
lemma is read on the down-set bitsets.

The bar columns, the bar verdict and the canonical solve apply H_s + c
(laurent.generator_rule: c = v^-1 - v for bar(H_s), v^-1 for the solve)
key by key with laurent.act_generator, and every other sum of scaled
columns (the bar of a vector in the bar verdict, the primed image and the
inversion columns) is one laurent.combine, each through a PolyMemo that
dies with its call.  No table check makes one.

The carrier is the cache of its own stages: the bar columns, bar verdict,
canonical table and table checks of each kind (X._barcols[kind], ...) and
the Phi maps are coxeter.stage functions, computed once per carrier and
shared by every caller holding it.  The per-kind ones go through
_kind_stage, whose one rule is this: where no generator keeps the height of
a point (on a quasiparabolic carrier, fixes one), as on the regular
carrier, the N stages are the M stages relabeled N.  That is exact: the
three-case rule, and with it the bar recurrence, differs between the kinds
only where s keeps the height, and so does the descent (weak for M, strict
for N) of the solve and of the table checks.  Only the parity check's
constant-term clause reads the kind everywhere, so it runs per kind.

The Hecke algebra itself is M on the regular carrier (see hecke), so this
module never imports hecke: act_hecke reads only the words of the element
keys in a Hecke element's support (CoxeterSystem.word_of).
"""

from __future__ import annotations

import copy
import functools
from typing import NamedTuple, Optional, Sequence

from .classify import twisted_classes, w0_translate
from .coxeter import CoxeterSystem, stage
from .errors import ConsistencyError, SystemMismatch, TruncationRequired, UncertifiedBar
from .jsonout import Rows
from .laurent import (
    ONE, V, VINV, ZERO, LaurentPoly, PolyMemo, act_generator, canonical_columns, combine, generator_rule,
    int_columns, lincomb,
)
from .qpsets import ScaledWSet, bruhat_order, check_quasiparabolic, lowest_descent


class ModuleVector:
    """A finitely supported vector over the standard basis of M(X) or N(X).

    coords is kept as given, neither copied nor filtered: it holds no zero
    entry (the kernels that build vectors leave none), and it may be shared,
    as underline shares a canonical table's column, so it is read-only."""

    __slots__ = ("kind", "X", "coords")

    def __init__(self, kind: str, X: ScaledWSet, coords: dict[int, LaurentPoly]):
        if kind not in ("M", "N"):
            raise ConsistencyError(f"module kind must be 'M' or 'N', got {kind!r}")
        self.kind = kind
        self.X = X
        self.coords = coords

    @classmethod
    def standard(cls, kind: str, X: ScaledWSet, pid: int) -> "ModuleVector":
        return cls(kind, X, {pid: ONE})

    def _check(self, other):
        if other.kind != self.kind or other.X is not self.X:
            raise SystemMismatch("vectors of different modules or carriers")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check(other)
        return ModuleVector(self.kind, self.X, lincomb(((self.coords, 1), (other.coords, 1))))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._check(other)
        return ModuleVector(self.kind, self.X, lincomb(((self.coords, 1), (other.coords, -1))))

    def scale(self, c) -> "ModuleVector":
        return ModuleVector(self.kind, self.X, lincomb(((self.coords, c),)))

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


def _apply(vec: ModuleVector, word, rule: tuple, ar: PolyMemo) -> dict:
    """The coords of (H_{s_1} + c) ... (H_{s_k} + c) vec, for the rule
    generator_rule(kind, c), through the memo ar of the caller."""
    X, coords = vec.X, vec.coords
    for s in reversed(word):
        coords = act_generator(coords, X.action, s, X.height2, rule, ar)
    return coords


def act_hecke(vec: ModuleVector, A) -> ModuleVector:
    """Left action of a Hecke element A (a hecke.HeckeElt of X's system),
    every word applied through one memo."""
    word_of = vec.X.system.word_of
    ar = PolyMemo()
    rule = generator_rule(vec.kind)
    return ModuleVector(vec.kind, vec.X, lincomb((_apply(vec, word_of(w), rule, ar), c) for w, c in A.coords.items()))


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


@_kind_stage("_barcols", relabel=lambda cols, X: [_as_n(col) for col in cols])
def bar_columns(kind: str, X: ScaledWSet) -> list[ModuleVector]:
    """bar of every standard basis vector, as columns indexed by point id."""
    return _bar_columns(kind, X)


def _bar_columns(kind: str, X: ScaledWSet) -> list[ModuleVector]:
    """The columns in id order: a minimal point keeps M_x, and otherwise
    bar M_x = bar(H_s) bar M_sx for the lowest generator s lowering x.  Ids
    refine height, so the column of sx is filled before x's, and each column
    is one act_generator step, through one memo for the fill, so the matrix
    holds one object per distinct value."""
    ar = PolyMemo()
    rule = generator_rule(kind, VINV - V)  # bar(H_s) = H_s + (v^-1 - v)
    cols = []
    for x in range(len(X)):
        step = lowest_descent(X.action, X.height2, x)
        if step is None:
            cols.append(ModuleVector.standard(kind, X, x))
        else:
            s, sx = step
            cols.append(ModuleVector(kind, X, act_generator(cols[sx].coords, X.action, s, X.height2, rule, ar)))
    return cols


def bar_vector(vec: ModuleVector) -> ModuleVector:
    """The antilinear extension of the bar operator to any vector, read from
    bar_columns (so an N vector, where the kinds agree, reads M's columns
    relabeled N).  Each distinct coefficient is barred once per call, in a
    dict keyed by value, so equal coefficients reach lincomb as one scalar."""
    cols = bar_columns(vec.kind, vec.X)
    bars = {c: c.bar() for c in set(vec.coords.values())}
    return ModuleVector(vec.kind, vec.X, lincomb((cols[p].coords, bars[c]) for p, c in vec.coords.items()))


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
    The argument holds for the three-case rule, so at every (s, x) the
    kernel (act_generator, on the rules of H_s and of bar(H_s) = H_s +
    (v^-1 - v)) must first send M_x where that rule, written out here, says;
    the columns and the images are built with that kernel, and one that
    broke the quadratic relation could otherwise pass every raising check.
    Every image is computed key by key through one memo for the call, into
    which the columns' entries are interned first, so that equal entries of
    an image and a column are one object when they are compared.

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
    ar = PolyMemo()
    for c in {c for col in cols for c in col.coords.values()}:  # the columns' objects, one per value
        ar.intern(c)
    h, b = generator_rule(kind), generator_rule(kind, VINV - V)  # H_s and bar(H_s)
    eigen = V if kind == "M" else -VINV  # H_s M_x where s keeps the height of x
    # (H_s M_x, bar(H_s) M_x) as (coefficient of M_sx, of M_x), where s raises, lowers or keeps x
    three_case = {1: ((ONE, ZERO), (ONE, VINV - V)), -1: ((ONE, V - VINV), (ONE, ZERO)),
                  0: ((ZERO, eigen), (ZERO, eigen.bar()))}

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
        checked += 1
        if combine(((cols[w].coords, c.bar()) for w, c in cols[x].coords.items()), ar) != {x: ONE}:
            return BarVerdict(False, kind, {"reason": "not an involution", "x": x}, checked, skipped, X.label)

    for s in range(X.n_gens):
        for x in range(len(X)):
            try:
                if full:
                    ok = _commutes_on_columns(X, cols, s, x, (h, b), three_case, ar)
                else:
                    image = act_generator(cols[x].coords, X.action, s, X.height2, b, ar)
                    std = act_generator({x: ONE}, X.action, s, X.height2, h, ar)  # H_s M_x
                    ok = combine(((cols[w].coords, c.bar()) for w, c in std.items()), ar) == image
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


def _commutes_on_columns(X: ScaledWSet, cols: list[ModuleVector], s: int, x: int, rules, three_case, ar) -> bool:
    """bar(H_s M_x) = bar(H_s) bar(M_x) on an untruncated carrier, as a
    comparison of columns, after the kernel is checked on M_x, for the
    rules of H_s and bar(H_s), against the three-case rule written out in
    three_case (see verify_bar_operator)."""
    sx = X.action[s][x]
    d = X.height2[sx] - X.height2[x]
    expect = three_case[(d > 0) - (d < 0)]
    for rule, (at_sx, at_x) in zip(rules, expect):
        std = {k: c for k, c in ((sx, at_sx), (x, at_x)) if c is not ZERO}  # sx = x where s keeps the height
        if act_generator({x: ONE}, X.action, s, X.height2, rule, ar) != std:
            return False
    if d < 0:
        return True  # follows from the raising check at (s, sx)
    image = act_generator(cols[x].coords, X.action, s, X.height2, rules[1], ar)
    if d > 0:
        return image == cols[sx].coords
    mul, scale = ar.mul, expect[1][1]  # the conjugate eigenvalue
    return image == {k: mul(scale, c) for k, c in cols[x].coords.items()}


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
        # the one store, shared with every caller: read-only
        self.cols: list[dict[int, LaurentPoly]] = [{} for _ in range(len(X))]
        for (x, y), c in p.items():
            self.cols[y][x] = c
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
        """The table's JSON document.  Its entries, rows [x, y, pairs of
        p[x, y]], and its mu rows [x, y, mu(x, y)] are jsonout.Rows read from
        cols and mus on each iteration, y ascending and then x, so no row
        list is kept.  Every entry holding one polynomial holds its one
        [exponent, coefficient] pairs list, so jsonout renders each once."""
        cols, mus = self.cols, self.mus
        pairs = {c: c.to_pairs() for c in {c for col in cols for c in col.values()}}
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
            "entries": Rows(lambda: ((x, y, pairs[col[x]]) for y, col in enumerate(cols) for x in sorted(col))),
            "mu": Rows(lambda: ((x, y, col[x]) for y, col in enumerate(mus) for x in sorted(col))),
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
        packed = _int_table(table)  # read by both int checks, and dropped with this call
        checks += [verify_multiplication(table, packed), verify_recurrences(table, packed), verify_mu_lemma(table)]
    return checks


def verify_parity(table: CanonicalTable) -> CheckVerdict:
    """v^(ht y - ht x) p[x, y] lies in 1 + v^2 Z[v^2] (kind M) or Z[v^2] (kind N),
    and mus[y] is exactly {x: [v^-1] p[x, y]} over the nonzero coefficients.
    Together these give mu(x, y) = 0 wherever ht y - ht x is even.

    Each (polynomial, height difference) is decided once per call, in a
    memo keyed by value: one polynomial can pass at one difference and fail
    at another."""
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


def _int_table(table: CanonicalTable) -> tuple[list[dict[int, int]], int]:
    """The columns of table read at v = 2^b by laurent.int_columns, entry
    (x, y) weighted by v^((h2[y] - h2[x]) // 2), and b, the bit length of
    D = L (3 + M), L the largest L1 norm of an entry and M the largest sum
    of |mu| over a column (see verify_multiplication), for _theorem_gap."""
    spread = 3 + max((sum(map(abs, col.values())) for col in table.mus), default=0)
    return int_columns(table.cols, table.X.height2, spread)


def _theorem_gap(table: CanonicalTable, cols, b: int, down, row, move, x: int) -> list[int]:
    """The keys at which the two sides of the multiplication theorem at
    (s, x) differ, for s (row its action, move[k] = h2[sk] - h2[k]) not
    descending x, on the int columns of _int_table: (H_s + v^-1) C_x, and
    C_sx (none where s keeps the height of x) plus the mu(w, x) C_w over
    the w in down[x] that s descends.  Empty where the theorem holds."""
    h2 = table.X.height2
    weak = table.kind == "M"  # M descends weakly, N strictly
    u = cols[x]
    b2 = 2 * b
    lhs = {}  # the left side, per key
    for k, c in u.items():  # each pair {k, sk} once, from its upper key if both are held
        dk = move[k]
        if dk < 0:
            sk = row[k]
            lhs[k] = lhs[sk] = u.get(sk, 0) + (c << b2)
        elif dk > 0:
            if (sk := row[k]) not in u:
                lhs[k] = lhs[sk] = c
        elif weak:
            lhs[k] = c + (c << b2)
    rhs = dict(cols[row[x]]) if move[x] > 0 else {}
    get = rhs.get
    for w, m in table.mus[x].items():
        if m and down[x] >> w & 1 and ((dw := move[w]) < 0 or weak and not dw):
            e = b * ((h2[x] - h2[w]) // 2 + 1)
            for k, c in cols[w].items():
                rhs[k] = get(k, 0) + (m * c << e)
    if lhs == rhs:
        return []
    return [k for k in lhs.keys() | rhs.keys() if lhs.get(k, 0) != get(k, 0)]


def verify_multiplication(table: CanonicalTable, packed=None) -> CheckVerdict:
    """The action of underline H_s on the canonical basis, per kind: with
    u = C_x, (H_s + v^-1) u is (v + v^-1) u where s descends x (key by key,
    u[sk] = v^(+-1) u[k] as s raises or lowers k, and no k is level for N),
    else C_sx (where s raises x) plus the sum of mu(w, x) C_w over the
    w <= x that s descends.

    Both sides are compared as ints at v = 2^b on the weighted columns of
    _int_table, W[x][k] = v^((h2[x] - h2[k]) // 2) u[k].  The carrier is
    quasiparabolic (bruhat_order), so s fixes each point whose height it
    keeps.  Where s descends x, u[sk] = v^(+-1) u[k] is W[x][sk] = W[x][k]:
    s must fix the weighted column (M), and no key may be level (N).
    Elsewhere (_theorem_gap) the identity at key k, times v^((h2[x] -
    h2[k]) // 2 + 1), is W[x][j] + v^2 W[x][sj] = W[sx][k] + sum mu(w, x)
    v^((h2[x] - h2[w]) / 2 + 1) W[w][k], j the lower of k and sk, and 0 on
    the left where s keeps the height of k (N); w <= x lies in x's orbit,
    so the exponent is an integer.

    Reading at 2^b is a ring map, so an identity that holds passes.  One
    that fails also fails at 2^b.  Let L be the largest L1 norm (the sum of
    the absolute coefficients) of an entry and M the largest sum of |mu|
    over a column.  In each identity one side is at most two entries and
    the other at most two entries and the mu terms, so each coefficient of
    the difference of the two sides lies within D = L (3 + M) of 0.  b is
    the bit length of D, so every such coefficient lies below 2^b in
    absolute value, and a nonzero polynomial with such coefficients is
    nonzero at 2^b: its lowest nonzero coefficient d gives the value
    2^(b j) (d + 2^b q) for integers j >= 0 and q, and 2^b does not divide
    d.  The packing multiplies every entry by one power of v, and so the
    difference of two sides.  packed is _int_table(table), where the caller
    has it (_table_checks packs once for this check and the recurrences)."""
    X = table.X
    h2 = X.height2
    down = bruhat_order(X).downsets
    weak = table.kind == "M"  # M descends weakly, N strictly
    cols, b = packed or _int_table(table)
    for s in range(X.n_gens):
        row = X.action[s]
        move = [h2[sk] - h2[k] for k, sk in enumerate(row)]  # > 0 where s raises k
        for x, u in enumerate(cols):
            d = move[x]
            if d < 0 or (weak and d == 0):
                if {row[k]: c for k, c in u.items() if weak or move[k]} != u:
                    return CheckVerdict(False, "multiplication", {"s": s, "x": x})
            elif _theorem_gap(table, cols, b, down, row, move, x):
                return CheckVerdict(False, "multiplication", {"s": s, "x": x})
    return CheckVerdict(True, "multiplication")


def verify_recurrences(table: CanonicalTable, packed=None) -> CheckVerdict:
    """The translated-polynomial recurrences that compute the table column-by-column.

    With wt(x, y) = v^(ht y - ht x) p[x, y] over x <= y (0 elsewhere), the
    weighted columns of _int_table cut to the Bruhat down-sets: where s keeps
    the height of y (kind M), wt(x, y) = wt(sx, y) for every x; where s
    lowers y, wt(x, y) = wt(sx, y) for every x, and column y is the
    multiplication theorem at (s, sy), C_y = (H_s + v^-1) C_sy less the
    sum of mu(t, sy) C_t over the t <= sy that s descends (weakly for M,
    strictly for N), read by _theorem_gap on these columns, exact as in
    verify_multiplication.

    A nonzero term needs x or sx in down(y) + down(sy), so only the keys of
    the columns read and their images under s are visited, and a failure
    is reported at the least x for its (s, y).  packed is _int_table(table),
    as in verify_multiplication; the cut makes new columns and leaves it
    as it is."""
    X = table.X
    down = bruhat_order(X).downsets
    h2 = X.height2
    cols, b = packed or _int_table(table)
    cols = [{x: c for x, c in col.items() if down[y] >> x & 1} for y, col in enumerate(cols)]
    for s in range(X.n_gens):
        row = X.action[s]
        move = [h2[sk] - h2[k] for k, sk in enumerate(row)]  # > 0 where s raises k
        for y, here in enumerate(cols):
            d = move[y]
            if d > 0 or (d == 0 and table.kind == "N"):
                continue
            bad = _theorem_gap(table, cols, b, down, row, move, row[y]) if d else []
            if bad or {row[k]: c for k, c in here.items()} != here:
                at = here.get
                bad += (x for x in here.keys() | {row[k] for k in here} if at(x, 0) != at(row[x], 0))
                return CheckVerdict(False, "recurrence", {"s": s, "y": y, "x": min(bad)})
    return CheckVerdict(True, "recurrence")


def verify_mu_lemma(table: CanonicalTable) -> CheckVerdict:
    """mu(x, y) = delta_{sx,y} whenever s descends y (weakly/strictly) but not x.

    Per (y, s) with s descending y, on the down-set bitsets: of the x in
    down(y) that s raises (strictly for M, weakly for N; never y itself),
    only sy may carry a nonzero mu(x, y), and mu(sy, y) must be 1 where sy
    is one of them (sx = y exactly where x = sy).  A failure is reported at
    the least x for its y, and there at the least s, as a scan of the pairs
    x < y in that order finds it."""
    X = table.X
    down = bruhat_order(X).downsets
    h2 = X.height2
    strict = table.kind == "N"  # N descends y strictly, so it counts a level x as raised
    raised = []  # per s: the bitset of the x that s raises
    for row in X.action:
        flags = ("1" if h2[sx] > h2[x] or strict and h2[sx] == h2[x] else "0" for x, sx in enumerate(row))
        raised.append(int("".join(flags)[::-1] or "0", 2))
    for y, mus in enumerate(table.mus):
        nonzero = sum(1 << x for x, m in mus.items() if m)
        fails = []  # (x, s) of the least failure at y per s
        for s, row in enumerate(X.action):
            sy = row[y]
            if h2[sy] > h2[y] or (strict and h2[sy] == h2[y]):
                continue
            among = down[y] & raised[s]
            bad = among & nonzero
            if among >> sy & 1:
                bad = bad & ~(1 << sy) if mus.get(sy, 0) == 1 else bad | 1 << sy
            if bad:
                fails.append(((bad & -bad).bit_length() - 1, s))
        if fails:
            x, s = min(fails)
            return CheckVerdict(False, "mu-delta", {"s": s, "x": x, "y": y})
    return CheckVerdict(True, "mu-delta")


# ---------------------------------------------------------------------------
# Phi maps and primed bases


@stage("_phi")
def phi_maps(X: ScaledWSet) -> "PhiMaps":
    """The Phi maps of the carrier, built once and kept on X."""
    return PhiMaps(X)


class PhiMaps:
    """The Theta-twisted bijections between M(X) and N(X): Phi_MN(M_x) =
    eps_x bar(N_x) and Phi_NM(N_x) = eps_x bar(M_x), read from the
    carrier's bar columns, with eps_x the sign of x's height above its orbit
    minimum."""

    def __init__(self, X: ScaledWSet):
        self.X = X
        self.eps = [-1 if p else 1 for p in X.parity]

    def mn(self, vec: ModuleVector) -> ModuleVector:
        return self._apply(vec, "M", "N")

    def nm(self, vec: ModuleVector) -> ModuleVector:
        return self._apply(vec, "N", "M")

    def _apply(self, vec: ModuleVector, source: str, target: str) -> ModuleVector:
        if vec.kind != source:
            raise ConsistencyError(f"this Phi map takes a vector of kind {source}, got {vec.kind}")
        cols, eps = bar_columns(target, self.X), self.eps
        terms = ((cols[p].coords, c if eps[p] > 0 else -c) for p, c in vec.coords.items())
        return ModuleVector(target, self.X, lincomb(terms))

    @stage("_verdict")
    def verify(self) -> CheckVerdict:
        """The Phi verdict, computed once per object: the twisted law
        Phi(H_s V) = Theta(H_s) Phi(V), Theta(H_s) = -bar(H_s), that the two
        maps are mutually inverse, and that each commutes with the bar operators.

        A truncated carrier, whose boundary images leave it, raises
        TruncationRequired; a failing bar verdict fails this one
        ("phi-bar-operator", with its witness).  Two passing bar verdicts
        certify every identity.  For Phi_MN at (s, x) (Phi_NM swaps M and N):
          - s raises x: eps_sx = -eps_x, so the law is N's raising check
            bar(N_sx) = bar(H_s) bar(N_x);
          - s keeps the height of x: eps_sx = eps_x, and the law
            v bar(N_x) = -bar(H_s) bar(N_x) is N's eigenvalue check;
          - s lowers x: the law follows from the raising one at (s, sx), as in
            verify_bar_operator (Theta(H_s) satisfies H_s's quadratic relation).
        So Phi_NM∘Phi_MN and Phi_MN∘Phi_NM are H-linear (Theta² = id), and
        Phi∘bar and bar∘Phi both satisfy F(H_s V) = -H_s F(V); each orbit is
        generated from its minima by the raising H_s, so each pair agrees
        once it agrees there.  At a minimum the bar column is the standard
        vector (unitriangularity), so the inverse and both bar squares reduce
        to eps_x² = 1.
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
    So the bar operators must be certified: the Phi verdict, which is the two
    bar verdicts, is required, and without it no vector passes.

    Each distinct (polynomial, sign) is barred once per call, in a memo keyed
    by value, and interned into one PolyMemo for the call.  The image is
    then one act_generator on the rule of H_s - v, as v - H_s = -(H_s - v),
    and one combine with the signs eps folded into the scalars, both key by
    key through that memo.
    """
    X = table_m.X
    src = table_n if kind == "M" else table_m
    h2, parity = X.height2, X.parity
    ar = PolyMemo()
    bars: dict = {}  # (p, whether the sign flips) -> bar(p) with that sign, interned
    vectors = []
    for y, col in enumerate(src.cols):
        coords = {}
        for x, c in col.items():
            flip = parity[x] != parity[y]
            b = bars.get((c, flip))
            if b is None:
                b = bars[c, flip] = ar.intern(-c.bar() if flip else c.bar())
            coords[x] = b
        vectors.append(ModuleVector(kind, X, coords))

    phi = phi_maps(X)
    certified = phi.verify()
    if not certified.ok:
        return vectors, CheckVerdict(False, "primed-phi", {"phi": certified.name, **(certified.failure or {})})
    eps = phi.eps
    weak = src.kind == "M"  # the descent of the other kind's solve
    rule = generator_rule(kind, -V)  # H_s - v
    for y, u in enumerate(vectors):
        if u.coeff(y) != ONE:
            return vectors, CheckVerdict(False, "primed-unitriangular", {"y": y})
        for x, c in u.coords.items():
            if x != y and c.min_exp() < 1:
                return vectors, CheckVerdict(False, "primed-congruence", {"x": x, "y": y})
        step = lowest_descent(X.action, h2, y)
        if step is None:  # C_y is standard: eps_y Phi(C_y) is eps_y² times y's bar column
            image = bar_columns(kind, X)[y].coords
        else:  # Phi(C_y) from Phi(C_sy) = eps_sy u_sy and the Phi(C_w) = eps_w u_w
            s, sy = step
            row = X.action[s]
            terms = [(act_generator(vectors[sy].coords, X.action, s, h2, rule, ar), -eps[y] * eps[sy])]
            terms += ((vectors[w].coords, -c.terms[-1] * eps[w] * eps[y]) for w, c in src.cols[sy].items()
                      if w < sy and -1 in c.terms and ((d := h2[row[w]] - h2[w]) < 0 or weak and not d))
            image = combine(terms, ar)
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
    canonical one): one combine per column, through one PolyMemo per class.
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
        part, parity = [K2.index[k] for k in keys], K.parity
        ar = PolyMemo()
        for y in range(len(K)):
            col = combine(((table_m.cols[w], c if parity[y] == parity[w] else -c) for w in range(len(K))
                           if (c := table_n.poly(part[y], part[w]))), ar)
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
