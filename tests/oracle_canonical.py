"""Independent oracles for canonical tables and for the bar and Phi checks.

brute_force_canonical enumerates *all* bar-invariant unitriangular vectors whose off-diagonal
coefficients lie in v^-1.Z[v^-1], by exact linear algebra over the rationals
on the parity-bounded coefficient lattice, and checks there is exactly one.
Shares only the bar-of-standard-vector data with the implementation; the
sequential skew-solve of the package is not used anywhere here.

generic_canonical_columns is the triangular solve the package used before
it built canonical columns from the multiplication theorem: it reads only the
bar matrix and skew-solves each entry (solve_skew), raising SkewViolation
where the bar data admits no canonical basis.

full_bar_verdict and full_phi_verdict are the direct checks the package
replaced by checks at the orbit minima: every identity is checked at every
point.

vector_bar_verdict, vector_phi_verdict and vector_primed_basis are the bar,
Phi and primed-basis checks as the package ran them before it compared
columns: bar(H_s M_x) by applying the bar operator to the vector H_s M_x,
Phi(H_s M_x) by applying Phi to it, and bar(u) = u by applying the bar
operator to every primed vector.  pair_table_checks are the four table
checks as they were before they ran over down-sets and per-column mu: they
scan every x (or every pair) and read mu from an (x, y)-keyed map.  Their
parity check also ties that map to the v^-1 coefficients of the table, as
verify_parity does, so that the two refuse the same tables.

fold_act_generator is the H_s and bar(H_s) kernel as the package ran it
before it applied H_s + c key by key through a memo: it gathers the moved
and the level coordinates and adds each group with one add_scaled.
fold_bar_columns, fold_bar_verdict and fold_canonical_columns are the bar
recurrence, the bar verdict and the canonical solve on that kernel and
add_scaled, with no pooling.

fold_multiplication is verify_multiplication as the package ran it before
it compared the two sides key by key: it builds (H_s + v^-1) C_x with the
H_s rule (fold_act_generator) and the right side with one add_scaled per
term, and compares the two vectors.

add_scaled is the in-place sum of one scaled sparse vector as laurent had it
before the +, - and scale of module vectors and Hecke elements went through
laurent.lincomb and the W-graph module check read its matrices at v = 2^b:
each touched key gets one polynomial built by the polynomial product.  It
is the kernel of every fold here and of oracle_wgraph.

fold_combine is the sum of c * vec over (vec, c) pairs as the package formed
it before laurent.lincomb: one add_scaled per pair, every product computed
where it lands.  count_lincomb is laurent.lincomb as it was before it summed
by Kronecker substitution: it counts how often each (scalar, entry) pair
lands on each key and multiplies each distinct pair once as polynomials.

fold_primed_check and fold_inversion_check are primed_basis and
inversion_check as the package ran them before it summed their columns key
by key with laurent.combine: the primed image by one add_scaled per term
(the H_s action on the bar(H_s) rule through a fresh memo), and each column
of the inversion pairing by one add_scaled per nonzero n entry.

act_word, act_gen and act_bar_gen apply H_s + c to one ModuleVector through
barcanon's kernel and rule as they stand when called, so a test that plants
either reaches them; only tests apply H_s to a single vector.

closed_form_bar_columns is the paper's closed form for the bar operator on a
twisted-involution class, which the package used there before it built every
bar operator by the recurrence bar M_x = bar(H_s) bar M_sx.

memo_multiplication, memo_recurrences and memo_mu_lemma are the table checks
as the package ran them before it read the table at v = 2^b: both sides of
the multiplication theorem summed per key through a memo per generator, the
recurrences on a shifted copy of the table through one memo, and the
mu-delta lemma as a scan of the pairs x < y over the down-set ids
(downset_ids, which XOrder had).  Their memo is ShiftMemo, a PolyMemo with
the memoized shift by v^k that laurent's PolyMemo had.  v_power is the
monomial v^k, which laurent had.
"""

from collections import Counter
from fractions import Fraction
from itertools import repeat

from qpcox import barcanon
from qpcox.barcanon import (
    BarVerdict,
    CheckVerdict,
    InversionVerdict,
    ModuleVector,
    bar_columns,
    bar_vector,
    canonical_basis,
    iplus_qp_classes,
    phi_maps,
    verify_bar_operator,
)
from qpcox.classify import w0_translate
from qpcox.errors import ConsistencyError, TruncationRequired
from qpcox.laurent import ONE, V, VINV, ZERO, LaurentPoly, PolyMemo, combine
from qpcox.qpsets import bruhat_order, check_quasiparabolic, lowest_descent

from oracle_qpsets import orbit_min2, payloads



def v_power(k: int) -> LaurentPoly:
    """The monomial v^k."""
    return LaurentPoly({k: 1})


class ShiftMemo(PolyMemo):
    """A PolyMemo that also multiplies by v^k, each (operand, k) once."""

    __slots__ = ("_shifts",)

    def __init__(self):
        super().__init__()
        self._shifts = {}

    def shift(self, a: LaurentPoly, k: int) -> LaurentPoly:
        key = (id(a), k)
        r = self._shifts.get(key)
        return self._keep(self._shifts, key, a, a.shift(k)) if r is None else r


def act_word(vec, word, c=ZERO):
    """Left action of (H_{s_1} + c) ... (H_{s_k} + c) on vec, through
    barcanon's act_generator and generator_rule as they are when called."""
    ar = PolyMemo()
    return ModuleVector(vec.kind, vec.X, barcanon._apply(vec, word, barcanon.generator_rule(vec.kind, c), ar))


def act_gen(vec, s):
    """Left action of H_s, by the three-case rule."""
    return act_word(vec, (s,))


def act_bar_gen(vec, s):
    """Left action of bar(H_s) = H_s^-1 = H_s + (v^-1 - v)."""
    return act_word(vec, (s,), VINV - V)


def add_scaled(acc: dict, vec: dict, c=ONE) -> dict:
    """acc += c * vec for sparse vectors {key: LaurentPoly}, in place; returns acc.

    Entries that cancel are removed, so acc never holds a zero polynomial.
    Each touched key gets one freshly built polynomial: no polynomial held by
    acc, vec or c is mutated, so shared values such as ONE stay intact.  c is
    a LaurentPoly or an int; acc must be a different dict from vec."""
    ct = (c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)).terms
    if not ct:
        return acc
    scalar = list(ct.items())
    for k, q in vec.items():
        old = acc.get(k)
        t = dict(old.terms) if old is not None else {}
        for e1, c1 in scalar:
            for e2, c2 in q.terms.items():
                e = e1 + e2
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                else:
                    del t[e]  # both factors are nonzero, so e was present
        if t:
            acc[k] = LaurentPoly(t)
        elif old is not None:
            del acc[k]
    return acc


def fold_combine(terms) -> dict:
    """The sum of c * vec over the (vec, c) pairs of terms, one add_scaled per pair."""
    out: dict = {}
    for vec, c in terms:
        add_scaled(out, vec, c)
    return out


def count_lincomb(terms) -> dict:
    """The sum of c * vec over the (vec, c) pairs of terms: scalars interned
    by value, each (scalar, entry) pair counted per key, each distinct pair
    multiplied once and each output polynomial built once.  Entries are told
    apart by id, and every entry counted is held until the call returns."""
    index: dict = {}  # scalar value -> its number in scalars, or -1 if it is zero
    scalars: list[LaurentPoly] = []
    held: dict = {}  # id(entry) -> entry, for every entry counted
    counts: Counter = Counter()  # (scalar number, key, id(entry)) -> how often it lands
    for vec, c in terms:
        i = index.get(c)
        if i is None:
            scalar = ONE if c == 1 else c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)
            i = index[c] = len(scalars) if scalar else -1
            scalars.append(scalar)
        if vec and i >= 0:
            vals = vec.values()
            held.update(zip(map(id, vals), vals))
            counts.update(zip(repeat(i), vec, map(id, vals)))
    products: dict = {}  # (scalar number, id(entry)) -> the terms of their product
    sums: dict = {}  # key -> its summed terms
    for (i, k, q), n in counts.items():
        p = products.get((i, q))
        if p is None:
            p = products[i, q] = (held[q] if scalars[i] is ONE else scalars[i] * held[q]).terms.items()
        t = sums.get(k)
        if t is None:
            t = sums[k] = {}
        for e, c in p:
            t[e] = t.get(e, 0) + n * c
    out = {}
    for k, t in sums.items():
        p = LaurentPoly(t)
        if p:
            out[k] = p
    return out


def fold_multiplication(table):
    """verify_multiplication with both sides formed as whole vectors."""
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
            lhs = fold_act_generator(u, X.action, s, h2, table.kind)
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


def fold_act_generator(coords, action, s, height2, kind, bar=False):
    """H_s applied to a sparse vector by the three-case rule: M_sx where s
    raises x, M_sx + (v - v^-1) M_x where s lowers x, and v M_x (kind M) or
    -v^-1 N_x (kind N) where s keeps the height of x.  With bar, bar(H_s) =
    H_s + (v^-1 - v) in one pass: M_sx + (v^-1 - v) M_x where s raises x,
    M_sx where s lowers x, and v^-1 M_x (M) or -v N_x (N) where s keeps the
    height of x."""
    row = action[s]
    out, moved, level = {}, {}, {}  # M_sx for each moved x; the M_x that s lowers (raises, with bar); those it keeps
    for x, c in coords.items():
        y = row[x]
        if y is None:
            raise TruncationRequired(f"generator {s} leaves the carrier at point {x}")
        if height2[y] == height2[x]:
            level[x] = c
        else:
            out[y] = c
            if (height2[y] < height2[x]) != bar:
                moved[x] = c
    add_scaled(out, moved, VINV - V if bar else V - VINV)
    if kind == "M":
        return add_scaled(out, level, VINV if bar else V)
    return add_scaled(out, level, -V if bar else -VINV)


def fold_bar_columns(kind, X):
    """The bar columns by the recurrence bar M_x = bar(H_s) bar M_sx, s the
    lowest generator lowering x, each step one fold_act_generator."""
    cols = []
    for x in range(len(X)):
        step = lowest_descent(X.action, X.height2, x)
        if step is None:
            cols.append({x: ONE})
        else:
            s, sx = step
            cols.append(fold_act_generator(cols[sx], X.action, s, X.height2, kind, bar=True))
    return [ModuleVector(kind, X, col) for col in cols]


def _fold_bar(coords, cols):
    """bar of the vector coords, one add_scaled per entry."""
    return fold_combine((cols[w].coords, c.bar()) for w, c in coords.items())


def fold_bar_verdict(kind, X):
    """verify_bar_operator on the package's bar columns, its kernel checks,
    images and sums formed by fold_act_generator and add_scaled."""
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
            if col.coeff(x) != ONE or any(not order.lt(w, x) for w in col.coords if w != x):
                return BarVerdict(False, kind, {"reason": "not unitriangular", "x": x}, checked, skipped, X.label)
    points = X.minimal_elements() if full else range(len(X))
    for x in points:
        checked += 1
        if _fold_bar(cols[x].coords, cols) != {x: ONE}:
            return BarVerdict(False, kind, {"reason": "not an involution", "x": x}, checked, skipped, X.label)
    eigen = V if kind == "M" else -VINV
    for s in range(X.n_gens):
        for x in range(len(X)):
            try:
                image = fold_act_generator(cols[x].coords, X.action, s, X.height2, kind, bar=True)
                if full:
                    sx = X.action[s][x]
                    d = X.height2[sx] - X.height2[x]
                    rule = {sx: ONE} if d > 0 else {sx: ONE, x: V - VINV} if d < 0 else {x: eigen}
                    ok = fold_act_generator({x: ONE}, X.action, s, X.height2, kind) == rule and fold_act_generator(
                        {x: ONE}, X.action, s, X.height2, kind, bar=True) == add_scaled(dict(rule), {x: ONE}, VINV - V)
                    if ok and d >= 0:
                        ok = image == (cols[sx].coords if d > 0 else add_scaled({}, cols[x].coords, eigen.bar()))
                else:
                    ok = _fold_bar(fold_act_generator({x: ONE}, X.action, s, X.height2, kind), cols) == image
            except TruncationRequired:
                skipped += 1
                continue
            checked += 1
            if not ok:
                return BarVerdict(
                    False, kind, {"reason": "incompatible with H_s", "s": s, "x": x}, checked, skipped, X.label)
    if full:
        checked += len(X) - len(points)
    return BarVerdict(True, kind, None, checked, skipped, X.label)


def fold_canonical_columns(kind, action, height2):
    """laurent.canonical_columns with each column formed by
    fold_act_generator and add_scaled, and nothing pooled."""
    weak = kind == "M"
    cols, mus, p, mu = [], [], {}, {}
    for y in range(len(height2)):
        step = lowest_descent(action, height2, y)
        if step is None:
            col = {y: ONE}
        else:
            s, sy = step
            col = fold_act_generator(cols[sy], action, s, height2, kind)
            add_scaled(col, cols[sy], VINV)
            for w, m in mus[sy].items():
                d = height2[action[s][w]] - height2[w]
                if d < 0 or (weak and d == 0):
                    add_scaled(col, cols[w], -m)
        if col.get(y) != ONE or any(x > y or x != y and max(c.terms) >= 0 for x, c in col.items()):
            raise ConsistencyError(f"canonical {kind}-column {y} is not unitriangular in v^-1 Z[v^-1]")
        cols.append(col)
        mus.append({x: c.terms[-1] for x, c in col.items() if -1 in c.terms})
        p.update(((x, y), c) for x, c in col.items())
        mu.update(((x, y), m) for x, m in mus[y].items())
    return p, mu


class SkewViolation(Exception):
    """solve_skew received data that is not skew-symmetric under the bar involution.

    During canonical basis construction this certifies that the supplied bar
    operator data is inconsistent, i.e. no canonical basis exists for it.
    """


def solve_skew(g: LaurentPoly) -> LaurentPoly:
    """Solve m - bar(m) = g for the unique m supported on negative exponents.

    Requires bar(g) = -g (which forces the constant term of g to vanish); the
    solution is the strictly-negative-exponent part of g.
    """
    if g.bar() != -g:
        raise SkewViolation(
            f"not skew under bar (need bar(g) = -g with zero constant term): {g}"
        )
    return LaurentPoly({e: c for e, c in g.terms.items() if e < 0})


def generic_canonical_columns(bar_col):
    """Triangular solve producing a bar-invariant basis from a bar matrix.

    ``bar_col[j]`` expands the bar of the j-th standard basis vector over
    positions i <= j, with coefficient 1 at j itself (positions are assumed to
    be listed in a linear extension of the underlying order).  Returns the
    unique coefficients p[i, j] with p[j, j] = 1 and p[i, j] in v^-1.Z[v^-1]
    for i < j making the new basis bar-invariant, together with the map
    mu[i, j] = coefficient of v^-1 in p[i, j].

    Raises SkewViolation if no such basis exists for the supplied bar data.
    """
    p = {}
    mu = {}
    for j, r in enumerate(bar_col):
        if r.get(j, ZERO) != ONE:
            raise SkewViolation(f"bar matrix is not unitriangular at position {j}")
        p[(j, j)] = ONE
        # g[i] accumulates bar(p[z, j]) * bar_col[z][i] over the entries z > i
        # found so far; bar_col[i] only reaches positions <= i
        g = dict(r)
        for i in range(j - 1, -1, -1):
            gi = g.get(i)
            if gi is None:
                continue
            m = solve_skew(gi)
            if m:
                p[(i, j)] = m
                add_scaled(g, bar_col[i], m.bar())
                m1 = m.coeff(-1)
                if m1:
                    mu[(i, j)] = m1
    return p, mu


def _poly_coeff(poly, e):
    return poly.terms.get(e, 0)


def brute_force_canonical(X, kind):
    """Return {(x, y): {exponent: int}} for the unique bar-invariant basis."""
    cols = bar_columns(kind, X)
    bar = [dict(c.coords) for c in cols]
    n = len(X)
    result = {}
    for y in range(n):
        unknowns = []
        for x in range(y):
            dh = (X.height2[y] - X.height2[x]) // 2
            for e in range(-dh, 0):
                unknowns.append((x, e))
        uidx = {u: i for i, u in enumerate(unknowns)}

        # candidate vector u = M_y + sum c[x,e] v^e M_x must satisfy
        # bar(u) = u, i.e. for every position w and exponent f:
        #   [v^f] ( bar_col_y[w] + sum c[x,e] v^-e bar_col_x[w] )
        #     = delta_{w,y}[f = 0] + (c[w,f] if (w,f) is an unknown else 0)
        exps = set()
        for col in bar[: y + 1]:
            for poly in col.values():
                exps.update(poly.terms)
        span = max((abs(e) for e in exps), default=0) + max(
            ((X.height2[y] - X.height2[x]) // 2 for x in range(y)), default=0
        )
        rows = []
        rhs = []
        for w in range(y + 1):
            for f in range(-span, span + 1):
                row = [Fraction(0)] * len(unknowns)
                b = Fraction(0)
                for (x, e), i in uidx.items():
                    poly = bar[x].get(w)
                    if poly is not None:
                        row[i] += _poly_coeff(poly, f + e)
                poly_y = bar[y].get(w)
                if poly_y is not None:
                    b -= _poly_coeff(poly_y, f)
                if w == y and f == 0:
                    b += 1
                if (w, f) in uidx:
                    row[uidx[(w, f)]] -= 1
                if any(row) or b:
                    rows.append(row)
                    rhs.append(b)

        solution = _solve_unique(rows, rhs, len(unknowns))
        col_out = {(y, y): {0: 1}}
        for (x, e), i in uidx.items():
            c = solution[i]
            assert c.denominator == 1
            if c:
                col_out.setdefault((x, y), {})[e] = int(c)
        result.update(col_out)
    return result


def _solve_unique(rows, rhs, n_unknowns):
    """Gaussian elimination over Q; asserts the solution exists and is unique."""
    if n_unknowns == 0:
        assert all(b == 0 for b in rhs)
        return []
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n_unknowns):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    assert len(pivots) == n_unknowns, "bar-invariant vector is not unique"
    for i in range(r, len(m)):
        assert m[i][n_unknowns] == 0, "no bar-invariant vector exists"
    sol = [Fraction(0)] * n_unknowns
    for i, c in enumerate(pivots):
        sol[c] = m[i][n_unknowns]
    return sol


def table_entries(cols):
    """The (x, y)-keyed map of a table stored as columns cols[y] = {x: p[x, y]}
    (or of its mu-coefficients, mus[y] = {x: mu(x, y)})."""
    return {(x, y): poly for y, col in enumerate(cols) for x, poly in col.items()}


def table_as_int_dicts(table):
    """Reshape a CanonicalTable into the oracle's output format."""
    return {
        (x, y): dict(poly.terms) for (x, y), poly in table_entries(table.cols).items()
    }


def to_canonical_coords(table, vec):
    """Expand a vector over the canonical basis of table by back substitution."""
    rem = dict(vec.coords)
    out = {}
    for y in range(len(table.X) - 1, -1, -1):
        c = rem.get(y)
        if c is not None:
            out[y] = c
            add_scaled(rem, table.cols[y], -c)
    if rem:
        raise ConsistencyError(f"back substitution left a remainder at points {sorted(rem)}")
    return out


def full_bar_verdict(kind, X):
    """verify_bar_operator with the involution checked at every point."""
    return vector_bar_verdict(kind, X, minima_only=False)


def full_phi_verdict(phi):
    """PhiMaps.verify with every identity checked at every point."""
    X = phi.X
    for x in range(len(X)):
        m_std = ModuleVector.standard("M", X, x)
        n_std = ModuleVector.standard("N", X, x)
        if phi.nm(phi.mn(m_std)) != m_std or phi.mn(phi.nm(n_std)) != n_std:
            return CheckVerdict(False, "phi-inverse", {"x": x})
        if phi.mn(bar_vector(m_std)) != bar_vector(phi.mn(m_std)):
            return CheckVerdict(False, "phi-bar-square", {"x": x})
        if phi.nm(bar_vector(n_std)) != bar_vector(phi.nm(n_std)):
            return CheckVerdict(False, "phi-bar-square-n", {"x": x})
        # Phi(H_s V) = Theta(H_s) Phi(V) with Theta(H_s) = -bar(H_s)
        for s in range(X.n_gens):
            if phi.mn(act_gen(m_std, s)) != act_bar_gen(phi.mn(m_std), s).scale(-1):
                return CheckVerdict(False, "phi-twisted-law", {"s": s, "x": x})
            if phi.nm(act_gen(n_std, s)) != act_bar_gen(phi.nm(n_std), s).scale(-1):
                return CheckVerdict(False, "phi-twisted-law-n", {"s": s, "x": x})
    return CheckVerdict(True, "phi")


def act_bar_word(vec, word):
    """Left action of H_{s_1}^-1 ... H_{s_k}^-1 (= bar(H_w) for w reduced)."""
    for s in reversed(word):
        vec = act_bar_gen(vec, s)
    return vec


def closed_form_bar_columns(kind, X):
    """The bar columns of a twisted-involution class X by the closed form

        bar M_(x,t) = v^lmin     . bar(H_x) M_(x^-1,t)
        bar N_(x,t) = (-v)^-lmin . bar(H_x) N_(x^-1,t)

    with lmin the minimal length in the orbit."""
    hmin2 = orbit_min2(X)
    cols = []
    for pid, p in enumerate(payloads(X)):
        q = X.index[p.x.inverse().key]
        vec = act_bar_word(ModuleVector.standard(kind, X, q), p.x.word())
        lmin = hmin2[pid]
        scale = v_power(lmin) if kind == "M" else v_power(-lmin) * (-1 if lmin % 2 else 1)
        cols.append(vec.scale(scale))
    return cols


def composed_bar_gen(vec, s):
    """bar(H_s) = H_s + (v^-1 - v) by its definition, from the H_s rule alone."""
    out = act_gen(vec, s)
    add_scaled(out.coords, vec.coords, VINV - V)
    return out


def vector_bar_verdict(kind, X, minima_only=True):
    """verify_bar_operator with bar(H_s M_x) computed by bar_vector; with
    minima_only=False the involution is checked at every point too."""
    verdict = check_quasiparabolic(X)
    if not verdict.is_qp:
        return BarVerdict(False, kind, {"reason": "not quasiparabolic", **(verdict.witness() or {})})
    cols = bar_columns(kind, X)
    checked = skipped = 0
    full = X.truncated_at is None
    label = None if full else f"verified up to height {X.truncated_at}"
    if full:
        order = bruhat_order(X)
        for x in range(len(X)):
            col = cols[x]
            if col.coeff(x) != ONE or any(not order.lt(w, x) for w in col.coords if w != x):
                return BarVerdict(False, kind, {"reason": "not unitriangular", "x": x}, checked, skipped, label)
    points = X.minimal_elements() if full and minima_only else range(len(X))
    for x in points:
        try:
            bb = bar_vector(cols[x])
        except TruncationRequired:
            skipped += 1
            continue
        checked += 1
        if bb != ModuleVector.standard(kind, X, x):
            return BarVerdict(False, kind, {"reason": "not an involution", "x": x}, checked, skipped, label)
    for s in range(X.n_gens):
        for x in range(len(X)):
            try:
                lhs = bar_vector(act_gen(ModuleVector.standard(kind, X, x), s))
                rhs = act_bar_gen(cols[x], s)
            except TruncationRequired:
                skipped += 1
                continue
            checked += 1
            if lhs != rhs:
                return BarVerdict(
                    False, kind, {"reason": "incompatible with H_s", "s": s, "x": x}, checked, skipped, label
                )
    if full:
        checked += len(X) - len(points)
    return BarVerdict(True, kind, None, checked, skipped, label)


def vector_phi_verdict(phi):
    """PhiMaps.verify with Phi(H_s M_x) computed by applying Phi to H_s M_x."""
    X = phi.X
    for x in range(len(X)):
        m_std = ModuleVector.standard("M", X, x)
        n_std = ModuleVector.standard("N", X, x)
        for s in range(X.n_gens):
            if phi.mn(act_gen(m_std, s)) != act_bar_gen(phi.mn(m_std), s).scale(-1):
                return CheckVerdict(False, "phi-twisted-law", {"s": s, "x": x})
            if phi.nm(act_gen(n_std, s)) != act_bar_gen(phi.nm(n_std), s).scale(-1):
                return CheckVerdict(False, "phi-twisted-law-n", {"s": s, "x": x})
    lemma = X.truncated_at is None and all(verify_bar_operator(k, X).ok for k in ("M", "N"))
    for x in X.minimal_elements() if lemma else range(len(X)):
        m_std = ModuleVector.standard("M", X, x)
        n_std = ModuleVector.standard("N", X, x)
        mn, nm = phi.mn(m_std), phi.nm(n_std)
        if phi.nm(mn) != m_std or phi.mn(nm) != n_std:
            return CheckVerdict(False, "phi-inverse", {"x": x})
        if phi.mn(bar_vector(m_std)) != bar_vector(mn):
            return CheckVerdict(False, "phi-bar-square", {"x": x})
        if phi.nm(bar_vector(n_std)) != bar_vector(nm):
            return CheckVerdict(False, "phi-bar-square-n", {"x": x})
    return CheckVerdict(True, "phi")


def vector_primed_basis(table_m, table_n, kind):
    """primed_basis with bar(u) = u checked by bar_vector on every vector."""
    X = table_m.X
    src = table_n if kind == "M" else table_m
    vectors = []
    for y in range(len(X)):
        coords = {}
        for x, c in src.cols[y].items():
            sign = -1 if ((X.height2[y] - X.height2[x]) // 2) % 2 else 1
            coords[x] = c.bar() * sign
        vectors.append(ModuleVector(kind, X, coords))
    phi = phi_maps(X)
    for y, u in enumerate(vectors):
        if bar_vector(u) != u:
            return vectors, CheckVerdict(False, "primed-bar-invariance", {"y": y})
        if u.coeff(y) != ONE:
            return vectors, CheckVerdict(False, "primed-unitriangular", {"y": y})
        for x, c in u.coords.items():
            if x != y and c.min_exp() < 1:
                return vectors, CheckVerdict(False, "primed-congruence", {"x": x, "y": y})
        other = table_n.underline(y) if kind == "M" else table_m.underline(y)
        image = phi.nm(other) if kind == "M" else phi.mn(other)
        if u != image.scale(phi.eps[y]):
            return vectors, CheckVerdict(False, "primed-phi", {"y": y})
    return vectors, CheckVerdict(True, f"primed-{kind}")


def fold_primed_check(table_m, table_n, kind):
    """primed_basis with the image eps_y Phi(C_y) formed by one add_scaled
    per term, as (v^-1 - bar(H_s)) eps_sy u_sy - sum mu(w, sy) eps_w u_w
    scaled by eps_y, nothing pooled."""
    X = table_m.X
    src = table_n if kind == "M" else table_m
    h2, parity = X.height2, X.parity
    vectors = []
    for y, col in enumerate(src.cols):
        coords = {x: -c.bar() if parity[x] != parity[y] else c.bar() for x, c in col.items()}
        vectors.append(ModuleVector(kind, X, coords))
    phi = phi_maps(X)
    certified = phi.verify()
    if not certified.ok:
        return vectors, CheckVerdict(False, "primed-phi", {"phi": certified.name, **(certified.failure or {})})
    eps = phi.eps
    weak = src.kind == "M"
    for y, u in enumerate(vectors):
        if u.coeff(y) != ONE:
            return vectors, CheckVerdict(False, "primed-unitriangular", {"y": y})
        for x, c in u.coords.items():
            if x != y and c.min_exp() < 1:
                return vectors, CheckVerdict(False, "primed-congruence", {"x": x, "y": y})
        step = lowest_descent(X.action, h2, y)
        if step is None:
            image = bar_columns(kind, X)[y].coords
        else:
            s, sy = step
            prev = add_scaled({}, vectors[sy].coords, eps[sy])
            image = add_scaled({}, act_bar_gen(ModuleVector(kind, X, prev), s).coords, -1)
            add_scaled(image, prev, VINV)
            for w, c in src.cols[sy].items():
                d = h2[X.action[s][w]] - h2[w]
                if w < sy and -1 in c.terms and (d < 0 or (weak and d == 0)):
                    add_scaled(image, vectors[w].coords, -c.terms[-1] * eps[w])
            image = add_scaled({}, image, eps[y])
        if u.coords != image:
            return vectors, CheckVerdict(False, "primed-phi", {"y": y})
    return vectors, CheckVerdict(True, f"primed-{kind}")


def fold_inversion_check(system):
    """inversion_check with column y of the pairing formed by one add_scaled
    per nonzero n entry."""
    classes = iplus_qp_classes(system)
    paired = []
    for K in classes:
        theta2, keys = w0_translate(K)
        K2 = next((c for c in classes if c.theta == theta2 and keys[0] in c.index), None)
        if K2 is None:
            return InversionVerdict(False, failure={"reason": "partner class is not QP", "class": K.describe_point(0)})
        table_m, table_n = canonical_basis("M", K), canonical_basis("N", K2)
        part = [K2.index[k] for k in keys]
        for y in range(len(K)):
            col = {}
            for w in range(len(K)):
                c = table_n.poly(part[y], part[w])
                if c:
                    add_scaled(col, table_m.cols[w], c * (-1 if K.parity[y] != K.parity[w] else 1))
            if col != {y: ONE}:
                x = min(x for x in col.keys() | {y} if col.get(x) != (ONE if x == y else None))
                return InversionVerdict(False, failure={"class": K.describe_point(0), "x": x, "y": y})
        paired.append({"theta": list(K.theta.sigma), "size": len(K), "partner_theta": list(K2.theta.sigma),
                       "partner_size": len(K2), "self_paired": K2 is K})
    return InversionVerdict(True, paired)


def pair_table_checks(table):
    """Parity, multiplication, recurrence and mu-delta verdicts of table, each
    by scanning every x or every pair; parity alone on a truncated carrier."""
    mu = table_entries(table.mus)
    checks = [_pair_parity(table, mu)]
    if table.X.truncated_at is None:
        checks += [_pair_multiplication(table, mu), _pair_recurrences(table, mu), _pair_mu_lemma(table, mu)]
    return checks


def _pair_parity(table, mu):
    X = table.X
    coeffs = {(x, y): c.terms[-1] for (x, y), c in table_entries(table.cols).items() if -1 in c.terms}
    for y, col in enumerate(table.cols):
        for x, c in col.items():
            wt = c.shift((X.height2[y] - X.height2[x]) // 2)
            if any(e < 0 or e % 2 for e in wt.terms):
                return CheckVerdict(False, "parity", {"x": x, "y": y})
            if table.kind == "M" and wt.coeff(0) != 1:
                return CheckVerdict(False, "parity", {"x": x, "y": y})
        for x in range(len(X)):  # the nonzero mu(x, y) = [v^-1] p[x, y], stored exactly
            if mu.get((x, y)) != coeffs.get((x, y)):
                return CheckVerdict(False, "parity", {"x": x, "y": y, "mu": mu.get((x, y), 0)})
    return CheckVerdict(True, "parity")


def _pair_multiplication(table, mu):
    X = table.X
    h2 = X.height2
    order = bruhat_order(X)
    weak = table.kind == "M"

    def descends(s, x):
        d = h2[X.action[s][x]] - h2[x]
        return d < 0 or (weak and d == 0)

    for s in range(X.n_gens):
        for x in range(len(X)):
            u = table.underline(x)
            lhs = act_gen(u, s)
            add_scaled(lhs.coords, u.coords, VINV)
            sx = X.action[s][x]
            if descends(s, x):
                rhs = add_scaled({}, u.coords, V + VINV)
            else:
                rhs = dict(table.cols[sx]) if h2[sx] > h2[x] else {}
                for w in downset_ids(order, x):
                    m = mu.get((w, x), 0)
                    if m and descends(s, w):
                        add_scaled(rhs, table.cols[w], m)
            if lhs.coords != rhs:
                return CheckVerdict(False, "multiplication", {"s": s, "x": x})
    return CheckVerdict(True, "multiplication")


def _pair_recurrences(table, mu):
    X = table.X
    kind = table.kind
    order = bruhat_order(X)
    h2 = X.height2
    wts = {
        (x, y): c.shift((h2[y] - h2[x]) // 2)
        for y, col in enumerate(table.cols)
        for x, c in col.items()
        if order.leq(x, y)
    }

    def wt(x, y):
        return wts.get((x, y), ZERO)

    vv = v_power(2)
    n = len(X)
    for s in range(X.n_gens):
        for y in range(n):
            sy = X.action[s][y]
            if kind == "M" and h2[sy] == h2[y]:
                for x in range(n):
                    if wt(x, y) != wt(X.action[s][x], y):
                        return CheckVerdict(False, "recurrence", {"s": s, "y": y, "x": x})
                continue
            if h2[sy] >= h2[y]:
                continue
            corrections = []
            for t in downset_ids(order, sy):
                m = mu.get((t, sy), 0)
                drop = h2[X.action[s][t]] - h2[t]
                if m and t != sy and (drop < 0 or (kind == "M" and drop == 0)):
                    corrections.append((t, m * v_power((h2[y] - h2[t]) // 2)))
            for x in range(n):
                sx = X.action[s][x]
                dh = h2[sx] - h2[x]
                if kind == "M":
                    bracket = wt(x, sy) + vv * wt(sx, sy) if dh > 0 else vv * wt(x, sy) + wt(sx, sy)
                elif dh > 0:
                    bracket = wt(x, sy) + vv * wt(sx, sy)
                elif dh < 0:
                    bracket = vv * wt(x, sy) + wt(sx, sy)
                else:
                    bracket = ZERO
                total = bracket
                for t, c in corrections:
                    if order.leq(x, t):
                        total = total - wt(x, t) * c
                if wt(x, y) != total or wt(x, y) != wt(sx, y):
                    return CheckVerdict(False, "recurrence", {"s": s, "y": y, "x": x})
    return CheckVerdict(True, "recurrence")


def _pair_mu_lemma(table, mu):
    X = table.X
    order = bruhat_order(X)
    h2 = X.height2
    n = len(X)
    for x in range(n):
        for y in range(n):
            if not order.lt(x, y):
                continue
            for s in range(X.n_gens):
                sx, sy = X.action[s][x], X.action[s][y]
                if table.kind == "M":
                    applies = h2[sy] <= h2[y] and h2[sx] > h2[x]
                else:
                    applies = h2[sy] < h2[y] and h2[sx] >= h2[x]
                if applies and mu.get((x, y), 0) != (1 if sx == y else 0):
                    return CheckVerdict(False, "mu-delta", {"s": s, "x": x, "y": y})
    return CheckVerdict(True, "mu-delta")


def downset_ids(order, y):
    """The ids x <= y, ascending, read from the down-set bitset of y."""
    bits = order.downsets[y]
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def memo_multiplication(table):
    """verify_multiplication with both sides summed per key through a
    ShiftMemo per generator."""
    X = table.X
    h2 = X.height2
    order = bruhat_order(X)
    weak = table.kind == "M"  # M descends weakly, N strictly
    level = V + VINV  # the left side's factor at a level key (M)
    for s in range(X.n_gens):
        ar = ShiftMemo()
        shift, add, mul, row = ar.shift, ar.add, ar.mul, X.action[s]
        for x, u in enumerate(table.cols):
            d = h2[row[x]] - h2[x]
            if d < 0 or (weak and d == 0):
                for k, c in u.items():
                    dk = h2[row[k]] - h2[k]
                    q, t = u.get(row[k], ZERO), shift(c, 1 if dk > 0 else -1)
                    if dk == 0 and not weak or dk and q is not t and q != t:
                        return CheckVerdict(False, "multiplication", {"s": s, "x": x})
                continue
            lhs = {}  # u[sk] + v^(-+1) u[k] as s raises or lowers k; (v + v^-1) u[k] (M) or 0 (N) if level
            for k, c in u.items():
                sk = row[k]
                if h2[sk] != h2[k]:
                    if (t := add(shift(c, 1 if h2[sk] < h2[k] else -1), u.get(sk, ZERO))) is not ZERO:
                        lhs[k] = t
                    if sk not in u:
                        lhs[sk] = c
                elif weak:
                    lhs[k] = mul(level, c)
            rhs = combine(((table.cols[w], m) for w, m in table.mus[x].items()
                           if m and order.leq(w, x) and ((dw := h2[row[w]] - h2[w]) < 0 or weak and not dw)),
                          ar, dict(table.cols[row[x]]) if d > 0 else None)
            if lhs != rhs:
                return CheckVerdict(False, "multiplication", {"s": s, "x": x})
    return CheckVerdict(True, "multiplication")


def memo_recurrences(table):
    """verify_recurrences on a shifted copy of the table (wts) through one
    ShiftMemo, comparing interned sides by identity, for x in D + s D."""
    X = table.X
    kind = table.kind
    order = bruhat_order(X)
    down = order.downsets
    h2 = X.height2
    ar = ShiftMemo()
    shift, add, mul = ar.shift, ar.add, ar.mul
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
            corrections = []
            for t, m in table.mus[sy].items():
                drop = h2[row[t]] - h2[t]
                if m and order.lt(t, sy) and (drop < 0 or (kind == "M" and drop == 0)):
                    corrections.append((wts[t], ar.intern(-m * v_power((h2[y] - h2[t]) // 2))))
            wt_sy = wts[sy]
            for x in near(s, down[y] | down[sy]):
                sx = row[x]
                dh = h2[sx] - h2[x]
                a, b = wt_sy.get(x, ZERO), wt_sy.get(sx, ZERO)
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


def memo_mu_lemma(table):
    """verify_mu_lemma as a scan of the pairs x < y, y-major, x ascending in
    down(y), then s."""
    X = table.X
    order = bruhat_order(X)
    h2 = X.height2
    for y in range(len(X)):
        mus = table.mus[y]
        for x in downset_ids(order, y):
            if x == y:
                continue
            for s in range(X.n_gens):
                sx, sy = X.action[s][x], X.action[s][y]
                if table.kind == "M":
                    applies = h2[sy] <= h2[y] and h2[sx] > h2[x]
                else:
                    applies = h2[sy] < h2[y] and h2[sx] >= h2[x]
                if applies and mus.get(x, 0) != (1 if sx == y else 0):
                    return CheckVerdict(False, "mu-delta", {"s": s, "x": x, "y": y})
    return CheckVerdict(True, "mu-delta")


def memo_table_checks(table):
    """The multiplication, recurrence and mu-delta verdicts of the memo forms."""
    return [memo_multiplication(table), memo_recurrences(table), memo_mu_lemma(table)]
