"""Exact arithmetic in the ring of integer Laurent polynomials in v.

A polynomial is stored sparsely as a map from integer exponent to nonzero
integer coefficient; the zero polynomial is the empty map.  Coefficients are
plain Python ints, so they are arbitrary precision and cannot overflow
silently.  Values are immutable after construction and safe to share.

Sums of sparse vectors {key: LaurentPoly} have two kernels.  lincomb sums
scaled vectors over few distinct values (the +, - and scale of module
vectors and Hecke elements, a bar operator applied to a vector, a Hecke
product, the Phi maps) by Kronecker substitution: every polynomial is read
at v = 2^b for a b that bounds the result, so each distinct (scalar, entry)
product is one integer product per call and each key's sum one integer,
with no polynomial arithmetic.  combine sums them key by key through a
PolyMemo: the mu corrections of the canonical solve, the bar verdict, the
primed bases and the inversion pairing.  Arithmetic that redoes the same
polynomial operations many times goes through a PolyMemo made for that
call, which interns its results and dies with the call: the H_s rule of
M(X) and N(X) (act_generator, applying H_s + c key by key, for the bar
columns, the bar verdict and the canonical solve built on it) and combine.
The table checks of barcanon do no polynomial arithmetic: int_columns reads
their table at v = 2^b as int columns, each distinct entry packed once.
lincomb, int_columns and PolyMemo key their memos by id, so each holds
every operand it keys until it is dropped: an id is never reused while its
memo lives, and no memo outlives its call.

>>> p = V - V**-1
>>> print(p * (V + V**-1))
-v^-2 + v^2
>>> print(p.bar())
v^-1 - v
"""

from __future__ import annotations

from .errors import ConsistencyError, TruncationRequired
from .qpsets import lowest_descent


class LaurentPoly:
    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[int, int] | None = None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t
        self._hash = None

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    def to_pairs(self) -> list[list[int]]:
        """Serialize as [exponent, coefficient] pairs with strictly increasing exponents."""
        return [[e, self.terms[e]] for e in sorted(self.terms)]

    # -- queries ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree bounds")
        return min(self.terms)

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        t = dict(self.terms)
        for e, c in q.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return LaurentPoly(t)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        t: dict[int, int] = {}
        q_terms = q.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in q_terms:
                e = e1 + e2
                t[e] = t.get(e, 0) + c1 * c2
        return LaurentPoly(t)  # drops the terms that cancelled

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        if n < 0:
            # negative powers exist only for the units +-v^k
            if len(self.terms) == 1:
                ((e, c),) = self.terms.items()
                if c in (1, -1):
                    return LaurentPoly({e * n: c if n % 2 else 1})
            raise ValueError(f"{self} is not invertible in Z[v, v^-1]")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self) -> "LaurentPoly":
        """The ring involution v -> v^-1: every exponent is negated."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

    # -- equality / hashing / display --------------------------------------

    def __eq__(self, other) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self.terms == q.terms

    def __hash__(self) -> int:
        # a constant hashes like the int it equals (ZERO like 0)
        if self._hash is None:
            t = self.terms
            self._hash = hash(t.get(0, 0)) if t.keys() <= {0} else hash(tuple(sorted(t.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentPoly({self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                va = "v" if e == 1 else f"v^{e}"
                body = va if abs(c) == 1 else f"{abs(c)}{va}"
            if not bits:
                bits.append(body if c > 0 else f"-{body}")
            else:
                bits.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(bits)


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})
VINV = LaurentPoly({-1: 1})


def lincomb(terms) -> dict:
    """The sum of c * vec over the (vec, c) pairs of terms, as a new sparse
    vector {key: LaurentPoly} without zero entries; c is a LaurentPoly or an
    int.  The result equals the sum of the vectors scaled one at a time.
    One term with the scalar 1 (or ONE) is its vector's own nonzero
    entries, in a new dict, with no arithmetic.

    Any other sum is taken by Kronecker substitution, with no polynomial
    arithmetic.  Each distinct scalar (interned by value; zero ones are
    skipped) and each distinct entry (told apart by id; ZERO is skipped) is
    read once at v = 2^b, each distinct (scalar, entry) pair is multiplied
    once as ints, and each key adds its products as one int.  b is one bit
    more than the bit length of the largest entry's L1 norm times the sum
    of the scalars' L1 norms over the pairs.  No result coefficient exceeds
    that bound, so each lies below 2^(b-1) in absolute value, and the
    balanced base-2^b digits of a sum are its coefficients.  terms is
    listed first, so every entry keyed by id stays alive until the call
    returns: a vector freed between items cannot lend an id to an entry of
    the next.  Nothing outlives the call.

    >>> lincomb([({0: V, 1: ONE}, VINV), ({0: V}, 1), ({1: ONE}, -VINV)])
    {0: LaurentPoly({0: 1, 1: 1})}
    """
    terms = list(terms)
    if len(terms) == 1 and terms[0][1] == 1:
        return {k: q for k, q in terms[0][0].items() if q.terms}
    index: dict = {}  # scalar value -> its number in scalars, or -1 if it is zero
    scalars: list[dict] = []  # the terms of each scalar
    work = []  # (scalar number, vec) for every pair that can add something
    held: dict = {}  # id(entry) -> entry, for every entry summed
    for vec, c in terms:
        i = index.get(c)
        if i is None:
            t = c.terms if isinstance(c, LaurentPoly) else {0: c} if c else {}
            i = index[c] = len(scalars) if t else -1
            scalars.append(t)
        if vec and i >= 0:
            work.append((i, vec))
            vals = vec.values()
            held.update(zip(map(id, vals), vals))
    held.pop(id(ZERO), None)
    if not held:
        return {}
    l1 = [sum(map(abs, t.values())) for t in scalars]
    bound = max(sum(map(abs, q.terms.values())) for q in held.values()) * sum(l1[i] for i, _ in work)
    b = bound.bit_length() + 1  # every coefficient of the result lies below 2^(b-1) in absolute value
    # exponents are offset by their least value, so every digit is nonnegative
    lo_s = min(e for t in scalars for e in t)
    lo_q = min((e for q in held.values() for e in q.terms), default=0)
    at = [sum(c << b * (e - lo_s) for e, c in t.items()) for t in scalars]
    entry_at = {q: sum(c << b * (e - lo_q) for e, c in p.terms.items()) for q, p in held.items()}
    products: list[dict] = [{} for _ in scalars]  # per scalar: id(entry) -> their product at 2^b
    sums: dict = {}  # key -> its sum at 2^b
    get = sums.get
    for i, vec in work:
        s, prod = at[i], products[i]
        for k, q in vec.items():
            q = id(q)
            p = prod.get(q)
            if p is None:
                p = prod[q] = s * entry_at.get(q, 0)
            sums[k] = get(k, 0) + p
    base, half, mask = 1 << b, 1 << (b - 1), (1 << b) - 1
    out = {}
    for k, n in sums.items():
        if not n:
            continue
        t = {}
        e = lo_s + lo_q
        while n:  # the balanced base-2^b digits of n, skipping the zero ones at its low end
            z = ((n & -n).bit_length() - 1) // b
            n >>= z * b
            e += z
            d = n & mask
            if d >= half:
                d -= base
            t[e] = d
            n = (n - d) >> b
            e += 1
        p = LaurentPoly.__new__(LaurentPoly)  # t holds no zero: skip the filter
        p.terms = t
        p._hash = None
        out[k] = p
    return out


def int_columns(cols: list[dict], height2, spread: int) -> tuple[list[dict[int, int]], int]:
    """The columns cols[y] = {x: LaurentPoly} of a table on a carrier with
    doubled heights height2, read at v = 2^b as ints, entry (x, y) weighted
    by v^((height2[y] - height2[x]) // 2), and b: the bit length of spread
    times the largest L1 norm (the sum of the absolute coefficients) of an
    entry, at least 1.

    Each distinct entry (told apart by id) is packed once, as the sum of
    c 2^(b (e - lo)) over its terms, lo the least exponent of any entry,
    and each distinct (entry, weight) is shifted once, by b times its
    weight less the least weight of any entry, so every entry is one power
    of v times its weighted value, and every shift a left shift; ids
    refine height, so a column's highest key has its least weight.  Each
    entry object shares one int per weight.  cols holds every entry keyed
    by id until the call returns, and nothing keyed by id outlives it."""
    held = {}  # id(entry) -> entry
    for col in cols:
        vals = col.values()
        held.update(zip(map(id, vals), vals))
    l1 = max((sum(map(abs, p.terms.values())) for p in held.values()), default=0)
    b = max(1, (l1 * spread).bit_length())
    lo = min((e for p in held.values() for e in p.terms), default=0)
    at = {i: sum(c << b * (e - lo) for e, c in p.terms.items()) for i, p in held.items()}
    least = min(((height2[y] - height2[max(col)]) // 2 for y, col in enumerate(cols) if col), default=0)
    shifted = {}  # (id(entry), weight less the least) -> the packed entry, shifted
    out = []
    for y, col in enumerate(cols):
        hy, packed = height2[y] - 2 * least, {}
        for x, c in col.items():
            key = (id(c), (hy - height2[x]) // 2)
            p = shifted.get(key)
            if p is None:
                p = shifted[key] = at[key[0]] << b * key[1]
            packed[x] = p
        out.append(packed)
    return out, b


class PolyMemo:
    """Polynomial arithmetic within one computation, each distinct operation
    done once.  Results are interned by value into the memo's own dict,
    which starts as {ZERO, ONE}, so two results are equal exactly when they
    are the same object.  Operations are memoized by the ids of their
    operands, and the memo holds every operand it has keyed, so no id is
    reused while it lives.  An operand from outside (a planted entry) is
    keyed by its own id and never taken for another; intern maps it to the
    object of its value.  Make one per call and let it die with the call: a
    build (a bar matrix, a canonical table) keeps one object per value.

    >>> ar = PolyMemo()
    >>> ar.add(ar.mul(V, V), ONE) is ar.intern(LaurentPoly({2: 1, 0: 1}))
    True
    """

    __slots__ = ("_values", "_held", "_sums", "_products")

    def __init__(self):
        self._values = {ZERO: ZERO, ONE: ONE}
        self._held = []
        self._sums, self._products = {}, {}

    def intern(self, p: LaurentPoly) -> LaurentPoly:
        """The interned object equal to p."""
        return self._values.setdefault(p, p)

    def _keep(self, memo: dict, key: tuple, operands, value: LaurentPoly) -> LaurentPoly:
        """Memoize value, interned, under key, holding the operands key names."""
        self._held.append(operands)
        r = memo[key] = self.intern(value)
        return r

    def add(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        key = (id(a), id(b))
        r = self._sums.get(key)
        return self._keep(self._sums, key, (a, b), a + b) if r is None else r

    def mul(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        key = (id(a), id(b))
        r = self._products.get(key)
        return self._keep(self._products, key, (a, b), a * b) if r is None else r


def combine(terms, ar: PolyMemo, out: dict | None = None) -> dict:
    """out (a fresh dict if none is given) plus the sum of c * vec over the
    (vec, c) pairs of terms, in place, key by key through ar; returns out.
    c is a LaurentPoly or an int; an int becomes a constant polynomial
    before it is interned, so the memo holds polynomials only.  A zero
    scalar adds nothing, and a unit scalar adds the entries themselves,
    with no product.  A key whose sum is zero is removed, so out never
    holds a zero polynomial.  Each entry stored is an entry of a vec (a
    unit pair's, on a key out lacks) or a result of ar.

    >>> combine([({0: V, 1: ONE}, VINV), ({1: ONE}, -VINV)], PolyMemo(), {0: ONE})
    {0: LaurentPoly({0: 2})}
    """
    out = {} if out is None else out
    add, mul = ar.add, ar.mul
    for vec, c in terms:
        c = ar.intern(c if isinstance(c, LaurentPoly) else LaurentPoly.const(c))
        if c is ZERO:
            continue
        unit = c is ONE
        for k, e in vec.items():
            p = e if unit else mul(c, e)
            q = out.get(k)
            if q is None:
                out[k] = p
            elif (t := add(q, p)) is ZERO:
                del out[k]
            else:
                out[k] = t
    return out


def generator_rule(kind: str, c: LaurentPoly = ZERO) -> tuple:
    """The three-case rule of H_s + c on M(X) or N(X), as the coefficients
    (raising, lowering, level) that act_generator reads.  H_s M_k is M_sk
    where s raises k, M_sk + (v - v^-1) M_k where s lowers k, and v M_k
    (kind M) or -v^-1 N_k (kind N) where s keeps the height of k; c adds
    c M_k to each.  A zero coefficient is ZERO itself.

    bar(H_s) = H_s^-1 is H_s + (v^-1 - v), and the canonical solve applies
    H_s + v^-1.  Build a rule once per computation, not per vector."""
    eigen = V if kind == "M" else -VINV
    return tuple(a or ZERO for a in (c, V - VINV + c, eigen + c))


def act_generator(coords: dict, action, s: int, height2, rule: tuple, ar: PolyMemo) -> dict:
    """(H_s + c) applied to a sparse vector over the standard basis of M(X)
    or N(X), X given by its action rows and doubled heights, for the rule
    (up, down, level) = generator_rule(kind, c).  Key by key: the image at
    k is coords[sk] + up coords[k] where s raises k, coords[sk] + down
    coords[k] where s lowers k, and level coords[k] where s keeps the
    height of k.  Every entry is an entry of coords or a result of ar, so
    on interned coords every entry is interned, and no entry is zero."""
    up, down, level = rule
    row, add, mul = action[s], ar.add, ar.mul
    out = {}
    for k, c in coords.items():
        sk = row[k]
        if sk is None:
            raise TruncationRequired(f"generator {s} leaves the carrier at point {k}")
        d = height2[sk] - height2[k]
        if not d:
            if level is not ZERO:
                out[k] = mul(level, c)
            continue
        a = up if d > 0 else down
        t = ZERO if a is ZERO else mul(a, c)
        q = coords.get(sk)
        if q is None:
            out[sk] = c  # the image at sk is coords[k]
        else:
            t = q if t is ZERO else add(q, t)
        if t is not ZERO:
            out[k] = t
    return out


def canonical_columns(kind: str, action, height2) -> tuple[dict, dict]:
    """The canonical basis C_y = sum p[x, y] M_x of M(X) or N(X), X given by
    its action rows and doubled heights (ids refining height).  A minimal
    point keeps C_y = M_y; otherwise, with s the lowest generator lowering y,
    the multiplication theorem gives C_y = (H_s + v^-1) C_sy - sum mu(w, sy) C_w
    over the w < sy that s descends, weakly for M and strictly for N.
    Returns p keyed (x, y) and the nonzero mu[x, y] = [v^-1] p[x, y].  Each
    entry is computed key by key through one PolyMemo for the call, so the
    table holds one object per distinct value.

    The certificate does not rest on that identity: each column must hold 1
    at y, no entry above id y and all others in v^-1 Z[v^-1], else
    ConsistencyError.  Bar invariance follows by induction on y for any bar
    operator verify_bar_operator certifies, which satisfies bar(H_s V) =
    bar(H_s) bar(V), fixes the minimal points and is unitriangular: C_s =
    H_s + v^-1 is bar-invariant, and C_sy and the C_w are earlier columns.
    Two such columns differ by a bar-invariant vector with entries in
    v^-1 Z[v^-1], whose entry at its highest id is then bar-fixed, hence zero:
    each column is the unique canonical one.
    """
    ar = PolyMemo()
    rule = generator_rule(kind, VINV)  # H_s + v^-1
    weak = kind == "M"  # s descends w weakly for M, strictly for N
    cols, mus, p, mu = [], [], {}, {}  # per y: C_y and its mu-coefficients; the tables returned
    for y in range(len(height2)):
        step = lowest_descent(action, height2, y)
        if step is None:
            col = {y: ONE}
        else:
            s, sy = step
            row = action[s]
            col = act_generator(cols[sy], action, s, height2, rule, ar)
            combine(((cols[w], -m) for w, m in mus[sy].items()
                     if (d := height2[row[w]] - height2[w]) < 0 or weak and not d), ar, col)
        if col.get(y) != ONE or any(x > y or x != y and max(c.terms) >= 0 for x, c in col.items()):
            raise ConsistencyError(f"canonical {kind}-column {y} is not unitriangular in v^-1 Z[v^-1]")
        cols.append(col)
        mus.append({x: c.terms[-1] for x, c in col.items() if -1 in c.terms})  # p[y, y] = 1 has none
        p.update(((x, y), c) for x, c in col.items())
        mu.update(((x, y), m) for x, m in mus[y].items())
    return p, mu
