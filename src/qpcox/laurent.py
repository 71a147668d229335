"""Exact arithmetic in the ring of integer Laurent polynomials in v.

A polynomial is stored sparsely as a map from integer exponent to nonzero
integer coefficient; the zero polynomial is the empty map.  Coefficients are
plain Python ints, so they are arbitrary precision and cannot overflow
silently.  Values are immutable after construction and safe to share.

Sparse vectors {key: LaurentPoly} share one in-place kernel, add_scaled; on
them act the H_s rule of M(X) and N(X) and the canonical solve built on it.

>>> p = V - V**-1
>>> print(p * (V + V**-1))
-v^-2 + v^2
>>> print(p.bar())
v^-1 - v
"""

from __future__ import annotations

from typing import Iterable

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

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "LaurentPoly":
        t: dict[int, int] = {}
        for e, c in pairs:
            t[e] = t.get(e, 0) + c
        return cls(t)

    def to_pairs(self) -> list[list[int]]:
        """Serialize as [exponent, coefficient] pairs with strictly increasing exponents."""
        return [[e, self.terms[e]] for e in sorted(self.terms)]

    # -- queries ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    @property
    def constant_term(self) -> int:
        return self.terms.get(0, 0)

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
        for e1, c1 in self.terms.items():
            for e2, c2 in q.terms.items():
                e = e1 + e2
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return LaurentPoly(t)

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

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

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
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
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


def v_power(k: int) -> LaurentPoly:
    return LaurentPoly({k: 1})


def add_scaled(acc: dict, vec: dict, c=ONE) -> dict:
    """acc += c * vec for sparse vectors {key: LaurentPoly}, in place; returns acc.

    Entries that cancel are removed, so acc never holds a zero polynomial.
    Each touched key gets one freshly built polynomial: no polynomial held by
    acc, vec or c is mutated, so shared values such as ONE stay intact.  c is
    a LaurentPoly or an int; acc must be a different dict from vec.

    >>> acc = {0: ONE}
    >>> add_scaled(acc, {0: V, 1: ONE}, VINV)
    {0: LaurentPoly({0: 2}), 1: LaurentPoly({-1: 1})}
    """
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
            fresh = LaurentPoly.__new__(LaurentPoly)  # t is clean: skip the filter
            fresh.terms = t
            fresh._hash = None
            acc[k] = fresh
        elif old is not None:
            del acc[k]
    return acc


def act_generator(coords: dict, action, s: int, height2, kind: str, bar: bool = False) -> dict:
    """H_s applied to a sparse vector over the standard basis of M(X) or N(X),
    X given by its action rows and doubled heights.  The three-case rule:
    H_s M_x is M_sx where s raises x, M_sx + (v - v^-1) M_x where s lowers x,
    and v M_x (kind M) or -v^-1 N_x (kind N) where s keeps the height of x.

    With bar, bar(H_s) = H_s + (v^-1 - v) instead, in one pass: M_sx +
    (v^-1 - v) M_x where s raises x, M_sx where s lowers x, and v^-1 M_x (M)
    or -v N_x (N) where s keeps the height of x."""
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


def canonical_columns(kind: str, action, height2) -> tuple[dict, dict]:
    """The canonical basis C_y = sum p[x, y] M_x of M(X) or N(X), X given by
    its action rows and doubled heights (ids refining height).  A minimal
    point keeps C_y = M_y; otherwise, with s the lowest generator lowering y,
    the multiplication theorem gives C_y = (H_s + v^-1) C_sy - sum mu(w, sy) C_w
    over the w < sy that s descends, weakly for M and strictly for N.
    Returns p keyed (x, y) and the nonzero mu[x, y] = [v^-1] p[x, y].

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
    weak = kind == "M"  # s descends w weakly for M, strictly for N
    cols, mus, p, mu = [], [], {}, {}  # per y: C_y and its mu-coefficients; the tables returned
    for y in range(len(height2)):
        step = lowest_descent(action, height2, y)
        if step is None:
            col = {y: ONE}
        else:
            s, sy = step
            col = act_generator(cols[sy], action, s, height2, kind)
            add_scaled(col, cols[sy], VINV)
            for w, m in mus[sy].items():
                d = height2[action[s][w]] - height2[w]
                if d < 0 or (weak and d == 0):
                    add_scaled(col, cols[w], -m)
        if col.get(y) != ONE or any(x > y or x != y and max(c.terms) >= 0 for x, c in col.items()):
            raise ConsistencyError(f"canonical {kind}-column {y} is not unitriangular in v^-1 Z[v^-1]")
        cols.append(col)
        mus.append({x: c.terms[-1] for x, c in col.items() if -1 in c.terms})  # p[y, y] = 1 has none
        p.update(((x, y), c) for x, c in col.items())
        mu.update(((x, y), m) for x, m in mus[y].items())
    return p, mu
