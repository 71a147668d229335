"""Exact arithmetic in the ring of integer Laurent polynomials in v.

A polynomial is stored sparsely as a map from integer exponent to nonzero
integer coefficient; the zero polynomial is the empty map.  Coefficients are
plain Python ints, so they are arbitrary precision and cannot overflow
silently.  Values are immutable after construction and safe to share.

>>> p = V - V**-1
>>> print(p * (V + V**-1))
-v^-2 + v^2
>>> print(p.bar())
v^-1 - v
"""

from __future__ import annotations

from typing import Iterable

from .errors import SkewViolation


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
    def monomial(cls, c: int, e: int) -> "LaurentPoly":
        return cls({e: c})

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

    def neg_part(self) -> "LaurentPoly":
        """The strictly-negative-exponent part."""
        return LaurentPoly({e: c for e, c in self.terms.items() if e < 0})

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


def solve_skew(g: LaurentPoly) -> LaurentPoly:
    """Solve m - bar(m) = g for the unique m supported on negative exponents.

    Requires bar(g) = -g (which forces the constant term of g to vanish); the
    solution is the strictly-negative-exponent part of g.

    >>> print(solve_skew(V - VINV))
    -v^-1
    """
    if g.bar() != -g:
        raise SkewViolation(
            f"not skew under bar (need bar(g) = -g with zero constant term): {g}"
        )
    return g.neg_part()


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


def canonical_columns(
    bar_col: list[dict[int, LaurentPoly]],
) -> tuple[dict[tuple[int, int], LaurentPoly], dict[tuple[int, int], int]]:
    """Triangular solve producing a bar-invariant basis from a bar matrix.

    ``bar_col[j]`` expands the bar of the j-th standard basis vector over
    positions i <= j, with coefficient 1 at j itself (positions are assumed to
    be listed in a linear extension of the underlying order).  Returns the
    unique coefficients p[i, j] with p[j, j] = 1 and p[i, j] in v^-1.Z[v^-1]
    for i < j making the new basis bar-invariant, together with the map
    mu[i, j] = coefficient of v^-1 in p[i, j].

    Raises SkewViolation if no such basis exists for the supplied bar data.
    """
    p: dict[tuple[int, int], LaurentPoly] = {}
    mu: dict[tuple[int, int], int] = {}
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
