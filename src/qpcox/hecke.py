"""The Iwahori-Hecke algebra of a Coxeter system, in the H-normalization.

Elements are finitely supported maps {H_w -> coefficient} with coefficients
in Z[v, v^-1].  The defining relation is

    H_s H_w = H_{sw}                    if the length goes up,
    H_s H_w = H_{sw} + (v - v^-1) H_w   if the length goes down,

so H_s^-1 = H_s + (v^-1 - v).  The bar involution is the unique ring map
sending v to v^-1 and H_w to (H_{w^-1})^-1; it is computed as a product of
H_s^-1 factors along a reversed reduced word.  The T-basis of the older
literature (T_w = v^len(w) H_w) is supported as a conversion only.
"""

from __future__ import annotations

import weakref

from .coxeter import CoxeterSystem, Element
from .errors import SystemMismatch
from .laurent import ONE, V, VINV, LaurentPoly, ZERO, add_scaled, canonical_columns, v_power

_bar_cache: "weakref.WeakKeyDictionary[CoxeterSystem, dict]" = weakref.WeakKeyDictionary()


class HeckeElt:
    """An element of H(W, S) in coordinates over the standard basis {H_w}."""

    __slots__ = ("system", "coords")

    def __init__(self, system: CoxeterSystem, coords: dict[Element, LaurentPoly]):
        self.system = system
        self.coords = {w: c for w, c in coords.items() if c}

    @classmethod
    def unit(cls, system: CoxeterSystem) -> "HeckeElt":
        return cls(system, {system.identity: ONE})

    @classmethod
    def basis(cls, w: Element) -> "HeckeElt":
        return cls(w.system, {w: ONE})

    def _check(self, other):
        if not isinstance(other, HeckeElt) or other.system is not self.system:
            raise SystemMismatch("Hecke elements from different systems")

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        return HeckeElt(self.system, add_scaled(dict(self.coords), other.coords))

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        return HeckeElt(self.system, add_scaled(dict(self.coords), other.coords, -1))

    def scale(self, c) -> "HeckeElt":
        return HeckeElt(self.system, add_scaled({}, self.coords, c))

    def coeff(self, w: Element) -> LaurentPoly:
        return self.coords.get(w, ZERO)

    def gen_mult(self, s: int) -> "HeckeElt":
        """Left multiplication by H_s."""
        gen = self.system.generator(s)
        out: dict[Element, LaurentPoly] = {}  # H_w -> H_sw; left multiplication permutes W
        down: dict[Element, LaurentPoly] = {}  # + (v - v^-1) H_w where s lowers w
        for w, c in self.coords.items():
            sw = gen * w
            out[sw] = c
            if sw.length < w.length:
                down[w] = c
        return HeckeElt(self.system, add_scaled(out, down, V - VINV))

    def word_mult(self, word) -> "HeckeElt":
        """Left multiplication by H_{s_1} ... H_{s_k} for word = (s_1, ..., s_k)."""
        out = self
        for s in reversed(word):
            out = out.gen_mult(s)
        return out

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        out: dict[Element, LaurentPoly] = {}
        for w, c in self.coords.items():
            add_scaled(out, other.word_mult(w.word()).coords, c)
        return HeckeElt(self.system, out)

    def bar(self) -> "HeckeElt":
        """The bar involution: v -> v^-1 on coefficients and H_w -> (H_{w^-1})^-1."""
        out: dict[Element, LaurentPoly] = {}
        for w, c in self.coords.items():
            add_scaled(out, _bar_of_basis(self.system, w).coords, c.bar())
        return HeckeElt(self.system, out)

    def theta(self) -> "HeckeElt":
        """The algebra automorphism with H_w -> (-1)^len(w) bar(H_w), A-linearly."""
        out: dict[Element, LaurentPoly] = {}
        for w, c in self.coords.items():
            add_scaled(out, _bar_of_basis(self.system, w).coords, -c if w.length % 2 else c)
        return HeckeElt(self.system, out)

    def to_t_pairs(self) -> list:
        """Coordinates over the T-basis (T_w = v^len(w) H_w), for import/export."""
        return [
            [list(w.word()), (c * v_power(-w.length)).to_pairs()]
            for w, c in sorted(self.coords.items(), key=lambda it: (it[0].length, it[0].key))
        ]

    @classmethod
    def from_t_pairs(cls, system: CoxeterSystem, pairs) -> "HeckeElt":
        out: dict[Element, LaurentPoly] = {}
        for word, poly_pairs in pairs:
            w = system.element_from_word(word)
            add_scaled(out, {w: LaurentPoly.from_pairs(poly_pairs)}, v_power(w.length))
        return cls(system, out)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElt)
            and self.system is other.system
            and self.coords == other.coords
        )

    def __repr__(self):
        if not self.coords:
            return "0"
        bits = []
        for w in sorted(self.coords, key=lambda w: (w.length, w.key)):
            bits.append(f"({self.coords[w]})H[{w!r}]")
        return " + ".join(bits)


def _bar_of_basis(system: CoxeterSystem, w: Element) -> HeckeElt:
    """bar(H_w) = H_{s_1}^-1 ... H_{s_k}^-1 along a reduced word w = s_1 ... s_k."""
    cache = _bar_cache.setdefault(system, {})
    got = cache.get(w.key)
    if got is not None:
        return got
    stack = [w]
    while stack:
        x = stack[-1]
        if x.key in cache:
            stack.pop()
            continue
        if x.is_identity():
            cache[x.key] = HeckeElt.unit(system)
            stack.pop()
            continue
        s = min(x.left_descents())
        rest = system.generator(s) * x
        prev = cache.get(rest.key)
        if prev is None:
            stack.append(rest)
            continue
        bar_s = prev.gen_mult(s)
        add_scaled(bar_s.coords, prev.coords, VINV - V)  # H_s^-1 = H_s + (v^-1 - v)
        cache[x.key] = bar_s
        stack.pop()
    return cache[w.key]


class KLTable:
    """The Kazhdan-Lusztig basis of H: polynomials h_{x,y} and their mu-coefficients."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        n = system.order()
        # ids are assigned by BFS from the identity, so id order refines length order
        bar_cols = []
        for y in range(n):
            col = _bar_of_basis(system, Element(system, y))
            bar_cols.append({w.key: c for w, c in col.coords.items()})
        self.h, self.mu = canonical_columns(bar_cols)
        self.cols: list[dict[int, LaurentPoly]] = [{} for _ in range(n)]
        for (x, y), c in self.h.items():
            self.cols[y][x] = c

    def poly(self, x: Element, y: Element) -> LaurentPoly:
        return self.h.get((x.key, y.key), ZERO)

    def mu_of(self, x: Element, y: Element) -> int:
        return self.mu.get((x.key, y.key), 0)

    def underline(self, y: Element) -> HeckeElt:
        sys = self.system
        return HeckeElt(sys, {Element(sys, x): c for x, c in self.cols[y.key].items()})

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "system": self.system.to_json(),
            "basis": "kazhdan-lusztig",
            "entries": [
                [x, y, c.to_pairs()] for (x, y), c in sorted(self.h.items(), key=lambda it: (it[0][1], it[0][0]))
            ],
        }


def kl_basis(system: CoxeterSystem) -> KLTable:
    return KLTable(system)
