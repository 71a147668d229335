"""The Iwahori-Hecke algebra of a Coxeter system, in the H-normalization.

Elements are finitely supported maps {H_w -> coefficient} with coefficients
in Z[v, v^-1].  The defining relation is

    H_s H_w = H_{sw}                    if the length goes up,
    H_s H_w = H_{sw} + (v - v^-1) H_w   if the length goes down,

so H_s^-1 = H_s + (v^-1 - v).  H is the module M of barcanon on the regular
carrier (W, length), whose point ids are the element ids: products are
act_hecke, the bar involution (v -> v^-1, H_w -> (H_{w^-1})^-1) is
bar_vector, and the Kazhdan-Lusztig basis is the canonical table of M.  These
need a finite system (InfiniteParabolic otherwise).
"""

from __future__ import annotations

from .barcanon import ModuleVector, act_hecke, bar_vector, canonical_basis
from .coxeter import CoxeterSystem, Element, stage
from .errors import ConsistencyError, SystemMismatch
from .laurent import ONE, LaurentPoly, ZERO, add_scaled
from .qpsets import ScaledWSet, regular_set


@stage("_regular_module")
def regular_module(system: CoxeterSystem) -> ScaledWSet:
    """The regular carrier of a finite system, built once and kept on the system
    (an entry of a weak-key map would be kept alive by the carrier's system).
    Its point ids must be the element ids: point w carries the word of w."""
    X = regular_set(system)  # InfiniteParabolic on a universal system
    table = system._ensure_table()
    if len(X) != len(table.perms) or any(key != table.word(w) for w, key in enumerate(X.keys)):
        raise ConsistencyError("regular carrier point ids differ from element ids")
    return X


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

    def _vector(self) -> ModuleVector:
        """This element as a vector of M on the regular carrier."""
        X = regular_module(self.system)
        return ModuleVector("M", X, {w.key: c for w, c in self.coords.items()})

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

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        return _from_ids(self.system, act_hecke(other._vector(), self).coords)

    def bar(self) -> "HeckeElt":
        """The bar involution: v -> v^-1 on coefficients and H_w -> (H_{w^-1})^-1."""
        return _from_ids(self.system, bar_vector(self._vector()).coords)

    def theta(self) -> "HeckeElt":
        """The algebra automorphism with H_w -> (-1)^len(w) bar(H_w), A-linearly:
        the bar of the element with coefficients (-1)^len(w) bar(c)."""
        X = regular_module(self.system)
        twisted = {w.key: -c.bar() if w.length % 2 else c.bar() for w, c in self.coords.items()}
        return _from_ids(self.system, bar_vector(ModuleVector("M", X, twisted)).coords)

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


def _from_ids(system: CoxeterSystem, coords: dict[int, LaurentPoly]) -> HeckeElt:
    """The Hecke element with coordinates {element id: coefficient}."""
    return HeckeElt(system, {Element(system, x): c for x, c in coords.items()})


class KLTable:
    """The Kazhdan-Lusztig basis of H: polynomials h_{x,y} and their mu-coefficients,
    the canonical table of M on the regular carrier with element ids for point ids."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        table = canonical_basis("M", regular_module(system))
        # cols[y] = {x: h[x, y]} and mus[y] = {x: mu(x, y)}, the canonical
        # table's own stores: read-only
        self.mus, self.cols = table.mus, table.cols

    def poly(self, x: Element, y: Element) -> LaurentPoly:
        return self.cols[y.key].get(x.key, ZERO)

    def mu_of(self, x: Element, y: Element) -> int:
        return self.mus[y.key].get(x.key, 0)

    def underline(self, y: Element) -> HeckeElt:
        return _from_ids(self.system, self.cols[y.key])


def kl_basis(system: CoxeterSystem) -> KLTable:
    return KLTable(system)
