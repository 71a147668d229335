"""The Iwahori-Hecke algebra of a Coxeter system, in the H-normalization.

Elements are finitely supported maps {key of w -> coefficient of H_w} with
coefficients in Z[v, v^-1], on element keys (ids, or reduced words on a
universal system), not group elements.  The defining relation is

    H_s H_w = H_{sw}                    if the length goes up,
    H_s H_w = H_{sw} + (v - v^-1) H_w   if the length goes down,

so H_s^-1 = H_s + (v^-1 - v).  H is the module M of barcanon on the regular
carrier (W, length), whose point ids are the element ids, so coordinates
are an M-vector's as they stand: products are act_hecke, the bar involution
(v -> v^-1, H_w -> (H_{w^-1})^-1) is bar_vector, and the Kazhdan-Lusztig
basis is the canonical table of M.  These need a finite system
(InfiniteParabolic otherwise); sums and act_hecke on a truncated universal
carrier do not.
"""

from __future__ import annotations

from .barcanon import ModuleVector, act_hecke, bar_vector, canonical_basis
from .coxeter import CoxeterSystem, stage
from .errors import ConsistencyError, SystemMismatch
from .laurent import ONE, LaurentPoly, ZERO, lincomb
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
    """An element of H(W, S) in coordinates over the standard basis {H_w}, keyed
    by element key (on a finite system, w's point id on the regular carrier).

    coords is kept as given, neither copied nor filtered, as ModuleVector
    keeps it: it holds no zero entry (the kernels that build elements leave
    none), and it may be shared, as underline shares a canonical table's
    column, so it is read-only."""

    __slots__ = ("system", "coords")

    def __init__(self, system: CoxeterSystem, coords: dict):
        self.system = system
        self.coords = coords

    @classmethod
    def unit(cls, system: CoxeterSystem) -> "HeckeElt":
        return cls(system, {system.identity_key: ONE})

    @classmethod
    def basis(cls, system: CoxeterSystem, w) -> "HeckeElt":
        return cls(system, {w: ONE})

    def _check(self, other):
        if not isinstance(other, HeckeElt) or other.system is not self.system:
            raise SystemMismatch("Hecke elements from different systems")

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        return HeckeElt(self.system, lincomb(((self.coords, 1), (other.coords, 1))))

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        return HeckeElt(self.system, lincomb(((self.coords, 1), (other.coords, -1))))

    def scale(self, c) -> "HeckeElt":
        return HeckeElt(self.system, lincomb(((self.coords, c),)))

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        X = regular_module(self.system)
        return HeckeElt(self.system, act_hecke(ModuleVector("M", X, other.coords), self).coords)

    def bar(self) -> "HeckeElt":
        """The bar involution: v -> v^-1 on coefficients and H_w -> (H_{w^-1})^-1."""
        X = regular_module(self.system)
        return HeckeElt(self.system, bar_vector(ModuleVector("M", X, self.coords)).coords)

    def theta(self) -> "HeckeElt":
        """The algebra automorphism with H_w -> (-1)^len(w) bar(H_w), A-linearly:
        the bar of the element with coefficients (-1)^len(w) bar(c)."""
        X = regular_module(self.system)
        length = self.system._table.length
        twisted = {w: -c.bar() if length[w] % 2 else c.bar() for w, c in self.coords.items()}
        return HeckeElt(self.system, bar_vector(ModuleVector("M", X, twisted)).coords)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElt)
            and self.system is other.system
            and self.coords == other.coords
        )

    def __repr__(self):
        if not self.coords:
            return "0"
        return " + ".join(f"({self.coords[w]})H[{w}]" for w in sorted(self.coords))


class KLTable:
    """The Kazhdan-Lusztig basis of H: polynomials h_{x,y} and their mu-coefficients,
    the canonical table of M on the regular carrier, indexed by element ids."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        table = canonical_basis("M", regular_module(system))
        # cols[y] = {x: h[x, y]} and mus[y] = {x: mu(x, y)}, the canonical
        # table's own stores: read-only
        self.mus, self.cols = table.mus, table.cols

    def poly(self, x: int, y: int) -> LaurentPoly:
        return self.cols[y].get(x, ZERO)

    def underline(self, y: int) -> HeckeElt:
        return HeckeElt(self.system, self.cols[y])


def kl_basis(system: CoxeterSystem) -> KLTable:
    return KLTable(system)
