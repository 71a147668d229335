"""Coxeter systems with exact element arithmetic.

Two families are supported.  A *finite* system is built from the root set of
its geometric representation: roots are generated numerically (each is
looked up by its coordinates rounded to a grid of 1e-9), and each generator
becomes an integer permutation of the root indices, with a sign per root.
The construction is self-validating: generator permutations must be
involutions satisfying the braid relations, and the root count must be twice
the number of positive roots, so a misidentified root fails loudly.  Root
vectors are used nowhere else.  A *universal* system (every off-diagonal
order infinite) represents each element by its unique reduced word.

Reflections are read on the roots (reflection_roots): s_beta for each
positive root beta, with its greedy lowest-left-descent word, and no group
enumeration.  Coset and regular carriers are searched on the roots as well
(qpsets.coset_set), so W is enumerated only for conjugacy classes, surveys
and element arithmetic.

Elements of an enumerated finite group are dense integer ids, assigned by
breadth-first search from the identity, with integer action tables indexed
by id.  The search keys w by the root indices of w^-1(alpha_1..alpha_n), so
the step w -> w s is n lookups in the generator permutations.  Left
multiplication, inverses and diagram automorphisms follow from each
element's search parent by table recurrences, and a product folds a table
over a reduced word.  Enumeration is lazy (building a system only builds and
validates the root tables) and refuses groups larger than MAX_ORDER.

KeyTwist is twisted conjugation on keys (ids or words).  Class searches,
truncated reflection actions and structure checks run on it; Element,
ExtElement and twisted_conjugate serve input, output and witness re-checks,
so they keep only the group operations (product, inverse, identity, length,
word, equality).  Descents and the Bruhat order are read on keys and
carriers (KeyTwist, qpsets.lowest_descent, qpsets.bruhat_order).

Type strings: "A n", "B n", "D n" (n >= 4), "E6"/"E7"/"E8", "F4", "H3",
"H4", "I2(m)", "U n" (universal of rank n).  Labeling follows Bourbaki; in
particular D4 has the branch node at s2.

stage, the one memo for what is computed once per system or carrier and
shared by its callers, is defined here, at the bottom of the import graph.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

from .errors import (
    BadMatrix, ConsistencyError, GroupTooLarge, InfiniteParabolic, NotFinite, SystemMismatch
)

INF = 0  # internal marker for an infinite bond order

MAX_ORDER = 500_000  # the largest |W| enumerated, and |X| searched: above |A8| = 362880, below |E7|

_SNAP = 1e-9


def stage(attr: str):
    """A decorator for a stage fn(owner, *arg), with at most one argument
    after its owner (a system, its group table, a carrier, or a carrier's
    Phi maps): fn runs once per owner and argument, and its result is kept
    as owner.<attr>[arg] (owner.<attr>[None] without one) for every later
    call.  A call that raises keeps nothing.  The body is read as the
    wrapper's __wrapped__ on each miss, so it can be instrumented from
    outside."""
    def decorate(fn):
        @functools.wraps(fn)
        def cached(owner, *arg):
            key = arg[0] if arg else None
            store = owner.__dict__.get(attr)
            if store is None:
                store = owner.__dict__[attr] = {}
            elif key in store:
                return store[key]
            value = store[key] = cached.__wrapped__(owner, *arg)
            return value
        return cached
    return decorate


def _parse_type_string(s: str):
    t = s.strip().upper().replace(" ", "")
    m = re.fullmatch(r"I2\((\d+)\)", t)
    if m:
        order = int(m.group(1))
        if order < 2:
            raise BadMatrix(f"I2(m) needs m >= 2: {s!r}")
        return "I2(%d)" % order, [[1, order], [order, 1]]
    m = re.fullmatch(r"([ABDEFHU])(\d+)", t)
    if not m:
        raise BadMatrix(f"unrecognized type string: {s!r}")
    family, n = m.group(1), int(m.group(2))
    name = f"{family}{n}"

    def chain(bonds):
        mat = [[2] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 1
        for (i, j), b in bonds.items():
            mat[i][j] = mat[j][i] = b
        return mat

    if family == "A" and n >= 1:
        return name, chain({(i, i + 1): 3 for i in range(n - 1)})
    if family == "B" and n >= 2:
        bonds = {(i, i + 1): 3 for i in range(n - 2)}
        bonds[(n - 2, n - 1)] = 4
        return name, chain(bonds)
    if family == "D" and n >= 4:
        # chain s1-...-s_{n-2} with s_{n-1} and s_n both attached to s_{n-2}
        bonds = {(i, i + 1): 3 for i in range(n - 2)}
        bonds[(n - 3, n - 1)] = 3
        return name, chain(bonds)
    if family == "E" and n in (6, 7, 8):
        bonds = {(0, 2): 3, (1, 3): 3}
        bonds.update({(i, i + 1): 3 for i in range(2, n - 1)})
        return name, chain(bonds)
    if family == "F" and n == 4:
        return name, chain({(0, 1): 3, (1, 2): 4, (2, 3): 3})
    if family == "H" and n in (3, 4):
        bonds = {(i, i + 1): 3 for i in range(1, n - 1)}
        bonds[(0, 1)] = 5
        return name, chain(bonds)
    if family == "U" and n >= 1:
        mat = [[1 if i == j else INF for j in range(n)] for i in range(n)]
        return name, mat
    raise BadMatrix(f"unsupported rank for family {family}: {s!r}")


def _normalize_matrix(matrix):
    if not isinstance(matrix, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in matrix):
        raise BadMatrix("Coxeter matrix must be a list of rows")
    n = len(matrix)
    out = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise BadMatrix("Coxeter matrix must be square")
        new = []
        for j, m in enumerate(row):
            if m in (math.inf, None, "inf"):
                m = INF
            if not isinstance(m, int):
                raise BadMatrix(f"bad entry m[{i}][{j}] = {m!r}")
            if i == j:
                if m != 1:
                    raise BadMatrix("diagonal entries must be 1")
            elif m != INF and m < 2:
                raise BadMatrix(f"off-diagonal entries must be >= 2 or infinite, got {m}")
            new.append(m)
        out.append(tuple(new))
    for i in range(n):
        for j in range(n):
            if out[i][j] != out[j][i]:
                raise BadMatrix("Coxeter matrix must be symmetric")
    return tuple(out)


def _is_positive_definite(form, tol=1e-9):
    # Cholesky with failure on a nonpositive pivot
    n = len(form)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        d = form[i][i] - sum(L[i][k] ** 2 for k in range(i))
        if d <= tol:
            return False
        L[i][i] = math.sqrt(d)
        for j in range(i + 1, n):
            L[j][i] = (form[j][i] - sum(L[j][k] * L[i][k] for k in range(i))) / L[i][i]
    return True


class CoxeterSystem:
    """A Coxeter system (W, S), either finite or universal."""

    def __init__(self, matrix, name=None):
        self.matrix = _normalize_matrix(matrix)
        self.rank = len(self.matrix)
        self.name = name or f"rank-{self.rank}"
        infinities = [
            (i, j)
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
            if self.matrix[i][j] == INF
        ]
        if not infinities:
            self.family = "finite"
        elif len(infinities) == self.rank * (self.rank - 1) // 2:
            self.family = "universal"
        else:
            raise BadMatrix(
                "matrices mixing finite and infinite orders are not supported; "
                "use an all-infinite (universal) or positive definite matrix"
            )
        self._table = None
        if self.family == "finite":
            self._build_roots()

    @classmethod
    def from_type(cls, type_string: str) -> "CoxeterSystem":
        name, matrix = _parse_type_string(type_string)
        return cls(matrix, name=name)

    def __repr__(self):
        return f"CoxeterSystem({self.name}, rank={self.rank}, {self.family})"

    # -- geometric representation (finite family) --------------------------

    def _build_roots(self):
        n = self.rank
        form = [
            [-math.cos(math.pi / self.matrix[i][j]) for j in range(n)] for i in range(n)
        ]
        if not _is_positive_definite(form):
            raise NotFinite(f"bilinear form of {self.name} is not positive definite")
        roots: list[tuple[float, ...]] = []
        index: dict[tuple[int, ...], int] = {}  # coordinates on the _SNAP grid -> root

        def snap(vec):
            return tuple([round(c / _SNAP) for c in vec])

        def find(vec):
            k = index.setdefault(snap(vec), len(roots))
            if k == len(roots):
                roots.append(vec)
            return k

        for i in range(n):
            find(tuple(1.0 if j == i else 0.0 for j in range(n)))

        # iterating the growing list closes the root set in discovery order
        perms = [[] for _ in range(n)]
        for vec in roots:
            for i in range(n):  # the reflection of vec in alpha_i
                pairing = 2.0 * sum(form[i][j] * vec[j] for j in range(n))
                perms[i].append(find(tuple(c - pairing if j == i else c for j, c in enumerate(vec))))
            if len(roots) > 100000:
                raise NotFinite(f"root closure of {self.name} did not terminate")
        perms = [tuple(p) for p in perms]

        def sign(vec):
            for c in vec:
                if abs(c) > 1e-6:
                    return c > 0
            raise NotFinite("root with vanishing coordinates")

        if any(snap([-c for c in vec]) not in index for vec in roots):
            raise NotFinite("root set is not symmetric under negation")

        # structural self-checks gating the floating-point snapping
        ident = tuple(range(len(roots)))
        for i, p in enumerate(perms):
            if _compose(p, p) != ident:
                raise NotFinite(f"generator {i} is not an involution on roots")
        for i in range(n):
            for j in range(i + 1, n):
                prod = _compose(perms[i], perms[j])
                power = ident
                for _ in range(self.matrix[i][j]):
                    power = _compose(power, prod)
                if power != ident:
                    raise NotFinite(f"braid relation ({i},{j}) fails on roots")
        positive = tuple(sign(vec) for vec in roots)
        if sum(positive) * 2 != len(roots):
            raise NotFinite("root set is not split evenly into positive and negative")

        self.roots = tuple(roots)
        self.gen_root_perm = tuple(perms)
        self.positive = positive
        self.n_positive_roots = len(roots) // 2

    # -- group enumeration (finite family) ----------------------------------

    def _ensure_table(self):
        if self._table is None:
            if self.family != "finite":
                raise NotFinite(f"{self.name} is not a finite system")
            self._table = _GroupTable(self)
        return self._table

    def order(self) -> int:
        """|W| (finite family only)."""
        return len(self._ensure_table().perms)

    @property
    def identity(self) -> "Element":
        if self.family == "universal":
            return Element(self, ())
        self._ensure_table()
        return Element(self, 0)

    def generator(self, i: int) -> "Element":
        if not 0 <= i < self.rank:
            raise BadMatrix(f"no generator with index {i}")
        if self.family == "universal":
            return Element(self, (i,))
        return Element(self, self._ensure_table().gen_ids[i])

    def generators(self) -> list["Element"]:
        return [self.generator(i) for i in range(self.rank)]

    def element_from_word(self, word) -> "Element":
        out = self.identity
        for i in word:
            out = out * self.generator(i)
        return out

    def elements(self):
        """All elements in (length, id) order (finite family)."""
        table = self._ensure_table()
        return [Element(self, i) for i in range(len(table.perms))]

    # -- reflections ---------------------------------------------------------

    @stage("_reflection_roots")
    def reflection_roots(self) -> list[tuple[tuple, int]]:
        """(word, beta) for every reflection s_beta of a finite system, beta
        the index of its positive root, sorted by (length, word).  The word is
        the greedy lowest-left-descent reduced word, so this is the (length,
        id) order of the group table.

        Read on the roots, without enumerating W: s_beta permutes the roots
        (s s_beta s = s_{s beta}, closed from the simple reflections), and w
        has the left descent s exactly when w^-1(alpha_s) is negative, with
        w^-1 s the inverse of s w.
        """
        gens, positive = self.gen_root_perm, self.positive
        perms = dict(enumerate(gens))  # beta -> s_beta on the roots
        queue = list(perms)
        for beta in queue:  # iterating the growing list closes the set
            for g in gens:
                gamma = g[beta]
                if positive[gamma] and gamma not in perms:
                    perms[gamma] = _compose(g, _compose(perms[beta], g))
                    queue.append(gamma)
        out = []
        for beta, q in perms.items():  # q is w^-1 on the roots; s_beta is its own inverse
            word = []
            while (s := next((s for s in range(self.rank) if not positive[q[s]]), None)) is not None:
                word.append(s)
                q = _compose(q, gens[s])  # (s w)^-1 = w^-1 s
            out.append((tuple(word), beta))
        out.sort(key=lambda wb: (len(wb[0]), wb[0]))
        return out

    @stage("_reflections")
    def reflections(self) -> list["Element"]:
        """All reflections as elements of the enumerated group, sorted by
        (length, id) (the survey code).  Finite family."""
        return [self.element_from_word(word) for word, _ in self.reflection_roots()]

    def reflections_up_to(self, max_length: int) -> list["Element"]:
        """Reflections of length <= max_length (universal family)."""
        if self.family != "universal":
            return [r for r in self.reflections() if r.length <= max_length]
        return [Element(self, w) for w in self.reflection_words(max_length)]

    def reflection_words(self, max_length: int) -> list[tuple]:
        """The reduced words w s w^-1 of length <= max_length, sorted by
        (length, word) (universal family)."""
        out = []
        words = [()]
        while words:
            nxt = []
            for w in words:
                if 2 * len(w) + 1 <= max_length:
                    for s in range(self.rank):
                        if w and w[-1] == s:
                            continue
                        out.append(w + (s,) + tuple(reversed(w)))
                        if 2 * (len(w) + 1) + 1 <= max_length:
                            nxt.append(w + (s,))
            words = nxt
        return sorted(out, key=lambda w: (len(w), w))

    # -- Bruhat order ---------------------------------------------------------

    @stage("_bruhat_down")
    def _bruhat_table(self):
        """The Bruhat down-sets of W as bitmasks by id (the survey diagnostics)."""
        table = self._ensure_table()
        refl = [r.key for r in self.reflections()]
        down = [0] * len(table.perms)
        for y in range(len(down)):  # ids are in length order
            bits = 1 << y
            ly = table.length[y]
            for r in refl:
                x = table.mult_ids(r, y)
                if table.length[x] == ly - 1:
                    bits |= down[x]
            down[y] = bits
        return down

    # -- longest elements -------------------------------------------------------

    def longest_element(self, J=None) -> "Element":
        """The longest element of the standard parabolic W_J (J = None means all of S)."""
        J = tuple(range(self.rank)) if J is None else tuple(sorted(set(J)))
        if self.family == "universal":
            if len(J) == 0:
                return self.identity
            if len(J) == 1:
                return self.generator(J[0])
            raise InfiniteParabolic(f"W_J is infinite for J = {J} in a universal group")
        table = self._ensure_table()
        w = 0
        while True:
            for s in J:
                y = table.lmult[w][s]
                if table.length[y] > table.length[w]:
                    w = y
                    break
            else:
                return Element(self, w)

    # -- diagram automorphisms ---------------------------------------------------

    @stage("_aut_list")
    def diagram_automorphisms(self) -> list["DiagramAut"]:
        """All permutations of S preserving the Coxeter matrix, identity first."""
        auts = []
        for sigma in itertools.permutations(range(self.rank)):
            if all(
                self.matrix[sigma[i]][sigma[j]] == self.matrix[i][j]
                for i in range(self.rank)
                for j in range(self.rank)
            ):
                auts.append(DiagramAut(self, sigma))
        auts.sort(key=lambda a: a.sigma)
        return auts

    def identity_aut(self) -> "DiagramAut":
        return DiagramAut(self, tuple(range(self.rank)))

    def w0_aut(self) -> "DiagramAut":
        """Conjugation by the longest element, as a diagram automorphism."""
        w0 = self.longest_element()
        sigma = tuple((w0 * self.generator(i) * w0).key_as_generator() for i in range(self.rank))
        return DiagramAut(self, sigma)

    # -- plumbing ------------------------------------------------------------------

    def _check(self, x):
        if x.system is not self:
            raise SystemMismatch("operands belong to different Coxeter systems")


def _compose(p, q):
    """Permutation composition: (p o q)[i] = p[q[i]]."""
    return tuple(p[i] for i in q)


def _u_mult(a, b):
    """Free product with s^2 = 1: concatenate and cancel at the junction."""
    n = min(len(a), len(b))
    i = 0
    while i < n and a[-1 - i] == b[i]:
        i += 1
    return a[:len(a) - i] + b[i:]


class _GroupTable:
    """Dense-id tables for an enumerated finite group.

    ``perms[w]`` is the key of w (the root indices of w^-1(alpha_i)); each
    w != e is parent[w] * last[w], the edge on which the search found it.
    """

    def __init__(self, system: CoxeterSystem):
        gens = system.gen_root_perm
        n = system.rank
        ident = tuple(range(n))  # simple root i is root i
        perms = [ident]
        index = {ident: 0}
        length = [0]
        parent = [0]
        last = [0]
        rmult = []
        # iterating the growing list visits ids in breadth-first order
        for w, key in enumerate(perms):
            row = []
            for s in range(n):
                g = gens[s]
                k = tuple([g[r] for r in key])  # (w s)^-1 alpha_i = s(w^-1 alpha_i)
                i = index.get(k)
                if i is None:
                    i = len(perms)
                    if i >= MAX_ORDER:
                        raise GroupTooLarge(f"{system.name} has more than "
                                            f"MAX_ORDER = {MAX_ORDER} elements; enumeration refused")
                    perms.append(k)
                    index[k] = i
                    length.append(length[w] + 1)
                    parent.append(w)
                    last.append(s)
                row.append(i)
            rmult.append(row)
        lmult = [rmult[0]]
        inverse = [0]
        for w in range(1, len(perms)):
            u, t = parent[w], last[w]
            lmult.append([rmult[x][t] for x in lmult[u]])  # s w = (s u) t
            inverse.append(lmult[inverse[u]][t])  # w^-1 = t u^-1
        self.perms = perms
        self.length = length
        self.parent = parent
        self.last = last
        self.rmult = rmult
        self.lmult = lmult
        self.inverse = inverse
        self.gen_ids = rmult[0]

    def mult_ids(self, a: int, b: int) -> int:
        """The id of a*b, folding lmult up the parents of the shorter factor
        (through a*b = (b^-1 a^-1)^-1 when that factor is b)."""
        inv, parent, last, lmult = self.inverse, self.parent, self.last, self.lmult
        via_inverse = self.length[a] > self.length[b]
        if via_inverse:
            a, b = inv[b], inv[a]
        while a:  # a = u t, so a b = u (t b)
            b = lmult[b][last[a]]
            a = parent[a]
        return inv[b] if via_inverse else b

    @stage("_words")
    def word(self, w: int) -> tuple:
        """The greedy lowest-left-descent reduced word of w, kept per id."""
        out = []
        x = w
        while self.length[x]:
            for s, y in enumerate(self.lmult[x]):
                if self.length[y] < self.length[x]:
                    out.append(s)
                    x = y
                    break
        return tuple(out)


class Element:
    """A group element: a dense id (finite family) or a reduced word (universal)."""

    __slots__ = ("system", "key")

    def __init__(self, system: CoxeterSystem, key):
        self.system = system
        self.key = key

    @property
    def length(self) -> int:
        if self.system.family == "universal":
            return len(self.key)
        return self.system._table.length[self.key]

    def word(self) -> tuple:
        """The reduced word found by greedy lowest-index left descents."""
        if self.system.family == "universal":
            return self.key
        return self.system._table.word(self.key)

    def __mul__(self, other: "Element") -> "Element":
        self.system._check(other)
        if self.system.family == "universal":
            return Element(self.system, _u_mult(self.key, other.key))
        return Element(self.system, self.system._table.mult_ids(self.key, other.key))

    def inverse(self) -> "Element":
        if self.system.family == "universal":
            return Element(self.system, tuple(reversed(self.key)))
        return Element(self.system, self.system._table.inverse[self.key])

    def is_identity(self) -> bool:
        return self.length == 0

    def key_as_generator(self) -> int:
        """The generator index of a length-one element."""
        w = self.word()
        if len(w) != 1:
            raise ValueError(f"{self} is not a simple generator")
        return w[0]

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.system is other.system
            and self.key == other.key
        )

    def __hash__(self):
        return hash((id(self.system), self.key))

    def __repr__(self):
        w = self.word()
        return "e" if not w else "*".join(f"s{i + 1}" for i in w)


class DiagramAut:
    """An automorphism of (W, S) given by a permutation of the generator indices."""

    __slots__ = ("system", "sigma")

    def __init__(self, system: CoxeterSystem, sigma):
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(system.rank)):
            raise BadMatrix(f"not a permutation of the generators: {sigma}")
        m = system.matrix
        for i in range(system.rank):
            for j in range(system.rank):
                if m[sigma[i]][sigma[j]] != m[i][j]:
                    raise BadMatrix(f"{sigma} does not preserve the Coxeter matrix")
        self.system = system
        self.sigma = sigma

    def is_identity(self) -> bool:
        return all(self.sigma[i] == i for i in range(len(self.sigma)))

    def gen(self, i: int) -> int:
        return self.sigma[i]

    def _images(self):
        """theta(w) for every id w (see _aut_images)."""
        return _aut_images(self.system, self.sigma)

    def __call__(self, x: Element) -> Element:
        self.system._check(x)
        if self.system.family == "universal":
            return Element(self.system, tuple(self.sigma[s] for s in x.key))
        return Element(self.system, self._images()[x.key])

    def __mul__(self, other: "DiagramAut") -> "DiagramAut":
        if other.system is not self.system:
            raise SystemMismatch("automorphisms of different systems")
        return DiagramAut(self.system, tuple(self.sigma[other.sigma[i]] for i in range(len(self.sigma))))

    def inverse(self) -> "DiagramAut":
        inv = [0] * len(self.sigma)
        for i, j in enumerate(self.sigma):
            inv[j] = i
        return DiagramAut(self.system, tuple(inv))

    def order(self) -> int:
        k, a = 1, self
        while not a.is_identity():
            a = a * self
            k += 1
        return k

    def __eq__(self, other):
        return (
            isinstance(other, DiagramAut)
            and self.system is other.system
            and self.sigma == other.sigma
        )

    def __hash__(self):
        return hash((id(self.system), self.sigma))

    def __repr__(self):
        if self.is_identity():
            return "id"
        return "(" + " ".join(f"s{i + 1}->s{j + 1}" for i, j in enumerate(self.sigma) if i != j) + ")"


@stage("_aut_images")
def _aut_images(system: CoxeterSystem, sigma: tuple) -> list[int]:
    """theta(w) for every id w, theta the diagram automorphism sigma:
    theta(u t) = theta(u) sigma(t) along the search tree, then checked on
    every edge (w, s), once per system and sigma."""
    table = system._ensure_table()
    rmult = table.rmult
    images = [0]
    for u, t in zip(table.parent[1:], table.last[1:]):
        images.append(rmult[images[u]][sigma[t]])
    for w, row in enumerate(rmult):
        image_row = rmult[images[w]]
        for s, ws in enumerate(row):
            if images[ws] != image_row[sigma[s]]:
                raise ConsistencyError(
                    f"{DiagramAut(system, sigma)!r} breaks theta(w s) = theta(w) theta(s) "
                    f"at w = {Element(system, w)!r}, s = s{s + 1}"
                )
    return images


class ExtElement:
    """An element (x, theta) of the extended group W+ = W x Aut(W, S)."""

    __slots__ = ("x", "theta")

    def __init__(self, x: Element, theta: DiagramAut):
        if x.system is not theta.system:
            raise SystemMismatch("element and automorphism from different systems")
        self.x = x
        self.theta = theta

    @property
    def system(self) -> CoxeterSystem:
        return self.x.system

    @property
    def length(self) -> int:
        return self.x.length

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        if other.system is not self.system:
            raise SystemMismatch("operands belong to different Coxeter systems")
        return ExtElement(self.x * self.theta(other.x), self.theta * other.theta)

    def inverse(self) -> "ExtElement":
        ti = self.theta.inverse()
        return ExtElement(ti(self.x.inverse()), ti)

    def is_identity(self) -> bool:
        return self.x.is_identity() and self.theta.is_identity()

    def __eq__(self, other):
        return (
            isinstance(other, ExtElement)
            and self.x == other.x
            and self.theta == other.theta
        )

    def __hash__(self):
        return hash((self.x, self.theta))

    def __repr__(self):
        return f"({self.x!r}, {self.theta!r})"


def build_system(spec) -> CoxeterSystem:
    """Build a system from a type string or an explicit Coxeter matrix."""
    if isinstance(spec, str):
        return CoxeterSystem.from_type(spec)
    return CoxeterSystem(spec)


def twisted_conjugate(w: Element, a: ExtElement) -> ExtElement:
    """The twisted conjugate (w x theta(w)^-1, theta) of a = (x, theta)."""
    if w.system is not a.system:
        raise SystemMismatch("operands belong to different Coxeter systems")
    return ExtElement(w * a.x * a.theta(w).inverse(), a.theta)


class KeyTwist:
    """Twisted conjugation by (1, theta) on element keys, without Element objects.

    Keys are dense ids (finite family) or reduced words (universal family).
    For a generator s and keys w, x:

    - ``step(s, x)`` is s x sigma(s), one generator move in a twisted class;
    - ``step_length(s, x)`` is the length of s x sigma(s) (on a word it is read
      from the first and last letters of x, in O(1));
    - ``conj(w, x)`` is w x theta(w)^-1 (folded along the search parents of w,
      or by cancelling words at both junctions in one pass, with the word
      of theta(w)^-1 built once per w);
    - ``length(x)`` is the length of x;
    - ``involutive(x)`` is whether (x, theta) is a twisted involution:
      theta^2 = 1 and theta(x) = x^-1.  Twisted conjugation preserves that,
      so one point decides it for a whole class.

    twisted_conjugate is the same operation on Element objects.
    """

    __slots__ = ("step", "step_length", "conj", "length", "involutive")

    def __init__(self, theta: DiagramAut):
        sigma = theta.sigma
        twist = (theta * theta).is_identity()
        if theta.system.family == "universal":
            def step(s, x):
                x = x[1:] if x and x[0] == s else (s,) + x
                t = sigma[s]
                return x[:-1] if x and x[-1] == t else x + (t,)

            def step_length(s, x):
                n = len(x)
                if n and x[0] == s:  # s x = x[1:]
                    n -= 1
                    last = x[-1] if n else None
                else:  # s x = (s,) + x
                    n += 1
                    last = x[-1] if x else s
                return n - 1 if last == sigma[s] else n + 1

            tails = {}  # w -> the word of theta(w)^-1

            def conj(w, x):  # w x tail, cancelled in one pass over both junctions
                tail = tails.get(w)
                if tail is None:
                    tail = tails[w] = tuple([sigma[s] for s in reversed(w)])
                n, m, k = len(w), len(x), len(tail)
                i = 0  # letters cancelled between w and x
                while i < n and i < m and w[n - 1 - i] == x[i]:
                    i += 1
                j = 0  # letters cancelled between the reduced w x and tail
                while j < m - i and j < k and x[m - 1 - j] == tail[j]:
                    j += 1
                if j < m - i:
                    return w[:n - i] + x[i:m - j] + tail[j:]
                n -= i  # x is used up: w[:n] meets tail[j:]
                while n and j < k and w[n - 1] == tail[j]:
                    n -= 1
                    j += 1
                return w[:n] + tail[j:]

            def involutive(x):
                return twist and tuple([sigma[s] for s in reversed(x)]) == x

            length = len
        else:
            table = theta.system._ensure_table()
            lmult, rmult, parent, last, lengths = (
                table.lmult, table.rmult, table.parent, table.last, table.length)

            def step(s, x):
                return lmult[rmult[x][sigma[s]]][s]

            def step_length(s, x):
                return lengths[lmult[rmult[x][sigma[s]]][s]]

            def conj(w, x):
                while w:  # w = u t: w x theta(w)^-1 = u (t x sigma(t)) theta(u)^-1
                    t = last[w]
                    x = lmult[rmult[x][sigma[t]]][t]
                    w = parent[w]
                return x

            def involutive(x):
                return twist and theta._images()[x] == table.inverse[x]

            length = lengths.__getitem__
        self.step = step
        self.step_length = step_length
        self.conj = conj
        self.length = length
        self.involutive = involutive
