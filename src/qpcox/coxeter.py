"""Coxeter systems with exact element arithmetic.

Two families are supported.  A *finite* system is built from the root set of
its geometric representation, closed exactly on int keys one component of
the Coxeter graph at a time, which also decides finiteness (no float is
computed).  Each generator becomes an integer permutation of the root
indices, with a sign per root, gated by the Coxeter relations and the even
split into positive and negative roots.  A *universal* system (every
off-diagonal order infinite) represents each element by its unique reduced
word.

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

KeyTwist is twisted conjugation on keys (ids or words), and word_of is the
one rule that turns a key into its reduced word.  Class searches,
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
            if not isinstance(m, int) or isinstance(m, bool):  # JSON's false would read as 0, the infinite bond
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


# 2cos(pi/m) as the int matrix (c, d, e, f) of x + y w -> (c x + d y) + (e x + f y) w
# on Z[w], w = 2cos(pi/4) = sqrt 2 or w = 2cos(pi/5), the golden ratio
_TWO_COS = {3: (1, 0, 0, 1), 4: (0, 2, 1, 0), 5: (0, 1, 1, 1)}


def _root_rule(name, matrix, J):
    """The keys of alpha_j and the reflections s_j on keys (j in J) and the
    most roots of a finite group of J's rank, on a component J of the
    Coxeter graph.  I2(m) (m = 1 on A1) keys its roots, at the angles
    t pi / m, by t mod 2m: alpha_j at 0 and m - 1, s_j sending t to m - t and
    m - 2 - t.  A component of rank k >= 3 is finite only with its bonds in
    {3, 4} or in {3, 5} (Humphreys, Reflection Groups and Coxeter Groups,
    2.4), and then has at most max(k^2, 120) positive roots (2.10).  It keys
    a root by (a_1, b_1, ..., a_k, b_k), its coordinates a + b w in Z[w], and
    s_j sets x_j to the sum of 2cos(pi/m_jq) x_q over q != j, minus x_j."""
    k = len(J)
    if k <= 2:
        m = matrix[J[0]][J[-1]]
        return (0, m - 1)[:k], [lambda t, turn=turn: (turn - t) % (2 * m) for turn in (m, m - 2)[:k]], 2 * m
    bonds = {matrix[a][b] for a in J for b in J} - {1, 2}
    if not (bonds <= {3, 4} or bonds <= {3, 5}):
        raise NotFinite(f"{name} is infinite: a component of rank {k} has the bonds {sorted(bonds)}")

    def reflection(p):
        row = [(2 * q, _TWO_COS[matrix[J[p]][j]]) for q, j in enumerate(J) if matrix[J[p]][j] > 2]

        def reflect(v):
            a, b = -v[2 * p], -v[2 * p + 1]
            for q, (c, d, e, f) in row:
                a, b = a + c * v[q] + d * v[q + 1], b + e * v[q] + f * v[q + 1]
            return v[:2 * p] + (a, b) + v[2 * p + 2:]
        return reflect

    units = [tuple(int(q == 2 * p) for q in range(2 * k)) for p in range(k)]
    return units, [reflection(p) for p in range(k)], 2 * max(k * k, 120)


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
        """gen_root_perm[i][r], the root s_i sends root r to, and positive[r]
        on the roots, keyed exactly per component of the Coxeter graph
        (_root_rule), in discovery order: alpha_i is root i, then each root
        in turn goes through s_0 .. s_n-1, which fix the other components'
        roots.  s_i flips the sign of +-alpha_i only, so a sign needs no
        test.  (s_i s_j)^m_ij = 1 for i <= j and the even split into positive
        and negative roots gate the tables (ConsistencyError)."""
        n, mat = self.rank, self.matrix
        comp = list(range(n))
        for _ in range(n):  # each generator's component, named by its least generator
            comp = [min(comp[j] for j in range(n) if mat[i][j] != 2) for i in range(n)]
        roots, reflections, caps, index = [None] * n, [None] * n, {}, {}
        for c in sorted(set(comp)):
            J = [j for j in range(n) if comp[j] == c]
            units, refls, caps[c] = _root_rule(self.name, mat, J)
            index[c] = dict(zip(units, J))  # key -> root, per component
            for j, key, refl in zip(J, units, refls):
                roots[j], reflections[j] = (c, key), refl
        positive, perms = [True] * n, [[] for _ in range(n)]
        for r, (c, key) in enumerate(roots):  # iterating the growing list closes the root set
            for i in range(n):
                image = reflections[i](key) if comp[i] == c else key
                k = index[c].setdefault(image, len(roots))
                if k == len(roots):
                    if len(index[c]) > caps[c]:
                        raise NotFinite(f"{self.name} is infinite: the component of s{c + 1} has over {caps[c]} roots")
                    roots.append((c, image))
                    positive.append(positive[r] != (r == i))
                perms[i].append(k)
        perms = tuple(map(tuple, perms))
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            if not _order_divides(_compose(perms[i], perms[j]), mat[i][j]):
                raise ConsistencyError(f"(s{i + 1} s{j + 1})^{mat[i][j]} = 1 fails on the roots of {self.name}")
        if sum(positive) * 2 != len(roots):
            raise ConsistencyError(f"the roots of {self.name} do not split evenly into positive and negative")
        self.gen_root_perm, self.positive, self.n_positive_roots = perms, tuple(positive), len(roots) // 2

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
    def identity_key(self):
        """The key of the identity: the empty word on a universal system, else id 0."""
        return () if self.family == "universal" else 0

    @property
    def identity(self) -> "Element":
        if self.family == "finite":
            self._ensure_table()
        return Element(self, self.identity_key)

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

    def word_of(self, key) -> tuple:
        """The reduced word of the element with this key: the key itself on a
        universal system, the greedy lowest-left-descent word of an id."""
        return key if self.family == "universal" else self._ensure_table().word(key)

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

    def reflections(self) -> list["Element"]:
        """All reflections as elements, in the order of reflection_ids.  Finite family."""
        return [Element(self, r) for r in self.reflection_ids()]

    @stage("_reflection_ids")
    def reflection_ids(self) -> list[int]:
        """The ids of all reflections, sorted by (length, id) (the survey code).  Finite family."""
        rmult = self._ensure_table().rmult
        return [functools.reduce(lambda w, s: rmult[w][s], word, 0) for word, _ in self.reflection_roots()]

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
        refl = self.reflection_ids()
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
        """All permutations of S preserving the Coxeter matrix, in
        lexicographic order (so the identity first), depth first: the
        images of s_0, s_1, ... are tried in increasing order, and a partial
        permutation is extended only while it keeps the matrix entries among
        the generators placed."""
        m, n = self.matrix, self.rank

        def extend(sigma):
            i = len(sigma)
            if i == n:
                yield DiagramAut(self, sigma)
                return
            for j in range(n):
                if j not in sigma and all(m[j][t] == m[i][k] for k, t in enumerate(sigma)):
                    yield from extend((*sigma, j))
        return list(extend(()))

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


def _order_divides(p, m) -> bool:
    """Whether p^m = 1: every cycle of the permutation p has a length dividing m."""
    seen = bytearray(len(p))
    for start in range(len(p)):
        x, k = start, 0
        while not seen[x]:
            seen[x], x, k = 1, p[x], k + 1
        if k and m % k:
            return False
    return True


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
        return self.system.word_of(self.key)

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
    - ``conj_length(w, x)`` is the length of conj(w, x); on words it runs
      the same cancellation and builds no word, so a caller can read the
      length first and build the word only where it needs it;
    - ``length(x)`` is the length of x;
    - ``involutive(x)`` is whether (x, theta) is a twisted involution:
      theta^2 = 1 and theta(x) = x^-1.  Twisted conjugation preserves that,
      so one point decides it for a whole class.

    twisted_conjugate is the same operation on Element objects.
    """

    __slots__ = ("step", "step_length", "conj", "conj_length", "length", "involutive")

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

            def cancel(w, x):  # w x tail, cancelled in one pass over both junctions
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
                if j < m - i:  # w[:n - i] + x[i:m - j] + tail[j:]
                    return tail, n - i, i, m - j, j
                n -= i  # x is used up: w[:n] meets tail[j:]
                while n and j < k and w[n - 1] == tail[j]:
                    n -= 1
                    j += 1
                return tail, n, i, i, j

            def conj(w, x):
                tail, n, a, b, j = cancel(w, x)
                return w[:n] + x[a:b] + tail[j:]

            def conj_length(w, x):
                # no letter cancels where x starts with a letter other than
                # w's last and ends with one other than theta(w)^-1's first
                if w and x and x[0] != w[-1] and x[-1] != sigma[w[-1]]:
                    return 2 * len(w) + len(x)
                tail, n, a, b, j = cancel(w, x)
                return n + b - a + len(tail) - j

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

            def conj_length(w, x):
                return lengths[conj(w, x)]

            def involutive(x):
                return twist and theta._images()[x] == table.inverse[x]

            length = lengths.__getitem__
        self.step = step
        self.step_length = step_length
        self.conj = conj
        self.conj_length = conj_length
        self.length = length
        self.involutive = involutive
