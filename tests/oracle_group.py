"""Independent oracle for the finite group tables of qpcox.coxeter.

Represents every element by the full permutation of root indices it induces
and multiplies by composing permutations; a diagram automorphism acts by the
linear map alpha_i -> alpha_sigma(i), matched against the root vectors.
Shares only the root vectors and generator permutations with the
implementation, whose tables come from simple-root keys and recurrences
along the search tree.

scan_roots is the root-table construction CoxeterSystem ran before it
looked roots up by hashing: every new vector is compared with every root
found so far, coordinate by coordinate within SNAP.

table_reflections is the breadth-first search of the reflections on the
group table that CoxeterSystem.reflections ran before it read them on the
roots.

It also holds the element-level queries that src/ answers on keys and
carriers instead: descents from products and lengths, the Bruhat order
(the down-set table of a finite system, which test_coxeter checks against
the subword property, and the subword property on the unique reduced words
of a universal one) and the twisted-involution test (x, theta)^2 = 1.
"""

import math

SNAP = 1e-9


def compose(p, q):
    """Permutation composition: (p o q)[i] = p[q[i]]."""
    return tuple(p[i] for i in q)


def invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def left_descents(x):
    return {s for s, g in enumerate(x.system.generators()) if (g * x).length < x.length}


def right_descents(x):
    return {s for s, g in enumerate(x.system.generators()) if (x * g).length < x.length}


def bruhat_leq(x, y):
    if x.system.family == "universal":
        it = iter(y.key)
        return all(s in it for s in x.key)
    return bool(x.system._bruhat_table()[y.key] >> x.key & 1)


def is_twisted_involution(p):
    return (p * p).is_identity()


def scan_roots(matrix):
    """(gen_root_perm, positive) of the finite Coxeter matrix, the roots
    closed in discovery order and each image found by a linear scan."""
    n = len(matrix)
    form = [[-math.cos(math.pi / matrix[i][j]) for j in range(n)] for i in range(n)]
    roots = [tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n)]

    def find(vec):
        for k, r in enumerate(roots):
            if all(abs(a - b) < SNAP for a, b in zip(r, vec)):
                return k
        roots.append(vec)
        return len(roots) - 1

    perms = [[] for _ in range(n)]
    for vec in roots:  # iterating the growing list closes the root set
        for i in range(n):
            pairing = 2.0 * sum(form[i][j] * vec[j] for j in range(n))
            perms[i].append(find(tuple(c - pairing if j == i else c for j, c in enumerate(vec))))
    positive = tuple(next(c > 0 for c in vec if abs(c) > 1e-6) for vec in roots)
    return tuple(tuple(p) for p in perms), positive


def table_reflections(system):
    """The ids of all reflections, closed under s r s from the generators on
    the group table, sorted (so in (length, id) order)."""
    table = system._ensure_table()
    seen = set(table.gen_ids)
    queue = list(table.gen_ids)
    while queue:
        r = queue.pop()
        for s in range(system.rank):
            c = table.lmult[table.rmult[r][s]][s]  # s r s
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return sorted(seen)


class OracleGroup:
    """Breadth-first enumeration of root permutations, ids in discovery order."""

    def __init__(self, system):
        gens = system.gen_root_perm
        n = system.rank
        ident = tuple(range(len(system.roots)))
        self.rank = n
        self.perms = [ident]
        self.index = {ident: 0}
        self.length = [0]
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                for s in range(n):
                    p = compose(self.perms[w], gens[s])  # w * s
                    if p not in self.index:
                        self.index[p] = len(self.perms)
                        self.perms.append(p)
                        self.length.append(self.length[w] + 1)
                        nxt.append(self.index[p])
            frontier = nxt
        self.rmult = [[self.index[compose(p, g)] for g in gens] for p in self.perms]
        self.lmult = [[self.index[compose(g, p)] for g in gens] for p in self.perms]
        self.inverse = [self.index[invert(p)] for p in self.perms]

    def mult_ids(self, a, b):
        return self.index[compose(self.perms[a], self.perms[b])]

    def simple_root_key(self, w):
        """The root indices of w^-1(alpha_i), i = 0..n-1 (simple root i is root i)."""
        return invert(self.perms[w])[: self.rank]

    def automorphism_images(self, system, sigma):
        """theta(w) for every oracle id w, theta the linear map alpha_i -> alpha_sigma(i)."""
        A = []
        for vec in system.roots:
            img = [0.0] * system.rank
            for i, c in enumerate(vec):
                img[sigma[i]] = c
            matches = [
                k for k, r in enumerate(system.roots)
                if all(abs(a - b) < SNAP for a, b in zip(r, img))
            ]
            assert len(matches) == 1, "diagram automorphism does not permute the roots"
            A.append(matches[0])
        A_inv = invert(A)
        return [self.index[tuple(A[p[A_inv[j]]] for j in range(len(A)))] for p in self.perms]
