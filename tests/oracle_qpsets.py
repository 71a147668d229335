"""Carrier constructors and reflection actions by group arithmetic on elements.

This is how qpsets built carriers before one orbit search on keys did it and
before reflection actions were composed from generator rows: each
constructor searches on Element or ExtElement objects, then computes every
generator step a second time to fill the action rows, and r . x is computed
from the element of x for every reflection r (twisted conjugation, coset
reduction or a left product; the double cover flips the bit over the base's
reflection action).  Twisted conjugation is Element arithmetic here
(twisted, below), not the key-level kernel of qpcox.coxeter, and qp_verdict
is the (QP1)/(QP2) scan with the heights of out-of-carrier images from that
arithmetic.  It is kept as an independent oracle for those paths.

table_coset_set and table_reflection_rows are how qpsets built coset and
regular carriers before it read them on the roots: an orbit search stepping
element ids through the group table, and reflection rows composed along the
table's reflection ids.  Their carriers keep element ids as keys.

orbit_min2, orbit_parity and two_closure_downsets are how qpsets read the
orbits and the Bruhat order before it did each in one pass in id order: the
components of the generator moves labeled by a search from every point,
the least height of each component read off by a second scan, and the
Bruhat order closed twice, over every raising edge and over the cover
edges alone, and compared on an untruncated carrier.

A carrier holds keys, not elements.  payloads(X) builds the elements of any
carrier's points from its keys; tests that need group elements of points go
through it.
"""

from __future__ import annotations

from oracle_group import table_reflections
from qpcox.coxeter import CoxeterSystem, Element, ExtElement, stage
from qpcox.errors import ConsistencyError
from qpcox.qpsets import QpVerdict, ScaledWSet, _orbit_carrier, _ReflAction


def twisted(w, a):
    """The twisted conjugate (w x theta(w)^-1, theta) of a = (x, theta)."""
    return ExtElement(w * a.x * a.theta(w).inverse(), a.theta)


def payloads(X):
    """The elements of X's points, built from its keys: an Element per point
    of a coset or regular carrier (from its word), (x, theta) per point of a
    conjugacy class, and on a double cover the (base id, bit) key itself."""
    if X.kind == "double-cover":
        return list(X.keys)
    if X.kind == "conjugacy":
        return [ExtElement(Element(X.system, k), X.theta) for k in X.keys]
    return [X.system.element_from_word(k) for k in X.keys]


def key_of(p):
    """The key a carrier stores for the element p of a point: the id of x
    for (x, theta), the word of a coset or regular point."""
    if isinstance(p, ExtElement):
        return p.x.key
    return p.word() if isinstance(p, Element) else p


def _carrier(system, kind, points, height2, action, **kw):
    return OracleWSet(system, kind, [key_of(p) for p in points], height2, action, **kw)


class OracleWSet(ScaledWSet):
    """A carrier whose reflection actions are computed from its elements."""

    @stage("_refl")
    def reflection_actions(self):
        if self.kind == "double-cover":
            # reflections of W x A1 are the reflections of W plus s0 itself
            out = []
            for ra in self.base.reflection_actions():
                img, h2 = [], []
                for b, k in self.keys:
                    q = self.index[(ra.img[b], 1 - k)]
                    img.append(q)
                    h2.append(self.height2[q])
                out.append(_ReflAction(ra.word, img, h2))
            s0 = self.n_gens - 1
            img = [self.action[s0][pid] for pid in range(len(self))]
            out.append(_ReflAction((s0,), img, [self.height2[q] for q in img]))
            return sorted(out, key=lambda ra: (len(ra.word), ra.word))

        sys = self.system
        if sys.family == "universal":
            refl = sys.reflections_up_to((self.truncated_at or 0) + 1)
        else:
            refl = sys.reflections()
        out = []
        points = payloads(self)
        for r in refl:
            img, h2 = [], []
            keys = [] if self.kind == "conjugacy" else None
            for p in points:
                q_elt = act_element(self, r, p)
                q = self.index.get(key_of(q_elt))
                img.append(q)
                h2.append(self.height2[q] if q is not None else q_elt.length)
                if keys is not None:
                    keys.append(key_of(q_elt))
            out.append(_ReflAction(r.word(), img, h2, keys))
        return out


def act_element(X, w, p):
    """The element of w . x, for the element p of x and a whole group
    element w (non-cover kinds)."""
    if X.kind == "conjugacy":
        return twisted(w, p)
    if X.kind == "coset":
        return coset_canonical(X.system, w * p, X.J)
    return w * p  # regular


def coset_canonical(system, w, J):
    # minimal-length representative of the coset w W_J
    while True:
        for t in J:
            wt = w * system.generator(t)
            if wt.length < w.length:
                w = wt
                break
        else:
            return w


def _sort_points(point_h2_pairs, keyfn):
    pairs = sorted(point_h2_pairs, key=lambda it: (it[1], keyfn(it[0])))
    return [p for p, _ in pairs], [h for _, h in pairs]


def coset_set(system, J):
    J = tuple(sorted(set(J)))
    ident = system.identity
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in range(system.rank):
                z = system.generator(s) * w
                if z in seen:
                    continue
                if all((z * system.generator(t)).length > z.length for t in J):
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    points, height2 = _sort_points([(w, 2 * w.length) for w in seen], lambda w: w.key)
    index = {p: i for i, p in enumerate(points)}
    action = []
    for s in range(system.rank):
        gen = system.generator(s)
        row = []
        for w in points:
            z = gen * w
            row.append(index[z] if z in index else index[w])  # bullet action
        action.append(row)
    kind = "coset" if J else "regular"
    return _carrier(system, kind, points, height2, action, J=J)


def conjugacy_set(system, seed, cutoff=None):
    limit = None if system.family == "finite" else cutoff
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for p in frontier:
            for s in range(system.rank):
                q = twisted(system.generator(s), p)
                if q not in seen and (limit is None or q.length <= limit):
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    points, height2 = _sort_points([(p, p.length) for p in seen], lambda p: p.x.key)
    index = {p: i for i, p in enumerate(points)}
    action = []
    for s in range(system.rank):
        gen = system.generator(s)
        action.append([index.get(twisted(gen, p)) for p in points])
    return _carrier(system, "conjugacy", points, height2, action, theta=seed.theta, truncated_at=limit)


def even_double_cover(X):
    pts = []
    for b in range(len(X)):
        h = X.height2[b]
        for k in (0, 1):
            lift = h + (0 if (h // 2) % 2 == k else 2)
            pts.append(((b, k), lift))
    points, height2 = _sort_points(pts, lambda p: p)
    index = {p: i for i, p in enumerate(points)}
    action = []
    for s in range(X.n_gens):
        action.append([index[(X.action[s][b], 1 - k)] for (b, k) in points])
    action.append([index[(b, 1 - k)] for (b, k) in points])  # s0
    n = X.system.rank  # W x A1: s0 commutes with every generator of W
    system = CoxeterSystem([list(row) + [2] for row in X.system.matrix] + [[2] * n + [1]])
    return _carrier(system, "double-cover", points, height2, action, base=X)


def table_coset_set(system, J):
    """W^J searched on element ids: the bullet action steps s w, or stays at
    w when s w is not of minimal length in its coset."""
    J = tuple(sorted(set(J)))
    table = system._ensure_table()
    lmult, rmult, length = table.lmult, table.rmult, table.length

    def step(s, w):
        z = lmult[w][s]
        return w if any(length[rmult[z][j]] < length[z] for j in J) else z

    return _orbit_carrier(system, 0, step, lambda w: 2 * length[w],
                          kind="coset" if J else "regular", J=J)


def table_reflection_rows(X):
    """(word, row) per reflection r of W, in (length, id) order, on the
    id-keyed carrier X: the row of r is the row of its first letter a around
    that of r' = a r a, found by table lookups."""
    table = X.system._table
    rows, out = {}, []
    for r in table_reflections(X.system):
        word = table.word(r)
        a = X.action[word[0]]
        if len(word) == 1:
            img = list(a)
        else:
            inner = rows[table.lmult[table.rmult[r][word[0]]][word[0]]]
            img = [a[inner[y]] for y in a]
        rows[r] = img
        out.append((word, img))
    return out


def qp_verdict(X):
    """(QP1) over R x X, then (QP2) over R x X x S; on a truncated class the
    height of an s r x outside the carrier is the length of a twisted
    conjugate of the image word, computed on Element objects."""
    refl = X.reflection_actions()
    h2 = X.height2
    bound = max(len(ra.word) for ra in refl) if refl and X.truncated_at is not None else None
    for ra in refl:
        for x in range(len(X)):
            if ra.img_h2[x] == h2[x] and ra.img[x] != x:
                return QpVerdict(False, "QP1", ra.word, x, None, bound)
    for ra in refl:
        for x in range(len(X)):
            if ra.img_h2[x] <= h2[x]:
                continue
            rx = ra.img[x]
            for s in range(X.n_gens):
                sx = X.action[s][x]
                if sx is None:
                    continue
                if rx is not None and X.action[s][rx] is not None:
                    h_srx = h2[X.action[s][rx]]
                elif ra.img_keys is not None:
                    q = ExtElement(Element(X.system, ra.img_keys[x]), X.theta)
                    h_srx = twisted(X.system.generator(s), q).length
                else:
                    continue
                if h_srx < h2[sx] and rx != sx:
                    return QpVerdict(False, "QP2", ra.word, x, s, bound)
    return QpVerdict(True, checked_r_length=bound)


def orbit_min2(X):
    """Per point, the least height2 in its orbit, the connected component
    of the generator moves that contains it."""
    comp = [-1] * len(X)
    c = 0
    for start in range(len(X)):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = c
        while stack:
            x = stack.pop()
            for s in range(X.n_gens):
                y = X.action[s][x]
                if y is not None and comp[y] < 0:
                    comp[y] = c
                    stack.append(y)
        c += 1
    best = {}
    for x, c in enumerate(comp):
        h = X.height2[x]
        if c not in best or h < best[c]:
            best[c] = h
    return [best[c] for c in comp]


def orbit_parity(X):
    """Per point, the parity of its height above its orbit minimum."""
    return [(h - m) // 2 % 2 for h, m in zip(X.height2, orbit_min2(X))]


def two_closure_downsets(X):
    """The down-set bitsets of the Bruhat order closed over every raising
    edge x -> r x, in (height2, id) order; on an untruncated carrier the
    closure over the cover edges alone must agree (ConsistencyError)."""
    n = len(X)
    in_edges, cover_in = [[] for _ in range(n)], [[] for _ in range(n)]
    for ra in X.reflection_actions():
        for x in range(n):
            y = ra.img[x]
            if y is not None and X.height2[y] > X.height2[x]:
                in_edges[y].append(x)
                if X.height2[y] == X.height2[x] + 2:
                    cover_in[y].append(x)

    def close(edges):
        down = [0] * n
        for y in sorted(range(n), key=lambda i: (X.height2[i], i)):
            bits = 1 << y
            for x in edges[y]:
                bits |= down[x]
            down[y] = bits
        return down

    down = close(in_edges)
    if X.truncated_at is None and down != close(cover_in):
        raise ConsistencyError("Bruhat order on the carrier is not graded")
    return down
