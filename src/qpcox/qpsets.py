"""Scaled W-sets and the quasiparabolic axioms.

Carriers come in four kinds: minimal-length coset representatives of a
standard parabolic subgroup (with the bullet action), twisted conjugacy
classes in the extended group, the regular set (W acting on itself on the
left), and the even double cover of an integer-height set, a set for the
system W x A1 (even_double_cover).  A carrier has one action row per
generator of its system.

Every carrier comes from one breadth-first orbit search that records each
generator step once; the points are then sorted and the recorded steps become
integer action rows.  The search refuses a carrier of more than MAX_ORDER
points, so |X|, not |W|, bounds it.  Reflection actions compose those rows,
the row of r = a r' a from the row of the shorter reflection r', over the
reflections read on the roots (CoxeterSystem.reflection_roots).

A carrier holds one plain key per point, never a group element: the reduced
word of a coset representative or of a regular point (its greedy
lowest-left-descent word), the key x of (x, theta) in a conjugacy class (an
element id, or a reduced word on a universal system), and the pair (base
point id, bit) on a double cover.  Coset and regular carriers are searched
on the roots, without enumerating W: a point is the tuple of root indices
w(alpha_1), ..., w(alpha_n).  A conjugacy class is searched on keys with
coxeter.KeyTwist, which enumerates W on a finite system.  A truncated
universal class, whose images can leave the carrier, twisted-conjugates the
words of its points by the reflection words, also on keys.  Element objects
are built only at the boundary, for witness re-checks.

Heights are stored doubled (height2 = 2 ht), so the half-integer heights of
conjugacy classes stay exact integers.  Point ids are dense and sorted by
(height2, key), which makes exports deterministic; on coset and regular
carriers that is the (length, id) order of the group table.  Truncated
universal carriers record their cutoff; checks on them quantify only over
data the truncation can see and every verdict carries the carrier's label.
Each point's height parity above its orbit minimum (parity) is kept on the
carrier too; every sign and bipartition that depends on it reads it there.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

from . import coxeter
from .coxeter import CoxeterSystem, DiagramAut, Element, ExtElement, KeyTwist, stage, twisted_conjugate
from .errors import (
    BadMatrix,
    ConsistencyError,
    GroupTooLarge,
    InfiniteParabolic,
    NotQuasiparabolic,
    SystemMismatch,
    TruncationRequired,
)


class QpVerdict(NamedTuple):
    is_qp: bool
    axiom: Optional[str] = None  # "QP1" or "QP2" when is_qp is False
    r_word: Optional[tuple] = None
    x: Optional[int] = None
    s: Optional[int] = None
    checked_r_length: Optional[int] = None  # reflection range on truncated carriers

    def witness(self):
        return None if self.is_qp else {
            "axiom": self.axiom,
            "r_word": list(self.r_word),
            "x": self.x,
            "s": self.s,
        }


class _ReflAction(NamedTuple):
    word: tuple
    img: list  # point id or None (out of a truncated carrier)
    img_h2: list  # exact height2 of the image, even when out of carrier
    # truncated carriers only: the word of each image, None where no check
    # reads it (img_h2 > cutoff and img_h2 >= height2[x] + 4)
    img_keys: list | None = None


class ScaledWSet:
    """A finite (or height-truncated) carrier with generator action tables."""

    def __init__(self, system, kind, keys, height2, action, *, theta=None,
                 J=None, base=None, truncated_at=None):
        self.system = system
        self.kind = kind
        self.keys = keys  # one key per point (see the module docstring)
        self.height2 = height2
        self.action = action  # action[s][pid] -> pid or None
        self.theta = theta
        self.J = J
        self.base = base
        self.truncated_at = truncated_at
        self.label = None if truncated_at is None else f"verified up to height {truncated_at}"
        self.n_gens = len(action)
        self._validate_scaled()

    # -- basics -------------------------------------------------------------

    def __len__(self):
        return len(self.keys)

    @cached_property
    def index(self) -> dict:
        """Point id per key, built on first read (class surveys never read it)."""
        return {k: i for i, k in enumerate(self.keys)}

    @cached_property
    def parity(self) -> list[int]:
        """Per point, the parity (0 or 1) of its height above its orbit minimum.

        One search over the generator moves, started at each id not yet
        reached, in id order.  Ids refine height, so that id lies at its
        orbit's least height, the base of every point its search reaches."""
        out = [None] * len(self)
        for start, base in enumerate(self.height2):
            if out[start] is not None:
                continue
            out[start] = 0
            stack = [start]
            while stack:
                x = stack.pop()
                for row in self.action:
                    y = row[x]
                    if y is not None and out[y] is None:
                        out[y] = (self.height2[y] - base) // 2 % 2
                        stack.append(y)
        return out

    def __repr__(self):
        extra = f", truncated_at={self.truncated_at}" if self.truncated_at is not None else ""
        return f"ScaledWSet({self.kind}, {len(self)} points on {self.system.name}{extra})"

    def _validate_scaled(self):
        if self.n_gens != self.system.rank:
            raise ConsistencyError(f"{self.n_gens} action rows on a system of rank {self.system.rank}")
        if any(a > b for a, b in zip(self.height2, self.height2[1:])):
            raise ConsistencyError("point ids do not refine the height order")
        for s in range(self.n_gens):
            row = self.action[s]
            for x, y in enumerate(row):
                if y is None:
                    continue
                if abs(self.height2[y] - self.height2[x]) not in (0, 2):
                    raise ConsistencyError(f"scaled axiom fails: gen {s} at point {x}")
                if row[y] != x:
                    raise ConsistencyError(f"generator {s} is not an involution at point {x}")

    def describe_point(self, pid: int):
        key = self.keys[pid]
        if self.kind == "double-cover":
            return {"base": self.base.describe_point(key[0]), "bit": key[1]}
        out = {"x": list(key if isinstance(key, tuple) else self.system.word_of(key))}
        if self.kind == "conjugacy":
            out["theta"] = list(self.theta.sigma)
        return out

    # -- extremal points ------------------------------------------------------

    def minimal_elements(self) -> list[int]:
        """Points whose height does not drop under any generator."""
        return [x for x in range(len(self)) if lowest_descent(self.action, self.height2, x) is None]

    # -- reflection actions -----------------------------------------------------

    @stage("_refl")
    def reflection_actions(self) -> list[_ReflAction]:
        """r . x for every reflection r of the carrier's system, in (length,
        word) order.

        An untruncated carrier composes generator rows: r = a r' a for the
        first letter a of the word of r, a left descent, so the row of r is
        the row of a around that of the shorter reflection r' = a r a, whose
        root is a(beta) for the root beta of r.  A truncated
        carrier twisted-conjugates the words of its points instead, over the
        reflections of length <= cutoff + 1: an image may leave the carrier,
        and its exact height is still needed.  Each image's length is
        computed first (KeyTwist.conj_length), and its word is built only
        where a check can read it: where the image can be a point
        (img_h2 <= cutoff), or where (QP2) can read a step from it
        (img_h2 < height2[x] + 4, see check_quasiparabolic).  Elsewhere
        img_keys[x] is None.
        """
        out = []
        if self.truncated_at is not None:  # a universal conjugacy class
            twist, index, cutoff = KeyTwist(self.theta), self.index, self.truncated_at
            conj, conj_length = twist.conj, twist.conj_length
            for r in self.system.reflection_words(cutoff + 1):
                lengths = [conj_length(r, x) for x in self.keys]
                images = [conj(r, x) if n <= cutoff or n < h + 4 else None
                          for x, h, n in zip(self.keys, self.height2, lengths)]
                out.append(_ReflAction(r, [index.get(q) for q in images], lengths, images))
        else:
            gens, refl = self.system.gen_root_perm, self.system.reflection_roots()
            position = {beta: i for i, (_, beta) in enumerate(refl)}
            rows = []
            for word, beta in refl:  # (length, word) order: r' comes before r
                a = self.action[word[0]]
                if len(word) == 1:
                    img = list(a)
                else:
                    inner = rows[position[gens[word[0]][beta]]]  # r' = s_{a beta}
                    img = [a[inner[y]] for y in a]
                rows.append(img)
                out.append(_ReflAction(word, img, [self.height2[y] for y in img]))
        return out


def _orbit_carrier(system, start, step, height2, relabel=None, **kw) -> ScaledWSet:
    """The orbit of the search key start, where step(s, p) is the search key
    of the image of p under generator s of system (None when it leaves a
    truncated carrier).

    One breadth-first search records every step once, and refuses an orbit
    of more than MAX_ORDER points (GroupTooLarge) before any row is built.
    relabel(queue, steps), when given, maps each search key to the key the
    carrier keeps; the points are then sorted by (height2, key) and the
    recorded steps renumbered into rows.
    """
    steps = {start: None}
    queue = [start]
    for p in queue:  # iterating the growing list is the breadth-first search
        images = steps[p] = [step(s, p) for s in range(system.rank)]
        for q in images:
            if q is not None and q not in steps:
                if len(queue) >= coxeter.MAX_ORDER:
                    raise GroupTooLarge(f"a carrier of {system.name} has more than "
                                        f"MAX_ORDER = {coxeter.MAX_ORDER} points; refused")
                steps[q] = None
                queue.append(q)
    name = relabel(queue, steps) if relabel else {p: p for p in queue}
    points = sorted(queue, key=lambda p: (height2(p), name[p]))
    index = {p: i for i, p in enumerate(points)}
    action = [[index.get(steps[p][s]) for p in points] for s in range(system.rank)]
    return ScaledWSet(system, keys=[name[p] for p in points], height2=[height2(p) for p in points],
                      action=action, **kw)


def coset_set(system: CoxeterSystem, J) -> ScaledWSet:
    """The set W^J of minimal coset representatives, heights ht = length.

    Searched on the roots, without enumerating W.  A point w is searched as
    the root indices of w(alpha_1), ..., w(alpha_n), which determine w; the
    step to s w maps them through the permutation of s, and s w lies in W^J
    exactly when it sends every alpha_j with j in J to a positive root.
    Otherwise s . w = w (the bullet action).  The breadth-first search meets
    the points in length order, so a point first met from w has length
    l(w) + 1.  A point's key is its greedy lowest-left-descent reduced word,
    so (height2, key) is the (length, id) order of the group table.
    """
    J = tuple(sorted(set(J)))
    for j in J:
        if not 0 <= j < system.rank:
            raise BadMatrix(f"no generator with index {j}")
    if system.family == "universal":
        raise InfiniteParabolic("universal coset sets are infinite; use a conjugacy carrier")
    gens, positive = system.gen_root_perm, system.positive
    start = tuple(range(system.rank))  # simple root i is root i
    h2 = {start: 0}

    def step(s, w):
        g = gens[s]
        sw = tuple([g[r] for r in w])
        if not all(positive[sw[j]] for j in J):
            return w
        if sw not in h2:
            h2[sw] = h2[w] + 2
        return sw

    def words(queue, steps):  # the lowest generator lowering w, then its word
        word = {}
        for w in queue:
            s = next((s for s, sw in enumerate(steps[w]) if h2[sw] < h2[w]), None)
            word[w] = () if s is None else (s,) + word[steps[w][s]]
        return word

    return _orbit_carrier(system, start, step, h2.__getitem__, words,
                          kind="coset" if J else "regular", J=J)


def regular_set(system: CoxeterSystem) -> ScaledWSet:
    """The set (W, length) with the left multiplication action."""
    return coset_set(system, ())


def conjugacy_set(system: CoxeterSystem, seed: ExtElement, cutoff: Optional[int] = None) -> ScaledWSet:
    """The twisted conjugacy class of seed, with doubled height = length."""
    if seed.system is not system:
        raise SystemMismatch("seed belongs to a different system")
    return key_class(system, seed.theta, seed.x.key, cutoff)


def key_class(system: CoxeterSystem, theta: DiagramAut, x, cutoff: Optional[int] = None) -> ScaledWSet:
    """The twisted conjugacy class of (x, theta) for the key x of an element
    (an id, or a reduced word on a universal system), searched on keys by
    the steps x -> s x sigma(s)."""
    if system.family == "universal" and cutoff is None:
        raise TruncationRequired("universal conjugacy classes need a height cutoff")
    limit = None if system.family == "finite" else cutoff
    twist = KeyTwist(theta)
    step, length = twist.step, twist.length
    if limit is not None:
        if limit < length(x):
            raise TruncationRequired(f"cutoff {limit} is below the length {length(x)} of the seed")

        def step(s, x, move=step):
            y = move(s, x)
            return y if length(y) <= limit else None

    # ht = length / 2, so height2 is the length itself
    return _orbit_carrier(system, x, step, length,
                          kind="conjugacy", theta=theta, truncated_at=limit)


def even_double_cover(X: ScaledWSet) -> ScaledWSet:
    """The even double cover of X: X x {0, 1} as a set for W x A1, whose
    generator s0 (m(s, s0) = 2) flips the bit and each s of W moves the base
    point and flips it; (b, k) has height ht(b) or ht(b) + 1, of parity k."""
    if X.truncated_at is not None:
        raise TruncationRequired("double cover of a truncated carrier is not supported")
    if any(h % 2 for h in X.height2):
        raise ValueError("even double cover needs integer heights (height2 even)")
    s0 = X.system.rank
    matrix = [row + (2,) for row in X.system.matrix] + [(2,) * s0 + (1,)]
    system = CoxeterSystem(matrix, name=f"{X.system.name}xA1")

    def step(s, p):
        b, k = p
        return (b if s == s0 else X.action[s][b], 1 - k)

    def lift(p):
        h = X.height2[p[0]]
        return h + (0 if (h // 2) % 2 == p[1] else 2)

    cover = _orbit_carrier(system, (0, 0), step, lift, kind="double-cover", base=X)
    if len(cover) != 2 * len(X):
        raise ValueError("even double cover needs a carrier with a single orbit")
    for s in range(cover.n_gens):  # evenness: no generator fixes a point
        if any(cover.action[s][x] == x for x in range(len(cover))):
            raise ConsistencyError(f"double cover is not even: generator {s} fixes a point")
    return cover


# ---------------------------------------------------------------------------
# quasiparabolicity


@stage("_qp")
def check_quasiparabolic(X: ScaledWSet) -> QpVerdict:
    """Exhaustively check (QP1) over R x X and (QP2) over R x X x S.

    On truncated universal carriers the reflection range is finite (word
    length <= cutoff + 1) and heights of out-of-carrier images are still
    computed exactly from their words, so every reported witness is genuine.

    (QP2) is read only at pairs with 0 < d < 4, d = h2(r x) - h2(x); at
    d >= 4 it cannot fire.  A generator moves height2 by 0 or 2: inside a
    carrier _validate_scaled enforces it, and outside a truncated one a
    twisted step s y sigma(s) changes the length of y by 0 or 2.  So
    h2(s r x) >= h2(r x) - 2 >= h2(x) + 2 >= h2(s x), while (QP2) needs
    h2(s r x) < h2(s x).  (QP1) needs d = 0 and is scanned in full.
    """
    refl = X.reflection_actions()
    h2 = X.height2
    bound = max(len(ra.word) for ra in refl) if refl and X.truncated_at is not None else None
    step_length = KeyTwist(X.theta).step_length if X.truncated_at is not None else None

    for ra in refl:
        for x in range(len(X)):
            if ra.img_h2[x] == h2[x] and ra.img[x] != x:
                return QpVerdict(False, "QP1", ra.word, x, None, bound)

    for ra in refl:
        img_h2 = ra.img_h2
        for x in range(len(X)):
            if not 0 < img_h2[x] - h2[x] < 4:
                continue
            rx = ra.img[x]
            for s in range(X.n_gens):
                sx = X.action[s][x]
                if sx is None:
                    continue
                srx = X.action[s][rx] if rx is not None else None
                if srx is not None:
                    h_srx = h2[srx]
                elif ra.img_keys is not None:  # s r x left the truncated carrier
                    h_srx = step_length(s, ra.img_keys[x])
                else:
                    continue
                if h_srx < h2[sx] and rx != sx:
                    return QpVerdict(False, "QP2", ra.word, x, s, bound)
    return QpVerdict(True, checked_r_length=bound)


def check_qp1_only(X: ScaledWSet) -> bool:
    """Whether (QP1) alone holds; a diagnostic for counterexample hunting.

    check_quasiparabolic scans (QP1) in full before (QP2), so (QP1) holds
    exactly when its verdict passes or names (QP2).
    """
    verdict = check_quasiparabolic(X)
    return verdict.is_qp or verdict.axiom == "QP2"


def _in_range(v, n) -> bool:
    return type(v) is int and 0 <= v < n


def revalidate_witness(X: ScaledWSet, witness: dict) -> bool:
    """Re-check a stored QP witness against a freshly built carrier.

    On a conjugacy carrier r . x is recomputed by twisted conjugation,
    independently of the carrier's tables, for a reduced word that names a
    reflection of the system; other kinds read the reflection row of the
    witness word.  A witness with a missing key or an out-of-range point,
    generator or letter is rejected.
    """
    try:
        axiom, word, x = witness["axiom"], witness["r_word"], witness["x"]
        s = witness["s"] if axiom == "QP2" else None
    except (KeyError, TypeError):
        return False
    if axiom not in ("QP1", "QP2") or not isinstance(word, list) or not _in_range(x, len(X)):
        return False
    if not all(_in_range(i, X.n_gens) for i in word) or (axiom == "QP2" and not _in_range(s, X.n_gens)):
        return False
    word = tuple(word)
    if X.kind == "conjugacy":
        r = X.system.element_from_word(word)
        if r.length != len(word) or r not in X.system.reflections_up_to(len(word)):
            return False
        rx = twisted_conjugate(r, ExtElement(Element(X.system, X.keys[x]), X.theta))
        rx_id, h_rx = X.index.get(rx.x.key), rx.length
    else:
        ra = next((ra for ra in X.reflection_actions() if ra.word == word), None)
        if ra is None:
            return False
        rx_id, h_rx = ra.img[x], ra.img_h2[x]
    if axiom == "QP1":
        return h_rx == X.height2[x] and rx_id != x
    sx = X.action[s][x]
    if sx is None or rx_id is None:
        return False
    srx = X.action[s][rx_id]
    if srx is None:
        return False
    return (
        h_rx > X.height2[x]
        and X.height2[srx] < X.height2[sx]
        and rx_id != sx
    )


# ---------------------------------------------------------------------------
# Bruhat order on a quasiparabolic carrier


class XOrder:
    """Reachability bitsets for the Bruhat order on a carrier."""

    def __init__(self, downsets: list[int]):
        self.downsets = downsets

    def leq(self, x: int, y: int) -> bool:
        return bool(self.downsets[y] >> x & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.leq(x, y)


@stage("_order")
def bruhat_order(X: ScaledWSet) -> XOrder:
    """Transitive closure of x < rx over reflections that raise the height,
    closed once, in id order.

    Requires the quasiparabolic axioms (raises NotQuasiparabolic otherwise).
    The result is graded: on an untruncated carrier only the cover edges
    (height up by one) are closed, and every longer raising edge must lie in
    that closure (ConsistencyError otherwise).  The covers are raising
    edges and a closure is transitive, so that is the closure of every
    raising edge exactly when the two closures agree.  A truncated carrier
    closes every raising edge, with no gate.
    """
    verdict = check_quasiparabolic(X)
    if not verdict.is_qp:
        raise NotQuasiparabolic(f"carrier fails {verdict.axiom} at point {verdict.x}")
    refl, h2, full = X.reflection_actions(), X.height2, X.truncated_at is None
    in_edges: list[list[int]] = [[] for _ in range(len(X))]
    for ra in refl:
        for x, y in enumerate(ra.img):
            if y is not None and (h2[y] == h2[x] + 2 or not full and h2[y] > h2[x]):
                in_edges[y].append(x)
    down = []
    for y, edges in enumerate(in_edges):  # ids refine height: every x below y comes first
        bits = 1 << y
        for x in edges:
            bits |= down[x]
        down.append(bits)
    if full and any(h2[y] > h2[x] + 2 and not down[y] >> x & 1 for ra in refl for x, y in enumerate(ra.img)):
        raise ConsistencyError("Bruhat order on the carrier is not graded")
    return XOrder(down)


# ---------------------------------------------------------------------------
# height witnesses


def rht_witness_word(X: ScaledWSet, pid: int) -> tuple:
    """A word w with x = w . x0 and len(w) = ht(x) - ht(x0), by greedy descent.

    Ties are broken toward the lowest generator index, so results are
    deterministic; any valid choice gives the same bar operator downstream.
    """
    word = []
    step = lowest_descent(X.action, X.height2, pid)
    while step is not None:
        word.append(step[0])
        step = lowest_descent(X.action, X.height2, step[1])
    return tuple(word)


def lowest_descent(action, height2, x: int) -> tuple[int, int] | None:
    """(s, sx) for the lowest generator s lowering point x, or None at a
    minimal point (an image truncated away lies above the cutoff)."""
    for s, row in enumerate(action):
        y = row[x]
        if y is not None and height2[y] < height2[x]:
            return s, y
    return None


def rht_witness(X: ScaledWSet, pid: int) -> Element:
    """rht_witness_word(X, pid) as an element of the carrier's system."""
    word = rht_witness_word(X, pid)
    w = X.system.element_from_word(word)
    if w.length != len(word):
        raise ConsistencyError("greedy descent produced a non-reduced witness")
    return w
