"""Surveys of twisted conjugacy classes.

For each diagram automorphism theta (not only involutions: the order-3 D4
triality is exercised this way) the survey partitions W x {theta} into
twisted conjugacy classes and reports, per class: size, minimal elements,
membership in the twisted involutions, the quasiparabolic verdict with a
re-checkable witness on failure, perfectness ((rw)^4 = 1 for all
reflections r), and the structure of the unique minimal element when there
is one (its descent set J, the longest-element identity x = w_J, and the
centralizer-as-twisted-normalizer identity).  Classification facts
(quasiparabolic implies twisted involutions, perfect implies quasiparabolic,
squaring onto the class of (1, theta^2)) are re-checked across every survey
rather than assumed.
"""

from __future__ import annotations

from itertools import count
from operator import and_, eq
from typing import NamedTuple, Optional

from .coxeter import CoxeterSystem, DiagramAut, ExtElement, KeyTwist
from .errors import NotInvolutionClass, NoUniqueMinimal, TruncationRequired
from .qpsets import (
    QpVerdict,
    ScaledWSet,
    bruhat_order,
    check_qp1_only,
    check_quasiparabolic,
    key_class,
    revalidate_witness,
)


def iota(system: CoxeterSystem, theta: DiagramAut) -> ScaledWSet:
    """The twisted conjugacy class of (1, theta)."""
    return key_class(system, theta, 0)  # 0 is the id of 1; a universal system raises first


def twisted_classes(
    system: CoxeterSystem, theta: DiagramAut, involutions_only: bool = False
) -> list[ScaledWSet]:
    """Partition W x {theta} (or its twisted involutions) into conjugacy classes."""
    if system.family == "universal":
        raise TruncationRequired("class surveys need a finite system")
    involutive = KeyTwist(theta).involutive
    seen = [False] * system.order()
    out = []
    for x in range(len(seen)):
        if seen[x] or (involutions_only and not involutive(x)):
            continue
        K = key_class(system, theta, x)
        for y in K.keys:
            seen[y] = True
        out.append(K)
    return out


# ---------------------------------------------------------------------------
# perfectness and minimal-element structure


def is_perfect(K: ScaledWSet) -> bool:
    """(rw)^4 = 1 for every reflection r, tested on one representative.

    With w = (x, theta) and theta^2 = 1, (rw)^2 = (y, 1) for y = r x theta(r x),
    so (rw)^4 = 1 iff y is an involution.
    """
    x = K.keys[0]
    if not KeyTwist(K.theta).involutive(x):
        raise NotInvolutionClass("perfectness is defined for twisted involution classes")
    table = K.system._ensure_table()
    images, inverse, mult = K.theta._images(), table.inverse, table.mult_ids
    for r in K.system.reflection_ids():
        rx = mult(r, x)
        y = mult(rx, images[rx])
        if inverse[y] != y:
            return False
    return True


class StructureFlags(NamedTuple):
    J: tuple  # the left descent set of x
    fixed_by_J: bool  # sws = w for all s in J
    J_theta_stable: bool  # W_J finite and theta(J) = J
    x_is_longest: bool  # x = w_J
    centralizer_is_twisted_normalizer: bool
    squares_onto_iota: bool

    def all_ok(self) -> bool:
        return all(self[1:])  # every flag but J


def structure_check(K: ScaledWSet) -> StructureFlags:
    """The shape of the unique minimal element of a quasiparabolic class.

    The centralizer {z : z x theta(z)^-1 = x} and the twisted normalizer
    {z : z W_J = W_J theta(z)} are compared with table lookups only.  One
    pass down the search tree (z = u t) gives back[z] = z^-1 x theta(z) =
    t back[u] sigma(t), and the minimal element of the right coset W_J z:
    with d that of W_J u, it is d t where d t is minimal, else d (Deodhar's
    lemma).  The normalizer is then a few list passes over those labels.
    """
    system = K.system
    theta = K.theta
    n_min = K.height2.count(K.height2[0])
    if n_min != 1:
        raise NoUniqueMinimal(f"{n_min} elements of minimal length")
    x = K.keys[0]
    table = system._ensure_table()
    images, rmult, lmult, length, sigma = theta._images(), table.rmult, table.lmult, table.length, theta.sigma
    J = tuple(s for s in range(system.rank) if length[lmult[x][s]] < length[x])
    step = KeyTwist(theta).step
    fixed = all(step(s, x) == x for s in J)
    stable = tuple(sorted(theta.gen(j) for j in J)) == J
    x_is_longest = x == system.longest_element(J).key

    back, coset = [x], [0]  # z^-1 x theta(z), and the minimal element of W_J z; ids are in length order
    for z, u, t in zip(count(1), table.parent[1:], table.last[1:]):
        back.append(lmult[rmult[back[u]][sigma[t]]][t])
        d = coset[u]
        y = rmult[d][t]  # W_J z = W_J y, and y is shorter than z unless y = z = d t
        coset.append(coset[y] if y != z else d if J and min(map(lmult[z].__getitem__, J)) < z else z)
    # z theta(z)^-1 is in W_J iff W_J z = W_J theta(z); z = a d (a in W_J)
    # normalizes W_J iff d does, iff d s_j is in W_J d for every j in J
    normalizing = set(coset)
    for j in J:
        normalizing = {d for d in normalizing if coset[rmult[d][j]] == d}
    normal = map(and_, map(normalizing.__contains__, coset), map(eq, coset, map(coset.__getitem__, images)))
    centralizer_ok = all(map(eq, normal, map(x.__eq__, back)))

    target = set(iota(system, theta * theta).keys)
    squares = {table.mult_ids(y, images[y]) for y in K.keys}
    return StructureFlags(J, fixed, stable, x_is_longest, centralizer_ok, squares == target)


# ---------------------------------------------------------------------------
# survey


class ClassReport(NamedTuple):
    system: str
    theta: tuple
    seed_word: tuple
    size: int
    min_length: int
    n_min_length: int
    n_w_minimal: int
    is_twisted_involution_class: bool
    qp: QpVerdict
    qp1_only: bool
    perfect: Optional[bool]
    structure: Optional[StructureFlags] = None
    order_agrees: Optional[bool] = None
    strong_exchange_ok: Optional[bool] = None
    X: Optional[ScaledWSet] = None

    def to_json(self) -> dict:
        out = {
            "system": self.system,
            "theta": list(self.theta),
            "seed_word": list(self.seed_word),
            "size": self.size,
            "min_length": self.min_length,
            "n_min_length": self.n_min_length,
            "n_w_minimal": self.n_w_minimal,
            "is_iplus": self.is_twisted_involution_class,
            "qp": self.qp.is_qp,
            "qp1_only": self.qp1_only,
            "witness": self.qp.witness(),
            "perfect": self.perfect,
            "J": list(self.structure.J) if self.structure is not None else None,
        }
        if self.structure is not None:
            out["structure"] = {k: v for k, v in self.structure._asdict().items() if k != "J"}
        if self.order_agrees is not None:
            out["order_agrees"] = self.order_agrees
        if self.strong_exchange_ok is not None:
            out["strong_exchange_ok"] = self.strong_exchange_ok
        return out


SURVEY_COLUMNS = [
    "type", "theta", "class_size", "min_length", "is_iplus", "qp", "perfect", "J",
    "structure_flags",
]


def survey(
    system: CoxeterSystem,
    thetas: Optional[list[DiagramAut]] = None,
    involutions_only: bool = False,
    diagnostics: bool = False,
) -> list[ClassReport]:
    reports = []
    for theta in thetas if thetas is not None else system.diagram_automorphisms():
        for K in twisted_classes(system, theta, involutions_only=involutions_only):
            reports.append(class_report(K, diagnostics=diagnostics))
    return reports


def class_report(K: ScaledWSet, diagnostics: bool = False) -> ClassReport:
    system = K.system
    verdict = check_quasiparabolic(K)
    min_length = K.height2[0]
    n_min = K.height2.count(min_length)
    is_inv = KeyTwist(K.theta).involutive(K.keys[0])
    qp1_only = check_qp1_only(K)
    return ClassReport(
        system=system.name,
        theta=K.theta.sigma,
        seed_word=tuple(K.describe_point(0)["x"]),
        size=len(K),
        min_length=min_length,
        n_min_length=n_min,
        n_w_minimal=len(K.minimal_elements()),
        is_twisted_involution_class=is_inv,
        qp=verdict,
        qp1_only=qp1_only,
        perfect=is_perfect(K) if is_inv else None,
        structure=structure_check(K) if verdict.is_qp and n_min == 1 else None,
        order_agrees=_order_agrees(K) if diagnostics and verdict.is_qp else None,
        strong_exchange_ok=_strong_exchange(K) if diagnostics and is_inv and qp1_only else None,
        X=K,
    )


def _order_agrees(K: ScaledWSet) -> bool:
    # Bruhat order of the quasiparabolic carrier versus the restriction of
    # the Bruhat order of W; agreement is conjectural, so it is reported only
    order, down = bruhat_order(K), K.system._bruhat_table()
    return all(
        order.leq(x, y) == bool(down[b] >> a & 1)
        for x, a in enumerate(K.keys) for y, b in enumerate(K.keys)
    )


def _strong_exchange(K: ScaledWSet) -> bool:
    # conjectural strong exchange: a length-reducing reflection conjugation
    # moves down in the Bruhat order of W
    system = K.system
    conj, down = KeyTwist(K.theta).conj, system._bruhat_table()
    length, refl = system._table.length, system.reflection_ids()
    for x in K.keys:
        for r in refl:
            q = conj(r, x)
            if length[q] < length[x] and not down[x] >> q & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# classification cross-checks


def survey_cross_checks(reports: list[ClassReport]) -> list[str]:
    """Re-verify the classification facts on finished survey data."""
    failures = []
    for rep in reports:
        name = f"{rep.system} theta={rep.theta} seed={rep.seed_word}"
        if rep.qp.is_qp and not rep.is_twisted_involution_class:
            failures.append(f"quasiparabolic class outside I+: {name}")
        if rep.perfect and not rep.qp.is_qp:
            failures.append(f"perfect class failing quasiparabolicity: {name}")
        if rep.qp.is_qp and rep.structure is not None and not rep.structure.all_ok():
            failures.append(f"minimal-element structure failure: {name}")
        if not rep.qp.is_qp:
            if rep.qp.witness() is None or not revalidate_witness(rep.X, rep.qp.witness()):
                failures.append(f"missing or invalid witness: {name}")
    return failures


def w0_translate(K: ScaledWSet) -> tuple[DiagramAut, list]:
    """The right translate of a finite class K by w0+ = (w0, conjugation by
    w0), on keys: (x, theta) w0+ = (x w0, theta theta0), as theta(w0) = w0.
    Returns theta theta0 and the key of each point's translate."""
    system = K.system
    w0, mult = system.longest_element().key, system._table.mult_ids
    return K.theta * system.w0_aut(), [mult(x, w0) for x in K.keys]


def check_w0_translation(system: CoxeterSystem) -> bool:
    """Multiplication by w0+ = (w0, conj-by-w0) permutes the quasiparabolic
    classes and reverses their Bruhat orders."""
    for theta in system.diagram_automorphisms():
        for K in twisted_classes(system, theta):
            if not check_quasiparabolic(K).is_qp:
                continue
            theta2, keys = w0_translate(K)
            K2 = key_class(system, theta2, keys[0])
            if not check_quasiparabolic(K2).is_qp:
                return False
            if set(keys) != set(K2.keys):
                return False
            order = bruhat_order(K)
            order2 = bruhat_order(K2)
            part = [K2.index[k] for k in keys]
            for x in range(len(K)):
                for y in range(len(K)):
                    if order.leq(x, y) != order2.leq(part[y], part[x]):
                        return False
    return True


# ---------------------------------------------------------------------------
# universal systems


class UniversalQpVerdict(NamedTuple):
    is_qp: bool
    in_iplus: bool
    stuck_word: tuple
    stuck_length: int


def universal_qp_check(system: CoxeterSystem, seed: ExtElement) -> UniversalQpVerdict:
    """Decide quasiparabolicity of a universal twisted class without enumeration.

    Follows length-reducing twisted conjugations from the seed until stuck;
    the class is quasiparabolic exactly when the stuck element (x, theta) has
    theta(x) = x and x in {1} + S.
    """
    twist = KeyTwist(seed.theta)
    x = seed.x.key
    while True:
        for s in range(system.rank):
            if twist.step_length(s, x) < twist.length(x):
                x = twist.step(s, x)
                break
        else:
            break
    sigma = seed.theta.sigma
    word = system.word_of(x)
    return UniversalQpVerdict(
        is_qp=len(word) <= 1 and tuple(sigma[s] for s in word) == word,
        in_iplus=twist.involutive(seed.x.key),
        stuck_word=word,
        stuck_length=len(word),
    )
