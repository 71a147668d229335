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

from dataclasses import dataclass, field
from typing import Optional

from .coxeter import CoxeterSystem, DiagramAut, Element, ExtElement, KeyTwist
from .errors import NotInvolutionClass, NoUniqueMinimal, TruncationRequired
from .qpsets import (
    QpVerdict,
    ScaledWSet,
    bruhat_order,
    check_qp1_only,
    check_quasiparabolic,
    conjugacy_set,
)


def iota(system: CoxeterSystem, theta: DiagramAut) -> ScaledWSet:
    """The twisted conjugacy class of (1, theta)."""
    return conjugacy_set(system, ExtElement(system.identity, theta))


def twisted_classes(
    system: CoxeterSystem, theta: DiagramAut, involutions_only: bool = False
) -> list[ScaledWSet]:
    """Partition W x {theta} (or its twisted involutions) into conjugacy classes."""
    if system.family == "universal":
        raise TruncationRequired("class surveys need a finite system")
    table = system._ensure_table()
    if involutions_only:  # (x, theta) is a twisted involution iff theta^2 = 1 and theta(x) = x^-1
        images = theta._images()
        involutive = (theta * theta).is_identity()
    seen = [False] * len(table.perms)
    out = []
    for x in range(len(seen)):
        if seen[x]:
            continue
        if involutions_only and not (involutive and images[x] == table.inverse[x]):
            continue
        K = conjugacy_set(system, ExtElement(Element(system, x), theta))
        for p in K.payloads:
            seen[p.x.key] = True
        out.append(K)
    return out


# ---------------------------------------------------------------------------
# perfectness and minimal-element structure


def is_perfect(K: ScaledWSet) -> bool:
    """(rw)^4 = 1 for every reflection r, tested on one representative.

    With w = (x, theta) and theta^2 = 1, (rw)^2 = (y, 1) for y = r x theta(r x),
    so (rw)^4 = 1 iff y is an involution.
    """
    table = K.system._ensure_table()
    images, inverse, mult = K.theta._images(), table.inverse, table.mult_ids
    if not (K.theta * K.theta).is_identity() or any(
            images[p.x.key] != inverse[p.x.key] for p in K.payloads):
        raise NotInvolutionClass("perfectness is defined for twisted involution classes")
    x = K.payloads[0].x.key
    for r in K.system.reflections():
        rx = mult(r.key, x)
        y = mult(rx, images[rx])
        if inverse[y] != y:
            return False
    return True


@dataclass
class StructureFlags:
    fixed_by_J: bool  # sws = w for all s in the descent set J
    J_theta_stable: bool  # W_J finite and theta(J) = J
    x_is_longest: bool  # x = w_J
    centralizer_is_twisted_normalizer: bool
    squares_onto_iota: bool

    def all_ok(self) -> bool:
        return all(
            (self.fixed_by_J, self.J_theta_stable, self.x_is_longest,
             self.centralizer_is_twisted_normalizer, self.squares_onto_iota)
        )


def structure_check(K: ScaledWSet) -> StructureFlags:
    """The shape of the unique minimal element of a quasiparabolic class.

    The centralizer {z : z x theta(z)^-1 = x} and the twisted normalizer
    {z : z W_J = W_J theta(z)} are compared in one pass over the ids, with
    table lookups only: z x and x theta(z) come from the rows of left
    multiplication by x and by x^-1, and a right coset W_J z is labelled by
    its minimal element.
    """
    system = K.system
    theta = K.theta
    minima = [p for p in K.payloads if p.length == K.height2[0]]
    if len(minima) != 1:
        raise NoUniqueMinimal(f"{len(minima)} elements of minimal length")
    w = minima[0]
    x = w.x.key
    J = tuple(sorted(w.x.left_descents()))
    step = KeyTwist(theta).step
    fixed = all(step(s, x) == x for s in J)
    stable = tuple(sorted(theta.gen(j) for j in J)) == J
    x_is_longest = w.x == system.longest_element(J)

    table = system._ensure_table()
    images, inverse, rmult, lmult, length = (
        theta._images(), table.inverse, table.rmult, table.lmult, table.length)
    left_x, left_xinv = [x], [inverse[x]]  # x z and x^-1 z, along the search tree
    coset = [0]  # the minimal element of W_J z; ids are in length order
    for z in range(1, len(rmult)):
        u, t = table.parent[z], table.last[z]
        left_x.append(rmult[left_x[u]][t])
        left_xinv.append(rmult[left_xinv[u]][t])
        down = next((lmult[z][j] for j in J if length[lmult[z][j]] < length[z]), None)
        coset.append(z if down is None else coset[down])
    # z x = (x^-1 z^-1)^-1; z theta(z)^-1 is in W_J iff W_J z = W_J theta(z),
    # and z normalizes W_J iff z s_j is in W_J z for every j in J
    centralizer_ok = all(
        (inverse[left_xinv[inverse[z]]] == left_x[images[z]])
        == (coset[images[z]] == c and all(coset[rmult[z][j]] == c for j in J))
        for z, c in enumerate(coset)
    )

    target = {p.x.key for p in iota(system, theta * theta).payloads}
    squares = {table.mult_ids(p.x.key, images[p.x.key]) for p in K.payloads}
    squares_onto = squares == target

    return StructureFlags(fixed, stable, x_is_longest, centralizer_ok, squares_onto)


# ---------------------------------------------------------------------------
# survey


@dataclass
class ClassReport:
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
    J: Optional[tuple] = None
    structure: Optional[StructureFlags] = None
    order_agrees: Optional[bool] = None
    strong_exchange_ok: Optional[bool] = None
    X: ScaledWSet = field(repr=False, default=None)

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
            "J": list(self.J) if self.J is not None else None,
        }
        if self.structure is not None:
            out["structure"] = {
                "fixed_by_J": self.structure.fixed_by_J,
                "J_theta_stable": self.structure.J_theta_stable,
                "x_is_longest": self.structure.x_is_longest,
                "centralizer_is_twisted_normalizer": self.structure.centralizer_is_twisted_normalizer,
                "squares_onto_iota": self.structure.squares_onto_iota,
            }
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
    n_min = sum(1 for h in K.height2 if h == min_length)
    is_inv = K.payloads[0].is_twisted_involution()
    perfect = is_perfect(K) if is_inv else None
    J = structure = None
    if verdict.is_qp and n_min == 1:
        J = tuple(sorted(K.payloads[0].x.left_descents()))
        structure = structure_check(K)
    report = ClassReport(
        system=system.name,
        theta=K.theta.sigma,
        seed_word=K.payloads[0].x.word(),
        size=len(K),
        min_length=min_length,
        n_min_length=n_min,
        n_w_minimal=len(K.minimal_elements()),
        is_twisted_involution_class=is_inv,
        qp=verdict,
        qp1_only=verdict.is_qp or check_qp1_only(K),
        perfect=perfect,
        J=J,
        structure=structure,
        X=K,
    )
    if diagnostics:
        if verdict.is_qp:
            report.order_agrees = _order_agrees(K)
        if is_inv and report.qp1_only:
            report.strong_exchange_ok = _strong_exchange(K)
    return report


def _order_agrees(K: ScaledWSet) -> bool:
    # Bruhat order of the quasiparabolic carrier versus the restriction of
    # the Bruhat order of W; agreement is conjectural, so it is reported only
    order = bruhat_order(K)
    n = len(K)
    for x in range(n):
        for y in range(n):
            group_leq = K.system.bruhat_leq(K.payloads[x].x, K.payloads[y].x)
            if order.leq(x, y) != group_leq:
                return False
    return True


def _strong_exchange(K: ScaledWSet) -> bool:
    # conjectural strong exchange: a length-reducing reflection conjugation
    # moves down in the Bruhat order of W
    system = K.system
    conj, down = KeyTwist(K.theta).conj, system._bruhat_table()
    length = system._table.length
    for p in K.payloads:
        x = p.x.key
        for r in system.reflections():
            q = conj(r.key, x)
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
            if rep.qp.witness() is None or not _witness_ok(rep):
                failures.append(f"missing or invalid witness: {name}")
    return failures


def _witness_ok(rep: ClassReport) -> bool:
    from .qpsets import revalidate_witness

    return revalidate_witness(rep.X, rep.qp.witness())


def check_w0_translation(system: CoxeterSystem) -> bool:
    """Multiplication by w0+ = (w0, conj-by-w0) permutes the quasiparabolic
    classes and reverses their Bruhat orders."""
    w0p = ExtElement(system.longest_element(), system.w0_aut())
    for theta in system.diagram_automorphisms():
        for K in twisted_classes(system, theta):
            if not check_quasiparabolic(K).is_qp:
                continue
            K2 = conjugacy_set(system, K.payloads[0] * w0p)
            if not check_quasiparabolic(K2).is_qp:
                return False
            if {p * w0p for p in K.payloads} != set(K2.payloads):
                return False
            order = bruhat_order(K)
            order2 = bruhat_order(K2)
            part = {pid: K2.index[p * w0p] for pid, p in enumerate(K.payloads)}
            for x in range(len(K)):
                for y in range(len(K)):
                    if order.leq(x, y) != order2.leq(part[y], part[x]):
                        return False
    return True


# ---------------------------------------------------------------------------
# universal systems


@dataclass
class UniversalQpVerdict:
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
    stuck = Element(system, x)
    return UniversalQpVerdict(
        is_qp=stuck.length <= 1 and seed.theta(stuck) == stuck,
        in_iplus=seed.is_twisted_involution(),
        stuck_word=stuck.word(),
        stuck_length=stuck.length,
    )
