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

from .coxeter import CoxeterSystem, DiagramAut, ExtElement, twisted_conjugate
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
    seen: set = set()
    out = []
    for x in system.elements():
        if x.key in seen:
            continue
        p = ExtElement(x, theta)
        if involutions_only and not p.is_twisted_involution():
            continue
        K = conjugacy_set(system, p)
        seen.update(q.x.key for q in K.payloads)
        out.append(K)
    return out


# ---------------------------------------------------------------------------
# perfectness and minimal-element structure


def is_perfect(K: ScaledWSet) -> bool:
    """(rw)^4 = 1 for every reflection r, tested on one representative."""
    if not all(p.is_twisted_involution() for p in K.payloads):
        raise NotInvolutionClass("perfectness is defined for twisted involution classes")
    system = K.system
    ident = system.identity_aut()
    w = K.payloads[0]
    for r in system.reflections():
        q = ExtElement(r, ident) * w
        q2 = q * q
        if not (q2 * q2).is_identity():
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


def _parabolic_ids(system: CoxeterSystem, J) -> set:
    ids = {system.identity.key}
    frontier = [system.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for j in J:
                z = w * system.generator(j)
                if z.key not in ids:
                    ids.add(z.key)
                    nxt.append(z)
        frontier = nxt
    return ids


def structure_check(K: ScaledWSet) -> StructureFlags:
    """The shape of the unique minimal element of a quasiparabolic class."""
    system = K.system
    theta = K.theta
    minima = [p for p in K.payloads if p.length == K.height2[0]]
    if len(minima) != 1:
        raise NoUniqueMinimal(f"{len(minima)} elements of minimal length")
    w = minima[0]
    x = w.x
    J = tuple(sorted(x.left_descents()))
    fixed = all(
        twisted_conjugate(system.generator(s), w) == w for s in J
    )
    stable = tuple(sorted(theta.gen(j) for j in J)) == J
    x_is_longest = x == system.longest_element(J)

    wj_ids = _parabolic_ids(system, J)
    centralizer = {
        z.key for z in system.elements() if twisted_conjugate(z, w) == w
    }
    normalizer = set()
    for z in system.elements():
        # z W_J = W_J theta(z) iff z theta(z)^-1 in W_J and z normalizes W_J
        if (z * theta(z).inverse()).key not in wj_ids:
            continue
        if all((z * system.generator(j) * z.inverse()).key in wj_ids for j in J):
            normalizer.add(z.key)
    centralizer_ok = centralizer == normalizer

    theta2 = theta * theta
    target = {p for p in iota(system, theta2).payloads}
    squares = {p * p for p in K.payloads}
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
    for p in K.payloads:
        for r in system.reflections():
            q = twisted_conjugate(r, p)
            if q.length < p.length and not system.bruhat_leq(q.x, p.x):
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
    w = seed
    while True:
        for s in range(system.rank):
            c = twisted_conjugate(system.generator(s), w)
            if c.length < w.length:
                w = c
                break
        else:
            break
    qp = w.x.length <= 1 and w.theta(w.x) == w.x
    return UniversalQpVerdict(
        is_qp=qp,
        in_iplus=seed.is_twisted_involution(),
        stuck_word=w.x.word(),
        stuck_length=w.x.length,
    )
