"""Exception types shared across the package."""


class QpcoxError(Exception):
    """Base class for all qpcox errors."""


class BadMatrix(QpcoxError):
    """Malformed Coxeter matrix or unparseable type string."""


class NotFinite(QpcoxError):
    """A finite system was requested but the Coxeter group is infinite."""


class SystemMismatch(QpcoxError):
    """Operands belong to different Coxeter systems."""


class InfiniteParabolic(QpcoxError):
    """The requested standard parabolic subgroup is infinite."""


class TruncationRequired(QpcoxError):
    """An enumeration over an infinite group needs an explicit height cutoff."""


class GroupTooLarge(QpcoxError):
    """A finite group, or a carrier's orbit, has more elements than the limit
    coxeter.MAX_ORDER."""


class ConsistencyError(QpcoxError):
    """An internal consistency gate failed: a computed object breaks an
    invariant the theory guarantees (the CLI exits with code 2)."""


class UncertifiedBar(QpcoxError):
    """A canonical table was asked of a carrier whose bar operator fails its
    certificate (barcanon.verify_bar_operator)."""


class NotQuasiparabolic(QpcoxError):
    """An operation requiring the quasiparabolic axioms was called on a set failing them."""


class NotInvolutionClass(QpcoxError):
    """Perfectness is only defined for classes of twisted involutions."""


class NoUniqueMinimal(QpcoxError):
    """Structure checks need a class with a unique minimal element."""

