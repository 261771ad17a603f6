"""Exception types shared across the toolkit.

Every error raised on a numerical-contract violation derives from
StructDaeError so callers (and the CLI) can separate usage errors from
structural findings.
"""


class StructDaeError(Exception):
    """Base class for all toolkit errors; t is the failing time when known."""

    def __init__(self, message="", t=None):
        super().__init__(message)
        self.t = t


class DomainError(StructDaeError):
    """Evaluation time outside the function's interval, or grid mismatch."""


class DimensionError(StructDaeError):
    """Incompatible shapes between operands."""


class ConstructionError(StructDaeError):
    """Invalid data handed to a constructor (shapes, non-finite entries)."""


class SingularityError(StructDaeError):
    """A matrix required to be nonsingular is singular."""


class RankDropError(StructDaeError):
    """Numerical rank changed between two grid points."""

    def __init__(self, message, t_first=None, t_second=None):
        super().__init__(message)
        self.t_first = t_first
        self.t_second = t_second


class IllPosedRankError(StructDaeError):
    """Singular-value gap too small to decide the rank."""


class StructureError(StructDaeError):
    """A structural precondition (symmetry, kernel condition, ...) fails."""


class InertiaChangeError(StructDaeError):
    """An eigenvalue changed sign between grid points."""


class ConditioningError(StructDaeError):
    """A quantity is too ill-conditioned to continue."""


class ParityError(StructDaeError):
    """Solution-space dimension of a self-adjoint pair is odd."""


class RegularityError(StructDaeError):
    """The pencil (or algebraic block) is not regular."""


class StageError(StructDaeError):
    """A staged canonical-form construction failed; carries the stage name."""

    def __init__(self, message, stage=None, t=None):
        super().__init__(message, t=t)
        self.stage = stage


class BasisDeficiencyError(StructDaeError):
    """The provided solution basis does not span the full solution space."""


class ParameterError(StructDaeError):
    """Invalid model parameter (nonpositive inductance, indefinite mass, ...)."""


class UnsupportedError(StructDaeError):
    """Operation not available for this input kind."""
