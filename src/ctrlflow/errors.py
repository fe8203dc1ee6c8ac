"""Exception taxonomy shared across the package.

Every error raised by library code is a subclass of CtrlFlowError so callers
can catch package failures without masking programming errors.
"""


class CtrlFlowError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CtrlFlowError):
    """Invalid argument shapes, values, or config documents."""


class UnknownSystemError(CtrlFlowError, LookupError):
    """Requested builtin system name is not registered."""


class UncontrollablePairError(CtrlFlowError):
    """(A, B) fails the controllability requirement of the operation."""


class UnstableGainError(CtrlFlowError):
    """Closed-loop matrix A + BK is not Hurwitz."""


class InfeasibleTargetError(CtrlFlowError):
    """Target point admits no equilibrium control."""


class BlowUpError(CtrlFlowError):
    """State left the finite/bounded regime during integration.

    Carries the first bad time in ``t_bad``.
    """

    def __init__(self, t_bad: float, message: str | None = None):
        self.t_bad = float(t_bad)
        super().__init__(message or f"trajectory blew up at t={t_bad:.6g}")


class EmptyDatasetError(CtrlFlowError):
    """Regression dataset has no rows."""


class TrainingDivergedError(CtrlFlowError):
    """Iterative fit produced a non-finite loss."""


class StageError(CtrlFlowError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause!r}")
