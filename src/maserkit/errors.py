"""Exception hierarchy.

Two broad families matter for the CLI exit codes: user-facing input
problems (bad arguments, malformed files, unit mismatches) and numerical
failures (integrator blow-up, fits that never converge, spectra without
an oscillation peak).  A third error belongs to neither: the C compiler
the burst integrator needs is missing or fails.
"""


class MaserkitError(Exception):
    """Base class for all package errors."""


class UserInputError(MaserkitError):
    """Invalid arguments, files, or units supplied by the caller."""


class InvalidInputError(UserInputError):
    """A scalar argument violates a precondition (non-finite, wrong sign...)."""


class UnitMismatchError(UserInputError):
    """A TimeTrace carried a different unit tag than the consumer expects."""


class InvalidGeometryError(UserInputError):
    """Q-circle geometry that cannot yield a coupling coefficient."""


class KernelBuildError(MaserkitError):
    """The compiled step loop of the burst integrator cannot be built or loaded."""


class NumericalError(MaserkitError):
    """Computation started from valid inputs but failed numerically."""


class IntegrationFailureError(NumericalError):
    """ODE integration aborted; carries the last time reached."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class ModelEvaluationError(NumericalError):
    """A fit model returned NaN or otherwise unusable output."""


class NoOscillationError(NumericalError):
    """No spectral peak stands out above the noise floor."""
