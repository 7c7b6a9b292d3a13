"""Exception types shared across the package."""


class PushdpError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(PushdpError):
    """A config file, schedule, or parameter set fails validation."""


class OutOfRegimeError(PushdpError):
    """Inputs fall outside the regime where a closed-form quantity is defined.

    The message always names the violated inequality.
    """


class CalibrationError(PushdpError):
    """Noise calibration or accounting preconditions are violated."""


class NumericalBreakdownError(PushdpError):
    """A run produced non-finite state or a non-positive push-sum weight."""
