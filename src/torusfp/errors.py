"""Exception types shared by all torusfp modules."""


class TorusFpError(Exception):
    """Base class for all torusfp errors."""


class ValidationError(TorusFpError):
    """Malformed or out-of-range argument."""


class SizeError(TorusFpError):
    """A lattice, resolution or evaluation count exceeds its cap."""


class EvalError(TorusFpError):
    """A user-supplied function produced non-finite values."""


class PreconditionError(TorusFpError):
    """A stated precondition of an operation does not hold."""
