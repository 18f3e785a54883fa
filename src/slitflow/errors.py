"""The package's two kinds of failure; the CLI's exit code follows the kind."""


class SlitflowError(Exception):
    """Base class for all package-specific errors."""


class InputError(SlitflowError):
    """An argument the computation does not accept: a parameter out of range,
    a point outside its domain, a test-function support outside the
    rectangle, or a bad config.  The CLI exits 2."""


class NumericalError(SlitflowError):
    """A computation that failed on admissible input.  The CLI exits 1."""
