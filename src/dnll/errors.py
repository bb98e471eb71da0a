"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: numeric failures
(non-finite losses or gradients) exit with 3, every other error here
with 2.
"""


class DnllError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DnllError, ValueError):
    """Invalid configuration value or unknown configuration key."""


class ShapeError(DnllError, ValueError):
    """Array arguments whose shapes do not match the declared contract."""


class NumericError(DnllError, ArithmeticError):
    """Non-finite value where a finite one is required."""


class DataError(DnllError, ValueError):
    """Dataset violates a precondition (class balance, labels, ranges)."""


class FormatError(DnllError, ValueError):
    """Binary container (IDX file, checkpoint) has an unexpected layout."""


class LengthError(DnllError, ValueError):
    """Binary container is shorter than its header promises."""


class ChecksumError(DnllError, ValueError):
    """Checkpoint payload fails CRC verification."""
