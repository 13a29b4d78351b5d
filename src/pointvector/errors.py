"""Exception types raised by the library.

A class exists for each way a caller handles a failure: the CLI maps numeric
faults and checkpoint errors to their own exit codes and every other library
error to one, and tests tell the remaining classes apart. A new failure takes
the class of the handling it needs; its message names the cause.
"""


class PointVectorError(Exception):
    """Base class for all library errors."""


class SizeError(PointVectorError):
    """Shape or count mismatch between arrays or requested sizes."""


class ConfigError(PointVectorError):
    """Invalid or inconsistent configuration values."""


class ContractError(PointVectorError):
    """An API contract was violated (e.g. backward on a non-scalar loss, or an
    oracle used outside its supported regime)."""


class DataError(PointVectorError):
    """Invalid or unreadable data: a malformed or empty point-cloud file or
    manifest, labels outside the class range, an evaluation of no samples."""


class NumericFaultError(PointVectorError):
    """NaN or Inf detected during computation; message names the layer."""


class DegenerateStatisticsError(PointVectorError):
    """Batch statistics cannot be computed (single-sample train batch)."""


class InvalidNeighborhoodError(PointVectorError):
    """A neighborhood reduction received only padded entries."""


class CheckpointError(PointVectorError):
    """Unreadable checkpoint or parameter shape mismatch on load."""
