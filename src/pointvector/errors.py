"""Exception types raised by the library.

Every error condition has a dedicated class so callers (and the CLI exit-code
mapping) can distinguish bad configuration from bad data from numeric faults.
"""


class PointVectorError(Exception):
    """Base class for all library errors."""


class SizeError(PointVectorError):
    """Shape or count mismatch between arrays or requested sizes."""


class ConfigError(PointVectorError):
    """Invalid or inconsistent configuration values."""


class ContractError(PointVectorError):
    """An API contract was violated (e.g. backward on a non-scalar loss)."""


class DataError(PointVectorError):
    """Invalid data values, e.g. labels outside the class range."""


class NumericFaultError(PointVectorError):
    """NaN or Inf detected during computation; message names the layer."""


class DegenerateStatisticsError(PointVectorError):
    """Batch statistics cannot be computed (single-sample train batch)."""


class InvalidNeighborhoodError(PointVectorError):
    """A neighborhood reduction received only padded entries."""


class ParseError(PointVectorError):
    """Malformed line in a point-cloud text file; message carries the line number."""


class FormatError(PointVectorError):
    """Structurally inconsistent point-cloud file (e.g. mixed column counts)."""


class EmptyCloudError(PointVectorError):
    """A point cloud with zero points where at least one is required."""


class OracleError(PointVectorError):
    """A brute-force oracle was used outside its supported regime."""


class CheckpointError(PointVectorError):
    """Unreadable checkpoint or parameter shape mismatch on load."""


class EmptyEvaluationError(PointVectorError):
    """Metrics requested for an evaluation that saw no samples."""
