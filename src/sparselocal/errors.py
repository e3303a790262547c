"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class GateExhaustedError(RuntimeError):
    """More gates were requested than there are unmasked features."""


class DataFormatError(ValueError):
    """An input file does not match its declared container format."""


class CheckpointError(ValueError):
    """A checkpoint file is corrupt, truncated, or of an unknown version."""


class ConfigError(ValueError):
    """A run configuration is missing required fields or malformed."""


class NonFiniteLossError(RuntimeError):
    """A training loss became NaN or infinite."""


class NonFiniteScoreError(RuntimeError):
    """A prediction's score is NaN or infinite."""


class SolverError(RuntimeError):
    """A linear solver could not produce a solution."""
