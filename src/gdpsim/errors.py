"""Package-wide exception types."""


class GdpSimError(Exception):
    """Base class for all gdpsim-specific errors."""


class BudgetOverflowError(GdpSimError):
    """A spend was pushed past the admissible squared-budget bound."""


class NumericalIntegrityError(GdpSimError):
    """A numerical invariant was violated beyond the tolerated clamp band."""


class ConfigError(GdpSimError):
    """An experiment configuration failed to parse or validate."""
