"""Semantic exceptions shared across the package."""


class RelayTomoError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RelayTomoError, ValueError):
    """An argument lies outside a function's mathematical domain."""


class GeometryError(RelayTomoError, ValueError):
    """A geometric precondition is violated (bad region, node placement, ...)."""


class DegenerateGeometryError(GeometryError):
    """A configuration is within tolerance of a singular triangle."""


class EmptyGridError(GeometryError):
    """Discretization produced no cells."""


class MeasurementError(RelayTomoError, ValueError):
    """Malformed or insufficient measurement data."""


class LocalizationError(RelayTomoError, ValueError):
    """The inverse solver was invoked on unusable inputs."""


class ConfigError(RelayTomoError, ValueError):
    """A scenario configuration file is invalid."""
