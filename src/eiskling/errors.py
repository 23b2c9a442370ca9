"""Shared exception types."""


class EisklingError(Exception):
    """Base class for package errors."""


class UnsupportedEmbeddingError(EisklingError):
    """The cyclotomic element does not descend to a field embeddable as requested."""


class InsufficientPrecisionError(EisklingError):
    """Stored precision is too low to decide the requested congruence."""


class PoleError(EisklingError):
    """An Euler factor or L-value was requested at a pole."""


class ConductorError(EisklingError):
    """A character does not satisfy the conductor hypothesis of the formula."""


class UnsupportedBetaError(EisklingError):
    """The Fourier index lies outside the implemented (primitive) range."""


class UniquenessError(EisklingError):
    """Eigenvalue list fails the distinctness hypothesis."""


class ResourceBoundError(EisklingError):
    """An enumeration or a cyclotomic table exceeded its cap."""


class NonIntegralExponentError(EisklingError):
    """Materialization requested at a non-integral prime exponent."""


class ConfigError(EisklingError):
    """Invalid or unknown configuration key/value."""
