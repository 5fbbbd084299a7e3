"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A numeric argument violates its documented domain (negative variance, ...)."""


class ConfigurationError(ValueError):
    """A scenario or config file is structurally invalid (unknown key, bad value, ...)."""


class ShapeError(ValueError):
    """Array arguments have incompatible lengths or shapes."""
