"""Exception types. CLI error lines carry the class name, so keep them stable."""


class QpvError(Exception):
    """Base class for package errors."""


class ValidationError(QpvError):
    """Arguments or configuration outside the documented domain."""


class ConfigError(QpvError):
    """Malformed experiment config document."""


class ResourceError(QpvError):
    """Request exceeds the documented desk-scale limits."""


class ConvergenceError(QpvError):
    """Compiler net too coarse for the recursion to contract."""


class StrategyError(QpvError):
    """Attack strategy incompatible with the game or internally failed."""


class BoundCheckError(QpvError):
    """An empirical quantity violated its declared bound."""
