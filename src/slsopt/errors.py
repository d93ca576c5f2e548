"""Exception types shared across the package."""


class SlsoptError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SlsoptError, ValueError):
    """Vector or matrix dimensions do not match."""


class NumericDomainError(SlsoptError, ValueError):
    """An evaluation produced a non-finite or inconsistent value."""


class InvalidBatchError(SlsoptError, ValueError):
    """A sampled component index is not an integer or lies outside the problem."""


class InvalidSpecError(SlsoptError, ValueError):
    """A generator or parameter specification is degenerate or inconsistent."""


class DomainError(SlsoptError, ValueError):
    """A scalar argument lies outside the formula's domain."""


class NonDescentError(SlsoptError, ValueError):
    """Line search was invoked with a non-descent direction (d.g >= 0)."""


class LineSearchStallError(SlsoptError, RuntimeError):
    """Backtracking exhausted its cap without satisfying the acceptance test."""

    def __init__(self, message, alpha0=None, last_alpha=None, trials=None):
        super().__init__(message)
        self.alpha0 = alpha0
        self.last_alpha = last_alpha
        self.trials = trials


class CertificateError(SlsoptError, RuntimeError):
    """An accepted line-search step fails the Armijo test it was accepted on."""


class UnsatisfiableSafeguardError(SlsoptError, ValueError):
    """The restart direction -g itself violates the configured bounds."""


class InsufficientDataError(SlsoptError, ValueError):
    """Too few usable samples for the requested estimate."""


class UndefinedEstimateError(SlsoptError, ValueError):
    """The estimator's defining ratio is undefined on every supplied sample."""


class UnsupportedProblemError(SlsoptError, ValueError):
    """The problem lacks the known constants this operation requires."""


class ConfigError(SlsoptError, ValueError):
    """Experiment configuration is malformed or violates an invariant."""
