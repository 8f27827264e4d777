"""Exception types shared across the package."""


class RicciForgeError(Exception):
    """Base class for all errors raised by this package.

    ``clause`` names the violated clause or selection rule (e.g.
    "Definition 2.1(c)" or "Lemma 2.11") so that callers and reports can
    point at it.
    """

    def __init__(self, message, clause=None):
        super().__init__(message)
        self.clause = clause


class ConfigurationError(RicciForgeError):
    """Invalid input, override, or missing constant."""


class CertificationError(RicciForgeError):
    """A required inequality or construction step failed numerically."""


class DomainError(RicciForgeError, ValueError):
    """Argument outside the mathematical domain of an evaluator."""
