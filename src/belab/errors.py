"""Exception hierarchy. Exit-code mapping lives in the CLI."""


class BelabError(Exception):
    """Base class for all package errors."""


class ConfigError(BelabError):
    """Invalid experiment configuration. Carries every violation, not just the first."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InvalidModelError(BelabError):
    """Model breaks a structural requirement: a malformed descriptor, or a
    linear part that is not normalized."""


class UnsupportedModelError(BelabError):
    """Requested quantity has no oracle for this model (e.g. an infinite L2 norm)."""


class DegenerateModelError(BelabError):
    """Projection variance is zero (or indistinguishable from zero)."""


class NumericError(BelabError):
    """Quadrature failed to converge or a cross-check identity was violated."""


class DomainError(BelabError, ValueError):
    """Parameter outside the stated domain of a formula (p, z, epsilon ranges)."""
