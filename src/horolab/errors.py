"""Exception types shared across the package.

Every failure mode that a caller is expected to branch on gets its own
class; generic misuse (bad argument shapes, out-of-range tolerances)
raises ConfigError so the command line can map it to exit code 2,
while computation failures map to exit code 1.
"""

from __future__ import annotations


class HorolabError(Exception):
    """Base class for all package errors."""

    code = "error"

    def payload(self) -> dict:
        """Machine-readable form used by the CLI diagnostics."""
        return {"error": self.code, "message": str(self)}


class ConfigError(HorolabError):
    """Invalid configuration or arguments (CLI exit code 2)."""

    code = "config-error"


class ConstructionError(HorolabError):
    """A constructor's validation failed (non-finite parameter, bad residual)."""

    code = "construction-error"


class RootFindingError(HorolabError):
    """The periodic-point solver did not converge to the residual target."""

    code = "root-finding-error"


class DivergentWordError(HorolabError):
    """A backward orbit's tail failed to settle into the target disk."""

    code = "divergent-word"


class DegenerateBranchError(HorolabError):
    """Two preimage branches collided (the orbit hit a critical value)."""

    code = "degenerate-branch"


class SingularTermError(HorolabError):
    """A series term involves the log-derivative too close to a critical point."""

    code = "singular-term"


class DepthBudgetError(HorolabError):
    """The requested tolerance was not reached within the depth budget."""

    code = "depth-budget"


class PreconditionError(HorolabError):
    """A documented operation precondition does not hold for the inputs."""

    code = "precondition-error"


class DomainError(HorolabError):
    """The input lies outside the domain where the operation is defined."""

    code = "domain-error"


class SuiteFailureError(HorolabError):
    """One or more acceptance-suite criteria failed."""

    code = "suite-failure"
