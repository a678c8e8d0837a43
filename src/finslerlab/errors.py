"""Exception types shared across the library."""

from __future__ import annotations


class FinslerError(Exception):
    """Base class for all library errors."""


class EvaluationDomainError(FinslerError):
    """Raised when an evaluation leaves the chart or produces a non-finite value."""


class DomainExitError(FinslerError):
    """An integration left the declared domain.

    Carries the last valid state so callers can recover the partial result.
    """

    def __init__(self, message, t_exit=None, state=None, trajectory=None):
        super().__init__(message)
        self.t_exit = t_exit
        self.state = state
        self.trajectory = trajectory


class StiffnessError(FinslerError):
    """Adaptive step size underflowed; the problem looks stiff or singular."""


class IterationLimitError(FinslerError):
    """An iterative solver hit its iteration cap without converging."""


class StrongConvexityError(FinslerError):
    """The fundamental tensor is not positive definite (or too ill-conditioned)."""


class ConfigError(FinslerError):
    """Malformed or inconsistent metric configuration."""


class SearchFailureError(FinslerError):
    """Boundary-value search found no connecting geodesic."""


class DegenerateFlagError(FinslerError):
    """Flag plane is (numerically) degenerate: u is parallel to the flagpole."""


class CriticalPointError(FinslerError):
    """Schwarzian derivative requested at a critical point (f' = 0)."""


class PoleError(FinslerError):
    """A projective parameter hit a pole (u2 crossed zero) inside the interval."""


class MalformedChainError(FinslerError):
    """Chain segments do not stitch: f_i(b_i) != x_i within tolerance."""


class NotEinsteinError(FinslerError):
    """Operation requires a verified Einstein structure with negative constant."""
