"""Adaptive explicit Runge-Kutta 5(4) integration.

The integrator is a Dormand-Prince pair with FSAL, PI-free step control and
cubic Hermite dense output between accepted steps.  Leaving the optional
domain predicate is one more reason to reject a step, as a too-large error
estimate is: the step is halved and retried, so a solution that stays inside
is followed up to the chart boundary.  When a step that left the domain
shrinks below the underflow floor, DomainExitError carries the last accepted
node and the trajectory up to it; an underflow from the error estimate alone
raises StiffnessError instead of looping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainExitError,
    EvaluationDomainError,
    IterationLimitError,
    StiffnessError,
)

# Dormand-Prince 5(4) tableau; the right-hand side is autonomous, so the
# stage nodes c_s are not needed.  Row s of _A holds stage s's weights.
_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ]
)
_B5 = _A[6]  # FSAL: the last stage is evaluated at the fifth-order solution
_STAGES = tuple((s, _A[s, :s]) for s in range(1, 7))
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4

MAX_STEPS = 200_000


@dataclass
class OdeTrajectory:
    """Accepted integration nodes plus enough data for dense evaluation.

    rhs_calls counts every right-hand-side evaluation, steps_rejected every
    attempted step that was not accepted (over tolerance or off the domain).
    """

    ts: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    steps: np.ndarray
    tolerance: float
    rhs_calls: int = 0
    steps_rejected: int = 0

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def __call__(self, t):
        """Cubic Hermite interpolation between accepted nodes."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((ts.size, self.states.shape[1]))
        for m, tv in enumerate(ts):
            out[m] = self._eval_one(tv)
        if np.ndim(t) == 0:
            return out[0]
        return out

    def _eval_one(self, t: float) -> np.ndarray:
        ts = self.ts
        if t <= ts[0]:
            return self.states[0].copy()
        if t >= ts[-1]:
            return self.states[-1].copy()
        i = int(np.searchsorted(ts, t, side="right") - 1)
        h = ts[i + 1] - ts[i]
        th = (t - ts[i]) / h
        h00 = (1 + 2 * th) * (1 - th) ** 2
        h10 = th * (1 - th) ** 2
        h01 = th * th * (3 - 2 * th)
        h11 = th * th * (th - 1)
        return (
            h00 * self.states[i]
            + h10 * h * self.derivs[i]
            + h01 * self.states[i + 1]
            + h11 * h * self.derivs[i + 1]
        )


def _rms_norm(v: np.ndarray) -> float:
    # np.mean's own sum and division, without its wrapper
    return math.sqrt(float(np.add.reduce(v * v)) / v.size)


def integrate_ivp(rhs, y0, span, tolerance: float = 1e-10, domain=None) -> OdeTrajectory:
    """Integrate y' = rhs(y) over span = (t0, t1) with local error <= tolerance.

    rhs is autonomous.  `domain`, when given, is a predicate on the state.  A
    step whose stage raises EvaluationDomainError, or whose result is not
    finite or fails `domain`, is rejected and retried at half the size; when
    the step then underflows, DomainExitError reports the last accepted node.
    """
    t0, t1 = float(span[0]), float(span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"span must be finite, got ({t0}, {t1})")
    if not t1 > t0:
        raise ValueError("span must satisfy t1 > t0")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 1:
        raise ValueError("state must be one-dimensional")
    if domain is not None and not domain(y):
        raise ValueError("initial state violates the domain predicate")
    # a copy: f is the first stage of every attempt, and rhs may reuse its buffer
    f = np.array(rhs(y), dtype=float)
    if not np.isfinite(f).all():
        raise EvaluationDomainError("rhs not finite at the initial state")

    ts = [t0]
    states = [y]
    derivs = [f]
    steps: list[float] = []
    rhs_calls = 1
    rejected = 0

    def trajectory() -> OdeTrajectory:
        arrays = (np.asarray(ts), np.asarray(states), np.asarray(derivs), np.asarray(steps))
        return OdeTrajectory(*arrays, tolerance, rhs_calls, rejected)

    # initial step from the usual curvature-free heuristic
    sc = tolerance + tolerance * np.abs(y)
    d0 = _rms_norm(y / sc)
    d1 = _rms_norm(f / sc)
    h = 0.01 * d0 / d1 if d1 > 1e-300 else (t1 - t0) / 100.0
    h = min(max(h, 1e-10), t1 - t0)

    t = t0
    left_domain = False  # a step was rejected for leaving the domain since the last node

    def attempt(h_try: float):
        """One DP step; returns (y_new, f_new, err_norm), or None if it left the domain."""
        nonlocal rhs_calls
        k = np.empty((7, y.size))
        k[0] = f
        try:
            for s, a in _STAGES:
                y_s = y + h_try * (a @ k[:s])
                k[s] = rhs(y_s)
        except EvaluationDomainError:
            rhs_calls += s
            return None
        rhs_calls += 6
        # FSAL: the last stage's input is the fifth-order solution y + h (_B5 @ k);
        # keep the step only where it and the derivative there are finite
        y_new = y_s
        if not (np.isfinite(y_new).all() and np.isfinite(k[6]).all()) or (
            domain is not None and not domain(y_new)
        ):
            return None
        err = h_try * (_E @ k)
        sc_loc = tolerance + tolerance * np.maximum(np.abs(y), np.abs(y_new))
        return y_new, k[6], _rms_norm(err / sc_loc)

    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if len(steps) >= MAX_STEPS:
            raise IterationLimitError(f"integration exceeded {MAX_STEPS} steps")
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if left_domain:
                raise DomainExitError(
                    f"integration left the domain near t = {t:.12g}",
                    t_exit=t,
                    state=y.copy(),
                    trajectory=trajectory(),
                )
            raise StiffnessError(f"step size underflow at t = {t:.12g}")
        res = attempt(h)
        if res is None:
            rejected += 1
            left_domain = True
            h *= 0.5
            continue
        y_new, f_new, err = res
        if err <= 1.0:
            t += h
            y = y_new
            f = f_new
            ts.append(t)
            states.append(y)  # y and k are fresh arrays on every attempt
            derivs.append(f)
            steps.append(h)
            left_domain = False
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)

    return trajectory()
