"""Adaptive explicit Runge-Kutta 5(4) integration and scalar root finding.

The integrator is a Dormand-Prince pair with FSAL, PI-free step control and
cubic Hermite dense output between accepted steps.  It understands an
optional domain predicate: when a step lands outside, the exit is localized
by bisecting the step and a DomainExitError carrying the last valid state
(and the partial trajectory) is raised.  Step-size underflow raises
StiffnessError instead of looping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
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
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4


@dataclass
class OdeTrajectory:
    """Accepted integration nodes plus enough data for dense evaluation."""

    ts: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    steps: np.ndarray
    tolerance: float

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
    return float(np.sqrt(np.mean(v * v)))


def integrate_ivp(rhs, y0, span, tolerance: float = 1e-10, domain=None, max_steps: int = 200_000) -> OdeTrajectory:
    """Integrate y' = rhs(y) over span = (t0, t1) with local error <= tolerance.

    rhs is autonomous.  `domain`, when given, is a predicate on the state; the
    integration stops with DomainExitError at the (bisected) exit parameter.
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
    f = np.asarray(rhs(y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise EvaluationDomainError("rhs not finite at the initial state")

    ts = [t0]
    states = [y.copy()]
    derivs = [f.copy()]
    steps: list[float] = []

    # initial step from the usual curvature-free heuristic
    sc = tolerance + tolerance * np.abs(y)
    d0 = _rms_norm(y / sc)
    d1 = _rms_norm(f / sc)
    h = 0.01 * d0 / d1 if d1 > 1e-300 else (t1 - t0) / 100.0
    h = min(max(h, 1e-10), t1 - t0)

    t = t0
    nsteps = 0

    def attempt(h_try: float):
        """One DP step; returns (y_new, f_new, err_norm) or None if rhs blew up."""
        k = np.empty((7, y.size))
        k[0] = f
        try:
            for s in range(1, 7):
                k[s] = rhs(y + h_try * (_A[s, :s] @ k[:s]))
        except EvaluationDomainError:
            return None
        y_new = y + h_try * (_B5 @ k)
        if not np.all(np.isfinite(y_new)):
            return None
        err = h_try * (_E @ k)
        sc_loc = tolerance + tolerance * np.maximum(np.abs(y), np.abs(y_new))
        return y_new, k[6], _rms_norm(err / sc_loc)

    def localize_exit(h_hi: float):
        """Walk the last node up to the boundary, then raise.

        RK stages overshoot the endpoint, so a single largest-valid-substep
        bisection stalls a fraction of its own span short of the exit;
        restarting from each advanced node shrinks that gap geometrically.
        """
        nonlocal t, y, f
        for _ in range(60):
            lo, hi = 0.0, h_hi
            best = None
            for _ in range(80):
                if hi - lo <= 1e-15 * max(1.0, hi):
                    break
                mid = 0.5 * (lo + hi)
                res = attempt(mid)
                ok = res is not None and res[2] <= 1.0 and (domain is None or domain(res[0]))
                if ok:
                    lo = mid
                    best = res
                else:
                    hi = mid
            if best is None or lo <= 0.0:
                break
            t += lo
            y = best[0]
            f = best[1]
            ts.append(t)
            states.append(y.copy())
            derivs.append(f.copy())
            steps.append(lo)
            if lo <= 1e-13 * max(1.0, abs(t)):
                break
            # remaining gap is at most the stage-overshoot fraction of lo
            h_hi = max(lo, 4e-13 * max(1.0, abs(t)))
        traj = OdeTrajectory(
            np.asarray(ts), np.asarray(states), np.asarray(derivs), np.asarray(steps), tolerance
        )
        raise DomainExitError(
            f"integration left the domain near t = {t:.12g}",
            t_exit=t,
            state=states[-1].copy(),
            trajectory=traj,
        )

    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if nsteps >= max_steps:
            raise IterationLimitError(f"integration exceeded {max_steps} steps")
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StiffnessError(f"step size underflow at t = {t:.12g}")
        res = attempt(h)
        if res is None:
            # rhs failed inside the step: treat like a domain violation
            localize_exit(h)
        y_new, f_new, err = res
        if err <= 1.0:
            if domain is not None and not domain(y_new):
                localize_exit(h)
            t += h
            y = y_new
            f = f_new
            ts.append(t)
            states.append(y.copy())
            derivs.append(f.copy())
            steps.append(h)
            nsteps += 1
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            h *= max(0.2, 0.9 * err ** -0.2)

    return OdeTrajectory(
        np.asarray(ts), np.asarray(states), np.asarray(derivs), np.asarray(steps), tolerance
    )


def solve_scalar_root(g, bracket=None, guess=None, tolerance: float = 1e-12, max_iter: int = 200) -> float:
    """Hybrid secant/bisection root finder; stops when |g(x)| <= tolerance.

    Either a sign-changing bracket or an initial guess must be supplied.  A
    guess-mode run switches to the bracketed loop as soon as it straddles a
    sign change.
    """
    if bracket is None and guess is None:
        raise ValueError("either bracket or guess is required")

    if bracket is not None:
        a, b = float(bracket[0]), float(bracket[1])
        fa, fb = float(g(a)), float(g(b))
        if abs(fa) <= tolerance:
            return a
        if abs(fb) <= tolerance:
            return b
        if fa * fb > 0.0:
            raise BracketError(f"no sign change on [{a}, {b}]: g = ({fa:.3g}, {fb:.3g})")
        return _bracketed(g, a, b, fa, fb, tolerance, max_iter)

    x0 = float(guess)
    x1 = x0 + max(1e-6, 1e-6 * abs(x0))
    f0, f1 = float(g(x0)), float(g(x1))
    for _ in range(max_iter):
        if abs(f1) <= tolerance:
            return x1
        if f0 * f1 < 0.0:
            return _bracketed(g, x0, x1, f0, f1, tolerance, max_iter)
        if f1 == f0:
            raise IterationLimitError("secant stalled on a flat residual")
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not np.isfinite(x2):
            raise IterationLimitError("secant produced a non-finite iterate")
        x0, f0 = x1, f1
        x1, f1 = x2, float(g(x2))
    raise IterationLimitError(f"root search did not converge in {max_iter} iterations")


def _bracketed(g, a, b, fa, fb, tolerance, max_iter):
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    for _ in range(max_iter):
        # secant candidate, falling back to the midpoint when it leaves [a, b]
        if f_cur != f_prev:
            cand = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)
        else:
            cand = 0.5 * (a + b)
        lo, hi = min(a, b), max(a, b)
        if not (lo < cand < hi) or not np.isfinite(cand):
            cand = 0.5 * (a + b)
        fc = float(g(cand))
        if abs(fc) <= tolerance:
            return cand
        if fa * fc < 0.0:
            b, fb = cand, fc
        else:
            a, fa = cand, fc
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = cand, fc
        if abs(b - a) < 1e-17 * max(1.0, abs(a), abs(b)):
            break
    raise IterationLimitError(f"bracketed root search did not reach |g| <= {tolerance}")
