"""Adaptive explicit Runge-Kutta 5(4) integration on Python floats.

The integrator is a Dormand-Prince pair with FSAL, PI-free step control and
cubic Hermite dense output between accepted steps.  It steps the state as a
list of Python floats: the right-hand side takes a list of floats and
returns a sequence of floats, and the stage sums, the finiteness check and
the error norm are plain float arithmetic.  The trajectory's ndarrays are
built once, when the integration ends.  The right-hand side owns its domain:
a stage that raises EvaluationDomainError, or a result that is not finite,
is one more reason to reject a step, as a too-large error estimate is.  The
step is halved and retried, so a solution that stays inside is followed up
to the domain's boundary.  When a step rejected that way shrinks below the
underflow floor, DomainExitError carries the last accepted node and the
trajectory up to it; an underflow from the error estimate alone raises
StiffnessError instead of looping forever.
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
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
# the same tableau as Python floats: stage rows 2..7 and the error weights B5 - B4
_ROWS = tuple(tuple(_A[s, :s].tolist()) for s in range(1, 7))
_ERROR_WEIGHTS = tuple((_B5 - _B4).tolist())

MAX_STEPS = 200_000


@dataclass
class OdeTrajectory:
    """Accepted integration nodes plus enough data for dense evaluation.

    rhs_calls counts every right-hand-side evaluation, steps_rejected every
    attempted step that was not accepted (over tolerance, or a stage off the
    domain or not finite).
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


def _rms(values) -> float:
    return math.sqrt(math.fsum([v * v for v in values]) / len(values))


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def _dp_step(rhs, y, f, h, tolerance):
    """One Dormand-Prince attempt of size h from the state y, where f = rhs(y).

    Returns (calls, y_new, f_new, err): the right-hand-side calls made, the
    fifth-order solution, its derivative (the last stage, reused as the next
    step's first) and the RMS of the embedded error estimate in units of
    tolerance * (1 + max(|y_i|, |y_new_i|)).  The last three are None when a
    stage raised EvaluationDomainError or y_new or f_new is not finite.
    Every stage is copied into a fresh list, so a right-hand side may reuse
    the buffer it returns.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), row6, row7 = _ROWS
    a61, a62, a63, a64, a65 = row6
    a71, a72, a73, a74, a75, a76 = row7
    e1, e2, e3, e4, e5, e6, e7 = _ERROR_WEIGHTS
    k1 = f
    calls = 1  # the rhs calls made once the next one returns or raises
    try:
        k2 = list(rhs([yi + h * (a21 * p1) for yi, p1 in zip(y, k1)]))
        calls = 2
        k3 = list(rhs([yi + h * (a31 * p1 + a32 * p2) for yi, p1, p2 in zip(y, k1, k2)]))
        calls = 3
        k4 = list(rhs([
            yi + h * (a41 * p1 + a42 * p2 + a43 * p3) for yi, p1, p2, p3 in zip(y, k1, k2, k3)
        ]))
        calls = 4
        k5 = list(rhs([
            yi + h * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
            for yi, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)
        ]))
        calls = 5
        k6 = list(rhs([
            yi + h * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
            for yi, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)
        ]))
        calls = 6
        # FSAL: the last stage's input is the fifth-order solution
        y_new = [
            yi + h * (a71 * p1 + a72 * p2 + a73 * p3 + a74 * p4 + a75 * p5 + a76 * p6)
            for yi, p1, p2, p3, p4, p5, p6 in zip(y, k1, k2, k3, k4, k5, k6)
        ]
        k7 = list(rhs(y_new))
    except EvaluationDomainError:
        return calls, None, None, None
    if not (_all_finite(y_new) and _all_finite(k7)):
        return 6, None, None, None
    err = _rms([
        h * (e1 * p1 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7)
        / (tolerance + tolerance * max(abs(yi), abs(zi)))
        for yi, zi, p1, p2, p3, p4, p5, p6, p7 in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7)
    ])
    return 6, y_new, k7, err


def integrate_ivp(rhs, y0, span, tolerance: float = 1e-10) -> OdeTrajectory:
    """Integrate y' = rhs(y) over span = (t0, t1) with local error <= tolerance.

    rhs is autonomous: it takes the state as a list of Python floats and
    returns a sequence of floats (a list, a tuple or a 1-d array; it may
    reuse one buffer).  It raises EvaluationDomainError outside its domain,
    and that is the only domain signal: at y0 the error propagates, and a
    step whose stage raises it, or whose result is not finite, is rejected
    and retried at half the size; when the step then underflows,
    DomainExitError reports the last accepted node (its state as an array).
    """
    t0, t1 = float(span[0]), float(span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"span must be finite, got ({t0}, {t1})")
    if not t1 > t0:
        raise ValueError("span must satisfy t1 > t0")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError("state must be one-dimensional")
    y = y.tolist()
    # a copy: f is the first stage of every attempt, and rhs may reuse its buffer
    f = list(rhs(y))
    if not _all_finite(f):
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
    sc = [tolerance + tolerance * abs(yi) for yi in y]
    d0 = _rms([yi / si for yi, si in zip(y, sc)])
    d1 = _rms([fi / si for fi, si in zip(f, sc)])
    h = 0.01 * d0 / d1 if d1 > 1e-300 else (t1 - t0) / 100.0
    h = min(max(h, 1e-10), t1 - t0)

    t = t0
    left_domain = False  # a step was rejected by the domain signal since the last node

    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if len(steps) >= MAX_STEPS:
            raise IterationLimitError(f"integration exceeded {MAX_STEPS} steps")
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if left_domain:
                raise DomainExitError(
                    f"integration left the domain near t = {t:.12g}",
                    t_exit=t,
                    state=np.array(y),
                    trajectory=trajectory(),
                )
            raise StiffnessError(f"step size underflow at t = {t:.12g}")
        calls, y_new, f_new, err = _dp_step(rhs, y, f, h, tolerance)
        rhs_calls += calls
        if y_new is None:
            rejected += 1
            left_domain = True
            h *= 0.5
            continue
        if err <= 1.0:
            t += h
            y = y_new
            f = f_new
            ts.append(t)
            states.append(y)  # y_new and f_new are fresh lists on every attempt
            derivs.append(f)
            steps.append(h)
            left_domain = False
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)

    return trajectory()
