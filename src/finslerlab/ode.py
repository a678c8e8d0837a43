"""Adaptive explicit Runge-Kutta 8(5,3) integration on Python floats.

The integrator is DOP853 (Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, sections II.5 and II.6): an eighth-order step of
twelve stages with FSAL, Hairer's error norm built from its fifth- and
third-order estimates, and a seventh-order interpolant between accepted
steps.  The state is stepped as a list of Python floats: the right-hand
side takes a list of floats and returns a sequence of floats, and the stage
sums, the finiteness check and the error norm are plain float arithmetic.
The trajectory's ndarrays are built once, when the integration ends.

Each row of scipy's tableau becomes one function per state length m,
built from source on the first integration of that length, as namedtuple
builds its classes: the state and every stage the row reads are unpacked
into local names, and each of the m components is written out as
y_i + h * (w_a * k_a_i + w_b * k_b_i + ...) over the row's nonzero weights,
as float literals, added left to right from the first product.  That is
the arithmetic of the sum written out by hand on every Python version
(sum() of floats compensates since 3.12).  Past 32 components a row is
one loop over i with the same sum, since written-out rows for m = 6000
took 6.4 s and about 250 MB to build.  The step runs eleven stage rows,
the solution row and two error rows; the interpolant's three extra stages
and four coefficient rows are built the same way, 21 rows in about 6 ms for
m = 4.  One row for every length, a list comprehension over
zip(y, k_a, k_b, ...), was measured against them and replaced: at m = 4
the eleventh stage row took 2.9 us against 1.1 us, and the solution row
1.8 us against 1.1 us (2 shared cores, Python 3.11).  scipy's tableau
is read on first use too, so importing this module does not load scipy.

The right-hand side owns its domain: a stage that raises
EvaluationDomainError, or a result that is not finite, is one more reason
to reject a step, as a too-large error estimate is.  The step is halved
and retried, so a solution that stays inside is followed up to the
domain's boundary.  When a step rejected that way shrinks below
tolerance * max(1, |t|), DomainExitError carries the last accepted node and
the trajectory up to it; an underflow from the error estimate alone raises
StiffnessError instead of looping forever, and so does a tolerance so small
that the starting step's error norm overflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainExitError,
    EvaluationDomainError,
    IterationLimitError,
    StiffnessError,
)


_UNROLL_MAX = 32  # the longest state whose rows are written out component by component


def _row(weights, m: int):
    """One tableau row for states of length m: (y, h, k) -> [y_i + h * sum_j weights_j k[j]_i].

    Only the nonzero weights enter, as repr literals, summed left to right.
    Up to _UNROLL_MAX components, the state and each stage the row reads are
    unpacked into local names and each component is written out; a longer
    state gets one loop over its components, so the source does not grow
    with m.
    """
    terms = [(repr(weights[j].item()), j) for j in np.flatnonzero(weights).tolist()]
    if m <= _UNROLL_MAX:
        lines = ["".join(f"y_{i}, " for i in range(m)) + "= y"]
        lines += ["".join(f"k{j}_{i}, " for i in range(m)) + f"= k[{j}]" for _, j in terms]
        sums = [" + ".join(f"{w} * k{j}_{i}" for w, j in terms) for i in range(m)]
        lines.append("return [" + ", ".join(f"y_{i} + h * ({total})" for i, total in enumerate(sums)) + "]")
    else:
        lines = [f"k{j} = k[{j}]" for _, j in terms]
        total = " + ".join(f"{w} * k{j}[i]" for w, j in terms)
        lines.append(f"return [y[i] + h * ({total}) for i in range({m})]")
    namespace = {}
    exec("def row(y, h, k):\n" + "\n".join("    " + line for line in lines), namespace)
    return namespace["row"]


class _Tableau(NamedTuple):
    """DOP853's rows for one state length, each a function (y, h, k) -> list."""

    stages: tuple
    solution: Callable
    error5: Callable
    error3: Callable
    extra_stages: tuple
    dense: tuple


@functools.cache
def _tableau(m: int) -> _Tableau:
    """The rows for states of length m, built on first use of that length.

    The right-hand side is autonomous, so the stage nodes c_s are not
    needed.  Stages 1..11 of the step, its eighth-order solution and two
    error estimates (no weight on the FSAL stage, number 12), then the
    interpolant's extra stages 13..15 and four highest coefficients;
    tests/oracles.py checks them against dense products over the full
    tableau.  scipy's coefficients are imported here, so scipy loads on the
    first integration and not with the package.
    """
    from scipy.integrate._ivp import dop853_coefficients as _dop

    return _Tableau(
        stages=tuple(_row(_dop.A[s, :s], m) for s in range(1, _dop.N_STAGES)),
        solution=_row(_dop.B, m),
        error5=_row(_dop.E5, m),
        error3=_row(_dop.E3, m),
        extra_stages=tuple(
            _row(_dop.A[s, :s], m) for s in range(_dop.N_STAGES + 1, _dop.N_STAGES_EXTENDED)
        ),
        dense=tuple(_row(weights, m) for weights in _dop.D),
    )


MAX_STEPS = 200_000


@dataclass
class OdeTrajectory:
    """Accepted integration nodes plus enough data for dense evaluation.

    rhs_calls counts every right-hand-side evaluation, those the
    interpolant makes when it is first used included; steps_rejected every
    attempted step that was not accepted (over tolerance, or a stage off the
    domain or not finite).  stages[i] holds step i's twelve stages k0..k11,
    and rhs is the right-hand side, which the interpolant calls again.
    """

    ts: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    steps: np.ndarray
    stages: list = field(repr=False)
    rhs: Callable = field(repr=False)
    tolerance: float
    rhs_calls: int = 0
    steps_rejected: int = 0
    _interpolants: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def __call__(self, t):
        """The state at t: exact at the nodes, DOP853's interpolant between them."""
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
        if t == ts[i]:
            return self.states[i].copy()
        rows = self._interpolants.get(i)
        if rows is None:
            rows = self._interpolants[i] = self._interpolant(i)
        x = (t - ts[i]) / self.steps[i]
        acc = np.zeros(self.states.shape[1])
        for r in range(len(rows) - 1, -1, -1):
            acc = (acc + rows[r]) * (x if r % 2 == 0 else 1.0 - x)
        return self.states[i] + acc

    def _interpolant(self, i: int) -> np.ndarray:
        """Step i's interpolant coefficients, row r weighing x or 1 - x by parity.

        The first three rows make the cubic Hermite interpolant of the two
        nodes.  The other four take three more stages, counted in
        rhs_calls; when one of them raises EvaluationDomainError or is not
        finite, the step keeps the cubic.
        """
        h = float(self.steps[i])
        y0, f0, f1 = self.states[i], self.derivs[i], self.derivs[i + 1]
        dy = self.states[i + 1] - y0
        rows = [dy, h * f0 - dy, 2.0 * dy - h * (f1 + f0)]
        stages = self.stages[i] + [f1.tolist()]
        y = y0.tolist()
        tableau = _tableau(len(y))
        try:
            for row in tableau.extra_stages:
                self.rhs_calls += 1
                stages.append(list(self.rhs(row(y, h, stages))))
        except EvaluationDomainError:
            return np.array(rows)
        if not all(map(_all_finite, stages)):
            return np.array(rows)
        zero = [0.0] * len(y)
        rows += [row(zero, h, stages) for row in tableau.dense]
        return np.array(rows)


def _rms(values) -> float:
    return math.sqrt(math.fsum([v * v for v in values]) / len(values))


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def _step(rhs, y, f, h, tolerance):
    """One DOP853 attempt of size h from the state y, where f = rhs(y).

    Returns (calls, y_new, f_new, err, stages): the right-hand-side calls
    made, the eighth-order solution, its derivative (the FSAL stage, reused
    as the next step's first), Hairer's error norm in units of
    tolerance * (1 + max(|y_i|, |y_new_i|)) and the twelve stages k0..k11.
    Over tolerance (err > 1) the FSAL stage is not evaluated and f_new is
    None; y_new, f_new, err and stages are all None when a stage raised
    EvaluationDomainError or y_new or f_new is not finite.  Every stage is
    copied into a fresh list, so a right-hand side may reuse the buffer it
    returns.
    """
    tableau = _tableau(len(y))
    k = [f]  # f is no call of this attempt: len(k) counts the calls made, a raising one included
    try:
        for row in tableau.stages:
            k.append(list(rhs(row(y, h, k))))
    except EvaluationDomainError:
        return len(k), None, None, None, None
    y_new = tableau.solution(y, h, k)
    if not _all_finite(y_new):
        return 11, None, None, None, None
    # the error estimates as plain sums: 0.0 + 1.0 * s differs from s only
    # in the sign of a zero, which squaring drops
    zero = [0.0] * len(y)
    sq5 = sq3 = 0.0
    for yi, zi, e5, e3 in zip(y, y_new, tableau.error5(zero, 1.0, k), tableau.error3(zero, 1.0, k)):
        scale = tolerance + tolerance * max(abs(yi), abs(zi))
        sq5 += (e5 / scale) ** 2
        sq3 += (e3 / scale) ** 2
    err = 0.0 if sq5 == 0.0 else abs(h) * sq5 / math.sqrt((sq5 + 0.01 * sq3) * len(y))
    if not err <= 1.0:
        return 11, y_new, None, err, k
    try:
        f_new = list(rhs(y_new))
    except EvaluationDomainError:
        return 12, None, None, None, None
    if not _all_finite(f_new):
        return 12, None, None, None, None
    return 12, y_new, f_new, err, k


def integrate_ivp(rhs, y0, span, tolerance: float = 1e-10) -> OdeTrajectory:
    """Integrate y' = rhs(y) over span = (t0, t1) with local error <= tolerance.

    rhs is autonomous: it takes the state as a list of Python floats and
    returns a sequence of floats (a list, a tuple or a 1-d array; it may
    reuse one buffer).  It raises EvaluationDomainError outside its domain,
    and that is the only domain signal: at y0 the error propagates, and a
    step whose stage raises it, or whose result is not finite, is rejected
    and retried at half the size; once the step is below
    tolerance * max(1, |t|), DomainExitError reports the last accepted node
    (its state as an array).  The trajectory keeps rhs, and its dense
    output calls it again, three times per step on first use.
    """
    t0, t1 = float(span[0]), float(span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"span must be finite, got ({t0}, {t1})")
    if not t1 > t0:
        raise ValueError("span must satisfy t1 > t0")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
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
    stages: list[list[list[float]]] = []
    rhs_calls = 1
    rejected = 0

    def trajectory() -> OdeTrajectory:
        arrays = (np.asarray(ts), np.asarray(states), np.asarray(derivs), np.asarray(steps))
        return OdeTrajectory(*arrays, stages, rhs, tolerance, rhs_calls, rejected)

    # Hairer's starting step: h0 from the sizes of y and f, then h1 from the
    # change of f over one Euler step of size h0 (one more rhs call).
    sc = [tolerance + tolerance * abs(yi) for yi in y]
    d0 = _rms([yi / si for yi, si in zip(y, sc)])
    d1 = _rms([fi / si for fi, si in zip(f, sc)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0)
    if not h0 > 0.0:
        # (y / sc)^2 or (f / sc)^2 overflowed: inf / inf or d0 / inf
        raise StiffnessError(f"no usable starting step at tolerance {tolerance:g}: the error norm overflows")
    rhs_calls += 1
    try:
        f1 = list(rhs([yi + h0 * fi for yi, fi in zip(y, f)]))
    except EvaluationDomainError:
        f1 = None
    if f1 is not None and _all_finite(f1):
        d2 = _rms([(a - b) / si for a, b, si in zip(f1, f, sc)]) / h0
        dmax = max(d1, d2)
        h1 = max(1e-6, 1e-3 * h0) if dmax <= 1e-15 else (0.01 / dmax) ** (1.0 / 8.0)
        h = min(100.0 * h0, h1, t1 - t0)
    else:
        # the probe point is refused: fall back to the curvature-free guess
        h = 0.01 * d0 / d1 if d1 > 1e-300 else (t1 - t0) / 100.0
        h = min(max(h, 1e-10), t1 - t0)

    t = t0
    left_domain = False  # a step was rejected by the domain signal since the last node
    step_rejected = False  # any rejection since the last node: the next step may not grow

    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if len(steps) >= MAX_STEPS:
            raise IterationLimitError(f"integration exceeded {MAX_STEPS} steps")
        h = min(h, t1 - t)
        floor = max(1.0, abs(t))
        if h < 1e-14 * floor or (left_domain and h < tolerance * floor):
            if left_domain:
                raise DomainExitError(
                    f"integration left the domain near t = {t:.12g}",
                    t_exit=t,
                    state=np.array(y),
                    trajectory=trajectory(),
                )
            raise StiffnessError(f"step size underflow at t = {t:.12g}")
        calls, y_new, f_new, err, k = _step(rhs, y, f, h, tolerance)
        rhs_calls += calls
        if y_new is None:
            rejected += 1
            left_domain = step_rejected = True
            h *= 0.5
            continue
        if f_new is None:
            rejected += 1
            step_rejected = True
            h *= max(0.2, 0.9 * err ** -0.125)
            continue
        t += h
        y = y_new
        f = f_new
        ts.append(t)
        states.append(y)  # y_new and f_new are fresh lists on every attempt
        derivs.append(f)
        steps.append(h)
        stages.append(k)
        factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
        if step_rejected:
            factor = min(1.0, factor)
        h *= factor
        left_domain = step_rejected = False

    return trajectory()
