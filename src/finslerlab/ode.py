"""Adaptive explicit Runge-Kutta 8(5,3) integration on Python floats.

The integrator is DOP853 (Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, sections II.5 and II.6): an eighth-order step of
twelve stages with FSAL, Hairer's error norm built from its fifth- and
third-order estimates, and a seventh-order interpolant between accepted
steps.  The state is stepped as a list of Python floats: the right-hand
side takes a list of floats and returns a sequence of floats, and the stage
sums, the finiteness check and the error norm are plain float arithmetic.
The trajectory's ndarrays are built once, when the integration ends.

The attempt is one function per state length m, compiled by codegen.emit
on the first integration of that length, as namedtuple builds its classes:
the state and every stage component are local names, and each of the
eleven stage states and the solution is written out as
y_i + h * (w_a * k_a_i + w_b * k_b_i + ...) over its row's nonzero weights,
as float literals, added left to right from the first product (the error
estimates as the bare sums).  That is
the arithmetic of the sum written out by hand on every Python version
(sum() of floats compensates since 3.12).  Past 32 components each row is
one comprehension over i with the same sum, since written-out rows for
m = 6000 took 6.4 s and about 250 MB to build.  The interpolant's three
extra stages and four coefficient rows come from the same emitter.  An
attempt at m = 4 took 12-15 us against 17-18 us for one function per row
called in a loop, each unpacking again every stage it read (2 shared
cores, Python 3.11).

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
from typing import Callable

import numpy as np

from .codegen import emit
from .errors import (
    DomainExitError,
    EvaluationDomainError,
    IterationLimitError,
    StiffnessError,
)


_UNROLL_MAX = 32  # the longest state whose rows are written out component by component
_NAMESPACE = {"EvaluationDomainError": EvaluationDomainError, "isfinite": math.isfinite, "sqrt": math.sqrt}


# DOP853's coefficients (Hairer's dop853.f; scipy.integrate ships the same
# table) as shortest float literals, each row {stage: weight} over its
# nonzero weights in stage order.
# _A[s] makes stage s from the stages before it: rows 1..11 are the step's,
# row 12 is the eighth-order solution and rows 13..15 are the interpolant's
# extra stages.  _E5 and _E3 weigh the fifth- and third-order error
# estimates (_E3 is the solution's weights less the third-order ones, folded
# to floats), and _D the interpolant's four highest coefficients.  The
# right-hand side is autonomous, so the nodes c_s are not needed.
_A = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
     6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843, 5: 21.230051448181193,
     6: 15.279233632882423, 7: -33.28821096898486, 8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
     6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: 0.3111643669578199, 9: -0.1521609496625161, 10: 0.20136540080403034,
     11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
     8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
     14: -9.15095847217987},
)
_E5 = {
    0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502, 7: 1.6643771824549864,
    8: -0.35032884874997366, 9: 0.3341791187130175, 10: 0.08192320648511571, 11: -0.022355307863886294,
}
_E3 = {
    0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
    8: -0.4226823213237919, 9: -0.1521609496625161, 10: 0.20136540080403034, 11: 0.02265179219836082,
}
_D = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
     8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
     12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356,
     15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
     8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398, 11: -9.332130526430229,
     12: 15.697238121770845, 13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
     8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
     12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
     8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
     12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544,
     15: -149.72683625798564},
)


class _Emitter:
    """Source text for the vectors of one state length m.

    Up to _UNROLL_MAX components a vector v lives in the local names
    v_0 .. v_{m-1}, and a vector expression is a list display with every
    component written out; past it, v is a list and a vector expression is
    one comprehension over i, so the source does not grow with m.
    """

    def __init__(self, m: int):
        self.m, self.unrolled = m, m <= _UNROLL_MAX

    def entry(self, name: str, i) -> str:
        return f"{name}_{i}" if self.unrolled else f"{name}[{i}]"

    def vector(self, component) -> str:
        if self.unrolled:
            return "[" + ", ".join(component(i) for i in range(self.m)) + "]"
        return f"[{component('i')} for i in range({self.m})]"

    def bind(self, name: str, value: str) -> str:
        """Copy the sequence value into the vector name."""
        if self.unrolled:
            return "".join(f"{name}_{i}, " for i in range(self.m)) + f"= {value}"
        return f"{name} = list({value})"

    def listed(self, name: str) -> str:
        """The vector name as a fresh list."""
        return self.vector(lambda i: self.entry(name, i)) if self.unrolled else name

    def finite(self, names) -> str:
        if self.unrolled:
            return " and ".join(f"isfinite({v}_{i})" for v in names for i in range(self.m))
        return " and ".join(f"all(map(isfinite, {v}))" for v in names)

    def stage_sum(self, weights: dict, i) -> str:
        """w_a * k_a_i + w_b * k_b_i + ... over the nonzero weights, repr literals in stage order."""
        return " + ".join(f"{w!r} * {self.entry(f'k{j}', i)}" for j, w in weights.items())

    def row(self, weights: dict, base: str = "y") -> str:
        """The vector base + h * (stage sum), its components from 0.0 when base is None."""
        return self.vector(
            lambda i: f"{'0.0' if base is None else self.entry(base, i)} + h * ({self.stage_sum(weights, i)})"
        )

    def stages(self, first: int, last: int, refused) -> list:
        """Each stage first..last bound from rhs at its row's state; refused(s) is the return of a refusal."""
        lines = []
        for s in range(first, last + 1):
            lines += ["try:", f"    {self.bind(f'k{s}', f'rhs({self.row(_A[s])})')}",
                      "except EvaluationDomainError:", f"    return {refused(s)}"]
        return lines


@functools.cache
def _attempt(m: int):
    """DOP853's attempt for states of length m.

    (rhs, y, f, h, tolerance) -> (calls, y_new, f_new, err, stages), built
    from source on the first integration of that length, as namedtuple
    builds its classes: the calls made, the eighth-order solution, its
    derivative (the FSAL stage, reused as the next step's first), Hairer's
    error norm in units of tolerance * (1 + max(|y_i|, |y_new_i|)) and the
    twelve stages k0..k11, f itself first and then fresh lists.  Over tolerance (err > 1) the FSAL
    stage is not evaluated and f_new is None; y_new, f_new, err and stages
    are all None when a stage raised EvaluationDomainError (calls counts the
    raising one) or y_new or f_new is not finite.  The right-hand side may
    reuse the buffer it returns: each stage is copied as it comes.

    The error estimates are bare stage sums: the row form 0.0 + 1.0 * s
    differs from s only in the sign of a zero, which squaring drops, and
    the squares, never -0.0, sum to the same bits from their first as from
    0.0.
    """
    e = _Emitter(m)
    k = "[f, " + ", ".join(e.listed(f"k{s}") for s in range(1, 12)) + "]"
    lines = [e.bind("y", "y"), e.bind("k0", "f")]
    lines += e.stages(1, 11, lambda s: f"{s}, None, None, None, None")
    lines += [f"y_new = {e.row(_A[12])}", e.bind("z", "y_new"),
              f"if not ({e.finite(['z'])}):", "    return 11, None, None, None, None"]
    if e.unrolled:
        for i in range(m):
            lines.append(f"sc_{i} = tolerance + tolerance * max(abs(y_{i}), abs(z_{i}))")
        for name, weights in (("sq5", _E5), ("sq3", _E3)):
            squares = [f"(({e.stage_sum(weights, i)}) / sc_{i}) ** 2" for i in range(m)]
            lines.append(f"{name} = " + " + ".join(squares))
    else:
        lines += ["sq5 = sq3 = 0.0", f"for i in range({m}):",
                  "    sc = tolerance + tolerance * max(abs(y[i]), abs(z[i]))",
                  f"    sq5 += (({e.stage_sum(_E5, 'i')}) / sc) ** 2",
                  f"    sq3 += (({e.stage_sum(_E3, 'i')}) / sc) ** 2"]
    lines += [f"err = 0.0 if sq5 == 0.0 else abs(h) * sq5 / sqrt((sq5 + 0.01 * sq3) * {m})",
              "if not err <= 1.0:", f"    return 11, y_new, None, err, {k}",
              "try:", "    f_new = list(rhs(y_new))", "except EvaluationDomainError:",
              "    return 12, None, None, None, None",
              "if not all(map(isfinite, f_new)):", "    return 12, None, None, None, None",
              f"return 12, y_new, f_new, err, {k}"]
    return emit("attempt(rhs, y, f, h, tolerance)", lines, _NAMESPACE, f"dop853 attempt m={m}")


@functools.cache
def _dense(m: int):
    """The interpolant's rows for states of length m, (rhs, y, h, k) -> (calls, rows).

    k holds a step's thirteen stages k0..k12; the three extra stages 13..15
    are evaluated from it, and rows are DOP853's four highest interpolant
    coefficients, or None when an extra stage raised EvaluationDomainError
    or any stage is not finite.  calls counts the extra stages' calls, a
    raising one included.
    """
    e = _Emitter(m)
    lines = [e.bind("y", "y")] + [e.bind(f"k{j}", f"k[{j}]") for j in range(13)]
    lines += e.stages(13, 15, lambda s: f"{s - 12}, None")
    lines += [f"if not ({e.finite([f'k{j}' for j in range(16)])}):", "    return 3, None"]
    lines.append("return 3, [" + ", ".join(e.row(weights, None) for weights in _D) + "]")
    return emit("dense(rhs, y, h, k)", lines, _NAMESPACE, f"dop853 dense m={m}")


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
        """The state at t: exact at the nodes, DOP853's interpolant between them.

        A scalar t gives the state as a fresh array of shape (m,), a float
        (a numpy float64 is one) with no array of times built around it; a
        1-d array of times gives one row per time.
        """
        if isinstance(t, float):
            return self._eval_one(t)
        ts = np.asarray(t, dtype=float)
        if ts.ndim == 0:
            return self._eval_one(float(ts))
        out = np.empty((ts.size, self.states.shape[1]))
        for m, tv in enumerate(ts):
            out[m] = self._eval_one(tv)
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
        calls, dense = _dense(y0.size)(self.rhs, y0.tolist(), h, self.stages[i] + [f1.tolist()])
        self.rhs_calls += calls
        return np.array(rows if dense is None else rows + dense)


def _rms(values) -> float:
    return math.sqrt(math.fsum([v * v for v in values]) / len(values))


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def integrate_ivp(rhs, y0, span, tolerance: float = 1e-10) -> OdeTrajectory:
    """Integrate y' = rhs(y) over span = (t0, t1) with local error <= tolerance.

    y0 is a sequence of floats, best a list of Python floats: it is copied
    entry by entry, with no array built; a y0 that is not one-dimensional
    raises ValueError.  rhs is autonomous: it takes the state as a list of
    Python floats and returns a sequence of floats (a list, a tuple or a 1-d
    array; it may reuse one buffer).  It raises EvaluationDomainError
    outside its domain, and that is the only domain signal: at y0 the error
    propagates, and a step whose stage raises it, or whose result is not
    finite, is rejected and retried at half the size; once the step is below
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
    try:
        y = [float(v) for v in y0]
    except TypeError:  # y0 is a scalar, or an entry of it is not
        raise ValueError("state must be one-dimensional") from None
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

    attempt = _attempt(len(y))
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
        calls, y_new, f_new, err, k = attempt(rhs, y, f, h, tolerance)
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
