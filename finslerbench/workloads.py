"""The benchmark's three workloads: structures, inputs, one op, and its checks.

Every op is one public finslerlab call.  Its inputs are a pure function of
the run seed and the op index, and its output is checked against an answer
computed here, independently of the library: closed-form ball distances, the
exact Randers distance for a closed one-form, and the known Einstein
constants.

A check is a tuple ``(name, error, tolerance)``; it passes when
``error <= tolerance``.
"""

from __future__ import annotations

import math

import numpy as np

KLEIN2 = {"family": "klein_ball", "dimension": 2}
KLEIN3 = {"family": "klein_ball", "dimension": 3}
FUNK2 = {"family": "funk_ball", "dimension": 2}
# g = diag(1 + 0.3 x2^2, 1 + 0.3 x1^2), the README's example
RIEMANN2 = {
    "family": "riemannian",
    "dimension": 2,
    "riemannian": {
        "metric": [
            [[[1.0, 0, 0], [0.3, 0, 2]], [[0.0, 0, 0]]],
            [[[0.0, 0, 0]], [[1.0, 0, 0], [0.3, 2, 0]]],
        ]
    },
}
# a = I and beta = df with f = 0.15 (x1^2 - x2^2): straight lines are the
# geodesics and d_F(p, q) = |q - p| + f(q) - f(p).
RANDERS2 = {
    "family": "randers",
    "dimension": 2,
    "randers": {
        "metric": [[[[1.0, 0, 0]], [[0.0, 0, 0]]], [[[0.0, 0, 0]], [[1.0, 0, 0]]]],
        "one_form": [[[0.3, 1, 0]], [[-0.3, 0, 1]]],
    },
}

DISTANCE_TOL = 1e-6  # acceptance criterion 8: boundary-value distance vs cross-ratio
RANDERS_TOL = 1e-8
LEMMA2_SLACK = 1e-6  # theorem1_verify's own margin threshold

# A run's op seeds are seed * OP_STRIDE + index.  Warm-up ops use WARMUP_SEED,
# which no run seed reaches, so set-up does the same work at every seed.
OP_STRIDE = 1_000_000
WARMUP_SEED = 2**40


def op_seed(seed: int, index: int) -> int:
    return seed * OP_STRIDE + index


# ----- independent answers ---------------------------------------------------


def _chord_hits(p, q):
    """Parameters t- < 0 < 1 < t+ where p + t (q - p) meets the unit sphere."""
    d = q - p
    dd, pd, pp = float(d @ d), float(p @ d), float(p @ p)
    root = math.sqrt(pd * pd - dd * (pp - 1.0))
    return (-pd - root) / dd, (-pd + root) / dd


def klein_distance(p, q) -> float:
    """Hilbert metric of the unit ball: half the log of the cross-ratio."""
    t_minus, t_plus = _chord_hits(p, q)
    return 0.5 * math.log((1.0 - t_minus) * t_plus / ((-t_minus) * (t_plus - 1.0)))


def funk_distance_ball(p, q) -> float:
    """Funk metric of the unit ball: log of the distance ratio to the forward hit."""
    _, t_plus = _chord_hits(p, q)
    return math.log(t_plus / (t_plus - 1.0))


def randers_exact(p, q) -> float:
    def f(x):
        return 0.15 * (x[0] ** 2 - x[1] ** 2)

    return float(np.linalg.norm(q - p)) + f(q) - f(p)


# ----- workloads --------------------------------------------------------------


class BallTheorem1:
    """theorem1_verify with one pair on each of three Einstein balls.

    One op is a round of three calls, one per ball.  A single call's latency
    is bimodal (the chord shot either hits at once or needs a golden-section
    refinement) and differs between the balls, so the median of single calls
    jumped between clusters: its quartile spread over five seeds was 28 % of
    the median.  A round's latency is a sum of three and has one mode.
    """

    name = "ball_theorem1"
    # (label, config, closed-form distance, theorem tolerance of criterion 5)
    CASES = (
        ("klein_ball2", KLEIN2, klein_distance, 1e-4),
        ("funk_ball2", FUNK2, funk_distance_ball, 1e-3),
        ("klein_ball3", KLEIN3, klein_distance, 1e-4),
    )
    trace_ops = 2

    def setup(self, fl):
        self.fl = fl
        self.gauge = fl.projective.FunkGauge(k=1.0)
        self.cases = []
        for label, config, exact, tol in self.CASES:
            S = fl.metrics.make_metric(config)
            report = fl.curvature.einstein_classify(S, x_samples=6, seed=0)
            if report.einstein_constant_c is None:
                raise RuntimeError(f"{label}: set-up Einstein report found no constant")
            self.cases.append((label, S, report, exact, tol))
        self.structures = [case[1] for case in self.cases]

    def warm_up(self):
        return self.run_op(0, WARMUP_SEED)

    def run_op(self, index: int, seed: int):
        checks = []
        for k, (label, S, report, exact, tol) in enumerate(self.cases):
            rep = self.fl.projective.theorem1_verify(
                S, self.gauge, pairs=1, seed=len(self.cases) * seed + k, tolerance=tol,
                einstein=report,
            )
            rec = rep.records[0]
            want = exact(np.asarray(rec["p"]), np.asarray(rec["q"]))
            checks += [
                (f"{label} passed", 0.0 if rep.passed else 1.0, 0.0),
                (f"{label} |d_M discrepancy|", rec["discrepancy"], tol),
                (f"{label} lemma2 deficit", max(0.0, -rec["lemma2_margin"]), LEMMA2_SLACK),
                (f"{label} |d_F - closed form|", abs(rec["d_F"] - want), DISTANCE_TOL),
            ]
        return checks


class RandersDistance:
    """finsler_distance on the Randers metric, which has no closed-form spray."""

    name = "randers_distance"
    LENGTH = 0.2  # every pair is this far apart in d_F
    MID_RADIUS = 0.4
    trace_ops = 2

    def setup(self, fl):
        self.fl = fl
        self.S = fl.metrics.make_metric(RANDERS2)
        self.structures = [self.S]

    def warm_up(self):
        """A short fixed distance: it builds the same jet tables as an op."""
        return self.check(np.zeros(2), np.array([0.05, 0.02]))

    def pair(self, seed: int):
        """p, q = m -+ (t/2) u around a random midpoint m, with d_F(p, q) = LENGTH.

        Along the chord, f(q) - f(p) = 0.3 t (m1 u1 - m2 u2), so
        d_F = t (1 + 0.3 (m1 u1 - m2 u2)) fixes t.
        """
        rng = np.random.default_rng(seed)
        r = self.MID_RADIUS * math.sqrt(rng.uniform())
        a, b = rng.uniform(0.0, 2.0 * math.pi, size=2)
        m = r * np.array([math.cos(a), math.sin(a)])
        u = np.array([math.cos(b), math.sin(b)])
        t = self.LENGTH / (1.0 + 0.3 * (m[0] * u[0] - m[1] * u[1]))
        return m - 0.5 * t * u, m + 0.5 * t * u

    def run_op(self, index: int, seed: int):
        return self.check(*self.pair(seed))

    def check(self, p, q):
        res = self.fl.geodesics.finsler_distance(self.S, p, q)
        return [("randers2 |d_F - exact|", abs(res.distance - randers_exact(p, q)), RANDERS_TOL)]


class CurvatureSurvey:
    """einstein_classify with default sampling, round-robin over five metrics."""

    name = "curvature_survey"
    # (label, config, expected c or None, tolerance of criterion 4); the Randers
    # case instead checks that the metric is classified as not Einstein.
    CASES = (
        ("klein_ball2", KLEIN2, 1.0, 1e-4),
        ("klein_ball3", KLEIN3, math.sqrt(2.0), 1e-4),
        ("funk_ball2", FUNK2, 0.5, 1e-3),
        ("riemannian2", RIEMANN2, None, 0.0),
        ("randers2", RANDERS2, None, 0.0),
    )
    trace_ops = 5

    def setup(self, fl):
        self.fl = fl
        self.cases = [
            (label, fl.metrics.make_metric(config), c, tol) for label, config, c, tol in self.CASES
        ]
        self.structures = [case[1] for case in self.cases]

    def warm_up(self):
        """One untimed op per structure."""
        return [c for index in range(len(self.cases)) for c in self.run_op(index, WARMUP_SEED)]

    def run_op(self, index: int, seed: int):
        label, S, c_want, tol = self.cases[index % len(self.cases)]
        rep = self.fl.curvature.einstein_classify(S, seed=seed)
        c = rep.einstein_constant_c
        if label == "randers2":
            return [(f"{label} not Einstein", 1.0 if rep.is_einstein else 0.0, 0.0)]
        if c_want is None:
            return [(f"{label} c is None", 0.0 if c is None else 1.0, 0.0)]
        return [(f"{label} |c - c_exact|", math.inf if c is None else abs(c - c_want), tol)]


WORKLOADS = {w.name: w for w in (BallTheorem1, RandersDistance, CurvatureSurvey)}
