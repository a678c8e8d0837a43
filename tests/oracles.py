"""Closed-form reference values used to check the numerical pipelines.

Everything here is independent of the library's own evaluators: the ball
distances come from chord/boundary intersections and logarithms of ratios,
in floats and again at 50 digits in mpmath (chart_distance_50_digits),
the interval gauge from direct quadrature and its line element written out
(funk_gauge_value), the Klein fundamental tensor from
its closed form, the DOP853 step and interpolant from dense products over
scipy's tableau (and, bit for bit, row_step and row_dense: the same step and
rows as a loop of row_fold sums over it), derivatives from central differences with Richardson
extrapolation, Moebius fits from the nullspace of an incidence system.  The
exceptions are second routes through the library's own types:
- directional_derivatives and jet_log run the library's Jet arithmetic on
  seeded variables;
- fancy_mul, fancy_partial, fancy_restricted and per_column_analytic are the
  jet kernel written the plain way: gathers by fancy index, and series
  coefficients built by one Python call per batch column;
- path_length integrates F along a library Geodesic's dense output, or
  along a polyline or a cubic spline through samples;
- chart_reference writes the Klein, Funk and interval F^2 and spray out
  by hand over the library's _dot, _require_chart, jet_sqrt and jet_abs,
  and polynomial_reference the Riemannian and Randers ones over those and
  the library's Polynomial and invert_scalarlike_matrix;
- uncapped_spray_jet_functions runs a family's spray on jets that carry
  every base derivative, and invert_by_division divides each pivot-row
  entry by its jet pivot, computing one reciprocal per entry;
- riemann_formula is the curvature formula entry by entry on the library's
  spray jets, through jet partials, as riemann_values_per_entry and
  riemann_trace_jet_per_entry run it;
- flag_curvature_per_point is the flag-curvature formula at one flag over
  the library's FundamentalTensor.inner and riemann_curvature;
- construction_check_per_point evaluates the library's Polynomial tables
  one sample at a time;
- chain_legs counts the segments of a library Chain;
- the two per-point routes at the end, the Einstein classification and the
  projective-parameter solve, call the library's public single-point
  functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.interpolate import CubicSpline

from finslerlab import flag_curvature, fundamental_tensor, metrics, ricci_scalar, ricci_tensor, riemann_curvature
from finslerlab.errors import DegenerateFlagError, EvaluationDomainError, FinslerError
from finslerlab.geodesics import Geodesic, spray_from_f2_jets, spray_jet_functions
from finslerlab.jets import Jet, jet_abs, jet_space, jet_sqrt, scalar_value
from finslerlab.metrics import SAMPLING_RADIUS, _dot, _require_chart, _swap_pivots_per_column
from finslerlab.ode import integrate_ivp
from finslerlab.projective import PARAMETER_GRID, PARAMETER_TOLERANCE


def _chord_boundary_hits(p, q):
    """Intersections of the line through p, q with the unit sphere.

    Returns (P_minus, P_plus) where P_plus lies on the q-side of p
    (forward hit) and P_minus on the opposite side.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    dd = float(d @ d)
    pd = float(p @ d)
    pp = float(p @ p)
    disc = pd * pd - dd * (pp - 1.0)
    t_plus = (-pd + math.sqrt(disc)) / dd
    t_minus = (-pd - math.sqrt(disc)) / dd
    return p + t_minus * d, p + t_plus * d


def klein_distance(p, q) -> float:
    """Hilbert metric on the unit ball: half the log of the cross-ratio."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.allclose(p, q):
        return 0.0
    pm, pl = _chord_boundary_hits(p, q)
    num = np.linalg.norm(q - pm) * np.linalg.norm(pl - p)
    den = np.linalg.norm(p - pm) * np.linalg.norm(pl - q)
    return 0.5 * math.log(num / den)


def funk_distance_ball(p, q) -> float:
    """Funk metric on the unit ball: log of distances to the forward hit."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.allclose(p, q):
        return 0.0
    _, pl = _chord_boundary_hits(p, q)
    return math.log(np.linalg.norm(pl - p) / np.linalg.norm(pl - q))


def euclidean_distance(p, q) -> float:
    return float(np.linalg.norm(np.asarray(q, dtype=float) - np.asarray(p, dtype=float)))


def exact_randers_distance(p, q) -> float:
    """Distance of |y| + df(y) with f = 0.15 (x1^2 - x2^2) (conftest's exact_randers_config).

    An exact form adds f(q) - f(p) to the length of every path from p to q,
    so the geodesics stay straight and d_F(p, q) = |q - p| + f(q) - f(p).
    """

    def f(x):
        return 0.15 * (float(x[0]) ** 2 - float(x[1]) ** 2)

    return euclidean_distance(p, q) + f(q) - f(p)


def klein_fundamental_tensor(x, scale: float = 1.0) -> np.ndarray:
    """Klein ball g_ij = s^2 (D I + x x^T) / D^2 with D = 1 - |x|^2, the same for every y."""
    x = np.asarray(x, dtype=float)
    D = 1.0 - float(x @ x)
    return scale * scale * (D * np.eye(x.size) + np.outer(x, x)) / (D * D)


# ----- the chart families' F^2 and spray, written by hand ---------------------


def chart_reference(family: str, k: float = 1.0, scale: float = 1.0):
    """(f2, spray_fast) of the Klein ball, the Funk ball or the interval Funk metric.

    The closures the library generates from one source, written out as
    closures over _dot, _require_chart, jet_sqrt and jet_abs: they take
    floats, (B,) rows, object arrays or jets, and give the generated
    functions' bits.
    """
    if family == "klein_ball":
        s2 = scale * scale

        def f2(x, y):
            D = 1.0 - _dot(x, x)
            _require_chart(D)
            return s2 * (_dot(y, y) * D + _dot(x, y) ** 2) / (D * D)

        def spray_fast(x, y):
            D = 1.0 - _dot(x, x)
            _require_chart(D)
            P = _dot(x, y) / D
            return [P * y[i] for i in range(len(y))]

    elif family == "funk_ball":

        def f_raw(x, y):
            D = 1.0 - _dot(x, x)
            _require_chart(D)
            xy = _dot(x, y)
            rad = xy * xy + _dot(y, y) * D
            return (jet_sqrt(rad) + xy) / D

        def f2(x, y):
            F = f_raw(x, y)
            return (scale * scale) * F * F

        def spray_fast(x, y):
            F = f_raw(x, y)
            return [0.5 * F * y[i] for i in range(len(y))]

    elif family == "interval_funk":

        def f2(x, y):
            u = x[0]
            w = y[0]
            D = 1.0 - u * u
            _require_chart(D)
            F = (jet_abs(w) + u * w) / (k * D)
            return (scale * scale) * F * F

        def spray_fast(x, y):
            u = x[0]
            w = y[0]
            D = 1.0 - u * u
            _require_chart(D)
            return [0.5 * ((jet_abs(w) + u * w) / D) * w]

    else:
        raise ValueError(f"{family} is not a chart family")
    return f2, spray_fast


# ----- the Riemannian and Randers F^2 and spray, written by hand -------------


def _eval_table(table, x):
    return [[p(x) for p in row] for row in table]


def _quadratic_form(g, y):
    """g_ij y^i y^j, row by row."""
    total = 0.0
    for i in range(len(y)):
        row = 0.0
        for j in range(len(y)):
            row = row + g[i][j] * y[j]
        total = total + y[i] * row
    return total


def _levi_civita_spray(gpoly, n):
    """(x, y) -> (G^i, g, g^-1) for the Riemannian metric table gpoly.

    G^i = (1/4) g^il (2 d_k g_lj - d_l g_jk) y^j y^k, with the x-partials of
    the table taken once here.
    """
    dg = [[[gpoly[i][j].partial(l) for j in range(n)] for i in range(n)] for l in range(n)]

    def spray(x, y):
        _require_chart(1.0 - _dot(x, x))
        g = _eval_table(gpoly, x)
        ginv = metrics.invert_scalarlike_matrix(g)
        dgx = [_eval_table(dg[l], x) for l in range(n)]
        inner = []
        for l in range(n):
            acc = 0.0
            for j in range(n):
                for kk in range(n):
                    acc = acc + (2.0 * dgx[kk][l][j] - dgx[l][j][kk]) * y[j] * y[kk]
            inner.append(acc)
        out = []
        for i in range(n):
            acc = 0.0
            for l in range(n):
                acc = acc + ginv[i][l] * inner[l]
            out.append(0.25 * acc)
        return out, g, ginv

    return spray


def polynomial_reference(config):
    """(f2, spray_fast) of a parsed Riemannian or Randers MetricConfig.

    The closures the library generates from one source, written out over
    Polynomial.__call__, _dot, _require_chart, jet_sqrt and the library's
    invert_scalarlike_matrix: they take floats, (B,) rows, object arrays or
    jets, and give the generated functions' bits.
    """
    n = config.dimension
    if config.family == "riemannian":
        gpoly = config.metric
        s2 = config.scale * config.scale
        christoffel = _levi_civita_spray(gpoly, n)

        def f2(x, y):
            return s2 * _quadratic_form(_eval_table(gpoly, x), y)

        def spray_fast(x, y):
            return christoffel(x, y)[0]

        return f2, spray_fast
    if config.family != "randers":
        raise ValueError(f"{config.family} has no polynomial tables")
    apoly = config.metric
    bpoly = config.one_form
    scale = config.scale
    christoffel = _levi_civita_spray(apoly, n)
    db = [[bpoly[i].partial(j) for j in range(n)] for i in range(n)]  # db[i][j] = d_j b_i

    def f2(x, y):
        alpha = jet_sqrt(_quadratic_form(_eval_table(apoly, x), y))
        beta = 0.0
        for i in range(n):
            beta = beta + bpoly[i](x) * y[i]
        F = alpha + beta
        return (scale * scale) * F * F

    def spray_fast(x, y):
        Ga, a, ainv = christoffel(x, y)
        b = [p(x) for p in bpoly]
        J = _eval_table(db, x)
        Jy = [_dot(row, y) for row in J]
        s_lo = [0.5 * (Jy[i] - _dot([row[i] for row in J], y)) for i in range(n)]
        s_up = [_dot(row, s_lo) for row in ainv]
        alpha = jet_sqrt(_quadratic_form(a, y))
        beta = _dot(b, y)
        s_0 = _dot(b, s_up)
        e_00 = _dot(Jy, y) - 2.0 * _dot(b, Ga) + 2.0 * beta * s_0
        P = e_00 / (2.0 * (alpha + beta)) - s_0
        return [Ga[i] + P * y[i] + alpha * s_up[i] for i in range(n)]

    return f2, spray_fast


def interval_funk_quadrature(k: float, a: float, b: float) -> float:
    """Gauge distance on (-1, 1) by direct quadrature of the line element.

    The straight path from a to b has constant velocity sign(b - a); by
    1-homogeneity its length is |integral of L(u, sign) du from a to b|.
    """
    if a == b:
        return 0.0
    sign = 1.0 if b > a else -1.0

    def integrand(u):
        return (1.0 + u * sign) / (k * (1.0 - u * u))

    val, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13)
    return sign * val


def funk_gauge_value(gauge, u: float, y: float) -> float:
    """The gauge's line element L_f(u, y) = (|y| + u y) / (k (1 - u^2)), refused off I = (-1, 1)."""
    if not -1.0 < u < 1.0:
        raise EvaluationDomainError(f"gauge point {u} outside (-1, 1)")
    return (abs(y) + u * y) / (gauge.k * (1.0 - u * u))


def chain_legs(chain) -> int:
    """A chain's number of legs: one projective segment each."""
    return len(chain.segments)


def interval_funk_closed(k: float, a: float, b: float) -> float:
    """Directional closed form: (1/k)ln((1-a)/(1-b)) rightward, (1/k)ln((1+a)/(1+b)) leftward."""
    if b > a:
        return math.log((1.0 - a) / (1.0 - b)) / k
    if b < a:
        return math.log((1.0 + a) / (1.0 + b)) / k
    return 0.0


def chart_distance_50_digits(family: str, p, q, k: float = 1.0) -> float:
    """A chart family's closed-form distance at 50 digits, from the same float inputs, rounded once.

    The chord p + t (q - p) meets the sphere at t- < 0 < 1 < t+: Klein's
    distance is half the log of the cross-ratio (1 - t-) t+ / ((-t-)(t+ - 1)),
    the Funk ball's ln(t+ / (t+ - 1)).  The interval's is
    interval_funk_closed's formula.  Every operation runs in mpmath.
    """
    with mpmath.workdps(50):
        if family == "interval_funk":
            a, b = (mpmath.mpf(float(v[0])) for v in (p, q))
            value = mpmath.log((1 - a) / (1 - b) if b > a else (1 + a) / (1 + b)) / k
            return float(value)
        p, q = ([mpmath.mpf(float(v)) for v in x] for x in (p, q))
        d = [b - a for a, b in zip(p, q)]
        dd, pd, pp = (mpmath.fsum(u * v for u, v in zip(x, y)) for x, y in ((d, d), (p, d), (p, p)))
        root = mpmath.sqrt(pd * pd - dd * (pp - 1))
        t_minus, t_plus = (-pd - root) / dd, (-pd + root) / dd
        if family == "klein_ball":
            return float(mpmath.log((1 - t_minus) * t_plus / ((-t_minus) * (t_plus - 1))) / 2)
        return float(mpmath.log(t_plus / (t_plus - 1)))


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sections II.5 and II.6) on
# ndarrays: every stage sum is a dense product over the full tableau that
# scipy ships, zeros included, where the library sums the nonzero weights
# of each row one by one on Python floats (row_fold below is that sum).
_DOP_A = dop853_coefficients.A
_DOP_B = dop853_coefficients.B
_DOP_E5 = dop853_coefficients.E5
_DOP_E3 = dop853_coefficients.E3
_DOP_D = dop853_coefficients.D
_DOP_STAGES = dop853_coefficients.N_STAGES
_DOP_EXTENDED = dop853_coefficients.N_STAGES_EXTENDED


def dop853_step(rhs, y, f, h: float, tolerance: float):
    """One DOP853 attempt on ndarrays: (K, y_new, err_norm, err_scale).

    K is the (13, m) stage array, its last row f_new = rhs(y_new); y_new is
    the eighth-order solution and err_norm Hairer's norm
    |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) m) of the two embedded estimates
    K.T @ E5 and K.T @ E3 over tolerance * (1 + max(|y_i|, |y_new_i|)).
    Those estimates are cancellations, so the norm's rounding is relative
    to err_scale, |h| (rms(|E5| |K|) + 0.1 rms(|E3| |K|)) in the same
    units, not to itself.  rhs takes and returns 1-d arrays.
    """
    y = np.asarray(y, dtype=float)
    K = np.empty((_DOP_STAGES + 1, y.size))
    K[0] = f
    for s in range(1, _DOP_STAGES):
        K[s] = rhs(y + h * (K[:s].T @ _DOP_A[s, :s]))
    y_new = y + h * (K[:-1].T @ _DOP_B)
    K[-1] = rhs(y_new)
    scale = tolerance + tolerance * np.maximum(np.abs(y), np.abs(y_new))
    e5 = float(np.sum(((K.T @ _DOP_E5) / scale) ** 2))
    e3 = float(np.sum(((K.T @ _DOP_E3) / scale) ** 2))
    err = 0.0 if e5 == 0.0 else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * y.size)

    def rms(v):
        return math.sqrt(float(np.mean((v / scale) ** 2)))

    absK = np.abs(K).T
    err_scale = abs(h) * (rms(absK @ np.abs(_DOP_E5)) + 0.1 * rms(absK @ np.abs(_DOP_E3)))
    return K, y_new, err, err_scale


def row_fold(weights, y, stages, h: float) -> list[float]:
    """y + h * (w_a k_a + w_b k_b + ...) on Python floats, one entry at a time.

    The products are those of the nonzero weights in index order, and they
    are added left to right from the first one: the float arithmetic a
    tableau row's stage sum makes when it is written out by hand.
    """
    nonzero = [(j, float(w)) for j, w in enumerate(weights) if w != 0.0]
    out = []
    for i, yi in enumerate(y):
        total = None
        for j, w in nonzero:
            term = w * stages[j][i]
            total = term if total is None else total + term
        out.append(yi + h * total)
    return out


def row_step(rhs, y, f, h: float, tolerance: float):
    """One DOP853 attempt on Python floats, each tableau row a row_fold: (calls, y_new, f_new, err, stages).

    The library's generated attempt written as a loop over the rows, with
    the same returns: calls counts the right-hand-side calls, a raising one
    included; over tolerance f_new is None; all but calls are None when a
    stage raised EvaluationDomainError or y_new or f_new is not finite.
    """
    k = [f]
    try:
        for s in range(1, _DOP_STAGES):
            k.append(list(rhs(row_fold(_DOP_A[s, :s], y, k, h))))
    except EvaluationDomainError:
        return len(k), None, None, None, None
    y_new = row_fold(_DOP_B, y, k, h)
    if not all(map(math.isfinite, y_new)):
        return 11, None, None, None, None
    zero = [0.0] * len(y)
    sq5 = sq3 = 0.0
    for yi, zi, e5, e3 in zip(y, y_new, row_fold(_DOP_E5, zero, k, 1.0), row_fold(_DOP_E3, zero, k, 1.0)):
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
    if not all(map(math.isfinite, f_new)):
        return 12, None, None, None, None
    return 12, y_new, f_new, err, k


def row_dense(rhs, y, h: float, k):
    """The interpolant's extra stages and four highest coefficients by row_fold: (calls, rows).

    k holds a step's thirteen stages; rows is None when an extra stage
    raised EvaluationDomainError or a stage is not finite.
    """
    k = list(k)
    try:
        for s in range(_DOP_STAGES + 1, _DOP_EXTENDED):
            k.append(list(rhs(row_fold(_DOP_A[s, :s], y, k, h))))
    except EvaluationDomainError:
        return len(k) - _DOP_STAGES - 1, None
    if not all(math.isfinite(v) for stage in k for v in stage):
        return 3, None
    zero = [0.0] * len(y)
    return 3, [row_fold(weights, zero, k, h) for weights in _DOP_D]


def dop853_dense(rhs, y, K, y_new, h: float, x: float) -> np.ndarray:
    """DOP853's seventh-order interpolant at the fraction x of the step, 0 <= x <= 1.

    K is dop853_step's stage array.  The three extra stages and the
    coefficients are dense products too, and scipy's Dop853DenseOutput
    evaluates them.
    """
    y = np.asarray(y, dtype=float)
    ext = np.empty((_DOP_EXTENDED, y.size))
    ext[: K.shape[0]] = K
    for s in range(K.shape[0], _DOP_EXTENDED):
        ext[s] = rhs(y + h * (ext[:s].T @ _DOP_A[s, :s]))
    dy = y_new - y
    F = np.vstack([dy, h * K[0] - dy, 2.0 * dy - h * (K[-1] + K[0]), h * (_DOP_D @ ext)])
    return Dop853DenseOutput(0.0, h, y, F)(x * h)


# ----- Derivatives: the Jet route and the finite-difference oracle -----------


class DegenerateSeedsError(FinslerError):
    """Seed directions for a jet evaluation are linearly dependent."""


def jet_log(v):
    if isinstance(v, Jet):
        return v.log()
    if v <= 0.0:
        raise EvaluationDomainError(f"log domain violation: {v}")
    return math.log(v)


def directional_derivatives(f, at, seeds, order: int) -> Jet:
    """Mixed directional derivatives of a scalar field, up to order <= MAX_JET_ORDER.

    f is called once with a list of scalar-like arguments (floats or jets),
    one per coordinate of `at`.  `seeds` is a sequence of direction vectors;
    the returned jet's `derivative` takes multi-indices over those seeds.
    """
    at = np.atleast_1d(np.asarray(at, dtype=float))
    seed_mat = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seed_mat.shape[1] != at.size:
        raise ValueError("seed directions must match the base point dimension")
    m = seed_mat.shape[0]
    if m < 1:
        raise ValueError("at least one seed direction is required")
    if np.linalg.matrix_rank(seed_mat) < m:
        raise DegenerateSeedsError("seed directions are linearly dependent")
    space = jet_space(m, order)
    args = []
    for i in range(at.size):
        coef = np.zeros(space.ncoef)
        coef[0] = at[i]
        if order >= 1:
            for a in range(m):
                coef[1 + a] = seed_mat[a, i]
        args.append(Jet(space, coef))
    out = f(args)
    if isinstance(out, Jet):
        jet = out if out.space is space else out.truncated(min(order, out.space.order))
    else:
        jet = space.constant(float(out))
    if not np.all(np.isfinite(jet.coef)):
        raise EvaluationDomainError("non-finite value in derivative evaluation")
    return jet


_FD_STENCILS = {
    # order -> (offsets, weights, h-power); all central, even error expansion
    1: ((-1.0, 1.0), (-0.5, 0.5), 1),
    2: ((-1.0, 0.0, 1.0), (1.0, -2.0, 1.0), 2),
    3: ((-2.0, -1.0, 1.0, 2.0), (-0.5, 1.0, -1.0, 0.5), 3),
    4: ((-2.0, -1.0, 0.0, 1.0, 2.0), (1.0, -4.0, 6.0, -4.0, 1.0), 4),
}


def finite_difference_oracle(f, at, direction, order: int, base_step: float = 1e-2) -> float:
    """Directional derivative by central differences with Richardson extrapolation.

    Orders 1..4 only.  Test-oracle quality, not production: two step halvings
    remove the h^2 and h^4 error terms of the central stencils.
    """
    if order not in _FD_STENCILS:
        raise ValueError("finite-difference oracle supports orders 1..4")
    if base_step <= 0.0:
        raise ValueError("base step must be positive")
    at = np.atleast_1d(np.asarray(at, dtype=float))
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    offsets, weights, power = _FD_STENCILS[order]

    def stencil(h: float) -> float:
        total = 0.0
        for o, w in zip(offsets, weights):
            total += w * float(f(at + (o * h) * direction))
        return total / h ** power

    d0 = stencil(base_step)
    d1 = stencil(base_step / 2.0)
    d2 = stencil(base_step / 4.0)
    r0 = (4.0 * d1 - d0) / 3.0
    r1 = (4.0 * d2 - d1) / 3.0
    out = (16.0 * r1 - r0) / 15.0
    if not math.isfinite(out):
        raise EvaluationDomainError("non-finite value in finite-difference oracle")
    return out


# ----- The jet kernel by fancy indexing and per-column series ----------------


def fancy_restricted(jet: Jet, space) -> Jet:
    """jet's coefficients of a space inside its own, gathered by a fancy index."""
    if space is jet.space:
        return jet
    pos = [jet.space.index_of[alpha] for alpha in space.indices]
    at = slice(0, len(pos)) if pos == list(range(len(pos))) else np.asarray(pos, dtype=np.intp)
    return Jet(space, jet.coef[at])


def fancy_align(a: Jet, b: Jet):
    if a.space is not b.space:
        space = a.space._meet(b.space)
        a, b = fancy_restricted(a, space), fancy_restricted(b, space)
    if a.coef.ndim != b.coef.ndim:
        if a.coef.ndim == 1:
            a = Jet(a.space, a.coef[:, None])
        else:
            b = Jet(b.space, b.coef[:, None])
    return a, b


def fancy_add(a: Jet, b) -> Jet:
    if isinstance(b, Jet):
        a, b = fancy_align(a, b)
        return Jet(a.space, a.coef + b.coef)
    coef = a.coef.copy()
    coef[0] += b
    return Jet(a.space, coef)


def fancy_mul(a: Jet, b) -> Jet:
    """The truncated product: a.coef[I] * b.coef[J] summed by one bincount per batch column."""
    if not isinstance(b, Jet):
        return Jet(a.space, a.coef * b)
    a, b = fancy_align(a, b)
    I, J, K = a.space._mul_table()
    w = a.coef[I] * b.coef[J]
    batch = w[0].size
    index = (K[:, None] * batch + np.arange(batch)).ravel()
    coef = np.bincount(index, weights=w.ravel(), minlength=a.space.ncoef * batch)
    return Jet(a.space, coef.reshape((-1,) + w.shape[1:]))


def fancy_partial(jet: Jet, v: int) -> Jet:
    """The derivative jet along seed v, its source rows and factors built from the multi-indices."""
    space = jet.space
    if space.order == 0:
        raise ValueError("cannot differentiate an order-0 jet")
    cap = space.cap
    if cap is not None and v < space.lead:
        if cap == 0:
            raise ValueError(f"derivative along seed {v} outside jet space")
        cap -= 1
    lower = jet_space(space.nvars, space.order - 1, space.lead, cap)
    src, fac = [], []
    for alpha in lower.indices:
        bumped = list(alpha)
        bumped[v] += 1
        src.append(space.index_of[tuple(bumped)])
        fac.append(float(alpha[v] + 1))
    fac = np.asarray(fac)
    return Jet(lower, jet.coef[np.asarray(src, dtype=np.intp)] * fac.reshape(fac.shape + (1,) * (jet.coef.ndim - 1)))


def per_column_series(jet: Jet, coefficients) -> Jet:
    """sum c[k] w^k (Horner over fancy_mul), with c = coefficients(value) called once per batch column."""
    c0 = jet.coef[0]
    columns = []
    for c in np.ravel(c0).tolist():
        try:
            columns.append(coefficients(c))
        except OverflowError:
            raise EvaluationDomainError(f"jet series coefficients overflow at value {c!r}") from None
        except ZeroDivisionError:
            raise EvaluationDomainError(f"jet series coefficients underflow at value {c!r}") from None
    coeffs = np.array(columns).T.reshape((-1,) + c0.shape)
    w_coef = jet.coef.copy()
    w_coef[0] = 0.0
    w = Jet(jet.space, w_coef)
    acc = jet.space.constant(coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        acc = fancy_add(fancy_mul(acc, w), coeffs[k])
    return acc


def per_column_analytic(jet: Jet, name: str, p: float = 0.0) -> Jet:
    """reciprocal, sqrt, exp, log or power (a real p) of a jet, coefficients built one column at a time."""
    order = jet.space.order

    def reciprocal(c0):
        if c0 == 0.0:
            raise EvaluationDomainError("division by a jet with zero value")
        return [((-1.0) ** k) / c0 ** (k + 1) for k in range(order + 1)]

    def sqrt(c0):
        if c0 <= 0.0:
            raise EvaluationDomainError(f"jet sqrt needs positive value, got {c0}")
        s = math.sqrt(c0)
        coeffs = [s]
        b = 1.0
        for k in range(1, order + 1):
            b *= (0.5 - (k - 1)) / k
            coeffs.append(s * b / c0**k)
        return coeffs

    def exp(c0):
        e = math.exp(c0)
        return [e / math.factorial(k) for k in range(order + 1)]

    def log(c0):
        if c0 <= 0.0:
            raise EvaluationDomainError(f"jet log needs positive value, got {c0}")
        return [math.log(c0)] + [((-1.0) ** (k + 1)) / (k * c0**k) for k in range(1, order + 1)]

    def power(c0):
        if c0 <= 0.0:
            raise EvaluationDomainError(f"jet power {p} needs positive value, got {c0}")
        coeffs = [c0**p]
        b = 1.0
        for k in range(1, order + 1):
            b *= (p - (k - 1)) / k
            coeffs.append(b * c0 ** (p - k))
        return coeffs

    rule = {"reciprocal": reciprocal, "sqrt": sqrt, "exp": exp, "log": log, "power": power}[name]
    return per_column_series(jet, rule)


# ----- Finsler length of a geodesic or a sampled path -------------------------


def path_length(S: FinslerStructure, points, params=None, interpolation: str = "cubic") -> float:
    """Finslerian length of a sampled path by adaptive quadrature.

    interpolation is "cubic" (natural spline through the samples) or
    "linear" (polyline; each straight segment integrated separately, which
    avoids smoothing corners of competitor paths).
    """
    if isinstance(points, Geodesic):
        geo = points
        n = geo.n

        def speed(t):
            z = geo.trajectory(t)
            return float(S.F(z[:n], z[n:]))

        val, _ = quad(speed, 0.0, abs(geo.length), epsabs=1e-12, epsrel=1e-12, limit=400)
        return float(val)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a (k, n) array")
    k = pts.shape[0]
    if k < 2:
        raise ValueError("need at least two samples")
    for row in pts:
        if not S.domain(row):
            raise EvaluationDomainError(f"path sample outside the chart: {row}")
    if params is None:
        params = np.arange(k, dtype=float)
    else:
        params = np.asarray(params, dtype=float)
        if params.shape != (k,) or np.any(np.diff(params) <= 0):
            raise ValueError("params must be strictly increasing and match samples")
    if interpolation == "linear":
        total = 0.0
        for i in range(k - 1):
            a = pts[i].tolist()
            d = (pts[i + 1] - pts[i]).tolist()
            seg, _ = quad(
                lambda t: float(S.F([ai + t * di for ai, di in zip(a, d)], d)),
                0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200,
            )
            total += seg
        return float(total)
    if interpolation != "cubic":
        raise ValueError("interpolation must be 'cubic' or 'linear'")
    spline = CubicSpline(params, pts, axis=0)
    dspline = spline.derivative()
    total = 0.0
    for i in range(k - 1):
        seg, _ = quad(
            lambda t: float(S.F(spline(t), dspline(t))),
            params[i],
            params[i + 1],
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        total += seg
    return float(total)


# ----- Moebius fit between two projective parameters ------------------------


class DegenerateFitError(FinslerError):
    """Moebius fit is rank deficient / non-invertible."""


@dataclass
class MobiusFit:
    coefficients: tuple  # (a, b, c, d) for z -> (a z + b) / (c z + d)
    residual: float

    def __call__(self, z):
        a, b, c, d = self.coefficients
        return (a * z + b) / (c * z + d)


def mobius_fit(pi1, pi2) -> MobiusFit:
    """Fit pi2 ~ m(pi1) across aligned samples; residual is the max deviation.

    Three anchor samples pin the map (via the nullspace of the incidence
    system), the rest measure the residual.
    """
    pi1 = np.asarray(pi1, dtype=float)
    pi2 = np.asarray(pi2, dtype=float)
    if pi1.shape != pi2.shape or pi1.size < 4:
        raise ValueError("need at least four aligned samples")
    if not (np.all(np.diff(pi1) > 0) or np.all(np.diff(pi1) < 0)):
        raise ValueError("pi1 samples must be strictly monotone")
    idx = [0, pi1.size // 2, pi1.size - 1]
    rows = []
    for i in idx:
        z, w = pi1[i], pi2[i]
        rows.append([z, 1.0, -z * w, -w])
    _, sing, vt = np.linalg.svd(np.asarray(rows))
    if sing[2] < 1e-12 * max(sing[0], 1.0):
        raise DegenerateFitError("anchor samples do not determine a Moebius map")
    a, b, c, d = vt[-1]
    det = a * d - b * c
    if abs(det) < 1e-14 * max(1.0, a * a + b * b + c * c + d * d):
        raise DegenerateFitError("fitted Moebius map is singular")
    denom = c * pi1 + d
    if np.any(np.abs(denom) < 1e-12):
        raise DegenerateFitError("fitted Moebius map has a pole among the samples")
    pred = (a * pi1 + b) / denom
    residual = float(np.max(np.abs(pred - pi2)))
    return MobiusFit(coefficients=(float(a), float(b), float(c), float(d)), residual=residual)


# ----- spray jets and their matrix inverse, without the cap -------------------


def uncapped_spray_jet_functions(S, x, y, g_order: int, via: str = "fast", columns=None):
    """spray_jet_functions on the uncapped jet_space(2n, order): every base derivative is carried.

    With columns, x is first taken onto every batch column, x[:, columns], so
    each column runs its whole spray with no base part shared.
    """
    n = S.dimension
    if columns is not None:
        x = np.asarray(x, dtype=float)[:, columns]
    space = jet_space(2 * n, g_order if via == "fast" else g_order + 2)
    xj = [space.variable(i, v) for i, v in enumerate(np.atleast_1d(np.asarray(x, dtype=float)))]
    yj = [space.variable(n + i, v) for i, v in enumerate(np.atleast_1d(np.asarray(y, dtype=float)))]
    return list(S.spray_fast(xj, yj)) if via == "fast" else spray_from_f2_jets(S, xj, yj)


def invert_by_division(M):
    """Gauss-Jordan inverse with the library's pivoting, dividing entry by entry.

    Each entry of the pivot row is divided by the pivot on its own, so a jet
    pivot's reciprocal is computed once per entry.
    """
    n = len(M)
    a = [list(row) for row in M]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        mags = [abs(scalar_value(a[r][col])) for r in range(col, n)]
        if any(isinstance(m, np.ndarray) for m in mags):
            _swap_pivots_per_column(a, inv, col, mags)
        else:
            pivot = col + max(range(n - col), key=lambda t: mags[t])
            if pivot != col:
                a[pivot], a[col] = a[col], a[pivot]
                inv[pivot], inv[col] = inv[col], inv[pivot]
        piv = a[col][col]
        for j in range(n):
            a[col][j] = a[col][j] / piv
            inv[col][j] = inv[col][j] / piv
        for r in range(n):
            factor = a[r][col]
            if r == col or isinstance(factor, (int, float)) and factor == 0.0:
                continue
            for j in range(n):
                a[r][j] = a[r][j] - factor * a[col][j]
                inv[r][j] = inv[r][j] - factor * inv[col][j]
    return inv


# ----- the curvature formula, one entry at a time ------------------------------


def riemann_formula(G, y, at, diagonal: bool = False):
    """R^i_k from the spray jets G^i and the fibre coordinates y, entry by entry.

    at(jet) is what the formula reads of a spray derivative: the jet itself,
    or its value; y holds jets or values to match.  diagonal=True builds
    only the entries R^i_i, each by the same arithmetic, and leaves None
    off the diagonal.
    """
    n = len(G)
    Gy = [[G[i].partial(n + j) for j in range(n)] for i in range(n)]
    R = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in (i,) if diagonal else range(n):
            term = 2.0 * at(G[i].partial(k))
            for j in range(n):
                term = term - y[j] * at(Gy[i][k].partial(j))
                term = term + 2.0 * (at(G[j]) * at(Gy[i][k].partial(n + j)))
                term = term - at(Gy[i][j]) * at(Gy[j][k])
            R[i][k] = term
    return R


def riemann_values_per_entry(S, x, y, via: str = "fast") -> np.ndarray:
    """R^i_k of shape (B, n, n) from riemann_formula on the spray jets' values."""
    G = spray_jet_functions(S, x, y, g_order=2, via=via)
    R = riemann_formula(G, y, lambda jet: jet.coef[0])
    return np.ascontiguousarray(np.array(R).transpose(2, 0, 1))


def riemann_trace_jet_per_entry(S, x, y) -> Jet:
    """R^k_k as a jet, the diagonal entries of riemann_formula added in order."""
    G = spray_jet_functions(S, x, y, g_order=4)
    n = S.dimension
    yj = [G[0].space.variable(n + i, v) for i, v in enumerate(y)]
    R = riemann_formula(G, yj, lambda jet: jet, diagonal=True)
    trace = R[0][0]
    for i in range(1, n):
        trace = trace + R[i][i]
    return trace


# ----- Einstein classification, one point at a time ---------------------------


def flag_curvature_per_point(S, x, y, u) -> float:
    """K = g_y(u, R_y u) / (g_y(y,y) g_y(u,u) - g_y(y,u)^2) in Python floats from FundamentalTensor.inner.

    Raises DegenerateFlagError where sin^2 of the g_y-angle of (y, u) is at most 1e-4.
    """
    x, y, u = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y, u))
    ft = fundamental_tensor(S, x, y)
    gyy, guu, gyu = ft.inner(y, y), ft.inner(u, u), ft.inner(y, u)
    denom = gyy * guu - gyu * gyu
    if denom <= 1e-4 * gyy * guu:
        raise DegenerateFlagError("flag plane degenerate")
    return float(ft.inner(u, riemann_curvature(S, x, y).matrix @ u) / denom)


def sample_point(rng, n, radius):
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return radius * rng.uniform() ** (1.0 / n) * v


def sample_direction(rng, n):
    while True:
        v = rng.standard_normal(n)
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            return v / nv


def construction_check_per_point(config):
    """make_metric's positivity and Randers-norm checks, sample by sample.

    Returns the message of the first failing sample, or None.  config is a
    parsed riemannian or randers MetricConfig.
    """
    n = config.dimension
    table = config.metric
    rng = np.random.default_rng(98765 if config.family == "riemannian" else 56789)
    for _ in range(200):
        x = sample_point(rng, n, SAMPLING_RADIUS)
        a = np.array([[p(x) for p in row] for row in table])
        if float(np.linalg.eigvalsh(a)[0]) <= 0.0:
            if config.family == "riemannian":
                return f"riemannian coefficient matrix not positive definite at x={x}"
            return f"randers base metric not positive definite at x={x}"
        if config.family == "randers":
            b = np.array([p(x) for p in config.one_form])
            norm2 = float(b @ np.linalg.solve(a, b))
            if norm2 >= (1.0 - 1e-6) ** 2:
                return f"randers one-form too large at x={x}: ||beta||_alpha = {np.sqrt(norm2):.6f} >= 1"
    return None


def symmetry_check_per_point(table, n):
    """make_metric's symmetry check point by point: the first (i, j), i < j, that differs, or None."""
    rng = np.random.default_rng(12345)
    for _ in range(16):
        x = rng.uniform(-SAMPLING_RADIUS, SAMPLING_RADIUS, size=n) / np.sqrt(n)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = float(table[i][j](x)), float(table[j][i](x))
                if abs(a - b) > 1e-12 * max(1.0, abs(a)):
                    return i, j
    return None


def einstein_classify_per_point(S, rng, x_samples=10, y_directions=12, tolerance=1e-6, matrix_tolerance=1e-4):
    """einstein_classify's report fields and ric_values, one sample at a time.

    Every sample is drawn from rng where it is used, and every quantity comes
    from a public single-point function.  Returns (fields, ric_values), where
    fields are the to_dict() entries that depend on the samples.
    """
    n = S.dimension
    radius = 0.8 * SAMPLING_RADIUS
    xs = []
    ric_values = []
    for _ in range(x_samples):
        x = sample_point(rng, n, radius)
        xs.append(x)
        ric_values.append([ricci_scalar(S, x, sample_direction(rng, n)) for _ in range(y_directions)])
    per_x_means = np.array([np.mean(vals) for vals in ric_values])
    y_spread = max(float(max(vals) - min(vals)) for vals in ric_values)
    ric_mean = float(per_x_means.mean())
    ric_x_spread = float(per_x_means.max() - per_x_means.min())

    fit_vals = []
    fit_resid = 0.0
    for x in [x for x in xs[:6] for _ in range(2)]:
        y = sample_direction(rng, n)
        ric_ij = ricci_tensor(S, x, y).ric_tensor
        g = fundamental_tensor(S, x, y).g
        lam = float(np.sum(ric_ij * g) / np.sum(g * g))
        fit_vals.append(lam)
        fit_resid = max(fit_resid, float(np.max(np.abs(ric_ij - lam * g)) / np.max(np.abs(g))))
    fit_factor = float(np.mean(fit_vals))
    matrix_ok = fit_resid <= matrix_tolerance and max(fit_vals) - min(fit_vals) <= matrix_tolerance * max(
        1.0, abs(fit_factor)
    )
    is_einstein = y_spread <= tolerance
    x_independent = ric_x_spread <= matrix_tolerance * max(1.0, abs(ric_mean))
    c = None
    if is_einstein and matrix_ok and x_independent and fit_factor < -tolerance:
        c = float(np.sqrt(-fit_factor))

    flags = []
    for _ in range(10):
        x = sample_point(rng, n, radius)
        y = sample_direction(rng, n)
        u = sample_direction(rng, n)
        ft = fundamental_tensor(S, x, y)
        gyy, guu = ft.inner(y, y), ft.inner(u, u)
        # flags with sin^2 of the g_y-angle of (y, u) at most 1e-4 are skipped
        if gyy * guu - ft.inner(y, u) ** 2 > 1e-4 * gyy * guu:
            flags.append(flag_curvature(S, x, y, u))
    flag_constant = None
    if flags and max(flags) - min(flags) <= matrix_tolerance * max(1.0, max(abs(k) for k in flags)):
        flag_constant = float(np.mean(flags))

    fields = {
        "is_einstein": is_einstein,
        "y_spread": y_spread,
        "ric_mean": ric_mean,
        "ric_x_spread": ric_x_spread,
        "fit_factor": fit_factor if matrix_ok else None,
        "fit_residual": fit_resid,
        "flag_constant": flag_constant,
        "einstein_constant_c": c,
    }
    return fields, ric_values


# ----- Projective parameter, one Ricci scalar per ODE stage -------------------


def projective_parameter_per_point(S, geodesic):
    """(s, pi, q) on projective_parameter's grid, q evaluated where it is read.

    Every right-hand-side call of the linear solve u'' + (q/2) u = 0 and
    every grid value takes its own single-point ricci_scalar at the
    geodesic's state, so no interpolation of q enters the solve.
    """
    n = S.dimension
    L = geodesic.length

    def qfun(s):
        return (2.0 / (n - 1.0)) * ricci_scalar(S, geodesic.x(s), geodesic.v(s))

    def rhs(z):
        q = qfun(min(max(z[4], 0.0), L))
        return [z[1], -0.5 * q * z[0], z[3], -0.5 * q * z[2], 1.0]

    traj = integrate_ivp(rhs, np.array([0.0, 1.0, 1.0, 0.0, 0.0]), (0.0, L), tolerance=PARAMETER_TOLERANCE)
    svals = np.linspace(0.0, L, PARAMETER_GRID)
    states = traj(svals)
    return svals, states[:, 0] / states[:, 2], np.array([qfun(float(s)) for s in svals])
