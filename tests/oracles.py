"""Closed-form reference values used to check the numerical pipelines.

Everything here is independent of the library's own evaluators: the ball
distances come from chord/boundary intersections and logarithms of ratios,
the interval gauge from direct quadrature, the Klein fundamental tensor from
its closed form, the DOP853 step and interpolant from dense products over
scipy's tableau, derivatives from central differences with Richardson
extrapolation, Moebius fits from the nullspace of an incidence system.  The
exceptions are second routes through the library's own types:
- directional_derivatives and jet_log run the library's Jet arithmetic on
  seeded variables;
- path_length integrates F along a library Geodesic's dense output, or
  along a polyline or a cubic spline through samples;
- chart_reference writes the Klein, Funk and interval F^2 and spray out
  by hand over the library's _dot, _require_chart, jet_sqrt and jet_abs;
- uncapped_spray_jet_functions runs a family's spray on jets that carry
  every base derivative, and invert_by_division divides each pivot-row
  entry by its jet pivot, computing one reciprocal per entry;
- the two per-point routes at the end, the Einstein classification and the
  projective-parameter solve, call the library's public single-point
  functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.interpolate import CubicSpline

from finslerlab import flag_curvature, fundamental_tensor, ricci_scalar, ricci_tensor
from finslerlab.errors import EvaluationDomainError, FinslerError
from finslerlab.geodesics import Geodesic, spray_from_f2_jets
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


def interval_funk_closed(k: float, a: float, b: float) -> float:
    """Directional closed form: (1/k)ln((1-a)/(1-b)) rightward, (1/k)ln((1+a)/(1+b)) leftward."""
    if b > a:
        return math.log((1.0 - a) / (1.0 - b)) / k
    if b < a:
        return math.log((1.0 + a) / (1.0 + b)) / k
    return 0.0


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


def uncapped_spray_jet_functions(S, x, y, g_order: int, via: str = "fast"):
    """spray_jet_functions on the uncapped jet_space(2n, order): every base derivative is carried."""
    n = S.dimension
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


# ----- Einstein classification, one point at a time ---------------------------


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
