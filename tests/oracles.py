"""Closed-form reference values used to check the numerical pipelines.

Everything here is independent of the library's own evaluators: the ball
distances come from chord/boundary intersections and logarithms of ratios,
the interval gauge from direct quadrature, the Klein fundamental tensor from
its closed form, the DOP853 step and interpolant from dense products over
scipy's tableau.  The exceptions are the two
per-point routes at the end, the Einstein classification and the
projective-parameter solve: second routes through the library's public
single-point functions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import Dop853DenseOutput

from finslerlab import flag_curvature, fundamental_tensor, ricci_scalar, ricci_tensor
from finslerlab.metrics import SAMPLING_RADIUS
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
        if ft.inner(y, y) * ft.inner(u, u) - ft.inner(y, u) ** 2 > 1e-8:
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
