"""Riemann curvature in spray form, flag curvature, Ricci data, Einstein fits.

Everything is evaluated through the jet engine, with the spray as an
intermediate jet-valued function.  Every family has a closed-form spray, and
it is run on jets; via="f2" instead takes the spray from F^2 alone, two
orders higher, as the independent cross-check:

    R^i_k = 2 dG^i/dx^k - y^j d2G^i/(dy^k dx^j)
            + 2 G^j d2G^i/(dy^k dy^j) - (dG^i/dy^j)(dG^j/dy^k)

The formula takes at most one base (x) derivative of G, so the spray jets
carry no more: the phase jets cap the base seeds at total degree 1 (2 on the
F^2 jets of via="f2"), which leaves every value read bit for bit as on the
uncapped jets.  R^i_k values come from order-2 spray jets batched over many
phase points.
einstein_classify draws all of its samples first and then evaluates each
quantity once for all of them: one R^i_k batch for the Ricci scalars and the
flags, one Ricci-tensor batch, one fundamental-tensor batch, and F^2 in one
float evaluation.  The Ricci tensor is the fibre Hessian of R^k_k / 2, which
costs two more derivative orders on top of the spray and keeps the formula on
jets; there only the diagonal entries R^i_i are built.  An F^2 or g_ij that
is not finite, as a huge scale makes it, raises EvaluationDomainError.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateFlagError, EvaluationDomainError
from .geodesics import spray_jet_functions
from .metrics import (
    SAMPLING_RADIUS, FinslerStructure, FundamentalTensor, _fundamental_tensors, fundamental_tensor,
)
from .jets import jet_space

EINSTEIN_TOLERANCE = 1e-6  # largest y-spread of Ric(x, y) that counts as Einstein
MATRIX_TOLERANCE = 1e-4  # relative residual and spreads of the fit Ric_ij = lambda g_ij


def _require_flagpole(y):
    """y has shape (n,) or (n, B); every column must be nonzero."""
    if not y.any(axis=0).all():
        raise EvaluationDomainError("curvature undefined at y = 0")


def _riemann_formula(G, y, at, diagonal: bool = False):
    """R^i_k from the spray jets G^i and the fibre coordinates y.

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


def _riemann_values(S: FinslerStructure, x, y, via: str = "fast") -> np.ndarray:
    """R^i_k at B phase points, x and y of shape (n, B); returns shape (B, n, n).

    One batched evaluation of the order-2 spray jets supplies every value the
    formula reads; the formula itself runs on (B,) float arrays.
    """
    _require_flagpole(y)
    G = spray_jet_functions(S, x, y, g_order=2, via=via)
    R = _riemann_formula(G, y, lambda jet: jet.coef[0])
    return np.ascontiguousarray(np.array(R).transpose(2, 0, 1))


def _riemann_trace_jet(S: FinslerStructure, x, y):
    """R^k_k as a jet of total order 2 over the 2n phase seeds."""
    _require_flagpole(y)
    G = spray_jet_functions(S, x, y, g_order=4)
    n = S.dimension
    yj = [G[0].space.variable(n + i, v) for i, v in enumerate(y)]
    R = _riemann_formula(G, yj, lambda jet: jet, diagonal=True)
    trace = R[0][0]
    for i in range(1, n):
        trace = trace + R[i][i]
    return trace


@dataclass
class RiemannCurvature:
    """R^i_k values at one (x, y)."""

    matrix: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def flagpole_residual(self) -> float:
        """max |R^i_k y^k|, zero for an exact curvature operator."""
        return float(np.max(np.abs(self.matrix @ self.y)))


def riemann_curvature(S: FinslerStructure, x, y, via: str = "fast") -> RiemannCurvature:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    mat = _riemann_values(S, x[:, None], y[:, None], via=via)[0]
    return RiemannCurvature(matrix=mat, x=x, y=y)


def _flag_denominator(ft, y, u) -> float | None:
    """g_y(y,y) g_y(u,u) - g_y(y,u)^2, or None when sin^2 of the g_y-angle of (y, u) is <= 1e-4."""
    gyy = ft.inner(y, y)
    guu = ft.inner(u, u)
    gyu = ft.inner(y, u)
    denom = gyy * guu - gyu * gyu
    return None if denom <= 1e-4 * gyy * guu else denom


def flag_curvature(S: FinslerStructure, x, y, u) -> float:
    """Sectional curvature of the flag (y; u).

    K = g_y(u, R_y u) / ( g_y(y,y) g_y(u,u) - g_y(y,u)^2 ).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ft = fundamental_tensor(S, x, y)
    denom = _flag_denominator(ft, y, u)
    if denom is None:
        raise DegenerateFlagError("flag plane degenerate: u is (nearly) parallel to the flagpole")
    R = riemann_curvature(S, x, y)
    return float(ft.inner(u, R.matrix @ u) / denom)


def _f2_values(S: FinslerStructure, x, y) -> np.ndarray:
    """F^2 at B phase points by the float evaluator, x and y of shape (n, B).

    The rows go in as object arrays, so every operator acts on Python floats
    column by column and each value is the single-point one bit for bit
    (on float arrays numpy squares where Python's ** calls pow).  An F^2
    that is not finite, as when a huge scale overflows it, raises
    EvaluationDomainError.
    """
    f2 = np.asarray(S.f2(list(x.astype(object)), list(y.astype(object))), dtype=float)
    bad = ~np.isfinite(f2)
    if bad.any():
        b = int(np.argmax(bad))
        f = math.sqrt(f2[b]) if f2[b] >= 0.0 else math.nan
        raise EvaluationDomainError(f"F(x, y) = {f!r} at x = {x[:, b]}, y = {y[:, b]}")
    return f2


def _ricci_from_riemann(S: FinslerStructure, R, x, y) -> np.ndarray:
    """Ric = R^k_k / F^2 from R^i_k values of shape (B, n, n) at the B columns of x, y."""
    trace = R[:, 0, 0]
    for i in range(1, S.dimension):
        trace = trace + R[:, i, i]
    return trace / _f2_values(S, x, y)


def _ricci_scalars(S: FinslerStructure, x, y) -> np.ndarray:
    """Ric = R^k_k / F^2 at B phase points, x and y of shape (n, B)."""
    return _ricci_from_riemann(S, _riemann_values(S, x, y), x, y)


def ricci_scalar(S: FinslerStructure, x, y) -> float:
    """Ric(x, y) = R^k_k / F^2; zero-homogeneous in y."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(_ricci_scalars(S, x[:, None], y[:, None])[0])


@dataclass
class RicciData:
    """Ricci scalar and tensor at one (x, y)."""

    ric: float
    ric_tensor: np.ndarray
    x: np.ndarray
    y: np.ndarray


def _ricci_tensors(S: FinslerStructure, x, y):
    """R^k_k, shape (B,), and Ric_ij, shape (B, n, n), at B phase points."""
    n = S.dimension
    trace = _riemann_trace_jet(S, x, y)
    ric_ij = np.empty((y.shape[1], n, n))
    for i in range(n):
        for j in range(i, n):
            ric_ij[:, i, j] = ric_ij[:, j, i] = 0.5 * trace.partial(n + i).partial(n + j).coef[0]
    return trace.coef[0], ric_ij


def ricci_tensor(S: FinslerStructure, x, y) -> RicciData:
    """Ric_ij = (R^k_k / 2)_{y^i y^j} at (x, y), plus the scalar from the trace."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    X, Y = x[:, None], y[:, None]
    trace, ric_ij = _ricci_tensors(S, X, Y)
    return RicciData(ric=float((trace / _f2_values(S, X, Y))[0]), ric_tensor=ric_ij[0], x=x, y=y)


def scalar_curvature_residual(S: FinslerStructure, x, y, lam: float) -> float:
    """Relative deviation of R^i_k from the scalar-curvature shape.

    Constant flag curvature lam forces
        R^i_k = lam F^2 { delta^i_k - F^{-1} F_{y^k} y^i }.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = S.dimension
    R = riemann_curvature(S, x, y).matrix
    space = jet_space(n, 1)
    yj = [space.variable(i, float(v)) for i, v in enumerate(y)]
    fjet = S.F(list(x), yj)
    if not np.isfinite(fjet.coef).all():
        raise EvaluationDomainError(f"F(x, y) or its y-gradient not finite at x = {x}, y = {y}")
    fval = fjet.value
    f_y = np.array([fjet.partial(i).value for i in range(n)])
    shape = lam * fval * fval * (np.eye(n) - np.outer(y, f_y) / fval)
    scale = float(np.max(np.abs(R))) + abs(lam) * fval * fval * n
    return float(np.max(np.abs(R - shape)) / max(scale, 1e-300))


@dataclass
class EinsteinReport:
    """Sampled Einstein test: is Ric a function of x alone, and which one."""

    family: str
    dimension: int
    is_einstein: bool
    y_spread: float
    ric_mean: float
    ric_x_spread: float
    fit_factor: float | None
    fit_residual: float
    flag_constant: float | None
    einstein_constant_c: float | None
    tolerance: float
    matrix_tolerance: float
    x_samples: int
    y_directions: int
    seed: int
    ric_values: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "ric_values"}


def einstein_classify(
    S: FinslerStructure,
    x_samples: int = 10,
    seed: int = 0,
    y_directions: int = 12,
) -> EinsteinReport:
    """Sampled classification: Einstein iff Ric(x, y) has no y-dependence.

    Additionally fits Ric_ij against Ric(x) g_ij; when the fitted factor is
    x-independent and negative the Einstein constant c = sqrt(-factor) of the
    normal form Ric_ij = -c^2 g_ij is reported.
    """
    if x_samples < 2:
        raise ValueError("need at least two base points")
    if not 8 <= y_directions <= 16:
        raise ValueError("y_directions should stay between 8 and 16")
    if S.dimension < 2:
        raise ValueError("classification needs dimension >= 2")
    # every sample is drawn first, in the order the per-point loops drew them
    rng = np.random.default_rng(seed)
    radius = 0.8 * SAMPLING_RADIUS
    xs = []
    ys = []
    for _ in range(x_samples):
        xs.append(S.sample_point(rng, radius))
        ys.append(S.sample_directions(rng, y_directions))
    fit_xs = [x for x in xs[: min(len(xs), 6)] for _ in range(2)]
    fit_ys = S.sample_directions(rng, len(fit_xs))
    flag_xs = []
    flag_yus = []  # the rows (y, u) of each flag
    for _ in range(10):
        flag_xs.append(S.sample_point(rng, radius))
        flag_yus.append(S.sample_directions(rng, 2))
    flag_ys = [yu[0] for yu in flag_yus]

    # one R^i_k batch serves the Ricci scalars and the flags
    nric = x_samples * y_directions
    ric_x = np.repeat(np.array(xs).T, y_directions, axis=1)
    ric_y = np.concatenate(ys).T
    R = _riemann_values(S, np.hstack([ric_x, np.array(flag_xs).T]), np.hstack([ric_y, np.array(flag_ys).T]))
    ric = _ricci_from_riemann(S, R[:nric], ric_x, ric_y)
    per_x_means = []
    y_spread = 0.0
    ric_values = []
    for vals in ric.reshape(x_samples, y_directions):
        ric_values.append(vals.tolist())
        y_spread = max(y_spread, float(vals.max() - vals.min()))
        per_x_means.append(float(vals.mean()))
    per_x_means = np.asarray(per_x_means)
    ric_mean = float(per_x_means.mean())
    ric_x_spread = float(per_x_means.max() - per_x_means.min())
    is_einstein = y_spread <= EINSTEIN_TOLERANCE

    # least-squares proportionality of Ric_ij against g_ij at a subsample; one
    # fundamental-tensor batch serves the fit and the flags
    _, fit_ric = _ricci_tensors(S, np.array(fit_xs).T, fit_ys.T)
    g_all, g_inv_all = _fundamental_tensors(
        S, np.array(fit_xs + flag_xs).T, np.concatenate([fit_ys, flag_ys]).T
    )
    fit_vals = []
    fit_resid = 0.0
    for ric_ij, g in zip(fit_ric, g_all):
        lam = float(np.sum(ric_ij * g) / np.sum(g * g))
        fit_vals.append(lam)
        fit_resid = max(fit_resid, float(np.max(np.abs(ric_ij - lam * g)) / np.max(np.abs(g))))
    fit_vals = np.asarray(fit_vals)
    fit_spread = float(fit_vals.max() - fit_vals.min())
    fit_factor = float(fit_vals.mean())
    matrix_ok = fit_resid <= MATRIX_TOLERANCE and fit_spread <= MATRIX_TOLERANCE * max(
        1.0, abs(fit_factor)
    )

    c = None
    x_independent = ric_x_spread <= MATRIX_TOLERANCE * max(1.0, abs(ric_mean))
    if is_einstein and matrix_ok and x_independent and fit_factor < -EINSTEIN_TOLERANCE:
        c = float(np.sqrt(-fit_factor))

    # sampled flag curvatures; a constant value is reported when the spread allows
    flags = []
    nfit = len(fit_xs)
    for x, (y, u), g, g_inv, Rb in zip(flag_xs, flag_yus, g_all[nfit:], g_inv_all[nfit:], R[nric:]):
        gy = FundamentalTensor(g=g, g_inv=g_inv, x=x, y=y)
        denom = _flag_denominator(gy, y, u)
        if denom is not None:
            flags.append(float(gy.inner(u, Rb @ u) / denom))
    flag_constant = None
    if flags:
        flags = np.asarray(flags)
        if float(flags.max() - flags.min()) <= MATRIX_TOLERANCE * max(1.0, float(np.abs(flags).max())):
            flag_constant = float(flags.mean())

    return EinsteinReport(
        family=S.family,
        dimension=S.dimension,
        is_einstein=is_einstein,
        y_spread=y_spread,
        ric_mean=ric_mean,
        ric_x_spread=ric_x_spread,
        fit_factor=fit_factor if matrix_ok else None,
        fit_residual=fit_resid,
        flag_constant=flag_constant,
        einstein_constant_c=c,
        tolerance=EINSTEIN_TOLERANCE,
        matrix_tolerance=MATRIX_TOLERANCE,
        x_samples=x_samples,
        y_directions=y_directions,
        seed=seed,
        ric_values=ric_values,
    )
