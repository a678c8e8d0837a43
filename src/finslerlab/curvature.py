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
phase points; the formula reads one gather of their coefficients and runs as
array code over (n, n, B).
einstein_classify draws all of its samples in one pass, one plan of
FinslerStructure.sample_blocks, and then evaluates each quantity once for
all of them: one R^i_k batch for the Ricci scalars and the flags, one
Ricci-tensor batch, one fundamental-tensor batch, and F^2 in one float
evaluation; the spreads, the fit Ric_ij = lambda g_ij and the flag
curvatures are whole-batch array expressions.  The two curvature batches
repeat each base point over its directions, so they hand the spray its
distinct base points and the column map of that repeat: the spray's x-only
part runs once per distinct x and take gathers it onto the columns, which
keeps every column's bits.  The Ricci tensor is the fibre
Hessian of R^k_k / 2, which costs two more derivative orders on top of the
spray and keeps the formula on jets; there only the diagonal entries R^i_i
are built, side by side on the batch axis.  Every value keeps the bits of
the per-entry formula, which tests/oracles.py keeps as the reference.  An
F^2 or g_ij that is not finite, as a huge scale makes it, raises
EvaluationDomainError.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateFlagError, EvaluationDomainError
from .geodesics import spray_jet_functions
from .metrics import (
    SAMPLING_RADIUS, FinslerStructure, _fundamental_tensors, fundamental_tensor,
)
from .jets import Jet, jet_space

EINSTEIN_TOLERANCE = 1e-6  # largest y-spread of Ric(x, y) that counts as Einstein
MATRIX_TOLERANCE = 1e-4  # relative residual and spreads of the fit Ric_ij = lambda g_ij
MAX_X_SAMPLES = 5_000  # base points of one classification; at 16 directions and n = 4 it peaks near 0.6 GB


def _require_flagpole(y):
    """y has shape (n,) or (n, B); every column must be nonzero."""
    if not y.any(axis=0).all():
        raise EvaluationDomainError("curvature undefined at y = 0")


def _riemann_values(S: FinslerStructure, x, y, via: str = "fast", columns=None) -> np.ndarray:
    """R^i_k at B phase points, x and y of shape (n, B); returns shape (B, n, n).

    With columns, x holds distinct base points and column b's is
    x[:, columns[b]], as spray_jet_functions takes them.

    One batched evaluation of the order-2 spray jets supplies every value the
    formula reads, and one gather takes them from the stacked coefficients:
    the value, the first derivatives and the mixed and fibre second ones.  A
    fibre derivative d2G/dy^k dy^k is twice its coefficient, as the jet
    partial's factor makes it.  The formula then runs once over (n, n, B)
    arrays, j by j, with the float operations of each entry in the order of
    the per-entry formula (tests/oracles.py keeps that loop as the reference).
    """
    _require_flagpole(y)
    G = spray_jet_functions(S, x, y, g_order=2, via=via, columns=columns)
    n = S.dimension
    index_of = G[0].space.index_of

    def at(*seeds):
        alpha = [0] * (2 * n)
        for v in seeds:
            alpha[v] += 1
        return index_of[tuple(alpha)]

    pairs = [(j, k) for j in range(n) for k in range(n)]
    rows = [at()] + [at(k) for k in range(n)] + [at(n + j) for j in range(n)]
    rows += [at(j, n + k) for j, k in pairs] + [at(n + j, n + k) for j, k in pairs]
    C = np.stack([g.coef for g in G]).take(rows, axis=1)
    batch = C.shape[2:]
    value = C[:, 0]  # G^i
    gx = C[:, 1 : n + 1]  # [i, k]: dG^i/dx^k
    gy = C[:, n + 1 : 2 * n + 1]  # [i, j]: dG^i/dy^j
    gyx = C[:, 2 * n + 1 : 2 * n + 1 + n * n].reshape((n, n, n) + batch)  # [i, j, k]: d2G^i/dx^j dy^k
    gyy = C[:, 2 * n + 1 + n * n :].reshape((n, n, n) + batch)  # [i, j, k]: d2G^i/dy^j dy^k
    gyy[:, range(n), range(n)] *= 2.0
    R = 2.0 * gx
    for j in range(n):
        R = R - y[j] * gyx[:, j]
        R = R + 2.0 * (value[j] * gyy[:, j])
        R = R - gy[:, j, None] * gy[None, j]
    return np.ascontiguousarray(np.moveaxis(R, -1, 0))


def _riemann_trace_jet(S: FinslerStructure, x, y, columns=None):
    """R^k_k as a jet of total order 2 over the 2n phase seeds.

    The diagonal entries R^i_i sit side by side on the batch axis, entry i in
    column block i of n B columns, so each jet product of the formula runs
    once per j for all of them; every column keeps the bits of the per-entry
    formula, and the trace adds the blocks in order.
    """
    _require_flagpole(y)
    G = spray_jet_functions(S, x, y, g_order=4, columns=columns)
    n = S.dimension
    B = y.shape[1]

    def block(jet, i):
        return jet.coef[:, i * B : (i + 1) * B]

    def stacked(space, blocks):  # blocks[i] in column block i
        return Jet(space, np.concatenate(blocks, axis=1))

    g = stacked(G[0].space, [gi.coef for gi in G])  # block i: G^i
    gy = [g.partial(n + j) for j in range(n)]  # block i of gy[j]: dG^i/dy^j
    gyy = stacked(gy[0].space, [block(gy[i], i) for i in range(n)])  # block i: dG^i/dy^i
    gx = [G[i].partial(i) for i in range(n)]  # dG^i/dx^i
    term = 2.0 * stacked(gx[0].space, [d.coef for d in gx])
    for j in range(n):
        yj = G[0].space.variable(n + j, np.tile(y[j], n))
        term = term - yj * gyy.partial(j)
        term = term + 2.0 * (stacked(G[j].space, [G[j].coef] * n) * gyy.partial(n + j))
        term = term - gy[j] * stacked(gy[j].space, [block(gy[i], j) for i in range(n)])
    coef = block(term, 0)
    for i in range(1, n):
        coef = coef + block(term, i)
    return Jet(term.space, coef)


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


def _flag_curvatures(g, R, y, u):
    """Flag curvatures at B flags: g_y and R^i_k of shape (B, n, n), y and u of shape (B, n).

    K = g_y(u, R_y u) / ( g_y(y,y) g_y(u,u) - g_y(y,u)^2 ), shape (B,), and the
    mask of the flags kept: a flag whose sin^2 of the g_y-angle of (y, u) is at
    most 1e-4 is degenerate.  The inner products come from one stacked matmul each.
    """

    def inner(a, b):
        return (a[:, None, :] @ g @ b[:, :, None])[:, 0, 0]

    gyy, guu, gyu = inner(y, y), inner(u, u), inner(y, u)
    with np.errstate(all="ignore"):  # an inf or NaN flag passes through unwarned, as a Python float would
        denom = gyy * guu - gyu * gyu
        kept = ~(denom <= 1e-4 * gyy * guu)
        return inner(u, (R @ u[:, :, None])[:, :, 0]) / denom, kept


def flag_curvature(S: FinslerStructure, x, y, u) -> float:
    """Sectional curvature of the flag (y; u): _flag_curvatures at one flag.

    Raises DegenerateFlagError on a flag that _flag_curvatures does not keep.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g = fundamental_tensor(S, x, y).g
    K, kept = _flag_curvatures(g[None], riemann_curvature(S, x, y).matrix[None], y[None], u[None])
    if not kept[0]:
        raise DegenerateFlagError("flag plane degenerate: u is (nearly) parallel to the flagpole")
    return float(K[0])


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


def _ricci_tensors(S: FinslerStructure, x, y, columns=None):
    """R^k_k, shape (B,), and Ric_ij, shape (B, n, n), at B phase points (columns as in _riemann_values)."""
    n = S.dimension
    trace = _riemann_trace_jet(S, x, y, columns)
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

    x_samples base points (2 to MAX_X_SAMPLES), each with y_directions fibre
    directions (8 to 16); a count outside raises ValueError before any draw.

    Additionally fits Ric_ij against Ric(x) g_ij; when the fitted factor is
    x-independent and negative the Einstein constant c = sqrt(-factor) of the
    normal form Ric_ij = -c^2 g_ij is reported.
    """
    if x_samples < 2:
        raise ValueError("need at least two base points")
    if x_samples > MAX_X_SAMPLES:
        raise ValueError(f"x_samples must be at most {MAX_X_SAMPLES}")
    if not 8 <= y_directions <= 16:
        raise ValueError("y_directions should stay between 8 and 16")
    if S.dimension < 2:
        raise ValueError("classification needs dimension >= 2")
    # every sample is drawn first, in one plan, in the order the per-point loops drew them;
    # the fit takes two fibre directions at each of the first (at most 6) base points
    fit_columns = np.repeat(np.arange(min(x_samples, 6)), 2)
    nfit = len(fit_columns)
    plan = [(True, y_directions)] * x_samples + [(False, nfit)] + [(True, 2)] * 10
    points, dirs = S.sample_blocks(np.random.default_rng(seed), plan, 0.8 * SAMPLING_RADIUS)
    nric = x_samples * y_directions
    fit_ys = dirs[nric : nric + nfit]
    flag_ys, flag_us = dirs[nric + nfit :: 2], dirs[nric + nfit + 1 :: 2]
    flag_columns = np.arange(x_samples, x_samples + 10)

    # one R^i_k batch serves the Ricci scalars and the flags; it evaluates each
    # base point's part of the spray once, and columns takes it to its columns
    columns = np.concatenate([np.repeat(np.arange(x_samples), y_directions), flag_columns])
    ric_x = points[columns[:nric]].T
    ric_y = dirs[:nric].T
    R = _riemann_values(S, points.T, np.concatenate([dirs[:nric], flag_ys]).T, columns=columns)
    ric = _ricci_from_riemann(S, R[:nric], ric_x, ric_y).reshape(x_samples, y_directions)
    # Python's max keeps the running maxima, so a NaN spread is skipped as before
    ric_values = ric.tolist()
    y_spread = max(0.0, *(ric.max(axis=1) - ric.min(axis=1)).tolist())
    per_x_means = ric.mean(axis=1)
    ric_mean = float(per_x_means.mean())
    ric_x_spread = float(per_x_means.max() - per_x_means.min())
    is_einstein = y_spread <= EINSTEIN_TOLERANCE

    # least-squares proportionality of Ric_ij against g_ij at a subsample; one
    # fundamental-tensor batch serves the fit and the flags
    _, fit_ric = _ricci_tensors(S, points[: nfit // 2].T, fit_ys.T, fit_columns)
    g_x = points[np.concatenate([fit_columns, flag_columns])].T
    g_all, _ = _fundamental_tensors(S, g_x, np.concatenate([fit_ys, flag_ys]).T)
    g = g_all[:nfit]
    fit_vals = (fit_ric * g).reshape(nfit, -1).sum(axis=1) / (g * g).reshape(nfit, -1).sum(axis=1)
    resid = np.abs(fit_ric - fit_vals[:, None, None] * g).max(axis=(1, 2)) / np.abs(g).max(axis=(1, 2))
    fit_resid = max(0.0, *resid.tolist())
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
    flags, kept = _flag_curvatures(g_all[nfit:], R[nric:], flag_ys, flag_us)
    flags = flags[kept]
    flag_constant = None
    if flags.size and float(flags.max() - flags.min()) <= MATRIX_TOLERANCE * max(1.0, float(np.abs(flags).max())):
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
