"""Spray coefficients, geodesic initial/boundary value solving, path length.

The spray is always available through the jet engine from F^2 alone;
families that carry a closed-form fast path (Christoffel contraction for
Riemannian tables, projective factors for the ball models) use it for
integration speed, and the two routes are required to agree.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from .errors import DomainExitError, EvaluationDomainError, SearchFailureError
from .jets import jet_space
from .metrics import FinslerStructure, invert_scalarlike_matrix
from .ode import OdeTrajectory, integrate_ivp


def phase_jet_args(S: FinslerStructure, x, y, order: int):
    """Jets for (x + xi, y + eta): seeds 0..n-1 are base, n..2n-1 are fibre.

    x and y have shape (n,), or (n, B) for a batch of B phase points.
    """
    n = S.dimension
    space = jet_space(2 * n, order)
    xj = [space.variable(i, v) for i, v in enumerate(np.atleast_1d(np.asarray(x, dtype=float)))]
    yj = [space.variable(n + i, v) for i, v in enumerate(np.atleast_1d(np.asarray(y, dtype=float)))]
    return space, xj, yj


def spray_from_f2_jets(S: FinslerStructure, xj, yj):
    """G^i as jets, two orders below the F^2 jet, via the defining formula.

    G^i = (1/4) g^{il} { [F^2]_{x^k y^l} y^k - [F^2]_{x^l} }.
    """
    n = S.dimension
    w = S.F2(xj, yj)
    wx = [w.partial(l) for l in range(n)]
    g = [[0.5 * w.partial(n + i).partial(n + j) for j in range(n)] for i in range(n)]
    ginv = invert_scalarlike_matrix(g)
    b = []
    for l in range(n):
        acc = wx[0].partial(n + l) * yj[0]
        for k in range(1, n):
            acc = acc + wx[k].partial(n + l) * yj[k]
        b.append(acc - wx[l])
    out = []
    for i in range(n):
        acc = ginv[i][0] * b[0]
        for l in range(1, n):
            acc = acc + ginv[i][l] * b[l]
        out.append(0.25 * acc)
    return out


def spray_coefficients(S: FinslerStructure, x, y) -> np.ndarray:
    """Spray values G^i(x, y) from the jet-engine formula."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if float(y @ y) == 0.0:
        raise EvaluationDomainError("spray undefined at y = 0")
    _, xj, yj = phase_jet_args(S, x, y, 2)
    G = spray_from_f2_jets(S, xj, yj)
    return np.array([gi.value for gi in G])


def spray_jet_functions(S: FinslerStructure, x, y, g_order: int, via: str = "auto"):
    """G^i as jets of total order `g_order` over the 2n phase seeds.

    x and y of shape (n, B) give jets batched over B phase points.
    """
    if via not in ("auto", "fast", "f2"):
        raise ValueError("via must be auto, fast or f2")
    use_fast = S.spray_fast is not None and via in ("auto", "fast")
    if via == "fast" and S.spray_fast is None:
        raise ValueError(f"family {S.family} has no closed-form spray")
    if use_fast:
        _, xj, yj = phase_jet_args(S, x, y, g_order)
        return list(S.spray_fast(xj, yj))
    _, xj, yj = phase_jet_args(S, x, y, g_order + 2)
    return spray_from_f2_jets(S, xj, yj)


def _spray_values(S: FinslerStructure, x, y) -> np.ndarray:
    """G^i(x, y) for float arrays; a closed form runs on Python floats, bit-equal to numpy's."""
    if S.spray_fast is not None:
        return np.array(S.spray_fast(x.tolist(), y.tolist()), dtype=float)
    return spray_coefficients(S, x, y)


def _geodesic_rhs(S: FinslerStructure, backward: bool = False):
    """(x, v)' = (v, -2G(x, v)), both halves negated when backward (parameter |s|).

    S.spray_fast is read on every call, so a wrapper installed later sees each one.
    """
    n = S.dimension
    c = 2.0 if backward else -2.0

    def rhs(z):
        zl = z.tolist()
        v = zl[n:]
        spray = S.spray_fast
        if spray is None:
            G = spray_coefficients(S, z[:n], z[n:]).tolist()
        else:
            G = spray(zl[:n], v)
        if backward:
            v = [-vi for vi in v]
        return np.array(v + [c * gi for gi in G])

    return rhs


def _in_chart(S: FinslerStructure):
    """Domain predicate on phase states: the base point lies in the chart."""
    return lambda z: S.domain_fn(z[: S.dimension])


@dataclass
class Geodesic:
    """Unit-speed geodesic wrapped around a phase-space trajectory.

    For backward runs (length < 0) the trajectory parameter is |s| and the
    exposed arc length s runs negative; the state's velocity half is dx/ds
    in both directions.
    """

    structure: FinslerStructure
    trajectory: OdeTrajectory
    length: float
    x0: np.ndarray
    v0: np.ndarray
    backward: bool = False

    @property
    def n(self) -> int:
        return self.structure.dimension

    def _param(self, s: float) -> float:
        return -s if self.backward else s

    def state(self, s):
        return self.trajectory(self._param(s))

    def x(self, s) -> np.ndarray:
        return self.state(s)[: self.n]

    def v(self, s) -> np.ndarray:
        return self.state(s)[self.n :]

    @property
    def s_grid(self) -> np.ndarray:
        sign = -1.0 if self.backward else 1.0
        return sign * self.trajectory.ts

    def unit_speed_residual(self) -> float:
        worst = 0.0
        for state in self.trajectory.states:
            f = float(self.structure.F(state[: self.n], state[self.n :]))
            worst = max(worst, abs(f - 1.0))
        return worst

    def write_csv(self, fh) -> None:
        """CSV rows at the accepted integration nodes."""
        self._write_rows(fh, self.s_grid)

    def resample_csv(self, fh, step: float) -> None:
        """CSV rows every `step` of arc length, plus the endpoint."""
        if not step > 0.0:
            raise ValueError("resample step must be positive")
        total = abs(self.length)
        count = max(2, int(math.floor(total / step)) + 1)
        svals = [min(i * step, total) for i in range(count)]
        if svals[-1] < total:
            svals.append(total)
        sign = -1.0 if self.backward else 1.0
        self._write_rows(fh, [sign * sv for sv in svals])

    def _write_rows(self, fh, s_values) -> None:
        n = self.n
        writer = csv.writer(fh)
        writer.writerow(
            ["s"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)] + ["F_residual"]
        )
        for s in s_values:
            xx = self.x(s)
            vv = self.v(s)
            resid = float(self.structure.F(xx, vv)) - 1.0
            writer.writerow(
                [repr(float(s))]
                + [repr(float(v)) for v in xx]
                + [repr(float(v)) for v in vv]
                + [repr(resid)]
            )


def geodesic_ivp(
    S: FinslerStructure, x0, y0, length: float, tolerance: float = 1e-10
) -> Geodesic:
    """Integrate the geodesic ODE x'' + 2G(x, x') = 0 at unit speed.

    y0 is rescaled so that F(x0, y0) = 1.  Negative length integrates the
    backward extension; leaving the chart raises DomainExitError with the
    exit arc length.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not S.domain(x0):
        raise EvaluationDomainError(f"start point outside the chart: {x0}")
    if float(y0 @ y0) == 0.0:
        raise EvaluationDomainError("zero initial direction")
    if length == 0.0:
        raise ValueError("length must be nonzero")
    f0 = float(S.F(x0, y0))
    v0 = y0 / f0
    backward = length < 0.0
    z0 = np.concatenate((x0, v0))
    span = (0.0, abs(length))

    try:
        traj = integrate_ivp(
            _geodesic_rhs(S, backward), z0, span, tolerance=tolerance, domain=_in_chart(S)
        )
    except DomainExitError as exc:
        sign = -1.0 if backward else 1.0
        exc.t_exit = sign * exc.t_exit if exc.t_exit is not None else None
        raise
    return Geodesic(
        structure=S, trajectory=traj, length=length, x0=x0, v0=v0, backward=backward
    )


@dataclass
class DistanceResult:
    distance: float
    geodesic: Geodesic | None
    diagnostics: dict = field(default_factory=dict)


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


# ----- boundary value problem -----------------------------------------------

MISS_TOLERANCE = 1e-8  # endpoint miss (max norm) that counts as a hit
INTEGRATION_TOLERANCE = 1e-10  # Newton shots; coarse fan shots use 1e-8
NEWTON_MAX_ITER = 25
FAN_DIRECTIONS = 12  # fan directions besides the chord


def _closest_approach(traj: OdeTrajectory, q: np.ndarray, n: int):
    """Arc parameter of the closest dense-output approach to q."""
    d2 = np.sum((traj.states[:, :n] - q) ** 2, axis=1)
    i = int(np.argmin(d2))
    lo = traj.ts[max(0, i - 1)]
    hi = traj.ts[min(len(traj.ts) - 1, i + 1)]
    if hi <= lo:
        return float(traj.ts[i]), float(math.sqrt(d2[i]))
    res = minimize_scalar(
        lambda s: float(np.sum((traj(s)[:n] - q) ** 2)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-13},
    )
    s_star = float(res.x)
    miss = float(math.sqrt(max(0.0, res.fun)))
    if d2[i] < res.fun:
        return float(traj.ts[i]), float(math.sqrt(d2[i]))
    return s_star, miss


@dataclass
class _ShotTally:
    """Trajectories integrated by one distance search, and their ODE work."""

    shots: int = 0
    rhs_calls: int = 0
    steps_rejected: int = 0

    def add(self, traj: OdeTrajectory | None) -> None:
        if traj is not None:
            self.rhs_calls += traj.rhs_calls
            self.steps_rejected += traj.steps_rejected


def _unit_against_F(S, p, v):
    f = float(S.F(p, v))
    return v / f


def _integrate_shot(S, p, v, s_max, tol, tally):
    tally.shots += 1
    z0 = np.concatenate((p, v))
    try:
        traj = integrate_ivp(
            _geodesic_rhs(S), z0, (0.0, s_max), tolerance=tol, domain=_in_chart(S)
        )
    except DomainExitError as exc:
        tally.add(exc.trajectory)
        raise
    tally.add(traj)
    return traj


def _shoot_miss(S, p, v, q, s_max, tol, tally):
    """(s*, miss, trajectory); a domain exit counts as a failed shot."""
    try:
        traj = _integrate_shot(S, p, v, s_max, tol, tally)
    except DomainExitError:
        return None
    s_star, miss = _closest_approach(traj, q, S.dimension)
    return s_star, miss, traj


def _direction_basis(p_dim: int, d0: np.ndarray) -> np.ndarray:
    """Orthonormal complement of d0, columns spanning the search space."""
    mat = np.eye(p_dim)
    qmat, _ = np.linalg.qr(np.column_stack([d0] + [mat[:, i] for i in range(p_dim)]))
    return qmat[:, 1:p_dim]


def _newton_polish(S, p, d0, s0, q, tally, stop=1e-12):
    """Square-system Newton on (direction offsets, arc length) -> x(s) - q.

    The m = n - 1 direction offsets span the complement of d0 (none in
    dimension one, where Newton runs on the arc length alone).  Their
    Jacobian columns are one-sided differences against the current
    endpoint; the arc-length column is the endpoint velocity.  Iteration
    stops once the miss is at most `stop`.  Returns the best iterate as
    (v, s, miss, iterations, trajectory), the trajectory being that
    iterate's shot over [0, s], also when a probe leaves the chart or the
    Jacobian is singular; None only when the start itself fails.
    """
    n = S.dimension
    m = n - 1
    basis = _direction_basis(n, d0)
    u = np.zeros(m)
    s = s0

    def endpoint(u_loc, s_loc):
        if s_loc <= 0.0:
            return None
        v = d0 + basis @ u_loc
        nv = np.linalg.norm(v)
        if nv < 1e-10:
            return None
        v = _unit_against_F(S, p, v)
        try:
            traj = _integrate_shot(S, p, v, s_loc, INTEGRATION_TOLERANCE, tally)
        except DomainExitError:
            return None
        z = traj(s_loc)
        return z[:n], z[n:], traj

    cur = endpoint(u, s)
    if cur is None:
        return None
    r = cur[0] - q
    best = float(np.max(np.abs(r)))
    iters = 0
    h = 1e-7
    for _ in range(NEWTON_MAX_ITER):
        if best <= stop:
            break
        probes = [endpoint(u + h * e, s) for e in np.eye(m)]
        if any(ep is None for ep in probes):
            break
        J = np.column_stack([(ep[0] - cur[0]) / h for ep in probes] + [cur[1]])
        try:
            delta = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        for _ in range(8):
            u_new = u - step * delta[:m]
            s_new = s - step * delta[m]
            cand = endpoint(u_new, s_new)
            if cand is not None:
                r_new = cand[0] - q
                if float(np.max(np.abs(r_new))) < best:
                    u, s, cur, r = u_new, s_new, cand, r_new
                    best = float(np.max(np.abs(r_new)))
                    break
            step *= 0.5
        else:
            break
        iters += 1
    v = _unit_against_F(S, p, d0 + basis @ u)
    return v, s, best, iters, cur[2]


def finsler_distance(S: FinslerStructure, p, q, *, seed: int = 0) -> DistanceResult:
    """Ordered Finslerian distance d_F(p, q) by geodesic shooting.

    Newton on the endpoint map (direction offsets, arc length) -> x(s) - q
    is the only solver, in every dimension; what varies is where it starts.
    On structures with unique geodesics (the ball models and the interval,
    whose geodesics are straight chords) it starts from the chord direction
    and the chord's own Finsler length, and a hit within MISS_TOLERANCE is
    the distance, so Newton stops at the first hit and keeps the chord
    length whenever the start already hits; in dimension one the direction
    is fixed and Newton moves the arc length alone.  Otherwise, and on every
    other family, a multi-start fan supplies the starts: coarse shots over
    initial directions (the chord first, then a spread over the indicatrix),
    ranked by closest-approach miss and polished in that order, each from
    its closest-approach arc length, until one hits and at least three were
    tried; the shortest hit is the distance.  seed draws the fan's
    directions in dimension >= 3.  The returned geodesic is the hit's own
    shot, so its endpoint lies within MISS_TOLERANCE of q.

    diagnostics["path"] is "chord" or "fan"; diagnostics["shots"] counts
    every integrated trajectory, and diagnostics["rhs_calls"] and
    diagnostics["steps_rejected"] sum their ODE work, failed shots included.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not S.domain(p) or not S.domain(q):
        raise EvaluationDomainError("endpoints must lie inside the chart")
    if float(np.max(np.abs(q - p))) < 1e-14:
        return DistanceResult(0.0, None, {"trivial": True})

    tally = _ShotTally()
    chord_dir = _unit_against_F(S, p, q - p)
    # The shot's miss, not quad's error estimate, certifies this length, so
    # quad's warnings near the chart boundary are noise here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        chord_len = path_length(S, np.stack([p, q]), interpolation="linear")

    # With unique geodesics the chord direction and the chord's length start
    # Newton at a hit up to integration error; no fan shot is needed, and
    # polishing past MISS_TOLERANCE would only move s off the exact length.
    hit = (
        _newton_polish(S, p, chord_dir, chord_len, q, tally, stop=MISS_TOLERANCE)
        if S.unique_geodesics
        else None
    )
    if hit is not None and hit[2] <= MISS_TOLERANCE:
        diagnostics = {"path": "chord", "starts": 1, "candidates_polished": 1}
    else:
        hit, diagnostics = _fan_search(S, p, q, chord_dir, chord_len, seed, tally)
        if S.unique_geodesics:
            diagnostics["candidates_polished"] += 1  # the chord polish that missed
    v_best, s_best, miss_best, iters, traj = hit
    geo = Geodesic(structure=S, trajectory=traj, length=s_best, x0=p, v0=v_best)
    diagnostics.update(
        miss=miss_best,
        newton_iterations=iters,
        shots=tally.shots,
        rhs_calls=tally.rhs_calls,
        steps_rejected=tally.steps_rejected,
    )
    return DistanceResult(float(s_best), geo, diagnostics)


def _fan_search(S, p, q, chord_dir, chord_len, seed, tally):
    """Multi-start fallback: the shortest polished hit over a fan of directions."""
    n = S.dimension
    s_max = 1.05 * chord_len + 0.05

    rng = np.random.default_rng(seed)
    candidates = [chord_dir]
    if n == 2:
        base_angle = math.atan2(chord_dir[1], chord_dir[0])
        for i in range(FAN_DIRECTIONS):
            ang = base_angle + 2.0 * math.pi * (i + 1) / (FAN_DIRECTIONS + 1)
            candidates.append(_unit_against_F(S, p, np.array([math.cos(ang), math.sin(ang)])))
    else:
        for _ in range(FAN_DIRECTIONS):
            v = rng.standard_normal(n)
            candidates.append(_unit_against_F(S, p, v))

    coarse = []
    for v in candidates:
        shot = _shoot_miss(S, p, v, q, s_max, 1e-8, tally)
        if shot is not None:
            coarse.append((shot[1], v, shot[0]))
    if not coarse:
        raise SearchFailureError("all shooting starts left the domain")
    coarse.sort(key=lambda item: item[0])

    hits = []
    best_miss = math.inf
    tried = 0
    for _, v, s0 in coarse:
        if tried >= 3 and hits:
            break
        tried += 1
        polished = _newton_polish(S, p, v, s0, q, tally)
        if polished is None:
            continue
        best_miss = min(best_miss, polished[2])
        if polished[2] <= MISS_TOLERANCE:
            hits.append(polished)
            if S.unique_geodesics:
                break
    if not hits:
        raise SearchFailureError(
            f"no connecting geodesic found from {p} to {q} "
            f"(best miss {best_miss:.3e}, {tally.shots} shots tried)"
        )
    hits.sort(key=lambda item: item[1])
    return hits[0], {"path": "fan", "starts": len(candidates), "candidates_polished": tried}
