"""Spray coefficients, geodesic initial/boundary value solving.

Every family carries a closed-form spray (the Christoffel contraction for
Riemannian tables, the Randers formula on top of it, projective factors for
the ball models and the interval).  Geodesics integrate it through the
structure's float path, geodesic_field, and curvature reads it on jets
through spray_fast.  The spray from F^2 alone through the jet engine
(via="f2", spray_coefficients) is the independent cross-check, and the
routes are required to agree.

Shooting starts from the chord's Finsler length: on the ball models and
the interval, whose geodesics are the chords, the chart's cross-ratio in
closed form; on the tables, a 10-point Gauss-Legendre rule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainExitError, EvaluationDomainError, SearchFailureError
from .jets import Jet, jet_space
from .metrics import FinslerStructure, _dot, invert_scalarlike_matrix
from .ode import OdeTrajectory, integrate_ivp
from .scalar import minimize_bounded


def phase_jet_args(S: FinslerStructure, x, y, order: int, base_degree: int):
    """Jets for (x + xi, y + eta): seeds 0..n-1 are base, n..2n-1 are fibre.

    The jets carry derivatives of total degree at most base_degree along the
    base seeds.  x and y have shape (n,), or (n, B) for a batch of B phase
    points; x may also have its own batch width, as spray_fast's columns
    take it.
    """
    n = S.dimension
    space = jet_space(2 * n, order, lead=n, cap=base_degree)
    return _seeds(space, x, 0), _seeds(space, y, n)


def _seeds(space, values, first):
    """The n jets values[i] + seed first + i on space, built as one (n, ncoef[, B]) array."""
    z = np.atleast_1d(np.asarray(values, dtype=float))
    coef = np.zeros((len(z), space.ncoef) + z.shape[1:])
    coef[:, 0] = z
    if space.order >= 1:
        at = [space.index_of[tuple(int(u == v) for u in range(space.nvars))] for v in range(first, first + len(z))]
        coef[range(len(z)), at] = 1.0
    return [Jet(space, c) for c in coef]


def spray_from_f2_jets(S: FinslerStructure, xj, yj):
    """G^i as jets, two orders below the F^2 jet, via the defining formula.

    G^i = (1/4) g^{il} { [F^2]_{x^k y^l} y^k - [F^2]_{x^l} }.
    """
    n = S.dimension
    w = S.f2(xj, yj)
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
    """Spray values G^i(x, y) from the jet-engine formula.

    x and y have shape (n,), or (n, B) for B phase points, and so does the value.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not (y * y).any(axis=0).all():
        raise EvaluationDomainError("spray undefined at y = 0")
    return np.array([gi.value for gi in spray_jet_functions(S, x, y, 0, via="f2")])


def spray_jet_functions(S: FinslerStructure, x, y, g_order: int, via: str = "fast", columns=None):
    """G^i as jets of total order `g_order` over the 2n phase seeds.

    The jets carry at most one derivative along the base seeds, all that the
    curvature formula reads: reading a second one raises ValueError.  via
    "fast" runs the family's closed form; "f2" runs the jet spray from F^2,
    two orders higher and with two base derivatives, as the cross-check.
    x and y of shape (n, B) give jets batched over B phase points.  With
    columns, an index array of length B, x of shape (n, P) holds distinct
    base points and batch column b sits at x[:, columns[b]]: the closed form
    evaluates its base part once per base point, and the F^2 route takes x
    onto the columns first.

    The closed form's base part reads x alone, so its jets carry a value
    and n first derivatives: it runs on first-order jets, whose layout is
    the first 2n + 1 rows of the fibre jets' space, and spray_fast pads
    them with +0.0 into that space.  Every coefficient it keeps is the one
    the base part computes on the fibre jets' space, bit for bit.
    """
    if via == "fast":
        n = S.dimension
        xj = _seeds(jet_space(2 * n, min(g_order, 1)), x, 0)
        yj = _seeds(jet_space(2 * n, g_order, lead=n, cap=1), y, n)
        return list(S.spray_fast(xj, yj, columns=columns))
    if via != "f2":
        raise ValueError("via must be fast or f2")
    if columns is not None:
        x = np.asarray(x, dtype=float)[:, columns]
    xj, yj = phase_jet_args(S, x, y, g_order + 2, base_degree=min(g_order, 1) + 1)
    return spray_from_f2_jets(S, xj, yj)


def _geodesic_rhs(S: FinslerStructure, backward: bool = False):
    """(x, v)' = (v, -2G(x, v)), both halves negated when backward (parameter |s|).

    This is S.geodesic_field, the family's float path, or its elementwise
    negation, which has the bits of (-v, 2G).  The state z is a list of
    floats, as integrate_ivp passes it, and so is the value.  The field
    raises EvaluationDomainError off the chart, which is how integrate_ivp
    learns where the chart ends.  S.geodesic_field is read once per
    integration, so a wrapper installed on the structure before it sees
    every call.
    """
    field = S.geodesic_field
    if not backward:
        return field
    return lambda z: [-w for w in field(z)]


MAX_RESAMPLE_STEPS = 1_000_000  # |length| / step stays below it: at most a million and one rows


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

    def residual(self, z) -> float:
        """F(x, v) - 1 at the phase point z = (x, v)."""
        n = self.n
        return float(self.structure.F(z[:n], z[n:])) - 1.0

    def node_residuals(self) -> list[float]:
        """F(x, v) - 1 at every accepted node."""
        return [self.residual(z) for z in self.trajectory.states]

    def unit_speed_residual(self) -> float:
        return max(abs(r) for r in self.node_residuals())

    def write_csv(self, fh) -> None:
        """CSV rows at the accepted integration nodes."""
        self._write_rows(fh, self.s_grid)

    def resample_csv(self, fh, step: float) -> None:
        """CSV rows every `step` of arc length, plus the endpoint."""
        total = abs(self.length)
        if not step > 0.0 or total / step >= MAX_RESAMPLE_STEPS:
            raise ValueError(f"resample step must be positive and exceed |length| / {MAX_RESAMPLE_STEPS}")
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
            z = self.state(s)
            writer.writerow([repr(float(s))] + [repr(float(v)) for v in z] + [repr(self.residual(z))])


def geodesic_ivp(
    S: FinslerStructure, x0, y0, length: float, tolerance: float = 1e-10
) -> Geodesic:
    """Integrate the geodesic ODE x'' + 2G(x, x') = 0 at unit speed.

    y0 is rescaled so that F(x0, y0) = 1; a non-finite F(x0, y0) raises
    EvaluationDomainError.  Negative length integrates the backward
    extension; leaving the chart raises DomainExitError with the exit arc
    length.  So does losing unit speed: at the first accepted node where
    |F(x, v) - 1| is not within sqrt(tolerance), the error control has run
    out of precision (near the boundary of a ball, where 1 - |x|^2 falls to
    a few ulps), and DomainExitError carries that node's arc length and
    state and the whole trajectory.  The nodes are checked in order, and a
    node where F raises EvaluationDomainError is such an exit too.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not S.domain(x0):
        raise EvaluationDomainError(f"start point outside the chart: {x0}")
    if float(y0 @ y0) == 0.0:
        raise EvaluationDomainError("zero initial direction")
    if length == 0.0:
        raise ValueError("length must be nonzero")
    z0 = x0.tolist() + _unit_against_F(S, x0.tolist(), y0.tolist())
    backward = length < 0.0
    span = (0.0, abs(length))

    try:
        traj = integrate_ivp(_geodesic_rhs(S, backward), z0, span, tolerance=tolerance)
    except DomainExitError as exc:
        sign = -1.0 if backward else 1.0
        exc.t_exit = sign * exc.t_exit if exc.t_exit is not None else None
        raise
    geo = Geodesic(structure=S, trajectory=traj, length=length, backward=backward)
    bound = math.sqrt(tolerance)
    for s, state in zip(geo.s_grid, traj.states):
        try:
            resid = geo.residual(state)
        except EvaluationDomainError:  # F itself lost its precision here
            resid = math.nan
        if not abs(resid) <= bound:
            raise DomainExitError(
                f"unit-speed residual {resid:.3g} exceeds sqrt(tolerance) = {bound:.3g} "
                f"at arc length {s:.12g}: the integration ran out of precision",
                t_exit=float(s),
                state=state.copy(),
                trajectory=traj,
            )
    return geo


@dataclass
class DistanceResult:
    distance: float
    geodesic: Geodesic | None
    diagnostics: dict = field(default_factory=dict)


# ----- boundary value problem -----------------------------------------------

MISS_TOLERANCE = 1e-8  # endpoint miss (max norm) that counts as a hit
INTEGRATION_TOLERANCE = 1e-10  # Newton shots; coarse fan shots use 1e-8
NEWTON_MAX_ITER = 25
FAN_DIRECTIONS = 12  # fan directions besides the chord


def _closest_approach(traj: OdeTrajectory, q: np.ndarray, n: int):
    """Arc parameter of the closest dense-output approach to q, and its miss.

    The search brackets one step next to the closest node x_i: the step
    after it when the distance to q falls along the velocity there,
    (x_i - q).v_i < 0, the step before it otherwise.
    """
    d2 = np.sum((traj.states[:, :n] - q) ** 2, axis=1)
    i = int(np.argmin(d2))
    node = float(traj.ts[i]), float(math.sqrt(d2[i]))
    x_i, v_i = traj.states[i, :n], traj.states[i, n:]
    j = i + 1 if float((x_i - q) @ v_i) < 0.0 else i - 1
    if not 0 <= j < len(traj.ts):
        return node
    lo, hi = sorted((float(traj.ts[i]), float(traj.ts[j])))
    s_min, fun = minimize_bounded(lambda s: float(np.sum((traj(s)[:n] - q) ** 2)), lo, hi, xatol=1e-13)
    if d2[i] < fun:
        return node
    return s_min, float(math.sqrt(max(0.0, fun)))


def _unit_against_F(S, p, v):
    """v / F(p, v) as a list of floats; EvaluationDomainError unless F(p, v) is finite and positive.

    p and v are sequences of floats, and F(p, v) is S.float_F, which has the
    bits of S.F.  The message prints p and v as arrays.
    """
    f = S.float_F(p, v)
    if not (math.isfinite(f) and f > 0.0):
        raise EvaluationDomainError(f"cannot normalise y = {np.array(v)} at x = {np.array(p)}: F(x, y) = {f!r}")
    return [w / f for w in v]


# The 10-point Gauss-Legendre rule on [-1, 1]: its positive abscissae and their weights
_GAUSS_X = (
    0.973906528517171720077964012084452, 0.865063366688984510732096688423493,
    0.679409568299024406234327365114874, 0.433395394129247190799265943165784,
    0.148874338981631210884826001129720,
)
_GAUSS_W = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# its nodes and weights on [0, 1]
_GAUSS_NODES = [(0.5 + 0.5 * side * x, 0.5 * w) for x, w in zip(_GAUSS_X, _GAUSS_W) for side in (-1.0, 1.0)]


def _one_minus_norm2(q) -> float:
    """1 - |q|^2 rounded once: each q_i^2 and its rounding error (Dekker's product), added by math.fsum.

    Near the sphere 1 - q.q in floats keeps only the digits that q_i^2's
    rounding leaves: up to 3e-8 relative at |q|^2 = 1 - 2e-9.
    """
    terms = [1.0]
    for v in q:
        square = v * v
        split = 134217729.0 * v  # 2^27 + 1: v = top + bottom, halves whose products are exact
        top = split - (split - v)
        bottom = v - top
        terms += [-square, -(((top * top - square) + 2.0 * top * bottom) + bottom * bottom)]
    return math.fsum(terms)


def _beyond(p, q, d) -> float:
    """1 / u for the root u > 0 of |q + u d|^2 = 1, d = q - p: |q - p| over q's distance to the hit beyond it.

    The root is taken in the form that adds terms of one sign, over 1 -
    |q|^2 rounded once, so nothing cancels.
    """
    qd = _dot(q, d)
    dd = _dot(d, d)
    c = _one_minus_norm2(q)
    s = math.sqrt(qd * qd + dd * c)
    return (qd + s) / c if qd >= 0.0 else dd / (s - qd)


def _chord_length(S, p, q) -> float:
    """Finsler length of the straight segment from p to q; p and q are sequences of floats.

    On the chart families the chord is the geodesic, and its length has a
    closed form in the chord's boundary hits p + t (q - p), t- < 0 < 1 < t+:
    scale ln(t+ / (t+ - 1)) on the Funk ball, and on the Klein ball scale
    times half the log of the cross-ratio (1 - t-) t+ / ((-t-)(t+ - 1)).
    They are taken as log1p(1 / (t+ - 1)) and log1p(1 / (-t-)), each root
    seen from its own end (_beyond), so nothing cancels.  The interval's
    (scale / k) ln((1 -+ a) / (1 -+ b)) is written directly in a and b, as
    log1p((b - a) / (1 - b)) rightward and log1p((a - b) / (1 + b))
    leftward: the sphere's 1 - b^2 would lose what 1 - b keeps.  The shot's
    miss, not this formula, certifies the length as the distance.

    On the tables the chord length only spans the fan's coarse shots, and
    the 10-point Gauss-Legendre rule over S.float_F at p + t (q - p) gives
    it; S.float_F is read on every chord, so a wrapper installed on the
    structure before it sees every node.
    """
    d = [b - a for a, b in zip(p, q)]
    if not S.unique_geodesics:
        return math.fsum(w * S.float_F([a + t * b for a, b in zip(p, d)], d) for t, w in _GAUSS_NODES)
    scale = S.config.scale
    if S.family == "interval_funk":
        (a,), (b,) = p, q
        return scale / S.config.k * math.log1p((b - a) / (1.0 - b) if b > a else (a - b) / (1.0 + b))
    funk = math.log1p(_beyond(p, q, d))
    if S.family == "funk_ball":
        return scale * funk
    return scale * 0.5 * (funk + math.log1p(_beyond(q, p, [-v for v in d])))


def _shoot(S, p, v, s, tol, shots):
    """The geodesic from (p, v) over [0, s], or None when it leaves the chart.

    p and v are sequences of floats, and the start state is their
    concatenation as a list.  Every trajectory is appended to `shots`, a
    chart exit's too.  The list is read once, when the search ends:
    finsler_distance sums its ODE work then, so the dense-output stages that
    the closest-approach searches evaluate on these trajectories are counted
    as well.
    """
    try:
        traj = integrate_ivp(_geodesic_rhs(S), [*p, *v], (0.0, s), tolerance=tol)
    except DomainExitError as exc:
        shots.append(exc.trajectory)
        return None
    shots.append(traj)
    return traj


def _direction_basis(p_dim: int, d0: list[float]) -> np.ndarray:
    """Orthonormal complement of d0, columns spanning the search space."""
    mat = np.eye(p_dim)
    qmat, _ = np.linalg.qr(np.column_stack([d0] + [mat[:, i] for i in range(p_dim)]))
    return qmat[:, 1:p_dim]


def _newton_polish(S, p, d0, s0, q, shots, stop=1e-12):
    """Square-system Newton on (direction offsets, arc length) -> x(s) - q.

    The m = n - 1 direction offsets span the complement of d0 (none in
    dimension one, where Newton runs on the arc length alone).  Their
    Jacobian columns are one-sided differences against the current
    endpoint; the arc-length column is the endpoint velocity.  p, d0 and q
    are sequences of floats; the endpoints and misses are lists of floats,
    and only the Jacobian solve is array code.  Iteration stops once the
    max-norm miss is at most `stop`.  Returns the best iterate as
    (s, miss, iterations, trajectory), the trajectory being that iterate's
    shot over [0, s], also when a probe leaves the chart or the Jacobian is
    singular; None only when the start itself fails.
    """
    n = S.dimension
    m = n - 1
    basis = None  # built before the first Jacobian; a start that hits needs none
    u = np.zeros(m)
    s = s0

    def endpoint(u_loc, s_loc):
        if s_loc <= 0.0:
            return None
        # before the basis exists u is 0, and d0 + 0.0 is d0 + basis @ 0 bit
        # for bit: the product's zeros are +0.0, which turn a -0.0 into +0.0
        v = [w + 0.0 for w in d0] if basis is None else np.add(d0, basis @ u_loc).tolist()
        if math.sqrt(_dot(v, v)) < 1e-10:
            return None
        traj = _shoot(S, p, _unit_against_F(S, p, v), s_loc, INTEGRATION_TOLERANCE, shots)
        if traj is None:
            return None
        z = traj(s_loc).tolist()
        return z[:n], z[n:], traj

    def miss(x):
        r = [a - b for a, b in zip(x, q)]
        return r, max(map(abs, r))

    cur = endpoint(u, s)
    if cur is None:
        return None
    r, best = miss(cur[0])
    iters = 0
    h = 1e-7
    for _ in range(NEWTON_MAX_ITER):
        if best <= stop:
            break
        if basis is None:
            basis = _direction_basis(n, d0)
        probes = [endpoint(u + h * e, s) for e in np.eye(m)]
        if any(ep is None for ep in probes):
            break
        J = np.column_stack([np.subtract(ep[0], cur[0]) / h for ep in probes] + [cur[1]])
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
                r_new, best_new = miss(cand[0])
                if best_new < best:
                    u, s, cur, r, best = u_new, s_new, cand, r_new, best_new
                    break
            step *= 0.5
        else:
            break
        iters += 1
    return s, best, iters, cur[2]


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

    p and q are converted once to lists of floats, and the chord route
    carries them so from the chart test to the hit: the chord's direction,
    length and shots, and every Newton miss, are Python float arithmetic.
    The fan keeps its arrays for the closest-approach search and the
    Jacobian solve.

    diagnostics["path"] is "chord" or "fan"; diagnostics["shots"] counts
    every integrated trajectory, and diagnostics["rhs_calls"] and
    diagnostics["steps_rejected"] sum their ODE work, failed shots and the
    dense-output stages of the closest-approach searches included.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float)).tolist()
    q = np.atleast_1d(np.asarray(q, dtype=float)).tolist()
    if len(p) != len(q):
        raise ValueError(f"endpoints of different lengths {len(p)} and {len(q)}")
    if not S.domain(p) or not S.domain(q):
        raise EvaluationDomainError("endpoints must lie inside the chart")
    d = [b - a for a, b in zip(p, q)]
    if max(map(abs, d)) < 1e-14:
        return DistanceResult(0.0, None, {"trivial": True})

    shots = []
    chord_dir = _unit_against_F(S, p, d)
    chord_len = _chord_length(S, p, q)

    # With unique geodesics the chord direction and the chord's length start
    # Newton at a hit up to integration error; no fan shot is needed, and
    # polishing past MISS_TOLERANCE would only move s off the exact length.
    hit = (
        _newton_polish(S, p, chord_dir, chord_len, q, shots, stop=MISS_TOLERANCE)
        if S.unique_geodesics
        else None
    )
    if hit is not None and hit[1] <= MISS_TOLERANCE:
        diagnostics = {"path": "chord", "starts": 1, "candidates_polished": 1}
    else:
        hit, diagnostics = _fan_search(S, p, q, chord_dir, chord_len, seed, shots)
        if S.unique_geodesics:
            diagnostics["candidates_polished"] += 1  # the chord polish that missed
    s_best, miss_best, iters, traj = hit
    geo = Geodesic(structure=S, trajectory=traj, length=s_best)
    diagnostics.update(
        miss=miss_best,
        newton_iterations=iters,
        shots=len(shots),
        rhs_calls=sum(shot.rhs_calls for shot in shots),
        steps_rejected=sum(shot.steps_rejected for shot in shots),
    )
    return DistanceResult(float(s_best), geo, diagnostics)


def _fan_search(S, p, q, chord_dir, chord_len, seed, shots):
    """Multi-start fallback: the shortest polished hit over a fan of directions."""
    n = S.dimension
    s_max = 1.05 * chord_len + 0.05

    rng = np.random.default_rng(seed)
    candidates = [chord_dir]
    if n == 2:
        base_angle = math.atan2(chord_dir[1], chord_dir[0])
        for i in range(FAN_DIRECTIONS):
            ang = base_angle + 2.0 * math.pi * (i + 1) / (FAN_DIRECTIONS + 1)
            candidates.append(_unit_against_F(S, p, [math.cos(ang), math.sin(ang)]))
    else:
        for _ in range(FAN_DIRECTIONS):
            candidates.append(_unit_against_F(S, p, rng.standard_normal(n).tolist()))

    q_arr = np.array(q)
    coarse = []
    for v in candidates:
        traj = _shoot(S, p, v, s_max, 1e-8, shots)
        if traj is not None:
            s_star, miss = _closest_approach(traj, q_arr, n)
            coarse.append((miss, v, s_star))
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
        polished = _newton_polish(S, p, v, s0, q, shots)
        if polished is None:
            continue
        best_miss = min(best_miss, polished[1])
        if polished[1] <= MISS_TOLERANCE:
            hits.append(polished)
            if S.unique_geodesics:
                break
    if not hits:
        raise SearchFailureError(
            f"no connecting geodesic found from {p} to {q} "
            f"(best miss {best_miss:.3e}, {len(shots)} shots tried)"
        )
    hits.sort(key=lambda item: item[0])
    return hits[0], {"path": "fan", "starts": len(candidates), "candidates_polished": tried}
