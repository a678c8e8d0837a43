"""Projective parameters, the interval Funk gauge and the pseudo-distance.

The pipeline: a unit-speed geodesic carries a projective parameter pi(s)
solving {pi, s} = (2/(n-1)) Ric_jk x'^j x'^k.  Reparameterizing geodesics
into the interval I = (-1, 1) and measuring parameter gaps with the Funk
gauge L_f = (|y| + u y) / (k (1 - u^2)) yields a chain length whose infimum
over chains is projectively invariant.  On Einstein structures with
Ric_ij = -c^2 g_ij the infimum is proportional to the Finslerian distance
with factor 2c / (sqrt(n-1) k), which theorem1_verify checks numerically.

Without an Einstein constant pi is solved numerically: q(s) comes from one
batched Ricci evaluation on a fixed grid, and one local degree-6 Lagrange
rule reads q between nodes in the solve, pi(s) afterwards, and s against pi
for the inverse map.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from .curvature import EinsteinReport, _f2_values, _ricci_scalars, einstein_classify
from .errors import (
    CriticalPointError,
    EvaluationDomainError,
    MalformedChainError,
    NotEinsteinError,
    PoleError,
)
from .geodesics import DistanceResult, Geodesic, finsler_distance, spray_coefficients
from .jets import Jet, jet_exp, jet_space, jet_sqrt
from .metrics import SAMPLING_RADIUS, FinslerStructure
from .ode import integrate_ivp

CLASSIFY_SAMPLES = 6  # base points of the Einstein classification
MAX_INTERMEDIATE = 2  # intermediate points of a random chain
PAIR_RADIUS = 0.7  # theorem-1 pairs are sampled inside this radius
MIN_SEPARATION = 0.05  # and at least this far apart
PARAMETER_TOLERANCE = 1e-13  # ODE tolerance of the projective-parameter solve
PARAMETER_GRID = 129  # samples of pi on [0, L]
STITCH_TOLERANCE = 1e-8  # max-norm gap between a chain point and its segment end
LEMMA2_SLACK = 1e-6  # a lemma-2 margin down to -LEMMA2_SLACK * factor * d_F still passes
RELATION_TOLERANCE = 1e-6  # relative spread of spray quotients of related sprays


def schwarzian(f, t: float) -> float:
    """Schwarzian derivative {f, t} = f'''/f' - (3/2)(f''/f')^2.

    f must accept a scalar-like argument (order-3 jets are passed in).
    Moebius maps have Schwarzian zero, and {m o f, t} = {f, t}.
    """
    space = jet_space(1, 3)
    out = f(space.variable(0, float(t)))
    if not isinstance(out, Jet):
        raise ValueError("function must be evaluatable on jets")
    d1 = out.derivative((1,))
    d2 = out.derivative((2,))
    d3 = out.derivative((3,))
    if abs(d1) <= 1e-12:
        raise CriticalPointError(f"f'({t}) = {d1:.3e} is numerically zero")
    ratio = d2 / d1
    return d3 / d1 - 1.5 * ratio * ratio


@dataclass(frozen=True)
class FunkGauge:
    """Funk structure on the interval I = (-1, 1) with constant k > 0.

    Its line element is L_f(u, y) = (|y| + u y) / (k (1 - u^2)), the
    interval_funk family's F; funk_distance is its distance in closed form.
    """

    k: float = 1.0

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError("gauge constant k must be positive and finite")


def funk_distance(gauge: FunkGauge, a: float, b: float) -> float:
    """Ordered Funk distance on I in closed form.

    D_f(a, b) = (1/2k) ( |ln ((1-a)(1+b) / ((1-b)(1+a)))| + ln ((1-a^2)/(1-b^2)) ).
    """
    for v in (a, b):
        if not -1.0 < v < 1.0:
            raise EvaluationDomainError(f"endpoint {v} outside (-1, 1)")
    cross = abs(math.log((1.0 - a) * (1.0 + b) / ((1.0 - b) * (1.0 + a))))
    sym = math.log((1.0 - a * a) / (1.0 - b * b))
    return _finite((cross + sym) / (2.0 * gauge.k), "Funk distance", gauge)


def _gauge_factor(c: float, n: int, gauge: FunkGauge) -> float:
    """Theorem 1's factor 2c / (sqrt(n-1) k)."""
    return _finite(2.0 * c / (math.sqrt(n - 1.0) * gauge.k), "gauge factor 2c / (sqrt(n-1) k)", gauge)


def _finite(value: float, what: str, gauge: FunkGauge) -> float:
    """value, or EvaluationDomainError where a tiny gauge constant k overflowed it."""
    if not math.isfinite(value):
        raise EvaluationDomainError(f"{what} = {value!r} is not finite at gauge k = {gauge.k!r}")
    return value


def _lagrange6(nodes, values, s):
    """Degree-6 Lagrange interpolation on the 7 increasing nodes nearest s (a float or a jet)."""
    sval = s.value if isinstance(s, Jet) else float(s)
    i = int(np.searchsorted(nodes, sval))
    lo = max(0, min(i - 3, len(nodes) - 7))
    ts = [float(t) for t in nodes[lo : lo + 7]]
    # Newton form; only + and * so jets pass through
    coef = [float(v) for v in values[lo : lo + 7]]
    for lev in range(1, 7):
        for m in range(6, lev - 1, -1):
            coef[m] = (coef[m] - coef[m - 1]) / (ts[m] - ts[m - lev])
    acc = coef[6]
    for m in range(5, -1, -1):
        acc = acc * (s - ts[m]) + coef[m]
    return acc


@dataclass
class ProjectiveParameter:
    """pi(s) on [0, L] from the linear reduction u'' + (q/2) u = 0.

    pi = u1/u2 with u1(0)=0, u1'(0)=1, u2(0)=1, u2'(0)=0, which makes pi
    increasing with pi(0)=0 and pi'(0)=1 (Wronskian is 1).
    """

    geodesic: Geodesic
    s: np.ndarray
    pi: np.ndarray
    q: np.ndarray

    def __call__(self, s):
        """pi(s) between grid nodes; accepts floats or jets."""
        return _lagrange6(self.s, self.pi, s)

    def schwarzian_residual(self) -> float:
        """max |{pi, s} - q(s)| over interior grid points."""
        worst = 0.0
        for i in range(3, len(self.s) - 3, max(1, len(self.s) // 64)):
            worst = max(worst, abs(schwarzian(self, float(self.s[i])) - float(self.q[i])))
        return worst


def projective_parameter(S: FinslerStructure, geodesic: Geodesic) -> ProjectiveParameter:
    """Solve for the projective parameter along a forward unit-speed geodesic.

    q(s) = (2/(n-1)) Ric_jk x'^j x'^k.  Along a unit-speed geodesic the
    quadratic form collapses to the Ricci scalar: the trace R^k_k is
    2-homogeneous in y, so Ric_jk y^j y^k = R^k_k = F^2 Ric = Ric.  (The
    identity is exercised against the full tensor in the test-suite.)  The
    solve reads q between grid nodes by the rule that pi(s) uses.
    """
    n = S.dimension
    if n < 2:
        raise ValueError("projective parameters need dimension >= 2")
    L = geodesic.length
    if not L > 0.0:
        raise ValueError("projective parameters need a forward geodesic (length > 0)")
    svals = np.linspace(0.0, L, PARAMETER_GRID)
    states = geodesic.state(svals)
    qgrid = (2.0 / (n - 1.0)) * _ricci_scalars(S, states[:, :n].T, states[:, n:].T)

    def rhs(z):
        # z = (u1, u1', u2, u2', s); carrying s keeps the system autonomous
        q = _lagrange6(svals, qgrid, min(max(z[4], 0.0), L))
        return [z[1], -0.5 * q * z[0], z[3], -0.5 * q * z[2], 1.0]

    traj = integrate_ivp(rhs, [0.0, 1.0, 1.0, 0.0, 0.0], (0.0, L), tolerance=PARAMETER_TOLERANCE)
    states = traj(svals)
    u1 = states[:, 0]
    u2 = states[:, 2]
    if np.any(u2 <= 0.0):
        raise PoleError("u2 crossed zero: projective parameter has a pole in [0, L]")
    pi = u1 / u2
    if np.any(np.diff(pi) <= 0.0):
        raise PoleError("projective parameter is not strictly increasing")
    return ProjectiveParameter(geodesic=geodesic, s=svals, pi=pi, q=qgrid)


class _MobiusProjectiveMap:
    """t = m(w(s)) for a base projective parameter w and a Moebius map m.

    A subclass supplies geodesic, mobius, _base(s) = w(s) and
    _base_inverse(w, t), the arc length s with w(s) = w (t names the map
    parameter in errors).
    """

    def parameter(self, s: float) -> float:
        w = self._base(s)
        a, b, c, d = self.mobius
        return (a * w + b) / (c * w + d)

    def arc_of(self, t: float) -> float:
        a, b, c, d = self.mobius
        return self._base_inverse((d * t - b) / (-c * t + a), t)

    def point(self, t: float) -> np.ndarray:
        return self.geodesic.x(self.arc_of(t))

    def interval(self) -> tuple[float, float]:
        return self.parameter(0.0), self.parameter(abs(self.geodesic.length))


@dataclass
class GeodesicProjectiveMap(_MobiusProjectiveMap):
    """Projective map f: (subinterval of) I -> M along a unit-speed geodesic.

    The canonical parameter is pi0(s) = 1 - exp(-2 j s), composed with an
    orientation-preserving Moebius map m; f(t) = geodesic.x(s(t)) with
    s(t) = pi0^{-1}(m^{-1}(t)).  {pi0, s} = -2 j^2, and Moebius composition
    leaves the Schwarzian untouched, so these stay projective parameters.
    """

    geodesic: Geodesic
    j: float
    mobius: tuple = (1.0, 0.0, 0.0, 1.0)

    def _base(self, s):
        # jet_exp keeps the map evaluatable by schwarzian(), which feeds jets
        return 1.0 - jet_exp(-2.0 * self.j * s)

    def _base_inverse(self, w: float, t: float) -> float:
        if w >= 1.0:
            raise EvaluationDomainError(f"parameter {t} beyond the forward range")
        return -math.log(1.0 - w) / (2.0 * self.j)


def canonical_projective_map(
    S: FinslerStructure, geodesic: Geodesic, c: float
) -> tuple[GeodesicProjectiveMap, tuple[float, float]]:
    """Canonical map for an Einstein structure: pi(s) = 1 - exp(-2 j s).

    Maps [0, L] into [0, 1 - exp(-2 j L)) inside I, with f(0) the start
    point; j = c / sqrt(n - 1).
    """
    if c is None or not np.isfinite(c) or c <= 0.0:
        raise NotEinsteinError("canonical map needs a verified Einstein constant c > 0")
    n = S.dimension
    if n < 2:
        raise ValueError("canonical map needs dimension >= 2")
    j = c / math.sqrt(n - 1.0)
    pmap = GeodesicProjectiveMap(geodesic=geodesic, j=j)
    return pmap, pmap.interval()


@dataclass
class NumericalProjectiveMap(_MobiusProjectiveMap):
    """Projective map built from a numerically solved parameter.

    Used when no Einstein constant is available.  The Moebius
    renormalization w -> w / (w + 1) squeezes the forward image into [0, 1)
    whatever the span of pi, keeping the map inside I.
    """

    parameterization: ProjectiveParameter
    mobius: ClassVar[tuple] = (1.0, 0.0, 1.0, 1.0)

    @property
    def geodesic(self) -> Geodesic:
        return self.parameterization.geodesic

    def _base(self, s: float) -> float:
        return float(self.parameterization(s))

    def _base_inverse(self, w: float, t: float) -> float:
        # pi is strictly increasing on the grid, so s is read off against it
        param = self.parameterization
        if w <= param.pi[0]:
            return float(param.s[0])
        if w >= param.pi[-1]:
            return float(param.s[-1])
        return float(_lagrange6(param.pi, param.s, w))


def _leg(S: FinslerStructure, p, q, c: float | None) -> tuple[DistanceResult, _MobiusProjectiveMap | None]:
    """d_F(p, q) and the projective map of its geodesic (None when p == q).

    The map is the canonical exponential one when c is given and the
    numerically solved parameter otherwise; it spans the leg over interval().
    """
    res = finsler_distance(S, p, q)
    if res.geodesic is None:
        return res, None
    if c is not None:
        return res, canonical_projective_map(S, res.geodesic, c)[0]
    return res, NumericalProjectiveMap(parameterization=projective_parameter(S, res.geodesic))


@dataclass
class Chain:
    points: list
    segments: list


def chain_length(gauge: FunkGauge, chain: Chain) -> float:
    """Sum of Funk gaps over each leg's interval, after validating the stitching."""
    if len(chain.points) != len(chain.segments) + 1:
        raise MalformedChainError("chain needs one more point than segments")
    total = 0.0
    for i, pmap in enumerate(chain.segments):
        start = np.asarray(chain.points[i], dtype=float)
        end = np.asarray(chain.points[i + 1], dtype=float)
        a, b = pmap.interval()
        if float(np.max(np.abs(pmap.point(a) - start))) > STITCH_TOLERANCE:
            raise MalformedChainError(f"segment {i} does not start at x_{i}")
        if float(np.max(np.abs(pmap.point(b) - end))) > STITCH_TOLERANCE:
            raise MalformedChainError(f"segment {i} does not end at x_{i + 1}")
        total += funk_distance(gauge, a, b)
    return float(total)


def build_canonical_chain(S: FinslerStructure, points, c: float | None) -> Chain:
    """Chain through the given points, one projective segment per leg.

    Legs use the canonical exponential map when c is given and the
    numerically solved parameter otherwise.
    """
    pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]
    if len(pts) < 2:
        raise MalformedChainError("a chain needs at least two points")
    segments = []
    for i in range(len(pts) - 1):
        _, pmap = _leg(S, pts[i], pts[i + 1], c)
        if pmap is None:
            raise MalformedChainError("degenerate leg: identical consecutive points")
        segments.append(pmap)
    return Chain(points=pts, segments=segments)


@dataclass
class Lemma2Result:
    ok: bool
    margin: float
    funk_gap: float
    finsler_gap: float


def lemma2_check(
    gauge: FunkGauge, pmap: GeodesicProjectiveMap, a: float, b: float, factor: float
) -> Lemma2Result:
    """Check D_f(a, b) >= factor * d_F(f(a), f(b)) for a projective map.

    The Finslerian gap is the arc-length difference along the host geodesic,
    which realizes the distance on these uniquely-geodesic ball charts.  The
    slack is relative to the bound factor * d_F, which scales as 1/k with the
    gauge, so the check reads the same at every k.
    """
    if not b > a:
        raise ValueError("need b > a")
    d_funk = funk_distance(gauge, a, b)
    s_a = pmap.arc_of(a)
    s_b = pmap.arc_of(b)
    d_fins = s_b - s_a
    if d_fins < 0:
        raise ValueError("map is orientation reversing on [a, b]")
    margin = d_funk - factor * d_fins
    ok = margin >= -LEMMA2_SLACK * factor * d_fins
    return Lemma2Result(ok=ok, margin=float(margin), funk_gap=float(d_funk), finsler_gap=float(d_fins))


@dataclass
class PseudoDistanceResult:
    """The single-leg bound and what it is compared with; d_F and the discrepancy follow from them."""

    canonical_length: float
    theoretical: float | None
    best_random_chain: float | None
    distance: DistanceResult
    einstein: EinsteinReport
    pmap: _MobiusProjectiveMap | None  # the single leg's map; None when p == q

    @property
    def d_finsler(self) -> float:
        return self.distance.distance

    @property
    def theoretical_available(self) -> bool:
        return self.theoretical is not None

    @property
    def discrepancy(self) -> float | None:
        t = self.theoretical
        return None if t is None else abs(self.canonical_length - t) / max(t, 1e-300)

    def to_dict(self) -> dict:
        # written out, not asdict: it projects the nested distance onto its
        # diagnostics, and asdict would deep-copy the geodesic and its trajectory
        return {
            "d_finsler": self.d_finsler,
            "canonical_length": self.canonical_length,
            "theoretical": self.theoretical,
            "theoretical_available": self.theoretical_available,
            "best_random_chain": self.best_random_chain,
            "discrepancy": self.discrepancy,
            "diagnostics": self.distance.diagnostics,
        }


def pseudo_distance(
    S: FinslerStructure,
    p,
    q,
    gauge: FunkGauge,
    *,
    einstein: EinsteinReport | None = None,
    random_chains: int = 0,
    seed: int = 0,
) -> PseudoDistanceResult:
    """Upper bound for the projectively invariant pseudo-distance d_M(p, q).

    A single-segment chain gives the bound: canonical on Einstein structures
    (where it matches the theoretical value factor * d_F), built from the
    numerically solved parameter otherwise (upper bound only, flagged via
    theoretical_available).  Optional random multi-segment chains probe the
    infimum from above.  to_dict() includes the finsler_distance diagnostics.
    """
    if einstein is None:
        einstein = einstein_classify(S, x_samples=CLASSIFY_SAMPLES, seed=seed)
    c = einstein.einstein_constant_c
    n = S.dimension
    factor = None if c is None else _gauge_factor(c, n, gauge)
    res, pmap = _leg(S, p, q, c)
    # p == q: no leg, every length is 0 and no random chain is drawn
    bound = 0.0 if pmap is None else funk_distance(gauge, *pmap.interval())
    theoretical = None if factor is None else factor * res.distance
    best_random = None
    if random_chains > 0 and pmap is not None:
        rng = np.random.default_rng(seed)
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        q_arr = np.atleast_1d(np.asarray(q, dtype=float))
        best_random = math.inf
        for _ in range(random_chains):
            kmid = int(rng.integers(1, MAX_INTERMEDIATE + 1))
            pts = [p_arr, *S.sample_blocks(rng, [(True, 0)] * kmid, 0.8 * SAMPLING_RADIUS)[0], q_arr]
            try:
                chain = build_canonical_chain(S, pts, c)
                best_random = min(best_random, chain_length(gauge, chain))
            except (MalformedChainError, EvaluationDomainError, PoleError):
                continue
        if not np.isfinite(best_random):
            best_random = None
    return PseudoDistanceResult(
        canonical_length=bound,
        theoretical=theoretical,
        best_random_chain=best_random,
        distance=res,
        einstein=einstein,
        pmap=pmap,
    )


@dataclass
class ProjectiveRelation:
    """Sampled comparison of two sprays on a shared chart."""

    related: bool
    homothetic: bool
    scale_ratio: float | None
    quotient_spread: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def projective_relation(
    A: FinslerStructure,
    B: FinslerStructure,
    samples: int = 40,
    seed: int = 0,
) -> ProjectiveRelation:
    """Are the sprays related by G_B = G_A + P y (same unparameterized geodesics)?

    Tests the per-component quotients (G_B - G_A)^i / y^i for agreement, with
    y sampled away from the coordinate planes.  Homothety additionally needs
    a constant ratio F_B / F_A.  All samples are drawn first, then each
    structure's sprays and F^2 are evaluated once for all of them.
    """
    if A.dimension != B.dimension:
        raise ValueError("structures live on different chart dimensions")
    n = A.dimension
    rng = np.random.default_rng(seed)
    radius = 0.8 * SAMPLING_RADIUS
    xs, ys = [], []
    for _ in range(samples):
        (x,), (y,) = A.sample_blocks(rng, [(True, 1)], radius)
        while float(np.min(np.abs(y))) <= 0.15 / math.sqrt(n):
            y = A.sample_direction(rng)
        xs.append(x)
        ys.append(y)
    x, y = np.array(xs).T, np.array(ys).T
    Ga = spray_coefficients(A, x, y)
    quot = (spray_coefficients(B, x, y) - Ga) / y
    scale = np.maximum(1.0, np.abs(quot).max(axis=0))
    dev = quot.max(axis=0) - quot.min(axis=0)
    spread = float((dev / scale).max())
    related = not (dev > RELATION_TOLERANCE * scale).any()
    ratios = jet_sqrt(_f2_values(B, x, y)) / jet_sqrt(_f2_values(A, x, y))
    ratio_spread = float(ratios.max() - ratios.min())
    homothetic = related and ratio_spread <= 1e-8 * max(1.0, float(ratios.mean()))
    return ProjectiveRelation(
        related=related,
        homothetic=homothetic,
        scale_ratio=float(ratios.mean()) if homothetic else None,
        quotient_spread=spread,
        samples=samples,
        seed=seed,
    )


@dataclass
class Theorem1Report:
    family: str
    dimension: int
    gauge_k: float
    c: float
    factor: float
    pair_count: int
    seed: int
    tolerance: float
    max_discrepancy: float
    min_lemma2_margin: float
    passed: bool
    records: list = field(default_factory=list)

    def to_dict(self) -> dict:
        summary = asdict(self)
        return {"pairs": summary.pop("records"), "summary": summary}


def theorem1_verify(
    S: FinslerStructure,
    gauge: FunkGauge,
    pairs: int = 20,
    seed: int = 0,
    tolerance: float = 1e-4,
    *,
    einstein: EinsteinReport | None = None,
) -> Theorem1Report:
    """Numerical check of d_M = (2c / (sqrt(n-1) k)) d_F over sampled pairs.

    Pairs are ordered (forward-oriented), which keeps positively complete
    non-reversible structures inside their forward geodesic range.  Each
    record carries its finsler_distance diagnostics.
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    if einstein is None:
        einstein = einstein_classify(S, x_samples=CLASSIFY_SAMPLES, seed=seed)
    c = einstein.einstein_constant_c
    if c is None:
        raise NotEinsteinError(
            "theorem verification requires the Einstein normal form Ric_ij = -c^2 g_ij"
        )
    n = S.dimension
    factor = _gauge_factor(c, n, gauge)
    rng = np.random.default_rng(seed)
    pair_list = []
    while len(pair_list) < pairs:  # a round draws the pairs still missing, which the stream holds next
        ends = S.sample_blocks(rng, [(True, 0)] * (2 * (pairs - len(pair_list))), PAIR_RADIUS)[0]
        for p, q in zip(ends[::2], ends[1::2]):
            d = q - p
            if math.sqrt(d.dot(d)) >= MIN_SEPARATION:
                pair_list.append((p, q))

    records = []
    lemma2_ok = True
    for p, q in pair_list:
        out = pseudo_distance(S, p, q, gauge, einstein=einstein)
        pmap = out.pmap
        full = lemma2_check(gauge, pmap, *pmap.interval(), factor)
        L = out.d_finsler
        sub = lemma2_check(gauge, pmap, pmap.parameter(0.25 * L), pmap.parameter(0.75 * L), factor)
        lemma2_ok = lemma2_ok and full.ok and sub.ok
        records.append(
            {
                "p": p.tolist(),
                "q": q.tolist(),
                "d_F": float(out.d_finsler),
                "d_M_theoretical": float(out.theoretical),
                "d_M_canonical": float(out.canonical_length),
                "discrepancy": float(out.discrepancy),
                "lemma2_margin": float(min(full.margin, sub.margin)),
                "diagnostics": out.distance.diagnostics,
            }
        )

    max_disc = max(r["discrepancy"] for r in records)
    min_margin = min(r["lemma2_margin"] for r in records)
    return Theorem1Report(
        family=S.family,
        dimension=n,
        gauge_k=gauge.k,
        c=c,
        factor=factor,
        pair_count=pairs,
        seed=seed,
        tolerance=tolerance,
        max_discrepancy=float(max_disc),
        min_lemma2_margin=float(min_margin),
        passed=bool(max_disc <= tolerance and lemma2_ok),
        records=records,
    )
