"""Finsler metric families, the fundamental tensor and structure validation.

Every family has two paths.  The scalar-like path, f2 and spray_fast (and
F = sqrt(f2)), accepts floats, (B,) rows, object arrays or jets and
therefore feeds both ordinary evaluation and the derivative machinery:
curvature, the g_ij Hessian and the via="f2" cross-check.  The float path,
geodesic_field and float_F, takes lists of Python floats only and serves
the values that geodesic integration and the tables' chord-length rule
evaluate over and over.  Every family is generated: _compile states its
F^2 and spray once and compiles both paths from it by codegen.emit, with
the same float operations in the same order.  The chart families, the
Klein ball, the Funk ball and the interval Funk metric, are compiled once
per dimension; the Riemannian and Randers families write their config's
polynomial tables into the source and are compiled per config.
Built-in families live on the open unit ball (the interval (-1, 1) in
dimension one); sampling for validation stays inside radius 0.95.
FinslerStructure.domain is the one chart predicate, and every family's
closed-form spray and geodesic field raise EvaluationDomainError off the
chart, so integrators learn where the chart ends from the right-hand side
alone.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .codegen import emit
from .errors import ConfigError, EvaluationDomainError, StrongConvexityError
from .jets import Jet, jet_abs, jet_space, jet_sqrt, scalar_value

FAMILIES = ("riemannian", "randers", "funk_ball", "klein_ball", "interval_funk")
MAX_POLY_DEGREE = 4
SAMPLING_RADIUS = 0.95
CONSTRUCTION_SAMPLES = 200  # points at which make_metric checks a table's positivity


_OFF_CHART = "point outside the unit-ball chart"


def _dot(u, v):
    total = u[0] * v[0]
    for i in range(1, len(u)):
        total = total + u[i] * v[i]
    return total


def _require_chart(d):
    """D = 1 - |x|^2 must be positive: a float, or every column of a (B,) array or jet."""
    if d <= 0.0 if isinstance(d, float) else np.any(d <= 0.0):
        raise EvaluationDomainError(_OFF_CHART)


def _take_columns(like, columns, *values):
    """The base values in the space and on the batch columns of the fibre values.

    like is the first fibre value.  When it is a jet, a jet of another
    space, as the base part's first-order jets are, is padded with +0.0
    into its space.  Given columns, batch column c reads column columns[c]
    of a batched jet or array, which take gathers along the batch axis.  A
    value may be a nested list of them; a float, and an unbatched jet's
    columns, stay as they are.
    """
    space = like.space if isinstance(like, Jet) else None

    def take(v):
        if isinstance(v, list):
            return [take(u) for u in v]
        if isinstance(v, Jet):
            if columns is not None and v.coef.ndim > 1:
                v = Jet(v.space, v.coef.take(columns, axis=-1))
            return v if space is None else v._padded(space)
        return v.take(columns, axis=-1) if columns is not None and isinstance(v, np.ndarray) else v

    return [take(v) for v in values]


def _row_norms(v):
    """The norms of the rows of v (B, n), shape (B, 1), by one stacked matmul."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]


def _unit_rows(rows, n):
    """The rows of a list of (k, n) arrays, stacked and each divided by its norm."""
    if not rows:
        return np.empty((0, n))
    v = np.concatenate(rows)
    return v / _row_norms(v)


def _draw_rows(rng, n, need, point):
    """The normal rows that need directions and then, if point, one point take, the point's row last.

    A direction row of norm at most 1e-8 is dropped, and the stream's next
    row takes its place, drawn when the rows in hand run out; the point's
    row is the one after the last good direction.
    """
    v = rng.standard_normal((need + point, n))
    if not need or abs(v).min() > 2e-8:  # each row's norm then exceeds 1e-8, whatever the rounding
        return v
    while True:
        good = _row_norms(v)[:, 0] > 1e-8
        count = np.cumsum(good)
        if count[-1] < need:  # every row in hand is a direction
            missing = need - int(count[-1]) + point
        else:
            end = int(np.searchsorted(count, need)) + 1
            missing = end + point - len(v)
            if not missing:
                return np.concatenate([v[:end][good[:end]], v[end:]])
        v = np.concatenate([v, rng.standard_normal((missing, n))])


def _eval_polynomials(polys, xs) -> np.ndarray:
    """The polynomials at the rows of xs (B, n), shape (B, len(polys)).

    Each runs once on the (B,) coordinate columns.  Polynomial uses only + and
    *, so every value has the bits of its evaluation at the single point.
    """
    cols = xs.T
    return np.stack([np.broadcast_to(p(cols), len(xs)) for p in polys], axis=1)


def _eval_table(table, xs) -> np.ndarray:
    """A table of polynomials at the rows of xs (B, n), shape (B, m, m)."""
    return np.stack([_eval_polynomials(row, xs) for row in table], axis=1)


class Polynomial:
    """Multivariate polynomial in the chart coordinates; exact on jets.

    terms holds one term per monomial, in order of first appearance: its
    coefficient is the math.fsum of the like coefficients given, and a zero
    sum is dropped, so every evaluation reads the exact sum of like terms.
    math.fsum raises OverflowError where that sum, or a partial sum, leaves
    the finite floats.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms):
        self.nvars = nvars
        like = {}
        for c, exps in terms:
            like.setdefault(tuple(int(e) for e in exps), []).append(float(c))
        sums = ((math.fsum(cs), exps) for exps, cs in like.items())
        self.terms = tuple((c, exps) for c, exps in sums if c != 0.0)

    def __call__(self, x):
        total = 0.0
        for c, exps in self.terms:
            term = c
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * x[i]
            total = total + term
        return total

    def partial(self, v: int) -> "Polynomial":
        out = []
        for c, exps in self.terms:
            if exps[v] == 0:
                continue
            new = list(exps)
            new[v] -= 1
            out.append((c * exps[v], tuple(new)))
        return Polynomial(self.nvars, out)

    @staticmethod
    def from_json(obj, nvars: int, where: str) -> "Polynomial":
        if not isinstance(obj, list):
            raise ConfigError(f"{where}: polynomial must be a list of terms")
        terms = []
        for t in obj:
            if not isinstance(t, list) or len(t) != nvars + 1:
                raise ConfigError(f"{where}: each term must be [coeff, e1..e{nvars}]")
            coeff = t[0]
            if not _finite_number(coeff):
                raise ConfigError(f"{where}: coefficient must be a number")
            exps = t[1:]
            for e in exps:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise ConfigError(f"{where}: exponents must be non-negative integers")
            if sum(exps) > MAX_POLY_DEGREE:
                raise ConfigError(f"{where}: total degree exceeds {MAX_POLY_DEGREE}")
            terms.append((coeff, exps))
        try:
            return Polynomial(nvars, terms)
        except OverflowError as exc:
            raise ConfigError(f"{where}: like terms sum beyond the finite floats") from exc


def _finite_number(value) -> bool:
    """A JSON number within the finite floats: not a boolean, NaN, +-Infinity or a larger integer."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _poly_matrix_from_json(obj, n: int, where: str):
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(f"{where}: expected an {n}x{n} matrix of polynomials")
    mat = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{where}: row {i} must have {n} entries")
        mat.append([Polynomial.from_json(cell, n, f"{where}[{i}][{j}]") for j, cell in enumerate(row)])
    return mat


def _poly_vector_from_json(obj, n: int, where: str):
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(f"{where}: expected {n} polynomial entries")
    return [Polynomial.from_json(cell, n, f"{where}[{i}]") for i, cell in enumerate(obj)]


_TABLE_BLOCKS = {"riemannian": {"metric"}, "randers": {"metric", "one_form"}}  # a family's block and its fields


@dataclass(frozen=True)
class MetricConfig:
    """Parsed, validated description of one metric instance.

    metric is the riemannian or randers family's table of polynomials, and
    one_form the randers family's b_i; both are None on the chart families.
    """

    family: str
    dimension: int
    k: float = 1.0
    scale: float = 1.0
    metric: tuple | None = None
    one_form: tuple | None = None

    @staticmethod
    def from_dict(doc: dict) -> "MetricConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        allowed = {"family", "dimension", "k", "scale", *_TABLE_BLOCKS}
        unknown = set(doc) - allowed
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        family = doc.get("family")
        if family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {family!r}")
        dim = doc.get("dimension")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ConfigError("dimension must be a positive integer")
        if family == "interval_funk":
            if dim != 1:
                raise ConfigError("interval_funk is one-dimensional")
        elif dim < 2:
            raise ConfigError(f"{family} needs dimension >= 2")
        k = doc.get("k", 1.0)
        if not _finite_number(k) or k <= 0:
            raise ConfigError("k must be a positive number")
        if "k" in doc and family != "interval_funk":
            raise ConfigError("k applies only to the interval_funk family")
        scale = doc.get("scale", 1.0)
        if not _finite_number(scale) or scale <= 0:
            raise ConfigError("scale must be a positive number")
        metric = one_form = None
        for name, fields in _TABLE_BLOCKS.items():
            if family != name:
                if name in doc:
                    raise ConfigError(f"'{name}' block is only valid for the {name} family")
                continue
            block = doc.get(name)
            if not isinstance(block, dict):
                raise ConfigError(f"{name} family needs a '{name}' block")
            extra = set(block) - fields
            if extra:
                raise ConfigError(f"unknown {name} fields: {sorted(extra)}")
            metric = tuple(tuple(r) for r in _poly_matrix_from_json(block.get("metric"), dim, f"{name}.metric"))
            if "one_form" in fields:
                one_form = tuple(_poly_vector_from_json(block.get("one_form"), dim, f"{name}.one_form"))
        return MetricConfig(family, dim, float(k), float(scale), metric, one_form)

    @staticmethod
    def from_json(text: str) -> "MetricConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return MetricConfig.from_dict(doc)


def load_config(path: str) -> MetricConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return MetricConfig.from_json(fh.read())


@dataclass
class FinslerStructure:
    """A metric instance: scalar-like F^2 and spray evaluators, and their float path.

    geodesic_field(z) is [v, -2 G(x, v)] for the phase point z = x + v, a
    list of 2n floats; float_F(x, y) is F on lists of floats.  Both give the
    bits of the scalar-like path: all four are generated from one source.
    g_ij is the jet Hessian of F^2/2.  Every other fact is read from the
    config, which fixes it.
    """

    config: MetricConfig
    f2: Callable
    spray_fast: Callable
    geodesic_field: Callable
    float_F: Callable

    @property
    def dimension(self) -> int:
        return self.config.dimension

    @property
    def family(self) -> str:
        return self.config.family

    @property
    def reversible(self) -> bool:
        """F(x, -y) = F(x, y): the Klein ball, every Riemannian table, and a Randers metric exactly when beta = 0.

        beta = 0 when each b_i is the zero polynomial, which has no terms once
        like monomials are added (Chern & Shen, Riemann-Finsler Geometry, 2005).
        """
        form = self.config.one_form
        if form is not None:
            return not any(p.terms for p in form)
        return self.family in ("klein_ball", "riemannian")

    @property
    def unique_geodesics(self) -> bool:
        """The chart families' geodesics are chords; a table's are not known in advance."""
        return self.config.metric is None

    def domain(self, x) -> bool:
        """x lies in the chart: the open unit ball, the interval (-1, 1) in dimension one."""
        return bool(_dot(x, x) < 1.0)

    def F(self, x, y):
        val = self.f2(x, y)
        return jet_sqrt(val)

    def sample_blocks(self, rng, blocks, radius: float | None = None):
        """(points, directions) of a plan of blocks, shapes (P, n) and (K, n), in draw order.

        A block (point, k) draws what sample_point, when point holds, and
        then k calls of sample_direction draw one at a time, and the plan
        draws that stream: a point is a normal row and then a uniform, a
        direction a normal row, redrawn while its norm is at most 1e-8.  The
        normal rows between two uniforms come from one standard_normal call
        (_draw_rows), since a call of size a + b draws what calls of size a
        and b draw.  rng.random() gives the bits of rng.uniform().  Each
        row's norm is the stacked matmul's, which is np.linalg.norm's bits,
        and a point's radius is r_cap * u ** (1 / n) in Python floats.
        """
        n = self.dimension
        r_cap = SAMPLING_RADIUS if radius is None else radius
        points, directions, radii = [], [], []
        need = 0  # directions drawn with the next point's row
        for point, k in blocks:
            if point:
                v = _draw_rows(rng, n, need, 1)
                if need:
                    directions.append(v[:need])
                points.append(v[need:])
                radii.append(r_cap * rng.random() ** (1.0 / n))
                need = 0
            need += k
        if need:
            directions.append(_draw_rows(rng, n, need, 0))
        return np.array(radii)[:, None] * _unit_rows(points, n), _unit_rows(directions, n)

    def sample_point(self, rng, radius: float | None = None) -> np.ndarray:
        """Uniform point of the chart ball, inside the sampling margin: sample_blocks at one point."""
        return self.sample_blocks(rng, [(True, 0)], radius)[0][0]

    def sample_direction(self, rng) -> np.ndarray:
        """One unit direction: sample_blocks at one direction."""
        return self.sample_directions(rng, 1)[0]

    def sample_directions(self, rng, k: int) -> np.ndarray:
        """k unit directions, shape (k, n), the stream of k successive draws: sample_blocks at k directions."""
        return self.sample_blocks(rng, [(False, k)])[1]


@functools.cache
def _chart_paths(family: str, n: int):
    """make(s2, k) of a chart family in dimension n, whose source depends on nothing else."""
    return _compile(family, n)


def _compile(family: str, n: int, config: MetricConfig | None = None):
    """make(s2, k) -> (f2, spray_fast, geodesic_field, float_F) of a family in dimension n.

    Every family is written here once, as statements over the local names
    x0, y0, ..., and compiled from source in two flavours.  The scalar-like
    f2 and spray_fast take floats, (B,) rows, object arrays or jets, refuse
    the chart's outside through _require_chart and call jet_sqrt and
    jet_abs.  The float geodesic_field and float_F take lists of floats,
    inline those refusals (D <= 0, a radicand <= 0, through which a NaN
    passes as it does there) and call math.sqrt and abs.  Both flavours do
    the same float operations in the same order: _dot's left-to-right sums,
    one accumulating statement per term (so the code's nesting does not grow
    with n; a jet has no __iadd__ and is rebound, an array is the fresh
    product of the first term), and ** 2 kept as ** 2.  s2 is the squared
    scale, k the interval's gauge constant.  Measured against float closures
    over lists that call _dot (2 shared cores, Python 3.11, n = 2 and 3),
    the generated ball field takes 0.30-0.45 us a call against 1.1-1.7 us,
    and the benchmark's ball_theorem1 runs about 900 ops/s against 680.

    The Riemannian and Randers families take their tables from config.
    Each polynomial is written out term by term, summed from 0.0 as
    Polynomial.__call__ sums it, and a table entry without terms keeps the
    0.0 its table starts from.  The Levi-Civita contraction stays a loop
    over the tables, so the source grows with the terms and not as n^3.
    Both flavours invert g through invert_scalarlike_matrix, looked up in
    this module at call time.  A partial's coefficient can overflow to inf,
    whose repr the namespace binds.

    spray_fast's base part is every statement before the first that reads
    y: |x|^2, D, the chart check and, on a table, g, its inverse, its
    x-partials and a Randers form's b and J.  On jets it runs on the
    first-order jets spray_jet_functions gives the x seeds, which carry all
    a function of x alone carries when the base seeds are capped at degree
    one.  Every call passes the base values the rest reads, the x seeds
    among them, through _take_columns, the one junction of the two parts: it
    pads a jet with +0.0 into the fibre jets' space and, given columns, an
    index array that names each batch column's base point, gathers the
    values of the distinct base points x holds onto the columns, so the
    base part runs once for each.  The product tables skip no nonzero term
    and sum from +0.0, so each coefficient kept is the one the base part
    computes on the fibre jets' space, bit for bit.  A jet divides by
    multiplying with the divisor's reciprocal (Jet.__truediv__), so on jets
    the chart families take D's reciprocal with the base part and multiply
    by it; floats, (B,) rows and object arrays keep / D, since x * (1 / D)
    does not give the bits of x / D that the float path's geodesic_field
    computes.
    """

    def dot(total, a, b):
        return [f"{total} = {a}0 * {b}0"] + [f"{total} += {a}{i} * {b}{i}" for i in range(1, n)]

    def root(r, floats):
        """(lines, expression) for sqrt(r); the float flavour inlines jet_sqrt's refusal of r <= 0."""
        if floats:
            return [f'if {r} <= 0.0: raise EvaluationDomainError(f"sqrt domain violation: {{{r}}}")'], f"sqrt({r})"
        return [], f"jet_sqrt({r})"

    def loop(index, *body):
        return [f"for {index} in range({n}):"] + ["    " + line for line in body]

    def table(name, polys, depth):
        """name = the values of a depth-deep nested list of polynomials at x0, x1, ..."""
        zeros = f"[0.0] * {n}"
        for _ in range(depth - 1):
            zeros = f"[{zeros} for _ in range({n})]"
        lines = [f"{name} = {zeros}"]
        for index in itertools.product(range(n), repeat=depth):
            p = functools.reduce(lambda row, i: row[i], index, polys)
            for t, (c, exps) in enumerate(p.terms):
                factors = [repr(c)] + [f"x{i}" for i, e in enumerate(exps) for _ in range(e)]
                lines.append(f"t = {'t' if t else '0.0'} + " + " * ".join(factors))
            if p.terms:
                lines.append(name + "".join(f"[{i}]" for i in index) + " = t")
        return lines

    if config is not None:
        gpoly = config.metric
        bpoly = config.one_form
        g = table("g", gpoly, 2)
        dg = table("dg", [[[gpoly[i][j].partial(l) for j in range(n)] for i in range(n)] for l in range(n)], 3)
        if bpoly is not None:
            b = table("b", bpoly, 1)
            J = table("J", [[p.partial(j) for j in range(n)] for p in bpoly], 2)  # J[i][j] = d_j b_i
        quadratic = ["q = 0.0"] + loop("i", "row = 0.0", *loop("j", "row = row + g[i][j] * y[j]"), "q = q + y[i] * row")

    def polynomial_statements(head, floats):
        # G^i_a = (1/4) g^il (2 d_k g_lj - d_l g_jk) y^j y^k, with dg[l][i][j] = d_l g_ij
        base = head + g + ["ginv = metrics.invert_scalarlike_matrix(g)"] + dg
        contract = "acc = acc + (2.0 * dg[kk][l][j] - dg[l][j][kk]) * y[j] * y[kk]"
        rest = ["inner = []"] + loop("l", "acc = 0.0", *loop("j", *loop("kk", contract)), "inner.append(acc)")
        rest += ["Ga = []"] + loop("i", "acc = 0.0", *loop("l", "acc = acc + ginv[i][l] * inner[l]"), "Ga.append(0.25 * acc)")
        if bpoly is None:
            return g + quadratic + ["f2 = s2 * q"], base, rest, [f"Ga[{i}]" for i in range(n)]
        check, sqrt_q = root("q", floats)
        f2 = g + quadratic + check + [f"alpha = {sqrt_q}"] + b + ["beta = 0.0"]
        f2 += loop("i", "beta = beta + b[i] * y[i]") + ["F = alpha + beta", "f2 = s2 * F * F"]
        # G^i = G^i_a + (e_00 / (2F) - s_0) y^i + alpha s^i_0 (Chern & Shen,
        # Riemann-Finsler Geometry, 2005).  The Christoffel terms of b_{i|j}
        # cancel in s_ij and give r_00 = (d_j b_i) y^i y^j - 2 b_k G^k_a; then
        # e_00 = r_00 + 2 beta s_0 and s_0 = b_k s^k_0.  scale drops out.
        base += b + J
        rest += [
            "Jy = [_dot(row, y) for row in J]",
            f"s_lo = [0.5 * (Jy[i] - _dot([row[i] for row in J], y)) for i in range({n})]",
            "s_up = [_dot(row, s_lo) for row in ginv]",
        ]
        rest += quadratic + check + [
            f"alpha = {sqrt_q}",
            "beta = _dot(b, y)",
            "s_0 = _dot(b, s_up)",
            "e_00 = _dot(Jy, y) - 2.0 * _dot(b, Ga) + 2.0 * beta * s_0",
            "P = e_00 / (2.0 * (alpha + beta)) - s_0",
        ]
        return f2, base, rest, [f"Ga[{i}] + P * y{i} + alpha * s_up[{i}]" for i in range(n)]

    def statements(floats, over_D=" / D"):
        """(f2 lines, spray's base lines, spray's other lines, G^i expressions) in one flavour.

        The base lines read x alone; the spray divides by D as over_D says.
        """
        chart = "if D <= 0.0: raise EvaluationDomainError(_OFF_CHART)" if floats else "_require_chart(D)"
        absolute = "abs" if floats else "jet_abs"
        head = dot("xx", "x", "x") + ["D = 1.0 - xx", chart]
        if config is not None:
            return polynomial_statements(head, floats)
        xy = dot("xy", "x", "y")
        if family == "klein_ball":
            rest = xy + [f"P = xy{over_D}"]
            f2 = head + xy + dot("yy", "y", "y") + ["f2 = s2 * (yy * D + xy ** 2) / (D * D)"]
            G = "P * y{}"
        elif family == "funk_ball":
            # Funk metrics solve F_{x^k} = F F_{y^k}; the spray collapses to F y / 2.
            # Constant rescalings of F leave the spray unchanged, so use raw F.
            check, sqrt_rad = root("rad", floats)
            rest = xy + dot("yy", "y", "y") + ["rad = xy * xy + yy * D"] + check + [f"F = ({sqrt_rad} + xy){over_D}"]
            f2 = head + rest + ["f2 = s2 * F * F"]
            G = "0.5 * F * y{}"
        else:
            # The k = 1 gauge solves F_u = F F_w, so as on the Funk ball the spray
            # is F w / 2; k and scale rescale F and drop out.
            rest = xy + [f"F = ({absolute}(y0) + xy){over_D}"]
            f2 = head + xy + [f"F = ({absolute}(y0) + xy) / (k * D)", "f2 = s2 * F * F"]
            G = "0.5 * F * y{}"
        return f2, head, rest, [G.format(i) for i in range(n)]

    def function(signature, body):
        return [f"def {signature}:"] + ["    " + line for line in body]

    def gathered(rest, G):
        """rest and the return of G, after the base values rest reads are taken onto the batch columns."""
        words = set(re.findall(r"\w+", "\n".join(rest)))
        read = [v for v in [*(f"x{i}" for i in range(n)), "D", "rD", "g", "ginv", "dg", "b", "J"] if v in words]
        names = ", ".join(read)
        take = [f"{names}, = _take_columns(y0, columns, {names})"]
        return take + rest + ["return [" + ", ".join(G) + "]"]

    xs, ys = ("".join(f"{c}{i}, " for i in range(n)) for c in "xy")
    unpack = [f"{xs}= x", f"{ys}= y"]
    f2, base, rest, G = statements(floats=False)
    lines = function("f2(x, y)", unpack + f2 + ["return f2"])
    spray = unpack + base
    if config is None:  # a jet divides by multiplying with the reciprocal: take D's once, with the base
        _, _, jet_rest, _ = statements(floats=False, over_D=" * rD")
        spray += ["if isinstance(D, Jet):"] + ["    " + line for line in ["rD = D._reciprocal()"] + gathered(jet_rest, G)]
    lines += function("spray_fast(x, y, columns=None)", spray + gathered(rest, G))
    f2, base, rest, G = statements(floats=True)
    field = "return [" + ys + ", ".join(f"-2.0 * ({g})" for g in G) + "]"
    phase = [f"{xs}{ys}= z"] + ([f"y = z[{n}:]"] if config is not None else [])
    lines += function("geodesic_field(z)", phase + base + rest + [field])
    check, sqrt_f2 = root("f2", True)
    lines += function("float_F(x, y)", unpack + f2 + check + [f"return {sqrt_f2}"])
    lines.append("return f2, spray_fast, geodesic_field, float_F")
    namespace = {"sqrt": math.sqrt, "jet_sqrt": jet_sqrt, "jet_abs": jet_abs, "_require_chart": _require_chart}
    namespace.update(Jet=Jet, _take_columns=_take_columns)
    namespace.update(EvaluationDomainError=EvaluationDomainError, _OFF_CHART=_OFF_CHART, _dot=_dot, inf=math.inf)
    namespace["metrics"] = sys.modules[__name__]
    return emit("make(s2, k)", lines, namespace, f"{family} n={n}")


def _check_symmetric_tables(mat, n, where):
    """Entry (i, j) against (j, i), i < j, at 16 sample points; the first failure by point, then row."""
    xs = np.random.default_rng(12345).uniform(-SAMPLING_RADIUS, SAMPLING_RADIUS, size=(16, n)) / np.sqrt(n)
    i, j = np.triu_indices(n, 1)
    table = _eval_table(mat, xs)
    a, b = table[:, i, j], table[:, j, i]
    bad = np.argwhere(np.abs(a - b) > 1e-12 * np.maximum(1.0, np.abs(a)))
    if bad.size:
        raise ConfigError(f"{where} must be symmetric: entry ({i[bad[0, 1]]},{j[bad[0, 1]]}) differs")


def _check_table(S: FinslerStructure):
    """The table symmetric, positive definite and, with a one-form, ||beta||_alpha < 1 at every sample.

    The first sample that fails either sampled check is reported, the
    positivity check first, as a point-by-point loop would; the norm is
    solved only at the samples before the first indefinite one.
    """
    config = S.config
    form = config.one_form
    _check_symmetric_tables(config.metric, S.dimension, f"{S.family}.metric")
    rng = np.random.default_rng(98765 if form is None else 56789)
    xs = S.sample_blocks(rng, [(True, 0)] * CONSTRUCTION_SAMPLES)[0]
    a = _eval_table(config.metric, xs)
    indefinite = np.flatnonzero(np.linalg.eigvalsh(a)[:, 0] <= 0.0)
    first = indefinite[0] if indefinite.size else len(xs)
    if form is not None:
        b = _eval_polynomials(form, xs[:first])
        norm2 = (b[:, None, :] @ np.linalg.solve(a[:first], b[:, :, None]))[:, 0, 0]
        large = np.flatnonzero(norm2 >= (1.0 - 1e-6) ** 2)
        if large.size:
            raise StrongConvexityError(
                f"randers one-form too large at x={xs[large[0]]}: ||beta||_alpha = {np.sqrt(norm2[large[0]]):.6f} >= 1"
            )
    if indefinite.size:
        what = "riemannian coefficient matrix" if form is None else "randers base metric"
        raise StrongConvexityError(f"{what} not positive definite at x={xs[first]}")


def make_metric(config: MetricConfig | dict) -> FinslerStructure:
    """Build the structure for a validated config (dicts are parsed first), running its table's checks."""
    if isinstance(config, dict):
        config = MetricConfig.from_dict(config)
    if config.metric is None:
        make = _chart_paths(config.family, config.dimension)
    else:
        make = _compile(config.family, config.dimension, config)
    structure = FinslerStructure(config, *make(config.scale * config.scale, config.k))
    if config.metric is not None:
        _check_table(structure)
    return structure


def invert_scalarlike_matrix(M):
    """Gauss-Jordan inverse for matrices of floats or jets (n <= 4 expected).

    With batched jets every batch column keeps its own pivot sequence: where
    the columns disagree on the pivot row, rows are swapped per column by
    selection.  A jet pivot's reciprocal is computed once and multiplies its
    row, which is what dividing each entry by the jet computes; a float
    pivot divides.
    """
    n = len(M)
    a = [[M[i][j] for j in range(n)] for i in range(n)]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        mags = [abs(scalar_value(a[r][col])) for r in range(col, n)]
        if any(isinstance(m, np.ndarray) for m in mags):
            _swap_pivots_per_column(a, inv, col, mags)
        else:
            pivot = col + max(range(n - col), key=lambda t: mags[t])
            if mags[pivot - col] < 1e-300:
                raise EvaluationDomainError("singular matrix in scalar-like inverse")
            if pivot != col:
                a[pivot], a[col] = a[col], a[pivot]
                inv[pivot], inv[col] = inv[col], inv[pivot]
        piv = a[col][col]
        if isinstance(piv, Jet):
            recip = piv._reciprocal()
            a[col] = [v * recip for v in a[col]]
            inv[col] = [v * recip for v in inv[col]]
        else:
            a[col] = [v / piv for v in a[col]]
            inv[col] = [v / piv for v in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if isinstance(factor, (int, float)) and factor == 0.0:
                continue
            for j in range(n):
                a[r][j] = a[r][j] - factor * a[col][j]
                inv[r][j] = inv[r][j] - factor * inv[col][j]
    return inv


def _swap_pivots_per_column(a, inv, col, mags):
    """Bring each batch column's pivot row to row col; mags[t] is |a[col + t][col]|."""
    mags = np.array(np.broadcast_arrays(*mags))
    best = np.argmax(mags, axis=0)  # the first maximum, as max() picks it
    if (np.take_along_axis(mags, best[None], axis=0) < 1e-300).any():
        raise EvaluationDomainError("singular matrix in scalar-like inverse")
    for pivot in range(col + 1, len(a)):
        mask = best == pivot - col
        if mask.all():
            a[pivot], a[col] = a[col], a[pivot]
            inv[pivot], inv[col] = inv[col], inv[pivot]
        elif mask.any():
            for m in (a, inv):
                m[pivot], m[col] = (
                    [_select(mask, u, v) for u, v in zip(m[col], m[pivot])],
                    [_select(mask, v, u) for u, v in zip(m[col], m[pivot])],
                )


def _select(mask, u, v):
    """Per batch column: u where mask holds, else v (floats, arrays or jets)."""
    if not isinstance(u, Jet) and not isinstance(v, Jet):
        return np.where(mask, u, v)
    if not isinstance(u, Jet):
        u = v.space.constant(u)
    elif not isinstance(v, Jet):
        v = u.space.constant(v)
    u, v = u._align(v)
    return Jet(u.space, np.where(mask, u.coef, v.coef))


@dataclass
class FundamentalTensor:
    """g_ij at one (x, y) plus its verified inverse."""

    g: np.ndarray
    g_inv: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.g @ np.asarray(v))


def _hessian_half_f2(S: FinslerStructure, x, y) -> np.ndarray:
    """y-Hessians of F^2/2 at B phase points, x and y of shape (n, B); shape (B, n, n).

    One F^2 evaluation on order-2 jets in the fibre directions, batched over
    the columns.  x enters as (B,) float rows, not as constant jets, so each
    column runs the single-point arithmetic.
    """
    n = S.dimension
    space = jet_space(n, 2)
    w = S.f2(list(x), [space.variable(i, y[i]) for i in range(n)])
    g = np.empty((y.shape[1], n, n))
    for i in range(n):
        for j in range(i, n):
            alpha = [0] * n
            alpha[i] += 1
            alpha[j] += 1
            g[:, i, j] = g[:, j, i] = 0.5 * w.derivative(alpha)
    return g


def _fundamental_tensors(S: FinslerStructure, x, y):
    """g and g^-1, each of shape (B, n, n), at B phase points, x and y of shape (n, B).

    Raises EvaluationDomainError if any column is not finite, and
    StrongConvexityError if one is not positive definite or inverts badly.
    """
    if not (y * y).any(axis=0).all():
        raise EvaluationDomainError("fundamental tensor undefined at y = 0")
    g = _hessian_half_f2(S, x, y)
    if not np.isfinite(g).all():
        b = int(np.argmax(~np.isfinite(g).all(axis=(1, 2))))
        raise EvaluationDomainError(f"fundamental tensor not finite at x = {x[:, b]}, y = {y[:, b]}")
    min_eig = np.linalg.eigvalsh(g)[:, 0]
    if (min_eig <= 0.0).any():
        bad = float(min_eig[np.argmax(min_eig <= 0.0)])
        raise StrongConvexityError(f"fundamental tensor not positive definite: min eig = {bad:.3e}")
    g_inv = np.linalg.inv(g)
    resid = np.max(np.abs(g @ g_inv - np.eye(S.dimension)), axis=(1, 2))
    if (resid > 1e-10).any():
        bad = float(resid[np.argmax(resid > 1e-10)])
        raise StrongConvexityError(f"fundamental tensor too ill-conditioned: inverse residual {bad:.3e}")
    return g, g_inv


def fundamental_tensor(S: FinslerStructure, x, y) -> FundamentalTensor:
    """Fundamental tensor g_ij = (F^2/2)_{y^i y^j}; raises if not positive definite."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    g, g_inv = _fundamental_tensors(S, x[:, None], y[:, None])
    return FundamentalTensor(g=g[0], g_inv=g_inv[0], x=x, y=y)


@dataclass
class StructureValidation:
    """Sampled axiom checks for one structure."""

    family: str
    dimension: int
    samples: int
    seed: int
    homogeneity_residual: float | None  # None where no sample was measured, or not finite
    min_hessian_eigenvalue: float | None
    positivity_ok: bool
    euler_residual: float | None
    g_homogeneity_residual: float | None
    reversible_observed: bool | None  # None where no sample was measured
    reversible_declared: bool
    passed: bool
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def validate_structure(S: FinslerStructure, samples: int = 100, seed: int = 0) -> StructureValidation:
    """Sampled check of positive 1-homogeneity, strong convexity and reversibility.

    A sample is measured when F(x, y) is positive and finite, F(x, lam y) is
    finite for every lam and both Hessians are finite; any other sample is a
    named failure, and no Hessian that is not finite reaches eigvalsh.

    Reversibility is observed from |F(x, -y) - F(x, y)| / F, judged against
    the size of the sampled one-form: on a Randers metric F = scale (alpha +
    beta) that deviation is 2 |beta(x, y)| / (alpha + beta).  F reads
    non-reversible when the deviation exceeds 1e-9 somewhere, or when the
    form is nonzero at some sample and the deviation is 2 |beta| / (alpha +
    beta) to 1e-9 at every one, however far below F's rounding the form is.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    lambdas = (0.5, 2.0, 10.0)
    worst_hom = 0.0
    worst_euler = 0.0
    worst_ghom = 0.0
    min_eig = np.inf
    positivity = True
    hessians_finite = True
    measured = 0
    rev_dev = 0.0
    form_dev = 0.0  # the largest sampled 2 |beta| / (alpha + beta), 0 without a one-form
    unexplained = 0.0  # the largest gap between the deviation and the form's size
    form = S.config.one_form
    failures: list[str] = []
    for _ in range(samples):
        (x,), (y,) = S.sample_blocks(rng, [(True, 1)])
        y = y * rng.uniform(0.5, 2.0)
        try:
            fval = float(S.F(x, y))
        except EvaluationDomainError:
            failures.append(f"F failed inside chart at x={x}")
            positivity = False
            continue
        if not np.isfinite(fval) or fval <= 0.0:
            positivity = False
            failures.append(f"F not positive at x={x}, y={y}")
            continue
        scaled = [float(S.F(x, lam * y)) for lam in (*lambdas, -1.0)]
        if not np.isfinite(scaled).all():
            positivity = False
            failures.append(f"F(x, lam y) not finite at x={x}, y={y}")
            continue
        g = _hessian_half_f2(S, x[:, None], y[:, None])[0]
        g2 = _hessian_half_f2(S, x[:, None], 2.0 * y[:, None])[0]
        if not (np.isfinite(g).all() and np.isfinite(g2).all()):
            hessians_finite = False
            failures.append(f"fundamental tensor not finite at x={x}, y={y}")
            continue
        measured += 1
        for lam, value in zip(lambdas, scaled):
            worst_hom = max(worst_hom, abs(value - lam * fval) / (lam * fval))
        eig = float(np.min(np.linalg.eigvalsh(g)))
        min_eig = min(min_eig, eig)
        # Euler: g_ij y^i y^j = F^2 for 1-homogeneous F
        euler = abs(float(y @ g @ y) - fval * fval) / (fval * fval)
        worst_euler = max(worst_euler, euler)
        worst_ghom = max(worst_ghom, float(np.max(np.abs(g2 - g))) / max(1.0, float(np.max(np.abs(g)))))
        rev = abs(scaled[-1] - fval) / fval
        size = 0.0 if form is None else 2.0 * S.config.scale * abs(sum(b(x) * v for b, v in zip(form, y))) / fval
        rev_dev = max(rev_dev, rev)
        form_dev = max(form_dev, size)
        unexplained = max(unexplained, abs(rev - size))
    reversible_observed = rev_dev <= 1e-9 and not (form_dev > 0.0 and unexplained <= 1e-9) if measured else None
    convex_ok = measured > 0 and hessians_finite and min_eig > 0.0
    if measured and min_eig <= 0.0:
        failures.append(f"fundamental tensor not positive definite: min eig {min_eig:.3e}")
    if worst_hom > 1e-10:
        failures.append(f"homogeneity residual {worst_hom:.3e} exceeds 1e-10")
    if measured and reversible_observed != S.reversible:
        failures.append(
            f"reversibility mismatch: declared {S.reversible}, observed {reversible_observed}"
        )
    passed = positivity and convex_ok and worst_hom <= 1e-10 and reversible_observed == S.reversible

    def measurement(value):
        return float(value) if measured and np.isfinite(value) else None

    return StructureValidation(
        family=S.family,
        dimension=S.dimension,
        samples=samples,
        seed=seed,
        homogeneity_residual=measurement(worst_hom),
        min_hessian_eigenvalue=measurement(min_eig),
        positivity_ok=positivity,
        euler_residual=measurement(worst_euler),
        g_homogeneity_residual=measurement(worst_ghom),
        reversible_observed=reversible_observed,
        reversible_declared=S.reversible,
        passed=passed,
        failures=failures,
    )
