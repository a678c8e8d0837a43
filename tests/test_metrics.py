import json
import math
import struct

import numpy as np
import pytest

from finslerlab import (
    ConfigError,
    EvaluationDomainError,
    MetricConfig,
    StrongConvexityError,
    fundamental_tensor,
    load_config,
    make_metric,
    spray_jet_functions,
    validate_structure,
)
from finslerlab import geodesics
from finslerlab.jets import Jet, jet_space
from finslerlab.metrics import FAMILIES, SAMPLING_RADIUS, _fundamental_tensors, invert_scalarlike_matrix

from conftest import (
    ball_point,
    euclid_config,
    exact_randers_config,
    funk_config,
    indefinite_riemannian_config,
    klein_config,
    nonclosed_randers_config,
    unit_direction,
)
from oracles import chart_reference, invert_by_division, klein_fundamental_tensor


def poly_const(n, value):
    return [[float(value)] + [0] * n]


def randers_config(n, beta1):
    metric = [
        [poly_const(n, 1.0 if i == j else 0.0) for j in range(n)] for i in range(n)
    ]
    one_form = [poly_const(n, beta1)] + [poly_const(n, 0.0) for _ in range(n - 1)]
    return {
        "family": "randers",
        "dimension": n,
        "randers": {"metric": metric, "one_form": one_form},
    }


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            MetricConfig.from_dict({"family": "klein_ball", "dimension": 2, "extra": 1})

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            MetricConfig.from_dict({"family": "poincare", "dimension": 2})

    def test_ball_families_need_dimension_two(self):
        with pytest.raises(ConfigError):
            MetricConfig.from_dict({"family": "klein_ball", "dimension": 1})

    def test_interval_funk_is_one_dimensional(self):
        with pytest.raises(ConfigError):
            MetricConfig.from_dict({"family": "interval_funk", "dimension": 2})

    def test_k_must_be_positive(self):
        for k in (0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                MetricConfig.from_dict({"family": "interval_funk", "dimension": 1, "k": k})
        with pytest.raises(ConfigError):
            MetricConfig.from_json('{"family": "interval_funk", "dimension": 1, "k": Infinity}')

    def test_k_only_for_interval(self):
        with pytest.raises(ConfigError):
            MetricConfig.from_dict({"family": "klein_ball", "dimension": 2, "k": 1.0})

    def test_invalid_json_wrapped(self):
        with pytest.raises(ConfigError):
            MetricConfig.from_json("{not json")

    def test_polynomial_degree_cap(self):
        terms = [[1.0, 5, 0]]  # x1^5 exceeds the configured degree ceiling
        metric = [[terms, poly_const(2, 0.0)], [poly_const(2, 0.0), poly_const(2, 1.0)]]
        with pytest.raises(ConfigError):
            MetricConfig.from_dict(
                {"family": "riemannian", "dimension": 2, "riemannian": {"metric": metric}}
            )

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "klein.json"
        path.write_text(json.dumps({"family": "klein_ball", "dimension": 2}))
        cfg = load_config(str(path))
        assert cfg.family == "klein_ball"
        assert cfg.dimension == 2

    def test_riemannian_block_required(self):
        with pytest.raises(ConfigError):
            MetricConfig.from_dict({"family": "riemannian", "dimension": 2})

    def test_scale_must_be_positive(self):
        for scale in (-1.0, math.nan, math.inf, 10**400):
            with pytest.raises(ConfigError):
                MetricConfig.from_dict(
                    {"family": "klein_ball", "dimension": 2, "scale": scale}
                )
        # json.loads accepts the NaN and Infinity literals
        with pytest.raises(ConfigError):
            MetricConfig.from_json('{"family": "klein_ball", "dimension": 2, "scale": NaN}')

    def test_polynomial_coefficients_must_be_finite(self):
        for beta1 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                MetricConfig.from_dict(randers_config(2, beta1))


class TestEvaluators:
    def test_klein_center_unit(self, klein2):
        assert float(klein2.F([0.0, 0.0], [1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_interval_funk_center(self, interval1):
        assert float(interval1.F([0.0], [1.0])) == pytest.approx(1.0, abs=1e-15)
        assert float(interval1.F([0.0], [-1.0])) == pytest.approx(1.0, abs=1e-15)

    def test_funk_spot_values(self, funk2):
        assert float(funk2.F([0.0, 0.0], [1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
        assert float(funk2.F([0.0, 0.0], [-1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
        assert float(funk2.F([0.5, 0.0], [1.0, 0.0])) == pytest.approx(2.0, rel=1e-14)
        assert float(funk2.F([0.5, 0.0], [-1.0, 0.0])) == pytest.approx(
            2.0 / 3.0, rel=1e-14
        )

    def test_funk_not_reversible_spot(self, funk2):
        assert float(funk2.F([0.5, 0.0], [1.0, 0.0])) != pytest.approx(
            float(funk2.F([0.5, 0.0], [-1.0, 0.0])), rel=1e-3
        )

    def test_klein_symmetrizes_funk(self, klein2, funk2):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = ball_point(rng, 2, radius=0.9)
            y = unit_direction(rng, 2) * rng.uniform(0.2, 3.0)
            k = float(klein2.F(x, y))
            f_plus = float(funk2.F(x, y))
            f_minus = float(funk2.F(x, -y))
            assert abs(0.5 * (f_plus + f_minus) - k) <= 1e-12 * max(1.0, k)

    def test_scale_multiplies_f(self, klein2):
        doubled = make_metric(klein_config(2, scale=2.0))
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = ball_point(rng, 2)
            y = unit_direction(rng, 2)
            assert float(doubled.F(x, y)) == pytest.approx(
                2.0 * float(klein2.F(x, y)), rel=1e-14
            )

    def test_homogeneity_all_families(self, klein2, klein3, funk2, euclid2, interval1):
        rng = np.random.default_rng(17)
        for S in (klein2, klein3, funk2, euclid2, interval1):
            n = S.dimension
            for _ in range(100):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                f = float(S.F(x, y))
                for lam in (0.5, 2.0, 10.0):
                    scaled = float(S.F(x, lam * y))
                    assert abs(scaled - lam * f) <= 1e-10 * lam * f

    def test_zero_direction_rejected(self, klein2):
        with pytest.raises(EvaluationDomainError):
            klein2.F([0.1, 0.2], [0.0, 0.0])

    def test_outside_chart_rejected(self, klein2):
        with pytest.raises(EvaluationDomainError):
            klein2.F([1.1, 0.0], [1.0, 0.0])

    def test_randers_spot_value(self):
        S = make_metric(randers_config(2, 0.3))
        assert float(S.F([0.2, -0.1], [1.0, 0.0])) == pytest.approx(1.3, rel=1e-14)
        assert float(S.F([0.2, -0.1], [0.0, 1.0])) == pytest.approx(1.0, rel=1e-14)

    def test_randers_oversized_form_rejected(self):
        with pytest.raises(StrongConvexityError):
            make_metric(randers_config(2, 1.1))

    @pytest.mark.parametrize("scale", [1.0, 1.7])
    def test_indefinite_riemannian_table_rejected(self, scale):
        with pytest.raises(StrongConvexityError, match="riemannian coefficient matrix not positive definite"):
            make_metric(indefinite_riemannian_config(scale))


FAMILY_CONFIGS = {
    "riemannian": euclid_config(2),
    "randers": exact_randers_config(),
    "funk_ball": funk_config(2),
    "klein_ball": klein_config(2),
    "interval_funk": {"family": "interval_funk", "dimension": 1},
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_has_a_closed_form_spray(family):
    S = make_metric(FAMILY_CONFIGS[family])
    assert S.family == family
    assert S.spray_fast is not None


# the README metric, g11 = 1 + 0.3 x2^2 and g22 = 1 + 0.3 x1^2: its spray has
# no singularity at the unit sphere, so only the chart check refuses x
README_METRIC = {
    "family": "riemannian",
    "dimension": 2,
    "riemannian": {
        "metric": [
            [[[1.0, 0, 0], [0.3, 0, 2]], [[0.0, 0, 0]]],
            [[[0.0, 0, 0]], [[1.0, 0, 0], [0.3, 2, 0]]],
        ]
    },
}


class TestChart:
    """FinslerStructure.domain is the one chart predicate; every spray refuses what it rejects."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_spray_refuses_a_point_off_the_chart(self, family):
        S = make_metric(README_METRIC if family == "riemannian" else FAMILY_CONFIGS[family])
        n = S.dimension
        x = [1.2] + [0.0] * (n - 1)
        y = [0.3, 1.0][:n]
        assert not S.domain(x)
        with pytest.raises(EvaluationDomainError):
            S.spray_fast(x, y)
        # an order-2 jet batch with one column inside and one outside is refused whole
        xb = np.array([[0.5, 1.2]] + [[0.0, 0.0]] * (n - 1))
        yb = np.array([y, y]).T
        with pytest.raises(EvaluationDomainError):
            spray_jet_functions(S, xb, yb, 2)
        spray_jet_functions(S, xb[:, :1], yb[:, :1], 2)

    def test_domain_is_the_open_unit_ball(self):
        interval = make_metric(FAMILY_CONFIGS["interval_funk"])
        ball = make_metric(FAMILY_CONFIGS["klein_ball"])
        below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
        for u in (0.0, 0.5, 1e-300, below, 1.0, above, 1.2, math.nan, math.inf):
            for v in (u, -u):
                inside = abs(v) < 1.0
                assert interval.domain([v]) is inside
                assert ball.domain([v, 0.0]) is inside and ball.domain([0.0, v]) is inside


# the Klein, Funk and interval float paths are generated from the source of
# their f2 and spray_fast, so they are checked on 10^4 phase points (and the
# generated f2 and spray_fast against chart_reference in TestChartReference);
# the Riemannian and Randers float paths are spray_fast and f2 composed, and
# 10^3 points keep their cost near a second
FLOAT_PATH_CASES = {
    "interval": {"family": "interval_funk", "dimension": 1, "k": 1.3, "scale": 0.7},
    **{f"klein{n}": klein_config(n) for n in (2, 3, 4)},
    "klein3_scaled": klein_config(3, scale=1.7),
    **{f"funk{n}": funk_config(n) for n in (2, 3, 4)},
    **{f"euclid{n}": euclid_config(n) for n in (2, 3, 4)},
    "randers_exact": exact_randers_config(),
    "randers_nonclosed": nonclosed_randers_config(),
}


def outcome(fn, *args):
    """fn(*args) as the bytes of its floats, or the name EvaluationDomainError."""
    try:
        value = fn(*args)
    except EvaluationDomainError:
        return "EvaluationDomainError"
    value = value if isinstance(value, list) else [value]
    return struct.pack(f"{len(value)}d", *value)


def scalar_like_field(S, z, backward=False):
    """[v, -2 G(x, v)] through spray_fast, the elementwise negation when backward."""
    n = S.dimension
    v, G = z[n:], S.spray_fast(z[:n], z[n:])
    if backward:
        return [-vi for vi in v] + [2.0 * gi for gi in G]
    return v + [-2.0 * gi for gi in G]


class TestFloatPath:
    """geodesic_field and float_F give the scalar-like path's bits, its refusals included."""

    @pytest.mark.parametrize("case", FLOAT_PATH_CASES)
    def test_matches_the_scalar_like_path_bit_for_bit(self, case):
        S = make_metric(FLOAT_PATH_CASES[case])
        n = S.dimension
        backward = geodesics._geodesic_rhs(S, backward=True)
        count = 1_000 if S.family in ("riemannian", "randers") else 10_000
        rng = np.random.default_rng(23)
        radius = SAMPLING_RADIUS * rng.uniform(size=count) ** (1.0 / n)
        xs = rng.standard_normal((count, n))
        xs *= (radius / np.linalg.norm(xs, axis=1))[:, None]
        ys = rng.standard_normal((count, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
        ys[:2], xs[2] = [[0.0], [-0.0]], -0.0  # y = 0 is refused by F; signed zeros keep their sign
        for x, y in zip(xs.tolist(), ys.tolist()):
            z = x + y
            assert outcome(S.geodesic_field, z) == outcome(scalar_like_field, S, z)
            assert outcome(backward, z) == outcome(scalar_like_field, S, z, True)
            assert outcome(S.float_F, x, y) == outcome(lambda: float(S.F(x, y)))

    @pytest.mark.parametrize("case", FLOAT_PATH_CASES)
    def test_off_the_chart_both_paths_refuse(self, case):
        # the field refuses wherever the spray does; F refuses on the chart
        # families, and the Riemannian and Randers F^2 have no chart check
        S = make_metric(FLOAT_PATH_CASES[case])
        n = S.dimension
        chart_F = S.family in ("klein_ball", "funk_ball", "interval_funk")
        rng = np.random.default_rng(24)
        xs = rng.standard_normal((50, n))
        xs *= (rng.uniform(1.0, 3.0, 50) / np.linalg.norm(xs, axis=1))[:, None]
        points = [[1.0] + [0.0] * (n - 1), [0.0] * (n - 1) + [-1.0]]
        points += [x for x in xs.tolist() if not S.domain(x)]
        assert len(points) > 40
        for x in points:
            y = unit_direction(rng, n).tolist()
            assert outcome(S.geodesic_field, x + y) == "EvaluationDomainError"
            assert outcome(scalar_like_field, S, x + y) == "EvaluationDomainError"
            assert outcome(S.float_F, x, y) == outcome(lambda: float(S.F(x, y)))
            assert (outcome(S.float_F, x, y) == "EvaluationDomainError") is chart_F

    @pytest.mark.parametrize("case", ["interval", "klein2", "funk3"])
    def test_a_nan_passes_unrefused(self, case):
        # as on the scalar-like path: D <= 0 and sqrt's radicand <= 0 are false for NaN
        S = make_metric(FLOAT_PATH_CASES[case])
        n = S.dimension
        x, y = [math.nan] + [0.1] * (n - 1), [0.5] * n
        assert outcome(S.geodesic_field, x + y) == outcome(scalar_like_field, S, x + y)
        assert outcome(S.float_F, x, y) == outcome(lambda: float(S.F(x, y)))
        assert math.isnan(S.float_F(x, y))

    @pytest.mark.parametrize("family", ["klein_ball", "funk_ball"])
    def test_a_high_dimension_builds_and_agrees(self, family):
        # the generated sums take one statement per term: written as one
        # chained expression, 3,000 terms exceed the compiler's recursion limit
        n = 3000
        S = make_metric({"family": family, "dimension": n})
        f2, spray_fast = chart_reference(family)
        rng = np.random.default_rng(25)
        for radius in (0.5, 0.99, 1.01):
            x, y = (radius * unit_direction(rng, n)).tolist(), unit_direction(rng, n).tolist()
            assert outcome(S.geodesic_field, x + y) == outcome(scalar_like_field, S, x + y)
            assert outcome(S.float_F, x, y) == outcome(lambda: float(S.F(x, y)))
            assert outcome(S.f2, x, y) == outcome(f2, x, y)
            assert outcome(S.spray_fast, x, y) == outcome(spray_fast, x, y)


CHART_CASES = {
    "klein2": klein_config(2),
    "klein3_scaled": klein_config(3, scale=1.7),
    "klein4": klein_config(4),
    "funk2": funk_config(2),
    "funk3_scaled": {"family": "funk_ball", "dimension": 3, "scale": 0.7},
    "funk4": funk_config(4),
    "interval": {"family": "interval_funk", "dimension": 1, "k": 1.3, "scale": 0.7},
    "interval_k2.5": {"family": "interval_funk", "dimension": 1, "k": 2.5, "scale": 1.5},
}


def chart_inputs(S, form, X, Y):
    """(x, y) argument pairs of one input form the library passes, for the columns of X, Y (n, B)."""
    if form == "floats":
        return [(X[:, b].tolist(), Y[:, b].tolist()) for b in range(X.shape[1])]
    if form == "hessian_rows":  # _hessian_half_f2: (B,) float rows, order-2 fibre jets
        space = jet_space(S.dimension, 2)
        return [(list(X), [space.variable(i, Y[i]) for i in range(S.dimension)])]
    if form == "object_rows":  # _f2_values
        return [(list(X.astype(object)), list(Y.astype(object)))]
    order = int(form[-1])  # spray_jet_functions' capped phase jets, via "fast" and via "f2"
    return [geodesics.phase_jet_args(S, X, Y, order, base_degree=order // 2)]


def bits_or_refusal(fn, *args):
    """fn(*args) as its type and bits, or the EvaluationDomainError it raises and its message."""
    try:
        value = fn(*args)
    except EvaluationDomainError as exc:
        return "EvaluationDomainError", str(exc)
    return value_bits(value)


def value_bits(value):
    if isinstance(value, list):
        return [value_bits(v) for v in value]
    if isinstance(value, Jet):
        space = value.space
        return (space.nvars, space.order, space.lead, space.cap), value.coef.shape, value.coef.tobytes()
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.astype(float).tobytes()


class TestChartReference:
    """The generated f2 and spray_fast give chart_reference's bits in every input form, refusals included."""

    @pytest.mark.parametrize("form", ["floats", "hessian_rows", "object_rows", "phase_jets_2", "phase_jets_4"])
    @pytest.mark.parametrize("case", CHART_CASES)
    def test_generated_matches_the_hand_written_reference(self, case, form):
        config = CHART_CASES[case]
        S = make_metric(config)
        f2, spray_fast = chart_reference(S.family, config.get("k", 1.0), config.get("scale", 1.0))
        n = S.dimension
        rng = np.random.default_rng(26)
        X = rng.standard_normal((n, 40))
        X *= 0.999 * rng.uniform(size=40) ** (1.0 / n) / np.linalg.norm(X, axis=0)
        Y = rng.standard_normal((n, 40)) * 10.0 ** rng.uniform(-3.0, 3.0, 40)
        X[:, 0] = -0.0  # signed zeros keep their sign
        zero_y, nan_x, nan_y, off_x = Y.copy(), X.copy(), Y.copy(), X.copy()
        zero_y[:, 1] = 0.0  # refused by the Funk radicand
        nan_x[0, 1] = nan_y[-1, 2] = math.nan  # passes every refusal
        off_x[:, 1] = 1.5 / math.sqrt(n)
        off_x[:, 2] = [1.0] + [0.0] * (n - 1)  # D = 0 on the unit sphere
        outcomes = set()
        with np.errstate(invalid="ignore"):
            for xs, ys in ((X, Y), (X, zero_y), (nan_x, Y), (X, nan_y), (off_x, Y)):
                for x, y in chart_inputs(S, form, xs, ys):
                    for generated, reference in ((S.f2, f2), (S.spray_fast, spray_fast)):
                        got = bits_or_refusal(generated, x, y)
                        assert got == bits_or_refusal(reference, x, y)
                        outcomes.add(got[0] == "EvaluationDomainError")
        assert outcomes == {True, False}


class TestFundamentalTensor:
    def test_euclid_identity(self, euclid2):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = ball_point(rng, 2)
            y = unit_direction(rng, 2)
            ft = fundamental_tensor(euclid2, x, y)
            assert np.max(np.abs(ft.g - np.eye(2))) <= 1e-12

    def test_klein_center_identity(self, klein2):
        ft = fundamental_tensor(klein2, [0.0, 0.0], [0.6, 0.8])
        assert np.max(np.abs(ft.g - np.eye(2))) <= 1e-10

    @staticmethod
    def _batch(S, seed):
        """200 sampled points and 40 on the sphere of the sampling radius, with scaled directions."""
        rng = np.random.default_rng(seed)
        n = S.dimension
        x = np.array([S.sample_point(rng) for _ in range(200)] + [
            SAMPLING_RADIUS * unit_direction(rng, n) for _ in range(40)
        ]).T
        y = rng.standard_normal(x.shape) * rng.uniform(0.1, 10.0, size=x.shape[1])
        return x, y

    @pytest.mark.parametrize("n, scale", [(2, 1.0), (3, 1.0), (2, 1.7)])
    def test_klein_matches_the_closed_form(self, n, scale):
        S = make_metric(klein_config(n, scale))
        x, y = self._batch(S, 41)
        g, _ = _fundamental_tensors(S, x, y)
        for gb, xb in zip(g, x.T):
            want = klein_fundamental_tensor(xb, scale)
            assert np.max(np.abs(gb - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("scale", [1.0, 1.7])
    def test_riemannian_is_the_scaled_table_bit_for_bit(self, scale):
        S = make_metric(dict(README_METRIC, scale=scale))
        x, y = self._batch(S, 43)
        g, _ = _fundamental_tensors(S, x, y)
        table = S.config.riemannian_metric
        want = [[[scale * scale * float(p(xb)) for p in row] for row in table] for xb in x.T]
        assert np.array_equal(g, np.array(want))

    def test_invariants_at_samples(self, klein2, funk2, klein3):
        rng = np.random.default_rng(23)
        for S in (klein2, funk2, klein3):
            n = S.dimension
            for _ in range(30):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                ft = fundamental_tensor(S, x, y)
                assert np.max(np.abs(ft.g - ft.g.T)) <= 1e-12
                assert float(np.min(np.linalg.eigvalsh(ft.g))) > 0.0
                assert np.max(np.abs(ft.g @ ft.g_inv - np.eye(n))) <= 1e-10
                ft3 = fundamental_tensor(S, x, 3.0 * y)
                assert np.max(np.abs(ft3.g - ft.g)) <= 1e-10 * max(
                    1.0, float(np.max(np.abs(ft.g)))
                )

    def test_euler_relation(self, klein2, funk2, klein3, euclid2):
        rng = np.random.default_rng(29)
        for S in (klein2, funk2, klein3, euclid2):
            for _ in range(100):
                x = S.sample_point(rng)
                y = S.sample_direction(rng) * rng.uniform(0.5, 2.0)
                ft = fundamental_tensor(S, x, y)
                f2 = float(S.f2(x, y))
                assert abs(float(y @ ft.g @ y) - f2) <= 1e-9 * f2


class TestValidateStructure:
    def test_klein_passes_reversible(self, klein2):
        report = validate_structure(klein2, samples=200, seed=1)
        assert report.passed
        assert report.reversible_observed is True
        assert report.reversible_declared is True
        assert report.min_hessian_eigenvalue > 0.0
        assert report.homogeneity_residual <= 1e-10

    def test_funk_passes_non_reversible(self, funk2):
        report = validate_structure(funk2, samples=200, seed=1)
        assert report.passed
        assert report.reversible_observed is False
        assert report.reversible_declared is False

    def test_euclid_homogeneity_exact(self, euclid2):
        report = validate_structure(euclid2, samples=100, seed=3)
        assert report.passed
        assert report.homogeneity_residual <= 1e-14

    def test_needs_a_sample(self, klein2):
        with pytest.raises(ValueError):
            validate_structure(klein2, samples=0)

    def test_report_serializes(self, klein2):
        report = validate_structure(klein2, samples=20, seed=0)
        doc = report.to_dict()
        assert doc["family"] == "klein_ball"
        assert isinstance(doc["failures"], list)


class TestScalarLikeInverse:
    def test_batch_columns_keep_their_own_pivots(self):
        # Column 0 of the matrix peaks on row b in batch element b, so the three
        # elements pivot on different rows; the float entry is shared by all.
        space = jet_space(2, 2)
        rng = np.random.default_rng(4)

        def entry(values):
            coef = rng.uniform(-0.5, 0.5, size=(space.ncoef, 3))
            coef[0] = values
            return Jet(space, coef)

        M = [
            [entry([3.0, 0.2, 0.1]), entry([0.4, 1.0, -0.3]), entry([0.2, 0.5, 1.1])],
            [entry([0.5, -2.5, 0.3]), entry([1.2, 0.1, 0.4]), entry([-0.6, 0.3, 0.2])],
            [entry([-0.7, 0.9, 4.0]), 0.5, entry([1.5, 1.3, -0.2])],
        ]
        inv = invert_scalarlike_matrix(M)

        def column(cell, b):
            return Jet(space, cell.coef[:, b].copy()) if isinstance(cell, Jet) else cell

        for b in range(3):
            single = invert_scalarlike_matrix([[column(c, b) for c in row] for row in M])
            for i in range(3):
                for j in range(3):
                    got = inv[i][j].coef[:, b] if isinstance(inv[i][j], Jet) else inv[i][j]
                    want = single[i][j].coef if isinstance(single[i][j], Jet) else single[i][j]
                    assert np.array_equal(got, want), (b, i, j)
            values = np.array([[column(c, b).value if isinstance(c, Jet) else c for c in row] for row in M])
            inv_values = np.array([[inv[i][j].coef[0, b] for j in range(3)] for i in range(3)])
            assert np.allclose(values @ inv_values, np.eye(3), atol=1e-12)

    def test_equals_division_per_entry_across_caps(self):
        # one reciprocal per pivot gives the bits of dividing every entry by the pivot,
        # also where entries and pivots live on spaces of different orders and caps
        spaces = [jet_space(4, 4, 2, 1), jet_space(4, 3, 2, 0), jet_space(4, 4), jet_space(4, 2, 2, 1)]
        rng = np.random.default_rng(6)

        def entry():
            if rng.uniform() < 0.2:
                return float(rng.uniform(-1.0, 1.0))
            space = spaces[rng.integers(len(spaces))]
            coef = rng.uniform(-1.0, 1.0, size=(space.ncoef, 3))
            coef[0] += rng.uniform(-3.0, 3.0, size=3)
            return Jet(space, coef)

        for _ in range(40):
            M = [[entry() for _ in range(3)] for _ in range(3)]
            got, want = invert_scalarlike_matrix(M), invert_by_division(M)
            for g, w in zip(sum(got, []), sum(want, [])):
                assert np.asarray(getattr(g, "coef", g)).tobytes() == np.asarray(getattr(w, "coef", w)).tobytes()

    def test_singular_column_rejects_the_batch(self):
        space = jet_space(1, 1)
        a = space.variable(0, np.array([1.0, 0.0]))
        with pytest.raises(EvaluationDomainError):
            invert_scalarlike_matrix([[a, 0.0], [0.0, a]])
