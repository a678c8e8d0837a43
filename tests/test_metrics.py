import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys

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
from finslerlab import geodesics, metrics
from finslerlab.jets import Jet, jet_space
from finslerlab.metrics import FAMILIES, SAMPLING_RADIUS, FinslerStructure, _fundamental_tensors, invert_scalarlike_matrix

from conftest import (
    ball_point,
    cross_term_config,
    curved_riemannian_config,
    curved_table_config,
    euclid_config,
    exact_randers_config,
    funk_config,
    indefinite_riemannian_config,
    klein_config,
    nonclosed_randers_config,
    overflowing_partial_config,
    randers3_config,
    unit_direction,
    zero_form_randers_config,
)
from oracles import (
    chart_reference,
    construction_check_per_point,
    invert_by_division,
    klein_fundamental_tensor,
    polynomial_reference,
    sample_point,
    symmetry_check_per_point,
)


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

    METRIC = euclid_config(2)["riemannian"]["metric"]
    FORM = [poly_const(2, 0.1), poly_const(2, 0.0)]
    ONLY_RIEMANNIAN = "'riemannian' block is only valid for the riemannian family"
    ONLY_RANDERS = "'randers' block is only valid for the randers family"
    BLOCK_ERRORS = {  # case: (family, blocks, the first error's message)
        "riemannian_missing": ("riemannian", {}, "riemannian family needs a 'riemannian' block"),
        "riemannian_not_an_object": ("riemannian", {"riemannian": []}, "riemannian family needs a 'riemannian' block"),
        "riemannian_unknown_field": (
            "riemannian", {"riemannian": {"metric": [], "one_form": FORM}}, "unknown riemannian fields: ['one_form']"
        ),
        "riemannian_metric_missing": (
            "riemannian", {"riemannian": {}}, "riemannian.metric: expected an 2x2 matrix of polynomials"
        ),
        "riemannian_scale_first": ("riemannian", {"scale": -1.0}, "scale must be a positive number"),
        "riemannian_with_randers": (
            "riemannian", {"riemannian": {"metric": METRIC}, "randers": {"metric": METRIC, "one_form": FORM}}, ONLY_RANDERS
        ),
        "riemannian_own_block_first": (
            "riemannian", {"randers": {"metric": METRIC, "one_form": FORM}}, "riemannian family needs a 'riemannian' block"
        ),
        "riemannian_own_metric_first": (
            "riemannian", {"riemannian": {"metric": [[]]}, "randers": {}}, "riemannian.metric: expected an 2x2 matrix of polynomials"
        ),
        "randers_missing": ("randers", {}, "randers family needs a 'randers' block"),
        "randers_unknown_field": (
            "randers", {"randers": {"metric": [], "one_form": [], "scale": 2}}, "unknown randers fields: ['scale']"
        ),
        "randers_metric_before_form": (
            "randers", {"randers": {"metric": [[]]}}, "randers.metric: expected an 2x2 matrix of polynomials"
        ),
        "randers_form_missing": (
            "randers", {"randers": {"metric": METRIC}}, "randers.one_form: expected 2 polynomial entries"
        ),
        "randers_with_riemannian": (
            "randers", {"riemannian": {"metric": METRIC}, "randers": {"metric": METRIC, "one_form": FORM}}, ONLY_RIEMANNIAN
        ),
        "randers_foreign_block_first": ("randers", {"riemannian": {"metric": METRIC}}, ONLY_RIEMANNIAN),
        "chart_with_riemannian": ("klein_ball", {"riemannian": {"metric": METRIC}}, ONLY_RIEMANNIAN),
        "chart_with_randers": ("funk_ball", {"randers": {}}, ONLY_RANDERS),
        "chart_with_both": ("klein_ball", {"randers": {}, "riemannian": {}}, ONLY_RIEMANNIAN),
    }

    @pytest.mark.parametrize("case", list(BLOCK_ERRORS))
    def test_table_block_errors_and_their_order(self, case):
        family, blocks, message = self.BLOCK_ERRORS[case]
        with pytest.raises(ConfigError) as err:
            MetricConfig.from_dict({"family": family, "dimension": 2, **blocks})
        assert str(err.value) == message


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


def randers_failing_twice(c1):
    """A Randers table with g11 = 1 + c1 x1, indefinite at some samples, and beta = 1.5 x2 dx1, too large at others."""
    return {
        "family": "randers",
        "dimension": 2,
        "randers": {
            "metric": [[[[1.0, 0, 0], [c1, 1, 0]], [[0.0, 0, 0]]], [[[0.0, 0, 0]], [[1.0, 0, 0]]]],
            "one_form": [[[0.0, 0, 0], [1.5, 0, 1]], [[0.0, 0, 0]]],
        },
    }


class TestConstructionChecks:
    """make_metric evaluates each table once over its 200 samples and keeps the per-point checks' bits."""

    CASES = {
        "readme": README_METRIC,
        "cross_term": cross_term_config(),
        "curved3": curved_table_config(3),
        "curved4": curved_table_config(4),
        "indefinite": indefinite_riemannian_config(),
        "exact_randers": exact_randers_config(),
        "nonclosed_randers": nonclosed_randers_config(),
        "randers3": randers3_config(),
        "oversized_form": randers_config(2, 1.1),
        "form_fails_first": randers_failing_twice(4.0),
        "metric_fails_first": randers_failing_twice(-4.0),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_first_failure_equals_the_per_point_check(self, case):
        config = MetricConfig.from_dict(self.CASES[case])
        want = construction_check_per_point(config)
        if want is None:
            make_metric(config)
        else:
            with pytest.raises(StrongConvexityError) as err:
                make_metric(config)
            assert str(err.value) == want
        failing = {"indefinite", "oversized_form", "form_fails_first", "metric_fails_first"}
        assert (want is not None) == (case in failing)
        if case.endswith("fails_first"):
            assert want.startswith("randers one-form" if case == "form_fails_first" else "randers base metric")

    @pytest.mark.parametrize("symmetric_12, entry", [(False, "(1,2)"), (True, "(0,1)")])
    def test_asymmetric_table_reports_the_first_entry_by_point(self, symmetric_12, entry):
        # g_10 - g_01 = x_0 - c vanishes at the first of the 16 sample points
        # only, where g_12 - g_21 = 0.5 already fails: the check reports
        # (1,2), the first failure in point order, ahead of (0,1), the first
        # in row order; with g_12 symmetric, (0,1) fails at a later point.
        c = np.random.default_rng(12345).uniform(-SAMPLING_RADIUS, SAMPLING_RADIUS, size=(16, 3))[0, 0] / np.sqrt(3)
        metric = [[poly_const(3, 1.0 if i == j else 0.0) for j in range(3)] for i in range(3)]
        metric[1][0] = [[1.0, 1, 0, 0], [-c, 0, 0, 0]]
        metric[1][2] = poly_const(3, 0.0 if symmetric_12 else 0.5)
        with pytest.raises(ConfigError) as err:
            make_metric({"family": "riemannian", "dimension": 3, "riemannian": {"metric": metric}})
        assert str(err.value) == f"riemannian.metric must be symmetric: entry {entry} differs"

    def test_symmetry_failure_equals_the_per_point_check(self):
        # random symmetric tables of two terms an entry, a few entries perturbed
        # by one term of 1e-13 (under the tolerance), 1e-9 or 1
        rng = np.random.default_rng(4)
        failures = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            mat = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    terms = [(float(rng.normal()), tuple(map(int, rng.integers(0, 2, n)))) for _ in range(2)]
                    mat[i][j] = mat[j][i] = metrics.Polynomial(n, terms)
            for _ in range(int(rng.integers(0, 4))):
                i, j = map(int, rng.choice(n, 2, replace=False))
                eps = float(rng.choice([1e-13, 1e-9, 1.0]))
                mat[i][j] = metrics.Polynomial(n, [*mat[i][j].terms, (eps, tuple(map(int, rng.integers(0, 3, n))))])
            want = symmetry_check_per_point(mat, n)
            if want is None:
                metrics._check_symmetric_tables(mat, n, "g")
                continue
            failures += 1
            with pytest.raises(ConfigError, match=re.escape(f"g must be symmetric: entry ({want[0]},{want[1]}) differs")):
                metrics._check_symmetric_tables(mat, n, "g")
        assert 10 <= failures <= 35

    @pytest.mark.parametrize("case", ["readme", "cross_term", "curved4", "indefinite", "randers3"])
    def test_table_values_and_eigenvalues_equal_per_point(self, case):
        config = MetricConfig.from_dict(self.CASES[case])
        table = config.metric
        rng = np.random.default_rng(98765)
        xs = np.array([sample_point(rng, config.dimension, SAMPLING_RADIUS) for _ in range(200)])
        a = metrics._eval_table(table, xs)
        want = np.array([[[float(p(x)) for p in row] for row in table] for x in xs])
        assert a.tobytes() == want.tobytes()
        low = np.linalg.eigvalsh(a)[:, 0]
        assert low.tobytes() == np.array([np.linalg.eigvalsh(w)[0] for w in want]).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dot_norm_equals_numpy_norm(n):
    """math.sqrt(v.dot(v)), the norm of sample_point and theorem1_verify, is np.linalg.norm's bits."""
    rng = np.random.default_rng(n)
    for v in rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-150.0, 150.0, (500, 1)):
        assert math.sqrt(v.dot(v)).hex() == float(np.linalg.norm(v)).hex()
    S = make_metric(klein_config(n) if n > 1 else {"family": "interval_funk", "dimension": 1})
    ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
    for _ in range(50):
        assert S.sample_point(ours).tobytes() == sample_point(theirs, n, SAMPLING_RADIUS).tobytes()


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


# every family's float path is generated from the source of its f2 and
# spray_fast (and the generated f2 and spray_fast are checked against
# chart_reference in TestChartReference and against polynomial_reference in
# TestPolynomialReference); the Klein, Funk and interval paths are checked on
# 10^4 phase points, and the Riemannian and Randers ones, whose field inverts
# g by the scalar-like Gauss-Jordan, on 10^3, which keeps their cost near a
# second
FLOAT_PATH_CASES = {
    "interval": {"family": "interval_funk", "dimension": 1, "k": 1.3, "scale": 0.7},
    **{f"klein{n}": klein_config(n) for n in (2, 3, 4)},
    "klein3_scaled": klein_config(3, scale=1.7),
    **{f"funk{n}": funk_config(n) for n in (2, 3, 4)},
    **{f"euclid{n}": euclid_config(n) for n in (2, 3, 4)},
    "randers_exact": exact_randers_config(),
    "randers_nonclosed": nonclosed_randers_config(),
    "cross_terms_scaled": cross_term_config(),
    "curved4": curved_table_config(4),
    "randers3": randers3_config(),
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
    def test_F_on_arrays_is_float_F_on_lists(self, case):
        # _unit_against_F reads float_F on lists where F on arrays was read:
        # the same float, by float.hex, and the same refusals, on and off the chart
        S = make_metric(FLOAT_PATH_CASES[case])
        n = S.dimension
        rng = np.random.default_rng(26)
        xs = rng.standard_normal((400, n))
        xs *= (rng.uniform(0.0, 1.3, 400) / np.linalg.norm(xs, axis=1))[:, None]
        ys = rng.standard_normal((400, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (400, 1))
        ys[0] = 0.0

        def hexed(fn, *args):
            try:
                return float(fn(*args)).hex()
            except EvaluationDomainError:
                return "EvaluationDomainError"

        seen = [hexed(S.float_F, x.tolist(), y.tolist()) for x, y in zip(xs, ys)]
        assert seen == [hexed(S.F, x, y) for x, y in zip(xs, ys)]
        assert "EvaluationDomainError" in seen and len(set(seen)) > 300

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


def signed_zero_twin(sign):
    """The README metric with a cross term g12 = g21 = (sign 0.0) x1."""
    doc = curved_riemannian_config()
    doc["riemannian"]["metric"][0][1] = doc["riemannian"]["metric"][1][0] = [[math.copysign(0.0, sign), 1, 0]]
    return doc


POLYNOMIAL_CASES = {
    "readme": README_METRIC,
    "cross_terms_scaled": cross_term_config(),
    "curved3": curved_table_config(3),
    "curved4": curved_table_config(4),
    "randers_exact": exact_randers_config(),
    "randers_nonclosed": nonclosed_randers_config(),
    "randers_zero_form": zero_form_randers_config(),
    "randers3": randers3_config(),
    "overflowing_partial": overflowing_partial_config(),
}


def reference_outcomes(S, f2, spray_fast, form):
    """Assert S's f2 and spray_fast give the reference's type and bits, or its refusal, on one input form.

    The inputs are TestChartReference's columns, signed zeros, y = 0, NaN
    and points off the chart, and a point at infinity.  Returns the set of
    whether each call was refused.
    """
    n = S.dimension
    rng = np.random.default_rng(26)
    X = rng.standard_normal((n, 40))
    X *= 0.999 * rng.uniform(size=40) ** (1.0 / n) / np.linalg.norm(X, axis=0)
    Y = rng.standard_normal((n, 40)) * 10.0 ** rng.uniform(-3.0, 3.0, 40)
    X[:, 0] = -0.0
    zero_y, nan_x, nan_y, off_x = Y.copy(), X.copy(), Y.copy(), X.copy()
    zero_y[:, 1] = 0.0
    nan_x[0, 1] = nan_y[-1, 2] = math.nan
    off_x[:, 1] = 1.5 / math.sqrt(n)
    off_x[:, 2] = [1.0] + [0.0] * (n - 1)
    off_x[:, 3] = [math.inf] + [0.0] * (n - 1)  # F^2 has no chart check: a zero term times inf is NaN
    refused = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for xs, ys in ((X, Y), (X, zero_y), (nan_x, Y), (X, nan_y), (off_x, Y)):
            for x, y in chart_inputs(S, form, xs, ys):
                for generated, reference in ((S.f2, f2), (S.spray_fast, spray_fast)):
                    got = bits_or_error(generated, x, y)
                    assert got == bits_or_error(reference, x, y)
                    refused.add(got[0] == "EvaluationDomainError")
    return refused


def bits_or_error(fn, *args):
    """bits_or_refusal, with any other exception as its type name and message.

    The spray's matrix inverse takes floats or jets, so on (B,) float rows
    both the generated spray and the reference raise TypeError.
    """
    try:
        return bits_or_refusal(fn, *args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


FORMS = ["floats", "hessian_rows", "object_rows", "phase_jets_2", "phase_jets_4"]


class TestPolynomialReference:
    """The generated Riemannian and Randers f2 and spray_fast give polynomial_reference's bits."""

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("case", POLYNOMIAL_CASES)
    def test_generated_matches_the_hand_written_reference(self, case, form):
        S = make_metric(POLYNOMIAL_CASES[case])
        assert reference_outcomes(S, *polynomial_reference(S.config), form) == {True, False}

    @pytest.mark.parametrize("form", FORMS)
    def test_a_negative_zero_coefficient_is_its_own_config(self, form):
        # a cache keyed on coefficient values, where -0.0 == 0.0, would serve
        # one twin the other's code; the jet products sum the sign away
        # before it reaches an output, so the code objects are compared
        plus, minus = (make_metric(signed_zero_twin(sign)) for sign in (1.0, -1.0))
        for S in (plus, minus):
            reference_outcomes(S, *polynomial_reference(S.config), form)
        assert plus.f2.__code__ is not minus.f2.__code__

    def test_sparse_tables_build_in_bounded_time_and_memory(self):
        # n = 40 with a term in every entry: the source grows with the terms,
        # and the n^3 contraction stays a loop.  Of the 0.3 s measured on 2
        # shared cores the compile takes about 0.22 s and the tables' own
        # construction checks about 0.05 s.  The peak is the child's VmHWM:
        # ru_maxrss would carry this process's peak over exec.
        script = (
            "import time\n"
            "from finslerlab import make_metric\n"
            "n = 40\n"
            "zero = [[0.0] + [0] * n]\n"
            "diagonal = lambda i: [[1.0] + [0] * n, [0.1] + [2 if v == i else 0 for v in range(n)]]\n"
            "metric = [[diagonal(i) if i == j else zero for j in range(n)] for i in range(n)]\n"
            "start = time.perf_counter()\n"
            "make_metric({'family': 'riemannian', 'dimension': n, 'riemannian': {'metric': metric}})\n"
            "peak = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')]\n"
            "print(time.perf_counter() - start, *peak)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(metrics.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=300
        ).stdout
        seconds, peak_kb = out.split()
        assert float(seconds) < 4.0
        assert int(peak_kb) < 150 * 1024


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
        table = S.config.metric
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

    @pytest.mark.parametrize(
        "b1",
        [[[0.0, 0, 0]], [[0.0, 1, 0]], [[0.3, 1, 0], [-0.3, 1, 0]]],
        ids=["constant_zero", "monomial_zero", "cancelling"],
    )
    def test_a_zero_one_form_is_reversible(self, b1):
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [[[0.0, 0, 0]], b1]
        S = make_metric(doc)
        assert S.reversible is True
        report = validate_structure(S, samples=50, seed=2)
        assert report.passed and report.reversible_observed is True

    @pytest.mark.parametrize(
        "b1",
        [
            [[0.1, 0, 0], [0.2, 0, 0], [-0.3, 0, 0]],
            [[1e-12, 0, 0]],
            [[1e-3, 0, 0]],
            [[1e16, 0, 0], [0.5, 0, 0], [-1e16, 0, 0]],
        ],
        ids=["sums_to_2.8e-17", "1e-12", "1e-3", "sums_to_0.5_past_1e16"],
    )
    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_a_small_nonzero_one_form_reads_non_reversible(self, b1, scale):
        # the deviation |F(x, -y) - F(x, y)| / F is judged against the sampled
        # 2 |beta| / (alpha + beta): below 1e-9, or below F's rounding, it is
        # still the form's, so the declaration and the observation agree
        doc = exact_randers_config()
        doc["scale"] = scale
        doc["randers"]["one_form"] = [b1, [[0.0, 0, 0]]]
        S = make_metric(doc)
        assert S.reversible is False
        report = validate_structure(S)
        assert report.passed and report.reversible_observed is False and report.failures == []

    def test_a_reversible_F_under_a_nonzero_form_is_a_mismatch(self):
        # F without its form's deviation: the form predicts 2 |beta| / F, F
        # shows none, so F reads reversible and the declaration disagrees
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [[[1e-3, 0, 0]], [[0.0, 0, 0]]]
        S = make_metric(doc)
        doc["randers"]["one_form"] = [[[0.0, 0, 0]], [[0.0, 0, 0]]]
        S = dataclasses.replace(S, f2=make_metric(doc).f2)
        report = validate_structure(S)
        assert not report.passed and report.reversible_observed is True
        assert report.failures == ["reversibility mismatch: declared False, observed True"]

    def test_needs_a_sample(self, klein2):
        with pytest.raises(ValueError):
            validate_structure(klein2, samples=0)


class TestLikeTerms:
    """A polynomial holds one term per monomial, the exact sum of its like coefficients."""

    def test_like_terms_are_summed_exactly_in_order_of_first_appearance(self):
        terms = [(1e16, (0, 0)), (0.3, (1, 0)), (0.5, (0, 0)), (0.2, (0, 2)), (-1e16, (0, 0)), (-0.3, (1, 0))]
        assert metrics.Polynomial(2, terms).terms == ((0.5, (0, 0)), (0.2, (0, 2)))
        # the exact 0.1 + 0.2 - 0.3, not the 5.6e-17 that float additions leave
        p = metrics.Polynomial(1, [(0.1, (1,)), (0.2, (1,)), (-0.3, (1,))])
        assert p.terms == ((2.7755575615628914e-17, (1,)),)
        assert p([2.0]) == 2.0 * 2.7755575615628914e-17

    @pytest.mark.parametrize(
        "b1", [[[0.0, 0, 0]], [[0.0, 1, 0]], [[0.3, 1, 0], [-0.3, 1, 0]], [[1e16, 0, 0], [-1e16, 0, 0]], []]
    )
    def test_a_zero_polynomial_has_no_terms(self, b1):
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [[], b1]
        S = make_metric(doc)
        assert [p.terms for p in S.config.one_form] == [(), ()]
        assert S.reversible is True

    def test_every_reader_sees_the_summed_form(self):
        # beta = 0.5 dx1 exactly, which 1e16 + 0.5 - 1e16 evaluated term by term loses
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [[[1e16, 0, 0], [0.5, 0, 0], [-1e16, 0, 0]], []]
        S = make_metric(doc)
        x = [0.1, -0.2]
        assert S.reversible is False
        assert S.float_F(x, [1.0, 0.0]) == 1.5 and S.float_F(x, [-1.0, 0.0]) == 0.5
        assert float(S.f2(x, [1.0, 0.0])) == 2.25
        assert metrics._eval_polynomials(S.config.one_form, np.array([x])).tolist() == [[0.5, 0.0]]

    def test_a_form_of_float_sum_zero_and_exact_sum_one_is_too_large(self):
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [[[1e16, 0, 0], [1, 0, 0], [-1e16, 0, 0]], []]
        with pytest.raises(StrongConvexityError, match=re.escape("||beta||_alpha = 1.000000 >= 1")):
            make_metric(doc)

    @pytest.mark.parametrize(
        "b1", [[[1e308, 0, 0], [1e308, 0, 0]], [[1e308, 0, 0], [1e308, 0, 0], [-1e308, 0, 0]]], ids=["inf", "finite"]
    )
    def test_a_sum_past_the_finite_floats_is_a_config_error(self, b1):
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [[], b1]
        with pytest.raises(ConfigError, match=re.escape("randers.one_form[1]: like terms sum beyond the finite floats")):
            MetricConfig.from_dict(doc)


class TestDataModel:
    """A structure is its config and four generated functions; every other fact is read from the config."""

    def test_the_fields(self):
        assert [f.name for f in dataclasses.fields(FinslerStructure)] == [
            "config", "f2", "spray_fast", "geodesic_field", "float_F",
        ]
        assert [f.name for f in dataclasses.fields(MetricConfig)] == [
            "family", "dimension", "k", "scale", "metric", "one_form",
        ]

    # (config, dimension, family, reversible, unique_geodesics), as the structure stored them
    # before they were read from the config; the zero one-form's reversible is the one change
    CASES = {
        "klein2": (klein_config(2), 2, "klein_ball", True, True),
        "klein3_scaled": (klein_config(3, scale=1.7), 3, "klein_ball", True, True),
        "funk3": (funk_config(3), 3, "funk_ball", False, True),
        "interval1": ({"family": "interval_funk", "dimension": 1, "k": 1.0}, 1, "interval_funk", False, True),
        "euclid3": (euclid_config(3), 3, "riemannian", True, False),
        "curved": (curved_riemannian_config(), 2, "riemannian", True, False),
        "overflowing_partial": (overflowing_partial_config(), 2, "riemannian", True, False),
        "cross_term": (cross_term_config(), 2, "riemannian", True, False),
        "curved3": (curved_table_config(3), 3, "riemannian", True, False),
        "exact_randers": (exact_randers_config(), 2, "randers", False, False),
        "nonclosed_randers": (nonclosed_randers_config(), 2, "randers", False, False),
        "randers3": (randers3_config(), 3, "randers", False, False),
        "zero_form_randers": (zero_form_randers_config(), 2, "randers", True, False),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_the_facts_its_config_fixes(self, case):
        doc, *facts = self.CASES[case]
        S = make_metric(doc)
        assert [S.dimension, S.family, S.reversible, S.unique_geodesics] == facts
        with pytest.raises(AttributeError):
            S.reversible = not S.reversible

    def test_report_serializes(self, klein2):
        report = validate_structure(klein2, samples=20, seed=0)
        doc = report.to_dict()
        assert doc["family"] == "klein_ball"
        assert isinstance(doc["failures"], list)

    def test_a_hessian_that_is_not_finite_is_a_named_failure(self, klein2, monkeypatch):
        # eigvalsh does not converge on some such matrices; none may reach it
        def not_finite(S, x, y):
            return np.full((x.shape[1], S.dimension, S.dimension), np.inf)

        def refuse(g):
            raise AssertionError("eigvalsh reached")

        monkeypatch.setattr(metrics, "_hessian_half_f2", not_finite)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        report = validate_structure(klein2, samples=5, seed=0)
        assert not report.passed
        assert [f.split(" at ")[0] for f in report.failures] == ["fundamental tensor not finite"] * 5
        assert report.min_hessian_eigenvalue is None and report.homogeneity_residual is None


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
