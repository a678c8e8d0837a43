import math

import numpy as np
import pytest

from finslerlab import (
    DegenerateFlagError,
    EvaluationDomainError,
    einstein_classify,
    flag_curvature,
    fundamental_tensor,
    make_metric,
    ricci_scalar,
    ricci_tensor,
    riemann_curvature,
    scalar_curvature_residual,
)
from finslerlab import curvature, geodesics, metrics
from finslerlab.curvature import (
    _f2_values,
    _ricci_scalars,
    _ricci_tensors,
    _flag_curvatures,
    _riemann_trace_jet,
    _riemann_values,
)
from finslerlab.geodesics import spray_jet_functions
from finslerlab.jets import Jet, jet_space
from finslerlab.metrics import SAMPLING_RADIUS, _fundamental_tensors, invert_scalarlike_matrix

from conftest import (
    curved_riemannian_config,
    curved_table_config,
    exact_randers_config,
    funk_config,
    klein_config,
    nonclosed_randers_config,
    randers3_config,
)
from oracles import (
    einstein_classify_per_point,
    flag_curvature_per_point,
    invert_by_division,
    riemann_formula,
    riemann_trace_jet_per_entry,
    riemann_values_per_entry,
    sample_direction,
    sample_point,
    uncapped_spray_jet_functions,
)


def fd_riemann(S, x, y):
    """R^i_k from central differences of the spray, one Richardson halving.

    Fully independent of the jet engine: only the closed-form spray values
    are consumed.
    """
    n = S.dimension
    x = np.asarray(x, float)
    y = np.asarray(y, float)

    def G(xx, yy):
        return np.array(S.spray_fast(xx.tolist(), yy.tolist()))

    def d_x(k, h=1e-3):
        e = np.zeros(n)
        e[k] = 1.0

        def at(hh):
            return (G(x + hh * e, y) - G(x - hh * e, y)) / (2.0 * hh)

        return (4.0 * at(h / 2.0) - at(h)) / 3.0

    def d_y(k, h=1e-3):
        e = np.zeros(n)
        e[k] = 1.0

        def at(hh):
            return (G(x, y + hh * e) - G(x, y - hh * e)) / (2.0 * hh)

        return (4.0 * at(h / 2.0) - at(h)) / 3.0

    def second(outer_in_x, k, j, h=2e-3):
        ek = np.zeros(n)
        ek[k] = 1.0
        ej = np.zeros(n)
        ej[j] = 1.0

        def gy(xx, yy, hh):
            return (G(xx, yy + hh * ek) - G(xx, yy - hh * ek)) / (2.0 * hh)

        def mixed(hh):
            if outer_in_x:
                return (gy(x + hh * ej, y, hh) - gy(x - hh * ej, y, hh)) / (2.0 * hh)
            return (gy(x, y + hh * ej, hh) - gy(x, y - hh * ej, hh)) / (2.0 * hh)

        return (4.0 * mixed(h / 2.0) - mixed(h)) / 3.0

    G0 = G(x, y)
    Gx = np.stack([d_x(k) for k in range(n)], axis=1)
    Gy = np.stack([d_y(k) for k in range(n)], axis=1)
    R = 2.0 * Gx
    for i in range(n):
        for k in range(n):
            for j in range(n):
                R[i, k] -= y[j] * second(True, k, j)[i]
                R[i, k] += 2.0 * G0[j] * second(False, k, j)[i]
                R[i, k] -= Gy[i, j] * Gy[j, k]
    return R


class TestRiemann:
    def test_euclidean_flat(self, euclid2):
        R = riemann_curvature(euclid2, [0.2, -0.4], [0.3, 1.0])
        assert np.max(np.abs(R.matrix)) <= 1e-12

    def test_klein_center_closed_form(self, klein2):
        y = np.array([0.6, 0.8])
        R = riemann_curvature(klein2, [0.0, 0.0], y)
        want = np.outer(y, y) - float(y @ y) * np.eye(2)
        assert np.max(np.abs(R.matrix - want)) <= 1e-12

    def test_flagpole_annihilation(self, klein2, funk2, klein3):
        rng = np.random.default_rng(1)
        for S in (klein2, funk2, klein3):
            for _ in range(20):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                R = riemann_curvature(S, x, y)
                scale = float(np.max(np.abs(R.matrix))) * float(np.max(np.abs(y)))
                assert R.flagpole_residual() <= 1e-6 * max(scale, 1e-30)

    def test_two_homogeneity(self, klein2, funk2):
        rng = np.random.default_rng(2)
        for S in (klein2, funk2):
            for _ in range(10):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                R1 = riemann_curvature(S, x, y).matrix
                R2 = riemann_curvature(S, x, 2.0 * y).matrix
                scale = max(1.0, float(np.max(np.abs(R2))))
                assert np.max(np.abs(R2 - 4.0 * R1)) <= 1e-9 * scale

    def test_finite_difference_oracle_spots(self, klein2, funk2, klein3):
        rng = np.random.default_rng(3)
        spots = []
        for S in (klein2, funk2, klein3):
            spots.append((S, S.sample_point(rng, 0.6), S.sample_direction(rng)))
        spots.append((klein2, np.array([0.3, -0.2]), np.array([1.0, 0.5])))
        spots.append((funk2, np.array([-0.1, 0.4]), np.array([0.5, -1.0])))
        for S, x, y in spots:
            R_fd = fd_riemann(S, x, y)
            R_jet = riemann_curvature(S, x, y).matrix
            scale = max(1.0, float(np.max(np.abs(R_jet))))
            assert np.max(np.abs(R_fd - R_jet)) <= 1e-4 * scale

    def test_fast_and_generic_routes_agree(self, klein2, funk2):
        rng = np.random.default_rng(4)
        for S in (klein2, funk2, make_metric(exact_randers_config())):
            for _ in range(5):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                fast = riemann_curvature(S, x, y, via="fast").matrix
                generic = riemann_curvature(S, x, y, via="f2").matrix
                scale = max(1.0, float(np.max(np.abs(fast))))
                assert np.max(np.abs(fast - generic)) <= 1e-8 * scale

    def test_closed_form_is_the_default_route(self, klein2):
        x, y = [0.2, -0.1], [0.6, 0.8]
        default = riemann_curvature(klein2, x, y).matrix
        assert np.array_equal(default, riemann_curvature(klein2, x, y, via="fast").matrix)
        with pytest.raises(ValueError):
            riemann_curvature(klein2, x, y, via="auto")


class TestFlag:
    def test_euclidean_zero(self, euclid2):
        assert flag_curvature(euclid2, [0.1, 0.1], [1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_klein_constant_minus_one(self, klein2, klein3):
        rng = np.random.default_rng(5)
        for S in (klein2, klein3):
            for _ in range(100):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                u = S.sample_direction(rng)
                if abs(float(u @ y)) > 0.99 * float(np.linalg.norm(u) * np.linalg.norm(y)):
                    continue
                assert flag_curvature(S, x, y, u) == pytest.approx(-1.0, abs=1e-5)

    def test_funk_constant_minus_quarter(self, funk2):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = funk2.sample_point(rng)
            y = funk2.sample_direction(rng)
            u = funk2.sample_direction(rng)
            if abs(float(u @ y)) > 0.99 * float(np.linalg.norm(u) * np.linalg.norm(y)):
                continue
            assert flag_curvature(funk2, x, y, u) == pytest.approx(-0.25, abs=1e-4)

    def test_flag_invariance(self, klein2, funk2):
        rng = np.random.default_rng(7)
        for S in (klein2, funk2):
            for _ in range(10):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                u = S.sample_direction(rng)
                if abs(float(u @ y)) > 0.9:
                    continue
                base = flag_curvature(S, x, y, u)
                assert abs(flag_curvature(S, x, y, u + 0.7 * y) - base) <= 1e-8
                assert abs(flag_curvature(S, x, y, 2.5 * u) - base) <= 1e-8

    def test_degenerate_flag_rejected(self, klein2):
        # parallel, then sin^2 of the g_y-angle 1.6e-7, below the 1e-4 rule
        for u in ([2.0, 1.0], [2.0, 1.001]):
            with pytest.raises(DegenerateFlagError):
                flag_curvature(klein2, [0.1, 0.2], [1.0, 0.5], u)


class TestRicci:
    def test_euclidean_zero(self, euclid2):
        data = ricci_tensor(euclid2, [0.1, -0.2], [0.7, 0.3])
        assert abs(data.ric) <= 1e-12
        assert np.max(np.abs(data.ric_tensor)) <= 1e-12

    def test_klein_scalar_values(self, klein2, klein3):
        rng = np.random.default_rng(8)
        for S, want in ((klein2, -1.0), (klein3, -2.0)):
            for _ in range(10):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                assert ricci_scalar(S, x, y) == pytest.approx(want, abs=1e-5)

    def test_zero_homogeneity_of_scalar(self, klein2, funk2):
        rng = np.random.default_rng(9)
        for S in (klein2, funk2):
            x = S.sample_point(rng)
            y = S.sample_direction(rng)
            a = ricci_scalar(S, x, y)
            b = ricci_scalar(S, x, 3.0 * y)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_zero_flagpole_rejected(self, klein2, euclid2):
        for S in (klein2, euclid2):
            with pytest.raises(EvaluationDomainError):
                ricci_scalar(S, [0.1, 0.2], [0.0, 0.0])
            with pytest.raises(EvaluationDomainError):
                ricci_tensor(S, [0.1, 0.2], [0.0, 0.0])

    def test_klein_tensor_center(self, klein2):
        data = ricci_tensor(klein2, [0.0, 0.0], [1.0, 0.0])
        assert np.max(np.abs(data.ric_tensor + np.eye(2))) <= 1e-4

    def test_tensor_proportional_to_g(self, klein2, klein3, funk2):
        rng = np.random.default_rng(10)
        for S, lam in ((klein2, -1.0), (klein3, -2.0), (funk2, -0.25)):
            for _ in range(5):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                data = ricci_tensor(S, x, y)
                g = fundamental_tensor(S, x, y).g
                resid = np.max(np.abs(data.ric_tensor - lam * g)) / np.max(np.abs(g))
                assert resid <= 1e-4
                assert np.max(np.abs(data.ric_tensor - data.ric_tensor.T)) <= 1e-12

    def test_scalar_matches_trace_route(self, klein2, funk2):
        rng = np.random.default_rng(11)
        for S in (klein2, funk2):
            for _ in range(5):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                via_tensor = ricci_tensor(S, x, y).ric
                via_trace = ricci_scalar(S, x, y)
                assert abs(via_tensor - via_trace) <= 1e-6 * max(1.0, abs(via_trace))

    def test_tensor_contraction_equals_trace(self, klein2, funk2, klein3):
        # Ric_ij y^i y^j = R^k_k follows from 2-homogeneity of the trace;
        # the projective module leans on this equivalence when it evaluates
        # the geodesic coefficient through the cheaper scalar route.
        rng = np.random.default_rng(12)
        for S in (klein2, funk2, klein3):
            for _ in range(5):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                data = ricci_tensor(S, x, y)
                quadform = float(y @ data.ric_tensor @ y)
                trace = data.ric * float(S.f2(x, y))
                assert abs(quadform - trace) <= 1e-9 * max(1.0, abs(trace))


class TestScalarShape:
    def test_euclidean_zero_lambda(self, euclid2):
        assert scalar_curvature_residual(euclid2, [0.1, 0.0], [1.0, 0.2], 0.0) <= 1e-12

    def test_klein_matching_lambda(self, klein2):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = klein2.sample_point(rng)
            y = klein2.sample_direction(rng)
            assert scalar_curvature_residual(klein2, x, y, -1.0) <= 1e-5

    def test_funk_matching_lambda(self, funk2):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = funk2.sample_point(rng)
            y = funk2.sample_direction(rng)
            assert scalar_curvature_residual(funk2, x, y, -0.25) <= 1e-4

    def test_wrong_lambda_detected(self, klein2):
        resid = scalar_curvature_residual(klein2, [0.3, -0.1], [1.0, 0.4], 1.0)
        assert resid >= 0.1


class TestEinsteinClassify:
    def test_klein2(self, klein2):
        report = einstein_classify(klein2, x_samples=8, seed=0)
        assert report.is_einstein
        assert report.fit_factor == pytest.approx(-1.0, abs=1e-4)
        assert report.einstein_constant_c == pytest.approx(1.0, abs=1e-4)
        assert report.flag_constant == pytest.approx(-1.0, abs=1e-4)

    def test_klein3(self, klein3):
        report = einstein_classify(klein3, x_samples=6, seed=0)
        assert report.is_einstein
        assert report.einstein_constant_c == pytest.approx(math.sqrt(2.0), abs=1e-4)

    def test_funk2(self, funk2):
        report = einstein_classify(funk2, x_samples=8, seed=0)
        assert report.is_einstein
        assert report.fit_factor == pytest.approx(-0.25, abs=1e-3)
        assert report.einstein_constant_c == pytest.approx(0.5, abs=1e-3)

    def test_euclid_flat_no_constant(self, euclid2):
        report = einstein_classify(euclid2, x_samples=4, seed=0)
        assert report.is_einstein
        assert report.einstein_constant_c is None
        assert abs(report.ric_mean) <= 1e-10

    def test_curved_riemannian_no_constant(self):
        S = make_metric(curved_riemannian_config())
        report = einstein_classify(S, x_samples=6, seed=0)
        # two-dimensional Riemannian metrics always have y-independent Ricci,
        # but the factor varies with x, so no Einstein normal form is reported
        assert report.is_einstein
        assert report.einstein_constant_c is None
        assert report.ric_x_spread > 1e-3

    @pytest.mark.parametrize("seed", [5, 8, 44, 55])
    def test_klein2_flag_constant_skips_near_parallel_flags(self, klein2, seed):
        # each seed draws a flag with sin^2 of its g_y-angle below 1e-4, which would
        # amplify rounding in g and R into the mean (errors 4.6e-13 to 9.8e-12 with it)
        assert abs(einstein_classify(klein2, seed=seed).flag_constant + 1.0) <= 2e-13

    def test_report_serializes(self, klein2):
        doc = einstein_classify(klein2, x_samples=4, seed=0).to_dict()
        assert doc["family"] == "klein_ball"
        assert doc["seed"] == 0


def skew_randers_config():
    """Constant Randers metric whose g_y pivots on either row, depending on y."""
    const = [[0.5, 0, 0]]
    return {
        "family": "randers",
        "dimension": 2,
        "randers": {
            "metric": [[[[0.5, 0, 0]], const], [const, [[1.0, 0, 0]]]],
            "one_form": [[[0.3, 0, 0]], [[0.3, 0, 0]]],
        },
    }


BATCH_CASES = {
    "klein2": klein_config(2),
    "klein3": klein_config(3),
    "funk2": funk_config(2),
    "riemannian2": curved_riemannian_config(),
    "randers2": exact_randers_config(),
    "randers_skew": skew_randers_config(),
}
BATCH_CONFIGS = pytest.mark.parametrize("config", list(BATCH_CASES.values()), ids=list(BATCH_CASES))
FLAG_CASES = {**BATCH_CASES, "klein4": klein_config(4), "funk3": funk_config(3), "randers_nc": nonclosed_randers_config()}
# R^i_k and its trace are defined in dimension one too, where classification is not
CURVATURE_CONFIGS = pytest.mark.parametrize(
    "config",
    [*BATCH_CASES.values(), {"family": "interval_funk", "dimension": 1, "k": 1.0}],
    ids=[*BATCH_CASES, "interval1"],
)


class ZeroRowGenerator:
    """Draws like default_rng(seed), except that normal row `zero_at` comes out as zeros.

    Rows count across calls: a draw of size n is one row, of size (k, n) k rows.
    """

    def __init__(self, seed, zero_at):
        self.rng = np.random.default_rng(seed)
        self.zero_at = zero_at
        self.rows = 0

    def standard_normal(self, size):
        v = self.rng.standard_normal(size)
        for row in np.atleast_2d(v):
            if self.rows == self.zero_at:
                row[:] = 0.0
            self.rows += 1
        return v

    def random(self):
        return self.rng.random()

    def uniform(self):
        return self.rng.uniform()


def _concatenated_directions(rng, k, n):
    """k unit rows, each redraw appended onto what was kept, starting from an empty array."""
    out = np.empty((0, n))
    while len(out) < k:
        v = rng.standard_normal((k - len(out), n))
        nv = np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]
        keep = nv[:, 0] > 1e-8
        out = np.concatenate([out, v[keep] / nv[keep]])
    return out


class SwappedDraws:
    """Draws like default_rng(seed), except that normal draws `first` and `first + 1` swap.

    Draws count from 0 across calls, one per standard_normal call.
    """

    def __init__(self, seed, first):
        self.rng = np.random.default_rng(seed)
        self.first = first
        self.calls = 0
        self.held = None

    def standard_normal(self, size):
        call = self.calls
        self.calls += 1
        if call == self.first:
            self.held = self.rng.standard_normal(size)
            return self.rng.standard_normal(size)
        if call == self.first + 1:
            return self.held
        return self.rng.standard_normal(size)

    def uniform(self):
        return self.rng.uniform()


class TestBatchedCurvature:
    """One batched evaluation reproduces the per-point results bit for bit."""

    @BATCH_CONFIGS
    def test_batch_equals_per_point(self, config):
        S = make_metric(config)
        rng = np.random.default_rng(8)
        xs = [S.sample_point(rng, 0.7) for _ in range(5)]
        ys = [S.sample_direction(rng) for _ in range(5)]
        X, Y = np.array(xs).T, np.array(ys).T
        ric = _ricci_scalars(S, X, Y)
        R = _riemann_values(S, X, Y)
        trace, tensors = _ricci_tensors(S, X, Y)
        f2 = _f2_values(S, X, Y)
        for b, (x, y) in enumerate(zip(xs, ys)):
            assert ric[b] == ricci_scalar(S, x, y)
            assert np.array_equal(R[b], riemann_curvature(S, x, y).matrix)
            data = ricci_tensor(S, x, y)
            assert trace[b] / f2[b] == data.ric
            assert np.array_equal(tensors[b], data.ric_tensor)

    def test_zero_flagpole_in_a_batch_rejected(self, klein2):
        X = np.zeros((2, 3))
        Y = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 0.5]])
        with pytest.raises(EvaluationDomainError):
            _ricci_scalars(klein2, X, Y)

    @BATCH_CONFIGS
    def test_fundamental_tensors_equal_per_point(self, config):
        S = make_metric(config)
        rng = np.random.default_rng(11)
        X = np.array([S.sample_point(rng, 0.7) for _ in range(6)]).T
        Y = np.array([S.sample_direction(rng) * rng.uniform(0.5, 2.0) for _ in range(6)]).T
        wide = np.zeros((2 * S.dimension, 12))
        wide[::2, ::2] = X
        wide[1::2, 1::2] = Y
        strided = (wide[::2, ::2], wide[1::2, 1::2])
        for Xb, Yb in ((X, Y), strided, (np.asfortranarray(X), np.asfortranarray(Y))):
            g, g_inv = _fundamental_tensors(S, Xb, Yb)
            assert g.flags.c_contiguous
            for b in range(6):
                ft = fundamental_tensor(S, X[:, b], Y[:, b])
                assert np.array_equal(g[b], ft.g)
                assert np.array_equal(g_inv[b], ft.g_inv)

    @BATCH_CONFIGS
    def test_f2_values_equal_per_point(self, config):
        S = make_metric(config)
        rng = np.random.default_rng(12)
        X = np.array([S.sample_point(rng) for _ in range(400)]).T
        Y = rng.standard_normal((S.dimension, 400))
        want = [float(S.f2(X[:, b], Y[:, b])) for b in range(400)]
        assert _f2_values(S, X, Y).tolist() == want

    def test_f2_values_on_the_interval(self, interval1):
        X = np.array([[-0.9, -0.3, 0.0, 0.5, 0.93]])
        Y = np.array([[1.0, -2.0, 0.7, -0.1, 3.0]])
        want = [float(interval1.f2(X[:, b], Y[:, b])) for b in range(5)]
        assert _f2_values(interval1, X, Y).tolist() == want

    @BATCH_CONFIGS
    def test_sample_directions_equal_successive_draws(self, config):
        S = make_metric(config)
        n = S.dimension
        for zero_at in (None, 0, 3, 6):
            batched = ZeroRowGenerator(5, zero_at)
            single = ZeroRowGenerator(5, zero_at)
            one_by_one = ZeroRowGenerator(5, zero_at)
            rows = S.sample_directions(batched, 7)
            assert rows.shape == (7, n)
            assert rows.tobytes() == _concatenated_directions(ZeroRowGenerator(5, zero_at), 7, n).tobytes()
            assert np.array_equal(rows, [S.sample_direction(single) for _ in range(7)])
            assert np.array_equal(rows, [sample_direction(one_by_one, n) for _ in range(7)])
            assert batched.rows == single.rows == one_by_one.rows == (7 if zero_at is None else 8)
            assert np.array_equal(batched.rng.standard_normal(n), one_by_one.rng.standard_normal(n))

    @BATCH_CONFIGS
    def test_riemann_formula_diagonal_equals_full(self, config):
        S = make_metric(config)
        n = S.dimension
        rng = np.random.default_rng(13)
        X = np.array([S.sample_point(rng, 0.7) for _ in range(4)]).T
        Y = S.sample_directions(rng, 4).T
        G = spray_jet_functions(S, X, Y, g_order=4)
        yj = [G[0].space.variable(n + i, v) for i, v in enumerate(Y)]
        for y, at in ((yj, lambda jet: jet), (Y, lambda jet: jet.coef[0])):
            full = riemann_formula(G, y, at)
            diag = riemann_formula(G, y, at, diagonal=True)
            for i in range(n):
                want, got = (getattr(R[i][i], "coef", R[i][i]) for R in (full, diag))
                assert np.array_equal(got, want)
                assert all(diag[i][k] is None for k in range(n) if k != i)

    @BATCH_CONFIGS
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("x_samples, y_directions", [(2, 8), (3, 12)])
    def test_classification_equals_per_point_route(self, config, seed, x_samples, y_directions):
        S = make_metric(config)
        report = einstein_classify(S, x_samples=x_samples, seed=seed, y_directions=y_directions)
        fields, ric_values = einstein_classify_per_point(
            S, np.random.default_rng(seed), x_samples=x_samples, y_directions=y_directions
        )
        doc = report.to_dict()
        assert {key: doc[key] for key in fields} == fields
        assert report.ric_values == ric_values

    def test_per_point_route_sees_a_reordered_draw(self):
        # Ric depends on y here, so swapping the first two directions of the
        # first base point (normal draws 1 and 2) reorders ric_values[0]
        S = make_metric(exact_randers_config())
        report = einstein_classify(S, x_samples=2, seed=0, y_directions=8)
        _, ric_values = einstein_classify_per_point(S, SwappedDraws(0, 1), x_samples=2, y_directions=8)
        assert ric_values[0][:2] == report.ric_values[0][1::-1]
        assert ric_values != report.ric_values


def draws_one_at_a_time(rng, n, blocks, radius):
    """(points, directions) of a plan of blocks from the oracle's sample_point and sample_direction, in order."""
    points, directions = [], []
    for point, k in blocks:
        if point:
            points.append(sample_point(rng, n, radius))
        directions += [sample_direction(rng, n) for _ in range(k)]
    return np.reshape(points, (-1, n)), np.reshape(directions, (-1, n))


SAMPLER_STRUCTURES = {
    1: {"family": "interval_funk", "dimension": 1},
    **{n: klein_config(n) for n in (2, 3, 4)},
}
PLANS = {
    "classification": [(True, 3)] * 3 + [(False, 4)] + [(True, 2)] * 2,
    "pointless": [(False, 2), (False, 3), (True, 0), (False, 1)],
    "empty_blocks": [(True, 0), (False, 0), (True, 0), (True, 2), (False, 0)],
    "points_only": [(True, 0)] * 4,
    "directions_only": [(False, 5)],
    "no_blocks": [],
}


class TestSampleBlocks:
    """sample_blocks draws the stream that sample_point and sample_direction draw in order."""

    @pytest.mark.parametrize("n", sorted(SAMPLER_STRUCTURES))
    @pytest.mark.parametrize("plan", PLANS)
    def test_plan_draws_the_one_at_a_time_stream(self, n, plan):
        # a zero row at every place of the stream: inside a direction block
        # whose call also draws the next point's row, as that block's last
        # row, so that the redraw pushes the point's row past the call, as a
        # point's own row (a NaN point, as sample_point makes it) and past
        # the end of the plan
        S = make_metric(SAMPLER_STRUCTURES[n])
        blocks = PLANS[plan]
        for zero_at in (None, *range(sum(point + k for point, k in blocks) + 2)):
            ours, theirs = ZeroRowGenerator(9, zero_at), ZeroRowGenerator(9, zero_at)
            with np.errstate(invalid="ignore"):
                got = S.sample_blocks(ours, blocks, 0.7)
                want = draws_one_at_a_time(theirs, n, blocks, 0.7)
            assert [a.shape for a in got] == [a.shape for a in want]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert ours.rows == theirs.rows
            assert ours.rng.standard_normal(n).tobytes() == theirs.rng.standard_normal(n).tobytes()

    @pytest.mark.parametrize("n", sorted(SAMPLER_STRUCTURES))
    def test_single_draws_are_views_of_the_plan(self, n):
        S = make_metric(SAMPLER_STRUCTURES[n])
        ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(3):
            assert S.sample_point(ours).tobytes() == sample_point(theirs, n, SAMPLING_RADIUS).tobytes()
            assert S.sample_point(ours, 0.5).tobytes() == sample_point(theirs, n, 0.5).tobytes()
            assert S.sample_direction(ours).tobytes() == sample_direction(theirs, n).tobytes()
        assert ours.random() == theirs.uniform()


def singular_table_config():
    """The Riemannian metric diag(1, x1^2): positive definite off the line x1 = 0, singular on it."""
    return {
        "family": "riemannian",
        "dimension": 2,
        "riemannian": {"metric": [[[[1.0, 0, 0]], []], [[], [[1.0, 2, 0]]]]},
    }


def shared_base_outcomes(S, X, Y, columns):
    """R^i_k by both routes and the Ricci tensors, each as bytes or its EvaluationDomainError's message."""
    calls = [lambda via=via: (_riemann_values(S, X, Y, via=via, columns=columns),) for via in ("fast", "f2")]
    calls.append(lambda: _ricci_tensors(S, X, Y, columns))
    out = []
    for call in calls:
        try:
            out.append([a.tobytes() for a in call()])
        except EvaluationDomainError as exc:
            out.append(str(exc))
    return out


class TestSharedBasePoints:
    """Distinct base points and a column map keep the bits of the batch with x on every column."""

    COLUMNS = np.array([2, 0, 0, 3, 1, 2, 2, 0, 3])

    @classmethod
    def batch(cls, S, seed):
        rng = np.random.default_rng(seed)
        X = S.sample_blocks(rng, [(True, 0)] * 4, 0.7)[0].T
        return X, S.sample_directions(rng, len(cls.COLUMNS)).T

    @BATCH_CONFIGS
    def test_map_equals_x_on_every_column(self, config):
        S = make_metric(config)
        X, Y = self.batch(S, 21)
        got = shared_base_outcomes(S, X, Y, self.COLUMNS)
        assert not any(isinstance(g, str) for g in got)
        assert got == shared_base_outcomes(S, X[:, self.COLUMNS], Y, None)
        G = spray_jet_functions(S, X, Y, 2, columns=self.COLUMNS)
        want = spray_jet_functions(S, X[:, self.COLUMNS], Y, 2)
        assert [g.coef.tobytes() for g in G] == [w.coef.tobytes() for w in want]

    @BATCH_CONFIGS
    def test_signed_zero_base_points_stay_apart(self, config):
        # a map inferred by float equality would merge -0.0 and +0.0
        S = make_metric(config)
        n = S.dimension
        X = np.array([[-0.0] + [0.3] * (n - 1), [0.0] + [0.3] * (n - 1)]).T
        columns = np.array([0, 1, 1, 0])
        Y = S.sample_directions(np.random.default_rng(22), 4).T
        G = spray_jet_functions(S, X, Y, 4, columns=columns)
        want = spray_jet_functions(S, X[:, columns], Y, 4)
        assert [g.coef.tobytes() for g in G] == [w.coef.tobytes() for w in want]
        assert shared_base_outcomes(S, X, Y, columns) == shared_base_outcomes(S, X[:, columns], Y, None)

    @BATCH_CONFIGS
    def test_an_off_chart_base_point_raises_as_the_batch_does(self, config):
        S = make_metric(config)
        X, Y = self.batch(S, 23)
        X[:, 3] = 1.5 / math.sqrt(S.dimension)
        got = shared_base_outcomes(S, X, Y, self.COLUMNS)
        assert got[0] == got[2] == "point outside the unit-ball chart"
        assert got == shared_base_outcomes(S, X[:, self.COLUMNS], Y, None)

    def test_a_singular_table_raises_as_the_batch_does(self):
        S = make_metric(singular_table_config())
        X, Y = self.batch(S, 24)
        X[0, 1] = 0.0  # the line x1 = 0
        got = shared_base_outcomes(S, X, Y, self.COLUMNS)
        assert got[0] == got[2] == "singular matrix in scalar-like inverse"
        assert got == shared_base_outcomes(S, X[:, self.COLUMNS], Y, None)


BASE_PART_CASES = {
    "klein2": klein_config(2),
    "klein3": klein_config(3),
    "funk2": funk_config(2),
    "funk3": funk_config(3),
    "interval1": {"family": "interval_funk", "dimension": 1, "k": 1.7},
    "riemannian2": curved_riemannian_config(),
    "riemannian3": curved_table_config(3),
    "randers2": nonclosed_randers_config(),
    "randers3": randers3_config(),
}


class TestFirstOrderBasePart:
    """The base part on first-order jets, padded into the fibre jets' space, keeps
    the bits of spray_fast fed base seeds of the fibre jets' own order."""

    @pytest.mark.parametrize("g_order", [0, 2, 4])
    @pytest.mark.parametrize("case", BASE_PART_CASES)
    def test_spray_jets_equal_full_order_base_seeds(self, case, g_order):
        S = make_metric(BASE_PART_CASES[case])
        rng = np.random.default_rng(28)
        X = S.sample_blocks(rng, [(True, 0)] * 3, 0.7)[0].T
        Y = S.sample_directions(rng, 7).T
        if S.dimension > 1:
            Y[0, 1] = -0.0
        columns = np.array([1, 0, 2, 2, 1, 0, 1])
        for x, cols in ((X[:, columns], None), (X, columns)):
            got = spray_jet_functions(S, x, Y, g_order, columns=cols)
            xj, yj = geodesics.phase_jet_args(S, x, Y, g_order, base_degree=1)
            want = S.spray_fast(xj, yj, columns=cols)
            assert [g.space for g in got] == [w.space for w in want] == [yj[0].space] * S.dimension
            assert [g.coef.tobytes() for g in got] == [w.coef.tobytes() for w in want]

    @CURVATURE_CONFIGS
    def test_ricci_tensor_reads_the_partial_chain(self, config):
        S = make_metric(config)
        n = S.dimension
        X, Y = signed_zero_batch(S, 29, 12)
        trace = _riemann_trace_jet(S, X, Y)
        want = np.empty((12, n, n))
        for i in range(n):
            for j in range(i, n):
                want[:, i, j] = want[:, j, i] = 0.5 * trace.partial(n + i).partial(n + j).coef[0]
        got_trace, got = _ricci_tensors(S, X, Y)
        assert got_trace.tobytes() == trace.coef[0].tobytes()
        assert got.tobytes() == want.tobytes()


def test_classification_refuses_base_points_above_the_cap_before_drawing(klein2, monkeypatch):
    def draw(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(klein2, "sample_blocks", draw)
    with pytest.raises(ValueError, match=f"at most {curvature.MAX_X_SAMPLES}"):
        einstein_classify(klein2, x_samples=10**12)


def signed_zero_batch(S, seed, B):
    """B phase points; from dimension two on, fibre entries +0.0 and -0.0 in every third column."""
    rng = np.random.default_rng(seed)
    X = np.array([S.sample_point(rng, 0.7) for _ in range(B)]).T
    Y = S.sample_directions(rng, B).T
    if S.dimension > 1:
        Y[0, 1::3] = 0.0
        Y[-1, 2::3] = -0.0
    return X, Y


class TestCurvatureArrays:
    """R^i_k over (n, n, B) arrays and the trace over stacked diagonal entries keep
    the per-entry formula's bits (riemann_formula in tests/oracles.py)."""

    @CURVATURE_CONFIGS
    @pytest.mark.parametrize("B", [1, 12, 130])
    def test_riemann_values_equal_the_per_entry_formula(self, config, B):
        S = make_metric(config)
        X, Y = signed_zero_batch(S, 18, B)
        for via in ("fast", "f2"):
            got, want = _riemann_values(S, X, Y, via=via), riemann_values_per_entry(S, X, Y, via=via)
            assert got.shape == want.shape == (B, S.dimension, S.dimension)
            assert got.tobytes() == want.tobytes()

    @CURVATURE_CONFIGS
    @pytest.mark.parametrize("B", [1, 12, 130])
    def test_trace_jet_equals_the_per_entry_formula(self, config, B):
        S = make_metric(config)
        X, Y = signed_zero_batch(S, 19, B)
        got, want = _riemann_trace_jet(S, X, Y), riemann_trace_jet_per_entry(S, X, Y)
        assert got.space is want.space
        assert got.coef.shape == want.coef.shape
        assert got.coef.tobytes() == want.coef.tobytes()

    def test_signed_zero_batch_holds_both_zeros(self, klein2):
        _, Y = signed_zero_batch(klein2, 18, 12)
        assert np.signbit(Y[-1, 2::3]).all() and not np.signbit(Y[0, 1::3]).any()
        assert (Y[0, 1::3] == 0.0).all() and Y.any(axis=0).all()

    @pytest.mark.parametrize("case", FLAG_CASES)
    def test_flag_curvatures_equal_the_per_point_formula(self, case):
        # both library routes against flag_curvature_per_point, bit for bit,
        # with the same refusals: parallel flags and flags at sin^2 ~ 1e-6
        S = make_metric(FLAG_CASES[case])
        rng = np.random.default_rng(20)
        B = 16
        X = np.array([S.sample_point(rng, 0.7) for _ in range(B)]).T
        Y, U = S.sample_directions(rng, B), S.sample_directions(rng, B)
        U[::4] = Y[::4]
        U[1::8] = Y[1::8] + 1e-3 * U[1::8]
        g, _ = _fundamental_tensors(S, X, Y.T)
        K, kept = _flag_curvatures(g, _riemann_values(S, X, Y.T), Y, U)
        want = [flag_outcome(flag_curvature_per_point, S, X[:, b], Y[b], U[b]) for b in range(B)]
        assert [w is not DegenerateFlagError for w in want] == kept.tolist()
        assert kept.tolist() == [b % 4 != 0 and b % 8 != 1 for b in range(B)]
        assert [K[b].hex() if kept[b] else DegenerateFlagError for b in range(B)] == want
        assert [flag_outcome(flag_curvature, S, X[:, b], Y[b], U[b]) for b in range(B)] == want
        if case in ("riemannian2", "randers2", "randers_nc"):
            assert np.ptp(K[kept]) >= 0.01  # the flags vary here
        if case == "randers_skew":
            assert (K[kept] == 0.0).all()  # the constant Randers metric is flat


def flag_outcome(fn, *args):
    """The hex of fn's flag curvature, or DegenerateFlagError where fn refuses the flag."""
    try:
        return fn(*args).hex()
    except DegenerateFlagError:
        return DegenerateFlagError


class TestCappedSprayJets:
    """Spray jets carry one base derivative; the curvature keeps the uncapped route's bits."""

    @staticmethod
    def batch(S, seed):
        rng = np.random.default_rng(seed)
        X = np.array([S.sample_point(rng, 0.7) for _ in range(5)]).T
        return X, S.sample_directions(rng, 5).T

    @BATCH_CONFIGS
    def test_curvature_equals_the_uncapped_route(self, config, monkeypatch):
        S = make_metric(config)
        X, Y = self.batch(S, 14)
        G = spray_jet_functions(S, X, Y, g_order=4)
        assert (G[0].space.lead, G[0].space.cap) == (S.dimension, 1)
        with pytest.raises(ValueError, match="outside jet space"):
            G[0].derivative((2,) + (0,) * (2 * S.dimension - 1))
        got = [_riemann_values(S, X, Y, via=via) for via in ("fast", "f2")] + list(_ricci_tensors(S, X, Y))
        assert uncapped_spray_jet_functions(S, X, Y, 4)[0].space.cap is None
        monkeypatch.setattr(curvature, "spray_jet_functions", uncapped_spray_jet_functions)
        want = [_riemann_values(S, X, Y, via=via) for via in ("fast", "f2")] + list(_ricci_tensors(S, X, Y))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @BATCH_CONFIGS
    def test_shared_base_points_equal_the_uncapped_route(self, config, monkeypatch):
        # the oracle takes x onto every column, so each column runs the whole spray uncapped
        S = make_metric(config)
        X, Y = self.batch(S, 17)
        columns = np.array([4, 4, 1, 0, 1, 3, 2, 4])
        Y = np.concatenate([Y, Y[:, :3]], axis=1)

        def outcomes():
            R = [_riemann_values(S, X, Y, via=via, columns=columns) for via in ("fast", "f2")]
            return [a.tobytes() for a in R + list(_ricci_tensors(S, X, Y, columns))]

        got = outcomes()
        monkeypatch.setattr(curvature, "spray_jet_functions", uncapped_spray_jet_functions)
        assert got == outcomes()

    @BATCH_CONFIGS
    def test_f2_spray_values_need_one_base_derivative_of_f2(self, config, monkeypatch):
        # G from F^2 reads F^2's first x-derivatives only: at g_order 0 the F^2
        # jets are order 2 with the base seeds capped at 1, and the values
        # keep the uncapped route's bits; higher orders keep cap 2
        S = make_metric(config)
        n = S.dimension
        X, Y = self.batch(S, 16)
        spaces = []
        f2 = S.f2

        def recording(x, y):
            spaces.append(y[0].space)
            return f2(x, y)

        monkeypatch.setattr(S, "f2", recording)
        for g_order in (0, 1, 2):
            got = spray_jet_functions(S, X, Y, g_order, via="f2")
            want = uncapped_spray_jet_functions(S, X, Y, g_order, via="f2")
            assert spaces[-2] is jet_space(2 * n, g_order + 2, n, min(g_order, 1) + 1)
            assert spaces[-1] is jet_space(2 * n, g_order + 2)
            for g, w in zip(got, want):
                assert [v.hex() for v in g.value] == [v.hex() for v in w.value]
        assert (spaces[0].lead, spaces[0].cap) == (n, 1)

    @BATCH_CONFIGS
    def test_jet_inverse_equals_division_per_entry(self, config, monkeypatch):
        S = make_metric(config)
        X, Y = self.batch(S, 15)
        seen = []

        def recording(M):
            seen.append(M)
            return invert_scalarlike_matrix(M)

        monkeypatch.setattr(geodesics, "invert_scalarlike_matrix", recording)
        monkeypatch.setattr(metrics, "invert_scalarlike_matrix", recording)
        for via in ("fast", "f2"):
            _riemann_values(S, X, Y, via=via)
        _ricci_tensors(S, X, Y)
        assert any(isinstance(m, Jet) for M in seen for row in M for m in row)
        for M in seen:
            got, want = invert_scalarlike_matrix(M), invert_by_division(M)
            for g, w in zip(sum(got, []), sum(want, [])):
                assert type(g) is type(w)
                assert np.asarray(getattr(g, "coef", g)).tobytes() == np.asarray(getattr(w, "coef", w)).tobytes()


@pytest.mark.parametrize(
    "config",
    [klein_config(2, scale=1e200), {**funk_config(3), "scale": 1e200}],
    ids=["klein2-1e200", "funk3-1e200"],
)
def test_overflowed_F2_raises(config):
    # the spray ignores the scale, F^2 overflows to inf: no curvature datum may use it
    S = make_metric(config)
    n = S.dimension
    x, y, u = [0.1] * n, [1.0] + [0.5] * (n - 1), [0.0] * (n - 1) + [1.0]
    calls = {
        "f2": lambda: _f2_values(S, np.array([x]).T, np.array([y]).T),
        "g": lambda: _fundamental_tensors(S, np.array([x]).T, np.array([y]).T),
        "flag": lambda: flag_curvature(S, x, y, u),
        "ricci": lambda: ricci_scalar(S, x, y),
        "shape": lambda: scalar_curvature_residual(S, x, y, -1.0),
        "einstein": lambda: einstein_classify(S, x_samples=2, y_directions=8),
    }
    for name, call in calls.items():
        with pytest.raises(EvaluationDomainError):
            call()
