import io
import math
import warnings

import numpy as np
import pytest

from finslerlab import (
    DomainExitError,
    EvaluationDomainError,
    SearchFailureError,
    finsler_distance,
    geodesic_ivp,
    make_metric,
    spray_coefficients,
    spray_jet_functions,
)
from finslerlab import geodesics

from conftest import (
    ball_point,
    curved_riemannian_config,
    euclid_config,
    exact_randers_config,
    nonclosed_randers_config,
)
from oracles import (
    euclidean_distance,
    exact_randers_distance,
    funk_distance_ball,
    interval_funk_closed,
    klein_distance,
    path_length,
)


def interval1_distance(p, q):
    """Closed-form Funk distance on the interval (k = 1) between 1-point arrays."""
    return interval_funk_closed(1.0, p[0], q[0])


def spray_via(S, x, y, via):
    """Spray values from spray_jet_functions on the given route."""
    return np.array([g.value for g in spray_jet_functions(S, x, y, 0, via=via)])


class TestSpray:
    def test_euclidean_spray_vanishes(self, euclid2):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = ball_point(rng, 2)
            y = rng.standard_normal(2)
            assert np.max(np.abs(spray_coefficients(euclid2, x, y))) <= 1e-12

    def test_two_homogeneity(self, klein2, funk2):
        rng = np.random.default_rng(2)
        for S in (klein2, funk2):
            for _ in range(25):
                x = S.sample_point(rng)
                y = S.sample_direction(rng)
                g1 = spray_coefficients(S, x, y)
                g2 = spray_coefficients(S, x, 2.0 * y)
                scale = max(1.0, float(np.max(np.abs(g2))))
                assert np.max(np.abs(g2 - 4.0 * g1)) <= 1e-9 * scale

    @pytest.mark.parametrize("name", ["klein2", "funk2", "funk3", "interval1", "randers", "curved"])
    def test_batch_is_bit_identical_to_columns(self, request, name):
        # funk2's batch has columns whose g^-1 swaps pivot rows and columns that do not
        if name == "randers":
            S = make_metric(nonclosed_randers_config())
        elif name == "curved":
            S = make_metric(curved_riemannian_config())
        else:
            S = request.getfixturevalue(name)
        n = S.dimension
        rng = np.random.default_rng(0)
        X = np.array([ball_point(rng, n, 0.9) for _ in range(40)]).T
        Y = rng.standard_normal((n, 40))
        want = np.array([spray_coefficients(S, X[:, b], Y[:, b]) for b in range(40)]).T
        got = spray_coefficients(S, X, Y)
        assert got.shape == (n, 40)
        assert np.array_equal(got, want)

    def test_klein_fast_path_agrees_with_jets(self, klein2):
        x = np.array([0.3, 0.0])
        y = np.array([1.0, 0.0])
        fast = spray_via(klein2, x, y, "fast")
        jet = spray_via(klein2, x, y, "f2")
        assert np.max(np.abs(fast - jet)) <= 1e-9

    def test_closed_form_is_the_default_route(self, klein2):
        x = np.array([0.3, 0.0])
        y = np.array([1.0, 0.0])
        default = np.array([g.value for g in spray_jet_functions(klein2, x, y, 0)])
        assert np.array_equal(default, spray_via(klein2, x, y, "fast"))
        for via in ("auto", "jet"):
            with pytest.raises(ValueError):
                spray_jet_functions(klein2, x, y, 0, via=via)

    def test_riemannian_christoffel_vs_jets(self):
        S = make_metric(curved_riemannian_config())
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = S.sample_point(rng)
            y = S.sample_direction(rng) * rng.uniform(0.5, 2.0)
            fast = spray_via(S, x, y, "fast")
            jet = spray_via(S, x, y, "f2")
            scale = max(1.0, float(np.max(np.abs(fast))))
            assert np.max(np.abs(fast - jet)) <= 1e-9 * scale

    @pytest.mark.parametrize(
        "config", [exact_randers_config(), nonclosed_randers_config()], ids=["exact", "nonclosed"]
    )
    def test_randers_closed_form_vs_jets(self, config):
        S = make_metric(config)
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = S.sample_point(rng)
            y = S.sample_direction(rng) * rng.uniform(0.5, 2.0)
            fast = spray_via(S, x, y, "fast")
            jet = spray_via(S, x, y, "f2")
            scale = max(1.0, float(np.max(np.abs(fast))))
            assert np.max(np.abs(fast - jet)) <= 1e-9 * scale

    @pytest.mark.parametrize("k", [1.0, 2.5])
    def test_interval_closed_form_vs_jets(self, k):
        S = make_metric({"family": "interval_funk", "dimension": 1, "k": k})
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = S.sample_point(rng)
            for sign in (1.0, -1.0):
                y = np.array([sign * rng.uniform(0.5, 2.0)])
                fast = spray_via(S, x, y, "fast")
                jet = spray_via(S, x, y, "f2")
                scale = max(1.0, float(np.max(np.abs(fast))))
                assert np.max(np.abs(fast - jet)) <= 1e-9 * scale

    @pytest.mark.parametrize(
        "config", [exact_randers_config(), nonclosed_randers_config()], ids=["exact", "nonclosed"]
    )
    def test_batched_randers_spray_jets_equal_columns(self, config):
        S = make_metric(config)
        rng = np.random.default_rng(15)
        X = np.array([S.sample_point(rng) for _ in range(7)]).T
        Y = np.array([S.sample_direction(rng) for _ in range(7)]).T
        batched = spray_jet_functions(S, X, Y, 2)
        for b in range(7):
            single = spray_jet_functions(S, X[:, b], Y[:, b], 2)
            for gb, gs in zip(batched, single):
                assert np.array_equal(gb.coef[:, b], gs.coef)


def numpy_scalar_rhs(S, backward=False):
    """The geodesic right-hand side with the spray on numpy scalars."""
    n = S.dimension

    def rhs(z):
        z = np.asarray(z)
        x, v = z[:n], z[n:]
        G = np.asarray([float(g) for g in S.spray_fast(x, v)])
        if backward:
            return np.concatenate((-v, 2.0 * G))
        return np.concatenate((v, -2.0 * G))

    return rhs


def assert_same_trajectory(a, b):
    for name in ("ts", "states", "derivs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFloatSprayPath:
    """The float spray path must reproduce the numpy-scalar route bit for bit."""

    @pytest.mark.parametrize(
        "name", ["klein2", "klein3", "funk2", "riemannian", "randers_nonclosed", "interval1"]
    )
    def test_spray_values_equal_numpy_scalar_route(self, request, name):
        if name == "riemannian":
            S = make_metric(curved_riemannian_config())
        elif name == "randers_nonclosed":
            S = make_metric(nonclosed_randers_config())
        else:
            S = request.getfixturevalue(name)
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = ball_point(rng, S.dimension, radius=0.9)
            y = rng.standard_normal(S.dimension)
            want = np.asarray([float(v) for v in S.spray_fast(x, y)])
            assert np.array_equal(np.array(S.spray_fast(x.tolist(), y.tolist())), want)

    def test_chord_shot_equals_numpy_scalar_rhs(self, klein2):
        p, q = np.array([-0.2, 0.3]), np.array([0.4, -0.1])
        v = geodesics._unit_against_F(klein2, p, q - p)
        s = 1.3
        shot = geodesics._shoot(klein2, p, v, s, 1e-10, [])
        ref = geodesics.integrate_ivp(
            numpy_scalar_rhs(klein2),
            np.concatenate((p, v)),
            (0.0, s),
            tolerance=1e-10,
        )
        assert_same_trajectory(shot, ref)

    def test_backward_geodesic_equals_numpy_scalar_rhs(self, funk2):
        x0, y0 = np.array([0.2, 0.1]), np.array([0.3, -1.0])
        geo = geodesic_ivp(funk2, x0, y0, -0.2)
        v0 = y0 / float(funk2.F(x0, y0))
        ref = geodesics.integrate_ivp(
            numpy_scalar_rhs(funk2, backward=True),
            np.concatenate((x0, v0)),
            (0.0, 0.2),
            tolerance=1e-10,
        )
        assert_same_trajectory(geo.trajectory, ref)


class TestGeodesicIvp:
    def test_euclidean_straight_line(self, euclid2):
        geo = geodesic_ivp(euclid2, [0.1, 0.2], [3.0, 4.0], 0.5)
        for s in np.linspace(0.0, 0.5, 6):
            want = np.array([0.1, 0.2]) + s * np.array([0.6, 0.8])
            assert np.max(np.abs(geo.x(s) - want)) <= 1e-10

    def test_klein_diameter_is_tanh(self, klein2):
        geo = geodesic_ivp(klein2, [0.0, 0.0], [1.0, 0.0], 2.0, tolerance=1e-11)
        # dense-output samples carry interpolation error on top of the
        # integrator tolerance; accepted nodes are sharper
        for s in np.linspace(0.0, 2.0, 9):
            x = geo.x(s)
            assert abs(x[1]) <= 1e-12
            assert abs(x[0] - math.tanh(s)) <= 1e-8
        for s, state in zip(geo.trajectory.ts, geo.trajectory.states):
            assert abs(state[0] - math.tanh(s)) <= 1e-9

    def test_funk_radial_exponential_approach(self, funk2):
        geo = geodesic_ivp(funk2, [0.0, 0.0], [1.0, 0.0], 1.5, tolerance=1e-11)
        for s in np.linspace(0.0, 1.5, 7):
            assert abs(geo.x(s)[0] - (1.0 - math.exp(-s))) <= 1e-9

    def test_funk_backward_exit(self, funk2):
        with pytest.raises(DomainExitError) as info:
            geodesic_ivp(funk2, [0.0, 0.0], [1.0, 0.0], -1.0)
        assert info.value.t_exit == pytest.approx(-math.log(2.0), abs=1e-8)

    def test_unit_speed_drift(self, klein2, funk2):
        for S in (klein2, funk2):
            for tol in (1e-8, 1e-10):
                geo = geodesic_ivp(S, [0.1, -0.3], [0.5, 1.0], 1.5, tolerance=tol)
                assert geo.unit_speed_residual() <= 10.0 * tol

    def test_geodesic_equation_residual_resampled(self, klein2):
        geo = geodesic_ivp(klein2, [0.1, -0.2], [0.7, 0.4], 1.2, tolerance=1e-11)
        n = 2

        def vfun(s):
            return geo.state(s)[n:]

        h = 0.02
        for s in np.linspace(0.1, 1.1, 21):
            d1 = (vfun(s + h) - vfun(s - h)) / (2.0 * h)
            d2 = (vfun(s + h / 2.0) - vfun(s - h / 2.0)) / h
            dv = (4.0 * d2 - d1) / 3.0
            resid = dv + 2.0 * np.array(klein2.spray_fast(geo.x(s).tolist(), geo.v(s).tolist()))
            assert np.max(np.abs(resid)) <= 1e-6

    def test_csv_export_columns(self, klein2):
        geo = geodesic_ivp(klein2, [0.0, 0.0], [1.0, 0.0], 0.5)
        buf = io.StringIO()
        geo.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "s,x1,x2,y1,y2,F_residual"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert abs(first[-1]) <= 1e-9

    def test_resample_csv_step(self, klein2):
        geo = geodesic_ivp(klein2, [0.0, 0.0], [1.0, 0.0], 1.0, tolerance=1e-11)
        buf = io.StringIO()
        geo.resample_csv(buf, step=0.25)
        rows = buf.getvalue().strip().splitlines()[1:]
        svals = [float(r.split(",")[0]) for r in rows]
        assert svals == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        for step in (0.0, -0.25, 8e-7, 1e-300, 5e-324):
            with pytest.raises(ValueError):
                geo.resample_csv(io.StringIO(), step=step)


class TestPathLength:
    @pytest.mark.parametrize(
        "ball, x0, y0, length",
        [("klein2", [0.1, -0.2], [1.0, 0.3], 1.2), ("funk2", [0.2, 0.1], [0.3, -1.0], -0.2)],
        ids=["klein2-forward", "funk2-backward"],
    )
    def test_unit_speed_geodesic_length(self, request, ball, x0, y0, length):
        S = request.getfixturevalue(ball)
        geo = geodesic_ivp(S, x0, y0, length)
        assert path_length(S, geo) == pytest.approx(abs(length), abs=1e-8)

    def test_euclidean_segment(self, euclid2):
        pts = np.stack([np.array([-0.6, 0.0]), np.array([0.6, 0.0]), np.array([0.6, 0.8])])
        # two straight legs of lengths 1.2 and 0.8 traced through a midpoint grid
        leg1 = np.linspace([-0.6, 0.0], [0.6, 0.0], 9)
        assert path_length(euclid2, leg1, interpolation="linear") == pytest.approx(
            1.2, abs=1e-10
        )

    def test_reparameterization_invariance(self, klein2):
        t_uniform = np.linspace(0.0, 1.0, 33)
        t_warped = t_uniform**2
        pts_uniform = np.stack([0.5 * t_uniform, 0.2 * t_uniform])
        path_a = path_length(klein2, pts_uniform.T, params=t_uniform, interpolation="cubic")
        pts_warped = np.stack([0.5 * t_warped, 0.2 * t_warped])
        path_b = path_length(klein2, pts_warped.T, params=t_uniform, interpolation="cubic")
        assert path_a == pytest.approx(path_b, abs=1e-8)

    def test_klein_diameter_matches_cross_ratio(self, klein2):
        pts = np.stack([np.linspace(0.0, 0.5, 17), np.zeros(17)]).T
        want = math.atanh(0.5)
        assert path_length(klein2, pts, interpolation="linear") == pytest.approx(
            want, abs=1e-9
        )


class TestDistance:
    def test_trivial_pair(self, klein2):
        res = finsler_distance(klein2, [0.2, 0.1], [0.2, 0.1])
        assert res.distance == 0.0
        assert res.geodesic is None

    def test_klein_radial_spot(self, klein2):
        res = finsler_distance(klein2, [0.0, 0.0], [0.5, 0.0])
        assert res.distance == pytest.approx(math.atanh(0.5), abs=1e-9)

    def test_funk_radial_both_orders(self, funk2):
        fwd = finsler_distance(funk2, [0.0, 0.0], [0.5, 0.0])
        rev = finsler_distance(funk2, [0.5, 0.0], [0.0, 0.0])
        assert fwd.distance == pytest.approx(math.log(2.0), abs=1e-9)
        assert rev.distance == pytest.approx(math.log(1.5), abs=1e-9)

    def test_klein_random_pairs_vs_cross_ratio(self, klein2):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = ball_point(rng, 2)
            q = ball_point(rng, 2)
            if np.linalg.norm(q - p) < 0.05:
                continue
            res = finsler_distance(klein2, p, q)
            assert res.distance == pytest.approx(klein_distance(p, q), abs=1e-8)

    def test_funk_random_pairs_vs_boundary_hit(self, funk2):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = ball_point(rng, 2)
            q = ball_point(rng, 2)
            if np.linalg.norm(q - p) < 0.05:
                continue
            res = finsler_distance(funk2, p, q)
            assert res.distance == pytest.approx(funk_distance_ball(p, q), abs=1e-8)

    def test_klein3_spot(self, klein3):
        p = np.array([0.1, -0.2, 0.05])
        q = np.array([-0.3, 0.25, 0.2])
        res = finsler_distance(klein3, p, q)
        assert res.distance == pytest.approx(klein_distance(p, q), abs=1e-7)

    def test_realizing_geodesic_consistency(self, klein2):
        p = np.array([0.15, -0.1])
        q = np.array([-0.3, 0.35])
        res = finsler_distance(klein2, p, q)
        geo = res.geodesic
        assert geo.length == pytest.approx(res.distance, abs=0.0)
        assert np.max(np.abs(geo.x(0.0) - p)) <= 1e-10
        assert np.max(np.abs(geo.x(res.distance) - q)) <= 1e-6
        grid = np.linspace(0.0, res.distance, 65)
        pts = np.stack([geo.x(s) for s in grid])
        assert path_length(klein2, pts, params=grid) == pytest.approx(
            res.distance, abs=1e-8
        )

    def test_triangle_inequality_sampled(self, klein2, funk2):
        rng = np.random.default_rng(6)
        for S in (klein2, funk2):
            for _ in range(50):
                p = ball_point(rng, 2, radius=0.6)
                q = ball_point(rng, 2, radius=0.6)
                r = ball_point(rng, 2, radius=0.6)
                if min(np.linalg.norm(q - p), np.linalg.norm(r - q), np.linalg.norm(r - p)) < 0.05:
                    continue
                d_pr = finsler_distance(S, p, r).distance
                d_pq = finsler_distance(S, p, q).distance
                d_qr = finsler_distance(S, q, r).distance
                assert d_pr <= d_pq + d_qr + 1e-6

    def test_minimality_against_polygonal_competitors(self, klein2):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = ball_point(rng, 2, radius=0.6)
            q = ball_point(rng, 2, radius=0.6)
            if np.linalg.norm(q - p) < 0.1:
                continue
            best = finsler_distance(klein2, p, q).distance
            for _ in range(20):
                mid = 0.5 * (p + q) + rng.uniform(-0.15, 0.15, size=2)
                if float(mid @ mid) >= 0.9:
                    continue
                t = np.array([0.0, 0.5, 1.0])
                pts = np.stack([p, mid, q])
                competitor = path_length(klein2, pts, params=t, interpolation="linear")
                assert best <= competitor + 1e-9

    def test_interval_funk_distance(self, interval1):
        fwd = finsler_distance(interval1, [0.0], [0.5])
        rev = finsler_distance(interval1, [0.5], [0.0])
        assert fwd.distance == pytest.approx(interval_funk_closed(1.0, 0.0, 0.5), abs=5e-9)
        assert rev.distance == pytest.approx(interval_funk_closed(1.0, 0.5, 0.0), abs=5e-9)

    @pytest.mark.parametrize(
        "ball, oracle",
        [
            ("klein2", klein_distance),
            ("klein3", klein_distance),
            ("funk2", funk_distance_ball),
            ("interval1", interval1_distance),
        ],
    )
    def test_ball_distances_take_the_chord_path(self, request, ball, oracle):
        S = request.getfixturevalue(ball)
        rng = np.random.default_rng(8)
        for _ in range(4):
            p = ball_point(rng, S.dimension)
            q = ball_point(rng, S.dimension)
            res = finsler_distance(S, p, q)
            assert res.diagnostics["path"] == "chord"
            assert res.diagnostics["shots"] == 1
            assert res.distance == pytest.approx(oracle(p, q), abs=1e-12)

    @pytest.mark.parametrize(
        "ball, p, q, oracle",
        [
            ("klein2", [0.9999, 0.0], [0.0, 0.5], klein_distance),
            ("klein2", [0.707106781, 0.707106781], [-0.707106781, -0.707106781], klein_distance),
            ("funk2", [0.0, 0.999999999], [0.999999999, 0.0], funk_distance_ball),
            ("interval1", [0.999999999], [-0.999999999], interval1_distance),
        ],
        ids=["klein2-1e-4", "klein2-antipode", "funk2-1e-9", "interval1-1e-9"],
    )
    def test_endpoints_near_the_sphere_resolve(self, request, ball, p, q, oracle):
        # Geodesics of these complete metrics never reach the sphere, so an
        # RK stage that overshoots it must shrink the step, not end the shot.
        S = request.getfixturevalue(ball)
        res = finsler_distance(S, p, q)
        assert res.distance == pytest.approx(oracle(p, q), rel=1e-6)

    def test_returned_geodesic_ends_at_q(self, klein2):
        # The hit shot is the geodesic on both paths: no re-integration
        # moves its endpoint off the miss the search certified.
        S = make_metric(curved_riemannian_config())
        for T, path in ((klein2, "chord"), (S, "fan")):
            p, q = np.array([-0.2, 0.3]), np.array([0.4, -0.1])
            res = finsler_distance(T, p, q)
            assert res.diagnostics["path"] == path
            assert res.geodesic.length == res.distance
            assert np.max(np.abs(res.geodesic.x(0.0) - p)) == 0.0
            miss = float(np.max(np.abs(res.geodesic.x(res.distance) - q)))
            assert miss == res.diagnostics["miss"] <= geodesics.MISS_TOLERANCE

    def test_chord_length_quadrature_warnings_stay_silent(self, klein2, monkeypatch):
        # Near the boundary the chord-length quadrature ends on roundoff,
        # where quad would warn; the shot's miss certifies that length, so
        # no warning may escape.  Every shot leaves the chart here, so the
        # search fails at once.
        monkeypatch.setattr(geodesics, "_shoot", lambda *args, **kwargs: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SearchFailureError):
                finsler_distance(klein2, [0.999999999, 0.0], [-0.7, 0.7])

    @pytest.mark.parametrize("family", ["klein2", "funk2", "interval1", "riemannian", "randers"])
    def test_chord_length_matches_the_polyline_oracle_bit_for_bit(self, request, family):
        # The chord length starts the search on every family; it must be the
        # oracle's two-point linear path length to the last bit.
        configs = {"riemannian": curved_riemannian_config, "randers": nonclosed_randers_config}
        S = make_metric(configs[family]()) if family in configs else request.getfixturevalue(family)
        rng = np.random.default_rng(12)
        for _ in range(50):
            p, q = ball_point(rng, S.dimension), ball_point(rng, S.dimension)
            want = path_length(S, np.stack([p, q]), interpolation="linear")
            assert geodesics._chord_length(S, p, q).hex() == want.hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_chord_integrand_matches_the_zip_form_bit_for_bit(self, n):
        # the written-out integrand builds each node's point as the list
        # comprehension over zip(a, d) does, signed zeros included, and hands
        # F the direction list itself
        rng = np.random.default_rng(n)
        seen = []

        def F(x, d):
            seen.append((x, d))
            return 0.5

        for _ in range(10):
            a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
            d = rng.uniform(-1.0, 1.0, n)
            a[::3], d[1::3] = -0.0, rng.choice([0.0, -0.0])
            a, d = a.tolist(), d.tolist()
            integrand = geodesics._chord_integrand(n)(F, a, d)
            for t in (0.0, -0.0, 1.0, 0.5, 1e-300, *rng.uniform(0.0, 1.0, 5).tolist()):
                assert integrand(t) == 0.5
                x, given = seen.pop()
                assert given is d and type(x) is list
                assert [v.hex() for v in x] == [(ai + t * di).hex() for ai, di in zip(a, d)]

    def test_both_paths_count_every_integration(self, klein2, monkeypatch):
        # Wrappers installed on the module's integrate_ivp and on the
        # structure's geodesic_field, as a tracer installs them, must see
        # every shot and every right-hand-side evaluation the diagnostics
        # report.
        calls = {"integrate": 0, "spray": 0}

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        integrate = counting("integrate", geodesics.integrate_ivp)
        monkeypatch.setattr(geodesics, "integrate_ivp", integrate)
        S = make_metric(curved_riemannian_config())
        for T, path in ((klein2, "chord"), (S, "fan")):
            monkeypatch.setattr(T, "geodesic_field", counting("spray", T.geodesic_field))
            calls.update(integrate=0, spray=0)
            res = finsler_distance(T, [-0.2, 0.3], [0.4, -0.1])
            assert res.diagnostics["path"] == path
            assert res.diagnostics["shots"] == calls["integrate"]
            assert res.diagnostics["rhs_calls"] == calls["spray"]
            assert res.diagnostics["rhs_calls"] > 6 * res.diagnostics["shots"]

    def test_readme_pair_counts(self):
        # 5 of the 38 fan shots leave the chart; they spend all 126 rejected
        # steps and 1,781 of the rhs calls.  The count includes the dense
        # output stages the closest-approach searches make.
        res = finsler_distance(make_metric(curved_riemannian_config()), [-0.2, 0.3], [0.4, -0.1])
        assert res.distance == 0.7241241477393268
        diag = res.diagnostics
        assert (diag["shots"], diag["steps_rejected"], diag["rhs_calls"]) == (38, 126, 3056)

    @pytest.mark.parametrize(
        "ball, p, q, rhs_calls",
        [
            ("klein2", [-0.2, 0.3], [0.4, -0.1], 85),
            ("funk2", [-0.2, 0.3], [0.4, -0.1], 50),
            ("klein3", [0.1, -0.2, 0.3], [-0.3, 0.2, 0.1], 62),
        ],
        ids=["klein2", "funk2", "klein3"],
    )
    def test_ball_pair_counts(self, request, ball, p, q, rhs_calls):
        # One chord shot of a few eighth-order steps: 145, 121 and 115 rhs
        # calls with the Dormand-Prince 5(4) pair these replaced.
        res = finsler_distance(request.getfixturevalue(ball), p, q)
        assert (res.diagnostics["shots"], res.diagnostics["rhs_calls"]) == (1, rhs_calls)

    def test_near_boundary_search_failure_reports_its_context(self, klein2):
        # From 1e-9 off the sphere no polished shot reaches q (the distance
        # is finite, see the cross-ratio); the search must still end in
        # SearchFailureError with its best miss and shot count, also where
        # a dense-output stage of a shot near the sphere is off the chart.
        with pytest.raises(SearchFailureError, match=r"best miss \S+, \d+ shots tried") as err:
            finsler_distance(klein2, [0.999999999, 0.0], [-0.7, 0.7])
        # the endpoints print as floats, not as numpy's rounded arrays
        assert "from [0.999999999, 0.0] to [-0.7, 0.7]" in str(err.value)

    @pytest.mark.parametrize(
        "config, oracle",
        [
            (euclid_config(2), euclidean_distance),
            (euclid_config(3), euclidean_distance),
            (exact_randers_config(), exact_randers_distance),
        ],
        ids=["euclid2", "euclid3", "randers_exact"],
    )
    def test_fan_distances_match_closed_forms(self, config, oracle):
        S = make_metric(config)
        rng = np.random.default_rng(9)
        for _ in range(3):
            p = ball_point(rng, S.dimension, radius=0.6)
            q = ball_point(rng, S.dimension, radius=0.6)
            res = finsler_distance(S, p, q)
            assert res.diagnostics["path"] == "fan"
            assert res.diagnostics["shots"] <= 60
            assert res.distance == pytest.approx(oracle(p, q), abs=1e-8)

    def test_unreachable_tolerance_raises_search_failure(self, klein2, monkeypatch):
        # Every polish reports a miss of 1e-3, so no candidate meets the
        # default tolerance: klein2 fails the chord polish and then the fan,
        # the curved Riemannian metric fails the fan alone.
        polish = geodesics._newton_polish

        def always_misses(*args, **kwargs):
            out = polish(*args, **kwargs)
            return None if out is None else (out[0], 1e-3, out[2], out[3])

        monkeypatch.setattr(geodesics, "_newton_polish", always_misses)
        for S in (klein2, make_metric(curved_riemannian_config())):
            with pytest.raises(SearchFailureError, match=r"best miss 1\.000e-03, \d+ shots tried"):
                finsler_distance(S, [0.0, 0.0], [0.4, 0.1])

    def test_a_missed_chord_polish_falls_back_to_the_fan(self, klein2, monkeypatch):
        # The chord polish reports a miss, so the fan runs on a structure with
        # unique geodesics: it stops at its first hit, and the diagnostics
        # count the chord polish among the candidates polished.
        p, q = [-0.2, 0.3], [0.4, -0.1]
        chord = finsler_distance(klein2, p, q)
        polish = geodesics._newton_polish
        calls = []

        def first_misses(*args, **kwargs):
            calls.append(1)
            out = polish(*args, **kwargs)
            return (out[0], 1.0, out[2], out[3]) if len(calls) == 1 else out

        monkeypatch.setattr(geodesics, "_newton_polish", first_misses)
        res = finsler_distance(klein2, p, q)
        diag = res.diagnostics
        assert len(calls) == 2
        assert (diag["path"], diag["starts"], diag["candidates_polished"], diag["shots"]) == ("fan", 13, 2, 17)
        assert diag["miss"] <= geodesics.MISS_TOLERANCE
        assert res.distance == pytest.approx(chord.distance, rel=1e-10)

    def test_endpoints_of_different_lengths_are_refused(self, klein2):
        with pytest.raises(ValueError, match="endpoints of different lengths 2 and 3"):
            finsler_distance(klein2, [0.0, 0.0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("p, q", [([1.5, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, 1.5])], ids=["from", "to"])
    def test_an_endpoint_off_the_chart_is_refused(self, klein2, p, q):
        with pytest.raises(EvaluationDomainError, match="endpoints must lie inside the chart"):
            finsler_distance(klein2, p, q)

    def test_failed_probe_returns_the_start(self, klein2, monkeypatch):
        # Every shot after the start leaves the chart, so the first Jacobian
        # probe fails; the polish keeps the start instead of discarding it.
        shoot = geodesics._shoot
        calls = []

        def exits_after_first(*args, **kwargs):
            calls.append(1)
            return shoot(*args, **kwargs) if len(calls) == 1 else None

        p, q, s0 = np.array([0.0, 0.0]), np.array([0.4, 0.1]), 0.3
        d0 = geodesics._unit_against_F(klein2, p, np.array([1.0, 0.5]))
        offset = geodesics._direction_basis(2, d0) @ np.zeros(1)
        v0 = geodesics._unit_against_F(klein2, p, d0 + offset)
        tol = geodesics.INTEGRATION_TOLERANCE
        traj = shoot(klein2, p, v0, s0, tol, [])
        start_miss = float(np.max(np.abs(traj(s0)[:2] - q)))

        monkeypatch.setattr(geodesics, "_shoot", exits_after_first)
        out = geodesics._newton_polish(klein2, p, d0, s0, q, [])
        assert out is not None and len(out) == 4
        s, miss, iters, start = out
        assert len(calls) == 2
        assert start.states[0][2:].tobytes() == np.array(v0).tobytes() and s == s0 and iters == 0
        assert miss == start_miss > 1e-3
