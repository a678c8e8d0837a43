import math

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients

from finslerlab import (
    DomainExitError,
    EvaluationDomainError,
    StiffnessError,
    integrate_ivp,
)
from finslerlab import geodesics, ode

from oracles import dop853_dense, dop853_step, row_fold


class TestIntegrateIvp:
    def test_exponential_endpoint(self):
        traj = integrate_ivp(lambda y: y, np.array([1.0]), (0.0, 1.0), tolerance=1e-10)
        assert traj(1.0)[0] == pytest.approx(math.e, abs=1e-8)

    def test_zero_field_constant(self):
        traj = integrate_ivp(
            lambda y: np.zeros_like(y), np.array([0.3, -0.7]), (0.0, 5.0)
        )
        for t in np.linspace(0.0, 5.0, 11):
            assert np.allclose(traj(t), [0.3, -0.7], atol=0.0)

    def test_harmonic_oscillator_period(self):
        def rhs(y):
            return np.array([y[1], -y[0]])

        y0 = np.array([1.0, 0.0])
        traj = integrate_ivp(rhs, y0, (0.0, 2.0 * math.pi), tolerance=1e-10)
        assert np.max(np.abs(traj(2.0 * math.pi) - y0)) <= 1e-6

    def test_global_error_scales_with_tolerance(self):
        for tol in (1e-6, 1e-8, 1e-10):
            traj = integrate_ivp(lambda y: y, np.array([1.0]), (0.0, 1.0), tolerance=tol)
            assert abs(traj(1.0)[0] - math.e) <= 100.0 * tol

    def test_samples_strictly_increasing(self):
        traj = integrate_ivp(
            lambda y: np.array([math.cos(y[0]) + 2.0]), np.array([0.0]), (0.0, 3.0)
        )
        assert np.all(np.diff(traj.ts) > 0.0)
        assert traj.states.shape[1] == 1

    def test_dense_output_between_nodes(self):
        # DOP853's seventh-order interpolant: the worst midpoint error on
        # y' = y reads 3.2e-10, where the cubic Hermite interpolant of the
        # same four steps reads 7.6e-5
        traj = integrate_ivp(lambda y: y, np.array([1.0]), (0.0, 1.0), tolerance=1e-10)
        mids = 0.5 * (traj.ts[:-1] + traj.ts[1:])
        worst = max(abs(traj(t)[0] - math.exp(t)) for t in mids)
        assert worst <= 1e-9

    def test_domain_exit_locates_boundary(self):
        # unit-speed growth leaves {y < 1} exactly at t = 1
        def rhs(y):
            if y[0] >= 1.0:
                raise EvaluationDomainError("y >= 1")
            return np.array([1.0])

        with pytest.raises(DomainExitError) as info:
            integrate_ivp(rhs, np.array([0.0]), (0.0, 5.0))
        err = info.value
        assert err.t_exit == pytest.approx(1.0, abs=1e-9)
        assert err.state[0] <= 1.0
        assert err.state[0] == pytest.approx(1.0, abs=1e-9)

    def test_stage_outside_domain_shrinks_the_step(self):
        # y' = 1 - y creeps up to the boundary y = 1 without reaching it;
        # stages that overshoot it must shrink the step, not end the run
        def rhs(y):
            if y[0] >= 1.0:
                raise EvaluationDomainError("y >= 1")
            return [1.0 - y[0]]

        try:
            traj = integrate_ivp(rhs, np.array([0.0]), (0.0, 40.0))
        except DomainExitError as exc:
            assert exc.t_exit <= 40.0
            raise
        assert traj.t1 == pytest.approx(40.0, abs=1e-12)
        assert traj(40.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert traj(10.0)[0] == pytest.approx(1.0 - math.exp(-10.0), abs=1e-8)

    def test_initial_state_outside_domain_rejected(self):
        # the right-hand side's refusal of the start is the caller's error
        def rhs(y):
            if y[0] >= 1.0:
                raise EvaluationDomainError("y >= 1")
            return y

        with pytest.raises(EvaluationDomainError):
            integrate_ivp(rhs, np.array([2.0]), (0.0, 1.0))

    def test_finite_time_blowup_raises_stiffness(self):
        with pytest.raises(StiffnessError):
            integrate_ivp(lambda y: [y[0] * y[0]], np.array([1.0]), (0.0, 2.0), tolerance=1e-10)

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            integrate_ivp(lambda y: y, np.array([1.0]), (1.0, 0.0))

    @pytest.mark.parametrize("t1", [math.inf, math.nan])
    def test_non_finite_span_rejected(self, t1):
        with pytest.raises(ValueError, match="finite"):
            integrate_ivp(lambda y: y, np.array([1.0]), (0.0, t1))

    @pytest.mark.parametrize("tolerance", [0.0, -1e-10, math.inf, math.nan])
    def test_bad_tolerance_rejected(self, tolerance, klein2):
        # nan read as a step-size underflow, inf as no error control at all
        with pytest.raises(ValueError, match="tolerance"):
            integrate_ivp(lambda y: y, np.array([1.0]), (0.0, 1.0), tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            geodesics.geodesic_ivp(klein2, [0.1, 0.2], [1.0, 0.0], 1.5, tolerance=tolerance)


class TestStoredNodes:
    """Accepted nodes must be exactly what the right-hand side gives there."""

    @staticmethod
    def relax(buf):
        # y' = 1 - y, written into one reused buffer
        def rhs(y):
            buf[:] = [1.0 - yi for yi in y]
            return buf

        return rhs

    @staticmethod
    def assert_fsal_nodes(rhs, traj):
        # derivs[i] == rhs(states[i]) fails if y_new ever differs from the
        # last stage's input, or if a stored node aliases a reused buffer
        for state, deriv in zip(traj.states, traj.derivs):
            assert np.array_equal(np.array(rhs(state.tolist())), deriv)

    def test_klein_shot_stores_its_last_stage(self, klein2):
        p = np.array([0.1, -0.3])
        v = geodesics._unit_against_F(klein2, p, np.array([0.8, 0.5]))
        traj = geodesics._integrate_shot(klein2, p, v, 1.5, 1e-10, geodesics._ShotTally())
        assert len(traj.ts) > 5
        self.assert_fsal_nodes(geodesics._geodesic_rhs(klein2), traj)

    @pytest.mark.parametrize("y0", [0.0, 0.999])
    def test_reused_buffer_rhs_stores_its_last_stage(self, y0):
        rhs = self.relax([0.0])
        traj = integrate_ivp(rhs, np.array([y0]), (0.0, 5.0), tolerance=1e-10)
        self.assert_fsal_nodes(self.relax([0.0]), traj)

    def test_reused_buffer_rhs_gives_the_fresh_array_trajectory(self):
        # y' = sin(y) + 1.5 has rejected steps, and a rejected attempt is
        # retried from the same node, whose derivative is its first stage
        # again: that must not be the buffer the rejected attempt's stages
        # overwrote.
        def wave(buf):
            def rhs(y):
                buf[:] = [math.sin(yi) + 1.5 for yi in y]
                return buf

            return rhs

        y0, span = np.array([0.0]), (0.0, 5.0)
        fresh = integrate_ivp(lambda y: [math.sin(y[0]) + 1.5], y0, span, tolerance=1e-10)
        reused = integrate_ivp(wave([0.0]), y0, span, tolerance=1e-10)
        assert fresh.steps_rejected > 0
        for name in ("ts", "states", "derivs", "steps"):
            assert np.array_equal(getattr(fresh, name), getattr(reused, name))
        mids = 0.5 * (fresh.ts[:-1] + fresh.ts[1:])
        assert np.array_equal(fresh(mids), reused(mids))


class TestWorkCounts:
    @staticmethod
    def counted(rhs, calls):
        def wrapped(y):
            calls.append(1)
            return rhs(y)

        return wrapped

    def test_counts_match_the_calls_made(self):
        # one initial call and one starting-step probe; 11 stages per
        # attempt and the FSAL stage for each accepted one; 3 more per step
        # on the interpolant's first use there, and none on later uses
        calls = []
        traj = integrate_ivp(
            self.counted(lambda y: [math.sin(y[0]) + 1.5], calls), np.array([0.0]), (0.0, 5.0),
            tolerance=1e-10,
        )
        accepted, rejected = len(traj.steps), traj.steps_rejected
        assert rejected > 0
        assert traj.rhs_calls == len(calls) == 2 + 11 * (accepted + rejected) + accepted
        mids = 0.5 * (traj.ts[:-1] + traj.ts[1:])
        traj(mids[:3])
        traj(mids)
        traj(traj.ts)  # nodes need no interpolant
        assert traj.rhs_calls == len(calls) == 2 + 11 * (accepted + rejected) + 4 * accepted

    def test_domain_exit_trajectory_carries_the_counts(self):
        calls = []

        def rhs(y):
            if y[0] >= 1.0:
                raise EvaluationDomainError("y >= 1")
            return np.array([1.0])

        with pytest.raises(DomainExitError) as info:
            integrate_ivp(self.counted(rhs, calls), np.array([0.0]), (0.0, 5.0))
        traj = info.value.trajectory
        assert traj.steps_rejected > 0
        assert traj.rhs_calls == len(calls)


def coupled(z):
    """A nonlinear right-hand side that reads its state by index only."""
    m = len(z)
    return [math.sin(z[(i + 1) % m]) - 0.5 * z[i] * z[i - 1] + 0.3 for i in range(m)]


class TestFloatStep:
    """The list step against the ndarray reference step of tests/oracles.py."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_list_step_matches_the_array_step(self, n):
        # The two differ only in the order of the stage sums, so the stages
        # and y_new agree to rounding, and the error norm to rounding of the
        # terms it cancels.
        rng = np.random.default_rng(40 + n)
        for _ in range(40):
            y = rng.uniform(-2.0, 2.0, n)
            h = 10.0 ** rng.uniform(-3.0, -0.3)
            tol = 10.0 ** rng.uniform(-12.0, -6.0)
            f = coupled(y.tolist())
            calls, y_new, f_new, err, stages = ode._step(coupled, y.tolist(), f, h, tol)
            K, ref_y, ref_err, err_scale = dop853_step(
                lambda z: np.array(coupled(z.tolist())), y, np.array(f), h, tol
            )
            assert isinstance(y_new, list) and all(isinstance(k, list) for k in stages)
            k_scale = max(1.0, float(np.max(np.abs(K))))
            assert np.max(np.abs(np.array(stages) - K[:12])) <= 1e-13 * k_scale
            y_scale = max(1.0, float(np.max(np.abs(ref_y))))
            assert np.max(np.abs(np.array(y_new) - ref_y)) <= 1e-14 * y_scale
            assert abs(err - ref_err) <= 1e-14 * err_scale
            if err <= 1.0:
                assert calls == 12 and isinstance(f_new, list)
                assert np.array_equal(np.array(f_new), np.array(coupled(y_new)))
            else:
                assert calls == 11 and f_new is None

    def test_rhs_receives_lists(self):
        # no ndarray round trip per stage: every state handed out is a list
        seen = []

        def rhs(y):
            seen.append(type(y))
            return [1.0 - yi for yi in y]

        integrate_ivp(rhs, np.array([0.5, -0.5]), (0.0, 1.0))
        assert len(seen) > 10 and set(seen) == {list}


def harmonic(y):
    return [y[1], -y[0]]


class TestTableau:
    """The tableau rows built from scipy's DOP853 coefficients."""

    C = dop853_coefficients.C
    EXTENDED = dop853_coefficients.N_STAGES_EXTENDED

    def rows(self):
        """(row, its weights in scipy's tableau) for every row the library builds."""
        dop = dop853_coefficients
        stages = [dop.A[s, :s] for s in (*range(1, 12), *range(13, self.EXTENDED))]
        built = ode._STAGES + ode._EXTRA_STAGES + (ode._SOLUTION, ode._ERROR5, ode._ERROR3)
        return list(zip(built + ode._DENSE, stages + [dop.B, dop.E5, dop.E3, *dop.D], strict=True))

    def weights(self, row):
        # stage j is the unit vector e_j, so entry j of the row is its weight
        m = self.EXTENDED
        return np.array(row([0.0] * m, 1.0, np.eye(m).tolist()))

    def test_order_conditions(self):
        # row sums equal the nodes c_s, for the extra stages too; the
        # solution weights integrate c^k exactly for k <= 7; the error
        # estimates vanish on constants
        rows = ode._STAGES + (None,) + ode._EXTRA_STAGES
        for s, row in enumerate(rows, start=1):
            if row is not None:
                w = self.weights(row)
                assert not w[s:].any()
                assert math.fsum(w) == pytest.approx(self.C[s], abs=1e-14)
        b = self.weights(ode._SOLUTION)
        c = self.C[:12]
        assert not b[12:].any()
        b = b[:12]
        assert math.fsum(b) == pytest.approx(1.0, abs=1e-14)
        for k in range(1, 8):
            assert math.fsum(b * c**k) == pytest.approx(1.0 / (k + 1), abs=1e-14)
        for row in (ode._ERROR5, ode._ERROR3):
            w = self.weights(row)
            assert abs(math.fsum(w)) <= 1e-14
            assert not w[12:].any()  # no weight on the FSAL stage

    def test_rows_match_the_left_to_right_fold(self):
        # bit for bit, signed zeros included: the last columns hold y = -0.0
        # and stages of +-0.0, whose sums keep or lose the sign of the zero
        rng = np.random.default_rng(18)
        m, n = self.EXTENDED, 6
        for _ in range(20):
            y = rng.uniform(-2.0, 2.0, n)
            k = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
            y[-3:] = -0.0
            k[:, -3:] = rng.choice([0.0, -0.0], size=(m, 3))
            h = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-3.0, 0.0))
            y, k = y.tolist(), k.tolist()
            for row, weights in self.rows():
                got = row(y, h, k)
                want = row_fold(weights, y, k, h)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_one_step_error_is_ninth_order(self):
        # the local error of an eighth-order step is O(h^9): halving h
        # divides it by about 2^9 = 512 (measured 527, 473, 505)
        errors = []
        for h in (1.6, 0.8, 0.4, 0.2):
            _, y_new, _, _, _ = ode._step(harmonic, [0.0, 1.0], [1.0, 0.0], h, 1e-6)
            errors.append(max(abs(y_new[0] - math.sin(h)), abs(y_new[1] - math.cos(h))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 0.8 * 512 <= coarse / fine <= 1.25 * 512


class TestDenseOutput:
    def test_nodes_are_exact(self):
        traj = integrate_ivp(harmonic, np.array([0.0, 1.0]), (0.0, 3.0), tolerance=1e-10)
        assert np.array_equal(traj(traj.ts), traj.states)

    def test_interpolant_matches_the_array_interpolant(self):
        def rhs(y):
            return [math.sin(y[1]), -0.5 * y[0] * y[1] + 0.3]

        traj = integrate_ivp(rhs, np.array([0.4, -0.2]), (0.0, 2.0), tolerance=1e-10)
        assert len(traj.steps) >= 3

        def array_rhs(z):
            return np.array(rhs(z.tolist()))

        for i, h in enumerate(traj.steps):
            y = traj.states[i]
            K, y_new, _, _ = dop853_step(array_rhs, y, traj.derivs[i], h, traj.tolerance)
            for x in (0.1, 0.5, 0.9):
                want = dop853_dense(array_rhs, y, K, y_new, h, x)
                got = traj(traj.ts[i] + x * h)
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_refused_extra_stage_keeps_the_cubic(self):
        # The chart shrinks after the integration so that it cuts the
        # longest step between its extra stages at x = 0.1 and x = 0.2: the first is
        # made, the second refused, and the step interpolates by the cubic
        # Hermite rule on its two nodes.
        limit = [math.inf]
        calls = []

        def rhs(y):
            calls.append(1)
            if y[0] >= limit[0]:
                raise EvaluationDomainError("y >= limit")
            return [1.0 + y[0] * y[0]]

        traj = integrate_ivp(rhs, np.array([0.0]), (0.0, 1.2), tolerance=1e-10)
        i = int(np.argmax(traj.steps))
        h = float(traj.steps[i])
        limit[0] = math.tan(traj.ts[i] + 0.15 * h)
        made = traj.rhs_calls
        th = 0.05
        y0, y1 = traj.states[i][0], traj.states[i + 1][0]
        f0, f1 = traj.derivs[i][0], traj.derivs[i + 1][0]
        cubic = (
            (1 + 2 * th) * (1 - th) ** 2 * y0
            + th * (1 - th) ** 2 * h * f0
            + th * th * (3 - 2 * th) * y1
            + th * th * (th - 1) * h * f1
        )
        got = traj(traj.ts[i] + th * h)[0]
        assert got == pytest.approx(cubic, rel=1e-15, abs=0.0)
        assert abs(got - math.tan(traj.ts[i] + th * h)) > 1e-9  # the cubic, not the full rule
        assert traj.rhs_calls == made + 2 == len(calls)
        traj(traj.ts[i] + 0.5 * h)
        assert traj.rhs_calls == made + 2 == len(calls)
