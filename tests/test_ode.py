import math

import numpy as np
import pytest

from finslerlab import (
    DomainExitError,
    EvaluationDomainError,
    StiffnessError,
    integrate_ivp,
)
from finslerlab import geodesics, ode

from oracles import dormand_prince_step


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
        traj = integrate_ivp(lambda y: y, np.array([1.0]), (0.0, 1.0), tolerance=1e-10)
        mids = 0.5 * (traj.ts[:-1] + traj.ts[1:])
        worst = max(abs(traj(t)[0] - math.exp(t)) for t in mids)
        assert worst <= 1e-7

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
        # From y0 = 0.999 the first step is rejected, so the initial
        # derivative is the first stage of a second attempt: it must not be
        # the buffer the rejected attempt's stages overwrote.
        y0, span = np.array([0.999]), (0.0, 5.0)
        fresh = integrate_ivp(lambda y: [1.0 - y[0]], y0, span, tolerance=1e-10)
        reused = integrate_ivp(self.relax([0.0]), y0, span, tolerance=1e-10)
        assert fresh.steps_rejected > 0
        for name in ("ts", "states", "derivs", "steps"):
            assert np.array_equal(getattr(fresh, name), getattr(reused, name))


class TestWorkCounts:
    @staticmethod
    def counted(rhs, calls):
        def wrapped(y):
            calls.append(1)
            return rhs(y)

        return wrapped

    def test_counts_match_the_calls_made(self):
        calls = []
        traj = integrate_ivp(
            self.counted(lambda y: [1.0 - y[0]], calls), np.array([0.999]), (0.0, 5.0),
            tolerance=1e-10,
        )
        assert traj.steps_rejected > 0
        assert traj.rhs_calls == len(calls) == 1 + 6 * (len(traj.steps) + traj.steps_rejected)

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
        # The two differ only in the order of the stage sums, so y_new agrees
        # to rounding, and the error norm to rounding of the terms it cancels.
        rng = np.random.default_rng(40 + n)
        for _ in range(40):
            y = rng.uniform(-2.0, 2.0, n)
            h = 10.0 ** rng.uniform(-3.0, -0.3)
            tol = 10.0 ** rng.uniform(-12.0, -6.0)
            f = coupled(y.tolist())
            calls, y_new, f_new, err = ode._dp_step(coupled, y.tolist(), f, h, tol)
            ref_y, _, ref_err, err_scale = dormand_prince_step(
                lambda z: np.array(coupled(z)), y, np.array(f), h, tol
            )
            assert calls == 6
            assert isinstance(y_new, list) and isinstance(f_new, list)
            y_scale = max(1.0, float(np.max(np.abs(ref_y))))
            assert np.max(np.abs(np.array(y_new) - ref_y)) <= 1e-14 * y_scale
            assert np.array_equal(np.array(f_new), np.array(coupled(y_new)))
            assert abs(err - ref_err) <= 1e-14 * err_scale

    def test_rhs_receives_lists(self):
        # no ndarray round trip per stage: every state handed out is a list
        seen = []

        def rhs(y):
            seen.append(type(y))
            return [1.0 - yi for yi in y]

        integrate_ivp(rhs, np.array([0.5, -0.5]), (0.0, 1.0))
        assert len(seen) > 10 and set(seen) == {list}
