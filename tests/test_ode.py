import math

import numpy as np
import pytest

from finslerlab import (
    DomainExitError,
    EvaluationDomainError,
    StiffnessError,
    integrate_ivp,
)


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
        with pytest.raises(DomainExitError) as info:
            integrate_ivp(
                lambda y: np.array([1.0]),
                np.array([0.0]),
                (0.0, 5.0),
                domain=lambda y: y[0] < 1.0,
            )
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
            return 1.0 - y

        try:
            traj = integrate_ivp(rhs, np.array([0.0]), (0.0, 40.0), domain=lambda y: y[0] < 1.0)
        except DomainExitError as exc:
            assert exc.t_exit <= 40.0
            raise
        assert traj.t1 == pytest.approx(40.0, abs=1e-12)
        assert traj(40.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert traj(10.0)[0] == pytest.approx(1.0 - math.exp(-10.0), abs=1e-8)

    def test_initial_state_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            integrate_ivp(
                lambda y: y,
                np.array([2.0]),
                (0.0, 1.0),
                domain=lambda y: y[0] < 1.0,
            )

    def test_finite_time_blowup_raises_stiffness(self):
        with pytest.raises(StiffnessError):
            integrate_ivp(lambda y: y * y, np.array([1.0]), (0.0, 2.0), tolerance=1e-10)

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            integrate_ivp(lambda y: y, np.array([1.0]), (1.0, 0.0))

    @pytest.mark.parametrize("t1", [math.inf, math.nan])
    def test_non_finite_span_rejected(self, t1):
        with pytest.raises(ValueError, match="finite"):
            integrate_ivp(lambda y: y, np.array([1.0]), (0.0, t1))
