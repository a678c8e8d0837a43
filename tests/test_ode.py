import math

import numpy as np
import pytest

from finslerlab import (
    BracketError,
    DomainExitError,
    IterationLimitError,
    StiffnessError,
    integrate_ivp,
    solve_scalar_root,
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


class TestSolveScalarRoot:
    def test_sqrt_two(self):
        root = solve_scalar_root(lambda t: t * t - 2.0, bracket=(0.0, 2.0), tolerance=1e-13)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_linear_root(self):
        root = solve_scalar_root(lambda t: t, bracket=(-1.0, 1.0))
        assert root == pytest.approx(0.0, abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            solve_scalar_root(lambda t: 1.0, bracket=(0.0, 1.0))

    def test_guess_mode(self):
        root = solve_scalar_root(lambda t: t * t - 2.0, guess=1.0, tolerance=1e-13)
        assert abs(abs(root) - math.sqrt(2.0)) <= 1e-10

    def test_guess_mode_flat_function(self):
        with pytest.raises(IterationLimitError):
            solve_scalar_root(lambda t: 1.0, guess=0.0)

    def test_requires_bracket_or_guess(self):
        with pytest.raises(ValueError):
            solve_scalar_root(lambda t: t)
