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

from oracles import dop853_dense, dop853_step, row_dense, row_step


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

    @pytest.mark.parametrize("tolerance", [1e-200, 1e-300])
    def test_tolerance_below_the_float_range_raises_stiffness(self, tolerance):
        # (y / sc)^2 overflows in the starting-step norms, so the first step
        # size is inf / inf; it must end the run, not be halved forever
        calls = []

        def rhs(y):
            calls.append(1)
            if len(calls) > 10_000:
                raise RuntimeError("the integration did not stop")
            return harmonic(y)

        with pytest.raises(StiffnessError, match="starting step"):
            integrate_ivp(rhs, np.array([0.0, 1.0]), (0.0, 1.0), tolerance=tolerance)

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            integrate_ivp(lambda y: y, np.array([1.0]), (1.0, 0.0))

    @pytest.mark.parametrize(
        "y0",
        [1.0, np.float64(1.0), np.array(1.0), np.ones((2, 1)), np.ones((1, 2)), [[1.0], [0.5]], [1.0, [0.5]]],
        ids=["float", "float64", "0-d", "column", "row", "nested", "ragged"],
    )
    def test_a_state_that_is_not_one_dimensional_is_rejected(self, y0):
        with pytest.raises(ValueError, match="^state must be one-dimensional$"):
            integrate_ivp(lambda y: y, y0, (0.0, 1.0))

    def test_a_list_start_is_the_array_start(self):
        # the start state is copied entry by entry: a list of floats, an array
        # and a list of ints and numpy floats give one trajectory, bit for bit
        runs = [
            integrate_ivp(harmonic, y0, (0.0, 3.0), tolerance=1e-10)
            for y0 in ([1.0, 0.0], np.array([1.0, 0.0]), [1, np.float64(0.0)])
        ]
        for traj in runs[1:]:
            assert traj.states.tobytes() == runs[0].states.tobytes()
            assert traj.ts.tobytes() == runs[0].ts.tobytes()
        assert isinstance(runs[2].states[0].tolist()[0], float)

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
        traj = geodesics._shoot(klein2, p, v, 1.5, 1e-10, [])
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
            calls, y_new, f_new, err, stages = ode._attempt(n)(coupled, y.tolist(), f, h, tol)
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


def hexed(value):
    """Every float in a nest of lists and tuples as float.hex, the rest as it is."""
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def zero_columns(zeros):
    """coupled on the leading columns; the last `zeros` columns give signed zeros that follow the state's."""

    def rhs(z):
        m = len(z) - zeros
        return coupled(z[:m]) + [(-0.0 if i % 2 else 0.0) * v for i, v in enumerate(z[m:])]

    return rhs


def refusing(rhs, call, value=None):
    """rhs whose call-th call (from 1) raises EvaluationDomainError, or that returns
    [value] * m from its call-th call on when value is given.  Call 0 is never made.
    """
    count = [0]

    def wrapped(z):
        count[0] += 1
        if value is not None and count[0] >= call:
            return [value] * len(z)
        if count[0] == call:
            raise EvaluationDomainError("refused")
        return rhs(z)

    return wrapped


STATE_LENGTHS = (1, 2, 4, 5, 6, 16, ode._UNROLL_MAX + 8)


class TestTableau:
    """The generated attempt and interpolant rows, one pair per state length, against
    the row-by-row reference of tests/oracles.py, and the literal DOP853 table against
    scipy's coefficients."""

    C = dop853_coefficients.C
    EXTENDED = dop853_coefficients.N_STAGES_EXTENDED

    def weights(self, row):
        """A literal row {stage: weight} as a dense vector over the extended tableau."""
        w = np.zeros(self.EXTENDED)
        for j, v in row.items():
            w[j] = v
        return w

    def test_order_conditions(self):
        # row sums equal the nodes c_s, for the extra stages too; the
        # solution weights integrate c^k exactly for k <= 7; the error
        # estimates vanish on constants
        for s in (*range(1, 12), *range(13, self.EXTENDED)):
            w = self.weights(ode._A[s])
            assert not w[s:].any()
            assert math.fsum(w) == pytest.approx(self.C[s], abs=1e-14)
        b = self.weights(ode._A[12])
        c = self.C[:12]
        assert not b[12:].any()
        b = b[:12]
        assert math.fsum(b) == pytest.approx(1.0, abs=1e-14)
        for k in range(1, 8):
            assert math.fsum(b * c**k) == pytest.approx(1.0 / (k + 1), abs=1e-14)
        for row in (ode._E5, ode._E3):
            w = self.weights(row)
            assert abs(math.fsum(w)) <= 1e-14
            assert not w[12:].any()  # no weight on the FSAL stage

    def cases(self, m, seed):
        """(rhs, y, f, h, tolerance): the last m // 2 columns hold y = -0.0 and
        signed-zero stages, whose sums keep or lose the sign of the zero; the
        steps range from tiny to far over tolerance, of either sign."""
        rng = np.random.default_rng(seed)
        zeros = m // 2
        rhs = zero_columns(zeros)
        for _ in range(20):
            y = rng.uniform(-2.0, 2.0, m)
            y[m - zeros:] = -0.0
            y = y.tolist()
            h = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-3.0, 0.5))
            yield rhs, y, list(rhs(y)), h, 10.0 ** rng.uniform(-12.0, -4.0)

    @pytest.mark.parametrize("m", STATE_LENGTHS)
    def test_attempt_matches_the_row_fold_step(self, m):
        # bit for bit in every returned field, at every state length
        outcomes = set()
        for rhs, y, f, h, tol in self.cases(m, 18 + m):
            got = ode._attempt(m)(rhs, y, f, h, tol)
            want = row_step(rhs, y, f, h, tol)
            assert hexed(got) == hexed(want)
            assert type(got[1]) is list and all(type(k) is list for k in got[4] or [])
            outcomes.add(got[2] is None)
        assert outcomes == {True, False}  # accepted and over-tolerance attempts both met

    @pytest.mark.parametrize("m", STATE_LENGTHS)
    def test_every_early_exit_matches_the_row_fold_step(self, m):
        # a stage refused at each of the eleven calls, then a refused or
        # non-finite FSAL stage, a non-finite solution and an attempt over
        # tolerance: the same call count and the same Nones
        rhs, y, f, h, tol = next(self.cases(m, 5))
        h, tol = 1e-3, 1e-4  # accepted when nothing is refused
        assert ode._attempt(m)(rhs, y, f, h, tol)[0] == 12
        variants = [((call, None), 1e-3, call) for call in range(1, 13)]
        variants += [((12, math.nan), 1e-3, 12), ((12, -math.inf), 1e-3, 12), ((4, math.inf), 1e-3, 11)]
        variants += [((0, None), 3.0, 11)]
        for refusal, step, calls in variants:
            got = ode._attempt(m)(refusing(rhs, *refusal), y, f, step, tol)
            want = row_step(refusing(rhs, *refusal), y, f, step, tol)
            assert got[0] == calls and hexed(got) == hexed(want)
            if step == 3.0:
                assert got[1] is not None and got[2] is None and got[3] > 1.0
            else:
                assert got[1:] == (None,) * 4

    @pytest.mark.parametrize("m", STATE_LENGTHS)
    def test_dense_rows_match_the_row_fold(self, m):
        # the interpolant's extra stages and rows of accepted attempts, bit
        # for bit; a refused extra stage at each of its three calls, or a
        # stage that is not finite, leaves no rows
        checked = 0
        for rhs, y, f, h, tol in self.cases(m, 40 + m):
            _, y_new, f_new, _, k = ode._attempt(m)(rhs, y, f, h, tol)
            if f_new is None:
                continue
            k = k + [f_new]
            calls, rows = ode._dense(m)(rhs, y, h, k)
            assert hexed((calls, rows)) == hexed(row_dense(rhs, y, h, k)) and calls == 3
            for call in (1, 2, 3):
                assert ode._dense(m)(refusing(rhs, call), y, h, k) == (call, None)
            assert ode._dense(m)(refusing(rhs, 2, math.nan), y, h, k) == (3, None)
            # no extra stage reads stage 2, and it still refuses the rows
            assert ode._dense(m)(rhs, y, h, k[:2] + [[math.inf] * m] + k[3:]) == (3, None)
            checked += 1
        assert checked >= 5

    def test_literal_table_is_scipys_entry_by_entry(self):
        # every row the library writes out holds exactly scipy's nonzero
        # entries, in stage order, each with the same bits
        dop = dop853_coefficients
        assert len(ode._A) == self.EXTENDED and ode._A[0] == {}
        pairs = [(ode._A[s], dop.A[s, :s]) for s in range(1, self.EXTENDED)]
        pairs += [(ode._A[dop.N_STAGES], dop.B), (ode._E5, dop.E5), (ode._E3, dop.E3)]
        pairs += list(zip(ode._D, dop.D, strict=True))
        for row, want in pairs:
            assert list(row) == sorted(row) and 0.0 not in row.values()
            got = [0.0] * len(want)
            for j, w in row.items():
                got[j] = w
            assert [v.hex() for v in got] == [v.hex() for v in want.tolist()]

    def test_one_step_error_is_ninth_order(self):
        # the local error of an eighth-order step is O(h^9): halving h
        # divides it by about 2^9 = 512 (measured 527, 473, 505)
        errors = []
        for h in (1.6, 0.8, 0.4, 0.2):
            _, y_new, _, _, _ = ode._attempt(2)(harmonic, [0.0, 1.0], [1.0, 0.0], h, 1e-6)
            errors.append(max(abs(y_new[0] - math.sin(h)), abs(y_new[1] - math.cos(h))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 0.8 * 512 <= coarse / fine <= 1.25 * 512


class TestDenseOutput:
    def test_nodes_are_exact(self):
        traj = integrate_ivp(harmonic, np.array([0.0, 1.0]), (0.0, 3.0), tolerance=1e-10)
        assert np.array_equal(traj(traj.ts), traj.states)

    def test_a_float_time_is_the_row_of_an_array_of_times(self):
        # a float, a numpy float64, an int and a 0-d array give one state, the
        # row an array of times gives; each is a fresh array, not a node's view
        traj = integrate_ivp(harmonic, [0.0, 1.0], (0.0, 3.0), tolerance=1e-10)
        times = [-1.0, 0.0, 0.37, float(traj.ts[2]), 2.0, 3.0, 4.5]
        rows = traj(np.array(times))
        for t, row in zip(times, rows):
            for form in (t, np.float64(t), np.array(t)):
                got = traj(form)
                assert got.shape == (2,) and got.tobytes() == row.tobytes()
        assert traj(2).tobytes() == traj(2.0).tobytes()
        state = traj(0.0)
        state[0] = 7.0
        assert traj.states[0, 0] == 0.0

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
