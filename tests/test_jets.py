import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerlab import EvaluationDomainError, jet_space
from finslerlab.jets import MAX_JET_ORDER, Jet, jet_abs, jet_exp, jet_sqrt

from oracles import DegenerateSeedsError, directional_derivatives, finite_difference_oracle, jet_log


def poly_derivative(coeffs, a, m):
    """m-th derivative of sum_k coeffs[k] t^k at t = a, exactly."""
    total = 0.0
    for k in range(m, len(coeffs)):
        total += coeffs[k] * math.factorial(k) / math.factorial(k - m) * a ** (k - m)
    return total


def univariate(jet):
    return tuple(jet.derivative((k,)) for k in range(jet.space.order + 1))


class TestDirectionalDerivatives:
    def test_square_at_three(self):
        table = directional_derivatives(lambda a: a[0] * a[0], [3.0], [[1.0]], 2)
        assert table.value == 9.0
        assert table.derivative((1,)) == 6.0
        assert table.derivative((2,)) == 2.0

    def test_returns_the_jet(self):
        jet = directional_derivatives(lambda a: a[0] * a[1], [0.7, -0.3], np.eye(2), 2)
        assert isinstance(jet, Jet)
        assert jet.coef.shape == (jet_space(2, 2).ncoef,)

    def test_bilinear_mixed_partial(self):
        table = directional_derivatives(
            lambda a: a[0] * a[1],
            [0.7, -0.3],
            [[1.0, 0.0], [0.0, 1.0]],
            2,
        )
        assert table.derivative((1, 1)) == 1.0

    def test_exp_of_two_t(self):
        table = directional_derivatives(lambda a: jet_exp(2.0 * a[0]), [0.0], [[1.0]], 3)
        got = univariate(table)
        assert got == pytest.approx((1.0, 2.0, 4.0, 8.0), abs=1e-12)

    def test_random_polynomials_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(160):
            deg = int(rng.integers(0, 7))
            coeffs = rng.uniform(-2.0, 2.0, size=deg + 1)
            a = float(rng.uniform(-1.5, 1.5))

            def f(args, coeffs=coeffs):
                acc = 0.0
                for c in reversed(coeffs):
                    acc = acc * args[0] + float(c)
                return acc

            table = directional_derivatives(f, [a], [[1.0]], 6)
            for m in range(7):
                want = poly_derivative(coeffs, a, m)
                got = table.derivative((m,))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_random_bivariate_polynomials_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            terms = []
            for _ in range(int(rng.integers(1, 7))):
                i = int(rng.integers(0, 4))
                j = int(rng.integers(0, 4 - min(i, 3)))
                terms.append((float(rng.uniform(-2, 2)), i, j))
            base = rng.uniform(-1.0, 1.0, size=2)

            def f(args, terms=terms):
                acc = 0.0
                for c, i, j in terms:
                    t = c
                    for _ in range(i):
                        t = t * args[0]
                    for _ in range(j):
                        t = t * args[1]
                    acc = acc + t
                return acc

            table = directional_derivatives(f, base, np.eye(2), 6)
            for mi in range(4):
                for mj in range(4):
                    want = 0.0
                    for c, i, j in terms:
                        if i >= mi and j >= mj:
                            want += (
                                c
                                * math.factorial(i)
                                / math.factorial(i - mi)
                                * base[0] ** (i - mi)
                                * math.factorial(j)
                                / math.factorial(j - mj)
                                * base[1] ** (j - mj)
                            )
                    got = table.derivative((mi, mj))
                    assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_degenerate_seeds_rejected(self):
        with pytest.raises(DegenerateSeedsError):
            directional_derivatives(
                lambda a: a[0], [0.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], 2
            )

    def test_order_above_maximum_rejected(self):
        with pytest.raises(ValueError):
            directional_derivatives(lambda a: a[0], [0.0], [[1.0]], MAX_JET_ORDER + 1)

    def test_non_finite_value_rejected(self):
        with pytest.raises(EvaluationDomainError):
            directional_derivatives(lambda a: float("inf"), [0.0], [[1.0]], 1)

    def test_abs_away_from_zero(self):
        table = directional_derivatives(lambda a: jet_abs(a[0]), [-2.0], [[1.0]], 3)
        assert univariate(table) == pytest.approx((2.0, -1.0, 0.0, 0.0), abs=0.0)

    def test_sqrt_log_exact_values(self):
        table = directional_derivatives(lambda a: jet_sqrt(a[0]), [4.0], [[1.0]], 2)
        assert univariate(table) == pytest.approx(
            (2.0, 0.25, -1.0 / 32.0), rel=1e-14
        )
        table = directional_derivatives(lambda a: jet_log(a[0]), [2.0], [[1.0]], 2)
        assert univariate(table) == pytest.approx(
            (math.log(2.0), 0.5, -0.25), rel=1e-14
        )


class TestFiniteDifferenceOracle:
    def test_sin_first_derivative(self):
        got = finite_difference_oracle(lambda x: math.sin(x[0]), [0.0], [1.0], 1)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_cube_second_derivative(self):
        got = finite_difference_oracle(lambda x: x[0] ** 3, [1.0], [1.0], 2)
        assert got == pytest.approx(6.0, abs=1e-7)

    def test_constant_vanishes(self):
        for order in (1, 2, 3, 4):
            got = finite_difference_oracle(lambda x: 5.0, [0.3], [1.0], order)
            assert got == pytest.approx(0.0, abs=1e-10)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            finite_difference_oracle(lambda x: x[0], [0.0], [1.0], 5)

    def test_agrees_with_jets_on_smooth_functions(self):
        rng = np.random.default_rng(3)

        def rational(x):
            return 1.0 / (1.0 + x[0] * x[0])

        def jet_rational(a):
            return 1.0 / (1.0 + a[0] * a[0])

        cases = [
            (lambda x: math.exp(0.7 * x[0]), lambda a: jet_exp(0.7 * a[0])),
            (lambda x: math.log(2.0 + x[0]), lambda a: jet_log(2.0 + a[0])),
            (rational, jet_rational),
        ]
        for _ in range(10):
            at = float(rng.uniform(-0.8, 0.8))
            for order in (1, 2, 3, 4):
                # roundoff in an order-m stencil grows like eps/h^m, so the
                # deep stencils need a larger base step
                step = 1e-2 if order <= 2 else 5e-2
                for f_num, f_jet in cases:
                    fd = finite_difference_oracle(f_num, [at], [1.0], order, base_step=step)
                    table = directional_derivatives(f_jet, [at], [[1.0]], order)
                    exact = table.derivative((order,))
                    assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=7
    ),
    a=st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
)
def test_polynomial_jets_match_analytic(coeffs, a):
    def f(args):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * args[0] + float(c)
        return acc

    table = directional_derivatives(f, [a], [[1.0]], 6)
    for m in range(7):
        want = poly_derivative(coeffs, a, m)
        assert abs(table.derivative((m,)) - want) <= 1e-11 * max(1.0, abs(want))


def test_jet_space_prefix_structure():
    lo = jet_space(2, 2)
    hi = jet_space(2, 4)
    assert hi.indices[: lo.ncoef] == lo.indices


@st.composite
def batched_jet_pairs(draw):
    """Two batched jets with positive values, in a random (nvars, order, B)."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.integers(min_value=0, max_value=4))
    batch = draw(st.integers(min_value=1, max_value=5))
    space = jet_space(nvars, order)
    coefs = []
    for _ in range(2):
        flat = draw(
            st.lists(
                st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                min_size=space.ncoef * batch,
                max_size=space.ncoef * batch,
            )
        )
        coef = np.array(flat).reshape(space.ncoef, batch)
        coef[0] = 0.25 + np.abs(coef[0])
        coefs.append(coef)
    return space, coefs[0], coefs[1]


@settings(max_examples=60, deadline=None)
@given(pair=batched_jet_pairs())
def test_batched_jets_match_columns_exactly(pair):
    space, ca, cb = pair
    a, b = Jet(space, ca), Jet(space, cb)
    ops = {
        "+": lambda u, v: u + v,
        "-": lambda u, v: u - v,
        "*": lambda u, v: u * v,
        "/": lambda u, v: u / v,
        "sqrt": lambda u, v: u.sqrt(),
        "scalar": lambda u, v: 1.5 - 2.0 * u / 3.0,
    }
    if space.order >= 1:
        ops["partial"] = lambda u, v: u.partial(space.nvars - 1) * v
    for name, op in ops.items():
        batched = op(a, b).coef
        for col in range(ca.shape[1]):
            single = op(Jet(space, ca[:, col].copy()), Jet(space, cb[:, col].copy())).coef
            assert np.array_equal(batched[:, col], single), name
    # derivatives read every column at once, as each column's own jet reads them
    for alpha in space.index_of:
        for col in range(ca.shape[1]):
            assert a.derivative(alpha)[col] == Jet(space, ca[:, col].copy()).derivative(alpha)
    # an unbatched jet broadcasts over the batch axis
    lone = Jet(space, cb[:, 0].copy())
    mixed = (lone * a - lone).coef
    for col in range(ca.shape[1]):
        single = (lone * Jet(space, ca[:, col].copy()) - lone).coef
        assert np.array_equal(mixed[:, col], single)


def test_batched_domain_check_rejects_the_batch():
    space = jet_space(1, 2)
    x = space.variable(0, np.array([4.0, -1.0, 9.0]))
    with pytest.raises(EvaluationDomainError):
        x.sqrt()
    with pytest.raises(EvaluationDomainError):
        1.0 / (x - 4.0)
    assert np.array_equal(x.value, [4.0, -1.0, 9.0])
    flipped = abs(x)
    for col, value in enumerate([4.0, -1.0, 9.0]):
        assert np.array_equal(flipped.coef[:, col], abs(space.variable(0, value)).coef)


def test_overflowing_series_is_outside_the_domain():
    """Coefficients past the float range raise EvaluationDomainError naming the value."""
    with pytest.raises(EvaluationDomainError, match="800.0"):
        jet_space(2, 1).constant(800.0).exp()
    with pytest.raises(EvaluationDomainError, match="800.0"):
        jet_exp(800.0)
    x = jet_space(1, 2).variable(0, np.array([1.0, 1e200]))
    with pytest.raises(EvaluationDomainError, match="1.e\\+200"):
        x.exp()
    with pytest.raises(EvaluationDomainError, match="1.e\\+200"):
        1.0 / x
    # the largest argument that does not overflow keeps its value
    assert jet_space(2, 1).constant(709.0).exp().value == math.exp(709.0)
    assert jet_exp(709.0) == math.exp(709.0)


# ----- capped jet spaces -----------------------------------------------------


def _over_cap(alpha, lead, cap):
    return sum(alpha[:lead]) > cap


@pytest.mark.parametrize(
    "nvars, order, lead, cap, counts",
    [
        # the order-4 Ricci batches: n = 2 and n = 3 phase seeds, base seeds capped at 1
        (4, 4, 2, 1, (70, 495, 35, 210)),
        (6, 4, 3, 1, (210, 1820, 95, 714)),
        (4, 6, 2, 2, None),
        (3, 3, 1, 0, None),
        (5, 2, 5, 1, None),
    ],
)
def test_capped_space_filters_the_uncapped_layout(nvars, order, lead, cap, counts):
    capped, full = jet_space(nvars, order, lead, cap), jet_space(nvars, order)
    assert capped.indices == tuple(a for a in full.indices if not _over_cap(a, lead, cap))

    def terms(space, keep):
        I, J, K = space._mul_table()
        named = (tuple(space.indices[t] for t in ijk) for ijk in zip(I, J, K))
        return [ijk for ijk in named if keep(ijk[2])]

    # each retained output's terms, and only they, in the uncapped table's relative order
    assert terms(capped, lambda a: True) == terms(full, lambda a: not _over_cap(a, lead, cap))
    if counts is not None:
        assert (full.ncoef, full._mul_table()[0].size, capped.ncoef, capped._mul_table()[0].size) == counts


def test_capped_space_prefix_and_normal_form():
    lo, hi = jet_space(4, 2, 2, 1), jet_space(4, 4, 2, 1)
    assert hi.indices[: lo.ncoef] == lo.indices
    # a cap that drops nothing is the uncapped space itself
    assert jet_space(4, 1, 2, 1) is jet_space(4, 1)
    assert jet_space(4, 3, 0, 1) is jet_space(4, 3)
    assert jet_space(4, 3, 2, None) is jet_space(4, 3)
    for lead, cap in ((5, 1), (-1, 1), (2, -1)):
        with pytest.raises(ValueError):
            jet_space(4, 3, lead, cap)


def test_reading_above_the_cap_raises():
    space = jet_space(4, 3, 2, 1)
    x = space.variable(0, 0.3)
    y = space.variable(3, np.array([1.0, 2.0]))
    f = (x * x * y).exp()
    assert f.derivative((1, 0, 0, 2)).shape == (2,)
    with pytest.raises(ValueError, match="outside jet space"):
        f.derivative((2, 0, 0, 0))
    with pytest.raises(ValueError, match="outside jet space"):
        f.derivative((1, 1, 0, 0))
    fx = f.partial(0)
    assert fx.space is jet_space(4, 2, 2, 0)
    assert fx.partial(3).space is jet_space(4, 1, 2, 0)
    with pytest.raises(ValueError, match="outside jet space"):
        fx.partial(1)
    with pytest.raises(ValueError, match="outside jet space"):
        fx.space.variable(0, 0.3)
    # truncation keeps the cap; meeting a lower cap gathers
    assert f.truncated(2).space is jet_space(4, 2, 2, 1)
    assert np.array_equal(f.truncated(2).coef, f.coef[: jet_space(4, 2, 2, 1).ncoef])
    assert (f + fx).space is jet_space(4, 2, 2, 0)
    with pytest.raises(ValueError):
        f + jet_space(4, 3, 1, 1).constant(1.0)


_UNARY = ("sqrt", "exp", "log", "pow3", "pow_half", "pow_real", "recip", "neg", "scalar")
_BINARY = ("+", "-", "*", "/")


def _positive(u):
    return u * u + 0.25


def _apply(op, u, v, seed):
    if op == "+":
        return u + v
    if op == "-":
        return u - v
    if op == "*":
        return u * v
    if op == "/":
        return u / _positive(v)
    if op == "partial":
        return u.partial(seed % u.space.nvars)
    w = _positive(u)
    return {
        "sqrt": lambda: w.sqrt(),
        "exp": lambda: (0.5 * u).exp(),
        "log": lambda: w.log(),
        "pow3": lambda: u**3,
        "pow_half": lambda: w**0.5,
        "pow_real": lambda: w**-1.5,
        "recip": lambda: 1.0 / w,
        "neg": lambda: -u,
        "scalar": lambda: 1.5 - 2.0 * u / 3.0,
    }[op]()


@st.composite
def capped_programs(draw):
    """A random (nvars, order, lead, cap, batch) and a straight-line program over a pool of jets."""
    nvars = draw(st.integers(min_value=2, max_value=4))
    lead = draw(st.integers(min_value=1, max_value=nvars))
    order = draw(st.integers(min_value=1, max_value=4))
    cap = draw(st.integers(min_value=0, max_value=order - 1))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    ops = st.sampled_from(_UNARY + _BINARY + ("partial",))
    index = st.integers(min_value=0, max_value=99)
    steps = draw(st.lists(st.tuples(ops, index, index), min_size=1, max_size=10))
    return nvars, order, lead, cap, batch, steps, draw(st.integers(min_value=0, max_value=2**32 - 1))


def _outcome(op, u, v, seed):
    """_apply's jet, or the EvaluationDomainError it raised."""
    try:
        return _apply(op, u, v, seed)
    except EvaluationDomainError as err:
        return err


@settings(max_examples=80, deadline=None)
@given(program=capped_programs())
# chained exps overflow the float range: both routes must raise the same error
@example(program=(2, 2, 1, 0, (), [("exp", 15, 0), ("pow3", 6, 0), ("exp", 7, 0)], 0))
def test_capped_jets_keep_the_uncapped_bits(program):
    """Every retained coefficient equals the uncapped one bit for bit, batched and single;
    a value outside the domain raises the same EvaluationDomainError on both routes."""
    nvars, order, lead, cap, batch, steps, seed = program
    rng = np.random.default_rng(seed)
    full_pool, capped_pool = [], []
    # operands on the top space, on a lower cap and on a lower order, so the meets mix caps
    for o, c in ((order, cap), (order, max(cap - 1, 0)), (order - 1, cap)):
        full = jet_space(nvars, o)
        coef = rng.uniform(-1.0, 1.0, size=(full.ncoef,) + batch)
        coef[0] += 2.0
        capped = jet_space(nvars, o, lead, c)
        full_pool.append(Jet(full, coef))
        capped_pool.append(Jet(capped, coef[[full.index_of[a] for a in capped.indices]]))
    # every example meets the mixed-cap operands at least once
    for op, i, j in [("*", 0, 1), ("+", 1, 2), ("/", 2, 0)] + steps:
        u, v = full_pool[i % len(full_pool)], full_pool[j % len(full_pool)]
        uc, vc = capped_pool[i % len(capped_pool)], capped_pool[j % len(capped_pool)]
        if op == "partial" and (u.space.order == 0 or uc.space.cap == 0 and i % nvars < lead):
            with pytest.raises(ValueError):
                _apply(op, uc, vc, i)
            continue
        got, want = _outcome(op, uc, vc, i), _outcome(op, u, v, i)
        if isinstance(want, EvaluationDomainError) or isinstance(got, EvaluationDomainError):
            assert (type(got), str(got)) == (type(want), str(want)), op
            continue
        assert got.space.order == want.space.order
        retained = [want.space.index_of[a] for a in got.space.indices]
        assert got.coef.tobytes() == want.coef[retained].tobytes(), op
        full_pool.append(want)
        capped_pool.append(got)
