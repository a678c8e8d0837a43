"""The float ports of QUADPACK's qagse and of Brent's bounded minimiser,
checked bit for bit, by float.hex, against the scipy routines they port:
scipy.integrate.quad and scipy.optimize.minimize_scalar(method="bounded").

The quadrature is checked on the integrands the library hands it, the
chord integrands of random Klein, Funk and interval pairs, up to radius
0.999 and on two that end on dqagse's limit and bad-behaviour exits, and on
textbook integrands that reach its other exits; the minimiser on the
closest-approach searches of two fan distances and on small cases of its
own.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import minimize_scalar

from finslerlab import finsler_distance, geodesics, make_metric
from finslerlab.scalar import minimize_bounded, qagse

from conftest import ball_point, curved_riemannian_config, funk_config, klein_config, nonclosed_randers_config


def quad_reference(f, a, b, epsabs, epsrel, limit):
    """quad's (result, abserr, intervals used) for the same settings, its warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        result, abserr, info, *_ = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    return result, abserr, info["last"]


def assert_matches_quad(f, *args):
    """qagse(f, *args) has quad's result and error estimate to the bit; quad's interval count."""
    want, want_err, last = quad_reference(f, *args)
    got, got_err = qagse(f, *args)
    assert (got.hex(), got_err.hex()) == (want.hex(), want_err.hex()), (args, last)
    return last


def chord_calls(S, pairs, monkeypatch):
    """(integrand, a, b, epsabs, epsrel, limit) of each qagse call _chord_length makes on the pairs."""
    calls = []

    def record(f, *args):
        calls.append((f, *args))
        return qagse(f, *args)

    monkeypatch.setattr(geodesics, "qagse", record)
    for p, q in pairs:
        geodesics._chord_length(S, p, q)
    return calls


FAMILIES = {
    "klein2": klein_config(2),
    "funk2": funk_config(2),
    "klein3": klein_config(3),
    "funk3": funk_config(3),
    "interval1": {"family": "interval_funk", "dimension": 1, "k": 1.0},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chord_quadrature_is_quads_bit_for_bit(family, monkeypatch):
    # 100 random pairs at each radius; near the sphere the integrand peaks
    # at the ends and the bisection runs to 5 intervals or more
    S = make_metric(FAMILIES[family])
    rng = np.random.default_rng(26)
    pairs = [
        (ball_point(rng, S.dimension, radius), ball_point(rng, S.dimension, radius))
        for radius in (0.7, 0.9, 0.99, 0.999)
        for _ in range(100)
    ]
    calls = chord_calls(S, pairs, monkeypatch)
    assert len(calls) == len(pairs)
    lasts = []
    for f, *args in calls:
        assert args == [0.0, 1.0, 1e-12, 1e-12, 200]
        lasts.append(assert_matches_quad(f, *args))
    assert max(lasts) >= 5


def test_chord_quadratures_at_the_sphere(klein2, monkeypatch):
    # from 2^-52 off the sphere the integrand's logarithmic end spends all
    # 200 intervals; across the ball from 1e-15 off it, dqagse gives up on
    # an interval too small to bisect.  quad warns and returns its
    # estimate in both cases, and so must qagse.
    ends = [([1.0 - 2.0**-52, 0.0], [-0.5, 0.0]), ([1.0 - 1e-15, 0.0], [-1.0 + 1e-15, 0.0])]
    calls = chord_calls(klein2, [(np.array(p), np.array(q)) for p, q in ends], monkeypatch)
    assert [assert_matches_quad(f, *args) for f, *args in calls] == [200, 91]


TEXTBOOK = {
    "cubic": lambda x: x**3 - 2.0 * x + 1.0,
    "sqrt": lambda x: math.sqrt(abs(x)),
    "inverse_sqrt": lambda x: 1.0 / math.sqrt(abs(x)) if x != 0.0 else 0.0,
    "log": lambda x: math.log(abs(x)) if x != 0.0 else 0.0,
    "power_-0.9": lambda x: abs(x) ** -0.9 if x != 0.0 else 0.0,
    "oscillating": lambda x: math.cos(200.0 * x) * x,
    "peak": lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-6),
    "kink": lambda x: abs(x - 0.37),
    "step": lambda x: 1.0 if x > 0.4 else 0.0,
    "sin_inverse": lambda x: math.sin(1.0 / x) if x != 0.0 else 0.0,
    "inverse_square": lambda x: 1.0 / (x * x) if x != 0.0 else 0.0,
    "zero": lambda x: 0.0,
}


@pytest.mark.parametrize("name", sorted(TEXTBOOK))
def test_textbook_integrands_are_quads_bit_for_bit(name):
    # end-point singularities run the epsilon extrapolation; between them
    # these reach dqagse's exits on convergence, on the limit, on roundoff
    # in the sums or in the extrapolation, and on a divergent integral
    f = TEXTBOOK[name]
    for a, b in ((0.0, 1.0), (-1.0, 2.0)):
        for eps, limit in ((1e-12, 200), (1.49e-8, 50), (1e-14, 200), (1e-12, 10), (1e-10, 3), (1e-10, 1)):
            assert_matches_quad(f, a, b, eps, eps, limit)


def closest_approach_searches(S, p, q, monkeypatch):
    """(func, lo, hi, xatol) of every bounded minimisation the distance from p to q runs."""
    calls = []

    def record(func, lo, hi, xatol):
        calls.append((func, lo, hi, xatol))
        return minimize_bounded(func, lo, hi, xatol)

    monkeypatch.setattr(geodesics, "minimize_bounded", record)
    assert finsler_distance(S, p, q).diagnostics["path"] == "fan"
    return calls


@pytest.mark.parametrize("config", [curved_riemannian_config, nonclosed_randers_config])
def test_closest_approach_is_minimize_scalars_bit_for_bit(config, monkeypatch):
    # the README metric's fan pair and a non-closed Randers pair: x and fun
    # on every bracket their searches record
    calls = closest_approach_searches(make_metric(config()), [-0.2, 0.3], [0.4, -0.1], monkeypatch)
    assert len(calls) >= 5
    for func, lo, hi, xatol in calls:
        want = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        x, fun = minimize_bounded(func, lo, hi, xatol)
        assert (x.hex(), fun.hex()) == (float(want.x).hex(), float(want.fun).hex())


@pytest.mark.parametrize(
    "func, lo, hi, maxiter",
    [
        (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 500),  # parabolic steps
        (lambda x: abs(x - 0.37), 0.0, 1.0, 500),  # golden-section steps at the kink
        (lambda x: x, 0.0, 1.0, 500),  # the minimum at a bound
        (lambda x: math.cos(3.0 * x), 0.0, 4.0, 6),  # out of calls
    ],
    ids=["parabola", "kink", "bound", "maxiter"],
)
def test_bounded_minimiser_is_minimize_scalars_bit_for_bit(func, lo, hi, maxiter):
    want = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": 1e-13, "maxiter": maxiter})
    x, fun = minimize_bounded(func, lo, hi, 1e-13, maxiter)
    assert (x.hex(), fun.hex()) == (float(want.x).hex(), float(want.fun).hex())
