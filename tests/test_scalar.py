"""The float port of Brent's bounded minimiser, checked bit for bit, by
float.hex, against the scipy routine it ports,
scipy.optimize.minimize_scalar(method="bounded"): on the closest-approach
searches of two fan distances and on small cases of its own.
"""

import math

import pytest
from scipy.optimize import minimize_scalar

from finslerlab import finsler_distance, geodesics, make_metric
from finslerlab.scalar import minimize_bounded

from conftest import curved_riemannian_config, nonclosed_randers_config


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
