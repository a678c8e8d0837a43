"""Closed-form reference values used to check the numerical pipelines.

Everything here is independent of the library's own evaluators: the ball
distances come from chord/boundary intersections and logarithms of ratios,
the interval gauge from direct quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def _chord_boundary_hits(p, q):
    """Intersections of the line through p, q with the unit sphere.

    Returns (P_minus, P_plus) where P_plus lies on the q-side of p
    (forward hit) and P_minus on the opposite side.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    dd = float(d @ d)
    pd = float(p @ d)
    pp = float(p @ p)
    disc = pd * pd - dd * (pp - 1.0)
    t_plus = (-pd + math.sqrt(disc)) / dd
    t_minus = (-pd - math.sqrt(disc)) / dd
    return p + t_minus * d, p + t_plus * d


def klein_distance(p, q) -> float:
    """Hilbert metric on the unit ball: half the log of the cross-ratio."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.allclose(p, q):
        return 0.0
    pm, pl = _chord_boundary_hits(p, q)
    num = np.linalg.norm(q - pm) * np.linalg.norm(pl - p)
    den = np.linalg.norm(p - pm) * np.linalg.norm(pl - q)
    return 0.5 * math.log(num / den)


def funk_distance_ball(p, q) -> float:
    """Funk metric on the unit ball: log of distances to the forward hit."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.allclose(p, q):
        return 0.0
    _, pl = _chord_boundary_hits(p, q)
    return math.log(np.linalg.norm(pl - p) / np.linalg.norm(pl - q))


def euclidean_distance(p, q) -> float:
    return float(np.linalg.norm(np.asarray(q, dtype=float) - np.asarray(p, dtype=float)))


def exact_randers_distance(p, q) -> float:
    """Distance of |y| + df(y) with f = 0.15 (x1^2 - x2^2) (conftest's exact_randers_config).

    An exact form adds f(q) - f(p) to the length of every path from p to q,
    so the geodesics stay straight and d_F(p, q) = |q - p| + f(q) - f(p).
    """

    def f(x):
        return 0.15 * (float(x[0]) ** 2 - float(x[1]) ** 2)

    return euclidean_distance(p, q) + f(q) - f(p)


def interval_funk_quadrature(k: float, a: float, b: float) -> float:
    """Gauge distance on (-1, 1) by direct quadrature of the line element.

    The straight path from a to b has constant velocity sign(b - a); by
    1-homogeneity its length is |integral of L(u, sign) du from a to b|.
    """
    if a == b:
        return 0.0
    sign = 1.0 if b > a else -1.0

    def integrand(u):
        return (1.0 + u * sign) / (k * (1.0 - u * u))

    val, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13)
    return sign * val


def interval_funk_closed(k: float, a: float, b: float) -> float:
    """Directional closed form: (1/k)ln((1-a)/(1-b)) rightward, (1/k)ln((1+a)/(1+b)) leftward."""
    if b > a:
        return math.log((1.0 - a) / (1.0 - b)) / k
    if b < a:
        return math.log((1.0 + a) / (1.0 + b)) / k
    return 0.0
