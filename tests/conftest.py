import numpy as np
import pytest

from finslerlab import make_metric


def klein_config(n=2, scale=1.0):
    cfg = {"family": "klein_ball", "dimension": n}
    if scale != 1.0:
        cfg["scale"] = scale
    return cfg


def funk_config(n=2):
    return {"family": "funk_ball", "dimension": n}


def euclid_config(n=2):
    terms_one = [[1.0] + [0] * n]
    terms_zero = [[0.0] + [0] * n]
    metric = [
        [terms_one if i == j else terms_zero for j in range(n)] for i in range(n)
    ]
    return {"family": "riemannian", "dimension": n, "riemannian": {"metric": metric}}


def exact_randers_config():
    """Randers metric |y| + beta with beta = df, f = 0.15 (x1^2 - x2^2)."""
    return {
        "family": "randers",
        "dimension": 2,
        "randers": {
            "metric": euclid_config(2)["riemannian"]["metric"],
            "one_form": [[[0.3, 1, 0]], [[-0.3, 0, 1]]],
        },
    }


def curved_riemannian_config():
    """The README's metric: g11 = 1 + 0.3 x2^2, g22 = 1 + 0.3 x1^2, positive definite on the ball.

    Its coefficients depend on x, so geodesics are not straight lines and
    the Ricci scalar varies with x.
    """
    zero = [[0.0, 0, 0]]
    g11 = [[1.0, 0, 0], [0.3, 0, 2]]
    g22 = [[1.0, 0, 0], [0.3, 2, 0]]
    return {
        "family": "riemannian",
        "dimension": 2,
        "riemannian": {"metric": [[g11, zero], [zero, g22]]},
    }


def overflowing_partial_config():
    """The README metric with g11 = 1 + 1e308 x2^2, whose x2-partial has the coefficient 2e308 = inf."""
    doc = curved_riemannian_config()
    doc["riemannian"]["metric"][0][0] = [[1.0, 0, 0], [1e308, 0, 2]]
    return doc


def indefinite_riemannian_config(scale=1.0):
    """Riemannian table with g22 = 0.1 - x1^2, indefinite where |x1| > 0.32 inside the sampling ball."""
    cfg = {
        "family": "riemannian",
        "dimension": 2,
        "riemannian": {
            "metric": [
                [[[1.0, 0, 0]], [[0.0, 0, 0]]],
                [[[0.0, 0, 0]], [[0.1, 0, 0], [-1.0, 2, 0]]],
            ]
        },
    }
    if scale != 1.0:
        cfg["scale"] = scale
    return cfg


def nonclosed_randers_config():
    """Randers metric on the README's a (g11 = 1 + 0.3 x2^2, g22 = 1 + 0.3 x1^2)
    with the non-closed beta = (0.3 x2 + 0.1 x1^2) dx1 - 0.2 x1 x2 dx2."""
    return {
        "family": "randers",
        "dimension": 2,
        "randers": {
            "metric": [
                [[[1.0, 0, 0], [0.3, 0, 2]], [[0.0, 0, 0]]],
                [[[0.0, 0, 0]], [[1.0, 0, 0], [0.3, 2, 0]]],
            ],
            "one_form": [[[0.3, 0, 1], [0.1, 2, 0]], [[-0.2, 1, 1]]],
        },
    }


def cross_term_config():
    """A 2-D table at scale 1.3 with a cross term g12 = 0.1 x1 x2 and a degree-4 term 0.2 x1^2 x2^2 in g11."""
    return {
        "family": "riemannian",
        "dimension": 2,
        "scale": 1.3,
        "riemannian": {
            "metric": [
                [[[1.0, 0, 0], [0.2, 2, 2], [-0.1, 1, 0]], [[0.1, 1, 1]]],
                [[[0.1, 1, 1]], [[1.0, 0, 0], [0.3, 2, 0], [0.05, 0, 1]]],
            ]
        },
    }


def curved_table(n):
    """n x n table with g_ii = 1 + 0.3 x_{i+1}^2 and g_{i,i+1} = g_{i+1,i} = 0.1 x_{i+2}, indices mod n."""
    table = [[[] for _ in range(n)] for _ in range(n)]

    def monomial(coeff, *powers):
        exps = [0] * n
        for v, e in powers:
            exps[v] += e
        return [coeff] + exps

    for i in range(n):
        table[i][i] = [monomial(1.0), monomial(0.3, ((i + 1) % n, 2))]
        table[i][(i + 1) % n] = table[(i + 1) % n][i] = [monomial(0.1, ((i + 2) % n, 1))]
    return table


def curved_table_config(n):
    return {"family": "riemannian", "dimension": n, "riemannian": {"metric": curved_table(n)}}


def randers3_config():
    """Randers metric on curved_table(3) with the non-closed beta = (0.2 x2 + 0.05 x3^2) dx1 - 0.1 x1 x3 dx2 + 0.1 x1 dx3."""
    return {
        "family": "randers",
        "dimension": 3,
        "randers": {
            "metric": curved_table(3),
            "one_form": [[[0.2, 0, 1, 0], [0.05, 0, 0, 2]], [[-0.1, 1, 0, 1]], [[0.1, 1, 0, 0]]],
        },
    }


def zero_form_randers_config():
    """A Randers config whose one-form polynomials have no terms: the README's Riemannian metric."""
    doc = nonclosed_randers_config()
    doc["randers"]["one_form"] = [[], []]
    return doc


@pytest.fixture(scope="session")
def klein2():
    return make_metric(klein_config(2))


@pytest.fixture(scope="session")
def klein3():
    return make_metric(klein_config(3))


@pytest.fixture(scope="session")
def funk2():
    return make_metric(funk_config(2))


@pytest.fixture(scope="session")
def funk3():
    return make_metric(funk_config(3))


@pytest.fixture(scope="session")
def euclid2():
    return make_metric(euclid_config(2))


@pytest.fixture(scope="session")
def interval1():
    return make_metric({"family": "interval_funk", "dimension": 1, "k": 1.0})


def ball_point(rng, n, radius=0.7):
    while True:
        x = rng.uniform(-radius, radius, size=n)
        if float(x @ x) < radius * radius:
            return x


def unit_direction(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)
