"""The names the benchmark tracer (finslerbench/tracing.py) wraps exist.

Tracer.install looks every hook up by name: the Jet methods through
vars(Jet), a submodule per layer and its public functions, each structure's
f2 and spray_fast, and errors.DomainExitError.  A hook that a change removed
would stop a traced benchmark run with a KeyError or AttributeError, or
silently zero one of its counts, while every other test passed.  These
tests read the tracer's tables but never call Tracer.install, which rewrites
module globals.
"""

import importlib.util
import inspect
import math
import time
from pathlib import Path

import pytest

import finslerlab
from finslerlab import geodesics, make_metric
from finslerlab.jets import Jet

from conftest import (
    curved_riemannian_config,
    euclid_config,
    exact_randers_config,
    funk_config,
    klein_config,
    nonclosed_randers_config,
)

TRACING = Path(__file__).resolve().parent.parent / "finslerbench" / "tracing.py"

# the spans Tracer.per_layer reads: public functions, keyed by defining module
SPANS = (
    "metrics.fundamental_tensor",
    "metrics.invert_scalarlike_matrix",
    "ode.integrate_ivp",
    "geodesics.finsler_distance",
    "geodesics.spray_coefficients",
    "geodesics.spray_jet_functions",
    "curvature.riemann_curvature",
    "curvature.ricci_scalar",
    "curvature.ricci_tensor",
    "curvature.flag_curvature",
    "projective.canonical_projective_map",
    "projective.lemma2_check",
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("finslerbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_jet_methods_exist(tracing):
    assert [name for name in tracing.JET_METHODS if not callable(vars(Jet).get(name))] == []


def test_layers_are_modules(tracing):
    for layer in tracing.LAYERS:
        assert inspect.ismodule(getattr(finslerlab, layer))
    assert issubclass(finslerlab.errors.DomainExitError, Exception)


@pytest.mark.parametrize("key", SPANS)
def test_per_layer_spans_are_public_functions(tracing, key):
    layer, name = key.split(".")
    assert f'c["{key}"]' in inspect.getsource(tracing.Tracer.per_layer)
    fn = getattr(getattr(finslerlab, layer), name)
    assert inspect.isfunction(fn) and fn.__module__ == f"finslerlab.{layer}"


def test_shots_are_counted_through_the_geodesics_binding():
    # per_layer's shot count is the integrations made from the geodesics module
    assert finslerlab.geodesics.integrate_ivp is finslerlab.ode.integrate_ivp


@pytest.mark.parametrize(
    "config",
    [
        klein_config(2),
        funk_config(2),
        euclid_config(2),
        exact_randers_config(),
        {"family": "interval_funk", "dimension": 1},
    ],
    ids=lambda c: c["family"],
)
def test_structures_carry_the_wrapped_hooks(config):
    S = make_metric(config)
    assert callable(S.f2) and callable(S.spray_fast)


@pytest.mark.parametrize(
    "config", [curved_riemannian_config(), nonclosed_randers_config()], ids=lambda c: c["family"]
)
def test_generated_evaluators_call_the_inverse_through_the_metrics_module(monkeypatch, config):
    # Tracer.install counts metrics.inverse_calls by replacing this module
    # attribute, so the generated code must look it up there at call time
    S = make_metric(config)
    original = finslerlab.metrics.invert_scalarlike_matrix
    calls = []

    def counted(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(finslerlab.metrics, "invert_scalarlike_matrix", counted)
    x, y = [0.1, -0.2], [0.3, 0.7]
    S.spray_fast(*geodesics.phase_jet_args(S, x, y, 2, base_degree=1))
    assert len(calls) == 1
    S.geodesic_field(x + y)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "config, chord_nodes",
    [(klein_config(2), 0), (funk_config(2), 0), (klein_config(3), 0), (curved_riemannian_config(), 10)],
    ids=["klein2", "funk2", "klein3", "readme"],
)
def test_structure_wrappers_see_every_field_and_chord_call(monkeypatch, config, chord_nodes):
    # Wrappers installed on the structure's geodesic_field and float_F before
    # a distance, as the tracer installs them, see every right-hand-side call
    # the diagnostics report, and every F: the one of every direction
    # normalised, plus on a table the 10 Gauss-Legendre nodes of the chord
    # length; a chart family's chord length is its closed form and reads no F
    S = make_metric(config)
    calls = {"geodesic_field": 0, "float_F": 0, "normalisations": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)

        return counted

    for name in ("geodesic_field", "float_F"):
        monkeypatch.setattr(S, name, counting(name, getattr(S, name)))
    monkeypatch.setattr(geodesics, "_unit_against_F", counting("normalisations", geodesics._unit_against_F))
    n = S.dimension
    res = geodesics.finsler_distance(S, [0.1 * (i + 1) for i in range(n)], [-0.3] + [0.2] * (n - 1))
    assert res.diagnostics["rhs_calls"] == calls["geodesic_field"] > 0
    if chord_nodes == 0:
        assert calls["normalisations"] == 1 + res.diagnostics["shots"]  # the chord and each shot's start
    assert calls["float_F"] == chord_nodes + calls["normalisations"]


def test_a_long_state_builds_its_step_at_once():
    # past _UNROLL_MAX the generated step is one loop per stage, so its
    # source does not grow with the state: rows written out for m = 6000
    # took 6.4 s and about 250 MB to build
    m = 6000
    ode = finslerlab.ode
    ode._attempt.cache_clear()
    start = time.perf_counter()
    ode._attempt(m)
    assert time.perf_counter() - start < 1.0
    rates = [-1.0 - i / m for i in range(m)]
    traj = ode.integrate_ivp(
        lambda y: [r * v for r, v in zip(rates, y)], [1.0] * m, (0.0, 0.1), tolerance=1e-8
    )
    want = [math.exp(0.1 * r) for r in rates]
    assert max(abs(a - b) for a, b in zip(traj.states[-1].tolist(), want)) < 1e-8
