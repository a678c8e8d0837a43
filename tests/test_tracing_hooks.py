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
