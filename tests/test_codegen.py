"""Generated code: every generated function names its source, and tracebacks show its lines."""

import gc
import linecache
import re
import traceback

import pytest

from finslerlab import EvaluationDomainError, geodesics, make_metric, ode, scalar

from conftest import curved_riemannian_config, euclid_config


def generated_sources() -> set:
    return {name for name in linecache.cache if name.startswith("<finslerlab ")}


class TestNamedSources:
    @pytest.mark.parametrize(
        "function, label",
        [
            (lambda request: request.getfixturevalue("klein2").geodesic_field, "klein_ball n=2"),
            (lambda request: request.getfixturevalue("funk3").float_F, "funk_ball n=3"),
            (lambda request: make_metric(curved_riemannian_config()).f2, "riemannian n=2"),
            (lambda request: ode._attempt(4), "dop853 attempt m=4"),
            (lambda request: ode._dense(6), "dop853 dense m=6"),
            (lambda request: geodesics._chord_integrand(2), "chord n=2"),
            (lambda request: scalar._qk21, "qk21"),
        ],
        ids=["chart", "chart_F", "per_config", "attempt", "dense", "chord", "qk21"],
    )
    def test_filename_names_the_site_and_its_size(self, request, function, label):
        held = function(request)  # a per-config source lives as long as a function compiled from it
        code = held.__code__
        assert re.fullmatch(rf"<finslerlab {label} #\d+>", code.co_filename)
        # the source is registered, so the first line is the function's own def
        assert linecache.getline(code.co_filename, code.co_firstlineno).lstrip().startswith(f"def {code.co_name}(")

    def test_each_compile_has_its_own_source(self):
        first, second = make_metric(euclid_config(2)), make_metric(euclid_config(2))
        assert first.f2.__code__.co_filename != second.f2.__code__.co_filename

    def test_traceback_shows_the_generated_line(self, klein2):
        with pytest.raises(EvaluationDomainError) as err:
            klein2.geodesic_field([1.0, 0.5, 1.0, 0.0])
        frame = traceback.extract_tb(err.value.__traceback__)[-1]
        assert frame.name == "geodesic_field"
        assert frame.filename.startswith("<finslerlab klein_ball n=2 #")
        assert frame.line == "if D <= 0.0: raise EvaluationDomainError(_OFF_CHART)"

    def test_per_config_sources_leave_linecache_with_their_structure(self):
        gc.collect()
        before = generated_sources()
        structures = [make_metric(euclid_config(2)) for _ in range(20)]
        live = {S.geodesic_field.__code__.co_filename for S in structures}
        assert len(live) == 20 and live <= generated_sources()
        del structures
        gc.collect()
        assert generated_sources() <= before

    def test_a_dropped_structure_frees_its_source_without_the_cycle_collector(self):
        gc.collect()
        before = generated_sources()
        gc.disable()
        try:
            structures = [make_metric(euclid_config(2)) for _ in range(20)]
            assert len(generated_sources() - before) == 20
            del structures
            assert generated_sources() <= before
        finally:
            gc.enable()
