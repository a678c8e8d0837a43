"""Command line surface: exit codes, JSON/CSV payloads, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finslerlab import cli, geodesics, make_metric, ode
from finslerlab.cli import main
from finslerlab.errors import DomainExitError, IterationLimitError, PoleError, StiffnessError

from conftest import (
    cross_term_config,
    curved_riemannian_config,
    curved_table_config,
    euclid_config,
    exact_randers_config,
    funk_config,
    indefinite_riemannian_config,
    klein_config,
    nonclosed_randers_config,
    overflowing_partial_config,
    randers3_config,
)

LN3 = math.log(3.0)


def poly_const(n, value):
    return [[value] + [0] * n]


def riemannian_config(g11):
    """A 2-D riemannian config with the given g11 polynomial, g22 = 1 and g12 = 0."""
    zero = poly_const(2, 0.0)
    return {
        "family": "riemannian",
        "dimension": 2,
        "riemannian": {"metric": [[g11, zero], [zero, poly_const(2, 1.0)]]},
    }


def randers_bad_config():
    n = 2
    metric = [
        [poly_const(n, 1.0 if i == j else 0.0) for j in range(n)] for i in range(n)
    ]
    one_form = [poly_const(n, 1.1), poly_const(n, 0.0)]
    return {
        "family": "randers",
        "dimension": n,
        "randers": {"metric": metric, "one_form": one_form},
    }


@pytest.fixture(scope="module")
def cfg(tmp_path_factory):
    d = tmp_path_factory.mktemp("configs")
    files = {
        "klein2": klein_config(2),
        "klein2x2": klein_config(2, scale=2.0),
        "klein3": klein_config(3),
        "funk2": funk_config(2),
        "euclid2": euclid_config(2),
        "curved": curved_riemannian_config(),
        "randers_bad": randers_bad_config(),
        "riemannian_bad": indefinite_riemannian_config(),
        "randers": exact_randers_config(),
        "randers_nc": nonclosed_randers_config(),
        "randers3": randers3_config(),
        "cross": cross_term_config(),
        "curved3": curved_table_config(3),
        "interval1": {"family": "interval_funk", "dimension": 1, "k": 1.0},
    }
    paths = {}
    for name, doc in files.items():
        p = d / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    bad = d / "bad.json"
    bad.write_text("{not valid json")
    paths["bad"] = str(bad)
    paths["dir"] = d
    return paths


def _reject_constant(name):
    raise ValueError(f"non-finite JSON token {name}")


def strict_json(text):
    """json.loads that rejects the bare NaN, Infinity and -Infinity tokens, which are not JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    """main(argv), then its exit code, stdout and stderr; every JSON payload must be strict JSON."""
    code = main(list(argv))
    captured = capsys.readouterr()
    for text in (captured.out, captured.err):
        if text.startswith("{"):
            strict_json(text)
    return code, captured.out, captured.err


class TestValidateCommand:
    def test_klein_passes(self, cfg, capsys):
        code, out, _ = run(capsys, "metric", "validate", "--config", cfg["klein2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["reversible_observed"] is True
        assert doc["reversible_declared"] is True

    def test_funk_is_irreversible(self, cfg, capsys):
        code, out, _ = run(capsys, "metric", "validate", "--config", cfg["funk2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["reversible_observed"] is False
        assert doc["reversible_declared"] is False

    @pytest.mark.parametrize(
        "b1", ["[[0.0, 0, 0]]", "[[0.0, 1, 0]]", "[[0.3, 1, 0], [-0.3, 1, 0]]"], ids=["constant", "monomial", "cancelling"]
    )
    def test_a_zero_one_form_is_declared_reversible(self, cfg, capsys, b1):
        path = cfg["dir"] / "zero_form.json"
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [[[0.0, 0, 0]], json.loads(b1)]
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "metric", "validate", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["reversible_observed"] is True
        assert doc["reversible_declared"] is True

    @pytest.mark.parametrize(
        "b1",
        [
            "[[0.1, 0, 0], [0.2, 0, 0], [-0.3, 0, 0]]",
            "[[1e-12, 0, 0]]",
            "[[1e-3, 0, 0]]",
            "[[1e16, 0, 0], [0.5, 0, 0], [-1e16, 0, 0]]",
        ],
        ids=["sums_to_2.8e-17", "1e-12", "1e-3", "sums_to_0.5_past_1e16"],
    )
    def test_a_small_nonzero_one_form_is_declared_and_observed_non_reversible(self, cfg, capsys, b1):
        path = cfg["dir"] / "small_form.json"
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [json.loads(b1), [[0.0, 0, 0]]]
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "metric", "validate", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["failures"] == []
        assert doc["reversible_observed"] is False
        assert doc["reversible_declared"] is False

    def test_a_form_of_float_sum_zero_and_exact_sum_one_exits_2(self, cfg, capsys):
        path = cfg["dir"] / "unit_form.json"
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [[[1e16, 0, 0], [1, 0, 0], [-1e16, 0, 0]], []]
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "metric", "validate", "--config", str(path))
        assert code == 2
        [failure] = json.loads(out)["failures"]
        assert failure.startswith("strong convexity: randers one-form too large") and failure.endswith("= 1.000000 >= 1")

    @pytest.mark.parametrize(
        "b1", ["[[1e308, 0, 0], [1e308, 0, 0]]", "[[1e308, 0, 0], [1e308, 0, 0], [-1e308, 0, 0]]"], ids=["inf", "finite"]
    )
    def test_like_terms_past_the_finite_floats_exit_64(self, cfg, capsys, b1):
        path = cfg["dir"] / "overflowing_form.json"
        doc = exact_randers_config()
        doc["randers"]["one_form"] = [json.loads(b1), []]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "metric", "validate", "--config", str(path))
        assert (code, out) == (64, "")
        assert err == f"usage error: config error in {path}: randers.one_form[0]: like terms sum beyond the finite floats\n"

    def test_convexity_failure_exits_2(self, cfg, capsys):
        code, out, _ = run(capsys, "metric", "validate", "--config", cfg["randers_bad"])
        assert code == 2
        doc = json.loads(out)
        assert doc["passed"] is False
        assert any("convexity" in msg for msg in doc["failures"])

    @pytest.mark.parametrize("family", ["klein_ball", "funk_ball"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("scale", ["1e307", "1e200", "1e154", "1e-300"])
    def test_extreme_scale_prints_strict_json_and_exits_2(self, cfg, capsys, family, n, scale):
        # F, F(x, lam y) or the Hessian is not finite at every sample: each is
        # a named failure, no field measures anything, and no reversibility
        # is reported or compared with the declared one
        path = cfg["dir"] / "extreme_scale.json"
        path.write_text(f'{{"family": "{family}", "dimension": {n}, "scale": {scale}}}')
        code, out, _ = run(capsys, "metric", "validate", "--config", str(path), "--samples", "20")
        assert code == 2
        doc = json.loads(out)
        assert doc["passed"] is False
        fields = ("homogeneity_residual", "min_hessian_eigenvalue", "euler_residual", "g_homogeneity_residual")
        assert [doc[name] for name in fields] == [None] * 4
        assert doc["reversible_observed"] is None
        failed = {failure.split(" at ")[0] for failure in doc["failures"]}
        assert failed <= {"F failed inside chart", "F not positive", "F(x, lam y) not finite"}
        assert not any("reversibility" in failure for failure in doc["failures"])

    def test_indefinite_riemannian_table_exits_2(self, cfg, capsys):
        code, out, _ = run(capsys, "metric", "validate", "--config", cfg["riemannian_bad"])
        assert code == 2
        doc = json.loads(out)
        assert doc["passed"] is False
        [failure] = doc["failures"]
        assert failure.startswith("strong convexity: riemannian coefficient matrix not positive definite")


class TestUsageErrors:
    def test_malformed_json_exits_64(self, cfg, capsys):
        code, _, err = run(capsys, "metric", "validate", "--config", cfg["bad"])
        assert code == 64
        assert "usage error" in err

    def test_non_finite_config_exits_64(self, cfg, capsys):
        path = cfg["dir"] / "nan_scale.json"
        path.write_text('{"family": "klein_ball", "dimension": 2, "scale": NaN}')
        argv = ("distance", "--config", str(path), "--from", "0,0", "--to", "0.5,0")
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert "scale must be a positive number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, argv, field",
        [
            ({"family": "klein_ball", "dimension": 2, "scale": True}, ("0,0", "0.5,0"), "scale"),
            ({"family": "interval_funk", "dimension": 1, "k": True}, ("0", "0.5"), "k"),
            ({"family": "interval_funk", "dimension": True}, ("0", "0.5"), "dimension"),
            (riemannian_config([[True, 0, 0]]), ("0,0", "0.5,0"), "riemannian.metric[0][0]: coefficient"),
            (riemannian_config([[1.0, 0, 0], [0.3, True, 0]]), ("0,0", "0.5,0"), "riemannian.metric[0][0]: exponents"),
        ],
        ids=["scale", "k", "dimension", "coefficient", "exponent"],
    )
    def test_boolean_config_number_exits_64(self, cfg, capsys, doc, argv, field):
        # JSON true is a Python bool, which is an int: it must not pass for 1
        path = cfg["dir"] / "boolean_number.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "distance", "--config", str(path), "--from", argv[0], "--to", argv[1])
        assert code == 64 and out == ""
        assert field in err
        assert "Traceback" not in err

    def test_asymmetric_table_exits_64(self, cfg, capsys):
        doc = riemannian_config(poly_const(2, 1.0))
        doc["riemannian"]["metric"][0][1] = poly_const(2, 0.1)
        path = cfg["dir"] / "asymmetric.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "metric", "validate", "--config", str(path))
        assert (code, out) == (64, "")
        assert err == "usage error: riemannian.metric must be symmetric: entry (0,1) differs\n"

    def test_missing_file_exits_64(self, cfg, capsys):
        code, _, err = run(
            capsys, "metric", "validate", "--config", str(cfg["dir"] / "nope.json")
        )
        assert code == 64
        assert "usage error" in err

    def test_unknown_option_exits_64(self, cfg, capsys):
        code, _, err = run(
            capsys, "metric", "validate", "--config", cfg["klein2"], "--nope"
        )
        assert code == 64

    def test_missing_required_option_exits_64(self, capsys):
        code, _, _ = run(capsys, "distance", "--from", "0,0", "--to", "0.5,0")
        assert code == 64

    def test_no_arguments_exits_64(self, capsys):
        code, _, _ = run(capsys)
        assert code == 64

    def test_bad_vector_exits_64(self, cfg, capsys):
        code, _, err = run(
            capsys,
            "distance",
            "--config",
            cfg["klein2"],
            "--from",
            "0,0",
            "--to",
            "0.5",
        )
        assert code == 64
        assert "components" in err

    VECTOR_COMMANDS = {
        "--from": ["distance", "--config", "klein2", "--to", "0.3,0.1"],
        "--x0": ["geodesic", "trace", "--config", "klein2", "--y0", "1,0", "--length", "0.3"],
        "--x": ["curvature", "report", "--config", "klein2", "--y", "1,0"],
    }

    @pytest.mark.parametrize("text", [",0.1,0.2", "0.1,,0.2", "0.1,0.2,"], ids=["leading", "doubled", "trailing"])
    @pytest.mark.parametrize("option", VECTOR_COMMANDS)
    def test_empty_vector_component_exits_64(self, cfg, capsys, option, text):
        argv = [cfg.get(a, a) for a in self.VECTOR_COMMANDS[option]]
        code, out, err = run(capsys, *argv, f"{option}={text}")
        assert code == 64 and out == ""
        assert f"{option} has an empty component" in err
        # spaces around the components are still ignored
        code, out, err = run(capsys, *argv, f"{option}= 0.1 , 0.2 ")
        assert code == 0 and err == ""


class TestNonFiniteVectors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["curvature", "report", "--config", "klein2", "--x", "nan,0", "--y", "1,0"],
            ["distance", "--config", "klein2", "--from", "0,0", "--to", "inf,0"],
        ],
        ids=["curvature-nan", "distance-inf"],
    )
    def test_exits_64(self, cfg, capsys, argv):
        code, out, err = run(capsys, *[cfg.get(a, a) for a in argv])
        assert code == 64
        assert out == ""
        assert "must be finite" in err


class TestOptionRanges:
    """Out-of-range option values exit 64 with a JSON error naming the option."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["theorem1", "verify", "--config", "klein2", "--pairs", "0"], "--pairs"),
            (["einstein", "check", "--config", "klein2", "--samples", "1"], "--samples"),
            (
                ["geodesic", "trace", "--config", "klein2", "--x0", "0,0", "--y0", "1,0",
                 "--length", "0.5", "--step", "0"],
                "--step",
            ),
            (
                ["geodesic", "trace", "--config", "klein2", "--x0", "0,0", "--y0", "1,0",
                 "--length", "0"],
                "--length",
            ),
            (["theorem1", "verify", "--config", "klein2", "--funk-k", "0"], "--funk-k"),
            (["einstein", "check", "--config", "interval1"], "--config"),
            (
                ["projective", "compare", "--config-a", "klein2", "--config-b", "interval1"],
                "--config-b",
            ),
            (["metric", "validate", "--config", "klein2", "--samples", "0"], "--samples"),
            (["einstein", "check", "--config", "klein2", "--seed", "-1"], "--seed"),
            (["theorem1", "verify", "--config", "klein2", "--seed", "-1"], "--seed"),
            (["metric", "validate", "--config", "klein2", "--seed", "-1"], "--seed"),
            (
                ["projective", "compare", "--config-a", "klein2", "--config-b", "funk2",
                 "--seed", "-1"],
                "--seed",
            ),
            (
                ["distance", "--config", "klein2", "--from", "0,0", "--to", "0.1,0", "--pseudo",
                 "--seed", "-1"],
                "--seed",
            ),
            (
                ["geodesic", "trace", "--config", "klein2", "--x0", "0,0", "--y0", "1,0",
                 "--length", "inf"],
                "--length",
            ),
            (
                ["geodesic", "trace", "--config", "klein2", "--x0", "0,0", "--y0", "1,0",
                 "--length", "0.5", "--step", "nan"],
                "--step",
            ),
            (
                ["geodesic", "trace", "--config", "klein2", "--x0", "0,0", "--y0", "1,0",
                 "--length", "0.5", "--tolerance", "inf"],
                "--tolerance",
            ),
            (["theorem1", "verify", "--config", "klein2", "--tol", "nan"], "--tol"),
            (["theorem1", "verify", "--config", "klein2", "--funk-k", "inf"], "--funk-k"),
            (["theorem1", "verify", "--config", "klein2", "--tol", "-1"], "--tol"),
            (
                ["distance", "--config", "interval1", "--from", "0", "--to", "0.5", "--pseudo"],
                "--pseudo",
            ),
            (
                ["geodesic", "trace", "--config", "klein2", "--x0", "0,0", "--y0", "1,0",
                 "--length", "1.2", "--step", "1e-6"],
                "--step",
            ),
        ],
    )
    def test_exits_64_with_json(self, cfg, capsys, argv, option):
        code, out, err = run(capsys, *[cfg.get(a, a) for a in argv])
        assert code == 64
        assert out == ""
        doc = json.loads(err)
        assert doc["option"] == option
        assert doc["message"].startswith(option)


class TestTraceCommand:
    def test_radial_trace_csv(self, cfg, capsys):
        length = repr(math.atanh(0.5))
        code, out, _ = run(
            capsys,
            "geodesic",
            "trace",
            "--config",
            cfg["klein2"],
            "--x0",
            "0,0",
            "--y0",
            "1,0",
            "--length",
            length,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["s", "x1", "x2", "y1", "y2", "F_residual"]
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        assert abs(data[0, 0]) == 0.0
        assert abs(data[-1, 1] - 0.5) <= 1e-8
        # unit-speed residual column stays tiny
        assert np.max(np.abs(data[:, 5])) <= 1e-8

    def test_resampled_trace_grid(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "geodesic",
            "trace",
            "--config",
            cfg["klein2"],
            "--x0",
            "0,0",
            "--y0",
            "1,0",
            "--length",
            "0.5",
            "--step",
            "0.1",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        svals = [float(r[0]) for r in rows[1:]]
        assert svals == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], abs=1e-12)

    @pytest.mark.parametrize("resample", [[], ["--step", "0.1"]], ids=["nodes", "step"])
    def test_backward_trace_reports_the_velocity(self, cfg, capsys, resample):
        # backward along the non-reversible Funk metric: the y columns are
        # dx/ds at unit speed, so F(x, y) = 1 and the first row is y0 / F(x0, y0)
        code, out, _ = run(
            capsys,
            "geodesic",
            "trace",
            "--config",
            cfg["funk2"],
            "--x0",
            "0.3,0",
            "--y0",
            "1,0",
            "--length",
            "-0.2",
            *resample,
        )
        assert code == 0
        data = np.array([[float(v) for v in row] for row in list(csv.reader(io.StringIO(out)))[1:]])
        assert np.max(np.abs(data[:, 5])) <= 1e-9
        x0, y0 = np.array([0.3, 0.0]), np.array([1.0, 0.0])
        assert np.array_equal(data[0, 3:5], y0 / float(make_metric(funk_config(2)).F(x0, y0)))

    def test_domain_exit_reports_arc_length(self, cfg, capsys):
        # tracing backwards through the Funk ball exits the chart at -ln 2
        code, _, err = run(
            capsys,
            "geodesic",
            "trace",
            "--config",
            cfg["funk2"],
            "--x0",
            "0,0",
            "--y0",
            "1,0",
            "--length",
            "-1.0",
        )
        assert code == 3
        doc = json.loads(err)
        assert doc["error"] == "DomainExitError"
        assert doc["exit_arc_length"] == pytest.approx(-math.log(2.0), abs=1e-6)

    def test_tolerance_below_the_float_range_exits_3(self, cfg, capsys, monkeypatch):
        # the starting step overflows to nan; the trace must end with exit 3,
        # and the right-hand side is capped so that a loop fails the test
        def bounded(rhs, *args, **kwargs):
            calls = []

            def limited(z):
                calls.append(1)
                if len(calls) > 10_000:
                    raise RuntimeError("the integration did not stop")
                return rhs(z)

            return ode.integrate_ivp(limited, *args, **kwargs)

        monkeypatch.setattr(geodesics, "integrate_ivp", bounded)
        code, out, err = run(
            capsys,
            "geodesic",
            "trace",
            "--config",
            cfg["klein2"],
            "--x0",
            "0,0",
            "--y0",
            "1,0",
            "--length",
            "-0.5",
            "--tolerance",
            "1e-300",
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "StiffnessError"

    @pytest.mark.parametrize("length", [12.0, 14.0, 20.0, 25.0])
    def test_radial_klein_trace_stops_when_unit_speed_is_lost(self, cfg, capsys, length):
        # |v| = 1 - |x|^2 = sech^2(s) falls below the error control's reach
        # past s = 12, and F(x, v) - 1 grows from 1e-6 to 1e2 by s = 25: the
        # trace must end with exit 3 at the first node past sqrt(tolerance)
        code, out, err = run(
            capsys,
            "geodesic",
            "trace",
            "--config",
            cfg["klein2"],
            "--x0",
            "0,0",
            "--y0",
            "1,0",
            "--length",
            repr(length),
        )
        if length == 12.0:
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))[1:]
            data = np.array([[float(v) for v in row] for row in rows])
            assert data[-1, 0] == 12.0
            assert np.max(np.abs(data[:, 5])) <= 1e-5
            return
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "DomainExitError"
        assert "unit-speed residual" in doc["message"]
        assert 12.0 < doc["exit_arc_length"] <= length


class TestCurvatureCommand:
    def test_klein_center_report(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "curvature",
            "report",
            "--config",
            cfg["klein2"],
            "--x",
            "0,0",
            "--y",
            "0.6,0.8",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {
            "riemann_matrix",
            "flagpole_residual",
            "ricci_scalar",
            "ricci_tensor",
            "scalar_shape_lambda",
            "scalar_shape_residual",
            "flag_curvature",
            "flag_edge",
        }
        y = np.array([0.6, 0.8])
        want = np.outer(y, y) - float(y @ y) * np.eye(2)
        assert np.max(np.abs(np.array(doc["riemann_matrix"]) - want)) <= 1e-9
        assert doc["ricci_scalar"] == pytest.approx(-1.0, abs=1e-9)
        assert doc["flag_curvature"] == pytest.approx(-1.0, abs=1e-9)
        assert doc["scalar_shape_lambda"] == pytest.approx(-1.0, abs=1e-9)
        assert doc["scalar_shape_residual"] <= 1e-9
        assert doc["flagpole_residual"] <= 1e-9

    def test_explicit_flag_edge(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "curvature",
            "report",
            "--config",
            cfg["funk2"],
            "--x",
            "0.2,0.1",
            "--y",
            "1,0",
            "--u",
            "0,1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["flag_edge"] == [0.0, 1.0]
        assert doc["flag_curvature"] == pytest.approx(-0.25, abs=1e-6)

    @pytest.mark.parametrize(
        "name, x, y, edge",
        [
            ("klein2", "0.1,0.2", "2,0", [0.0, 1.0]),
            ("klein3", "0.1,0.2,-0.3", "-0.5,0,0", [0.0, 1.0, 0.0]),
            ("klein2", "0.1,0.2", "1,0.001", [0.0, 1.0]),
            # radius 0.99999: both axes lie within the 1e-4 rule of y, so the edge
            # is the g_y-orthogonal part of e1
            ("klein2", "0.7070997101187356,0.7070997101187356", "1,1", [0.5, -0.5]),
        ],
    )
    def test_default_flag_edge_is_not_parallel_to_y(self, cfg, capsys, name, x, y, edge):
        code, out, _ = run(capsys, "curvature", "report", "--config", cfg[name], "--x", x, "--y", y)
        assert code == 0
        doc = json.loads(out)
        assert doc["flag_edge"] == edge
        assert doc["flag_curvature"] == pytest.approx(-1.0, abs=1e-9)

    # SHA-256 of the stdout of `finslerlab curvature report --config <name> --x
    # <x> --y <y>` at commit 6951925: y lies along the first axis, which the flag
    # refuses, so the default edge is the second axis
    EDGE_DIGESTS = {
        ("klein2", "0.1,0.1", "1,0"): "03c4df4581005d9fb7989be97ab12eb1bd0ead36bd8f381e2ac57dc29ec9e963",
        ("klein3", "0.1,0.1,0.1", "1,0,0"): "189b7ddfe29673c9523e3458b46c49676fcbe4199d911fd5dc5e6b29a6a403db",
    }

    @pytest.mark.parametrize("name, x, y", sorted(EDGE_DIGESTS))
    def test_default_edge_bytes_unchanged(self, cfg, capsys, name, x, y):
        code, out, _ = run(capsys, "curvature", "report", "--config", cfg[name], "--x", x, "--y", y)
        assert code == 0
        assert json.loads(out)["flag_edge"][:2] == [0.0, 1.0]
        assert hashlib.sha256(out.encode()).hexdigest() == self.EDGE_DIGESTS[name, x, y]

    def test_parallel_flag_edge_exits_3(self, cfg, capsys):
        code, _, err = run(
            capsys,
            "curvature",
            "report",
            "--config",
            cfg["klein2"],
            "--x",
            "0,0",
            "--y",
            "1,0",
            "--u",
            "2,0",
        )
        assert code == 3
        assert json.loads(err)["error"] == "DegenerateFlagError"

    def test_zero_flagpole_exits_3(self, cfg, capsys):
        code, _, err = run(
            capsys,
            "curvature",
            "report",
            "--config",
            cfg["klein2"],
            "--x",
            "0.1,0.2",
            "--y",
            "0,0",
        )
        assert code == 3
        assert json.loads(err)["error"] == "EvaluationDomainError"

    @pytest.mark.parametrize("name", ["funk2", "randers"])
    def test_tiny_flagpole_exits_3(self, cfg, capsys, name):
        # F^2 of a y this small underflows the jet sqrt's divisor c0 ** k to zero
        code, out, err = run(
            capsys, "curvature", "report", "--config", cfg[name], "--x", "0.1,0.2", "--y", "1e-120,0"
        )
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "EvaluationDomainError"
        assert payload["message"].startswith("jet series coefficients underflow at value ")
        assert "[" not in payload["message"]  # the failing column's value, not the batch


class TestEinsteinCommand:
    def test_klein_constant(self, cfg, capsys):
        code, out, _ = run(capsys, "einstein", "check", "--config", cfg["klein2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["is_einstein"] is True
        assert doc["einstein_constant_c"] == pytest.approx(1.0, abs=1e-4)

    def test_curved_metric_has_no_constant(self, cfg, capsys):
        code, out, _ = run(capsys, "einstein", "check", "--config", cfg["curved"])
        assert code == 0
        doc = json.loads(out)
        assert doc["einstein_constant_c"] is None

    # SHA-256 of the stdout of `finslerlab einstein check --config <name> --seed
    # <seed>` at commit 59a4851, where the classification evaluated its samples
    # point by point; the configs are this module's cfg files.  Taken both in
    # process through main() and from a subprocess, which agreed.
    DIGESTS = {
        ("klein2", 0): "414f44b62223ee2c5ef8a68bc929e1c1170c6c5f514002d86e036172331f6c34",
        ("klein2", 3): "30c29fa1c92db73b018228f72d2f6cdaf9fb3e9df19a285e955e12f25b1ad742",
        ("funk2", 0): "44781a603c53bd04c039f7510111c104f430fcc0759aeb2d497f998262dfa2b4",
        ("funk2", 3): "43930f32f9dc121695bcec530647e3c448c25a8a019e492fb187378c89546190",
        ("klein3", 0): "748459c7b38a3f1a9b5dfe36cdf94b986bd9c3832f094c806aa5f7d2684dc134",
        ("klein3", 3): "5af479d806d572b1c29a5fbdb8d8bbfa851bda3d154513d9ce52820ef6c4dd8d",
        ("curved", 0): "d69b9a2e44d28d0a52aff80b8fa0384263547befd6ece1064114850dcb20afec",
        ("curved", 3): "d188acb794ca6ca0839fca983465edbd2bbe8d2808c7a026a7025ee37588f09d",
        ("randers", 0): "a9d4bac6389cfc8a552a8037090854c5d2bbcfbd00e95aa098055e83166fb83f",
        ("randers", 3): "da9dc2444266a2e122a817746c4a54053c09aec20a63c280ab0d279ddeab9f3a",
    }

    @pytest.mark.parametrize("name, seed", sorted(DIGESTS))
    def test_output_bytes_unchanged(self, cfg, capsys, name, seed):
        code, out, _ = run(capsys, "einstein", "check", "--config", cfg[name], "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name, seed]

    def test_samples_above_the_cap_are_refused(self, cfg, capsys):
        # the cap keeps one classification's batch well inside memory;
        # without it, 3,000,000 samples under a 3 GB address-space limit
        # ended in a numpy allocation traceback
        cap = cli.MAX_X_SAMPLES
        for samples in (cap + 1, 10**12):
            code, out, err = run(capsys, "einstein", "check", "--config", cfg["klein2"], "--samples", str(samples))
            assert (code, out) == (64, "")
            doc = json.loads(err)
            assert (doc["option"], doc["message"]) == ("--samples", f"--samples must be at most {cap}")
        param = next(p for p in cli.einstein_check.params if p.name == "samples")
        assert param.callback(None, param, cap) == cap


class TestGeodesicLayerBytes:
    """Byte pins of the commands that integrate geodesics on the ball models.

    Each key is a command (distance, theorem1 verify or geodesic trace), a
    config name and its options; the value is the exit code and the SHA-256
    of stdout, or of the stderr JSON when the command exits 3.  The last
    case is the README metric's chart exit, at arc length 0.8475874292228314.
    """

    COMMANDS = {
        "distance": ("distance",),
        "theorem1": ("theorem1", "verify"),
        "trace": ("geodesic", "trace"),
    }
    DIGESTS = {
        ("distance", "klein2", "--from", "-0.2,0.3", "--to", "0.4,-0.1"): (
            0, "4335d443839bfd2338596a51f51094ad0a077f7bc475ca34874de5094920e289"
        ),
        ("distance", "klein2", "--from", "-0.2,0.3", "--to", "0.4,-0.1", "--pseudo"): (
            0, "0d890c540c6ce1269f4e8dc42e75d93411badbf01862bfdb001344e39f8edf8a"
        ),
        ("distance", "klein2", "--from", "0.99,0", "--to", "-0.3,0.9"): (
            0, "c4ee4c3f05923932a59f1eb85fba9825bda55bde4c2292a29c636e610a0e2158"
        ),
        ("distance", "klein2", "--from", "0.99,0", "--to", "-0.3,0.9", "--pseudo"): (
            0, "dc85c0da5161aee5a513ec74acce3e66e5d2c1ecc71081369a6e6ef5da5c6629"
        ),
        ("distance", "funk2", "--from", "-0.2,0.3", "--to", "0.4,-0.1"): (
            0, "c691e4e8203e75265791b3706a4839a06e65c1d827b3f0b10efa062d516f2484"
        ),
        ("distance", "funk2", "--from", "-0.2,0.3", "--to", "0.4,-0.1", "--pseudo"): (
            0, "37375fa041ee775d7cf7acfac8ec16966a5a441388be9dafa4d2a485f272a067"
        ),
        ("distance", "funk2", "--from", "0,0.98", "--to", "0.5,-0.3"): (
            0, "600225439387a2b6d539294d53e1632c68a2f47cdf19dcd2614a4b2b2d79ed57"
        ),
        ("distance", "funk2", "--from", "0,0.98", "--to", "0.5,-0.3", "--pseudo"): (
            0, "fa15b5c0f3942f7697baaef4c3e7b54eacc54eabfc3650ba8ca3265915d7206b"
        ),
        ("distance", "klein3", "--from", "0.1,-0.2,0.3", "--to", "-0.3,0.2,0.1"): (
            0, "960524b5aec4987d3a7cce833f5f9878afb095153d8afeaf20afd594225f3003"
        ),
        ("distance", "klein3", "--from", "0.1,-0.2,0.3", "--to", "-0.3,0.2,0.1", "--pseudo"): (
            0, "9c11d4b34fba9896aca92f3f2ccdcb097039bc642740b39fd0e5713293169747"
        ),
        ("distance", "klein3", "--from", "0.2,0.97,0", "--to", "-0.4,0,0.5"): (
            0, "d510b92d4008a85932a39ac5c68cf3636486d79a667aa055dd17143287a3aa09"
        ),
        ("distance", "klein3", "--from", "0.2,0.97,0", "--to", "-0.4,0,0.5", "--pseudo"): (
            0, "7444ce6a1d32fb86e61bcb61ed56de765fc5da8a70c92f5b6572a04653c5a873"
        ),
        ("theorem1", "klein2", "--pairs", "4", "--seed", "2"): (
            0, "dbd0c1448c5125e31c9feb53e8464d41c5d18c0bf3c2a63996df989b8412d585"
        ),
        ("theorem1", "funk2", "--pairs", "4", "--seed", "2"): (
            0, "50883a2b85fde845c89b0cb8c4a03c52e8bd5337ea948464154ae519bcc4dea0"
        ),
        ("theorem1", "klein3", "--pairs", "4", "--seed", "2"): (
            0, "4f284c954c8eba6d2d257b1bd9fa045acd4a4b5351f2dbefb53fb52ae5b39a00"
        ),
        ("trace", "klein2", "--x0", "0.1,-0.2", "--y0", "0.7,0.4", "--length", "1.2"): (
            0, "79a6fb246e09f63bde832b02ae5574e6e693b2f585b65b5f49a03c670e1813aa"
        ),
        ("trace", "klein2", "--x0", "0.2,0.1", "--y0", "0.3,-1", "--length", "-0.8", "--step", "0.1"): (
            0, "c510de3a158bcd27cf4c722e244821a5d3155b63c1b90d843892654f9afaab48"
        ),
        ("trace", "funk2", "--x0", "-0.3,0.2", "--y0", "1,0.5", "--length", "1.0", "--step", "0.25"): (
            0, "ac53539e7468747c4f4f229dd7fc69f7785976183a417e3f0af0a7667f32caf3"
        ),
        ("trace", "funk2", "--x0", "0.3,0", "--y0", "1,0.4", "--length", "-0.2"): (
            0, "523eaf87063aeb849ed371cdb7820407cce58cd1789e3668b0742d85ef8a53c7"
        ),
        ("trace", "curved", "--x0", "0.1,0.2", "--y0", "1,0.3", "--length", "3"): (
            3, "7642e4be84dd86d84af4efbd59d4660f973eea97c301b4d7c7be81e65cc91003"
        ),
        # the fan on a non-closed Randers form and on a 3-D curved table, and a
        # backward trace on the Randers form, taken at commit 03ddc42
        ("distance", "randers_nc", "--from", "-0.2,0.1", "--to", "0.3,0.25"): (
            0, "1a2e86358037f22ee6aef6f6431c624e01d68a2840c8f18172ae82a87402269f"
        ),
        ("distance", "curved3", "--from", "0.1,-0.2,0.3", "--to", "-0.3,0.2,0.1"): (
            0, "d79bb05d0d42be88d6c948b49405b89ce069cf9e052f557afafb0383f4d08a30"
        ),
        ("trace", "randers_nc", "--x0", "0.2,0.1", "--y0", "0.3,-1", "--length", "-0.8", "--step", "0.1"): (
            0, "4c36083bbf2940797c741eed86afae3066007a9b4373c7db3d6cc88970502e98"
        ),
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS), ids=" ".join)
    def test_output_bytes_unchanged(self, cfg, capsys, case):
        command, name, *options = case
        code, out, err = run(capsys, *self.COMMANDS[command], "--config", cfg[name], *options)
        want_code, digest = self.DIGESTS[case]
        assert code == want_code
        assert hashlib.sha256((out if code == 0 else err).encode()).hexdigest() == digest


class TestJetLayerBytes:
    """Byte pins of the commands that read F^2 and spray jets at single points.

    Each key is a command (curvature report, projective compare, metric
    validate or einstein check), its config names joined by "/" and its
    options; the value is the exit code and the SHA-256 of stdout, taken at
    commit 0d10b28 unless marked.
    curvature report reaches single-point jets through the scalar-curvature
    residual; klein2/funk2 at seed 7 has a sample whose spray inverse swaps
    pivot rows.
    """

    COMMANDS = {
        "curvature": (("curvature", "report"), ("--config",)),
        "compare": (("projective", "compare"), ("--config-a", "--config-b")),
        "validate": (("metric", "validate"), ("--config",)),
        "einstein": (("einstein", "check"), ("--config",)),
    }
    DIGESTS = {
        ("curvature", "klein2", "--x", "0.1,-0.2", "--y", "0.6,0.8"): (
            0, "1f8c2d14f5fce0c4b0ecb2bde9abd6aeda3dace8112013bdad4a6dee81892ab0"
        ),
        ("curvature", "klein3", "--x", "0.1,0.2,-0.3", "--y", "1,0.5,-0.2", "--u", "0,1,0"): (
            0, "c8c114c78fe3d3a822392de3c2780958b37439f8412e485142e96547cc60e186"
        ),
        ("curvature", "funk2", "--x", "-0.3,0.25", "--y", "0.4,-1"): (
            0, "7a7abcd6c4a937b10c507a5e7a37a17e2b2fc653504bbe034afa9a1c0cdd9ce2"
        ),
        ("curvature", "curved", "--x", "0.1,0.2", "--y", "1,0.3"): (
            0, "7b836810fb0bd7229024b3d00e816b97ccf610a0b52b74c46263c2659ebc95fc"
        ),
        ("curvature", "randers", "--x", "0.1,-0.1", "--y", "0.3,0.9", "--u", "1,0"): (
            0, "e8827b71ef9149e4c45ba22f3fbd5c7533d601b7d119412834d32c0ad69fbb54"
        ),
        ("curvature", "interval1", "--x", "0.3", "--y", "1"): (
            0, "97f62ce558b66fd7159e2ff6818d492fcedd6d0a91c02c1ef7624e2ac12325ab"
        ),
        ("compare", "klein2/funk2"): (
            0, "04febcd6c8758b5645354d5fc63d4ddd338903f018a813020d947b310d1abaeb"
        ),
        ("compare", "klein2/funk2", "--seed", "7"): (
            0, "4cac228c5e3d48eb131ed8e96700656ce06dcf72d11709c558ed095c3f51c7a2"
        ),
        ("compare", "funk2/klein2", "--seed", "3", "--samples", "15"): (
            0, "9d4f46f6b980d44ad14525c170fab82b1306bfcb938e73ec6f83cd4879ffb94e"
        ),
        ("compare", "klein2/klein2x2", "--seed", "1"): (
            0, "fa374fd884c69522cc67d160848e9177b639ef95725a6cbea0c5982614079852"
        ),
        ("compare", "klein2/curved"): (
            0, "742f0ff7ada349e44b156c8591e96bcafd9652fb6826a3ba7c1a5a79b90ebeec"
        ),
        ("compare", "euclid2/randers", "--seed", "2"): (
            0, "578fc140c2b55dd40ccce1734ff9d39ba0f114d4970a2d1110db35b819fb16db"
        ),
        ("compare", "klein3/klein3", "--seed", "5"): (
            0, "ef0ca0bb86c7f7dee26ba984dcfb42164dbe40fed2a99b38927464e601b56c41"
        ),
        ("compare", "interval1/interval1", "--samples", "10"): (
            0, "331adeea2ba2c3e70e6514744b376198873951e19e4b429f7f71392d3a2a8234"
        ),
        ("validate", "klein2"): (
            0, "c532c0b955d9688e116c1f66816057db6ad6e75522b6ce5f458ad0bc0cbc9235"
        ),
        ("validate", "klein3", "--samples", "30", "--seed", "4"): (
            0, "a9961182c61ae818b6ac8540794663473155d640c868666d859fbfefe8cbfa9d"
        ),
        ("validate", "funk2"): (
            0, "68c011ec9c3965992989dcd014842ed31af3bb0052308ea45776e270ad225d9f"
        ),
        ("validate", "curved", "--samples", "30", "--seed", "4"): (
            0, "6786c97c48ff53a9285fc105a88871d97c419c5337d49ff374a8e6da9c132fa7"
        ),
        ("validate", "randers", "--samples", "20"): (
            0, "c210628768cd40dfdc16112385f1f2cb3338306cf91aca577b88c38a8aaee791"
        ),
        ("validate", "interval1"): (
            0, "2afbea2e83210ad8149902dfc6b3d8d9d87a6ce2570dd7bc5c4732b6db78eb42"
        ),
        # a cross-term table, a 3-D Randers form and a Randers form against the
        # README metric, taken at commit 03ddc42
        ("einstein", "cross"): (
            0, "db12a2365dda3ba32010c267386b6d449c2073809169796a8c3bcbda2a14b577"
        ),
        ("curvature", "randers3", "--x", "0.1,-0.2,0.3", "--y", "1,0.5,-0.2", "--u", "0,1,0"): (
            0, "14b527cb4bf4115840a3eaf03e900c1922b6d95b7011a5b732aa8a42962733c8"
        ),
        ("compare", "curved/randers_nc"): (
            0, "aeeaccfa35dd11067d3812819cd711634d90e98565513157c3640133baffe550"
        ),
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS), ids=" ".join)
    def test_output_bytes_unchanged(self, cfg, capsys, case):
        command, names, *options = case
        argv, flags = self.COMMANDS[command]
        configs = [a for flag, name in zip(flags, names.split("/")) for a in (flag, cfg[name])]
        code, out, _ = run(capsys, *argv, *configs, *options)
        want_code, digest = self.DIGESTS[case]
        assert code == want_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDistanceCommand:
    def test_plain_distance(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "distance",
            "--config",
            cfg["klein2"],
            "--from",
            "0,0",
            "--to",
            "0.5,0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["d_F"] == pytest.approx(math.atanh(0.5), abs=1e-8)
        assert isinstance(doc["diagnostics"], dict)

    def test_pseudo_distance_payload(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "distance",
            "--config",
            cfg["klein2"],
            "--from",
            "0,0",
            "--to",
            "0.5,0",
            "--pseudo",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["gauge_k"] == 1.0
        assert doc["d_M"] == pytest.approx(LN3, abs=1e-8)
        assert doc["d_M"] == doc["canonical_length"]
        assert doc["theoretical"] == pytest.approx(LN3, abs=1e-8)
        assert doc["theoretical_available"] is True
        assert doc["einstein_c"] == pytest.approx(1.0, abs=1e-4)

    def test_pseudo_without_einstein_constant(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "distance",
            "--config",
            cfg["curved"],
            "--from",
            "-0.3,0.1",
            "--to",
            "0.4,-0.2",
            "--pseudo",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["theoretical"] is None
        assert doc["theoretical_available"] is False
        assert doc["einstein_c"] is None
        assert doc["d_M"] > 0.0

    # SHA-256 of the stdout of `finslerlab distance --config <name> --from
    # -0.3,0.1 --to 0.4,-0.2 --pseudo --seed <seed>` at commit 6951925.  Neither
    # metric is Einstein, so the leg is the numerically solved projective map.
    PSEUDO_DIGESTS = {
        ("curved", 0): "8cbb4dcd8dd8f1c146afeba6d420014b8c06fa1f344fcdbc0f234d32b9f49c60",
        ("curved", 1): "a8799b7661e88ddad8f4f6809da3a32b13854dda7ec83607a502a011a59e468f",
        ("randers_nc", 0): "4c6fd5cc8caad1b1291b05388882fe897aee00c95ae1b8d64b24c989d7d7a686",
        ("randers_nc", 1): "e0dfa9494e16177bcf7a5f6b720b5ce0f0f6c190697dd0ad483a3db1012bc8eb",
    }

    @pytest.mark.parametrize("name, seed", sorted(PSEUDO_DIGESTS))
    def test_numerical_map_bytes_unchanged(self, cfg, capsys, name, seed):
        argv = ["--from", "-0.3,0.1", "--to", "0.4,-0.2", "--pseudo", "--seed", str(seed)]
        code, out, err = run(capsys, "distance", "--config", cfg[name], *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["theoretical_available"] is False
        assert hashlib.sha256(out.encode()).hexdigest() == self.PSEUDO_DIGESTS[name, seed]


class TestTheoremCommand:
    def test_klein_verification(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "theorem1",
            "verify",
            "--config",
            cfg["klein2"],
            "--pairs",
            "2",
            "--seed",
            "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["passed"] is True
        assert doc["summary"]["factor"] == pytest.approx(2.0, abs=1e-6)
        assert len(doc["pairs"]) == 2

    def test_tiny_funk_k_passes_on_rounding(self, cfg, capsys):
        # the lemma-2 margin scales as 1/k: -1.2e-4 here, with a discrepancy of
        # 2e-16, is rounding against a bound of about 1e12
        code, out, _ = run(
            capsys, "theorem1", "verify", "--config", cfg["klein2"], "--pairs", "3", "--funk-k", "1e-12"
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["passed"] is True
        assert -1e-3 < summary["min_lemma2_margin"] < 0.0

    def test_non_einstein_exits_4(self, cfg, capsys):
        code, _, err = run(
            capsys,
            "theorem1",
            "verify",
            "--config",
            cfg["curved"],
            "--pairs",
            "2",
        )
        assert code == 4
        doc = json.loads(err)
        assert doc["error"] == "NotEinsteinError"
        assert "Einstein normal form" in doc["detail"]


class TestNumericalFailures:
    """Every library failure of a command reaches main() and exits 3 with JSON."""

    @pytest.mark.parametrize(
        "error, arc_length",
        [
            (StiffnessError("step size underflow at t = 0.5"), None),
            (IterationLimitError("integration exceeded 100000 steps"), None),
            (PoleError("u2 crossed zero"), None),
            (DomainExitError("integration left the domain near t = 0.25", t_exit=0.25), 0.25),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
    )
    def test_exits_3_with_error_name(self, cfg, capsys, monkeypatch, error, arc_length):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "finsler_distance", fail)
        code, out, err = run(
            capsys, "distance", "--config", cfg["klein2"], "--from", "0,0", "--to", "0.5,0"
        )
        assert code == 3
        assert out == ""
        want = {"error": type(error).__name__, "message": str(error)}
        if arc_length is not None:
            want["exit_arc_length"] = arc_length
        assert json.loads(err) == want

    @pytest.mark.parametrize(
        "doc, argv",
        [
            ({"family": "klein_ball", "dimension": 2, "scale": 1e300}, ("distance", "--from", "0,0", "--to", "0.5,0")),
            (
                {"family": "klein_ball", "dimension": 2, "scale": 1e200},
                ("distance", "--from", "0,0", "--to", "0.5,0", "--pseudo"),
            ),
            ({"family": "interval_funk", "dimension": 1, "k": 1e-300}, ("distance", "--from", "0", "--to", "0.5")),
            (
                {"family": "klein_ball", "dimension": 2, "scale": 1e300},
                ("geodesic", "trace", "--x0", "0,0", "--y0", "1,0", "--length", "0.5"),
            ),
            # the curvature commands read F^2 itself, which overflows at scale 1e200
            *[
                (doc, argv)
                for doc in (
                    {"family": "klein_ball", "dimension": 2, "scale": 1e200},
                    {**euclid_config(2), "scale": 1e200},
                )
                for argv in (
                    ("einstein", "check"),
                    ("curvature", "report", "--x", "0.1,0.2", "--y", "1,0.5", "--u", "0,1"),
                    ("curvature", "report", "--x", "0.1,0.2", "--y", "1,0.5"),
                )
            ],
        ],
        ids=["klein-scale-1e300", "klein-scale-1e200-pseudo", "interval-k-1e-300", "trace-klein-scale-1e300"]
        + [
            f"{cmd}-{name}-scale-1e200"
            for name in ("klein", "riemannian")
            for cmd in ("einstein", "curvature-u", "curvature")
        ],
    )
    def test_overflowing_F_exits_3(self, cfg, capsys, doc, argv):
        # finite config numbers whose F(x, y) overflows to inf at the start
        path = cfg["dir"] / "overflow.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print ahead of the JSON error
            code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "EvaluationDomainError"
        assert "F(x, y) = inf" in payload["message"]


    @pytest.mark.parametrize(
        "argv",
        [
            ("theorem1", "verify", "--pairs", "1"),
            ("distance", "--from", "0.1,0.2", "--to", "0.3,0.1", "--pseudo"),
            ("distance", "--from", "0.1,0.2", "--to", "0.1,0.2", "--pseudo"),
        ],
        ids=["theorem1", "pseudo", "pseudo-same-point"],
    )
    def test_tiny_funk_k_exits_3(self, cfg, capsys, argv):
        # a positive --funk-k so small that the gauge factor 2c / (sqrt(n-1) k) overflows
        code, out, err = run(capsys, *argv, "--config", cfg["klein2"], "--funk-k", "1e-320")
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "EvaluationDomainError"
        assert payload["message"] == "gauge factor 2c / (sqrt(n-1) k) = inf is not finite at gauge k = 1e-320"

    def test_overflowing_funk_distance_exits_3(self, cfg, capsys):
        # the factor 2 / k stays finite, the Funk distance of a long leg overflows
        code, out, err = run(
            capsys, "distance", "--config", cfg["klein2"], "--from=-0.8,0", "--to", "0.8,0.1",
            "--pseudo", "--funk-k", "1.2e-308",
        )
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == "Funk distance = inf is not finite at gauge k = 1.2e-308"

    def test_overflowing_partial_coefficient_exits_3(self, cfg, capsys):
        # g11 = 1 + 1e308 x2^2 has the x2-partial 2e308 x2 = inf x2, which the
        # generated source must bind: the field is not finite at the start
        path = cfg["dir"] / "overflowing_partial.json"
        path.write_text(json.dumps(overflowing_partial_config()))
        code, out, err = run(capsys, "distance", "--config", str(path), "--from", "0.1,0.2", "--to", "0.3,-0.1")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "EvaluationDomainError", "message": "rhs not finite at the initial state"}


class TestCompareCommand:
    def test_homothetic_pair(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "projective",
            "compare",
            "--config-a",
            cfg["klein2"],
            "--config-b",
            cfg["klein2x2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["related"] is True
        assert doc["homothetic"] is True
        assert doc["scale_ratio"] == pytest.approx(2.0, abs=1e-10)

    def test_related_not_homothetic(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "projective",
            "compare",
            "--config-a",
            cfg["klein2"],
            "--config-b",
            cfg["funk2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["related"] is True
        assert doc["homothetic"] is False

    def test_unrelated_pair(self, cfg, capsys):
        code, out, _ = run(
            capsys,
            "projective",
            "compare",
            "--config-a",
            cfg["klein2"],
            "--config-b",
            cfg["curved"],
        )
        assert code == 0
        assert json.loads(out)["related"] is False


class TestOutputFiles:
    def test_out_file_and_repeatability(self, cfg, capsys, tmp_path):
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        for f in (f1, f2):
            code, out, _ = run(
                capsys,
                "distance",
                "--config",
                cfg["klein2"],
                "--from",
                "0,0",
                "--to",
                "0.5,0",
                "--out",
                str(f),
            )
            assert code == 0
            assert out == ""
        assert f1.read_bytes() == f2.read_bytes()
        doc = json.loads(f1.read_text())
        assert doc["d_F"] == pytest.approx(math.atanh(0.5), abs=1e-8)

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["einstein", "check", "--config", "klein2", "--samples", "2"],
            ["geodesic", "trace", "--config", "klein2", "--x0", "0,0", "--y0", "1,0", "--length", "0.3"],
        ],
        ids=["einstein", "trace"],
    )
    def test_unwritable_out_exits_64(self, cfg, capsys, tmp_path, argv, target):
        out_path = tmp_path if target == "directory" else tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *[cfg.get(a, a) for a in argv], "--out", str(out_path))
        assert code == 64 and out == ""
        doc = json.loads(err)
        assert doc["option"] == "--out"
        assert doc["message"].startswith("--out cannot be written: ")
        assert str(out_path) in doc["message"]


# ----- the exit-code contract under random invocations ------------------------

FAMILY_CONFIGS = ("klein2", "funk2", "curved", "randers", "interval1")
DIMENSION = {"interval1": 1}
EXIT_CODES = {0, 2, 3, 4, 64}
# Radii of drawn points, up to 1e-9 from the boundary of the unit-ball chart.
RADII = (0.0, 0.3, 0.6, 0.95, 1.0 - 1e-6, 1.0 - 1e-9)
NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def vectors(draw, dim, radii=RADII):
    """A point or direction: random, zero, or with a non-finite component."""
    kind = draw(st.sampled_from(("random", "random", "random", "zero", "non-finite")))
    if kind == "zero":
        return [0.0] * dim
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    norm = float(np.linalg.norm(v))
    unit = v / norm if norm > 1e-3 else np.eye(dim)[0]
    v = [float(c) for c in draw(st.sampled_from(radii)) * unit]
    if kind == "non-finite":
        v[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(NON_FINITE))
    return v


def _text(v):
    return ",".join(repr(c) for c in v)


@st.composite
def invocations(draw):
    """argv over every command and the five metric families."""
    config = draw(st.sampled_from(FAMILY_CONFIGS))
    dim = DIMENSION.get(config, 2)
    seed = str(draw(st.integers(-2, 50)))
    command = draw(
        st.sampled_from(("validate", "trace", "curvature", "einstein", "distance", "theorem1", "compare"))
    )
    if command == "validate":
        return ["metric", "validate", "--config", config, "--samples", "2", "--seed", seed]
    if command == "trace":
        y0 = draw(vectors(dim))
        length = draw(st.sampled_from((0.3, -0.2, 2.0) + NON_FINITE))
        return ["geodesic", "trace", "--config", config, "--x0", _text(draw(vectors(dim))),
                "--y0", _text(y0), "--length", repr(length), "--step", "0.1"]
    if command == "curvature":
        y = draw(vectors(dim))
        argv = ["curvature", "report", "--config", config, "--x", _text(draw(vectors(dim))),
                "--y", _text(y)]
        if draw(st.booleans()):
            # a drawn edge, or one parallel to the flagpole
            u = [2.0 * c for c in y] if draw(st.booleans()) else draw(vectors(dim))
            argv += ["--u", _text(u)]
        return argv
    if command == "einstein":
        return ["einstein", "check", "--config", config, "--samples", "2", "--seed", seed]
    if command == "distance":
        # An endpoint near the boundary costs seconds before its search fails
        # (exit 3), so distances stay in the interior.
        inner = (0.0, 0.3, 0.6)
        argv = ["distance", "--config", config, "--from", _text(draw(vectors(dim, inner))),
                "--to", _text(draw(vectors(dim, inner))), "--seed", seed]
        if config in ("klein2", "funk2") and draw(st.booleans()):
            argv += ["--pseudo", "--funk-k", repr(draw(st.sampled_from((1.0, 0.5) + NON_FINITE)))]
        return argv
    if command == "theorem1":
        tol = draw(st.sampled_from((1e-4, 1e-3) + NON_FINITE))
        return ["theorem1", "verify", "--config", config, "--pairs", "1", "--seed", seed,
                "--tol", repr(tol)]
    other = draw(st.sampled_from(FAMILY_CONFIGS))
    return ["projective", "compare", "--config-a", config, "--config-b", other,
            "--samples", "2", "--seed", seed]


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=invocations())
def test_every_invocation_keeps_the_exit_code_contract(cfg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cfg.get(a, a) for a in argv])
    assert code in EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        if err.getvalue().startswith("{"):
            strict_json(err.getvalue())
        return
    if argv[:2] == ["geodesic", "trace"]:
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert len(rows) > 1
        assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)
    else:
        strict_json(out.getvalue())
