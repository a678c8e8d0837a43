"""finslerlab command line: validation, tracing, curvature and distance reports.

Exit codes: 0 success, 2 validation failure, 3 domain or integration
failure, 4 precondition failure, 64 usage or parse error.  Every command is
deterministic for a fixed (config, seed) pair; JSON floats are serialized
with repr so reports round-trip exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import click
import numpy as np

from .curvature import (
    MAX_X_SAMPLES,
    einstein_classify,
    flag_curvature,
    ricci_scalar,
    ricci_tensor,
    riemann_curvature,
    scalar_curvature_residual,
)
from .errors import (
    ConfigError,
    DegenerateFlagError,
    DomainExitError,
    FinslerError,
    NotEinsteinError,
    StrongConvexityError,
)
from .geodesics import MAX_RESAMPLE_STEPS, finsler_distance, geodesic_ivp
from .metrics import fundamental_tensor, load_config, make_metric, validate_structure
from .projective import FunkGauge, projective_relation, pseudo_distance, theorem1_verify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4
EXIT_USAGE = 64


def _numpy_default(obj):
    """json.dumps hook for numpy arrays and scalars (np.float64 is a float already)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(text: str, out: str | None) -> None:
    """text to the file out, or to stdout when out is None or "-"; an unwritable file is an --out error."""
    if out and out != "-":
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OptionRangeError("--out", f"cannot be written: {exc}") from exc
    else:
        click.echo(text, nl=False)


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True, default=_numpy_default) + "\n", out)


def _fail(code: int, error: Exception, **extra) -> int:
    payload = {"error": type(error).__name__, "message": str(error)}
    payload.update(extra)
    click.echo(json.dumps(payload, indent=2, sort_keys=True, default=_numpy_default), err=True)
    return code


def _bad_option(option: str, message: str) -> int:
    """JSON usage error for an option value outside the command's range."""
    return _fail(EXIT_USAGE, ValueError(f"{option} {message}"), option=option)


class _OptionRangeError(Exception):
    """An option value outside its range, or an unwritable --out; main() reports it with _bad_option."""

    def __init__(self, option: str, message: str):
        super().__init__(f"{option} {message}")
        self.option = option
        self.message = message


def _in_range(test, message: str):
    """Click callback that rejects a given value for which test(value) is false."""

    def callback(ctx, param, value):
        if value is not None and not test(value):
            raise _OptionRangeError(param.opts[0], message)
        return value

    return callback


def _at_least(low: int):
    return _in_range(lambda v: v >= low, f"must be at least {low}")


def _between(low: int, high: int):
    """_at_least(low), then the refusal of a value above high with its own message."""
    at_least, at_most = _at_least(low), _in_range(lambda v: v <= high, f"must be at most {high}")
    return lambda ctx, param, value: at_most(ctx, param, at_least(ctx, param, value))


_POSITIVE = _in_range(lambda v: math.isfinite(v) and v > 0.0, "must be positive and finite")


def _load_structure(config_path: str):
    try:
        cfg = load_config(config_path)
    except (json.JSONDecodeError, OSError, ConfigError) as exc:
        raise _UsageExit(f"config error in {config_path}: {exc}") from exc
    return make_metric(cfg)


class _UsageExit(click.UsageError):
    pass


def _parse_vector(text: str, dim: int, what: str) -> np.ndarray:
    parts = text.replace(" ", "").split(",")
    if "" in parts:
        raise _UsageExit(f"{what} has an empty component, got {text!r}")
    try:
        vals = [float(v) for v in parts]
    except ValueError as exc:
        raise _UsageExit(f"{what} must be comma-separated floats, got {text!r}") from exc
    if len(vals) != dim:
        raise _UsageExit(f"{what} needs {dim} components, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise _UsageExit(f"{what} components must be finite, got {text!r}")
    return np.asarray(vals)


@click.group()
def cli() -> None:
    """Finsler geometry toolkit: metrics, geodesics, curvature, distances."""


@cli.group()
def metric() -> None:
    """Metric configuration commands."""


@metric.command("validate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--samples", default=100, show_default=True, callback=_at_least(1))
@click.option("--seed", default=0, show_default=True, callback=_at_least(0))
@click.option("--out", default=None)
def metric_validate(config_path, samples, seed, out) -> int:
    """Sample the defining axioms and report pass/fail per property."""
    try:
        S = _load_structure(config_path)
    except StrongConvexityError as exc:
        _emit(
            {
                "passed": False,
                "failures": [f"strong convexity: {exc}"],
                "samples": samples,
                "seed": seed,
            },
            out,
        )
        return EXIT_VALIDATION
    report = validate_structure(S, samples=samples, seed=seed)
    _emit(report.to_dict(), out)
    return EXIT_OK if report.passed else EXIT_VALIDATION


@cli.group()
def geodesic() -> None:
    """Geodesic tracing commands."""


@geodesic.command("trace")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--x0", required=True, help="start point, comma separated")
@click.option("--y0", required=True, help="start direction, comma separated")
@click.option(
    "--length",
    required=True,
    type=float,
    help="signed arc length",
    callback=_in_range(lambda v: math.isfinite(v) and v != 0.0, "must be finite and nonzero"),
)
@click.option("--step", default=None, type=float, help="resample spacing for the CSV", callback=_POSITIVE)
@click.option("--tolerance", default=1e-10, show_default=True, type=float, callback=_POSITIVE)
@click.option("--out", default="-", show_default=True)
def geodesic_trace(config_path, x0, y0, length, step, tolerance, out) -> int:
    """Integrate x'' + 2G(x, x') = 0 and write the trace as CSV."""
    if step is not None and abs(length) / step >= MAX_RESAMPLE_STEPS:
        return _bad_option("--step", f"must exceed |--length| / {MAX_RESAMPLE_STEPS}")
    S = _load_structure(config_path)
    x0v = _parse_vector(x0, S.dimension, "--x0")
    y0v = _parse_vector(y0, S.dimension, "--y0")
    geo = geodesic_ivp(S, x0v, y0v, length, tolerance=tolerance)
    buf = io.StringIO()
    if step is not None:
        geo.resample_csv(buf, step)
    else:
        geo.write_csv(buf)
    _write(buf.getvalue(), out)
    return EXIT_OK


@cli.group()
def curvature() -> None:
    """Curvature computations at a point."""


@curvature.command("report")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--x", required=True, help="base point, comma separated")
@click.option("--y", required=True, help="flagpole direction, comma separated")
@click.option("--u", default=None, help="transverse flag edge, comma separated")
@click.option("--out", default=None)
def curvature_report(config_path, x, y, u, out) -> int:
    """Riemann curvature, flag curvature and Ricci data at (x, y)."""
    S = _load_structure(config_path)
    xv = _parse_vector(x, S.dimension, "--x")
    yv = _parse_vector(y, S.dimension, "--y")
    R = riemann_curvature(S, xv, yv)
    ric = ricci_scalar(S, xv, yv)
    n = S.dimension
    payload = {
        "x": list(xv),
        "y": list(yv),
        "riemann_matrix": R.matrix,
        "flagpole_residual": R.flagpole_residual(),
        "ricci_scalar": ric,
        "ricci_tensor": ricci_tensor(S, xv, yv).ric_tensor,
    }
    if n >= 2:
        lam = ric / (n - 1.0)
        payload["scalar_shape_lambda"] = lam
        payload["scalar_shape_residual"] = scalar_curvature_residual(S, xv, yv, lam)
        uv = None if u is None else _parse_vector(u, n, "--u")
        payload["flag_edge"], payload["flag_curvature"] = _flag(S, xv, yv, uv)
    _emit(payload, out)
    return EXIT_OK


def _flag(S, x, y, u):
    """(u, K) of the flag (y; u).  Without u, u is the first coordinate axis that flag_curvature does
    not refuse; if it refuses every one, the g_y-orthogonal part of the axis at the widest g_y-angle to y."""
    if u is not None:
        return u, flag_curvature(S, x, y, u)
    axes = np.eye(S.dimension)
    for e in axes:
        with contextlib.suppress(DegenerateFlagError):
            return e, flag_curvature(S, x, y, e)
    ft = fundamental_tensor(S, x, y)
    e = min(axes, key=lambda a: ft.inner(y, a) ** 2 / ft.inner(a, a))
    u = e - ft.inner(y, e) / ft.inner(y, y) * y
    return u, flag_curvature(S, x, y, u)


@cli.group()
def einstein() -> None:
    """Einstein classification commands."""


@einstein.command("check")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--samples", default=10, show_default=True, callback=_between(2, MAX_X_SAMPLES))
@click.option(
    "--directions",
    default=12,
    show_default=True,
    callback=_in_range(lambda v: 8 <= v <= 16, "must lie between 8 and 16"),
)
@click.option("--seed", default=0, show_default=True, callback=_at_least(0))
@click.option("--out", default=None)
def einstein_check(config_path, samples, directions, seed, out) -> int:
    """Sample Ric and test for the normal form Ric_ij = -c^2 g_ij."""
    S = _load_structure(config_path)
    if S.dimension < 2:
        return _bad_option("--config", "needs dimension >= 2")
    report = einstein_classify(S, x_samples=samples, y_directions=directions, seed=seed)
    _emit(report.to_dict(), out)
    return EXIT_OK


@cli.command("distance")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--from", "from_", required=True, help="start point, comma separated")
@click.option("--to", required=True, help="end point, comma separated")
@click.option("--pseudo", is_flag=True, help="also bound the projective pseudo-distance")
@click.option("--funk-k", default=1.0, show_default=True, type=float, callback=_POSITIVE)
@click.option("--seed", default=0, show_default=True, callback=_at_least(0))
@click.option("--out", default=None)
def distance(config_path, from_, to, pseudo, funk_k, seed, out) -> int:
    """Ordered Finslerian distance d_F, optionally with the d_M bound."""
    S = _load_structure(config_path)
    p = _parse_vector(from_, S.dimension, "--from")
    q = _parse_vector(to, S.dimension, "--to")
    payload = {"from": list(p), "to": list(q), "seed": seed}
    if pseudo:
        if S.dimension < 2:
            return _bad_option("--pseudo", "needs dimension >= 2")
        gauge = FunkGauge(k=funk_k)
        result = pseudo_distance(S, p, q, gauge, seed=seed)
        payload["d_F"] = result.d_finsler
        payload["gauge_k"] = funk_k
        payload["d_M"] = result.canonical_length
        payload.update(result.to_dict())
        payload["einstein_c"] = result.einstein.einstein_constant_c
    else:
        result = finsler_distance(S, p, q, seed=seed)
        payload["d_F"] = result.distance
        payload["diagnostics"] = result.diagnostics
    _emit(payload, out)
    return EXIT_OK


@cli.group()
def theorem1() -> None:
    """Proportionality verification commands."""


@theorem1.command("verify")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--pairs", default=20, show_default=True, callback=_at_least(1))
@click.option("--seed", default=0, show_default=True, callback=_at_least(0))
@click.option("--tol", default=1e-4, show_default=True, type=float, callback=_POSITIVE)
@click.option("--funk-k", default=1.0, show_default=True, type=float, callback=_POSITIVE)
@click.option("--out", default=None)
def theorem1_verify_cmd(config_path, pairs, seed, tol, funk_k, out) -> int:
    """Check d_M = (2c / (sqrt(n-1) k)) d_F over random ordered pairs."""
    S = _load_structure(config_path)
    if S.dimension < 2:
        return _bad_option("--config", "needs dimension >= 2")
    gauge = FunkGauge(k=funk_k)
    try:
        report = theorem1_verify(S, gauge, pairs=pairs, seed=seed, tolerance=tol)
    except NotEinsteinError as exc:
        return _fail(
            EXIT_PRECONDITION,
            exc,
            detail="theoretical value unavailable without the Einstein normal form",
        )
    _emit(report.to_dict(), out)
    return EXIT_OK if report.passed else EXIT_VALIDATION


@cli.group()
def projective() -> None:
    """Projective comparison commands."""


@projective.command("compare")
@click.option("--config-a", "config_a", required=True, type=click.Path())
@click.option("--config-b", "config_b", required=True, type=click.Path())
@click.option("--samples", default=40, show_default=True, callback=_at_least(1))
@click.option("--seed", default=0, show_default=True, callback=_at_least(0))
@click.option("--out", default=None)
def projective_compare(config_a, config_b, samples, seed, out) -> int:
    """Spray comparison: same unparameterized geodesics? homothetic?"""
    A = _load_structure(config_a)
    B = _load_structure(config_b)
    if A.dimension != B.dimension:
        return _bad_option("--config-b", "must have the dimension of --config-a")
    report = projective_relation(A, B, samples=samples, seed=seed)
    _emit(report.to_dict(), out)
    return EXIT_OK


def main(argv=None) -> int:
    """Dispatch and translate exceptions into the documented exit codes."""
    try:
        # numpy's overflow and invalid-value warnings would put text ahead of
        # the JSON error on stderr; the errors themselves are still raised
        with np.errstate(all="ignore"):
            rv = cli.main(args=argv, standalone_mode=False)
        return int(rv) if isinstance(rv, int) else EXIT_OK
    except _OptionRangeError as exc:
        return _bad_option(exc.option, exc.message)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except NotEinsteinError as exc:
        return _fail(EXIT_PRECONDITION, exc)
    except StrongConvexityError as exc:
        return _fail(EXIT_VALIDATION, exc)
    except ConfigError as exc:
        click.echo(f"usage error: {exc}", err=True)
        return EXIT_USAGE
    except FinslerError as exc:
        extra = {}
        if isinstance(exc, DomainExitError) and exc.t_exit is not None:
            extra["exit_arc_length"] = exc.t_exit
        return _fail(EXIT_NUMERICAL, exc, **extra)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
