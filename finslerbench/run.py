"""finslerlab benchmark: one workload at one seed.

    python3 finslerbench/run.py --workload ball_theorem1 --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the run measures set-up in fresh
processes, then issues ops in a closed loop (one caller, the next op when the
previous returns) for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed list of ops twice, untraced and then traced,
and reports per-layer counts and self times per op; the spans go to
``.finslerbench/spans-<workload>.csv``.  Every op's output is checked.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# single-threaded numerics; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from calibrate import SHARE, SpeedProbe, local_scales  # noqa: E402
from tracing import Tracer, unit_of  # noqa: E402
from workloads import WORKLOADS, op_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".finslerbench"
SETUP_SAMPLES = 5
SETUP_SHARE = 0.2  # kernel time after each set-up phase, as a share of the phase
# Tail percentile per workload: the highest one that leaves at least ten ops
# beyond it in a run of 45 s at the speed this benchmark was defined at.  It is
# fixed so that runs stay comparable as the op count changes.
TAIL_PERCENTILE = {"ball_theorem1": 75, "randers_distance": 50, "curvature_survey": 95}


def require_sources() -> None:
    """Stop without a result unless this checkout holds the package sources."""
    if not (SRC / "finslerlab" / "__init__.py").is_file():
        sys.exit(f"finslerbench: no finslerlab sources under {SRC}")


def load_package():
    """Import finslerlab from this checkout's src/, or stop without a result."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import finslerlab

    if Path(finslerlab.__file__).resolve().parent != SRC / "finslerlab":
        sys.exit(f"finslerbench: imported finslerlab from {finslerlab.__file__}, not {SRC}")
    return finslerlab


def set_up(name: str, probe: SpeedProbe | None = None):
    """Import, build the structures, and run the untimed warm-up ops.

    With a probe, the reference kernel runs after each of the three phases.
    """

    def phase(step, *args):
        start = perf_counter()
        out = step(*args)
        if probe is not None:
            probe.sample(SETUP_SHARE * (perf_counter() - start))
        return out

    workload = WORKLOADS[name]()
    phase(workload.setup, phase(load_package))
    for check, err, tol in phase(workload.warm_up):
        if not err <= tol:
            sys.exit(f"finslerbench: warm-up check failed: {check} = {err:.3e} (tol {tol:.0e})")
    return workload


def measure_setup(name: str) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of SETUP_SAMPLES fresh processes that only set up.

    Each process reports its kernel timings: their total is taken off its
    wall time, and their mean gives its speed scale.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"]
    walls, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        wall = perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"finslerbench: set-up process exited with {proc.returncode}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        walls.append(wall - probe["kernel_s"])
        scaled.append(walls[-1] * SpeedProbe.scale_of(probe["samples"]))
    return walls, scaled


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tally:
    """Latencies, failures and the worst error of every check."""

    def __init__(self):
        self.latencies = []
        self.cpus = []
        self.failed = 0
        self.errors = {}  # exception type -> count
        self.worst = {}  # check -> (worst error, tolerance, misses)

    def attempt(self, workload, index: int, seed: int) -> None:
        cpu = cpu_seconds()
        start = perf_counter()
        try:
            checks = workload.run_op(index, seed)
        except Exception as exc:  # a raising op is a failed op, never a crash
            checks = None
            kind = type(exc).__name__
            if kind not in self.errors:
                traceback.print_exc()
            self.errors[kind] = self.errors.get(kind, 0) + 1
        self.latencies.append(perf_counter() - start)
        self.cpus.append(cpu_seconds() - cpu)
        if checks is None:
            self.failed += 1
            return
        ok = True
        for check, err, tol in checks:
            worst, _, misses = self.worst.get(check, (-math.inf, tol, 0))
            passed = err <= tol
            ok = ok and passed
            if math.isnan(err) or err > worst:  # a NaN error stays the worst
                worst = err
            self.worst[check] = (worst, tol, misses + (not passed))
        self.failed += not ok

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def print_checks(self) -> None:
        for check, (worst, tol, misses) in sorted(self.worst.items()):
            print(f"  check {check:<36} worst {worst:.2e}  tol {tol:.0e}  misses {misses}")
        for kind, count in sorted(self.errors.items()):
            print(f"  raised {kind}: {count}")


def percentile(sorted_values, pct: float):
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timed_run(args) -> dict:
    setup_walls, setup_scaled = measure_setup(args.workload)
    workload = set_up(args.workload)
    tally = Tally()
    probe = SpeedProbe()
    kernel_runs = []  # kernel timings after each op
    deadline = perf_counter() + args.seconds
    index = 0
    while perf_counter() < deadline:
        tally.attempt(workload, index, op_seed(args.seed, index))
        kernel_runs.append(probe.sample(SHARE * tally.latencies[-1]))
        index += 1

    n = tally.attempted
    ok = n - tally.failed
    pct = TAIL_PERCENTILE[args.workload]
    # sums take the run's speed scale; each op's latency takes its own
    run_scale = probe.scale()
    raw_lat = sorted(tally.latencies)
    lat = sorted(t * s for t, s in zip(tally.latencies, local_scales(kernel_runs)))
    tail, beyond = percentile(lat, pct)
    cpu = sum(tally.cpus)
    rows = {  # name: (value, raw value, unit)
        "ops_per_s": (ok / (sum(raw_lat) * run_scale), ok / sum(raw_lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), 1e3 * statistics.median(raw_lat), "ms"),
        "op_tail_ms": (1e3 * tail, 1e3 * percentile(raw_lat, pct)[0], "ms"),
        "cpu_per_op_ms": (1e3 * cpu * run_scale / n, 1e3 * cpu / n, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None, "MB"),
        "ok_ratio": (ok / n, None, "ratio"),
        "setup_s": (statistics.median(setup_scaled), statistics.median(setup_walls), "s"),
    }
    notes = {
        "op_p50_ms": f"median of {n} ops",
        "op_tail_ms": f"p{pct}, {beyond} ops beyond it" + ("" if beyond >= 10 else " (fewer than 10)"),
        "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
    }
    print(f"workload {args.workload}  seed {args.seed}  {n} ops  failed {tally.failed}  "
          f"failed_ratio {tally.failed / n:.4f}  speed scale {run_scale:.3f} "
          f"({len(probe.samples)} kernel runs)")
    print(f"  {'metric':<14} {'scaled':>12} {'raw':>12}")
    for name, (value, raw, unit) in rows.items():
        raw = " " * 12 if raw is None else f"{raw:12.4f}"
        print(f"  {name:<14} {value:12.4f} {raw} {unit:<5} {notes.get(name, '')}")
    tally.print_checks()
    return {"tally": tally, "metrics": {name: (row[0], row[2]) for name, row in rows.items()}}


def traced_run(args) -> dict:
    workload = set_up(args.workload)
    tally = Tally()
    ops = range(workload.trace_ops)
    start = perf_counter()
    for index in ops:
        tally.attempt(workload, index, op_seed(args.seed, index))
    plain = perf_counter() - start

    tracer = Tracer()
    tracer.install(workload.fl, workload.structures)
    start = perf_counter()
    for index in ops:
        tracer.op = index
        tally.attempt(workload, index, op_seed(args.seed, index))
    traced = perf_counter() - start

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.csv"
    tracer.write_spans(spans_path)
    per_layer = tracer.per_layer(len(ops), traced / plain)
    metrics = {name: (value, unit_of(name)) for name, value in per_layer.items()}
    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} ops traced  "
          f"{len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
    print(f"  tracing overhead: {traced:.2f} s traced / {plain:.2f} s untraced")
    for name, (value, _) in metrics.items():
        print(f"  {name:<34} {value:14.4f}")
    tally.print_checks()
    return {"tally": tally, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="set up, warm up and exit")
    args = ap.parse_args(argv)
    require_sources()
    if args.setup_only:
        probe = SpeedProbe()
        set_up(args.workload, probe)
        print(json.dumps({"kernel_s": probe.spent, "samples": probe.samples}))
        return 0
    result = traced_run(args) if args.trace else timed_run(args)
    tally = result["tally"]
    out = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
