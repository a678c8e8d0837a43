"""Self-check of the benchmark: repeatable traces, and a second seed passes.

    python3 finslerbench/selfcheck.py --seed 0 --second-seed 1 --seconds 10

For every workload:

1. two traced runs at ``--seed`` must report identical per-layer counts
   (self times and the tracing overhead are timings and may differ);
2. an untraced run at ``--second-seed`` must pass every correctness check.

Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import unit_of
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parent.parent, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if unit_of(name) != "s" and name != "trace.overhead_ratio"
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--second-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    ok = True
    for name in WORKLOADS:
        first, second = (run(name, args.seed, args.seconds, 1) for _ in range(2))
        a, b = counts(first), counts(second)
        differ = sorted(k for k in a if a[k] != b[k])
        repeat = first["correct"] and second["correct"] and not differ
        print(f"{name}: {len(a)} per-layer counts at seed {args.seed} "
              + ("identical across two traced runs" if not differ else f"differ: {differ}"))
        other = run(name, args.second_seed, args.seconds, 0)
        print(f"{name}: seed {args.second_seed}: {other['attempted']} ops, {other['failed']} failed")
        ok = ok and repeat and other["correct"]
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
