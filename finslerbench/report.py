"""Print every end-to-end metric of every workload, with its unit.

    python3 finslerbench/report.py --seed 0 --seconds 45

Runs ``run.py`` once per workload, untraced, from the checkout root and
prints its report: each metric by name and unit, the op count behind the
median and the tail percentile with the ops beyond it, the failed ratio, and
the worst error of every check next to its tolerance.  Exits 1 if a run
fails or any op fails its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    args = ap.parse_args(argv)
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parent.parent)
        if proc.returncode != 0:
            print(f"workload {name}: run failed with exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        ok = ok and json.loads(last)["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
