"""Reference kernel that measures how fast the machine ran during a run.

The benchmark runs on machines whose cores are shared with other tenants.
On the 2-core sandbox it was defined on, the same fixed set-up work took
1.35 s in one run and 2.5 s in another a minute earlier, and a 4 ms kernel
ran at about half speed in a quarter of its samples, in bursts of 10-300 ms.
Spreads like that swamp any change to the program.

So the benchmark runs this fixed kernel, which does not touch finslerlab,
after every op for about ``SHARE`` of the op's time, and scales times by
``REFERENCE_S / mean kernel time``: a time is reported as it would read at
the speed at which the kernel takes ``REFERENCE_S``, its uncontended time on
that sandbox.  Sums over the run (throughput, CPU per op) take the mean over
all kernel runs, which are spread in proportion to op time.  Each op's
latency takes the mean over the kernel runs after the ``WINDOW`` ops before
it, itself and the ``WINDOW`` ops after it, before percentiles are taken:
on ``curvature_survey`` over five seeds, the quartile spread of the p90
latency was 13 % of its median with the run's mean and 4 % with this one.  A set-up process scales by the kernel
runs after its own phases.  A program change leaves the kernel alone, so the
scale cancels the machine's drift and keeps the program's own speed-up or
slow-down.  The raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 3.75e-3  # uncontended kernel time, Python 3.11.7, numpy 2.4
SHARE = 0.05
WINDOW = 2


def kernel() -> float:
    """Fixed interpreter and small-array work: 300 RK4 steps of a 4-state ODE."""

    def f(z):
        return np.array([z[1], -z[0] - 0.1 * z[1] * z[1], z[3], -z[2] + 0.05 * z[0]])

    y = np.array([1.0, 0.0, 0.5, 0.2])
    h = 1e-3
    acc = 0.0
    for i in range(300):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc += float(y[0]) + i % 7
    return acc


class SpeedProbe:
    """Kernel timings taken during a run, and the total time spent on them."""

    def __init__(self):
        start = perf_counter()
        kernel()  # the first call pays for lazy set-up and is not a sample
        self.spent = perf_counter() - start
        self.samples = []

    def sample(self, seconds: float) -> list[float]:
        """Run the kernel at least once and until `seconds` are spent; return the new timings."""
        new = []
        spent = 0.0
        while not new or spent < seconds:
            start = perf_counter()
            kernel()
            new.append(perf_counter() - start)
            spent += new[-1]
        self.samples.extend(new)
        self.spent += spent
        return new

    def scale(self) -> float:
        """Factor that takes a time measured during these samples to reference speed."""
        return self.scale_of(self.samples)

    @staticmethod
    def scale_of(samples) -> float:
        return REFERENCE_S / statistics.fmean(samples)


def local_scales(per_op: list[list[float]]) -> list[float]:
    """Scale of each op, from the kernel runs after it and its WINDOW neighbours."""
    scales = []
    for i in range(len(per_op)):
        near = per_op[max(0, i - WINDOW): i + WINDOW + 1]
        scales.append(SpeedProbe.scale_of([t for op in near for t in op]))
    return scales
