"""Reference measurements that track the machine's current speed.

The benchmark machine is shared: identical rounds of work take anywhere
from 1x to 2x as long depending on what else runs on it, in phases that
last from seconds to minutes. So each timing is measured alongside a fixed
reference and scaled to the reference's nominal time:

* operation timings against ``kernel``, timed every quarter second between
  operations: each operation is scaled by ``KERNEL_REF_S`` over the mean of
  the two kernel times around it;
* fresh-process timings (set-up, CLI calls) against ``time_startup``, a
  fresh interpreter importing numpy, timed after each one: each is scaled
  by ``STARTUP_REF_S`` over its startup time.

The figures are thus reported at the speed of a machine on which the
references take their nominal times. On 2 shared CPUs over 4 minutes,
18-second windows of one workload differed by up to 45% in raw round time
and by under 7% once scaled by the kernel.

The references are the benchmark's own code (interpreted complex arithmetic
and small numpy array operations, the two kinds of work the program does;
interpreter start-up and the numpy import). They do not touch
``polebounds``, so a change to the program cannot move them.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

#: Nominal kernel time: the scale at which scaled timings are reported.
KERNEL_REF_S = 0.015
#: Nominal time for a fresh interpreter to start and import numpy.
STARTUP_REF_S = 0.2


def kernel() -> float:
    s = 0.0
    z = 0.3 + 0.4j
    for _ in range(20_000):
        z = z * z * 0.5 + 0.1j
        s += abs(z) + math.atan2(z.imag, z.real + 1.5)
    a = np.linspace(0.0, 1.0, 2000) + 0j
    for _ in range(300):
        a = np.abs(a * 0.5 + 0.1j) + 0j
    return s + float(a.real.sum())


def time_kernel() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def time_startup(env) -> float:
    """Seconds a fresh interpreter takes to start and import numpy."""
    t0 = perf_counter()
    # Pipes make the wait event-driven; without them a timeout polls in 50 ms steps.
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60,
                   capture_output=True)
    return perf_counter() - t0


def scaled_latencies(latencies, window, kernel_times) -> list[float]:
    """Operation latencies at reference speed.

    Operation ``i`` ran between kernel timings ``window[i]`` and
    ``window[i] + 1``; their mean is the machine's speed at that moment.
    """
    factors = [2.0 * KERNEL_REF_S / (a + b) for a, b in zip(kernel_times, kernel_times[1:])]
    return [t * factors[w] for t, w in zip(latencies, window)]


def scaled_startups(times, startup_times) -> list[float]:
    """Fresh-process timings at reference speed, each against the startup timed after it."""
    return [t * STARTUP_REF_S / ref for t, ref in zip(times, startup_times)]
