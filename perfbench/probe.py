"""Calibration probes: fixed tasks timed next to every measurement.

On a shared machine the speed of one core drifts by tens of percent over
tens of seconds, as neighbours load the host.  A probe does a fixed amount of
work of the same kind as the measured task, so its time follows the drift:

* the compute probe does exact rational arithmetic in the interpreter and
  small dense numpy linear algebra, like the program's invocations;
* the start-up probe starts a fresh interpreter and imports numpy, like the
  program's set-up.

A measured time ``t`` is reported as ``t * ref / probe``: seconds on a machine
on which the probe takes its nominal time ``ref``.  The probes are part of the
benchmark and never change with the program under test.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# Nominal probe times, in seconds: the scales of the calibrated times.
COMPUTE_REF_S = 0.1
STARTUP_REF_S = 0.15

PY_STEPS = 20000
NP_STEPS = 5000
STARTUP_CHILD = "import numpy\nprint('ready', flush=True)\n"


def _python_part() -> Fraction:
    acc = Fraction(0)
    buckets: dict = {}
    for i in range(1, PY_STEPS):
        acc += Fraction(i % 97 - 48, i % 13 + 1)
        buckets[i % 101] = buckets.get(i % 101, 0) + i
    return acc + len(buckets)


def _numpy_part() -> float:
    import numpy as np  # on first use, after the benchmark caps the BLAS pools

    A = np.random.default_rng(20240114).standard_normal((6, 6))
    S = A + A.T
    total = 0.0
    for _ in range(NP_STEPS):
        M = S @ A
        total += np.linalg.eigvalsh(S)[0] + np.einsum("ij,jk->ik", M, A)[0, 0]
    return total


def compute_probe() -> float:
    """Wall time of the fixed compute task."""
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - start


def time_to_ready(argv: list) -> float:
    """Seconds from starting ``argv`` until it prints ``ready``; waits for its exit."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{argv[:2]} failed with exit code {proc.returncode}")
    return elapsed


def startup_probe() -> float:
    """Seconds for a fresh interpreter to import numpy."""
    return time_to_ready([sys.executable, "-c", STARTUP_CHILD])


class Clock:
    """Calibrated timing: each invocation time is bracketed by two compute probes."""

    def __init__(self):
        self.last = compute_probe()
        self.probes: list = [self.last]

    def calibrate(self, seconds: float) -> float:
        after = compute_probe()
        value = seconds * COMPUTE_REF_S / (0.5 * (self.last + after))
        self.last = after
        self.probes.append(after)
        return value


def calibrate_startup(seconds: float) -> float:
    """Rescale a set-up time by a start-up probe taken right after it."""
    return seconds * STARTUP_REF_S / startup_probe()
