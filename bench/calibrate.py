"""Calibration kernel for timing on a shared machine.

On a host shared with other tenants the speed of one core swings by 30 to
40 % within seconds, and a slow spell can last minutes, so it slows every
op of a 30 s run alike and no statistic over that run can remove it.  The
benchmark therefore times this fixed kernel (numpy and interpreter work,
like the ops) next to every timed op and every set-up, and scales each
time to the speed at which the kernel takes NOMINAL_S:

    calibrated = measured * NOMINAL_S / kernel time around it

The kernel does not call robinbec, so a change to the program moves the
measured time and not the scale.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.01
_X = np.linspace(0.0, 1.0, 50_000)


def kernel_s() -> float:
    """Wall time of one run of the kernel (about NOMINAL_S)."""
    t0 = time.perf_counter()
    for _ in range(60):
        np.exp(_X).sum()
    acc = 0
    for i in range(90_000):
        acc += i * i
    return time.perf_counter() - t0


def warm_up() -> float:
    """Run the kernel until its first-call costs are paid (the first two runs
    take up to twice as long); return the last time."""
    for _ in range(3):
        t = kernel_s()
    return t


def scale(kernel_before: float, kernel_after: float) -> float:
    """Factor that takes a time measured between two kernel runs to the
    nominal speed."""
    return 2.0 * NOMINAL_S / (kernel_before + kernel_after)
