"""Machine-speed calibration, so timings are comparable across runs.

On a shared host (measured on a 2-vCPU Xeon VM at 2.0 GHz) the speed of
single-threaded code changes by 30% or more within seconds and by up to 2x
over minutes, while the process is not descheduled (its CPU time rises
with its wall time). A timing taken
alone then measures the host, not the program. The benchmark therefore
runs a fixed calibration for CAL_SECONDS right before and right after each
timed command and scales the command's wall time by how fast it ran:

    ref_seconds = wall * REF_ROUND_S / sqrt(round_before * round_after)

`ref_seconds` is the time the command would take on a machine that runs
one calibration round in REF_ROUND_S seconds (about the typical speed of a
2-vCPU Xeon VM at 2.0 GHz). The round does not call jgekd, so a change to
the program moves ref_seconds exactly as it moves wall time; only the
host's speed is divided out.

The round is single-threaded: integer arithmetic like PCG32, small objects
and dicts like the autodiff graph, and small numpy ops. In 5-7 minute logs
of each workload it tracked the host better than a round that also ran an
OpenBLAS matmul or wrote files, on every workload, robustness (whose
forward runs on OpenBLAS threads) included.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np

REF_ROUND_S = 0.0043
CAL_SECONDS = 0.5
CHILD_ROUNDS = 50
REF_CHILD_S = 0.4

_MASK64 = 0xFFFFFFFFFFFFFFFF
# A fixed operand; np.random is not imported, so the round adds next to
# nothing to the process's memory.
_ROWS = np.sin(np.arange(300 * 64, dtype=np.float64)).reshape(300, 64)


def _integers():
    state = 0x853C49E6748FEA9B
    out = 0
    for _ in range(3000):
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK64
        out ^= (((state >> 18) ^ state) >> 27) & 0xFFFFFFFF
    return out


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _objects():
    table = {}
    for i in range(3000):
        table[i & 63] = _Obj(i, table.get(i & 31))
    return len(table)


def _small_numpy():
    v = np.zeros(64)
    for row in _ROWS:
        v = v * 0.5 + row
    return v


KERNELS = (_integers, _objects, _small_numpy)


class Calibrator:
    """Runs calibration rounds for `seconds` and keeps every result."""

    def __init__(self, seconds=CAL_SECONDS):
        self.seconds = seconds
        self.last = None
        self.rounds: list[float] = []

    def measure(self) -> float:
        """Seconds per calibration round, averaged over `seconds`."""
        rounds = 0
        start = time.perf_counter()
        while True:
            for kernel in KERNELS:
                kernel()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= self.seconds:
                break
        self.last = elapsed / rounds
        self.rounds.append(self.last)
        return self.last


def ref_seconds(wall, before, after, ref=REF_ROUND_S) -> float:
    """Wall time rescaled to the reference machine speed, given the time of
    the calibration measured before and after it and its reference time."""
    return wall * ref / math.sqrt(before * after)


def reference_child_argv() -> list[str]:
    """A fresh interpreter that imports numpy and runs CHILD_ROUNDS rounds.

    Set-up runs in fresh interpreters, whose start-up (exec, imports, page
    faults) drifts with the host apart from the speed of the round itself,
    so set-up is rescaled by the wall time of this child run right before
    and right after it: ref_seconds(set-up wall, before, after, REF_CHILD_S).
    """
    return [sys.executable, os.path.abspath(__file__), str(CHILD_ROUNDS)]


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        for kernel in KERNELS:
            kernel()
