"""A speed probe: measures how fast one CPU of the host runs while hcgame runs on it.

    python3 perfbench/speedprobe.py CPU

On a shared host the same program runs up to a third faster or slower from
one second to the next, and each CPU at its own speed.  run.py starts this
program on each CPU a pass may use, pinned there at the lowest priority, so
that it takes about 1.5% of the CPU and runs in short slices all through the
pass, at the speed the pass sees.  It does small fixed units of work until
SIGTERM, then prints the units it finished and the CPU seconds they took;
run.py scales the pass's times by that time per unit.  A change in host
speed cancels out while a change in hcgame does not: nothing here imports
hcgame.  A unit is a mix like hcgame's own work: a pure-Python loop over a
dict and integers, numpy calls on small complex matrices, and exact
fractions.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from fractions import Fraction

import numpy as np

PYTHON_ROUNDS = 150
NUMPY_ROUNDS = 15
FRACTIONS = 120


def unit(matrix: np.ndarray, vector: np.ndarray) -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(PYTHON_ROUNDS):
        table[(i * 7) % 1013] = table.get((i * 3) % 1013, 0) + i
        total += sum(1 for bit in range(8) if (i >> bit) & 1)
    for _ in range(NUMPY_ROUNDS):
        matrix = matrix @ matrix
        matrix /= np.abs(matrix).max()
        total += int(np.kron(vector[:4], vector[4:]).sum() > 0)
    exact = Fraction(0)
    for i in range(1, FRACTIONS):
        exact += Fraction(1, i % 97 + 1)
    return total + exact.denominator % 2


def main(argv: list[str]) -> None:
    os.sched_setaffinity(0, {int(argv[0])})
    os.nice(19)
    stopped = False

    def stop(signum, frame) -> None:
        nonlocal stopped
        stopped = True

    signal.signal(signal.SIGTERM, stop)
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    vector = rng.standard_normal(8)
    unit(matrix, vector)  # warms caches and numpy's dispatch
    print("ready", flush=True)
    units, start = 0, time.process_time()
    done = start
    while not stopped:
        unit(matrix, vector)
        units, done = units + 1, time.process_time()
    print(units, done - start, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
