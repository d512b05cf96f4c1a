"""A fixed reference workload that measures how fast the machine is now.

The benchmark's host shares its cores with other tenants.  Its speed
swings by 30-60% within seconds and stays slow or fast for minutes.  The
probe does a fixed amount of the same kinds of work the simulator does:
bilinear height samples through ``ndarray.item``, a neighbour sweep over
a grid, ``%.9g`` formatting and small-object churn.  The code belongs to
the benchmark, so a change to the program never changes the probe.  A
timing multiplied by ``REFERENCE_PROBE_S / probe()``, with the probe run
next to it, reads as seconds on the machine at its reference speed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

# probe() on the benchmark host (2 vCPU Xeon at 2.1 GHz) in a fast spell.
REFERENCE_PROBE_S = 0.005

_SIZE = 288
_rng = random.Random(20010426)
_GRID = np.array([[_rng.uniform(-0.1, 0.1) for _ in range(_SIZE)]
                  for _ in range(_SIZE)])
_POINTS = [(_rng.uniform(0.0, _SIZE - 1.0), _rng.uniform(0.0, _SIZE - 1.0))
           for _ in range(1500)]


@dataclass
class _Row:
    x: float
    y: float
    value: float


def _sample(grid: np.ndarray, x: float, y: float) -> float:
    rows, cols = grid.shape
    j0 = min(max(int(math.floor(x)), 0), cols - 1)
    i0 = min(max(int(math.floor(y)), 0), rows - 1)
    j1 = min(j0 + 1, cols - 1)
    i1 = min(i0 + 1, rows - 1)
    tx = min(max(x - j0, 0.0), 1.0)
    ty = min(max(y - i0, 0.0), 1.0)
    top = grid.item(i0, j0) * (1.0 - tx) + grid.item(i0, j1) * tx
    bot = grid.item(i1, j0) * (1.0 - tx) + grid.item(i1, j1) * tx
    return top * (1.0 - ty) + bot * ty


def _work() -> float:
    grid = _GRID
    rows = [_Row(x, y, _sample(grid, x, y)) for x, y in _POINTS]
    total = sum(r.value for r in rows)
    tan_limit = math.tan(math.radians(34.0))
    for i in range(1, 20):
        for j in range(1, 20):
            h = grid[i, j]
            for di, dj in ((-1, 0), (0, 1), (1, 0), (0, -1)):
                if h - grid[i + di, j + dj] > tan_limit * 0.01:
                    total += 1.0
    text = ",".join(f"{float(v):.9g}" for v in grid[:2].ravel())
    return total + len(text)


def probe() -> float:
    """Seconds for one run of the fixed reference work (about 5 ms)."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
