"""Host-speed calibration for the end-to-end timings.

On a shared host the same CPU-bound operation can run up to 2x slower
for tens of seconds at a time.  Each timed operation is therefore
bracketed by a short fixed calibration kernel of the same kind of work,
and its time is reported at the reference speed :data:`REFERENCE_S`:
``reported = measured / slowness`` with ``slowness = kernel seconds now
/ REFERENCE_S``.

The kernels are the benchmark's own code, so a change to the program
never moves them.
"""

from __future__ import annotations

import collections
import time

import numpy as np

#: Median kernel seconds (fastest of 3) over 40 samples on the two-core
#: host the benchmark was defined on.  A fixed unit: changing it
#: rescales every calibrated timing, so never change it between commits
#: that are compared.
REFERENCE_S = {"python": 0.00339, "numpy": 0.0135}

_GRID = 40
_BLOCKED = frozenset((r, c) for r in range(_GRID) for c in range(_GRID)
                     if (7 * r + 3 * c) % 5 == 0)
_RNG = np.random.default_rng(0)
_KEYS = _RNG.integers(0, 1 << 20, 100_000)
_VALUES = _RNG.random(100_000)


def _python_kernel() -> None:
    """Grid breadth-first searches: the dict/set/deque work of the
    Fig. 10 router and of module imports."""
    for _ in range(10):
        queue = collections.deque([(0, 0)])
        seen = {(0, 0)}
        while queue:
            r, c = queue.popleft()
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if (0 <= nb[0] < _GRID and 0 <= nb[1] < _GRID
                        and nb not in seen and nb not in _BLOCKED):
                    seen.add(nb)
                    queue.append(nb)


def _numpy_kernel() -> None:
    """Sort, count and prefix-sum passes like the batched decoder's."""
    order = np.argsort(_KEYS, kind="stable")
    np.bincount(_KEYS[order] & 1023)
    np.cumsum(_VALUES[order])


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


#: Runs per calibration sample; the fastest one counts.
REPEATS = 3


def kernel_seconds(kind: str) -> float:
    """Fastest of :data:`REPEATS` runs of a calibration kernel."""
    kernel = KERNELS[kind]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def slowness(kind: str) -> float:
    """Slowness of the host now relative to the reference (1 = same)."""
    return kernel_seconds(kind) / REFERENCE_S[kind]
