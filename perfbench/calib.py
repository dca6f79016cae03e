"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed swings by up to 2x for seconds
to minutes at a time, and the swing shows in process CPU time as much as in
wall time, so neither clock filters it out.  The run therefore times this
kernel before every op and rescales its times by the kernel's mean time over
the run (see `host_factor`).  The kernel does not call the library, so a
change to the library moves the op latencies and not the factor.

Its work mirrors the ops' own mix: small tuples, frozensets and dicts made
and dropped, as certify and pattern do; a graph search over lists, dicts and
a deque; and small batched SVDs, as numeric does.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

import numpy as np

# The kernel's time on a quiet host (2 vCPU at 2.0 GHz, Python 3.11, numpy
# 2.4, OpenBLAS with one thread).  Rescaled times read in seconds of a host
# running at that speed.
REFERENCE_S = 0.016

_rng = random.Random(1712)
_NODES = 400
_ADJ = [sorted(_rng.sample(range(_NODES), 6)) for _ in range(_NODES)]
_STACK = np.random.default_rng(1712).standard_normal((48, 8, 12))


def _alloc_pass() -> int:
    made = 0
    for i in range(3000):
        cells = frozenset((i % 8, (i * 7 + j) % 32) for j in range(5))
        made += len({c: len(cells) for c in cells})
    return made


def _graph_pass() -> int:
    reached = 0
    for source in range(0, _NODES, 10):
        parent = {source: None}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in _ADJ[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        reached += len(parent)
    return reached


def kernel() -> float:
    """Run the kernel once; its wall time in seconds."""
    start = time.perf_counter()
    _alloc_pass()
    _graph_pass()
    for _ in range(6):
        np.linalg.svd(_STACK, compute_uv=False)
    return time.perf_counter() - start


# A kernel run over this many times the run's median was descheduled rather
# than slowed; it counts as this many times the median, so that one such
# pause cannot move a run's factor much.
OUTLIER_CAP = 3.0


def host_factor(calibrations: list[float]) -> float:
    """How much slower than the quiet reference the host ran, from kernel timings."""
    cap = OUTLIER_CAP * statistics.median(calibrations)
    return statistics.fmean(min(k, cap) for k in calibrations) / REFERENCE_S
