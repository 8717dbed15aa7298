"""Host-speed calibration for the benchmark's timed metrics.

The reference machine is a shared 2-vCPU VM whose speed drifts by up to
2x for minutes at a time, mostly through contention for the shared
cache.  A fixed, cache-heavy pure-Python loop slows down with it
(correlation 0.73 with the simulator's unit times), so the benchmark
times that loop between units and reports its host times scaled to the
loop's nominal speed: ``seconds × REFERENCE_S / calibration``.  On a
quiet host the scale factor is about 1.  A change to the simulator
cannot move the loop: it shares no code with ``src/``.

The loop runs in the benchmark's process, on the simulator's CPU; its
object pool stays alive for the whole run, and its share of the peak RSS
is subtracted from ``peak_rss_mb`` (forked sweep workers inherit it, so
from theirs too).
"""

from __future__ import annotations

import gc
import heapq
import random
import resource
import time
from typing import Any, List

#: Nominal loop time (s) on the reference machine when it is quiet.
REFERENCE_S = 0.13

#: Objects the loop touches at random: enough memory to miss in cache
#: the way the simulator's object graph does.
POOL_SIZE = 300_000

#: Loop iterations per measurement.
ITERATIONS = 60_000


class _Item:
    __slots__ = ("count", "weight", "fields")

    def __init__(self, index: int) -> None:
        self.count = index
        self.weight = 0.0
        self.fields = {"hits": index}


def _loop(pool: List[_Item]) -> float:
    """One timed pass: random object updates through a heap."""
    started = time.perf_counter()
    rng = random.Random(3)
    heap: list = []
    size = len(pool)
    for seq in range(ITERATIONS):
        item = pool[rng.randrange(size)]
        item.weight += 1.0
        item.fields["hits"] += 1
        heapq.heappush(heap, (rng.random(), seq, item))
        if len(heap) > 5000:
            heapq.heappop(heap)[2].count += 1
    return time.perf_counter() - started


class Calibrator:
    """Context manager owning the calibration loop's object pool.

    The loop runs in the benchmark's own process, so it shares the CPU
    (and its cache) with the simulator; a helper process on the other
    vCPU did not track the drift.  ``pool_mb`` is what the pool added to
    the process's peak RSS, which the harness subtracts from
    ``peak_rss_mb``.  ``measure()`` returns one loop time in seconds.
    """

    def __init__(self) -> None:
        self._pool: List[_Item] = []
        self.pool_mb = 0.0
        self.samples: List[float] = []

    def __enter__(self) -> "Calibrator":
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._pool = [_Item(i) for i in range(POOL_SIZE)]
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.pool_mb = (after - before) / 1024.0
        # Keep the pool out of every later garbage collection, so it does
        # not slow the simulator's collections down.
        gc.freeze()
        return self

    def measure(self) -> float:
        sample = _loop(self._pool)
        self.samples.append(sample)
        return sample

    def __exit__(self, *exc_info: Any) -> None:
        gc.unfreeze()
        self._pool = []


def factor(samples: List[float]) -> float:
    """Scale factor for host times measured next to these loop times."""
    return REFERENCE_S * len(samples) / sum(samples)
