"""Machine-speed probe, for times that do not move with the host's load.

On a shared host the same pure-Python code runs up to 1.5x slower for tens
of seconds at a time, on both vCPUs at once.  The sized-on host showed this
on identical expert passes: medians over 10 consecutive passes spread by
0.17 (interquartile range over median).  A fixed probe slows down with the
program, so every timed pass and every set-up is bracketed by probes, and
each time is reported in reference seconds:

    reference time = measured time * REFERENCE_S / probe time

With that correction the same medians spread by 0.05.  The probe is
benchmark code with no lhnav in it, so no change to lhnav can move it.
"""

from __future__ import annotations

import heapq
import statistics
import time

# about the median probe time on the host the workloads were sized on (a
# shared 2-vCPU Xeon VM at 2.1 GHz); reference seconds are seconds at the
# speed at which the probe takes this long
REFERENCE_S = 0.005
GRID = 40
INF = float("inf")


def _dijkstra() -> int:
    """8-connected Dijkstra on a fixed grid with one wall and one gap:
    dicts, sets, tuples and a heap, as in lhnav's geodesic fields."""
    free = {(r, c) for r in range(GRID) for c in range(GRID) if c != GRID // 2 or r == 5}
    moves = [(dr, dc, 1.4142135623730951 if dr and dc else 1.0)
             for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]
    dist = {(1, 1): 0.0}
    heap = [(0.0, 1, 1)]
    done = set()
    while heap:
        d, r, c = heapq.heappop(heap)
        if (r, c) in done:
            continue
        done.add((r, c))
        for dr, dc, w in moves:
            nb = (r + dr, c + dc)
            if nb in free and d + w < dist.get(nb, INF):
                dist[nb] = d + w
                heapq.heappush(heap, (d + w, *nb))
    return len(done)


def probe_s(repeats: int = 3) -> float:
    """Median seconds of one probe run."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _dijkstra()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
