"""Host speed, read from a fixed pure-Python kernel timed between demkit's calls.

On a shared host other tenants slow this process down by up to 1.6x, in
phases that last from seconds to minutes, and CPU time slows as much as
wall time.  Within a run that is noise; between runs, minutes apart, it is
drift that no number of repetitions takes out.  demkit's calls and this
kernel slow down together: on a shared 2-vCPU host, the time of
``dem grid15x15`` divided by the kernel time measured just before it stayed
within 4% of its median over a minute of 5-second windows, while the call's
own median time moved by 19%.

So the benchmark reports its end-to-end times at a reference speed: a time
measured next to a kernel time ``k`` is multiplied by ``REF_MS / k``.  The
kernel is the benchmark's own code (a BFS sweep over a fixed grid, list
distances and an integer bit-mask, as in demkit's BFS and search), so no
change to demkit can move it.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# The kernel's time, in ms, on the host the baseline was recorded on, in its
# fast phase (rounded): scaled times read as ms on that host at full speed.
REF_MS = 2.6
EVERY = 0.2  # seconds between two readings of the speed during a pass
RECENT = 3  # kernel timings whose median is one reading

_SIDE = 40
_ADJ = [[] for _ in range(_SIDE * _SIDE)]
for _r in range(_SIDE):
    for _c in range(_SIDE):
        _v = _r * _SIDE + _c
        if _c + 1 < _SIDE:
            _ADJ[_v].append(_v + 1)
            _ADJ[_v + 1].append(_v)
        if _r + 1 < _SIDE:
            _ADJ[_v].append(_v + _SIDE)
            _ADJ[_v + _SIDE].append(_v)


def kernel() -> int:
    """BFS from six fixed sources of a 40x40 grid; returns a checksum."""
    total = 0
    for source in (0, 39, 820, 1179, 1560, 1599):
        dist = [-1] * len(_ADJ)
        dist[source] = 0
        queue, seen = [source], 1 << source
        for u in queue:
            du = dist[u] + 1
            for w in _ADJ[u]:
                if dist[w] < 0:
                    dist[w] = du
                    seen |= 1 << w
                    queue.append(w)
        total += sum(dist) + seen.bit_count()
    return total


def _time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1000.0


class Meter:
    """The host's current speed as a factor on measured times."""

    def __init__(self):
        self.reading = None  # the median of the latest RECENT kernel times
        self.last = float("-inf")
        self.samples: list = []

    def tick(self, force: bool = False) -> float:
        """Read the speed if EVERY seconds have passed since the last
        reading, or if forced.  Returns the seconds spent, which the caller
        leaves out of its pass."""
        now = time.perf_counter()
        if not force and now - self.last < EVERY:
            return 0.0
        self.refresh()
        return self.last - now

    def refresh(self) -> None:
        """Read the speed now: time the kernel RECENT times."""
        times = [_time_kernel() for _ in range(RECENT)]
        self.samples += times
        self.reading = statistics.median(times)
        self.last = time.perf_counter()

    def scale(self) -> float:
        """REF_MS over the latest reading."""
        return REF_MS / self.reading
