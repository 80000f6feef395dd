"""Correction of timings for machine-speed drift.

On a shared virtual machine the same pure-Python work can take half again
as long for several seconds at a time.  A fixed reference loop, which
calls no code of the package under test, is timed between items of the
timed pass, at least every INTERVAL_S seconds.  Each item's raw time is
then scaled by NOMINAL_S / r, where r is the median of the reference
samples nearest in time to the item.  Corrected times are seconds at the
nominal speed, the speed at which one reference loop takes NOMINAL_S.
The reference loop's own cost is counted in no metric.
"""

import bisect
import gc
import statistics
import subprocess
import time
from dataclasses import dataclass

NOMINAL_S = 0.001
INTERVAL_S = 0.02
WINDOW = 7
# Command lines run in child processes, whose speed the loop in the parent
# does not track.  Their reference is a bare child interpreter instead,
# started at least every SPAWN_INTERVAL_S; at nominal speed it takes
# NOMINAL_SPAWN_S.
NOMINAL_SPAWN_S = 0.02
SPAWN_INTERVAL_S = 0.2


@dataclass(frozen=True)
class _Leaf:
    name: str


@dataclass(frozen=True)
class _Pair:
    op: str
    left: object
    right: object


def _tree(depth, i):
    if depth == 0:
        return _Leaf("abcd"[i % 4])
    return _Pair("&|"[i % 2], _tree(depth - 1, 3 * i + 1), _tree(depth - 1, 7 * i + 2))


_TREES = tuple(_tree(5, i) for i in range(6))
_PASSES = 1


def reference_loop():
    """Fixed pure-Python work of the kind the package does most: walking
    trees of frozen dataclasses with isinstance tests and putting every
    node in a set, which hashes it recursively.  Collection is off while
    it runs, so its time does not depend on the size of the heap.
    Returns (start, end)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen = set()
        for _ in range(_PASSES):
            for tree in _TREES:
                stack = [tree]
                while stack:
                    node = stack.pop()
                    seen.add(node)
                    if isinstance(node, _Pair):
                        stack.append(node.left)
                        stack.append(node.right)
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return start, end


def spawn_reference(command):
    """A reference that times one run of a child process."""
    def reference():
        start = time.perf_counter()
        subprocess.run(command, check=True)
        return start, time.perf_counter()
    return reference


class Clock:
    """Interleaves a reference with timed work and converts raw intervals
    to seconds at nominal speed."""

    def __init__(self, reference=reference_loop, nominal=NOMINAL_S, interval=INTERVAL_S):
        self.reference = reference
        self.nominal = nominal
        self.interval = interval
        self.samples = []  # (midpoint, duration) of reference runs
        self.last_ref = -1.0
        self._times = []
        self.tick()

    def tick(self):
        """Run the reference if `interval` has passed since the last."""
        now = time.perf_counter()
        if now - self.last_ref >= self.interval:
            start, end = self.reference()
            self.samples.append(((start + end) / 2, end - start))
            self.last_ref = end

    def finish(self):
        """A closing reference sample, so the last items have neighbours on
        both sides."""
        self.last_ref = -1.0
        self.tick()

    def factor(self, midpoint):
        """The nominal time over the median of the WINDOW reference samples
        nearest to midpoint."""
        if len(self._times) != len(self.samples):
            self._times = [t for t, _ in self.samples]
        i = bisect.bisect_left(self._times, midpoint)
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        window = [d for _, d in self.samples[lo:lo + WINDOW]]
        return self.nominal / statistics.median(window)

    def correct(self, start, end):
        """Seconds at nominal speed for the raw interval start..end."""
        return (end - start) * self.factor((start + end) / 2)
