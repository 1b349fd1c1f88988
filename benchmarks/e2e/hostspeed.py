"""The host's current speed, sampled while the simulator runs.

Machines shared with other tenants slow down and speed up by up to 2x for
minutes at a time, far more than the changes the benchmark has to detect.
A :class:`HostSpeed` sampler times a fixed pure-Python loop
(:func:`yardstick`) every ``every_s`` seconds of wall time from ``SIGALRM``
while it is active, so every timed cell comes with readings of how fast the
host ran *during* that cell.  :func:`scale` turns a time into the time the
same work takes on a host that runs the yardstick in exactly
:data:`REFERENCE_NS`: a plain speed ratio, no fitted constant.
The sampler's own time is counted in :attr:`HostSpeed.spent_ns` so callers
can take it out of what they timed.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Yardstick time of the reference host.  With ``YARDSTICK_STEPS`` steps the
#: yardstick takes about this long on an unloaded 2.1 GHz x86 container, so
#: reference seconds are close to clock seconds on such a host.
REFERENCE_NS = 1_000_000
YARDSTICK_STEPS = 7500
#: Fewer readings than this inside one sample fall back to the round's readings.
MIN_READINGS = 5


def yardstick(steps: int = YARDSTICK_STEPS) -> int:
    """A fixed pure-Python loop doing the simulator's kind of work: dispatch
    on small tuples, a register list, a dict memory and LRU set lists."""
    code = [(0, 1, 3), (1, 2, 1), (2, 0, 2), (3, 1, 7), (1, 3, 0), (4, 2, 3)]
    regs = [1, 2, 3, 4]
    mem: dict[int, int] = {}
    sets: list[list[int]] = [[] for _ in range(64)]
    hits = 0
    ip = 0
    for _ in range(steps):
        op, a, b = code[ip]
        ip = (ip + 1) % 6
        if op == 0:
            regs[a] = (regs[a] * 1103515245 + b) & 0xFFFFF
        elif op == 1:
            addr = regs[a] & 0x3FF0
            regs[b] = mem.get(addr, addr) & 0xFFFF
        elif op == 2:
            mem[(regs[a] + b) & 0x3FF0] = regs[b]
        elif op == 3:
            regs[a] = regs[a] ^ (regs[a] >> b)
        else:
            block = regs[a] >> 4
            lane = sets[block & 63]
            if block in lane:
                lane.remove(block)
                hits += 1
            elif len(lane) >= 4:
                lane.pop(0)
            lane.append(block)
    return hits


class HostSpeed:
    """Context manager sampling :func:`yardstick` from ``SIGALRM``."""

    def __init__(self, every_s: float = 0.05) -> None:
        self.every_s = every_s
        self.readings: list[int] = []
        self.spent_ns = 0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        yardstick()
        dt = time.perf_counter_ns() - t0
        self.readings.append(dt)
        self.spent_ns += dt

    def sample_now(self, n: int) -> None:
        """Take ``n`` readings right away (for stretches too short to be
        sampled by the timer)."""
        for _ in range(n):
            self._sample(None, None)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def reading_ns(readings: list[int]) -> float:
    """The yardstick time over a stretch: the mean of its readings, since a
    stretch takes as long as its slow and fast moments added up."""
    return statistics.fmean(readings)


def scale(ns: float, readings: list[int]) -> float:
    """``ns`` of host time as seconds on the reference host."""
    return ns * REFERENCE_NS / reading_ns(readings) / 1e9
