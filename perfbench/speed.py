"""Timings scaled to a reference CPU speed.

The machines this benchmark runs on are shared: a fixed pure-Python loop
runs up to 1.6 times slower for stretches of seconds to minutes while other
tenants load the host, and a run of 20 seconds can sit wholly inside either
state.  Raw wall times then spread by some 30 % between runs of the same
code.  So every timed stretch of about GROUP_S seconds is bracketed by two
readings of a fixed probe loop, and each latency measured inside it is
multiplied by REFERENCE_MS / (mean of the two readings).  A change to padicu
moves the scaled figures as it moves the raw ones, because the probe does not
touch padicu; the machine's own speed changes largely cancel.  Raw figures
are printed beside the scaled ones.
"""

from __future__ import annotations

import time

PROBE_ITERATIONS = 20_000
REFERENCE_MS = 2.0  # the probe's reading that scaled times refer to
GROUP_S = 0.1  # wall time between probe readings


def probe_ms() -> float:
    """Best of two runs of a fixed integer loop, in milliseconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class Scaler:
    """Collects raw latencies and releases them scaled, one probe-bracketed group at a time."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.readings: list[float] = []
        self._pending: list[float] = []
        self._before = probe_ms()
        self._since = time.perf_counter()

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)

    def count(self) -> int:
        return len(self.scaled) + len(self._pending)

    def tick(self, force: bool = False) -> None:
        """Close the current group if GROUP_S has passed (or if forced)."""
        if not self._pending or not (force or time.perf_counter() - self._since >= GROUP_S):
            return
        after = probe_ms()
        self.raw += self._pending
        self.scaled += [scale(x, self._before, after) for x in self._pending]
        self.readings.append(after)
        self._pending = []
        self._before, self._since = after, time.perf_counter()


def scale(seconds: float, before_ms: float, after_ms: float) -> float:
    """A duration bracketed by two probe readings, at the reference speed."""
    return seconds * REFERENCE_MS / ((before_ms + after_ms) / 2)
