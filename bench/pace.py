"""How fast the host runs while a command runs.

On a shared host, other load slows every process, in stretches from a
fraction of a second to longer than a whole benchmark run.  A ``Sampler``
measures that slowdown during a command: a timer signal interrupts the
command every ``INTERVAL_S`` seconds, and the handler times one pass of a
fixed pure-Python loop.  The loop's mean time over the command, against
``REF_S``, is the host's slowdown during the command, and

    ref_s = (command seconds - seconds spent in the handler) / slowdown

is the command's time at reference speed.  The loop shares no code with
liplab, so no change to liplab moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 300
INTERVAL_S = 0.01
REF_S = 5.5e-05  # seconds; about the loop's fastest pass on an idle 2-vCPU Xeon VM


def loop() -> dict:
    """Dict updates with tuple keys: the interpreter work of liplab's hot loops."""
    counts: dict[tuple, int] = {}
    for i in range(LOOP_N):
        key = (i & 63, i & 7)
        counts[key] = counts.get(key, 0) + i
    return counts


class Sampler:
    """Context manager: times the loop on every timer tick while it is open.

    ``busy`` is the time spent in the handler; ``slowdown`` is the mean loop
    time over ``REF_S`` (1.0 when no tick fell inside the block)."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def busy(self) -> float:
        return sum(self.samples)

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REF_S if self.samples else 1.0
