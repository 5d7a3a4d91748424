"""Speed probe: how fast this CPU runs Python while an operation runs.

On a shared host the speed of a virtual CPU changes by a large factor, from
one second to the next and for minutes at a time, through work the guest
cannot see.  A ``SpeedProbe`` times ``reference_loop`` every ``PERIOD_S`` of
wall time while an operation runs, from a SIGALRM handler in the same thread.
The runner takes the operation's wall time minus the probe's own time and
scales it by ``NOMINAL_S`` over the probe's mean time, so a run reports
seconds at one fixed, nominal speed of the machine.

The loop is self-contained: it uses nothing from flcubes, so a change to the
program cannot change it.  It mixes the kinds of work flcubes does most:
small-int and big-int bit operations and dict lookups.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# Mean time of one reference_loop() on the machine the baseline was taken on
# (see baseline.json), in its faster phases.  It is a fixed constant: only
# the ratio to it matters, and it keeps reported times comparable between
# commits.
NOMINAL_S = 0.0005
PERIOD_S = 0.03  # the probe takes about 2% of an operation's wall time
SETUP_REPEATS = 21


def reference_loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    mask = (1 << 300) - 1
    big = 0
    for i in range(1000):
        k = (i * 2654435761) & 0x3FFF
        table[k] = table.get(k, 0) + i
        acc ^= (k << (i & 31)) | i
        big = ((big << 3) ^ (k * i)) & mask
    return acc ^ big.bit_count() ^ len(table)


def time_loop() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def measure() -> float:
    """Median time of a few back-to-back reference loops (for setup times)."""
    return statistics.median(time_loop() for _ in range(SETUP_REPEATS))


class SpeedProbe:
    """Times reference_loop every PERIOD_S of wall time while in its with-block.

    ``spent`` is the time the probe took inside the block, to be taken off
    the block's wall time; ``mean_s()`` is the mean loop time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(time_loop())

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spent = sum(self.samples)

    def mean_s(self) -> float:
        """Mean loop time; a block shorter than one period is probed after it."""
        if not self.samples:
            self.samples.append(time_loop())
        return statistics.fmean(self.samples)
