"""The machine's speed right now, read from a fixed pure-Python loop.

On a shared host the same code runs at different speeds from one moment
to the next: on the 2-vCPU VM this benchmark was tuned on, a fixed loop
switches between a fast and a slow mode about 1.5x apart, within a
second and for stretches of half a minute, with no steal time, so the
slowness is inside the CPU the VM is given and no setting of the
process avoids it. A run's plain timings then depend on how much of it
fell in the slow mode more than on the program.

``Gauge`` times the reference loop just before and just after each timed
unit of work and scales the unit's time by ``NOMINAL_S`` over their
mean. The scaled time is the time the unit would take at the speed at
which the loop takes ``NOMINAL_S``: the fast mode of that VM. The loop
is the same on every commit and shares no code with the program, so a
change to the program moves scaled times as it moves plain ones.
"""

from __future__ import annotations

import random
import statistics
import time

PAIRS = 6
WIDTH = 1500
ROWS = 300
PICKS = 4
REPEATS = 3
# the loop's time in the fast mode of the tuning VM (Intel Xeon, Python
# 3.11), so scaled times read as seconds on that machine in that mode
NOMINAL_S = 0.75e-3

_rng = random.Random("perfbench speed gauge")
_PAIRS = [
    (tuple(_rng.randrange(2) for _ in range(WIDTH)), tuple(_rng.randrange(2) for _ in range(WIDTH)))
    for _ in range(PAIRS)
]
_TABLE = [tuple(_rng.randrange(2) for _ in range(WIDTH // 2)) for _ in range(ROWS)]
_PICKS = [tuple(_rng.randrange(WIDTH // 2) for _ in range(PICKS)) for _ in range(2)]


def _loop() -> int:
    """Two loops in the shape of polyclust's, written without its code.

    The first counts positions where two rows of random bits both hold a
    1, a zip with two branches a position, as in an affinity. The second
    counts the rows of a table holding at least 2 of 4 columns, a sum
    over scattered positions of many rows, as in a rule query. Timed
    around units of real work on the tuning VM, each loop alone followed
    some of the program's code and missed the rest; their sum followed
    seed queries, rule queries and clustering jobs alike (a log-log
    correlation of 0.84 to 0.90 with each). Across fresh processes the
    zip alone kept scaled seed-query times within 5 to 6% of each other
    where an integer-arithmetic loop left 10 to 18%.
    """
    both = 0
    for row_a, row_b in _PAIRS:
        for x, y in zip(row_a, row_b):
            if x:
                if y:
                    both += 1
    for picks in _PICKS:
        for row in _TABLE:
            both += sum(row[c] for c in picks) >= 2
    return both


def reference() -> float:
    """Seconds the reference loop takes now: the median of a few runs."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Gauge:
    """Scales timings to the reference speed; keeps every reading."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._before = 0.0

    def start(self) -> None:
        """Read the speed just before a timed unit of work."""
        self._before = reference()

    def factor(self) -> float:
        """Read the speed just after the unit; its times are multiplied by the result."""
        after = reference()
        self.readings += [self._before, after]
        return NOMINAL_S / ((self._before + after) / 2)
