"""Operation timing that allows for the speed of a shared machine.

On a shared VM the same code runs up to 1.5 times slower or faster from one
minute to the next, as other tenants come and go.  After each timed block
the clock therefore times three fixed reference tasks of 1-4 ms: a small
pure-Python dict loop, random lookups in a 50,000-entry dict (more than
the caches hold), and a NumPy pass over 2 MB.  The program's own work
is a mix of these kinds.  A run's times are divided by one factor, the
geometric mean over the three tasks of their median time in the run over
their nominal time:

    scaled = wall / prod(median(task times) / nominal) ** (1/3)

The result is the time on a machine where each task takes its nominal
time, close to this machine's wall time in a quiet spell.  One factor
serves the whole run, because a single sample is noisy.  Nothing here
calls the program, so a faster program does not make the reference
faster.  The raw wall times are kept as well.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

_rng = np.random.default_rng(0)
_TABLE = {i: i for i in range(50_000)}
_KEYS = _rng.integers(0, 50_000, 10_000).tolist()
_ARRAY = _rng.random(250_000)


def _dict_loop() -> None:
    table: dict = {}
    total = 0
    for i in range(3000):
        table[(i % 7, "c")] = i
        total += table.get((i % 5, "c"), 0)


def _table_walk() -> None:
    total = 0
    for key in _KEYS:
        total += _TABLE[key]


def _array_pass() -> None:
    np.cumsum(_ARRAY).sum()
    np.sort(_ARRAY[:50_000])


# (task, nominal seconds): the tasks' typical times right after an operation
# of the workloads, where the program's work has pushed the table out of the
# caches (alone, the walk takes 0.7 ms)
REFERENCES = ((_dict_loop, 1.1e-3), (_table_walk, 3.5e-3), (_array_pass, 1.65e-3))


class Clock:
    """The wall time of each timed block and the reference times after it;
    a block that raises is not recorded."""

    def __init__(self):
        self.wall: list[float] = []
        self.refs: list[list[float]] = []

    @contextmanager
    def __call__(self):
        t0 = time.perf_counter()
        yield
        self.wall.append(time.perf_counter() - t0)
        sample = []
        for task, _ in REFERENCES:
            t0 = time.perf_counter()
            task()
            sample.append(time.perf_counter() - t0)
        self.refs.append(sample)

    @property
    def scaled(self) -> list[float]:
        slowdown = math.prod(
            statistics.median(sample[i] for sample in self.refs) / nominal
            for i, (_, nominal) in enumerate(REFERENCES)
        ) ** (1 / len(REFERENCES))
        return [wall / slowdown for wall in self.wall]
