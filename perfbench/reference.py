"""Fixed reference kernels, for expressing latencies in machine-speed units.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, as other tenants come and go; raw
latencies taken minutes apart then differ more than any change worth
measuring.  A reference kernel does fixed work that never touches divkit
and slows down with the host as divkit does.  The benchmark times it before
every operation and after the last one, and divides each operation's
latency by the median of the reference times nearest to it.  A change to
divkit moves the ratio; a change in the host's speed moves both sides of it.

The host's drift does not slow all code alike: interpreter-bound code slows
more than array arithmetic.  So each workload names the kernel that matches
its own mix (``workloads.REFERENCE``): ``interpreter`` is small-object churn
plus numpy calls on small arrays, as in divkit's symbolic layers at the
default 100 sample points; ``mixed`` adds arithmetic on arrays of a few
thousand elements, as in dense-eval's evaluation.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 2000)
_LARGE = np.linspace(-1.0, 1.0, 4000)


def interpreter_work() -> None:
    for _ in range(200):
        table = {}
        for i in range(300):
            table[(i, "k")] = (i * 0.5, str(i))
        np.sin(_SMALL) * np.exp(-_SMALL) + _SMALL * _SMALL


def array_work() -> None:
    x = _LARGE
    for _ in range(60):
        np.exp(x * x - x) * np.sin(x) + np.cos(x) / (1.5 + x) - x ** 3


KERNELS = {
    "interpreter": (interpreter_work,),
    "mixed": (interpreter_work, array_work),
}

# Each kernel's time on a quiet host (the 2-core Xeon VM the benchmark was
# written on, at its fastest).  ``setup_s`` stays in seconds: each set-up
# probe is scaled by this over the interpreter kernel's time around it.
NOMINAL_S = {"interpreter": 0.020}


class Reference:
    """Reference times in run order: ``times[i]`` was taken just before
    operation ``i`` of the run, and the last one after the last operation."""

    def __init__(self, kind: str):
        self.parts = KERNELS[kind]
        self.times: list[float] = []

    def poll(self) -> None:
        start = time.perf_counter()
        for part in self.parts:
            part()
        self.times.append(time.perf_counter() - start)

    def around(self, i: int) -> float:
        """The host's speed while operation ``i`` ran: the median of the
        reference times just before and after it and its two neighbours."""
        return statistics.median(self.times[max(0, i - 1):i + 3])
