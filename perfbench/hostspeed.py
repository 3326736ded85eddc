"""Host-speed readings, for normalising the benchmark's timings.

Host speed on a shared machine moves between levels about 1.6x apart, in
phases of seconds to minutes. CPU time follows wall time through these
phases, so the host itself runs slower; it is not busy elsewhere. A whole
run can sit in a slow phase, and no statistic over its raw samples can
remove that. The benchmark therefore states each gated timing at a fixed
host speed: it multiplies the raw time by NOMINAL_MS over the time the
reference loop took next to it.

The reference loop is the benchmark's own pure-Python code (float
arithmetic and ``math.hypot`` over fixed triangles, like the kernels under
test), so a change to osmot moves a normalised timing by the same factor
as the raw one.

A pass lasts seconds, and host speed changes within it, so a pass is read
from inside: ``Sampler`` runs the loop from a SIGALRM handler every
INTERVAL_S seconds of wall time and reports the handler's own time, which
the caller subtracts from the pass's time. A set-up sample lasts
milliseconds and is read right before it with ``reading_ms``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.25
# Normalised timings are seconds on a host where one reference loop takes
# NOMINAL_MS. The value is arbitrary and fixed; it only sets the scale.
NOMINAL_MS = 2.0
DIRECT_LOOPS = 5  # loops per reading_ms(); the reading is their median

_TRIANGLES = [((k * 0.37) % 1.0, (k * 0.61) % 1.0,
               (k * 0.13) % 1.0 + 1.0, (k * 0.71) % 1.0,
               (k * 0.29) % 1.0, (k * 0.83) % 1.0 + 1.0) for k in range(4000)]


def ref_loop_ms() -> float:
    """Wall time of one fixed pure-Python loop, in ms."""
    t0 = time.perf_counter()
    acc = 0.0
    for ax, ay, bx, by, cx, cy in _TRIANGLES:
        area = 0.5 * ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))
        a = math.hypot(bx - ax, by - ay)
        b = math.hypot(cx - bx, cy - by)
        c = math.hypot(ax - cx, ay - cy)
        acc += area / (a * a + b * b + c * c)
    return 1e3 * (time.perf_counter() - t0)


def reading_ms() -> float:
    """A host-speed reading taken now: the median of DIRECT_LOOPS loops."""
    return statistics.median(ref_loop_ms() for _ in range(DIRECT_LOOPS))


def normalised(seconds: float, host_ms: float) -> float:
    """``seconds`` measured at host reading ``host_ms``, at NOMINAL_MS."""
    return seconds * NOMINAL_MS / host_ms


class Sampler:
    """Reads host speed during a block, from a SIGALRM handler.

    After the block, ``readings_ms`` holds one loop time per interval and
    ``spent_s`` the handler's total wall time, to be subtracted from the
    block's time. The previous handler and timer are restored on exit.
    """

    def __init__(self) -> None:
        self.readings_ms: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings_ms.append(ref_loop_ms())
        self.spent_s += time.perf_counter() - t0

    def host_ms(self) -> float:
        """The block's host reading: the median of the in-block loops, or
        a reading taken now when the block was shorter than one interval."""
        return statistics.median(self.readings_ms) if self.readings_ms else reading_ms()
