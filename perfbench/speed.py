"""Host-speed correction for timed passes.

The benchmark's host is a small VM on a shared machine. Other tenants slow the
same pass by up to 2x, in regimes that change within a second and last up to a
minute, so a pass's wall time says as much about the neighbours as about the
program. While a pass runs, a wall-clock timer signal interrupts it every
PERIOD_S and times a fixed probe loop; a few more probes run just before and
just after it. The probe fills a fresh dictionary of at most 1024 small
integer keys, the kind of work the program's DP tables do, and depends on
nothing the program builds: only the host's speed changes its time. A pass is
then rescaled to the speed at which the probe takes REF_S:

    scaled = (wall - time spent in probes during the pass) * REF_S * mean(1 / probe)

mean(1 / probe) over probes spread evenly in wall time is the host's mean
speed over the pass, so a slowdown of the host cancels, while a change in the
program's own work does not. On a shared 2-vCPU Xeon VM, over 67 consecutive
experiment-grid passes, this cut the coefficient of variation from 13.9%
(wall time) to 2.5% (scaled), at a cost of about 1% of each pass. Probes of
pure bytecode on small integers, or of big-integer arithmetic, left 5.6% and
5.9%.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
# about the probe's time on that VM when its neighbours are quiet, so scaled
# seconds read close to undisturbed wall seconds there
REF_S = 0.0005
_AROUND = 5
_LOOPS = 3000


def probe() -> float:
    """Seconds one run of the fixed probe loop takes."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    get = table.get
    for k in range(1, _LOOPS):
        key = (k * 7919) & 1023
        table[key] = get(key, 0) + 3 * k
    return time.perf_counter() - t0


class Sampler:
    """Probes the host's speed around a block and, with a period, during it.

    Without a period only the probes around the block run: for a block that
    waits on a child process, which an interrupting probe would compete with.
    """

    def __init__(self, period_s: float | None = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.inside_s = 0.0  # probe time that interrupted the block
        self._saved = None

    def _on_alarm(self, signum, frame) -> None:
        took = probe()
        self.samples.append(took)
        self.inside_s += took

    def __enter__(self) -> Sampler:
        self.samples = [probe() for _ in range(_AROUND)]
        self.inside_s = 0.0
        if self.period_s:
            self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._saved)
        self.samples.extend(probe() for _ in range(_AROUND))

    def speed(self) -> float:
        """The host's mean speed over the block, relative to the reference speed."""
        return REF_S * statistics.fmean(1 / s for s in self.samples)

    def scale(self, wall_s: float) -> float:
        """`wall_s`, timed inside the block, less the probes in it, at reference speed."""
        return (wall_s - self.inside_s) * self.speed()
