"""Host-speed probe: how fast the CPU a sample runs on is, moment by moment.

The machine's CPUs are shared with other tenants, and while their work
runs beside a sample the same deterministic harness call takes up to
about twice as long, in phases of tenths of a second to minutes.
CPU time grows with wall time, so it is not preemption that the
process could see; it is the core running slower.  No statistic over
one run removes phases longer than the run.

So every sample measures the slowdown it ran under.  The worker pins
itself to one CPU and a daemon thread of its own process times a fixed
kernel every :data:`PERIOD_S`.  The kernel mixes interpreted Python with
small numpy bitwise ops, like the bit-parallel simulators and the
solver's loops, and it takes about 0.1 ms, so the thread costs the
harness call about 2% and never holds the GIL long enough to be
interrupted.  ``run.py`` divides each sample's times by its slowdown,
the mean probe duration over :data:`REF_PROBE_S`, which reports them at
the reference speed whatever the contention was.

The reference is a constant, not a statistic of the run: the fastest
probe durations of a run themselves rise by 10-30% in long contended
phases, and a run-local reference would carry that into every figure.
"""

from __future__ import annotations

import os
import threading
import time

#: seconds between probe kernels
PERIOD_S = 0.005
#: the probe kernel's uncontended duration on the host the benchmark was
#: tuned on (2-vCPU Intel Xeon KVM guest, Python 3 with numpy): the 1st
#: percentile of a run's probes there reads 73-80 us.  Reported times
#: are seconds at this probe speed; on a faster host they stay near the
#: same values, and only a change of the program relative to the probe
#: kernel moves them.
REF_PROBE_S = 75e-6
#: probe kernel: bitwise ops over this many rows of 64 words
_ROWS = 60


def pin_to_one_cpu() -> None:
    """Pin the calling process (and threads it starts later) to one CPU.

    Call before importing numpy, whose BLAS threads take the affinity of
    the thread that starts them.  The program runs serially, so the pin
    costs it nothing, and the probe thread then times the CPU the program
    runs on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Times the probe kernel every :data:`PERIOD_S` from a daemon thread.

    :attr:`samples` holds ``(time.monotonic() at kernel start, duration)``.
    """

    def __init__(self) -> None:
        import numpy as np

        self._words = np.random.default_rng(0).integers(
            0, 2**63, size=(_ROWS + 1, 64), dtype=np.uint64
        )
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _kernel(self) -> int:
        words, acc = self._words, 0
        for i in range(_ROWS):
            acc ^= int((words[i] & ~words[i + 1])[3])
        return acc

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.monotonic()
            self._kernel()
            self.samples.append((start, time.monotonic() - start))

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def durations(self, begin: float, end: float) -> list[float]:
        """Durations of the kernels that started in ``[begin, end)``."""
        return [d for t, d in self.samples if begin <= t < end]


def mean_duration(durations: list[float]) -> float:
    """Mean probe duration, without kernels an interrupt stretched.

    A kernel that the scheduler or the GIL stalls reads many times its
    neighbours; values over three times the median are dropped.
    """
    ordered = sorted(durations)
    cap = 3.0 * ordered[len(ordered) // 2]
    kept = [d for d in ordered if d <= cap]
    return sum(kept) / len(kept)
