"""Machine-speed calibration of timings on a shared host.

On a host shared with other tenants the same work can take 1.5x longer for
seconds to minutes at a time: one sensor poll of ``link_noisy`` took 150 ms
in one minute and 226 ms a few minutes later.  Repeating work within a 20 s
run does not remove that.  A fixed kernel of small-array numpy calls, the
kind of work the program does most, slows down with it.

So each timing is reported calibrated, ``wall * (REF_S / kernel) ** EXPONENT``,
with ``kernel`` the median time of the kernel sampled during the timing or
within ``WINDOW_S`` of it: the time the work would take
on a machine that runs the kernel in ``REF_S``.  The kernel is sampled from
a timer signal, so long ops are calibrated by samples taken while they run,
and the kernel's own time is taken out of the op it interrupted.  The
program's time moved with the kernel's to a power between 0.5 and 1 in
different stretches of measurement; ``EXPONENT`` sits in the middle.  Over
ten 20 s runs per workload this brought the spread of the median op time
(quartile distance over median) from 15-31% (wall) to 3-5%.  The wall times
are reported next to them.

Set-up times are calibrated differently: each fresh set-up process is
paired with a fresh reference process that imports a fixed set of standard
library modules (``setup_probe.py reference``), and the set-up time is
reported as ``wall * SETUP_REF_S / reference``.  Set-up is imports and
start-up work, which the numpy kernel tracks poorly (log correlation 0.35
to 0.7 with set-up times, 0.75 to 0.8 for the reference).  Over ten runs
of 15 set-ups each, the median set-up time spread by 0.12 (kernel) and
0.06 to 0.07 (reference), against 0.18 to 0.21 uncalibrated.

The kernels and the constants are part of the benchmark's definition and
must not change: a change rescales every calibrated number.  Neither
kernel touches fdmlink, so a change to the program cannot move them.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REF_S = 0.004  # about the kernel's usual time on the 2-vCPU Xeon baseline host
EXPONENT = 0.75
WINDOW_S = 1.0  # kernel samples this close to a timing calibrate it
INTERVAL_S = 0.1  # kernel sampling period while ops run
SETUP_REF_S = 0.08  # about the set-up reference's usual time on the baseline host


def kernel() -> None:
    a = np.asarray([1.0e6])
    for _ in range(500):
        z = np.asarray(a * 2.0 + 1j, dtype=complex)
        w = np.where(np.abs(z) > 1.0, z, 0)
        complex(np.asarray(w)[0])


class Calibrator:
    """Kernel samples in time; ``factor`` converts a wall time to reference time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    @contextlib.contextmanager
    def ticking(self):
        """Sample every INTERVAL_S from a SIGALRM handler, so also in the middle of an op.

        The handler runs in the main thread between bytecodes; ``busy``
        takes the kernel's own time out of the op it interrupted.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def busy(self, start: float, end: float) -> float:
        """Time between ``start`` and ``end`` that went to kernel samples."""
        return sum(b - a for a, b in self.samples if start <= a and b <= end)

    def factor(self, start: float, end: float) -> float:
        near = [b - a for a, b in self.samples if start - WINDOW_S <= b <= end + WINDOW_S]
        if not near:  # the closest sample, whichever side it is on
            a, b = min(self.samples, key=lambda ab: min(abs(ab[1] - start), abs(ab[1] - end)))
            near = [b - a]
        return (REF_S / statistics.median(near)) ** EXPONENT

    def kernel_ms(self) -> float:
        return 1e3 * statistics.median(b - a for a, b in self.samples)
