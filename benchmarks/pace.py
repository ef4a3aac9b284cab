"""Host-speed reference: a fixed kernel timed during and after each timed block.

The shared host this benchmark was written on runs a process at full speed
or at down to about half of it, in phases lasting from a fraction of a
second to tens of minutes.  So every timed block (an op, a pipeline stage,
a set-up) runs under an interval timer whose handler times a short fixed
kernel every ``INTERVAL_S``, and one more sample is taken right after the
block.  The block's time is its wall time less the handler's time, scaled
by ``NOMINAL_S`` over the mean kernel time.  The scaled time reads as the
block's time on a host that runs the kernel in ``NOMINAL_S``.

The kernel is scalar float arithmetic in the interpreter and never touches
the package under test, so no change to the package can move it.  Over
four minutes that swung between the host's phases, the kernel sampled
during an op moved with the op at an elasticity of 0.90-1.01 (oracle and
network engagements, a PN salvo, a grid sweep).  Sampled only before and
after each op it read 0.56-0.99, the oracle engagements lowest: an
engagement lasts about a second and the host changes phase within it.
A vectorized numpy kernel slowed with the scalar one (elasticity 0.94),
so adding it would not track the numpy-heavy ops any better.
"""

from __future__ import annotations

import array
import math
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

# The kernel's time in a fast phase of the machine the benchmark was
# written on (Intel Xeon, 2 vCPUs, Python 3.11), sampled during ops.
NOMINAL_S = 0.00035
INTERVAL_S = 0.02
# Samples kept per block; a block longer than this many intervals (about
# 20 minutes) keeps its first ones.
BLOCK_CAPACITY = (1 << 16) - 1

_STEPS = 2_000


def _kernel_seconds() -> float:
    t0 = time.perf_counter()
    x, y, th = 0.0, 0.0, 0.3
    for k in range(_STEPS):
        th += 1e-3 * math.sin(th + k * 1e-4)
        x += math.cos(th)
        y += math.sin(th)
    return time.perf_counter() - t0


@dataclass
class Block:
    """One timed block: wall time less the sampler's, and the factor to nominal time."""

    seconds: float = 0.0
    scale: float = 1.0

    @property
    def nominal(self) -> float:
        return self.seconds * self.scale


class Reference:
    """Times blocks against the kernel.

    With ``during=False`` a block gets only the sample after it; the
    traced run uses that, so that the sampler adds nothing to the traced
    layers' times.
    """

    def __init__(self, during: bool = True):
        self.during = during
        # Samples taken inside a block go to a preallocated array, not a
        # list: a float object kept alive pins the allocator arena it
        # landed in, so the memory the op freed around it stayed mapped
        # and peak_rss_mb grew from pass to pass.  (numpy is not imported
        # here: it must load after the runner has set the BLAS threads.)
        self._buffer = array.array("d", bytes(8 * (BLOCK_CAPACITY + 1)))
        self._count = 0

    def _on_alarm(self, signum, frame):
        if self._count < BLOCK_CAPACITY:
            self._buffer[self._count] = _kernel_seconds()
            self._count += 1

    @contextmanager
    def timing(self):
        """Time the ``with`` body; the yielded Block is filled in when it ends."""
        block = Block()
        self._count = 0
        if self.during:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield block
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
            n = self._count
            block.seconds = wall - math.fsum(self._buffer[:n])
            # one sample after the block, so that no block is left without one
            self._buffer[n] = _kernel_seconds()
            block.scale = NOMINAL_S / (math.fsum(self._buffer[: n + 1]) / (n + 1))
