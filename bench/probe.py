"""Speed probes: fixed pieces of work timed next to every measured interval.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by
up to 20% for tens of seconds at a time as other tenants load it. A probe
run right before and right after an op (or a set-up interpreter), on the
same CPU, slows with it. Scaling the interval by the probe's reference
time over its median measured time gives the interval at the reference
speed, so two runs of the same code agree even when the host's speed did
not.

The drift does not slow every kind of work alike: interpreter loops and a
QR that streams a matrix larger than the caches swing differently. So
each workload has its own probe, a mix of the two that follows the op's
own mix, and the probes track the ops best that way. The probes use only
the standard library and NumPy, never ``vifnc``: a change to the library
cannot change a probe.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHARE = 0.1  # probe time after an interval, as a share of that interval


class Probe:
    """``loops`` interpreter iterations, then ``qrs`` QR factorizations of a ``shape`` matrix.

    ``ref_s`` is the median sample time on the 2-vCPU development machine
    (Intel Xeon, one OpenBLAS thread): the reference speed.
    """

    def __init__(self, loops: int, shape: tuple[int, int], qrs: int, ref_s: float):
        self.loops, self.shape, self.qrs, self.ref_s = loops, shape, qrs, ref_s
        self._matrix = None

    def __repr__(self) -> str:
        return f"Probe(loops={self.loops}, shape={self.shape}, qrs={self.qrs}, ref_s={self.ref_s})"

    def sample(self) -> float:
        """Wall time of the probe's fixed work."""
        if self._matrix is None:
            self._matrix = np.random.default_rng(0).standard_normal(self.shape)
        start = time.perf_counter()
        acc = 0.0
        table = {}
        for k in range(self.loops):
            acc += (k * 0.5) % 7.0
            table[k & 255] = acc
        for _ in range(self.qrs):
            np.linalg.qr(self._matrix)
        return time.perf_counter() - start

    def after(self, interval_s: float) -> list[float]:
        """Samples filling SHARE of the interval just measured, at least one."""
        samples = [self.sample()]
        while sum(samples) < SHARE * interval_s:
            samples.append(self.sample())
        return samples

    def scale(self, interval_s: float, before: list[float], behind: list[float]) -> float:
        """The interval at the reference speed, from the probe samples around it."""
        return interval_s * self.ref_s / statistics.median(before + behind)


# Interpreter work with small in-cache QRs: Monte Carlo ops and interpreter
# start-up are mostly bytecode and small allocations.
INTERPRETER = Probe(loops=40_000, shape=(1_000, 40), qrs=2, ref_s=0.010)
PROBES = {
    # about half CSV parsing in the interpreter, half QR of 100,000-row designs
    "diagnose-tall": Probe(loops=40_000, shape=(100_000, 9), qrs=1, ref_s=0.034),
    # QR of a 4,000 x 61 design: almost all of a diagnose-wide op
    "diagnose-wide": Probe(loops=0, shape=(4_000, 61), qrs=2, ref_s=0.021),
    "montecarlo": INTERPRETER,
}
