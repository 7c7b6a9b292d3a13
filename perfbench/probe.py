"""Speed probe: a fixed kernel timed between invocations, so that times can
be scaled to one reference speed of the box.

The benchmark shares its machine with other work.  On the reference box
(2 vCPUs) the same `pushdp run` invocation runs up to 2x slower for tens of
seconds at a time, and a probe timed around it slows by the same factor
(README.md).  Every time the benchmark reports is the measured wall time
multiplied by REFERENCE_S / (probe time around that invocation): the time
the invocation would have taken while the probe took REFERENCE_S.  The
unscaled values are printed alongside.

The kernel is built like pushdp's hot paths: a fresh SeedSequence-seeded
generator per step, a small matrix-vector product, a set of index tuples
and a small tanh-layer forward pass, all driven from a Python loop.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Probe time on the reference box (2 vCPU VM, Python 3.11.7, numpy 2.4.6,
# one BLAS thread) in its faster state.  Changing it rescales every
# reported time, so it is fixed for the life of the benchmark.
REFERENCE_S = 0.0039
REPEATS = 3


class SpeedProbe:
    """Callable that times the kernel REPEATS times and returns the median.

    numpy is imported here, not at module import, so the caller can pin the
    BLAS thread count first.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._matrix, self._vector = rng.random((64, 64)), rng.random(64)
        self._batch, self._w1, self._w2 = rng.random((32, 20)), rng.random((20, 64)), rng.random((64, 3))

    def _kernel(self):
        np, acc = self._np, 0.0
        for i in range(100):
            gen = np.random.default_rng(np.random.SeedSequence((i, 0, 1, 2)))
            acc += float(gen.random()) + float(self._matrix[i % 64] @ self._vector)
            acc += len({(j, (i * j) % 61) for j in range(32)})
            acc += float((np.tanh(self._batch @ self._w1) @ self._w2).sum())
        return acc

    def __call__(self):
        # A garbage collection that the probe's allocations happen to set off
        # would time the program's heap, not the machine's speed.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                t0 = perf_counter()
                self._kernel()
                times.append(perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        return statistics.median(times)
