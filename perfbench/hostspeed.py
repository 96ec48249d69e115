"""Host-speed reference: a fixed loop timed between samples.

The benchmark runs on a core shared with other machines' work, and that
core's speed drifts by tens of percent over seconds to minutes, which no
median over a 40 s run averages out. So between any two samples (while
every rank thread is held at the barrier) the harness times this loop,
and each sample's wall time is scaled by ``REFERENCE_S`` over the mean of
the loop's times just before and just after it.

The loop does, in small, each kind of work the library's time goes to,
because contention slows each kind by a different factor: a pairwise
numpy kernel and small matrix products (the P=1 and P=8 workloads), and
threads that hand off to each other at a barrier, contend for the
interpreter lock and churn Python objects (the P=64 workload, whose 64
rank threads are interpreter bound). It lives here, not in the library,
so a change to the library cannot change it. Its threads are joined
before it returns.
"""

import threading
import time

import numpy as np

# Best time of the loop on an idle core of the machine the benchmark was
# defined on (2 vCPUs, numpy 2.x with scipy-openblas, one BLAS thread).
# Corrected times are wall seconds at that speed.
REFERENCE_S = 0.030
REPEATS = 3
THREADS = 8

_RNG = np.random.default_rng(0)
_POINTS = _RNG.random((512, 3))
_MATRIX = _RNG.random((64, 64))


def _numpy_kernel():
    total = 0.0
    for i in range(0, len(_POINTS), 128):
        d = _POINTS[i:i + 128, None, :] - _POINTS[None, :, :]
        r = np.sqrt((d * d).sum(-1))
        r[r == 0] = 1.0
        total += float((1.0 / r).sum())
    m = _MATRIX
    for _ in range(10):
        m = np.tanh(m @ _MATRIX * 0.01)
    return total + float(m.sum())


def _spin(n):
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def _in_threads(target):
    threads = [threading.Thread(target=target) for _ in range(THREADS - 1)]
    for t in threads:
        t.start()
    try:
        target()
    finally:
        for t in threads:
            t.join()


def _handoffs():
    barrier = threading.Barrier(THREADS)

    def step():
        for _ in range(40):
            barrier.wait()
            _MATRIX[:8] @ _MATRIX

    _in_threads(step)


def _objects():
    table = {}
    for i in range(20000):
        table[(i * 7919) % 20011] = [i, str(i)]
    return sum(len(v[1]) for v in table.values())


def _loop():
    _numpy_kernel()
    _spin(5000)
    _handoffs()
    _in_threads(lambda: _spin(5000))
    _objects()


def reference_seconds():
    """Best of ``REPEATS`` timings of the reference loop."""
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t)
    return best
