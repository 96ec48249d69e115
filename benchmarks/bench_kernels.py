"""Benchmark the JIT-compiled pairwise kernels against the numpy fallback.

The same functions back the near-field sweep, the source-to-check and
expansion-to-target evaluations, and the verification oracle, so this is
the package's hot path. Run directly:

    python benchmarks/bench_kernels.py --sizes 1000,4000,16000

Each size reports the direct-summation throughput (pair interactions per
second) for whichever backend is active plus the pure-numpy reference;
run once normally and once with FMM_DISABLE_NUMBA=1 to compare a full
FMM evaluation across backends as well.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# Import the library from this checkout's ``src``, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unifmm.kernels import HAVE_NUMBA, _potential_numpy, kernel_backend, laplace_potential


def time_call(fn, *args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_direct(n, rng):
    pts = rng.random((n, 3))
    chg = rng.random(n)
    rows = [("numpy", lambda: _potential_numpy(pts, pts, chg, np.zeros(n)))]
    if HAVE_NUMBA:
        laplace_potential(pts[:16], pts[:16], chg[:16])  # trigger JIT compile
        rows.insert(0, ("numba", lambda: laplace_potential(pts, pts, chg)))
    print(f"direct summation, n = {n} ({n * n:.2e} pairs)")
    for name, fn in rows:
        secs = time_call(fn)
        print(f"  {name:>6}: {secs * 1e3:9.1f} ms   {n * n / secs:.2e} pairs/s")


def bench_fmm(n, rng):
    from unifmm.distributed import FmmConfig, evaluate, setup
    from unifmm.transport import create_world, run_spmd

    pts = rng.random((n, 3))
    chg = rng.random(n)
    config = FmmConfig(global_depth=1, local_depth=2, order=6, seed=0)
    world = create_world(8, seed=0)
    chunks = np.array_split(np.arange(n), 8)

    def program(comm):
        state = setup(comm, pts[chunks[comm.rank]], chg[chunks[comm.rank]], config)
        t0 = time.perf_counter()
        evaluate(state)
        return time.perf_counter() - t0

    times = run_spmd(world, program)
    print(f"fmm evaluate ({kernel_backend()} backend), n = {n}, 8 ranks, order 6: "
          f"max rank time {max(times) * 1e3:.1f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,4000,16000")
    parser.add_argument("--skip-fmm", action="store_true")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    print(f"active kernel backend: {kernel_backend()}")
    for n in (int(s) for s in args.sizes.split(",")):
        bench_direct(n, rng)
    if not args.skip_fmm:
        bench_fmm(16384, rng)


if __name__ == "__main__":
    main()
