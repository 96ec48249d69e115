"""Benchmark the pairwise kernel, the near-field sweep and one FMM evaluate.

The same kernel backs the near-field sweep, the source-to-check and
expansion-to-target evaluations, and the verification oracle, so this is
the package's hot path. Run directly:

    python benchmarks/bench_kernels.py --sizes 1000,4000,16000

Each size reports the direct-summation throughput (pair interactions per
second) and a near-field row, which times ``p2p_uli`` on one rank's uniform
leaf tree and reports its effective rate: the one-way pairs the sweep accounts
for (every target against every source of its U list) per second, so the
mutual sweep, which computes each pair of distinct leaves once, can read
above the direct-summation rate.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# Import the library from this checkout's ``src``, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unifmm import morton
from unifmm.kernels import direct_sum, p2p_uli
from unifmm.tree import build_interaction_lists, build_tree


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
    secs = time_call(direct_sum, pts, pts, chg)
    print(f"direct summation, n = {n} ({n * n:.2e} pairs)")
    print(f"  {secs * 1e3:9.1f} ms   {n * n / secs:.2e} pairs/s")


def bench_near_field(n, rng):
    """``p2p_uli`` over uniform points on one rank that owns every root."""
    global_depth, local_depth = 1, 2
    cube = morton.BoundingCube(origin=(0.0, 0.0, 0.0), side=1.0)
    leaf_level = global_depth + local_depth
    pts = rng.random((n, 3))
    pts = pts[np.argsort(morton.encode_points(pts, leaf_level, cube), kind="stable")]
    roots = morton.descendants(morton.make_key(0, 0, 0, 0), global_depth)
    tree = build_tree(pts, cube, global_depth, local_depth, local_roots=roots)
    lists = build_interaction_lists(tree)
    chg = rng.random(n)
    counts = np.diff(tree.leaf_ranges, axis=1)[:, 0]
    members = tree.index_of(leaf_level, lists.u_member_keys)
    sources = np.add.reduceat(counts[members], lists.u_member_ptr[:-1])
    pairs = int((counts * sources).sum())
    secs = time_call(p2p_uli, tree, lists, chg)
    print(f"near-field sweep p2p_uli, n = {n}, {len(counts)} leaves ({pairs:.2e} pairs)")
    print(f"  {secs * 1e3:9.1f} ms   {pairs / secs:.2e} pairs/s")


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
    print(f"fmm evaluate, n = {n}, 8 ranks, order 6: max rank time {max(times) * 1e3:.1f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,4000,16000")
    parser.add_argument("--skip-fmm", action="store_true")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    for n in (int(s) for s in args.sizes.split(",")):
        bench_direct(n, rng)
        bench_near_field(n, rng)
    if not args.skip_fmm:
        bench_fmm(16384, rng)


if __name__ == "__main__":
    main()
