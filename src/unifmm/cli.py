"""Command-line front end: point generation, verification, scaling sweeps.

Subcommands:

``fmm generate``
    Write a binary point file (format FMMPTS1) and optionally a charge
    file (FMMCHG1) for a seeded uniform-cube or sphere-surface cloud.

``fmm verify``
    Run the direct-summation oracle, the single-rank reference pipeline,
    and the P-rank distributed pipeline on one seeded instance; print
    both error metrics and exit 0 only if the distributed result matches
    the reference within the precision's bound (relative L2: 1e-10 in
    f64, 1e-6 in f32) and the reference matches direct summation within
    the precision's frozen per-order bound.

``fmm sweep``
    Weak- or strong-scaling sweep over a list of rank counts. Emits a
    deterministic stats CSV (one row per rank, repeat, and collective),
    a timings CSV with measured wall times (by nature not reproducible
    run to run), and a JSON manifest holding the deterministic run
    description. Per P and phase, the timings CSV ends with the mean and
    stddev over repeats of the slowest rank's seconds.
"""

from __future__ import annotations

import argparse
import csv
import json
import struct
import sys
import time

import numpy as np

from . import __version__
from .distributed import FmmConfig, SETUP_PHASES, evaluate, run_manifest, setup
from .kernels import direct_sum
from .operators import frozen_eps
from .transport import COLLECTIVE_KINDS, create_world, run_spmd

POINTS_MAGIC = b"FMMPTS1\x00"
CHARGES_MAGIC = b"FMMCHG1\x00"

DIRECT_SUM_CAP = 100_000  # O(N^2) oracle cap for verify

# Distributed-vs-reference relative L2 bound of verify, per precision.
# f32 rounds differently at each rank count; its worst case seen over
# orders 2-8 on seeds 0-3 was 1.4e-8.
DIST_TOL = {"f64": 1e-10, "f32": 1e-6}

STATS_COLUMNS = [
    "p", "repeat", "rank", "n_points", "n_roots", "v_ghost_boxes",
    "u_degree", "v_degree", "collective", "calls", "msgs_sent",
    "bytes_sent", "bytes_recv", "payload_bytes",
]

TIMING_PHASES = list(SETUP_PHASES) + [
    "computation", "global_stage", "neighbor_alltoallv", "gatherv", "scatterv",
]


def generate_points(distribution, n, seed):
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if distribution == "uniform_cube":
        return rng.random((n, 3))
    if distribution == "sphere_surface":
        raw = rng.normal(size=(n, 3))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)
    raise ValueError(f"unknown distribution {distribution!r}")


def generate_charges(n, seed):
    return np.random.default_rng([seed, 1]).random(n)


def write_points(path, points, precision="f64"):
    points = np.asarray(points, dtype=np.float64)
    _write_binary(path, POINTS_MAGIC, points, precision)


def write_charges(path, charges, precision="f64"):
    charges = np.asarray(charges, dtype=np.float64).reshape(-1)
    _write_binary(path, CHARGES_MAGIC, charges, precision)


def _write_binary(path, magic, array, precision):
    bits = 32 if precision == "f32" else 64
    dtype = np.float32 if bits == 32 else np.float64
    count = array.shape[0]
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<IQ", bits, count))
        f.write(np.ascontiguousarray(array, dtype=dtype).tobytes())


def _read_binary(path, magic, width):
    """Body of a point or charge file as ``count`` rows of ``width`` floats."""
    with open(path, "rb") as f:
        got = f.read(8)
        if got != magic:
            raise ValueError(f"{path}: bad magic {got!r}, expected {magic!r}")
        header = f.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: header truncated")
        bits, count = struct.unpack("<IQ", header)
        if bits not in (32, 64):
            raise ValueError(f"{path}: precision field is {bits}, expected 32 or 64")
        raw = f.read()
    if len(raw) != count * width * (bits // 8):
        raise ValueError(
            f"{path}: body holds {len(raw)} bytes, expected {count} x {width} "
            f"values of {bits // 8} bytes"
        )
    body = np.frombuffer(raw, dtype=np.float32 if bits == 32 else np.float64)
    return body.reshape(count, width).astype(np.float64)


def read_points(path):
    return _read_binary(path, POINTS_MAGIC, 3)


def read_charges(path):
    return _read_binary(path, CHARGES_MAGIC, 1).reshape(-1)


def _config_from_args(args, global_depth):
    return FmmConfig(
        global_depth=global_depth,
        local_depth=args.local_depth,
        order=args.order,
        precision=args.precision,
        seed=args.seed,
    )


def _chunks(n, p):
    return np.array_split(np.arange(n), p)


def _run_world(points, charges, n_ranks, config, repeats=1, drop_ghost_rank=None):
    chunks = _chunks(len(points), n_ranks)
    world = create_world(n_ranks, seed=config.seed)

    def program(comm):
        state = setup(comm, points[chunks[comm.rank]], charges[chunks[comm.rank]], config)
        if drop_ghost_rank is not None and comm.rank == drop_ghost_rank:
            state.drop_one_v_ghost()
        evals = [evaluate(state) for _ in range(repeats)]
        return state, evals

    results = run_spmd(world, program)
    return world, [r[0] for r in results], [r[1] for r in results]


def cmd_generate(args):
    points = generate_points(args.dist, args.n, args.seed)
    write_points(args.out, points, args.precision)
    print(f"wrote {args.n} {args.dist} points to {args.out}")
    if args.charges:
        write_charges(args.charges, generate_charges(args.n, args.seed), args.precision)
        print(f"wrote charges to {args.charges}")
    return 0


def cmd_verify(args):
    config = _config_from_args(args, args.global_depth)
    # Every rank needs a root: reject P before any rank thread starts.
    n_roots = 8**config.global_depth
    if not 1 <= args.p <= n_roots:
        raise ValueError(
            f"--p must be between 1 and {n_roots} (8^{config.global_depth} roots "
            f"at --global-depth {config.global_depth}), got {args.p}"
        )
    if args.test_drop_ghost is not None and not 0 <= args.test_drop_ghost < args.p:
        raise ValueError(f"--test-drop-ghost must name a rank below --p {args.p}, "
                         f"got {args.test_drop_ghost}")
    points = generate_points(args.dist, args.n, args.seed)
    charges = generate_charges(args.n, args.seed)

    world, states, evals = _run_world(
        points, charges, args.p, config, drop_ghost_rank=args.test_drop_ghost
    )
    f_dist = np.concatenate([e[0].potentials for e in evals])
    counts = [s.point_count() for s in states]

    ref_world, ref_states, ref_evals = _run_world(points, charges, 1, config)
    f_ref = ref_evals[0][0].potentials
    spts, schg = ref_states[0].points, ref_states[0].charges

    err_dist = float(np.linalg.norm(f_dist - f_ref) / np.linalg.norm(f_ref))
    eps = frozen_eps(config.order, config.precision)
    tol = DIST_TOL[config.precision]
    print(f"distributed-vs-reference relative L2: {err_dist:.3e} (tolerance {tol:.0e})")
    ok = err_dist <= tol

    if args.n <= DIRECT_SUM_CAP:
        f_direct = direct_sum(spts, spts, schg)
        err_ref = float(np.linalg.norm(f_ref - f_direct) / np.linalg.norm(f_direct))
        print(f"reference-vs-direct relative L2:   {err_ref:.3e} "
              f"(frozen eps({config.order}) = {eps:.1e})")
        ok = ok and err_ref <= eps
    else:
        print(f"N > {DIRECT_SUM_CAP}: direct-summation oracle skipped")

    imbalance = max(counts) / (args.n / args.p)
    print(f"per-rank points: min {min(counts)}, max {max(counts)} "
          f"(imbalance {imbalance:.2f}x ideal)")
    if args.out:
        manifest = run_manifest(states[0], world)
        manifest["verify"] = {
            "distributed_vs_reference": err_dist,
            "reference_vs_direct": err_ref if args.n <= DIRECT_SUM_CAP else None,
            "rank_point_counts": counts,
        }
        with open(args.out, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
        print(f"wrote manifest to {args.out}")
    print("verify:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _sweep_points(args, p, mode):
    n = args.n * p if mode == "weak" else args.n
    points = generate_points(args.dist, n, args.seed)
    return n, points, generate_charges(n, args.seed)


def cmd_sweep(args):
    p_list = [int(s) for s in args.p.split(",")]
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    depths = {}
    for p in p_list:
        if p < 1:
            raise ValueError(f"--p entries must be >= 1, got {p}")
        if p in depths:
            raise ValueError(f"--p lists {p} more than once")
        d_g = round(np.log2(p) / 3)
        if 8**d_g != p or d_g < 1:
            raise ValueError(
                f"infeasible config: P = {p} is not 8^d_g for a global depth >= 1"
            )
        depths[p] = d_g
    stats_rows = []
    timing_rows = []
    aggregate_rows = []
    manifest = None
    for p, d_g in depths.items():
        config = _config_from_args(args, d_g)
        n, points, charges = _sweep_points(args, p, args.mode)
        t0 = time.perf_counter()
        world, states, evals = _run_world(points, charges, p, config, repeats=args.repeats)
        wall = time.perf_counter() - t0
        print(f"P={p} N={n} d_g={d_g} d_l={args.local_depth}: "
              f"{args.repeats} evaluations in {wall:.2f}s total")
        slowest = {phase: [0.0] * args.repeats for phase in TIMING_PHASES}
        for rank, (state, per_rank) in enumerate(zip(states, evals)):
            for rep, ev in enumerate(per_rank):
                for kind in COLLECTIVE_KINDS:
                    row = {
                        "p": p, "repeat": rep, "rank": rank,
                        "n_points": state.point_count(),
                        "n_roots": state.n_local_roots,
                        "v_ghost_boxes": state.v_ghost_count(),
                        "u_degree": len(state.graph),
                        "v_degree": len(state.graph),
                        "collective": kind,
                    }
                    row.update(ev.stats[kind])
                    stats_rows.append(row)
                for phase in TIMING_PHASES:
                    secs = ev.seconds.get(phase)
                    if secs is None:
                        secs = state.timings.get(phase, 0.0) if rep == 0 else 0.0
                    timing_rows.append(
                        {"p": p, "repeat": rep, "rank": rank, "phase": phase,
                         "seconds": secs}
                    )
                    slowest[phase][rep] = max(slowest[phase][rep], secs)
        # Aggregate rows: mean and stddev over repeats of the slowest rank.
        for phase, per_repeat in slowest.items():
            for stat, fn in (("mean", np.mean), ("std", np.std)):
                aggregate_rows.append({"p": p, "repeat": stat, "rank": "all",
                                       "phase": phase, "seconds": float(fn(per_repeat))})
        if manifest is None:
            manifest = run_manifest(states[0], world)
            manifest["sweep"] = {"mode": args.mode, "p_list": p_list,
                                 "n": args.n, "repeats": args.repeats,
                                 "distribution": args.dist}

    stats_path = args.out + ".stats.csv"
    with open(stats_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=STATS_COLUMNS)
        writer.writeheader()
        writer.writerows(stats_rows)

    timings_path = args.out + ".timings.csv"
    with open(timings_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["p", "repeat", "rank", "phase", "seconds"])
        writer.writeheader()
        writer.writerows(timing_rows)
        writer.writerows(aggregate_rows)

    manifest_path = args.out + ".manifest.json"
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    print(f"wrote {stats_path}, {timings_path}, {manifest_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fmm",
        description="Uniform-octree kernel-independent FMM with simulated "
                    "distributed ranks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dist", default="uniform_cube",
                        choices=["uniform_cube", "sphere_surface"])
    common.add_argument("--n", type=int, default=4096, help="point count")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--precision", default="f64", choices=["f32", "f64"])

    gen = sub.add_parser("generate", parents=[common], help="write a point file")
    gen.add_argument("--out", required=True, help="points output path")
    gen.add_argument("--charges", default=None, help="optional charges output path")
    gen.set_defaults(fn=cmd_generate)

    fmm_common = argparse.ArgumentParser(add_help=False, parents=[common])
    fmm_common.add_argument("--local-depth", type=int, default=2, dest="local_depth")
    fmm_common.add_argument("--order", type=int, default=6, help="expansion order")

    ver = sub.add_parser("verify", parents=[fmm_common],
                         help="check distributed vs reference vs direct summation")
    ver.add_argument("--p", type=int, default=8, help="simulated rank count")
    # sweep takes each P's global depth from P itself, so only verify has this.
    ver.add_argument("--global-depth", type=int, default=1, dest="global_depth")
    ver.add_argument("--out", default=None, help="optional manifest output path")
    ver.add_argument("--test-drop-ghost", type=int, default=None, metavar="RANK",
                     help=argparse.SUPPRESS)  # fault-injection hook
    ver.set_defaults(fn=cmd_verify)

    sw = sub.add_parser("sweep", parents=[fmm_common], help="scaling sweep")
    sw.add_argument("--p", required=True,
                    help="comma-separated rank counts, each a power of 8")
    sw.add_argument("--mode", default="weak", choices=["weak", "strong"])
    sw.add_argument("--repeats", type=int, default=1)
    sw.add_argument("--out", required=True, help="output path prefix")
    sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
