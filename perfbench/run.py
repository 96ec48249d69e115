"""unifmm benchmark: cold setup, evaluate and charge-update wall time.

Run from the repository root:

    python3 perfbench/run.py --workload cube-p1-deep --seed 1 --seconds 40 --trace 0

The seed makes the points and charges; the library receives only those.
``--trace 0`` reports the end-to-end metrics: ``setup_s`` (one cold,
world-wide setup), ``evaluate_s``, ``update_s`` (``update_charges`` with
fresh charges, then ``evaluate``), each the median over the run's passing
samples of the slowest rank's time (warm-up samples excluded), corrected
for the host's speed (see ``hostspeed.py``; the medians as measured are
printed beside them), and ``peak_rss_mb`` of the process by the end of
the first timed cycle.
``--trace 1`` is a separate run that also wraps the library's layer
functions (see ``spans.py``) and reports per-layer wall time, thread CPU
time and deterministic work counts instead; ``--chrome-trace PATH`` then
writes its spans as a Chrome trace-event file with one thread per rank.

Every sample is checked (see ``harness.py``): its potentials against
direct summation on seeded targets, within the frozen accuracy bound of
its order; the collectives each phase makes; the neighbor-graph degree;
and work counters that must repeat exactly. Standard output ends with an
environment record, one line per metric and, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when a sample failed or a metric was not
produced, 2 when the library cannot be found next to this directory.

``--self-test`` runs a small instance untraced and traced, and checks that
the work counters repeat exactly, that the traced run produces every
per-layer metric and that ``BENCHMARK.json`` lists the metrics this
benchmark reports.

BLAS and OpenMP pools are pinned to one thread, so the only threads a
workload starts are its simulated ranks, and the process is pinned to one
CPU. On a shared 2-vCPU host, rank threads that wake each other across
vCPUs made the same P=64 run take 0.45 s or 1.4 s per evaluate, depending
on the neighbors' load; on one CPU the time is the ranks' work, which the
host-speed correction then applies to. P=512 is left out: with 512 rank
threads on a 2-core machine (67 s setup, 72 s evaluate) the run measures
the thread scheduler rather than the program.
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("evaluate_s", "s"), ("update_s", "s"), ("peak_rss_mb", "MB"))
COLD_SETUP = ("every setup sample clears the operator-set cache first, so it pays the "
              "operator build (get_operator_set) that a fresh process pays")
PINNED = ("the process runs on one CPU, so rank threads never wait on a wake-up across "
          "vCPUs; times are corrected for host speed by the reference loop of hostspeed.py")
P512_EXCLUDED = ("P=512 is excluded: 512 rank threads on a 2-core machine measure the "
                 "scheduler, not the program")


def _import_library():
    """Pin the thread pools and the CPU, then import the library from ``src``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "unifmm" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'unifmm'} not found; run from a unifmm checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # noqa: F401 - imports numpy and unifmm after the pinning above


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(bench):
    import hostspeed
    import numpy as np

    from unifmm.kernels import kernel_backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = importlib.util.find_spec("numba") is not None
    return {
        "kernel_backend": kernel_backend(),
        "numba": "installed" if numba else "absent: the numba kernel path is unverified",
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_settings": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": sorted(os.sched_getaffinity(0)),
        "pinned": PINNED,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "cold_setup": COLD_SETUP,
        "excluded": P512_EXCLUDED,
        "reference_loop_s": {"nominal": hostspeed.REFERENCE_S,
                             "median_this_run": bench.reference_median()},
        "workload": dataclasses.asdict(bench.workload),
    }


def run(args):
    import harness
    import spans

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(harness.WORKLOADS)})", file=sys.stderr)
        return 2
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        recorder.install()
    bench = harness.Bench(workload, args.seed, args.seconds, recorder).run()
    if recorder is not None:
        recorder.uninstall()
        if args.chrome_trace:
            recorder.write_chrome_trace(args.chrome_trace)

    print(json.dumps({"env": environment(bench)}))
    for s in bench.samples:
        print(f"sample {s.id:3d} {s.kind:8s} {s.wall:10.4f} s "
              f"{'traced' if s.traced else 'untraced'} {'warm-up' if s.warmup else 'timed'} "
              f"reference {' '.join(f'{r:.5f}' for r in s.reference)} s "
              f"{'ok' if s.ok else 'FAILED'}")
    for problem in bench.problems():
        print(f"FAILED {problem}")
    metrics, missing = {}, []
    if args.trace:
        values, missing = bench.per_layer()
        for name, unit, _, _ in harness.per_layer_spec():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"{name:56s} {values[name]:>14.6g} {unit}")
    else:
        values = bench.end_to_end()
        for name, unit in END_TO_END:
            if name not in values:
                missing.append(name)
                continue
            value, raw, n = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:16s} {value:>12.6g} {unit:3s} median of {n} (as measured: {raw:.6g})")
    for name in missing:
        print(f"FAILED metric {name}: no passing sample produced it")
    failed = bench.failed()
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": bench.attempted(),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    import harness
    import spans

    small = harness.Workload("self-test", "uniform_cube", 4096, 8, 1, 2, 4, 1, "")
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        runs = [harness.Bench(small, seed=7, seconds=0).run(),
                harness.Bench(small, seed=7, seconds=0, recorder=recorder).run()]
    finally:
        recorder.uninstall()
    problems = [p for bench in runs for p in bench.problems()]
    counts = [{s.kind: s.counters for s in bench.samples} for bench in runs]
    if counts[0] != counts[1]:
        problems.append("work counters differ between an untraced and a traced run")
    problems += [f"traced run did not produce {name}" for name in runs[1].per_layer()[1]]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != [
            (name, unit, better) for name, unit, better, _ in harness.per_layer_spec()]:
        problems.append("BENCHMARK.json per_layer differs from harness.per_layer_spec()")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if {w["name"]: w["why"] for w in spec["workloads"]} != {
            w.name: w.why for w in harness.WORKLOADS.values()}:
        problems.append("BENCHMARK.json workloads differ from harness.WORKLOADS")

    for problem in problems:
        print(f"FAILED {problem}")
    print("self-test:", "FAIL" if problems else
          f"PASS ({sum(len(b.samples) for b in runs)} samples, counters identical)")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="cube-p1-deep, sphere-p8-o8-update or cube-p64-weak")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time budget for the samples of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="with --trace 1, write the spans as Chrome trace events")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    _import_library()
    return self_test() if args.self_test else run(args)


if __name__ == "__main__":
    sys.exit(main())
