"""Drives one workload through unifmm's public API and checks every sample.

A run is a sequence of samples. Each sample is one world-wide operation,
a ``setup``, an ``evaluate`` or an ``update`` (``update_charges`` with
fresh charges, then ``evaluate``), and it is timed from the moment every
rank is ready to the moment the last rank returns. All ranks step through
the same schedule in lockstep: between two samples they wait on one
barrier, whose action (run by one thread while the others are held)
checks the sample just finished, picks the next one and stamps the ready
time. Checks and input preparation therefore stay out of the timings.

The schedule is a warm-up of one setup, evaluate and update, then a cycle
of one setup followed by ``pairs_per_setup`` evaluate/update pairs,
repeated until the time budget is spent. Spreading the setups over the
run and keeping samples short makes each median an average over the whole
run, which a shared host needs: its speed drifts by tens of percent over
seconds to minutes. On top of that each timing is corrected for the
host's speed around it, by the reference loop of ``hostspeed.py`` timed in
every barrier action. Warm-up samples are checked but give no timing.

Every setup is cold: the action drops the cached operator sets first, so
each setup pays the operator build a fresh process pays. A sample that
raises or fails a check counts as failed and contributes no timing.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from unifmm import distributed, operators
from unifmm.distributed import SETUP_PHASES
from unifmm.cli import generate_charges, generate_points
from unifmm.kernels import direct_sum
from unifmm.transport import COLLECTIVE_KINDS, create_world, run_spmd

from hostspeed import REFERENCE_S, reference_seconds
from spans import LAYER_FUNCTIONS, SPAN_STATS

MAX_DEGREE = 26
WARMUP = ("setup", "evaluate", "update")
ORACLE_TARGETS = 256    # seeded targets checked against all sources
ORACLE_CHUNK = 8        # targets per direct_sum call, to keep its temporaries small
BARRIER_TIMEOUT = 170.0

# Collective calls each phase makes on every rank: an exact count, or None
# where the count depends on the input. Kinds not listed must make no call.
# The transport metrics cover the listed kinds.
SCHEDULE = {
    "setup": {"allgatherv": None, "alltoallv": None, "neighbor_alltoallv": None},
    "evaluate": {"neighbor_alltoallv": 1, "gatherv": 1, "scatterv": 1},
    "update": {"neighbor_alltoallv": 1},
}
TRANSPORT_COUNTS = (("calls", "count"), ("msgs_sent", "count"), ("bytes_sent", "B"))

@dataclass(frozen=True)
class Workload:
    name: str
    distribution: str
    n: int
    ranks: int
    global_depth: int
    local_depth: int
    order: int
    pairs_per_setup: int    # evaluate/update pairs after each setup
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "cube-p1-deep", "uniform_cube", 16384, 1, 1, 2, 6, 3,
        "Uniform cube N=16384, P=1, d_g=1, d_l=2, order 6; a cold setup, then 3 evaluate/update "
        "pairs, repeated. Kernel and operator bound, zero transport bytes: single-rank baseline.",
    ),
    Workload(
        "sphere-p8-o8-update", "sphere_surface", 8192, 8, 1, 1, 8, 2,
        "Sphere surface N=8192, P=8, d_g=1, d_l=1, order 8; a cold setup, then 2 evaluate/update "
        "pairs, repeated. Operator build dominates setup; fresh charges per update; empty leaves.",
    ),
    Workload(
        "cube-p64-weak", "uniform_cube", 4096, 64, 2, 1, 2, 1,
        "Uniform cube N=4096 (64/rank), P=64, d_g=2, d_l=1, order 2; a cold setup, then 1 "
        "evaluate/update pair, repeated. Partition/transport bound, root global stage, "
        "26 neighbors.",
    ),
)}


@dataclass
class Sample:
    id: int
    kind: str
    traced: bool = False
    warmup: bool = False
    wall: float = 0.0
    reference: list = field(default_factory=list)     # reference-loop s before and after
    ok: bool = False
    problems: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)      # deterministic work counts
    transport: dict = field(default_factory=dict)     # phase -> kind -> stats
    setup_phases: dict = field(default_factory=dict)
    global_stage_s: float | None = None

    @property
    def corrected(self):
        """Wall seconds at the reference speed of :mod:`hostspeed`."""
        return self.wall * REFERENCE_S / statistics.fmean(self.reference)


@dataclass
class RankOutput:
    end: float
    counts: dict        # phase -> kind -> (calls, msgs_sent, bytes_sent, seconds)
    result: object


def _collective_counts(comm):
    return {k: (s.calls, s.msgs_sent, s.bytes_sent, s.seconds)
            for k, s in comm.stats().by_kind.items()}


def _delta(before, after):
    return {k: tuple(a - b for a, b in zip(after[k], before[k])) for k in after}


def make_operators_cold():
    """Drop every cached operator set, so the next setup builds its own."""
    cache = getattr(operators, "_OP_CACHE", None)
    if cache is None:
        raise RuntimeError("operator cache not found: setup would be timed warm")
    cache.clear()


def p2p_pairs(state):
    """Target-source pairs the near-field sweep of one rank computes."""
    tree, lists = state.tree, state.lists
    counts = tree.leaf_ranges[:, 1] - tree.leaf_ranges[:, 0]
    keys = lists.u_member_keys
    local = tree.contains(tree.leaf_level, keys)
    sources = np.zeros(len(keys), dtype=np.int64)
    sources[local] = counts[tree.index_of(tree.leaf_level, keys[local])]
    ghosts = state.near_ghosts.points
    sources[~local] = [len(ghosts.get(int(k), ())) for k in keys[~local]]
    owner = np.repeat(np.arange(len(counts)), np.diff(lists.u_member_ptr))
    return int((counts[owner] * sources).sum())


def leaf_point_pairs(state, grid):
    """Point pairs between the nonempty leaves' points and ``grid`` per leaf."""
    tree = state.tree
    nonempty = tree.level_nonempty[tree.leaf_level]
    ranges = tree.leaf_ranges[nonempty]
    return int((ranges[:, 1] - ranges[:, 0]).sum()) * len(grid)


def transport_metric(kind, phase, stat):
    return f"transport.{kind}.{phase}.{stat}"


# (name, unit) of the counts work_counters() returns.
WORK_COUNTERS = (
    ("kernels.p2p_uli.pairs", "count"),
    ("operators.s2u.pairs", "count"),
    ("operators.d2t.pairs", "count"),
    ("operators.m2l.products", "count"),
    ("operators.m2l.flops", "count"),
    ("operators.ops_bytes", "B"),
    ("partition.n_points_imbalance", "ratio"),
)


def work_counters(states):
    """Deterministic work counts of one evaluate, from public solver state."""
    ops = states[0].ops
    n_e = ops.n_coeff
    products = sum(len(g[0]) for st in states for g in st.v_plan.grouped.values())
    products += sum(
        len(g[0]) for g in states[distributed.NOMINATED_RANK].global_plan.grouped.values()
    )
    points = [st.point_count() for st in states]
    return {
        "kernels.p2p_uli.pairs": sum(p2p_pairs(st) for st in states),
        "operators.s2u.pairs": sum(leaf_point_pairs(st, ops.up_check_grid) for st in states),
        "operators.d2t.pairs": sum(leaf_point_pairs(st, ops.down_equiv_grid) for st in states),
        "operators.m2l.products": products,
        "operators.m2l.flops": 2 * n_e * n_e * products,
        "operators.ops_bytes": sum(
            v.nbytes for v in vars(ops).values() if isinstance(v, np.ndarray)
        ),
        "partition.n_points_imbalance": max(points) / (sum(points) / len(points)),
    }


class World:
    """One simulated world whose ranks run samples in lockstep."""

    def __init__(self, bench):
        self.bench = bench
        p = bench.workload.ranks
        self.states = [None] * p
        self.outputs = [None] * p
        self.charge_inputs = [None] * p
        self.points = None          # rank-order concatenation of the ranks' points
        self.charges = None         # and of their current charges
        self.charges_version = None
        self.oracle = (None, None)  # (charges_version, direct-sum potentials at the targets)
        self.step = None
        self.sample = None
        self.done = []
        self.t_ready = 0.0
        self.reference_s = None     # of the reference loop in the latest barrier action
        self.barrier = threading.Barrier(p, action=self._between_steps, timeout=BARRIER_TIMEOUT)

    def run(self):
        run_spmd(create_world(self.bench.workload.ranks, seed=self.bench.seed), self._program)

    def _program(self, comm):
        try:
            while True:
                self.barrier.wait()
                if self.step is None:
                    return
                self.outputs[comm.rank] = self._run_step(comm, self.step)
        except BaseException:
            self.barrier.abort()
            raise

    def _run_step(self, comm, kind):
        r = comm.rank
        before = _collective_counts(comm)
        if kind == "setup":
            self.states[r] = distributed.setup(
                comm, self.bench.rank_points[r], self.bench.rank_charges[r], self.bench.config
            )
            result, phases = None, {"setup": before}
        elif kind == "evaluate":
            result, phases = distributed.evaluate(self.states[r]), {"evaluate": before}
        else:
            distributed.update_charges(self.states[r], self.charge_inputs[r])
            mid = _collective_counts(comm)
            result, phases = distributed.evaluate(self.states[r]), {"update": before,
                                                                     "evaluate": mid}
        end = time.perf_counter()
        after = _collective_counts(comm)
        marks = list(phases.values()) + [after]
        counts = {ph: _delta(marks[i], marks[i + 1]) for i, ph in enumerate(phases)}
        return RankOutput(end=end, counts=counts, result=result)

    def _between_steps(self):
        self.reference_s = reference_seconds()
        try:
            if self.step is not None:
                self.bench.finish_step(self)
            self.step = self.bench.next_step(self)
            if self.step is not None:
                self.bench.begin_step(self)
        except Exception as exc:  # noqa: BLE001 - the barrier action must not break the barrier
            traceback.print_exc(file=sys.stderr)
            if self.sample is not None:
                self.sample.ok = False
                self.sample.problems.append(f"check raised {type(exc).__name__}: {exc}")
            self.step = None
        self.t_ready = time.perf_counter()


class Bench:
    """One run of one workload: inputs from ``seed``, samples for ``seconds``."""

    def __init__(self, workload, seed, seconds, recorder=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder
        self.config = distributed.FmmConfig(
            global_depth=workload.global_depth, local_depth=workload.local_depth,
            order=workload.order, precision="f64", seed=seed,
        )
        self.eps = operators.frozen_eps(workload.order)
        points = generate_points(workload.distribution, workload.n, seed)
        charges = generate_charges(workload.n, seed)
        chunks = np.array_split(np.arange(workload.n), workload.ranks)
        self.rank_points = [points[c] for c in chunks]
        self.rank_charges = [charges[c] for c in chunks]
        self.input_rows = _sorted_rows(points, charges)
        rng = np.random.default_rng([seed, 3])
        self.oracle_targets = np.sort(rng.choice(workload.n, ORACLE_TARGETS, replace=False))
        self.samples = []
        self.oracle_rates = []
        self._step_cost = {}
        self._first_counters = {}
        self._t0 = None
        self.peak_rss_mb = None     # of the process, after the first timed cycle

    # -- schedule -----------------------------------------------------------

    def run(self):
        self._t0 = time.perf_counter()
        world = World(self)
        try:
            world.run()
        except Exception as exc:  # noqa: BLE001 - a raising sample is a failed sample
            sample = world.sample
            if sample is None or sample.ok:
                sample = Sample(id=len(self.samples), kind="world")
                self.samples.append(sample)
            sample.problems.append(f"raised {type(exc).__name__}: {exc}")
        if self.peak_rss_mb is None:
            self._record_rss()
        return self

    def _record_rss(self):
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _elapsed(self):
        return time.perf_counter() - self._t0

    def next_step(self, world):
        i = len(world.done)
        if i < len(WARMUP):
            return WARMUP[i]
        cycle = ("setup",) + ("evaluate", "update") * self.workload.pairs_per_setup
        if i == len(WARMUP) + len(cycle):
            # Taken at a fixed point, as the allocator's footprint creeps up
            # with the number of setups a run fits in.
            self._record_rss()
        kind = cycle[(i - len(WARMUP)) % len(cycle)]
        timed = [s.kind for s in self.samples if not s.warmup]
        # Every kind needs a timed sample; a traced run needs an untraced
        # evaluate too, to measure the overhead.
        needed = (any(k not in timed for k in WARMUP)
                  or timed.count("evaluate") < (2 if self.recorder else 1))
        if needed or self._elapsed() + self._step_cost.get(kind, 0.0) <= self.seconds:
            return kind
        return None

    def begin_step(self, world):
        kind = world.step
        sample = Sample(id=len(self.samples), kind=kind, warmup=len(world.done) < len(WARMUP))
        self.samples.append(sample)
        world.sample = sample
        sample.reference.append(world.reference_s)
        world.outputs = [None] * len(world.outputs)
        if kind == "setup":
            world.states = [None] * len(world.states)
            make_operators_cold()
        elif kind == "update":
            q = np.random.default_rng([self.seed, 2, sample.id]).random(self.workload.n)
            bounds = np.cumsum([0] + [st.point_count() for st in world.states])
            world.charge_inputs = [q[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
            world.charges, world.charges_version = q, ("update", sample.id)
        if self.recorder is not None:
            # Evaluates alternate traced and untraced, starting traced, so the
            # untraced reference of trace.overhead_s is not the cold first one.
            n_eval = sum(s.kind == "evaluate" and not s.warmup for s in self.samples[:-1])
            self.recorder.sample = sample.id
            self.recorder.enabled = sample.traced = not sample.warmup and (
                kind != "evaluate" or n_eval % 2 == 0)
        gc.collect()

    # -- checks -------------------------------------------------------------

    def finish_step(self, world):
        sample, outs = world.sample, world.outputs
        sample.wall = max(o.end for o in outs) - world.t_ready
        sample.reference.append(world.reference_s)
        world.done.append(sample.kind)
        if self.recorder is not None:
            self.recorder.enabled = False
        problems = sample.problems
        if sample.kind == "setup":
            problems += self._check_setup(world)
        else:
            potentials = np.concatenate([o.result.potentials for o in outs])
            problems += self._check_accuracy(world, potentials)
            sample.global_stage_s = outs[distributed.NOMINATED_RANK].result.seconds["global_stage"]
        for phase in outs[0].counts:
            problems += self._check_schedule(phase, [o.counts[phase] for o in outs])
            sample.transport[phase] = {
                kind: {
                    "calls": max(o.counts[phase][kind][0] for o in outs),
                    "msgs_sent": sum(o.counts[phase][kind][1] for o in outs),
                    "bytes_sent": sum(o.counts[phase][kind][2] for o in outs),
                    "wait_max_s": max(o.counts[phase][kind][3] for o in outs),
                }
                for kind in SCHEDULE[phase]
            }
        if sample.kind == "setup":
            sample.setup_phases = {
                ph: max(st.timings[ph] for st in world.states) for ph in SETUP_PHASES
            }
        sample.counters = dict(work_counters(world.states))
        for phase, kinds in sample.transport.items():
            for kind, st in kinds.items():
                for stat, _ in TRANSPORT_COUNTS:
                    sample.counters[transport_metric(kind, phase, stat)] = st[stat]
        first = self._first_counters.setdefault(sample.kind, sample.counters)
        if sample.counters != first:
            problems.append(f"work counters differ from the first {sample.kind} sample")
        sample.ok = not problems
        self._step_cost[sample.kind] = time.perf_counter() - world.t_ready

    def _check_setup(self, world):
        problems = []
        for st in world.states:
            degree = max(len(st.u_graph), len(st.v_graph))
            if degree > MAX_DEGREE:
                problems.append(f"rank {st.rank}: graph degree {degree} > {MAX_DEGREE}")
        world.points = np.concatenate([st.points for st in world.states])
        world.charges = np.concatenate([st.charges for st in world.states])
        world.charges_version = ("setup",)
        if not np.array_equal(_sorted_rows(world.points, world.charges), self.input_rows):
            problems.append("setup lost, duplicated or altered input points or charges")
        return problems

    def _check_schedule(self, phase, rank_counts):
        problems = []
        for r, counts in enumerate(rank_counts):
            for kind in COLLECTIVE_KINDS:
                calls, _, sent, _ = counts[kind]
                expected = SCHEDULE[phase].get(kind, 0)
                if expected is not None and calls != expected:
                    problems.append(f"rank {r} {phase}: {calls} {kind} calls, "
                                    f"expected {expected}")
                if len(rank_counts) == 1 and sent:
                    problems.append(f"single rank {phase}: {kind} sent {sent} bytes")
        return problems

    def _check_accuracy(self, world, potentials):
        if world.oracle[0] != world.charges_version:
            t = time.perf_counter()
            ref = np.concatenate([
                direct_sum(world.points[chunk], world.points, world.charges)
                for chunk in np.array_split(self.oracle_targets, ORACLE_TARGETS // ORACLE_CHUNK)
            ])
            self.oracle_rates.append(ORACLE_TARGETS * self.workload.n / (time.perf_counter() - t))
            world.oracle = (world.charges_version, ref)
        ref = world.oracle[1]
        err = float(np.linalg.norm(potentials[self.oracle_targets] - ref) / np.linalg.norm(ref))
        if not err <= self.eps:
            return [f"relative L2 error {err:.3e} > frozen eps {self.eps:.1e}"]
        return []

    # -- results ------------------------------------------------------------

    def attempted(self):
        return len(self.samples)

    def failed(self):
        return sum(not s.ok for s in self.samples)

    def problems(self):
        return [f"sample {s.id} ({s.kind}): {p}" for s in self.samples for p in s.problems]

    def _ok(self, kind=None, traced=None):
        return [s for s in self.samples if s.ok and not s.warmup
                and (kind is None or s.kind == kind) and (traced is None or s.traced == traced)]

    def end_to_end(self):
        """Medians over the passing samples of each kind: ``(value, raw, n)``.

        ``value`` is the median of the corrected times, ``raw`` that of the
        wall times as measured.
        """
        out = {}
        for metric, kind in (("setup_s", "setup"), ("evaluate_s", "evaluate"),
                             ("update_s", "update")):
            ok = self._ok(kind)
            if ok:
                out[metric] = (statistics.median(s.corrected for s in ok),
                               statistics.median(s.wall for s in ok), len(ok))
        out["peak_rss_mb"] = (self.peak_rss_mb, self.peak_rss_mb, 1)
        return out

    def reference_median(self):
        return statistics.median(r for s in self.samples for r in s.reference)

    def per_layer(self):
        """Per-layer metrics of a traced run: ``(values, missing)``.

        ``values`` maps each metric of :func:`per_layer_spec` that the run
        produced to its value; ``missing`` names the ones it did not.
        """
        ok = self._ok()
        counters = {}
        for s in ok:
            for name, value in s.counters.items():
                counters.setdefault(name, value)
        series = defaultdict(list)
        for s in ok:
            for phase, kinds in s.transport.items():
                for kind, st in kinds.items():
                    series[("wait", phase, kind)].append(st["wait_max_s"])
            for ph, seconds in s.setup_phases.items():
                series[("setup", ph)].append(seconds)
            if s.global_stage_s is not None:
                series["global_stage"].append(s.global_stage_s)
        series["direct_sum_rate"] = self.oracle_rates
        medians = {key: statistics.median(v) for key, v in series.items() if v}
        evals = {t: [s.corrected for s in self._ok("evaluate", traced=t)] for t in (False, True)}
        if evals[False] and evals[True]:
            medians["trace_overhead"] = (statistics.median(evals[True])
                                         - statistics.median(evals[False]))
        data = LayerData(self.recorder.layer_stats({s.id for s in self._ok(traced=True)}),
                         counters, medians)
        values, missing = {}, []
        for name, _, _, read in per_layer_spec():
            try:
                values[name] = read(data)
            except KeyError:
                missing.append(name)
        return values, missing


@dataclass
class LayerData:
    """What the per-layer metrics of a traced run are read from."""
    spans: dict         # function -> stat -> median over the traced samples
    counters: dict      # work-counter name -> count
    medians: dict       # source key -> median over the passing samples that have it


def _sorted_rows(points, charges):
    rows = np.concatenate([points, charges[:, None]], axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def per_layer_spec():
    """(name, unit, better, read) of every per-layer metric a traced run reports.

    ``read`` takes the run's :class:`LayerData` and returns the value; it
    raises KeyError when the run did not produce the metric.
    """
    spec = []

    def add(name, unit, read, better="lower"):
        spec.append((name, unit, better, read))

    def span(fn, stat, unit):
        add(f"{fn}.{stat}", unit, lambda d: d.spans[fn][stat])

    for mod, fn in LAYER_FUNCTIONS:
        for stat, unit in SPAN_STATS:
            span(f"{mod}.{fn}", stat, unit)
    span("operators.upward_pass", "self_wall_max_s", "s")
    span("operators.vli_downward", "self_wall_max_s", "s")
    span("distributed.evaluate", "wall_cpu_ratio", "ratio")
    for name, unit in WORK_COUNTERS:
        add(name, unit, lambda d, name=name: d.counters[name])
    for phase, kinds in SCHEDULE.items():
        for kind in kinds:
            for stat, unit in TRANSPORT_COUNTS:
                name = transport_metric(kind, phase, stat)
                add(name, unit, lambda d, name=name: d.counters[name])
            add(transport_metric(kind, phase, "wait_max_s"), "s",
                lambda d, key=("wait", phase, kind): d.medians[key])
    for ph in SETUP_PHASES:
        add(f"distributed.setup.{ph}_s", "s", lambda d, key=("setup", ph): d.medians[key])
    add("distributed.global_stage_s", "s", lambda d: d.medians["global_stage"])
    add("kernels.direct_sum.pairs_per_s", "1/s", lambda d: d.medians["direct_sum_rate"],
        better="higher")
    add("trace.overhead_s", "s", lambda d: d.medians["trace_overhead"])
    return spec
