"""Distributed FMM orchestration: setup pipeline and runtime execution.

Setup runs once per point set and resolves every data dependency ahead
of time: the distributed sort and per-rank tree build, the global layout
allgather, U/V query identification against the layout, the static
neighbor communication graph, the existence exchange, the near-field
point/charge exchange, and the far-field ghost buffer allocation.

Each evaluation then needs exactly three collectives per rank: one
neighbor exchange delivering ghost expansions for the local V lists, a
gather of local-root expansions to the nominated rank (rank 0), which
runs the top tree levels in shared memory, and a scatter returning the
local-root incoming expansions. Near-field work never communicates at
runtime; charge-only updates re-run just the near-field data exchange.

Local V lists only ever reference boxes below the root level, whose
owners are adjacent subdomains: with contiguous Morton runs of roots per
rank, the one communication graph, shared by the U and V exchanges, is
bounded by the 26 possible neighbor subdomains no matter how many ranks
run. Root-level V interactions are handled on the nominated rank, where
all root expansions are present.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import morton
from .kernels import NearFieldGhosts, UnresolvedDependencyError, p2p_uli
from .operators import (
    VListPlan,
    apply_m2l,
    d2d_level,
    d2t,
    expansion_length,
    get_operator_set,
    group_pairs_by_transfer,
    store_for_tree,
    u2u_level,
    upward_pass,
    vli_downward,
)
from .partition import (
    build_layout,
    equal_root_runs,
    redistribute,
    root_split_splitters,
    runs_from_splitters,
    sample_splitters,
    sort_local,
)
from .transport import stats_delta, transport_backend
from .tree import _v_members_with_vectors, build_interaction_lists, build_tree

NOMINATED_RANK = 0

SETUP_PHASES = ("sort_tree", "layout", "communicators", "u_list", "v_list")


@dataclass
class FmmConfig:
    """Per-run algorithm parameters."""

    global_depth: int
    local_depth: int
    order: int
    precision: str = "f64"
    seed: int = 0
    margin: float = morton.DEFAULT_MARGIN
    balance_mode: str = "roots"      # "roots": equal Morton runs of roots;
    samples_per_rank: int = 200      # "sampled": splitters from key samples

    def __post_init__(self):
        if self.global_depth < 1 or self.local_depth < 1:
            raise ValueError("global_depth and local_depth must each be >= 1")
        if self.global_depth + self.local_depth > morton.MAX_DEPTH:
            raise ValueError("tree depth exceeds MAX_DEPTH")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be f32 or f64, got {self.precision!r}")
        if self.balance_mode not in ("roots", "sampled"):
            raise ValueError(f"unknown balance_mode {self.balance_mode!r}")
        expansion_length(self.order)

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64

    @property
    def leaf_level(self):
        return self.global_depth + self.local_depth


def global_message_size(n_roots, order, precision_bits):
    """Bytes each rank contributes to the root-expansion gather."""
    if precision_bits not in (32, 64):
        raise ValueError("precision_bits must be 32 or 64")
    return n_roots * expansion_length(order) * (precision_bits // 8)


@dataclass
class _VGhosts:
    """Far-field ghost bookkeeping: one u-row buffer per local level."""

    keys: dict = field(default_factory=dict)      # level -> sorted uint64
    buffers: dict = field(default_factory=dict)   # level -> (n_ghost, n_e)
    send_plan: list = field(default_factory=list)   # per nbr: [(level, local idx)]
    recv_plan: list = field(default_factory=list)   # per nbr: [(level, ghost rows)]
    dropped: set = field(default_factory=set)

    def count(self):
        return sum(len(k) for k in self.keys.values())

    def reset(self):
        for buf in self.buffers.values():
            buf[:] = 0


@dataclass
class DistributedFmm:
    """Per-rank solver state produced by :func:`setup`."""

    comm: object
    config: FmmConfig
    cube: morton.BoundingCube
    tree: object
    lists: object
    layout: object
    ops: object
    store: object
    points: np.ndarray
    charges: np.ndarray
    orig_index: np.ndarray
    splitters: np.ndarray
    graph: np.ndarray             # sorted neighbor ranks: adjacent subdomains
    near_ghosts: NearFieldGhosts
    u_serve: list                 # per neighbor: leaf keys served with data
    u_confirmed: list             # per neighbor: ghost leaf keys received
    v_ghosts: _VGhosts
    v_plan: VListPlan
    global_plan: object           # nominated rank only, else None
    timings: dict

    @property
    def rank(self):
        return self.comm.rank

    # The U and V exchanges both run on ``graph``; these names read it.
    @property
    def u_graph(self):
        return self.graph

    @property
    def v_graph(self):
        return self.graph

    @property
    def n_local_roots(self):
        return len(self.tree.local_roots)

    def v_ghost_count(self):
        return self.v_ghosts.count()

    def point_count(self):
        return int(self.tree.n_points)

    # Test/fault-injection hook: lose one far-field ghost entry.
    def drop_one_v_ghost(self):
        for level in sorted(self.v_ghosts.keys):
            if len(self.v_ghosts.keys[level]):
                key = int(self.v_ghosts.keys[level][0])
                self.v_ghosts.dropped.add(key)
                return key
        return None


@contextmanager
def _phase(timings, name):
    """Add the block's wall time to ``timings[name]``; prefix the message
    of an exception leaving it with ``[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        if not getattr(exc, "_fmm_phase", None):
            exc._fmm_phase = name
            exc.args = (f"[{name}] {exc.args[0]}" if exc.args else f"[{name}]",) + exc.args[1:]
        raise
    finally:
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0)


def _require_finite(values, what):
    """Reject NaN or infinite input, naming the first offending entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{what} {int(np.argwhere(bad)[0][0])} is not finite")


def _global_cube(comm, points, margin):
    if len(points):
        lo, hi = points.min(axis=0), points.max(axis=0)
    else:
        lo = np.full(3, np.inf)
        hi = np.full(3, -np.inf)
    bounds = np.concatenate(comm.allgatherv(np.concatenate([lo, hi])))
    lo = bounds.reshape(-1, 6)[:, :3].min(axis=0)
    hi = bounds.reshape(-1, 6)[:, 3:].max(axis=0)
    if not np.all(np.isfinite(lo)):
        raise ValueError("no points on any rank")
    side = float((hi - lo).max()) * (1.0 + margin)
    if side <= 0.0:
        side = morton.SMALL_SIDE_FLOOR
    return morton.BoundingCube(origin=tuple(lo), side=side)


def _split_by_level(keys):
    levels = (np.asarray(keys, dtype=np.uint64) & np.uint64(morton.LEVEL_MASK)).astype(np.int64)
    return {int(lvl): np.asarray(keys, dtype=np.uint64)[levels == lvl]
            for lvl in np.unique(levels)}


def _query_packets(layout, rank, keys):
    """Group remote ``keys`` by owner rank, each sorted ascending."""
    if len(keys) == 0:
        return {}
    keys = np.unique(np.asarray(keys, dtype=np.uint64))
    owners = layout.owner_of_boxes(keys)
    return {
        int(r): np.sort(keys[owners == r]) for r in np.unique(owners) if r != rank
    }


def _exchange_queries(comm, graph, packets, tree):
    """Send query keys along ``graph``; reply with the subset existing here.

    A queried box exists when it is occupied. Returns (confirmed[],
    serve[]) aligned with the graph: what each neighbor confirmed of our
    queries, and which of their queried keys we serve.
    """
    send = [packets.get(int(j), np.empty(0, np.uint64)) for j in graph]
    incoming = comm.neighbor_alltoallv(graph, send)
    replies = []
    for q in incoming:
        if len(q) == 0:
            replies.append(np.empty(0, np.uint64))
            continue
        exist = np.zeros(len(q), dtype=bool)
        for level, lvl_keys in _split_by_level(q).items():
            nonempty = tree.level_nonempty[level][tree.index_of(level, lvl_keys)]
            exist[np.isin(q, lvl_keys[nonempty])] = True
        replies.append(q[exist])
    confirmed = comm.neighbor_alltoallv(graph, replies)
    return [np.asarray(c, dtype=np.uint64) for c in confirmed], replies


def setup(comm, points, charges, config):
    """Run the full setup pipeline; returns per-rank solver state."""
    timings = {}
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    charges = np.asarray(charges, dtype=np.float64).reshape(-1)
    if len(charges) != len(points):
        raise ValueError("charges length does not match points")
    _require_finite(points, "point")
    _require_finite(charges, "charge")
    leaf_level = config.leaf_level

    with _phase(timings, "sort_tree"):
        cube = _global_cube(comm, points, config.margin)
        keys = (
            morton.encode_points(points, leaf_level, cube)
            if len(points)
            else np.empty(0, np.uint64)
        )
        if config.balance_mode == "roots":
            splitters = root_split_splitters(config.global_depth, comm.size, leaf_level)
            # Same formula on every rank: no sampling collective needed.
            runs = equal_root_runs(config.global_depth, comm.size)
        else:
            splitters = sample_splitters(
                comm, keys, config.samples_per_rank, config.seed,
                snap_level=config.global_depth,
            )
            runs = runs_from_splitters(config.global_depth, splitters)
        # ``runs`` is the same on every rank, so all ranks raise together.
        idle = np.flatnonzero(np.diff(runs) == 0)
        if len(idle):
            raise ValueError(
                f"rank(s) {', '.join(map(str, idle))} left without local roots "
                f"by the {config.balance_mode} splitters"
            )
        pts, chg, orig_idx = redistribute(
            comm, keys, points, charges, splitters,
            orig_index=(np.uint64(comm.rank) << np.uint64(48))
            + np.arange(len(points), dtype=np.uint64),
        )
        pts, chg, orig_idx, _ = sort_local(pts, chg, orig_idx, leaf_level, cube)
        all_roots = morton.descendants(morton.make_key(0, 0, 0, 0), config.global_depth)
        my_roots = all_roots[runs[comm.rank] : runs[comm.rank + 1]]
        tree = build_tree(pts, cube, config.global_depth, config.local_depth,
                          local_roots=my_roots)

    with _phase(timings, "layout"):
        layout = build_layout(comm, config.global_depth, my_roots)

    with _phase(timings, "communicators"):
        nbr_roots = (
            np.unique(np.concatenate([morton.neighbors(int(r)) for r in my_roots]))
            if len(my_roots)
            else np.empty(0, np.uint64)
        )
        owners = np.unique(layout.owner_of_roots(nbr_roots)) if len(nbr_roots) else np.empty(0, np.int64)
        graph = np.asarray([int(r) for r in owners if r != comm.rank], dtype=np.int64)
        lists = build_interaction_lists(tree)

    with _phase(timings, "u_list"):
        u_keys = np.unique(lists.u_member_keys)
        u_local = tree.contains(leaf_level, u_keys)
        u_packets = _query_packets(layout, comm.rank, u_keys[~u_local])
        assert all(j in set(graph.tolist()) for j in u_packets), "query outside halo"
        u_confirmed, u_serve = _exchange_queries(comm, graph, u_packets, tree)
        near = NearFieldGhosts()
        for j, queried in enumerate(graph):
            asked = u_packets.get(int(queried), np.empty(0, np.uint64))
            near.confirmed_absent |= set(
                int(k) for k in np.setdiff1d(asked, u_confirmed[j])
            )
        # Ship points and charges for every leaf we serve, sorted by key.
        counts_out = []
        rows_out = []
        for served in u_serve:
            idx = tree.index_of(leaf_level, served) if len(served) else np.empty(0, np.int64)
            counts_out.append(
                (tree.leaf_ranges[idx, 1] - tree.leaf_ranges[idx, 0]).astype(np.int64)
            )
            chunks = [
                np.concatenate(
                    [tree.points[a:b], chg[a:b, None]], axis=1
                ).ravel()
                for a, b in tree.leaf_ranges[idx]
            ]
            rows_out.append(np.concatenate(chunks) if chunks else np.empty(0, np.float64))
        counts_in = comm.neighbor_alltoallv(graph, counts_out)
        rows_in = comm.neighbor_alltoallv(graph, rows_out)
        for j in range(len(graph)):
            rows = rows_in[j].reshape(-1, 4)
            pos = 0
            for key, cnt in zip(u_confirmed[j], counts_in[j]):
                near.points[int(key)] = rows[pos : pos + cnt, :3].copy()
                near.charges[int(key)] = rows[pos : pos + cnt, 3].copy()
                pos += int(cnt)

    with _phase(timings, "v_list"):
        remote_keys = [mkeys[~tree.contains(level, mkeys)]
                       for level, (_, mkeys, _) in lists.v_pairs.items()]
        v_packets = _query_packets(layout, comm.rank, np.concatenate(remote_keys))
        assert all(j in set(graph.tolist()) for j in v_packets), "query outside halo"
        v_confirmed, v_serve = _exchange_queries(comm, graph, v_packets, tree)

        ghosts = _VGhosts()
        confirmed_all = (
            np.unique(np.concatenate(v_confirmed))
            if any(len(c) for c in v_confirmed)
            else np.empty(0, np.uint64)
        )
        for level, lvl_keys in _split_by_level(confirmed_all).items():
            ghosts.keys[level] = lvl_keys
            ghosts.buffers[level] = np.zeros(
                (len(lvl_keys), expansion_length(config.order)), dtype=config.dtype
            )
        for j in range(len(graph)):
            ghosts.send_plan.append([
                (level, tree.index_of(level, lvl_keys))
                for level, lvl_keys in _split_by_level(v_serve[j]).items()
            ])
            ghosts.recv_plan.append([
                (level, np.searchsorted(ghosts.keys[level], lvl_keys))
                for level, lvl_keys in _split_by_level(v_confirmed[j]).items()
            ])

        # V application plan: local members by tree index, remote existing
        # members by ghost row appended after the local rows, absent ones
        # dropped (an absent box holds no sources).
        grouped = {}
        n_ghost_rows = {}
        for level, (tgt, mkeys, tv_idx) in lists.v_pairs.items():
            n_local = len(tree.level_keys[level])
            gkeys = ghosts.keys.get(level, np.empty(0, np.uint64))
            local = tree.contains(level, mkeys)
            rows = np.full(len(mkeys), -1, dtype=np.int64)
            rows[local] = tree.index_of(level, mkeys[local])
            remote = np.nonzero(~local)[0]
            remote = remote[np.isin(mkeys[remote], gkeys)]
            rows[remote] = n_local + np.searchsorted(gkeys, mkeys[remote])
            keep = rows >= 0
            grouped[level] = group_pairs_by_transfer(tgt[keep], rows[keep], tv_idx[keep])
            n_ghost_rows[level] = len(gkeys)
        v_plan = VListPlan(grouped=grouped, n_ghost_rows=n_ghost_rows)

        global_plan = (
            _build_global_plan(config) if comm.rank == NOMINATED_RANK else None
        )

    ops = get_operator_set(config.order, config.dtype)
    store = store_for_tree(tree, ops)
    return DistributedFmm(
        comm=comm,
        config=config,
        cube=cube,
        tree=tree,
        lists=lists,
        layout=layout,
        ops=ops,
        store=store,
        points=pts,
        charges=chg,
        orig_index=orig_idx,
        splitters=np.asarray(splitters, dtype=np.uint64),
        graph=graph,
        near_ghosts=near,
        u_serve=u_serve,
        u_confirmed=u_confirmed,
        v_ghosts=ghosts,
        v_plan=v_plan,
        global_plan=global_plan,
        timings=timings,
    )


@dataclass
class _GlobalPlan:
    """V-interaction pairs of the top tree levels (2 .. global_depth)."""

    grouped: dict  # level -> (tgt, src, flip, cuts)
    level_sizes: dict


def _build_global_plan(config):
    grouped = {}
    level_sizes = {lvl: 8**lvl for lvl in range(config.global_depth + 1)}
    root = morton.make_key(0, 0, 0, 0)
    for level in range(2, config.global_depth + 1):
        keys = morton.descendants(root, level)
        mkeys, tgt, tv_idx = _v_members_with_vectors(keys, level)
        src = np.searchsorted(keys, mkeys)
        grouped[level] = group_pairs_by_transfer(tgt, src, tv_idx)
    return _GlobalPlan(grouped=grouped, level_sizes=level_sizes)


def _check_ghosts(state):
    if state.v_ghosts.dropped:
        key = sorted(state.v_ghosts.dropped)[0]
        raise UnresolvedDependencyError(
            f"unresolved dependency: ghost u vector for box {key:#x} was lost"
        )


def _exchange_ghost_u(state):
    """The single runtime neighbor exchange of far-field expansions."""
    comm = state.comm
    n_e = state.ops.n_coeff
    send = []
    for plan_j in state.v_ghosts.send_plan:
        blocks = [state.store.u[lvl][idx] for lvl, idx in plan_j]
        send.append(
            np.concatenate(blocks).ravel() if blocks else np.empty(0, state.config.dtype)
        )
    recv = comm.neighbor_alltoallv(state.graph, send)
    for j, buf in enumerate(recv):
        rows = buf.reshape(-1, n_e).astype(state.config.dtype, copy=False)
        pos = 0
        for lvl, gpos in state.v_ghosts.recv_plan[j]:
            k = len(gpos)
            state.v_ghosts.buffers[lvl][gpos] = rows[pos : pos + k]
            pos += k


def _global_stage(state, gathered):
    """Upward, root-level V interactions, and downward over levels
    [0, global_depth] on the nominated rank; returns per-root d rows."""
    config, ops = state.config, state.ops
    d_g = config.global_depth
    n_e = ops.n_coeff
    plan = state.global_plan
    u_g = {
        lvl: np.zeros((plan.level_sizes[lvl], n_e), dtype=config.dtype)
        for lvl in range(d_g + 1)
    }
    d_gl = {lvl: np.zeros_like(u_g[lvl]) for lvl in range(d_g + 1)}
    u_g[d_g][:] = np.concatenate([b.reshape(-1, n_e) for b in gathered])
    for lvl in range(d_g - 1, -1, -1):
        u2u_level(ops, u_g[lvl + 1], u_g[lvl])
    for lvl in range(1, d_g):
        d2d_level(ops, d_gl[lvl], d_gl[lvl + 1])
        g = plan.grouped.get(lvl + 1)
        if g is not None:
            apply_m2l(ops, g, u_g[lvl + 1], d_gl[lvl + 1])
    return d_gl[d_g]


@dataclass
class EvalResult:
    potentials: np.ndarray
    stats: dict         # deterministic per-collective counter deltas
    seconds: dict       # wall times: computation, global_stage, collectives


def evaluate(state):
    """One full field evaluation; returns potentials for local targets."""
    comm = state.comm
    config, ops, tree = state.config, state.ops, state.tree
    stats_before = comm.stats().snapshot()
    secs_before = comm.stats().seconds_by_kind()
    seconds = {"computation": 0.0, "global_stage": 0.0}
    _check_ghosts(state)

    state.store.reset()
    state.v_ghosts.reset()

    t0 = time.perf_counter()
    near = p2p_uli(tree, state.lists, state.charges, state.near_ghosts)
    upward_pass(tree, ops, state.store, state.charges)
    seconds["computation"] += time.perf_counter() - t0

    _exchange_ghost_u(state)

    root_u = np.ascontiguousarray(state.store.u[config.global_depth]).ravel()
    gathered = comm.gatherv(root_u, root=NOMINATED_RANK)

    if comm.rank == NOMINATED_RANK:
        t0 = time.perf_counter()
        root_d = _global_stage(state, gathered)
        seconds["global_stage"] += time.perf_counter() - t0
        runs = state.layout.run_starts
        segments = [root_d[runs[r] : runs[r + 1]].ravel() for r in range(comm.size)]
        mine = comm.scatterv(segments, root=NOMINATED_RANK)
    else:
        mine = comm.scatterv(root=NOMINATED_RANK)

    t0 = time.perf_counter()
    n_e = ops.n_coeff
    state.store.d[config.global_depth][:] = mine.reshape(-1, n_e)
    vli_downward(tree, ops, state.store, state.v_plan, state.v_ghosts.buffers)
    far = d2t(tree, ops, state.store)
    potentials = near + far
    seconds["computation"] += time.perf_counter() - t0

    secs_after = comm.stats().seconds_by_kind()
    for kind in secs_after:
        seconds[kind] = secs_after[kind] - secs_before[kind]
    return EvalResult(
        potentials=potentials,
        stats=stats_delta(stats_before, comm.stats().snapshot()),
        seconds=seconds,
    )


def update_charges(state, new_charges):
    """Swap source densities on the same point set: re-runs only the
    near-field data exchange and clears the expansion state."""
    new_charges = np.asarray(new_charges, dtype=np.float64).reshape(-1)
    if len(new_charges) != state.tree.n_points:
        raise ValueError("charge length mismatch for update")
    _require_finite(new_charges, "charge")
    state.charges = new_charges
    tree = state.tree
    send = []
    for served in state.u_serve:
        idx = tree.index_of(tree.leaf_level, served) if len(served) else np.empty(0, np.int64)
        chunks = [new_charges[a:b] for a, b in tree.leaf_ranges[idx]]
        send.append(np.concatenate(chunks) if chunks else np.empty(0, np.float64))
    recv = state.comm.neighbor_alltoallv(state.graph, send)
    for j, buf in enumerate(recv):
        # Charges arrive in the same key order the point rows did at setup.
        pos = 0
        for key in state.u_confirmed[j]:
            cnt = len(state.near_ghosts.points[int(key)])
            state.near_ghosts.charges[int(key)] = buf[pos : pos + cnt].copy()
            pos += cnt
    state.store.reset()
    state.v_ghosts.reset()
    return state


def run_manifest(state, world):
    """Deterministic run description (no wall times)."""
    from . import __version__
    from .kernels import kernel_backend
    from .operators import FROZEN_EPS
    from .partition import SAMPLER_ID

    return {
        "package": "unifmm",
        "version": __version__,
        "config": asdict(state.config),
        "world_size": world.size,
        "world_seed": world.seed,
        "transport_backend": transport_backend(),
        "kernel_backend": kernel_backend(),
        "sampler": SAMPLER_ID,
        "splitters": [f"{int(s):#018x}" for s in state.splitters],
        "layout_digest": state.layout.digest(),
        "frozen_eps": {str(k): v for k, v in FROZEN_EPS.items()},
        "collective_schedule": {
            "evaluate": ["neighbor_alltoallv", "gatherv", "scatterv"],
        },
    }
