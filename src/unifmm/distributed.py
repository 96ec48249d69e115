"""Distributed FMM orchestration: setup pipeline and runtime execution.

Setup runs once per point set and resolves every data dependency ahead
of time: the distributed sort and per-rank tree build, the global layout
(which every rank builds from the root runs all ranks hold, and from
which it reads the sort's splitters and its own roots), the static
neighbor communication graph, the near-field point/charge exchange, and
the far-field ghost rows. Those rows live in the expansion store right
after each level's own rows, so the V-list kernels read remote sources
as they read local ones. The store alone lays out its rows and maps keys
to them: setup asks it for the rows each neighbor is sent, the rows its
messages land in, and the member rows of the V plans. The nominated
rank's store of the top levels is built the same way, once, and its V
plan by the same builder.

No rank asks another which boxes exist. The layout is replicated, and U
and V are symmetric relations (``A`` is in ``V(B)`` exactly when ``B`` is
in ``V(A)``, likewise for U), so the boxes a neighbor's lists need from
this rank are this rank's occupied boxes whose own lists hold a box of
that neighbor. Each rank pushes the keys of those V boxes and the point
rows of those U leaves, one message per neighbor each. What it receives
is what its own lists will find remotely: the point rows, taken in graph
order, form the near-field ghost table sorted by leaf key, which the
receiver recomputes from each point.

Every neighbor exchange is a :class:`Halo`: the rows of a table sent to
each neighbor, gathered at once, and the row count of each neighbor's
message, which the exchange's first run in setup fixes. Setup's U
exchange fixes the near-field halo, and its V-key exchange fixes the
far-field one. Each replay checks every incoming message against those
counts, so a lost or extra row raises :class:`UnresolvedDependencyError`
on the rank it was meant for, naming the sender.

Each evaluation then needs exactly three collectives per rank: the far-
field halo's exchange of ghost expansions for the local V lists (one row
gather from the store for all neighbors, one row scatter into it for all
messages received), a gather of local-root expansions to the nominated
rank (rank 0), which runs the top tree levels in shared memory through
the level passes of every local tree (``u2u_pass`` and
``vli_downward``), and a scatter returning the local-root incoming
expansions. Near-field work never communicates at runtime; charge-only
updates replay just the near-field halo, with charges for point rows.

Local V lists only ever reference boxes below the root level, whose
owners are adjacent subdomains: with contiguous Morton runs of roots per
rank, the one communication graph, shared by the U and V exchanges, is
bounded by the 26 possible neighbor subdomains no matter how many ranks
run. Root-level V interactions are handled on the nominated rank, where
all root expansions are present.
"""

from __future__ import annotations

import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import morton
from .kernels import NearFieldGhosts, UnresolvedDependencyError, _require_finite, p2p_uli
from .operators import (
    ExpansionStore,
    VListPlan,
    d2t,
    expansion_length,
    get_operator_set,
    group_pairs_by_transfer,
    u2u_pass,
    upward_pass,
    vli_downward,
)
from .partition import (
    build_layout,
    equal_root_runs,
    redistribute,
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
        for name in ("global_depth", "local_depth", "order", "samples_per_rank", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.global_depth < 1 or self.local_depth < 1:
            raise ValueError("global_depth and local_depth must each be >= 1")
        if self.global_depth + self.local_depth > morton.MAX_DEPTH:
            raise ValueError("tree depth exceeds MAX_DEPTH")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be f32 or f64, got {self.precision!r}")
        if self.balance_mode not in ("roots", "sampled"):
            raise ValueError(f"unknown balance_mode {self.balance_mode!r}")
        if self.samples_per_rank < 1:
            raise ValueError(f"samples_per_rank must be >= 1, got {self.samples_per_rank}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Zero is valid: encode_points puts the upper face in the last cell.
        if (isinstance(self.margin, bool) or not isinstance(self.margin, numbers.Real)
                or not (np.isfinite(self.margin) and self.margin >= 0)):
            raise ValueError(f"margin must be a finite real >= 0, got {self.margin!r}")
        self.margin = float(self.margin)
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
class Halo:
    """One neighbor exchange, fixed at setup. Each neighbor in the graph is
    sent rows of a table: the rows of all messages are ``send``, neighbor
    after neighbor in graph order, ``send_counts[k]`` of them for the k-th.
    ``recv_counts[k]`` is how many rows the k-th neighbor's message holds;
    the first exchange fixes it (pass None until then), and every later
    message must hold exactly that many."""

    send: np.ndarray
    send_counts: np.ndarray
    recv_counts: np.ndarray | None

    def exchange(self, comm, graph, table):
        """Send each neighbor its rows of ``table``; return the rows received,
        neighbor after neighbor in graph order. A message of another length
        than setup's raises :class:`UnresolvedDependencyError` naming its
        sender."""
        shape = table.shape[1:]
        width = math.prod(shape)
        msgs = comm.neighbor_alltoallv(
            graph, [rows.ravel() for rows in _cut(table[self.send], self.send_counts)]
        )
        sizes = [m.size for m in msgs]
        if self.recv_counts is None:
            self.recv_counts = np.array(sizes, dtype=np.int64) // width
        if sizes != (self.recv_counts * width).tolist():
            k = next(k for k, n in enumerate(self.recv_counts) if sizes[k] != n * width)
            raise UnresolvedDependencyError(
                f"unresolved dependency: rank {graph[k]} sent {sizes[k] / width:.10g} rows "
                f"where setup fixed {self.recv_counts[k]}"
            )
        return np.concatenate([np.empty(0, table.dtype), *msgs]).reshape(-1, *shape)


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
    splitters: np.ndarray
    graph: np.ndarray             # sorted neighbor ranks: adjacent subdomains
    near_ghosts: NearFieldGhosts
    u_halo: Halo                  # point rows served, leaf by leaf in key order
    v_halo: Halo                  # store.u_all rows of the V boxes served
    v_ghost_keys: np.ndarray      # sorted keys of all V ghost boxes
    v_recv_rows: np.ndarray       # store.u_all ghost rows v_halo's rows fill
    v_plan: VListPlan
    top_store: object             # top levels 1 .. d_g and their V plan,
    global_plan: VListPlan        # both on the nominated rank only, else None
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
        return len(self.v_ghost_keys)

    def point_count(self):
        return int(self.tree.n_points)

    # Test/fault-injection hook: hold back the first V row this rank sends
    # in every later evaluate, so its neighbor gets a short message. Returns
    # the key of that box, or None if this rank sends none.
    def drop_one_v_ghost(self):
        halo = self.v_halo
        if not len(halo.send):
            return None
        counts = halo.send_counts.copy()
        counts[np.flatnonzero(counts)[0]] -= 1
        self.v_halo = replace(halo, send=halo.send[1:], send_counts=counts)
        return int(self.store.row_keys[halo.send[0]])


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
    return morton.fit_domain(np.stack([lo, hi]), margin)


def _cut(array, lengths):
    """``array`` cut into consecutive pieces of the given lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return [array[a:b] for a, b in zip((ends - lengths).tolist(), ends.tolist())]


def _served_rows(tree, keys, per_nbr):
    """The halo of the point rows of the leaves served, leaf by leaf; the
    leaf ``keys`` come neighbor by neighbor, ``per_nbr`` of them each."""
    starts, ends = tree.leaf_ranges[tree.index_of(tree.leaf_level, keys)].T
    counts = ends - starts
    rows = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return Halo(rows, np.array([c.sum() for c in _cut(counts, per_nbr)], np.int64), None)


def _served_boxes(graph, layout, boxes, members):
    """The boxes of ours that the lists of each neighbor in ``graph`` hold:
    all of them, neighbor by neighbor, and how many each neighbor gets.

    ``members[i]`` is a remote list member of the occupied own box
    ``boxes[i]``. By the symmetry of U and V, a neighbor's lists hold our
    box exactly when that box's lists hold one of the neighbor's boxes,
    so the neighbor is served the sorted, unique boxes with a member it
    owns. One sort over (neighbor, box) pairs groups them all.
    """
    owners = layout.owner_of_boxes(members)
    assert np.isin(owners, graph).all(), "list member outside halo"
    nbr = np.searchsorted(graph, owners)
    order = np.lexsort((boxes, nbr))
    nbr, boxes = nbr[order], boxes[order]
    first = np.ones(len(boxes), dtype=bool)
    first[1:] = (nbr[1:] != nbr[:-1]) | (boxes[1:] != boxes[:-1])
    return boxes[first], np.bincount(nbr[first], minlength=len(graph))


def setup(comm, points, charges, config):
    """Run the full setup pipeline; returns per-rank solver state."""
    timings = {}
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {points.shape}")
    charges = np.asarray(charges, dtype=np.float64).reshape(-1)
    if len(charges) != len(points):
        raise ValueError("charges length does not match points")
    _require_finite(points, "point")
    _require_finite(charges, "charge")
    leaf_level = config.leaf_level

    with _phase(timings, "sort_tree"):
        cube = _global_cube(comm, points, config.margin)
        keys = morton.encode_points(points, leaf_level, cube)
        if config.balance_mode == "roots":
            runs = equal_root_runs(config.global_depth, comm.size)
        else:
            runs = runs_from_splitters(config.global_depth, sample_splitters(
                comm, keys, config.samples_per_rank, config.seed,
                snap_level=config.global_depth,
            ))
        # ``runs`` is the same on every rank, so all ranks raise together.
        idle = np.flatnonzero(np.diff(runs) == 0)
        if len(idle):
            raise ValueError(
                f"rank(s) {', '.join(map(str, idle))} left without local roots "
                f"by the {config.balance_mode} splitters"
            )

    with _phase(timings, "layout"):
        layout = build_layout(config.global_depth, runs)

    with _phase(timings, "sort_tree"):
        splitters = layout.splitters(leaf_level)
        pts, chg = redistribute(comm, keys, points, charges, splitters)
        pts, chg, pkeys = sort_local(pts, chg, leaf_level, cube)
        my_roots = layout.roots_of(comm.rank)
        tree = build_tree(pts, cube, config.global_depth, config.local_depth,
                          local_roots=my_roots, keys=pkeys)

    with _phase(timings, "communicators"):
        owners = np.unique(layout.owner_of_roots(morton.neighbors(my_roots)))
        graph = owners[owners != comm.rank]
        lists = build_interaction_lists(tree)

    with _phase(timings, "u_list"):
        per_leaf = np.diff(lists.u_member_ptr)
        remote = ~tree.contains(leaf_level, lists.u_member_keys)
        pick = remote & np.repeat(tree.level_nonempty[leaf_level], per_leaf)
        u_leaves, u_per_nbr = _served_boxes(
            graph, layout, np.repeat(tree.leaves, per_leaf)[pick], lists.u_member_keys[pick]
        )
        # Ship the points and charges of every leaf we serve, leaf by leaf in
        # key order. The graph is in rank order and ranks own rank-ordered
        # Morton runs, so the rows received, taken in graph order, are sorted
        # by leaf key: the point's key, from the same bits in the same cube.
        u_halo = _served_rows(tree, u_leaves, u_per_nbr)
        table = np.concatenate([tree.points, chg[:, None]], axis=1)
        got = u_halo.exchange(comm, graph, table)
        coords = np.ascontiguousarray(got[:, :3])
        ghost_leaves = morton.encode_points(coords, leaf_level, cube)
        absent = np.setdiff1d(lists.u_member_keys[remote], ghost_leaves)
        near = NearFieldGhosts(ghost_leaves, coords, got[:, 3].copy(), absent)

    with _phase(timings, "v_list"):
        held = []
        for level, (tgt, mkeys, _) in lists.v_pairs.items():
            pick = tree.level_nonempty[level][tgt] & ~tree.contains(level, mkeys)
            held.append((tree.level_keys[level][tgt[pick]], mkeys[pick]))
        boxes, members = (np.concatenate(parts) for parts in zip(*held))
        send_keys, v_per_nbr = _served_boxes(graph, layout, boxes, members)
        # The key exchange fixes the V halo's message lengths; its rows then
        # become the store rows of the same boxes.
        v_halo = Halo(np.arange(len(send_keys)), v_per_nbr, None)
        recv_keys = v_halo.exchange(comm, graph, send_keys)
        ghost_keys = np.unique(recv_keys)
        store = ExpansionStore(tree.level_keys, ghost_keys)
        v_halo = replace(v_halo, send=store.rows_of(send_keys)[0])
        v_plan = _v_plan(store, lists.v_pairs)

        # The nominated rank holds every box of the top levels 1 .. d_g.
        top_store = global_plan = None
        if comm.rank == NOMINATED_RANK:
            top_keys = {lvl: morton.all_keys(lvl) for lvl in range(1, config.global_depth + 1)}
            top_store = ExpansionStore(top_keys)
            global_plan = _v_plan(top_store, {
                lvl: _v_members_with_vectors(keys, lvl) for lvl, keys in top_keys.items() if lvl > 1
            })

    ops = get_operator_set(config.order, config.dtype)
    store.allocate(ops.n_coeff, ops.dtype)
    if top_store is not None:
        top_store.allocate(ops.n_coeff, ops.dtype)
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
        splitters=splitters,
        graph=graph,
        near_ghosts=near,
        u_halo=u_halo,
        v_halo=v_halo,
        v_ghost_keys=ghost_keys,
        v_recv_rows=store.rows_of(recv_keys)[0],
        v_plan=v_plan,
        top_store=top_store,
        global_plan=global_plan,
        timings=timings,
    )


def _v_plan(store, pairs):
    """V-list plan over ``store`` of the per-level (target index, member
    key, transfer index) ``pairs``: members by row of the level's own and
    ghost rows; members the store lacks are dropped (an absent box holds
    no sources)."""
    grouped = {}
    for level, (tgt, mkeys, tv_idx) in pairs.items():
        rows, keep = store.rows_of(mkeys)
        grouped[level] = group_pairs_by_transfer(
            tgt[keep], rows[keep] - store.row_start[level], tv_idx[keep]
        )
    return VListPlan(grouped=grouped)


def _global_stage(state, gathered):
    """The top tree levels on the nominated rank, through the level passes
    of every local tree: U2U from the gathered root expansions, then D2D
    and V interactions down to the roots; returns per-root d rows.

    The top store, laid out once in setup and reset here, holds levels
    1 .. global_depth: nothing reads ``u[0]``, and ``d[1]`` is zero
    (level-1 boxes are all adjacent)."""
    ops, d_g, top = state.ops, state.config.global_depth, state.top_store
    top.reset()
    top.u[d_g][:] = np.concatenate(gathered).reshape(-1, ops.n_coeff)
    u2u_pass(ops, top)
    vli_downward(ops, top, state.global_plan)
    return top.d[d_g]


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

    state.store.reset()

    with _phase(seconds, "computation"):
        near = p2p_uli(tree, state.lists, state.charges, state.near_ghosts)
        upward_pass(tree, ops, state.store, state.charges)

    # The one runtime neighbor exchange: far-field ghost expansions.
    u_all = state.store.u_all
    u_all[state.v_recv_rows] = state.v_halo.exchange(comm, state.graph, u_all)

    root_u = np.ascontiguousarray(state.store.u[config.global_depth]).ravel()
    gathered = comm.gatherv(root_u, root=NOMINATED_RANK)

    if comm.rank == NOMINATED_RANK:
        with _phase(seconds, "global_stage"):
            root_d = _global_stage(state, gathered)
        runs = state.layout.run_starts
        segments = [root_d[runs[r] : runs[r + 1]].ravel() for r in range(comm.size)]
        mine = comm.scatterv(segments, root=NOMINATED_RANK)
    else:
        mine = comm.scatterv(root=NOMINATED_RANK)

    with _phase(seconds, "computation"):
        state.store.d[config.global_depth][:] = mine.reshape(-1, ops.n_coeff)
        vli_downward(ops, state.store, state.v_plan)
        potentials = near + d2t(tree, ops, state.store)

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
    near-field data exchange and clears the expansion state.

    ``new_charges[i]`` is the charge of ``state.points[i]``: the rank's
    points in tree order, after setup's sort moved points between ranks
    and reordered them, not the order they were passed to :func:`setup`.
    Only the length can be checked; a vector in another order of the same
    length is taken as given.
    """
    new_charges = np.asarray(new_charges, dtype=np.float64).reshape(-1)
    if len(new_charges) != state.tree.n_points:
        raise ValueError(
            f"charge length mismatch for update: got {len(new_charges)} charges for the "
            f"{state.tree.n_points} points of state.points (this rank's points in tree order)"
        )
    _require_finite(new_charges, "charge")
    state.charges = new_charges
    # Charges arrive in the order the point rows did at setup.
    state.near_ghosts.charges = state.u_halo.exchange(state.comm, state.graph, new_charges)
    state.store.reset()
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
