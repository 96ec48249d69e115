"""Distributed FMM orchestration: setup pipeline and runtime execution.

Setup runs once per point set and resolves every data dependency ahead
of time: the distributed sort and per-rank tree build, the global layout
(which every rank builds from the root runs all ranks hold, and from
which it reads the sort's splitters and its own roots), the static
neighbor communication graph, the near-field point/charge exchange, and
the far-field ghost rows. Each rank encodes its input points once: the
keys travel with their rows through the sort
(:func:`partition.redistribute`), the receiver sorts by them, and the
tree build checks each against its point and lays out the per-point
rows S2U and D2T read (:class:`tree.UniformTree`). Setup also plans both
sweeps of an evaluation: the near-field blocks over the local points and
the ghost table (:func:`kernels.near_field_plan`), and the M2L products
of the V lists (:func:`operators.plan_m2l`, which also fixes whether setup
builds the orthant M2L matrices), so an evaluation builds nothing and
only runs them. The lists are sets: no plan reads the order of the
members within a leaf or box. The state keeps the U lists; the V lists
are built in setup's ``u_list`` phase, where the count exchange reads
them, and planned and dropped in its ``v_list`` phase. The
far-field ghost rows live in the expansion store right after each
level's own rows, so the V-list kernels read remote sources as they
read local ones. The store
alone lays out its rows and maps keys to them: setup asks it for the
rows each neighbor is sent, the rows its messages land in, and the
member rows of the V plans. The nominated rank's store of the top levels
is built the same way, once, and its V plan by the same builder.

No rank asks another which boxes exist. The layout is replicated, and U
and V are symmetric relations (``A`` is in ``V(B)`` exactly when ``B`` is
in ``V(A)``, likewise for U), so each rank finds both sides of what it
shares with a neighbor from its own lists alone: the boxes it shares out
are its own boxes whose lists hold a box of that neighbor, and the boxes
it shares in are the neighbor's boxes its lists hold, which the neighbor
finds as its shared-out ones, in the same key order. Each rank sends each
neighbor the point count of every box it shares out, one message per
neighbor. The counts it receives tell it, before anything else moves,
which shared-in boxes are occupied and how many rows each later message
holds: the point rows of the occupied shared leaves, which, taken in graph
order, form the near-field ghost table sorted by leaf key, and the
expansions of the occupied shared boxes. A shared leaf whose owner counts
no points is confirmed absent, never inferred from silence.

Every neighbor exchange is a :class:`Halo`: the rows of a table sent to
each neighbor, gathered at once into one send buffer with a count per
neighbor, and the row count of each neighbor's message, all fixed before
its first run. The count exchange's own lengths come from the lists
alone, and the counts it brings fix the near-field and far-field halos.
Every run, setup's included, checks each incoming message against
its count, so a lost or extra row raises :class:`UnresolvedDependencyError`
on the rank it was meant for, naming the sender.

Each evaluation then needs exactly three collectives per rank: the far-
field halo's exchange of ghost expansions for the local V lists (one row
gather from the store for all neighbors, one row scatter into it for all
messages received), a gather of local-root expansions to the nominated
rank (rank 0), which runs the top tree levels in shared memory through
the level passes of every local tree (``u2u_pass`` and
``vli_downward``), and a scatter returning the local-root incoming
expansions. Near-field work never communicates at runtime: it runs
setup's plan with the current charges. Charge-only updates replay just
the near-field halo, with charges for point rows, and keep both plans.

Local V lists only ever reference boxes below the root level, whose
owners are adjacent subdomains, so the one communication graph, shared
by the U and V exchanges, joins each rank to the owners of the roots
adjacent to its own. When each rank's roots form one aligned box (``roots``
mode with P = 8^k ranks, k <= d_g) those owners are at most the 26
neighbor subdomains, no matter how many ranks run. Other contiguous Morton
runs can border more: in ``roots`` mode the largest degree measured from
the layout is 29 at d_g=3 and P=63, 34 at P=100, 40 at P=500, and 43 at
d_g=4 and P=700 (26 at d_g=3 and P=511). Root-level V interactions are
handled on the nominated rank, where all root expansions are present.
"""

from __future__ import annotations

import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import morton
from .kernels import (
    NearFieldGhosts,
    NearFieldPlan,
    UnresolvedDependencyError,
    _changes,
    _ranges,
    _require_finite,
    near_field_plan,
    p2p_uli,
    sorted_unique,
)
from .operators import (
    ExpansionStore,
    VListPlan,
    d2t,
    ensure_orthant_m2l,
    expansion_length,
    get_operator_set,
    plan_m2l,
    template_rows,
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
    """One neighbor exchange, fixed at setup before its first run. Each
    neighbor in the graph is sent rows of a table: the rows of all messages
    are ``send``, neighbor after neighbor in graph order, ``send_counts[k]``
    of them for the k-th. ``recv_counts[k]`` is how many rows the k-th
    neighbor's message must hold."""

    send: np.ndarray
    send_counts: np.ndarray
    recv_counts: np.ndarray

    def exchange(self, comm, graph, table):
        """Send each neighbor its rows of ``table``; return the rows received,
        neighbor after neighbor in graph order. A message of another length
        than setup's raises :class:`UnresolvedDependencyError` naming its
        sender."""
        shape = table.shape[1:]
        width = math.prod(shape)
        recv, sizes = comm.neighbor_alltoallv(graph, table[self.send], self.send_counts * width)
        wrong = np.flatnonzero(sizes != self.recv_counts * width)
        if len(wrong):
            k = wrong[0]
            raise UnresolvedDependencyError(
                f"unresolved dependency: rank {graph[k]} sent {sizes[k] / width:.10g} rows "
                f"where setup fixed {self.recv_counts[k]}"
            )
        return recv.reshape(-1, *shape)


@dataclass
class DistributedFmm:
    """Per-rank solver state produced by :func:`setup`."""

    comm: object
    config: FmmConfig
    cube: morton.BoundingCube
    tree: object
    lists: object                 # the U lists (tree.InteractionLists)
    layout: object
    ops: object
    store: object
    points: np.ndarray
    charges: np.ndarray
    splitters: np.ndarray
    graph: np.ndarray             # sorted neighbor ranks: adjacent subdomains
    near_ghosts: NearFieldGhosts
    near_plan: NearFieldPlan      # the near-field sweep's blocks
    u_halo: Halo                  # point rows shared, leaf by leaf in key order
    v_halo: Halo                  # store.u_all rows of the occupied V boxes shared
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
    # the key of that box; raises ValueError if this rank sends none.
    def drop_one_v_ghost(self):
        halo = self.v_halo
        if not len(halo.send):
            raise ValueError(f"rank {self.rank} sends no V row to drop")
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
    bounds, _ = comm.allgatherv(np.concatenate([lo, hi]))
    lo = bounds.reshape(-1, 6)[:, :3].min(axis=0)
    hi = bounds.reshape(-1, 6)[:, 3:].max(axis=0)
    if not np.all(np.isfinite(lo)):
        raise ValueError("no points on any rank")
    return morton.fit_domain(np.stack([lo, hi]), margin)


def _shared(nbr, keys, kind):
    """The distinct (neighbor, key) entries of the pairs ``nbr[i]``,
    ``keys[i]`` of ``kind[i]`` (0 for U, 1 for V), in (neighbor, key)
    order: the index of a pair giving each entry, and per kind whether a
    pair of that kind gives it."""
    order = np.lexsort((keys, nbr))
    first = _changes(nbr[order]) | _changes(keys[order])
    reached = np.zeros((2, np.count_nonzero(first)), dtype=bool)
    reached[kind[order], np.cumsum(first) - 1] = True
    return order[first], *reached


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
        pts, chg, pkeys = sort_local(*redistribute(comm, keys, points, charges, splitters))
        my_roots = layout.roots_of(comm.rank)
        tree = build_tree(pts, cube, config.global_depth, config.local_depth,
                          local_roots=my_roots, keys=pkeys,
                          piece_rows=template_rows(expansion_length(config.order)))

    with _phase(timings, "communicators"):
        owners = sorted_unique(layout.owner_of_roots(morton.neighbors(my_roots)))
        graph = owners[owners != comm.rank]
        lists = build_interaction_lists(tree)

    with _phase(timings, "u_list"):
        # The (own box, remote member) pairs of the U lists and of the V
        # lists of the levels below the roots (the root level's are the
        # nominated rank's), each with its own box's point count and its
        # kind. The V lists are planned in v_list and dropped.
        v_pairs = {level: _v_members_with_vectors(tree.level_keys[level], level)
                   for level in range(config.global_depth + 1, leaf_level + 1)}
        box_points = {leaf_level: np.diff(tree.leaf_ranges, axis=1)[:, 0]}
        for level in range(leaf_level - 1, config.global_depth, -1):
            box_points[level] = box_points[level + 1].reshape(-1, 8).sum(axis=1)

        def pairs(level, pos, mkeys, remote, kind):
            pos = pos[remote]
            return (tree.level_keys[level][pos], box_points[level][pos], mkeys[remote],
                    np.full(len(pos), kind))

        def per_nbr(nbrs, weights=None):
            return np.bincount(nbrs, weights, len(graph)).astype(np.int64)

        found = morton.find_keys(tree.leaves, lists.u_member_keys)
        leaf_of = np.repeat(np.arange(len(tree.leaves)), np.diff(lists.u_member_ptr))
        own, own_points, member, kind = map(np.concatenate, zip(
            pairs(leaf_level, leaf_of, lists.u_member_keys, ~found[1], 0),
            *(pairs(level, tgt, mkeys, ~tree.contains(level, mkeys), 1)
              for level, (tgt, mkeys, _) in v_pairs.items())))
        owners = layout.owner_of_boxes(member)
        nbr = np.searchsorted(graph, owners)
        assert (nbr < len(graph)).all() and (graph[nbr] == owners).all(), "list member outside halo"
        # By the symmetry of U and V, the own boxes a neighbor's lists hold
        # are those with a member it owns, and the boxes of its that this
        # rank's lists hold are the ones it finds the same way, in the same
        # key order. Each side sends the point count of every box it shares.
        out, out_u, out_v = _shared(nbr, own, kind)
        into, in_u, in_v = _shared(nbr, member, kind)
        out_nbr, out_keys, in_nbr, in_keys = nbr[out], own[out], nbr[into], member[into]
        # Ranks wait for each other in the exchanges below; drop the per-pair
        # arrays first, so that ranks sharing a process do not hold them all.
        del own, member, nbr, owners, kind
        counts = Halo(out, per_nbr(out_nbr), per_nbr(in_nbr)).exchange(comm, graph, own_points)

        # Ship the points and charges of every shared leaf, leaf by leaf in
        # key order. The graph is in rank order and ranks own rank-ordered
        # Morton runs, so the shared-in boxes, and the rows received, taken
        # in graph order, are sorted by key.
        starts, ends = tree.leaf_ranges[tree.index_of(leaf_level, out_keys[out_u])].T
        u_halo = Halo(_ranges(starts, ends - starts), per_nbr(out_nbr[out_u], ends - starts),
                      per_nbr(in_nbr[in_u], counts[in_u]))
        table = np.concatenate([tree.points, chg[:, None]], axis=1)
        got = u_halo.exchange(comm, graph, table)
        near = NearFieldGhosts(np.repeat(in_keys[in_u], counts[in_u]),
                               np.ascontiguousarray(got[:, :3]), got[:, 3].copy(),
                               in_keys[in_u & (counts == 0)])
        near_plan = near_field_plan(tree, lists, near, found)

    with _phase(timings, "v_list"):
        # The V halo sends each neighbor the expansions of the occupied
        # boxes it shares, and lands those it receives in the ghost rows.
        send = out_v & (own_points[out] > 0)
        ghost = in_v & (counts > 0)
        ghost_keys = in_keys[ghost]
        store = ExpansionStore(tree.level_keys, ghost_keys)
        v_halo = Halo(store.rows_of(out_keys[send])[0], per_nbr(out_nbr[send]), per_nbr(in_nbr[ghost]))
        n_coeff = expansion_length(config.order)
        v_plan = _v_plan(store, v_pairs, n_coeff)

        # The nominated rank holds every box of the top levels 1 .. d_g.
        top_store = global_plan = None
        if comm.rank == NOMINATED_RANK:
            top_keys = {lvl: morton.all_keys(lvl) for lvl in range(1, config.global_depth + 1)}
            top_store = ExpansionStore(top_keys)
            global_plan = _v_plan(top_store, {
                lvl: _v_members_with_vectors(keys, lvl) for lvl, keys in top_keys.items() if lvl > 1
            }, n_coeff)

    ops = get_operator_set(config.order, config.dtype)
    if v_plan.tiled or (global_plan is not None and global_plan.tiled):
        ensure_orthant_m2l(ops)
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
        near_plan=near_plan,
        u_halo=u_halo,
        v_halo=v_halo,
        v_ghost_keys=ghost_keys,
        v_recv_rows=store.rows_of(ghost_keys)[0],
        v_plan=v_plan,
        top_store=top_store,
        global_plan=global_plan,
        timings=timings,
    )


def _v_plan(store, pairs, n_coeff):
    """V-list plan over ``store`` of the per-level (target index, member
    key, transfer index) ``pairs`` of ``n_coeff``-long expansions: members
    by row of the level's own and ghost rows; members the store lacks are
    dropped (an absent box holds no sources)."""
    grouped = {}
    for level, (tgt, mkeys, tv_idx) in pairs.items():
        rows, keep = store.rows_of(mkeys)
        grouped[level] = plan_m2l(
            tgt[keep], rows[keep] - store.row_start[level], tv_idx[keep], n_coeff
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
    top.u[d_g][:] = gathered.reshape(-1, ops.n_coeff)
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
        near = p2p_uli(state.near_plan, state.charges, state.near_ghosts.charges)
        upward_pass(tree, ops, state.store, state.charges)

    # The one runtime neighbor exchange: far-field ghost expansions.
    u_all = state.store.u_all
    u_all[state.v_recv_rows] = state.v_halo.exchange(comm, state.graph, u_all)

    root_u = np.ascontiguousarray(state.store.u[config.global_depth]).ravel()
    gathered = comm.gatherv(root_u, root=NOMINATED_RANK)

    if comm.rank == NOMINATED_RANK:
        with _phase(seconds, "global_stage"):
            root_d = _global_stage(state, gathered[0])
        counts = np.diff(state.layout.run_starts) * ops.n_coeff
        mine = comm.scatterv(root_d, counts, root=NOMINATED_RANK)
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
    near-field data exchange; the next :func:`evaluate` resets the
    expansions, as every evaluation does.

    ``new_charges[i]`` is the charge of ``state.points[i]``: the rank's
    points in tree order, after setup's sort moved points between ranks
    and reordered them, not the order they were passed to :func:`setup`.
    Only the length can be checked; a vector in another order of the same
    length is taken as given.
    """
    # A private copy: the caller may reuse its buffer after the update.
    new_charges = np.array(new_charges, dtype=np.float64).reshape(-1)
    if len(new_charges) != state.tree.n_points:
        raise ValueError(
            f"charge length mismatch for update: got {len(new_charges)} charges for the "
            f"{state.tree.n_points} points of state.points (this rank's points in tree order)"
        )
    _require_finite(new_charges, "charge")
    state.charges = new_charges
    # Charges arrive in the order the point rows did at setup.
    state.near_ghosts.charges = state.u_halo.exchange(state.comm, state.graph, new_charges)
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
