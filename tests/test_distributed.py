"""Distributed setup and runtime execution across simulated ranks."""

import ast
import re
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    concat_potentials,
    distributed_run,
    raw_instance,
    rel_l2,
    subtraction_inverse_distances,
)

from unifmm import distributed, kernels, morton, operators
from unifmm.distributed import (
    FmmConfig,
    _cut,
    evaluate,
    global_message_size,
    run_manifest,
    setup,
    update_charges,
)
from unifmm.kernels import UnresolvedDependencyError, direct_sum
from unifmm.operators import frozen_eps, leaf_check_sums
from unifmm.transport import create_world, run_spmd


def cfg(**kw):
    base = dict(global_depth=1, local_depth=2, order=3, seed=42)
    base.update(kw)
    return FmmConfig(**base)


def test_p1_setup_reduces_to_single_rank():
    pts, chg = raw_instance(500, seed=0)
    world, states, evals = distributed_run(pts, chg, 1, cfg())
    state = states[0]
    assert state.graph.size == 0
    assert state.v_ghost_count() == 0
    assert not state.near_ghosts.points
    assert state.n_local_roots == 8


def test_p8_dg1_graph_degree_is_7():
    pts, chg = raw_instance(2048, seed=1)
    world, states, _ = distributed_run(pts, chg, 8, cfg())
    for state in states:
        assert state.n_local_roots == 1
        assert len(state.graph) == 7


def test_p64_dg2_interior_degree_26():
    pts, chg = raw_instance(8192, seed=2)
    config = cfg(global_depth=2, local_depth=1)
    world, states, _ = distributed_run(pts, chg, 64, config)
    degrees = np.array([len(s.graph) for s in states])
    assert degrees.max() <= 26
    assert (degrees == 26).sum() == 8  # 2^3 interior roots in a 4^3 lattice


def test_distributed_matches_reference_and_direct():
    pts, chg = raw_instance(1024, seed=3)
    config = cfg(order=4)
    _, _, evals = distributed_run(pts, chg, 8, config)
    f_dist = concat_potentials(evals)
    _, _, ref_evals = distributed_run(pts, chg, 1, config)
    f_ref = concat_potentials(ref_evals)
    assert rel_l2(f_dist, f_ref) <= 1e-10

    _, states, _ = distributed_run(pts, chg, 1, config)
    spts = states[0].points
    schg = states[0].charges
    ref = direct_sum(spts, spts, schg)
    assert rel_l2(f_ref, ref) <= frozen_eps(4)


def test_top_levels_with_three_global_levels():
    # At d_g=3 the nominated rank runs M2L at levels 2 and 3 and D2D from
    # level 2 into 3, the only top-level D2D whose input is not zero.
    # Skipping it leaves an error of 0.57 against direct summation.
    pts, chg = raw_instance(8192, seed=3)
    config = cfg(global_depth=3, local_depth=1)
    _, _, evals = distributed_run(pts, chg, 8, config)
    _, ref_states, ref_evals = distributed_run(pts, chg, 1, config)
    f_ref = concat_potentials(ref_evals)
    assert rel_l2(concat_potentials(evals), f_ref) <= 1e-10
    spts, schg = ref_states[0].points, ref_states[0].charges
    assert rel_l2(f_ref, direct_sum(spts, spts, schg)) <= frozen_eps(3)


def test_leaf_expansions_independent_of_rank_count():
    # A leaf's S2U sums read only its own points, so its check sums have the
    # same bits on whichever rank holds it. The u rows are one GEMM of those
    # sums with the check solve; they are not compared bit for bit, because
    # the BLAS may give a GEMM row different bits for a different number of
    # rows (OpenBLAS does for few rows, and for one row through GEMV). At
    # order 8 the solve amplifies any change in how a sum is formed far
    # above rounding: the 1e-10 bound above would not see it, 1e-14 does.
    pts, chg = raw_instance(2048, seed=4)
    config = cfg(order=8)
    _, ref_states, ref_evals = distributed_run(pts, chg, 1, config)
    _, states, evals = distributed_run(pts, chg, 8, config)
    level = config.leaf_level
    ref = ref_states[0]
    ref_check = leaf_check_sums(ref.tree, ref.ops, ref.charges)
    ref_rows = np.flatnonzero(ref.tree.level_nonempty[level])
    for state in states:
        keys = state.tree.leaves[state.tree.level_nonempty[level]]
        pos = np.searchsorted(ref_rows, ref.tree.index_of(level, keys))
        check = leaf_check_sums(state.tree, state.ops, state.charges)
        assert np.array_equal(check, ref_check[pos])
    assert rel_l2(concat_potentials(evals), concat_potentials(ref_evals)) <= 1e-14


@pytest.mark.parametrize("order", [5, 7])
def test_leaf_check_sums_bitwise_equal_at_one_and_eight_ranks(order):
    # The template kernel gives a row the same bits in any block of rows,
    # so a leaf's check sums do not depend on which leaves share its S2U
    # blocks, and thus not on the rank count.
    pts, chg = raw_instance(2048, seed=order)
    config = cfg(order=order)
    _, (ref,), _ = distributed_run(pts, chg, 1, config)
    _, states, _ = distributed_run(pts, chg, 8, config)
    level = config.leaf_level
    ref_check = leaf_check_sums(ref.tree, ref.ops, ref.charges)
    ref_rows = np.flatnonzero(ref.tree.level_nonempty[level])
    for state in states:
        keys = state.tree.leaves[state.tree.level_nonempty[level]]
        pos = np.searchsorted(ref_rows, ref.tree.index_of(level, keys))
        assert np.array_equal(leaf_check_sums(state.tree, state.ops, state.charges),
                              ref_check[pos])


def test_runtime_collective_schedule():
    pts, chg = raw_instance(512, seed=4)
    for P in (1, 8):
        _, _, evals = distributed_run(pts, chg, P, cfg(local_depth=1))
        for per_rank in evals:
            stats = per_rank[0].stats
            assert stats["neighbor_alltoallv"]["calls"] == 1
            assert stats["gatherv"]["calls"] == 1
            assert stats["scatterv"]["calls"] == 1
            assert stats["allgatherv"]["calls"] == 0
            assert stats["alltoallv"]["calls"] == 0


def test_setup_collective_schedule():
    # Each owner pushes what its neighbors' lists need, so setup makes no
    # query round trip, and every rank derives the layout from the
    # splitters it holds. Per rank: one allgather (bounding cube), one
    # all-to-all (point and charge rows) and two neighbor exchanges (U
    # point rows, from which the receiver derives the leaf keys, and V
    # keys).
    pts, chg = raw_instance(4096, seed=4)
    for P, config in ((8, cfg(local_depth=1)), (64, cfg(global_depth=2, local_depth=1))):
        _, states, _ = distributed_run(pts, chg, P, config, evaluate_runs=0)
        for state in states:
            calls = {kind: s["calls"] for kind, s in state.comm.stats().snapshot().items()}
            assert calls == {"allgatherv": 1, "alltoallv": 1, "neighbor_alltoallv": 2,
                             "gatherv": 0, "scatterv": 0}


@pytest.mark.parametrize("P, config", [
    (8, cfg(local_depth=1)),
    (8, cfg(global_depth=2, local_depth=1, balance_mode="sampled", samples_per_rank=64)),
    (64, cfg(global_depth=2, local_depth=1)),
], ids=["p8-roots", "p8-sampled", "p64-roots"])
def test_layout_derived_alike_on_every_rank(P, config):
    # No rank sends its roots: each builds the layout from the splitters,
    # and all must build the same one, matching the trees they built.
    pts, chg = raw_instance(4096, seed=4)
    _, states, _ = distributed_run(pts, chg, P, config, evaluate_runs=0)
    assert len({state.layout.digest() for state in states}) == 1
    for state in states:
        assert np.array_equal(state.layout.roots_of(state.rank), state.tree.local_roots)
    if config.balance_mode == "sampled":
        assert len({state.n_local_roots for state in states}) > 1


def test_zero_charges_zero_potentials_same_schedule():
    pts, chg = raw_instance(512, seed=5)
    _, _, evals = distributed_run(pts, np.zeros_like(chg), 8, cfg(local_depth=1),
                                  evaluate_runs=2)
    for per_rank in evals:
        assert np.all(per_rank[0].potentials == 0.0)
        assert per_rank[0].stats == per_rank[1].stats


# At d_g=2 the nominated rank's top store, reused across evaluates, runs
# U2U and D2D between levels 1 and 2.
@pytest.mark.parametrize("global_depth", [1, 2])
def test_repeated_evaluate_bitwise_identical(global_depth):
    pts, chg = raw_instance(600, seed=6)
    _, _, evals = distributed_run(pts, chg, 8, cfg(global_depth=global_depth, local_depth=1),
                                  evaluate_runs=2)
    for per_rank in evals:
        assert np.array_equal(per_rank[0].potentials, per_rank[1].potentials)


def test_gatherv_payload_matches_message_size_formula():
    assert global_message_size(1, 3, 32) == 104
    assert global_message_size(2, 3, 64) == 416
    assert global_message_size(1, 2, 32) == 32
    pts, chg = raw_instance(512, seed=7)
    _, states, evals = distributed_run(pts, chg, 8, cfg(order=3, precision="f32",
                                                        local_depth=1))
    for state, per_rank in zip(states, evals):
        want = global_message_size(state.n_local_roots, 3, 32)
        assert per_rank[0].stats["gatherv"]["payload_bytes"] == want == 104


def test_f32_cast_does_not_break_pipeline():
    pts, chg = raw_instance(800, seed=8)
    for order in (3, 4):
        _, states, evals = distributed_run(pts, chg, 8, cfg(order=order, precision="f32"))
        f = concat_potentials(evals)
        assert states[0].store.d[2].dtype == np.float32
        spts = np.concatenate([s.points for s in states])
        schg = np.concatenate([s.charges for s in states])
        assert rel_l2(f, direct_sum(spts, spts, schg)) <= frozen_eps(order, "f32")


def test_ghost_sufficiency_and_minimality():
    pts, chg = raw_instance(2048, seed=9)
    _, states, _ = distributed_run(pts, chg, 8, cfg(local_depth=2))
    # Every box is in its owner's tree only, so the union of the ranks'
    # occupied boxes is the global occupancy.
    occupied = {int(k) for s in states for level, keys in s.tree.level_keys.items()
                for k in keys[s.tree.level_nonempty[level]]}
    for state in states:
        tree = state.tree
        # Every existing remote U member has ghost points; none are extra.
        needed = set()
        for pos in range(len(tree.leaves)):
            for key in state.lists.u_members(pos):
                k = int(key)
                if not tree.contains(tree.leaf_level, np.asarray([k], np.uint64))[0]:
                    needed.add(k)
        held = set(state.near_ghosts.points)
        absent = {int(k) for k in state.near_ghosts.confirmed_absent}
        assert held <= needed
        assert needed == held | absent
        assert held == needed & occupied
        assert not absent & occupied
        # Same for V ghosts, per level.
        v_needed = set()
        for level, (tgt, mkeys, tv) in state.lists.v_pairs.items():
            local = state.tree.contains(level, mkeys)
            v_needed |= {int(k) for k in mkeys[~local]}
        v_held = {int(k) for k in state.v_ghost_keys}
        assert v_held <= v_needed
        # A remote V box left out drops its far-field term without an error.
        assert v_held == v_needed & occupied


@pytest.mark.parametrize("config", [
    cfg(local_depth=2),
    cfg(global_depth=2, local_depth=1, balance_mode="sampled", samples_per_rank=64),
], ids=["roots", "sampled"])
def test_near_ghosts_match_owner_points(config):
    # Each rank's ghost table holds, row for row and in key order, the
    # owners' points and charges of its occupied remote U members, and its
    # other remote members (the sphere leaves many leaves empty) are
    # confirmed absent. The sampled splitters give uneven root runs (6 to
    # 10 roots), so the messages that make up a table cover runs of
    # different lengths. After update_charges the ghost charges are the
    # owners' new charges, bit for bit.
    pts, chg = raw_instance(4096, seed=17, sphere=True)
    chunks = np.array_split(np.arange(len(pts)), 8)
    world = create_world(8, seed=config.seed)

    def program(comm):
        state = setup(comm, pts[chunks[comm.rank]], chg[chunks[comm.rank]], config)
        at_setup = state.charges, state.near_ghosts.charges
        update_charges(state, np.random.default_rng([18, comm.rank]).random(state.tree.n_points))
        return state, at_setup

    states, at_setup = zip(*run_spmd(world, program))
    if config.balance_mode == "sampled":
        assert len({s.n_local_roots for s in states}) > 1
    level = config.leaf_level
    n_rows = n_absent = 0
    for state, (_, ghost_chg0) in zip(states, at_setup):
        ghosts = state.near_ghosts
        keys = state.lists.u_member_keys
        remote = np.unique(keys[~state.tree.contains(level, keys)])
        owners = [states[r] for r in state.layout.owner_of_boxes(remote)]
        assert all(o is not state for o in owners)
        ranges = [o.tree.leaf_ranges[o.tree.index_of(level, [k])[0]]
                  for o, k in zip(owners, remote)]
        empty = np.array([a == b for a, b in ranges], dtype=bool)
        held = [(o, a, b) for o, (a, b) in zip(owners, ranges) if b > a]

        def rows(column):
            return np.concatenate([column(o)[a:b] for o, a, b in held])

        assert ghosts.confirmed_absent.dtype == np.uint64
        assert np.array_equal(ghosts.confirmed_absent, remote[empty])
        assert np.array_equal(ghosts.keys, np.repeat(remote[~empty], [b - a for _, a, b in held]))
        assert np.array_equal(ghosts.coords, rows(lambda o: o.tree.points))
        assert np.array_equal(ghost_chg0, rows(lambda o: at_setup[o.rank][0]))
        assert np.array_equal(ghosts.charges, rows(lambda o: o.charges))
        n_rows += len(ghosts.keys)
        n_absent += len(ghosts.confirmed_absent)
    assert n_rows > 0 and n_absent > 0


def store_row_keys(state):
    """Key of every row of ``state.store.u_all`` (per level: the tree's
    boxes, then that level's ghosts), and a mask of the ghost rows."""
    store, ghost_keys = state.store, state.v_ghost_keys
    ghost_levels = morton.key_level(ghost_keys)
    keys = np.zeros(len(store.u_all), np.uint64)
    ghost = np.zeros(len(store.u_all), bool)
    for level, rows in store.u_rows.items():
        start, n_local = store.row_start[level], len(store.u[level])
        assert rows.base is store.u_all and store.u[level].base is store.u_all
        keys[start : start + n_local] = state.tree.level_keys[level]
        keys[start + n_local : start + len(rows)] = ghost_keys[ghost_levels == level]
        ghost[start + n_local : start + len(rows)] = True
    assert np.array_equal(store.row_keys, keys)
    return keys, ghost


def test_store_rows_of_maps_keys_to_their_rows():
    pts, chg = raw_instance(2048, seed=13)
    _, states, _ = distributed_run(pts, chg, 8, cfg(global_depth=2, local_depth=1),
                                   evaluate_runs=0)
    for store in [s.store for s in states] + [states[0].top_store]:
        rows, found = store.rows_of(store.row_keys)
        assert found.all() and np.array_equal(rows, np.arange(len(store.row_keys)))
        # Every box of levels 1..3 the store lacks, plus keys past both ends.
        every = np.concatenate([morton.all_keys(level) for level in (1, 2, 3)])
        ends = np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64)
        lacks = np.concatenate([ends, np.setdiff1d(every, store.row_keys)])
        assert len(lacks) > 2
        assert not store.rows_of(lacks)[1].any()


def test_v_ghost_plans_agree_across_ranks():
    # What rank r gathers for neighbor j is, in order, what j scatters from
    # r: the keys behind r's send rows are the keys behind j's receive
    # rows, and the receive rows fill each ghost row of j exactly once.
    pts, chg = raw_instance(8192, seed=12)
    _, states, _ = distributed_run(pts, chg, 64, cfg(global_depth=2, local_depth=1),
                                   evaluate_runs=0)
    row_keys = [store_row_keys(s) for s in states]
    n_keys = 0
    for r, state in enumerate(states):
        keys, ghost = row_keys[r]
        sent = _cut(state.v_halo.send, state.v_halo.send_counts)
        for pos, j in enumerate(state.graph.tolist()):
            back = states[j].graph.tolist().index(r)
            send_rows = sent[pos]
            recv_rows = _cut(states[j].v_recv_rows, states[j].v_halo.recv_counts)[back]
            assert not ghost[send_rows].any()
            assert np.array_equal(keys[send_rows], row_keys[j][0][recv_rows])
            n_keys += len(send_rows)
        assert np.array_equal(np.sort(state.v_recv_rows), np.flatnonzero(ghost))
    assert n_keys == sum(s.v_ghost_count() for s in states) > 0


def test_ghost_rows_match_owner_expansions():
    # After evaluate, every ghost row of the store holds, bit for bit, the
    # owner's u row of that box.
    pts, chg = raw_instance(2048, seed=13)
    _, states, _ = distributed_run(pts, chg, 8, cfg(local_depth=2))
    n_checked = 0
    for state in states:
        keys, ghost = store_row_keys(state)
        for row in np.flatnonzero(ghost):
            key = keys[row : row + 1]
            level = morton.key_level(int(key[0]))
            owner = states[int(state.layout.owner_of_boxes(key)[0])]
            assert owner is not state
            want = owner.store.u[level][owner.tree.index_of(level, key)[0]]
            assert np.array_equal(state.store.u_all[row], want)
            n_checked += 1
    assert n_checked == sum(s.v_ghost_count() for s in states) > 0
    assert any(np.any(s.store.u_all[store_row_keys(s)[1]] != 0) for s in states)


def test_near_field_blocks_per_rank_at_weak_scaling_shape(monkeypatch):
    # The shape of the cube-p64-weak benchmark: 64 points per rank in
    # 8-point leaves. The leaves of a rank share distance blocks, so its
    # near-field sweep makes fewer blocks than it has occupied leaves; one
    # block per leaf would pay the per-call cost this sweep avoids.
    pts, chg = raw_instance(4096, seed=5)
    calls = Counter()
    real = kernels.inverse_distances

    def counting(targets, sources, work=None):
        calls[threading.current_thread().name] += 1
        return real(targets, sources, work)

    monkeypatch.setattr(kernels, "inverse_distances", counting)
    _, states, _ = distributed_run(pts, chg, 64, cfg(global_depth=2, local_depth=1, order=2))
    for state in states:
        occupied = int(state.tree.level_nonempty[state.tree.leaf_level].sum())
        assert 0 < calls[f"fmm-rank-{state.rank}"] < occupied


def test_unresolved_dependency_after_ghost_drop():
    pts, chg = raw_instance(2048, seed=10)
    chunks = np.array_split(np.arange(len(pts)), 8)
    world = create_world(8, seed=0)

    def program(comm):
        state = setup(comm, pts[chunks[comm.rank]], chg[chunks[comm.rank]], cfg())
        if comm.rank == 3:
            assert state.drop_one_v_ghost() is not None
        return evaluate(state)

    # Rank 3 holds back one row it sends; the neighbor whose message comes
    # up short fails, the abort reaches every other rank and the root
    # cause surfaces from run_spmd.
    with pytest.raises(UnresolvedDependencyError, match="unresolved dependency: rank 3 sent"):
        run_spmd(world, program)


def resized_message(halo, delta):
    """``halo`` with its message to the first neighbor it sends rows to
    ``delta`` (+1 or -1) rows longer: a repeat or a loss of its first row."""
    k = np.flatnonzero(halo.send_counts)[0]
    start = int(halo.send_counts[:k].sum())
    if delta < 0:
        send = np.delete(halo.send, start)
    else:
        send = np.insert(halo.send, start, halo.send[start])
    counts = halo.send_counts.copy()
    counts[k] += delta
    return replace(halo, send=send, send_counts=counts)


@pytest.mark.parametrize("name, delta", [("u_halo", -1), ("v_halo", -1), ("v_halo", 1)],
                         ids=["charges-short", "expansions-short", "expansions-long"])
def test_wrong_length_halo_message_names_its_sender(name, delta):
    # A charge message (update_charges) or an expansion message (evaluate)
    # one row off the length setup fixed is caught by its receiver, which
    # names the sending rank.
    pts, chg = raw_instance(2048, seed=10)
    chunks = np.array_split(np.arange(len(pts)), 8)
    world = create_world(8, seed=0)

    def program(comm):
        state = setup(comm, pts[chunks[comm.rank]], chg[chunks[comm.rank]], cfg())
        if comm.rank == 5:
            setattr(state, name, resized_message(getattr(state, name), delta))
        update_charges(state, state.charges)
        return evaluate(state)

    with pytest.raises(UnresolvedDependencyError, match="rank 5 sent [0-9]+ rows where setup"):
        run_spmd(world, program)


def test_neighbor_exchanges_all_go_through_the_halo():
    # Every neighbor exchange of the solver is a Halo's, so each one is
    # checked against the message lengths setup fixed.
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "neighbor_alltoallv":
                found.append(scope)
            walk(child, scope)

    walk(ast.parse(Path(distributed.__file__).read_text()), ())
    assert found == [("Halo", "exchange")]


def test_near_field_pairs_counted_exactly_once():
    # Every (target point, source point) pair whose leaves are adjacent
    # (or equal) must be covered by exactly one near-field segment.
    pts, chg = raw_instance(512, seed=21)
    config = cfg(local_depth=1)
    _, states, _ = distributed_run(pts, chg, 8, config)
    leaf_level = config.leaf_level
    cube = states[0].cube
    cover = {}
    for state in states:
        tree = state.tree
        for pos in range(len(tree.leaves)):
            t0, t1 = tree.leaf_ranges[pos]
            if t1 <= t0:
                continue
            members = state.lists.u_members(pos)
            local = tree.contains(leaf_level, members)
            rows = np.full(len(members), -1)
            rows[local] = tree.index_of(leaf_level, members[local])
            for k, row in zip(members.tolist(), rows.tolist()):
                if row >= 0:
                    a, b = tree.leaf_ranges[row]
                    srcs = tree.points[a:b]
                elif k in state.near_ghosts.points:
                    srcs = state.near_ghosts.points[k]
                else:
                    continue  # confirmed absent
                for tp in map(tuple, tree.points[t0:t1]):
                    for sp in map(tuple, srcs):
                        cover[(tp, sp)] = cover.get((tp, sp), 0) + 1
    assert set(cover.values()) == {1}
    # Geometry oracle: covered pairs are exactly the leaf-adjacent ones.
    keys = morton.encode_points(pts, leaf_level, cube)
    coords = np.asarray(morton.anchor_lattice(keys))
    want = 0
    for i in range(len(pts)):
        sep = np.abs(coords - coords[i]).max(axis=1)
        want += int((sep <= 1).sum())
    assert len(cover) == want


def test_comm_graph_confined_to_adjacent_subdomains():
    pts, chg = raw_instance(8192, seed=22)
    config = cfg(global_depth=2, local_depth=1)
    _, states, _ = distributed_run(pts, chg, 64, config)
    layout = states[0].layout
    for state in states:
        adjacent = set()
        for root in state.tree.local_roots:
            owners = layout.owner_of_roots(morton.neighbors(int(root)))
            adjacent |= {int(o) for o in owners if o != state.rank}
        assert set(state.graph.tolist()) == adjacent
        assert state.u_graph is state.graph and state.v_graph is state.graph


def test_update_charges_matches_fresh_run():
    pts, chg = raw_instance(700, seed=11)
    config = cfg(local_depth=1)
    chunks = np.array_split(np.arange(len(pts)), 4)
    world = create_world(4, seed=0)

    def program(comm):
        mine = chunks[comm.rank]
        state = setup(comm, pts[mine], chg[mine], config)
        f0 = evaluate(state).potentials
        # Charges follow state.points, not the order passed to setup: where
        # the sort changed this rank's point count, the input-order vector
        # is rejected with an error naming the order it needs.
        moved = state.tree.n_points != len(mine)
        if moved:
            order = r"state\.points \(this rank's points in tree order"
            with pytest.raises(ValueError, match=order):
                update_charges(state, chg[mine])
        update_charges(state, state.charges)
        f_same = evaluate(state).potentials
        update_charges(state, 2.0 * state.charges)
        f_twice = evaluate(state).potentials
        rng = np.random.default_rng([77, comm.rank])
        fresh = rng.random(state.tree.n_points)
        update_charges(state, fresh)
        f_new = evaluate(state).potentials
        return f0, f_same, f_twice, f_new, state.points, fresh, moved

    results = run_spmd(world, program)
    assert any(r[6] for r in results)
    for f0, f_same, f_twice, _, _, _, _ in results:
        assert np.array_equal(f0, f_same)
        np.testing.assert_allclose(f_twice, 2.0 * f0, rtol=1e-12)

    # Fresh-run oracle: same sorted points with the new charges.
    all_pts = np.concatenate([r[4] for r in results])
    all_new = np.concatenate([r[5] for r in results])
    _, _, evals = distributed_run(all_pts, all_new, 4, config)
    f_fresh = concat_potentials(evals)
    f_updated = np.concatenate([r[3] for r in results])
    assert rel_l2(f_updated, f_fresh) <= 1e-12


def test_update_charges_length_mismatch():
    pts, chg = raw_instance(300, seed=12)
    world = create_world(1, seed=0)

    def program(comm):
        state = setup(comm, pts, chg, cfg(local_depth=1))
        with pytest.raises(ValueError, match="length"):
            update_charges(state, np.ones(3))
        return True

    assert run_spmd(world, program) == [True]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_setup_rejects_non_finite_point(bad):
    pts, chg = raw_instance(300, seed=12)
    pts[200, 1] = bad
    # Rank 1 holds the bad point; its local raise aborts rank 0's collective.
    with pytest.raises(ValueError, match="point 50 is not finite"):
        distributed_run(pts, chg, 2, cfg(local_depth=1))


@pytest.mark.parametrize("shape", [(6, 2), (2, 6), (12,), (4, 3, 1)])
def test_setup_rejects_wrong_shaped_points(shape):
    # Reshaping would run 4 scrambled 3-D points against the 4 charges.
    world = create_world(1, seed=0)
    message = re.escape(f"points must have shape (n, 3), got {shape}")
    with pytest.raises(ValueError, match=message):
        run_spmd(world, lambda comm: setup(comm, np.ones(shape), np.ones(4), cfg()))


def test_setup_failure_names_its_phase():
    # Empty on every rank: the global bounding cube fails inside sort_tree.
    with pytest.raises(ValueError, match=r"^\[sort_tree\] no points on any rank$"):
        distributed_run(np.empty((0, 3)), np.empty(0), 2, cfg())


def test_setup_rejects_non_finite_charge():
    pts, chg = raw_instance(300, seed=12)
    chg[7] = np.nan
    with pytest.raises(ValueError, match="charge 7 is not finite"):
        distributed_run(pts, chg, 2, cfg(local_depth=1))


def test_update_charges_rejects_non_finite_charge():
    pts, chg = raw_instance(300, seed=12)
    world = create_world(1, seed=0)

    def program(comm):
        state = setup(comm, pts, chg, cfg(local_depth=1))
        bad = np.ones(len(pts))
        bad[3] = np.nan
        with pytest.raises(ValueError, match="charge 3 is not finite"):
            update_charges(state, bad)
        return True

    assert run_spmd(world, program) == [True]


def test_sampled_balance_mode_runs_and_matches():
    pts, chg = raw_instance(4096, seed=14)
    config = cfg(global_depth=2, local_depth=1, balance_mode="sampled",
                 samples_per_rank=64)
    _, states, evals = distributed_run(pts, chg, 4, config)
    f = concat_potentials(evals)
    spts = np.concatenate([s.points for s in states])
    schg = np.concatenate([s.charges for s in states])
    ref = direct_sum(spts, spts, schg)
    assert rel_l2(f, ref) <= frozen_eps(3)
    assert sum(s.n_local_roots for s in states) == 64


def test_sampled_balance_rejects_rank_without_roots():
    # Clustered points: the sampled splitters leave ranks with empty root
    # runs; every rank raises the same error before building its tree.
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.random((512, 3)) * 0.05, [[1.0, 1.0, 1.0]]])
    config = cfg(local_depth=2, balance_mode="sampled", samples_per_rank=16)
    with pytest.raises(ValueError, match=r"^\[sort_tree\] rank\(s\) 0, .* left without local "
                                         r"roots by the sampled splitters$"):
        distributed_run(pts, rng.random(len(pts)), 8, config)


def test_manifest_is_deterministic():
    pts, chg = raw_instance(400, seed=15)
    manifests = []
    for _ in range(2):
        world, states, _ = distributed_run(pts, chg, 8, cfg(local_depth=1))
        manifests.append(run_manifest(states[0], world))
    assert manifests[0] == manifests[1]
    assert manifests[0]["transport_backend"] == "sim"
    assert len(manifests[0]["splitters"]) == 7


@pytest.mark.parametrize("name, bad", [
    ("margin", -1.0), ("margin", -0.5), ("margin", np.nan), ("margin", np.inf),
    ("margin", "0.1"), ("margin", None), ("margin", True), ("margin", 1j),
    ("order", 3.5), ("order", 3.0), ("order", True),
    ("global_depth", 1.5), ("global_depth", True),
    ("local_depth", 2.0), ("local_depth", False),
    ("samples_per_rank", 0), ("samples_per_rank", 1.5),
    ("seed", 1.5), ("seed", -1), ("seed", "x"),
])
def test_config_rejects_bad_field(name, bad):
    with pytest.raises(ValueError, match=name):
        cfg(**{name: bad})


def test_config_accepts_boundary_values():
    # numpy integers are stored as int, so the manifest stays JSON.
    config = cfg(order=np.int64(3), global_depth=np.int32(1), samples_per_rank=1,
                 seed=np.int64(0))
    assert type(config.order) is int and type(config.global_depth) is int
    assert type(config.seed) is int
    # Any real margin is stored as float.
    assert [cfg(margin=m).margin for m in (0, np.float32(0.5), np.int64(1))] == [0.0, 0.5, 1.0]
    assert type(cfg(margin=np.float32(0.5)).margin) is float
    # A zero margin puts the extreme points on the cube's faces.
    pts, chg = raw_instance(300, seed=19)
    _, states, evals = distributed_run(pts, chg, 2, cfg(local_depth=1, margin=0.0))
    spts = np.concatenate([s.points for s in states])
    schg = np.concatenate([s.charges for s in states])
    assert rel_l2(concat_potentials(evals), direct_sum(spts, spts, schg)) <= frozen_eps(3)


def test_setup_phase_timings_present():
    pts, chg = raw_instance(300, seed=16)
    _, states, _ = distributed_run(pts, chg, 8, cfg(local_depth=1))
    from unifmm.distributed import SETUP_PHASES

    for state in states:
        for phase in SETUP_PHASES:
            assert state.timings[phase] >= 0.0


def test_potentials_bitwise_equal_with_subtraction_kernel(monkeypatch):
    # The exact kernel's matrix-product differences must give the same
    # bits as plain subtraction everywhere it runs: P2P and the operator
    # build (a fresh operator cache makes each run build its own). S2U and
    # D2T use the template kernel, unpatched in both runs.
    pts, chg = raw_instance(2000, seed=14)
    config = cfg(order=5)

    def potentials():
        monkeypatch.setattr(operators, "_OP_CACHE", {})
        return concat_potentials(distributed_run(pts, chg, 8, config)[2])

    want = potentials()
    calls = {kernels: 0, operators: 0}

    def patch(module):
        def reference(targets, sources, work=None):
            calls[module] += 1
            return subtraction_inverse_distances(targets, sources)

        monkeypatch.setattr(module, "inverse_distances", reference)

    patch(kernels)
    patch(operators)
    got = potentials()
    assert calls[kernels] > 0 and calls[operators] > 0
    assert np.array_equal(got, want)
