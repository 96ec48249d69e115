"""Distributed setup and runtime execution across simulated ranks."""

import numpy as np
import pytest
from conftest import concat_potentials, distributed_run, raw_instance, rel_l2

from unifmm import morton
from unifmm.distributed import (
    FmmConfig,
    evaluate,
    global_message_size,
    run_manifest,
    setup,
    update_charges,
)
from unifmm.kernels import UnresolvedDependencyError, direct_sum
from unifmm.operators import frozen_eps
from unifmm.transport import create_world, run_spmd


# Measured relative L2 error of P=8 f32 runs against direct summation (800
# uniform points, d_g=1, d_l=2; seeds 1-4 and 8, also at 2000 points):
# at most 2.0e-4 at order 3 and 3.8e-5 at order 4, frozen with ~3x headroom.
F32_EPS = {3: 6.0e-4, 4: 1.2e-4}


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


def test_zero_charges_zero_potentials_same_schedule():
    pts, chg = raw_instance(512, seed=5)
    _, _, evals = distributed_run(pts, np.zeros_like(chg), 8, cfg(local_depth=1),
                                  evaluate_runs=2)
    for per_rank in evals:
        assert np.all(per_rank[0].potentials == 0.0)
        assert per_rank[0].stats == per_rank[1].stats


def test_repeated_evaluate_bitwise_identical():
    pts, chg = raw_instance(600, seed=6)
    _, _, evals = distributed_run(pts, chg, 8, cfg(local_depth=1), evaluate_runs=2)
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
        assert rel_l2(f, direct_sum(spts, spts, schg)) <= F32_EPS[order]


def test_ghost_sufficiency_and_minimality():
    pts, chg = raw_instance(2048, seed=9)
    _, states, _ = distributed_run(pts, chg, 8, cfg(local_depth=2))
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
        assert held <= needed
        assert needed == held | state.near_ghosts.confirmed_absent
        # Same for V ghosts, per level.
        v_needed = set()
        for level, (tgt, mkeys, tv) in state.lists.v_pairs.items():
            local = state.tree.contains(level, mkeys)
            v_needed |= {int(k) for k in mkeys[~local]}
        v_held = {int(k) for lvl in state.v_ghosts.keys for k in state.v_ghosts.keys[lvl]}
        assert v_held <= v_needed


def test_unresolved_dependency_after_ghost_drop():
    pts, chg = raw_instance(2048, seed=10)
    chunks = np.array_split(np.arange(len(pts)), 8)
    world = create_world(8, seed=0)

    def program(comm):
        state = setup(comm, pts[chunks[comm.rank]], chg[chunks[comm.rank]], cfg())
        if comm.rank == 3:
            assert state.drop_one_v_ghost() is not None
        return evaluate(state)

    # Rank 3 fails before its first runtime collective; the abort reaches
    # every other rank and the root cause surfaces from run_spmd.
    with pytest.raises(UnresolvedDependencyError, match="unresolved dependency"):
        run_spmd(world, program)


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
        leaf_index = tree.key_to_index(leaf_level)
        for pos in range(len(tree.leaves)):
            t0, t1 = tree.leaf_ranges[pos]
            if t1 <= t0:
                continue
            for key in state.lists.u_members(pos):
                k = int(key)
                if k in leaf_index:
                    a, b = tree.leaf_ranges[leaf_index[k]]
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
        update_charges(state, state.charges)
        f_same = evaluate(state).potentials
        update_charges(state, 2.0 * state.charges)
        f_twice = evaluate(state).potentials
        rng = np.random.default_rng([77, comm.rank])
        fresh = rng.random(state.tree.n_points)
        update_charges(state, fresh)
        f_new = evaluate(state).potentials
        return f0, f_same, f_twice, f_new, state.points, fresh

    results = run_spmd(world, program)
    for f0, f_same, f_twice, _, _, _ in results:
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


def test_setup_phase_timings_present():
    pts, chg = raw_instance(300, seed=16)
    _, states, _ = distributed_run(pts, chg, 8, cfg(local_depth=1))
    from unifmm.distributed import SETUP_PHASES

    for state in states:
        for phase in SETUP_PHASES:
            assert state.timings[phase] >= 0.0
