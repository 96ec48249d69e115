"""Sample sort splitters, redistribution, and layout construction."""

import numpy as np
import pytest

from unifmm import morton
from unifmm.partition import (
    LayoutError,
    build_layout,
    equal_root_runs,
    redistribute,
    runs_from_splitters,
    sample_splitters,
    snap_to_boxes,
    sort_local,
)
from unifmm.transport import create_world, run_spmd

UNIT = morton.BoundingCube(origin=(0.0, 0.0, 0.0), side=1.0)


def test_splitters_p1_empty():
    world = create_world(1)
    keys = np.arange(10, dtype=np.uint64) << np.uint64(16) | np.uint64(3)

    def program(comm):
        return sample_splitters(comm, keys, samples_per_rank=4, seed=0)

    (result,) = run_spmd(world, program)
    assert result.size == 0


def test_splitter_rule_hand_executed(monkeypatch):
    # Gathered sorted samples with codes 1..8 and b = 4: the single
    # splitter is the 5th smallest.
    world = create_world(2)
    per_rank = {0: np.array([1, 3, 5, 7], dtype=np.uint64),
                1: np.array([2, 4, 6, 8], dtype=np.uint64)}

    class _FixedRng:
        def __init__(self, vals):
            self.vals = vals

        def choice(self, keys, size, replace):
            return self.vals

    import unifmm.partition as part

    monkeypatch.setattr(part, "rank_rng", lambda seed, rank: _FixedRng(per_rank[rank]))

    def program(comm):
        return sample_splitters(comm, per_rank[comm.rank], 4, seed=0)

    results = run_spmd(world, program)
    for r in results:
        assert list(r) == [5]


def test_splitters_deterministic_across_runs():
    keys = (np.arange(4000, dtype=np.uint64) * 7919) << np.uint64(16) | np.uint64(4)

    def program(comm):
        lo = comm.rank * 1000
        return sample_splitters(comm, keys[lo : lo + 1000], 50, seed=123)

    runs = []
    for _ in range(2):
        world = create_world(4)
        runs.append(run_spmd(world, program))
    for a, b in zip(runs[0], runs[1]):
        assert np.array_equal(a, runs[0][0])
        assert np.array_equal(a, b)


def test_splitters_too_few_points():
    world = create_world(2)

    def program(comm):
        keys = np.array([1], dtype=np.uint64) if comm.rank == 0 else np.array([2], np.uint64)
        return sample_splitters(comm, keys, samples_per_rank=5, seed=0)

    with pytest.raises(ValueError, match="too few"):
        run_spmd(world, program)


def test_snap_to_boxes():
    leaf_level = 3
    keys = morton.encode_points(np.array([[0.9, 0.1, 0.2], [0.3, 0.8, 0.7]]), leaf_level, UNIT)
    snapped = snap_to_boxes(keys, 1)
    for orig, snap in zip(keys, snapped):
        assert morton.key_level(int(snap)) == leaf_level
        assert morton.ancestor_at(int(snap), 1) == morton.ancestor_at(int(orig), 1)
        assert int(snap) <= int(orig)
        assert tuple(morton.anchor_lattice(int(snap))) == tuple(
            c * 4 for c in morton.anchor_lattice(morton.ancestor_at(int(orig), 1))
        )


def test_redistribute_p1_is_local_sort():
    rng = np.random.default_rng(0)
    pts = rng.random((100, 3))
    chg = rng.random(100)
    keys = morton.encode_points(pts, 3, UNIT)
    world = create_world(1)

    def program(comm):
        return sort_local(*redistribute(comm, keys, pts, chg, np.empty(0, np.uint64)))

    [(p, c, k)] = run_spmd(world, program)
    assert np.all(np.diff(k.astype(np.int64)) >= 0)
    order = np.argsort(keys, kind="stable")
    assert np.array_equal(p, pts[order])
    assert np.array_equal(c, chg[order])
    assert np.array_equal(k, keys[order])


def test_redistribute_carries_every_key_bit():
    # A key travels as the bits of a float64 word; keys whose bits read as
    # NaNs or infinities must arrive unchanged.
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 2**64, size=200, dtype=np.uint64, endpoint=False)
    keys[:4] = [0x7FF0000000000001, 0xFFF8000000000000, 0x7FF0000000000000, 2**64 - 1]
    pts, chg = rng.random((200, 3)), rng.random(200)
    world = create_world(3)
    splitters = np.sort(keys)[[70, 140]]

    def program(comm):
        mine = slice(70 * comm.rank, 70 * (comm.rank + 1))
        return redistribute(comm, keys[mine], pts[mine], chg[mine], splitters)

    results = run_spmd(world, program)
    got = np.concatenate([k for _, _, k in results])
    assert got.dtype == np.uint64
    assert np.array_equal(np.sort(got), np.sort(keys))
    for rank, (p, c, k) in enumerate(results):
        assert np.array_equal(np.searchsorted(splitters, k, side="right"), np.full(len(k), rank))
        # Each row's point and charge still belong to its key.
        idx = np.array([np.flatnonzero(keys == key)[0] for key in k], dtype=np.int64)
        assert np.array_equal(p, pts[idx]) and np.array_equal(c, chg[idx])


def _scatter_inputs(n, P, seed, leaf_level):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    chg = rng.random(n)
    cube = morton.fit_domain(pts)
    chunks = np.array_split(np.arange(n), P)
    return pts, chg, cube, chunks


def test_redistribute_global_sort_oracle():
    n, P, leaf_level = 4000, 4, 4
    pts, chg, cube, chunks = _scatter_inputs(n, P, 7, leaf_level)

    def program(comm):
        mine = chunks[comm.rank]
        keys = morton.encode_points(pts[mine], leaf_level, cube)
        splitters = sample_splitters(comm, keys, 64, seed=5, snap_level=2)
        return sort_local(*redistribute(comm, keys, pts[mine], chg[mine], splitters))

    world = create_world(P)
    results = run_spmd(world, program)
    all_keys = np.concatenate([r[2] for r in results])
    # Oracle: one global sort of all keys.
    want = np.sort(morton.encode_points(pts, leaf_level, cube), kind="stable")
    assert np.array_equal(all_keys, want)
    # Strict rank separation.
    for i in range(P - 1):
        if len(results[i][2]) and len(results[i + 1][2]):
            assert results[i][2].max() < results[i + 1][2].min()
    # Every (x, y, z, q) row arrives exactly once, unchanged.
    def sorted_rows(rows):
        return rows[np.lexsort(rows.T[::-1])]

    got = np.concatenate([np.column_stack([p, c]) for p, c, _ in results])
    assert np.array_equal(sorted_rows(got), sorted_rows(np.column_stack([pts, chg])))
    # Each point arrives with its own key.
    for p, _, k in results:
        assert np.array_equal(k, morton.encode_points(p, leaf_level, cube))


def test_redistribute_imbalance_uniform():
    # Statistical check at modest size; the acceptance suite runs the
    # full 1e5-point, 20-trial version.
    n, P = 20000, 8
    sizes = []
    for seed in range(5):
        pts, chg, cube, chunks = _scatter_inputs(n, P, 100 + seed, 4)

        def program(comm):
            mine = chunks[comm.rank]
            keys = morton.encode_points(pts[mine], 4, cube)
            splitters = sample_splitters(comm, keys, 200, seed=seed, snap_level=2)
            p, _, _ = redistribute(comm, keys, pts[mine], chg[mine], splitters)
            return len(p)

        world = create_world(P)
        sizes.append(run_spmd(world, program))
    worst = max(max(s) for s in sizes) / (n / P)
    assert worst <= 1.3


def test_equal_root_runs_and_splitters():
    runs = equal_root_runs(2, 8)
    assert list(np.diff(runs)) == [8] * 8
    runs = equal_root_runs(1, 3)
    assert runs[-1] == 8 and max(np.diff(runs)) - min(np.diff(runs)) <= 1
    with pytest.raises(ValueError, match="cannot"):
        equal_root_runs(1, 9)

    spl = build_layout(1, equal_root_runs(1, 8)).splitters(leaf_level=3)
    assert len(spl) == 7
    back = runs_from_splitters(1, spl)
    assert np.array_equal(back, equal_root_runs(1, 8))


def test_build_layout_p8_one_root_each():
    roots = morton.descendants(morton.make_key(0, 0, 0, 0), 1)
    lay = build_layout(1, equal_root_runs(1, 8))
    assert all(lay.n_roots(r) == 1 for r in range(8))
    assert np.array_equal(lay.root_keys, roots)
    owners = lay.owner_of_roots(roots)
    assert np.array_equal(owners, np.arange(8))


def test_build_layout_p8_dg2_contiguous_runs():
    roots = morton.descendants(morton.make_key(0, 0, 0, 0), 2)
    lay = build_layout(2, equal_root_runs(2, 8))
    assert all(lay.n_roots(r) == 8 for r in range(8))
    for r in range(8):
        assert np.array_equal(lay.roots_of(r), roots[8 * r : 8 * (r + 1)])
    # Boxes below the root level resolve to the root's owner.
    deeper = morton.descendants(int(roots[17]), 2)
    assert np.all(lay.owner_of_boxes(deeper) == lay.owner_of_roots(roots[17:18])[0])


def test_build_layout_double_claim_rejected():
    with pytest.raises(LayoutError, match="invalid layout"):
        build_layout(1, [0, 5, 4, 8])  # decreasing: root 4 claimed twice


def test_build_layout_missing_root_rejected():
    # Runs that stop short of the last root, start past the first, or
    # overrun the lattice.
    for runs in ([0, 4, 7], [1, 4, 8], [0, 4, 9], [0]):
        with pytest.raises(LayoutError, match="invalid layout"):
            build_layout(1, runs)
