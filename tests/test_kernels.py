"""Laplace kernel and direct summation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subtraction_inverse_distances
from reference import laplace_kernel

from unifmm import kernels, morton
from unifmm.kernels import (
    NearFieldGhosts,
    UnresolvedDependencyError,
    direct_sum,
    inverse_distances,
    kernel_backend,
    near_field_plan,
    p2p_uli,
    point_operand,
    template_inverse_distances,
    template_operand,
)
from unifmm.operators import UPWARD_CHECK_SCALE, surface_grid
from unifmm.tree import build_interaction_lists, build_tree

UNIT = morton.BoundingCube(origin=(0.0, 0.0, 0.0), side=1.0)


def python_double_loop(targets, sources, charges):
    """Independent oracle: plain Python loops, math.sqrt, no numpy math."""
    out = []
    for t in targets:
        acc = 0.0
        for s, q in zip(sources, charges):
            dx, dy, dz = t[0] - s[0], t[1] - s[1], t[2] - s[2]
            r = math.sqrt(dx * dx + dy * dy + dz * dz)
            if r != 0.0:
                acc += q / r
        out.append(acc)
    return np.asarray(out)


def test_kernel_unit_distance():
    assert laplace_kernel((0, 0, 0), (1, 0, 0)) == 1.0


def test_kernel_3_4_5_triangle():
    assert laplace_kernel((0, 0, 0), (3, 4, 0)) == pytest.approx(0.2, abs=0.0)


def test_kernel_self_convention():
    assert laplace_kernel((0.3, 0.1, 0.9), (0.3, 0.1, 0.9)) == 0.0


def test_kernel_symmetry_and_translation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = rng.random(3), rng.random(3)
        assert laplace_kernel(x, y) == laplace_kernel(y, x)
        # Exact translation invariance, checked on exactly representable
        # coordinates so x + t carries no rounding.
        xd, yd, t = (np.floor(rng.random(3) * 64) / 64 for _ in range(3))
        assert laplace_kernel(xd + t, yd + t) == laplace_kernel(xd, yd)


def test_direct_sum_two_unit_charges():
    f = direct_sum([[0.0, 0, 0]], [[1.0, 0, 0], [0.0, 1, 0]], [1.0, 1.0])
    assert f[0] == pytest.approx(2.0)


def test_direct_sum_zero_charges():
    rng = np.random.default_rng(1)
    pts = rng.random((50, 3))
    assert np.all(direct_sum(pts, pts, np.zeros(50)) == 0.0)


def test_direct_sum_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    pts = rng.random((100, 3))
    f = direct_sum(pts, pts, np.ones(100))
    ref = python_double_loop(pts, pts, np.ones(100))
    np.testing.assert_allclose(f, ref, rtol=1e-12)


def test_direct_sum_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        direct_sum([[0.0, 0, 0]], [[1.0, 0, 0]], [1.0, 2.0])


@pytest.mark.parametrize("fn", [direct_sum])
@pytest.mark.parametrize("bad, shape", [
    ("targets", (6, 2)), ("targets", (12,)), ("targets", (2, 3, 1)),
    ("sources", (6, 2)), ("sources", (3,)),
])
def test_direct_sum_rejects_points_not_n_by_3(fn, bad, shape):
    # A (6, 2) array has 12 entries, which must not pass as 4 points.
    args = {"targets": np.zeros((4, 3)), "sources": np.ones((4, 3))}
    args[bad] = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(f"{bad} must have shape (n, 3), got {shape}")):
        fn(args["targets"], args["sources"], np.ones(4))


@pytest.mark.parametrize("bad", ["target", "source", "charge"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_direct_sum_rejects_non_finite_input(bad, value):
    rng = np.random.default_rng(12)
    args = {"target": rng.random((6, 3)), "source": rng.random((5, 3)), "charge": rng.random(5)}
    args[bad].reshape(len(args[bad]), -1)[3, -1] = value
    with pytest.raises(ValueError, match=f"{bad} 3 is not finite"):
        direct_sum(args["target"], args["source"], args["charge"])


def test_direct_sum_linearity():
    rng = np.random.default_rng(3)
    pts = rng.random((80, 3))
    s1, s2 = rng.random(80), rng.random(80)
    lhs = direct_sum(pts, pts, 3.0 * s1 + s2)
    rhs = 3.0 * direct_sum(pts, pts, s1) + direct_sum(pts, pts, s2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_kernel_backend_is_numpy():
    # The run manifest records this name; it must not change with the host.
    assert kernel_backend() == "numpy"


def _center_point_tree(cells, level, d_g, d_l):
    n = 1 << level
    pts = (np.asarray(cells, dtype=np.float64) + 0.5) / n
    keys = morton.encode_points(pts, level, UNIT)
    order = np.argsort(keys, kind="stable")
    roots = np.unique(morton.ancestor_at(keys, d_g))
    # Own the whole lattice so U members always resolve locally.
    all_roots = np.sort(
        morton.descendants(morton.make_key(0, 0, 0, 0), d_g)
    )
    tree = build_tree(pts[order], UNIT, d_g, d_l, local_roots=all_roots)
    del roots
    return tree, order


def test_p2p_uli_two_adjacent_leaves():
    tree, _ = _center_point_tree([[0, 0, 0], [1, 0, 0]], 2, 1, 1)
    _, lists = build_interaction_lists(tree)
    charges = np.ones(2)
    f = p2p_uli(near_field_plan(tree, lists), charges)
    r = 0.25  # cell centers one cell apart
    np.testing.assert_allclose(f, [1 / r, 1 / r], rtol=1e-14)


def test_p2p_uli_isolated_leaf_sees_only_itself():
    # Two points in one leaf, far cells empty: contribution only internal.
    tree, _ = _center_point_tree([[0, 0, 0], [0, 0, 0]], 2, 1, 1)
    _, lists = build_interaction_lists(tree)
    pts = tree.points.copy()
    pts[1] += 0.01
    tree.points[:] = pts
    f = p2p_uli(near_field_plan(tree, lists), np.ones(2))
    want = python_double_loop(pts, pts, np.ones(2))
    np.testing.assert_allclose(f, want, rtol=1e-12)


def test_p2p_uli_matches_direct_sum_on_dense_small_domain():
    # Depth-1 local tree under a depth-1 global root: every pair of leaves
    # is adjacent, so the near field alone is the full interaction.
    rng = np.random.default_rng(5)
    pts = rng.random((64, 3)) * 0.5  # all inside root octant (0,0,0)
    keys = morton.encode_points(pts, 2, UNIT)
    order = np.argsort(keys, kind="stable")
    pts = pts[order]
    roots = morton.descendants(morton.make_key(0, 0, 0, 0), 1)
    tree = build_tree(pts, UNIT, 1, 1, local_roots=np.sort(roots))
    _, lists = build_interaction_lists(tree)
    charges = rng.random(64)
    # Only the points in octant 0 interact fully; all lie there by scaling.
    f = p2p_uli(near_field_plan(tree, lists), charges)
    ref = direct_sum(pts, pts, charges)
    np.testing.assert_allclose(f, ref, rtol=1e-12)


def test_p2p_uli_unresolved_dependency():
    # Own only root 0; a point near its inner corner has U members under
    # other roots, with no ghost data supplied.
    pts = np.array([[0.49, 0.49, 0.49]])
    keys = morton.encode_points(pts, 2, UNIT)
    root = morton.ancestor_at(int(keys[0]), 1)
    tree = build_tree(pts, UNIT, 1, 1, local_roots=[root])
    _, lists = build_interaction_lists(tree)
    with pytest.raises(UnresolvedDependencyError, match="unresolved dependency"):
        near_field_plan(tree, lists)


def _ghost_table(points, charges, absent=()):
    """NearFieldGhosts holding the per-leaf ``points[key]`` and
    ``charges[key]`` as one key-sorted table; ``absent`` leaves are
    confirmed absent."""
    keys = sorted(points)
    return NearFieldGhosts(
        keys=np.repeat(np.asarray(keys, dtype=np.uint64), [len(points[k]) for k in keys]),
        coords=np.concatenate([np.empty((0, 3)), *(points[k] for k in keys)]),
        charges=np.concatenate([np.empty(0), *(charges[k] for k in keys)]),
        confirmed_absent=np.asarray(sorted(absent), dtype=np.uint64),
    )


def _corner_point_tree():
    """One point near the inner corner of root 0, the only local root, so
    its U list reaches under the other roots."""
    pts = np.array([[0.49, 0.49, 0.49]])
    keys = morton.encode_points(pts, 2, UNIT)
    root = morton.ancestor_at(int(keys[0]), 1)
    tree = build_tree(pts, UNIT, 1, 1, local_roots=[root])
    _, lists = build_interaction_lists(tree)
    remote = [int(k) for k in lists.u_members(tree.index_of(2, keys)[0])
              if not tree.contains(2, np.asarray([k], dtype=np.uint64))[0]]
    return tree, lists, remote


def test_p2p_uli_ghosts_resolve_remote_members():
    tree, lists, remote = _corner_point_tree()
    # One remote member actually holds a point.
    gkey = remote[0]
    anchor, side = morton.decode(gkey, UNIT)
    gpt = anchor + 0.5 * side
    ghosts = _ghost_table({gkey: gpt[None, :]}, {gkey: np.array([2.0])}, remote[1:])
    f = p2p_uli(near_field_plan(tree, lists, ghosts), np.ones(1), ghosts.charges)
    want = 2.0 / np.linalg.norm(tree.points[0] - gpt)
    np.testing.assert_allclose(f, [want], rtol=1e-14)


def test_p2p_uli_rejects_malformed_ghost_table():
    tree, lists, remote = _corner_point_tree()
    k0, k1 = sorted(remote)[:2]
    gpts = {k: morton.decode(k, UNIT)[0][None, :] + 0.01 for k in (k0, k1)}
    ghosts = _ghost_table(gpts, {k0: np.ones(1), k1: np.ones(1)}, set(remote) - {k0, k1})
    plan = near_field_plan(tree, lists, ghosts)
    p2p_uli(plan, np.ones(1), ghosts.charges)
    short = NearFieldGhosts(ghosts.keys, ghosts.coords, ghosts.charges[:1],
                            ghosts.confirmed_absent)
    with pytest.raises(ValueError, match="differ in length"):
        near_field_plan(tree, lists, short)
    short = NearFieldGhosts(ghosts.keys[:1], ghosts.coords, ghosts.charges,
                            ghosts.confirmed_absent)
    with pytest.raises(ValueError, match="differ in length"):
        near_field_plan(tree, lists, short)
    swapped = NearFieldGhosts(ghosts.keys[::-1], ghosts.coords, ghosts.charges,
                              ghosts.confirmed_absent)
    with pytest.raises(ValueError, match="ghost keys are not sorted"):
        near_field_plan(tree, lists, swapped)
    # A run's charges must match the plan's rows.
    with pytest.raises(ValueError, match="1 ghost charges for the plan's 2 ghost rows"):
        p2p_uli(plan, np.ones(1), ghosts.charges[:1])
    with pytest.raises(ValueError, match="charges length does not match tree points"):
        p2p_uli(plan, np.ones(2), ghosts.charges)


def _points_with_duplicates(rng, n_t, n_s):
    """Random targets and sources with coincident pairs, and positive
    charges, so sums do not cancel and rtol measures rounding alone."""
    t = rng.random((n_t, 3))
    s = rng.random((n_s, 3))
    s[:5] = t[:5]         # coincident target/source pairs
    s[5:8] = s[8:11]      # duplicated sources
    t[-2:] = t[:2]        # duplicated targets
    return t, s, rng.random(n_s)


@pytest.mark.parametrize("n_t, n_s", [(37, 53), (200, 300), (8, 11)])
def test_laplace_potential_bitwise_equals_plain_formula(n_t, n_s):
    rng = np.random.default_rng(6)
    t, s, q = _points_with_duplicates(rng, n_t, n_s)
    d2 = ((t[:, None, :] - s[None, :, :]) ** 2).sum(2)
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(d2)
    inv[d2 == 0.0] = 0.0
    assert np.array_equal(direct_sum(t, s, q), inv @ q)


def _block_points(rng, n, m):
    """Targets and sources with negative coordinates, points at scales 1
    and 1e3, coincident target/source pairs, duplicated points, and pairs
    that share one coordinate."""
    t = rng.uniform(-1.0, 1.0, (n, 3)) * np.where(rng.random((n, 1)) < 0.5, 1.0, 1e3)
    s = rng.uniform(-1.0, 1.0, (m, 3)) * np.where(rng.random((m, 1)) < 0.5, 1.0, 1e3)
    k = min(n, m) // 4
    s[:k] = t[:k]                       # coincident pairs
    s[k : 2 * k, 0] = t[k : 2 * k, 0]   # one shared coordinate
    if n >= 4:
        t[-2:] = t[:2]                  # duplicated targets
    if m >= 4:
        s[-2:] = s[2:4]                 # duplicated sources
    return t, s


# Block shapes: a P2P leaf block, tall blocks over 152 and 296 columns (the
# expansion lengths of orders 6 and 8), a small leaf, one target or
# source, and empty blocks.
BLOCK_SHAPES = [(32, 864), (430, 152), (215, 296), (64, 8), (1, 500), (300, 1),
                (0, 57), (41, 0)]


def test_inverse_distances_bitwise_equals_subtraction_reference():
    rng = np.random.default_rng(13)
    # One stale buffer for every shape, as a caller's block loop reuses it.
    work = np.full(2 * max(n * m for n, m in BLOCK_SHAPES) + 7, np.nan)
    for n, m in BLOCK_SHAPES:
        t, s = _block_points(rng, n, m)
        want = subtraction_inverse_distances(t, s)
        assert np.array_equal(inverse_distances(t, s), want), (n, m)
        got = inverse_distances(t, s, work)
        assert np.array_equal(got, want), (n, m)
        assert n * m == 0 or np.shares_memory(got, work)
        # Strided operands (columns of a wider array) give the same bits.
        wide = np.repeat(s, 2, axis=1)[:, ::2]
        assert np.array_equal(inverse_distances(t, wide, work), want), (n, m)
        work[: 2 * n * m] = -np.inf


def _leaf_offsets(rng):
    """Offsets from a leaf center in leaf sides: its 8 corners, 6 face
    centers, 12 edge midpoints, the center and random points."""
    cube = np.stack(np.meshgrid(*[[-0.5, 0.0, 0.5]] * 3, indexing="ij"), axis=-1)
    return np.vstack([cube.reshape(27, 3), rng.random((300, 3)) - 0.5])


@pytest.mark.parametrize("order", range(2, 9))
def test_template_kernel_within_rounding_of_subtraction(order):
    # r^2 = |o|^2 + |y|^2 - 2 o.y cancels by at most a factor of 12.3
    # between a leaf's points and the check template around the leaf.
    o = _leaf_offsets(np.random.default_rng(order))
    y = surface_grid(order, scale=UPWARD_CHECK_SCALE)
    got = template_inverse_distances(point_operand(o), template_operand(y))
    want = subtraction_inverse_distances(o, y)
    assert np.abs(got / want - 1.0).max() <= 2e-15


@pytest.mark.parametrize("order", range(2, 9))
def test_template_kernel_rows_keep_their_bits_in_any_block(order):
    # S2U's check sums have the same bits at any rank count only if a row
    # does not depend on which rows share its block; a 1-row product alone
    # would go through GEMV and round differently.
    rng = np.random.default_rng(order)
    points = point_operand(rng.random((130, 3)) - 0.5)
    template = template_operand(surface_grid(order, scale=UPWARD_CHECK_SCALE))
    want = template_inverse_distances(points, template)
    work = np.full(120 * template.shape[1], np.nan)
    for n in list(range(1, 34)) + [47, 64, 97, 120]:
        for a in range(8):
            got = template_inverse_distances(points[:, a : a + n], template, work)
            assert np.shares_memory(got, work)
            assert np.array_equal(got, want[a : a + n]), (n, a)
            work[: n * template.shape[1]] = -np.inf


def test_point_operand_rejects_an_offset_outside_the_box():
    offsets = np.array([[0.5, -0.5, 0.25], [0.1, 0.2, -0.5000001], [0.0, 0.0, 0.0]])
    assert point_operand(offsets[[0, 2]]).shape == (5, 2)
    assert point_operand(np.empty((0, 3))).shape == (5, 0)
    with pytest.raises(ValueError, match=r"point 1 lies outside its box"):
        point_operand(offsets)


def test_laplace_potential_blocks_match_per_target_calls():
    # 1500 sources give blocks of 40 targets: 203 targets span 6 blocks.
    rng = np.random.default_rng(7)
    t, s, q = _points_with_duplicates(rng, 203, 1500)
    got = direct_sum(t, s, q)
    want = np.array([direct_sum(t[i : i + 1], s, q)[0] for i in range(len(t))])
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_laplace_potential_over_source_chunks_matches_one_product():
    # 2**15 sources are cut into 4 chunks of 2**13 under 8-target blocks;
    # 42 targets span 6 blocks, the last of 2 targets. Positive charges,
    # so rtol measures the rounding of the split sums alone.
    rng = np.random.default_rng(8)
    t, s, q = _points_with_duplicates(rng, 42, 1 << 15)
    assert kernels.BLOCK_ENTRIES // kernels.ONE_WAY_ROWS == 1 << 13
    np.testing.assert_allclose(direct_sum(t, s, q), inverse_distances(t, s) @ q, rtol=1e-14)


def test_p2p_uli_matches_direct_sum_on_clustered_leaves_with_ghost():
    # Own root octant 0 only (leaf lattice {0,1}^3 at level 2). Points
    # cluster in 4 of its 8 leaves; the other 4 are empty. Each clustered
    # leaf holds a coincident pair, and the clustered leaves are mutually
    # adjacent. One remote leaf, lattice (2,1,1), arrives as ghost data;
    # it is adjacent exactly to the x=1 leaves.
    rng = np.random.default_rng(8)
    cells = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]])
    cell = np.concatenate([cells, cells[rng.integers(0, len(cells), 116)]])
    pts = (cell + 0.5 + np.clip(rng.normal(0.0, 0.15, (120, 3)), -0.45, 0.45)) / 4
    pts = np.concatenate([pts, pts[:4]])
    keys = morton.encode_points(pts, 2, UNIT)
    pts = pts[np.argsort(keys, kind="stable")]
    tree = build_tree(pts, UNIT, 1, 1, local_roots=[morton.make_key(0, 0, 0, 1)])
    _, lists = build_interaction_lists(tree)
    assert (~tree.level_nonempty[2]).sum() == 4

    gkey = int(morton.make_key(2, 1, 1, 2))
    gpts = (np.array([2.0, 1.0, 1.0]) + rng.random((9, 3))) / 4
    gchg = rng.standard_normal(9)
    remote = {int(k) for k in lists.u_member_keys
              if not tree.contains(2, np.asarray([k], dtype=np.uint64))[0]}
    assert gkey in remote
    ghosts = _ghost_table({gkey: gpts}, {gkey: gchg}, remote - {gkey})
    charges = rng.standard_normal(len(pts))
    f = p2p_uli(near_field_plan(tree, lists, ghosts), charges, ghosts.charges)

    sees_ghost = np.floor(pts[:, 0] * 4) == 1
    ref = direct_sum(pts, pts, charges) + sees_ghost * direct_sum(pts, gpts, gchg)
    np.testing.assert_allclose(f, ref, rtol=1e-12)


def _one_way_near_field(tree, lists, charges, ghosts):
    """Per target leaf, one direct_sum call over the points of all
    of its U members, in list order."""
    level = tree.leaf_level
    out = np.zeros(tree.n_points)
    for pos, (t0, t1) in enumerate(tree.leaf_ranges):
        src, chg = [np.empty((0, 3))], [np.empty(0)]
        for key in lists.u_members(pos).tolist():
            if tree.contains(level, np.asarray([key], dtype=np.uint64))[0]:
                a, b = tree.leaf_ranges[tree.index_of(level, np.asarray([key], dtype=np.uint64))[0]]
                src.append(tree.points[a:b])
                chg.append(charges[a:b])
            else:
                run = ghosts.keys == key
                src.append(ghosts.coords[run])
                chg.append(ghosts.charges[run])
        out[t0:t1] = direct_sum(tree.points[t0:t1], np.concatenate(src), np.concatenate(chg))
    return out


def test_p2p_uli_mutual_matches_one_way_per_leaf_oracle():
    # Own root octants 0 and 1 at d_g=1, d_l=2 (leaf lattice 8x4x4). Half
    # the leaves are empty, one leaf holds coincident points, and the
    # remote U members across y=4 are split between ghost data and
    # confirmed-absent boxes. Positive charges keep the sums free of
    # cancellation, so rtol measures rounding alone.
    rng = np.random.default_rng(9)
    level = 3
    roots = [morton.make_key(0, 0, 0, 1), morton.make_key(1, 0, 0, 1)]
    cells = np.array([(x, y, z) for x in range(8) for y in range(4) for z in range(4)])
    cells = cells[rng.random(len(cells)) < 0.5]
    cell = np.repeat(cells, rng.integers(1, 7, len(cells)), axis=0)
    pts = (cell + rng.random((len(cell), 3))) / 8
    pts = np.concatenate([pts, pts[:3], pts[:1]])
    pts = pts[np.argsort(morton.encode_points(pts, level, UNIT), kind="stable")]
    tree = build_tree(pts, UNIT, 1, 2, local_roots=roots)
    _, lists = build_interaction_lists(tree)
    assert (~tree.level_nonempty[level]).sum() > 20

    remote = sorted({int(k) for k in lists.u_member_keys
                     if not tree.contains(level, np.asarray([k], dtype=np.uint64))[0]})
    gpts, gchg = {}, {}
    for key in remote[::2]:
        anchor, side = morton.decode(key, UNIT)
        k = int(rng.integers(1, 5))
        gpts[key] = anchor + rng.random((k, 3)) * side
        gchg[key] = rng.random(k)
    ghosts = _ghost_table(gpts, gchg, remote[1::2])
    charges = rng.random(len(pts))

    got = p2p_uli(near_field_plan(tree, lists, ghosts), charges, ghosts.charges)
    np.testing.assert_allclose(got, _one_way_near_field(tree, lists, charges, ghosts), rtol=1e-13)

    dropped = remote[0]
    del gpts[dropped], gchg[dropped]
    with pytest.raises(UnresolvedDependencyError, match=f"{dropped:#x}"):
        near_field_plan(tree, lists, _ghost_table(gpts, gchg, remote[1::2]))


LATTICE_CELLS = np.array([(x, y, z) for x in range(8) for y in range(4) for z in range(4)])


def _lattice_tree(counts, rng, coincide):
    """Own root octants 0 and 1 at d_g=1, d_l=2 (leaf lattice 8x4x4), with
    ``counts[i]`` random points in ``LATTICE_CELLS[i]``; with ``coincide``,
    every 40th point is copied onto the next. Returns the tree, its lists
    and its remote U members, sorted."""
    level = 3
    roots = [morton.make_key(0, 0, 0, 1), morton.make_key(1, 0, 0, 1)]
    pts = (np.repeat(LATTICE_CELLS, counts, axis=0) + rng.random((counts.sum(), 3))) / 8
    if coincide:
        pts[1::40] = pts[::40][: len(pts[1::40])]
    pts = pts[np.argsort(morton.encode_points(pts, level, UNIT), kind="stable")]
    tree = build_tree(pts, UNIT, 1, 2, local_roots=roots)
    _, lists = build_interaction_lists(tree)
    remote = sorted({int(k) for k in lists.u_member_keys
                     if not tree.contains(level, np.asarray([k], dtype=np.uint64))[0]})
    return tree, lists, remote


def _sibling_leaves_instance(rng, n_large):
    """The lattice of :func:`_lattice_tree`: most occupied leaves hold 8
    points, ``n_large`` hold 80, a fifth are empty and some points
    coincide. Returns the tree, its lists, 8 ghost points and charges for
    every other remote U member, and all remote members."""
    counts = np.where(rng.random(len(LATTICE_CELLS)) < 0.2, 0, 8)
    counts[rng.choice(np.flatnonzero(counts), n_large, replace=False)] = 80
    tree, lists, remote = _lattice_tree(counts, rng, coincide=True)
    gpts, gchg = {}, {}
    for key in remote[::2]:
        anchor, side = morton.decode(key, UNIT)
        gpts[key] = anchor + rng.random((8, 3)) * side
        gchg[key] = rng.random(8)
    return tree, lists, gpts, gchg, remote


@pytest.mark.parametrize("block_entries, n_large", [(None, 3), (2048, 3), (2048, 0)])
def test_p2p_uli_grouped_blocks_match_one_way_per_leaf_oracle(monkeypatch, block_entries, n_large):
    # Own root octants 0 and 1 at d_g=1, d_l=2 (leaf lattice 8x4x4). Most
    # occupied leaves hold 8 points, under the floor, so runs of sibling
    # leaves share blocks, cut into row pieces; n_large hold 80 points and
    # are swept leaf by leaf, so pairs between a run and a single leaf are
    # added back both ways. A fifth of the leaves are empty, some points
    # coincide, and the remote U members across y=4 and z=4 are split
    # between ghost rows and confirmed-absent boxes. With 2048-entry blocks
    # most runs are too large and are swept leaf by leaf, large leaves in
    # pieces.
    if block_entries:
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(10)
    tree, lists, gpts, gchg, remote = _sibling_leaves_instance(rng, n_large)
    ghosts = _ghost_table(gpts, gchg, remote[1::2])
    charges = rng.random(tree.n_points)

    want = _one_way_near_field(tree, lists, charges, ghosts)
    plan = near_field_plan(tree, lists, ghosts)
    blocks = []
    real = kernels.inverse_distances
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "inverse_distances",
                      lambda t, s, work=None: blocks.append(len(t) * len(s)) or real(t, s, work))
        got = p2p_uli(plan, charges, ghosts.charges)
    np.testing.assert_allclose(got, want, rtol=1e-13)
    occupied = int(tree.level_nonempty[tree.leaf_level].sum())
    if block_entries:
        assert len(blocks) >= occupied
    else:
        assert len(blocks) < occupied

    dropped = remote[0]
    del gpts[dropped], gchg[dropped]
    with pytest.raises(UnresolvedDependencyError, match=f"{dropped:#x}"):
        near_field_plan(tree, lists, _ghost_table(gpts, gchg, remote[1::2]))


def test_p2p_uli_one_plan_serves_any_charges():
    # The plan holds no charges: one plan run with two charge vectors gives,
    # bit for bit, what a fresh plan for each gives, over groups of one
    # leaf and of several alike.
    rng = np.random.default_rng(12)
    tree, lists, gpts, gchg, remote = _sibling_leaves_instance(rng, n_large=3)
    ghosts = _ghost_table(gpts, gchg, remote[1::2])
    plan = near_field_plan(tree, lists, ghosts)
    leaves_per_group = plan.groups[:, 3]
    assert (leaves_per_group == 1).any() and (leaves_per_group > 1).any()
    for _ in range(2):
        charges = rng.standard_normal(tree.n_points)
        ghosts.charges = rng.standard_normal(len(ghosts.keys))
        got = p2p_uli(plan, charges, ghosts.charges)
        want = p2p_uli(near_field_plan(tree, lists, ghosts), charges, ghosts.charges)
        assert np.array_equal(got, want)


NEAR_FIELD_DRAWS = settings(max_examples=12, derandomize=True, deadline=None)


@st.composite
def lattice_near_fields(draw):
    """Parameters of a tree of :func:`_lattice_tree`: per-leaf point counts
    from {0, 1, 8, 80}, a seed, whether points coincide, and per remote U
    member (in key order) whether it arrives as ghost rows or as a
    confirmed-absent box."""
    counts = draw(st.lists(st.sampled_from([0, 1, 8, 80]), min_size=128, max_size=128))
    return (counts, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()),
            draw(st.lists(st.booleans(), min_size=160, max_size=160)))


@pytest.mark.parametrize("block_entries", [None, 2048])
@NEAR_FIELD_DRAWS
@given(params=lattice_near_fields())
def test_p2p_uli_matches_one_way_oracle_on_drawn_lattices(params, block_entries):
    # Empty leaves inside runs, runs cut at parent boundaries and, with
    # 2048-entry blocks, oversized runs swept as groups of one: the sweep
    # matches the one-way per-leaf oracle, and its plan serves new charges
    # with the bits of a fresh plan. Ghost members hold 1 to 8 points;
    # positive charges keep the sums free of cancellation.
    counts, seed, coincide, is_ghost = params
    rng = np.random.default_rng(seed)
    tree, lists, remote = _lattice_tree(np.array(counts), rng, coincide)
    assert len(remote) <= len(is_ghost)
    gpts, gchg = {}, {}
    for key in (k for k, ghost in zip(remote, is_ghost) if ghost):
        anchor, side = morton.decode(key, UNIT)
        k = int(rng.integers(1, 9))
        gpts[key] = anchor + rng.random((k, 3)) * side
        gchg[key] = rng.random(k)
    ghosts = _ghost_table(gpts, gchg, set(remote) - set(gpts))
    charges = rng.random(tree.n_points)
    want = _one_way_near_field(tree, lists, charges, ghosts)
    with pytest.MonkeyPatch.context() as patch:
        if block_entries:
            patch.setattr(kernels, "BLOCK_ENTRIES", block_entries)
        plan = near_field_plan(tree, lists, ghosts)
        np.testing.assert_allclose(p2p_uli(plan, charges, ghosts.charges), want, rtol=1e-13)

        charges = charges[::-1].copy()
        ghosts.charges = ghosts.charges[::-1].copy()
        fresh = near_field_plan(tree, lists, ghosts)
        assert np.array_equal(p2p_uli(plan, charges, ghosts.charges),
                              p2p_uli(fresh, charges, ghosts.charges))
