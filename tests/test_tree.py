"""Uniform tree construction and interaction lists."""

import re

import numpy as np
import pytest

from unifmm import morton
from unifmm.morton import BoundingCube, anchor_lattice, key_level, make_key
from unifmm.lattice import TRANSFER_VECTORS, V_ADMITS, BoxLattice
from unifmm.tree import build_interaction_lists, build_tree

from reference import (
    V_TRANSFER,
    children,
    compute_u_list,
    compute_v_list,
    halo,
    parent,
    transfer_vector,
    v_members_with_vectors,
)

UNIT = BoundingCube(origin=(0.0, 0.0, 0.0), side=1.0)


def full_level_keys(level):
    n = 1 << level
    grid = np.meshgrid(*[np.arange(n, dtype=np.uint64)] * 3, indexing="ij")
    return np.sort(make_key(*grid, level).ravel())


def brute_force_v_list(box, level):
    """V list straight from the definition, scanning the whole lattice."""
    n = 1 << level
    bx, by, bz = anchor_lattice(box)
    px, py, pz = bx // 2, by // 2, bz // 2
    out = []
    for ix in range(n):
        for iy in range(n):
            for iz in range(n):
                if max(abs(ix - bx), abs(iy - by), abs(iz - bz)) <= 1:
                    continue  # adjacent or self
                if max(abs(ix // 2 - px), abs(iy // 2 - py), abs(iz // 2 - pz)) <= 1:
                    out.append(make_key(ix, iy, iz, level))
    return sorted(out)


def sorted_points_at_cell_centers(level):
    n = 1 << level
    centers = (np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1) + 0.5) / n
    pts = centers.reshape(-1, 3)
    keys = morton.encode_points(pts, level, UNIT)
    return pts[np.argsort(keys, kind="stable")]


def test_build_tree_rejects_small_depths():
    pts = sorted_points_at_cell_centers(1)
    with pytest.raises(ValueError, match=">= 1"):
        build_tree(pts, UNIT, 1, 0)
    with pytest.raises(ValueError, match=">= 1"):
        build_tree(pts, UNIT, 0, 1)
    with pytest.raises(ValueError, match="MAX_DEPTH"):
        build_tree(pts, UNIT, 10, 7)


def test_build_tree_placement_one_point_per_leaf():
    pts = sorted_points_at_cell_centers(2)
    tree = build_tree(pts, UNIT, 1, 1)
    assert len(tree.leaves) == 64
    counts = tree.leaf_ranges[:, 1] - tree.leaf_ranges[:, 0]
    assert np.all(counts == 1)
    # Placement oracle: each leaf's single point decodes into that leaf.
    for key, (start, _end) in zip(tree.leaves, tree.leaf_ranges):
        anchor, side = morton.decode(int(key), UNIT)
        p = tree.points[start]
        assert np.all(p >= anchor) and np.all(p < anchor + side)


def test_build_tree_unsorted_errors():
    pts = sorted_points_at_cell_centers(2)[::-1]
    with pytest.raises(ValueError, match="sorted"):
        build_tree(pts, UNIT, 1, 1)


def test_build_tree_takes_given_keys_without_encoding(monkeypatch):
    rng = np.random.default_rng(4)
    pts = rng.random((300, 3))
    keys = morton.encode_points(pts, 3, UNIT)
    order = np.argsort(keys, kind="stable")
    pts, keys = pts[order], keys[order]
    want = build_tree(pts, UNIT, 1, 2)

    def no_encoding(*args):
        raise AssertionError("build_tree encoded keys it was given")

    monkeypatch.setattr(morton, "encode_points", no_encoding)
    got = build_tree(pts, UNIT, 1, 2, keys=keys)
    assert np.array_equal(got.leaf_ranges, want.leaf_ranges)
    assert np.array_equal(got.local_roots, want.local_roots)
    for level in want.level_keys:
        assert np.array_equal(got.level_keys[level], want.level_keys[level])
        assert np.array_equal(got.level_nonempty[level], want.level_nonempty[level])
    with pytest.raises(ValueError, match="not sorted"):
        build_tree(pts[::-1], UNIT, 1, 2, keys=keys[::-1])
    with pytest.raises(ValueError, match="keys length"):
        build_tree(pts, UNIT, 1, 2, keys=keys[1:])


def test_leaf_offset_operand_checks_points_lie_in_their_leaves():
    # Points on leaf faces and on the upper cube face (clamped into the
    # last cell) are at most half a leaf side from their leaf's center.
    rng = np.random.default_rng(6)
    pts = np.vstack([rng.random((200, 3)), np.indices((9, 9, 9)).reshape(3, -1).T / 8])
    keys = morton.encode_points(pts, 3, UNIT)
    order = np.argsort(keys, kind="stable")
    pts, keys = pts[order], keys[order]
    tree = build_tree(pts, UNIT, 1, 2, keys=keys)
    operand = tree.leaf_offset_operand
    assert operand.shape == (5, len(pts))
    assert np.abs(operand[:3]).max() == 0.5
    # Keys that do not match their points (the points in reverse order)
    # fail the build.
    bad = pts[::-1]
    with pytest.raises(ValueError, match=r"point (\d+) lies outside its box.*names another leaf"
                       ) as err:
        build_tree(bad, UNIT, 1, 2, keys=keys)
    i = int(re.search(r"point (\d+)", str(err.value)).group(1))
    assert morton.encode_points(bad[i : i + 1], 3, UNIT)[0] != keys[i]
    # Far from the origin the coordinates round, and the offsets follow
    # the keys' own rounding.
    far = 1e6 + rng.random((500, 3)) * 3.7
    cube = morton.fit_domain(far)
    keys = morton.encode_points(far, 4, cube)
    order = np.argsort(keys, kind="stable")
    tree = build_tree(far[order], cube, 2, 2, keys=keys[order])
    assert np.abs(tree.leaf_offset_operand[:3]).max() <= 0.5


def test_build_tree_empty_rank_with_explicit_root():
    root = make_key(0, 0, 0, 1)
    tree = build_tree(np.empty((0, 3)), UNIT, 1, 1, local_roots=[root])
    assert len(tree.leaves) == 8
    assert np.all(tree.leaf_ranges[:, 0] == tree.leaf_ranges[:, 1])
    assert not tree.level_nonempty[2].any()
    assert not tree.level_nonempty[1].any()


def test_build_tree_levels_and_parent_closure():
    pts = sorted_points_at_cell_centers(3)
    tree = build_tree(pts, UNIT, 1, 2)
    assert sorted(tree.level_keys) == [1, 2, 3]
    for level in (2, 3):
        parents = np.unique(parent(tree.level_keys[level]))
        assert np.all(np.isin(parents, tree.level_keys[level - 1]))
    # Uniform refinement: full 8^local_depth leaves under each root.
    assert len(tree.leaves) == len(tree.local_roots) * 8**2


def test_u_list_interior_corner_and_shallow():
    pts = sorted_points_at_cell_centers(3)
    tree = build_tree(pts, UNIT, 1, 2)
    interior = make_key(3, 4, 2, 3)
    corner = make_key(0, 0, 0, 3)
    assert len(compute_u_list(tree, interior)) == 27
    assert len(compute_u_list(tree, corner)) == 8

    shallow = build_tree(sorted_points_at_cell_centers(2), UNIT, 1, 1)
    # d_g + d_l = 2; global-corner leaf still has 7 neighbors + self... at
    # level 2 the corner cell has 7 lattice neighbors only when the lattice
    # is 2 cells wide; at 4 cells it has more, so use the depth-1 lattice.
    assert len(compute_u_list(shallow, make_key(0, 0, 0, 2))) == 8


def test_u_list_rejects_non_leaf():
    tree = build_tree(sorted_points_at_cell_centers(2), UNIT, 1, 1)
    with pytest.raises(ValueError, match="leaf"):
        compute_u_list(tree, make_key(0, 0, 0, 1))


def test_v_list_interior_count_and_brute_force():
    tree = build_tree(sorted_points_at_cell_centers(3), UNIT, 1, 2)
    interior = make_key(3, 4, 2, 3)
    got = compute_v_list(tree, interior)
    assert len(got) == 189
    assert [int(k) for k in got] == brute_force_v_list(interior, 3)


def test_v_list_corner_level_2_matches_brute_force():
    tree = build_tree(sorted_points_at_cell_centers(3), UNIT, 1, 2)
    corner = make_key(0, 0, 0, 2)
    got = compute_v_list(tree, corner)
    want = brute_force_v_list(corner, 2)
    assert len(got) < 189
    assert [int(k) for k in got] == want


@pytest.mark.parametrize(
    "keys",
    [full_level_keys(2), full_level_keys(3), full_level_keys(4),
     morton.descendants(make_key(1, 0, 1, 1), 2)],
    ids=["level2", "level3", "level4", "subtree3"],
)
def test_v_templates_match_definition_per_box(keys):
    # Per box, as a set: the children of the parent's in-lattice 27-cell
    # neighborhood that are not adjacent, and their vectors.
    level = int(key_level(keys[0]))
    box_pos, members, tv_idx = v_members_with_vectors(keys, level)
    assert np.all(np.diff(box_pos) >= 0)
    index = {tuple(v): i for i, v in enumerate(TRANSFER_VECTORS.tolist())}
    ptr = np.searchsorted(box_pos, np.arange(len(keys) + 1))
    for i, box in enumerate(keys):
        cand = children(halo(parent(box))[0])
        offsets = (anchor_lattice(cand) - anchor_lattice(box)).tolist()
        want = sorted(
            (int(k), index[tuple(o)]) for k, o in zip(cand, offsets) if max(map(abs, o)) >= 2
        )
        got = sorted(zip(members[ptr[i] : ptr[i + 1]].tolist(), tv_idx[ptr[i] : ptr[i + 1]].tolist()))
        assert got == want


def test_v_admits_match_the_oracle_templates():
    # Per octant, the vectors the lattice lists are those the oracle's
    # (parent cell, child octant) template reaches: 189 of the 316.
    for octant, template in enumerate(V_TRANSFER):
        want = np.zeros(len(TRANSFER_VECTORS), dtype=bool)
        want[template[template >= 0]] = True
        assert np.array_equal(V_ADMITS[octant], want)
    assert (V_ADMITS.sum(axis=1) == 189).all()


def lexsorted_v_members(box_keys, level):
    """Per box, the children of its parent's 27-cell neighborhood that lie
    in the lattice and are not adjacent to it, then all members sorted by
    (box, key) with one lexsort."""
    halo = np.array(np.meshgrid(*[[-1, 0, 1]] * 3, indexing="ij")).reshape(3, -1).T
    octants = np.array([[(k >> axis) & 1 for axis in range(3)] for k in range(8)])
    index = {tuple(v): i for i, v in enumerate(TRANSFER_VECTORS.tolist())}
    box_pos, keys, tv = [], [], []
    for i, c in enumerate(anchor_lattice(box_keys)):
        child = (((c >> 1) + halo)[:, None, :] * 2 + octants).reshape(-1, 3)
        rel = child - c
        keep = (np.abs(rel).max(axis=1) >= 2) & np.all((child >= 0) & (child < 1 << level), axis=1)
        box_pos += [i] * int(keep.sum())
        keys.append(make_key(*child[keep].T, level))
        tv += [index[tuple(r)] for r in rel[keep].tolist()]
    box_pos, keys, tv = np.array(box_pos), np.concatenate(keys), np.array(tv)
    order = np.lexsort((keys, box_pos))
    return box_pos[order], keys[order], tv[order]


@pytest.mark.parametrize("level", [2, 3, 4])
def test_v_members_match_lexsort_order(level):
    # Box by box, and sorted by key within each box, the members are the
    # (box, key) order of one lexsort over all members, on full levels
    # whose faces, edges and corners cut the lists.
    keys = full_level_keys(level)
    got = v_members_with_vectors(keys, level)
    want = lexsorted_v_members(keys, level)
    assert np.all(np.diff(got[0]) >= 0)
    order = np.lexsort((got[1], got[0]))
    for g, w in zip(got, want):
        assert g.flags.c_contiguous and np.array_equal(g[order], w)
    sizes = np.bincount(got[0], minlength=len(keys))
    assert sizes.min() < sizes.max() <= 189 and (level < 4 or sizes.max() == 189)


def test_v_list_low_levels_empty():
    tree = build_tree(sorted_points_at_cell_centers(2), UNIT, 1, 1)
    assert compute_v_list(tree, make_key(0, 0, 0, 0)).size == 0
    assert compute_v_list(tree, make_key(0, 1, 0, 1)).size == 0


def test_v_list_symmetry_and_u_disjoint():
    tree = build_tree(sorted_points_at_cell_centers(3), UNIT, 1, 2)
    box = make_key(2, 3, 3, 3)
    vlist = {int(k) for k in compute_v_list(tree, box)}
    for alpha in list(vlist)[::7]:
        assert int(box) in {int(k) for k in compute_v_list(tree, alpha)}
    ulist = {int(k) for k in compute_u_list(tree, box)}
    assert not (ulist & vlist)


def test_transfer_vector_identity_and_mismatch():
    a = make_key(1, 2, 3, 3)
    assert np.array_equal(transfer_vector(a, a), [0, 0, 0])
    with pytest.raises(ValueError, match="same-level"):
        transfer_vector(a, make_key(0, 0, 0, 2))


def test_transfer_vectors_of_interior_box_distinct_189():
    tree = build_tree(sorted_points_at_cell_centers(3), UNIT, 1, 2)
    box = make_key(3, 4, 2, 3)
    vecs = {tuple(transfer_vector(int(k), box)) for k in compute_v_list(tree, box)}
    assert len(vecs) == 189
    assert all(max(abs(c) for c in v) >= 2 for v in vecs)
    assert all(all(-3 <= c <= 3 for c in v) for v in vecs)


def test_all_transfer_vectors_cardinality_316():
    # Union over the 8 octant parities of an interior region covers all 316.
    tree = build_tree(sorted_points_at_cell_centers(3), UNIT, 1, 2)
    vecs = set()
    for ix in (2, 3):
        for iy in (2, 3):
            for iz in (2, 3):
                box = make_key(ix, iy, iz, 3)
                vecs |= {tuple(transfer_vector(int(k), box)) for k in compute_v_list(tree, box)}
    assert len(vecs) == 316
    assert vecs == {tuple(t) for t in TRANSFER_VECTORS}


def test_near_far_partition_counts_each_leaf_once():
    # For a depth-3 tree: U members at the leaf level plus leaf descendants
    # of V members at every level must cover all leaves exactly once.
    tree = build_tree(sorted_points_at_cell_centers(3), UNIT, 1, 2)
    leaf_level = 3
    all_leaves = full_level_keys(leaf_level)
    for box in (make_key(3, 4, 2, 3), make_key(0, 0, 0, 3), make_key(7, 0, 3, 3)):
        cover = {int(k): 0 for k in all_leaves}
        for k in compute_u_list(tree, box):
            cover[int(k)] += 1
        anc = int(box)
        for level in range(leaf_level, 1, -1):
            for v in compute_v_list(tree, anc):
                for d in morton.descendants(int(v), leaf_level - level):
                    cover[int(d)] += 1
            anc = parent(anc)
        counts = set(cover.values())
        assert counts == {1}, f"partition failed for box {box:#x}"


def test_interaction_lists_match_per_box_ops():
    tree = build_tree(sorted_points_at_cell_centers(3), UNIT, 1, 2)
    _, lists = build_interaction_lists(tree)
    for pos in (0, 17, 301, 511):
        leaf = tree.leaves[pos]
        got = np.sort(lists.u_members(pos))
        assert np.array_equal(got, compute_u_list(tree, int(leaf)))
    # The oracle's V lists of the levels below the roots.
    for level in range(tree.global_depth + 1, tree.leaf_level + 1):
        tgt, keys, tv_idx = v_members_with_vectors(tree.level_keys[level], level)
        for pos in (0, len(tree.level_keys[level]) // 2):
            mine = np.sort(keys[tgt == pos])
            assert np.array_equal(mine, compute_v_list(tree, int(tree.level_keys[level][pos])))
        vec = TRANSFER_VECTORS[tv_idx]
        src = anchor_lattice(keys)
        dst = anchor_lattice(tree.level_keys[level][tgt])
        assert np.array_equal(vec, src - dst)


def test_box_lattice_rejects_a_grid_past_int32():
    # A lattice's cell indices are int32. Two level-11 boxes at opposite
    # corners of the domain span a grid of 2054^3 cells, past int32: the
    # lattice says so before it allocates anything.
    with pytest.raises(ValueError, match=r"level-11 box lattice of 8665653465 cells.*int32"):
        BoxLattice(np.array([[0, 0, 0], [2047, 2047, 2047]]), 11)


def test_key_to_index_and_index_of_agree():
    tree = build_tree(sorted_points_at_cell_centers(2), UNIT, 1, 1)
    keys = tree.level_keys[2]
    idx = tree.index_of(2, keys[::5])
    assert np.array_equal(idx, np.arange(0, len(keys), 5))
    assert np.array_equal(keys[idx], keys[::5])
    with pytest.raises(KeyError):
        tree.index_of(2, np.array([make_key(3, 3, 3, 3)], dtype=np.uint64))
