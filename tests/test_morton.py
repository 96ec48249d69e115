"""Morton key encoding, decoding, and key algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifmm import morton
from unifmm.morton import (
    MAX_DEPTH,
    BoundingCube,
    ancestor_at,
    anchor_lattice,
    decode,
    descendants,
    encode_points,
    fit_domain,
    key_level,
    make_key,
)

from reference import children, neighbors, parent

UNIT = BoundingCube(origin=(0.0, 0.0, 0.0), side=1.0)


def naive_interleave(ix, iy, iz, level):
    """Bit-by-bit interleave oracle: no magic constants, plain loop."""
    code = 0
    sx, sy, sz = ix << (MAX_DEPTH - level), iy << (MAX_DEPTH - level), iz << (MAX_DEPTH - level)
    for bit in range(MAX_DEPTH):
        code |= ((sx >> bit) & 1) << (3 * bit)
        code |= ((sy >> bit) & 1) << (3 * bit + 1)
        code |= ((sz >> bit) & 1) << (3 * bit + 2)
    return (code << 16) | level


def lattice_neighbor_oracle(ix, iy, iz, level):
    """Enumerate adjacent lattice cells directly."""
    out = []
    n = 1 << level
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                jx, jy, jz = ix + dx, iy + dy, iz + dz
                if 0 <= jx < n and 0 <= jy < n and 0 <= jz < n:
                    out.append(naive_interleave(jx, jy, jz, level))
    return sorted(out)


def test_fit_domain_extremes():
    cube = fit_domain(np.array([[0.0, 0, 0], [1.0, 1, 1]]), margin=0.0)
    assert cube.origin == (0.0, 0.0, 0.0)
    assert cube.side == 1.0


def test_fit_domain_degenerate_single_point():
    cube = fit_domain(np.array([[5.0, 5, 5]]), margin=0.0)
    assert cube.side == morton.SMALL_SIDE_FLOOR
    assert cube.contains([[5.0, 5, 5]]).all()


def test_fit_domain_containment_scan():
    rng = np.random.default_rng(7)
    pts = rng.random((1000, 3))
    cube = fit_domain(pts, margin=0.01)
    assert cube.contains(pts).all()


def test_fit_domain_at_zero_margin_holds_its_points():
    # The origin plus the extent can round below the largest coordinate
    # (0.2 + (0.9 - 0.2) < 0.9): the side grows by ulps until encoding
    # accepts every point, and the extreme points sit in the last cells.
    pts = np.array([[0.2, 0.2, 0.2], [0.9, 0.9, 0.9]])
    assert 0.2 + (0.9 - 0.2) < 0.9
    cube = fit_domain(pts, margin=0.0)
    assert cube.side == np.nextafter(0.9 - 0.2, 1.0)
    assert cube.contains(pts).all()
    assert encode_points(pts, 3, cube)[1] == make_key(7, 7, 7, 3)
    # Random clouds: about 1 in 70 needs the growth.
    rng = np.random.default_rng(8)
    for _ in range(300):
        cloud = rng.random((5, 3)) * rng.random() * 10 + rng.random(3) * 5
        cube = fit_domain(cloud, margin=0.0)
        assert cube.contains(cloud).all()
        assert cube.side - (cloud.max(axis=0) - cloud.min(axis=0)).max() <= 1e-14 * cube.side
        encode_points(cloud, 4, cube)


def test_fit_domain_errors():
    with pytest.raises(ValueError, match="no points"):
        fit_domain(np.empty((0, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        fit_domain(np.array([[0.0, np.nan, 0.0]]))


def encode_point(p, level, cube):
    return int(encode_points([p], level, cube)[0])


def test_encode_root_and_minimal_corner():
    assert encode_point((0.0, 0.0, 0.0), 0, UNIT) == 0
    for level in (1, 4, MAX_DEPTH):
        key = encode_point((0.0, 0.0, 0.0), level, UNIT)
        assert key_level(key) == level
        assert tuple(anchor_lattice(key)) == (0, 0, 0)


def test_encode_against_naive_interleave_oracle():
    level = 2
    p = ((1 + 0.5) / 4, (2 + 0.5) / 4, (3 + 0.5) / 4)
    assert encode_point(p, level, UNIT) == naive_interleave(1, 2, 3, level)


def test_encode_random_cells_match_oracle():
    rng = np.random.default_rng(3)
    for level in (1, 3, 7, MAX_DEPTH):
        n = 1 << level
        cells = rng.integers(0, n, size=(50, 3))
        pts = (cells + rng.random((50, 3))) / n
        keys = encode_points(pts, level, UNIT)
        for (ix, iy, iz), key in zip(cells, keys):
            assert int(key) == naive_interleave(int(ix), int(iy), int(iz), level)


def test_encode_upper_face_clamped():
    key = encode_point((1.0, 1.0, 1.0), 3, UNIT)
    assert tuple(anchor_lattice(key)) == (7, 7, 7)


def test_encode_outside_cube_errors():
    with pytest.raises(ValueError, match="outside"):
        encode_point((1.5, 0.0, 0.0), 2, UNIT)


def test_decode_root():
    anchor, side = decode(0, UNIT)
    assert np.allclose(anchor, UNIT.origin)
    assert side == UNIT.side


def test_decode_child_of_root_octant_7():
    key = int(children(make_key(0, 0, 0, 0))[7])
    anchor, side = decode(key, UNIT)
    assert np.allclose(anchor, [0.5, 0.5, 0.5])
    assert side == 0.5


def test_encode_decode_round_trip_containment():
    rng = np.random.default_rng(11)
    pts = rng.random((1000, 3))
    keys = encode_points(pts, 5, UNIT)
    for p, key in zip(pts, keys):
        anchor, side = decode(int(key), UNIT)
        assert np.all(p >= anchor) and np.all(p < anchor + side)


def test_decode_malformed_level_errors():
    with pytest.raises(ValueError, match="malformed"):
        decode(MAX_DEPTH + 5, UNIT)


def test_parent_inverse_of_children():
    key = make_key(3, 1, 2, 2)
    for c in children(key):
        assert parent(int(c)) == key
    # Converse: every key with level >= 1 is among its parent's children.
    deep = make_key(13, 5, 9, 4)
    assert int(deep) in {int(c) for c in children(parent(deep))}


def test_parent_of_parent_reaches_root():
    key = make_key(2, 3, 1, 2)
    assert parent(parent(key)) == make_key(0, 0, 0, 0)
    with pytest.raises(ValueError, match="no parent"):
        parent(make_key(0, 0, 0, 0))


def test_sixteen_parents_reach_root():
    rng = np.random.default_rng(5)
    ix, iy, iz = (int(v) for v in rng.integers(0, 1 << MAX_DEPTH, size=3))
    key = make_key(ix, iy, iz, MAX_DEPTH)
    for _ in range(MAX_DEPTH):
        key = parent(key)
    assert key == make_key(0, 0, 0, 0)
    assert key_level(key) == 0


def test_parent_and_ancestors_match_lattice_halving():
    rng = np.random.default_rng(9)
    for level in range(1, MAX_DEPTH + 1):
        cells = rng.integers(0, 1 << level, size=(40, 3))
        keys = make_key(*cells.T, level)
        halved = make_key(*(cells >> 1).T, level - 1)
        assert np.array_equal(parent(keys), halved)
        assert np.array_equal(ancestor_at(keys, level - 1), halved)
        for k, p in zip(keys, halved):
            assert parent(k) == p and parent(int(k)) == p
        # Level 0 drops every anchor bit: a 64-bit shift, which gives 0.
        assert np.array_equal(ancestor_at(keys, 0), np.zeros(40, dtype=np.uint64))
        assert ancestor_at(int(keys[0]), 0) == 0


def test_children_tile_parent_lattice():
    key = make_key(1, 0, 3, 2)
    ix, iy, iz = anchor_lattice(key)
    got = sorted(tuple(anchor_lattice(int(c))) for c in children(key))
    want = sorted(
        (2 * ix + ox, 2 * iy + oy, 2 * iz + oz)
        for ox in (0, 1)
        for oy in (0, 1)
        for oz in (0, 1)
    )
    assert got == want


def test_children_contiguous_in_sorted_order():
    level = 3
    n = 1 << level
    all_keys = np.sort(
        make_key(*np.meshgrid(*[np.arange(n, dtype=np.uint64)] * 3, indexing="ij"), level).ravel()
    )
    kids = children(make_key(2, 1, 3, level - 1))
    lo = np.searchsorted(all_keys, kids[0])
    assert np.array_equal(all_keys[lo : lo + 8], np.sort(kids))


def test_children_at_max_depth_error():
    with pytest.raises(ValueError, match="MAX_DEPTH"):
        children(make_key(0, 0, 0, MAX_DEPTH))


def test_root_has_no_neighbors():
    assert len(neighbors(make_key(0, 0, 0, 0))) == 0


def test_interior_box_has_26_neighbors():
    key = make_key(1, 2, 1, 2)
    got = sorted(int(k) for k in neighbors(key))
    assert got == lattice_neighbor_oracle(1, 2, 1, 2)
    assert len(got) == 26


def test_corner_box_level_1_has_7_neighbors():
    got = sorted(int(k) for k in neighbors(make_key(0, 0, 0, 1)))
    assert got == lattice_neighbor_oracle(0, 0, 0, 1)
    assert len(got) == 7


def test_neighbors_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        level = int(rng.integers(1, 5))
        n = 1 << level
        a = make_key(*(int(v) for v in rng.integers(0, n, size=3)), level)
        for b in neighbors(a):
            assert int(a) in {int(k) for k in neighbors(int(b))}


def test_sorted_keys_are_preorder_traversal():
    # Compare sorting against an explicit recursive octant traversal.
    def traverse(key, depth):
        if depth == 0:
            return [int(key)]
        out = []
        for c in children(key):
            out.extend(traverse(int(c), depth - 1))
        return out

    level = 3
    preorder = traverse(make_key(0, 0, 0, 0), level)
    n = 1 << level
    grid = np.meshgrid(*[np.arange(n, dtype=np.uint64)] * 3, indexing="ij")
    all_keys = np.sort(make_key(*grid, level).ravel())
    assert preorder == [int(k) for k in all_keys]


def test_descendants_match_recursive_children():
    key = make_key(1, 1, 0, 1)
    level2 = np.concatenate([children(int(c)) for c in children(key)])
    assert np.array_equal(descendants(key, 2), np.sort(level2))


def test_ancestor_at_inverts_descendants():
    key = make_key(5, 2, 7, 3)
    for d in descendants(key, 2):
        assert ancestor_at(int(d), 3) == key


def test_find_keys_positions_and_misses():
    level = 2
    sorted_keys = np.sort(make_key(*np.array([[0, 0, 0], [1, 2, 3], [3, 3, 3]]).T, level))
    # The last probe sorts after every key (a deeper box in the last cell).
    probe = [sorted_keys[1], make_key(0, 0, 1, level), sorted_keys[2], make_key(7, 7, 7, 3)]
    pos, found = morton.find_keys(sorted_keys, probe)
    assert found.tolist() == [True, False, True, False]
    assert pos[found].tolist() == [1, 2]
    pos, found = morton.find_keys(np.empty(0, np.uint64), probe)
    assert pos.shape == (4,) and not found.any()


def test_anchor_bits_below_level_are_zero():
    key = make_key(3, 5, 6, 3)
    ax, ay, az = anchor_lattice(key, level=MAX_DEPTH)
    assert ax % (1 << (MAX_DEPTH - 3)) == 0
    assert ay % (1 << (MAX_DEPTH - 3)) == 0
    assert az % (1 << (MAX_DEPTH - 3)) == 0


# Property tests of the key algebra: derandomized, so every run draws the
# same boxes.
KEY_ALGEBRA = settings(max_examples=150, derandomize=True, deadline=None)


@st.composite
def boxes(draw):
    """(ix, iy, iz, level) of a box anywhere in the level-0..MAX_DEPTH lattices."""
    level = draw(st.integers(0, MAX_DEPTH))
    cell = st.integers(0, (1 << level) - 1)
    return draw(cell), draw(cell), draw(cell), level


@KEY_ALGEBRA
@given(boxes())
def test_make_key_and_anchor_lattice_undo_each_other(box):
    *cell, level = box
    key = make_key(*cell, level)
    assert int(key) == naive_interleave(*cell, level)
    assert tuple(anchor_lattice(key)) == tuple(cell)
    assert make_key(*anchor_lattice(key), level) == key
    assert key_level(key) == level


@KEY_ALGEBRA
@given(boxes(), st.integers(0, MAX_DEPTH))
def test_ancestor_at_shifts_the_lattice(box, coarse):
    *cell, level = box
    coarse = min(coarse, level)
    key = make_key(*cell, level)
    shift = level - coarse
    assert ancestor_at(key, coarse) == make_key(*(c >> shift for c in cell), coarse)


@KEY_ALGEBRA
@given(boxes(), st.integers(0, 2))
def test_descendants_and_ancestor_at_are_inverses(box, depth):
    *cell, level = box
    depth = min(depth, MAX_DEPTH - level)
    key = make_key(*cell, level)
    kids = descendants(key, depth)
    assert len(kids) == 8**depth and np.all(kids[1:] > kids[:-1])
    assert np.all(ancestor_at(kids, level) == key)
    coarse = max(level - 2, 0)
    assert key in descendants(ancestor_at(key, coarse), level - coarse)


@KEY_ALGEBRA
@given(boxes())
def test_neighbors_match_lattice_oracle(box):
    key = make_key(*box)
    assert sorted(int(k) for k in neighbors(key)) == lattice_neighbor_oracle(*box)


@KEY_ALGEBRA
@given(boxes())
def test_scalar_key_matches_one_element_array(box):
    *cell, level = box
    key = make_key(*cell, level)
    one = make_key(*(np.array([c]) for c in cell), level)
    assert isinstance(key, np.uint64) and one.shape == (1,) and one[0] == key
    assert np.array_equal(anchor_lattice(key), anchor_lattice(one)[0])
    assert key_level(key) == key_level(one)[0]
    assert ancestor_at(key, level // 2) == ancestor_at(one, level // 2)[0]
    assert np.array_equal(neighbors(key), neighbors(one))
    if level:
        assert parent(key) == parent(one)[0]
    if level < MAX_DEPTH:
        assert np.array_equal(children(key), children(one))
