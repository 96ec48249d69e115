"""Morton (Z-curve) keys over a cubic domain.

A key is a 64-bit unsigned integer: the high 48 bits hold the 3-way
bit-interleaved anchor of the box (lattice coordinates at the deepest
level, x in the least significant interleave slot), the low 16 bits hold
the level. Anchor bits below a key's own level are always zero, so the
anchor is the box's minimal corner. Sorting keys of a fixed level sorts
the boxes in Z-curve order.

Every key function has one numpy path. Keys are read as
``np.asarray(key, dtype=np.uint64)`` and lattice coordinates as uint64,
so a scalar key gives a numpy scalar back and an array gives an array.
Every shift and mask takes explicit ``np.uint64`` operands, so no result
depends on numpy's type promotion rules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MAX_DEPTH = 16
LEVEL_BITS = 16
LEVEL_MASK = (1 << LEVEL_BITS) - 1

# Relative growth applied to the tight bounding box so points sitting
# exactly on the maximal face stay strictly inside after clamping.
DEFAULT_MARGIN = 1e-6

# Side assigned to a degenerate (zero-extent) point cloud.
SMALL_SIDE_FLOOR = 1.0

# Lattice offsets of a box's 27-cell neighborhood, itself included, in
# lexicographic (dx, dy, dz) order.
HALO_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)

_LEVEL_SHIFT = np.uint64(LEVEL_BITS)
_AXES = np.arange(3, dtype=np.uint64)  # interleave slots of x, y and z


def _u64_pairs(*pairs):
    return tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in pairs)


_SPREAD_MASKS = _u64_pairs(
    (32, 0x1F00000000FFFF),
    (16, 0x1F0000FF0000FF),
    (8, 0x100F00F00F00F00F),
    (4, 0x10C30C30C30C30C3),
    (2, 0x1249249249249249),
)

_COMPACT_MASKS = _u64_pairs(
    (2, 0x10C30C30C30C30C3),
    (4, 0x100F00F00F00F00F),
    (8, 0x1F0000FF0000FF),
    (16, 0x1F00000000FFFF),
    (32, 0x1FFFFF),
)


def _u64(x):
    return np.asarray(x, dtype=np.uint64)


def _spread_bits(v):
    """Space the low 21 bits of ``v`` three apart."""
    v = _u64(v) & np.uint64(0x1FFFFF)
    for shift, mask in _SPREAD_MASKS:
        v |= v << shift
        v &= mask
    return v


def _compact_bits(v):
    """Inverse of :func:`_spread_bits`."""
    v = _u64(v) & np.uint64(0x1249249249249249)
    for shift, mask in _COMPACT_MASKS:
        v ^= v >> shift
        v &= mask
    return v


@dataclass(frozen=True)
class BoundingCube:
    """Axis-aligned cube enclosing all source and target points."""

    origin: tuple
    side: float

    def __post_init__(self):
        if not (self.side > 0.0 and np.isfinite(self.side)):
            raise ValueError(f"cube side must be positive and finite, got {self.side}")
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))

    def contains(self, points):
        """Boolean mask of points inside the closed cube."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        lo = np.asarray(self.origin)
        return np.all((p >= lo) & (p <= lo + self.side), axis=1)


def fit_domain(points, margin=DEFAULT_MARGIN):
    """Fit a cube around ``points``, grown by a relative ``margin``.

    The cube is anchored at the componentwise minimum; its side is the
    largest axis extent times ``1 + margin``, floored at
    ``SMALL_SIDE_FLOOR`` for degenerate inputs.
    """
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if p.size == 0:
        raise ValueError("no points")
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite coordinate in input points")
    lo = p.min(axis=0)
    extent = float((p.max(axis=0) - lo).max())
    side = extent * (1.0 + margin)
    if side <= 0.0:
        side = SMALL_SIDE_FLOOR
    return BoundingCube(origin=tuple(lo), side=side)


def make_key(ix, iy, iz, level):
    """Key for the box with lattice coordinates (ix, iy, iz) at ``level``."""
    level = _u64(level)
    shift = np.uint64(MAX_DEPTH) - level
    code = _spread_bits(_u64(ix) << shift)
    code |= _spread_bits(_u64(iy) << shift) << np.uint64(1)
    code |= _spread_bits(_u64(iz) << shift) << np.uint64(2)
    return (code << _LEVEL_SHIFT) | level


def key_level(key):
    """Refinement level stored in the key, as int64."""
    return (_u64(key) & np.uint64(LEVEL_MASK)).astype(np.int64)


def anchor_lattice(key, level=None):
    """Lattice coordinates (int64, last axis x, y, z) of the key's anchor at
    ``level`` (own level by default)."""
    key = _u64(key)
    coords = _compact_bits((key >> _LEVEL_SHIFT)[..., None] >> _AXES)
    shift = np.uint64(MAX_DEPTH) - _u64(key_level(key) if level is None else level)
    return (coords >> shift[..., None]).astype(np.int64)


def _check_level(level):
    if not 0 <= level <= MAX_DEPTH:
        raise ValueError(f"level must be in [0, {MAX_DEPTH}], got {level}")


def encode_points(points, level, cube):
    """Vectorized Morton encoding of an (n, 3) point array at ``level``.

    Cells are half-open; points on the upper domain face are clamped to
    the last cell so every point in the cube maps to exactly one box.
    """
    _check_level(level)
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    lo = np.asarray(cube.origin)
    if p.shape[0] and not np.all((p >= lo) & (p <= lo + cube.side)):
        raise ValueError("point outside cube")
    n_cells = 1 << level
    idx = np.floor((p - lo) / cube.side * n_cells).astype(np.int64)
    np.clip(idx, 0, n_cells - 1, out=idx)
    return make_key(*idx.T, level)


def decode(key, cube):
    """Anchor coordinates (minimal corner) and box side of ``key`` in ``cube``."""
    level = key_level(key)
    if np.any(level > MAX_DEPTH):
        raise ValueError("malformed key: level bits exceed MAX_DEPTH")
    side = cube.side / (1 << level)
    return np.asarray(cube.origin) + anchor_lattice(key) * side[..., None], side


def box_center(key, cube):
    anchor, side = decode(key, cube)
    return anchor + 0.5 * side[..., None]


def ancestor_at(key, level):
    """Ancestor of ``key`` at the given coarser ``level``."""
    key = _u64(key)
    if np.any(key_level(key) < level):
        raise ValueError("ancestor level must not exceed key level")
    # At level 0 the shift is 64, which numpy defines to give 0.
    drop = np.uint64(LEVEL_BITS + 48) - np.uint64(3) * _u64(level)
    return ((key >> drop) << drop) | _u64(level)


def parent(key):
    """Parent key one level up; errors at the root."""
    level = key_level(key)
    if np.any(level < 1):
        raise ValueError("root box has no parent")
    return ancestor_at(key, level - 1)


def first_descendant(key, level):
    """The minimal-corner descendant of ``key`` at the finer ``level``:
    the same anchor relabeled."""
    key = _u64(key)
    if np.any(key_level(key) > level):
        raise ValueError("descendant level must not be coarser than the key level")
    return ((key >> _LEVEL_SHIFT) << _LEVEL_SHIFT) | _u64(level)


def descendants(key, depth):
    """All descendants ``depth`` levels below each of ``key``, in Morton
    order per key, as one flat array."""
    key = _u64(key).reshape(-1, 1)
    level = key_level(key) + depth
    if np.any(level > MAX_DEPTH):
        raise ValueError("descendant level exceeds MAX_DEPTH")
    # Adding depth to the key raises its level field; the suffix fills the
    # anchor bits of the depth levels below the key's own.
    slot = _u64(3 * (MAX_DEPTH - level) + LEVEL_BITS)
    return ((key + np.uint64(depth)) | (np.arange(8**depth, dtype=np.uint64) << slot)).reshape(-1)


def children(key):
    """The 8 child keys in ascending (Morton) order."""
    return descendants(key, 1)


def all_keys(level):
    """Every key at ``level``, in Morton order."""
    return descendants(np.uint64(0), level)


def halo(key):
    """The in-lattice cells of each key's 27-cell neighborhood, the key
    itself included: their keys and, for each, the position of its key in
    the flattened input. Cells come per key in ``HALO_OFFSETS`` order."""
    key = _u64(key).reshape(-1)
    level = key_level(key)
    cand = anchor_lattice(key)[:, None, :] + HALO_OFFSETS
    inside = np.all((cand >= 0) & (cand < (1 << level)[:, None, None]), axis=2)
    pos, off = np.nonzero(inside)
    return make_key(*cand[pos, off].T, level[pos]), pos


def neighbors(key):
    """Same-level keys adjacent to each of ``key`` (up to 26 each; fewer on
    the boundary), as one flat array."""
    cells, pos = halo(key)
    return cells[cells != _u64(key).reshape(-1)[pos]]


def find_keys(sorted_keys, keys):
    """Position of each of ``keys`` in the ascending ``sorted_keys`` and
    whether it is there; the position is only meaningful where it is."""
    keys = _u64(keys)
    pos = np.searchsorted(sorted_keys, keys)
    if not len(sorted_keys):
        return pos, np.zeros(pos.shape, dtype=bool)
    pos = np.minimum(pos, len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys
