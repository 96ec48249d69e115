"""Per-rank uniform linear octrees and U/V interaction lists. A list is a
set: its members come leaf by leaf or box by box, in an order within a
leaf or box that nothing reads.

A rank's tree is the union of fully refined subtrees hanging under its
local roots (level ``global_depth``), refined uniformly for another
``local_depth`` levels. All boxes are kept whether or not they contain
points; occupancy is tracked with a flag so interactions with empty
boxes can be skipped or resolved against remote ranks at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import morton
from .kernels import _changes, point_operand, sorted_unique
from .morton import (
    HALO_OFFSETS,
    MAX_DEPTH,
    ancestor_at,
    anchor_lattice,
    descendant_anchors,
    descendants,
    make_key,
)

# (ox, oy, oz) for octant o, x in the least significant interleave slot.
_OCTANT_OFFSETS = np.array(
    [[(o >> 0) & 1, (o >> 1) & 1, (o >> 2) & 1] for o in range(8)], dtype=np.int64
)


def transfer_vectors():
    """The 316 admissible V-list lattice offsets, sorted lexicographically."""
    t = np.array(
        [
            (tx, ty, tz)
            for tx in range(-3, 4)
            for ty in range(-3, 4)
            for tz in range(-3, 4)
            if max(abs(tx), abs(ty), abs(tz)) >= 2
        ],
        dtype=np.int64,
    )
    return t


TRANSFER_VECTORS = transfer_vectors()

# (7,7,7) lookup from offset+3 to compact transfer-vector index, -1 if near.
TRANSFER_INDEX = np.full((7, 7, 7), -1, dtype=np.int64)
for _i, (_tx, _ty, _tz) in enumerate(TRANSFER_VECTORS):
    TRANSFER_INDEX[_tx + 3, _ty + 3, _tz + 3] = _i


@dataclass
class UniformTree:
    """Local uniform octree: boxes per level, the leaf point assignment and
    the per-point layouts S2U and D2T read, all fixed by :func:`build_tree`.

    ``leaf_offset_operand`` is each point's offset from the center of its
    leaf, in leaf sides, as the (5, n) :func:`kernels.point_operand` S2U
    and D2T measure against the surface template. ``leaf_pieces`` cuts
    the nonempty leaves' points into pieces of at most ``piece_rows``
    points from each leaf's own start and groups them into the blocks of
    S2U: ``(leaf, starts, ends, cuts)``, per piece its nonempty leaf's
    position and its first point; block ``j`` holds pieces ``cuts[j] :
    cuts[j + 1]`` (``cuts`` a list) and points ``starts[cuts[j]] :
    ends[cuts[j + 1]]``. A tree built without ``piece_rows`` has none.
    """

    cube: morton.BoundingCube
    global_depth: int
    local_depth: int
    local_roots: np.ndarray
    level_keys: dict = field(repr=False)       # level -> sorted uint64 keys
    level_nonempty: dict = field(repr=False)   # level -> bool mask
    leaf_ranges: np.ndarray = field(repr=False)  # (n_leaves, 2) into points
    points: np.ndarray = field(repr=False)     # (n, 3) sorted by leaf key
    point_leaf: np.ndarray = field(repr=False)  # (n,) index of each point's leaf
    leaf_offset_operand: np.ndarray = field(repr=False)  # (5, n)
    piece_rows: int | None = None
    leaf_pieces: tuple | None = field(default=None, repr=False)

    @property
    def leaf_level(self):
        return self.global_depth + self.local_depth

    @property
    def leaves(self):
        return self.level_keys[self.leaf_level]

    @property
    def n_points(self):
        return self.points.shape[0]

    def index_of(self, level, keys):
        """Dense per-level indices of ``keys`` (Morton-sorted ordering)."""
        idx, found = morton.find_keys(self.level_keys[level], keys)
        if not np.all(found):
            raise KeyError("key not in tree at level %d" % level)
        return idx

    def contains(self, level, keys):
        return morton.find_keys(self.level_keys.get(level, np.empty(0, np.uint64)), keys)[1]


def leaf_pieces(lo, hi, rows):
    """The S2U pieces of the nonempty leaves whose points are
    ``lo[i]:hi[i]``, in one pass: each leaf cut into pieces of at most
    ``rows`` points from its own start, and the pieces grouped into blocks
    of those that start in one run of ``rows`` points; returns
    :attr:`UniformTree.leaf_pieces`."""
    n_pieces = (hi - lo + rows - 1) // rows
    leaf = np.repeat(np.arange(len(lo)), n_pieces)
    piece_starts = np.arange(len(leaf)) * rows
    piece_starts += np.repeat(lo - (np.cumsum(n_pieces) - n_pieces) * rows, n_pieces)
    # Pieces of one leaf start ``rows`` apart, so a block holds at most one
    # piece of each leaf.
    cuts = _changes(piece_starts // rows).nonzero()[0].tolist() + [len(leaf)]
    return leaf, piece_starts, np.concatenate([piece_starts, hi[-1:]]), cuts


def build_tree(points, cube, global_depth, local_depth, local_roots=None, keys=None,
               piece_rows=None):
    """Build the rank-local uniform tree over ``points`` sorted by leaf key,
    with the layouts S2U and D2T read (see :class:`UniformTree`).

    ``local_roots`` lists the level-``global_depth`` boxes this rank owns;
    when omitted it defaults to the distinct root ancestors of the points.
    ``keys`` are the points' Morton keys at the leaf level in ``cube``, as
    :func:`partition.sort_local` returns them; when omitted they are
    encoded here. ``piece_rows`` is the S2U piece length of the expansion
    order the tree serves (:func:`operators.template_rows`); when omitted
    the tree has no S2U pieces.

    Each point's offset from its leaf's center is its lattice coordinate,
    computed as :func:`morton.encode_points` computes it, less its leaf's
    anchor and 0.5, so it lies within 0.5 of the center exactly when the
    point's key is its leaf's. Raises ``ValueError`` naming a point outside
    its leaf, as when the keys given do not match the points.
    """
    if global_depth < 1 or local_depth < 1:
        raise ValueError("global_depth and local_depth must each be >= 1")
    if global_depth + local_depth > MAX_DEPTH:
        raise ValueError("tree depth exceeds MAX_DEPTH = %d" % MAX_DEPTH)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)

    leaf_level = global_depth + local_depth
    if keys is None:
        keys = morton.encode_points(points, leaf_level, cube)
    pkeys = np.asarray(keys, dtype=np.uint64).reshape(-1)
    if len(pkeys) != len(points):
        raise ValueError("keys length does not match points")
    if np.any(pkeys[1:] < pkeys[:-1]):
        raise ValueError("points are not sorted by their Morton key")

    if local_roots is None:
        if points.size == 0:
            raise ValueError("cannot infer local roots from an empty point set")
        local_roots = sorted_unique(ancestor_at(pkeys, global_depth))
    local_roots = np.sort(np.asarray(local_roots, dtype=np.uint64))

    level_keys = {
        level: descendants(local_roots, level - global_depth)
        for level in range(global_depth, leaf_level + 1)
    }

    leaves = level_keys[leaf_level]
    starts = np.searchsorted(pkeys, leaves, side="left")
    ends = np.searchsorted(pkeys, leaves, side="right")
    if int((ends - starts).sum()) != len(points):
        raise ValueError("points fall outside the rank's local roots")
    leaf_ranges = np.stack([starts, ends], axis=1)

    nonempty = ends > starts
    level_nonempty = {leaf_level: nonempty}
    for level in range(leaf_level - 1, global_depth - 1, -1):
        level_nonempty[level] = level_nonempty[level + 1].reshape(-1, 8).any(axis=1)

    point_leaf = np.repeat(np.arange(len(leaves)), ends - starts)
    lattice = (points - np.asarray(cube.origin)) / cube.side
    lattice *= 1 << leaf_level
    lattice -= descendant_anchors(local_roots, global_depth, local_depth)[point_leaf]
    lattice -= 0.5
    try:
        operand = point_operand(lattice)
    except ValueError as exc:
        raise ValueError(f"{exc}: the Morton key it was given names another leaf") from exc

    return UniformTree(
        cube=cube,
        global_depth=global_depth,
        local_depth=local_depth,
        local_roots=local_roots,
        level_keys=level_keys,
        level_nonempty=level_nonempty,
        leaf_ranges=leaf_ranges,
        points=points,
        point_leaf=point_leaf,
        leaf_offset_operand=operand,
        piece_rows=piece_rows,
        leaf_pieces=(None if piece_rows is None
                     else leaf_pieces(starts[nonempty], ends[nonempty], piece_rows)),
    )


def _v_templates():
    """Per octant of a box in its parent, the transfer-vector index of each
    child octant of each cell of the parent's 27-cell neighborhood (in
    :data:`morton.HALO_OFFSETS` order), -1 for a child adjacent to the
    box: (8, 27, 8)."""
    child = HALO_OFFSETS[:, None, :] * 2 + _OCTANT_OFFSETS
    offsets = child - _OCTANT_OFFSETS[:, None, None, :]
    return TRANSFER_INDEX[tuple(np.moveaxis(offsets + 3, -1, 0))]


V_TRANSFER = _v_templates()


def _v_members_with_vectors(box_keys, level):
    """Vectorized V-list enumeration for same-level ``box_keys``: the
    children of each box's parent-level neighborhood, cut to the lattice,
    that its octant's :data:`V_TRANSFER` template admits.

    Returns (owner_box_positions, member_keys, transfer_index) flattened
    over all boxes, box by box in ``box_keys`` order; within a box the
    members come in (parent cell, child octant) order, which nothing
    reads: each list is a set.
    """
    coords = anchor_lattice(box_keys)
    octant = (coords & 1) @ np.array([1, 2, 4])
    # A cell outside the lattice takes the key of the cell it clips to;
    # none of its children is kept.
    cells = (coords >> 1)[:, None, :] + HALO_OFFSETS
    top = (1 << (level - 1)) - 1
    inside = np.all((cells >= 0) & (cells <= top), axis=2)
    cell_keys = make_key(*np.clip(cells, 0, top).transpose(2, 0, 1), level - 1)
    tv = V_TRANSFER[octant]
    keep = (tv >= 0) & inside[:, :, None]
    box_pos, cell, child = np.nonzero(keep)
    # A child's key is its parent's with the level one higher and the
    # octant below the parent's anchor bits.
    slot = np.uint64(3 * (MAX_DEPTH - level) + morton.LEVEL_BITS)
    keys = (cell_keys[box_pos, cell] + np.uint64(1)) | (child.astype(np.uint64) << slot)
    # np.nonzero returns views into one (members, 3) array; keep a copy.
    return box_pos.copy(), keys, tv[keep]


@dataclass
class InteractionLists:
    """A tree's U lists: ``u_member_keys``/``u_member_ptr`` form a CSR
    layout over the leaves in tree order, each leaf's members in no
    particular order. The V lists exist only while setup plans them
    (:func:`_v_members_with_vectors`)."""

    u_member_keys: np.ndarray
    u_member_ptr: np.ndarray

    def u_members(self, leaf_pos):
        return self.u_member_keys[self.u_member_ptr[leaf_pos] : self.u_member_ptr[leaf_pos + 1]]


def build_interaction_lists(tree):
    """The U list of every leaf: its in-lattice 27-cell neighborhood."""
    keys, leaf_pos = morton.halo(tree.leaves)
    ptr = np.zeros(len(tree.leaves) + 1, dtype=np.int64)
    np.cumsum(np.bincount(leaf_pos, minlength=len(tree.leaves)), out=ptr[1:])
    return InteractionLists(u_member_keys=keys, u_member_ptr=ptr)
