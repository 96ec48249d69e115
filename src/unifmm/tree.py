"""Per-rank uniform linear octrees and their U interaction lists.

A rank's tree is the union of fully refined subtrees hanging under its
local roots (level ``global_depth``), refined uniformly for another
``local_depth`` levels. All boxes are kept whether or not they contain
points; occupancy is tracked with a flag so interactions with empty
boxes can be skipped or resolved against remote ranks at runtime.

The interaction lists are stencils read on one box lattice per level
(:class:`lattice.BoxLattice`). The U list of a leaf is its in-lattice
27-cell neighborhood, kept as the cells the leaf lattice gives it: a
local leaf's row or a numbered remote cell, never a member key. A list is
a set: nothing reads the order of the members within a leaf or box. The
V lists are no member lists: setup plans them on each level's lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import morton
from .kernels import _changes, point_operand, sorted_unique
from .lattice import EMPTY, REMOTE, BoxLattice
from .morton import MAX_DEPTH, ancestor_at, descendant_anchors, descendants


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


@dataclass
class InteractionLists:
    """A tree's U lists, read on its leaf lattice
    (:class:`lattice.BoxLattice`). ``u_cells[i]`` holds, per cell of leaf
    ``i``'s 27-cell neighborhood, the row of the local leaf there, ``EMPTY``
    outside the domain, or ``REMOTE - 1 - j`` for the lattice's ``j``-th
    remote cell, whose key is ``remote_keys[j]``; ``u_reached[j]`` says
    whether a U list reaches that cell. ``u_member_keys``/``u_member_ptr``,
    the members' keys as a CSR layout over the leaves in tree order, are
    derived on first read; setup reads neither."""

    leaves: np.ndarray = field(repr=False)
    u_cells: np.ndarray = field(repr=False)
    remote_keys: np.ndarray = field(repr=False)
    u_reached: np.ndarray = field(repr=False)

    def member_values(self, own, remote, empty=0):
        """Per cell of every leaf's U list, (n_leaves, 27): ``own[i]`` for
        the ``i``-th local leaf, ``remote[j]`` for the ``j``-th remote cell
        and ``empty`` outside the domain."""
        table = np.concatenate([remote[::-1], np.full(2, empty, remote.dtype), own])
        return table[self.u_cells + (len(remote) + 2)]

    def remote_members(self):
        """Per U member in a remote cell: its leaf and the cell's number."""
        remote = self.u_cells < REMOTE
        return np.nonzero(remote)[0], REMOTE - 1 - self.u_cells[remote]

    @cached_property
    def u_member_keys(self):
        return self.member_values(self.leaves, self.remote_keys)[self.u_cells != EMPTY]

    @cached_property
    def u_member_ptr(self):
        ptr = np.zeros(len(self.leaves) + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(self.u_cells != EMPTY, axis=1), out=ptr[1:])
        return ptr

    def u_members(self, leaf_pos):
        return self.u_member_keys[self.u_member_ptr[leaf_pos] : self.u_member_ptr[leaf_pos + 1]]


def build_interaction_lists(tree):
    """The leaf level's box lattice, its V lists unresolved, and the U list
    of every leaf read on it (:class:`InteractionLists`)."""
    anchors = descendant_anchors(tree.local_roots, tree.global_depth, tree.local_depth)
    lattice = BoxLattice(anchors, tree.leaf_level, u_lists=True)
    return lattice, InteractionLists(tree.leaves, lattice.u_cells, lattice.remote_keys,
                                     lattice.u_reached)
