"""The box lattice of one tree level, and the interaction-list stencils
read on it.

On a uniform tree every interaction list is a fixed stencil of lattice
offsets. The U list of a leaf is its 27-cell neighborhood
(:data:`U_OFFSETS`), itself included. The V list of a box is the 189 of
the 316 :data:`TRANSFER_VECTORS` that its octant in its parent admits
(:data:`V_ADMITS`). Both are cut to the domain. Setup reads them on one
grid of box rows per level (:class:`BoxLattice`), never as member keys:
each offset is one flat offset into the grid, and each remote box the
lists reach is one numbered cell, whose key and owner setup finds once.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import morton


# The 316 admissible V-list lattice offsets, the cells of the 7x7x7 cube
# around a box that are not adjacent to it, sorted lexicographically.
_CUBE7 = np.array(list(itertools.product(range(-3, 4), repeat=3)), dtype=np.int64)
TRANSFER_VECTORS = _CUBE7[np.abs(_CUBE7).max(axis=1) >= 2]

# Per octant ``o`` of a box in its parent (bit a for axis a), whether each
# transfer vector ``t`` is in its V list, (8, 316), 189 per octant: the box
# ``t`` reaches is not adjacent (every vector's is not), and its parent is
# adjacent to or equal to the box's own, which holds when ``-2 <= o_a + t_a
# <= 3`` on every axis. Members outside the lattice are not in the list.
_REACH = ((np.arange(8)[:, None] >> np.arange(3)) & 1)[:, None] + TRANSFER_VECTORS
V_ADMITS = np.all((_REACH >= -2) & (_REACH <= 3), axis=2)

# The offsets of a leaf's U list, its 27-cell neighborhood, itself included.
U_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)

# The 56 transfer vectors with no negative component, sorted; per transfer
# vector the row of its absolute value here and the bit mask of its
# negative axes (bit a for axis a).
ORTHANT_VECTORS, TRANSFER_ORTHANT = np.unique(
    np.abs(TRANSFER_VECTORS), axis=0, return_inverse=True
)
TRANSFER_ORTHANT = TRANSFER_ORTHANT.reshape(-1)
TRANSFER_FLIP = (TRANSFER_VECTORS < 0) @ np.array([1, 2, 4])

# Targets per M2L tile, a power of two so that tiles split every full level
# of 64 boxes or more evenly. Its accumulator of 8 flips by 64 targets by
# n_e coefficients is 0.6 MB at order 6 and 1.2 MB at order 8, inside a
# 2 MB L2; see operators.apply_m2l. A count of targets rather than of
# entries: each tile reads every stored matrix again, and 64-128 targets
# ran fastest at every order from 5 to 8 (an entry budget that gives 64 at
# order 6 gives 32 at order 8, 10% slower than no tiles).
M2L_TILE_TARGETS = 64

# A lattice cell's value outside the domain, and for a box of another
# rank's (a remote cell); the remote cells the lists reach are numbered,
# the j-th holding REMOTE - 1 - j, and a V candidate that reaches one holds
# the cell's ghost row, or EMPTY, once setup resolves it.
EMPTY, REMOTE = -1, -2

# The transfer vectors in the order of a tiled plan's products, by (orthant
# matrix, flip): per slot of that order its vector, and per slot whether a
# box of each octant leaves it out of its V list (:data:`V_ADMITS`), with a
# ninth octant that lists none.
V_SLOTS = np.lexsort((TRANSFER_FLIP, TRANSFER_ORTHANT))
_SLOT_UNLISTED = ~np.concatenate([V_ADMITS, np.zeros((1, len(V_SLOTS)), bool)])[:, V_SLOTS].T
_SLOT_OFFSETS = TRANSFER_VECTORS[V_SLOTS][:, None, :]


class BoxLattice:
    """One level's boxes on a grid of cells, which the level's V lists and,
    at the leaf level, its U lists read by flat offsets.

    The grid covers the boxes' bounding box padded by 3 boxes, the reach of
    a V list (a U list reaches 1). Each cell holds the row of the box there
    in its level: the ``i``-th box's is ``i``. A cell outside the domain is
    ``EMPTY`` and a box of another rank's is ``REMOTE``. The remote cells
    the lists reach are numbered in grid order: the ``j``-th holds
    ``REMOTE - 1 - j``, its key is ``remote_keys[j]``, and ``v_reached[j]``
    and ``u_reached[j]`` say whether a V list or a U list reaches it. Cell
    indices are int32: a level-L grid has at most (2^L + 6)^3 cells, which
    int32 holds up to level 10, and a larger grid raises ``ValueError``.

    V lists: the candidates are laid out (tile of ``M2L_TILE_TARGETS``
    boxes, vector in :data:`V_SLOTS` order, box), a box's lane padded to
    ``w = min(M2L_TILE_TARGETS, n_boxes)``, and one gather gives ``cand``,
    each the value of the cell its vector reaches, or ``EMPTY`` where the
    box's octant does not list the vector. The pairs are the candidates
    that hold a row, so they come out sorted as a tiled M2L plan sorts
    them, and by (vector, target) within a tile
    (:func:`operators.plan_lattice`). A candidate that reaches a remote
    cell holds its number until :meth:`resolve` gives it the cell's row.

    U lists, with ``u_lists``: ``u_cells``, per box the values of its 27
    cells in :data:`U_OFFSETS` order. ``anchors`` are the boxes' lattice
    coordinates at ``level``, in row order.
    """

    def __init__(self, anchors, level, u_lists=False):
        self.n_boxes = n = len(anchors)
        self.width = min(M2L_TILE_TARGETS, n)
        self.n_tiles = -(-n // self.width)
        lo = anchors.min(axis=0) - 3
        shape = anchors.max(axis=0) + 4 - lo
        a, b = np.maximum(-lo, 0), np.minimum((1 << level) - lo, shape)
        # The cells, and one more, EMPTY, that the unlisted candidates read.
        size = int(shape.prod()) + 1
        if size > np.iinfo(np.int32).max:
            raise ValueError(f"the level-{level} box lattice of {size} cells is past the "
                             f"int32 cell indices it is built with")
        grid = np.full(size, EMPTY, dtype=np.int32)
        grid[:-1].reshape(shape)[a[0] : b[0], a[1] : b[1], a[2] : b[2]] = REMOTE
        strides = np.array([shape[1] * shape[2], shape[2], 1])
        at = ((anchors - lo) @ strides).astype(np.int32)
        grid[at] = np.arange(n)
        # Padding lanes take the first box's cell and an octant that lists none.
        lanes = np.full((2, self.n_tiles * self.width), [[at[0]], [8]], dtype=np.int32)
        lanes[:, :n] = at, (anchors & 1) @ np.array([1, 2, 4])
        offsets = (_SLOT_OFFSETS @ strides).astype(np.int32)
        cells = lanes[0].reshape(self.n_tiles, 1, self.width) + offsets
        unlisted = _SLOT_UNLISTED[:, lanes[1]].reshape(len(V_SLOTS), self.n_tiles, self.width)
        np.copyto(cells, size - 1, where=unlisted.swapaxes(0, 1))
        del unlisted
        cells = cells.reshape(-1)
        self.cand = grid[cells]
        self._remote = np.flatnonzero(self.cand == REMOTE)
        v_cells = cells[self._remote]
        del cells
        # Mark the remote cells each kind of list reaches (bit 0 for V, bit 1
        # for U), then number them.
        reached = np.zeros(size, dtype=np.int8)
        reached[v_cells] = 1
        if u_lists:
            u_cells = at[:, None] + (U_OFFSETS @ strides).astype(np.int32)
            u_remote = u_cells[grid[u_cells] == REMOTE]
            reached[u_remote] |= 2
        numbered = np.flatnonzero(reached)
        grid[numbered] = REMOTE - 1 - np.arange(len(numbered))
        self.cand[self._remote] = grid[v_cells]
        if u_lists:
            self.u_cells = grid[u_cells]
        kinds = reached[numbered]
        self.v_reached, self.u_reached = (kinds & 1) > 0, kinds > 1
        coords = np.stack(np.unravel_index(numbered, shape)) + lo[:, None]
        self.remote_keys = morton.make_key(*coords, level)

    def targets(self, pos):
        """The target, its lane in its tile and the vector slot of each
        candidate position. (numpy divides integers by a scalar several
        times faster than it takes their remainder.)"""
        row = pos // self.width
        tile = row // len(V_SLOTS)
        lane = pos - row * self.width
        return tile * self.width + lane, lane, row - tile * len(V_SLOTS)

    def remote_pairs(self):
        """Per V candidate reaching a remote cell, before :meth:`resolve`:
        its target and the number of the cell."""
        return self.targets(self._remote)[0], REMOTE - 1 - self.cand[self._remote]

    def resolve(self, rows):
        """Give each V candidate reaching the ``j``-th remote cell
        ``rows[j]``: the box's ghost row, or ``EMPTY`` for a box without
        one."""
        self.cand[self._remote] = rows[REMOTE - 1 - self.cand[self._remote]]
        self._remote = self._remote[:0]
