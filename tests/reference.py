"""Single-key helpers that only the tests use: a box's center, parent and
children, its 27-cell neighborhood and its neighbors, one leaf's U list
and one box's V list, the transfer vector of two boxes, and the scalar
Laplace kernel. The library works on key arrays and interaction lists
built for a whole tree at once; these answer the same questions for one
key or one pair of points. Also the U and V oracles, which enumerate
the lists of many boxes by their members' Morton keys, the check on the
library's box lattice (:class:`unifmm.lattice.BoxLattice`), and a dense
truncated pseudo-inverse, for reference operators built from one level's
real geometry."""

import itertools

import numpy as np

from unifmm import morton
from unifmm.lattice import TRANSFER_VECTORS
from unifmm.morton import LEVEL_BITS, MAX_DEPTH, anchor_lattice, key_level, make_key
from unifmm.operators import OperatorFactorizationError

# Lattice offsets of a box's 27-cell neighborhood, itself included, in
# lexicographic (dx, dy, dz) order.
HALO_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)

# (7,7,7) lookup from offset+3 to compact transfer-vector index, -1 if near.
TRANSFER_INDEX = np.full((7, 7, 7), -1, dtype=np.int64)
TRANSFER_INDEX[tuple((TRANSFER_VECTORS + 3).T)] = np.arange(len(TRANSFER_VECTORS))

# (ox, oy, oz) for octant o, x in the least significant interleave slot.
_OCTANT_OFFSETS = (np.arange(8)[:, None] >> np.arange(3)) & 1


def _v_templates():
    """Per octant of a box in its parent, the transfer-vector index of each
    child octant of each cell of the parent's 27-cell neighborhood (in
    :data:`HALO_OFFSETS` order), -1 for a child adjacent to the
    box: (8, 27, 8)."""
    child = HALO_OFFSETS[:, None, :] * 2 + _OCTANT_OFFSETS
    offsets = child - _OCTANT_OFFSETS[:, None, None, :]
    return TRANSFER_INDEX[tuple(np.moveaxis(offsets + 3, -1, 0))]


V_TRANSFER = _v_templates()


def v_members_with_vectors(box_keys, level):
    """The V oracle: vectorized V-list enumeration for same-level
    ``box_keys`` by Morton keys, the children of each box's parent-level
    neighborhood, cut to the lattice, that its octant's
    :data:`V_TRANSFER` template admits.

    Returns (owner_box_positions, member_keys, transfer_index) flattened
    over all boxes, box by box in ``box_keys`` order; within a box the
    members come in (parent cell, child octant) order.
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
    slot = np.uint64(3 * (MAX_DEPTH - level) + LEVEL_BITS)
    keys = (cell_keys[box_pos, cell] + np.uint64(1)) | (child.astype(np.uint64) << slot)
    # np.nonzero returns views into one (members, 3) array; keep a copy.
    return box_pos.copy(), keys, tv[keep]


def halo(key):
    """The U oracle: the in-lattice cells of each key's 27-cell
    neighborhood, the key itself included, by Morton keys: their keys and,
    for each, the position of its key in the flattened input. Cells come
    per key in ``HALO_OFFSETS`` order."""
    key = np.asarray(key, dtype=np.uint64).reshape(-1)
    level = key_level(key)
    cand = anchor_lattice(key)[:, None, :] + HALO_OFFSETS
    inside = np.all((cand >= 0) & (cand < (1 << level)[:, None, None]), axis=2)
    pos, off = np.nonzero(inside)
    return make_key(*cand[pos, off].T, level[pos]), pos


def neighbors(key):
    """Same-level keys adjacent to each of ``key`` (up to 26 each; fewer on
    the boundary), as one flat array."""
    cells, pos = halo(key)
    return cells[cells != np.asarray(key, dtype=np.uint64).reshape(-1)[pos]]


def box_center(key, cube):
    anchor, side = morton.decode(key, cube)
    return anchor + 0.5 * side[..., None]


def parent(key):
    """Parent key one level up; errors at the root."""
    level = morton.key_level(key)
    if np.any(level < 1):
        raise ValueError("root box has no parent")
    return morton.ancestor_at(key, level - 1)


def children(key):
    """The 8 child keys in ascending (Morton) order."""
    return morton.descendants(key, 1)


def compute_u_list(tree, leaf):
    """Near-field members of a leaf: its adjacent same-level boxes plus itself.

    Members outside the rank's subdomain are returned too; whether they
    exist on another rank is resolved by the ghost exchange.
    """
    if morton.key_level(leaf) != tree.leaf_level:
        raise ValueError("u_list is defined for leaf boxes only")
    return np.sort(halo(leaf)[0])


def compute_v_list(tree, box):
    """Well-separated same-level members: children of the parent's
    neighborhood (parent included) that are not adjacent to ``box``.

    Defined empty below level 2.
    """
    level = morton.key_level(box)
    if level < 2:
        return np.empty(0, dtype=np.uint64)
    _, keys, _ = v_members_with_vectors(np.reshape(np.uint64(box), 1), level)
    return np.sort(keys)


def transfer_vector(source, target):
    """Lattice offset (source - target) in units of the boxes' side."""
    ls, lt = morton.key_level(source), morton.key_level(target)
    if ls != lt:
        raise ValueError(f"transfer vector needs same-level keys, got {ls} and {lt}")
    return morton.anchor_lattice(source) - morton.anchor_lattice(target)


def laplace_kernel(x, y):
    """1/|x - y|, with 0 at coincident points."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    r = float(np.sqrt(np.dot(d, d)))
    return 0.0 if r == 0.0 else 1.0 / r


def tsvd_pinv(mat, cutoff):
    """Pseudo-inverse with singular values below ``cutoff * s_max`` dropped."""
    try:
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise OperatorFactorizationError(
            f"SVD of {mat.shape} check-surface system failed: {exc}"
        ) from exc
    if s[0] == 0.0:
        raise OperatorFactorizationError(
            "check-surface system is identically zero (condition number inf)"
        )
    keep = s >= cutoff * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (vt.T * inv_s) @ u.T
