"""Single-key helpers that only the tests use: a box's center, parent and
children, one leaf's U list and one box's V list, the transfer vector of
two boxes, and the scalar Laplace kernel. The library works on key
arrays and interaction lists built for a whole tree at once; these
answer the same questions for one key or one pair of points. Also a
dense truncated pseudo-inverse, for reference operators built from one
level's real geometry."""

import numpy as np

from unifmm import morton
from unifmm.operators import OperatorFactorizationError
from unifmm.tree import _v_members_with_vectors


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
    return np.sort(morton.halo(leaf)[0])


def compute_v_list(tree, box):
    """Well-separated same-level members: children of the parent's
    neighborhood (parent included) that are not adjacent to ``box``.

    Defined empty below level 2.
    """
    level = morton.key_level(box)
    if level < 2:
        return np.empty(0, dtype=np.uint64)
    _, keys, _ = _v_members_with_vectors(np.reshape(np.uint64(box), 1), level)
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
