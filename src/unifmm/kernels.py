"""Laplace kernel evaluation and direct particle summation.

The pairwise potential sums here are the hot inner loops of the whole
package: they serve the near-field (ULI) sweep, the source-to-check and
expansion-to-target evaluations of the far-field operators, and the
brute-force verification oracle.

The kernel is 1/r with no 1/(4*pi) factor. Coincident points evaluate
to 0, which also covers the self-interaction when one point set serves
as both sources and targets.

All of these callers share one kernel contract, :func:`inverse_distances`.
Each axis's (n, m) difference block is one matrix product with inner
dimension 2, rows [t_i, 1] times columns [1, -s_j]. Both products are
exact and the sum rounds once, so every entry is t_i - s_j exactly as a
subtraction rounds it, at any block size. On blocks of 32 rows or more
the BLAS product forms the differences several times faster than a
broadcast subtraction. Squared distances are summed per axis
(dx*dx + dy*dy + dz*dz) in place, without an (n, m, 3) temporary; the
root is taken in place, coincident pairs are set to inf so the
reciprocal gives exactly 0. The one-way sum (:func:`laplace_potential`,
the oracle) applies the charges with one matrix-vector product per
block of at most 2**16 (target, source) entries (at least 4 targets, so
a block over more than 2**14 sources is larger).

The near-field sweep uses the kernel's symmetry (mutual interactions,
Dehnen, JCP 2002). Each nonempty target leaf builds one distance block
against, in this order, its later local U members (higher leaf
position), itself and its ghost members. The block's product with the
source charges adds to the leaf's targets; the product of the leaf's
charges with the later members' columns adds back into those members.
Earlier local members are skipped: U is symmetric between same-level
local leaves, so their pair already ran when the earlier leaf was the
target, and every local pair is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .morton import find_keys


def kernel_backend():
    """Identifier of the pairwise-kernel implementation."""
    return "numpy"


class UnresolvedDependencyError(RuntimeError):
    """A near- or far-field member exists remotely but has no ghost data."""


def laplace_kernel(x, y):
    """1/|x - y|, with 0 at coincident points."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    r = float(np.sqrt(np.dot(d, d)))
    return 0.0 if r == 0.0 else 1.0 / r


# Entries of one (targets, sources) distance block. Blocks hold a multiple
# of 4 targets: OpenBLAS's matrix-vector product sums rows in groups of 4,
# so aligned blocks give each target the sum one unblocked product gives.
BLOCK_ENTRIES = 1 << 16


def _target_chunk(n_sources):
    return np.maximum(4, BLOCK_ENTRIES // n_sources // 4 * 4)


def inverse_distances(targets, sources, work=None):
    """(n, m) block of 1/|targets_i - sources_j|, 0 where they coincide.

    ``targets`` is (n, 3) and ``sources`` (m, 3), in any memory layout.
    Each axis's differences come from one product of [targets, 1] (n, 2)
    with [1; -sources] (2, m), written straight into the block: the
    products with 1 are exact and the sum rounds once, so every entry
    equals the rounded ``t - s`` bit for bit (up to the sign of a zero,
    which squaring drops).

    When ``work`` is given, a float64 array of at least 2*n*m entries, the
    returned block is a view of its first n*m entries and the next n*m are
    scratch; both are overwritten, so stale contents do not matter, and the
    block is valid until the next call with the same buffer. A loop over
    blocks passes one buffer so that it allocates nothing per block: a
    freed block's pages go back to the system, and the next block would
    fault them in again.
    """
    n, m = targets.shape[0], sources.shape[0]
    if work is None:
        work = np.empty(2 * n * m)
    r = work[: n * m].reshape(n, m)
    d = work[n * m : 2 * n * m].reshape(n, m)
    lhs = np.ones((3, n, 2))
    lhs[:, :, 0] = targets.T
    rhs = np.ones((3, 2, m))
    np.negative(sources.T, out=rhs[:, 1])
    np.matmul(lhs[0], rhs[0], out=r)
    r *= r
    for axis in (1, 2):
        np.matmul(lhs[axis], rhs[axis], out=d)
        d *= d
        r += d
    np.sqrt(r, out=r)
    r[r == 0.0] = np.inf
    np.reciprocal(r, out=r)
    return r


def _uli_sweep(points, src_pts, src_chg, leaf_ranges, member_ptr, bounds, out):
    """Mutual near-field sweep over segments ``bounds`` of the sources
    (local points first, then ghosts), grouped per target leaf by
    ``member_ptr``; see the module docstring."""
    n_local = points.shape[0]
    owner = np.repeat(np.arange(len(leaf_ranges)), np.diff(member_ptr))
    own_lo, own_hi = leaf_ranges[owner, 0], leaf_ranges[owner, 1]
    a, b = bounds[:, 0], bounds[:, 1]
    ghost = a >= n_local
    later = ~ghost & (a >= own_hi)
    keep = np.flatnonzero((b > a) & (own_hi > own_lo) & (ghost | later | (a == own_lo)))
    # Per target leaf: later local members, then itself, then ghosts,
    # each group in key order.
    keep = keep[np.lexsort((ghost[keep], ~later[keep], owner[keep]))]
    a, lens = a[keep], (b - a)[keep]
    seg_ptr = np.searchsorted(owner[keep], np.arange(len(leaf_ranges) + 1))
    ends = np.cumsum(lens)
    src_idx = np.repeat(a - (ends - lens), lens) + np.arange(ends[-1] if len(ends) else 0)
    src_ptr = np.append(0, ends)[seg_ptr]
    n_later = np.append(0, np.cumsum(lens * later[keep]))[seg_ptr]
    n_later = n_later[1:] - n_later[:-1]

    n_src = np.diff(src_ptr)
    chunks = _target_chunk(np.maximum(n_src, 1))
    rows = np.minimum(np.diff(leaf_ranges, axis=1)[:, 0], chunks)
    work = np.empty(2 * int((rows * n_src).max(initial=0)))
    for leaf in np.flatnonzero(n_src):
        t0, t1 = leaf_ranges[leaf]
        idx = src_idx[src_ptr[leaf] : src_ptr[leaf + 1]]
        m = n_later[leaf]
        src, chg = src_pts[idx], src_chg[idx]
        back = np.zeros(m)
        for lo in range(t0, t1, chunks[leaf]):
            hi = min(lo + chunks[leaf], t1)
            r = inverse_distances(points[lo:hi], src, work)
            out[lo:hi] += r @ chg
            if m:
                back += src_chg[lo:hi] @ r[:, :m]
        if m:
            out[idx[:m]] += back
    return out


def _require_finite(values, what):
    """Reject NaN or infinite input, naming the first offending entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{what} {int(np.argwhere(bad)[0][0])} is not finite")


def _point_array(points, what):
    """``points`` as a contiguous float64 array, which must be (n, 3)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"{what} must have shape (n, 3), got {points.shape}")
    return points


def laplace_potential(targets, sources, charges):
    """sum_j charges[j] / |targets_i - sources_j| for every target.

    Coincident target/source pairs contribute zero. Raises ``ValueError``
    for targets or sources not of shape (n, 3) and for a NaN or infinite
    coordinate or charge.
    """
    targets = _point_array(targets, "targets")
    sources = _point_array(sources, "sources")
    charges = np.ascontiguousarray(charges, dtype=np.float64).reshape(-1)
    if charges.shape[0] != sources.shape[0]:
        raise ValueError("charges length does not match sources")
    _require_finite(targets, "target")
    _require_finite(sources, "source")
    _require_finite(charges, "charge")
    out = np.zeros(targets.shape[0], dtype=np.float64)
    if sources.shape[0] == 0:
        return out
    chunk = _target_chunk(sources.shape[0])
    work = np.empty(2 * min(chunk, targets.shape[0]) * sources.shape[0])
    for lo in range(0, targets.shape[0], chunk):
        out[lo : lo + chunk] += inverse_distances(targets[lo : lo + chunk], sources, work) @ charges
    return out


def direct_sum(targets, sources, charges):
    """Brute-force O(n*m) potential evaluation (the verification oracle)."""
    return laplace_potential(targets, sources, charges)


@dataclass
class NearFieldGhosts:
    """Ghost points and charges of off-rank U-list leaves, as one table.

    Row ``i`` is a point of leaf ``keys[i]`` at ``coords[i]`` with charge
    ``charges[i]``; rows are sorted by leaf key, so each ghost leaf is one
    run of rows. ``confirmed_absent`` holds, sorted, the remote U-list
    leaves that hold no points on their owner. A remote member in neither
    is unresolved.
    """

    keys: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint64))
    coords: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    charges: np.ndarray = field(default_factory=lambda: np.empty(0))
    confirmed_absent: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint64))

    @property
    def points(self):
        """``{leaf key: view of its rows of coords}``, rebuilt on each read,
        for per-leaf lookups such as ``perfbench/harness.py``'s pair count."""
        leaves, starts = np.unique(self.keys, return_index=True)
        ends = np.append(starts[1:], len(self.keys))
        return {k: self.coords[a:b] for k, a, b in zip(leaves.tolist(), starts, ends)}


def p2p_uli(tree, lists, charges, ghosts=None, out=None):
    """Near-field sweep: direct interactions of every local target leaf
    with all existing members of its U list (local and ghost).

    Raises :class:`UnresolvedDependencyError` for a member that is
    neither local nor covered by ghost data.
    """
    charges = np.ascontiguousarray(charges, dtype=np.float64).reshape(-1)
    if charges.shape[0] != tree.n_points:
        raise ValueError("charges length does not match tree points")
    if ghosts is None:
        ghosts = NearFieldGhosts()

    ghost_keys = ghosts.keys
    if not len(ghost_keys) == len(ghosts.coords) == len(ghosts.charges):
        raise ValueError("ghost keys, points and charges differ in length")
    if np.any(ghost_keys[1:] < ghost_keys[:-1]):
        raise ValueError("ghost keys are not sorted")
    src_pts = np.concatenate([tree.points, ghosts.coords]) if len(ghost_keys) else tree.points
    src_chg = np.concatenate([charges, ghosts.charges]) if len(ghost_keys) else charges

    # Resolve every U member, in leaf order, to a segment of the sources:
    # a local leaf, else its run of ghost rows. Empty and confirmed-absent
    # members keep the empty segment (0, 0); any other member is unresolved.
    keys = lists.u_member_keys
    bounds = np.zeros((len(keys), 2), dtype=np.int64)
    pos, local = find_keys(tree.leaves, keys)
    bounds[local] = tree.leaf_ranges[pos[local]]
    remote = np.nonzero(~local)[0]
    lo = np.searchsorted(ghost_keys, keys[remote], side="left")
    hi = np.searchsorted(ghost_keys, keys[remote], side="right")
    is_ghost = hi > lo
    bounds[remote[is_ghost]] = tree.n_points + np.stack([lo, hi], axis=1)[is_ghost]
    missing = remote[~is_ghost]
    unresolved = missing[~np.isin(keys[missing], ghosts.confirmed_absent)]
    if len(unresolved):
        k = int(keys[unresolved[0]])
        raise UnresolvedDependencyError(
            f"unresolved dependency: no ghost data for U-list box {k:#x}"
        )

    if out is None:
        out = np.zeros(tree.n_points, dtype=np.float64)
    return _uli_sweep(
        tree.points, src_pts, src_chg, tree.leaf_ranges, lists.u_member_ptr, bounds, out
    )
