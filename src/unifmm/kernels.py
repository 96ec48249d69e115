"""Laplace kernel evaluation and direct particle summation.

The pairwise potential sums here are the hot inner loops of the whole
package: they serve the near-field (ULI) sweep, the source-to-check and
expansion-to-target evaluations of the far-field operators, and the
brute-force verification oracle. They are JIT-compiled with numba when
available; a pure-numpy path is kept behind the ``FMM_DISABLE_NUMBA=1``
environment flag and used automatically when numba is missing.

The kernel is 1/r with no 1/(4*pi) factor. Coincident points evaluate
to 0, which also covers the self-interaction when one point set serves
as both sources and targets.

The numpy path has one kernel contract for all of these callers. Squared
distances are summed per axis (dx*dx + dy*dy + dz*dz) in place, without
an (n, m, 3) temporary; the root is taken in place, coincident pairs are
set to inf so the reciprocal gives exactly 0, and the charges are applied
with one matrix-vector product. Targets go in blocks of at most 2**16
(target, source) entries (at least 4 targets, so a block over more than
2**14 sources is larger). The near-field sweep makes one such call per
nonempty target leaf, over the gathered points of its whole U list.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

_DISABLE_NUMBA = os.environ.get("FMM_DISABLE_NUMBA", "0") == "1"

try:
    if _DISABLE_NUMBA:
        raise ImportError("numba disabled by FMM_DISABLE_NUMBA")
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def kernel_backend():
    """Identifier of the active pairwise-kernel implementation."""
    return "numba" if HAVE_NUMBA else "numpy"


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
_BLOCK_ENTRIES = 1 << 16


def _potential_numpy(targets, sources, charges, out):
    m = sources.shape[0]
    if m == 0:
        return out
    chunk = max(4, _BLOCK_ENTRIES // m // 4 * 4)
    for lo in range(0, targets.shape[0], chunk):
        t = targets[lo : lo + chunk]
        r = np.subtract.outer(t[:, 0], sources[:, 0])
        r *= r
        for axis in (1, 2):
            d = np.subtract.outer(t[:, axis], sources[:, axis])
            d *= d
            r += d
        np.sqrt(r, out=r)
        r[r == 0.0] = np.inf
        np.reciprocal(r, out=r)
        out[lo : lo + chunk] += r @ charges
    return out


if HAVE_NUMBA:

    @njit(cache=True, nogil=True, parallel=True)
    def _potential_numba_par(targets, sources, charges, out):
        for i in prange(targets.shape[0]):
            acc = 0.0
            for j in range(sources.shape[0]):
                dx = targets[i, 0] - sources[j, 0]
                dy = targets[i, 1] - sources[j, 1]
                dz = targets[i, 2] - sources[j, 2]
                r2 = dx * dx + dy * dy + dz * dz
                if r2 > 0.0:
                    acc += charges[j] / np.sqrt(r2)
            out[i] += acc
        return out

    @njit(cache=True, nogil=True)
    def _potential_numba_seq(targets, sources, charges, out):
        for i in range(targets.shape[0]):
            acc = 0.0
            for j in range(sources.shape[0]):
                dx = targets[i, 0] - sources[j, 0]
                dy = targets[i, 1] - sources[j, 1]
                dz = targets[i, 2] - sources[j, 2]
                r2 = dx * dx + dy * dy + dz * dz
                if r2 > 0.0:
                    acc += charges[j] / np.sqrt(r2)
            out[i] += acc
        return out

    @njit(cache=True, nogil=True)
    def _uli_numba(tgt_pts, src_pts, src_chg, leaf_tgt, seg_ptr, seg_bounds, out):
        for leaf in range(leaf_tgt.shape[0]):
            t0, t1 = leaf_tgt[leaf, 0], leaf_tgt[leaf, 1]
            for s in range(seg_ptr[leaf], seg_ptr[leaf + 1]):
                a, b = seg_bounds[s, 0], seg_bounds[s, 1]
                for i in range(t0, t1):
                    acc = 0.0
                    for j in range(a, b):
                        dx = tgt_pts[i, 0] - src_pts[j, 0]
                        dy = tgt_pts[i, 1] - src_pts[j, 1]
                        dz = tgt_pts[i, 2] - src_pts[j, 2]
                        r2 = dx * dx + dy * dy + dz * dz
                        if r2 > 0.0:
                            acc += src_chg[j] / np.sqrt(r2)
                    out[i] += acc
        return out


def _uli_numpy(tgt_pts, src_pts, src_chg, leaf_tgt, seg_ptr, seg_bounds, out):
    # Expand the segments into one source-index array; leaf i's sources
    # are src_idx[src_ptr[i]:src_ptr[i + 1]].
    lens = seg_bounds[:, 1] - seg_bounds[:, 0]
    starts = np.cumsum(lens) - lens
    src_idx = np.repeat(seg_bounds[:, 0] - starts, lens) + np.arange(lens.sum())
    src_ptr = np.append(starts, lens.sum())[seg_ptr]
    has_work = (leaf_tgt[:, 1] > leaf_tgt[:, 0]) & (src_ptr[1:] > src_ptr[:-1])
    for leaf in np.nonzero(has_work)[0]:
        t0, t1 = leaf_tgt[leaf]
        idx = src_idx[src_ptr[leaf] : src_ptr[leaf + 1]]
        _potential_numpy(tgt_pts[t0:t1], src_pts[idx], src_chg[idx], out[t0:t1])
    return out


def laplace_potential(targets, sources, charges, out=None, parallel=True):
    """Accumulate sum_j charges[j] / |targets_i - sources_j| into ``out``.

    Coincident target/source pairs contribute zero. ``parallel`` only
    affects the numba path; rank-level code passes False to keep the
    simulated ranks from oversubscribing the machine.
    """
    targets = np.ascontiguousarray(targets, dtype=np.float64).reshape(-1, 3)
    sources = np.ascontiguousarray(sources, dtype=np.float64).reshape(-1, 3)
    charges = np.ascontiguousarray(charges, dtype=np.float64).reshape(-1)
    if charges.shape[0] != sources.shape[0]:
        raise ValueError("charges length does not match sources")
    if out is None:
        out = np.zeros(targets.shape[0], dtype=np.float64)
    if HAVE_NUMBA:
        fn = _potential_numba_par if parallel else _potential_numba_seq
        return fn(targets, sources, charges, out)
    return _potential_numpy(targets, sources, charges, out)


def direct_sum(targets, sources, charges):
    """Brute-force O(n*m) potential evaluation (the verification oracle)."""
    return laplace_potential(targets, sources, charges)


@dataclass
class NearFieldGhosts:
    """Ghost point/charge data for off-rank U-list leaves.

    ``confirmed_absent`` lists remote leaves that were queried and do not
    exist (contain no points); members in neither map are unresolved.
    """

    points: dict = field(default_factory=dict)   # key -> (k, 3) float64
    charges: dict = field(default_factory=dict)  # key -> (k,) float64
    confirmed_absent: set = field(default_factory=set)


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

    leaf_level = tree.leaf_level
    src_blocks = [tree.points]
    chg_blocks = [charges]
    ghost_keys = np.asarray(sorted(ghosts.points), dtype=np.uint64)
    ghost_bounds = np.empty((len(ghost_keys), 2), dtype=np.int64)
    offset = tree.n_points
    for i, key in enumerate(ghost_keys.tolist()):
        pts = np.asarray(ghosts.points[key], dtype=np.float64).reshape(-1, 3)
        chg = np.asarray(ghosts.charges[key], dtype=np.float64).reshape(-1)
        if len(chg) != len(pts):
            raise ValueError("ghost charges length does not match ghost points")
        ghost_bounds[i] = offset, offset + len(pts)
        src_blocks.append(pts)
        chg_blocks.append(chg)
        offset += len(pts)
    src_pts = np.concatenate(src_blocks, axis=0) if len(src_blocks) > 1 else tree.points
    src_chg = np.concatenate(chg_blocks) if len(chg_blocks) > 1 else charges

    # Resolve every U member, in leaf order, to a segment of the sources:
    # a local leaf, else a ghost leaf. Empty and confirmed-absent members
    # keep the empty segment (0, 0); any other member is unresolved.
    keys = lists.u_member_keys
    bounds = np.zeros((len(keys), 2), dtype=np.int64)
    local = tree.contains(leaf_level, keys)
    bounds[local] = tree.leaf_ranges[tree.index_of(leaf_level, keys[local])]
    remote = np.nonzero(~local)[0]
    is_ghost = np.isin(keys[remote], ghost_keys)
    ghost = remote[is_ghost]
    bounds[ghost] = ghost_bounds[np.searchsorted(ghost_keys, keys[ghost])]
    missing = remote[~is_ghost]
    absent = np.fromiter(ghosts.confirmed_absent, dtype=np.uint64)
    unresolved = missing[~np.isin(keys[missing], absent)]
    if len(unresolved):
        k = int(keys[unresolved[0]])
        raise UnresolvedDependencyError(
            f"unresolved dependency: no ghost data for U-list box {k:#x}"
        )

    if out is None:
        out = np.zeros(tree.n_points, dtype=np.float64)
    fn = _uli_numba if HAVE_NUMBA else _uli_numpy
    return fn(tree.points, src_pts, src_chg, tree.leaf_ranges, lists.u_member_ptr, bounds, out)
