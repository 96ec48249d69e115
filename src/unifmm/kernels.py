"""Laplace kernel evaluation and direct particle summation.

The pairwise potential sums here are the hot inner loops of the whole
package: they serve the near-field (ULI) sweep, the source-to-check and
expansion-to-target evaluations of the far-field operators, and the
brute-force verification oracle.

The kernel is 1/r with no 1/(4*pi) factor. Coincident points evaluate
to 0, which also covers the self-interaction when one point set serves
as both sources and targets.

Two kernel contracts serve these callers.

:func:`inverse_distances` is exact. It serves the near-field sweep, the
operator build and the oracle, whose blocks may hold close or coincident
pairs. Each axis's (n, m) difference block is one matrix product with
inner dimension 2, rows [t_i, 1] times columns [1, -s_j]. Both products
are exact and the sum rounds once, so every entry is t_i - s_j exactly
as a subtraction rounds it, at any block size. On blocks of 32 rows or
more the BLAS product forms the differences several times faster than a
broadcast subtraction. Squared distances are summed per axis
(dx*dx + dy*dy + dz*dz) in place, without an (n, m, 3) temporary; the
root is taken in place, coincident pairs are set to inf so the
reciprocal gives exactly 0. The one-way sum (:func:`laplace_potential`,
the oracle) applies the charges with one matrix-vector product per
block of at most 2**16 (target, source) entries (at least 4 targets, so
a block over more than 2**14 sources is larger).

:func:`template_inverse_distances` serves separated blocks only: S2U and
D2T, which measure each point against one surface template around its
leaf (the KIFMM of Ying, Biros & Zorin, JCP 2004). It forms the squared
distances r^2 = |o|^2 + |y|^2 - 2 o.y of offsets o from the leaf center
and template points y as one (n x 5) @ (5 x m) product of rows
[o, |o|^2, 1] (:func:`point_operand`) with columns [-2y; 1; |y|^2]
(:func:`template_operand`), then takes the root and the reciprocal in
place: no per-axis passes, no coincidence test and no scratch half. Its
precondition is separation. Every offset lies within half a leaf side s
on each axis (checked once per tree, where the tree builds its operand)
and the template surfaces lie 1.475 s out, so r >= 0.975 s while
|o| + |y| <= 3.42 s. The terms round relative to (|o| + |y|)^2, which
r^2 cancels by at most a factor of 12.3: about 12 ulps in r^2, 6 in r
(3 ulps in 1/r at most, measured at orders 2-8). OpenBLAS's small-matrix
kernels give a row of this product the same bits in any block from 2
rows up to 2**16 entries, at any offset, with the operands stored as the
two builders return them, (5, n) and (5, m) row-major (checked at orders
2-8). Other blocks round differently: a larger product takes another
kernel (at order 7 from about 920 rows), a row-major (n, 5) point
operand against a column-major template does so from 12 rows at order
7, and a 1-row product goes through GEMV (by up to 4.4e-16), so a 1-row
block is formed as two copies of its row. S2U's blocks hold at most
2**16 entries, so its check sums have the same bits whichever rows share
a block.

The near-field sweep uses the kernel's symmetry (mutual interactions,
Dehnen, JCP 2002). Each nonempty target leaf builds one distance block
against, in this order, its later local U members (higher leaf
position), itself and its ghost members. The block's product with the
source charges adds to the leaf's targets; the product of the leaf's
charges with the later members' columns adds back into those members.
Earlier local members are skipped: U is symmetric between same-level
local leaves, so their pair already ran when the earlier leaf was the
target, and every local pair is computed once.

A leaf whose own block has fewer than ``GROUP_FLOOR`` (2**12) entries
costs more per call than per entry, so such leaves share blocks: a run
of consecutive small leaves under one parent builds one block of its
points against the union of its members' points, leaving out the local
leaves before the run (which already computed their pairs with it). A
0/1 membership matrix, leaves by columns, masks it: each row sums, with
one matrix product against the charges masked per leaf, only the columns
of its own leaf's members. Pairs inside the run are thus computed from
both sides, and the local leaves after the run get theirs added back
through the same mask. The block is built in pieces of rows of at most
``GROUP_ENTRIES`` (2**13) entries: with many ranks in one process, each
rank thread's largest temporary stays with the allocator after it is
freed, so the peak resident memory grows with this size. A run whose
block would exceed ``BLOCK_ENTRIES`` is swept leaf by leaf. A leaf at
or above the floor is always swept alone, as described above.
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


# A target leaf whose own distance block (its points by its sources) has
# fewer entries than GROUP_FLOOR shares one block with its small siblings,
# built in pieces of at most GROUP_ENTRIES entries; see the module docstring.
GROUP_FLOOR = 1 << 12
GROUP_ENTRIES = 1 << 13


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
    operands = np.empty(6 * (n + m))
    lhs = operands[: 6 * n].reshape(3, n, 2)
    rhs = operands[6 * n :].reshape(3, 2, m)
    lhs[:, :, 0] = targets.T
    lhs[:, :, 1] = 1.0
    rhs[:, 0] = 1.0
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


def point_operand(offsets):
    """(5, n) operand [o; |o|^2; 1] of :func:`template_inverse_distances`
    for (n, 3) ``offsets`` o from their box's center, in units of the box
    side.

    Raises ``ValueError`` naming the first point with an offset beyond
    0.5 on some axis: the kernel's error bound holds only for points
    inside the box the template surrounds.
    """
    if len(offsets) and np.abs(offsets).max() > 0.5:
        i = int(np.argmax(np.abs(offsets).max(axis=1) > 0.5))
        raise ValueError(
            f"point {i} lies outside its box: offset {offsets[i].tolist()} from the box "
            "center, in box sides, exceeds 0.5"
        )
    operand = np.empty((5, len(offsets)))
    operand[:3] = offsets.T
    square = operand[:3] * operand[:3]
    np.add(square[0], square[1], out=operand[3])
    operand[3] += square[2]
    operand[4] = 1.0
    return operand


def template_operand(template):
    """(5, m) operand [-2y; 1; |y|^2] of :func:`template_inverse_distances`
    for (m, 3) ``template`` points y."""
    operand = np.empty((5, len(template)))
    np.multiply(template.T, -2.0, out=operand[:3])
    operand[3] = 1.0
    x, y, z = template.T
    operand[4] = x * x + y * y + z * z
    return operand


def template_inverse_distances(points, template, out=None):
    """(n, m) block of 1/|o_i - y_j| for a separated block: ``points`` (5, n)
    a column slice of a :func:`point_operand`, ``template`` (5, m) a
    :func:`template_operand`; see the module docstring for the precondition
    and the error bound.

    When ``out`` is given, a float64 array of at least n*m entries, the
    returned block is a view of its first n*m entries, valid until the
    next call with the same buffer.
    """
    n, m = points.shape[1], template.shape[1]
    if out is None:
        out = np.empty(n * m)
    r = out[: n * m].reshape(n, m)
    if n == 1:
        # GEMV would round a lone row differently from any block of rows.
        r[:] = (np.repeat(points, 2, axis=1).T @ template)[:1]
    else:
        np.matmul(points.T, template, out=r)
    np.sqrt(r, out=r)
    np.reciprocal(r, out=r)
    return r


def _ranges(starts, lengths):
    """Concatenation of ``arange(s, s + n)`` over ``starts``/``lengths``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


def _sibling_runs(leaves, small):
    """(first, last) leaf of each run of consecutive small leaves under
    one parent. ``leaves`` are sorted leaf indices and ``small`` marks
    some of them; the 8 children of a parent are the consecutive leaves
    from a multiple of 8."""
    joins = small[1:] & small[:-1] & (leaves[1:] // 8 == leaves[:-1] // 8)
    first = leaves[small & ~np.append(False, joins)]
    last = leaves[small & ~np.append(joins, False)]
    return zip(first.tolist(), last.tolist())


def _uli_sweep(points, src_pts, src_chg, leaf_ranges, member_ptr, a, b, out):
    """Mutual near-field sweep over the U members' segments ``[a, b)`` of
    the sources (local points first, then ghosts), grouped per target leaf
    by ``member_ptr``; see the module docstring."""
    n_local, n_leaves = points.shape[0], len(leaf_ranges)
    owner = np.repeat(np.arange(n_leaves), np.diff(member_ptr))
    lo, hi = leaf_ranges[:, 0], leaf_ranges[:, 1]
    rows, own_lo, own_hi = hi - lo, lo[owner], hi[owner]
    ghost = a >= n_local
    later = ~ghost & (a >= own_hi)
    keep = (b > a) & (own_hi > own_lo) & (ghost | later | (a == own_lo))
    n_src = np.bincount(owner, weights=(b - a) * keep, minlength=n_leaves).astype(np.int64)
    leaves = np.flatnonzero(n_src)
    small = rows[leaves] * n_src[leaves] < GROUP_FLOOR
    single, work = leaves[~small].tolist(), np.empty(0)

    # One block per run of small sibling leaves: the run's points against
    # the union of its leaves' members that start at or after its first
    # point (a local leaf before the run computes its pairs with the run).
    # The block is cut into pieces of rows of at most GROUP_ENTRIES
    # entries; a run whose block would exceed BLOCK_ENTRIES is swept leaf
    # by leaf.
    hit = np.zeros(len(src_pts), dtype=bool)
    for first, last in _sibling_runs(leaves, small):
        t0, t1, n = lo[first], hi[last], last + 1 - first
        m0, m1 = member_ptr[first], member_ptr[last + 1]
        use = m0 + np.flatnonzero((b[m0:m1] > a[m0:m1]) & (a[m0:m1] >= t0))
        hit[a[use]] = True
        cols = np.flatnonzero(hit)
        hit[cols] = False
        col = np.searchsorted(cols, a[use])
        col_len = np.empty(len(cols), dtype=np.int64)
        col_len[col] = b[use] - a[use]
        n_cols = int(col_len.sum())
        if (t1 - t0) * n_cols > BLOCK_ENTRIES:
            single.extend(leaves[(leaves >= first) & (leaves <= last)].tolist())
            continue
        idx = _ranges(cols, col_len)
        # member[i, c]: column c is a source of the run's i-th leaf.
        member = np.zeros((n, len(cols)))
        member[owner[use] - first, col] = 1.0
        member = member.take(np.repeat(np.arange(len(cols)), col_len), axis=1)
        weights = (member * src_chg[idx]).T
        src, row_leaf = src_pts[idx], np.repeat(np.arange(n), rows[first : last + 1])
        # Columns of the local leaves after the run, which get their pairs
        # with it added back.
        b0, b1 = np.searchsorted(idx, (t1, n_local))
        step = max(1, GROUP_ENTRIES // n_cols)
        if len(work) < 2 * step * n_cols:
            work = np.empty(2 * step * n_cols)
        for i0 in range(t0, t1, step):
            i1 = min(i0 + step, t1)
            leaf_of_row = row_leaf[i0 - t0 : i1 - t0]
            r = inverse_distances(points[i0:i1], src, work)
            # Each row's sum over its own leaf's sources: one product with
            # the charges masked per leaf, then each row's entry for its leaf.
            out[i0:i1] += (r @ weights).ravel()[np.arange(i1 - i0) * n + leaf_of_row]
            if b1 > b0:
                back = member[leaf_of_row, b0:b1]
                back *= r[:, b0:b1]
                out[idx[b0:b1]] += src_chg[i0:i1] @ back
    if not single:
        return out
    single.sort()
    chunks = _target_chunk(np.maximum(n_src[single], 1))
    block = int((np.minimum(rows[single], chunks) * n_src[single]).max())
    if len(work) < 2 * block:
        work = np.empty(2 * block)
    # Per target leaf: later local members, then itself, then ghosts,
    # each group in key order.
    keep = np.flatnonzero(keep)
    keep = keep[np.lexsort((ghost[keep], ~later[keep], owner[keep]))]
    owner, later, a, lens = owner[keep], later[keep], a[keep], (b - a)[keep]
    seg_ptr = np.searchsorted(owner, np.arange(n_leaves + 1))
    src_ptr = np.append(0, np.cumsum(lens))[seg_ptr]
    n_later = np.append(0, np.cumsum(lens * later))[seg_ptr]
    n_later = n_later[1:] - n_later[:-1]
    src_idx = _ranges(a, lens)
    for leaf, chunk in zip(single, chunks.tolist()):
        t0, t1 = leaf_ranges[leaf]
        idx = src_idx[src_ptr[leaf] : src_ptr[leaf + 1]]
        m = n_later[leaf]
        src, chg = src_pts[idx], src_chg[idx]
        back = np.zeros(m)
        for i0 in range(t0, t1, chunk):
            i1 = min(i0 + chunk, t1)
            r = inverse_distances(points[i0:i1], src, work)
            out[i0:i1] += r @ chg
            if m:
                back += src_chg[i0:i1] @ r[:, :m]
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
    run of rows. ``confirmed_absent`` holds, sorted, every remote U-list
    leaf for which setup's exchange brought no rows. Setup trusts each
    owner to serve every occupied leaf that a neighbor's lists hold, so a
    leaf its owner never serves also reads as empty here; the halo's
    length check covers only the exchanges after setup's. A remote member
    in neither is unresolved.
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

    # Resolve every U member, in leaf order, to a segment [a, b) of the
    # sources: a local leaf, else its run of ghost rows. Empty and
    # confirmed-absent members get an empty segment; any other member is
    # unresolved.
    keys = lists.u_member_keys
    pos, local = find_keys(tree.leaves, keys)
    lo = np.searchsorted(ghost_keys, keys, side="left")
    hi = np.searchsorted(ghost_keys, keys, side="right")
    missing = ~local & (hi == lo)
    if missing.any():
        unresolved = keys[missing][~np.isin(keys[missing], ghosts.confirmed_absent)]
        if len(unresolved):
            raise UnresolvedDependencyError(
                f"unresolved dependency: no ghost data for U-list box {int(unresolved[0]):#x}"
            )
    own = tree.leaf_ranges[pos]
    a = np.where(local, own[:, 0], tree.n_points + lo)
    b = np.where(local, own[:, 1], tree.n_points + hi)

    if out is None:
        out = np.zeros(tree.n_points, dtype=np.float64)
    return _uli_sweep(
        tree.points, src_pts, src_chg, tree.leaf_ranges, lists.u_member_ptr, a, b, out
    )
