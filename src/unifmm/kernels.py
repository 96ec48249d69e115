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
reciprocal gives exactly 0. The one-way sum (:func:`direct_sum`, the
oracle) applies the charges with one matrix-vector product per
block of at most 2**16 (target, source) entries. A block keeps at least
``ONE_WAY_ROWS`` (8) targets, since on shorter blocks the product forms
the differences no faster than a subtraction, so over more than 2**13
sources the sum cuts the sources into chunks of 2**13 and adds each
chunk's product in turn (8 targets against 2**14 sources: 1.73e8 pairs/s
in 4-target blocks, 1.96e8 in 8 x 2**13 ones, one BLAS thread). Over at
most 2**13 sources a block holds all of them.

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
Dehnen, JCP 2002) and runs one shape of block. A group of consecutive
sibling leaves (nonempty children of one parent) builds one distance
block of its points against the union of its leaves' U members that
start at or after its first point, in row order: its own leaves, the
local leaves after it, then ghost rows. Local leaves before the group
are skipped: U is symmetric between same-level local leaves, so their
pairs already ran when the earlier leaf's group was the target, and
every local pair is computed once. A 0/1 membership mask, the group's
source segments by its leaves, restricts each target row to its own
leaf's members: one matrix product with the charges masked per leaf
gives every row the sum of each leaf's columns, and each row keeps its
own leaf's entry. The product of a row's charges with the columns of
the local leaves after the group, masked the same way, adds back into
those leaves. Pairs between leaves of one group are thus computed from
both sides.

A leaf whose own block has fewer than ``GROUP_FLOOR`` (2**12) entries
costs more per call than per entry, so a run of such leaves under one
parent is one group. A leaf at or above the floor is a group of one, as
is each leaf of a run whose block would exceed ``BLOCK_ENTRIES``. A
group of one's mask is all true, so it skips the mask and the per-row
pick: its rows sum all columns with one matrix-vector product and add
back unmasked. This is the sweep's one branch. The two kinds of group
cut their blocks into pieces of rows of two sizes. A group of several
leaves takes at most ``GROUP_ENTRIES`` (2**13) entries per piece: with
many ranks in one process, each rank thread's largest temporary stays
with the allocator after it is freed, so the peak resident memory grows
with this size. A group of one takes the largest multiple of 4 rows
(at least 4) within ``BLOCK_ENTRIES`` (:func:`_target_chunk`).

All of this depends on the points alone, so it is planned once per tree
and ghost table (:func:`near_field_plan`, which setup calls), in one
pass over all groups: the U members are resolved to their rows,
unresolved ones raise, and every group's rows, source segments, mask and
add-back columns are fixed. :func:`p2p_uli` then only gathers the
charges and runs the blocks in one loop, each with the rows, columns and
order the plan fixed, so one plan serves any charges and gives the bits
a fresh plan gives. The plan keeps index arrays and boolean masks, never
distance blocks; the source rows are kept as segments and expanded on
each call.
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


# Entries of one (targets, sources) distance block. Blocks hold a multiple
# of 4 targets: OpenBLAS's matrix-vector product sums rows in groups of 4,
# so aligned blocks over all sources give each target the sum one unblocked
# product gives.
BLOCK_ENTRIES = 1 << 16


# A target leaf whose own distance block (its points by its sources) has
# fewer entries than GROUP_FLOOR shares one block with its small siblings,
# built in pieces of at most GROUP_ENTRIES entries; see the module docstring.
GROUP_FLOOR = 1 << 12
GROUP_ENTRIES = 1 << 13


# The fewest targets a block of the one-way sum holds.
ONE_WAY_ROWS = 8


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
    """Concatenation of ``arange(s, s + n)`` over ``starts``/``lengths``,
    as int32 where it fits: numpy repeats int32 several times faster than
    int64."""
    ends = np.cumsum(lengths)
    fits = not len(ends) or max(ends[-1], (starts + lengths).max()) < 2**31
    dtype = np.int32 if fits else np.int64
    out = np.repeat((starts - (ends - lengths)).astype(dtype), lengths)
    out += np.arange(len(out), dtype=dtype)
    return out


def _changes(values):
    """True at the first entry and at every entry unequal to the one before."""
    out = np.empty(len(values), dtype=bool)
    out[:1] = True
    np.not_equal(values[1:], values[:-1], out=out[1:])
    return out


def sorted_unique(values):
    """The distinct entries of a 1-D array, sorted: ``np.unique`` without
    its first call's import of ``numpy.ma`` (tens of ms) or its per-call
    overhead on short arrays."""
    values = np.sort(values)
    return values[_changes(values)]


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


def direct_sum(targets, sources, charges):
    """Brute-force O(n*m) potential evaluation, the verification oracle:
    sum_j charges[j] / |targets_i - sources_j| for every target.

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
    rows = max(_target_chunk(sources.shape[0]), ONE_WAY_ROWS)
    cols = BLOCK_ENTRIES // rows
    work = np.empty(2 * min(rows, targets.shape[0]) * min(cols, sources.shape[0]))
    for lo in range(0, targets.shape[0], rows):
        for at in range(0, sources.shape[0], cols):
            block = inverse_distances(targets[lo : lo + rows], sources[at : at + cols], work)
            out[lo : lo + rows] += block @ charges[at : at + cols]
    return out


@dataclass
class NearFieldGhosts:
    """Ghost points and charges of off-rank U-list leaves, as one table.

    Row ``i`` is a point of leaf ``keys[i]`` at ``coords[i]`` with charge
    ``charges[i]``; rows are sorted by leaf key, so each ghost leaf is one
    run of rows. ``confirmed_absent`` holds, sorted, every remote U-list
    leaf whose owner's point count in setup's count exchange is zero. The
    counts fix how many rows each owner's message holds, so an owner that
    withholds a row fails setup's exchange. A remote member in neither is
    unresolved.
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


@dataclass
class NearFieldPlan:
    """The near-field sweep of one tree against one ghost table, fixed by
    :func:`near_field_plan`; :func:`p2p_uli` runs it for any charges.

    Sources are the points, then the ghost rows. Each row of ``groups`` is
    one block, a group of ``n`` consecutive nonempty sibling leaves, in
    leaf order: ``(t0, t1, piece, n, s0, s1, c0, b0, b1, c1)``. Its target
    points ``[t0, t1)`` are taken ``piece`` rows at a time. Its sources are
    the segments ``s0:s1``, each a first row ``seg_start`` and a length
    ``seg_len``, in row order; ``member[s0:s1, :n]`` marks the leaves each
    is a source of. Expanded and concatenated over all groups, the
    segments are the entries ``c0:c1`` of the source rows, of which
    ``b0:b1`` are the local leaves after the group, which get their pairs
    added back. ``pick`` gives each target row its entry in its piece's
    (rows, leaves) product with the charges masked per leaf.
    """

    points: np.ndarray            # (n, 3) targets, the tree's points
    ghost_coords: np.ndarray      # the ghost table's, whose rows follow the points
    groups: np.ndarray            # (groups, 10)
    seg_start: np.ndarray         # per source segment, its first source row
    seg_len: np.ndarray           # and its length
    member: np.ndarray            # (segments, 8): a group has at most 8 leaves
    pick: np.ndarray              # per target row
    work_entries: int             # scratch entries the largest piece needs


def near_field_plan(tree, lists, ghosts=None):
    """Plan the near-field sweep of every local target leaf with all
    existing members of its U list (local and ghost): resolve the members,
    group the leaves and fix every group's block, all groups at once; see
    the module docstring.

    ``lists`` are the tree's :class:`tree.InteractionLists`: a member is a
    local leaf's row or a remote cell, and each remote cell the lists reach
    is resolved once against the ghost table. Raises ``ValueError`` for a
    ghost table whose columns differ in length or whose keys are not
    sorted, and :class:`UnresolvedDependencyError` for a member that is
    neither local nor covered by ghost data.
    """
    if ghosts is None:
        ghosts = NearFieldGhosts()
    ghost_keys = ghosts.keys
    if not len(ghost_keys) == len(ghosts.coords) == len(ghosts.charges):
        raise ValueError("ghost keys, points and charges differ in length")
    if (ghost_keys[1:] < ghost_keys[:-1]).any():
        raise ValueError("ghost keys are not sorted")
    points, n_local = tree.points, tree.n_points
    n_rows = n_local + len(ghost_keys)

    # Resolve every U member to a segment [a, b) of the sources: a local
    # leaf, else its remote cell's run of ghost rows, found once per cell.
    # Members outside the domain and confirmed-absent cells get an empty
    # segment; any other remote cell is unresolved.
    remote = lists.remote_keys
    g0 = ghost_keys.searchsorted(remote, side="left")
    g1 = ghost_keys.searchsorted(remote, side="right")
    missing = remote[lists.u_reached & (g1 == g0)]
    unresolved = missing[~find_keys(ghosts.confirmed_absent, missing)[1]]
    if len(unresolved):
        raise UnresolvedDependencyError(
            f"unresolved dependency: no ghost data for U-list box {int(unresolved[0]):#x}"
        )
    lo, hi = tree.leaf_ranges.T
    a = lists.member_values(lo, n_local + g0).reshape(-1)
    b = lists.member_values(hi, n_local + g1).reshape(-1)

    # The nonempty members of the nonempty leaves, each with its leaf's
    # position in leaves (every nonempty leaf is in its own U list), and per
    # leaf the sources it has alone: its members from its own first point on.
    rows = hi - lo
    leaves = rows.nonzero()[0]
    at = np.full(len(lo), -1)
    at[leaves] = np.arange(len(leaves))
    slot, length = np.repeat(at, lists.u_cells.shape[1]), b - a
    keep = (length > 0) & (slot >= 0)
    slot, a, length = slot[keep], a[keep], length[keep]
    leaf_lo = lo[leaves]
    n_src = np.bincount(slot, weights=length * (a >= leaf_lo[slot]), minlength=len(leaves))

    # A group is a run of small leaves under one parent, or a leaf of its
    # own: it starts wherever the run key changes. A run whose block would
    # exceed BLOCK_ENTRIES is cut into groups of one, and the groups are
    # formed again.
    small = rows[leaves] * n_src < GROUP_FLOOR
    starts = _changes(np.where(small, leaves // 8, ~leaves))
    while True:
        group_of = starts.cumsum() - 1
        first = starts.nonzero()[0]
        n = np.bincount(group_of, minlength=len(first))
        # The next group's first point ends a group: only empty leaves lie
        # between them.
        edges = np.concatenate((leaf_lo[first], [n_local]))
        t0, t1, size = edges[:-1], edges[1:], edges[1:] - edges[:-1]
        # A group's sources: the union of its leaves' nonempty members that
        # start at or after its first point (a local leaf before it
        # computes its pairs with it), as (group, first row) keys in row
        # order; seg[inv] is each member's.
        group = group_of[slot]
        use = a >= t0[group]
        group = group[use]
        key = group * n_rows + a[use]
        seg = np.sort(key)
        seg = seg[_changes(seg)]
        inv = seg.searchsorted(key)
        seg_len = np.empty(len(seg), dtype=np.int64)
        seg_len[inv] = length[use]
        col = np.zeros(len(seg) + 1, dtype=np.int64)
        seg_len.cumsum(out=col[1:])
        # Per group, its first segment, first one after its points, first
        # ghost one and end, and where each starts in the source rows.
        base = np.arange(len(first) + 1) * n_rows
        bounds = seg.searchsorted(np.array([base[:-1], base[:-1] + t1, base[:-1] + n_local, base[1:]]))
        c0, b0, b1, c1 = col[bounds]
        n_cols, multi = c1 - c0, n > 1
        oversized = multi & (size * n_cols > BLOCK_ENTRIES)
        if not oversized.any():
            break
        starts[oversized[group_of]] = True

    # member[j, i]: segment j is a source of the i-th leaf of its group.
    member = np.zeros((len(seg), 8), dtype=bool)
    member[inv, slot[use] - first[group]] = True
    piece = np.where(multi, np.maximum(1, GROUP_ENTRIES // n_cols), _target_chunk(n_cols))
    # Per target row, its entry in its piece's (rows, leaves) product: row
    # i of a piece reads entry i * n + its leaf's position in the group.
    leaf = at[tree.point_leaf]
    g = group_of[leaf]
    pick = (np.arange(n_local) - t0[g]) % piece[g] * n[g] + leaf - first[g]
    groups = np.array([t0, t1, piece, n, bounds[0], bounds[3], c0, b0, b1, c1]).T
    work = 2 * int((np.minimum(piece, size) * n_cols).max(initial=0))
    return NearFieldPlan(points, ghosts.coords, groups, seg % n_rows, seg_len, member, pick, work)


def p2p_uli(plan, charges, ghost_charges=None):
    """Near-field sweep: run the blocks of a :func:`near_field_plan` with
    the local ``charges`` (tree order) and the ``ghost_charges`` of the
    plan's ghost rows; returns the potential at every local point."""
    n_local = len(plan.points)
    charges = np.ascontiguousarray(charges, dtype=np.float64).reshape(-1)
    if charges.shape[0] != n_local:
        raise ValueError("charges length does not match tree points")
    n_ghost = len(plan.ghost_coords)
    ghost_charges = np.empty(0) if ghost_charges is None else ghost_charges
    if len(ghost_charges) != n_ghost:
        raise ValueError(
            f"{len(ghost_charges)} ghost charges for the plan's {n_ghost} ghost rows"
        )
    src_pts = np.concatenate([plan.points, plan.ghost_coords]) if n_ghost else plan.points
    src_chg = np.concatenate([charges, ghost_charges]) if n_ghost else charges
    points, out = plan.points, np.zeros(n_local, dtype=np.float64)
    work = np.empty(plan.work_entries)
    cols = _ranges(plan.seg_start, plan.seg_len)

    for t0, t1, piece, n, s0, s1, c0, b0, b1, c1 in plan.groups.tolist():
        idx, later = cols[c0:c1], cols[b0:b1]
        src, weights = src_pts[idx], src_chg[idx]
        if n > 1:
            # Column i of the weights: the charges of the i-th leaf's sources.
            member = np.repeat(plan.member[s0:s1, :n], plan.seg_len[s0:s1], axis=0)
            weights = member * weights[:, None]
        k0, k1 = b0 - c0, b1 - c0          # the block's columns of later
        for i0 in range(t0, t1, piece):
            i1 = min(i0 + piece, t1)
            r = inverse_distances(points[i0:i1], src, work)
            # A group of one sums all its columns. In a larger group each row
            # takes its own leaf's sum, and its pairs go back only to its own
            # leaf's members.
            if n == 1:
                out[i0:i1] += r @ weights
            else:
                pick = plan.pick[i0:i1]
                out[i0:i1] += (r @ weights).ravel()[pick]
            if k1 > k0:
                back = r[:, k0:k1] if n == 1 else r[:, k0:k1] * member[k0:k1].T[pick % n]
                out[later] += src_chg[i0:i1] @ back
    return out
