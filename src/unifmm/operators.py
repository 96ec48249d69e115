"""Kernel-independent FMM operators on cube surface grids.

Each box carries two expansion vectors of length 6*(order-1)**2 + 2: an
outgoing one (``u``, densities on an equivalent surface just outside the
box) and an incoming one (``d``, densities on a larger surface whose
field represents all well-separated sources inside the box). Operators
are built by evaluating the kernel between surface grids and solving the
resulting check-surface systems with a truncated SVD.

The 1/r kernel is homogeneous, so the source-to-up solve is the only
level-dependent factor (it scales linearly with the box side); the
up-to-up, transfer (M2L), and down-to-down matrices are shared by every
level.

The build makes exactly two SVDs, one per check-surface system. A
child's downward check system is the parent's halved in size and moved,
so by homogeneity and translation invariance it is twice the parent's
matrix and its solve is ``0.5 * dc2e_inv``. The source equivalent and
target check surfaces of M2L are the same origin-symmetric lattice, and
it maps onto itself under the 48 axis permutations and sign flips of the
cube. Such a map ``g`` permutes the lattice points, so
``m2l[g t] = m2l[t][rho][:, rho]`` with ``rho`` its index permutation
(the solve commutes with it because the check system is invariant).

Only the 56 transfer vectors with no negative component (one orthant)
are stored. They fall into 16 classes under the axis permutations; a
canonical vector of each class (its sorted components) gets a kernel
matrix and a product with the solve, and the other 40 are index gathers
of those 16. Every other transfer vector ``t`` is a sign flip of its
orthant vector ``|t|``, and flips are involutions, so its matrix is
``m2l[|t|][p][:, p]`` with ``p = flip_perm[f]``, ``f`` the bit mask of
the negative axes of ``t``. :func:`apply_m2l` never forms it: it writes
the 8 flipped frames ``u[:, flip_perm[f]]`` of the source rows once,
runs one product per stored matrix over all pairs of its (up to 8)
flipped vectors into per-flip accumulators, and folds accumulator ``f``
back into ``d`` through ``flip_perm[f]``. The 8 child octants are the
sign flips of child octant 0 in the same way, so U2U and D2D store one
matrix each and run one product per level over all children in their
flip frames. A flipped U2U matrix carries a permuted copy of the
truncated up solve, equal to the solve S2U uses only to about 4e-7 at
order 8; this raised the order-8 error against direct summation by
about 8% (to 1.1e-8, within ``FROZEN_EPS[8]``) and left orders 2 to 6
unchanged to three digits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import morton
from .kernels import laplace_potential
from .tree import TRANSFER_VECTORS

# The 56 transfer vectors with no negative component, sorted; per transfer
# vector the row of its absolute value here and the bit mask of its
# negative axes (bit a for axis a).
ORTHANT_VECTORS, TRANSFER_ORTHANT = np.unique(
    np.abs(TRANSFER_VECTORS), axis=0, return_inverse=True
)
TRANSFER_ORTHANT = TRANSFER_ORTHANT.reshape(-1)
TRANSFER_FLIP = (TRANSFER_VECTORS < 0) @ np.array([1, 2, 4])

# Surface scale factors relative to the box side: equivalent surface just
# outside the box, check surface just inside the colleague halo (3x box).
UPWARD_EQUIV_SCALE = 1.05
UPWARD_CHECK_SCALE = 2.95

# Relative singular-value cutoffs for the check->equivalent solves.
SVD_CUTOFF = {"f64": 1e-10, "f32": 1e-5}

# Measured end-to-end relative L2 error of the depth-3 uniform pipeline
# versus direct summation (2000 and 4096 uniform points: 1.5e-2, 1.9e-4,
# 4.6e-5, 2.5e-7, 8.9e-9 for orders 2, 3, 4, 6, 8), frozen with ~3x
# headroom as regression bounds. See tests/test_acceptance.py.
FROZEN_EPS = {
    2: 5.0e-2,
    3: 6.0e-4,
    4: 1.5e-4,
    6: 1.0e-6,
    8: 3.0e-8,
}


def frozen_eps(order):
    """Frozen measured accuracy bound for ``order``; errors for orders
    without a recorded measurement fall back to the next looser bound."""
    if order in FROZEN_EPS:
        return FROZEN_EPS[order]
    lower = [o for o in FROZEN_EPS if o < order]
    if not lower:
        raise ValueError(f"no frozen accuracy bound at or below order {order}")
    return FROZEN_EPS[max(lower)]


class OperatorFactorizationError(RuntimeError):
    """Check-surface system could not be factorized."""


def expansion_length(order):
    """Number of surface points / expansion coefficients for ``order``."""
    if order < 2:
        raise ValueError(f"expansion order must be >= 2, got {order}")
    return 6 * (order - 1) ** 2 + 2


def _surface_lattice(order):
    """Integer indices (n, 3) into the order**3 lattice of its outer shell,
    in the point order of :func:`surface_grid`."""
    ii, jj, kk = np.meshgrid(np.arange(order), np.arange(order), np.arange(order), indexing="ij")
    on_surface = (
        (ii == 0) | (ii == order - 1) | (jj == 0) | (jj == order - 1) | (kk == 0) | (kk == order - 1)
    )
    return np.stack([ii, jj, kk], axis=-1)[on_surface]


def surface_grid(order, center=(0.0, 0.0, 0.0), side=1.0, scale=1.0):
    """Points on the boundary lattice of a cube of side ``side * scale``.

    The grid has ``order`` points per edge; only the outer shell of the
    order**3 lattice is kept, giving 6*(order-1)**2 + 2 points.
    """
    n = expansion_length(order)
    pts = np.linspace(-0.5, 0.5, order)[_surface_lattice(order)]
    assert pts.shape[0] == n
    return np.asarray(center, dtype=np.float64) + pts * (side * scale)


def _kernel_matrix(targets, sources):
    """Dense 1/r matrix between two point sets (zero on coincidence)."""
    d2 = ((targets[:, None, :] - sources[None, :, :]) ** 2).sum(axis=2)
    with np.errstate(divide="ignore"):
        k = 1.0 / np.sqrt(d2)
    k[d2 == 0.0] = 0.0
    return k


def _tsvd_pinv(mat, cutoff):
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


@dataclass
class OperatorSet:
    """Precomputed level-shared operator matrices for one expansion order.

    ``uc2e_inv``/``dc2e_inv`` are the unit-box check-to-equivalent solve
    operators; at a box of side ``s`` they scale by ``s``. ``u2u`` and
    ``d2d`` are the matrices of child octant 0, ``m2l`` is indexed by the
    row of :data:`ORTHANT_VECTORS`. ``flip_perm[f]`` is the surface-lattice
    permutation of the sign flip of the axes in the bits of ``f``; the
    transfer matrix of a vector ``t`` is ``m2l[|t|][p][:, p]`` with
    ``p = flip_perm[TRANSFER_FLIP[t]]``, and child octant ``o`` (bit a
    set: upper half along axis a) is the flip ``o`` of octant 0, so its
    U2U matrix is ``u2u[p][:, p]`` with ``p = flip_perm[o]`` (D2D alike).
    """

    order: int
    dtype: np.dtype
    equiv_scale: float
    check_scale: float
    svd_cutoff: float
    uc2e_inv: np.ndarray
    dc2e_inv: np.ndarray
    u2u: np.ndarray        # (n_e, n_e), child octant 0
    d2d: np.ndarray        # (n_e, n_e), child octant 0
    m2l: np.ndarray        # (56, n_e, n_e), one per orthant vector
    flip_perm: np.ndarray  # (8, n_e) lattice permutation per axis sign flip
    up_equiv_grid: np.ndarray = field(repr=False)   # unit templates
    up_check_grid: np.ndarray = field(repr=False)
    down_equiv_grid: np.ndarray = field(repr=False)
    down_check_grid: np.ndarray = field(repr=False)

    @property
    def n_coeff(self):
        return expansion_length(self.order)


def _lattice_maps(order):
    """Surface-lattice permutations of the maps M2L is stored under.

    Returns ``(classes, cls, rho, flip_perm)``: the 16 canonical vectors
    (sorted components), the class of every row of
    :data:`ORTHANT_VECTORS`, per row the permutation ``rho`` of the axis
    permutation ``g`` with ``g classes[cls[i]] == ORTHANT_VECTORS[i]``
    (``rho[i][k]`` is the index of the point ``g^-1`` sends lattice point
    ``k`` to), and per flip mask ``f`` the permutation of that sign flip.
    """
    lattice = _surface_lattice(order)
    lookup = np.empty((order,) * 3, dtype=np.int64)
    lookup[tuple(lattice.T)] = np.arange(len(lattice))
    # g: t[a] = t0[perm[a]], perm the inverse of sort_axes, so g^-1 reads
    # axis sort_axes[b] of a point.
    sort_axes = np.argsort(ORTHANT_VECTORS, axis=1, kind="stable")
    classes, cls = np.unique(
        np.take_along_axis(ORTHANT_VECTORS, sort_axes, axis=1), axis=0, return_inverse=True
    )
    rho = lookup[tuple(lattice[:, sort_axes].T)]             # (56, n)
    flips = (np.arange(8)[:, None] >> np.arange(3)) & 1       # (8, 3)
    flipped = np.where(flips[:, None, :] == 1, order - 1 - lattice, lattice)
    flip_perm = lookup[tuple(flipped.transpose(2, 0, 1))]     # (8, n)
    return classes, cls.reshape(-1), rho, flip_perm


def precompute_operators(order, dtype=np.float64, equiv_scale=UPWARD_EQUIV_SCALE,
                         check_scale=UPWARD_CHECK_SCALE, svd_cutoff=None):
    """Build the complete operator set for ``order`` at working ``dtype``.

    Matrices are assembled and factorized in float64 and stored at the
    working precision; at float64 no copy is made.
    """
    dtype = np.dtype(dtype)
    if svd_cutoff is None:
        svd_cutoff = SVD_CUTOFF["f32" if dtype == np.float32 else "f64"]

    up_equiv = surface_grid(order, scale=equiv_scale)
    up_check = surface_grid(order, scale=check_scale)
    down_check = surface_grid(order, scale=equiv_scale)
    down_equiv = surface_grid(order, scale=check_scale)

    uc2e_inv = _tsvd_pinv(_kernel_matrix(up_check, up_equiv), svd_cutoff)
    dc2e_inv = _tsvd_pinv(_kernel_matrix(down_check, down_equiv), svd_cutoff)
    child_inv = 0.5 * dc2e_inv

    # Child octant 0 is centered at -1/4 of the parent side on every axis.
    u2u = uc2e_inv @ _kernel_matrix(up_check, up_equiv * 0.5 - 0.25)
    d2d = child_inv @ _kernel_matrix(down_check * 0.5 - 0.25, down_equiv)

    classes, cls, rho, flip_perm = _lattice_maps(order)
    class_m2l = [dc2e_inv @ _kernel_matrix(down_check, t0 + up_equiv) for t0 in classes]
    n = expansion_length(order)
    m2l = np.empty((len(ORTHANT_VECTORS), n, n), dtype=dtype)
    for i, (c, r) in enumerate(zip(cls, rho)):
        m2l[i] = class_m2l[c][np.ix_(r, r)]

    return OperatorSet(
        order=order,
        dtype=dtype,
        equiv_scale=equiv_scale,
        check_scale=check_scale,
        svd_cutoff=svd_cutoff,
        uc2e_inv=uc2e_inv.astype(dtype, copy=False),
        dc2e_inv=dc2e_inv.astype(dtype, copy=False),
        u2u=u2u.astype(dtype, copy=False),
        d2d=d2d.astype(dtype, copy=False),
        m2l=m2l,
        flip_perm=flip_perm,
        up_equiv_grid=up_equiv,
        up_check_grid=up_check,
        down_equiv_grid=down_equiv,
        down_check_grid=down_check,
    )


_OP_CACHE = {}
_OP_LOCK = threading.Lock()


def get_operator_set(order, dtype=np.float64, equiv_scale=UPWARD_EQUIV_SCALE,
                     check_scale=UPWARD_CHECK_SCALE):
    """Memoized :func:`precompute_operators`; safe to share across ranks
    (operator sets are immutable after construction)."""
    key = (order, np.dtype(dtype).str, equiv_scale, check_scale)
    with _OP_LOCK:
        ops = _OP_CACHE.get(key)
        if ops is None:
            ops = precompute_operators(order, dtype, equiv_scale, check_scale)
            _OP_CACHE[key] = ops
    return ops


class ExpansionStore:
    """Zero-initialized u and d vectors per box, dense per level."""

    def __init__(self, level_sizes, n_coeff, dtype=np.float64):
        self.u = {lvl: np.zeros((n, n_coeff), dtype=dtype) for lvl, n in level_sizes.items()}
        self.d = {lvl: np.zeros((n, n_coeff), dtype=dtype) for lvl, n in level_sizes.items()}

    def reset(self):
        for arr in self.u.values():
            arr[:] = 0
        for arr in self.d.values():
            arr[:] = 0


def store_for_tree(tree, ops):
    sizes = {lvl: len(keys) for lvl, keys in tree.level_keys.items()}
    return ExpansionStore(sizes, ops.n_coeff, dtype=ops.dtype)


def box_side(cube, level):
    return cube.side / (1 << level)


def leaf_s2u_all(tree, ops, charges, out):
    """S2U over every nonempty leaf of the tree, into ``out`` (n_leaves, n_e)."""
    leaf_level = tree.leaf_level
    scale = box_side(tree.cube, leaf_level)
    inv_t = ops.uc2e_inv.astype(np.float64, copy=False).T
    check_template = ops.up_check_grid * scale
    half = 0.5 * scale
    anchors = morton.anchor_lattice(tree.leaves) * scale + np.asarray(tree.cube.origin)
    charges = np.asarray(charges, dtype=np.float64)
    for pos in np.nonzero(tree.level_nonempty[leaf_level])[0]:
        start, end = tree.leaf_ranges[pos]
        check_pts = anchors[pos] + half + check_template
        q = laplace_potential(check_pts, tree.points[start:end], charges[start:end], parallel=False)
        out[pos] = scale * (q @ inv_t)
    return out


_OCTANTS = np.arange(8)[:, None]


def u2u_level(ops, u_child, u_parent):
    """Accumulate child expansions into parents (children are 8*i .. 8*i+7).

    Child octant ``o`` is the flip ``o`` of octant 0: each child is read
    in its flip frame, translated by the one stored matrix, and read back.
    """
    n_p, n_e = u_parent.shape
    framed = u_child.reshape(n_p, 8, n_e)[:, _OCTANTS, ops.flip_perm]
    moved = (framed.reshape(-1, n_e) @ ops.u2u.T).reshape(n_p, 8, n_e)
    u_parent += moved[:, _OCTANTS, ops.flip_perm].sum(axis=1)
    return u_parent


def d2d_level(ops, d_parent, d_child):
    """Push parent local expansions down onto their 8 children, in the
    children's flip frames as in :func:`u2u_level`."""
    n_p, n_e = d_parent.shape
    framed = np.take(d_parent, ops.flip_perm, axis=1)
    moved = (framed.reshape(-1, n_e) @ ops.d2d.T).reshape(n_p, 8, n_e)
    d_child.reshape(n_p, 8, n_e)[:] += moved[:, _OCTANTS, ops.flip_perm]
    return d_child


def upward_pass(tree, ops, store, charges):
    """Post-order pass: S2U at the leaves, then U2U up to the local roots."""
    leaf_s2u_all(tree, ops, charges, store.u[tree.leaf_level])
    for level in range(tree.leaf_level - 1, tree.global_depth - 1, -1):
        u2u_level(ops, store.u[level + 1], store.u[level])
    return store


def group_pairs_by_transfer(tgt_idx, src_rows, tv_idx):
    """Sort interaction pairs by (orthant matrix, flip, target) for
    :func:`apply_m2l`; returns ``(tgt, src, flip, cuts)``, where pairs
    ``cuts[m]:cuts[m + 1]`` use stored matrix ``m``."""
    mat, flip = TRANSFER_ORTHANT[tv_idx], TRANSFER_FLIP[tv_idx]
    # A target meets a vector at most once, so the keys are distinct.
    n_t = int(tgt_idx.max()) + 1 if len(tgt_idx) else 0
    order = np.argsort((mat * 8 + flip) * n_t + tgt_idx)
    cuts = np.searchsorted(mat[order], np.arange(len(ORTHANT_VECTORS) + 1))
    return tgt_idx[order], src_rows[order], flip[order], cuts


def apply_m2l(ops, grouped, u_rows, d):
    """d[tgt] += m2l_t @ u_rows[src] for all grouped pairs, ``m2l_t`` the
    transfer matrix of the pair's vector.

    Runs in the 8 sign-flip frames: source row ``src`` in frame ``f`` is
    ``u_rows[src][flip_perm[f]]`` and accumulates into row ``f * n + tgt``.
    A stored matrix and a flip fix the vector, and each target appears at
    most once per vector, so the rows one product adds to are distinct.
    """
    tgt, src, flip, cuts = grouped
    n_t, n_e = d.shape
    frames = np.take(u_rows, ops.flip_perm, axis=1).reshape(-1, n_e)
    rows_in = 8 * src + flip
    rows_out = flip * n_t + tgt
    acc = np.zeros((8 * n_t, n_e), dtype=d.dtype)
    for m in np.flatnonzero(cuts[1:] > cuts[:-1]):
        a, b = cuts[m], cuts[m + 1]
        acc[rows_out[a:b]] += frames[rows_in[a:b]] @ ops.m2l[m].T
    acc = acc.reshape(8, n_t, n_e)
    for f in range(8):
        d += acc[f][:, ops.flip_perm[f]]
    return d


@dataclass
class VListPlan:
    """Static V-list application plan: per level, transfer-grouped pairs
    whose source rows index the local u matrix extended by ghost rows."""

    grouped: dict            # level -> (tgt, src, flip, cuts)
    n_ghost_rows: dict       # level -> rows appended below the local u


def vli_downward(tree, ops, store, plan, ghost_u):
    """Pre-order pass over the local levels: inherit the parent local
    expansion (D2D), then apply the level's V-list interactions. Remote
    sources come from ``ghost_u[level]`` rows appended below the local u.
    """
    for level in range(tree.global_depth, tree.leaf_level):
        d2d_level(ops, store.d[level], store.d[level + 1])
        lvl = level + 1
        g = plan.grouped.get(lvl)
        if g is None:
            continue
        n_ghost = plan.n_ghost_rows.get(lvl, 0)
        if n_ghost:
            u_rows = np.concatenate([store.u[lvl], ghost_u[lvl]], axis=0)
        else:
            u_rows = store.u[lvl]
        apply_m2l(ops, g, u_rows, store.d[lvl])
    return store


def d2t(tree, ops, store):
    """Evaluate leaf local expansions at the targets inside each leaf."""
    out = np.zeros(tree.n_points, dtype=np.float64)
    leaf_level = tree.leaf_level
    d = store.d[leaf_level]
    side = box_side(tree.cube, leaf_level)
    template = ops.down_equiv_grid * side
    anchors = morton.anchor_lattice(tree.leaves) * side + np.asarray(tree.cube.origin)
    for pos in np.nonzero(tree.level_nonempty[leaf_level])[0]:
        start, end = tree.leaf_ranges[pos]
        eq_pts = anchors[pos] + 0.5 * side + template
        laplace_potential(
            tree.points[start:end],
            eq_pts,
            d[pos].astype(np.float64, copy=False),
            out=out[start:end],
            parallel=False,
        )
    return out
