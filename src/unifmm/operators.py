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

The build factorizes one check system, the upward one. Its check and
equivalent surfaces are one lattice, which maps onto itself under the 8
axis sign flips, and the system commutes with them; in the orthonormal
basis of the flip group's 8 characters it is block diagonal
(:func:`flip_blocks`: 8 blocks of 37 at order 8 for the 296 lattice
points, of unequal sizes at odd orders, whose center planes hold orbits
of fewer than 8 points). The build evaluates the system's rows at one
point per orbit, takes one SVD per block, drops the singular values
below the per-order :data:`SVD_CUTOFF` times the largest of all blocks,
and assembles a solve that depends on two points' flips only through
their xor, so it commutes with every flip exactly. The downward surfaces
are the upward ones with their roles swapped and the kernel is
symmetric, so the downward check system is the transpose of the upward
one and M2L solves it with ``uc2e_inv.T``. A child's downward check
system is the parent's halved in size and moved, so by homogeneity and
translation invariance it is twice the parent's matrix and D2D solves
it with ``0.5 * uc2e_inv.T``. The source equivalent and target check
surfaces of M2L are the same origin-symmetric lattice, and it maps onto
itself under the 48 axis permutations and sign flips of the cube. Such
a map ``g`` permutes the lattice points, so
``m2l[g t] = m2l[t][rho][:, rho]`` with ``rho`` its index permutation
(the solve commutes with it because the check system is invariant).

The 316 transfer vectors fall into 16 classes under these maps. The
canonical vector of each (its sorted absolute components,
:data:`CLASS_VECTORS`) gets a class matrix, the solve times its kernel.
A map that fixes the canonical vector (one of the class's stabilizer,
:data:`CLASS_STABILIZERS`, 1 to 8 maps) leaves the class matrix
invariant, so the build forms only its columns at one lattice point per
orbit of the stabilizer (2090 of the 16 classes' 4736 columns at order
8, 1102 of 2432 at order 6) and fills the others with permuted copies
(:func:`orbit_fill`). The kernel between two lattice points depends only
on the difference of their lattice indices, so those kernel columns are
gathered from one table over the (2 * order - 1)**3 differences
(:func:`class_kernel_table`). U2U and D2D are invariant under the 6 axis
permutations, which fix child octant 0's center, and are built the same
way (64 of 296 columns at order 8). Each built matrix is thus invariant
under its group bit for bit, where dense products were only to rounding
of the solve (up to 5.8e-8 of the largest entry at order 8).

One construction, :func:`lattice_orbits`, serves every group the build
uses: the 8 flips of the check solve, the 7 distinct class stabilizers
and the axis permutations, each acting on the lattice through its rows
of :attr:`OperatorSet.sym_perm`, which is one lookup of every
:data:`SYM_MATRICES` map of the lattice. It represents each orbit by its
greatest lattice index (for the flips, the point with no coordinate
below the center), and gives each point's orbit and the least element
that maps the representative to it, each orbit's size, and the elements
that fix its representative: a flip character lives on an orbit when it
is 1 on every flip that fixes the representative. The build takes, in
thread CPU with one BLAS thread on one pinned CPU of a 2-vCPU AVX-512
Xeon host (medians of 30 alternating builds, dense products in
brackets): 1.0 ms (0.8) at order 2, 1.9 (1.4) at 4, 5.4 (5.9) at 6, 10.8
(13.5) at 7 and 21.7 (30.5) at 8; below order 6 the orbit bookkeeping
still costs more than the products it saves.

These 16 class matrices are all an operator set stores at first: vector
``t`` reads its class matrix under the permutation of the symmetry that
maps it to its canonical vector (:data:`TRANSFER_CLASS`,
:data:`TRANSFER_SYM`, :attr:`OperatorSet.sym_perm`). M2L runs a level
one of two ways, chosen per level by its pair count (:func:`plan_m2l`):

- A sparse level, of at most :data:`SPARSE_PAIRS` pairs (1792, 32 per
  orthant matrix on average), runs through the class matrices
  (:func:`group_pairs_by_class`). Its pairs are sorted by (class,
  symmetry, target) and cut into chunks of at most
  :data:`CLASS_CHUNK_ENTRIES` entries. Per chunk one take gathers each
  source row under its symmetry's inverse permutation, one GEMM per
  class runs with the class matrix, one take reads the products back
  under their permutations in target order, and one ``np.add.reduceat``
  sums each target's rows into ``d``. A level of few pairs reads 16
  matrices once instead of 56, in GEMMs of more rows.
- A dense level runs in the 8 sign-flip frames of the 56 transfer
  vectors with no negative component (one orthant;
  :func:`group_pairs_by_transfer`). The orthant matrices are the class
  matrices of the 16 canonical vectors and gathered copies for the
  other 40, which :func:`ensure_orthant_m2l` builds once per operator
  set, and setup only when some level of its plans is dense (at order 8
  28 MB, against 11 MB for the class matrices). Every other transfer
  vector ``t`` is a sign flip of its orthant vector ``|t|``, and flips
  are involutions, so its matrix is ``m2l[|t|][p][:, p]`` with ``p =
  flip_perm[f]``, ``f`` the bit mask of the negative axes of ``t``.
  :func:`apply_m2l` never forms it: it writes the 8 flipped frames
  ``u[:, flip_perm[f]]`` of the source rows once and takes the targets
  in tiles of :data:`M2L_TILE_TARGETS`. Per tile it runs one product
  per stored matrix over the tile's pairs of its (up to 8) flipped
  vectors into per-flip accumulators and folds accumulator ``f`` back
  into ``d`` through ``flip_perm[f]``. A tile's accumulators fit in
  L2, where a whole level's (4.75 MB at order 6 for 512 targets) did
  not, and the scatter-adds into them missed. Tiling keeps every sum in
  its order but gives each GEMM fewer rows, and OpenBLAS rounds the rows
  of a GEMM's M remainder differently, so a level of more than one tile
  may differ from the untiled result by rounding (order 7, P=1: 5e-18
  relative L2 on a 4096-point cube; bit-identical at the other orders).
  The rows each product reads and adds to are planned once per set of
  pairs. Setup plans a level's V pairs from its box lattice
  (:class:`lattice.BoxLattice`, :func:`plan_lattice`), which gives them
  already in this order, so a dense level's plan takes no sort;
  :func:`plan_m2l` plans any pairs given, and the tests check the
  lattice's plans against it.

The two ways form the same products and sum each target's in another
order, so they agree to rounding (about 1e-15 relative). The class path
wins where a level has few pairs per stored matrix, the tiled one where
its frames and tiles pay off. Time of the class path over the tiled one
on one level, the V pairs of the first k boxes of a full level-4 cube
with ``u`` holding just the rows they read (one BLAS thread, one CPU, a
2-vCPU host whose speed swings by up to 2x):

=====  =========  =========  =========  =========  =========
order  387 pairs  1005       1623       2595       6669
=====  =========  =========  =========  =========  =========
2      0.19       0.25       0.32       0.43       0.69
4      0.43       0.63       0.78       1.01       1.48
6      0.60       0.79       0.90       1.07       1.43
8      0.50       0.72       0.88       1.08       1.35
=====  =========  =========  =========  =========  =========

Orders 4-8 cross near 2600 pairs, so :data:`SPARSE_PAIRS` sits below the
crossover at every order; order 2 gains at every count measured (0.73 at
14817 pairs). Either way an evaluate only gathers, multiplies and adds.
The 8 child octants are the sign flips of child octant 0 in the same
way, so U2U and D2D store one matrix each and run one product per level
over all children in their flip frames.
A flipped U2U matrix carries a permuted copy of the truncated up solve,
which is the solve S2U uses, since the solve commutes with the flips
(one dense SVD of the whole system commuted only to 4.3e-7 at order 8).
The kept singular values nearest the cutoff have directions that only
rounding fixes, so the error against direct summation still depends on
the factorization: over numpy's and scipy's SVDs of the blocks and of
their transposes the order-8 error read 1.9e-9 to 3.1e-9 (``fmm
verify`` on 4096 uniform points, P=1, seeds 0-3; 2.0e-9 to 2.1e-9 with
numpy's), against 1.9e-9 to 1.9e-8 for one dense SVD at cutoff 1e-10.

S2U and D2T evaluate one fixed surface template shifted to each leaf (as
in the KIFMM of Ying, Biros & Zorin, JCP 2004), in units of the leaf
side. Each point's offset from its leaf center meets the unit template
in one distance block, built for many leaves at once by the template
kernel (:func:`kernels.template_inverse_distances`): one GEMM of the
offsets' rows [o, |o|^2, 1], laid out with the tree
(:attr:`UniformTree.leaf_offset_operand`), with the template's columns
[-2y; 1; |y|^2], built once per operator set (``leaf_template``). The
template is at least 0.975 leaf sides from every point of its leaf, so
the squared distances lose at most about 12 ulps to cancellation. S2U
weights a block's rows by the charges, sums each leaf's rows, and
applies the up solve to all leaves in one matrix product, whose scaling
by the leaf side cancels that of the sums; D2T dots each point's row
with its leaf's ``d`` and divides by the side. S2U blocks keep leaves
whole (a leaf larger than a block is cut at fixed multiples of the block
rows from its own start), and the kernel gives a row the same bits in
any block, so a leaf's check sums do not depend on which leaves share
its block, and thus have the same bits at any rank count. The expansions
do not: the one GEMM with the solve rounds a row differently depending
on how many rows share the call. At P=8 against P=1 (``fmm verify``:
uniform cube N=4096, d_g=1, d_l=2, seeds 0-3) the potentials differ by
7.9e-14 to 3.8e-13 relative L2 at order 7, 2.0e-14 to 2.6e-14 at order
5, and by under 2e-16 at the even orders.
"""

from __future__ import annotations

import itertools
import threading
from typing import NamedTuple
from dataclasses import dataclass, field

import numpy as np

from . import morton
from .kernels import (
    BLOCK_ENTRIES,
    _changes,
    inverse_distances,
    template_inverse_distances,
    template_operand,
)
from .lattice import (
    M2L_TILE_TARGETS,
    ORTHANT_VECTORS,
    TRANSFER_FLIP,
    TRANSFER_ORTHANT,
    TRANSFER_VECTORS,
    V_SLOTS,
)

# The 48 symmetries of the cube, index ``perm * 8 + flip``: the sign flip of
# the axes in the bits of ``flip``, then the axis permutation
# ``AXIS_PERMS[perm]`` (identity first), so indices 0-7 are the flips. As a
# signed permutation matrix, symmetry ``s`` maps ``x`` to ``SYM_MATRICES[s]
# @ x``, whose axis ``b`` is axis ``AXIS_PERMS[perm][b]`` of the flipped
# ``x``; ``SYM_INVERSE[s]`` is the index of its inverse.
AXIS_PERMS = np.array(list(itertools.permutations(range(3))))
_FLIP_SIGNS = 1 - 2 * ((np.arange(8)[:, None] >> np.arange(3)) & 1)      # (8, 3)
SYM_MATRICES = (np.eye(3, dtype=np.int64)[AXIS_PERMS][:, None]
                * _FLIP_SIGNS[:, None, :]).reshape(48, 3, 3)
SYM_INVERSE = (SYM_MATRICES[:, None] == SYM_MATRICES.transpose(0, 2, 1)).all(axis=(2, 3)).argmax(0)
SYM_INVERSE = SYM_INVERSE.astype(np.int8)

# The 16 classes of transfer vectors under the symmetries, each named by its
# sorted absolute components (its canonical vector); per transfer vector
# ``t`` its class and the symmetry that maps it to the canonical vector:
# the flip of its negative axes, then the permutation that sorts ``|t|``.
_SORT_AXES = np.argsort(np.abs(TRANSFER_VECTORS), axis=1, kind="stable")
CLASS_VECTORS, TRANSFER_CLASS = np.unique(
    np.take_along_axis(np.abs(TRANSFER_VECTORS), _SORT_AXES, axis=1), axis=0, return_inverse=True
)
TRANSFER_CLASS = TRANSFER_CLASS.reshape(-1)
TRANSFER_SYM = (_SORT_AXES[:, None] == AXIS_PERMS).all(axis=2).argmax(axis=1) * 8 + TRANSFER_FLIP
TRANSFER_SYM = TRANSFER_SYM.astype(np.int8)
# The same per orthant vector; its symmetry is an axis permutation, the
# identity exactly for the canonical vector of its class.
ORTHANT_CLASS, ORTHANT_SYM = np.empty((2, len(ORTHANT_VECTORS)), dtype=np.int64)
ORTHANT_CLASS[TRANSFER_ORTHANT] = TRANSFER_CLASS
ORTHANT_SYM[TRANSFER_ORTHANT] = TRANSFER_SYM - TRANSFER_FLIP

# Per class the symmetries that fix its canonical vector (its stabilizer),
# ascending, so the identity first: 8, 8, 2, 2, 4, 2, 4, 2, 2, 2, 1, 2, 6,
# 2, 2, 6 of them. Each class matrix is invariant under its stabilizer, and
# U2U and D2D under the 6 axis permutations, which fix child octant 0's
# center (-1/4, -1/4, -1/4); the build forms them at one column per orbit
# (:func:`lattice_orbits`).
CLASS_STABILIZERS = tuple(np.flatnonzero((SYM_MATRICES @ v == v).all(axis=1)) for v in CLASS_VECTORS)
AXIS_PERM_SYMS = np.arange(len(AXIS_PERMS)) * 8

# Surface scale factors relative to the box side: equivalent surface just
# outside the box, check surface just inside the colleague halo (3x box).
UPWARD_EQUIV_SCALE = 1.05
UPWARD_CHECK_SCALE = 2.95

# Relative singular-value cutoffs of the check solve, per precision and
# order (an order past a table's last falls back to it). Each sits in a
# gap of its order's spectrum, so rounding cannot move a singular value
# across it. At orders 7 and 8 the f64 cutoff drops directions that only
# rounding fixes: at 1e-10 the flip-block solve read errors against
# direct summation of 3.7e-8 (order 7) and 5.4e-8 (order 8), where 5e-9
# and 1.3e-9 read 1.1-1.2e-8 and 1.9-2.1e-9 (``fmm verify``, 4096 uniform
# points, d_g=1, d_l=2, seeds 0-3). In f32 the rounding of the stored
# matrices, amplified by the kept spectrum, dominates from order 5 on,
# and the error jumps by up to 100x between neighbouring cutoffs; orders 6
# and 7 keep less than 1e-5 (4.4e-5 and 1.1e-5 against 8.1e-5 and 7.9e-5).
SVD_CUTOFF = {
    "f64": {2: 1e-10, 3: 1e-10, 4: 1e-10, 5: 1e-10, 6: 1e-10, 7: 5e-9, 8: 1.3e-9},
    "f32": {2: 1e-5, 3: 1e-5, 4: 1e-5, 5: 1e-5, 6: 3e-5, 7: 4.5e-5, 8: 1e-5},
}

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


# The same in f32, where the f32 cutoff stops the error falling with the
# order. Measured by ``fmm verify --precision f32`` (4096 uniform points,
# P=8, d_g=1, d_l=2, seeds 0-3): 1.6e-2, 1.9e-4, 3.6e-5, 5.5e-5, 8.0e-5,
# 7.1e-5 and 1.9e-4 for orders 2-8; orders 3 and 4 were first frozen from
# P=8 runs on 800 and 2000 points (at most 2.0e-4 and 3.8e-5).
F32_EPS = {
    2: 5.0e-2,
    3: 6.0e-4,
    4: 1.2e-4,
    5: 1.7e-4,
    6: 2.4e-4,
    7: 2.2e-4,
    8: 6.0e-4,
}


def _at_order(table, order, what):
    """``table``'s entry for ``order``, else that of the highest order
    below it."""
    lower = [o for o in table if o <= order]
    if not lower:
        raise ValueError(f"no {what} at or below order {order}")
    return table[max(lower)]


def frozen_eps(order, precision="f64"):
    """Frozen measured accuracy bound for ``order`` at ``precision``;
    errors for orders without a recorded measurement fall back to the
    next looser bound."""
    return _at_order(F32_EPS if precision == "f32" else FROZEN_EPS, order,
                     "frozen accuracy bound")


def svd_cutoff(order, precision="f64"):
    """Relative singular-value cutoff of the check solve (:data:`SVD_CUTOFF`)."""
    return _at_order(SVD_CUTOFF[precision], order, "check-solve cutoff")


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
    lattice = np.indices((order,) * 3).reshape(3, -1).T
    return lattice[((lattice == 0) | (lattice == order - 1)).any(axis=1)]


def surface_grid(order, center=(0.0, 0.0, 0.0), side=1.0, scale=1.0):
    """Points on the boundary lattice of a cube of side ``side * scale``.

    The grid has ``order`` points per edge; only the outer shell of the
    order**3 lattice is kept, giving 6*(order-1)**2 + 2 points.
    """
    n = expansion_length(order)
    pts = np.linspace(-0.5, 0.5, order)[_surface_lattice(order)]
    assert pts.shape[0] == n
    return np.asarray(center, dtype=np.float64) + pts * (side * scale)


# The characters of the flip group: ``FLIP_CHARACTERS[f, g]`` is
# (-1)^popcount(f & g), the value of character ``g`` at the flip ``f``.
FLIP_CHARACTERS = 1.0 - 2.0 * (np.bitwise_count(np.arange(8)[:, None] & np.arange(8)) & 1)


def flip_blocks(a_rep, flips):
    """The check system ``A`` (check points by equivalent points of one
    surface lattice) in the orthonormal basis of the flip group's
    characters, from ``a_rep``, its rows at the representatives of
    ``flips``: the :func:`lattice_orbits` of the 8 flips, ``syms`` 0-7, so
    an element's index is its flip. ``A`` commutes with the flips, so the
    basis makes it block diagonal.

    The basis vector of character ``g`` on an orbit ``O`` is the sum of
    ``g(f_y) e_y / sqrt(|O|)`` over the orbit's points ``y``, ``f_y`` the
    flip that maps the representative to ``y``. It exists for the ``g``
    that are 1 on every flip that fixes the representative, and by the
    flip invariance the block entry of two such orbits ``O, O'`` is
    ``sqrt(|O| |O'|) / 8`` times the sum over the flips ``f`` of ``g(f)
    A[x_O, f x_O']``. Returns per character its orbits and its block over
    them: 8 blocks of ``len(reps)`` at even orders; at odd orders only the
    trivial character's block is that large."""
    # The flips are involutions, so their inverse permutations are theirs.
    c = a_rep[:, flips.inverse[:, flips.reps].T]    # c[O, O', f] = A[x_O, f x_O']
    b = (c @ FLIP_CHARACTERS).transpose(2, 0, 1)    # b[g, O, O']
    b *= np.sqrt(np.outer(flips.size, flips.size)) / 8
    stab = flips.stabilizer
    keeps = [np.flatnonzero(row) for row in FLIP_CHARACTERS @ stab == stab.sum(axis=0)]
    return [(keep, block[np.ix_(keep, keep)]) for keep, block in zip(keeps, b)]


def _flip_solve(blocks, flips, cutoff):
    """The check solve ``A⁺`` from the flip blocks of ``A``
    (:func:`flip_blocks`), truncated at ``cutoff`` times the largest
    singular value over all blocks, in the lattice's point order.

    Each block's truncated pseudo-inverse ``P_g`` is written into an orbit
    by orbit matrix, zero at the orbits the character skips. Entry ``(y,
    z)`` of ``A⁺``, ``y`` in orbit ``O'`` and ``z`` in ``O``, is then
    ``sum_g g(f_y ^ f_z) P_g[O', O] / sqrt(|O'| |O|)``: it depends on the
    flips only through ``f_y ^ f_z``, so the solve commutes with every
    flip exactly, not just to rounding."""
    try:
        factors = [np.linalg.svd(block) for _, block in blocks]
    except np.linalg.LinAlgError as exc:
        raise OperatorFactorizationError(
            f"SVD of a check-surface flip block failed: {exc}"
        ) from exc
    s_max = max(s[0] for _, s, _ in factors)
    if s_max == 0.0:
        raise OperatorFactorizationError(
            "check-surface system is identically zero (condition number inf)"
        )
    n_orb = len(flips.reps)
    pinv = np.zeros((8, n_orb, n_orb))
    for (keep, _), (u, s, vt), out in zip(blocks, factors, pinv):
        k = s >= cutoff * s_max
        out[np.ix_(keep, keep)] = (vt[k].T / s[k]) @ u[:, k].T
    by_flip = (FLIP_CHARACTERS @ pinv.reshape(8, -1)).reshape(8, n_orb, n_orb)
    by_flip /= np.sqrt(np.outer(flips.size, flips.size))
    flip, orbit = flips.element, flips.orbit
    return by_flip[flip[:, None] ^ flip, orbit[:, None], orbit]


@dataclass
class OperatorSet:
    """Precomputed level-shared operator matrices for one expansion order.

    ``uc2e_inv`` is the unit-box check-to-equivalent solve, its transpose
    the downward one; at a box of side ``s`` it scales by ``s``.
    ``down_equiv_grid`` is ``up_check_grid``, and ``leaf_template`` is
    its :func:`kernels.template_operand`, which S2U and D2T measure
    points against in units of the leaf side. ``u2u`` and ``d2d`` are the
    matrices of child octant 0. ``sym_perm[s]`` is the surface-lattice
    permutation of symmetry ``s``: ``sym_perm[s][k]`` is the index of the
    lattice point ``SYM_MATRICES[s] @ x_k``, ``x_k`` the point ``k``
    (centered), and its first 8 rows are the sign flips (``flip_perm``).

    ``m2l_class`` holds one transfer matrix per class, that of its
    canonical vector (:data:`CLASS_VECTORS`); the matrix of a transfer
    vector ``t`` is ``m2l_class[c][p][:, p]`` with ``c =
    TRANSFER_CLASS[t]`` and ``p = sym_perm[TRANSFER_SYM[t]]``. The tiled
    M2L path reads the 56 orthant matrices instead, ``m2l[i]`` for row
    ``i`` of :data:`ORTHANT_VECTORS` (the vector ``t`` reads row
    ``TRANSFER_ORTHANT[t]`` under ``flip_perm[TRANSFER_FLIP[t]]``): the
    16 class matrices and 40 axis-permuted copies of them
    (``m2l_copies``). ``m2l_class`` is the head of one block of 56
    matrices whose tail holds the copies; ``m2l`` and ``m2l_copies`` are
    None, and the tail unwritten, until :func:`ensure_orthant_m2l` writes
    them. Child octant ``o`` (bit a set: upper half along axis a)
    is the flip ``o`` of octant 0, so its U2U matrix is ``u2u[p][:, p]``
    with ``p = flip_perm[o]`` (D2D alike).
    """

    order: int
    dtype: np.dtype
    svd_cutoff: float
    uc2e_inv: np.ndarray
    u2u: np.ndarray        # (n_e, n_e), child octant 0
    d2d: np.ndarray        # (n_e, n_e), child octant 0
    m2l_class: np.ndarray  # (16, n_e, n_e), one per class
    sym_perm: np.ndarray   # (48, n_e) lattice permutation per cube symmetry
    up_equiv_grid: np.ndarray = field(repr=False)   # unit templates
    up_check_grid: np.ndarray = field(repr=False)
    leaf_template: np.ndarray = field(repr=False)   # (5, n_e)
    m2l_copies: np.ndarray = field(default=None, repr=False)  # (40, n_e, n_e)
    m2l: tuple = field(default=None, repr=False)              # 56 x (n_e, n_e)

    @property
    def down_equiv_grid(self):
        return self.up_check_grid

    @property
    def flip_perm(self):
        return self.sym_perm[:8]

    @property
    def n_coeff(self):
        return expansion_length(self.order)


def _symmetry_perms(order):
    """The (48, n) surface-lattice permutations of the cube's symmetries,
    in the order of :data:`SYM_MATRICES`: row ``s`` sends each point to
    the one at ``SYM_MATRICES[s]`` times its coordinates from the
    lattice's center, found by its flat index in the order**3 lattice."""
    lattice = _surface_lattice(order)
    strides = np.array([order * order, order, 1])
    lookup = np.empty(order**3, dtype=np.intp)
    lookup[lattice @ strides] = np.arange(len(lattice))
    # Symmetry S sends the doubled coordinates c from the center to S c, at
    # flat index (strides . (S c + order - 1)) / 2, and strides . S c is
    # (S^T strides) . c.
    doubled = (SYM_MATRICES.transpose(0, 2, 1) @ strides) @ (2 * lattice - (order - 1)).T
    return lookup[(doubled + (order - 1) * strides.sum()) // 2]


class LatticeOrbits(NamedTuple):
    """The surface lattice's orbits under a group of ``m`` cube symmetries
    (:func:`lattice_orbits`)."""

    reps: np.ndarray        # per orbit its greatest point, ascending
    size: np.ndarray        # per orbit its number of points
    stabilizer: np.ndarray  # (m, n_r) whether each element fixes each representative
    orbit: np.ndarray       # per point its orbit
    element: np.ndarray     # per point the least element that maps its representative to it
    fixed: np.ndarray       # the orbits whose representative a non-identity element fixes
    least: np.ndarray       # per such orbit and point, the flat index of its least image
    inverse: np.ndarray     # (m, n) the elements' inverse lattice permutations
    source: np.ndarray      # per point, orbit * m + element


def lattice_orbits(syms, sym_perm):
    """The :class:`LatticeOrbits` of the group of the ``m`` symmetries
    ``syms`` (identity first), acting on the lattice through ``sym_perm``;
    its elements are indexed by their position in ``syms``. Each orbit is
    represented by its greatest lattice index, for the 8 flips the point
    with no coordinate below the lattice's center. Point ``j`` lies in
    orbit ``orbit[j]``, and ``element[j]`` is the least ``s`` with ``p_s[r]
    = j``, ``r`` the orbit's representative; ``source`` combines the two
    for :func:`orbit_fill`. For an orbit ``k`` whose representative ``r``
    some non-identity element fixes, ``least`` holds at each point the
    flat index, into ``n_r`` rows of ``n``, of row ``k`` at the point's
    least image under the elements that fix ``r``."""
    perms, inverse = sym_perm[syms], sym_perm[SYM_INVERSE[syms]]
    m, n = perms.shape
    points = np.arange(n)
    element = inverse.argmax(axis=0)
    rep = inverse[element, points]
    reps = np.flatnonzero(rep == points)
    stabilizer = perms[:, reps] == reps
    count = stabilizer.sum(axis=0)
    fixed = np.flatnonzero(count > 1)
    least = np.where(stabilizer[:, fixed, None], perms[:, None, :], n).min(axis=0)
    least += fixed[:, None] * n
    orbit = np.searchsorted(reps, rep)
    return LatticeOrbits(reps, m // count, stabilizer, orbit, element, fixed, least, inverse,
                         orbit * m + element)


def orbit_fill(cols, orbits):
    """The (n, n) matrix ``M`` invariant under the group of ``orbits``
    (``M[p][:, p] == M`` bit for bit for every element's permutation
    ``p``) whose columns at the orbit representatives are the rows of
    ``cols`` (n_r, n), which this overwrites. ``M`` is returned as the
    transpose of a C-contiguous array.

    Invariance fixes every other column: ``M[:, p_s[r]] = M[p_s^-1, r]``.
    A representative's column is first read at each point's least image
    under the elements that fix the representative, which makes it
    invariant under them; column ``p_s[r]`` is then read through the least
    element ``s`` that maps ``r`` to it."""
    cols[orbits.fixed] = np.take(cols, orbits.least)
    images = np.take(cols, orbits.inverse, axis=1)          # (n_r, m, n)
    return np.take(images.reshape(-1, cols.shape[1]), orbits.source, axis=0).T


def class_kernel_table(order):
    """The kernel between the unit equivalent lattice and its translates by
    the 16 class vectors, once per lattice difference: entry ``(c, k)`` is
    1/|CLASS_VECTORS[c] + UPWARD_EQUIV_SCALE * m / (order - 1)| for the
    difference ``m`` of lattice indices at flat index ``k`` of the
    (2 * order - 1)**3 grid of differences (:func:`_lattice_differences`)."""
    steps = np.arange(1 - order, order) * (UPWARD_EQUIV_SCALE / (order - 1))
    sq = np.square(CLASS_VECTORS[:, :, None] + steps)           # (16, 3, 2 * order - 1)
    r = sq[:, 0, :, None, None] + sq[:, 1, None, :, None]
    r = r + sq[:, 2, None, None, :]
    np.sqrt(r, out=r)
    return np.reciprocal(r, out=r).reshape(len(CLASS_VECTORS), -1)


def _lattice_differences(order):
    """(n, n) flat indices into :func:`class_kernel_table`'s grid of the
    lattice differences ``l_j - l_i`` of surface points ``i, j``, in the
    smallest signed integer type that holds them (int16 up to order 16)."""
    width = 2 * order - 1
    center = (order - 1) * (width * width + width + 1)
    base = (_surface_lattice(order) @ np.array([width * width, width, 1]))
    base = base.astype(np.min_scalar_type(-(width**3)))
    return base - (base - center)[:, None]


def precompute_operators(order, dtype=np.float64):
    """Build the operator set for ``order`` at working ``dtype``, without
    the orthant M2L matrices (:func:`ensure_orthant_m2l`).

    Matrices are assembled and factorized in float64 and stored at the
    working precision; at float64 no copy is made. The check solve is
    factorized in the flip blocks of its system (:func:`flip_blocks`),
    whose rows at the orbit representatives are the only check-system
    kernel entries evaluated. The class transfer matrices, U2U and D2D
    are each multiplied out at one column per orbit of the symmetries
    that leave them invariant (:func:`orbit_fill`); the class kernels'
    columns are gathered from one table of lattice differences
    (:func:`class_kernel_table`).
    """
    dtype = np.dtype(dtype)
    cutoff = svd_cutoff(order, "f32" if dtype == np.float32 else "f64")

    up_equiv = surface_grid(order, scale=UPWARD_EQUIV_SCALE)
    up_check = surface_grid(order, scale=UPWARD_CHECK_SCALE)
    sym_perm = _symmetry_perms(order)

    flips = lattice_orbits(np.arange(8), sym_perm)
    blocks = flip_blocks(inverse_distances(up_check[flips.reps], up_equiv), flips)
    uc2e_inv = _flip_solve(blocks, flips, cutoff)

    n = expansion_length(order)
    # One block for all 56 orthant matrices: the class matrices are its head,
    # and ensure_orthant_m2l writes the copies into its tail, so a run of
    # sparse levels never writes the tail's pages. Allocated as two arrays
    # instead, a loop of cold cube-p1-deep setups page-faulted about 3000
    # times per setup where the one block faulted almost never, and
    # setup_s read 9% slower.
    block = np.empty((len(ORTHANT_VECTORS), n, n), dtype=dtype)
    m2l_class = block[: len(CLASS_VECTORS)]
    # Each matrix is formed at its group's orbit representatives only, one
    # column each, and filled by :func:`orbit_fill`; the 16 classes share 7
    # stabilizers. A class kernel's column r holds at point i the table at
    # l_r - l_i, whose index is that of l_i - l_r (``diff[r, i]``) mirrored
    # through the grid.
    diff = _lattice_differences(order)
    tables = class_kernel_table(order)
    groups = {}
    for c, syms in enumerate(CLASS_STABILIZERS):
        group = groups.get(syms.tobytes())
        if group is None:
            group = groups[syms.tobytes()] = lattice_orbits(syms, sym_perm)
        cols = np.take(tables[c][::-1], diff[group.reps]) @ uc2e_inv
        m2l_class[c] = orbit_fill(cols, group)

    # Child octant 0 is centered at -1/4 of the parent side on every axis.
    # The kernel is symmetric, so column r of a kernel is its row r with the
    # grids swapped.
    child_equiv = up_equiv * 0.5 - 0.25
    axis = groups[AXIS_PERM_SYMS.tobytes()]
    u2u = orbit_fill(inverse_distances(child_equiv[axis.reps], up_check) @ uc2e_inv.T, axis).copy()
    d2d = orbit_fill(0.5 * inverse_distances(up_check[axis.reps], child_equiv) @ uc2e_inv, axis).copy()

    return OperatorSet(
        order=order,
        dtype=dtype,
        svd_cutoff=cutoff,
        uc2e_inv=uc2e_inv.astype(dtype, copy=False),
        u2u=u2u.astype(dtype, copy=False),
        d2d=d2d.astype(dtype, copy=False),
        m2l_class=m2l_class,
        sym_perm=sym_perm,
        up_equiv_grid=up_equiv,
        up_check_grid=up_check,
        leaf_template=template_operand(up_check),
    )


def _orthant_m2l(m2l_class, sym_perm):
    """The 56 orthant transfer matrices of :attr:`OperatorSet.m2l`: the 16
    class matrices, which the canonical vectors read, and gathered copies
    of them for the other 40 vectors, written into the rest of the block
    whose head ``m2l_class`` is. Returns ``(copies, matrices)``,
    ``matrices[i]`` the matrix of orthant vector ``i``."""
    n_cls, n = m2l_class.shape[:2]
    block = m2l_class.base
    assert block is not None and len(block) == len(ORTHANT_VECTORS)
    slot = np.where(ORTHANT_SYM == 0, ORTHANT_CLASS, n_cls + np.cumsum(ORTHANT_SYM != 0) - 1)
    # The gather indices are permutations, so mode "clip" changes nothing
    # but lets the take write into ``out`` without a buffer.
    for i in np.flatnonzero(ORTHANT_SYM != 0):
        r = sym_perm[ORTHANT_SYM[i]]
        m2l_class[ORTHANT_CLASS[i]].take(r[:, None] * n + r, out=block[slot[i]], mode="clip")
    return block[n_cls:], tuple(block[k] for k in slot)


_OP_CACHE = {}
_OP_LOCK = threading.Lock()


def get_operator_set(order, dtype=np.float64):
    """Memoized :func:`precompute_operators`; safe to share across ranks
    (operator sets are immutable after construction, apart from the
    orthant M2L matrices that :func:`ensure_orthant_m2l` adds once)."""
    key = (order, np.dtype(dtype).str)
    with _OP_LOCK:
        ops = _OP_CACHE.get(key)
        if ops is None:
            ops = precompute_operators(order, dtype)
            _OP_CACHE[key] = ops
    return ops


def ensure_orthant_m2l(ops):
    """Give ``ops`` its orthant M2L matrices, which the tiled M2L path reads,
    unless it has them; returns ``ops``. Built once per operator set, under
    the cache's lock, since ranks share the set."""
    with _OP_LOCK:
        if ops.m2l is None:
            ops.m2l_copies, ops.m2l = _orthant_m2l(ops.m2l_class, ops.sym_perm)
    return ops


class ExpansionStore:
    """u and d vectors per box, dense per level, and the one layout of
    the u rows.

    All u rows live in one buffer ``u_all``: level after level ascending,
    a level's own boxes (``level_keys[level]``, sorted), then its ghost
    boxes, the sorted ``ghost_keys`` of that level, which are copies of
    other ranks' boxes. ``row_keys`` holds the key of every u row and
    :meth:`rows_of` finds keys among them. ``u[level]`` views the own
    rows, ``u_rows[level]`` the own and ghost rows together, and
    ``row_start[level]`` is the level's first row in ``u_all``. The d
    vectors cover own rows only. The layout is fixed at construction and
    the zeroed buffers by :meth:`allocate`.
    """

    def __init__(self, level_keys, ghost_keys=np.empty(0, np.uint64)):
        ghost_levels = morton.key_level(ghost_keys)
        parts = {lvl: (own, ghost_keys[ghost_levels == lvl])
                 for lvl, own in sorted(level_keys.items())}
        assert sum(len(g) for _, g in parts.values()) == len(ghost_keys), "ghost key off the levels"
        self.row_keys = np.concatenate([k for pair in parts.values() for k in pair])
        # Per level: first row, end of the own rows, end of the ghost rows.
        self._spans, start = {}, 0
        for lvl, (own, ghost) in parts.items():
            self._spans[lvl] = (start, start + len(own), start + len(own) + len(ghost))
            start = self._spans[lvl][2]
        self.row_start = {lvl: a for lvl, (a, _, _) in self._spans.items()}

    def rows_of(self, keys):
        """Rows of ``keys`` in ``u_all`` and whether each key has one."""
        order = np.argsort(self.row_keys)
        pos, found = morton.find_keys(self.row_keys[order], keys)
        return order[pos], found

    def allocate(self, n_coeff, dtype=np.float64):
        """Zeroed buffers of ``n_coeff`` coefficients per row; returns self."""
        self.u_all = np.zeros((len(self.row_keys), n_coeff), dtype=dtype)
        spans = self._spans.items()
        self.u_rows = {lvl: self.u_all[a:c] for lvl, (a, _, c) in spans}
        self.u = {lvl: self.u_all[a:b] for lvl, (a, b, _) in spans}
        self.d = {lvl: np.zeros((b - a, n_coeff), dtype=dtype) for lvl, (a, b, _) in spans}
        return self

    def reset(self):
        self.u_all[:] = 0
        for arr in self.d.values():
            arr[:] = 0


def box_side(cube, level):
    return cube.side / (1 << level)


def template_rows(n_coeff):
    """Points per D2T distance block of ``n_coeff``-long expansions, and
    the length S2U cuts leaves at (:func:`tree.build_tree`'s
    ``piece_rows``). S2U blocks, which keep leaves whole, hold up to twice
    as many points, so neither exceeds BLOCK_ENTRIES entries."""
    return max(1, BLOCK_ENTRIES // n_coeff // 2)


def leaf_check_sums(tree, ops, charges):
    """Potential of each nonempty leaf's charges on its unit check surface
    scaled to the leaf, with distances in leaf sides (the potential times
    the leaf side), shape (n_nonempty, n_e), before the check solve.

    Leaves are cut into pieces of at most ``rows`` points from their own
    starts, and a block holds the pieces that start in one run of ``rows``
    points (:attr:`UniformTree.leaf_pieces`, laid out when the tree is
    built), so each leaf's sum is formed the same way on any rank. Raises
    ``ValueError`` for a tree laid out for another ``rows``.
    """
    points, template = tree.leaf_offset_operand, ops.leaf_template
    charges = np.asarray(charges, dtype=np.float64)
    rows = template_rows(ops.n_coeff)
    if tree.piece_rows != rows:
        raise ValueError(f"the tree's S2U pieces have {tree.piece_rows} rows, not the "
                         f"{rows} of order {ops.order}: build it with piece_rows={rows}")
    leaf, starts, ends, cuts = tree.leaf_pieces
    # A block holds at most one piece of each leaf, so the scatter-add
    # below has distinct rows.
    check = np.zeros((np.count_nonzero(tree.level_nonempty[tree.leaf_level]), ops.n_coeff))
    work = np.empty(min(2 * rows, tree.n_points) * ops.n_coeff)
    for a, b in zip(cuts[:-1], cuts[1:]):
        r = template_inverse_distances(points[:, starts[a] : ends[b]], template, work)
        r *= charges[starts[a] : ends[b], None]
        check[leaf[a:b]] += np.add.reduceat(r, starts[a:b] - starts[a], axis=0)
    return check


def leaf_s2u_all(tree, ops, charges, out):
    """S2U over every nonempty leaf of the tree, into ``out`` (n_leaves, n_e):
    one GEMM of :func:`leaf_check_sums` with the unit check solve. The
    solve at a leaf is the unit one times the leaf side, a factor the sums,
    in leaf sides, already carry."""
    check = leaf_check_sums(tree, ops, charges)
    nonempty = tree.level_nonempty[tree.leaf_level]
    out[nonempty] = check @ ops.uc2e_inv.astype(np.float64, copy=False).T
    return out


_OCTANTS = np.arange(8)[:, None]

# Pairs up to which a level's M2L runs through the 16 class matrices rather
# than the 56 orthant ones, 32 pairs per orthant matrix on average; see the
# module docstring for the crossover it sits in.
SPARSE_PAIRS = 56 * 32

# Entries per chunk of the class path's buffers (256 KB each in f64).
CLASS_CHUNK_ENTRIES = 1 << 15


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


def u2u_pass(ops, store):
    """U2U from the store's deepest level up to its shallowest."""
    for level in range(max(store.u) - 1, min(store.u) - 1, -1):
        u2u_level(ops, store.u[level + 1], store.u[level])
    return store


def upward_pass(tree, ops, store, charges):
    """Post-order pass: S2U at the leaves, then U2U up to the local roots."""
    leaf_s2u_all(tree, ops, charges, store.u[tree.leaf_level])
    return u2u_pass(ops, store)


class TiledPlan(NamedTuple):
    """M2L plan of a dense level (:func:`group_pairs_by_transfer`)."""

    tgt: np.ndarray       # per pair, in plan order
    rows_in: np.ndarray
    rows_out: np.ndarray
    products: list        # per tile, its (orthant matrix, first pair, end pair)
    tile: int


class ClassPlan(NamedTuple):
    """M2L plan of a sparse level (:func:`group_pairs_by_class`). Per pair
    it holds 18 bytes, fewer than a tiled plan's 24: each rank keeps its
    plans, and 40 bytes per pair raised cube-p64-weak's peak RSS by 2 MB."""

    src_off: np.ndarray     # per pair in plan order, its source row times n_coeff
    in_sym: np.ndarray      # and the symmetry its source is read under (int8)
    out_off: np.ndarray     # per pair of a chunk in target order, its chunk row times n_coeff
    out_sym: np.ndarray     # and the symmetry of that pair (int8)
    chunks: list            # (start, end, class runs, target row starts, targets)


def plan_m2l(tgt_idx, src_rows, tv_idx, n_coeff):
    """The M2L plan of one level's pairs (target index, source row,
    transfer-vector index) of ``n_coeff``-long expansions: a class plan
    (:func:`group_pairs_by_class`) for at most :data:`SPARSE_PAIRS` pairs,
    else a tiled plan (:func:`group_pairs_by_transfer`)."""
    sparse = len(tgt_idx) <= SPARSE_PAIRS
    planner = group_pairs_by_class if sparse else group_pairs_by_transfer
    return planner(tgt_idx, src_rows, tv_idx, n_coeff)


def group_pairs_by_transfer(tgt_idx, src_rows, tv_idx, n_coeff):
    """Tiled plan of :func:`apply_m2l` over interaction pairs of
    ``n_coeff``-long expansions, run with the 56 orthant matrices in the 8
    flip frames. Targets are cut into tiles of ``tile = M2L_TILE_TARGETS``
    consecutive indices, and pairs are sorted by (tile, orthant matrix,
    flip, target). Returns a :class:`TiledPlan` ``(tgt, rows_in, rows_out,
    products, tile)``: per pair in that order its target, its row in the
    source frames (``8 * src + flip``) and its row in its tile's
    accumulator (``flip * w + tgt % tile``, ``w = min(tile, n_t)``,
    ``n_t`` one more than the largest target); ``products[k]`` lists tile
    ``k``'s products, one per stored matrix it reads, in matrix order, as
    (matrix, first pair, end pair), empty for a tile without pairs."""
    mat, flip = TRANSFER_ORTHANT[tv_idx], TRANSFER_FLIP[tv_idx]
    n_t = int(tgt_idx.max()) + 1 if len(tgt_idx) else 0
    tile, n_mat = M2L_TILE_TARGETS, len(ORTHANT_VECTORS)
    block, lane = tgt_idx // tile * n_mat + mat, tgt_idx % tile
    # A target meets a vector at most once, so the keys are distinct.
    order = np.argsort((block * 8 + flip) * tile + lane)
    counts = np.bincount(block, minlength=-(-n_t // tile) * n_mat).reshape(-1, n_mat)
    return _tiled_plan(tgt_idx[order], lane[order], src_rows[order], flip[order], counts)


def _tiled_plan(tgt, lane, src_rows, flip, counts):
    """The :class:`TiledPlan` of pairs already in its order (see
    :func:`group_pairs_by_transfer`), ``lane`` their ``tgt % tile``, of
    which ``counts[k, m]`` are tile ``k``'s pairs of orthant matrix ``m``;
    rows past the last target's tile are dropped."""
    tile = M2L_TILE_TARGETS
    n_t = int(tgt.max()) + 1 if len(tgt) else 0
    counts = counts[: -(-n_t // tile)]
    ends = np.cumsum(counts)
    starts = (ends - counts.ravel()).tolist()
    ends = ends.tolist()
    products = [[] for _ in range(len(counts))]
    for i in np.flatnonzero(counts).tolist():
        products[i // counts.shape[1]].append((i % counts.shape[1], starts[i], ends[i]))
    return TiledPlan(tgt, 8 * src_rows + flip, flip * min(tile, n_t) + lane, products, tile)


def _stable_argsort(keys):
    """``np.argsort(keys, kind="stable")`` of nonnegative integer keys,
    cast to 16 bits when they fit: numpy sorts those by radix, 4x faster
    than its merge sort on 1600 keys."""
    if len(keys) and keys.max() < 1 << 15:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")


def group_pairs_by_class(tgt_idx, src_rows, tv_idx, n_coeff):
    """Class plan of :func:`apply_m2l` over interaction pairs of
    ``n_coeff``-long expansions, run with the 16 class matrices. Pairs are
    sorted by (class, symmetry), stably, so by (class, symmetry, target)
    when each vector's targets come in ascending order, as a box lattice
    gives them (:class:`lattice.BoxLattice`); a (class, symmetry) fixes the
    vector, which a target meets at most once, so the order of one
    target's pairs is never read. They are cut into chunks of at most
    ``rows = CLASS_CHUNK_ENTRIES // n_coeff`` pairs: whole classes while
    they fit, a class of more than ``rows`` pairs cut at multiples of
    ``rows`` from its start. Returns a :class:`ClassPlan`; per chunk
    ``(a, b, runs, starts, targets)``: its pairs ``a:b``, its classes as
    (class, first row, end row) in chunk rows, and in the chunk's target
    order the first row of each target and the targets. Built from the
    module tables alone, so no operator set is needed."""
    cls, sym = TRANSFER_CLASS[tv_idx], TRANSFER_SYM[tv_idx]
    n_t = int(tgt_idx.max()) + 1 if len(tgt_idx) else 0
    order = _stable_argsort(cls * 48 + sym)
    tgt, cls, sym = tgt_idx[order], cls[order], sym[order]
    rows = max(1, CLASS_CHUNK_ENTRIES // n_coeff)
    bounds = np.searchsorted(cls, np.arange(len(CLASS_VECTORS) + 1)).tolist()
    cuts, runs = [0], [[]]
    for c, (p, q) in enumerate(zip(bounds[:-1], bounds[1:])):
        if p == q:
            continue
        if q - cuts[-1] > rows and p > cuts[-1]:
            cuts.append(p)
            runs.append([])
        for cut in range(cuts[-1] + rows, q, rows):
            runs[-1].append((c, p - cuts[-1], cut - cuts[-1]))
            cuts.append(cut)
            runs.append([])
            p = cut
        runs[-1].append((c, p - cuts[-1], q - cuts[-1]))
    cuts.append(len(tgt))
    # Per pair its chunk; within a chunk the pairs in target order.
    sizes = np.diff(cuts)
    chunk = np.repeat(np.arange(len(sizes)), sizes)
    key = chunk * n_t + tgt
    by_tgt = _stable_argsort(key)
    new_tgt = np.flatnonzero(_changes(key[by_tgt]))
    first = np.repeat(cuts[:-1], sizes)
    split = np.searchsorted(new_tgt, cuts).tolist()
    targets = tgt[by_tgt[new_tgt]]
    chunks = [(a, b, r, new_tgt[i:j] - a, targets[i:j])
              for a, b, r, i, j in zip(cuts[:-1], cuts[1:], runs, split[:-1], split[1:])
              if b > a]
    return ClassPlan(
        (src_rows[order] * n_coeff).astype(np.intp, copy=False),
        SYM_INVERSE[sym],
        ((by_tgt - first) * n_coeff).astype(np.intp, copy=False),
        sym[by_tgt],
        chunks,
    )


# Per slot of :data:`lattice.V_SLOTS` its flip, and the first slot of each
# orthant matrix.
_SLOT_FLIP = TRANSFER_FLIP[V_SLOTS]
_MATRIX_SLOTS = np.searchsorted(TRANSFER_ORTHANT[V_SLOTS], np.arange(len(ORTHANT_VECTORS)))


def plan_lattice(lattice, n_coeff):
    """The :func:`plan_m2l` plan of the V pairs of a
    :class:`lattice.BoxLattice` whose remote cells are resolved: a
    :class:`ClassPlan` (:func:`group_pairs_by_class`) for at most
    :data:`SPARSE_PAIRS` pairs, else a :class:`TiledPlan`, the pairs in
    their order with products counted per (tile, orthant matrix)."""
    keep = lattice.cand >= 0
    pos = np.flatnonzero(keep)
    (tgt, lane, slot), src = lattice.targets(pos), lattice.cand[pos].astype(np.int64)
    if len(pos) <= SPARSE_PAIRS:
        return group_pairs_by_class(tgt, src, V_SLOTS[slot], n_coeff)
    counts = keep.reshape(lattice.n_tiles, len(V_SLOTS), lattice.width).sum(axis=2)
    counts = np.add.reduceat(counts, _MATRIX_SLOTS, axis=1)
    return _tiled_plan(tgt, lane, src, _SLOT_FLIP[slot], counts)


def apply_m2l(ops, grouped, u_rows, d):
    """d[tgt] += m2l_t @ u_rows[src] for all grouped pairs, ``m2l_t`` the
    transfer matrix of the pair's vector, by the plan's kind: through the
    class matrices for a :class:`ClassPlan` (:func:`_apply_by_class`),
    through the orthant matrices in the flip frames for a
    :class:`TiledPlan`.

    The tiled path writes the 8 sign-flip frames once per call: source
    row ``src`` in frame ``f`` is ``u_rows[src][flip_perm[f]]``. The targets
    are taken one tile at a time (see :func:`group_pairs_by_transfer`), and
    a tile's pairs accumulate into row ``f * w + tgt % tile`` of one zeroed
    accumulator of ``8 * w`` rows: one product per stored matrix the tile
    reads, in matrix order, gathers its pairs' source rows and adds its
    result. A stored matrix and a flip fix the vector, and each target
    appears at most once per vector, so the rows one product adds to are
    distinct. After its products, accumulator ``f`` adds back into the
    tile's rows of ``d`` through ``flip_perm[f]``, flips 0..7 in order, and
    is zeroed for the next tile.

    The tiles exist for the cache. A whole level's accumulator (8 flips by
    512 targets by 152 coefficients is 4.75 MB at order 6) does not fit in
    a 2 MB L2 next to the frames, and the scatter-adds into it missed; a
    tile's accumulator of :data:`M2L_TILE_TARGETS` targets does. A level
    of at most that many targets is one tile and runs as without tiles.
    With several tiles every row's sums are formed in the same order, but
    each GEMM has fewer rows, and OpenBLAS rounds the rows of a GEMM's M
    remainder differently, so a row may differ from the untiled result by
    rounding (see the module docstring).

    Raises ``ValueError`` when ``ops`` lacks its orthant matrices
    (:func:`ensure_orthant_m2l`).
    """
    if isinstance(grouped, ClassPlan):
        return _apply_by_class(ops, grouped, u_rows, d)
    if ops.m2l is None:
        raise ValueError("a tiled M2L plan needs the orthant matrices: "
                         "call ensure_orthant_m2l(ops) first")
    tgt, rows_in, rows_out, products, tile = grouped
    n_t, n_e = (int(tgt.max()) + 1 if len(tgt) else 0), d.shape[1]
    width = min(tile, n_t)
    frames = np.take(u_rows, ops.flip_perm, axis=1).reshape(-1, n_e)
    acc = np.zeros((8 * width, n_e), dtype=d.dtype)
    fold = acc.reshape(8, width, n_e)
    for k, tile_products in enumerate(products):
        if not tile_products:
            continue
        for m, a, b in tile_products:
            acc[rows_out[a:b]] += frames[rows_in[a:b]] @ ops.m2l[m].T
        t0 = k * tile
        t1 = min(t0 + tile, n_t)
        for f in range(8):
            d[t0:t1] += fold[f, : t1 - t0][:, ops.flip_perm[f]]
        acc[:] = 0
    return d


def _apply_by_class(ops, plan, u_rows, d):
    """:func:`apply_m2l` of a :class:`ClassPlan`, one chunk at a time, in
    three buffers of the largest chunk's rows: one index and two of
    coefficients. Symmetry ``s`` of a pair relates its matrix to its class
    matrix ``M`` by ``m2l_t = M[p][:, p]``, ``p = sym_perm[s]``, so
    ``m2l_t @ u = (M @ u[q])[p]`` with ``q`` the permutation of the
    inverse symmetry. Per chunk, one take gathers every source row under
    its ``q``, one product per class runs with the class matrix, one take
    reads each product under its ``p`` into target order, and one
    ``np.add.reduceat`` sums each target's rows, which add into ``d``.
    Every index is a valid flat position, so mode "clip" changes nothing
    but lets each take write into its buffer directly."""
    n_e, width = d.shape[1], max((b - a for a, b, *_ in plan.chunks), default=0)
    u_flat = u_rows.reshape(-1)
    idx = np.empty((width, n_e), dtype=np.intp)
    x = np.empty((width, n_e), dtype=d.dtype)
    y = np.empty_like(x)
    for a, b, runs, starts, targets in plan.chunks:
        i, xs, ys = idx[: b - a], x[: b - a], y[: b - a]
        np.take(ops.sym_perm, plan.in_sym[a:b], axis=0, out=i, mode="clip")
        i += plan.src_off[a:b, None]
        np.take(u_flat, i, out=xs, mode="clip")
        for c, p, q in runs:
            np.matmul(xs[p:q], ops.m2l_class[c].T, out=ys[p:q])
        np.take(ops.sym_perm, plan.out_sym[a:b], axis=0, out=i, mode="clip")
        i += plan.out_off[a:b, None]
        np.take(ys.reshape(-1), i, out=xs, mode="clip")
        sums = np.add.reduceat(xs, starts, axis=0, out=y[: len(starts)])
        rows = np.take(d, targets, axis=0, out=x[: len(starts)], mode="clip")
        rows += sums
        d[targets] = rows
    return d


@dataclass
class VListPlan:
    """Static V-list application plan: per level, the :func:`plan_m2l` plan
    of the level's pairs, a :class:`ClassPlan` or a :class:`TiledPlan`,
    whose source rows index the level's :attr:`ExpansionStore.u_rows`
    (local rows, then ghost rows). The first element of each plan has
    one entry per pair."""

    grouped: dict            # level -> ClassPlan | TiledPlan

    @property
    def tiled(self):
        """Whether a level runs the tiled path, which reads the orthant
        matrices."""
        return any(isinstance(g, TiledPlan) for g in self.grouped.values())


def vli_downward(ops, store, plan):
    """Pre-order pass below the store's shallowest level: inherit the
    parent local expansion (D2D), then apply the level's V-list
    interactions, whose remote sources are the ghost rows of
    ``store.u_rows[level]``.
    """
    for level in range(min(store.d), max(store.d)):
        d2d_level(ops, store.d[level], store.d[level + 1])
        g = plan.grouped.get(level + 1)
        if g is not None:
            apply_m2l(ops, g, store.u_rows[level + 1], store.d[level + 1])
    return store


def d2t(tree, ops, store):
    """Evaluate leaf local expansions at the targets inside each leaf: per
    point, its distances to the leaf's equivalent surface (one template
    shifted to the leaf center) dotted with the leaf's ``d`` row, in leaf
    sides and then divided by the side."""
    points, leaf = tree.leaf_offset_operand, tree.point_leaf
    d = store.d[tree.leaf_level].astype(np.float64, copy=False)
    out = np.empty(tree.n_points, dtype=np.float64)
    rows = template_rows(ops.n_coeff)
    work = np.empty(min(rows, tree.n_points) * ops.n_coeff)
    d_rows = np.empty((min(rows, tree.n_points), ops.n_coeff))
    for lo in range(0, tree.n_points, rows):
        r = template_inverse_distances(points[:, lo : lo + rows], ops.leaf_template, work)
        np.take(d, leaf[lo : lo + rows], axis=0, out=d_rows[: len(r)])
        np.einsum("ij,ij->i", r, d_rows[: len(r)], out=out[lo : lo + rows])
    out /= box_side(tree.cube, tree.leaf_level)
    return out
