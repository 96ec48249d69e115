"""Surface grids, operator precomputation, and the far-field pipeline."""

import tracemalloc

import numpy as np
import pytest
from conftest import distributed_run, raw_instance, rel_l2, sorted_instance
from reference import box_center, children, tsvd_pinv

from unifmm import morton, operators
from unifmm.distributed import FmmConfig, evaluate, update_charges
from unifmm.kernels import direct_sum, inverse_distances
from unifmm.morton import BoundingCube, make_key
from unifmm.operators import (
    AXIS_PERM_SYMS,
    CLASS_STABILIZERS,
    CLASS_VECTORS,
    ORTHANT_VECTORS,
    SYM_MATRICES,
    TRANSFER_CLASS,
    TRANSFER_SYM,
    UPWARD_CHECK_SCALE,
    UPWARD_EQUIV_SCALE,
    ClassPlan,
    ExpansionStore,
    TiledPlan,
    _surface_lattice,
    _lattice_differences,
    apply_m2l,
    box_side,
    class_kernel_table,
    d2d_level,
    ensure_orthant_m2l,
    expansion_length,
    flip_blocks,
    get_operator_set,
    group_pairs_by_class,
    group_pairs_by_transfer,
    plan_m2l,
    leaf_s2u_all,
    lattice_orbits,
    precompute_operators,
    surface_grid,
    svd_cutoff,
    template_rows,
    u2u_level,
    upward_pass,
)
from unifmm.tree import TRANSFER_VECTORS, _v_members_with_vectors, build_tree

UNIT = BoundingCube(origin=(0.0, 0.0, 0.0), side=1.0)

# Far-field tolerances for single-operator checks, an order of magnitude
# above typical observed errors so they stay regression bounds, not flakes.
OP_TOL = {2: 5e-2, 3: 5e-3, 4: 2e-3, 6: 5e-5, 8: 5e-7}


def build_m2l_at_level(order, cube, level, equiv_scale=UPWARD_EQUIV_SCALE,
                       check_scale=UPWARD_CHECK_SCALE):
    """Reference transfer matrices: one kernel matrix and solve per vector,
    from the real geometry of one tree level. For the 1/r kernel the
    result must match the level-shared symmetry-built set to rounding."""
    side = cube.side / (1 << level)
    down_check = surface_grid(order, scale=equiv_scale, side=side)
    down_equiv = surface_grid(order, scale=check_scale, side=side)
    dc2e_inv = tsvd_pinv(inverse_distances(down_check, down_equiv), svd_cutoff(order))
    up_equiv = surface_grid(order, scale=equiv_scale, side=side)
    n = expansion_length(order)
    m2l = np.empty((len(TRANSFER_VECTORS), n, n))
    for i, t in enumerate(TRANSFER_VECTORS):
        m2l[i] = dc2e_inv @ inverse_distances(down_check, t * side + up_equiv)
    return m2l


def flipped(mat, ops, flip):
    """``mat`` in the frame of the sign flip of the axes in ``flip``'s bits."""
    p = ops.flip_perm[flip]
    return mat[np.ix_(p, p)]


def transfer_matrix(ops, t):
    """The transfer matrix of vector ``t``: the orthant matrix of its
    absolute vector under the sign flip of its negative axes."""
    m = np.flatnonzero((ORTHANT_VECTORS == np.abs(t)).all(axis=1))[0]
    return flipped(ensure_orthant_m2l(ops).m2l[m], ops, int(((t < 0) * [1, 2, 4]).sum()))


def dense_m2l(ops):
    """All 316 transfer matrices (:func:`transfer_matrix`)."""
    return np.stack([transfer_matrix(ops, t) for t in TRANSFER_VECTORS])


def dense_u2u(ops):
    """U2U per child octant: octant o is the flip o of octant 0."""
    return np.stack([flipped(ops.u2u, ops, o) for o in range(8)])


def dense_d2d(ops):
    """D2D per child octant, as :func:`dense_u2u`."""
    return np.stack([flipped(ops.d2d, ops, o) for o in range(8)])


def evaluate_u_field(ops, cube, key, u, points):
    """Field of an outgoing expansion at arbitrary points."""
    side = box_side(cube, morton.key_level(key))
    equiv = box_center(key, cube) + ops.up_equiv_grid * side
    return direct_sum(points, equiv, u.astype(np.float64))


def evaluate_d_field(ops, cube, key, d, points):
    """Field of an incoming expansion at arbitrary points."""
    side = box_side(cube, morton.key_level(key))
    equiv = box_center(key, cube) + ops.down_equiv_grid * side
    return direct_sum(points, equiv, d.astype(np.float64))


def leaf_u(tree, ops, charges, leaf):
    """Outgoing expansion of ``leaf``: its row of :func:`leaf_s2u_all`
    over a zeroed store, as ``evaluate`` computes it."""
    out = ExpansionStore(tree.level_keys).allocate(ops.n_coeff, ops.dtype).u[tree.leaf_level]
    leaf_s2u_all(tree, ops, charges, out)
    return out[tree.index_of(tree.leaf_level, np.asarray([int(leaf)], dtype=np.uint64))[0]]


def single_rank(n, seed, local_depth, order):
    """``setup`` plus one ``evaluate`` of a seeded instance on one rank with
    global_depth = 1; returns (state, potentials), both in tree order."""
    pts, chg = raw_instance(n, seed)
    config = FmmConfig(global_depth=1, local_depth=local_depth, order=order)
    _, states, evals = distributed_run(pts, chg, 1, config)
    return states[0], evals[0][0].potentials


def test_expansion_length_formula():
    assert expansion_length(2) == 8
    assert expansion_length(3) == 26
    assert expansion_length(6) == 152
    with pytest.raises(ValueError, match=">= 2"):
        expansion_length(1)


@pytest.mark.parametrize("order", [2, 3, 6])
def test_surface_grid_counts_and_geometry(order):
    side, scale = 0.25, 1.05
    center = np.array([0.3, 0.4, 0.5])
    pts = surface_grid(order, center, side, scale)
    assert pts.shape == (expansion_length(order), 3)
    rel = (pts - center) / (side * scale)
    # Every point on the surface of the scaled cube, none outside.
    assert np.all(np.abs(rel) <= 0.5 + 1e-12)
    assert np.all(np.isclose(np.abs(rel), 0.5).any(axis=1))
    # Octahedral symmetry: the set is closed under axis flips.
    flipped = rel * np.array([-1, 1, 1])
    assert {tuple(np.round(p, 12)) for p in rel} == {tuple(np.round(p, 12)) for p in flipped}


def test_surface_grid_rejects_order_1():
    with pytest.raises(ValueError, match=">= 2"):
        surface_grid(1)


def test_m2l_count_is_316():
    ops = ensure_orthant_m2l(precompute_operators(3))
    assert ops.m2l_class.shape[0] == 16 == len(CLASS_VECTORS)
    assert len(ops.m2l) == 56 == len(ORTHANT_VECTORS) == 16 + len(ops.m2l_copies)
    assert np.all(ORTHANT_VECTORS >= 0)
    assert dense_m2l(ops).shape[0] == 316 == len(TRANSFER_VECTORS)


@pytest.mark.parametrize("order", range(2, 9))
def test_stored_m2l_are_bitwise_gathers_of_their_class_matrices(order):
    # The canonical vector of each class reads its class matrix itself;
    # every transfer matrix, the orthant matrix of its absolute vector
    # under its flip, is its class matrix under the permutation of its
    # symmetry, bit for bit.
    ops = ensure_orthant_m2l(precompute_operators(order))
    canonical = [np.flatnonzero((ORTHANT_VECTORS == c).all(axis=1))[0] for c in CLASS_VECTORS]
    assert all(np.shares_memory(ops.m2l[i], ops.m2l_class[c]) for c, i in enumerate(canonical))
    assert not any(np.shares_memory(m, ops.m2l_class) for m in ops.m2l_copies)
    for t, vec in enumerate(TRANSFER_VECTORS):
        p = ops.sym_perm[TRANSFER_SYM[t]]
        want = ops.m2l_class[TRANSFER_CLASS[t]][np.ix_(p, p)]
        assert np.array_equal(transfer_matrix(ops, vec), want), t


def test_symmetry_tables_map_each_vector_to_its_class():
    # Symmetry s maps x to SYM_MATRICES[s] @ x; it takes each transfer
    # vector to the canonical vector of its class, and its inverse undoes it.
    mats = operators.SYM_MATRICES
    assert len({m.tobytes() for m in mats}) == 48
    assert np.array_equal(mats[:8], [np.diag(1 - 2 * ((f >> np.arange(3)) & 1)) for f in range(8)])
    inverse = mats[operators.SYM_INVERSE]
    assert all(np.array_equal(m @ inv, np.eye(3)) for m, inv in zip(mats, inverse))
    mapped = np.einsum("tij,tj->ti", mats[TRANSFER_SYM], TRANSFER_VECTORS)
    assert np.array_equal(mapped, CLASS_VECTORS[TRANSFER_CLASS])
    assert np.all(np.diff(CLASS_VECTORS, axis=1) >= 0) and np.all(CLASS_VECTORS >= 0)


@pytest.mark.parametrize("order", [2, 3, 6])
def test_sym_perm_is_the_lattice_map_of_each_symmetry(order):
    # Row s sends lattice point k to the point SYM_MATRICES[s] @ x_k, so its
    # first 8 rows are the old per-axis mirror permutations.
    ops = precompute_operators(order)
    lattice = _surface_lattice(order)
    centered = 2 * lattice - (order - 1)
    index = {tuple(x): k for k, x in enumerate(centered.tolist())}
    for s, mat in enumerate(operators.SYM_MATRICES):
        want = [index[tuple(x)] for x in (centered @ mat.T).tolist()]
        assert np.array_equal(ops.sym_perm[s], want), s
    for f in range(8):
        mirrored = np.where((f >> np.arange(3)) & 1, order - 1 - lattice, lattice)
        old = [index[tuple(x)] for x in (2 * mirrored - (order - 1)).tolist()]
        assert np.array_equal(ops.flip_perm[f], old)


def test_operator_set_shapes():
    ops = get_operator_set(3)
    n = expansion_length(3)
    assert ops.u2u.shape == (n, n)
    assert ops.d2d.shape == (n, n)
    assert dense_u2u(ops).shape == dense_d2d(ops).shape == (8, n, n)
    assert ops.sym_perm.shape == (48, n)
    assert ops.flip_perm.shape == (8, n)
    assert ops.uc2e_inv.shape == (n, n)


def test_m2l_matches_per_level_builds():
    # 1/r homogeneity: matrices built from real level geometry coincide
    # with the shared precomputed ones.
    ops = get_operator_set(3)
    cube = BoundingCube((0.0, 0.0, 0.0), 2.0)
    for level in (2, 3):
        per_level = build_m2l_at_level(3, cube, level)
        assert np.max(np.abs(per_level - dense_m2l(ops))) <= 1e-12


@pytest.mark.parametrize("order", [4, 6])
def test_u2u_reproduces_far_field_of_children(order):
    rng = np.random.default_rng(42)
    ops = get_operator_set(order)
    u2u = dense_u2u(ops)
    # Parent box: level-1 octant (0,0,0) of a side-2 cube.
    cube = BoundingCube((0.0, 0.0, 0.0), 2.0)
    parent = make_key(0, 0, 0, 1)
    n = ops.n_coeff
    u_parent = np.zeros(n)
    all_pts, all_chg = [], []
    for o, child in enumerate(children(parent)):
        anchor, side = morton.decode(int(child), cube)
        pts = anchor + rng.random((5, 3)) * side
        chg = rng.random(5)
        check_pts = anchor + side / 2 + ops.up_check_grid * side
        q = direct_sum(check_pts, pts, chg)
        u_child = side * (ops.uc2e_inv @ q)
        u_parent += u2u[o] @ u_child
        all_pts.append(pts)
        all_chg.append(chg)
    far = np.array([[3.3, 0.4, 0.6], [0.2, 3.1, 0.8], [2.9, 3.0, 3.2]]) + rng.random((3, 3))
    got = evaluate_u_field(ops, cube, int(parent), u_parent, far)
    want = direct_sum(far, np.concatenate(all_pts), np.concatenate(all_chg))
    assert rel_l2(got, want) <= OP_TOL[order]


def test_s2u_empty_leaf_is_zero():
    pts = np.array([[0.1, 0.1, 0.1]])
    keys = morton.encode_points(pts, 2, UNIT)
    roots = np.sort(morton.descendants(make_key(0, 0, 0, 0), 1))
    ops = get_operator_set(3)
    tree = build_tree(pts, UNIT, 1, 1, local_roots=roots, piece_rows=template_rows(ops.n_coeff))
    empty_leaf = int(tree.leaves[-1])
    assert np.all(leaf_u(tree, ops, np.ones(1), empty_leaf) == 0.0)
    assert np.any(leaf_u(tree, ops, np.ones(1), int(tree.leaves[0])) != 0.0)


@pytest.mark.parametrize("order", [3, 6])
def test_s2u_point_charge_far_field(order):
    # Unit charge at a leaf center: the equivalent densities must
    # reproduce 1/r five box-sides away.
    leaf = make_key(1, 1, 1, 2)
    anchor, side = morton.decode(leaf, UNIT)
    center = anchor + side / 2
    pts = center[None, :]
    keys = morton.encode_points(pts, 2, UNIT)
    ops = get_operator_set(order)
    tree = build_tree(pts, UNIT, 1, 1,
                      local_roots=np.sort(morton.descendants(make_key(0, 0, 0, 0), 1)),
                      piece_rows=template_rows(ops.n_coeff))
    u = leaf_u(tree, ops, np.ones(1), leaf)
    far = center + np.array([[5 * side, 0, 0], [0, 5 * side, 5 * side], [-4 * side, 3 * side, 0]])
    got = evaluate_u_field(ops, UNIT, int(leaf), u, far)
    want = direct_sum(far, pts, np.ones(1))
    assert rel_l2(got, want) <= OP_TOL[order]


def test_s2u_linearity():
    rng = np.random.default_rng(3)
    pts = np.sort(rng.random((16, 3)) * 0.25, axis=0)
    keys = morton.encode_points(pts, 2, UNIT)
    pts = pts[np.argsort(keys, kind="stable")]
    ops = get_operator_set(3)
    tree = build_tree(pts, UNIT, 1, 1,
                      local_roots=np.sort(morton.descendants(make_key(0, 0, 0, 0), 1)),
                      piece_rows=template_rows(ops.n_coeff))
    chg = rng.random(16)
    leaf = int(tree.leaves[np.nonzero(tree.level_nonempty[2])[0][0]])
    np.testing.assert_allclose(
        leaf_u(tree, ops, 2.0 * chg, leaf), 2.0 * leaf_u(tree, ops, chg, leaf), rtol=1e-12
    )


def test_upward_pass_zero_charges_zero_everywhere():
    pts, _, cube = sorted_instance(100, seed=1)
    roots = np.sort(morton.descendants(make_key(0, 0, 0, 0), 1))
    ops = get_operator_set(3)
    tree = build_tree(pts, cube, 1, 2, local_roots=roots, piece_rows=template_rows(ops.n_coeff))
    store = ExpansionStore(tree.level_keys).allocate(ops.n_coeff, ops.dtype)
    upward_pass(tree, ops, store, np.zeros(len(pts)))
    for lvl in store.u:
        assert np.all(store.u[lvl] == 0.0)


@pytest.mark.parametrize("order", [3, 6])
def test_upward_pass_point_mass_root_far_field(order):
    pts = np.array([[0.31, 0.52, 0.48]])
    cube = UNIT
    keys = morton.encode_points(pts, 3, cube)
    roots = np.sort(morton.descendants(make_key(0, 0, 0, 0), 1))
    ops = get_operator_set(order)
    tree = build_tree(pts, cube, 1, 2, local_roots=roots, piece_rows=template_rows(ops.n_coeff))
    store = ExpansionStore(tree.level_keys).allocate(ops.n_coeff, ops.dtype)
    upward_pass(tree, ops, store, np.ones(1))
    # Root of the occupied octant, evaluated well outside the unit cube.
    root_pos = int(tree.index_of(1, morton.ancestor_at(keys, 1))[0])
    far = np.array([[4.0, 4.0, 4.0], [-3.0, 0.5, 0.5], [0.5, 5.0, -2.0]])
    got = evaluate_u_field(ops, cube, int(tree.local_roots[root_pos]),
                           store.u[1][root_pos], far)
    want = direct_sum(far, pts, np.ones(1))
    assert rel_l2(got, want) <= OP_TOL[order]


def test_u2u_accumulation_order_insensitive():
    rng = np.random.default_rng(9)
    ops = get_operator_set(4)
    n = ops.n_coeff
    u_child = rng.random((8, n))
    u_parent = np.zeros((1, n))
    u2u_level(ops, u_child, u_parent)
    u2u = dense_u2u(ops)
    for perm_seed in range(3):
        perm = np.random.default_rng(perm_seed).permutation(8)
        alt = np.zeros(n)
        for o in perm:
            alt += u2u[o] @ u_child[o]
        assert rel_l2(alt, u_parent[0]) <= 1e-12


def test_d2d_level_matches_per_octant_products():
    rng = np.random.default_rng(10)
    ops = get_operator_set(4)
    d_parent = rng.standard_normal((3, ops.n_coeff))
    d_child = rng.standard_normal((24, ops.n_coeff))
    d2d = dense_d2d(ops)
    want = d_child.copy()
    for i in range(3):
        for o in range(8):
            want[8 * i + o] += d2d[o] @ d_parent[i]
    np.testing.assert_allclose(d2d_level(ops, d_parent, d_child), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", [3, 4, 6, 8])
def test_m2l_two_separated_boxes(order):
    # A source box at each of the 316 transfer vectors from the target: the
    # local expansion must reproduce the direct field inside the target box.
    rng = np.random.default_rng(17)
    ops = get_operator_set(order)
    m2l = dense_m2l(ops)
    level = 3
    side = UNIT.side / (1 << level)
    tgt_key = make_key(3, 3, 3, level)
    tgt_anchor, _ = morton.decode(tgt_key, UNIT)
    worst = 0.0
    for tv_idx, t in enumerate(TRANSFER_VECTORS):
        src_key = make_key(*(3 + t), level)
        src_anchor, _ = morton.decode(src_key, UNIT)
        src_pts = src_anchor + rng.random((20, 3)) * side
        chg = rng.random(20)
        q = direct_sum(
            box_center(src_key, UNIT) + ops.up_check_grid * side, src_pts, chg
        )
        u_src = side * (ops.uc2e_inv @ q)
        d_tgt = m2l[tv_idx] @ u_src

        inside = tgt_anchor + rng.random((10, 3)) * side
        got = evaluate_d_field(ops, UNIT, int(tgt_key), d_tgt, inside)
        want = direct_sum(inside, src_pts, chg)
        worst = max(worst, rel_l2(got, want))
    assert worst <= OP_TOL[order]


@pytest.mark.parametrize("order", [4, 6, 8])
def test_d2d_reproduces_parent_field_in_every_child(order):
    # Parent local expansion from sources two boxes away; each child's
    # expansion after D2D must reproduce the parent's field inside it.
    rng = np.random.default_rng(23)
    ops = get_operator_set(order)
    cube = BoundingCube((0.0, 0.0, 0.0), 8.0)
    parent = make_key(2, 2, 2, 3)
    src_anchor, side = morton.decode(make_key(4, 3, 1, 3), cube)
    src_pts = src_anchor + rng.random((30, 3)) * side
    chg = rng.random(30)
    # The downward check surface is the upward equivalent one, and its
    # solve is the transpose of the upward solve.
    check = box_center(parent, cube) + ops.up_equiv_grid * side
    d_parent = side * (ops.uc2e_inv.T @ direct_sum(check, src_pts, chg))
    d2d = dense_d2d(ops)
    for o, child in enumerate(children(parent)):
        d_child = d2d[o] @ d_parent
        anchor, child_side = morton.decode(int(child), cube)
        inside = anchor + rng.random((10, 3)) * child_side
        got = evaluate_d_field(ops, cube, int(child), d_child, inside)
        want = evaluate_d_field(ops, cube, int(parent), d_parent, inside)
        assert rel_l2(got, want) <= OP_TOL[order]


def test_build_solves_once_and_forms_16_m2l_products(monkeypatch):
    # One check system, factorized as its 8 flip blocks (the down system is
    # its transpose); its kernel rows are evaluated at the orbit
    # representatives only. U2U and D2D are built for child octant 0 only,
    # from their columns at the representatives of the axis permutations'
    # orbits, so the build evaluates 3 kernel blocks, and the 16 class
    # transfer kernels are gathered from one table of lattice differences
    # over the 16 canonical vectors; the other 40 stored transfer matrices
    # are index gathers of the class matrices.
    order = 4
    svds, kernels, tables = [], [], []
    real_svd, real_kernel = np.linalg.svd, operators.inverse_distances

    def counting_svd(mat, *args, **kwargs):
        svds.append(mat.shape)
        return real_svd(mat, *args, **kwargs)

    def recording_kernel(targets, sources):
        kernels.append((targets.shape, sources.shape))
        return real_kernel(targets, sources)

    def recording_table(order):
        tables.append(class_kernel_table(order))
        return tables[-1]

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(operators, "inverse_distances", recording_kernel)
    monkeypatch.setattr(operators, "class_kernel_table", recording_table)
    ops = precompute_operators(order)
    n, n_orb = expansion_length(order), len(lattice_orbits(np.arange(8), ops.sym_perm).reps)
    assert svds == [(n_orb, n_orb)] * 8 and 8 * n_orb == n
    n_axis = len(lattice_orbits(AXIS_PERM_SYMS, ops.sym_perm).reps)
    assert kernels == [((n_orb, 3), (n, 3)), ((n_axis, 3), (n, 3)), ((n_axis, 3), (n, 3))]
    assert len(tables) == 1 and tables[0].shape == (len(CLASS_VECTORS), (2 * order - 1) ** 3)
    # The product with the directly evaluated kernel, to the rounding of
    # the kernel's few ulps through the solve's entries.
    kernel = real_kernel(ops.up_equiv_grid, CLASS_VECTORS[5] + ops.up_equiv_grid)
    scale = np.abs(ops.uc2e_inv.T) @ np.abs(kernel)
    assert np.all(np.abs(ops.m2l_class[5] - ops.uc2e_inv.T @ kernel) <= 1e-15 * scale)


def test_class_stabilizers_fix_their_canonical_vectors():
    # Each class's stabilizer is every symmetry that fixes its canonical
    # vector, identity first; the axis permutations are that of (2, 2, 2).
    assert [len(s) for s in CLASS_STABILIZERS] == [8, 8, 2, 2, 4, 2, 4, 2, 2, 2, 1, 2, 6, 2, 2, 6]
    for syms, v in zip(CLASS_STABILIZERS, CLASS_VECTORS):
        assert syms[0] == 0
        assert set(syms) == {s for s in range(48) if (SYM_MATRICES[s] @ v == v).all()}
    assert np.array_equal(CLASS_STABILIZERS[12], AXIS_PERM_SYMS)


def orbit_representatives(syms, sym_perm):
    """Per orbit of the group ``syms`` on the lattice, its greatest point."""
    images = sym_perm[syms]
    return np.flatnonzero(images.max(axis=0) == np.arange(images.shape[1]))


@pytest.mark.parametrize("order", [6, 8])
def test_stabilizers_leave_their_measured_free_columns(order):
    # 1102 of 2432 class columns at order 6, 2090 of 4736 at order 8; U2U
    # and D2D 36 of 152 and 64 of 296.
    sym_perm = get_operator_set(order).sym_perm
    free = sum(len(orbit_representatives(s, sym_perm)) for s in CLASS_STABILIZERS)
    axis = len(orbit_representatives(AXIS_PERM_SYMS, sym_perm))
    assert (free, axis) == {6: (1102, 36), 8: (2090, 64)}[order]
    for syms in CLASS_STABILIZERS + (AXIS_PERM_SYMS,):
        assert np.array_equal(lattice_orbits(syms, sym_perm).reps,
                              orbit_representatives(syms, sym_perm))


@pytest.mark.parametrize("order", [3, 4])
def test_lattice_orbits_follow_their_definitions(order):
    # For the flips and every class stabilizer: each point is its
    # representative's image under its element, and under no lesser one;
    # an orbit's size times its representative's stabilizer is the group.
    # The flips' representatives have no coordinate below the center.
    sym_perm = get_operator_set(order).sym_perm
    for syms in (np.arange(8),) + CLASS_STABILIZERS:
        orbits = lattice_orbits(syms, sym_perm)
        perms = sym_perm[syms]
        rep = orbits.reps[orbits.orbit]
        assert np.array_equal(perms[orbits.element, rep], np.arange(perms.shape[1]))
        for j, (e, r) in enumerate(zip(orbits.element, rep)):
            assert not (perms[:e, r] == j).any()
        assert np.array_equal(orbits.size, np.bincount(orbits.orbit))
        assert np.all(orbits.size * orbits.stabilizer.sum(axis=0) == len(syms))
        assert np.array_equal(orbits.source, orbits.orbit * len(syms) + orbits.element)
    centered = 2 * _surface_lattice(order) - (order - 1)
    flips = lattice_orbits(np.arange(8), sym_perm)
    assert np.array_equal(flips.reps, np.flatnonzero((centered >= 0).all(axis=1)))


@pytest.mark.parametrize("order", range(2, 9))
def test_built_matrices_repeat_their_representatives_columns(order):
    # Each class matrix is invariant bit for bit under every element of
    # its class's stabilizer, M[p][:, p] == M for the element's lattice
    # permutation p, and U2U and D2D under the axis permutations: the
    # columns off the representatives are read from theirs. Dense products
    # break this by up to 5.8e-8 of the largest entry at order 8.
    ops = precompute_operators(order)
    pairs = list(zip(ops.m2l_class, CLASS_STABILIZERS))
    pairs += [(ops.u2u, AXIS_PERM_SYMS), (ops.d2d, AXIS_PERM_SYMS)]
    for mat, syms in pairs:
        for s in syms:
            p = ops.sym_perm[s]
            assert np.array_equal(mat[p][:, p], mat), s


@pytest.mark.parametrize("order", range(2, 9))
def test_built_matrices_match_the_direct_products(order):
    # Every class matrix, U2U and D2D is the product of the solve with the
    # directly evaluated kernel, to rounding of the sums of |solve|·|kernel|
    # (at most 5.3e-15 of it measured, at order 8: the solve commutes with
    # the flips exactly but with the axis permutations only to 1.5e-9).
    ops = precompute_operators(order)
    solve, equiv, check = ops.uc2e_inv, ops.up_equiv_grid, ops.up_check_grid
    child = equiv * 0.5 - 0.25
    products = [(ops.m2l_class[c], solve.T, inverse_distances(equiv, v + equiv))
                for c, v in enumerate(CLASS_VECTORS)]
    products += [(ops.u2u, solve, inverse_distances(check, child)),
                 (ops.d2d, 0.5 * solve.T, inverse_distances(child, check))]
    for mat, left, kernel in products:
        bound = 1e-14 * (np.abs(left) @ np.abs(kernel))
        assert np.all(np.abs(mat - left @ kernel) <= bound)


def test_build_temporaries_stay_within_six_matrices():
    # Beyond the arrays it returns, the order-8 build allocates at most 6
    # (n, n) float64 matrices at once: the symmetry fill keeps one class's
    # temporaries at a time (measured 3.2; dense products 3.0; all classes'
    # free columns in one product about 14).
    order = 8
    n = expansion_length(order)
    tracemalloc.start()
    try:
        ops = precompute_operators(order)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ops.m2l_class.shape == (16, n, n)
    assert peak - current <= 6 * n * n * 8, f"{(peak - current) / (8 * n * n):.2f} matrices"


@pytest.mark.parametrize("order", range(2, 9))
def test_check_solve_commutes_with_every_flip(order):
    # The flip-block solve depends on two points' flips only through their
    # xor, so it is invariant under each flip bit for bit (the dense SVD's
    # solve was invariant only to 4.3e-7 at order 8).
    for dtype in (np.float64, np.float32):
        ops = get_operator_set(order, dtype)
        for p in ops.flip_perm:
            assert np.array_equal(ops.uc2e_inv[p][:, p], ops.uc2e_inv)


@pytest.mark.parametrize("order", range(2, 9))
def test_flip_blocks_hold_the_check_systems_spectrum(order):
    # The character basis is orthonormal, so the blocks' singular values,
    # pooled, are the dense check system's.
    up_equiv = surface_grid(order, scale=UPWARD_EQUIV_SCALE)
    up_check = surface_grid(order, scale=UPWARD_CHECK_SCALE)
    flips = lattice_orbits(np.arange(8), get_operator_set(order).sym_perm)
    blocks = flip_blocks(inverse_distances(up_check[flips.reps], up_equiv), flips)
    pooled = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for _, b in blocks]))
    dense = np.linalg.svd(inverse_distances(up_check, up_equiv), compute_uv=False)
    assert len(pooled) == len(dense) == expansion_length(order)
    assert np.abs(pooled[::-1] - dense).max() <= 1e-12 * dense[0]


@pytest.mark.parametrize("order", range(2, 9))
def test_class_kernels_from_the_difference_table_match_the_kernel(order):
    # Each class's transfer kernel, gathered from the lattice-difference
    # table, is the directly evaluated block to a few ulps.
    up_equiv = surface_grid(order, scale=UPWARD_EQUIV_SCALE)
    diff = _lattice_differences(order)
    assert diff.dtype.itemsize <= 2       # no (n, n) index of 8-byte entries
    for table, t0 in zip(class_kernel_table(order), CLASS_VECTORS):
        want = inverse_distances(up_equiv, t0 + up_equiv)
        assert np.all(np.abs(table[diff] - want) <= 4 * np.spacing(want)), t0


@pytest.mark.parametrize("order", range(2, 9))
def test_swapped_check_system_is_bitwise_transpose(order):
    # The downward pass uses the transposed up solve because the kernel
    # matrix with the surfaces swapped is bit for bit the transpose.
    up_equiv = surface_grid(order, scale=UPWARD_EQUIV_SCALE)
    up_check = surface_grid(order, scale=UPWARD_CHECK_SCALE)
    swapped = inverse_distances(up_equiv, up_check)
    assert np.array_equal(swapped, inverse_distances(up_check, up_equiv).T)
    ops = get_operator_set(order)
    assert ops.down_equiv_grid is ops.up_check_grid


def check_apply_m2l_against_dense(dtype, rtol, pool, seed, order=3,
                                  planner=group_pairs_by_transfer):
    """apply_m2l against a dense per-vector sum: every transfer vector,
    targets from ``pool`` (its first in every vector) repeated across
    vectors and across the flips of one stored matrix, sources in the
    local rows and in the ghost rows appended below them, and d
    accumulated onto nonzero values. Returns the plan ``planner`` made."""
    rng = np.random.default_rng(seed)
    ops = ensure_orthant_m2l(precompute_operators(order, dtype=dtype))
    n_t, n_local, n_ghost = int(pool[-1]) + 1, 7, 5
    tgt, src, tv = [], [], []
    for t in range(len(TRANSFER_VECTORS)):
        targets = np.union1d(
            pool[:1], rng.choice(pool, size=rng.integers(1, len(pool)), replace=False)
        )
        tgt.append(targets)
        src.append(rng.integers(0, n_local + n_ghost, len(targets)))
        tv.append(np.full(len(targets), t))
    tgt, src, tv = (np.concatenate(a) for a in (tgt, src, tv))
    assert (src >= n_local).any() and (src < n_local).any()
    u_local = rng.standard_normal((n_local, ops.n_coeff)).astype(dtype)
    ghost = rng.standard_normal((n_ghost, ops.n_coeff)).astype(dtype)
    d0 = rng.standard_normal((n_t, ops.n_coeff)).astype(dtype)
    grouped = planner(tgt, src, tv, ops.n_coeff)
    assert len(grouped[0]) == len(tgt)
    got = apply_m2l(ops, grouped, np.concatenate([u_local, ghost]), d0.copy())

    u_rows = np.concatenate([u_local, ghost]).astype(np.float64)
    want = d0.astype(np.float64)
    for v, vec in enumerate(TRANSFER_VECTORS):
        m2l = transfer_matrix(ops, vec).astype(np.float64)
        for t, s in zip(tgt[tv == v], src[tv == v]):
            want[t] += m2l @ u_rows[s]
    assert got.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())
    return grouped


M2L_DENSE_TOL = pytest.mark.parametrize(
    "dtype, rtol", [(np.float64, 1e-13), (np.float32, 2e-6)], ids=["f64", "f32"]
)


@M2L_DENSE_TOL
def test_apply_m2l_matches_dense_per_vector_sum(dtype, rtol):
    check_apply_m2l_against_dense(dtype, rtol, np.arange(9), seed=29)


@M2L_DENSE_TOL
@pytest.mark.parametrize("order", [2, 4, 6, 8])
@pytest.mark.parametrize("kind", [ClassPlan, TiledPlan], ids=["class", "tiled"])
def test_apply_m2l_plan_kinds_match_dense_per_vector_sum(monkeypatch, kind, order, dtype, rtol):
    # The same pairs (about 1400, a sparse level) planned either way.
    monkeypatch.setattr(operators, "SPARSE_PAIRS", 10**9 if kind is ClassPlan else 0)
    plan = check_apply_m2l_against_dense(dtype, rtol, np.arange(9), seed=order, order=order,
                                         planner=plan_m2l)
    assert type(plan) is kind


def test_class_plan_chunks_cut_inside_and_between_classes(monkeypatch):
    # Chunks of 40 rows against classes of about 25 to 200 pairs.
    monkeypatch.setattr(operators, "CLASS_CHUNK_ENTRIES", 40 * 8)
    plan = check_apply_m2l_against_dense(np.float64, 1e-13, np.arange(9), seed=43, order=2,
                                         planner=group_pairs_by_class)
    starts = [a for a, *_ in plan.chunks[1:]]
    assert all(b - a <= 40 for a, b, *_ in plan.chunks)
    classes = [[c for c, _, _ in runs] for _, _, runs, _, _ in plan.chunks]
    inside = [prev[-1] == nxt[0] for prev, nxt in zip(classes[:-1], classes[1:])]
    assert any(inside) and not all(inside), starts
    assert all(len(set(c)) == len(c) for c in classes)


def test_class_plan_of_one_pair_and_of_none():
    ops = precompute_operators(4)
    u = np.random.default_rng(47).standard_normal((3, ops.n_coeff))
    d0 = np.random.default_rng(48).standard_normal((2, ops.n_coeff))
    t = 123
    one = group_pairs_by_class(np.array([1]), np.array([2]), np.array([t]), ops.n_coeff)
    got = apply_m2l(ops, one, u, d0.copy())
    want = d0.copy()
    want[1] += transfer_matrix(ops, TRANSFER_VECTORS[t]) @ u[2]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    # np.add.reduceat rejects an empty index list: a level without pairs
    # has no chunks and leaves d as it is.
    empty = np.empty(0, dtype=np.int64)
    none = group_pairs_by_class(empty, empty, empty, ops.n_coeff)
    assert len(none[0]) == 0 and none.chunks == []
    assert np.array_equal(apply_m2l(ops, none, u, d0.copy()), d0)


def test_tiled_apply_needs_the_orthant_matrices():
    ops = precompute_operators(2)
    plan = group_pairs_by_transfer(np.array([0]), np.array([0]), np.array([5]), ops.n_coeff)
    u = np.ones((1, ops.n_coeff))
    with pytest.raises(ValueError, match="ensure_orthant_m2l"):
        apply_m2l(ops, plan, u, np.zeros_like(u))


@M2L_DENSE_TOL
def test_apply_m2l_tiles_match_dense_per_vector_sum(dtype, rtol):
    # Targets in tiles 0, 2 and a partial tile 3; tile 1 has no pairs.
    tile = operators.M2L_TILE_TARGETS
    pool = np.concatenate([np.arange(0, tile, 5), np.arange(2 * tile, 3 * tile + tile // 3, 3)])
    tgt, _, _, products, grouped_tile = check_apply_m2l_against_dense(dtype, rtol, pool, seed=31)
    assert grouped_tile == tile and tgt.max() == pool[-1] and (pool[-1] + 1) % tile
    assert [not tile_products for tile_products in products] == [False, True, False, False]


def test_apply_m2l_tiles_match_one_tile_per_level(monkeypatch):
    # The 512 targets of a full level in tiles, against one tile covering
    # the level: the same sums, up to the GEMMs' rounding.
    ops = ensure_orthant_m2l(get_operator_set(6))
    keys = morton.all_keys(3)
    tgt, members, tv = _v_members_with_vectors(keys, 3)
    u = np.random.default_rng(37).standard_normal((len(keys), ops.n_coeff))
    tiled = group_pairs_by_transfer(tgt, np.searchsorted(keys, members), tv, ops.n_coeff)
    monkeypatch.setattr(operators, "M2L_TILE_TARGETS", len(keys))
    whole = group_pairs_by_transfer(tgt, np.searchsorted(keys, members), tv, ops.n_coeff)
    assert len(tiled[3]) == len(keys) // tiled[4] > 1 and len(whole[3]) == 1
    got = apply_m2l(ops, tiled, u, np.zeros_like(u))
    want = apply_m2l(ops, whole, u, np.zeros_like(u))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("level, order", [(3, 6), (2, 2)], ids=["full-level-3", "p64-top"])
def test_tiled_plan_runs_one_product_per_stored_matrix_per_tile(level, order):
    # A full level-3 cube (cube-p1-deep's shape) and the full level 2 that
    # is rank 0's top level on cube-p64-weak, both dense. Each tile's
    # products read strictly increasing stored matrices and cover its pairs
    # contiguously, each product exactly the tile's pairs of its matrix.
    keys = morton.all_keys(level)
    tgt, members, tv = _v_members_with_vectors(keys, level)
    src = np.searchsorted(keys, members)
    plan = plan_m2l(tgt, src, tv, expansion_length(order))
    assert type(plan) is TiledPlan
    # Each pair's orthant matrix, found by its (target, source) in the input.
    pair_key = tgt * len(keys) + src
    by_key = np.argsort(pair_key)
    found = by_key[np.searchsorted(pair_key[by_key], plan.tgt * len(keys) + plan.rows_in // 8)]
    mat = operators.TRANSFER_ORTHANT[tv[found]]
    end = 0
    for k, products in enumerate(plan.products):
        in_tile = np.flatnonzero(plan.tgt // plan.tile == k)
        assert [m for m, _, _ in products] == sorted(set(mat[in_tile].tolist()))
        _, starts, ends = zip(*products)
        assert starts[0] == end == in_tile[0] and ends[-1] == in_tile[-1] + 1
        assert starts[1:] == ends[:-1]
        assert all(a < b and (mat[a:b] == m).all() for m, a, b in products)
        end = ends[-1]
    assert end == len(tgt)


def traced_peak(call):
    """Peak bytes tracemalloc sees during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_apply_m2l_memory_stays_near_its_frames():
    # One call on a full 512-box level at order 6 allocates its 8 flip
    # frames (4.75 MB) and at most 2 MB more: the tiles keep the
    # accumulator and the gathered rows small. A whole-level accumulator
    # peaks near 17.7 MB.
    ops = ensure_orthant_m2l(get_operator_set(6))
    keys = morton.all_keys(3)
    tgt, members, tv = _v_members_with_vectors(keys, 3)
    grouped = group_pairs_by_transfer(tgt, np.searchsorted(keys, members), tv, ops.n_coeff)
    u = np.random.default_rng(41).standard_normal((len(keys), ops.n_coeff))
    d = np.zeros_like(u)
    peak = traced_peak(lambda: apply_m2l(ops, grouped, u, d))
    frames = 8 * u.nbytes
    assert peak < frames + (2 << 20), f"peak {peak / 2**20:.2f} MiB"


def test_class_apply_memory_stays_near_its_chunk_buffers():
    # A sparse level at order 6 (1700 pairs of a full 512-box level, 10
    # chunks): one call allocates its index buffer and its two coefficient
    # buffers of one chunk each (255 KiB apiece) and numpy's 64 KiB buffer
    # of the broadcast index add, not a level's worth of gathered rows
    # (1700 x 152 coefficients, 2 MiB per buffer). Measured: 835 KiB.
    ops = get_operator_set(6)
    keys = morton.all_keys(3)
    tgt, members, tv = _v_members_with_vectors(keys, 3)
    pick = np.sort(np.random.default_rng(53).choice(len(tgt), 1700, replace=False))
    src = np.searchsorted(keys, members[pick])
    plan = group_pairs_by_class(tgt[pick], src, tv[pick], ops.n_coeff)
    assert len(plan.chunks) > 8
    u = np.random.default_rng(54).standard_normal((len(keys), ops.n_coeff))
    d = np.zeros_like(u)
    peak = traced_peak(lambda: apply_m2l(ops, plan, u, d))
    chunk = operators.CLASS_CHUNK_ENTRIES * u.itemsize
    assert peak < 3 * chunk + (128 << 10), f"peak {peak / 2**10:.0f} KiB"


def test_full_pipeline_matches_direct_sum():
    state, f = single_rank(800, seed=5, local_depth=2, order=6)
    ref = direct_sum(state.points, state.points, state.charges)
    assert rel_l2(f, ref) <= OP_TOL[6]


def test_pipeline_linearity_in_charges():
    state, f1 = single_rank(300, seed=6, local_depth=1, order=3)
    update_charges(state, 2.0 * state.charges)
    f2 = evaluate(state).potentials
    np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-12)


def test_u_depends_only_on_inside_points():
    state, _ = single_rank(400, seed=7, local_depth=2, order=3)
    tree, chg = state.tree, state.charges
    u_a = state.store.u[3].copy()
    # Perturb every charge outside one occupied leaf; its u must not move.
    pos = int(np.nonzero(tree.level_nonempty[3])[0][0])
    start, end = tree.leaf_ranges[pos]
    chg_b = chg + 1.0
    chg_b[start:end] = chg[start:end]
    update_charges(state, chg_b)
    evaluate(state)
    assert np.array_equal(u_a[pos], state.store.u[3][pos])


def test_d_depends_only_on_points_outside_halo():
    state, _ = single_rank(400, seed=8, local_depth=2, order=3)
    tree, chg = state.tree, state.charges
    d_a = state.store.d[3].copy()
    # Perturb charges inside the box's colleague halo (including itself).
    pos = 100
    box = int(tree.level_keys[3][pos])
    halo = {box} | {int(k) for k in morton.neighbors(box)}
    pkeys = morton.encode_points(tree.points, 3, tree.cube)
    in_halo = np.isin(pkeys, np.asarray(sorted(halo), dtype=np.uint64))
    assert in_halo.any()
    chg_b = chg.copy()
    chg_b[in_halo] += 1.0
    update_charges(state, chg_b)
    evaluate(state)
    assert np.array_equal(d_a[pos], state.store.d[3][pos])


def test_operators_f32_mode():
    ops = ensure_orthant_m2l(precompute_operators(3, dtype=np.float32))
    assert ops.m2l_class.dtype == ops.m2l_copies.dtype == np.float32
    assert ops.svd_cutoff == 1e-5
