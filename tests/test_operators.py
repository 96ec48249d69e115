"""Surface grids, operator precomputation, and the far-field pipeline."""

import numpy as np
import pytest
from conftest import distributed_run, raw_instance, rel_l2, sorted_instance

from unifmm import morton, operators
from unifmm.distributed import FmmConfig, evaluate, update_charges
from unifmm.kernels import direct_sum, laplace_potential
from unifmm.morton import BoundingCube, make_key
from unifmm.operators import (
    ORTHANT_VECTORS,
    SVD_CUTOFF,
    UPWARD_CHECK_SCALE,
    UPWARD_EQUIV_SCALE,
    _kernel_matrix,
    _tsvd_pinv,
    apply_m2l,
    box_side,
    d2d_level,
    expansion_length,
    get_operator_set,
    group_pairs_by_transfer,
    leaf_s2u_all,
    precompute_operators,
    store_for_tree,
    surface_grid,
    u2u_level,
    upward_pass,
)
from unifmm.tree import TRANSFER_VECTORS, build_tree

UNIT = BoundingCube(origin=(0.0, 0.0, 0.0), side=1.0)

# Far-field tolerances for single-operator checks, an order of magnitude
# above typical observed errors so they stay regression bounds, not flakes.
OP_TOL = {2: 5e-2, 3: 5e-3, 4: 2e-3, 6: 5e-5, 8: 5e-7}


def build_m2l_at_level(order, cube, level, equiv_scale=UPWARD_EQUIV_SCALE,
                       check_scale=UPWARD_CHECK_SCALE, svd_cutoff=SVD_CUTOFF["f64"]):
    """Reference transfer matrices: one kernel matrix and solve per vector,
    from the real geometry of one tree level. For the 1/r kernel the
    result must match the level-shared symmetry-built set to rounding."""
    side = cube.side / (1 << level)
    down_check = surface_grid(order, scale=equiv_scale, side=side)
    down_equiv = surface_grid(order, scale=check_scale, side=side)
    dc2e_inv = _tsvd_pinv(_kernel_matrix(down_check, down_equiv), svd_cutoff)
    up_equiv = surface_grid(order, scale=equiv_scale, side=side)
    n = expansion_length(order)
    m2l = np.empty((len(TRANSFER_VECTORS), n, n))
    for i, t in enumerate(TRANSFER_VECTORS):
        m2l[i] = dc2e_inv @ _kernel_matrix(down_check, t * side + up_equiv)
    return m2l


def flipped(mat, ops, flip):
    """``mat`` in the frame of the sign flip of the axes in ``flip``'s bits."""
    p = ops.flip_perm[flip]
    return mat[np.ix_(p, p)]


def dense_m2l(ops):
    """All 316 transfer matrices, each the stored matrix of its absolute
    vector under the sign flip of its negative axes."""
    out = []
    for t in TRANSFER_VECTORS:
        m = np.flatnonzero((ORTHANT_VECTORS == np.abs(t)).all(axis=1))[0]
        out.append(flipped(ops.m2l[m], ops, int(((t < 0) * [1, 2, 4]).sum())))
    return np.stack(out)


def dense_u2u(ops):
    """U2U per child octant: octant o is the flip o of octant 0."""
    return np.stack([flipped(ops.u2u, ops, o) for o in range(8)])


def dense_d2d(ops):
    """D2D per child octant, as :func:`dense_u2u`."""
    return np.stack([flipped(ops.d2d, ops, o) for o in range(8)])


def evaluate_u_field(ops, cube, key, u, points):
    """Field of an outgoing expansion at arbitrary points."""
    side = box_side(cube, morton.key_level(key))
    equiv = morton.box_center(key, cube) + ops.up_equiv_grid * side
    return laplace_potential(points, equiv, u.astype(np.float64))


def evaluate_d_field(ops, cube, key, d, points):
    """Field of an incoming expansion at arbitrary points."""
    side = box_side(cube, morton.key_level(key))
    equiv = morton.box_center(key, cube) + ops.down_equiv_grid * side
    return laplace_potential(points, equiv, d.astype(np.float64))


def leaf_u(tree, ops, charges, leaf):
    """Outgoing expansion of ``leaf``: its row of :func:`leaf_s2u_all`
    over a zeroed store, as ``evaluate`` computes it."""
    out = store_for_tree(tree, ops).u[tree.leaf_level]
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
    ops = get_operator_set(3)
    assert ops.m2l.shape[0] == 56 == len(ORTHANT_VECTORS)
    assert np.all(ORTHANT_VECTORS >= 0)
    assert dense_m2l(ops).shape[0] == 316 == len(TRANSFER_VECTORS)


def test_operator_set_shapes():
    ops = get_operator_set(3)
    n = expansion_length(3)
    assert ops.u2u.shape == (n, n)
    assert ops.d2d.shape == (n, n)
    assert dense_u2u(ops).shape == dense_d2d(ops).shape == (8, n, n)
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
    for o, child in enumerate(morton.children(parent)):
        anchor, side = morton.decode(int(child), cube)
        pts = anchor + rng.random((5, 3)) * side
        chg = rng.random(5)
        check_pts = anchor + side / 2 + ops.up_check_grid * side
        q = laplace_potential(check_pts, pts, chg)
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
    tree = build_tree(pts, UNIT, 1, 1, local_roots=roots)
    ops = get_operator_set(3)
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
    tree = build_tree(pts, UNIT, 1, 1,
                      local_roots=np.sort(morton.descendants(make_key(0, 0, 0, 0), 1)))
    ops = get_operator_set(order)
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
    tree = build_tree(pts, UNIT, 1, 1,
                      local_roots=np.sort(morton.descendants(make_key(0, 0, 0, 0), 1)))
    ops = get_operator_set(3)
    chg = rng.random(16)
    leaf = int(tree.leaves[np.nonzero(tree.level_nonempty[2])[0][0]])
    np.testing.assert_allclose(
        leaf_u(tree, ops, 2.0 * chg, leaf), 2.0 * leaf_u(tree, ops, chg, leaf), rtol=1e-12
    )


def test_upward_pass_zero_charges_zero_everywhere():
    pts, _, cube = sorted_instance(100, seed=1)
    roots = np.sort(morton.descendants(make_key(0, 0, 0, 0), 1))
    tree = build_tree(pts, cube, 1, 2, local_roots=roots)
    ops = get_operator_set(3)
    store = store_for_tree(tree, ops)
    upward_pass(tree, ops, store, np.zeros(len(pts)))
    for lvl in store.u:
        assert np.all(store.u[lvl] == 0.0)


@pytest.mark.parametrize("order", [3, 6])
def test_upward_pass_point_mass_root_far_field(order):
    pts = np.array([[0.31, 0.52, 0.48]])
    cube = UNIT
    keys = morton.encode_points(pts, 3, cube)
    roots = np.sort(morton.descendants(make_key(0, 0, 0, 0), 1))
    tree = build_tree(pts, cube, 1, 2, local_roots=roots)
    ops = get_operator_set(order)
    store = store_for_tree(tree, ops)
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
        q = laplace_potential(
            morton.box_center(src_key, UNIT) + ops.up_check_grid * side, src_pts, chg
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
    check = morton.box_center(parent, cube) + ops.down_check_grid * side
    d_parent = side * (ops.dc2e_inv @ laplace_potential(check, src_pts, chg))
    d2d = dense_d2d(ops)
    for o, child in enumerate(morton.children(parent)):
        d_child = d2d[o] @ d_parent
        anchor, child_side = morton.decode(int(child), cube)
        inside = anchor + rng.random((10, 3)) * child_side
        got = evaluate_d_field(ops, cube, int(child), d_child, inside)
        want = evaluate_d_field(ops, cube, int(parent), d_parent, inside)
        assert rel_l2(got, want) <= OP_TOL[order]


def test_build_solves_twice_and_forms_16_m2l_products(monkeypatch):
    # Two SVDs (up and down check systems) and one kernel matrix per
    # transfer-vector class (16); D2D reuses the down solve, the other 40
    # stored transfer matrices are index gathers, and U2U and D2D are built
    # for child octant 0 only: 2 + 2 + 16 kernel matrices.
    svds, m2l_centers, kernels = [], [], []
    kernel_matrix = operators._kernel_matrix

    def counting_svd(mat, cutoff):
        svds.append(mat.shape)
        return _tsvd_pinv(mat, cutoff)

    def recording_kernel(targets, sources):
        kernels.append(targets.shape)
        center = sources.mean(axis=0)
        if np.abs(center).max() >= 1.5:     # translated by a transfer vector
            m2l_centers.append(tuple(np.rint(center).astype(int)))
        return kernel_matrix(targets, sources)

    monkeypatch.setattr(operators, "_tsvd_pinv", counting_svd)
    monkeypatch.setattr(operators, "_kernel_matrix", recording_kernel)
    precompute_operators(4)
    assert len(svds) == 2
    assert len(m2l_centers) == len(set(m2l_centers)) == 16
    assert len(kernels) == 20


@pytest.mark.parametrize(
    "dtype, rtol", [(np.float64, 1e-13), (np.float32, 2e-6)], ids=["f64", "f32"]
)
def test_apply_m2l_matches_dense_per_vector_sum(dtype, rtol):
    # Every transfer vector, targets repeated across vectors and across the
    # flips of one stored matrix, sources in the local rows and in the ghost
    # rows appended below them, and d accumulated onto nonzero values.
    rng = np.random.default_rng(29)
    ops = precompute_operators(3, dtype=dtype)
    n_t, n_local, n_ghost = 9, 7, 5
    tgt, src, tv = [], [], []
    for t in range(len(TRANSFER_VECTORS)):
        targets = np.union1d([0], rng.choice(n_t, size=rng.integers(1, n_t), replace=False))
        tgt.append(targets)
        src.append(rng.integers(0, n_local + n_ghost, len(targets)))
        tv.append(np.full(len(targets), t))
    tgt, src, tv = (np.concatenate(a) for a in (tgt, src, tv))
    assert (src >= n_local).any() and (src < n_local).any()
    u_local = rng.standard_normal((n_local, ops.n_coeff)).astype(dtype)
    ghost = rng.standard_normal((n_ghost, ops.n_coeff)).astype(dtype)
    d0 = rng.standard_normal((n_t, ops.n_coeff)).astype(dtype)
    grouped = group_pairs_by_transfer(tgt, src, tv)
    assert len(grouped[0]) == len(tgt)
    got = apply_m2l(ops, grouped, np.concatenate([u_local, ghost]), d0.copy())

    m2l = dense_m2l(ops).astype(np.float64)
    u_rows = np.concatenate([u_local, ghost]).astype(np.float64)
    want = d0.astype(np.float64)
    for t, s, v in zip(tgt, src, tv):
        want[t] += m2l[v] @ u_rows[s]
    assert got.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


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
    ops = precompute_operators(3, dtype=np.float32)
    assert ops.m2l.dtype == np.float32
    assert ops.svd_cutoff == 1e-5
