"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria with runtime bounds assert them on measured wall time.
"""

import csv
import json
import time

import numpy as np
import pytest
from conftest import concat_potentials, distributed_run, raw_instance, rel_l2
from reference import compute_u_list, compute_v_list, transfer_vector

from unifmm import morton
from unifmm.cli import main as cli_main
from unifmm.distributed import FmmConfig, global_message_size, setup
from unifmm.kernels import direct_sum
from unifmm.operators import expansion_length, frozen_eps
from unifmm.partition import redistribute, sample_splitters
from unifmm.transport import create_world, run_spmd
from unifmm.tree import build_tree

UNIT = morton.BoundingCube(origin=(0.0, 0.0, 0.0), side=1.0)


def _passed(num, text):
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def oracle_run():
    """Shared criterion-1 configuration: N=4096, P=8, d_g=1, d_l=2, order 6."""
    t0 = time.perf_counter()
    pts, chg = raw_instance(4096, seed=4242)
    config = FmmConfig(global_depth=1, local_depth=2, order=6, seed=4242)
    world, states, evals = distributed_run(pts, chg, 8, config)
    _, ref_states, ref_evals = distributed_run(pts, chg, 1, config)
    spts = ref_states[0].points
    schg = ref_states[0].charges
    f_direct = direct_sum(spts, spts, schg)
    elapsed = time.perf_counter() - t0
    return {
        "states": states,
        "evals": evals,
        "f_dist": concat_potentials(evals),
        "f_ref": ref_evals[0][0].potentials,
        "f_direct": f_direct,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def weak_family():
    """Setup-only weak-scaling family: P in {8, 64, 512}, N/P = 512, d_l = 1."""
    out = {}
    for P, d_g in ((8, 1), (64, 2), (512, 3)):
        pts, chg = raw_instance(P * 512, seed=77)
        chunks = np.array_split(np.arange(len(pts)), P)
        config = FmmConfig(global_depth=d_g, local_depth=1, order=2, seed=77)
        world = create_world(P, seed=77)

        def program(comm, _chunks=chunks, _config=config):
            state = setup(comm, pts[_chunks[comm.rank]], chg[_chunks[comm.rank]], _config)
            return (len(state.u_graph), len(state.v_graph), state.v_ghost_count())

        t0 = time.perf_counter()
        rows = run_spmd(world, program)
        out[P] = {"rows": rows, "seconds": time.perf_counter() - t0}
    return out


def test_criterion_1_oracle_correctness(oracle_run):
    """Distributed == reference within 1e-10; reference vs direct within eps(6)."""
    err_ref = rel_l2(oracle_run["f_dist"], oracle_run["f_ref"])
    err_direct = rel_l2(oracle_run["f_ref"], oracle_run["f_direct"])
    assert err_ref <= 1e-10
    assert err_direct <= frozen_eps(6)
    assert oracle_run["elapsed"] < 30.0
    _passed(1, f"dist-vs-ref {err_ref:.2e} <= 1e-10, ref-vs-direct "
               f"{err_direct:.2e} <= {frozen_eps(6):.0e}, "
               f"{oracle_run['elapsed']:.1f}s < 30s")


def test_criterion_2_convergence_in_order():
    """Error vs direct sum strictly decreases across orders 2, 4, 6, 8."""
    t0 = time.perf_counter()
    pts, chg = raw_instance(2000, seed=777)
    errors = {}
    f_direct = None
    for order in (2, 4, 6, 8):
        config = FmmConfig(global_depth=1, local_depth=2, order=order, seed=777)
        _, states, evals = distributed_run(pts, chg, 1, config)
        if f_direct is None:
            spts, schg = states[0].points, states[0].charges
            f_direct = direct_sum(spts, spts, schg)
        errors[order] = rel_l2(evals[0][0].potentials, f_direct)
    elapsed = time.perf_counter() - t0
    seq = [errors[o] for o in (2, 4, 6, 8)]
    assert all(a > b for a, b in zip(seq, seq[1:])), errors
    assert elapsed < 60.0
    _passed(2, "errors " + " > ".join(f"{errors[o]:.1e}" for o in (2, 4, 6, 8))
               + f", {elapsed:.1f}s < 60s")


def test_criterion_3_expansion_length_and_payload():
    """n_e formula values and the exact 104-byte gather payload."""
    assert expansion_length(2) == 8
    assert expansion_length(3) == 26
    assert expansion_length(6) == 152
    assert global_message_size(1, 3, 32) == 104
    pts, chg = raw_instance(1024, seed=31)
    config = FmmConfig(global_depth=1, local_depth=1, order=3, precision="f32", seed=31)
    _, states, evals = distributed_run(pts, chg, 8, config)
    payloads = {e[0].stats["gatherv"]["payload_bytes"] for e in evals}
    assert payloads == {104}
    _passed(3, "n_e(2,3,6) = 8,26,152; gatherv payload per rank = 104 bytes")


def test_criterion_4_neighbor_bound(weak_family):
    """U/V graph degree <= 26 everywhere; interior ranks at P=512 hit 26."""
    for P, data in weak_family.items():
        u_deg = np.array([r[0] for r in data["rows"]])
        v_deg = np.array([r[1] for r in data["rows"]])
        assert u_deg.max() <= 26 and v_deg.max() <= 26, f"P={P}"
    v512 = np.array([r[1] for r in weak_family[512]["rows"]])
    assert (v512 == 26).sum() == 6**3  # interior subdomains of the 8^3 lattice
    assert weak_family[512]["seconds"] < 120.0
    _passed(4, f"degrees <= 26 for P in (8, 64, 512); {(v512 == 26).sum()} interior "
               f"ranks at exactly 26; P=512 setup {weak_family[512]['seconds']:.1f}s < 120s")


def test_criterion_5_runtime_collective_schedule(oracle_run):
    """Exactly one neighbor_alltoallv, gatherv, and scatterv per evaluate."""
    for per_rank in oracle_run["evals"]:
        stats = per_rank[0].stats
        assert stats["neighbor_alltoallv"]["calls"] == 1
        assert stats["gatherv"]["calls"] == 1
        assert stats["scatterv"]["calls"] == 1
        assert stats["allgatherv"]["calls"] == 0
        assert stats["alltoallv"]["calls"] == 0
    _passed(5, "per evaluate and rank: 1 neighbor_alltoallv, 1 gatherv, 1 scatterv")


def test_criterion_6_surface_scaling(weak_family):
    """Interior-rank V-ghost box count is constant as P grows."""
    ghosts = {
        P: {
            "interior": {r[2] for r in data["rows"] if r[1] == 26},
            "corner": {r[2] for r in data["rows"] if r[1] == 7},
        }
        for P, data in weak_family.items()
    }
    # d_g = 1 has no interior subdomain (every octant touches the boundary);
    # interior counts must agree exactly across P = 64 and 512, and the
    # corner signature must agree across all three P.
    assert ghosts[8]["interior"] == set()
    assert len(ghosts[64]["interior"]) == 1
    assert ghosts[64]["interior"] == ghosts[512]["interior"]
    assert ghosts[8]["corner"] == ghosts[64]["corner"] == ghosts[512]["corner"]
    interior = next(iter(ghosts[64]["interior"]))
    _passed(6, f"interior V-ghost count {interior} identical at P=64 and P=512; "
               f"corner count {next(iter(ghosts[8]['corner']))} identical at P=8,64,512")


def test_criterion_7_sort_invariants():
    """Global key order after redistribution; sampled-bucket imbalance <= 1.3x."""
    n = 100_000
    leaf_level = 4

    def one_trial(P, seed, collect_keys=False):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 3))
        chg = rng.random(n)
        cube = morton.fit_domain(pts)
        chunks = np.array_split(np.arange(n), P)

        def program(comm):
            mine = chunks[comm.rank]
            keys = morton.encode_points(pts[mine], leaf_level, cube)
            spl = sample_splitters(comm, keys, 200, seed=seed, snap_level=3)
            p, c, _ = redistribute(comm, keys, pts[mine], chg[mine], spl)
            out_keys = np.sort(morton.encode_points(p, leaf_level, cube)) if collect_keys else None
            return len(p), out_keys

        world = create_world(P, seed=seed)
        return run_spmd(world, program)

    for P in (2, 4, 8):
        rows = one_trial(P, seed=555, collect_keys=True)
        merged = np.concatenate([r[1] for r in rows])
        assert np.all(merged[:-1] <= merged[1:]), f"global order broken at P={P}"
        for i in range(P - 1):
            assert rows[i][1].max() < rows[i + 1][1].min()

    worst = 0.0
    for P in (2, 4, 8):
        for t in range(20):
            rows = one_trial(P, seed=9000 + t)
            worst = max(worst, max(r[0] for r in rows) / (n / P))
    assert worst <= 1.3
    _passed(7, f"global order holds for P in (2,4,8); worst bucket imbalance "
               f"{worst:.3f}x <= 1.3x over 20 trials")


def test_criterion_8_interaction_list_cardinalities():
    """|U| = 27, |V| = 189, 316 transfer vectors, against brute force."""
    n = 1 << 3
    centers = (np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1) + 0.5) / n
    pts = centers.reshape(-1, 3)
    keys = morton.encode_points(pts, 3, UNIT)
    tree = build_tree(pts[np.argsort(keys, kind="stable")], UNIT, 1, 2,
                      local_roots=morton.descendants(morton.make_key(0, 0, 0, 0), 1))

    def brute_v(box, level):
        lat = 1 << level
        bx, by, bz = morton.anchor_lattice(box)
        out = []
        for ix in range(lat):
            for iy in range(lat):
                for iz in range(lat):
                    if max(abs(ix - bx), abs(iy - by), abs(iz - bz)) <= 1:
                        continue
                    if max(abs(ix // 2 - bx // 2), abs(iy // 2 - by // 2),
                           abs(iz // 2 - bz // 2)) <= 1:
                        out.append(morton.make_key(ix, iy, iz, level))
        return sorted(out)

    interior = morton.make_key(3, 4, 2, 3)
    u = compute_u_list(tree, interior)
    assert len(u) == 27 and int(interior) in {int(k) for k in u}
    v = compute_v_list(tree, interior)
    assert len(v) == 189
    assert [int(k) for k in v] == brute_v(interior, 3)

    vectors = set()
    for ix in (2, 3):
        for iy in (2, 3):
            for iz in (2, 3):
                box = morton.make_key(ix, iy, iz, 3)
                vectors |= {tuple(transfer_vector(int(k), box))
                            for k in compute_v_list(tree, box)}
    assert len(vectors) == 316
    _passed(8, "interior |U| = 27, |V| = 189, distinct transfer vectors = 316")


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed give byte-identical artifacts."""
    pts, chg = raw_instance(1000, seed=808)
    config = FmmConfig(global_depth=1, local_depth=1, order=3, seed=808)
    f1 = concat_potentials(distributed_run(pts, chg, 8, config)[2])
    f2 = concat_potentials(distributed_run(pts, chg, 8, config)[2])
    assert np.array_equal(f1, f2)

    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        rc = cli_main(["sweep", "--p", "8", "--n", "128", "--local-depth", "1",
                       "--order", "3", "--repeats", "2", "--seed", "808",
                       "--out", str(out)])
        assert rc == 0
        outputs.append(out)
    stats_a = (tmp_path / "run_a.stats.csv").read_bytes()
    stats_b = (tmp_path / "run_b.stats.csv").read_bytes()
    manifest_a = (tmp_path / "run_a.manifest.json").read_bytes()
    manifest_b = (tmp_path / "run_b.manifest.json").read_bytes()
    assert stats_a == stats_b
    assert manifest_a == manifest_b
    _passed(9, "byte-identical potentials, stats CSV, and manifest across reruns")


def test_criterion_10_sphere_surface(tmp_path):
    """Sphere input passes criterion-1 tolerances; imbalance is reported."""
    pts, chg = raw_instance(32768, seed=2024, sphere=True)
    config = FmmConfig(global_depth=1, local_depth=2, order=6, seed=2024)
    _, states, evals = distributed_run(pts, chg, 8, config)
    f_dist = concat_potentials(evals)
    _, ref_states, ref_evals = distributed_run(pts, chg, 1, config)
    f_ref = ref_evals[0][0].potentials
    err_ref = rel_l2(f_dist, f_ref)
    spts, schg = ref_states[0].points, ref_states[0].charges
    err_direct = rel_l2(f_ref, direct_sum(spts, spts, schg))
    assert err_ref <= 1e-10
    assert err_direct <= frozen_eps(6)

    # The emitted stats carry per-rank point counts (reported, no threshold).
    out = tmp_path / "sphere"
    rc = cli_main(["sweep", "--p", "8", "--dist", "sphere_surface", "--n", "512",
                   "--local-depth", "1", "--order", "3", "--seed", "2024",
                   "--out", str(out)])
    assert rc == 0
    with open(str(out) + ".stats.csv") as f:
        counts = {int(r["rank"]): int(r["n_points"]) for r in csv.DictReader(f)}
    assert sum(counts.values()) == 8 * 512
    imbalance = max(counts.values()) / (8 * 512 / 8)
    _passed(10, f"sphere dist-vs-ref {err_ref:.2e}, ref-vs-direct {err_direct:.2e}"
                f" <= {frozen_eps(6):.0e}; reported imbalance {imbalance:.2f}x")
