"""CLI subcommands, file formats, and emitted artifacts."""

import csv
import hashlib
import json

import numpy as np
import pytest

from unifmm.cli import (
    generate_points,
    main,
    read_charges,
    read_points,
    write_charges,
    write_points,
)
from unifmm.operators import frozen_eps


def test_generate_zero_points_errors(tmp_path, capsys):
    rc = main(["generate", "--n", "0", "--out", str(tmp_path / "p.bin")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_generate_sphere_radii_and_roundtrip(tmp_path):
    out = tmp_path / "sphere.bin"
    rc = main(["generate", "--dist", "sphere_surface", "--n", "10000",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    pts = read_points(str(out))
    radii = np.linalg.norm(pts, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-12)


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for out in (a, b):
        rc = main(["generate", "--dist", "uniform_cube", "--n", "10000",
                   "--seed", "11", "--out", str(out), "--charges", str(out) + ".chg"])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.bin.chg").read_bytes() == (tmp_path / "b.bin.chg").read_bytes()


def test_point_file_magic_and_precision(tmp_path):
    path = tmp_path / "pts.bin"
    pts = generate_points("uniform_cube", 17, 0)
    write_points(str(path), pts, precision="f32")
    raw = path.read_bytes()
    assert raw[:8] == b"FMMPTS1\x00"
    got = read_points(str(path))
    np.testing.assert_allclose(got, pts, atol=1e-6)
    with pytest.raises(ValueError, match="magic"):
        read_charges(str(path))


@pytest.mark.parametrize("fault, message", [
    ("precision", "precision field is 16"),
    ("body", "body holds 116 bytes, expected 10 x 3"),
    ("header", "header truncated"),
])
def test_point_file_corruption_names_path(tmp_path, fault, message):
    path = tmp_path / "pts.bin"
    write_points(str(path), generate_points("uniform_cube", 10, 0), precision="f32")
    raw = bytearray(path.read_bytes())
    if fault == "precision":
        raw[8:12] = (16).to_bytes(4, "little")
    elif fault == "body":
        raw = raw[:-4]
    else:
        raw = raw[:14]
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=message) as info:
        read_points(str(path))
    assert str(path) in str(info.value)


def test_charges_file_roundtrip(tmp_path):
    path = tmp_path / "q.bin"
    q = np.linspace(0, 1, 9)
    write_charges(str(path), q)
    np.testing.assert_allclose(read_charges(str(path)), q)


def test_verify_small_instance_passes(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    rc = main(["verify", "--n", "800", "--p", "8", "--order", "4",
               "--local-depth", "2", "--seed", "5", "--out", str(manifest)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "PASS" in out
    data = json.loads(manifest.read_text())
    assert data["verify"]["distributed_vs_reference"] <= 1e-10
    assert len(data["verify"]["rank_point_counts"]) == 8


def test_verify_p1_reference_identity(capsys):
    rc = main(["verify", "--n", "400", "--p", "1", "--order", "3",
               "--local-depth", "1", "--seed", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    # Same code path on one rank: the distributed-vs-reference error is 0.
    line = [l for l in out.splitlines() if "distributed-vs-reference" in l][0]
    assert float(line.split(":")[1].split("(")[0]) == 0.0


def test_verify_f32_uses_f32_tolerance(capsys):
    # f32 runs differ from the single-rank reference by far more than the
    # f64 bound (1.9e-10 here), and pass against their own.
    rc = main(["verify", "--n", "4096", "--p", "8", "--order", "3",
               "--precision", "f32", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0, out
    line = [l for l in out.splitlines() if "distributed-vs-reference" in l][0]
    assert line.endswith("(tolerance 1e-06)")
    assert 1e-10 < float(line.split(":")[1].split("(")[0]) <= 1e-6


def test_verify_f32_holds_reference_to_f32_bound(capsys):
    # At order 6 the f32 reference is 8.0e-5 from direct summation, far
    # above the f64 bound of 1e-6, and passes against the frozen f32 one.
    rc = main(["verify", "--n", "4096", "--p", "8", "--order", "6",
               "--precision", "f32", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert f"(frozen eps(6) = {frozen_eps(6, 'f32'):.1e})" in out
    assert "verify: PASS" in out


def test_verify_corrupted_ghost_fails(capsys):
    rc = main(["verify", "--n", "800", "--p", "8", "--order", "3",
               "--local-depth", "2", "--seed", "7", "--test-drop-ghost", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "unresolved dependency" in captured.err


@pytest.mark.parametrize("rank", [8, -1])
def test_verify_rejects_drop_ghost_rank_outside_world(monkeypatch, capsys, rank):
    # Out of range, the hook would drop nothing and verify would pass: it is
    # rejected before the world exists.
    def no_world(*args, **kwargs):
        raise AssertionError("create_world called")

    monkeypatch.setattr("unifmm.cli.create_world", no_world)
    rc = main(["verify", "--n", "64", "--p", "8", "--local-depth", "1",
               "--test-drop-ghost", str(rank)])
    captured = capsys.readouterr()
    assert rc == 1 and "verify: PASS" not in captured.out
    assert "--test-drop-ghost must name a rank below --p 8" in captured.err
    assert captured.err.rstrip().endswith(f"got {rank}"), captured.err


def test_verify_drop_ghost_on_a_rank_that_sends_no_v_row_fails(capsys):
    # One rank has no neighbor to send V rows to, so there is nothing to drop.
    rc = main(["verify", "--n", "400", "--p", "1", "--order", "3",
               "--local-depth", "1", "--seed", "6", "--test-drop-ghost", "0"])
    captured = capsys.readouterr()
    assert rc == 1 and "verify: PASS" not in captured.out
    assert "rank 0 sends no V row to drop" in captured.err


@pytest.mark.parametrize("flags, got", [
    (["--p", "0"], "got 0"),
    (["--p", "-2"], "got -2"),
    (["--p", "9", "--global-depth", "1"], "got 9"),
    (["--p", "65", "--global-depth", "2"], "got 65"),
])
def test_verify_rejects_p_outside_root_count(monkeypatch, capsys, flags, got):
    # Rejected before the world exists, so no rank thread starts.
    def no_world(*args, **kwargs):
        raise AssertionError("create_world called")

    monkeypatch.setattr("unifmm.cli.create_world", no_world)
    rc = main(["verify", "--n", "64", "--local-depth", "1", *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert "--p must be between 1 and" in err and err.rstrip().endswith(got), err


def test_sweep_rejects_non_power_of_8(tmp_path, capsys):
    rc = main(["sweep", "--p", "8,12", "--n", "64", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--p", "8,0"], "--p entries must be >= 1, got 0"),
    (["--p", "-8"], "--p entries must be >= 1, got -8"),
    (["--p", "8", "--repeats", "0"], "--repeats must be >= 1, got 0"),
])
def test_sweep_rejects_values_below_1(tmp_path, capsys, flags, message):
    out = tmp_path / "s"
    rc = main(["sweep", *flags, "--n", "64", "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.stats.csv").exists()


def test_sweep_rejects_a_repeated_rank_count(tmp_path, capsys):
    # A repeated P would run twice and write each (P, phase) twice.
    rc = main(["sweep", "--p", "8,64,8", "--n", "64", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "--p lists 8 more than once" in capsys.readouterr().err
    assert not (tmp_path / "s.stats.csv").exists()


def test_sweep_does_not_take_a_global_depth(tmp_path, capsys):
    # sweep takes each P's global depth from P, so a --global-depth would be
    # ignored; argparse rejects it instead of running at another depth.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--p", "8", "--global-depth", "3", "--n", "64", "--local-depth", "1",
              "--order", "2", "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --global-depth 3" in capsys.readouterr().err
    assert not (tmp_path / "s.stats.csv").exists()


def test_sweep_weak_emits_stats_timings_manifest(tmp_path):
    out = tmp_path / "weak"
    rc = main(["sweep", "--p", "8,64", "--mode", "weak", "--n", "64",
               "--local-depth", "1", "--order", "2", "--repeats", "2",
               "--seed", "9", "--out", str(out)])
    assert rc == 0
    with open(str(out) + ".stats.csv") as f:
        rows = list(csv.DictReader(f))
    # One row per (P, repeat, rank, collective).
    assert len(rows) == (8 + 64) * 2 * 5
    for row in rows:
        assert int(row["v_degree"]) <= 26
        if row["collective"] == "gatherv":
            assert int(row["calls"]) == 1
    with open(str(out) + ".timings.csv") as f:
        trows = list(csv.DictReader(f))
    phases = {r["phase"] for r in trows}
    assert {"sort_tree", "computation", "gatherv", "scatterv",
            "neighbor_alltoallv"} <= phases
    stds = [r for r in trows if r["repeat"] == "std"]
    assert stds and all(float(r["seconds"]) >= 0 for r in stds)
    manifest = json.loads((tmp_path / "weak.manifest.json").read_text())
    assert manifest["sweep"]["mode"] == "weak"
    assert manifest["transport_backend"] == "sim"


def test_sweep_aggregates_take_the_slowest_rank(tmp_path):
    out = tmp_path / "agg"
    rc = main(["sweep", "--p", "8", "--n", "64", "--local-depth", "1",
               "--order", "2", "--repeats", "2", "--out", str(out)])
    assert rc == 0
    with open(str(out) + ".timings.csv") as f:
        rows = list(csv.DictReader(f))
    # The per-rank rows come first, then two aggregate rows per phase.
    per_rank, aggregates = rows[:-20], rows[-20:]
    slowest = {}
    for r in per_rank:
        key = (r["phase"], int(r["repeat"]))
        slowest[key] = max(slowest.get(key, 0.0), float(r["seconds"]))
    expected = []
    for phase in dict.fromkeys(r["phase"] for r in per_rank):
        maxima = [slowest[phase, rep] for rep in range(2)]
        expected += [("8", "mean", "all", phase, float(np.mean(maxima))),
                     ("8", "std", "all", phase, float(np.std(maxima)))]
    assert [(r["p"], r["repeat"], r["rank"], r["phase"], float(r["seconds"]))
            for r in aggregates] == expected


def test_sweep_strong_mode_runs(tmp_path):
    out = tmp_path / "strong"
    rc = main(["sweep", "--p", "8,64", "--mode", "strong", "--n", "512",
               "--local-depth", "1", "--order", "2", "--seed", "4",
               "--out", str(out)])
    assert rc == 0
    with open(str(out) + ".stats.csv") as f:
        rows = list(csv.DictReader(f))
    n_by_p = {}
    for row in rows:
        n_by_p.setdefault(row["p"], 0)
        if row["collective"] == "gatherv":
            n_by_p[row["p"]] += int(row["n_points"])
    # Strong scaling holds total N fixed.
    assert n_by_p["8"] == n_by_p["64"] == 512


@pytest.mark.parametrize("flags, stats_digest, manifest_digest", [
    (["--p", "8,64", "--n", "64", "--local-depth", "1", "--order", "3"],
     "3d545861768f11fe6101cd97acad05cd014fe7b1b4bca17de82f68153bc8cda8",
     "f69d9bd529dc6aeb9ad0466cd4589fced60a343a52a2b198c18795a681594cb0"),
    (["--p", "8,64", "--mode", "strong", "--n", "512", "--local-depth", "1",
      "--order", "3", "--precision", "f32", "--repeats", "2", "--seed", "4"],
     "f05fbddf126b498b213ae6cb5169ef4774287f6c3f371b352a46071ae7ea6624",
     "2d4e6691f902b124a005b81bf2a5616269a2c28886c3e9d11df71f1e1412a656"),
], ids=["weak", "strong-f32-2-repeats"])
def test_sweep_deterministic_outputs_are_pinned(tmp_path, flags, stats_digest, manifest_digest):
    # The stats CSV and manifest are pure functions of the config; a change
    # that moves a byte of either changes what the sweep reports.
    out = tmp_path / "pin"
    rc = main(["sweep", *flags, "--out", str(out)])
    assert rc == 0
    digests = {
        suffix: hashlib.sha256((tmp_path / f"pin{suffix}").read_bytes()).hexdigest()
        for suffix in (".stats.csv", ".manifest.json")
    }
    assert digests == {".stats.csv": stats_digest, ".manifest.json": manifest_digest}
