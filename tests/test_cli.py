"""End-to-end checks of the command-line surface."""

import argparse
import codecs
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

import oracles
from vlpkit import cli
from vlpkit.cli import main, replicate_scene
from vlpkit.io import (
    DETECTION_COLUMNS,
    FIX_COLUMNS,
    TRACK_COLUMNS,
    _record_table,
    read_detections_csv,
    read_fixes_csv,
    read_ground_truth_csv,
    read_scene,
    scene_to_dict,
    write_scene,
    write_tracks_csv,
)
from vlpkit.positioning import Method
from vlpkit.simulator import (
    SWEEP_ANGLES_12,
    CameraPose,
    NoiseModel,
    TrialRecord,
    default_grid,
    default_scene,
    generate_trials,
    observe,
    rotation_sweep,
)


def test_simulate_writes_dataset(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--out", str(out), "--trials", "2", "--seed", "3"])
    assert rc == 0
    for name in ("scene.json", "detections.csv", "ground_truth.csv", "run.json"):
        assert (out / name).exists()
    truths = read_ground_truth_csv(out / "ground_truth.csv")
    assert len(truths) == 36 * 2


def test_simulate_at_single_point(tmp_path):
    out = tmp_path / "single"
    rc = main(["simulate", "--out", str(out), "--trials", "5", "--at", "1,2,0"])
    assert rc == 0
    truths = read_ground_truth_csv(out / "ground_truth.csv")
    assert len(truths) == 5
    assert all(row[:3] == (1.0, 2.0, 0.0) for row in truths.values())


def test_simulate_same_args_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--out", str(a), "--seed", "9"])
    main(["simulate", "--out", str(b), "--seed", "9"])
    assert (a / "detections.csv").read_bytes() == (b / "detections.csv").read_bytes()
    assert (a / "ground_truth.csv").read_bytes() == (b / "ground_truth.csv").read_bytes()


@pytest.mark.parametrize("method", ["three-led", "two-led"])
def test_locate_noiseless_round_trip(tmp_path, method):
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "1"])
    loc = tmp_path / "loc"
    rc = main(
        [
            "locate",
            "--scene",
            str(sim / "scene.json"),
            "--detections",
            str(sim / "detections.csv"),
            "--out",
            str(loc),
            "--method",
            method,
        ]
    )
    assert rc == 0
    truths = read_ground_truth_csv(sim / "ground_truth.csv")
    fixes = read_fixes_csv(loc / "fixes.csv")
    assert len(fixes.keys) == 36
    for key, position in zip(fixes.keys, fixes.positions.tolist()):
        x, y, z, _ = truths[key]
        # CSV carries 6 decimals, so exactness survives only to that scale.
        assert position[0] == pytest.approx(x, abs=1e-5)
        assert position[1] == pytest.approx(y, abs=1e-5)
        assert position[2] == pytest.approx(z, abs=1e-5)


def _two_beacon_detections(tmp_path):
    """A one-trial-per-point simulation with beacon L3 dropped from every trial."""
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "1"])
    src = (sim / "detections.csv").read_text().splitlines()
    kept = [src[0]] + [line for line in src[1:] if not line.split(",")[2] == "L3"]
    crippled = sim / "two_only.csv"
    crippled.write_text("\n".join(kept) + "\n")
    return sim, crippled


def test_locate_returns_1_when_every_row_fails(tmp_path):
    # The three-beacon path rejects every row.
    sim, crippled = _two_beacon_detections(tmp_path)
    loc = tmp_path / "loc"
    rc = main(
        [
            "locate",
            "--scene",
            str(sim / "scene.json"),
            "--detections",
            str(crippled),
            "--out",
            str(loc),
            "--method",
            "three-led",
        ]
    )
    assert rc == 1
    # The same file still satisfies the two-beacon path.
    rc = main(
        [
            "locate",
            "--scene",
            str(sim / "scene.json"),
            "--detections",
            str(crippled),
            "--out",
            str(tmp_path / "loc2"),
            "--method",
            "two-led",
        ]
    )
    assert rc == 0


def test_locate_summarizes_failures_by_type(tmp_path, capsys):
    sim, crippled = _two_beacon_detections(tmp_path)
    loc = tmp_path / "loc"
    capsys.readouterr()
    argv = ["locate", "--scene", str(sim / "scene.json"), "--detections", str(crippled), "--out", str(loc)]
    assert main(argv + ["--method", "three-led"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "warning: 36 trial(s) failed with ValueError, first 0/0: expected 3 detections, got 2"
    with open(loc / "fixes.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 36
    assert {(row["status"], row["message"]) for row in rows} == {("error", "expected 3 detections, got 2")}


def test_locate_counts_each_failure_type_in_rows_from_its_first_failed_row(tmp_path, capsys):
    # Set A (L1 off the sensor) fails at 0/0, 0/2 and 1/2, not adjacent; an UnknownBeacon set
    # first fails between them, at 0/1, and again at 1/0; a one-detection set fails at 1/1.
    detections = tmp_path / "detections.csv"
    _write_lines(
        detections,
        "point_index,trial_index,beacon_id,u_px,v_px",
        *("0,0,L1,0,-3", "0,0,L2,400,300", "0,1,L1,410,300", "0,1,L9,400,310", "0,2,L1,0,-3", "0,2,L2,400,300"),
        *("1,0,L1,410,300", "1,0,L9,400,310", "1,1,L2,400,300", "1,2,L1,0,-3", "1,2,L2,400,300"),
    )
    write_scene(default_scene(), tmp_path / "scene.json")
    argv = ["locate", "--scene", str(tmp_path / "scene.json"), "--detections", str(detections), "--method", "two-led"]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "loc")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "warning: 4 trial(s) failed with ValueError, first 0/0: beacon 'L1' has pixel (0.0, -3.0) off the 800x600 sensor",
        "warning: 2 trial(s) failed with UnknownBeacon, first 0/1: beacon id(s) ['L9'] are not in the beacon set",
    ]


def test_locate_paper_faithful_height_flag(tmp_path):
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "1"])
    rc = main(
        [
            "locate",
            "--scene",
            str(sim / "scene.json"),
            "--detections",
            str(sim / "detections.csv"),
            "--out",
            str(tmp_path / "loc"),
            "--paper-faithful-h",
        ]
    )
    assert rc == 0
    # Noiseless input: the single-pair height agrees with the averaged one.
    fixes = read_fixes_csv(tmp_path / "loc" / "fixes.csv")
    assert len(fixes.keys) == 36


def test_calibrate_rotation_cli_recovers_offset(tmp_path):
    scene = replace(replicate_scene(0), noise=NoiseModel())
    scene_path = tmp_path / "scene.json"
    write_scene(scene, scene_path)
    sweep = replace(scene, camera_pose=CameraPose((0.0, 0.0, 0.0)))
    tracks = rotation_sweep(sweep, SWEEP_ANGLES_12)
    tracks_path = tmp_path / "tracks.csv"
    write_tracks_csv(tracks, tracks_path)
    out = tmp_path / "cal"
    rc = main(
        [
            "calibrate",
            "--scene",
            str(scene_path),
            "--out",
            str(out),
            "--calibration",
            "rotation",
            "--tracks",
            str(tracks_path),
        ]
    )
    assert rc == 0
    calibrated = json.loads((out / "scene_calibrated.json").read_text())
    u1, v1 = calibrated["intrinsics"]["corrected_principal_point_px"]
    assert u1 == pytest.approx(406.3, abs=1e-6)
    assert v1 == pytest.approx(295.9, abs=1e-6)
    assert "principal point" in (out / "calibration.txt").read_text()


def _dispersion_without_fixes(tmp_path):
    write_scene(replicate_scene(0), tmp_path / "scene.json")
    return ["calibrate", "--scene", str(tmp_path / "scene.json"), "--calibration", "dispersion"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp_path: ["simulate", "--at", "1,2,x"], "--at expects numbers, got '1,2,x'"),
        (_dispersion_without_fixes, "dispersion calibration needs --fixes"),
    ],
    ids=["at-not-a-number", "dispersion-without-fixes"],
)
def test_a_bad_flag_prints_its_exact_error(tmp_path, capsys, argv, message):
    args = argv(tmp_path) + ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_calibrate_rotation_needs_tracks(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    write_scene(replicate_scene(0), scene_path)
    rc = main(
        [
            "calibrate",
            "--scene",
            str(scene_path),
            "--out",
            str(tmp_path / "cal"),
            "--calibration",
            "rotation",
        ]
    )
    assert rc == 1
    assert "--tracks" in capsys.readouterr().err


def _noiseless_fixes_at_origin(tmp_path, extra_locate_args=()):
    scene = replace(replicate_scene(4), noise=NoiseModel())
    scene_path = tmp_path / "scene.json"
    write_scene(scene, scene_path)
    sim = tmp_path / "sim"
    main(["simulate", "--scene", str(scene_path), "--out", str(sim), "--trials", "20", "--at", "0,0,0"])
    loc = tmp_path / "loc"
    args = [
        "locate",
        "--scene",
        str(scene_path),
        "--detections",
        str(sim / "detections.csv"),
        "--out",
        str(loc),
        "--method",
        "three-led",
    ]
    main(args + list(extra_locate_args))
    return scene_path, loc / "fixes.csv"


def test_calibrate_dispersion_cli_recovers_offset(tmp_path):
    scene_path, fixes_path = _noiseless_fixes_at_origin(tmp_path)
    out = tmp_path / "cal"
    rc = main(
        [
            "calibrate",
            "--scene",
            str(scene_path),
            "--out",
            str(out),
            "--calibration",
            "dispersion",
            "--fixes",
            str(fixes_path),
            "--ground-truth",
            "0,0,0",
        ]
    )
    assert rc == 0
    calibrated = json.loads((out / "scene_calibrated.json").read_text())
    u1, v1 = calibrated["intrinsics"]["corrected_principal_point_px"]
    # Fixes pass through a 6-decimal CSV, which caps the recovery at ~3e-6 px.
    assert u1 == pytest.approx(406.3, abs=1e-4)
    assert v1 == pytest.approx(295.9, abs=1e-4)


def test_calibrate_dispersion_paper_literal_differs(tmp_path):
    scene_path, fixes_path = _noiseless_fixes_at_origin(tmp_path)
    out = tmp_path / "cal_lit"
    rc = main(
        [
            "calibrate",
            "--scene",
            str(scene_path),
            "--out",
            str(out),
            "--calibration",
            "dispersion",
            "--fixes",
            str(fixes_path),
            "--ground-truth",
            "0,0,0",
            "--paper-literal",
        ]
    )
    assert rc == 0
    calibrated = json.loads((out / "scene_calibrated.json").read_text())
    u1, v1 = calibrated["intrinsics"]["corrected_principal_point_px"]
    # Without the focal/height scaling the correction overshoots by H*f ratio.
    assert abs(u1 - 406.3) > 1.0
    assert abs(v1 - 295.9) > 1.0


def test_stats_cli_reports_headline(tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "1"])
    loc = tmp_path / "loc"
    main(
        [
            "locate",
            "--scene",
            str(sim / "scene.json"),
            "--detections",
            str(sim / "detections.csv"),
            "--out",
            str(loc),
        ]
    )
    capsys.readouterr()
    out = tmp_path / "stats"
    rc = main(
        [
            "stats",
            "--fixes",
            str(loc / "fixes.csv"),
            "--ground-truth",
            str(sim / "ground_truth.csv"),
            "--out",
            str(out),
            "--label",
            "demo",
        ]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    assert "demo: average positioning error is 0.00cm" in shown
    for name in ("errors_demo.csv", "cdf_demo.csv", "histogram_demo.csv", "summary_demo.txt"):
        assert (out / name).exists()


def test_stats_missing_truth_row_fails(tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "1"])
    loc = tmp_path / "loc"
    main(
        [
            "locate",
            "--scene",
            str(sim / "scene.json"),
            "--detections",
            str(sim / "detections.csv"),
            "--out",
            str(loc),
        ]
    )
    truncated = sim / "short_truth.csv"
    lines = (sim / "ground_truth.csv").read_text().splitlines()
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    rc = main(
        [
            "stats",
            "--fixes",
            str(loc / "fixes.csv"),
            "--ground-truth",
            str(truncated),
            "--out",
            str(tmp_path / "stats"),
        ]
    )
    assert rc == 1
    assert "no ground truth" in capsys.readouterr().err


def test_stats_names_the_ground_truth_file_that_lacks_a_trial(tmp_path, capsys):
    sim, loc = tmp_path / "sim", tmp_path / "loc"
    main(["simulate", "--out", str(sim), "--trials", "1", "--at", "1,2,0"])
    main(["locate", "--scene", str(sim / "scene.json"), "--detections", str(sim / "detections.csv"), "--out", str(loc)])
    truth = sim / "header_only.csv"
    truth.write_text((sim / "ground_truth.csv").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    rc = main(["stats", "--fixes", str(loc / "fixes.csv"), "--ground-truth", str(truth), "--out", str(tmp_path / "stats")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {truth}: no ground truth for trial 0/0\n"


def test_a_scene_file_with_a_byte_order_mark_reads_as_the_original(tmp_path):
    # Some editors write one first; json.loads refused it, while the CSV readers drop it.
    sim = tmp_path / "sim"
    assert main(["simulate", "--scene", str(DATA / "scene_dropout.json"), "--trials", "2", "--out", str(sim)]) == 0
    marked = tmp_path / "scene_bom.json"
    marked.write_bytes(codecs.BOM_UTF8 + (sim / "scene.json").read_bytes())
    assert read_scene(marked) == read_scene(sim / "scene.json")
    for scene in (sim / "scene.json", marked):
        argv = ["locate", "--scene", str(scene), "--detections", str(sim / "detections.csv")]
        assert main([*argv, "--out", str(tmp_path / scene.stem)]) == 0
    assert (tmp_path / "scene_bom" / "fixes.csv").read_bytes() == (tmp_path / "scene" / "fixes.csv").read_bytes()


def test_missing_scene_file_is_a_clean_error(tmp_path, capsys):
    rc = main(
        [
            "locate",
            "--scene",
            str(tmp_path / "nope.json"),
            "--detections",
            str(tmp_path / "nope.csv"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_replicate_emits_full_report(tmp_path):
    out = tmp_path / "rep"
    rc = main(["replicate", "--out", str(out), "--seed", "1"])
    assert rc == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,calibration,mean_cm,p90_cm,max_cm,rms_cm,trials"
    cells = {tuple(line.split(",")[:2]) for line in summary[1:]}
    assert cells == {
        (m, c)
        for m in ("two-led", "three-led")
        for c in ("uncalibrated", "rotation", "dispersion")
    }
    assert all(line.split(",")[6] == "432" for line in summary[1:])
    comparisons = (out / "comparisons.csv").read_text().splitlines()
    assert len(comparisons) == 1 + 6
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["subcommand"] == "replicate"
    assert manifest["trials"] == 432
    assert manifest["dispersion_point"] == [-41.0, 7.0, 0.0]
    for method in ("two-led", "three-led"):
        for calibration in ("uncalibrated", "rotation", "dispersion"):
            assert (out / f"fixes_{method}_{calibration}.csv").exists()
            assert (out / f"errors_{method}_{calibration}.csv").exists()
    assert (out / "tracks_rotation.csv").exists()
    assert (out / "summary.txt").read_text().count("average positioning error") == 6


def test_replicate_fixes_match_standalone_locate(tmp_path):
    rep = tmp_path / "rep"
    assert main(["replicate", "--out", str(rep), "--seed", "7"]) == 0
    # Pixels are quantized, so the detections CSV round trip is exact.
    for method in ("two-led", "three-led"):
        scenes = {
            "uncalibrated": "scene.json",
            "rotation": "scene_rotation.json",
            "dispersion": f"scene_dispersion_{method}.json",
        }
        for calibration, scene in scenes.items():
            loc = tmp_path / f"{method}_{calibration}"
            argv = ["locate", "--scene", str(rep / scene), "--detections", str(rep / "detections.csv")]
            assert main(argv + ["--out", str(loc), "--method", method]) == 0
            expected = (rep / f"fixes_{method}_{calibration}.csv").read_bytes()
            assert (loc / "fixes.csv").read_bytes() == expected, (method, calibration)


GOLDEN_CSV_DIGESTS = Path(__file__).parent / "data" / "golden_replicate_csv.sha256"


def test_replicate_seed_7_csvs_match_golden_digests(tmp_path):
    out = tmp_path / "rep"
    assert main(["replicate", "--out", str(out), "--seed", "7"]) == 0
    # sha256sum format: "<digest>  <file name>" per line.
    expected = {
        name: digest
        for digest, name in (line.split(None, 1) for line in GOLDEN_CSV_DIGESTS.read_text().splitlines())
    }
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.glob("*.csv")}
    assert got == expected
    # summary.txt holds the rotation fits and both dispersion circles, which no CSV does.
    digest, name = (Path(__file__).parent / "data" / "golden_replicate_summary_txt.sha256").read_text().split()
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


GOLDEN_STATS_DIGESTS = Path(__file__).parent / "data" / "golden_stats_csv.sha256"


def test_stats_and_calibrate_read_from_csv_match_golden_digests(tmp_path, capsys):
    # The replicate scene's noisy seed-7 detections, over the grid and at its centre.
    write_scene(replicate_scene(7), tmp_path / "scene.json")
    files = {}
    for tag, at in (("grid", []), ("at", ["--at=-41,7,0"])):
        sim = tmp_path / f"sim_{tag}"
        argv = ["simulate", "--scene", str(tmp_path / "scene.json"), "--seed", "7", "--trials", "12"]
        assert main([*argv, "--out", str(sim), *at]) == 0
        for method in ("two-led", "three-led"):
            loc = tmp_path / f"loc_{tag}_{method}"
            argv = ["locate", "--scene", str(sim / "scene.json"), "--detections", str(sim / "detections.csv")]
            assert main([*argv, "--out", str(loc), "--method", method]) == 0
            label = f"{tag}_{method}"
            argv = ["stats", "--fixes", str(loc / "fixes.csv"), "--ground-truth", str(sim / "ground_truth.csv")]
            assert main([*argv, "--out", str(tmp_path / "stats"), "--label", label]) == 0
            if at:
                cal = tmp_path / f"cal_{method}"
                argv = ["calibrate", "--scene", str(sim / "scene.json"), "--calibration", "dispersion", "--fixes"]
                assert main([*argv, str(loc / "fixes.csv"), "--ground-truth=-41,7,0", "--out", str(cal)]) == 0
                files[f"calibration_{label}.txt"] = cal / "calibration.txt"
    # errors_*, cdf_* and histogram_* CSVs and summary_*.txt; run.json holds paths.
    files.update((path.name, path) for path in (tmp_path / "stats").glob("*_*.*"))
    expected = {
        name: digest
        for digest, name in (line.split(None, 1) for line in GOLDEN_STATS_DIGESTS.read_text().splitlines())
    }
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    assert got == expected


DATA = Path(__file__).parent / "data"


def test_locate_on_a_lowered_ceiling_matches_golden_digests(tmp_path, monkeypatch):
    # Beacons at 110 cm leave the frame at some grid points: two-led rows fixed
    # from two and from three detections, rows with one, and three-led rows failing
    # with "expected 3 detections, got 2".
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--scene", str(DATA / "scene_dropout.json"), "--seed", "7", "--trials", "12"]
    assert main([*argv, "--out", "sim"]) == 0
    for method in ("two-led", "three-led"):
        argv = ["locate", "--scene", "sim/scene.json", "--detections", "sim/detections.csv"]
        assert main([*argv, "--out", method, "--method", method]) == 0
    expected = {
        name: digest
        for digest, name in (line.split(None, 1) for line in (DATA / "golden_locate_dropout.sha256").read_text().splitlines())
    }
    got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in expected}
    assert got == expected
    assert sorted(expected) == ["sim/detections.csv", "sim/ground_truth.csv", "three-led/fixes.csv", "two-led/fixes.csv"]


def test_simulate_300_trials_of_the_replicate_scene_matches_golden_digests(tmp_path):
    # Quantized noise repeats most pixels and every pose, so the writers reuse most row texts.
    write_scene(replicate_scene(7), tmp_path / "scene.json")
    assert main(["simulate", "--scene", str(tmp_path / "scene.json"), "--trials", "300", "--out", str(tmp_path)]) == 0
    expected = {
        name: digest
        for digest, name in (line.split(None, 1) for line in (DATA / "golden_simulate_replicate.sha256").read_text().splitlines())
    }
    assert sorted(expected) == ["detections.csv", "ground_truth.csv", "scene.json"]
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected} == expected


def test_run_json_counts_the_beacons_dropped_off_the_frame(tmp_path):
    # The lowered ceiling puts beacons off the frame at some grid points.
    argv = ["--scene", str(DATA / "scene_dropout.json"), "--seed", "7"]
    sim = tmp_path / "sim"
    assert main(["simulate", *argv, "--trials", "12", "--out", str(sim)]) == 0
    rows = len((sim / "detections.csv").read_text().splitlines()) - 1
    assert json.loads((sim / "run.json").read_text())["beacons_dropped"] == 3 * 432 - rows == 288
    rep = tmp_path / "rep"
    assert main(["replicate", *argv, "--out", str(rep)]) == 0
    rows = len((rep / "detections.csv").read_text().splitlines()) - 1
    # A three-led dispersion fix holds 3 detections, or fails naming how many it got.
    with open(rep / "dispersion_fixes_three-led.csv", newline="") as handle:
        seen = [3 if row["status"] == "ok" else int(row["message"].rsplit(" ", 1)[1]) for row in csv.DictReader(handle)]
    assert len(seen) == 432
    assert json.loads((rep / "run.json").read_text())["beacons_dropped"] == 3 * 864 - rows - sum(seen)
    # The count stays out of every CSV and the summary.
    assert not any("dropped" in path.read_text() for path in [*rep.glob("*.csv"), rep / "summary.txt"])


def _locate_with_trial_0_0_u(tmp_path, method, u_px):
    """Locate 72 simulated trials after setting trial 0/0's first u_px; the fixes.csv rows and the simulate dir."""
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "2"])
    path = sim / "detections.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    assert cells[:2] == ["0", "0"]
    cells[3] = u_px
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    loc = tmp_path / "loc"
    argv = ["locate", "--scene", str(sim / "scene.json"), "--detections", str(path), "--out", str(loc)]
    assert main(argv + ["--method", method]) == 0
    with open(loc / "fixes.csv", newline="") as handle:
        return list(csv.DictReader(handle)), sim


def test_each_distinct_detection_set_is_checked_against_the_sensor_once(tmp_path, monkeypatch):
    checked = []
    check = cli._check_on_sensor
    monkeypatch.setattr(cli, "_check_on_sensor", lambda dets, k: checked.append(len(dets)) or check(dets, k))
    calls = _count_solves(monkeypatch)
    # replicate's in-memory sets are checked too: one check before each solve.
    assert main(["replicate", "--out", str(tmp_path / "rep")]) == 0
    assert len(checked) == len(calls) == 2740
    checked.clear()
    _, sim = _locate_with_trial_0_0_u(tmp_path, "three-led", "400")
    # The reader shares one Detection per distinct row text, and each distinct set is one of its sets.
    table = read_detections_csv(sim / "detections.csv")
    distinct = {tuple(map(id, table.sets[i])): len(table.sets[i]) for i in table.index.tolist()}
    assert len(distinct) == len(table.sets)
    assert sorted(checked) == sorted(distinct.values())
    assert 1 < len(checked) < 72


def _assert_only_trial_0_0_fails(tmp_path, method, u_px):
    """Locate 72 simulated trials after setting trial 0/0's first u_px; only that row may fail. Returns its message."""
    rows, sim = _locate_with_trial_0_0_u(tmp_path, method, u_px)
    status = {(row["point_index"], row["trial_index"]): row["status"] for row in rows}
    assert status.pop(("0", "0")) == "error"
    assert len(status) == 71 and set(status.values()) == {"ok"}
    # Every ok row reads back, so stats accepts the file.
    argv = ["stats", "--fixes", str(tmp_path / "loc" / "fixes.csv"), "--ground-truth", str(sim / "ground_truth.csv")]
    assert main(argv + ["--out", str(tmp_path / "stats")]) == 0
    return rows[0]["message"]


@pytest.mark.parametrize("method", ["two-led", "three-led"])
def test_locate_fails_only_the_row_with_a_non_finite_pixel(tmp_path, method):
    _assert_only_trial_0_0_fails(tmp_path, method, "nan")


def test_three_led_fails_only_the_row_whose_huge_pixel_overflows(tmp_path):
    _assert_only_trial_0_0_fails(tmp_path, "three-led", "1e200")


@pytest.mark.parametrize("method", ["two-led", "three-led"])
@pytest.mark.parametrize("u_px", ["-0.5", "800.5", "1e200"])
def test_locate_fails_only_the_row_with_a_pixel_off_the_sensor(tmp_path, method, u_px):
    message = _assert_only_trial_0_0_fails(tmp_path, method, u_px)
    assert message.startswith("beacon 'L1' has pixel (") and message.endswith(") off the 800x600 sensor")
    assert str(float(u_px)) in message


@pytest.mark.parametrize("method", ["two-led", "three-led"])
@pytest.mark.parametrize("u_px", ["nan", "inf", "-inf"])
def test_locate_names_a_non_finite_pixel_as_non_finite_not_off_the_sensor(tmp_path, method, u_px):
    message = _assert_only_trial_0_0_fails(tmp_path, method, u_px)
    assert message == f"beacon 'L1' has non-finite pixel ({float(u_px)}, 145.0)"


@pytest.mark.parametrize("method", ["two-led", "three-led"])
@pytest.mark.parametrize("u_px", ["0", "800"])
def test_locate_accepts_a_pixel_on_the_sensor_edge(tmp_path, method, u_px):
    rows, _ = _locate_with_trial_0_0_u(tmp_path, method, u_px)
    assert {row["status"] for row in rows} == {"ok"}


# --- each distinct detection set solved once ---


def _count_solves(monkeypatch):
    """The detections of each compute_fix call _locate makes from now on."""
    calls = []
    solve = cli.compute_fix
    monkeypatch.setattr(cli, "compute_fix", lambda dets, *args: calls.append(dets) or solve(dets, *args))
    return calls


def test_locate_solves_each_distinct_detection_set_of_a_file_once(tmp_path, monkeypatch):
    # The noiseless default scene gives a point the same pixels in every trial.
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--trials", "3"]) == 0
    calls = _count_solves(monkeypatch)
    argv = ["locate", "--scene", str(sim / "scene.json"), "--detections", str(sim / "detections.csv")]
    assert main([*argv, "--out", str(tmp_path / "loc"), "--method", "two-led"]) == 0
    table = read_detections_csv(sim / "detections.csv")
    distinct = {tuple(map(id, table.sets[i])) for i in table.index.tolist()}
    assert len(calls) == len(distinct) == len(table.sets) == 36
    lines = (tmp_path / "loc" / "fixes.csv").read_text().splitlines()[1:]
    assert len(lines) == 108 and len({line.split(",", 2)[2] for line in lines}) == 36


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_locate_solves_each_distinct_detection_set_of_generated_trials_once(tmp_path, monkeypatch, sigma):
    # generate_trials shares one Detection per distinct pixel of a beacon at a point, as replicate's groups do.
    calls = _count_solves(monkeypatch)
    scene = replace(replicate_scene(7), noise=NoiseModel(sigma, quantize=True))
    records = generate_trials(default_grid()[:4], 30, scene)
    table = _record_table(records)
    fixes = cli._locate(table, scene.beacons, scene.intrinsics, Method.THREE_LED, "average", tmp_path / "fixes.csv")
    distinct = {tuple(map(id, rec.detections)) for rec in records}
    assert len(calls) == len(distinct) < len(fixes.keys) == 120
    ref = oracles.row_by_row_locate(table, scene.beacons, scene.intrinsics, Method.THREE_LED, "average", tmp_path / "ref.csv")
    assert (tmp_path / "fixes.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _assert_same_fix_columns(fixes, ref)


def test_locate_solves_every_group_that_shares_no_detection(tmp_path, monkeypatch):
    calls = _count_solves(monkeypatch)
    # Each observe call builds new detections, even where the pixels are equal.
    scene = default_scene()
    records = [
        TrialRecord(point, trial, CameraPose(position), tuple(observe(replace(scene, camera_pose=CameraPose(position)))), 0)
        for point, position in enumerate(default_grid())
        for trial in range(2)
    ]
    assert records[0].detections == records[1].detections
    table = _record_table(records)
    fixes = cli._locate(table, scene.beacons, scene.intrinsics, Method.TWO_LED, "average", tmp_path / "fixes.csv")
    assert len(calls) == len(fixes.keys) == 72
    # A file whose row texts never repeat.
    write_scene(replace(scene, noise=NoiseModel(pixel_sigma=0.5)), tmp_path / "scene.json")
    sim = tmp_path / "sim"
    assert main(["simulate", "--scene", str(tmp_path / "scene.json"), "--trials", "2", "--out", str(sim)]) == 0
    texts = [line.split(",", 2)[2] for line in (sim / "detections.csv").read_text().splitlines()[1:]]
    assert len(set(texts)) == len(texts)
    calls.clear()
    argv = ["locate", "--scene", str(sim / "scene.json"), "--detections", str(sim / "detections.csv")]
    assert main([*argv, "--out", str(tmp_path / "loc")]) == 0
    assert len(calls) == 72


@pytest.fixture(scope="module")
def dropout_trials(tmp_path_factory):
    """The lowered-ceiling scene file and its 72 seed-7 trials, each a list of [beacon_id, u_px, v_px] texts."""
    sim = tmp_path_factory.mktemp("dropout") / "sim"
    argv = ["simulate", "--scene", str(DATA / "scene_dropout.json"), "--seed", "7", "--trials", "2"]
    assert main([*argv, "--out", str(sim)]) == 0
    trials = {}
    for line in (sim / "detections.csv").read_text().splitlines()[1:]:
        point, trial, *cells = line.split(",")
        trials.setdefault((point, trial), []).append(cells)
    return sim / "scene.json", list(trials.values())


def _respell(text):
    """The same pixel value spelled another way: 427.000000 as 427."""
    value = float(text)
    return str(int(value)) if value.is_integer() else repr(value)


# How a drawn trial is written: as it was simulated (so a trial drawn twice repeats
# exactly), or with one pixel respelled, moved off the sensor or made nan, or with one
# detection dropped.
TRIAL_EDITS = ("copy", "copy", "copy", "respell", "off_sensor", "nan", "drop")


def _locate_outcome(argv, out):
    """main's exit code and stderr, and the bytes of the fixes.csv it wrote."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main([*argv, "--out", str(out)])
    return rc, err.getvalue(), (out / "fixes.csv").read_bytes()


def _assert_same_fix_columns(got, want):
    """Two FixColumns hold the same keys, and positions and heights of the same dtype, shape and bits."""
    assert got.keys == want.keys
    for a, b in [(got.positions, want.positions), (got.heights, want.heights)]:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _assert_locate_matches_row_by_row(argv, work):
    """locate's outcome and _locate's FixColumns equal the one-solve-per-row reference's; returns the outcome."""
    returned = []

    def recorded(locate):
        def run(*args):
            returned.append(locate(*args))
            return returned[-1]

        return run

    with patch.object(cli, "_locate", recorded(cli._locate)):
        got = _locate_outcome(argv, work / "new")
    with patch.object(cli, "_locate", recorded(oracles.row_by_row_locate)):
        assert got == _locate_outcome(argv, work / "reference")
    _assert_same_fix_columns(*returned)
    return got


def test_locate_keys_a_detection_set_by_its_objects_in_list_order(tmp_path):
    # 1/1 repeats 0/0, so solved sets are reused. 0/1 holds 0/0's objects in the other
    # order, so its message names the other beacon; 1/0's L1 equals 0/0's in value, but
    # its -0 prints as -0.0.
    detections = tmp_path / "detections.csv"
    _write_lines(
        detections,
        "point_index,trial_index,beacon_id,u_px,v_px",
        *("0,0,L1,0,-3", "0,0,L2,-1,300", "0,1,L2,-1,300", "0,1,L1,0,-3", "1,0,L1,-0,-3", "1,0,L2,-1,300"),
        *("1,1,L1,0,-3", "1,1,L2,-1,300"),
    )
    write_scene(default_scene(), tmp_path / "scene.json")
    argv = ["locate", "--scene", str(tmp_path / "scene.json"), "--detections", str(detections), "--method", "two-led"]
    rc, err, fixes = _assert_locate_matches_row_by_row(argv, tmp_path)
    assert rc == 1 and err.startswith("warning: 4 trial(s) failed with ValueError, first 0/0: beacon 'L1'")
    messages = [row[-1] for row in csv.reader(fixes.decode().splitlines()[1:])]
    assert [m.split(" off ")[0] for m in messages] == [
        "beacon 'L1' has pixel (0.0, -3.0)",
        "beacon 'L2' has pixel (-1.0, 300.0)",
        "beacon 'L1' has pixel (-0.0, -3.0)",
        "beacon 'L1' has pixel (0.0, -3.0)",
    ]


@settings(max_examples=25)
@pytest.mark.parametrize(
    "flags", [["--method", "two-led"], ["--method", "three-led"], ["--method", "three-led", "--paper-faithful-h"]]
)
@given(data=st.data())
def test_locate_reusing_repeated_detection_sets_matches_row_by_row_solves(tmp_path_factory, dropout_trials, flags, data):
    scene, base = dropout_trials
    pool = data.draw(st.lists(st.sampled_from(range(len(base))), min_size=1, max_size=4, unique=True))
    trials = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(TRIAL_EDITS)), min_size=2, max_size=12))
    rows = []
    for key, (pick, edit) in enumerate(trials):
        cells = [list(det) for det in base[pick]]
        det = data.draw(st.integers(0, len(cells) - 1))
        if edit == "respell":
            cells[det][1] = _respell(cells[det][1])
        elif edit == "off_sensor":
            cells[det][1] = data.draw(st.sampled_from(["-3", "812.5"]))
        elif edit == "nan":
            cells[det][2] = "nan"
        elif edit == "drop":
            del cells[det]
        note(f"trial {key}: base trial {pick}, {edit}")
        rows.extend([str(key // 3), str(key % 3), *c] for c in cells)
    # A trial's rows need not be contiguous in the file.
    if data.draw(st.booleans()):
        rows = data.draw(st.permutations(rows))
    work = tmp_path_factory.mktemp("reuse")
    detections = work / "detections.csv"
    detections.write_text("\n".join(map(",".join, [["point_index", "trial_index", "beacon_id", "u_px", "v_px"], *rows])) + "\n")
    _assert_locate_matches_row_by_row(["locate", "--scene", str(scene), "--detections", str(detections), *flags], work)
    # No ok row holds a non-finite value.
    with open(work / "new" / "fixes.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            if row["status"] == "ok":
                assert all(math.isfinite(float(row[c])) for c in FIX_COLUMNS[4:-1] if row[c]), row


@pytest.mark.parametrize("argv, seed", [(["simulate", "--trials", "1"], 0), (["replicate"], 7)], ids=["simulate", "replicate"])
def test_run_json_records_the_seed_used_without_a_seed_flag(tmp_path, argv, seed):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["seed"] == seed
    assert json.loads((out / "scene.json").read_text())["seed"] == seed


def _drop_u_px(rows):
    for row in rows:
        del row[3]


def _garble_u_px(rows):
    rows[2][3] = "abc"


@pytest.mark.parametrize(
    "edit, needle",
    [(_drop_u_px, ": missing required column(s) 'u_px'"), (_garble_u_px, ":3: could not convert")],
)
def test_malformed_detections_csv_is_a_clean_error(tmp_path, capsys, edit, needle):
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "1"])
    rows = [line.split(",") for line in (sim / "detections.csv").read_text().splitlines()]
    edit(rows)
    bad = sim / "bad.csv"
    bad.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    rc = main(["locate", "--scene", str(sim / "scene.json"), "--detections", str(bad), "--out", str(tmp_path / "loc")])
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {bad}{needle}")


def test_wrong_or_missing_input_file_is_a_clean_error(tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "1"])
    detections = sim / "detections.csv"
    capsys.readouterr()
    rc = main(
        ["stats", "--fixes", str(detections), "--ground-truth", str(sim / "ground_truth.csv"), "--out", str(tmp_path)]
    )
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {detections}: missing required column(s)")
    assert "'status'" in line
    missing = sim / "nope.csv"
    rc = main(["locate", "--scene", str(sim / "scene.json"), "--detections", str(missing), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {missing}: No such file or directory"]


def test_stats_on_a_non_finite_fix_names_the_line(tmp_path, capsys):
    sim, loc = tmp_path / "sim", tmp_path / "loc"
    main(["simulate", "--out", str(sim), "--trials", "1"])
    main(["locate", "--scene", str(sim / "scene.json"), "--detections", str(sim / "detections.csv"), "--out", str(loc)])
    fixes = loc / "fixes.csv"
    lines = fixes.read_text().splitlines()
    cells = lines[3].split(",")
    assert cells[3] == "ok"
    cells[4] = "nan"
    lines[3] = ",".join(cells)
    fixes.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["stats", "--fixes", str(fixes), "--ground-truth", str(sim / "ground_truth.csv"), "--out", str(tmp_path)])
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {fixes}:4: non-finite coordinate")


def _off_sensor_dispersion(tmp_path):
    # A corrected principal point at the sensor edge biases the fixes so far that
    # the paper-literal correction lands thousands of pixels off the sensor.
    scene = replicate_scene(0)
    scene = replace(scene, intrinsics=scene.intrinsics.with_principal_point(799.0, 300.0))
    scene_path = tmp_path / "scene.json"
    write_scene(scene, scene_path)
    sim, loc = tmp_path / "sim", tmp_path / "loc"
    assert main(["simulate", "--scene", str(scene_path), "--at=-40,5,0", "--trials", "50", "--out", str(sim)]) == 0
    argv = ["locate", "--scene", str(scene_path), "--detections", str(sim / "detections.csv"), "--out", str(loc)]
    assert main(argv + ["--method", "two-led"]) == 0
    fixes = str(loc / "fixes.csv")
    argv = ["calibrate", "--scene", str(scene_path), "--calibration", "dispersion", "--paper-literal"]
    return argv + ["--fixes", fixes, "--ground-truth=-40,5,0"]


def _non_finite_ground_truth(tmp_path):
    scene_path, fixes_path = _noiseless_fixes_at_origin(tmp_path)
    argv = ["calibrate", "--scene", str(scene_path), "--calibration", "dispersion", "--fixes", str(fixes_path)]
    return argv + ["--ground-truth", "nan,0,0"]


def _scene_is_a_directory(tmp_path):
    return ["simulate", "--scene", str(tmp_path)]


def _scene_is_not_utf8(tmp_path):
    path = tmp_path / "scene.json"
    path.write_bytes(b'{"beacons": "\xff"}')
    return ["simulate", "--scene", str(path)]


def _scene_pose_is_not_an_object(tmp_path):
    path = tmp_path / "scene.json"
    raw = scene_to_dict(default_scene())
    raw["camera_pose"] = 5
    path.write_text(json.dumps(raw))
    return ["simulate", "--scene", str(path)]


def _default_scene_file(tmp_path):
    path = tmp_path / "scene.json"
    write_scene(default_scene(), path)
    return str(path)


def _write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _detection_row_lacks_beacon_id(tmp_path):
    path = _write_lines(
        tmp_path / "detections.csv", "point_index,trial_index,u_px,v_px,beacon_id", "0,0,300.0,300.0,L1", "0,0,310.0,300.0"
    )
    return ["locate", "--scene", _default_scene_file(tmp_path), "--detections", path]


def _locate_detections(tmp_path, *lines):
    path = _write_lines(tmp_path / "detections.csv", *lines)
    return ["locate", "--scene", _default_scene_file(tmp_path), "--detections", path]


def _rotation_tracks(tmp_path, *lines):
    path = _write_lines(tmp_path / "tracks.csv", ",".join(TRACK_COLUMNS), *lines)
    return ["calibrate", "--scene", _default_scene_file(tmp_path), "--calibration", "rotation", "--tracks", path]


def _track_row_lacks_track_id(tmp_path):
    path = _write_lines(tmp_path / "tracks.csv", "sample_index,u_px,v_px,track_id", "0,1.0,2.0,A", "1,2.0,3.0")
    return ["calibrate", "--scene", _default_scene_file(tmp_path), "--calibration", "rotation", "--tracks", path]


def _dispersion_fixes(tmp_path, height_cm):
    ok = f"0,0,three-led,ok,1.0,2.0,0.0,{height_cm},2.5,135.0,,"
    path = _write_lines(tmp_path / "fixes.csv", ",".join(FIX_COLUMNS), ok, ok)
    return ["calibrate", "--scene", _default_scene_file(tmp_path), "--calibration", "dispersion", "--fixes", path]


def _scene_text(tmp_path, text):
    return ["simulate", "--scene", _write_lines(tmp_path / "scene.json", text)]


def _scene_seed_has_4295_digits(tmp_path):
    raw = scene_to_dict(default_scene())
    raw["seed"] = 10**4294
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(raw))
    return ["simulate", "--trials", "1", "--scene", str(path)]


def _out_is_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["simulate", "--trials", "1", "--out", str(tmp_path / "taken")]


def _out_is_under_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["simulate", "--trials", "1", "--out", str(tmp_path / "taken" / "out")]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp_path: ["simulate", "--trials", "0"],
        lambda tmp_path: ["simulate", "--trials", "20000"],
        lambda tmp_path: ["simulate", "--seed", "-1"],
        lambda tmp_path: ["simulate", "--at=0,0,200"],
        lambda tmp_path: ["simulate", "--at", "inf,0,0"],
        lambda tmp_path: ["replicate", "--seed", "-3"],
        lambda tmp_path: ["simulate", "--seed", str(2**63)],
        lambda tmp_path: ["replicate", "--seed", str(2**63)],
        _scene_seed_has_4295_digits,
        _off_sensor_dispersion,
        _non_finite_ground_truth,
        _scene_is_a_directory,
        _scene_is_not_utf8,
        _scene_pose_is_not_an_object,
        lambda tmp_path: _scene_text(tmp_path, "[" * 100_000 + "]" * 100_000),
        lambda tmp_path: _scene_text(tmp_path, "1" * 5_000),
        _detection_row_lacks_beacon_id,
        _track_row_lacks_track_id,
        lambda tmp_path: _locate_detections(tmp_path, ",".join(DETECTION_COLUMNS)),
        lambda tmp_path: _dispersion_fixes(tmp_path, "0.0"),
        lambda tmp_path: _dispersion_fixes(tmp_path, "nan"),
        _out_is_a_file,
        _out_is_under_a_file,
    ],
    ids=[
        "zero-trials",
        "too-many-trials",
        "negative-seed",
        "camera-above-ceiling",
        "at-not-finite",
        "replicate-negative-seed",
        "seed-2**63",
        "replicate-seed-2**63",
        "scene-seed-4295-digits",
        "principal-point-off-sensor",
        "ground-truth-not-finite",
        "scene-is-directory",
        "scene-not-utf8",
        "scene-pose-not-object",
        "scene-nested-too-deep",
        "scene-integer-too-long",
        "detection-row-lacks-beacon-id",
        "track-row-lacks-track-id",
        "detections-header-only",
        "fix-heights-zero",
        "fix-height-nan",
        "out-is-file",
        "out-under-file",
    ],
)
def test_bad_argument_or_path_is_one_error_line(tmp_path, capsys, argv):
    args = argv(tmp_path)
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_non_finite_triple_names_its_flag(tmp_path, capsys):
    cases = [
        (["simulate", "--at", "inf,0,0"], "--at", "inf,0,0"),
        (_non_finite_ground_truth(tmp_path), "--ground-truth", "nan,0,0"),
    ]
    for argv, flag, text in cases:
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {flag} expects finite numbers, got '{text}'\n"


@pytest.mark.parametrize("x, y", [(p[0], p[1]) for p in default_grid()[::7]])
def test_at_takes_a_negative_x_as_its_own_token(tmp_path, x, y):
    at = f"{x:g},{y:g},0"
    forms = {"token": ["--at", at], "abbreviated": ["--a", at], "attached": [f"--at={at}"]}
    for form, args in forms.items():
        assert main(["simulate", *args, "--trials", "2", "--out", str(tmp_path / form)]) == 0
    truths = read_ground_truth_csv(tmp_path / "token" / "ground_truth.csv")
    assert {row[:3] for row in truths.values()} == {(x, y, 0.0)}
    for form in ("token", "abbreviated"):
        for name in ("detections.csv", "ground_truth.csv"):
            assert (tmp_path / form / name).read_bytes() == (tmp_path / "attached" / name).read_bytes()


def test_ground_truth_takes_a_negative_x_as_its_own_token(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--at=-41,7,0", "--trials", "4", "--out", str(sim)]) == 0
    argv = ["locate", "--scene", str(sim / "scene.json"), "--detections", str(sim / "detections.csv")]
    assert main([*argv, "--out", str(tmp_path / "loc")]) == 0
    argv = ["calibrate", "--scene", str(sim / "scene.json"), "--calibration", "dispersion"]
    argv += ["--fixes", str(tmp_path / "loc" / "fixes.csv")]
    assert main([*argv, "--ground-truth", "-41,7,0", "--out", str(tmp_path / "token")]) == 0
    assert main([*argv, "--ground-truth=-41,7,0", "--out", str(tmp_path / "attached")]) == 0
    token = (tmp_path / "token" / "calibration.txt").read_text()
    assert token == (tmp_path / "attached" / "calibration.txt").read_text()
    assert main([*argv, "--out", str(tmp_path / "scene_pose")]) == 0
    assert (tmp_path / "scene_pose" / "calibration.txt").read_text() != token


@pytest.mark.parametrize("flag", ["--at", "--ground-truth"])
def test_a_triple_flag_does_not_swallow_the_next_option(tmp_path, capsys, flag):
    command = "simulate" if flag == "--at" else "calibrate"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main([command, flag, "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _fixes_without_an_ok_row(tmp_path):
    failed = '0,0,three-led,error,,,,,,,,"expected 3 detections, got 2"'
    return _write_lines(tmp_path / "fixes.csv", ",".join(FIX_COLUMNS), failed)


@pytest.mark.parametrize("command", ["stats", "calibrate"])
def test_a_fixes_file_without_an_ok_row_is_named(tmp_path, capsys, command):
    fixes = _fixes_without_an_ok_row(tmp_path)
    if command == "stats":
        sim = tmp_path / "sim"
        assert main(["simulate", "--at=0,0,0", "--trials", "1", "--out", str(sim)]) == 0
        argv = ["stats", "--fixes", fixes, "--ground-truth", str(sim / "ground_truth.csv")]
    else:
        argv = ["calibrate", "--scene", _default_scene_file(tmp_path), "--calibration", "dispersion", "--fixes", fixes]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {fixes}: no row has status ok\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp_path: _locate_detections(tmp_path, ",".join(DETECTION_COLUMNS)), "no detection rows"),
        (lambda tmp_path: _locate_detections(tmp_path, ",".join(DETECTION_COLUMNS), "", ""), "no detection rows"),
        (_rotation_tracks, "no rotation track could be fitted"),
        (lambda tmp_path: _rotation_tracks(tmp_path, "A,0,1,1", "A,1,2,2", "A,2,3,3"), "no rotation track could be fitted"),
    ],
    ids=["detections-header-only", "detections-header-and-blank-lines", "tracks-header-only", "tracks-one-collinear"],
)
def test_an_input_file_with_nothing_to_use_is_named(tmp_path, capsys, argv, message):
    args = argv(tmp_path)
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {args[-1]}: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["simulate", "replicate"])
@pytest.mark.parametrize("seed", [-1, 2**63, 10**4294])
def test_seed_flag_outside_the_int64_range_names_the_flag(tmp_path, capsys, subcommand, seed):
    capsys.readouterr()
    assert main([subcommand, "--seed", str(seed), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed expects an integer in [0, 2**63), got ")
    assert len(err) < 200
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--seed"], ["replicate", "--seed"], ["simulate", "--trials"]],
    ids=["simulate-seed", "replicate-seed", "simulate-trials"],
)
def test_integer_flag_too_long_for_int_is_echoed_short(tmp_path, capsys, argv):
    # 5,000 digits: past the interpreter's 4,300-digit limit, so int() itself fails.
    out = tmp_path / "out"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "9" * 5_000, "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: invalid int value: '9999" in err
    assert len(err.encode()) < 300
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["locate", "--scene", "s.json", "--detections", "d.csv", "--method", "9" * 400], 2),
        (["replicate", "9" * 400], 2),
        (["simulate", "--at", "9" * 400], 1),
        (["simulate", "--scene", "9" * 5_000], 1),
    ],
    ids=["choice", "unrecognized", "triple", "path-too-long"],
)
def test_a_long_value_is_echoed_by_its_ends(tmp_path, capsys, argv, code):
    capsys.readouterr()
    try:
        assert main([*argv, "--out", str(tmp_path / "out")]) == code
    except SystemExit as exit_:
        assert exit_.code == code
    err = capsys.readouterr().err
    # The word may start or end with a quote or a colon.
    assert re.search(r"\b9{39,40}\.\.\.9{19,20}\b", err) and "9" * 41 not in err
    assert not (tmp_path / "out").exists()


def test_a_message_under_200_characters_a_word_is_echoed_whole():
    assert cli._shorten("x" * 199 + " " + "y" * 10) == "x" * 199 + " " + "y" * 10
    assert cli._shorten("'" + "x" * 199) == "'" + "x" * 39 + "..." + "x" * 20


@pytest.mark.parametrize("trials", ["0", "20000"])
def test_trials_outside_its_range_names_the_flag(tmp_path, capsys, trials):
    capsys.readouterr()
    assert main(["simulate", "--trials", trials, "--at=0,0,0", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: --trials expects an integer in [1, 10000], got {trials}\n"
    assert not (tmp_path / "out").exists()


def test_largest_seed_still_simulates(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--seed", str(2**63 - 1), "--trials", "2", "--out", str(out)]) == 0
    assert read_scene(out / "scene.json").seed == 2**63 - 1
    assert len(read_ground_truth_csv(out / "ground_truth.csv")) == 36 * 2


def test_subcommand_is_required():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
# The camera above the ceiling fails inside generate_trials, while the collector is paused.
@pytest.mark.parametrize("at, rc", [("-40,5,0", 0), ("0,0,200", 1)], ids=["ok", "error"])
def test_main_pauses_the_collector_and_leaves_it_as_found(tmp_path, monkeypatch, capsys, enabled, at, rc):
    seen = []
    generate_trials = cli.generate_trials
    monkeypatch.setattr(cli, "generate_trials", lambda *args: seen.append(gc.isenabled()) or generate_trials(*args))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["simulate", f"--at={at}", "--trials", "1", "--out", str(tmp_path)]) == rc
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]


def test_cyclic_garbage_of_a_command_chain_does_not_grow_with_the_input(tmp_path, capsys):
    # The 110-cm scene drops beacons off the frame, so locate writes failure rows too.
    raw = scene_to_dict(replicate_scene(7))
    for beacon in raw["beacons"]:
        beacon["position"][2] = 110.0
    scene = tmp_path / "low.json"
    scene.write_text(json.dumps(raw))

    def cyclic_garbage(trials):
        sim, loc, out = (tmp_path / f"{name}{trials}" for name in ("sim", "loc", "stats"))
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            main(["simulate", "--scene", str(scene), "--trials", str(trials), "--out", str(sim)])
            locate = ["locate", "--scene", str(scene), "--detections", str(sim / "detections.csv"), "--out", str(loc)]
            assert main(locate + ["--method", "three-led"]) == 0
            assert main(["stats", "--fixes", str(loc / "fixes.csv"), "--ground-truth", str(sim / "ground_truth.csv"), "--out", str(out)]) == 0
            return gc.collect()
        finally:
            if was_enabled:
                gc.enable()

    small = cyclic_garbage(2)
    assert "failed with ValueError" in capsys.readouterr().err
    assert cyclic_garbage(12) == small


def _subcommands():
    """Each subcommand's parser, read from the CLI's own parser."""
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# Per subcommand: each option's strings, choices, default and whether it is required.
CLI_SURFACE = {
    "simulate": [
        (["-h", "--help"], None, argparse.SUPPRESS, False),
        (["--scene"], None, None, False),
        (["--out"], None, None, True),
        (["--seed"], None, None, False),
        (["--trials"], None, 12, False),
        (["--at"], None, None, False),
    ],
    "locate": [
        (["-h", "--help"], None, argparse.SUPPRESS, False),
        (["--scene"], None, None, True),
        (["--detections"], None, None, True),
        (["--out"], None, None, True),
        (["--method"], ["two-led", "three-led"], "three-led", False),
        (["--paper-faithful-h"], None, False, False),
    ],
    "calibrate": [
        (["-h", "--help"], None, argparse.SUPPRESS, False),
        (["--scene"], None, None, True),
        (["--out"], None, None, True),
        (["--calibration"], ["rotation", "dispersion"], None, True),
        (["--tracks"], None, None, False),
        (["--fixes"], None, None, False),
        (["--ground-truth"], None, None, False),
        (["--paper-literal"], None, False, False),
    ],
    "replicate": [
        (["-h", "--help"], None, argparse.SUPPRESS, False),
        (["--out"], None, None, True),
        (["--seed"], None, None, False),
        (["--scene"], None, None, False),
    ],
    "stats": [
        (["-h", "--help"], None, argparse.SUPPRESS, False),
        (["--fixes"], None, None, True),
        (["--ground-truth"], None, None, True),
        (["--out"], None, None, True),
        (["--label"], None, "run", False),
    ],
}


def test_cli_options_are_the_pinned_surface():
    # A new, renamed or changed option fails here, without reading argparse's help text.
    surface = {
        name: [(a.option_strings, a.choices, a.default, a.required) for a in sub._actions]
        for name, sub in _subcommands().items()
    }
    assert surface == CLI_SURFACE


@pytest.fixture(scope="module")
def hostile_values(tmp_path_factory):
    """Argument values: bad numbers, empty text, a negative triple, missing paths and real outputs."""
    base = tmp_path_factory.mktemp("hostile")
    sim, loc = base / "sim", base / "loc"
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--trials", "1", "--out", str(sim)]) == 0
        assert main(["locate", "--scene", str(sim / "scene.json"), "--detections", str(sim / "detections.csv"), "--out", str(loc)]) == 0
    numbers = ["-1", "-41", "0", "3", str(2**63), str(10**30), "1e308", "-1e308", "9" * 400, "9" * 5_000]
    # The missing paths are relative, so each example's fresh directory lacks them.
    paths = ["missing", str(Path("missing", "deeper.csv")), *map(str, [sim, loc, *sim.iterdir(), *loc.iterdir()])]
    choices = [c for sub in _subcommands().values() for a in sub._actions for c in a.choices or ()]
    return [*numbers, "nan", "inf", "-inf", "", "-41,7,0", *paths, *choices]


@settings(max_examples=100)
@given(data=st.data())
def test_hostile_argv_exits_cleanly_with_a_short_stderr(hostile_values, tmp_path_factory, data):
    subcommands = _subcommands()
    name = data.draw(st.sampled_from(sorted(subcommands)), label="subcommand")
    value = st.sampled_from(hostile_values)
    # Each option at most once, in any order: a required one mostly, a help flag seldom. Then, now
    # and then, a stray value anywhere.
    parts = []
    for action in subcommands[name]._actions:
        odds = 18 if action.required else 1 if isinstance(action, argparse._HelpAction) else 10
        if data.draw(st.integers(0, 19)) < odds:
            flag = data.draw(st.sampled_from(action.option_strings))
            parts.append([flag] if action.nargs == 0 else [flag, data.draw(value)])
    argv = [name, *(token for part in data.draw(st.permutations(parts)) for token in part)]
    if data.draw(st.integers(0, 3)) == 0:
        argv.insert(data.draw(st.integers(1, len(argv))), data.draw(value))
    note(argv)
    err = io.StringIO()
    # Relative paths, an empty --out too, land in a fresh directory.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        os.chdir(work)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exit_:
                    code = exit_.code
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(lines) <= 8 and all(len(line) < 300 for line in lines), lines


# --- CLI boundary: simulate and locate outputs with one field of one row mutated ---

FIELD_MUTATIONS = ["nan", "inf", "1e400", "", "quoted comma", "non-ASCII digit", "cut short"]


def _mutated(row, column, kind):
    """The row with its field at column changed as kind says; cut short, the row ends before that field."""
    if kind == "cut short":
        return row[:column]
    value = row[column]
    if kind == "quoted comma":
        value += ",5"  # csv.writer quotes the field
    elif kind == "non-ASCII digit":
        # The first ASCII digit becomes its Arabic-Indic twin, which float() and int() still read; a
        # value with no digit gains one.
        twin = re.sub("[0-9]", lambda m: chr(0x660 + int(m.group())), value, count=1)
        value = twin if twin != value else value + "\u0661"
    else:
        value = kind
    return [*row[:column], value, *row[column + 1 :]]


def _write_mutated(source, path, row, column, kind):
    """source with one data row, picked by row, mutated at the field picked by column, written to path."""
    with open(source, newline="") as handle:
        rows = list(csv.reader(handle))
    row = 1 + row % (len(rows) - 1)
    rows[row] = _mutated(rows[row], column % len(rows[row]), kind)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _assert_exits_cleanly(argv):
    """main(argv) exits 0 or 1, raises nothing and prints only warning: and error: lines to stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert all(line.startswith(("warning: ", "error: ")) for line in err.getvalue().splitlines()), err.getvalue()


def _assert_finite(fields):
    assert all(math.isfinite(float(field)) for field in fields), fields


@pytest.fixture(scope="module")
def boundary_files(tmp_path_factory):
    """A lowered-ceiling simulate of 36 trials and its two-led locate, where some rows fail."""
    base = tmp_path_factory.mktemp("boundary")
    sim, loc = base / "sim", base / "loc"
    simulate = ["simulate", "--scene", str(DATA / "scene_dropout.json"), "--seed", "7", "--trials", "1"]
    locate = ["locate", "--scene", str(sim / "scene.json"), "--detections", str(sim / "detections.csv")]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main([*simulate, "--out", str(sim)]) == 0
        assert main([*locate, "--method", "two-led", "--out", str(loc)]) == 0
    status = [row["status"] for row in csv.DictReader((loc / "fixes.csv").read_text().splitlines())]
    assert status[0] == "ok" and "error" in status
    return sim, loc


@settings(max_examples=25)
@given(st.integers(0, 10**4), st.integers(0, 20), st.sampled_from(FIELD_MUTATIONS), st.sampled_from([m.value for m in Method]))
@example(row=0, column=3, kind="nan", method="two-led")  # the first u_px, of an ok trial
@example(row=0, column=3, kind="1e400", method="three-led")
def test_locate_on_a_mutated_detections_file_exits_cleanly_and_writes_only_finite_ok_rows(
    boundary_files, tmp_path_factory, row, column, kind, method
):
    sim, _ = boundary_files
    work = tmp_path_factory.mktemp("mutated_detections")
    _write_mutated(sim / "detections.csv", work / "detections.csv", row, column, kind)
    argv = ["locate", "--scene", str(sim / "scene.json"), "--detections", str(work / "detections.csv")]
    _assert_exits_cleanly([*argv, "--method", method, "--out", str(work / "loc")])
    if (work / "loc" / "fixes.csv").exists():
        with open(work / "loc" / "fixes.csv", newline="") as handle:
            for fix in csv.DictReader(handle):
                if fix["status"] == "ok":
                    _assert_finite([fix[name] for name in FIX_COLUMNS[4:10]] + [fix["yaw_rad"] or 0])


@settings(max_examples=25)
@given(st.integers(0, 10**4), st.integers(0, 20), st.sampled_from(FIELD_MUTATIONS))
@example(row=0, column=4, kind="nan")  # the x_cm of an ok row
@example(row=0, column=7, kind="inf")  # its height_cm
def test_stats_on_a_mutated_fixes_file_exits_cleanly_and_writes_only_finite_errors(
    boundary_files, tmp_path_factory, row, column, kind
):
    sim, loc = boundary_files
    work = tmp_path_factory.mktemp("mutated_fixes")
    _write_mutated(loc / "fixes.csv", work / "fixes.csv", row, column, kind)
    argv = ["stats", "--fixes", str(work / "fixes.csv"), "--ground-truth", str(sim / "ground_truth.csv")]
    _assert_exits_cleanly([*argv, "--out", str(work / "stats")])
    for path in (work / "stats").glob("errors_*.csv"):
        with open(path, newline="") as handle:
            for fields in list(csv.reader(handle))[1:]:
                _assert_finite(fields)
