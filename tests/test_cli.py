"""End-to-end checks of the command-line surface."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from vlpkit.cli import main, replicate_scene
from vlpkit.io import (
    read_fixes_csv,
    read_ground_truth_csv,
    write_scene,
    write_tracks_csv,
)
from vlpkit.simulator import (
    SWEEP_ANGLES_12,
    CameraPose,
    NoiseModel,
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
    assert len(fixes) == 36
    for point, trial, fix in fixes:
        x, y, z, _ = truths[(point, trial)]
        # CSV carries 6 decimals, so exactness survives only to that scale.
        assert fix.position[0] == pytest.approx(x, abs=1e-5)
        assert fix.position[1] == pytest.approx(y, abs=1e-5)
        assert fix.position[2] == pytest.approx(z, abs=1e-5)


def test_locate_returns_1_when_every_row_fails(tmp_path):
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "1"])
    # Drop one beacon from every trial: the three-beacon path then rejects all rows.
    src = (sim / "detections.csv").read_text().splitlines()
    kept = [src[0]] + [line for line in src[1:] if not line.split(",")[2] == "L3"]
    crippled = sim / "two_only.csv"
    crippled.write_text("\n".join(kept) + "\n")
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
    assert len(fixes) == 36


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


@pytest.mark.parametrize("method", ["two-led", "three-led"])
def test_locate_fails_only_the_row_with_a_non_finite_pixel(tmp_path, method):
    sim = tmp_path / "sim"
    main(["simulate", "--out", str(sim), "--trials", "2"])
    path = sim / "detections.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    assert cells[:2] == ["0", "0"]
    cells[3] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    loc = tmp_path / "loc"
    argv = ["locate", "--scene", str(sim / "scene.json"), "--detections", str(path), "--out", str(loc)]
    assert main(argv + ["--method", method]) == 0
    rows = [line.split(",") for line in (loc / "fixes.csv").read_text().splitlines()[1:]]
    status = {(row[0], row[1]): row[3] for row in rows}
    assert status.pop(("0", "0")) == "error"
    assert len(status) == 71 and set(status.values()) == {"ok"}


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


def _scene_is_a_directory(tmp_path):
    return ["simulate", "--scene", str(tmp_path)]


def _scene_is_not_utf8(tmp_path):
    path = tmp_path / "scene.json"
    path.write_bytes(b'{"beacons": "\xff"}')
    return ["simulate", "--scene", str(path)]


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
        lambda tmp_path: ["simulate", "--seed", "-1"],
        lambda tmp_path: ["simulate", "--at=0,0,200"],
        lambda tmp_path: ["replicate", "--seed", "-3"],
        _off_sensor_dispersion,
        _scene_is_a_directory,
        _scene_is_not_utf8,
        _out_is_a_file,
        _out_is_under_a_file,
    ],
    ids=[
        "zero-trials",
        "negative-seed",
        "camera-above-ceiling",
        "replicate-negative-seed",
        "principal-point-off-sensor",
        "scene-is-directory",
        "scene-not-utf8",
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


def test_subcommand_is_required():
    with pytest.raises(SystemExit):
        main([])
