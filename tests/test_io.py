"""Scene JSON, CSV round trips, and report files."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlpkit import (
    CameraPose,
    Detection,
    Diagnostics,
    Method,
    NoiseModel,
    PositionFix,
    SceneConfigError,
    TrialRecord,
    default_scene,
    error_stats,
    generate_trials,
)
from vlpkit.camera import PixelPoint
from vlpkit.io import (
    read_detections_csv,
    read_fixes_csv,
    read_ground_truth_csv,
    read_scene,
    read_tracks_csv,
    report_summary_lines,
    write_detections_csv,
    write_error_report,
    write_fixes_csv,
    write_ground_truth_csv,
    write_scene,
    write_tracks_csv,
)

# --- scene JSON ---


def test_scene_round_trip(tmp_path):
    scene = default_scene(
        camera_pose=CameraPose((10.0, -5.0, 0.0), 0.45),
        true_principal_point=(406.3, 295.9),
        noise=NoiseModel(pixel_sigma=0.5, quantize=True),
        seed=9,
    )
    path = tmp_path / "scene.json"
    write_scene(scene, path)
    assert read_scene(path) == scene


def test_scene_file_output_is_stable(tmp_path):
    scene = default_scene()
    write_scene(scene, tmp_path / "a.json")
    write_scene(scene, tmp_path / "b.json")
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    assert a.endswith(b"\n")


def test_scene_json_syntax_error_reports_position(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text('{"beacons": [\n  {"id" "L1"}\n]}\n')
    with pytest.raises(SceneConfigError) as err:
        read_scene(path)
    assert "scene.json:2:" in str(err.value)


def test_scene_missing_file_and_missing_fields(tmp_path):
    with pytest.raises(SceneConfigError):
        read_scene(tmp_path / "absent.json")
    path = tmp_path / "scene.json"
    path.write_text("{}\n")
    with pytest.raises(SceneConfigError) as err:
        read_scene(path)
    assert "beacons" in str(err.value)


def test_scene_field_errors_name_the_field(tmp_path):
    scene = default_scene()
    path = tmp_path / "scene.json"

    import json

    from vlpkit.io import scene_to_dict

    bad = scene_to_dict(scene)
    bad["noise"]["pixel_sigma_px"] = "big"
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match="pixel_sigma_px"):
        read_scene(path)

    bad = scene_to_dict(scene)
    bad["intrinsics"]["resolution_px"] = [800.5, 600]
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match="resolution_px"):
        read_scene(path)

    bad = scene_to_dict(scene)
    bad["beacons"][0]["position"] = [1.0, 2.0]
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=r"beacons\[0\].position"):
        read_scene(path)

    bad = scene_to_dict(scene)
    bad["noise"]["quantize"] = "false"
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=r"scene\.noise\.quantize"):
        read_scene(path)

    bad = scene_to_dict(scene)
    bad["beacons"][1]["id"] = "L2\r"
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=r"scene\.beacons\[1\]\.id: expected printable text"):
        read_scene(path)


def test_scene_inconsistency_is_wrapped(tmp_path):
    import json

    from vlpkit.io import scene_to_dict

    bad = scene_to_dict(default_scene())
    bad["camera_pose"]["position"] = [0.0, 0.0, 200.0]  # above the beacons
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match="below every beacon"):
        read_scene(path)

    bad = scene_to_dict(default_scene())
    bad["beacons"][2]["id"] = bad["beacons"][0]["id"]
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=r"scene\.json: duplicate beacon id 'L1'"):
        read_scene(path)


# --- CSV round trips ---


def quantized_trials():
    scene = default_scene(noise=NoiseModel(pixel_sigma=0.5, quantize=True))
    grid = [(-12.0, -7.0, 0.0), (12.0, 7.0, 0.0)]
    return generate_trials(grid, 2, scene, base_seed=3)


def test_detections_round_trip(tmp_path):
    records = quantized_trials()
    path = tmp_path / "detections.csv"
    write_detections_csv(records, path)
    groups = read_detections_csv(path)
    assert [(p, t) for p, t, _ in groups] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for (point, trial, dets), rec in zip(groups, records):
        assert (point, trial) == (rec.point_index, rec.trial_index)
        assert dets == list(rec.detections)


def test_detections_without_index_columns_form_one_trial(tmp_path):
    path = tmp_path / "detections.csv"
    path.write_text(
        "beacon_id,u_px,v_px\nL1,253.000000,135.000000\nL2,255.000000,210.000000\n"
    )
    groups = read_detections_csv(path)
    assert len(groups) == 1
    point, trial, dets = groups[0]
    assert (point, trial) == (0, 0)
    assert [d.beacon_id for d in dets] == ["L1", "L2"]
    assert dets[0].pixel == PixelPoint(253.0, 135.0)


def test_ground_truth_round_trip(tmp_path):
    records = quantized_trials()
    path = tmp_path / "ground_truth.csv"
    write_ground_truth_csv(records, path)
    truths = read_ground_truth_csv(path)
    assert len(truths) == 4
    assert truths[(0, 0)] == (-12.0, -7.0, 0.0, 0.0)
    assert truths[(1, 1)] == (12.0, 7.0, 0.0, 0.0)


def test_ground_truth_yaw_column_is_optional(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("point_index,trial_index,x_cm,y_cm,z_cm\n0,0,1.5,-2.25,0.0\n")
    truths = read_ground_truth_csv(path)
    assert truths[(0, 0)] == (1.5, -2.25, 0.0, 0.0)


def test_tracks_round_trip_and_sample_order(tmp_path):
    tracks = {
        "L2": [PixelPoint(400.25, 300.5), PixelPoint(401.0, 299.0)],
        "L1": [PixelPoint(100.125, 200.625), PixelPoint(101.0, 201.0)],
    }
    path = tmp_path / "tracks.csv"
    write_tracks_csv(tracks, path)
    assert read_tracks_csv(path) == tracks

    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(
        "track_id,sample_index,u_px,v_px\n"
        "L1,1,2.000000,0.000000\n"
        "L1,0,1.000000,0.000000\n"
    )
    back = read_tracks_csv(shuffled)
    assert back["L1"] == [PixelPoint(1.0, 0.0), PixelPoint(2.0, 0.0)]


def test_fixes_round_trip_skips_failed_rows(tmp_path):
    diag3 = Diagnostics(
        height_cm=150.25,
        image_pair_distance_mm=2.5,
        world_pair_distance_cm=135.125,
    )
    diag2 = Diagnostics(
        height_cm=148.5,
        image_pair_distance_mm=2.25,
        world_pair_distance_cm=120.0,
        yaw_rad=0.5,
    )
    rows = [
        (0, 0, Method.THREE_LED, PositionFix((25.25, -15.5, 0.125), Method.THREE_LED, diag3), ""),
        (0, 1, Method.THREE_LED, None, "beacons 'A' and 'B' project 0 mm apart"),
        (1, 0, Method.TWO_LED, PositionFix((-3.5, 4.75, 1.5), Method.TWO_LED, diag2), ""),
    ]
    path = tmp_path / "fixes.csv"
    write_fixes_csv(rows, path)
    back = read_fixes_csv(path)
    assert [(p, t) for p, t, _ in back] == [(0, 0), (1, 0)]
    first = back[0][2]
    assert first.position == (25.25, -15.5, 0.125)
    assert first.method is Method.THREE_LED
    assert first.diagnostics.height_cm == 150.25
    assert first.diagnostics.yaw_rad is None
    second = back[1][2]
    assert second.diagnostics.yaw_rad == 0.5

    text = path.read_text().splitlines()
    assert text[2].startswith("0,1,three-led,error")
    assert text[2].endswith("project 0 mm apart")


def test_fix_csv_floats_use_six_decimals(tmp_path):
    diag = Diagnostics(150.0, 2.5, 135.0)
    rows = [(0, 0, Method.THREE_LED, PositionFix((1.0, 2.0, 3.0), Method.THREE_LED, diag), "")]
    path = tmp_path / "fixes.csv"
    write_fixes_csv(rows, path)
    line = path.read_text().splitlines()[1]
    assert ",1.000000,2.000000,3.000000," in line


# --- CSV round-trip properties ---

# Six decimals round to within 5e-7; parsing the text back adds at most one ulp of the largest value drawn.
CSV_TOL = 5e-7 + math.ulp(1e6)
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
indices = st.integers(0, 99_999)
# Printable text (str.isprintable), with the CSV delimiter and quote character drawn often.
printable = st.characters(exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"), include_characters=" ")
ids = st.text(st.sampled_from(',"') | printable, min_size=1, max_size=8)
pixels = st.builds(PixelPoint, finite, finite)
# File writes make examples slow enough to trip the default deadline on a loaded machine.
csv_examples = settings(max_examples=50, deadline=None)


def close(a, b):
    return abs(a - b) <= CSV_TOL


def _record(key, detections):
    return TrialRecord(key[0], key[1], CameraPose((0.0, 0.0, 0.0)), tuple(detections), seed=0)


@csv_examples
@given(st.dictionaries(st.tuples(indices, indices), st.lists(st.builds(Detection, ids, pixels), min_size=1, max_size=3)))
def test_detections_csv_round_trip_property(tmp_path_factory, trials):
    path = tmp_path_factory.getbasetemp() / "detections.csv"
    write_detections_csv([_record(key, dets) for key, dets in trials.items()], path)
    back = read_detections_csv(path)
    assert [(p, t) for p, t, _ in back] == sorted(trials)
    for point, trial, dets in back:
        written = trials[(point, trial)]
        assert [d.beacon_id for d in dets] == [d.beacon_id for d in written]
        for got, want in zip(dets, written):
            assert close(got.pixel.u, want.pixel.u) and close(got.pixel.v, want.pixel.v)


@csv_examples
@given(st.dictionaries(st.tuples(indices, indices), st.tuples(finite, finite, finite, finite)))
def test_ground_truth_csv_round_trip_property(tmp_path_factory, truths):
    records = [
        TrialRecord(p, t, CameraPose((x, y, z), yaw), (), seed=0) for (p, t), (x, y, z, yaw) in truths.items()
    ]
    path = tmp_path_factory.getbasetemp() / "ground_truth.csv"
    write_ground_truth_csv(records, path)
    back = read_ground_truth_csv(path)
    assert back.keys() == truths.keys()
    for key, values in truths.items():
        assert all(close(got, want) for got, want in zip(back[key], values, strict=True))


@csv_examples
@given(st.dictionaries(ids, st.lists(pixels, min_size=1, max_size=4)))
def test_tracks_csv_round_trip_property(tmp_path_factory, tracks):
    path = tmp_path_factory.getbasetemp() / "tracks.csv"
    write_tracks_csv(tracks, path)
    back = read_tracks_csv(path)
    assert list(back) == sorted(tracks)
    for track_id, samples in tracks.items():
        assert len(back[track_id]) == len(samples)
        for got, want in zip(back[track_id], samples):
            assert close(got.u, want.u) and close(got.v, want.v)


fixes = st.builds(
    PositionFix,
    st.tuples(finite, finite, finite),
    st.sampled_from(Method),
    st.builds(Diagnostics, finite, finite, finite, st.none() | finite),
)
fix_rows = st.lists(
    st.tuples(indices, indices, st.sampled_from(Method), st.none() | fixes, ids), max_size=6
)


@csv_examples
@given(fix_rows)
def test_fixes_csv_round_trip_property(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "fixes.csv"
    write_fixes_csv(rows, path)
    back = read_fixes_csv(path)
    # The method column comes from the row, not from the fix.
    ok = [(p, t, method, fix) for p, t, method, fix, _ in rows if fix is not None]
    assert [(p, t) for p, t, _ in back] == [(p, t) for p, t, _, _ in ok]
    for (_, _, got), (_, _, method, want) in zip(back, ok):
        assert got.method is method
        assert all(close(a, b) for a, b in zip(got.position, want.position))
        g, w = got.diagnostics, want.diagnostics
        assert close(g.height_cm, w.height_cm)
        assert close(g.image_pair_distance_mm, w.image_pair_distance_mm)
        assert close(g.world_pair_distance_cm, w.world_pair_distance_cm)
        assert (g.yaw_rad is None) == (w.yaw_rad is None)
        assert g.yaw_rad is None or close(g.yaw_rad, w.yaw_rad)


# --- report files ---


def ladder_fixes(n):
    return [PositionFix((float(k), 0.0, 0.0), Method.THREE_LED) for k in range(1, n + 1)]


def test_write_error_report_produces_three_tables(tmp_path):
    report = error_stats(ladder_fixes(8), [(0.0, 0.0, 0.0)] * 8)
    keys = [(0, t) for t in range(8)]
    write_error_report(report, keys, tmp_path, "demo")
    errors = (tmp_path / "errors_demo.csv").read_text().splitlines()
    cdf = (tmp_path / "cdf_demo.csv").read_text().splitlines()
    hist = (tmp_path / "histogram_demo.csv").read_text().splitlines()
    assert errors[0] == "point_index,trial_index,error_cm,error_3d_cm"
    assert len(errors) == 9
    assert errors[1] == "0,0,1.000000,1.000000"
    assert cdf[0] == "error_cm,cumulative_fraction"
    assert len(cdf) == 9
    assert cdf[-1] == "8.000000,1.000000"
    assert hist[0] == "bin_left_cm,bin_right_cm,count"
    assert hist[1] == "0.000000,0.250000,0"
    # 8 cm of range in quarter-cm bins
    assert len(hist) == 33
    assert sum(int(row.split(",")[2]) for row in hist[1:]) == 8


def test_report_summary_lines_format():
    report = error_stats(ladder_fixes(10), [(0.0, 0.0, 0.0)] * 10)
    lines = report_summary_lines(report, "demo")
    assert lines[0] == (
        "demo: average positioning error is 5.50cm, "
        "the 90% positioning error is 9.00cm, "
        "and the maximum positioning error is 10.00cm"
    )
    assert "mean=5.500000" in lines[1]
    assert "trials=10" in lines[1]
    # identical ground truths attach a dispersion line
    assert len(lines) == 3
    assert "enclosing_radius" in lines[2]


def test_report_summary_without_dispersion():
    fixes = ladder_fixes(4)
    truths = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    report = error_stats(fixes, truths)
    lines = report_summary_lines(report, "demo")
    assert len(lines) == 2
