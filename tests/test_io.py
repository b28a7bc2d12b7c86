"""Scene JSON, CSV round trips, and report files."""

import csv
import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vlpkit import (
    CameraPose,
    Detection,
    Diagnostics,
    ErrorReport,
    InputFormatError,
    Method,
    NoiseModel,
    PositionFix,
    SceneConfigError,
    TrialRecord,
    default_scene,
    error_stats,
    generate_trials,
)
from vlpkit.io import (
    DETECTION_COLUMNS,
    FIX_COLUMNS,
    TRACK_COLUMNS,
    TRUTH_COLUMNS,
    FixColumns,
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

    # Each error starts with the file, then the field.
    prefix = re.escape(f"{path}: ")

    bad = scene_to_dict(scene)
    bad["noise"]["pixel_sigma_px"] = "big"
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=rf"^{prefix}scene\.noise\.pixel_sigma_px"):
        read_scene(path)

    bad = scene_to_dict(scene)
    bad["intrinsics"]["resolution_px"] = [800.5, 600]
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=rf"^{prefix}scene\.intrinsics\.resolution_px"):
        read_scene(path)

    bad = scene_to_dict(scene)
    bad["beacons"][0]["position"] = [1.0, 2.0]
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=rf"^{prefix}scene\.beacons\[0\]\.position"):
        read_scene(path)

    bad = scene_to_dict(scene)
    bad["noise"]["quantize"] = "false"
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=rf"^{prefix}scene\.noise\.quantize"):
        read_scene(path)

    bad = scene_to_dict(scene)
    bad["beacons"][1]["id"] = "L2\r"
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=rf"^{prefix}scene\.beacons\[1\]\.id: expected printable text"):
        read_scene(path)

    # A long value is shortened, not echoed whole.
    bad = scene_to_dict(scene)
    bad["camera_pose"]["yaw_rad"] = int("9" * 400)
    path.write_text(json.dumps(bad))
    with pytest.raises(SceneConfigError, match=rf"^{prefix}scene\.camera_pose\.yaw_rad: expected a finite number, got 9+\.\.\.9+$") as err:
        read_scene(path)
    assert len(str(err.value)) - len(str(path)) < 200


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw.update(true_principal_point_px=[1]), "scene.true_principal_point_px: expected 2 numbers, got [1]"),
        (lambda raw: raw.update(beacons=[]), "scene.beacons: expected a non-empty list"),
        (lambda raw: raw["beacons"][0].update(id=""), "scene.beacons[0].id: expected a non-empty string"),
    ],
    ids=["principal-point-one-number", "no-beacons", "empty-beacon-id"],
)
def test_scene_field_error_has_its_exact_message(tmp_path, edit, message):
    import json

    from vlpkit.io import scene_to_dict

    raw = scene_to_dict(default_scene())
    edit(raw)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(SceneConfigError) as err:
        read_scene(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("seed", [-1, 2**63, 10**4294, 1.5, True], ids=["negative", "2**63", "4295-digit", "float", "bool"])
def test_scene_seed_must_be_an_integer_in_the_int64_range(tmp_path, seed):
    import json

    from vlpkit.io import scene_to_dict

    raw = scene_to_dict(default_scene())
    raw["seed"] = seed
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(SceneConfigError, match=rf"^{re.escape(str(path))}: scene\.seed: expected an integer in \[0, 2\*\*63\), got ") as err:
        read_scene(path)
    assert len(str(err.value)) - len(str(path)) < 200


def test_scene_seed_at_the_top_of_the_range_reads(tmp_path):
    path = tmp_path / "scene.json"
    write_scene(default_scene(seed=2**63 - 1), path)
    assert read_scene(path).seed == 2**63 - 1


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


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["noise"].update(pixel_sigma_px=math.nan), r"scene\.noise\.pixel_sigma_px"),
        (lambda d: d.update(true_principal_point_px=[math.inf, 300.0]), r"scene\.true_principal_point_px"),
        (lambda d: d["camera_pose"].update(position=[-math.inf, 0.0, 0.0]), r"scene\.camera_pose\.position"),
        (lambda d: d["beacons"][0].update(position=[0.0, math.nan, 150.0]), r"scene\.beacons\[0\]\.position"),
        # An integer too large for a float.
        (lambda d: d["camera_pose"].update(yaw_rad=10**400), r"scene\.camera_pose\.yaw_rad"),
    ],
)
def test_scene_non_finite_number_names_the_field(tmp_path, edit, field):
    import json

    from vlpkit.io import scene_to_dict

    bad = scene_to_dict(default_scene())
    edit(bad)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(bad))  # writes NaN / Infinity, which json reads back
    with pytest.raises(SceneConfigError, match=rf"{field}: expected a finite number"):
        read_scene(path)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: 5, r"scene"),
        (lambda d: {**d, "camera_pose": 5}, r"scene\.camera_pose"),
        (lambda d: {**d, "intrinsics": 3}, r"scene\.intrinsics"),
        (lambda d: {**d, "noise": [1]}, r"scene\.noise"),
        (lambda d: {**d, "beacons": [5]}, r"scene\.beacons\[0\]"),
        (lambda d: {**d, "beacons": [d["beacons"][0], "id"]}, r"scene\.beacons\[1\]"),
    ],
    ids=["top-level", "camera_pose", "intrinsics", "noise", "beacon-number", "beacon-string"],
)
def test_scene_value_that_is_not_an_object_names_the_field(tmp_path, edit, field):
    import json

    from vlpkit.io import scene_to_dict

    path = tmp_path / "scene.json"
    path.write_text(json.dumps(edit(scene_to_dict(default_scene()))))
    with pytest.raises(SceneConfigError, match=rf"^{re.escape(str(path))}: {field}: expected an object, got "):
        read_scene(path)


def test_scene_nested_too_deep_names_the_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SceneConfigError, match=r"scene\.json: maximum recursion depth"):
        read_scene(path)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no integer digit limit")
def test_scene_integer_past_the_digit_limit_names_the_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text("1" * (sys.get_int_max_str_digits() + 700))
    with pytest.raises(SceneConfigError, match=r"scene\.json: .*digits"):
        read_scene(path)


# --- CSV round trips ---


def quantized_trials():
    scene = default_scene(noise=NoiseModel(pixel_sigma=0.5, quantize=True), seed=3)
    grid = [(-12.0, -7.0, 0.0), (12.0, 7.0, 0.0)]
    return generate_trials(grid, 2, scene)


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
    assert dets[0].pixel == (253.0, 135.0)


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
        "L2": [(400.25, 300.5), (401.0, 299.0)],
        "L1": [(100.125, 200.625), (101.0, 201.0)],
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
    assert back["L1"] == [(1.0, 0.0), (2.0, 0.0)]


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
    assert isinstance(back, FixColumns)
    assert back.keys == [(0, 0), (1, 0)]
    assert back.positions.tolist() == [[25.25, -15.5, 0.125], [-3.5, 4.75, 1.5]]
    assert back.heights.tolist() == [150.25, 148.5]

    # The reader returns no method or yaw; the file holds them.
    text = path.read_text().splitlines()
    assert text[1].startswith("0,0,three-led,ok,") and text[1].endswith(",,")
    assert text[2].startswith("0,1,three-led,error")
    assert text[2].endswith("project 0 mm apart")
    assert text[3].startswith("1,0,two-led,ok,") and text[3].endswith(",0.500000,")


def test_fix_csv_floats_use_six_decimals(tmp_path):
    diag = Diagnostics(150.0, 2.5, 135.0)
    rows = [(0, 0, Method.THREE_LED, PositionFix((1.0, 2.0, 3.0), Method.THREE_LED, diag), "")]
    path = tmp_path / "fixes.csv"
    write_fixes_csv(rows, path)
    line = path.read_text().splitlines()[1]
    assert ",1.000000,2.000000,3.000000," in line


# --- reader contract: layouts every CSV reader accepts or rejects ---

# Per reader: the header it writes, two data rows, and how many leading fields
# of the first row are too few to read it.
READER_CASES = {
    "detections": (
        read_detections_csv,
        DETECTION_COLUMNS,
        [["3", "1", "L1", "1.5", "2.5"], ["3", "1", "L2", "3.0", "4.0"]],
        3,
    ),
    "ground_truth": (
        read_ground_truth_csv,
        TRUTH_COLUMNS,
        [["3", "1", "1.5", "-2.25", "0.0", "0.5", "7"], ["3", "2", "4.0", "5.0", "0.0", "", "8"]],
        3,
    ),
    "tracks": (
        read_tracks_csv,
        TRACK_COLUMNS,
        [["L1", "1", "1.5", "2.5"], ["L1", "0", "3.0", "4.0"]],
        3,
    ),
    "fixes": (
        read_fixes_csv,
        FIX_COLUMNS,
        [
            ["3", "1", "two-led", "ok", "1.5", "2.5", "0.0", "150.0", "2.5", "135.0", "0.5", ""],
            ["3", "2", "three-led", "error", "", "", "", "", "", "", "", "expected 3 detections, got 2"],
        ],
        5,
    ),
}


def _write_table(path, header, rows, blank_lines=False):
    lines = [",".join(header), *(",".join(row) for row in rows)]
    path.write_text(("\n\n" if blank_lines else "\n").join(lines) + "\n")


def _read_case(tmp_path, name, header, rows, **kwargs):
    """What the reader returns, with fix columns as lists so that results compare with ==."""
    reader = READER_CASES[name][0]
    path = tmp_path / f"{name}.csv"
    _write_table(path, header, rows, **kwargs)
    result = reader(path)
    if isinstance(result, FixColumns):
        return result.keys, result.positions.tolist(), result.heights.tolist()
    return result


@pytest.mark.parametrize("name", READER_CASES)
def test_reader_layouts_read_the_same_values(tmp_path, name):
    _, header, rows, _ = READER_CASES[name]
    reference = _read_case(tmp_path, name, header, rows)
    assert reference
    assert _read_case(tmp_path, name, header, rows, blank_lines=True) == reference

    def reorder(fields, extra):
        # Columns reversed, plus an unknown column in the middle.
        fields = fields[::-1]
        return [*fields[:2], extra, *fields[2:]]

    assert _read_case(tmp_path, name, reorder(header, "note"), [reorder(row, "x") for row in rows]) == reference


@pytest.mark.parametrize("name", READER_CASES)
def test_reader_short_row_names_its_line(tmp_path, name):
    reader, header, rows, short = READER_CASES[name]
    path = tmp_path / f"{name}.csv"
    _write_table(path, header, [rows[1], rows[0][:short]])
    with pytest.raises(InputFormatError, match=rf"{name}\.csv:3: "):
        reader(path)


# Per reader: a required column that, moved to the end of the header, a row cut by one field lacks.
LAST_COLUMN = {"detections": "beacon_id", "ground_truth": "z_cm", "tracks": "track_id", "fixes": "status"}


@pytest.mark.parametrize("name", READER_CASES)
def test_reader_row_cut_before_a_required_column_names_its_line(tmp_path, name):
    reader, header, rows, _ = READER_CASES[name]
    last = header.index(LAST_COLUMN[name])

    def reorder(fields):
        return [*fields[:last], *fields[last + 1 :], fields[last]]

    path = tmp_path / f"{name}.csv"
    _write_table(path, reorder(header), [reorder(rows[1]), reorder(rows[0])[:-1]])
    with pytest.raises(InputFormatError, match=rf"{name}\.csv:3: row has {len(header) - 1} field\(s\)"):
        reader(path)


@pytest.mark.parametrize("name", READER_CASES)
def test_reader_blank_first_line_is_a_missing_column(tmp_path, name):
    reader, header, rows, _ = READER_CASES[name]
    path = tmp_path / f"{name}.csv"
    _write_table(path, header, rows)
    path.write_text("\n" + path.read_text())
    with pytest.raises(InputFormatError, match=rf"{name}\.csv: missing required column"):
        reader(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fixes_and_truth_readers_reject_non_finite_coordinates(tmp_path, value):
    _, _, (ok, failed), _ = READER_CASES["fixes"]
    path = tmp_path / "fixes.csv"
    _write_table(path, FIX_COLUMNS, [failed, ok[:5] + [value] + ok[6:]])
    with pytest.raises(InputFormatError, match=r"fixes\.csv:3: non-finite coordinate"):
        read_fixes_csv(path)
    # A failed row carries no coordinates to check.
    _write_table(path, FIX_COLUMNS, [failed[:4] + [value] * 3 + failed[7:]])
    back = read_fixes_csv(path)
    assert back.keys == [] and back.positions.shape == (0, 3) and back.heights.shape == (0,)

    path = tmp_path / "ground_truth.csv"
    _write_table(path, TRUTH_COLUMNS, [["0", "0", "1.5", "2.5", value, "0.0", "7"]])
    with pytest.raises(InputFormatError, match=r"ground_truth\.csv:2: non-finite coordinate"):
        read_ground_truth_csv(path)

    path = tmp_path / "tracks.csv"
    _write_table(path, TRACK_COLUMNS, [["L1", "0", "1.5", "2.5"], ["L1", "1", value, "2.5"]])
    with pytest.raises(InputFormatError, match=r"tracks\.csv:3: non-finite coordinate"):
        read_tracks_csv(path)


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("column", ["height_cm", "image_pair_distance_mm", "world_pair_distance_cm", "yaw_rad"])
def test_fixes_reader_rejects_non_finite_diagnostics(tmp_path, column, value):
    _, _, (ok, failed), _ = READER_CASES["fixes"]
    at = FIX_COLUMNS.index(column)
    path = tmp_path / "fixes.csv"
    _write_table(path, FIX_COLUMNS, [failed, [*ok[:at], value, *ok[at + 1 :]]])
    with pytest.raises(InputFormatError, match=r"fixes\.csv:3: non-finite diagnostic"):
        read_fixes_csv(path)


def test_fixes_reader_rejects_an_unknown_method(tmp_path):
    _, _, (ok, failed), _ = READER_CASES["fixes"]
    path = tmp_path / "fixes.csv"
    # A failed row's method is not checked.
    _write_table(path, FIX_COLUMNS, [[*failed[:2], "four-led", *failed[3:]], ok])
    assert read_fixes_csv(path).keys == [(3, 1)]
    _write_table(path, FIX_COLUMNS, [failed, [*ok[:2], "four-led", *ok[3:]]])
    with pytest.raises(InputFormatError, match=r"fixes\.csv:3: 'four-led' is not a valid Method"):
        read_fixes_csv(path)


def test_fixes_reader_reports_the_first_check_a_row_fails(tmp_path):
    # The checks run in this order: diagnostics, yaw, position, method, indices.
    _, _, (ok, _), _ = READER_CASES["fixes"]
    bad = {
        "height_cm": ("nan", "non-finite diagnostic in (nan, 2.5, 135.0)"),
        "yaw_rad": ("inf", "non-finite diagnostic in (inf)"),
        "x_cm": ("abc", "could not convert string to float: 'abc'"),
        "z_cm": ("-inf", "non-finite coordinate in (1.5, 2.5, -inf)"),
        "method": ("four-led", "'four-led' is not a valid Method"),
        "point_index": ("1.5", "invalid literal for int() with base 10: '1.5'"),
    }
    path = tmp_path / "fixes.csv"
    row = list(ok)
    for column, (value, _) in bad.items():
        row[FIX_COLUMNS.index(column)] = value
    for column, (_, message) in bad.items():
        _write_table(path, FIX_COLUMNS, [row])
        with pytest.raises(InputFormatError, match=re.escape(f"fixes.csv:2: {message}")):
            read_fixes_csv(path)
        row[FIX_COLUMNS.index(column)] = ok[FIX_COLUMNS.index(column)]
    _write_table(path, FIX_COLUMNS, [row])
    assert read_fixes_csv(path).keys == [(3, 1)]


def test_empty_optional_index_and_yaw_values_read_as_zero(tmp_path):
    path = tmp_path / "detections.csv"
    _write_table(path, DETECTION_COLUMNS, [["", "", "L1", "1.5", "2.5"]])
    assert read_detections_csv(path) == [(0, 0, [Detection("L1", (1.5, 2.5))])]
    path = tmp_path / "ground_truth.csv"
    _write_table(path, TRUTH_COLUMNS, [["0", "0", "1.5", "2.5", "0.0", "", "7"]])
    assert read_ground_truth_csv(path) == {(0, 0): (1.5, 2.5, 0.0, 0.0)}
    # Trailing optional fields may be left off altogether.
    _write_table(path, TRUTH_COLUMNS, [["0", "0", "1.5", "2.5", "0.0"]])
    assert read_ground_truth_csv(path) == {(0, 0): (1.5, 2.5, 0.0, 0.0)}


def test_an_extra_field_is_not_read_as_an_optional_column_the_header_lacks(tmp_path):
    # csv.DictReader files fields past the header under its restkey, never under a column name.
    path = tmp_path / "detections.csv"
    path.write_text("beacon_id,u_px,v_px\nL1,1,2,7\nL2,3,4\nL3,5,6,8,9\n")
    want = [Detection("L1", (1.0, 2.0)), Detection("L2", (3.0, 4.0)), Detection("L3", (5.0, 6.0))]
    assert read_detections_csv(path) == [(0, 0, want)]
    path = tmp_path / "ground_truth.csv"
    path.write_text("point_index,trial_index,x_cm,y_cm,z_cm\n0,0,1,2,3,0.5\n")
    assert read_ground_truth_csv(path) == {(0, 0): (1.0, 2.0, 3.0, 0.0)}


# --- CSV round-trip properties ---

# Six decimals round to within 5e-7; parsing the text back adds at most one ulp of the largest value drawn.
CSV_TOL = 5e-7 + math.ulp(1e6)
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
indices = st.integers(0, 99_999)
# Printable text (str.isprintable), with the CSV delimiter and quote character drawn often.
printable = st.characters(exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"), include_characters=" ")
ids = st.text(st.sampled_from(',"') | printable, min_size=1, max_size=8)
pixels = st.tuples(finite, finite)
csv_examples = settings(max_examples=50)


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
            assert all(map(close, got.pixel, want.pixel))


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
            assert all(map(close, got, want))


fix_values = st.builds(
    PositionFix,
    st.tuples(finite, finite, finite),
    st.sampled_from(Method),
    st.builds(Diagnostics, finite, finite, finite, st.none() | finite),
)
fix_rows = st.lists(
    st.tuples(indices, indices, st.sampled_from(Method), st.none() | fix_values, ids), max_size=6
)


@csv_examples
@given(fix_rows)
def test_fixes_csv_round_trip_property(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "fixes.csv"
    write_fixes_csv(rows, path)
    back = read_fixes_csv(path)
    ok = [(p, t, fix) for p, t, _, fix, _ in rows if fix is not None]
    assert back.keys == [(p, t) for p, t, _ in ok]
    assert back.positions.shape == (len(ok), 3) and back.heights.shape == (len(ok),)
    for got, got_height, (_, _, want) in zip(back.positions.tolist(), back.heights.tolist(), ok):
        assert all(close(a, b) for a, b in zip(got, want.position))
        assert close(got_height, want.diagnostics.height_cm)


# --- writers format each shared object once ---

# Values whose six-decimal text keeps a sign that == cannot see, and any finite value.
signed = st.sampled_from([0.0, -0.0, 1e-9, -1e-9]) | finite
SHARED_WRITERS = {
    "detections": (
        st.builds(Detection, ids, st.tuples(signed, signed)),
        lambda dets, path: write_detections_csv([_record((i, 0), [det]) for i, det in enumerate(dets)], path),
    ),
    "ground_truth": (
        st.builds(CameraPose, st.tuples(signed, signed, signed), signed),
        lambda poses, path: write_ground_truth_csv([TrialRecord(i, 0, pose, (), 0) for i, pose in enumerate(poses)], path),
    ),
    "fixes": (
        st.builds(
            PositionFix,
            st.tuples(signed, signed, signed),
            st.sampled_from(Method),
            st.builds(Diagnostics, signed, signed, signed, st.none() | signed),
        ),
        lambda fixes, path: write_fixes_csv([(i, 0, Method.TWO_LED, fix, "") for i, fix in enumerate(fixes)], path),
    ),
}


@csv_examples
@pytest.mark.parametrize("name", SHARED_WRITERS)
@given(data=st.data())
def test_rows_holding_one_object_write_the_bytes_of_fresh_copies(tmp_path_factory, name, data):
    objects, write = SHARED_WRITERS[name]
    pool = data.draw(st.lists(objects, min_size=1, max_size=4))
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    base = tmp_path_factory.getbasetemp()
    write(rows, base / "shared.csv")
    write([dataclasses.replace(obj) for obj in rows], base / "fresh.csv")
    assert (base / "shared.csv").read_bytes() == (base / "fresh.csv").read_bytes()


@pytest.mark.parametrize(
    "name, minus, plus, text",
    [
        ("detections", Detection("L1", (-0.0, 0.0)), Detection("L1", (0.0, -0.0)), "L1,{}0.000000,{}0.000000"),
        ("ground_truth", CameraPose((-0.0, 1.0, 2.0), -0.0), CameraPose((0.0, 1.0, 2.0), 0.0), "{}0.000000,1.000000,2.000000,{}0.000000,0"),
        (
            "fixes",
            PositionFix((-0.0, 1.0, 2.0), Method.TWO_LED, Diagnostics(1.0, 1.0, 1.0, -0.0)),
            PositionFix((0.0, 1.0, 2.0), Method.TWO_LED, Diagnostics(1.0, 1.0, 1.0, 0.0)),
            "two-led,ok,{}0.000000,1.000000,2.000000,1.000000,1.000000,1.000000,{}0.000000,",
        ),
    ],
)
def test_equal_objects_with_minus_and_plus_zero_each_print_their_sign(tmp_path, name, minus, plus, text):
    assert minus == plus
    _, write = SHARED_WRITERS[name]
    write([minus, plus, minus, plus], tmp_path / "out.csv")
    # Each row's text after its two index columns.
    got = [line.split(",", 2)[2] for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
    signs = {"detections": [("-", ""), ("", "-")]}.get(name, [("-", "-"), ("", "")])
    assert got == [text.format(*signs[0]), text.format(*signs[1])] * 2


# --- readers on arbitrary input ---

# A field of a column's kind, or junk: empty, nan, infinite or any text. An unknown column holds text.
fuzz_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
fuzz_int = st.integers(-2, 99_999).map(str)
fuzz_float = st.floats(allow_nan=False, allow_infinity=False).map(repr)
FUZZ_KINDS = {
    "point_index": fuzz_int,
    "trial_index": fuzz_int,
    "sample_index": fuzz_int,
    "seed": fuzz_int,
    "beacon_id": fuzz_text,
    "track_id": fuzz_text,
    "message": fuzz_text,
    "note": fuzz_text,
    "method": st.sampled_from([m.value for m in Method]),
    "status": st.sampled_from(["ok", "error"]),
}
fuzz_junk = st.sampled_from(["", "nan", "inf"]) | fuzz_text


def fuzz_row(columns):
    """Every field of its column's kind, or any field junk."""
    kinds = [FUZZ_KINDS.get(column, fuzz_float) for column in columns]
    return st.tuples(*kinds) | st.tuples(*(kind | fuzz_junk for kind in kinds))


def _is_float(x):
    return type(x) is float


def _is_finite(*xs):
    return all(_is_float(x) and math.isfinite(x) for x in xs)


def _is_pixel(p):
    return type(p) is tuple and len(p) == 2 and all(map(_is_float, p))


def _is_key(point, trial):
    return type(point) is int and type(trial) is int


def _detections_typed(groups):
    return all(
        _is_key(p, t) and all(isinstance(d.beacon_id, str) and _is_pixel(d.pixel) for d in dets)
        for p, t, dets in groups
    )


def _truths_typed(truths):
    return all(_is_key(*key) and _is_finite(*xyz) and _is_float(yaw) for key, (*xyz, yaw) in truths.items())


def _tracks_typed(tracks):
    return all(isinstance(tid, str) and all(_is_pixel(p) and _is_finite(*p) for p in ps) for tid, ps in tracks.items())


def _fixes_typed(fixes):
    n = len(fixes.keys)
    return (
        isinstance(fixes, FixColumns)
        and all(_is_key(*key) for key in fixes.keys)
        and fixes.positions.dtype == float
        and fixes.positions.shape == (n, 3)
        and fixes.heights.dtype == float
        and fixes.heights.shape == (n,)
        and bool(np.isfinite(fixes.positions).all() and np.isfinite(fixes.heights).all())
    )


READ_TYPES = {
    "detections": _detections_typed,
    "ground_truth": _truths_typed,
    "tracks": _tracks_typed,
    "fixes": _fixes_typed,
}


@settings(max_examples=100)
@pytest.mark.parametrize("name", READER_CASES)
@given(data=st.data())
def test_reader_returns_its_types_or_an_input_error(tmp_path_factory, name, data):
    reader, header, _, _ = READER_CASES[name]
    columns = data.draw(st.permutations([*header, "note"]), label="header")
    rows = data.draw(st.lists(fuzz_row(columns), min_size=1, max_size=2), label="rows")
    path = tmp_path_factory.getbasetemp() / f"{name}.csv"
    # The rows are cut at every length, from empty to whole.
    for length in range(len(columns) + 1):
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows([columns, *(row[:length] for row in rows)])
        try:
            result = reader(path)
        except InputFormatError:
            continue
        assert READ_TYPES[name](result), f"rows cut to {length} fields"


@settings(max_examples=60)
@given(st.text() | st.binary())
def test_scene_reader_on_arbitrary_text_or_bytes_raises_only_scene_errors(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "scene.json"
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    with pytest.raises(SceneConfigError):
        read_scene(path)


# --- shared rows: the detections and ground-truth readers against row-by-row references ---

# Several spellings of one value, blank and signed fields; now and then an empty, non-finite or junk one.
SPELLED_INDEX = st.sampled_from(["0", "1", "2", "01", "+1", " 2", ""])
SPELLED_FLOAT = st.sampled_from(["427", "427.0", "+427", " 427", "4.27e2", "-0.5"])
SPELLED_FIELDS = {"point_index": SPELLED_INDEX, "trial_index": SPELLED_INDEX, "beacon_id": st.sampled_from(["L1", "L2"])}
SHARED_READERS = {
    # reader, reference, required columns, optional columns (the ones read, or not read at all)
    "detections": (read_detections_csv, oracles.row_by_row_detections, DETECTION_COLUMNS[2:], DETECTION_COLUMNS[:2]),
    "ground_truth": (read_ground_truth_csv, oracles.row_by_row_ground_truth, TRUTH_COLUMNS[:5], TRUTH_COLUMNS[5:]),
}


@settings(max_examples=120)
@pytest.mark.parametrize("name", SHARED_READERS)
@given(data=st.data())
def test_shared_row_readers_match_their_row_by_row_reference(tmp_path_factory, name, data):
    reader, reference, required, optional = SHARED_READERS[name]
    # Each optional column may be absent; an unknown column may hold junk.
    present = data.draw(st.permutations([*optional, "note"]))[: data.draw(st.integers(0, len(optional) + 1))]
    columns = data.draw(st.permutations([*required, *present]))
    # Each column holds one to three texts, so rows share fields and repeat whole; any row may
    # repeat anywhere, so a trial's rows need not be contiguous. In half the files one field
    # of one distinct row is junk, and a few rows are cut short.
    pools = [data.draw(st.lists(SPELLED_FIELDS.get(c, SPELLED_FLOAT), min_size=1, max_size=3)) for c in columns]
    distinct = data.draw(st.lists(st.tuples(*map(st.sampled_from, pools)).map(list), min_size=2, max_size=6))
    if data.draw(st.booleans()):
        data.draw(st.sampled_from(distinct))[data.draw(st.integers(0, len(columns) - 1))] = data.draw(fuzz_junk)
    cuts = st.sampled_from([len(columns)] * 12 + list(range(len(columns))))
    distinct = [row[: data.draw(cuts)] for row in distinct]
    rows = data.draw(st.lists(st.sampled_from(distinct), min_size=2, max_size=24))
    path = tmp_path_factory.getbasetemp() / f"shared_{name}.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([columns, *rows])
    try:
        want = reference(path)
    except InputFormatError as err:
        with pytest.raises(InputFormatError) as info:
            reader(path)
        assert str(info.value) == str(err)
        return
    # repr tells every distinct float apart (nan and -0.0 too), and shows types and group order.
    assert repr(reader(path)) == repr(want)


def test_rows_with_the_same_text_share_one_detection_and_one_pose(tmp_path):
    detections = tmp_path / "detections.csv"
    detections.write_text("point_index,trial_index,beacon_id,u_px,v_px\n0,0,L1,427,300\n1,0,L1,427,300\n0,1,L1,427.0,300\n")
    (_, _, (a,)), (_, _, (b,)), (_, _, (c,)) = read_detections_csv(detections)
    assert a is c and a == b and a is not b
    truth = tmp_path / "ground_truth.csv"
    truth.write_text("point_index,trial_index,x_cm,y_cm,z_cm\n0,0,1.5,2,0\n0,1,1.5,2,0\n")
    truths = read_ground_truth_csv(truth)
    assert truths[0, 0] is truths[0, 1]


# --- writer bytes against a csv.writer reference ---

# Every character csv quotes for, empty text included, and floats at the edges of the six-decimal format.
text = st.text(st.sampled_from(',"\r\n ') | printable, max_size=6)
edgy = st.sampled_from([-0.0, 1e15, -1e15, 999_999_999_999_999.9]) | st.floats(-1.1e15, 1.1e15, allow_nan=False)
edgy_pixels = st.tuples(edgy, edgy)
records = st.lists(
    st.builds(
        TrialRecord,
        indices,
        indices,
        st.builds(CameraPose, st.tuples(edgy, edgy, edgy), edgy),
        st.lists(st.builds(Detection, text, edgy_pixels), max_size=3).map(tuple),
        st.integers(0, 2**63),
    ),
    max_size=4,
)
edgy_fix_rows = st.lists(
    st.tuples(
        indices,
        indices,
        st.sampled_from(Method),
        st.none()
        | st.builds(
            PositionFix,
            st.tuples(edgy, edgy, edgy),
            st.sampled_from(Method),
            st.builds(Diagnostics, edgy, edgy, edgy, st.none() | edgy),
        ),
        text,
    ),
    max_size=4,
)


@st.composite
def error_reports(draw):
    """Keys and a report whose per-trial, CDF and histogram tables are arbitrary."""
    n = draw(st.integers(0, 4))
    column = st.lists(edgy, min_size=n, max_size=n)
    keys = draw(st.lists(st.tuples(indices, indices), min_size=n, max_size=n))
    edges = draw(st.lists(edgy, min_size=1, max_size=4))
    counts = draw(st.lists(st.integers(0, 10**9), min_size=len(edges) - 1, max_size=len(edges) - 1))
    cdf = tuple(zip(draw(column), draw(column)))
    report = ErrorReport(tuple(draw(column)), tuple(draw(column)), 0.0, 0.0, 0.0, 0.0, cdf, (tuple(edges), tuple(counts)))
    return keys, report


def six(x):
    return f"{x:.6f}"


def reference_csv(path, header, rows):
    """What csv.writer writes for the header and the rows, with floats already formatted."""
    with open(path, "w", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
    return path.read_bytes()


def reference_fix_row(point, trial, method, fix, message):
    if fix is None:
        return [point, trial, method.value, "error", "", "", "", "", "", "", "", message]
    d = fix.diagnostics
    yaw = "" if d.yaw_rad is None else six(d.yaw_rad)
    return [point, trial, method.value, "ok", *map(six, fix.position), six(d.height_cm),
            six(d.image_pair_distance_mm), six(d.world_pair_distance_cm), yaw, ""]


writer_examples = settings(max_examples=25)


@writer_examples
@given(records)
def test_detection_and_truth_writers_match_a_csv_writer_reference(tmp_path_factory, recs):
    out = tmp_path_factory.getbasetemp()
    detection_rows = [
        [r.point_index, r.trial_index, d.beacon_id, *map(six, d.pixel)] for r in recs for d in r.detections
    ]
    truth_rows = [[r.point_index, r.trial_index, *map(six, (*r.pose.position, r.pose.yaw_rad)), r.seed] for r in recs]
    write_detections_csv(recs, out / "detections.csv")
    assert (out / "detections.csv").read_bytes() == reference_csv(out / "ref.csv", DETECTION_COLUMNS, detection_rows)
    write_ground_truth_csv(recs, out / "truth.csv")
    assert (out / "truth.csv").read_bytes() == reference_csv(out / "ref.csv", TRUTH_COLUMNS, truth_rows)


@writer_examples
@given(st.dictionaries(text, st.lists(edgy_pixels, max_size=3)))
def test_tracks_writer_matches_a_csv_writer_reference(tmp_path_factory, tracks):
    out = tmp_path_factory.getbasetemp()
    rows = [[tid, i, *map(six, p)] for tid in sorted(tracks) for i, p in enumerate(tracks[tid])]
    write_tracks_csv(tracks, out / "tracks.csv")
    assert (out / "tracks.csv").read_bytes() == reference_csv(out / "ref.csv", TRACK_COLUMNS, rows)


@writer_examples
@given(edgy_fix_rows)
def test_fixes_writer_matches_a_csv_writer_reference(tmp_path_factory, rows):
    out = tmp_path_factory.getbasetemp()
    write_fixes_csv(rows, out / "fixes.csv")
    want = reference_csv(out / "ref.csv", FIX_COLUMNS, [reference_fix_row(*row) for row in rows])
    assert (out / "fixes.csv").read_bytes() == want


@writer_examples
@given(error_reports())
def test_error_report_writer_matches_a_csv_writer_reference(tmp_path_factory, keyed_report):
    out = tmp_path_factory.getbasetemp()
    keys, report = keyed_report
    write_error_report(report, keys, out, "p")
    edges, counts = report.histogram
    tables = {
        "errors_p.csv": (
            ["point_index", "trial_index", "error_cm", "error_3d_cm"],
            [[p, t, six(e), six(e3)] for (p, t), e, e3 in zip(keys, report.per_trial_errors, report.per_trial_errors_3d)],
        ),
        "cdf_p.csv": (["error_cm", "cumulative_fraction"], [[six(e), six(f)] for e, f in report.cdf]),
        "histogram_p.csv": (
            ["bin_left_cm", "bin_right_cm", "count"],
            [[six(a), six(b), c] for a, b, c in zip(edges[:-1], edges[1:], counts)],
        ),
    }
    for name, (header, rows) in tables.items():
        assert (out / name).read_bytes() == reference_csv(out / "ref.csv", header, rows), name


# --- report files ---


def ladder_fixes(n):
    return [(float(k), 0.0, 0.0) for k in range(1, n + 1)]


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
