"""Reading and writing scene configurations, detection/track/fix CSVs, and reports.

All floats are serialized with six fixed decimals so repeated runs with the
same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .analysis import ErrorReport, ReportComparison
from .calibration import CircleFit, DispersionSummary
from .camera import CameraIntrinsics, PixelPoint
from .errors import InputFormatError, SceneConfigError
from .positioning import Detection, Diagnostics, LedBeacon, Method, PositionFix
from .simulator import CameraPose, NoiseModel, SceneConfig, TrialRecord


def fmt(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------- scene JSON


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise SceneConfigError(f"{where}: missing required field {key!r}")
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SceneConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _triple(value, where: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SceneConfigError(f"{where}: expected 3 numbers, got {value!r}")
    return tuple(_number(c, where) for c in value)  # type: ignore[return-value]


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SceneConfigError(f"{where}: expected 2 numbers, got {value!r}")
    return (_number(value[0], where), _number(value[1], where))


def read_scene(path: str | Path) -> SceneConfig:
    """Parse a scene JSON file; errors carry the offending line or field."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SceneConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except OSError as err:
        raise SceneConfigError(f"{path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise SceneConfigError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from err
    try:
        return _scene_from_dict(raw)
    except ValueError as err:
        raise SceneConfigError(f"{path}: {err}") from err


def _scene_from_dict(raw: Mapping) -> SceneConfig:
    beacons = []
    raw_beacons = _require(raw, "beacons", "scene")
    if not isinstance(raw_beacons, list) or not raw_beacons:
        raise SceneConfigError("scene.beacons: expected a non-empty list")
    for idx, entry in enumerate(raw_beacons):
        where = f"scene.beacons[{idx}]"
        bid = _require(entry, "id", where)
        if not isinstance(bid, str) or not bid:
            raise SceneConfigError(f"{where}.id: expected a non-empty string")
        if not bid.isprintable():
            raise SceneConfigError(f"{where}.id: expected printable text, got {bid!r}")
        beacons.append(LedBeacon(bid, _triple(_require(entry, "position", where), f"{where}.position")))

    raw_pose = _require(raw, "camera_pose", "scene")
    pose = CameraPose(
        position=_triple(_require(raw_pose, "position", "scene.camera_pose"), "scene.camera_pose.position"),
        yaw_rad=_number(raw_pose.get("yaw_rad", 0.0), "scene.camera_pose.yaw_rad"),
    )

    raw_k = _require(raw, "intrinsics", "scene")
    where = "scene.intrinsics"
    resolution = _pair(_require(raw_k, "resolution_px", where), f"{where}.resolution_px")
    if resolution != (int(resolution[0]), int(resolution[1])):
        raise SceneConfigError(f"{where}.resolution_px: expected integers, got {resolution}")
    corrected = raw_k.get("corrected_principal_point_px")
    intrinsics = CameraIntrinsics(
        focal_length=_number(_require(raw_k, "focal_length_mm", where), f"{where}.focal_length_mm"),
        pitch_i=_number(_require(raw_k, "pitch_i_mm", where), f"{where}.pitch_i_mm"),
        pitch_j=_number(_require(raw_k, "pitch_j_mm", where), f"{where}.pitch_j_mm"),
        resolution=(int(resolution[0]), int(resolution[1])),
        corrected_principal_point=(
            _pair(corrected, f"{where}.corrected_principal_point_px") if corrected is not None else None
        ),
    )

    true_pp = raw.get("true_principal_point_px")
    raw_noise = raw.get("noise", {})
    noise = NoiseModel(
        pixel_sigma=_number(raw_noise.get("pixel_sigma_px", 0.0), "scene.noise.pixel_sigma_px"),
        quantize=_boolean(raw_noise.get("quantize", False), "scene.noise.quantize"),
    )
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SceneConfigError(f"scene.seed: expected an integer, got {seed!r}")

    return SceneConfig(
        beacons=tuple(beacons),
        camera_pose=pose,
        intrinsics=intrinsics,
        true_principal_point=_pair(true_pp, "scene.true_principal_point_px") if true_pp is not None else None,
        noise=noise,
        seed=seed,
    )


def scene_to_dict(scene: SceneConfig) -> dict:
    return {
        "beacons": [
            {"id": b.id, "position": list(b.position)} for b in scene.beacons
        ],
        "camera_pose": {
            "position": list(scene.camera_pose.position),
            "yaw_rad": scene.camera_pose.yaw_rad,
        },
        "intrinsics": {
            "focal_length_mm": scene.intrinsics.focal_length,
            "pitch_i_mm": scene.intrinsics.pitch_i,
            "pitch_j_mm": scene.intrinsics.pitch_j,
            "resolution_px": list(scene.intrinsics.resolution),
            "corrected_principal_point_px": list(scene.intrinsics.corrected_principal_point),
        },
        "true_principal_point_px": list(scene.true_principal_point),
        "noise": {
            "pixel_sigma_px": scene.noise.pixel_sigma,
            "quantize": scene.noise.quantize,
        },
        "seed": scene.seed,
    }


def write_scene(scene: SceneConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------- CSVs

# Column order of each CSV format; each reader requires a slice of the same list.
DETECTION_COLUMNS = ["point_index", "trial_index", "beacon_id", "u_px", "v_px"]
TRUTH_COLUMNS = ["point_index", "trial_index", "x_cm", "y_cm", "z_cm", "yaw_rad", "seed"]
TRACK_COLUMNS = ["track_id", "sample_index", "u_px", "v_px"]
FIX_COLUMNS = [
    "point_index",
    "trial_index",
    "method",
    "status",
    "x_cm",
    "y_cm",
    "z_cm",
    "height_cm",
    "image_pair_distance_mm",
    "world_pair_distance_cm",
    "yaw_rad",
    "message",
]


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One header line, then the rows; newline-terminated, quoted only where needed."""
    with open(path, "w", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


@contextmanager
def _csv_rows(path: str | Path, required: Sequence[str]) -> Iterator[csv.DictReader]:
    """Rows of a CSV file whose header holds every required column.

    A missing file or column, or a value in the block that fails to parse,
    raises InputFormatError naming the file and, for a value, the line.
    """
    try:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            missing = [c for c in required if c not in (reader.fieldnames or ())]
            if missing:
                names = ", ".join(map(repr, missing))
                raise InputFormatError(f"{path}: missing required column(s) {names}")
            try:
                yield reader
            except (csv.Error, TypeError, ValueError) as err:
                raise InputFormatError(f"{path}:{reader.line_num}: {err}") from err
    except OSError as err:
        raise InputFormatError(f"{path}: {err.strerror}") from err


def write_detections_csv(records: Sequence[TrialRecord], path: str | Path) -> None:
    rows = (
        [rec.point_index, rec.trial_index, det.beacon_id, fmt(det.pixel.u), fmt(det.pixel.v)]
        for rec in records
        for det in rec.detections
    )
    _write_csv(path, DETECTION_COLUMNS, rows)


def read_detections_csv(path: str | Path) -> list[tuple[int, int, list[Detection]]]:
    """Detection rows grouped by (point_index, trial_index).

    Files without index columns are treated as a single trial (0, 0).
    """
    groups: dict[tuple[int, int], list[Detection]] = {}
    # The index columns are optional.
    with _csv_rows(path, DETECTION_COLUMNS[2:]) as reader:
        for row in reader:
            key = (int(row.get("point_index", 0) or 0), int(row.get("trial_index", 0) or 0))
            det = Detection(row["beacon_id"], PixelPoint(float(row["u_px"]), float(row["v_px"])))
            groups.setdefault(key, []).append(det)
    return [(p, t, dets) for (p, t), dets in sorted(groups.items())]


def _truth_row(rec: TrialRecord) -> list:
    x, y, z = rec.pose.position
    return [rec.point_index, rec.trial_index, fmt(x), fmt(y), fmt(z), fmt(rec.pose.yaw_rad), rec.seed]


def write_ground_truth_csv(records: Sequence[TrialRecord], path: str | Path) -> None:
    _write_csv(path, TRUTH_COLUMNS, map(_truth_row, records))


def read_ground_truth_csv(path: str | Path) -> dict[tuple[int, int], tuple[float, float, float, float]]:
    """Maps (point_index, trial_index) to (x, y, z, yaw)."""
    truths: dict[tuple[int, int], tuple[float, float, float, float]] = {}
    # yaw_rad is optional and seed is not read.
    with _csv_rows(path, TRUTH_COLUMNS[:5]) as reader:
        for row in reader:
            key = (int(row["point_index"]), int(row["trial_index"]))
            truths[key] = (
                float(row["x_cm"]),
                float(row["y_cm"]),
                float(row["z_cm"]),
                float(row.get("yaw_rad", 0.0) or 0.0),
            )
    return truths


def write_tracks_csv(tracks: Mapping[str, Sequence[PixelPoint]], path: str | Path) -> None:
    rows = (
        [track_id, idx, fmt(p.u), fmt(p.v)]
        for track_id in sorted(tracks)
        for idx, p in enumerate(tracks[track_id])
    )
    _write_csv(path, TRACK_COLUMNS, rows)


def read_tracks_csv(path: str | Path) -> dict[str, list[PixelPoint]]:
    rows: dict[str, list[tuple[int, PixelPoint]]] = {}
    with _csv_rows(path, TRACK_COLUMNS) as reader:
        for row in reader:
            rows.setdefault(row["track_id"], []).append(
                (int(row["sample_index"]), PixelPoint(float(row["u_px"]), float(row["v_px"])))
            )
    return {
        track_id: [p for _, p in sorted(samples, key=lambda s: s[0])]
        for track_id, samples in sorted(rows.items())
    }


def _fix_row(point: int, trial: int, method: Method, fix: PositionFix | None, message: str) -> list:
    if fix is None:
        return [point, trial, method.value, "error", "", "", "", "", "", "", "", message]
    diag = fix.diagnostics
    assert diag is not None
    yaw = fmt(diag.yaw_rad) if diag.yaw_rad is not None else ""
    return [
        point,
        trial,
        method.value,
        "ok",
        fmt(fix.position[0]),
        fmt(fix.position[1]),
        fmt(fix.position[2]),
        fmt(diag.height_cm),
        fmt(diag.image_pair_distance_mm),
        fmt(diag.world_pair_distance_cm),
        yaw,
        "",
    ]


def write_fixes_csv(
    rows: Sequence[tuple[int, int, Method, PositionFix | None, str]], path: str | Path
) -> None:
    """Rows are (point_index, trial_index, method, fix or None, error message)."""
    _write_csv(path, FIX_COLUMNS, (_fix_row(*row) for row in rows))


def read_fixes_csv(path: str | Path) -> list[tuple[int, int, PositionFix]]:
    """Fix rows with status ok; failed rows are skipped."""
    fixes: list[tuple[int, int, PositionFix]] = []
    # Every column but the free-text message is read.
    with _csv_rows(path, FIX_COLUMNS[:-1]) as reader:
        for row in reader:
            if row["status"] != "ok":
                continue
            diag = Diagnostics(
                height_cm=float(row["height_cm"]),
                image_pair_distance_mm=float(row["image_pair_distance_mm"]),
                world_pair_distance_cm=float(row["world_pair_distance_cm"]),
                yaw_rad=float(row["yaw_rad"]) if row["yaw_rad"] else None,
            )
            fix = PositionFix(
                (float(row["x_cm"]), float(row["y_cm"]), float(row["z_cm"])),
                Method(row["method"]),
                diag,
            )
            fixes.append((int(row["point_index"]), int(row["trial_index"]), fix))
    return fixes


# ------------------------------------------------------------------- reports


def write_error_report(
    report: ErrorReport,
    keys: Sequence[tuple[int, int]],
    out_dir: str | Path,
    prefix: str,
) -> None:
    """Per-trial errors, CDF table, and histogram table for one report."""
    out_dir = Path(out_dir)
    errors = (
        [point, trial, fmt(err), fmt(err3)]
        for (point, trial), err, err3 in zip(keys, report.per_trial_errors, report.per_trial_errors_3d)
    )
    _write_csv(out_dir / f"errors_{prefix}.csv", ["point_index", "trial_index", "error_cm", "error_3d_cm"], errors)
    cdf = ([fmt(err), fmt(fraction)] for err, fraction in report.cdf)
    _write_csv(out_dir / f"cdf_{prefix}.csv", ["error_cm", "cumulative_fraction"], cdf)
    edges, counts = report.histogram
    bins = ([fmt(left), fmt(right), count] for left, right, count in zip(edges[:-1], edges[1:], counts))
    _write_csv(out_dir / f"histogram_{prefix}.csv", ["bin_left_cm", "bin_right_cm", "count"], bins)


def report_summary_lines(report: ErrorReport, label: str) -> list[str]:
    lines = [
        f"{label}: average positioning error is {report.mean:.2f}cm, "
        f"the 90% positioning error is {report.p90:.2f}cm, "
        f"and the maximum positioning error is {report.max_error:.2f}cm",
        f"{label}: mean={fmt(report.mean)} p90={fmt(report.p90)} max={fmt(report.max_error)} "
        f"rms={fmt(report.rms)} trials={len(report.per_trial_errors)}",
    ]
    if report.dispersion is not None:
        d = report.dispersion
        lines.append(
            f"{label}: dispersion mean_offset=({fmt(d.mean_offset[0])}, {fmt(d.mean_offset[1])}) "
            f"enclosing_center=({fmt(d.enclosing_center[0])}, {fmt(d.enclosing_center[1])}) "
            f"enclosing_radius={fmt(d.enclosing_radius)} samples={d.sample_count}"
        )
    return lines


def write_summary_csv(reports: Mapping[tuple[Method, str], ErrorReport], path: str | Path) -> None:
    """Headline statistics, one row per (method, calibration) report."""
    rows = []
    for (method, calibration), r in reports.items():
        stats = (r.mean, r.p90, r.max_error, r.rms)
        rows.append([method.value, calibration, *map(fmt, stats), len(r.per_trial_errors)])
    _write_csv(path, ["method", "calibration", "mean_cm", "p90_cm", "max_cm", "rms_cm", "trials"], rows)


def write_comparisons_csv(
    comparisons: Sequence[tuple[Method, str, str, ReportComparison]], path: str | Path
) -> None:
    """Rows are (method, reference calibration, variant calibration, comparison)."""
    header = "method,reference,variant,mean_ratio,p90_ratio,max_ratio,mean_diff_cm,p90_diff_cm,max_diff_cm"
    rows = []
    for method, reference, variant, c in comparisons:
        stats = (c.mean_ratio, c.p90_ratio, c.max_ratio, c.mean_diff, c.p90_diff, c.max_diff)
        rows.append([method.value, reference, variant, *map(fmt, stats)])
    _write_csv(path, header.split(","), rows)


def format_circle_fit(fit: CircleFit) -> str:
    return (
        f"center=({fmt(fit.center[0])}, {fmt(fit.center[1])}) "
        f"radius={fmt(fit.radius)} rms={fmt(fit.rms_residual)}"
    )


def format_dispersion(summary: DispersionSummary) -> str:
    return (
        f"mean_offset=({fmt(summary.mean_offset[0])}, {fmt(summary.mean_offset[1])}) "
        f"enclosing_radius={fmt(summary.enclosing_radius)} samples={summary.sample_count}"
    )
