"""Command-line interface: simulate, locate, calibrate, replicate, stats."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import __version__
from .analysis import ErrorReport, compare_reports, error_stats
from .calibration import calibrate_dispersion, calibrate_rotation
from .errors import VlpError
from .io import (
    fmt,
    format_circle_fit,
    format_dispersion,
    read_detections_csv,
    read_fixes_csv,
    read_ground_truth_csv,
    read_scene,
    read_tracks_csv,
    report_summary_lines,
    scene_to_dict,
    write_comparisons_csv,
    write_detections_csv,
    write_error_report,
    write_fixes_csv,
    write_ground_truth_csv,
    write_scene,
    write_summary_csv,
    write_tracks_csv,
)
from .positioning import Detection, LedBeacon, Method, PositionFix, locate_two, trilaterate_three, widest_pair
from .simulator import (
    SWEEP_ANGLES_12,
    CameraPose,
    NoiseModel,
    SceneConfig,
    TrialRecord,
    default_grid,
    default_scene,
    derive_seed,
    generate_trials,
    rotation_sweep,
)

DEFAULT_TRIALS_PER_POINT = 12
DISPERSION_TRIALS = 432
DEFAULT_REPLICATE_SEED = 7
# Stream ids for auxiliary seed derivation, outside the grid point range.
ROTATION_STREAM = 90_000
DISPERSION_STREAM = 90_001
REPLICATE_PRINCIPAL_POINT_OFFSET = (6.3, -4.1)
REPLICATE_NOISE = NoiseModel(pixel_sigma=0.5, quantize=True)
COMPARISONS = (("uncalibrated", "rotation"), ("uncalibrated", "dispersion"), ("rotation", "dispersion"))


def _scene_hash(scene: SceneConfig) -> str:
    payload = json.dumps(scene_to_dict(scene), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, scene: SceneConfig | None, args: argparse.Namespace, extra: dict | None = None) -> None:
    manifest = {
        "tool": "vlpkit",
        "version": __version__,
        "subcommand": subcommand,
        "seed": getattr(args, "seed", None),
        "scene_sha256": _scene_hash(scene) if scene is not None else None,
        "flags": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func",) and isinstance(value, (str, int, float, bool, type(None)))
        },
    }
    if extra:
        manifest.update(extra)
    (out_dir / "run.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_triple(text: str, flag: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise VlpError(f"{flag} expects X,Y,Z, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as err:
        raise VlpError(f"{flag} expects numbers, got {text!r}") from err


def _scene(args: argparse.Namespace, default: SceneConfig) -> SceneConfig:
    """The --scene file, or default, with --seed overriding its seed."""
    scene = read_scene(args.scene) if args.scene else default
    return scene if args.seed is None else replace(scene, seed=args.seed)


def _groups(records: Sequence[TrialRecord]) -> list[tuple[int, int, list[Detection]]]:
    return [(rec.point_index, rec.trial_index, list(rec.detections)) for rec in records]


def compute_fix(
    detections: Sequence[Detection],
    beacons: Sequence[LedBeacon],
    intrinsics,
    method: Method,
    height_pair: str = "average",
) -> PositionFix:
    """Dispatch one trial's detections to the chosen estimator.

    The two-beacon path picks the widest pair when more detections are
    available; the three-beacon path requires exactly three.
    """
    if method is Method.TWO_LED:
        pair = widest_pair(detections, beacons) if len(detections) > 2 else tuple(detections)
        return locate_two(pair, beacons, intrinsics)
    return trilaterate_three(detections, beacons, intrinsics, height_pair=height_pair)


def _locate_rows(
    groups: Sequence[tuple[int, int, Sequence[Detection]]],
    scene: SceneConfig,
    intrinsics,
    method: Method,
    height_pair: str,
    quiet: bool = False,
) -> list[tuple[int, int, Method, PositionFix | None, str]]:
    rows: list[tuple[int, int, Method, PositionFix | None, str]] = []
    for point, trial, dets in groups:
        try:
            fix = compute_fix(dets, scene.beacons, intrinsics, method, height_pair)
            rows.append((point, trial, method, fix, ""))
        except (VlpError, ValueError) as err:
            if not quiet:
                print(f"warning: trial {point}/{trial}: {err}", file=sys.stderr)
            rows.append((point, trial, method, None, str(err)))
    return rows


def _cmd_simulate(args: argparse.Namespace) -> int:
    scene = _scene(args, default_scene())
    if args.at:
        grid = [_parse_triple(args.at, "--at")]
    else:
        grid = default_grid()
    records = generate_trials(grid, args.trials, scene, scene.seed)
    out = _out_dir(args)
    write_scene(scene, out / "scene.json")
    write_detections_csv(records, out / "detections.csv")
    write_ground_truth_csv(records, out / "ground_truth.csv")
    _write_manifest(out, "simulate", scene, args, {"trials": len(records)})
    print(f"simulated {len(records)} trials over {len(grid)} points -> {out}")
    return 0


def _cmd_locate(args: argparse.Namespace) -> int:
    scene = read_scene(args.scene)
    groups = read_detections_csv(args.detections)
    method = Method(args.method)
    height_pair = "first" if args.paper_faithful_h else "average"
    rows = _locate_rows(groups, scene, scene.intrinsics, method, height_pair)
    out = _out_dir(args)
    write_fixes_csv(rows, out / "fixes.csv")
    _write_manifest(out, "locate", scene, args)
    ok = sum(1 for row in rows if row[3] is not None)
    print(f"located {ok}/{len(rows)} trials ({method.value}) -> {out / 'fixes.csv'}")
    return 0 if ok else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    scene = read_scene(args.scene)
    out = _out_dir(args)
    before = scene.intrinsics.corrected_principal_point
    report_lines: list[str] = []
    if args.calibration == "rotation":
        if not args.tracks:
            raise VlpError("rotation calibration needs --tracks")
        tracks = read_tracks_csv(args.tracks)
        intrinsics, fits = calibrate_rotation(tracks, scene.intrinsics)
        report_lines.extend(f"track {tid}: {format_circle_fit(fit)}" for tid, fit in sorted(fits.items()))
    else:
        if not args.fixes:
            raise VlpError("dispersion calibration needs --fixes")
        fixes = [fix for _, _, fix in read_fixes_csv(args.fixes)]
        if args.ground_truth:
            truth = _parse_triple(args.ground_truth, "--ground-truth")
        else:
            truth = scene.camera_pose.position
        mode = "paper_literal" if args.paper_literal else "physical"
        intrinsics, summary = calibrate_dispersion(fixes, truth, scene.intrinsics, mode=mode)
        report_lines.append(f"dispersion: {format_dispersion(summary)}")
    after = intrinsics.corrected_principal_point
    calibrated = replace(scene, intrinsics=intrinsics)
    write_scene(calibrated, out / "scene_calibrated.json")
    report_lines.insert(
        0,
        f"principal point: ({fmt(before[0])}, {fmt(before[1])}) -> ({fmt(after[0])}, {fmt(after[1])}) "
        f"delta=({after[0] - before[0]:+.6f}, {after[1] - before[1]:+.6f})",
    )
    (out / "calibration.txt").write_text("\n".join(report_lines) + "\n")
    _write_manifest(out, "calibrate", calibrated, args)
    for line in report_lines:
        print(line)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    fixes = read_fixes_csv(args.fixes)
    truths = read_ground_truth_csv(args.ground_truth)
    keys = []
    fix_list = []
    truth_list = []
    for point, trial, fix in fixes:
        if (point, trial) not in truths:
            raise VlpError(f"no ground truth for trial {point}/{trial}")
        x, y, z, _ = truths[(point, trial)]
        keys.append((point, trial))
        fix_list.append(fix)
        truth_list.append((x, y, z))
    report = error_stats(fix_list, truth_list)
    out = _out_dir(args)
    write_error_report(report, keys, out, args.label)
    lines = report_summary_lines(report, args.label)
    (out / f"summary_{args.label}.txt").write_text("\n".join(lines) + "\n")
    _write_manifest(out, "stats", None, args)
    for line in lines:
        print(line)
    return 0


def replicate_scene(seed: int) -> SceneConfig:
    """Default end-to-end experiment scene: offset true principal point, noisy, quantized."""
    base = default_scene(seed=seed, noise=REPLICATE_NOISE)
    nominal = base.intrinsics.nominal_principal_point
    true_pp = (
        nominal[0] + REPLICATE_PRINCIPAL_POINT_OFFSET[0],
        nominal[1] + REPLICATE_PRINCIPAL_POINT_OFFSET[1],
    )
    return replace(base, true_principal_point=true_pp)


def _cmd_replicate(args: argparse.Namespace) -> int:
    scene = _scene(args, replicate_scene(DEFAULT_REPLICATE_SEED))
    base_seed = scene.seed
    out = _out_dir(args)
    write_scene(scene, out / "scene.json")
    nominal_intrinsics = scene.intrinsics

    grid = default_grid()
    records = generate_trials(grid, DEFAULT_TRIALS_PER_POINT, scene, base_seed)
    write_detections_csv(records, out / "detections.csv")
    write_ground_truth_csv(records, out / "ground_truth.csv")
    groups = _groups(records)
    truth_by_key = {
        (rec.point_index, rec.trial_index): rec.pose.position for rec in records
    }

    # Spin-in-place tracks, fitted once and shared by both methods.
    sweep_scene = replace(
        scene,
        camera_pose=CameraPose((0.0, 0.0, 0.0)),
        seed=derive_seed(base_seed, ROTATION_STREAM, 0),
    )
    tracks = rotation_sweep(sweep_scene, SWEEP_ANGLES_12)
    write_tracks_csv(tracks, out / "tracks_rotation.csv")
    rotation_intrinsics, fits = calibrate_rotation(tracks, nominal_intrinsics)
    write_scene(replace(scene, intrinsics=rotation_intrinsics), out / "scene_rotation.json")

    # Repeated fixes at a surveyed point (the grid centre), calibrated per
    # method.  The centre sits in the low-noise zone, so the mean of the fix
    # cloud isolates the principal-point bias instead of geometry noise.
    centre = (
        (grid[0][0] + grid[-1][0]) / 2.0,
        (grid[0][1] + grid[-1][1]) / 2.0,
        0.0,
    )
    dispersion_scene = replace(scene, camera_pose=CameraPose(centre))
    dispersion_records = generate_trials(
        [centre],
        DISPERSION_TRIALS,
        dispersion_scene,
        derive_seed(base_seed, DISPERSION_STREAM, 0),
    )
    dispersion_groups = _groups(dispersion_records)
    dispersion_intrinsics: dict[Method, object] = {}
    dispersion_lines: list[str] = []
    for method in (Method.TWO_LED, Method.THREE_LED):
        rows = _locate_rows(dispersion_groups, scene, nominal_intrinsics, method, "average", quiet=True)
        write_fixes_csv(rows, out / f"dispersion_fixes_{method.value}.csv")
        fixes = [row[3] for row in rows if row[3] is not None]
        intrinsics, summary = calibrate_dispersion(
            fixes, centre, nominal_intrinsics, mode="physical"
        )
        dispersion_intrinsics[method] = intrinsics
        write_scene(replace(scene, intrinsics=intrinsics), out / f"scene_dispersion_{method.value}.json")
        dispersion_lines.append(f"dispersion calibration ({method.value}): {format_dispersion(summary)}")

    reports: dict[tuple[Method, str], ErrorReport] = {}
    for method in (Method.TWO_LED, Method.THREE_LED):
        calibrations = {
            "uncalibrated": nominal_intrinsics,
            "rotation": rotation_intrinsics,
            "dispersion": dispersion_intrinsics[method],
        }
        for calibration, intrinsics in calibrations.items():
            rows = _locate_rows(groups, scene, intrinsics, method, "average", quiet=True)
            prefix = f"{method.value}_{calibration}"
            write_fixes_csv(rows, out / f"fixes_{prefix}.csv")
            ok_keys = [(p, t) for p, t, _, fix, _ in rows if fix is not None]
            fixes = [fix for _, _, _, fix, _ in rows if fix is not None]
            truths = [truth_by_key[key] for key in ok_keys]
            report = error_stats(fixes, truths)
            reports[(method, calibration)] = report
            write_error_report(report, ok_keys, out, prefix)

    summary_lines: list[str] = [f"seed: {base_seed}", f"scene: {_scene_hash(scene)}"]
    summary_lines.extend(f"rotation track {tid}: {format_circle_fit(fit)}" for tid, fit in sorted(fits.items()))
    summary_lines.extend(dispersion_lines)
    write_summary_csv(reports, out / "summary.csv")
    comparisons = [
        (method, ref, var, compare_reports(reports[(method, ref)], reports[(method, var)]))
        for method in (Method.TWO_LED, Method.THREE_LED)
        for ref, var in COMPARISONS
    ]
    write_comparisons_csv(comparisons, out / "comparisons.csv")
    for (method, calibration), report in reports.items():
        summary_lines.extend(report_summary_lines(report, f"{method.value} {calibration}"))
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    _write_manifest(
        out,
        "replicate",
        scene,
        args,
        {
            "trials": len(records),
            "grid_points": len(grid),
            "dispersion_point": list(centre),
            "dispersion_trials": DISPERSION_TRIALS,
        },
    )
    print("\n".join(summary_lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlpkit",
        description="LED-beacon camera positioning: simulation, localization, calibration, analysis",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate detection datasets from a scene")
    p.add_argument("--scene", help="scene JSON (default: built-in scene)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the scene seed")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS_PER_POINT, help="trials per grid point")
    p.add_argument("--at", help="X,Y,Z single camera position instead of the default grid")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("locate", help="estimate camera positions from detections")
    p.add_argument("--scene", required=True)
    p.add_argument("--detections", required=True, help="detections CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=[m.value for m in Method], default=Method.THREE_LED.value)
    p.add_argument(
        "--paper-faithful-h",
        action="store_true",
        help="three-beacon height from the lowest-id pair only, as published",
    )
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("calibrate", help="estimate the corrected principal point")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--calibration", choices=["rotation", "dispersion"], required=True)
    p.add_argument("--tracks", help="rotation tracks CSV (rotation mode)")
    p.add_argument("--fixes", help="fixes CSV at a known point (dispersion mode)")
    p.add_argument("--ground-truth", help="X,Y,Z of the true camera position (default: scene pose)")
    p.add_argument(
        "--paper-literal",
        action="store_true",
        help="dispersion correction divides the raw offset by pixel pitch, as published",
    )
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("replicate", help="run the full simulated experiment end to end")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help=f"base seed (default {DEFAULT_REPLICATE_SEED})")
    p.add_argument("--scene", help="scene JSON overriding the built-in experiment scene")
    p.set_defaults(func=_cmd_replicate)

    p = sub.add_parser("stats", help="error statistics for fixes against ground truth")
    p.add_argument("--fixes", required=True)
    p.add_argument("--ground-truth", required=True, help="ground truth CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--label", default="run", help="prefix for the report files")
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ValueError: an argument the library rejects; OSError: an unusable --out path.
    except (VlpError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
