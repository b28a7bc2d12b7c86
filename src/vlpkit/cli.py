"""Command-line interface: simulate, locate, calibrate, replicate, stats."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import re
import reprlib
import sys
from dataclasses import replace
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import ErrorReport, compare_reports, error_stats
from .calibration import calibrate_dispersion, calibrate_rotation
from .errors import EmptyInput, InsufficientTracks, VlpError
from .io import (
    _SEED_LIMIT,
    FixColumns,
    TrialTable,
    _record_table,
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
    TRIAL_INDEX_LIMIT,
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
        "seed": None,
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


def _out_dir(path: str | Path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_triple(text: str, flag: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise VlpError(f"{flag} expects X,Y,Z, got {text!r}")
    try:
        triple = tuple(float(p) for p in parts)
    except ValueError as err:
        raise VlpError(f"{flag} expects numbers, got {text!r}") from err
    if not all(map(math.isfinite, triple)):
        raise VlpError(f"{flag} expects finite numbers, got {text!r}")
    return triple  # type: ignore[return-value]


def _read_ok_fixes(path: str) -> FixColumns:
    """The ok rows of the fixes file at path; EmptyInput naming it when it has none."""
    fixes = read_fixes_csv(path)
    if not fixes.keys:
        raise EmptyInput(f"{path}: no row has status ok")
    return fixes


# A word this long in a message to stderr, a path or value the user gave, is echoed by its ends.
_LONG_WORD = re.compile(r"\S{200,}")


def _shorten(message: str) -> str:
    """message with each word of 200 or more characters cut to its first 40 and last 20."""
    return _LONG_WORD.sub(lambda m: f"{m.group()[:40]}...{m.group()[-20:]}", message)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors, subcommands' too, shorten the long words they echo."""

    def error(self, message: str):
        super().error(_shorten(message))


def _scene(args: argparse.Namespace, default: SceneConfig) -> SceneConfig:
    """The --scene file, or default, with --seed overriding its seed."""
    if args.seed is not None and not 0 <= args.seed < _SEED_LIMIT:
        raise VlpError(f"--seed expects an integer in [0, 2**63), got {reprlib.repr(args.seed)}")
    scene = read_scene(args.scene) if args.scene else default
    return scene if args.seed is None else replace(scene, seed=args.seed)


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


def _check_on_sensor(detections: Sequence[Detection], intrinsics) -> None:
    """ValueError naming the first detection whose finite pixel lies off the sensor.

    The estimators take any finite image point, because an exact projection
    may fall outside the frame; a pixel the camera detected cannot. A pixel
    that is not finite is left to the estimators, whose message names it.
    """
    for det in detections:
        u, v = det.pixel
        if not intrinsics.on_sensor(u, v) and math.isfinite(u) and math.isfinite(v):
            width, height = intrinsics.resolution
            raise ValueError(f"beacon {det.beacon_id!r} has pixel ({u}, {v}) off the {width}x{height} sensor")


def _dropped(scene: SceneConfig, records: Sequence[TrialRecord]) -> int:
    """How many beacons fell off the frame over the records' trials."""
    return len(scene.beacons) * len(records) - sum(len(rec.detections) for rec in records)


def _simulate(scene: SceneConfig, grid: Sequence[Sequence[float]], trials: int, out: str | Path) -> list[TrialRecord]:
    """Trials seeded by scene.seed, written to out with the scene that made them."""
    records = generate_trials(grid, trials, scene)
    out = _out_dir(out)
    write_scene(scene, out / "scene.json")
    write_detections_csv(records, out / "detections.csv")
    write_ground_truth_csv(records, out / "ground_truth.csv")
    return records


def _locate(
    table: TrialTable,
    beacons: Sequence[LedBeacon],
    intrinsics,
    method: Method,
    height_pair: str,
    path: Path,
) -> FixColumns:
    """The fixes of the table's trials: one row each written to path, the ok ones returned.

    Each distinct detection set is checked and solved once, in set order. A
    set with a finite pixel off the sensor fails, as does one the estimator
    rejects. A failed row keeps its set's message; stderr gets one line per
    exception type, in the order of their first failed rows, with the count
    of failed rows and the first of them. Sets are numbered by their first
    trial, so a type's first failed set holds its first failed row.
    """
    keys, index, sets = table
    outcomes: list[PositionFix | str] = []
    failed: dict[int, str] = {}  # each failed set's exception type name
    for i, dets in enumerate(sets):
        try:
            _check_on_sensor(dets, intrinsics)
            outcomes.append(compute_fix(dets, beacons, intrinsics, method, height_pair))
        except (VlpError, ValueError) as err:
            outcomes.append(str(err))
            failed[i] = type(err).__name__
    rows = np.bincount(index, minlength=len(sets)).tolist()
    # Each exception type's failed rows and first failed set.
    failures: dict[str, list] = {}
    for i, name in failed.items():
        failures.setdefault(name, [0, i])[0] += rows[i]
    for name, (count, i) in failures.items():
        point, trial = keys[int(np.argmax(index == i))]
        warning = f"warning: {count} trial(s) failed with {name}, first {point}/{trial}: {outcomes[i]}"
        print(_shorten(warning), file=sys.stderr)
    write_fixes_csv(keys, index.tolist(), outcomes, method, path)
    ok = np.ones(len(sets), bool)
    ok[list(failed)] = False
    ok = ok[index]
    at = index[ok]
    nan = (math.nan,) * 3
    positions = np.array([nan if i in failed else fix.position for i, fix in enumerate(outcomes)], dtype=float)
    heights = np.array([math.nan if i in failed else fix.diagnostics.height_cm for i, fix in enumerate(outcomes)])
    return FixColumns(list(compress(keys, ok.tolist())), positions.reshape(-1, 3)[at], heights[at])


def _stats(
    fixes: FixColumns,
    truths: dict[tuple[int, int], Sequence[float]],
    out: str | Path,
    prefix: str,
) -> ErrorReport:
    """Error report of the fixes against the truth for each key, written to out."""
    report = error_stats(fixes.positions, [truths[key][:3] for key in fixes.keys])
    write_error_report(report, fixes.keys, _out_dir(out), prefix)
    return report


def _cmd_simulate(args: argparse.Namespace) -> int:
    if not 1 <= args.trials <= TRIAL_INDEX_LIMIT:
        raise VlpError(f"--trials expects an integer in [1, {TRIAL_INDEX_LIMIT}], got {reprlib.repr(args.trials)}")
    scene = _scene(args, default_scene())
    if args.at:
        grid = [_parse_triple(args.at, "--at")]
    else:
        grid = default_grid()
    out = Path(args.out)
    records = _simulate(scene, grid, args.trials, out)
    extra = {"seed": scene.seed, "trials": len(records), "beacons_dropped": _dropped(scene, records)}
    _write_manifest(out, "simulate", scene, args, extra)
    print(f"simulated {len(records)} trials over {len(grid)} points -> {out}")
    return 0


def _cmd_locate(args: argparse.Namespace) -> int:
    scene = read_scene(args.scene)
    table = read_detections_csv(args.detections)
    if not table.keys:
        raise EmptyInput(f"{args.detections}: no detection rows")
    method = Method(args.method)
    height_pair = "first" if args.paper_faithful_h else "average"
    out = _out_dir(args.out)
    fixes = _locate(table, scene.beacons, scene.intrinsics, method, height_pair, out / "fixes.csv")
    _write_manifest(out, "locate", scene, args)
    print(f"located {len(fixes.keys)}/{len(table.keys)} trials ({method.value}) -> {out / 'fixes.csv'}")
    return 0 if fixes.keys else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    scene = read_scene(args.scene)
    before = scene.intrinsics.corrected_principal_point
    report_lines: list[str] = []
    if args.calibration == "rotation":
        if not args.tracks:
            raise VlpError("rotation calibration needs --tracks")
        tracks = read_tracks_csv(args.tracks)
        try:
            intrinsics, fits = calibrate_rotation(tracks, scene.intrinsics)
        except InsufficientTracks as err:
            raise InsufficientTracks(f"{args.tracks}: {err}") from err
        report_lines.extend(f"track {tid}: {format_circle_fit(fit)}" for tid, fit in sorted(fits.items()))
    else:
        if not args.fixes:
            raise VlpError("dispersion calibration needs --fixes")
        fixes = _read_ok_fixes(args.fixes)
        if args.ground_truth:
            truth = _parse_triple(args.ground_truth, "--ground-truth")
        else:
            truth = scene.camera_pose.position
        mode = "paper_literal" if args.paper_literal else "physical"
        intrinsics, summary = calibrate_dispersion(fixes.positions, fixes.heights, truth, scene.intrinsics, mode=mode)
        report_lines.append(f"dispersion: {format_dispersion(summary)}")
    after = intrinsics.corrected_principal_point
    calibrated = replace(scene, intrinsics=intrinsics)
    out = _out_dir(args.out)
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
    fixes = _read_ok_fixes(args.fixes)
    truths = read_ground_truth_csv(args.ground_truth)
    missing = next((key for key in fixes.keys if key not in truths), None)
    if missing is not None:
        raise VlpError(f"{args.ground_truth}: no ground truth for trial {missing[0]}/{missing[1]}")
    report = _stats(fixes, truths, args.out, args.label)
    out = Path(args.out)
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
    out = Path(args.out)
    nominal_intrinsics = scene.intrinsics
    grid = default_grid()
    records = _simulate(scene, grid, DEFAULT_TRIALS_PER_POINT, out)
    table = _record_table(records)
    truths = {(rec.point_index, rec.trial_index): rec.pose.position for rec in records}

    # Spin-in-place tracks, fitted once and shared by both methods.
    sweep_scene = replace(
        scene,
        camera_pose=CameraPose((0.0, 0.0, 0.0)),
        seed=derive_seed(scene.seed, ROTATION_STREAM, 0),
    )
    tracks = rotation_sweep(sweep_scene, SWEEP_ANGLES_12)
    write_tracks_csv(tracks, out / "tracks_rotation.csv")
    rotation_intrinsics, fits = calibrate_rotation(tracks, nominal_intrinsics)
    write_scene(replace(scene, intrinsics=rotation_intrinsics), out / "scene_rotation.json")
    summary_lines = [f"seed: {scene.seed}", f"scene: {_scene_hash(scene)}"]
    summary_lines.extend(f"rotation track {tid}: {format_circle_fit(fit)}" for tid, fit in sorted(fits.items()))

    # Repeated fixes at a surveyed point (the grid centre), calibrated per
    # method.  The centre sits in the low-noise zone, so the mean of the fix
    # cloud isolates the principal-point bias instead of geometry noise.
    centre = (
        (grid[0][0] + grid[-1][0]) / 2.0,
        (grid[0][1] + grid[-1][1]) / 2.0,
        0.0,
    )
    dispersion_scene = replace(
        scene,
        camera_pose=CameraPose(centre),
        seed=derive_seed(scene.seed, DISPERSION_STREAM, 0),
    )
    dispersion_records = generate_trials([centre], DISPERSION_TRIALS, dispersion_scene)
    dispersion_table = _record_table(dispersion_records)
    reports: dict[tuple[Method, str], ErrorReport] = {}
    for method in (Method.TWO_LED, Method.THREE_LED):
        path = out / f"dispersion_fixes_{method.value}.csv"
        fixes = _locate(dispersion_table, scene.beacons, nominal_intrinsics, method, "average", path)
        dispersion_intrinsics, summary = calibrate_dispersion(
            fixes.positions, fixes.heights, centre, nominal_intrinsics, mode="physical"
        )
        write_scene(replace(scene, intrinsics=dispersion_intrinsics), out / f"scene_dispersion_{method.value}.json")
        summary_lines.append(f"dispersion calibration ({method.value}): {format_dispersion(summary)}")
        calibrations = {
            "uncalibrated": nominal_intrinsics,
            "rotation": rotation_intrinsics,
            "dispersion": dispersion_intrinsics,
        }
        for calibration, intrinsics in calibrations.items():
            prefix = f"{method.value}_{calibration}"
            fixes = _locate(table, scene.beacons, intrinsics, method, "average", out / f"fixes_{prefix}.csv")
            reports[(method, calibration)] = _stats(fixes, truths, out, prefix)

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
            "seed": scene.seed,
            "trials": len(records),
            "grid_points": len(grid),
            "dispersion_point": list(centre),
            "dispersion_trials": DISPERSION_TRIALS,
            "beacons_dropped": _dropped(scene, records) + _dropped(scene, dispersion_records),
        },
    )
    print("\n".join(summary_lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


# Flags whose X,Y,Z value may start with a minus sign. argparse reads a token
# such as -41,7,0 as an option, not as the flag's value, unless it is attached
# with "=".
_TRIPLE_FLAGS = ("--at", "--ground-truth")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _names_triple_flag(token: str) -> bool:
    """Whether token is a triple flag or an abbreviation argparse would expand to one."""
    return len(token) > 2 and any(flag.startswith(token) for flag in _TRIPLE_FLAGS)


def _attach_negative_triples(argv: Sequence[str]) -> list[str]:
    """argv with each triple flag followed by a negative value written as flag=value."""
    out: list[str] = []
    for token in argv:
        if out and _NEGATIVE_VALUE.match(token) and _names_triple_flag(out[-1]):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(_attach_negative_triples(sys.argv[1:] if argv is None else argv))
    # The per-row objects a command builds hold no reference cycles, so
    # refcounting frees them; the cyclic collector would only rescan them.
    # It is paused for the command and left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    # ValueError: an argument the library rejects; OSError: an unusable --out path.
    except (VlpError, ValueError, OSError) as err:
        print(f"error: {_shorten(str(err))}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
