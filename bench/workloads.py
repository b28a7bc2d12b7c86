"""Benchmark workloads: inputs made from the seed, the CLI chain one iteration runs, and its output checks.

Every workload uses the replicate scene (three ceiling beacons, 0.5 px
Gaussian noise with quantization, true principal point offset (6.3, -4.1) px
from nominal). The package is driven only through `vlpkit.cli.main(argv)`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import statistics
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import vlpkit.cli

GRID_POINTS = 36
BEACONS = (("L1", -46.5, -49.5), ("L2", -46.0, -42.0), ("L3", 46.0, 49.0))
CEILING_CM = 150.0
# Lowered ceiling for field_dropout_10k: beacons leave the 800x600 frame at
# some grid points, so some trials see fewer than three of them.
DROPOUT_CEILING_CM = 110.0
NOMINAL_PP = (400.0, 300.0)
TRUE_PP = (406.3, 295.9)
METHODS = ("two-led", "three-led")
REPLICATE_TRIALS = 432
REPLICATE_FIX_FILES = 8  # 2 dispersion fix sets + 2 methods x 3 calibrations
GOLDEN_SEED = 7
GOLDEN_SUMMARY = Path("tests/data/golden_replicate_summary.csv")
# The only failure the workloads may produce: a trial that lost a beacon.
EXPECTED_FAILURE = re.compile(r"expected \d+ detections, got \d+")


def scene_json(seed: int, ceiling_cm: float) -> str:
    scene = {
        "beacons": [{"id": bid, "position": [x, y, ceiling_cm]} for bid, x, y in BEACONS],
        "camera_pose": {"position": [0.0, 0.0, 0.0], "yaw_rad": 0.0},
        "intrinsics": {
            "focal_length_mm": 3.0,
            "pitch_i_mm": 0.006,
            "pitch_j_mm": 0.006,
            "resolution_px": [800, 600],
            "corrected_principal_point_px": list(NOMINAL_PP),
        },
        "true_principal_point_px": list(TRUE_PP),
        "noise": {"pixel_sigma_px": 0.5, "quantize": True},
        "seed": seed,
    }
    return json.dumps(scene, indent=2) + "\n"


def run_chain(argvs: list[list[str]]) -> tuple[float, int, list[str]]:
    """Run CLI invocations in order; returns wall seconds, stderr lines and problems.

    The chain stops at the first invocation that exits nonzero or raises.
    """
    problems: list[str] = []
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        start = perf_counter()
        for argv in argvs:
            try:
                code = vlpkit.cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code
            except Exception as exc:  # a crash is a failed op, not a benchmark crash
                code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                problems.append(f"`vlpkit {argv[0]}` exited with {code!r}")
                break
        wall = perf_counter() - start
    return wall, err.getvalue().count("\n"), problems


def csv_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class Outcome:
    """What one iteration's outputs say: problems found, fix rows attempted and ok, mean error."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.fixes_attempted = 0
        self.fixes_ok = 0
        self.err_mean_cm = math.nan

    def check_fixes(self, path: Path, expected_rows: int) -> None:
        if not path.is_file():
            self.problems.append(f"{path.name}: missing")
            return
        rows = _rows(path)
        if len(rows) != expected_rows:
            self.problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
        for row in rows:
            if row["status"] == "ok":
                if not all(math.isfinite(float(row[c])) for c in ("x_cm", "y_cm", "z_cm")):
                    self.problems.append(f"{path}: non-finite ok row {row['point_index']}/{row['trial_index']}")
                self.fixes_ok += 1
            elif not EXPECTED_FAILURE.fullmatch(row["message"]):
                self.problems.append(f"{path}: unexpected failure {row['message']!r}")
        self.fixes_attempted += len(rows)


class Workload:
    name = ""
    # Layers the traced run must see called at least once per iteration.
    required_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, trials: int, root: Path) -> None:
        self.seed = seed
        self.trials = trials
        self.root = root

    def setup(self) -> None:
        """One-time input preparation, counted in setup time."""
        self.root.mkdir(parents=True, exist_ok=True)

    def commands(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: Path) -> Outcome:
        raise NotImplementedError

    def run(self, out: Path) -> tuple[float, int, list[str]]:
        out.mkdir(parents=True)
        return run_chain(self.commands(out))


class Replicate(Workload):
    """`vlpkit replicate` at its default size, as paper users run it."""

    name = "replicate_default"
    required_layers = ("simulator", "positioning", "calibration", "analysis", "io")

    def commands(self, out):
        return [["replicate", "--out", str(out), "--seed", str(self.seed)]]

    def check(self, out):
        outcome = Outcome()
        summary = out / "summary.csv"
        if not summary.is_file():
            outcome.problems.append("summary.csv: missing")
            return outcome
        if self.seed == GOLDEN_SEED and summary.read_bytes() != GOLDEN_SUMMARY.read_bytes():
            outcome.problems.append("summary.csv differs from the golden summary")
        means = {}
        for row in _rows(summary):
            means[(row["method"], row["calibration"])] = float(row["mean_cm"])
            if int(row["trials"]) != REPLICATE_TRIALS:
                outcome.problems.append(f"summary.csv: {row['method']} {row['calibration']} has {row['trials']} trials")
        for method in METHODS:
            if not all(
                means.get((method, cal), math.inf) < means.get((method, "uncalibrated"), -math.inf)
                for cal in ("rotation", "dispersion")
            ):
                outcome.problems.append(f"summary.csv: calibration does not beat uncalibrated for {method}")
        calibrated = [v for (_, cal), v in means.items() if cal != "uncalibrated"]
        if len(means) != 6 or len(calibrated) != 4:
            outcome.problems.append(f"summary.csv: {len(means)} rows, expected 6")
        else:
            outcome.err_mean_cm = statistics.fmean(calibrated)
        fix_files = sorted(out.glob("fixes_*.csv")) + sorted(out.glob("dispersion_fixes_*.csv"))
        if len(fix_files) != REPLICATE_FIX_FILES:
            outcome.problems.append(f"{len(fix_files)} fix files, expected {REPLICATE_FIX_FILES}")
        for path in fix_files:
            outcome.check_fixes(path, REPLICATE_TRIALS)
        return outcome


class _LocateAndStats(Workload):
    """Shared chain tail: `locate` with each method, then `stats` on each."""

    def inputs(self, out: Path) -> Path:
        """Directory holding the `simulate` outputs the chain reads."""
        raise NotImplementedError

    def commands(self, out):
        inputs = self.inputs(out)
        argvs = []
        for method in METHODS:
            argvs.append(
                ["locate", "--scene", str(inputs / "scene.json"), "--detections", str(inputs / "detections.csv"),
                 "--out", str(out / f"locate_{method}"), "--method", method]
            )
        for method in METHODS:
            argvs.append(
                ["stats", "--fixes", str(out / f"locate_{method}" / "fixes.csv"), "--ground-truth",
                 str(inputs / "ground_truth.csv"), "--out", str(out / f"stats_{method}"), "--label", method]
            )
        return argvs

    def check(self, out):
        outcome = Outcome()
        expected = GRID_POINTS * self.trials
        means = []
        for method in METHODS:
            ok_before = outcome.fixes_ok
            outcome.check_fixes(out / f"locate_{method}" / "fixes.csv", expected)
            ok = outcome.fixes_ok - ok_before
            errors_csv = out / f"stats_{method}" / f"errors_{method}.csv"
            summary_txt = out / f"stats_{method}" / f"summary_{method}.txt"
            if not (errors_csv.is_file() and summary_txt.is_file()):
                outcome.problems.append(f"stats for {method}: missing outputs")
                continue
            errors = [float(row["error_cm"]) for row in _rows(errors_csv)]
            if len(errors) != ok:
                outcome.problems.append(f"{errors_csv.name}: {len(errors)} rows, expected {ok}")
            found = re.search(rf"^{method}: mean=(\S+) ", summary_txt.read_text(), re.MULTILINE)
            if not found or not errors or abs(float(found.group(1)) - statistics.fmean(errors)) > 1e-5:
                outcome.problems.append(f"{summary_txt.name}: mean disagrees with {errors_csv.name}")
                continue
            means.append(float(found.group(1)))
        if len(means) == len(METHODS):
            outcome.err_mean_cm = statistics.fmean(means)
        return outcome


class Survey(_LocateAndStats):
    """simulate 36 x trials on the replicate scene, then locate and stats for both methods."""

    name = "survey_10k"
    required_layers = ("simulator", "positioning", "analysis", "io")

    def setup(self):
        super().setup()
        (self.root / "scene.json").write_text(scene_json(self.seed, CEILING_CM))

    def commands(self, out):
        simulate = ["simulate", "--scene", str(self.root / "scene.json"), "--trials", str(self.trials),
                    "--seed", str(self.seed), "--out", str(out / "sim")]
        return [simulate, *super().commands(out)]

    def inputs(self, out):
        return out / "sim"

    def check(self, out):
        outcome = super().check(out)
        truth = self.inputs(out) / "ground_truth.csv"
        if not truth.is_file() or len(_rows(truth)) != GRID_POINTS * self.trials:
            outcome.problems.append("sim/ground_truth.csv: missing or wrong row count")
        return outcome


class FieldDropout(_LocateAndStats):
    """locate and stats on a detections file made once at setup, with beacons leaving the frame."""

    name = "field_dropout_10k"
    required_layers = ("positioning", "analysis", "io")

    def setup(self):
        super().setup()
        scene = self.root / "scene_low.json"
        scene.write_text(scene_json(self.seed, DROPOUT_CEILING_CM))
        _, _, problems = run_chain(
            [["simulate", "--scene", str(scene), "--trials", str(self.trials), "--seed", str(self.seed),
              "--out", str(self.root / "input")]]
        )
        if problems:
            raise RuntimeError(f"field_dropout_10k setup failed: {problems}")

    def inputs(self, out):
        return self.root / "input"


WORKLOADS = {cls.name: cls for cls in (Replicate, Survey, FieldDropout)}
