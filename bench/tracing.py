"""Span tracing around vlpkit's public entry points, installed from outside the package.

A wrapped call records one span: its name, start and end on the
perf_counter clock, the span that was open when it started, the type of the
exception it raised (if any) and a small per-name payload (points passed to
the enclosing circle, files touched by io, ...). Spans stay in memory until
the run ends. Self time is a span's duration minus the time its direct
children cover; because the package is single threaded, children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from pathlib import Path
from time import perf_counter

# Names wrapped where the package calls them, with the layer each belongs to.
# `camera` runs inside the estimators, so it is counted as positioning.
CLI_LAYERS = {
    "generate_trials": "simulator",
    "rotation_sweep": "simulator",
    "locate_two": "positioning",
    "trilaterate_three": "positioning",
    "widest_pair": "positioning",
    "calibrate_rotation": "calibration",
    "calibrate_dispersion": "calibration",
    "error_stats": "analysis",
    "compare_reports": "analysis",
    "read_detections_csv": "io",
    "read_fixes_csv": "io",
    "read_ground_truth_csv": "io",
    "read_scene": "io",
    "read_tracks_csv": "io",
    "write_detections_csv": "io",
    "write_error_report": "io",
    "write_fixes_csv": "io",
    "write_ground_truth_csv": "io",
    "write_scene": "io",
    "write_tracks_csv": "io",
}
REQUIRED_NAMES = {
    "vlpkit.cli": CLI_LAYERS,
    "vlpkit.calibration": {"fit_circle": "calibration", "min_enclosing_circle": "calibration"},
    "vlpkit.analysis": {"min_enclosing_circle": "calibration"},
    "vlpkit.simulator": {"observe": "simulator"},
}
LAYERS = ("simulator", "positioning", "calibration", "analysis", "io")
ESTIMATORS = {"positioning.locate_two": "two-led", "positioning.trilaterate_three": "three-led"}
# Failure types reported by name; any other type is counted as "other".
FAILURE_TYPES = ("ValueError", "SingularGeometry", "CoincidentProjection")

# Span fields: iteration, id, parent id (-1 at top level), name, start, end,
# exception type name ("" when the call returned), payload.
ITER, ID, PARENT, NAME, START, END, ERROR, INFO = range(8)


def _payload(attr: str, args: tuple, kwargs: dict, result):
    if attr == "observe":
        return len(args[0].beacons) - len(result)
    if attr in ("calibrate_rotation", "calibrate_dispersion"):
        return tuple(result[0].corrected_principal_point)
    if attr in ("error_stats", "min_enclosing_circle"):
        return len(args[0])
    if attr.startswith(("read_", "write_")):
        return tuple(str(a) for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike)))
    return None


class Tracer:
    """Installs span-recording wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iteration = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def targets(self) -> tuple[list[tuple[object, str, str]], list[str]]:
        """(module, attribute, layer) triples to wrap, and the required names that are missing.

        Every `read_*`/`write_*` name in `vlpkit.cli` is wrapped, including
        ones added after this list was written.
        """
        found, missing = [], []
        for module_name, names in REQUIRED_NAMES.items():
            module = importlib.import_module(module_name)
            extra = {}
            if module_name == "vlpkit.cli":
                extra = {
                    attr: "io"
                    for attr in dir(module)
                    if attr.startswith(("read_", "write_")) and attr not in names and callable(getattr(module, attr))
                }
            for attr, layer in {**names, **extra}.items():
                if callable(getattr(module, attr, None)):
                    found.append((module, attr, layer))
                else:
                    missing.append(f"{module_name}.{attr}")
        return found, missing

    def install(self) -> None:
        found, _ = self.targets()
        for module, attr, layer in found:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{layer}.{attr}", attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, attr: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if attr == "min_enclosing_circle":
                # Materialize the iterable outside the span so its length is known.
                args = (list(args[0]), *args[1:])
            stack = tracer._stack
            span = [tracer.iteration, len(tracer.spans), stack[-1] if stack else -1, name, 0.0, 0.0, "", None]
            tracer.spans.append(span)
            stack.append(span[ID])
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[END] = perf_counter()
                span[ERROR] = type(err).__name__
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            span[INFO] = _payload(attr, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            handle.write("iteration,id,parent,name,start_s,end_s,error\n")
            for span in self.spans:
                handle.write(
                    f"{span[ITER]},{span[ID]},{span[PARENT]},{span[NAME]},"
                    f"{span[START]:.9f},{span[END]:.9f},{span[ERROR]}\n"
                )


def _csv_rows(path: Path) -> int:
    if path.suffix != ".csv" or not path.is_file():
        return 0
    with open(path, "rb") as handle:
        return max(0, handle.read().count(b"\n") - 1)


def _written_files(paths: tuple[str, ...]) -> list[Path]:
    """Files a write call produced: file arguments, or `*_<tag>.csv` in a directory argument."""
    files = [Path(p) for p in paths if Path(p).is_file()]
    for directory in (Path(p) for p in paths if Path(p).is_dir()):
        for tag in paths:
            if not Path(tag).exists():
                files.extend(sorted(directory.glob(f"*_{tag}.csv")))
    return files


def iteration_metrics(
    spans: list[list], wall_s: float, stderr_lines: int, true_pp: tuple[float, float]
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced iteration, and the number of spans per layer.

    Must run before the iteration's output directory is removed, because io
    rows and bytes are counted from the files the spans name.
    """
    duration = {s[ID]: s[END] - s[START] for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + duration[s[ID]]
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for s in spans:
        layer = s[NAME].split(".", 1)[0]
        busy[layer] += duration[s[ID]] - child_time.get(s[ID], 0.0)
        calls[layer] += 1

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def total(name):
        return sum((duration[s[ID]] for s in named(name)), 0.0)

    def per(numerator_s, count):
        return numerator_s / count * 1e6 if count else 0.0

    m: dict[str, float] = {}

    observed = named("simulator.observe")
    m["simulator.trials"] = len(observed)
    m["simulator.busy_s"] = busy["simulator"]
    m["simulator.us_per_trial"] = per(total("simulator.generate_trials"), len(observed))
    m["simulator.beacons_dropped"] = sum(s[INFO] or 0 for s in observed)

    fixes = [s for s in spans if s[NAME] in ESTIMATORS]
    failed = [s for s in fixes if s[ERROR]]
    m["positioning.fixes"] = len(fixes)
    m["positioning.fixes_failed"] = len(failed)
    for kind in FAILURE_TYPES:
        m[f"positioning.failed.{kind}"] = sum(1 for s in failed if s[ERROR] == kind)
    m["positioning.failed.other"] = sum(1 for s in failed if s[ERROR] not in FAILURE_TYPES)
    m["positioning.busy_s"] = busy["positioning"]
    for name, method in ESTIMATORS.items():
        m[f"positioning.us_per_fix.{method}"] = per(total(name), len(named(name)))
    m["positioning.us_per_failed_fix"] = per(sum((duration[s[ID]] for s in failed), 0.0), len(failed))
    m["positioning.widest_pair_us"] = per(total("positioning.widest_pair"), len(named("positioning.widest_pair")))

    mec = named("calibration.min_enclosing_circle")
    m["calibration.busy_s"] = busy["calibration"]
    m["calibration.fit_circle_tracks"] = len(named("calibration.fit_circle"))
    m["calibration.mec_points"] = sum(s[INFO] or 0 for s in mec)
    m["calibration.mec_s"] = total("calibration.min_enclosing_circle")
    for kind in ("rotation", "dispersion"):
        errors = [
            ((s[INFO][0] - true_pp[0]) ** 2 + (s[INFO][1] - true_pp[1]) ** 2) ** 0.5
            for s in named(f"calibration.calibrate_{kind}")
            if s[INFO] is not None
        ]
        m[f"calibration.pp_error_px.{kind}"] = statistics.fmean(errors) if errors else 0.0

    error_count = sum(s[INFO] or 0 for s in named("analysis.error_stats"))
    m["analysis.errors"] = error_count
    m["analysis.busy_s"] = busy["analysis"]
    m["analysis.us_per_error"] = per(total("analysis.error_stats"), error_count)

    io_spans = [s for s in spans if s[NAME].startswith("io.")]
    reads = [s for s in io_spans if s[NAME].startswith("io.read_") and s[INFO]]
    writes = [s for s in io_spans if s[NAME].startswith("io.write_") and s[INFO]]
    written = [f for s in writes for f in _written_files(s[INFO])]
    rows_written = sum(_csv_rows(f) for f in written)
    rows_read = sum(_csv_rows(Path(s[INFO][0])) for s in reads)
    write_s = sum((duration[s[ID]] for s in writes), 0.0)
    read_s = sum((duration[s[ID]] for s in reads), 0.0)
    m["io.rows_written"] = rows_written
    m["io.bytes_written"] = sum(f.stat().st_size for f in written)
    m["io.write_s"] = write_s
    m["io.us_per_row_written"] = per(write_s, rows_written)
    m["io.rows_read"] = rows_read
    m["io.read_s"] = read_s
    m["io.us_per_row_read"] = per(read_s, rows_read)

    top_level = sum((duration[s[ID]] for s in spans if s[PARENT] < 0), 0.0)
    m["cli.self_s"] = wall_s - top_level
    m["cli.stderr_lines"] = stderr_lines
    return m, calls


def scale_times(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Times (names ending in `_s` or `_us`, or holding `.us_per_`) multiplied by factor."""
    return {
        name: value * factor if name.endswith(("_s", "_us")) or ".us_per_" in name else value
        for name, value in metrics.items()
    }


def aggregate(
    iterations: list[tuple[dict[str, float], dict[str, int]]], required_layers: tuple[str, ...], problems: list[str]
) -> dict[str, float]:
    """Combine traced iterations: median of each time, counts that must repeat exactly.

    Appends to `problems` when a count differs between iterations or a
    required layer recorded no call in some iteration.
    """
    metrics: dict[str, float] = {}
    for name in iterations[0][0]:
        values = [layer[name] for layer, _ in iterations]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"{name}: count differs between traced iterations: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    for layer in required_layers:
        if any(not calls[layer] for _, calls in iterations):
            problems.append(f"layer {layer} recorded no calls in a traced iteration")
    return metrics
