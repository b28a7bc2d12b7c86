"""Reading and writing scene configurations, detection/track/fix CSVs, and reports.

All floats are serialized with six fixed decimals so repeated runs with the
same seed produce byte-identical files. Each CSV row is formatted as one line
from its layout's template, text quoted as the csv module quotes it; text that
rows share is formatted once, per object by identity or per fix outcome by index.

The detections, ground-truth and fixes readers each build their result once,
from the file's columns (see _read_columns), which are split in one of two
ways. A file that numpy's C text reader splits as csv.reader does (see
_csv_columns) is parsed in one pass; any other file, or one with a value that
fails a check, is read row by row through _csv_rows, each row checked in the
reader's order. So every InputFormatError, with its file and line, comes from
the row path.

The detections reader returns a TrialTable: the trials' keys, each trial's
set index and the distinct detection sets, keyed by row text. replicate's
in-memory trials become one through _record_table. _set_index is the one
numbering by first occurrence: of the row texts the detections and
ground-truth readers parse, of both tables' sets, and of the objects the
detections and ground-truth writers format, each once.
"""

from __future__ import annotations

import csv
import json
import math
import reprlib
import warnings
from contextlib import contextmanager
from io import StringIO
from itertools import count, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .analysis import ErrorReport, ReportComparison
from .calibration import CircleFit, DispersionSummary
from .camera import CameraIntrinsics
from .errors import InputFormatError, SceneConfigError
from .positioning import Detection, LedBeacon, Method, PositionFix
from .simulator import CameraPose, NoiseModel, SceneConfig, TrialRecord


# The one float format of every CSV file and report line.
FLOAT = "%.6f"


def fmt(x: float) -> str:
    return FLOAT % x


# A scene's seed and --seed lie in [0, _SEED_LIMIT), so every seed derived
# from one (below 2**124) prints to a CSV far inside the interpreter's digit limit.
_SEED_LIMIT = 2**63


# ---------------------------------------------------------------- scene JSON
# Errors echo a value through reprlib.repr, which shortens a long one.


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise SceneConfigError(f"{where}: missing required field {key!r}")
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneConfigError(f"{where}: expected a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    # json reads NaN and Infinity, which no scene field can use.
    if not math.isfinite(number):
        raise SceneConfigError(f"{where}: expected a finite number, got {reprlib.repr(value)}")
    return number


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SceneConfigError(f"{where}: expected true or false, got {reprlib.repr(value)}")
    return value


def _numbers(value, count: int, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise SceneConfigError(f"{where}: expected {count} numbers, got {reprlib.repr(value)}")
    return tuple(_number(c, where) for c in value)


def _object(value, where: str) -> Mapping:
    if not isinstance(value, dict):
        raise SceneConfigError(f"{where}: expected an object, got {reprlib.repr(value)}")
    return value


def read_scene(path: str | Path) -> SceneConfig:
    """Parse a scene JSON file, dropping a leading UTF-8 byte-order mark; errors carry the offending line or field."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as err:
        raise SceneConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except OSError as err:
        raise SceneConfigError(f"{path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise SceneConfigError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from err
    # An integer past the interpreter's digit limit, or nesting past its recursion limit.
    except (ValueError, RecursionError) as err:
        raise SceneConfigError(f"{path}: {err}") from err
    try:
        return _scene_from_dict(raw)
    # A field's own error, or an inconsistency SceneConfig rejects.
    except (SceneConfigError, ValueError) as err:
        raise SceneConfigError(f"{path}: {err}") from err


def _scene_from_dict(raw) -> SceneConfig:
    raw = _object(raw, "scene")
    beacons = []
    raw_beacons = _require(raw, "beacons", "scene")
    if not isinstance(raw_beacons, list) or not raw_beacons:
        raise SceneConfigError("scene.beacons: expected a non-empty list")
    for idx, entry in enumerate(raw_beacons):
        where = f"scene.beacons[{idx}]"
        bid = _require(_object(entry, where), "id", where)
        if not isinstance(bid, str) or not bid:
            raise SceneConfigError(f"{where}.id: expected a non-empty string")
        if not bid.isprintable():
            raise SceneConfigError(f"{where}.id: expected printable text, got {reprlib.repr(bid)}")
        beacons.append(LedBeacon(bid, _numbers(_require(entry, "position", where), 3, f"{where}.position")))

    raw_pose = _object(_require(raw, "camera_pose", "scene"), "scene.camera_pose")
    pose = CameraPose(
        position=_numbers(_require(raw_pose, "position", "scene.camera_pose"), 3, "scene.camera_pose.position"),
        yaw_rad=_number(raw_pose.get("yaw_rad", 0.0), "scene.camera_pose.yaw_rad"),
    )

    where = "scene.intrinsics"
    raw_k = _object(_require(raw, "intrinsics", "scene"), where)
    resolution = _numbers(_require(raw_k, "resolution_px", where), 2, f"{where}.resolution_px")
    if resolution != (int(resolution[0]), int(resolution[1])):
        raise SceneConfigError(f"{where}.resolution_px: expected integers, got {reprlib.repr(resolution)}")
    corrected = raw_k.get("corrected_principal_point_px")
    intrinsics = CameraIntrinsics(
        focal_length=_number(_require(raw_k, "focal_length_mm", where), f"{where}.focal_length_mm"),
        pitch_i=_number(_require(raw_k, "pitch_i_mm", where), f"{where}.pitch_i_mm"),
        pitch_j=_number(_require(raw_k, "pitch_j_mm", where), f"{where}.pitch_j_mm"),
        resolution=(int(resolution[0]), int(resolution[1])),
        corrected_principal_point=(
            _numbers(corrected, 2, f"{where}.corrected_principal_point_px") if corrected is not None else None
        ),
    )

    true_pp = raw.get("true_principal_point_px")
    raw_noise = _object(raw.get("noise", {}), "scene.noise")
    noise = NoiseModel(
        pixel_sigma=_number(raw_noise.get("pixel_sigma_px", 0.0), "scene.noise.pixel_sigma_px"),
        quantize=_boolean(raw_noise.get("quantize", False), "scene.noise.quantize"),
    )
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _SEED_LIMIT:
        raise SceneConfigError(f"scene.seed: expected an integer in [0, 2**63), got {reprlib.repr(seed)}")

    return SceneConfig(
        beacons=tuple(beacons),
        camera_pose=pose,
        intrinsics=intrinsics,
        true_principal_point=_numbers(true_pp, 2, "scene.true_principal_point_px") if true_pp is not None else None,
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


def _line(*fields: str) -> str:
    return ",".join(fields) + "\n"


# Column order of each CSV format, each followed by the %-template of one of
# its rows; each reader requires a slice of its format's list. A %s field
# takes text as _CsvText quotes it. A *_FIELDS template formats the columns
# one object or outcome fills, once for all rows that hold it; its text fills
# a %s of the row template, or follows the trial's ROW_INDEX in a detection or
# fixes row.
ROW_INDEX = "%d,%d,"
DETECTION_COLUMNS = ["point_index", "trial_index", "beacon_id", "u_px", "v_px"]
DETECTION_FIELDS = _line("%s", FLOAT, FLOAT)  # a Detection
TRUTH_COLUMNS = ["point_index", "trial_index", "x_cm", "y_cm", "z_cm", "yaw_rad", "seed"]
POSE_FIELDS = ",".join([FLOAT] * 4)  # a CameraPose
TRUTH_LINE = _line("%d", "%d", "%s", "%d")
TRACK_COLUMNS = ["track_id", "sample_index", "u_px", "v_px"]
TRACK_LINE = _line("%s", "%d", FLOAT, FLOAT)
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
# A PositionFix from method to message; the yaw field takes the formatted yaw,
# or "" for a fix without one. A failure holds only the message.
FIX_FIELDS = _line("%s", "ok", *[FLOAT] * 6, "%s", "")
FIX_ERROR_FIELDS = _line("%s", "error", *[""] * 7, "%s")
_METHODS = {m.value for m in Method}
ERROR_COLUMNS = ["point_index", "trial_index", "error_cm", "error_3d_cm"]
ERROR_LINE = _line("%d", "%d", FLOAT, FLOAT)
CDF_COLUMNS = ["error_cm", "cumulative_fraction"]
CDF_LINE = _line(FLOAT, FLOAT)
HISTOGRAM_COLUMNS = ["bin_left_cm", "bin_right_cm", "count"]
HISTOGRAM_LINE = _line(FLOAT, FLOAT, "%d")
SUMMARY_COLUMNS = ["method", "calibration", "mean_cm", "p90_cm", "max_cm", "rms_cm", "trials"]
SUMMARY_LINE = _line("%s", "%s", *[FLOAT] * 4, "%d")
COMPARISON_COLUMNS = [
    "method",
    "reference",
    "variant",
    "mean_ratio",
    "p90_ratio",
    "max_ratio",
    "mean_diff_cm",
    "p90_diff_cm",
    "max_diff_cm",
]
COMPARISON_LINE = _line("%s", "%s", "%s", *[FLOAT] * 6)


class _CsvText(dict):
    """Text values as csv.writer writes them inside a row; each distinct value is quoted once."""

    def __missing__(self, text: str) -> str:
        buffer = StringIO()
        # The trailing empty field keeps an empty text from being a lone empty field, which csv quotes.
        csv.writer(buffer, lineterminator="\n").writerow((text, ""))
        field = self[text] = buffer.getvalue()[:-2]
        return field


def _write_csv(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """The header, then the lines, streamed to the file as they are formatted."""
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(header)
        handle.writelines(lines)


@contextmanager
def _csv_rows(
    path: str | Path, required: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[tuple[Iterator[list], dict[str, int]]]:
    """Rows of a CSV file whose header holds every required column, and each column's index.

    Rows are read as csv.DictReader reads them: the header is the first line,
    blank lines are skipped and extra columns are ignored. A row cut short
    after its last required column is padded with None; one cut before it
    raises. An optional column the header lacks is indexed just past its end,
    where an extra field is read as None, so it reads as None in every row,
    whatever the row's length. A missing file or required column, a short
    row, or a value in the block that fails to parse raises InputFormatError
    naming the file and, for a row or value, the line.
    """
    try:
        # utf-8-sig drops the byte-order mark that some editors and spreadsheets write first.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader, [])
                # Later duplicates of a column name win, as in DictReader.
                columns = {name: i for i, name in enumerate(header)}
                missing = [c for c in required if c not in columns]
                if missing:
                    names = ", ".join(map(repr, missing))
                    raise InputFormatError(f"{path}: missing required column(s) {names}")
                needed = max(columns[c] for c in required) + 1
                for name in optional:
                    columns.setdefault(name, len(header))
                width = max(columns.values()) + 1

                def rows() -> Iterator[list]:
                    for row in reader:
                        if len(row) < width:
                            if not row:
                                continue
                            if len(row) < needed:
                                raise ValueError(f"row has {len(row)} field(s), the required columns need {needed}")
                            row += [None] * (width - len(row))
                        if width > len(header):
                            row[len(header)] = None
                        yield row

                yield rows(), columns
            except (csv.Error, TypeError, ValueError) as err:
                raise InputFormatError(f"{path}:{reader.line_num}: {err}") from err
    except OSError as err:
        raise InputFormatError(f"{path}: {err.strerror}") from err


def _finite(*fields: str, kind: str = "coordinate") -> tuple[float, ...]:
    """Fields as floats; ValueError naming the kind of value unless all are finite."""
    values = tuple(map(float, fields))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite {kind} in ({', '.join(fields)})")
    return values


# Bytes on which np.loadtxt may split or parse a file otherwise than csv.reader
# and int() do: a CR (numpy reads every line end as a newline), a NUL, and the
# separators that numpy's integer parse skips as space.
_ROW_READER_BYTES = (b"\r", b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _csv_columns(path: str | Path, columns: Sequence[str], required: Sequence[str]) -> dict[str, np.ndarray] | None:
    """Those of the columns that the file's header holds, parsed in one C pass.

    An *_index column is parsed as np.int64; any other is an object array of
    each field's text. The header is read as csv.reader reads it; np.loadtxt
    splits the rows with its delimiter and quote character, skips blank lines
    and ignores fields past the columns read, as _csv_rows does. Returns None
    for any file on which the two might differ, or whose rows numpy rejects:
    one that cannot be read, holds a non-ASCII byte or one of
    _ROW_READER_BYTES, quotes its header, lacks a required column or has no
    data rows; a row too short for a column read, a space-only row among
    them; an index numpy cannot parse, or any warning; a line longer than
    csv.field_size_limit(), or a row over several lines, for csv.reader
    rejects a longer field.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    head, _, body = data.partition(b"\n")
    if not data.isascii() or any(map(data.__contains__, _ROW_READER_BYTES)) or b'"' in head or not body.strip():
        return None
    lengths = np.diff(np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")), prepend=-1, append=len(data)) - 1
    if lengths.max() > csv.field_size_limit():
        return None
    # Later duplicates of a column name win, as in _csv_rows.
    index = {name: i for i, name in enumerate(next(csv.reader([head.decode()])))}
    if not all(map(index.__contains__, required)):
        return None
    names = [name for name in columns if name in index]
    try:
        # Older numpy reads an index such as 1.0 through a float, with a warning; int() rejects it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path,
                np.dtype([(name, np.int64 if name.endswith("_index") else object) for name in names]),
                delimiter=",",
                quotechar='"',
                comments=None,
                skiprows=1,
                usecols=[index[name] for name in names],
                ndmin=1,
                encoding="ascii",
            )
    except (ValueError, Warning):
        return None
    # The header and each row are one line apiece: no field is longer than a line.
    if np.count_nonzero(lengths) != 1 + len(table):
        return None
    return {name: table[name] for name in names}


def _read_columns(
    path: str | Path, names: Sequence[str], optional: Sequence[str], check: Callable[..., tuple], build: Callable
):
    """build(columns) of a CSV file's named columns; every name but the optional ones is required.

    The columns come from _csv_columns, which leaves out an optional column
    the header lacks. If it returns None, or build raises ValueError because
    a value fails a check, the file is read through _csv_rows instead: check
    takes each row's fields in the order of names and raises the row's first
    error, named at its line, or returns the fields as build takes them, an
    index as a Python int, which may pass int64; build then runs on the
    checked rows as object columns. The invariant that makes this sound: a
    row that passes check never makes build raise.
    """
    required = [name for name in names if name not in optional]
    columns = _csv_columns(path, names, required)
    if columns is not None:
        try:
            return build(columns)
        except ValueError:
            pass
    with _csv_rows(path, required, optional) as (rows, col):
        fields = itemgetter(*map(col.get, names))
        checked = [check(*fields(row)) for row in rows]
    table = np.array(checked, dtype=object).reshape(-1, len(names))
    return build(dict(zip(names, table.T)))


def write_detections_csv(records: Sequence[TrialRecord], path: str | Path) -> None:
    """One row per detection; a Detection that several trials hold is formatted once.

    A trial with no detection, every beacon off the frame, has no row, so
    locate on the file neither solves nor counts it; replicate's in-memory
    table holds it and writes an error row for it (two-led: expected 2
    detections, got 0).
    """
    ids = _CsvText()
    records = list(records)
    dets = [det for rec in records for det in rec.detections]
    texts = _texts_by_id(lambda det: DETECTION_FIELDS % (ids[det.beacon_id], *det.pixel), dets)

    def lines() -> Iterator[str]:
        for rec in records:
            index = ROW_INDEX % (rec.point_index, rec.trial_index)
            for _ in rec.detections:
                yield index + next(texts)

    _write_csv(path, DETECTION_COLUMNS, lines())


class TrialTable(NamedTuple):
    """Trials by set index: (point_index, trial_index) keys in (point, trial) order, each trial's index into
    sets, and the distinct detection sets, each a tuple of Detections numbered by its first trial."""

    keys: list[tuple[int, int]]
    index: np.ndarray
    sets: list[tuple[Detection, ...]]


def read_detections_csv(path: str | Path) -> TrialTable:
    """The trials of a detections CSV as a TrialTable.

    Files without index columns are treated as a single trial (0, 0). Rows
    with the same (beacon_id, u_px, v_px) text share one Detection, and
    trials whose rows, in file order, hold the same texts share one set:
    sets are keyed by text, so 0 and -0, or 427 and 427.0, stay apart. Each
    row is checked in this order: the two indices, an empty one read as 0,
    then u_px and v_px; the first check a row fails raises at its line (see
    _read_columns).
    """
    return _read_columns(path, DETECTION_COLUMNS, DETECTION_COLUMNS[:2], _check_detection, _trial_table)


def _check_detection(point, trial, beacon, u, v) -> tuple:
    point, trial = int(point or 0), int(trial or 0)
    float(u), float(v)
    return point, trial, beacon, u, v


def _trial_table(cols: dict[str, np.ndarray]) -> TrialTable:
    rows, texts = _set_index(zip(*map(cols.pop, DETECTION_COLUMNS[2:])))
    dets = [Detection(beacon, (float(u), float(v))) for beacon, u, v in texts]
    # The index columns are optional. A stable sort keeps file order within a trial.
    point, trial = (cols.get(name, np.zeros(len(rows), np.int64)) for name in DETECTION_COLUMNS[:2])
    order = np.lexsort((trial, point))
    point, trial = point[order], trial[order]
    new = np.ones(len(rows), bool)
    new[1:] = (point[1:] != point[:-1]) | (trial[1:] != trial[:-1])
    starts = np.flatnonzero(new)
    keys = list(zip(point[starts].tolist(), trial[starts].tolist()))
    # A trial's set is keyed by its rows' text numbers in file order.
    rows = tuple(rows[order].tolist())
    starts = starts.tolist()
    index, first = _set_index(map(rows.__getitem__, map(slice, starts, [*starts[1:], None])))
    return TrialTable(keys, index, [tuple(map(dets.__getitem__, key)) for key in first])


def _record_table(records: Sequence[TrialRecord]) -> TrialTable:
    """The records' trials as a TrialTable, a set keyed by the ids of its Detection objects in order.

    generate_trials shares one Detection per distinct pixel of a beacon at a
    grid point, so a repeated trial repeats its set, and equal values in two
    objects are never merged. Ids are unique only while their objects live,
    so the records must keep every Detection alive for the call.
    """
    index, first = _set_index(tuple(map(id, rec.detections)) for rec in records)
    keys = [(rec.point_index, rec.trial_index) for rec in records]
    return TrialTable(keys, index, [records[trial].detections for trial in first.values()])


def _set_index(keys: Iterable[Hashable]) -> tuple[np.ndarray, dict]:
    """Each key's number, equal keys sharing one and numbers dense in order of first occurrence; and each key's
    first position, in that order. The keys are any hashable values: row texts, detection sets, object ids."""
    first: dict = {}
    group = np.fromiter(map(first.setdefault, keys, count()), np.intp)
    return (np.cumsum(group == np.arange(len(group))) - 1)[group], first


def _texts_by_id(format: Callable, objs: Sequence) -> Iterator[str]:
    """format(obj) of each object, once per distinct object: _set_index numbers them by id(), so equal values
    still print their own text (-0.0 == 0.0). objs keeps each object alive, so no id is reused meanwhile."""
    number, first = _set_index(map(id, objs))
    texts = np.array([format(objs[i]) for i in first.values()], dtype=object)
    return iter(texts[number].tolist())


def write_ground_truth_csv(records: Sequence[TrialRecord], path: str | Path) -> None:
    """One row per trial; a CameraPose that several trials hold is formatted once."""
    records = list(records)
    poses = _texts_by_id(lambda pose: POSE_FIELDS % (*pose.position, pose.yaw_rad), [rec.pose for rec in records])
    lines = (TRUTH_LINE % (rec.point_index, rec.trial_index, pose, rec.seed) for rec, pose in zip(records, poses))
    _write_csv(path, TRUTH_COLUMNS, lines)


def read_ground_truth_csv(path: str | Path) -> dict[tuple[int, int], tuple[float, float, float, float]]:
    """Maps (point_index, trial_index) to (x, y, z, yaw).

    Rows with the same (x_cm, y_cm, z_cm, yaw_rad) text share one pose tuple.
    Repeated keys are not checked: the last row with a key gives its pose.
    Each row is checked in this order: a finite position, the yaw, an empty
    one read as 0, then the two indices; the first check a row fails raises
    at its line (see _read_columns).
    """
    # yaw_rad is optional and seed is not read.
    return _read_columns(path, TRUTH_COLUMNS[:6], TRUTH_COLUMNS[5:6], _check_truth, _truths)


def _check_truth(point, trial, x, y, z, yaw) -> tuple:
    _finite(x, y, z)
    float(yaw or 0.0)
    return int(point), int(trial), x, y, z, yaw


def _truths(cols: dict[str, np.ndarray]) -> dict[tuple[int, int], tuple[float, float, float, float]]:
    point, trial, x, y, z = map(cols.pop, TRUTH_COLUMNS[:5])
    rows, texts = _set_index(zip(x, y, z, cols.get("yaw_rad", repeat(None))))
    poses = [(*_finite(*text[:3]), float(text[3] or 0.0)) for text in texts]
    return dict(zip(zip(point.tolist(), trial.tolist()), map(poses.__getitem__, rows.tolist())))


def write_tracks_csv(tracks: Mapping[str, Sequence[tuple[float, float]]], path: str | Path) -> None:
    ids = _CsvText()
    lines = (
        TRACK_LINE % (ids[track_id], idx, *p)
        for track_id in sorted(tracks)
        for idx, p in enumerate(tracks[track_id])
    )
    _write_csv(path, TRACK_COLUMNS, lines)


def read_tracks_csv(path: str | Path) -> dict[str, list[tuple[float, float]]]:
    samples: dict[str, list[tuple[int, tuple[float, ...]]]] = {}
    with _csv_rows(path, TRACK_COLUMNS) as (rows, col):
        track, index, u, v = map(col.get, TRACK_COLUMNS)
        for row in rows:
            sample = (int(row[index]), _finite(row[u], row[v]))
            samples.setdefault(row[track], []).append(sample)
    return {
        track_id: [p for _, p in sorted(track_samples, key=lambda s: s[0])]
        for track_id, track_samples in sorted(samples.items())
    }


def write_fixes_csv(
    keys: Sequence[tuple], index: Sequence[int], outcomes: Sequence[PositionFix | str], method: Method, path: str | Path
) -> None:
    """One row per (point_index, trial_index) key, holding the method and outcomes[index[row]].

    An outcome is a PositionFix, or a failure's message. Each outcome's text
    is formatted once, however many rows hold it.
    """
    text = _CsvText()
    name = text[method.value]

    def fields(outcome: PositionFix | str) -> str:
        if isinstance(outcome, str):
            return FIX_ERROR_FIELDS % (name, text[outcome])
        diag = outcome.diagnostics
        yaw = "" if diag.yaw_rad is None else fmt(diag.yaw_rad)
        return FIX_FIELDS % (
            name,
            *outcome.position,
            diag.height_cm,
            diag.image_pair_distance_mm,
            diag.world_pair_distance_cm,
            yaw,
        )

    texts = list(map(fields, outcomes))
    _write_csv(path, FIX_COLUMNS, (ROW_INDEX % key + texts[i] for key, i in zip(keys, index)))


class FixColumns(NamedTuple):
    """Fixes as columns: (point_index, trial_index) keys, (n, 3) positions and (n,) heights, in cm."""

    keys: list[tuple[int, int]]
    positions: np.ndarray
    heights: np.ndarray


def read_fixes_csv(path: str | Path) -> FixColumns:
    """Fix rows with status ok, as columns; failed rows are skipped.

    Each row is checked in this order: a known status, ok or error; then,
    for an ok row only: finite diagnostics, a finite yaw if there is one, a
    finite position, a known method, integer indices. The first check a row
    fails raises at its line (see _read_columns). No per-row fix object is
    built.
    """
    return _read_columns(path, FIX_COLUMNS[:-1], (), _check_fix, _fixes)


def _check_fix(point, trial, method, status, x, y, z, height, image_d, world_d, yaw) -> tuple:
    if status != "ok":
        if status != "error":
            raise ValueError(f"unknown status {status!r}, expected 'ok' or 'error'")
        return point, trial, method, status, x, y, z, height, image_d, world_d, yaw
    _finite(height, image_d, world_d, kind="diagnostic")
    if yaw:
        _finite(yaw, kind="diagnostic")
    _finite(x, y, z)
    Method(method)
    return int(point), int(trial), method, status, x, y, z, height, image_d, world_d, yaw


def _fixes(cols: dict[str, np.ndarray]) -> FixColumns:
    point, trial, method, status, *numbers, yaw = map(cols.pop, FIX_COLUMNS[:-1])
    if not set(status) <= {"ok", "error"}:
        raise ValueError("unknown status")
    ok = status == "ok"
    yaw = yaw[ok]
    # x, y, z, height and the two distances, one row each; float() parses each text.
    values = np.array([column[ok] for column in numbers], dtype=float)
    yaw = yaw[yaw != ""].astype(float)
    if not (np.isfinite(values).all() and np.isfinite(yaw).all() and set(method[ok]) <= _METHODS):
        raise ValueError("a value that is not finite, or an unknown method")
    keys = list(zip(point[ok].tolist(), trial[ok].tolist()))
    return FixColumns(keys, values[:3].T.copy(), values[3])


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
        ERROR_LINE % (point, trial, err, err3)
        for (point, trial), err, err3 in zip(keys, report.per_trial_errors, report.per_trial_errors_3d)
    )
    _write_csv(out_dir / f"errors_{prefix}.csv", ERROR_COLUMNS, errors)
    cdf = (CDF_LINE % (err, fraction) for err, fraction in report.cdf)
    _write_csv(out_dir / f"cdf_{prefix}.csv", CDF_COLUMNS, cdf)
    edges, counts = report.histogram
    bins = (HISTOGRAM_LINE % (left, right, count) for left, right, count in zip(edges[:-1], edges[1:], counts))
    _write_csv(out_dir / f"histogram_{prefix}.csv", HISTOGRAM_COLUMNS, bins)


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
    text = _CsvText()
    lines = (
        SUMMARY_LINE
        % (text[method.value], text[calibration], r.mean, r.p90, r.max_error, r.rms, len(r.per_trial_errors))
        for (method, calibration), r in reports.items()
    )
    _write_csv(path, SUMMARY_COLUMNS, lines)


def write_comparisons_csv(
    comparisons: Sequence[tuple[Method, str, str, ReportComparison]], path: str | Path
) -> None:
    """Rows are (method, reference calibration, variant calibration, comparison)."""
    text = _CsvText()
    lines = (
        COMPARISON_LINE
        % (
            text[method.value],
            text[reference],
            text[variant],
            c.mean_ratio,
            c.p90_ratio,
            c.max_ratio,
            c.mean_diff,
            c.p90_diff,
            c.max_diff,
        )
        for method, reference, variant, c in comparisons
    )
    _write_csv(path, COMPARISON_COLUMNS, lines)


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
