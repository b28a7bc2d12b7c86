"""Independent reference implementations used to freeze expected test values.

Each is closed-form or brute force, and separate from the package code paths.
"""

import math


def brute_force_enclosing_circle(points):
    """Smallest enclosing circle by trying every pair diameter and triple circumcircle."""
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return (pts[0][0], pts[0][1]), 0.0

    def contains_all(cx, cy, r):
        slack = 1e-9 * max(1.0, r)
        for x, y in pts:
            if math.hypot(x - cx, y - cy) > r + slack:
                return False
        return True

    best = None
    n = len(pts)
    for a in range(n):
        for b in range(a + 1, n):
            cx = (pts[a][0] + pts[b][0]) / 2.0
            cy = (pts[a][1] + pts[b][1]) / 2.0
            r = max(
                math.hypot(pts[a][0] - cx, pts[a][1] - cy),
                math.hypot(pts[b][0] - cx, pts[b][1] - cy),
            )
            if (best is None or r < best[2]) and contains_all(cx, cy, r):
                best = (cx, cy, r)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                circ = circumcircle(pts[a], pts[b], pts[c])
                if circ is None:
                    continue
                cx, cy, r = circ
                if (best is None or r < best[2]) and contains_all(cx, cy, r):
                    best = (cx, cy, r)
    assert best is not None, "no candidate circle contained all points"
    return (best[0], best[1]), best[2]


def circumcircle(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        return None
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    r = max(
        math.hypot(ux - a[0], uy - a[1]),
        math.hypot(ux - b[0], uy - b[1]),
        math.hypot(ux - c[0], uy - c[1]),
    )
    return ux, uy, r


def naive_stats(errors):
    """Plain-loop mean, max, and nearest-rank 90th percentile."""
    values = sorted(float(e) for e in errors)
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    rank = math.ceil(0.9 * n)
    return total / n, values[-1], values[rank - 1]


def row_by_row_detections(path):
    """read_detections_csv as one Detection and one index parse per row, no two rows sharing one.

    Trials are numbered in key order, each taking the number of the first
    earlier trial whose rows hold the same texts, or else the next number;
    a set holds the Detections of its first trial.
    """
    import numpy as np

    from vlpkit.io import DETECTION_COLUMNS, TrialTable, _csv_rows
    from vlpkit.positioning import Detection

    groups = {}
    with _csv_rows(path, DETECTION_COLUMNS[2:], DETECTION_COLUMNS[:2]) as (rows, col):
        point, trial, beacon, u, v = map(col.get, DETECTION_COLUMNS)
        for row in rows:
            key = (int(row[point] or 0), int(row[trial] or 0))
            det = Detection(row[beacon], (float(row[u]), float(row[v])))
            groups.setdefault(key, []).append(((row[beacon], row[u], row[v]), det))
    numbers, index, sets = {}, [], []
    for key in sorted(groups):
        texts = tuple(text for text, _ in groups[key])
        if texts not in numbers:
            numbers[texts] = len(sets)
            sets.append(tuple(det for _, det in groups[key]))
        index.append(numbers[texts])
    return TrialTable(sorted(groups), np.array(index, np.intp), sets)


def row_by_row_ground_truth(path):
    """read_ground_truth_csv as one parse and finite check per row, with no sharing."""
    from vlpkit.io import TRUTH_COLUMNS, _csv_rows, _finite

    truths = {}
    with _csv_rows(path, TRUTH_COLUMNS[:5], ["yaw_rad"]) as (rows, col):
        point, trial, x, y, z, yaw = map(col.get, TRUTH_COLUMNS[:6])
        for row in rows:
            xyz = _finite(row[x], row[y], row[z])
            truths[int(row[point]), int(row[trial])] = (*xyz, float(row[yaw] or 0.0))
    return truths


def row_by_row_fixes(path):
    """read_fixes_csv as one status check, then for an ok row one parse and check per field, per row."""
    import numpy as np

    from vlpkit.io import FIX_COLUMNS, FixColumns, _csv_rows, _finite
    from vlpkit.positioning import Method

    keys, positions, heights = [], [], []
    with _csv_rows(path, FIX_COLUMNS[:-1]) as (rows, col):
        point, trial, method, status, x, y, z, height, image_d, world_d, yaw = map(col.get, FIX_COLUMNS[:-1])
        for row in rows:
            if row[status] not in ("ok", "error"):
                raise ValueError(f"unknown status {row[status]!r}, expected 'ok' or 'error'")
            if row[status] == "error":
                continue
            h = _finite(row[height], row[image_d], row[world_d], kind="diagnostic")[0]
            if row[yaw]:
                _finite(row[yaw], kind="diagnostic")
            positions.append(_finite(row[x], row[y], row[z]))
            Method(row[method])
            keys.append((int(row[point]), int(row[trial])))
            heights.append(h)
    return FixColumns(keys, np.array(positions, dtype=float).reshape(-1, 3), np.array(heights, dtype=float))


def row_by_row_locate(table, beacons, intrinsics, method, height_pair, path):
    """vlpkit.cli._locate as one sensor check and one solve per trial, with no reuse between trials.

    Writes each row's own outcome and returns the ok rows' FixColumns.
    """
    import sys

    import numpy as np

    from vlpkit import cli
    from vlpkit.errors import VlpError
    from vlpkit.io import FixColumns

    keys, outcomes, ok = [], [], []
    failures = {}
    for (point, trial), i in zip(table.keys, table.index.tolist()):
        dets = table.sets[i]
        keys.append((point, trial))
        try:
            cli._check_on_sensor(dets, intrinsics)
            fix = cli.compute_fix(dets, beacons, intrinsics, method, height_pair)
        except (VlpError, ValueError) as err:
            message = str(err)
            outcomes.append(message)
            tally = failures.setdefault(type(err).__name__, [0, f"{point}/{trial}: {message}"])
            tally[0] += 1
        else:
            outcomes.append(fix)
            ok.append((point, trial, fix))
    for name, (count, first) in failures.items():
        print(cli._shorten(f"warning: {count} trial(s) failed with {name}, first {first}"), file=sys.stderr)
    cli.write_fixes_csv(keys, range(len(keys)), outcomes, method, path)
    return FixColumns(
        [(point, trial) for point, trial, _ in ok],
        np.array([fix.position for _, _, fix in ok], dtype=float).reshape(-1, 3),
        np.array([fix.diagnostics.height_cm for _, _, fix in ok], dtype=float),
    )


def least_squares_pose(beacons, pixels, intrinsics):
    """(x, y, z, yaw) of the camera whose exact projections best fit the pixels, in least squares.

    A yaw-only pinhole under one ceiling maps the plan onto the image by a
    similarity. With a = (f/h) cos yaw and b = (f/h) sin yaw, each beacon at
    (X, Y) gives u - u0 = (aX + bY + e) / pitch_i and v - v0 = (aY - bX + g) / pitch_j
    about the corrected principal point (u0, v0), which is linear in
    (a, b, e, g). For h > 0 that map from (x, y, h, yaw) is one-to-one, so
    one linear solve gives the exact minimum of the pixel residual. The
    beacons are assumed to share one ceiling height.
    """
    import numpy as np

    xyz = np.array([b.position for b in beacons], dtype=float)
    X, Y, one, zero = xyz[:, 0], xyz[:, 1], np.ones(len(xyz)), np.zeros(len(xyz))
    u0, v0 = intrinsics.corrected_principal_point
    rows = np.vstack(
        [np.column_stack([X, Y, one, zero]) / intrinsics.pitch_i, np.column_stack([Y, -X, zero, one]) / intrinsics.pitch_j]
    )
    pixels = np.array(pixels, dtype=float)
    a, b, e, g = np.linalg.lstsq(rows, np.concatenate([pixels[:, 0] - u0, pixels[:, 1] - v0]), rcond=None)[0]
    scale = a * a + b * b
    x, y = (b * g - a * e) / scale, -(b * e + a * g) / scale
    return float(x), float(y), float(xyz[0, 2] - intrinsics.focal_length / math.hypot(a, b)), math.atan2(b, a)
