"""Principal-point calibration: circle-fitted rotation tracks and fix-dispersion offsets."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import fmean
from typing import Iterable, Mapping, Sequence

import numpy as np

from .camera import CameraIntrinsics
from .errors import DegenerateCircle, EmptyInput, InsufficientTracks, LengthMismatch

# det of the centred scatter matrix, relative to its mean diagonal, below which
# points are treated as collinear.
COLLINEARITY_TOL = 1e-12
_MEC_SHUFFLE_SEED = 24043
_COVER_SLACK = 1e-12


@dataclass(frozen=True)
class CircleFit:
    """Least-squares circle through one rotation track, in pixels."""

    center: tuple[float, float]
    radius: float
    rms_residual: float


@dataclass(frozen=True)
class DispersionSummary:
    """Scatter of repeated fixes around one ground-truth point, in cm."""

    mean_offset: tuple[float, float]
    enclosing_center: tuple[float, float]
    enclosing_radius: float
    sample_count: int


def fit_circle(points: Iterable[tuple[float, float]]) -> CircleFit:
    """Algebraic least-squares circle through (x, y) points.

    The circle equation is linearized about the centroid, which keeps the
    normal equations well conditioned for tracks far from the pixel origin
    and reproduces exact circles to machine precision. The reported residual
    is the geometric rms (point distance minus radius).
    """
    xy = np.asarray(list(points), dtype=float)
    if len(xy) < 3:
        raise DegenerateCircle(f"circle fit needs at least 3 points, got {len(xy)}")
    x, y = xy[:, 0], xy[:, 1]
    xm, ym = float(x.mean()), float(y.mean())
    u, v = x - xm, y - ym
    suu = float(u @ u)
    svv = float(v @ v)
    suv = float(u @ v)
    det = suu * svv - suv * suv
    scale = 0.5 * (suu + svv)
    if scale == 0.0 or det <= COLLINEARITY_TOL * scale * scale:
        raise DegenerateCircle("points are collinear or coincident; no unique circle")
    rhs_u = 0.5 * (float(u @ (u * u)) + float(u @ (v * v)))
    rhs_v = 0.5 * (float(v @ (v * v)) + float(v @ (u * u)))
    uc = (svv * rhs_u - suv * rhs_v) / det
    vc = (suu * rhs_v - suv * rhs_u) / det
    cx, cy = xm + uc, ym + vc
    radius = math.sqrt(uc * uc + vc * vc + (suu + svv) / len(xy))
    dists = np.hypot(x - cx, y - cy)
    rms = float(np.sqrt(np.mean((dists - radius) ** 2)))
    return CircleFit((cx, cy), radius, rms)


def calibrate_rotation(
    tracks: Mapping[str, Sequence[tuple[float, float]]], k: CameraIntrinsics
) -> tuple[CameraIntrinsics, dict[str, CircleFit]]:
    """Corrected principal point from spin-in-place beacon tracks.

    Spinning the camera about its lens axis drags every beacon image around
    the true principal point, so each track is fitted with a circle and the
    fitted centres are averaged. Unfittable tracks (too short, zero radius,
    collinear) are skipped; at least one must survive.

    Returns the updated intrinsics and the per-track fits that were used.
    """
    fits: dict[str, CircleFit] = {}
    last_error: DegenerateCircle | None = None
    for track_id in sorted(tracks):
        try:
            fits[track_id] = fit_circle(tracks[track_id])
        except DegenerateCircle as err:
            last_error = err
    if not fits:
        raise InsufficientTracks("no rotation track could be fitted") from last_error
    center_u = fmean(fit.center[0] for fit in fits.values())
    center_v = fmean(fit.center[1] for fit in fits.values())
    return k.with_principal_point(center_u, center_v), fits


def calibrate_dispersion(
    positions,
    heights,
    ground_truth: Sequence[float],
    k: CameraIntrinsics,
    mode: str = "physical",
) -> tuple[CameraIntrinsics, DispersionSummary]:
    """Corrected principal point from the spread of repeated fixes at a known point.

    The fixes are an (n, 3) array of positions and an (n,) array of their
    heights, in cm. The mean fix minus the ground truth is the world-plane
    bias. In "physical" mode it is mapped back through the pinhole
    magnification (focal length over the mean fix height) to a pixel
    correction; in "paper_literal" mode the raw cm offset is divided by the
    pixel pitch with no magnification, replicating the published
    formulation. Either way the correction is subtracted, so refitting with
    the updated intrinsics drives the mean offset toward zero. Fixes are
    assumed to have been collected with the camera axis-aligned (yaw near
    zero).

    Returns the updated intrinsics and a scatter summary of the input fixes.
    """
    if not len(positions):
        raise EmptyInput("dispersion calibration received no fixes")
    if mode not in ("physical", "paper_literal"):
        raise ValueError(f"mode must be 'physical' or 'paper_literal', got {mode!r}")
    if len(heights) != len(positions):
        raise LengthMismatch(f"{len(positions)} fix positions paired with {len(heights)} heights")
    summary = dispersion_summary(positions, ground_truth)
    dx, dy = summary.mean_offset
    if mode == "physical":
        mean_height = fmean(np.asarray(heights, dtype=float).tolist())
        if not mean_height > 0:
            raise ValueError(f"mean fix height must be positive, got {mean_height}")
        # cm over cm cancels; mm focal length over mm-per-px pitch leaves px.
        du = dx * k.focal_length / (mean_height * k.pitch_i)
        dv = dy * k.focal_length / (mean_height * k.pitch_j)
    else:
        du = dx / k.pitch_i
        dv = dy / k.pitch_j
    u1, v1 = k.corrected_principal_point
    return k.with_principal_point(u1 - du, v1 - dv), summary


def dispersion_summary(positions, ground_truth: Sequence[float]) -> DispersionSummary:
    """Mean x-y offset of (n, 3) fix positions from the ground truth, and their smallest enclosing circle."""
    xs, ys, _ = _as_positions(positions).T.tolist()
    center, radius = min_enclosing_circle(zip(xs, ys))
    offset = (fmean(xs) - float(ground_truth[0]), fmean(ys) - float(ground_truth[1]))
    return DispersionSummary(offset, center, radius, len(xs))


def _as_positions(positions) -> np.ndarray:
    """positions as an (n, 3) float array; no positions read as shape (0, 3)."""
    xyz = np.asarray(positions, dtype=float)
    if xyz.size == 0:
        return xyz.reshape(0, 3)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array of positions, got shape {xyz.shape}")
    return xyz


def min_enclosing_circle(points: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], float]:
    """Exact smallest circle containing every (x, y) point.

    Welzl's incremental MiniDisc (Welzl 1991), in expected linear time over
    the shuffled points: each point outside the current circle lies on the
    boundary of the circle over the points before it, and so does each
    earlier point then left outside. A fixed shuffle seed keeps the
    arithmetic (and hence serialized output) reproducible run to run.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise EmptyInput("minimum enclosing circle needs at least one point")
    random.Random(_MEC_SHUFFLE_SEED).shuffle(pts)
    cx, cy, r = pts[0][0], pts[0][1], 0.0
    for i, p in enumerate(pts):
        if _covers(cx, cy, r, p):
            continue
        cx, cy, r = p[0], p[1], 0.0
        for j, q in enumerate(pts[:i]):
            if _covers(cx, cy, r, q):
                continue
            cx, cy, r = _diameter(p, q)
            for s in pts[:j]:
                if not _covers(cx, cy, r, s):
                    # None for collinear points: the current circle stays.
                    cx, cy, r = _circumcircle(p, q, s) or (cx, cy, r)
    return (cx, cy), r


def _covers(cx: float, cy: float, r: float, p: tuple[float, float]) -> bool:
    return math.hypot(p[0] - cx, p[1] - cy) <= r * (1.0 + _COVER_SLACK) + _COVER_SLACK


def _diameter(
    a: tuple[float, float], b: tuple[float, float]
) -> tuple[float, float, float]:
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = max(math.hypot(a[0] - cx, a[1] - cy), math.hypot(b[0] - cx, b[1] - cy))
    return cx, cy, r


def _circumcircle(
    a: tuple[float, float], b: tuple[float, float], c: tuple[float, float]
) -> tuple[float, float, float] | None:
    # Work relative to the bounding-box centre to limit cancellation.
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    px, py = ux + ox, uy + oy
    r = max(
        math.hypot(px - a[0], py - a[1]),
        math.hypot(px - b[0], py - b[1]),
        math.hypot(px - c[0], py - c[1]),
    )
    return px, py, r
