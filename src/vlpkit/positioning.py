"""Camera localization from LED beacon detections.

Two estimators share a similar-triangles height stage: a two-beacon solver
that also recovers the camera yaw, and a three-beacon solver that works from
per-beacon radial distances and is yaw-invariant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from statistics import fmean
from typing import Iterable, Sequence

from .camera import MM_PER_CM, CameraIntrinsics, pixel_to_image
from .errors import (
    CoincidentProjection,
    SingularGeometry,
    UnequalBeaconHeights,
    UnknownBeacon,
)

# Beacons in one fix must share a ceiling plane; the height stage breaks otherwise.
EQUAL_HEIGHT_TOL_CM = 0.1
COINCIDENT_PROJECTION_TOL_MM = 1e-6
# Applied to the determinant of the trilateration system after row normalization.
SINGULARITY_TOL = 1e-9


class Method(Enum):
    TWO_LED = "two-led"
    THREE_LED = "three-led"


@dataclass(frozen=True, slots=True)
class LedBeacon:
    """A ceiling LED with a known world position in cm."""

    id: str
    position: tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class Detection:
    """One beacon observed at a (u, v) pixel position."""

    beacon_id: str
    pixel: tuple[float, float]


@dataclass(frozen=True, slots=True)
class Diagnostics:
    """Intermediates of a fix, kept for reporting and calibration."""

    height_cm: float  # vertical distance from camera to the beacon plane
    image_pair_distance_mm: float  # between the two reference beacon images
    world_pair_distance_cm: float  # between the same beacons on the ceiling
    yaw_rad: float | None = None  # two-beacon fixes only


@dataclass(frozen=True, slots=True)
class PositionFix:
    """Estimated camera position in cm, with the method and intermediates behind it."""

    position: tuple[float, float, float]
    method: Method
    diagnostics: Diagnostics | None = None


def _beacon_index(beacons: Iterable[LedBeacon]) -> dict[str, LedBeacon]:
    index: dict[str, LedBeacon] = {}
    for beacon in beacons:
        if beacon.id in index:
            raise ValueError(f"duplicate beacon id {beacon.id!r}")
        index[beacon.id] = beacon
    return index


def _resolve(
    detections: Iterable[Detection], index: dict[str, LedBeacon], expected: int | None = None
) -> list[Detection]:
    """Detections sorted by id: distinct, known, finite, and exactly expected many when given."""
    dets = sorted(detections, key=lambda d: d.beacon_id)
    if expected is not None and len(dets) != expected:
        raise ValueError(f"expected {expected} detections, got {len(dets)}")
    ids = [d.beacon_id for d in dets]
    if len(set(ids)) != len(ids):
        raise ValueError(f"detections must reference distinct beacons, got {ids}")
    missing = [i for i in ids if i not in index]
    if missing:
        raise UnknownBeacon(f"beacon id(s) {missing} are not in the beacon set")
    for d in dets:
        u, v = d.pixel
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError(f"beacon {d.beacon_id!r} has non-finite pixel ({u}, {v})")
    return dets


def _check_shared_height(heights: Sequence[float]) -> None:
    spread = max(heights) - min(heights)
    if spread > EQUAL_HEIGHT_TOL_CM:
        raise UnequalBeaconHeights(
            f"beacon heights spread {spread:.4f} cm exceeds {EQUAL_HEIGHT_TOL_CM} cm"
        )


def _observed(
    detections: Iterable[Detection], beacons: Iterable[LedBeacon], k: CameraIntrinsics, expected: int
) -> tuple[list[LedBeacon], list[tuple[float, float]]]:
    """Beacons and (i, j) image coordinates of exactly expected detections, in id order, on one ceiling plane."""
    index = _beacon_index(beacons)
    dets = _resolve(detections, index, expected)
    leds = [index[d.beacon_id] for d in dets]
    _check_shared_height([led.position[2] for led in leds])
    return leds, [pixel_to_image(d.pixel, k) for d in dets]


def _pair_geometry(
    img_a: tuple[float, float],
    led_a: LedBeacon,
    img_b: tuple[float, float],
    led_b: LedBeacon,
    k: CameraIntrinsics,
) -> tuple[float, float, float]:
    """Image-plane distance (mm), world-plane distance (cm) and camera height below one beacon pair (cm).

    The ratio of the pair's ceiling distance to its image distance is the
    pinhole magnification; scaled by the focal length it gives the vertical
    camera distance below the beacon plane.
    """
    d_img = math.hypot(img_a[0] - img_b[0], img_a[1] - img_b[1])
    if d_img < COINCIDENT_PROJECTION_TOL_MM:
        raise CoincidentProjection(
            f"beacons {led_a.id!r} and {led_b.id!r} project {d_img:.3g} mm apart"
        )
    d_world = math.hypot(
        led_a.position[0] - led_b.position[0], led_a.position[1] - led_b.position[1]
    )
    height = d_world * MM_PER_CM / d_img * k.focal_length / MM_PER_CM
    return d_img, d_world, height


def _wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    a = math.remainder(a, math.tau)
    return a + math.tau if a <= -math.pi else a


def trilaterate_three(
    detections: Iterable[Detection],
    beacons: Iterable[LedBeacon],
    k: CameraIntrinsics,
    *,
    height_pair: str = "average",
) -> PositionFix:
    """Camera fix from three beacons via per-beacon horizontal radii.

    Each image radius scales by height-over-focal-length into a horizontal
    world distance from the camera; subtracting the resulting circle
    equations pairwise leaves a linear 2x2 system in the camera x, y.
    Radii are rotation-invariant, so the fix holds under any camera yaw.

    height_pair selects the height stage: "average" uses all three beacon
    pairs, "first" only the two lowest-id beacons.
    """
    if height_pair not in ("average", "first"):
        raise ValueError(f"height_pair must be 'average' or 'first', got {height_pair!r}")
    leds, imgs = _observed(detections, beacons, k, expected=3)
    geoms = [
        _pair_geometry(imgs[a], leds[a], imgs[b], leds[b], k)
        for a, b in itertools.combinations(range(3), 2)
    ]
    heights = [height for _, _, height in geoms]
    height = heights[0] if height_pair == "first" else fmean(heights)

    (x1, y1), (x2, y2), (x3, y3) = [(led.position[0], led.position[1]) for led in leds]
    # Horizontal world distance from the camera to each beacon.
    r1, r2, r3 = (height * math.hypot(i, j) / k.focal_length for i, j in imgs)
    m00, m01 = x2 - x1, y2 - y1
    m10, m11 = x3 - x1, y3 - y1
    det = m00 * m11 - m01 * m10
    scale = math.hypot(m00, m01) * math.hypot(m10, m11)
    if scale == 0.0 or abs(det) < SINGULARITY_TOL * scale:
        raise SingularGeometry(
            f"beacons {[led.id for led in leds]} are collinear or coincident in plan"
        )
    b0 = r1 * r1 - r2 * r2 - (x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2)
    b1 = r1 * r1 - r3 * r3 - (x1 * x1 + y1 * y1 - x3 * x3 - y3 * y3)
    xc = 0.5 * (m11 * b0 - m01 * b1) / det
    yc = 0.5 * (m00 * b1 - m10 * b0) / det
    position = (xc, yc, leds[0].position[2] - height)
    # Finite but huge pixels overflow the squared radii.
    if not all(map(math.isfinite, position)):
        raise ValueError(f"three-led position {position} is not finite")

    diag = Diagnostics(
        height_cm=height,
        image_pair_distance_mm=geoms[0][0],
        world_pair_distance_cm=geoms[0][1],
    )
    return PositionFix(position, Method.THREE_LED, diag)


def locate_two(
    detections: Iterable[Detection],
    beacons: Iterable[LedBeacon],
    k: CameraIntrinsics,
) -> PositionFix:
    """Camera fix and yaw from two beacons.

    The image baseline angle is referenced against the known world baseline
    angle, which yields the camera yaw directly. The image midpoint, scaled
    by height over focal length, is the camera-frame offset of the beacon
    midpoint; rotating it into the world frame and subtracting from the
    world midpoint gives the camera position.
    """
    (led1, led2), (img1, img2) = _observed(detections, beacons, k, expected=2)
    d_img, d_world, height = _pair_geometry(img1, led1, img2, led2, k)

    x1, y1 = led1.position[0], led1.position[1]
    x2, y2 = led2.position[0], led2.position[1]
    (i1, j1), (i2, j2) = img1, img2
    phi_image = math.atan2(j1 - j2, i1 - i2)
    phi_world = math.atan2(y1 - y2, x1 - x2)
    yaw = _wrap_angle(phi_world - phi_image)

    mid_i = (i1 + i2) / 2.0
    mid_j = (j1 + j2) / 2.0
    # Camera-frame offset from camera to the beacon midpoint, in cm.
    off_x = height * mid_i / k.focal_length
    off_y = height * mid_j / k.focal_length
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    off_wx = cos_y * off_x - sin_y * off_y
    off_wy = sin_y * off_x + cos_y * off_y
    xc = (x1 + x2) / 2.0 - off_wx
    yc = (y1 + y2) / 2.0 - off_wy

    diag = Diagnostics(
        height_cm=height,
        image_pair_distance_mm=d_img,
        world_pair_distance_cm=d_world,
        yaw_rad=yaw,
    )
    return PositionFix((xc, yc, led1.position[2] - height), Method.TWO_LED, diag)


def widest_pair(
    detections: Iterable[Detection], beacons: Iterable[LedBeacon]
) -> tuple[Detection, Detection]:
    """The two detections whose beacons sit farthest apart in plan.

    The longest baseline gives the height stage the most leverage against
    pixel noise. Ties break toward the lexicographically smallest id pair.
    """
    index = _beacon_index(beacons)
    dets = _resolve(detections, index)
    if len(dets) < 2:
        raise ValueError(f"need at least 2 detections, got {len(dets)}")
    best: tuple[Detection, Detection] | None = None
    best_dist = -1.0
    for da, db in itertools.combinations(dets, 2):
        pa = index[da.beacon_id].position
        pb = index[db.beacon_id].position
        dist = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
        if dist > best_dist:
            best, best_dist = (da, db), dist
    assert best is not None
    return best
