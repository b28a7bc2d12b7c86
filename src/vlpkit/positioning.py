"""Camera localization from LED beacon detections.

Two estimators share one fix pipeline and its similar-triangles height
stage: a two-beacon solver that also recovers the camera yaw, and a
three-beacon solver that works from per-beacon radial distances and is
yaw-invariant.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from collections.abc import Sized
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from operator import attrgetter, is_, itemgetter
from typing import Iterable, NamedTuple

from .camera import MM_PER_CM, CameraIntrinsics
from .errors import (
    CoincidentProjection,
    ImplausibleHeight,
    SingularGeometry,
    UnequalBeaconHeights,
    UnknownBeacon,
)

# Beacons in one fix must share a ceiling plane; the height stage breaks otherwise.
EQUAL_HEIGHT_TOL_CM = 0.1
COINCIDENT_PROJECTION_TOL_MM = 1e-6
# Applied to the determinant of the trilateration system after row normalization.
SINGULARITY_TOL = 1e-9

_beacon_id = attrgetter("beacon_id")
_pixel = attrgetter("pixel")


class Method(Enum):
    TWO_LED = "two-led"
    THREE_LED = "three-led"


@dataclass(frozen=True, slots=True)
class LedBeacon:
    """A ceiling LED with a known world position in cm."""

    id: str
    position: tuple[float, float, float]

    def __post_init__(self) -> None:
        given = self.position
        # Python and numpy numbers only: float() would also take text and bytes, and a bool is no coordinate.
        if (
            isinstance(given, (str, bytes))
            or not isinstance(given, Sized)
            or len(given) != 3
            or not all(isinstance(c, Real) and not isinstance(c, bool) for c in given)
        ):
            raise ValueError(f"beacon {self.id!r}: position must be 3 numbers, got {reprlib.repr(given)}")
        try:
            xyz = tuple([float(c) for c in given])
        except OverflowError:  # an integer too large for a float
            raise ValueError(f"beacon {self.id!r}: position {reprlib.repr(given)} is not finite") from None
        if not all(map(math.isfinite, xyz)):
            raise ValueError(f"beacon {self.id!r}: position {xyz} is not finite")
        # A copy of plain floats: nothing the caller keeps can move the beacon.
        object.__setattr__(self, "position", xyz)


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
    diagnostics: Diagnostics


def _beacon_index(beacons: Iterable[LedBeacon]) -> dict[str, LedBeacon]:
    index: dict[str, LedBeacon] = {}
    for beacon in beacons:
        if beacon.id in index:
            raise ValueError(f"duplicate beacon id {beacon.id!r}")
        index[beacon.id] = beacon
    return index


class _Subset(NamedTuple):
    """What a fix takes from one id-sorted subset of the beacons alone, before any pixel is read."""

    leds: tuple[LedBeacon, ...]  # in id order
    unequal_heights: str | None  # the UnequalBeaconHeights message, None on one ceiling plane
    pairs: tuple[tuple[int, int, float], ...]  # (a, b, world distance in cm), itertools.combinations order
    widest: tuple[int, int] | None  # the first pair of greatest world distance
    singular: str | None  # three beacons: the SingularGeometry message, None if the plan solves
    # The plan solve's constants. Two beacons: world baseline angle, midpoint x and y.
    # Three beacons: m00, m01, m10, m11, det and the constants of b0, b1.
    plan: tuple[float, ...] | None


def _solve_subset(ids: tuple[str, ...], index: dict[str, LedBeacon]) -> _Subset:
    """The beacon geometry of the detected ids: distinct, known, sorted."""
    if len(set(ids)) != len(ids):
        raise ValueError(f"detections must reference distinct beacons, got {list(ids)}")
    missing = [i for i in ids if i not in index]
    if missing:
        raise UnknownBeacon(f"beacon id(s) {missing} are not in the beacon set")
    leds = tuple([index[i] for i in ids])
    unequal_heights = None
    if leds:
        heights = [led.position[2] for led in leds]
        spread = max(heights) - min(heights)
        if spread > EQUAL_HEIGHT_TOL_CM:
            unequal_heights = f"beacon heights spread {spread:.4f} cm exceeds {EQUAL_HEIGHT_TOL_CM} cm"
    xy = [(led.position[0], led.position[1]) for led in leds]
    pairs = tuple(
        [
            (a, b, math.hypot(xy[a][0] - xy[b][0], xy[a][1] - xy[b][1]))
            for a, b in itertools.combinations(range(len(xy)), 2)
        ]
    )
    widest = max(pairs, key=itemgetter(2))[:2] if pairs else None
    singular = plan = None
    if len(xy) == 2:
        (x1, y1), (x2, y2) = xy
        plan = (math.atan2(y1 - y2, x1 - x2), (x1 + x2) / 2.0, (y1 + y2) / 2.0)
    elif len(xy) == 3:
        (x1, y1), (x2, y2), (x3, y3) = xy
        m00, m01 = x2 - x1, y2 - y1
        m10, m11 = x3 - x1, y3 - y1
        det = m00 * m11 - m01 * m10
        scale = math.hypot(m00, m01) * math.hypot(m10, m11)
        if scale == 0.0 or abs(det) < SINGULARITY_TOL * scale:
            singular = f"beacons {[led.id for led in leds]} are collinear or coincident in plan"
        plan = (m00, m01, m10, m11, det, x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2, x1 * x1 + y1 * y1 - x3 * x3 - y3 * y3)
    return _Subset(leds, unequal_heights, pairs, widest, singular, plan)


# The last beacons seen, their id index and the geometry of each id subset
# detected against them. A beacon is frozen and holds plain floats, so the same
# beacon objects in the same order have the same geometry. The stored tuple
# keeps them alive, so their ids are never recycled. Two threads racing here at
# worst solve the same geometry twice.
_Ceiling = tuple[tuple[LedBeacon, ...], dict[str, LedBeacon], dict[tuple[str, ...], _Subset]]
_last: _Ceiling | None = None


def _ceiling(beacons: Iterable[LedBeacon]) -> _Ceiling:
    """The beacons, their id index and subset geometry: the last call's again if these are the same beacon objects."""
    global _last
    last = _last
    if last is None or last[0] is not beacons:
        beacons = tuple(beacons)
        if last is None or len(last[0]) != len(beacons) or not all(map(is_, last[0], beacons)):
            # A duplicate id raises here, before anything is stored, so it raises on every call.
            _last = last = (beacons, _beacon_index(beacons), {})
    return last


def _resolve(
    detections: Iterable[Detection], beacons: Iterable[LedBeacon], expected: int | None = None
) -> tuple[list[Detection], _Subset]:
    """Detections sorted by id (distinct, known, finite, exactly expected many if given) and their beacons' geometry."""
    _, index, subsets = _ceiling(beacons)
    dets = sorted(detections, key=_beacon_id)
    if expected is not None and len(dets) != expected:
        raise ValueError(f"expected {expected} detections, got {len(dets)}")
    ids = tuple(map(_beacon_id, dets))
    sub = subsets.get(ids)
    if sub is None:
        sub = subsets[ids] = _solve_subset(ids, index)
    for d in dets:
        u, v = d.pixel
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError(f"beacon {d.beacon_id!r} has non-finite pixel ({u}, {v})")
    return dets, sub


def _fix(
    detections: Iterable[Detection],
    beacons: Iterable[LedBeacon],
    k: CameraIntrinsics,
    method: Method,
    height_pair: str,
) -> PositionFix:
    """One fix of either method: resolve, height stage, plan solve, validity rule.

    Both methods check in one order, and the first failed check raises:
    height_pair; in _resolve a duplicate beacon id, the detection count,
    distinct ids, unknown ids and a non-finite pixel; UnequalBeaconHeights;
    CoincidentProjection, pair by pair; SingularGeometry; a position that is
    not finite (ValueError); last ImplausibleHeight, for a pair that puts the
    camera within the focal length of the beacons. Only a pixel far off any
    sensor can do that, so checked last it hides no other error.
    """
    if height_pair not in ("average", "first"):
        raise ValueError(f"height_pair must be 'average' or 'first', got {height_pair!r}")
    two_led = method is Method.TWO_LED
    dets, sub = _resolve(detections, beacons, 2 if two_led else 3)
    if sub.unequal_heights is not None:
        raise UnequalBeaconHeights(sub.unequal_heights)
    # pixel_to_image of each detection, with the intrinsics read once.
    u1, v1 = k.corrected_principal_point
    pitch_i, pitch_j, focal = k.pitch_i, k.pitch_j, k.focal_length
    imgs = [((u - u1) * pitch_i, (v - v1) * pitch_j) for u, v in map(_pixel, dets)]
    # The ratio of a pair's ceiling distance to its image distance is the pinhole magnification;
    # scaled by the focal length it gives the vertical camera distance below the beacon plane.
    d_imgs, heights = [], []
    for a, b, d_world in sub.pairs:
        (ia, ja), (ib, jb) = imgs[a], imgs[b]
        d_img = math.hypot(ia - ib, ja - jb)
        if d_img < COINCIDENT_PROJECTION_TOL_MM:
            raise CoincidentProjection(
                f"beacons {sub.leds[a].id!r} and {sub.leds[b].id!r} project {d_img:.3g} mm apart"
            )
        d_imgs.append(d_img)
        heights.append(d_world * MM_PER_CM / d_img * focal / MM_PER_CM)
    # statistics.fmean's arithmetic, without its type checks.
    height = heights[0] if height_pair == "first" else math.fsum(heights) / len(heights)
    if sub.singular is not None:
        raise SingularGeometry(sub.singular)

    yaw = None
    if two_led:
        phi_world, mid_x, mid_y = sub.plan
        (i1, j1), (i2, j2) = imgs
        phi_image = math.atan2(j1 - j2, i1 - i2)
        yaw = math.remainder(phi_world - phi_image, math.tau)
        if yaw <= -math.pi:  # wrap into (-pi, pi]
            yaw += math.tau

        mid_i = (i1 + i2) / 2.0
        mid_j = (j1 + j2) / 2.0
        # Camera-frame offset from camera to the beacon midpoint, in cm.
        off_x = height * mid_i / focal
        off_y = height * mid_j / focal
        cos_y, sin_y = math.cos(yaw), math.sin(yaw)
        off_wx = cos_y * off_x - sin_y * off_y
        off_wy = sin_y * off_x + cos_y * off_y
        xc = mid_x - off_wx
        yc = mid_y - off_wy
    else:
        # Horizontal world distance from the camera to each beacon.
        (i1, j1), (i2, j2), (i3, j3) = imgs
        r1 = height * math.hypot(i1, j1) / focal
        r2 = height * math.hypot(i2, j2) / focal
        r3 = height * math.hypot(i3, j3) / focal
        m00, m01, m10, m11, det, c0, c1 = sub.plan
        b0 = r1 * r1 - r2 * r2 - c0
        b1 = r1 * r1 - r3 * r3 - c1
        xc = 0.5 * (m11 * b0 - m01 * b1) / det
        yc = 0.5 * (m00 * b1 - m10 * b0) / det

    position = (xc, yc, sub.leds[0].position[2] - height)
    # Finite but huge pixels overflow the squared radii or the midpoint offset.
    if not all(map(math.isfinite, position)):
        raise ValueError(f"{method.value} position {position} is not finite")
    # A NaN first height would have made the position NaN, and min passes over a later NaN.
    if min(heights) * MM_PER_CM <= focal:
        for (a, b, _), pair_height in zip(sub.pairs, heights):
            if pair_height * MM_PER_CM <= focal:
                raise ImplausibleHeight(
                    f"beacons {sub.leds[a].id!r} and {sub.leds[b].id!r} put the camera {pair_height:.3g} cm"
                    f" below them, within the {focal} mm focal length"
                )

    diag = Diagnostics(
        height_cm=height,
        image_pair_distance_mm=d_imgs[0],
        world_pair_distance_cm=sub.pairs[0][2],
        yaw_rad=yaw,
    )
    return PositionFix(position, method, diag)


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
    return _fix(detections, beacons, k, Method.THREE_LED, height_pair)


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
    return _fix(detections, beacons, k, Method.TWO_LED, "first")


def widest_pair(
    detections: Iterable[Detection], beacons: Iterable[LedBeacon]
) -> tuple[Detection, Detection]:
    """The two detections whose beacons sit farthest apart in plan.

    The longest baseline gives the height stage the most leverage against
    pixel noise. Ties break toward the lexicographically smallest id pair.
    """
    dets, sub = _resolve(detections, beacons)
    if len(dets) < 2:
        raise ValueError(f"need at least 2 detections, got {len(dets)}")
    a, b = sub.widest
    return dets[a], dets[b]
