"""Sensor frames: pixel coordinates and the metric image plane."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

MM_PER_CM = 10.0


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters of the receiver camera.

    The nominal principal point is the exact image centre. The corrected one
    starts equal to it and is replaced by calibration; all pixel-to-image
    conversions go through the corrected value.
    """

    focal_length: float  # mm
    pitch_i: float  # mm per pixel along u
    pitch_j: float  # mm per pixel along v
    resolution: tuple[int, int]  # (width, height) px
    corrected_principal_point: tuple[float, float] | None = None  # px; None means image centre

    def __post_init__(self) -> None:
        if not (math.isfinite(self.focal_length) and self.focal_length > 0):
            raise ValueError(f"focal_length must be positive, got {self.focal_length}")
        if not (
            math.isfinite(self.pitch_i)
            and math.isfinite(self.pitch_j)
            and self.pitch_i > 0
            and self.pitch_j > 0
        ):
            raise ValueError(f"pixel pitches must be positive, got ({self.pitch_i}, {self.pitch_j})")
        width, height = self.resolution
        if width <= 0 or height <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.corrected_principal_point is None:
            object.__setattr__(self, "corrected_principal_point", self.nominal_principal_point)
        u1, v1 = self.corrected_principal_point
        if not (math.isfinite(u1) and math.isfinite(v1)):
            raise ValueError("corrected principal point must be finite")
        if not self.on_sensor(u1, v1):
            raise ValueError(
                f"corrected principal point ({u1}, {v1}) lies outside the {width}x{height} sensor"
            )

    @property
    def nominal_principal_point(self) -> tuple[float, float]:
        width, height = self.resolution
        return (width / 2.0, height / 2.0)

    def on_sensor(self, u: float, v: float) -> bool:
        """Whether a pixel position lies on the sensor, edges included."""
        width, height = self.resolution
        return 0.0 <= u <= width and 0.0 <= v <= height

    def with_principal_point(self, u1: float, v1: float) -> "CameraIntrinsics":
        """Validated copy of these intrinsics with a new corrected principal point."""
        return replace(self, corrected_principal_point=(u1, v1))


def pixel_to_image(p: tuple[float, float], k: CameraIntrinsics) -> tuple[float, float]:
    """(u, v) pixel to (i, j) mm image coordinates about the corrected principal point."""
    u, v = p
    u1, v1 = k.corrected_principal_point
    return ((u - u1) * k.pitch_i, (v - v1) * k.pitch_j)
