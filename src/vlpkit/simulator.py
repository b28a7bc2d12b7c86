"""Forward scene model: projection, noisy observation, rotation sweeps, trial datasets.

Everything downstream is validated against this module, so its conventions
are the reference ones: the world offset of a beacon relative to the camera
is rotated by the negative camera yaw into the camera frame, scaled by focal
length over height onto the image plane, and converted to pixels about the
true principal point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .camera import MM_PER_CM, CameraIntrinsics, PixelPoint
from .errors import BeaconBehindCamera
from .positioning import Detection, LedBeacon, _beacon_index

POINT_INDEX_LIMIT = 100_000
TRIAL_INDEX_LIMIT = 10_000

SWEEP_ANGLES_12 = tuple(math.radians(30.0 * step) for step in range(12))

DEFAULT_BEACONS = (
    LedBeacon("L1", (-46.5, -49.5, 150.0)),
    LedBeacon("L2", (-46.0, -42.0, 150.0)),
    LedBeacon("L3", (46.0, 49.0, 150.0)),
)


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic Gaussian pixel noise plus optional integer quantization."""

    pixel_sigma: float = 0.0
    quantize: bool = False

    def __post_init__(self) -> None:
        if self.pixel_sigma < 0:
            raise ValueError(f"pixel_sigma must be non-negative, got {self.pixel_sigma}")


@dataclass(frozen=True)
class CameraPose:
    """Camera position in cm and yaw about the vertical axis in rad. No tilt."""

    position: tuple[float, float, float]
    yaw_rad: float = 0.0


@dataclass(frozen=True)
class SceneConfig:
    """Ground-truth scene for simulation.

    The true principal point is what projection actually uses; the corrected
    one inside the intrinsics is what estimators believe. Calibration tries
    to close that gap.
    """

    beacons: tuple[LedBeacon, ...]
    camera_pose: CameraPose
    intrinsics: CameraIntrinsics
    true_principal_point: tuple[float, float] | None = None  # px; None means nominal
    noise: NoiseModel = NoiseModel()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "beacons", tuple(self.beacons))
        if not self.beacons:
            raise ValueError("scene needs at least one beacon")
        _beacon_index(self.beacons)  # raises on a duplicate id
        cam_z = self.camera_pose.position[2]
        lowest = min(b.position[2] for b in self.beacons)
        if not cam_z < lowest:
            raise ValueError(
                f"camera z {cam_z} must lie strictly below every beacon (lowest is {lowest})"
            )
        if self.true_principal_point is None:
            object.__setattr__(
                self, "true_principal_point", self.intrinsics.nominal_principal_point
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class TrialRecord:
    """One simulated measurement: where the camera truly was and what it saw."""

    point_index: int
    trial_index: int
    pose: CameraPose
    detections: tuple[Detection, ...]
    seed: int


def project(beacon: LedBeacon, scene: SceneConfig) -> tuple[PixelPoint, bool]:
    """Exact pixel position of one beacon, plus whether it lands on the sensor."""
    k = scene.intrinsics
    cam_x, cam_y, cam_z = scene.camera_pose.position
    led_x, led_y, led_z = beacon.position
    height_cm = led_z - cam_z
    if height_cm <= 0:
        raise BeaconBehindCamera(
            f"beacon {beacon.id!r} at z={led_z} is not above the camera at z={cam_z}"
        )
    dx, dy = led_x - cam_x, led_y - cam_y
    yaw = scene.camera_pose.yaw_rad
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    # World offset expressed in the camera frame (yaw undone).
    rel_x = cos_y * dx + sin_y * dy
    rel_y = -sin_y * dx + cos_y * dy
    i = rel_x * MM_PER_CM * k.focal_length / (height_cm * MM_PER_CM)
    j = rel_y * MM_PER_CM * k.focal_length / (height_cm * MM_PER_CM)
    u_true, v_true = scene.true_principal_point
    u = u_true + i / k.pitch_i
    v = v_true + j / k.pitch_j
    return PixelPoint(u, v), k.on_sensor(u, v)


def _noisy_pixel(beacon: LedBeacon, scene: SceneConfig, rng: np.random.Generator) -> PixelPoint:
    """Projected pixel of one beacon with the scene's noise model applied."""
    pixel, _ = project(beacon, scene)
    u, v = pixel.u, pixel.v
    noise = scene.noise
    if noise.pixel_sigma > 0:
        du, dv = rng.normal(0.0, noise.pixel_sigma, size=2)
        u += float(du)
        v += float(dv)
    if noise.quantize:
        u = float(np.rint(u))
        v = float(np.rint(v))
    return PixelPoint(u, v)


def observe(scene: SceneConfig) -> list[Detection]:
    """Noisy detections of every beacon that lands on the sensor.

    Deterministic for a given scene: the noise stream is seeded from
    scene.seed, and draws happen in beacon order whether or not a beacon
    survives the frame check.
    """
    rng = np.random.default_rng(scene.seed)
    detections: list[Detection] = []
    for beacon in scene.beacons:
        pixel = _noisy_pixel(beacon, scene, rng)
        if scene.intrinsics.on_sensor(pixel.u, pixel.v):
            detections.append(Detection(beacon.id, pixel))
    return detections


def rotation_sweep(
    scene: SceneConfig, angles: Iterable[float]
) -> dict[str, list[PixelPoint]]:
    """Pixel track per beacon while the camera spins in place through the given yaws.

    Noiseless tracks lie exactly on circles centred at the true principal
    point, which is what rotation calibration exploits. The scene noise model
    applies on top. Points are kept even if they drift off the sensor, so
    every track has one sample per angle.
    """
    angle_list = tuple(angles)
    if len(angle_list) < 3:
        raise ValueError(f"a sweep needs at least 3 angles, got {len(angle_list)}")
    rng = np.random.default_rng(scene.seed)
    tracks: dict[str, list[PixelPoint]] = {b.id: [] for b in scene.beacons}
    for angle in angle_list:
        turned = replace(
            scene, camera_pose=CameraPose(scene.camera_pose.position, angle)
        )
        for beacon in scene.beacons:
            tracks[beacon.id].append(_noisy_pixel(beacon, turned, rng))
    return tracks


def derive_seed(base_seed: int, point_index: int, trial_index: int) -> int:
    """Injective per-trial seed: distinct (base, point, trial) never collide."""
    if base_seed < 0:
        raise ValueError(f"base seed must be non-negative, got {base_seed}")
    if not 0 <= point_index < POINT_INDEX_LIMIT:
        raise ValueError(f"point index {point_index} outside [0, {POINT_INDEX_LIMIT})")
    if not 0 <= trial_index < TRIAL_INDEX_LIMIT:
        raise ValueError(f"trial index {trial_index} outside [0, {TRIAL_INDEX_LIMIT})")
    return (base_seed * POINT_INDEX_LIMIT + point_index) * TRIAL_INDEX_LIMIT + trial_index


def generate_trials(
    grid: Sequence[tuple[float, float, float]],
    trials_per_point: int,
    scene: SceneConfig,
    base_seed: int,
) -> list[TrialRecord]:
    """Repeated observations over a grid of camera positions.

    Every trial gets its own derived seed, so regenerating any single trial
    in isolation reproduces it bit for bit.
    """
    if trials_per_point <= 0:
        raise ValueError(f"trials_per_point must be positive, got {trials_per_point}")
    records: list[TrialRecord] = []
    for point_index, position in enumerate(grid):
        pose = CameraPose(tuple(float(c) for c in position), scene.camera_pose.yaw_rad)
        for trial_index in range(trials_per_point):
            seed = derive_seed(base_seed, point_index, trial_index)
            trial_scene = replace(scene, camera_pose=pose, seed=seed)
            records.append(
                TrialRecord(
                    point_index=point_index,
                    trial_index=trial_index,
                    pose=pose,
                    detections=tuple(observe(trial_scene)),
                    seed=seed,
                )
            )
    return records


def default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(
        focal_length=3.0, pitch_i=0.006, pitch_j=0.006, resolution=(800, 600)
    )


def default_scene(
    *,
    camera_pose: CameraPose = CameraPose((0.0, 0.0, 0.0)),
    true_principal_point: tuple[float, float] | None = None,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
) -> SceneConfig:
    """Bundled three-beacon ceiling scene used by the CLI when no file is given."""
    return SceneConfig(
        beacons=DEFAULT_BEACONS,
        camera_pose=camera_pose,
        intrinsics=default_intrinsics(),
        true_principal_point=true_principal_point,
        noise=noise,
        seed=seed,
    )


def default_grid(
    nx: int = 6,
    ny: int = 6,
    x_range: tuple[float, float] = (-51.0, -31.0),
    y_range: tuple[float, float] = (-3.0, 17.0),
    z: float = 0.0,
) -> list[tuple[float, float, float]]:
    """Evenly spaced camera positions for the default beacon layout.

    The default window keeps every beacon inside the 800x600 frame and sits in
    the zone where the near-collinear beacon pair amplifies pixel noise least,
    so measured error reflects the principal-point bias rather than geometry.
    """
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    return [(float(x), float(y), z) for y in ys for x in xs]
