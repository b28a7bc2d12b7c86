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

from .camera import MM_PER_CM, CameraIntrinsics
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
        if not self.pixel_sigma >= 0:  # also rejects NaN
            raise ValueError(f"pixel_sigma must be non-negative, got {self.pixel_sigma}")


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One simulated measurement: where the camera truly was and what it saw."""

    point_index: int
    trial_index: int
    pose: CameraPose
    detections: tuple[Detection, ...]
    seed: int


def project(beacon: LedBeacon, scene: SceneConfig) -> tuple[tuple[float, float], bool]:
    """Exact (u, v) pixel of one beacon, plus whether it lands on the sensor."""
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
    return (u, v), k.on_sensor(u, v)


# numpy's SeedSequence constants (O'Neill's seed_seq mixing, NEP 19), all
# arithmetic modulo 2**32. Its bit streams are stable across numpy versions.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_POOL_SIZE = 4


def _entropy_words(seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each seed as SeedSequence splits it: its little-endian uint32 words, and how many there are.

    Returns a (words of the longest seed, seeds) uint32 array, zero past a
    seed's own words, and the word count of each seed (0 has one word).
    """
    rest = np.array(seeds, dtype=np.uint64 if max(seeds) < 2**64 else object)
    counts = np.ones(len(seeds), dtype=np.intp)
    words = [(rest & _MASK32).astype(np.uint32)]
    while True:
        rest = rest >> 32
        more = rest != 0
        if not more.any():
            return np.stack(words), counts
        counts += more
        words.append((rest & _MASK32).astype(np.uint32))


def _pool_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's generate_state(4, np.uint64) for seeds of equally many words.

    entropy is a (words, seeds) uint32 array. Each step of numpy's
    mix_entropy and generate_state runs once over all seeds; the hash
    constants depend only on the step, so they stay Python ints.
    """
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    n_words = len(entropy)
    zero = np.zeros(entropy.shape[1], dtype=u32)
    pool = [hashmix(entropy[i] if i < n_words else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * u32(hash_const)
        state.append((value ^ (value >> u32(16))).astype(np.uint64))
    # Word pairs read as little-endian uint64, as numpy does.
    return np.stack([state[2 * k] | state[2 * k + 1] << np.uint64(32) for k in range(4)], axis=1)


def _seed_states(seeds: Sequence[int]) -> np.ndarray:
    """np.random.SeedSequence(s).generate_state(4, np.uint64) for every non-negative int s, as an (n, 4) array.

    These four words are all that PCG64 reads from its seed, so a trial
    stream seeded with its row (see _PresetSeed) is default_rng(s). On a
    2-core x86-64 VM a call costs about 0.3 ms plus 0.3 us per seed, against
    about 15 us per seed for SeedSequence and PCG64 set-up. numpy.random is
    imported here, just before the first draw, and not with the package.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PresetSeed)
    states = np.empty((len(seeds), 4), dtype=np.uint64)
    if not seeds:
        return states
    words, counts = _entropy_words(seeds)
    # Not np.unique, which loads numpy.ma (about 1 MB) on first use.
    for n_words in range(1, len(words) + 1):
        rows = counts == n_words
        if rows.any():
            states[rows] = _pool_states(words[:n_words, rows])
    return states


class _PresetSeed:
    """A numpy ISeedSequence (registered by _seed_states) that yields one precomputed state row.

    np.random.default_rng(_PresetSeed(states[k])) is the generator of
    default_rng(seeds[k]) for states = _seed_states(seeds): PCG64 asks its
    seed only for generate_state(4, np.uint64).
    """

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"a preset seed holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self._state


def _noise_offsets(noise: NoiseModel, seed: int | _PresetSeed, count: int) -> np.ndarray | None:
    """The first count pixel-noise offsets (du, dv) of the stream seeded by seed.

    They are drawn in one call: a draw of shape (count, 2) yields the same
    values as count draws of two. A noiseless scene draws nothing and gets
    None.
    """
    sigma = noise.pixel_sigma
    if sigma > 0:
        return np.random.default_rng(seed).normal(0.0, sigma, size=(count, 2))
    return None


def _noisy_pixels(exact: np.ndarray, offsets: np.ndarray | None, quantize: bool) -> np.ndarray:
    """Exact pixels shifted by their noise offsets, then quantized if asked.

    Float64 addition and rint give the same bits as the per-coordinate
    scalar arithmetic. With no offsets and no quantization exact is returned
    itself.
    """
    pixels = exact if offsets is None else exact + offsets
    if quantize:
        pixels = np.rint(pixels)
    return pixels


def _observe_seeds(scene: SceneConfig, seeds: Sequence[int | _PresetSeed]) -> list[tuple[Detection, ...]]:
    """The detections of observe(replace(scene, seed=seed)) for each seed, as one tuple per seed.

    Each seed draws its own (beacons, 2) offsets from its own stream; the
    noise and quantization then run on one array of every seed's pixels.
    Seeds whose beacon lands on the same pixel bits share one Detection, and
    the sensor bounds are tested once per distinct beacon and bits. The key is
    the bits, not the value, so a -0.0 pixel never merges with a 0.0 one.
    """
    noise = scene.noise
    count = len(scene.beacons)
    # Every array is (beacons, seeds, 2), so each beacon's pixels lie together.
    exact = np.array([project(b, scene)[0] for b in scene.beacons])
    exact = np.repeat(exact[:, np.newaxis], len(seeds), axis=1)
    offsets = None
    if noise.pixel_sigma > 0:
        offsets = np.stack([_noise_offsets(noise, seed, count) for seed in seeds], axis=1)
    pixels = _noisy_pixels(exact, offsets, noise.quantize)
    # The 16 bytes of each (u, v): its bits, as one hashable key.
    keys = pixels.view("V16").reshape(count, len(seeds)).tolist()
    on_sensor = scene.intrinsics.on_sensor
    columns = []
    dropped = False
    for beacon, beacon_keys, beacon_pixels in zip(scene.beacons, keys, pixels.tolist()):
        shared: dict[bytes, Detection | None] = {}
        for key, (u, v) in zip(beacon_keys, beacon_pixels):
            if key not in shared:
                shared[key] = Detection(beacon.id, (u, v)) if on_sensor(u, v) else None
        dropped = dropped or None in shared.values()
        columns.append(list(map(shared.__getitem__, beacon_keys)))
    rows = zip(*columns)
    if dropped:
        return [tuple(filter(None, row)) for row in rows]
    return list(rows)


def observe(scene: SceneConfig) -> list[Detection]:
    """Noisy detections of every beacon that lands on the sensor.

    Deterministic for a given scene: the noise stream is seeded from
    scene.seed, and draws happen in beacon order whether or not a beacon
    survives the frame check. Each call observes a batch of one; for many
    trials, generate_trials observes each grid point's trials in one batch.
    """
    return list(_observe_seeds(scene, [scene.seed])[0])


def rotation_sweep(
    scene: SceneConfig, angles: Iterable[float]
) -> dict[str, list[tuple[float, float]]]:
    """(u, v) pixel track per beacon while the camera spins in place through the given yaws.

    Noiseless tracks lie exactly on circles centred at the true principal
    point, which is what rotation calibration exploits. The scene noise model
    applies on top, drawn from one stream in angle-then-beacon order. Points
    are kept even if they drift off the sensor, so every track has one sample
    per angle.
    """
    angle_list = tuple(angles)
    if len(angle_list) < 3:
        raise ValueError(f"a sweep needs at least 3 angles, got {len(angle_list)}")
    position = scene.camera_pose.position
    posed = [replace(scene, camera_pose=CameraPose(position, angle)) for angle in angle_list]
    exact = np.array([project(b, turned)[0] for turned in posed for b in scene.beacons])
    offsets = _noise_offsets(scene.noise, scene.seed, len(exact))
    pixels = _noisy_pixels(exact, offsets, scene.noise.quantize).tolist()
    n = len(scene.beacons)
    return {beacon.id: [(u, v) for u, v in pixels[i::n]] for i, beacon in enumerate(scene.beacons)}


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
) -> list[TrialRecord]:
    """Repeated observations over a grid of camera positions.

    Every trial gets its own seed, derived from scene.seed and its point and
    trial index, so regenerating any single trial in isolation reproduces it
    bit for bit: its noise stream is default_rng(seed), with the seed states
    of all trials computed in one pass. The scene is posed and validated once
    per grid point and all its trials are observed in one batch, so trials at
    a point whose beacon lands on the same pixel bits share one Detection
    object.
    """
    if trials_per_point <= 0:
        raise ValueError(f"trials_per_point must be positive, got {trials_per_point}")
    seeds = [derive_seed(scene.seed, p, t) for p in range(len(grid)) for t in range(trials_per_point)]
    states = _seed_states(seeds) if scene.noise.pixel_sigma > 0 else None
    records: list[TrialRecord] = []
    for point_index, position in enumerate(grid):
        pose = CameraPose(tuple(float(c) for c in position), scene.camera_pose.yaw_rad)
        trials = slice(point_index * trials_per_point, (point_index + 1) * trials_per_point)
        point_seeds = seeds[trials]
        streams = point_seeds if states is None else [_PresetSeed(state) for state in states[trials]]
        observed = _observe_seeds(replace(scene, camera_pose=pose), streams)
        records.extend(
            TrialRecord(point_index, trial_index, pose, detections, seed)
            for trial_index, (detections, seed) in enumerate(zip(observed, point_seeds))
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


def default_grid() -> list[tuple[float, float, float]]:
    """6 x 6 camera positions on the floor (z = 0), x from -51 to -31 cm, y from -3 to 17 cm.

    The window keeps every beacon inside the 800x600 frame and sits in the
    zone where the near-collinear beacon pair amplifies pixel noise least, so
    measured error reflects the principal-point bias rather than geometry.
    """
    xs = np.linspace(-51.0, -31.0, 6)
    ys = np.linspace(-3.0, 17.0, 6)
    return [(float(x), float(y), 0.0) for y in ys for x in xs]
