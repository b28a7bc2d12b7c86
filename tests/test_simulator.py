"""Projection model, noise determinism, rotation sweeps, and trial generation."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlpkit import (
    BeaconBehindCamera,
    CameraPose,
    LedBeacon,
    NoiseModel,
    SceneConfig,
    default_grid,
    default_intrinsics,
    default_scene,
    derive_seed,
    generate_trials,
    observe,
    project,
    rotation_sweep,
)
import vlpkit
from vlpkit.simulator import DEFAULT_BEACONS, SWEEP_ANGLES_12, _PresetSeed, _seed_states


def scene_with(beacons, position=(0.0, 0.0, 0.0), yaw=0.0, **kwargs):
    return SceneConfig(
        beacons=tuple(beacons),
        camera_pose=CameraPose(position, yaw),
        intrinsics=default_intrinsics(),
        **kwargs,
    )


def test_overhead_beacon_projects_to_true_principal_point():
    scene = scene_with(
        [LedBeacon("A", (0.0, 0.0, 150.0))], true_principal_point=(406.3, 295.9)
    )
    pixel, in_frame = project(scene.beacons[0], scene)
    assert pixel == (406.3, 295.9)
    assert in_frame


def test_projection_hand_value():
    # 46 cm east, 49 cm north, 150 cm up: image (0.92, 0.98) mm, so
    # u = 400 + 0.92/0.006 and v = 300 + 0.98/0.006.
    scene = scene_with([LedBeacon("L3", (46.0, 49.0, 150.0))])
    pixel, in_frame = project(scene.beacons[0], scene)
    assert pixel == pytest.approx((553.3333333333334, 463.3333333333333), abs=1e-9)
    assert in_frame


def test_projection_flags_off_sensor_beacons():
    scene = scene_with([LedBeacon("far", (200.0, 0.0, 150.0))])
    pixel, in_frame = project(scene.beacons[0], scene)
    assert pixel[0] > 800.0
    assert not in_frame


def test_quarter_turn_rotates_image_coordinates():
    beacon = LedBeacon("A", (30.0, 12.0, 150.0))
    flat = scene_with([beacon])
    turned = scene_with([beacon], yaw=math.pi / 2.0)
    (u0, v0), _ = project(beacon, flat)
    (u1, v1), _ = project(beacon, turned)
    # (i, j) becomes (j, -i); equal pitches let us compare pixel offsets.
    assert u1 - 400.0 == pytest.approx(v0 - 300.0, abs=1e-9)
    assert v1 - 300.0 == pytest.approx(-(u0 - 400.0), abs=1e-9)


def test_beacon_below_camera_rejected():
    scene = scene_with([LedBeacon("lo", (0.0, 0.0, 150.0))], position=(0.0, 0.0, 20.0))
    intruder = LedBeacon("x", (5.0, 5.0, 10.0))
    with pytest.raises(BeaconBehindCamera):
        project(intruder, scene)


def test_scene_requires_camera_below_beacons():
    with pytest.raises(ValueError):
        scene_with([LedBeacon("A", (0.0, 0.0, 150.0))], position=(0.0, 0.0, 150.0))


def test_observe_noiseless_equals_projection():
    scene = default_scene(camera_pose=CameraPose((10.0, -5.0, 0.0)))
    dets = observe(scene)
    assert len(dets) == 3
    for det, beacon in zip(dets, scene.beacons):
        exact, _ = project(beacon, scene)
        assert det.beacon_id == beacon.id
        assert det.pixel == exact


def test_observe_is_deterministic_per_seed():
    scene = default_scene(noise=NoiseModel(pixel_sigma=0.8), seed=123)
    assert observe(scene) == observe(scene)
    other = default_scene(noise=NoiseModel(pixel_sigma=0.8), seed=124)
    assert observe(scene) != observe(other)


def test_noise_magnitude_matches_sigma():
    sigma = 0.5
    (u, v), _ = project(DEFAULT_BEACONS[0], default_scene())
    records = generate_trials([(0.0, 0.0, 0.0)], 2000, default_scene(noise=NoiseModel(pixel_sigma=sigma)))
    arr = np.asarray([record.detections[0].pixel for record in records]) - (u, v)
    assert abs(float(arr.mean())) < 0.05
    assert float(arr.std()) == pytest.approx(sigma, abs=0.05)


def test_quantization_rounds_to_nearest_integer():
    noisy = default_scene(noise=NoiseModel(pixel_sigma=0.3), seed=9)
    rounded = default_scene(noise=NoiseModel(pixel_sigma=0.3, quantize=True), seed=9)
    for det_n, det_q in zip(observe(noisy), observe(rounded)):
        for q, n in zip(det_q.pixel, det_n.pixel):
            assert q == float(round(q))
            assert abs(q - n) <= 0.5


def test_observations_off_sensor_are_dropped():
    beacons = [LedBeacon("in", (0.0, 0.0, 150.0)), LedBeacon("out", (200.0, 0.0, 150.0))]
    dets = observe(scene_with(beacons))
    assert [d.beacon_id for d in dets] == ["in"]


def test_noise_draws_follow_beacon_order_not_visibility():
    # Whether the first beacon lands on the sensor or not, it consumes its
    # noise draws, so the second beacon's detection is identical either way.
    b = LedBeacon("B", (10.0, 5.0, 150.0))
    a_in = scene_with([LedBeacon("A", (50.0, 0.0, 150.0)), b], noise=NoiseModel(0.7), seed=42)
    a_out = scene_with([LedBeacon("A", (500.0, 0.0, 150.0)), b], noise=NoiseModel(0.7), seed=42)
    dets_in = observe(a_in)
    dets_out = observe(a_out)
    assert [d.beacon_id for d in dets_in] == ["A", "B"]
    assert [d.beacon_id for d in dets_out] == ["B"]
    assert dets_out[0].pixel == dets_in[1].pixel


def test_rotation_sweep_circles_the_true_principal_point():
    scene = default_scene(true_principal_point=(406.3, 295.9))
    tracks = rotation_sweep(scene, SWEEP_ANGLES_12)
    assert set(tracks) == {"L1", "L2", "L3"}
    for track in tracks.values():
        assert len(track) == len(SWEEP_ANGLES_12)
        radii = [math.hypot(u - 406.3, v - 295.9) for u, v in track]
        assert max(radii) - min(radii) < 1e-9
        assert min(radii) > 0.0


def test_rotation_sweep_overhead_beacon_is_a_fixed_point():
    scene = scene_with(
        [LedBeacon("A", (0.0, 0.0, 150.0))], true_principal_point=(391.0, 308.5)
    )
    tracks = rotation_sweep(scene, SWEEP_ANGLES_12)
    assert tracks["A"] == [(391.0, 308.5)] * len(SWEEP_ANGLES_12)


def test_rotation_sweep_needs_three_angles():
    with pytest.raises(ValueError):
        rotation_sweep(default_scene(), (0.0, 1.0))


def test_rotation_sweep_keeps_off_sensor_samples():
    # From (40, 30) the L1 track circle is ~392 px wide, so parts of it fall
    # off the sensor; the track must still carry one sample per angle.
    scene = default_scene(camera_pose=CameraPose((40.0, 30.0, 0.0)))
    tracks = rotation_sweep(scene, SWEEP_ANGLES_12)
    assert all(len(track) == len(SWEEP_ANGLES_12) for track in tracks.values())
    off_sensor = [
        (u, v) for u, v in tracks["L1"] if not (0.0 <= u <= 800.0 and 0.0 <= v <= 600.0)
    ]
    assert off_sensor


def test_derive_seed_is_injective_over_ranges():
    seen = set()
    for base in (0, 1, 7):
        for point in (0, 1, 35, 99_999):
            for trial in (0, 1, 11, 9_999):
                seen.add(derive_seed(base, point, trial))
    assert len(seen) == 3 * 4 * 4


def test_derive_seed_range_checks():
    with pytest.raises(ValueError):
        derive_seed(-1, 0, 0)
    with pytest.raises(ValueError):
        derive_seed(0, 100_000, 0)
    with pytest.raises(ValueError):
        derive_seed(0, 0, 10_000)


def test_generate_trials_shape_and_determinism():
    grid = default_grid()
    assert len(grid) == 36
    scene = default_scene(noise=NoiseModel(pixel_sigma=0.5, quantize=True), seed=7)
    trials = generate_trials(grid, 12, scene)
    assert len(trials) == 432
    assert trials[0].point_index == 0 and trials[0].trial_index == 0
    assert trials[-1].point_index == 35 and trials[-1].trial_index == 11
    again = generate_trials(grid, 12, scene)
    assert trials == again
    assert len({t.seed for t in trials}) == 432


def test_generate_trials_single_trial_reproducible_in_isolation():
    grid = default_grid()
    scene = default_scene(noise=NoiseModel(pixel_sigma=0.5), seed=7)
    trials = generate_trials(grid, 12, scene)
    probe = trials[100]
    lone = dataclasses.replace(
        scene, camera_pose=probe.pose, seed=derive_seed(7, probe.point_index, probe.trial_index)
    )
    assert tuple(observe(lone)) == probe.detections


@pytest.mark.parametrize("z", [150.0, 151.0], ids=["at", "above"])
def test_generate_trials_rejects_a_grid_point_at_or_above_the_beacon_plane(z):
    grid = [(-40.0, 5.0, 0.0), (-40.0, 5.0, z)]
    with pytest.raises(ValueError, match="strictly below every beacon"):
        generate_trials(grid, 2, default_scene(seed=7))


def test_default_grid_keeps_all_beacons_in_frame():
    scene = default_scene()
    for position in default_grid():
        posed = SceneConfig(
            beacons=scene.beacons,
            camera_pose=CameraPose(position),
            intrinsics=scene.intrinsics,
        )
        for beacon in posed.beacons:
            _, in_frame = project(beacon, posed)
            assert in_frame, (position, beacon.id)


def test_noise_model_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseModel(pixel_sigma=-0.1)
    # NaN fails every comparison, so a `sigma > 0` test would silently mean "no noise".
    with pytest.raises(ValueError):
        NoiseModel(pixel_sigma=math.nan)


FOUR_BEACONS = (*DEFAULT_BEACONS, LedBeacon("L4", (-30.0, 10.0, 150.0)))


def _hand_noisy_pixels(scene, angles, sigma, quantize):
    """Per-beacon reference: one two-value draw per beacon, angle by angle, from one seeded stream."""
    rng = np.random.default_rng(scene.seed)
    pixels = []
    for angle in angles:
        turned = dataclasses.replace(scene, camera_pose=CameraPose(scene.camera_pose.position, angle))
        for beacon in scene.beacons:
            (u, v), _ = project(beacon, turned)
            du, dv = rng.normal(0, sigma, size=2)
            u, v = u + float(du), v + float(dv)
            if quantize:
                u, v = float(np.rint(u)), float(np.rint(v))
            pixels.append((beacon.id, u, v))
    return pixels


@pytest.mark.parametrize("quantize", [False, True])
def test_noise_stream_equals_one_draw_per_beacon(quantize):
    sigma = 0.7
    scene = scene_with(FOUR_BEACONS, position=(-40.0, 5.0, 0.0), noise=NoiseModel(sigma, quantize), seed=31)
    expected = _hand_noisy_pixels(scene, [0.0], sigma, quantize)
    assert [(d.beacon_id, *d.pixel) for d in observe(scene)] == expected

    tracks = rotation_sweep(scene, SWEEP_ANGLES_12)
    expected = _hand_noisy_pixels(scene, SWEEP_ANGLES_12, sigma, quantize)
    got = [(b.id, *tracks[b.id][k]) for k in range(len(SWEEP_ANGLES_12)) for b in scene.beacons]
    assert got == expected


def _hex(pixels):
    return [(bid, u.hex(), v.hex()) for bid, u, v in pixels]


def _scalar_observe(scene):
    """observe's reference: the per-beacon draws at the scene's own yaw, kept when on the sensor."""
    noise = scene.noise
    pixels = _hand_noisy_pixels(scene, [scene.camera_pose.yaw_rad], noise.pixel_sigma, noise.quantize)
    return _hex(p for p in pixels if scene.intrinsics.on_sensor(p[1], p[2]))


coordinate = st.floats(-120.0, 120.0)
posed_scenes = st.builds(
    lambda beacons, x, y, z, yaw, sigma, quantize, offset, seed: scene_with(
        beacons,
        position=(x, y, z),
        yaw=yaw,
        noise=NoiseModel(sigma, quantize),
        true_principal_point=(400.0 + offset[0], 300.0 + offset[1]),
        seed=seed,
    ),
    st.sampled_from([DEFAULT_BEACONS, FOUR_BEACONS]),
    coordinate,
    coordinate,
    st.floats(-60.0, 149.0),
    st.floats(-math.pi, math.pi),
    st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
    st.booleans(),
    st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
    st.integers(0, 2**32),
)


@settings(max_examples=60)
@given(
    scene=posed_scenes,
    seed=st.integers(0, 2**40),
    pose=st.tuples(coordinate, coordinate, st.floats(-60.0, 149.0)),
    angles=st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=6),
)
def test_observe_and_sweep_equal_a_scalar_reference(scene, seed, pose, angles):
    def observed(scene):
        return _hex((d.beacon_id, *d.pixel) for d in observe(scene))

    assert observed(scene) == _scalar_observe(scene)
    tracks = rotation_sweep(scene, angles)
    swept = [(b.id, *tracks[b.id][k]) for k in range(len(angles)) for b in scene.beacons]
    noise = scene.noise
    assert _hex(swept) == _hex(_hand_noisy_pixels(scene, angles, noise.pixel_sigma, noise.quantize))
    # A scene observed once and then moved sees the new pose.
    moved = dataclasses.replace(scene, camera_pose=CameraPose(pose, scene.camera_pose.yaw_rad), seed=seed)
    assert observed(moved) == _scalar_observe(moved)


# --- bulk seeding: each trial's stream is still default_rng(derive_seed(...)) ---

WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128]


def _numpy_states(seeds):
    return np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds], dtype=np.uint64)


def test_seed_states_at_word_boundaries_equal_seed_sequence():
    # One call mixes seeds of one to five 32-bit words.
    assert np.array_equal(_seed_states(WORD_EDGES), _numpy_states(WORD_EDGES))
    for seed in WORD_EDGES:
        assert np.array_equal(_seed_states([seed]), _numpy_states([seed]))
    assert _seed_states([]).shape == (0, 4)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 2**256 - 1), min_size=1, max_size=12))
def test_seed_states_equal_seed_sequence(seeds):
    states = _seed_states(seeds)
    assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
    assert np.array_equal(states, _numpy_states(seeds))


def test_preset_seed_gives_the_stream_of_its_int_seed():
    seeds = [0, 7, derive_seed(7, 35, 11), 2**100 + 3]
    for seed, state in zip(seeds, _seed_states(seeds)):
        draws = np.random.default_rng(_PresetSeed(state)).normal(size=8)
        assert np.array_equal(draws, np.random.default_rng(seed).normal(size=8))
    with pytest.raises(ValueError, match="4 uint64 words"):
        _PresetSeed(state).generate_state(4, np.uint32)


# Base seeds of a scene or --seed, and the stream bases replicate derives from them.
base_seeds = st.integers(0, 2**63 - 1).flatmap(
    lambda base: st.sampled_from([base, derive_seed(base, 90_000, 0), derive_seed(base, 90_001, 0)])
)


@settings(max_examples=40)
@given(
    points=st.lists(st.sampled_from(default_grid()), min_size=1, max_size=3),
    trials=st.integers(1, 4),
    sigma=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
    quantize=st.booleans(),
    base=st.one_of(st.sampled_from([0, 2**63 - 1, 2**63]), base_seeds),
)
def test_generate_trials_equals_observing_each_trial_seed(points, trials, sigma, quantize, base):
    scene = default_scene(noise=NoiseModel(sigma, quantize), seed=base)
    records = generate_trials(points, trials, scene)
    assert len(records) == len(points) * trials
    for record in records:
        seed = derive_seed(base, record.point_index, record.trial_index)
        assert record.seed == seed
        expected = _scalar_observe(dataclasses.replace(scene, camera_pose=record.pose, seed=seed))
        assert _hex((d.beacon_id, *d.pixel) for d in record.detections) == expected


def _detection_ids_by_bits(records):
    """The ids of the Detection objects of each (point, beacon id, u bits, v bits)."""
    by_bits = {}
    for record in records:
        for det in record.detections:
            key = (record.point_index, det.beacon_id, det.pixel[0].hex(), det.pixel[1].hex())
            by_bits.setdefault(key, set()).add(id(det))
    return by_bits


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_equal_pixel_bits_at_a_point_share_one_detection(sigma):
    scene = default_scene(noise=NoiseModel(sigma, quantize=True), seed=7)
    records = generate_trials(default_grid()[:3], 40, scene)
    by_bits = _detection_ids_by_bits(records)
    assert all(len(ids) == 1 for ids in by_bits.values())
    # Distinct bits, or the same bits at another point, are distinct objects.
    assert len(set().union(*by_bits.values())) == len(by_bits)
    assert len(by_bits) < sum(len(record.detections) for record in records)


# E projects exactly onto the frame's left edge, so quantized noise rounds its u
# to -0.0 in some trials and to 0.0 in others; both lie on the sensor.
EDGE_SCENE = scene_with(
    [LedBeacon("E", (-120.0, 0.0, 150.0)), LedBeacon("C", (0.0, 0.0, 150.0))],
    noise=NoiseModel(0.2, quantize=True),
    seed=3,
)


def test_a_pixel_rounded_to_minus_zero_keeps_its_sign_and_its_own_detection():
    assert project(EDGE_SCENE.beacons[0], EDGE_SCENE)[0] == (0.0, 300.0)
    records = generate_trials([(0.0, 0.0, 0.0)], 12, EDGE_SCENE)
    for record in records:
        expected = _scalar_observe(dataclasses.replace(EDGE_SCENE, seed=record.seed))
        assert _hex((d.beacon_id, *d.pixel) for d in record.detections) == expected
    by_bits = _detection_ids_by_bits(records)
    # Equal values, (-0.0, 300.0) == (0.0, 300.0), with different bits: two objects.
    edge = {key[2]: ids for key, ids in by_bits.items() if key[1] == "E" and key[3] == (300.0).hex()}
    assert sorted(edge) == ["-0x0.0p+0", "0x0.0p+0"]
    assert all(len(ids) == 1 for ids in edge.values()) and edge["-0x0.0p+0"] != edge["0x0.0p+0"]


def test_importing_the_cli_or_a_noiseless_run_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random on first use, which costs every command tens of ms.
    code = (
        "import sys, vlpkit.cli\n"
        "assert 'numpy.random' not in sys.modules\n"
        "from vlpkit.simulator import default_grid, default_scene, generate_trials\n"
        "generate_trials(default_grid(), 2, default_scene(seed=7))\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    paths = [str(Path(vlpkit.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
