"""Height stage, three-beacon trilateration, and the two-beacon fix with yaw."""

import math

import pytest

import vlpkit.simulator as sim
from vlpkit import (
    CoincidentProjection,
    Detection,
    ImagePoint,
    LedBeacon,
    Method,
    PixelPoint,
    SingularGeometry,
    UnequalBeaconHeights,
    UnknownBeacon,
    estimate_height,
    image_to_pixel,
    locate_two,
    trilaterate_three,
    widest_pair,
)


def exact_detections(scene):
    """Noiseless detections straight from the projection model."""
    return [Detection(b.id, sim.project(b, scene)[0]) for b in scene.beacons]


def make_scene(position, yaw=0.0, beacons=sim.DEFAULT_BEACONS):
    return sim.SceneConfig(
        beacons=beacons,
        camera_pose=sim.CameraPose(position, yaw),
        intrinsics=sim.default_intrinsics(),
    )


# --- height stage ---


def test_height_from_magnification_ratio(intrinsics):
    # A 135.124 cm ceiling baseline seen 2.70248 mm wide through a 3 mm lens
    # puts the camera 150 cm below the beacon plane.
    led_a = LedBeacon("A", (0.0, 0.0, 150.0))
    led_b = LedBeacon("B", (92.5, 98.5, 150.0))
    d_world = math.hypot(92.5, 98.5)
    assert d_world == pytest.approx(135.1240171102088, abs=1e-12)
    img_a = ImagePoint(0.0, 0.0)
    img_b = ImagePoint(92.5 * 10.0 * 3.0 / 1500.0, 98.5 * 10.0 * 3.0 / 1500.0)
    height, cam_z = estimate_height((img_a, led_a), (img_b, led_b), intrinsics)
    assert height == pytest.approx(150.0, abs=1e-9)
    assert cam_z == pytest.approx(0.0, abs=1e-9)


def test_height_halves_when_image_span_doubles(intrinsics):
    led_a = LedBeacon("A", (0.0, 0.0, 150.0))
    led_b = LedBeacon("B", (100.0, 0.0, 150.0))
    near = estimate_height((ImagePoint(0.0, 0.0), led_a), (ImagePoint(4.0, 0.0), led_b), intrinsics)
    far = estimate_height((ImagePoint(0.0, 0.0), led_a), (ImagePoint(2.0, 0.0), led_b), intrinsics)
    assert near[0] == pytest.approx(far[0] / 2.0, rel=1e-12)


def test_camera_z_is_referenced_to_first_beacon(intrinsics):
    led_a = LedBeacon("A", (0.0, 0.0, 150.0))
    led_b = LedBeacon("B", (100.0, 0.0, 150.05))
    pair_a = (ImagePoint(0.0, 0.0), led_a)
    pair_b = (ImagePoint(2.0, 0.0), led_b)
    height, z_ab = estimate_height(pair_a, pair_b, intrinsics)
    _, z_ba = estimate_height(pair_b, pair_a, intrinsics)
    assert z_ab == 150.0 - height
    assert z_ba == 150.05 - height


def test_coincident_projections_rejected(intrinsics):
    led_a = LedBeacon("A", (0.0, 0.0, 150.0))
    led_b = LedBeacon("B", (100.0, 0.0, 150.0))
    with pytest.raises(CoincidentProjection):
        estimate_height((ImagePoint(1.0, 1.0), led_a), (ImagePoint(1.0, 1.0), led_b), intrinsics)


def test_unequal_beacon_heights_rejected(intrinsics):
    led_a = LedBeacon("A", (0.0, 0.0, 150.0))
    led_b = LedBeacon("B", (100.0, 0.0, 151.0))
    with pytest.raises(UnequalBeaconHeights):
        estimate_height((ImagePoint(0.0, 0.0), led_a), (ImagePoint(2.0, 0.0), led_b), intrinsics)


def test_same_beacon_twice_rejected(intrinsics):
    led = LedBeacon("A", (0.0, 0.0, 150.0))
    with pytest.raises(ValueError):
        estimate_height((ImagePoint(0.0, 0.0), led), (ImagePoint(2.0, 0.0), led), intrinsics)


# --- three-beacon fixes ---


def test_three_led_recovers_position_straight_down():
    scene = make_scene((25.0, -15.0, 0.0))
    fix = trilaterate_three(exact_detections(scene), scene.beacons, scene.intrinsics)
    assert fix.method is Method.THREE_LED
    assert fix.position[0] == pytest.approx(25.0, abs=1e-9)
    assert fix.position[1] == pytest.approx(-15.0, abs=1e-9)
    assert fix.position[2] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("yaw_deg", [0.0, 30.0, -135.0, 178.0])
def test_three_led_fix_is_yaw_invariant(yaw_deg):
    # Radii from the principal point do not change when the camera spins.
    scene = make_scene((10.0, 5.0, 20.0), yaw=math.radians(yaw_deg))
    fix = trilaterate_three(exact_detections(scene), scene.beacons, scene.intrinsics)
    assert fix.position[0] == pytest.approx(10.0, abs=1e-8)
    assert fix.position[1] == pytest.approx(5.0, abs=1e-8)
    assert fix.position[2] == pytest.approx(20.0, abs=1e-8)


def test_three_led_translation_equivariance():
    shift = (13.25, -42.5, 0.0)
    scene = make_scene((25.0, -15.0, 0.0))
    moved_beacons = tuple(
        LedBeacon(b.id, (b.position[0] + shift[0], b.position[1] + shift[1], b.position[2]))
        for b in scene.beacons
    )
    moved = sim.SceneConfig(
        beacons=moved_beacons,
        camera_pose=sim.CameraPose((25.0 + shift[0], -15.0 + shift[1], 0.0)),
        intrinsics=scene.intrinsics,
    )
    fix = trilaterate_three(exact_detections(scene), scene.beacons, scene.intrinsics)
    fix_moved = trilaterate_three(exact_detections(moved), moved.beacons, moved.intrinsics)
    assert fix_moved.position[0] == pytest.approx(fix.position[0] + shift[0], abs=1e-9)
    assert fix_moved.position[1] == pytest.approx(fix.position[1] + shift[1], abs=1e-9)


def test_three_led_diagnostics_carry_height_and_radii():
    scene = make_scene((0.0, 0.0, 0.0))
    fix = trilaterate_three(exact_detections(scene), scene.beacons, scene.intrinsics)
    diag = fix.diagnostics
    assert diag is not None
    assert diag.height_cm == pytest.approx(150.0, abs=1e-9)
    assert fix.position[2] == 150.0 - diag.height_cm
    assert diag.yaw_rad is None


def test_three_led_detection_order_does_not_matter():
    scene = make_scene((25.0, -15.0, 0.0))
    dets = exact_detections(scene)
    fix_fwd = trilaterate_three(dets, scene.beacons, scene.intrinsics)
    fix_rev = trilaterate_three(list(reversed(dets)), scene.beacons, scene.intrinsics)
    assert fix_fwd.position == fix_rev.position


def test_height_pair_modes_agree_without_noise():
    scene = make_scene((25.0, -15.0, 0.0))
    dets = exact_detections(scene)
    fix_avg = trilaterate_three(dets, scene.beacons, scene.intrinsics, height_pair="average")
    fix_first = trilaterate_three(dets, scene.beacons, scene.intrinsics, height_pair="first")
    assert fix_avg.position[0] == pytest.approx(fix_first.position[0], abs=1e-9)
    assert fix_avg.diagnostics.height_cm == pytest.approx(
        fix_first.diagnostics.height_cm, abs=1e-9
    )


def test_height_pair_modes_differ_under_noise():
    scene = sim.SceneConfig(
        beacons=sim.DEFAULT_BEACONS,
        camera_pose=sim.CameraPose((25.0, -15.0, 0.0)),
        intrinsics=sim.default_intrinsics(),
        noise=sim.NoiseModel(pixel_sigma=1.0),
        seed=11,
    )
    dets = sim.observe(scene)
    assert len(dets) == 3
    fix_avg = trilaterate_three(dets, scene.beacons, scene.intrinsics, height_pair="average")
    fix_first = trilaterate_three(dets, scene.beacons, scene.intrinsics, height_pair="first")
    assert fix_avg.diagnostics.height_cm != fix_first.diagnostics.height_cm


def test_height_pair_rejects_unknown_mode():
    scene = make_scene((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        trilaterate_three(
            exact_detections(scene), scene.beacons, scene.intrinsics, height_pair="median"
        )


def test_collinear_beacons_raise_singular_geometry(intrinsics):
    beacons = (
        LedBeacon("A", (-40.0, -40.0, 150.0)),
        LedBeacon("B", (0.0, 0.0, 150.0)),
        LedBeacon("C", (35.0, 35.0, 150.0)),
    )
    scene = sim.SceneConfig(
        beacons=beacons,
        camera_pose=sim.CameraPose((5.0, -5.0, 0.0)),
        intrinsics=intrinsics,
    )
    with pytest.raises(SingularGeometry):
        trilaterate_three(exact_detections(scene), beacons, intrinsics)


def test_three_led_unknown_beacon_and_count_checks(intrinsics, ceiling_beacons):
    scene = make_scene((0.0, 0.0, 0.0))
    dets = exact_detections(scene)
    with pytest.raises(ValueError):
        trilaterate_three(dets[:2], ceiling_beacons, intrinsics)
    bad = [Detection("L9", dets[0].pixel), dets[1], dets[2]]
    with pytest.raises(UnknownBeacon):
        trilaterate_three(bad, ceiling_beacons, intrinsics)
    with pytest.raises(ValueError):
        trilaterate_three([dets[0], dets[0], dets[1]], ceiling_beacons, intrinsics)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_pixel_rejected_by_both_estimators(bad):
    scene = make_scene((0.0, 0.0, 0.0))
    dets = exact_detections(scene)
    dets[0] = Detection(dets[0].beacon_id, PixelPoint(bad, dets[0].pixel.v))
    with pytest.raises(ValueError, match="non-finite"):
        trilaterate_three(dets, scene.beacons, scene.intrinsics)
    with pytest.raises(ValueError, match="non-finite"):
        locate_two(dets[:2], scene.beacons, scene.intrinsics)


# --- two-beacon fixes ---


def test_two_led_midpoint_directly_overhead(intrinsics):
    beacons = (
        LedBeacon("A", (-20.0, 7.0, 150.0)),
        LedBeacon("B", (20.0, 7.0, 150.0)),
    )
    scene = sim.SceneConfig(
        beacons=beacons,
        camera_pose=sim.CameraPose((0.0, 7.0, 0.0)),
        intrinsics=intrinsics,
    )
    fix = locate_two(exact_detections(scene), beacons, intrinsics)
    assert fix.method is Method.TWO_LED
    assert fix.position[0] == pytest.approx(0.0, abs=1e-12)
    assert fix.position[1] == pytest.approx(7.0, abs=1e-12)
    assert fix.position[2] == pytest.approx(0.0, abs=1e-12)
    assert fix.diagnostics.yaw_rad == pytest.approx(0.0, abs=1e-12)


def test_two_led_recovers_pose_with_yaw():
    yaw = math.radians(30.0)
    scene = make_scene((25.0, -15.0, 0.0), yaw=yaw, beacons=sim.DEFAULT_BEACONS[:2])
    fix = locate_two(exact_detections(scene), scene.beacons, scene.intrinsics)
    assert fix.position[0] == pytest.approx(25.0, abs=1e-9)
    assert fix.position[1] == pytest.approx(-15.0, abs=1e-9)
    assert fix.diagnostics.yaw_rad == pytest.approx(yaw, abs=1e-12)


@pytest.mark.parametrize("yaw_deg", [-179.0, -90.0, 45.0, 120.0, 180.0])
def test_two_led_yaw_recovered_across_the_circle(yaw_deg):
    yaw = math.radians(yaw_deg)
    scene = make_scene((5.0, 10.0, 40.0), yaw=yaw, beacons=(sim.DEFAULT_BEACONS[0], sim.DEFAULT_BEACONS[2]))
    fix = locate_two(exact_detections(scene), scene.beacons, scene.intrinsics)
    wrapped_diff = math.remainder(fix.diagnostics.yaw_rad - yaw, math.tau)
    assert wrapped_diff == pytest.approx(0.0, abs=1e-9)
    assert -math.pi < fix.diagnostics.yaw_rad <= math.pi
    assert fix.position[0] == pytest.approx(5.0, abs=1e-8)
    assert fix.position[1] == pytest.approx(10.0, abs=1e-8)


def test_two_led_baseline_need_not_be_axis_aligned(intrinsics):
    # Near-vertical ceiling baseline; the fix references the world baseline
    # angle, so nothing special happens here.
    beacons = (
        LedBeacon("A", (-46.5, -49.5, 150.0)),
        LedBeacon("B", (-46.0, -42.0, 150.0)),
    )
    yaw = math.radians(-72.0)
    scene = sim.SceneConfig(
        beacons=beacons,
        camera_pose=sim.CameraPose((-30.0, -20.0, 10.0), yaw),
        intrinsics=intrinsics,
    )
    fix = locate_two(exact_detections(scene), beacons, intrinsics)
    assert fix.position[0] == pytest.approx(-30.0, abs=1e-8)
    assert fix.position[1] == pytest.approx(-20.0, abs=1e-8)
    assert fix.position[2] == pytest.approx(10.0, abs=1e-8)
    assert fix.diagnostics.yaw_rad == pytest.approx(yaw, abs=1e-10)


def test_two_led_diagnostics_report_pair_geometry(intrinsics):
    beacons = (
        LedBeacon("A", (0.0, 0.0, 150.0)),
        LedBeacon("B", (92.5, 98.5, 150.0)),
    )
    scene = sim.SceneConfig(
        beacons=beacons,
        camera_pose=sim.CameraPose((0.0, 0.0, 0.0)),
        intrinsics=intrinsics,
    )
    fix = locate_two(exact_detections(scene), beacons, intrinsics)
    diag = fix.diagnostics
    assert diag.world_pair_distance_cm == pytest.approx(135.1240171102088, abs=1e-9)
    assert diag.height_cm == pytest.approx(150.0, abs=1e-9)
    # Image distance consistent with the magnification: d * 10 / d_img * f = H * 10.
    assert diag.world_pair_distance_cm * 10.0 / diag.image_pair_distance_mm * 3.0 == (
        pytest.approx(1500.0, abs=1e-6)
    )


def test_two_led_error_paths(intrinsics, ceiling_beacons):
    scene = make_scene((0.0, 0.0, 0.0))
    dets = exact_detections(scene)
    with pytest.raises(ValueError):
        locate_two(dets, ceiling_beacons, intrinsics)  # three detections
    with pytest.raises(UnknownBeacon):
        locate_two([Detection("L9", dets[0].pixel), dets[1]], ceiling_beacons, intrinsics)
    same = PixelPoint(410.0, 315.0)
    with pytest.raises(CoincidentProjection):
        locate_two(
            [Detection("L1", same), Detection("L2", same)], ceiling_beacons, intrinsics
        )


def test_two_led_rejects_unequal_heights(intrinsics):
    beacons = (
        LedBeacon("A", (-20.0, 0.0, 150.0)),
        LedBeacon("B", (20.0, 0.0, 149.0)),
    )
    dets = [
        Detection("A", image_to_pixel(ImagePoint(-0.4, 0.0), intrinsics)),
        Detection("B", image_to_pixel(ImagePoint(0.4, 0.0), intrinsics)),
    ]
    with pytest.raises(UnequalBeaconHeights):
        locate_two(dets, beacons, intrinsics)


# --- pair selection ---


def test_widest_pair_prefers_longest_baseline(ceiling_beacons):
    dets = [Detection(b.id, PixelPoint(400.0 + i, 300.0)) for i, b in enumerate(ceiling_beacons)]
    pair = widest_pair(dets, ceiling_beacons)
    assert {pair[0].beacon_id, pair[1].beacon_id} == {"L1", "L3"}


def test_widest_pair_tie_breaks_to_smallest_ids():
    # B and C share a fixture, so A-B and A-C tie at 10 cm while B-C is zero.
    beacons = (
        LedBeacon("A", (0.0, 0.0, 150.0)),
        LedBeacon("B", (10.0, 0.0, 150.0)),
        LedBeacon("C", (10.0, 0.0, 150.0)),
    )
    dets = [Detection(b.id, PixelPoint(400.0, 300.0)) for b in beacons]
    pair = widest_pair(dets, beacons)
    assert (pair[0].beacon_id, pair[1].beacon_id) == ("A", "B")


def test_widest_pair_needs_two_detections(ceiling_beacons):
    with pytest.raises(ValueError):
        widest_pair([Detection("L1", PixelPoint(400.0, 300.0))], ceiling_beacons)


def test_widest_pair_rejects_repeated_and_unknown_beacons(ceiling_beacons):
    d1 = Detection("L1", PixelPoint(400.0, 300.0))
    d2 = Detection("L2", PixelPoint(410.0, 300.0))
    with pytest.raises(ValueError, match="distinct"):
        widest_pair([d1, d1, d2], ceiling_beacons)
    with pytest.raises(UnknownBeacon):
        widest_pair([d1, d2, Detection("L9", PixelPoint(420.0, 300.0))], ceiling_beacons)
