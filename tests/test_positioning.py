"""Height stage, three-beacon trilateration, and the two-beacon fix with yaw."""

import io
import itertools
import math
import reprlib
from contextlib import redirect_stderr
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import vlpkit.positioning as positioning
import vlpkit.simulator as sim
from vlpkit import (
    CoincidentProjection,
    Detection,
    ImplausibleHeight,
    LedBeacon,
    Method,
    SingularGeometry,
    UnequalBeaconHeights,
    UnknownBeacon,
    VlpError,
    locate_two,
    trilaterate_three,
    widest_pair,
)
from vlpkit import cli
from vlpkit.cli import compute_fix, replicate_scene
from vlpkit.io import _record_table, read_detections_csv, write_detections_csv


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
    # puts the camera 150 cm below the beacon plane. At 0.006 mm/px a
    # ceiling offset d cm lands d * 3 / 150 / 0.006 = d / 0.3 px from centre.
    beacons = (LedBeacon("A", (0.0, 0.0, 150.0)), LedBeacon("B", (92.5, 98.5, 150.0)))
    assert math.hypot(92.5, 98.5) == pytest.approx(135.1240171102088, abs=1e-12)
    dets = [
        Detection("A", (400.0, 300.0)),
        Detection("B", (400.0 + 92.5 / 0.3, 300.0 + 98.5 / 0.3)),
    ]
    fix = locate_two(dets, beacons, intrinsics)
    assert fix.diagnostics.height_cm == pytest.approx(150.0, abs=1e-9)
    assert fix.position[2] == pytest.approx(0.0, abs=1e-9)


def test_height_halves_when_image_span_doubles(intrinsics):
    beacons = (LedBeacon("A", (0.0, 0.0, 150.0)), LedBeacon("B", (100.0, 0.0, 150.0)))

    def height(u_b):
        dets = [Detection("A", (400.0, 300.0)), Detection("B", (u_b, 300.0))]
        return locate_two(dets, beacons, intrinsics).diagnostics.height_cm

    assert height(800.0) == pytest.approx(height(600.0) / 2.0, rel=1e-12)


def test_camera_z_is_referenced_to_first_beacon(intrinsics):
    # First in id order: the detections' order does not matter.
    beacons = (LedBeacon("A", (0.0, 0.0, 150.0)), LedBeacon("B", (100.0, 0.0, 150.05)))
    dets = [Detection("A", (400.0, 300.0)), Detection("B", (600.0, 300.0))]
    for order in (dets, dets[::-1]):
        fix = locate_two(order, beacons, intrinsics)
        assert fix.position[2] == 150.0 - fix.diagnostics.height_cm


def test_coincident_projections_rejected(intrinsics, ceiling_beacons):
    same = (401.0, 301.0)
    dets = [Detection("L1", same), Detection("L2", same), Detection("L3", (500.0, 400.0))]
    with pytest.raises(CoincidentProjection):
        trilaterate_three(dets, ceiling_beacons, intrinsics)


def test_unequal_beacon_heights_rejected(intrinsics):
    beacons = (
        LedBeacon("A", (0.0, 0.0, 150.0)),
        LedBeacon("B", (100.0, 0.0, 151.0)),
        LedBeacon("C", (0.0, 100.0, 150.0)),
    )
    dets = [
        Detection("A", (400.0, 300.0)),
        Detection("B", (500.0, 300.0)),
        Detection("C", (400.0, 400.0)),
    ]
    with pytest.raises(UnequalBeaconHeights):
        trilaterate_three(dets, beacons, intrinsics)


def test_same_beacon_twice_rejected(intrinsics, ceiling_beacons):
    dets = [Detection("L1", (400.0, 300.0)), Detection("L1", (600.0, 300.0))]
    with pytest.raises(ValueError, match="distinct"):
        locate_two(dets, ceiling_beacons, intrinsics)


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
    dets[0] = Detection(dets[0].beacon_id, (bad, dets[0].pixel[1]))
    with pytest.raises(ValueError, match="non-finite"):
        trilaterate_three(dets, scene.beacons, scene.intrinsics)
    with pytest.raises(ValueError, match="non-finite"):
        locate_two(dets[:2], scene.beacons, scene.intrinsics)


# One pixel of the replicate scene's seed-7 observation moved far off the frame, its v kept.
@pytest.mark.parametrize(
    "locate, u, message",
    [
        (
            lambda dets, scene: locate_two(widest_pair(dets, scene.beacons), scene.beacons, scene.intrinsics),
            1e200,
            "beacons 'L1' and 'L3' put the camera 6.76e-196 cm below them, within the 3.0 mm focal length",
        ),
        (
            lambda dets, scene: trilaterate_three(dets, scene.beacons, scene.intrinsics),
            1e100,
            "beacons 'L1' and 'L2' put the camera 3.76e-97 cm below them, within the 3.0 mm focal length",
        ),
    ],
    ids=["two-led", "three-led"],
)
def test_a_pixel_that_puts_the_camera_within_the_focal_length_is_rejected(locate, u, message):
    scene = replicate_scene(7)
    dets = sim.observe(scene)
    dets[0] = Detection(dets[0].beacon_id, (u, dets[0].pixel[1]))
    with pytest.raises(ImplausibleHeight) as err:
        locate(dets, scene)
    assert str(err.value) == message


# Finite but huge pixels overflow the three-led squared radii and the two-led midpoint offset.
@pytest.mark.parametrize(
    "locate, huge, message",
    [
        (trilaterate_three, {"L1": (1e200, None)}, "three-led position (nan, nan, 100.0) is not finite"),
        (trilaterate_three, {"L1": (None, 1e200)}, "three-led position (nan, nan, 100.0) is not finite"),
        (
            locate_two,
            {"L1": (1.7e308, 300.0), "L2": (1.7e308, 305.0)},
            "two-led position (-inf, inf, -601.6648189186453) is not finite",
        ),
    ],
    ids=["three-led-u", "three-led-v", "two-led"],
)
def test_a_huge_pixel_that_overflows_is_rejected(locate, huge, message):
    scene = make_scene((0.0, 0.0, 0.0))
    dets = [
        Detection(d.beacon_id, tuple(c if h is None else h for c, h in zip(d.pixel, huge.get(d.beacon_id, (None, None)))))
        for d in exact_detections(scene)
    ]
    with pytest.raises(ValueError) as info:
        locate(dets[:2] if locate is locate_two else dets, scene.beacons, scene.intrinsics)
    assert str(info.value) == message


def test_three_led_rejects_a_plan_so_wide_it_overflows():
    # Pixels well inside the sensor; the squared beacon coordinates overflow.
    beacons = (
        LedBeacon("A", (-1e200, 0.0, 150.0)),
        LedBeacon("B", (1e200, 0.0, 150.0)),
        LedBeacon("C", (0.0, 1e200, 150.0)),
    )
    intrinsics = sim.default_intrinsics()
    dets = [Detection(b.id, p) for b, p in zip(beacons, [(300.0, 300.0), (500.0, 300.0), (400.0, 400.0)])]
    assert all(intrinsics.on_sensor(*d.pixel) for d in dets)
    with pytest.raises(ValueError, match="not finite"):
        trilaterate_three(dets, beacons, intrinsics)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200)
@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=3))
@example([(1.7e308, 300.0), (1.7e308, 305.0), (400.0, 300.0)])
def test_any_finite_pixels_give_a_finite_fix_or_an_error(pixels):
    scene = make_scene((0.0, 0.0, 0.0))
    dets = [Detection(b.id, p) for b, p in zip(scene.beacons, pixels)]
    for locate, used in ((trilaterate_three, dets), (locate_two, dets[:2])):
        try:
            fix = locate(used, scene.beacons, scene.intrinsics)
        except (VlpError, ValueError):
            continue
        assert all(map(math.isfinite, fix.position)), (locate.__name__, fix.position)


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
    same = (410.0, 315.0)
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
        Detection("A", (350.0, 300.0)),
        Detection("B", (450.0, 300.0)),
    ]
    with pytest.raises(UnequalBeaconHeights):
        locate_two(dets, beacons, intrinsics)


# --- pair selection ---


def test_widest_pair_prefers_longest_baseline(ceiling_beacons):
    dets = [Detection(b.id, (400.0 + i, 300.0)) for i, b in enumerate(ceiling_beacons)]
    pair = widest_pair(dets, ceiling_beacons)
    assert {pair[0].beacon_id, pair[1].beacon_id} == {"L1", "L3"}


def test_widest_pair_tie_breaks_to_smallest_ids():
    # B and C share a fixture, so A-B and A-C tie at 10 cm while B-C is zero.
    beacons = (
        LedBeacon("A", (0.0, 0.0, 150.0)),
        LedBeacon("B", (10.0, 0.0, 150.0)),
        LedBeacon("C", (10.0, 0.0, 150.0)),
    )
    dets = [Detection(b.id, (400.0, 300.0)) for b in beacons]
    pair = widest_pair(dets, beacons)
    assert (pair[0].beacon_id, pair[1].beacon_id) == ("A", "B")


def test_widest_pair_needs_two_detections(ceiling_beacons):
    with pytest.raises(ValueError):
        widest_pair([Detection("L1", (400.0, 300.0))], ceiling_beacons)


def test_widest_pair_rejects_repeated_and_unknown_beacons(ceiling_beacons):
    d1 = Detection("L1", (400.0, 300.0))
    d2 = Detection("L2", (410.0, 300.0))
    with pytest.raises(ValueError, match="distinct"):
        widest_pair([d1, d1, d2], ceiling_beacons)
    with pytest.raises(UnknownBeacon):
        widest_pair([d1, d2, Detection("L9", (420.0, 300.0))], ceiling_beacons)


# --- beacons: validated, immutable, geometry reused per detected subset ---


@pytest.mark.parametrize(
    "position",
    [(math.nan, 0.0, 150.0), (0.0, math.inf, 150.0), (0.0, 0.0, -math.inf), (0.0, 150.0), (0.0, 0.0, 150.0, 1.0), "xyz"],
)
def test_a_beacon_rejects_a_position_that_is_not_three_finite_numbers(position):
    with pytest.raises(ValueError, match="^beacon 'A': position "):
        LedBeacon("A", position)


@pytest.mark.parametrize(
    "position",
    [("1", "2", "150"), (b"1", 2, 3), (None, 0, 1), 5, b"123", (True, 0.0, 150.0), (x for x in (1.0, 2.0, 150.0))],
    ids=["text", "bytes-coordinate", "none-coordinate", "a-number", "bytes", "bool-coordinate", "generator"],
)
def test_a_beacon_names_its_id_for_a_position_that_is_not_three_numbers(position):
    with pytest.raises(ValueError) as info:
        LedBeacon("A", position)
    assert str(info.value) == f"beacon 'A': position must be 3 numbers, got {reprlib.repr(position)}"


def test_a_beacon_names_its_id_for_an_integer_too_large_for_a_float():
    with pytest.raises(ValueError, match=r"^beacon 'A': position \(1000.*, 0, 150\) is not finite$"):
        LedBeacon("A", (10**400, 0, 150))


def test_a_nan_beacon_fails_when_built_not_as_an_all_nan_fix():
    with pytest.raises(ValueError) as info:
        LedBeacon("A", (math.nan, 0.0, 150.0))
    assert str(info.value) == "beacon 'A': position (nan, 0.0, 150.0) is not finite"


def test_a_beacon_holds_a_tuple_of_plain_floats():
    beacon = LedBeacon("A", [1, np.float64(2.5), 150])
    assert beacon.position == (1.0, 2.5, 150.0)
    assert LedBeacon("A", (np.int64(1), np.float32(2.5), Fraction(301, 2))).position == (1.0, 2.5, 150.5)
    assert type(beacon.position) is tuple and all(type(c) is float for c in beacon.position)


SHIFTED_BEACONS = tuple(
    LedBeacon(b.id, (b.position[0] + 12.5, b.position[1] - 7.25, b.position[2] + 20.0)) for b in sim.DEFAULT_BEACONS
)


def _outcome(locate, dets, beacons, k, **kwargs):
    """repr of the fix, or the type and message of the error: equal only if bit-equal."""
    try:
        return repr(locate(dets, beacons, k, **kwargs))
    except (VlpError, ValueError) as err:
        return type(err).__name__, str(err)


def test_fixes_alternating_between_beacon_tuples_match_fresh_list_copies():
    # Same ids, different positions: geometry solved for one tuple never serves the other.
    scenes = [make_scene((3.0, -4.0, 0.0), 0.4, beacons) for beacons in (sim.DEFAULT_BEACONS, SHIFTED_BEACONS)]
    for _ in range(3):
        for scene in scenes:
            dets = exact_detections(scene)
            pixel = dets[1].pixel
            dets[1] = Detection(dets[1].beacon_id, (pixel[0] + 1.5, pixel[1] - 0.5))
            k = scene.intrinsics
            for beacons in (scene.beacons, list(scene.beacons)):
                pair = widest_pair(dets, beacons)
                assert pair == widest_pair(dets, list(scene.beacons))
                assert _outcome(locate_two, pair, beacons, k) == _outcome(locate_two, pair, list(scene.beacons), k)
                for mode in ("average", "first"):
                    got = _outcome(trilaterate_three, dets, beacons, k, height_pair=mode)
                    assert got == _outcome(trilaterate_three, dets, list(scene.beacons), k, height_pair=mode)
    # The fixes differ, so each came from its own beacons.
    assert len({_outcome(trilaterate_three, exact_detections(s), s.beacons, s.intrinsics) for s in scenes}) == 2


def test_changing_a_list_after_building_a_beacon_from_it_moves_neither_the_beacon_nor_a_fix(intrinsics):
    position = [0.0, 0.0, 150.0]
    beacons = (LedBeacon("A", position), LedBeacon("B", (100.0, 0.0, 150.0)))
    dets = [Detection("A", (400.0, 300.0)), Detection("B", (600.0, 300.0))]
    before = repr(locate_two(dets, beacons, intrinsics))
    position[0] = -100.0
    assert beacons[0].position == (0.0, 0.0, 150.0)
    assert repr(locate_two(dets, beacons, intrinsics)) == before
    assert repr(locate_two(dets, list(beacons), intrinsics)) == before


def test_fresh_lists_of_the_same_beacons_solve_each_subset_once(monkeypatch):
    solved = []

    def counting(ids, index):
        solved.append(ids)
        return solve(ids, index)

    solve = positioning._solve_subset
    monkeypatch.setattr(positioning, "_solve_subset", counting)
    monkeypatch.setattr(positioning, "_last", None)
    scene = make_scene((3.0, -4.0, 0.0), 0.4)
    dets = exact_detections(scene)
    for _ in range(100):
        trilaterate_three(dets, list(scene.beacons), scene.intrinsics)
        locate_two(widest_pair(dets, list(scene.beacons)), list(scene.beacons), scene.intrinsics)
    assert solved == [("L1", "L2", "L3"), ("L1", "L3")]


_K = sim.default_intrinsics()
_PLAN = (LedBeacon("A", (0.0, 0.0, 150.0)), LedBeacon("B", (100.0, 0.0, 150.0)), LedBeacon("C", (0.0, 100.0, 150.0)))
_TILTED = (_PLAN[0], LedBeacon("B", (100.0, 0.0, 151.0)), _PLAN[2])
_COLLINEAR = (_PLAN[0], _PLAN[1], LedBeacon("C", (50.0, 0.0, 150.0)))
_DUPLICATE = (*_PLAN, LedBeacon("A", (5.0, 5.0, 150.0)))


def _dets(*specs):
    return [Detection(bid, (u, v)) for bid, u, v in specs]


# Each row fails two checks; the one listed first in the estimators' order surfaces.
FAILURE_ORDER = [
    # height_pair before a duplicate beacon id
    (trilaterate_three, _dets(("A", 400.0, 300.0)), _DUPLICATE, {"height_pair": "last"},
     ValueError, "height_pair must be 'average' or 'first', got 'last'"),
    # duplicate beacon id before the detection count
    (locate_two, _dets(("A", 400.0, 300.0)), _DUPLICATE, {}, ValueError, "duplicate beacon id 'A'"),
    (widest_pair, _dets(("A", 400.0, 300.0)), _DUPLICATE, None, ValueError, "duplicate beacon id 'A'"),
    # detection count before distinct ids
    (trilaterate_three, _dets(("A", 400.0, 300.0), ("A", 500.0, 300.0)), _PLAN, {},
     ValueError, "expected 3 detections, got 2"),
    # distinct ids before unknown ids
    (locate_two, _dets(("Z", 400.0, 300.0), ("Z", 500.0, 300.0)), _PLAN, {},
     ValueError, "detections must reference distinct beacons, got ['Z', 'Z']"),
    # unknown id before a non-finite pixel
    (trilaterate_three, _dets(("A", math.nan, 300.0), ("B", 500.0, 300.0), ("Q", 400.0, 400.0)), _PLAN, {},
     UnknownBeacon, "beacon id(s) ['Q'] are not in the beacon set"),
    (widest_pair, _dets(("A", math.nan, 300.0), ("B", 500.0, 300.0), ("Q", 400.0, 400.0)), _PLAN, None,
     UnknownBeacon, "beacon id(s) ['Q'] are not in the beacon set"),
    # non-finite pixel before unequal heights, and before too few detections in widest_pair
    (locate_two, _dets(("A", 400.0, math.inf), ("B", 500.0, 300.0)), _TILTED, {},
     ValueError, "beacon 'A' has non-finite pixel (400.0, inf)"),
    (widest_pair, _dets(("A", 400.0, math.inf)), _PLAN, None, ValueError, "beacon 'A' has non-finite pixel (400.0, inf)"),
    # unequal heights before a coincident projection
    (trilaterate_three, _dets(("A", 400.0, 300.0), ("B", 400.0, 300.0), ("C", 400.0, 400.0)), _TILTED, {},
     UnequalBeaconHeights, "beacon heights spread 1.0000 cm exceeds 0.1 cm"),
    (locate_two, _dets(("A", 400.0, 300.0), ("B", 400.0, 300.0)), _TILTED, {},
     UnequalBeaconHeights, "beacon heights spread 1.0000 cm exceeds 0.1 cm"),
    # a coincident projection, pair by pair in combinations order, before collinear beacons
    (trilaterate_three, _dets(("A", 400.0, 300.0), ("B", 450.0, 300.0), ("C", 450.0, 300.0)), _COLLINEAR, {},
     CoincidentProjection, "beacons 'B' and 'C' project 0 mm apart"),
    (trilaterate_three, _dets(("A", 450.0, 300.0), ("B", 400.0, 300.0), ("C", 450.0, 300.0)), _COLLINEAR, {},
     CoincidentProjection, "beacons 'A' and 'C' project 0 mm apart"),
    # collinear beacons before a position that overflows
    (trilaterate_three, _dets(("A", 1e200, 300.0), ("B", 450.0, 300.0), ("C", 500.0, 300.0)), _COLLINEAR, {},
     SingularGeometry, "beacons ['A', 'B', 'C'] are collinear or coincident in plan"),
    # a position that overflows before a pair that puts the camera within the focal length
    (trilaterate_three, _dets(("A", 1e200, 300.0), ("B", 450.0, 300.0), ("C", 400.0, 400.0)), _PLAN, {},
     ValueError, "three-led position (nan, nan, -60.81851067789202) is not finite"),
    # the same for two-led: the midpoint of two beacons near the float limit overflows
    (locate_two, _dets(("A", 0.0, 0.0), ("B", 800.0, 600.0)),
     (LedBeacon("A", (1e308, 0.0, 150.0)), LedBeacon("B", (1e308, 0.5, 150.0))), {},
     ValueError, "two-led position (inf, 0.25, 149.75) is not finite"),
]


@pytest.mark.parametrize("row", range(len(FAILURE_ORDER)))
def test_failure_order_holds_on_first_and_repeated_calls(row):
    locate, dets, beacons, kwargs, error, message = FAILURE_ORDER[row]
    args = (dets, beacons) if kwargs is None else (dets, beacons, _K)
    for _ in range(2):
        with pytest.raises(error) as info:
            locate(*args, **(kwargs or {}))
        assert type(info.value) is error and str(info.value) == message


def test_a_duplicate_beacon_id_raises_on_every_call(intrinsics):
    dets = _dets(("A", 400.0, 300.0), ("B", 500.0, 300.0), ("C", 400.0, 400.0))
    for _ in range(3):
        with pytest.raises(ValueError, match="duplicate beacon id 'A'"):
            trilaterate_three(dets, _DUPLICATE, intrinsics)
        with pytest.raises(ValueError, match="duplicate beacon id 'A'"):
            locate_two(dets[:2], _DUPLICATE, intrinsics)
        with pytest.raises(ValueError, match="duplicate beacon id 'A'"):
            widest_pair(dets, _DUPLICATE)


noise = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=60)
@given(
    st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
    st.floats(-math.pi, math.pi),
    st.lists(st.tuples(noise, noise), min_size=3, max_size=3),
)
def test_noisy_fixes_through_a_beacon_tuple_match_a_list_bit_for_bit(xy, yaw, offsets):
    scene = make_scene((*xy, 0.0), yaw)
    dets = [Detection(d.beacon_id, (d.pixel[0] + du, d.pixel[1] + dv)) for d, (du, dv) in zip(exact_detections(scene), offsets)]
    k = scene.intrinsics
    for beacons in (scene.beacons, list(scene.beacons)):
        assert widest_pair(dets, beacons) == widest_pair(dets, list(scene.beacons))
    for pair in (dets[:2], dets[1:], widest_pair(dets, scene.beacons)):
        assert _outcome(locate_two, pair, scene.beacons, k) == _outcome(locate_two, pair, list(scene.beacons), k)
    for mode in ("average", "first"):
        got = _outcome(trilaterate_three, dets, scene.beacons, k, height_pair=mode)
        assert got == _outcome(trilaterate_three, dets, list(scene.beacons), k, height_pair=mode)


# --- against an independent least-squares pose solve ---

# Anywhere under the default ceiling, with the beacons 40 to 150 cm above the camera.
poses = st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0), st.floats(0.0, 110.0), st.floats(-math.pi, math.pi))


@settings(max_examples=30)
@given(poses, st.sampled_from([(0, 1), (0, 2), (1, 2)]), st.lists(st.tuples(noise, noise), min_size=2, max_size=2))
def test_two_led_is_the_exact_pose_solve_of_its_pair(pose, pair, offsets):
    # Two beacons give four equations in four unknowns, so even noisy pixels have an exact pose.
    scene = make_scene(pose[:3], pose[3])
    beacons = [scene.beacons[i] for i in pair]
    exact = [sim.project(b, scene)[0] for b in beacons]
    dets = [Detection(b.id, (u + du, v + dv)) for b, (u, v), (du, dv) in zip(beacons, exact, offsets)]
    fix = locate_two(dets, beacons, scene.intrinsics)
    *position, yaw = oracles.least_squares_pose(beacons, [d.pixel for d in dets], scene.intrinsics)
    assert max(map(abs, np.subtract(fix.position, position))) < 1e-9
    assert abs(math.remainder(fix.diagnostics.yaw_rad - yaw, math.tau)) < 1e-9


@settings(max_examples=20)
@given(poses, st.sampled_from(["average", "first"]))
def test_noiseless_three_led_is_the_pose_solve_of_its_three_beacons(pose, height_pair):
    scene = make_scene(pose[:3], pose[3])
    dets = exact_detections(scene)
    fix = trilaterate_three(dets, scene.beacons, scene.intrinsics, height_pair=height_pair)
    *position, _ = oracles.least_squares_pose(scene.beacons, [d.pixel for d in dets], scene.intrinsics)
    assert max(map(abs, np.subtract(fix.position, position))) < 1e-6


def test_least_squares_beats_two_led_beats_three_led_in_planar_rms_at_seed_7():
    # The replicate grid's 432 seed-7 trials, located with the true principal point so no bias
    # is left: the least-squares solve on all six image coordinates, the two-led closed form
    # on its widest pair's four, and the three-led closed form (0.162, 0.203 and 0.831 cm).
    from vlpkit.cli import DEFAULT_TRIALS_PER_POINT, compute_fix, replicate_scene

    scene = replicate_scene(7)
    k = scene.intrinsics.with_principal_point(*scene.true_principal_point)
    records = sim.generate_trials(sim.default_grid(), DEFAULT_TRIALS_PER_POINT, scene)
    assert len(records) == 432
    planar = {"least squares": [], "two-led": [], "three-led": []}
    for record in records:
        assert [d.beacon_id for d in record.detections] == [b.id for b in scene.beacons]
        truth = record.pose.position[:2]
        x, y, _, _ = oracles.least_squares_pose(scene.beacons, [d.pixel for d in record.detections], k)
        planar["least squares"].append(np.subtract((x, y), truth))
        for method in (Method.TWO_LED, Method.THREE_LED):
            fix = compute_fix(record.detections, scene.beacons, k, method)
            planar[method.value].append(np.subtract(fix.position[:2], truth))
    rms = {name: math.sqrt(np.mean(np.sum(np.square(errors), axis=1))) for name, errors in planar.items()}
    assert rms["least squares"] < rms["two-led"] < rms["three-led"]


@settings(max_examples=50)
@given(
    st.lists(st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)), min_size=2, max_size=3),
    poses,
    st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
    st.sampled_from([0.006, 0.0045]),
)
def test_least_squares_pose_inverts_project(plan, pose, offset, pitch_j):
    # The oracle against the projection it inverts: 2 or 3 beacons on the default ceiling, the
    # principal point both true and corrected, and square or non-square pixels (pitch_i 0.006).
    assume(all(math.dist(p, q) >= 10.0 for p, q in itertools.combinations(plan, 2)))
    beacons = [LedBeacon(f"B{n}", (x, y, 150.0)) for n, (x, y) in enumerate(plan)]
    pp = (400.0 + offset[0], 300.0 + offset[1])
    k = replace(sim.default_intrinsics(), pitch_j=pitch_j).with_principal_point(*pp)
    scene = sim.SceneConfig(tuple(beacons), sim.CameraPose(pose[:3], pose[3]), k, true_principal_point=pp)
    *position, yaw = oracles.least_squares_pose(beacons, [sim.project(b, scene)[0] for b in beacons], k)
    assert max(map(abs, np.subtract(position, pose[:3]))) < 1e-9
    assert abs(math.remainder(yaw - pose[3], math.tau)) < 1e-9


# --- generated triangles: any non-collinear ceiling triangle, pose, yaw and principal point ---

MIN_PLAN_AREA_CM2 = 50.0
# Every pixel lies within this radius of the principal point, which is at most 20 px off the
# centre, so each stays on the 800x600 sensor when the camera turns about its axis.
TURN_SAFE_RADIUS_PX = 250.0


@st.composite
def triangle_scenes(draw):
    """A noiseless scene of three beacons on one ceiling, each on the sensor at any yaw.

    Each beacon is the back-projection of a pixel drawn within TURN_SAFE_RADIUS_PX of the
    principal point, which is both the true and the corrected one.
    """
    pp = (draw(st.floats(380.0, 420.0)), draw(st.floats(280.0, 320.0)))
    k = sim.default_intrinsics().with_principal_point(*pp)
    x, y, z = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)), draw(st.floats(-50.0, 50.0))
    height, yaw = draw(st.floats(40.0, 300.0)), draw(st.floats(-math.pi, math.pi))
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    beacons = []
    for n in range(3):
        r = TURN_SAFE_RADIUS_PX * math.sqrt(draw(st.floats(0.0, 1.0)))
        theta = draw(st.floats(-math.pi, math.pi))
        # Camera-frame offset in cm: the pixel's image offset scaled by height over focal length.
        rx = r * math.cos(theta) * k.pitch_i * height / k.focal_length
        ry = r * math.sin(theta) * k.pitch_j * height / k.focal_length
        beacons.append(LedBeacon(f"B{n}", (x + cos_y * rx - sin_y * ry, y + sin_y * rx + cos_y * ry, z + height)))
    (x1, y1, _), (x2, y2, _), (x3, y3, _) = (b.position for b in beacons)
    assume(abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)) / 2.0 >= MIN_PLAN_AREA_CM2)
    return sim.SceneConfig(tuple(beacons), sim.CameraPose((x, y, z), yaw), k, true_principal_point=pp)


def _on_sensor_detections(scene):
    projected = [sim.project(b, scene) for b in scene.beacons]
    assert all(on for _, on in projected)
    return [Detection(b.id, pixel) for b, (pixel, _) in zip(scene.beacons, projected)]


def _noisy(dets, offsets):
    return [Detection(d.beacon_id, (d.pixel[0] + du, d.pixel[1] + dv)) for d, (du, dv) in zip(dets, offsets)]


@settings(max_examples=50)
@given(triangle_scenes(), st.sampled_from([Method.TWO_LED, Method.THREE_LED]))
def test_a_noiseless_fix_round_trips_on_any_triangle(scene, method):
    fix = compute_fix(_on_sensor_detections(scene), scene.beacons, scene.intrinsics, method)
    assert max(map(abs, np.subtract(fix.position, scene.camera_pose.position))) < 1e-6


@settings(max_examples=50)
@given(triangle_scenes(), st.floats(-math.pi, math.pi), st.lists(st.tuples(noise, noise), min_size=3, max_size=3))
def test_three_led_does_not_move_when_the_camera_turns(scene, turn, offsets):
    # Turning the camera by `turn` turns each image point by -turn about the principal point,
    # and the pixel noise turns with it.
    c, s = math.cos(turn), math.sin(turn)
    turned_scene = replace(scene, camera_pose=sim.CameraPose(scene.camera_pose.position, scene.camera_pose.yaw_rad + turn))
    dets = _noisy(_on_sensor_detections(scene), offsets)
    turned = _noisy(_on_sensor_detections(turned_scene), [(c * du + s * dv, -s * du + c * dv) for du, dv in offsets])
    fix = trilaterate_three(dets, scene.beacons, scene.intrinsics)
    fix_turned = trilaterate_three(turned, scene.beacons, scene.intrinsics)
    assert max(map(abs, np.subtract(fix_turned.position, fix.position))) < 1e-6


@settings(max_examples=50)
@given(
    triangle_scenes(),
    st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), st.floats(-100.0, 100.0)),
    st.lists(st.tuples(noise, noise), min_size=3, max_size=3),
    st.sampled_from([Method.TWO_LED, Method.THREE_LED]),
)
def test_moving_beacons_and_camera_together_moves_the_fix_as_much(scene, shift, offsets, method):
    # The camera moves with the beacons, so it sees the same pixels: only the beacons change.
    dets = _noisy(_on_sensor_detections(scene), offsets)
    moved = tuple(LedBeacon(b.id, tuple(np.add(b.position, shift).tolist())) for b in scene.beacons)
    fix = compute_fix(dets, scene.beacons, scene.intrinsics, method)
    fix_moved = compute_fix(dets, moved, scene.intrinsics, method)
    assert max(map(abs, np.subtract(fix_moved.position, np.add(fix.position, shift)))) < 1e-6


@settings(max_examples=25)
@given(
    triangle_scenes(),
    st.sampled_from([Method.TWO_LED, Method.THREE_LED]),
    st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)), max_size=2),
    st.integers(1, 12),
    st.integers(0, 2**32),
)
def test_a_quantized_scene_locates_alike_from_its_detections_file_and_in_memory(
    tmp_path_factory, scene, method, offsets, trials, seed
):
    # Quantized pixels are whole numbers, which the six-decimal text holds exactly. A point
    # away from the scene's pose may lose beacons off the frame, so some trials fail; a trial
    # that loses all of them has no row in the file, so it is left out of both.
    x, y, z = scene.camera_pose.position
    grid = [(x, y, z), *((x + dx, y + dy, z) for dx, dy in offsets)]
    scene = replace(scene, noise=sim.NoiseModel(pixel_sigma=0.5, quantize=True), seed=seed)
    records = [rec for rec in sim.generate_trials(grid, trials, scene) if rec.detections]
    work = tmp_path_factory.mktemp("files")
    write_detections_csv(records, work / "detections.csv")
    tables = {"file": read_detections_csv(work / "detections.csv"), "memory": _record_table(records)}
    fixes, warnings = {}, {}
    for name, table in tables.items():
        err = io.StringIO()
        with redirect_stderr(err):
            fixes[name] = cli._locate(table, scene.beacons, scene.intrinsics, method, "average", work / f"{name}.csv")
        warnings[name] = err.getvalue()
    assert (work / "file.csv").read_bytes() == (work / "memory.csv").read_bytes()
    assert warnings["file"] == warnings["memory"]
    got, want = fixes["file"], fixes["memory"]
    assert got.keys == want.keys
    for a, b in [(got.positions, want.positions), (got.heights, want.heights)]:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
