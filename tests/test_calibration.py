"""Circle fitting, both principal-point calibrations, and the enclosing circle."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import vlpkit.calibration as calibration
import vlpkit.simulator as sim
from vlpkit import (
    CameraPose,
    DegenerateCircle,
    Detection,
    EmptyInput,
    InsufficientTracks,
    LedBeacon,
    LengthMismatch,
    Method,
    NoiseModel,
    calibrate_dispersion,
    calibrate_rotation,
    default_intrinsics,
    default_scene,
    fit_circle,
    min_enclosing_circle,
    rotation_sweep,
    trilaterate_three,
)
from vlpkit.cli import compute_fix
from vlpkit.simulator import SWEEP_ANGLES_12

TRUE_PP = (406.3, 295.9)


def circle_points(cx, cy, r, n=12, phase=0.0):
    return [
        (cx + r * math.cos(phase + k * math.tau / n), cy + r * math.sin(phase + k * math.tau / n))
        for k in range(n)
    ]


# --- circle fitting ---


def test_fit_circle_three_point_hand_case():
    # Circumcircle of (0,0), (2,0), (1,1) is centred at (1, 0) with radius 1.
    fit = fit_circle([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
    assert fit.center[0] == pytest.approx(1.0, abs=1e-12)
    assert fit.center[1] == pytest.approx(0.0, abs=1e-12)
    assert fit.radius == pytest.approx(1.0, abs=1e-12)
    assert fit.rms_residual == pytest.approx(0.0, abs=1e-9)


def test_fit_circle_recovers_exact_circle():
    fit = fit_circle(circle_points(413.2, 295.7, 50.0, n=12, phase=0.3))
    assert fit.center[0] == pytest.approx(413.2, abs=1e-9)
    assert fit.center[1] == pytest.approx(295.7, abs=1e-9)
    assert fit.radius == pytest.approx(50.0, abs=1e-9)
    assert fit.rms_residual < 1e-9


def test_fit_circle_residual_reports_scatter():
    rng = random.Random(5)
    pts = [
        (x + rng.uniform(-0.1, 0.1), y + rng.uniform(-0.1, 0.1))
        for x, y in circle_points(0.0, 0.0, 20.0, n=40)
    ]
    fit = fit_circle(pts)
    assert 0.0 < fit.rms_residual < 0.12
    assert fit.center[0] == pytest.approx(0.0, abs=0.1)


def test_fit_circle_rejects_short_or_collinear_input():
    with pytest.raises(DegenerateCircle):
        fit_circle([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(DegenerateCircle):
        fit_circle([(float(t), 2.0 * float(t) + 1.0) for t in range(6)])
    with pytest.raises(DegenerateCircle):
        fit_circle([(3.0, 4.0)] * 5)


# --- rotation calibration ---


def test_rotation_calibration_recovers_offset_centre():
    scene = default_scene(true_principal_point=TRUE_PP)
    tracks = rotation_sweep(scene, SWEEP_ANGLES_12)
    k_cal, fits = calibrate_rotation(tracks, scene.intrinsics)
    assert k_cal.corrected_principal_point[0] == pytest.approx(TRUE_PP[0], abs=1e-6)
    assert k_cal.corrected_principal_point[1] == pytest.approx(TRUE_PP[1], abs=1e-6)
    assert set(fits) == {"L1", "L2", "L3"}
    for fit in fits.values():
        assert fit.rms_residual < 1e-9


def test_rotation_calibration_without_offset_returns_nominal():
    scene = default_scene()
    tracks = rotation_sweep(scene, SWEEP_ANGLES_12)
    k_cal, _ = calibrate_rotation(tracks, scene.intrinsics)
    assert k_cal.corrected_principal_point[0] == pytest.approx(400.0, abs=1e-9)
    assert k_cal.corrected_principal_point[1] == pytest.approx(300.0, abs=1e-9)


def test_rotation_calibration_tolerates_pixel_noise():
    for seed in range(5):
        scene = default_scene(
            true_principal_point=TRUE_PP, noise=NoiseModel(pixel_sigma=0.5), seed=seed
        )
        tracks = rotation_sweep(scene, SWEEP_ANGLES_12)
        k_cal, _ = calibrate_rotation(tracks, scene.intrinsics)
        err = math.hypot(
            k_cal.corrected_principal_point[0] - TRUE_PP[0],
            k_cal.corrected_principal_point[1] - TRUE_PP[1],
        )
        assert err <= 0.5, f"seed {seed}: {err:.3f} px"


def test_rotation_calibration_skips_unfittable_tracks():
    scene = default_scene(true_principal_point=TRUE_PP)
    tracks = rotation_sweep(scene, SWEEP_ANGLES_12)
    # A beacon straight overhead never moves; its track is a single point.
    tracks["stuck"] = [(406.3, 295.9)] * 12
    k_cal, fits = calibrate_rotation(tracks, scene.intrinsics)
    assert "stuck" not in fits
    assert set(fits) == {"L1", "L2", "L3"}
    assert k_cal.corrected_principal_point[0] == pytest.approx(TRUE_PP[0], abs=1e-6)


def test_rotation_calibration_requires_one_good_track():
    bad = {
        "a": [(1.0, 1.0), (2.0, 2.0)],
        "b": [(float(t), 0.0) for t in range(12)],
    }
    with pytest.raises(InsufficientTracks):
        calibrate_rotation(bad, default_intrinsics())


# A true principal point up to 20 px off the 800x600 centre along each axis.
pp_offsets = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))


@settings(max_examples=50)
@given(
    pp_offsets,
    st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0), st.floats(0.0, 110.0)),
    st.floats(-math.pi, math.pi),
    st.lists(st.floats(-0.25, 0.25), min_size=3, max_size=12),
)
def test_rotation_calibration_recovers_any_true_principal_point(offset, position, phase, jitters):
    # The k-th of n angles lies within a quarter step of phase + k/n of the turn: spread over
    # the full turn at least half a step apart, but not evenly.
    n = len(jitters)
    angles = [phase + math.tau * (k + jitter) / n for k, jitter in enumerate(jitters)]
    pp = (400.0 + offset[0], 300.0 + offset[1])
    scene = default_scene(camera_pose=CameraPose(position), true_principal_point=pp)
    k_cal, _ = calibrate_rotation(rotation_sweep(scene, angles), scene.intrinsics)
    assert max(map(abs, np.subtract(k_cal.corrected_principal_point, pp))) < 1e-6


# --- dispersion calibration ---


def collect_fixes(scene, count):
    """Positions (count, 3) and heights (count,) of three-led fixes over noise seeds 0..count-1."""
    fixes = [
        trilaterate_three(sim.observe(dataclasses.replace(scene, seed=seed)), scene.beacons, scene.intrinsics)
        for seed in range(count)
    ]
    return np.array([fix.position for fix in fixes]), np.array([fix.diagnostics.height_cm for fix in fixes])


def test_dispersion_calibration_recovers_offset_centre():
    scene = default_scene(true_principal_point=TRUE_PP)
    k_cal, summary = calibrate_dispersion(
        *collect_fixes(scene, 16), scene.camera_pose.position, scene.intrinsics
    )
    assert k_cal.corrected_principal_point[0] == pytest.approx(TRUE_PP[0], abs=1e-6)
    assert k_cal.corrected_principal_point[1] == pytest.approx(TRUE_PP[1], abs=1e-6)
    assert summary.sample_count == 16
    # The noiseless fixes all coincide, so the scatter circle is a point.
    assert summary.enclosing_radius == pytest.approx(0.0, abs=1e-9)


def test_dispersion_calibration_zeroes_the_mean_offset():
    scene = default_scene(true_principal_point=TRUE_PP)
    k_cal, summary = calibrate_dispersion(
        *collect_fixes(scene, 8), scene.camera_pose.position, scene.intrinsics
    )
    assert summary.mean_offset[0] == pytest.approx(-1.89, abs=1e-9)
    assert summary.mean_offset[1] == pytest.approx(1.23, abs=1e-9)
    refit = trilaterate_three(sim.observe(scene), scene.beacons, k_cal)
    assert refit.position[0] == pytest.approx(0.0, abs=1e-9)
    assert refit.position[1] == pytest.approx(0.0, abs=1e-9)


def shifted_fix(scene):
    """One fix of the scene moved by (1.2, -0.8) cm, as a (1, 3) position and its height."""
    base = trilaterate_three(sim.observe(scene), scene.beacons, scene.intrinsics)
    x, y, z = base.position
    return [(x + 1.2, y - 0.8, z)], [base.diagnostics.height_cm]


def test_dispersion_pixel_correction_physical_hand_value():
    # Mean fix offset (1.2, -0.8) cm at 150 cm height through a 3 mm lens:
    # 1.2 * 3 / (150 * 0.006) = 4 px and -0.8 * 3 / (150 * 0.006) = -8/3 px.
    scene = default_scene()
    k_cal, _ = calibrate_dispersion(*shifted_fix(scene), (0.0, 0.0, 0.0), scene.intrinsics)
    assert k_cal.corrected_principal_point[0] == pytest.approx(400.0 - 4.0, abs=1e-9)
    assert k_cal.corrected_principal_point[1] == pytest.approx(300.0 + 8.0 / 3.0, abs=1e-9)


def test_dispersion_pixel_correction_literal_hand_value():
    # Literal mode divides the raw cm offset by the pitch: 1.2 / 0.006 = 200 px.
    scene = default_scene()
    k_cal, _ = calibrate_dispersion(
        *shifted_fix(scene), (0.0, 0.0, 0.0), scene.intrinsics, mode="paper_literal"
    )
    assert k_cal.corrected_principal_point[0] == pytest.approx(400.0 - 200.0, abs=1e-9)
    assert k_cal.corrected_principal_point[1] == pytest.approx(300.0 + 8.0 / 0.06, abs=1e-9)


def test_dispersion_with_zero_offset_keeps_intrinsics():
    scene = default_scene()
    k_cal, summary = calibrate_dispersion(
        *collect_fixes(scene, 4), scene.camera_pose.position, scene.intrinsics
    )
    assert abs(summary.mean_offset[0]) < 1e-9
    assert k_cal.corrected_principal_point[0] == pytest.approx(400.0, abs=1e-9)
    assert k_cal.corrected_principal_point[1] == pytest.approx(300.0, abs=1e-9)


def test_dispersion_summary_circle_contains_every_fix():
    scene = default_scene(
        true_principal_point=TRUE_PP, noise=NoiseModel(pixel_sigma=0.5, quantize=True)
    )
    positions, heights = collect_fixes(scene, 40)
    _, summary = calibrate_dispersion(positions, heights, (0.0, 0.0, 0.0), scene.intrinsics)
    cx, cy = summary.enclosing_center
    for x, y, _ in positions:
        d = math.hypot(x - cx, y - cy)
        assert d <= summary.enclosing_radius + 1e-9
    assert summary.sample_count == 40


def test_dispersion_error_paths():
    scene = default_scene()
    with pytest.raises(EmptyInput):
        calibrate_dispersion([], [], (0.0, 0.0, 0.0), scene.intrinsics)
    positions, heights = collect_fixes(scene, 2)
    with pytest.raises(ValueError):
        calibrate_dispersion(positions, heights, (0.0, 0.0, 0.0), scene.intrinsics, mode="mystery")
    # A fix without a height.
    with pytest.raises(LengthMismatch, match="2 fix positions paired with 1 heights"):
        calibrate_dispersion(positions, heights[:1], (0.0, 0.0, 0.0), scene.intrinsics)
    with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
        calibrate_dispersion(positions[:, :2], heights, (0.0, 0.0, 0.0), scene.intrinsics)
    flat = np.zeros_like(heights)
    with pytest.raises(ValueError, match=r"mean fix height must be positive, got 0\.0"):
        calibrate_dispersion(positions, flat, (0.0, 0.0, 0.0), scene.intrinsics)
    # Paper-literal mode does not use the height.
    calibrate_dispersion(positions, flat, (0.0, 0.0, 0.0), scene.intrinsics, mode="paper_literal")


@settings(max_examples=50)
@given(pp_offsets, st.tuples(st.floats(-60.0, -20.0), st.floats(-20.0, 20.0), st.floats(-50.0, 0.0)))
def test_a_second_dispersion_pass_on_noiseless_fixes_moves_the_principal_point_by_about_zero(offset, position):
    # At yaw 0 a principal-point error shifts every noiseless fix by its image through the
    # pinhole, so one physical pass on a fix corrects it and a pass after re-locating finds
    # nothing left. The positions keep all three default beacons on the sensor.
    scene = default_scene(camera_pose=CameraPose(position), true_principal_point=(400.0 + offset[0], 300.0 + offset[1]))
    dets = sim.observe(scene)
    assert len(dets) == 3
    for method in (Method.TWO_LED, Method.THREE_LED):
        k = scene.intrinsics
        for _ in range(2):
            fix = compute_fix(dets, scene.beacons, k, method)
            k_next, _ = calibrate_dispersion([fix.position], [fix.diagnostics.height_cm], position, k)
            moved = np.subtract(k_next.corrected_principal_point, k.corrected_principal_point)
            k = k_next
        assert max(map(abs, moved)) < 1e-6


# --- smallest enclosing circle ---


def test_enclosing_circle_trivial_cases():
    with pytest.raises(EmptyInput):
        min_enclosing_circle([])
    center, radius = min_enclosing_circle([(3.0, 4.0)])
    assert center == (3.0, 4.0) and radius == 0.0
    center, radius = min_enclosing_circle([(0.0, 0.0), (2.0, 0.0)])
    assert center == pytest.approx((1.0, 0.0), abs=1e-12)
    assert radius == pytest.approx(1.0, abs=1e-12)


def test_enclosing_circle_obtuse_triangle_uses_diameter():
    # The right angle at (0,0) keeps the long side as the diameter.
    center, radius = min_enclosing_circle([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])
    assert center == pytest.approx((2.0, 1.5), abs=1e-12)
    assert radius == pytest.approx(2.5, abs=1e-12)


def test_enclosing_circle_equilateral_uses_circumcircle():
    pts = [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]
    center, radius = min_enclosing_circle(pts)
    assert center == pytest.approx((1.0, 1.0 / math.sqrt(3.0)), abs=1e-12)
    assert radius == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)


def test_enclosing_circle_matches_brute_force():
    rng = random.Random(77)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 12)
        cases.append([(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)) for _ in range(n)])
    for _ in range(40):
        # Outside the diameter circle of the (-1, 0)-(1, 0) chord, on both sides of it.
        off = [(rng.uniform(-0.9, 0.9), side * rng.uniform(1.0, 1.6)) for side in (1.0, -1.0) * rng.randint(1, 3)]
        cases.append([(-1.0, 0.0), (1.0, 0.0), *off])
    # Exactly cocircular: integer points at distance 5 and 65 from the origin, and a regular polygon.
    cases.append([(3.0, 4.0), (-4.0, 3.0), (-3.0, -4.0), (4.0, -3.0), (5.0, 0.0), (0.0, -5.0), (-5.0, 0.0)])
    cases.append([(16.0, 63.0), (-33.0, 56.0), (-39.0, -52.0), (25.0, -60.0), (63.0, 16.0), (-65.0, 0.0)])
    cases.extend([[(math.cos(math.tau * i / n), math.sin(math.tau * i / n)) for i in range(n)] for n in (3, 4, 6, 12)])
    for _ in range(10):
        # Duplicates: every point two to four times, some interior.
        base = [(float(rng.randint(-3, 3)), float(rng.randint(-3, 3))) for _ in range(rng.randint(1, 6))]
        pts = [p for p in base for _ in range(rng.randint(2, 4))]
        rng.shuffle(pts)
        cases.append(pts)
    # Collinear runs, alone and with one point off the line.
    run = [(float(t), 2.0 * t + 1.0) for t in range(-5, 6)]
    cases.extend([run, run[::-1] + run[:3], [*run, (0.0, 9.0)], [(x / 7.0, 0.0) for x in range(-9, 10)]])
    for pts in cases:
        center, radius = min_enclosing_circle(pts)
        (ox, oy), oradius = oracles.brute_force_enclosing_circle(pts)
        assert radius == pytest.approx(oradius, abs=1e-9)
        assert center[0] == pytest.approx(ox, abs=1e-7)
        assert center[1] == pytest.approx(oy, abs=1e-7)


@pytest.mark.parametrize(
    "points",
    [((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)), ((5.0, -1.0), (5.0, 3.0), (5.0, 1.0)), ((1.0, 2.0), (1.0, 2.0), (4.0, 2.0))],
    ids=["diagonal", "vertical", "two-coincident"],
)
def test_circumcircle_of_collinear_points_is_none(points):
    assert calibration._circumcircle(*points) is None


def test_enclosing_circle_ignores_input_order():
    rng = random.Random(3)
    pts = [(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(30)]
    c1, r1 = min_enclosing_circle(pts)
    shuffled = pts[:]
    rng.shuffle(shuffled)
    c2, r2 = min_enclosing_circle(shuffled)
    assert r1 == pytest.approx(r2, abs=1e-12)
    assert c1[0] == pytest.approx(c2[0], abs=1e-12)
    assert c1[1] == pytest.approx(c2[1], abs=1e-12)


def test_enclosing_circle_with_duplicates_and_interior_points():
    pts = [(0.0, 0.0)] * 5 + [(6.0, 0.0), (3.0, 0.1), (3.0, -0.1), (6.0, 0.0)]
    center, radius = min_enclosing_circle(pts)
    assert center == pytest.approx((3.0, 0.0), abs=1e-9)
    assert radius == pytest.approx(3.0, abs=1e-9)
