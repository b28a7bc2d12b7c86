"""Pixel/image-plane conversions and intrinsics validation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vlpkit import CameraIntrinsics, pixel_to_image


def test_centre_pixel_maps_to_image_origin(intrinsics):
    assert pixel_to_image((400.0, 300.0), intrinsics) == (0.0, 0.0)


def test_pixel_offset_scales_by_pitch(intrinsics):
    # 50 px to the right of centre at 0.006 mm/px is 0.3 mm.
    i, j = pixel_to_image((450.0, 300.0), intrinsics)
    assert i == pytest.approx(0.3, abs=1e-12)
    assert j == 0.0


def test_corrected_principal_point_shifts_origin(intrinsics):
    k = intrinsics.with_principal_point(406.3, 295.9)
    i, j = pixel_to_image((450.0, 300.0), k)
    # (450 - 406.3) * 0.006 and (300 - 295.9) * 0.006
    assert i == pytest.approx(0.2622, abs=1e-12)
    assert j == pytest.approx(0.0246, abs=1e-12)


def test_default_correction_is_the_nominal_centre(intrinsics):
    assert intrinsics.corrected_principal_point == intrinsics.nominal_principal_point
    assert intrinsics.nominal_principal_point == (400.0, 300.0)


def test_with_principal_point_returns_new_intrinsics(intrinsics):
    k = intrinsics.with_principal_point(410.0, 290.0)
    assert k.corrected_principal_point == (410.0, 290.0)
    assert intrinsics.corrected_principal_point == (400.0, 300.0)
    assert k.focal_length == intrinsics.focal_length


@given(du=st.floats(-1000.0, 1000.0))
def test_pixel_shift_is_linear_in_image_plane(du):
    k = CameraIntrinsics(
        focal_length=3.0, pitch_i=0.006, pitch_j=0.006, resolution=(800, 600)
    )
    base_i, base_j = pixel_to_image((400.0, 300.0), k)
    moved_i, moved_j = pixel_to_image((400.0 + du, 300.0), k)
    assert moved_i - base_i == pytest.approx(du * 0.006, rel=1e-12, abs=1e-12)
    assert moved_j == base_j


def test_anisotropic_pitch_applies_per_axis():
    k = CameraIntrinsics(
        focal_length=3.0, pitch_i=0.006, pitch_j=0.012, resolution=(800, 600)
    )
    i, j = pixel_to_image((410.0, 310.0), k)
    assert i == pytest.approx(0.06, abs=1e-12)
    assert j == pytest.approx(0.12, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(focal_length=0.0, pitch_i=0.006, pitch_j=0.006, resolution=(800, 600)),
        dict(focal_length=-3.0, pitch_i=0.006, pitch_j=0.006, resolution=(800, 600)),
        dict(focal_length=3.0, pitch_i=0.0, pitch_j=0.006, resolution=(800, 600)),
        dict(focal_length=3.0, pitch_i=0.006, pitch_j=-0.006, resolution=(800, 600)),
        dict(focal_length=3.0, pitch_i=0.006, pitch_j=0.006, resolution=(0, 600)),
        dict(focal_length=math.inf, pitch_i=0.006, pitch_j=0.006, resolution=(800, 600)),
        dict(
            focal_length=3.0,
            pitch_i=0.006,
            pitch_j=0.006,
            resolution=(800, 600),
            corrected_principal_point=(900.0, 300.0),
        ),
        dict(
            focal_length=3.0,
            pitch_i=0.006,
            pitch_j=0.006,
            resolution=(800, 600),
            corrected_principal_point=(400.0, math.nan),
        ),
    ],
)
def test_invalid_intrinsics_rejected(kwargs):
    with pytest.raises(ValueError):
        CameraIntrinsics(**kwargs)
