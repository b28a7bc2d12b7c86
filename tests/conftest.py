import pytest
from hypothesis import Phase, settings

from vlpkit import CameraIntrinsics, LedBeacon

# One profile for every property test: no per-example deadline, since file
# writes make examples slow enough to trip it on a loaded machine, and no
# explain phase, which after a failure can spend minutes and gigabytes
# tracing the failing example.
settings.register_profile("vlpkit", deadline=None, phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("vlpkit")


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(
        focal_length=3.0,
        pitch_i=0.006,
        pitch_j=0.006,
        resolution=(800, 600),
    )


@pytest.fixture
def ceiling_beacons():
    return (
        LedBeacon("L1", (-46.5, -49.5, 150.0)),
        LedBeacon("L2", (-46.0, -42.0, 150.0)),
        LedBeacon("L3", (46.0, 49.0, 150.0)),
    )
