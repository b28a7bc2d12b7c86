"""The per-row value types: frozen, slotted, and still plain values."""

import copy
import dataclasses
import pickle

import pytest

from vlpkit import CameraPose, Detection, Diagnostics, LedBeacon, Method, PositionFix, TrialRecord

DETECTION = Detection("L1", (253.0, 135.5))
VALUES = [
    LedBeacon("L1", (-46.5, -49.5, 150.0)),
    DETECTION,
    Diagnostics(150.0, 2.5, 135.0, yaw_rad=0.25),
    PositionFix((1.0, 2.0, 0.0), Method.TWO_LED, Diagnostics(150.0, 2.5, 135.0)),
    CameraPose((1.0, 2.0, 0.0), 0.5),
    TrialRecord(3, 1, CameraPose((1.0, 2.0, 0.0)), (DETECTION,), seed=7),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_are_frozen_slotted_values(value):
    first = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
    assert not hasattr(value, "__dict__")
    twin = dataclasses.replace(value)
    assert twin == value and twin is not value and hash(twin) == hash(value)
    for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value and hash(copied) == hash(value)
    assert repr(value).startswith(f"{type(value).__name__}({first}=")
