"""Exception types shared across the toolkit."""


class VlpError(Exception):
    """Base class for all toolkit errors."""


class CoincidentProjection(VlpError):
    """Two beacon images are too close together to resolve a baseline."""


class ImplausibleHeight(VlpError):
    """A beacon pair's image puts the camera no farther below it than the focal length."""


class UnequalBeaconHeights(VlpError):
    """Beacons used in one fix do not share a ceiling height."""


class SingularGeometry(VlpError):
    """Beacon layout leaves the camera position underdetermined."""


class DegenerateCircle(VlpError):
    """Too few or collinear points; no unique circle exists."""


class InsufficientTracks(VlpError):
    """No rotation track could be fitted."""


class EmptyInput(VlpError):
    """An operation received no data."""


class LengthMismatch(VlpError):
    """Paired sequences differ in length."""


class BeaconBehindCamera(VlpError):
    """Beacon sits at or below the camera plane; projection is undefined."""


class UnknownBeacon(VlpError):
    """A detection references a beacon id absent from the beacon set."""


class SceneConfigError(VlpError):
    """Scene configuration is missing, malformed, or inconsistent."""


class InputFormatError(VlpError):
    """An input file is missing a required column or holds a value that does not parse."""
