"""Closed-form solar geometry, all angles in degrees.

Declination comes from the day-number sine rule, noon height from
latitude minus declination, and intra-day position from the standard
spherical transform on the hour angle. The year is a fixed 365 days
with no leap handling, and every timestamp is local solar time, so
there is no equation-of-time or longitude correction anywhere.

Everything here is scalar `math`. The sun-path chart samples through
_up_south and _angles one point at a time; _up_south is plain
arithmetic, so the insolation grid puts numpy arrays through it too.
"""
from __future__ import annotations

import math
from typing import NamedTuple

EARTH_TILT_DEG = 23.45
DAYS_PER_YEAR = 365
EQUINOX_DAY = 81  # spring zero crossing of the declination sine
STRICT_LATITUDE_LIMIT_DEG = 66.55  # below this the noon sun is up year-round

_DEG = math.pi / 180.0


class _Location(NamedTuple):
    latitude_deg: float


class Location(_Location):
    """A site identified by signed latitude, positive north of the equator."""

    __slots__ = ()

    def __new__(cls, latitude_deg: float) -> Location:
        if not -90.0 <= latitude_deg <= 90.0:
            raise ValueError(f"latitude must be in [-90, 90] degrees, got {latitude_deg}")
        return super().__new__(cls, latitude_deg)

    @classmethod
    def _make(cls, iterable) -> Location:  # so _replace checks too
        return cls(*iterable)


class SolarAngles(NamedTuple):
    """Sun position for one instant.

    Azimuth is south-referenced and signed: 0 at solar noon, negative
    east of the meridian (morning), positive west (afternoon). Use
    compass_azimuth() to convert to a 0-360 bearing from north.
    """

    declination_deg: float
    elevation_deg: float
    zenith_deg: float
    azimuth_deg: float


def _check_index(value, what: str, count: int) -> int:
    """value as an int in [1, count]; anything else (inf, nan and bools too) is a ValueError."""
    try:
        n = int(value)
        is_bool = isinstance(value, bool) or getattr(value, "dtype", None) == bool  # numpy's too
        if n == value and 1 <= n <= count and not is_bool:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer in [1, {count}], got {value!r}")


def _check_day(day: int) -> int:
    return _check_index(day, "day of year", DAYS_PER_YEAR)


def _check_step(step_minutes: float) -> None:
    # the lower bound caps a year grid at about 1.3M samples
    if not 0.1 <= step_minutes <= 120.0:
        raise ValueError(f"time step must be finite minutes in [0.1, 120], got {step_minutes}")


def declination_exact(day: int) -> float:
    """Solar declination on a given day of the year.

    23.45 deg times sin(360/365 * (d - 81)), the angle evaluated in
    degrees. Zero at day 81, peaks near +23.45 at the June solstice
    (d = 172) and -23.45 at the December solstice (d = 355).
    """
    return _declination(_check_day(day))


def _declination(d: int) -> float:
    return EARTH_TILT_DEG * math.sin(_DEG * (360.0 / DAYS_PER_YEAR) * (d - EQUINOX_DAY))


def declination_simplified(day: int) -> float:
    """Declination with the 360/365 factor dropped: 23.45 sin(d - 81).

    The implied period is 360 days instead of 365, so values drift from
    declination_exact over the year: about 1.06 deg apart at worst near
    the autumn zero crossing (d = 279) and about 0.33 deg at d = 365.
    """
    d = _check_day(day)
    return EARTH_TILT_DEG * math.sin(_DEG * (d - EQUINOX_DAY))


def noon_elevation(loc: Location, day: int, *, strict: bool = False) -> float:
    """Noon sun height above the horizon: 90 - (latitude - declination).

    Returns the raw value, which exceeds 90 inside the tropics when the
    noon sun crosses poleward of the zenith; noon_elevation_folded folds
    it back. With strict=True, latitudes at or beyond 66.55 deg are
    rejected instead of returning a negative winter value.
    """
    if strict and abs(loc.latitude_deg) >= STRICT_LATITUDE_LIMIT_DEG:
        raise ValueError(
            "strict noon elevation requires |latitude| < "
            f"{STRICT_LATITUDE_LIMIT_DEG} deg, got {loc.latitude_deg}"
        )
    return 90.0 - noon_zenith(loc, day)


def noon_elevation_folded(loc: Location, day: int) -> float:
    """Noon elevation folded into [-90, 90]: min(alpha, 180 - alpha)."""
    alpha = noon_elevation(loc, day)
    return min(alpha, 180.0 - alpha)


def noon_zenith(loc: Location, day: int) -> float:
    """Angle between the noon sun and the vertical: latitude - declination.

    Complement of noon_elevation, signed the same way (negative when the
    noon sun sits poleward of the zenith inside the tropics).
    """
    return loc.latitude_deg - declination_exact(day)


def _up_south(sin_phi, cos_phi, sin_delta, cos_delta, cos_omega):
    """The spherical transform: sin(elev) and cos(elev) cos(az) from the sines and
    cosines of latitude, declination and hour angle (west is cos(delta) sin(omega))."""
    up = sin_phi * sin_delta + cos_phi * cos_delta * cos_omega
    return up, cos_omega * cos_delta * sin_phi - sin_delta * cos_phi


def _check_hour_angle(hour_angle_deg: float) -> None:
    if not -180.0 <= hour_angle_deg <= 180.0:
        raise ValueError(f"hour angle must be in [-180, 180] degrees, got {hour_angle_deg}")


def _sun_vector(
    loc: Location, day: int, hour_angle_deg: float
) -> tuple[float, float, float, float]:
    """Checked (declination_deg, up, south, west) of the sun at an hour angle.

    up, south and west are the sun's unit vector in the local horizon
    frame: _up_south, and west = cos(delta) sin(omega).
    """
    decl = _declination(_check_day(day))
    _check_hour_angle(hour_angle_deg)
    phi, delta, omega = map(math.radians, (loc.latitude_deg, decl, hour_angle_deg))
    cos_d = math.cos(delta)
    up, south = _up_south(math.sin(phi), math.cos(phi), math.sin(delta), cos_d, math.cos(omega))
    return decl, up, south, cos_d * math.sin(omega)


def _angles(up: float, south: float, west: float) -> tuple[float, float]:
    """(elevation_deg, south-referenced azimuth_deg) of a horizon-frame sun vector."""
    elevation = math.degrees(math.asin(min(max(up, -1.0), 1.0)))
    return elevation, math.degrees(math.atan2(west, south))


def sun_position(loc: Location, day: int, hour_angle_deg: float) -> SolarAngles:
    """Sun angles at an hour angle omega (15 deg per hour, negative before noon).

    Elevation follows sin(alpha) = sin(phi) sin(delta) + cos(phi) cos(delta)
    cos(omega); azimuth is atan2(west, south) of the _sun_vector terms, whose
    sign tracks omega, so no quadrant fixups are needed. At omega = 0 this
    reduces to the noon elevation with azimuth 0 (or the folded elevation
    with azimuth 180 when the noon sun passes poleward of the zenith).
    Sub-horizon instants return a negative elevation for the caller to
    filter. Scalar math throughout, no numpy.
    """
    decl, up, south, west = _sun_vector(loc, day, hour_angle_deg)
    elevation, azimuth = _angles(up, south, west)
    return SolarAngles(decl, elevation, 90.0 - elevation, azimuth)


def sunrise_hour_angle(loc: Location, day: int) -> float:
    """Hour angle of sunrise and sunset: arccos(-tan(lat) tan(decl)).

    Clamped at the poles of the formula: 0 when the sun never rises
    (polar night), 180 when it never sets (midnight sun). Day length in
    hours is 2/15 of the returned value.
    """
    return _sunset_angle(math.tan(loc.latitude_deg * _DEG), declination_exact(day))


def _sunset_angle(tan_phi: float, decl_deg: float) -> float:
    x = -tan_phi * math.tan(decl_deg * _DEG)
    if x >= 1.0:
        return 0.0
    if x <= -1.0:
        return 180.0
    return math.degrees(math.acos(x))


def compass_azimuth(azimuth_deg: float) -> float:
    """South-referenced signed azimuth to a compass bearing.

    0 = north, 90 = east, 180 = south, 270 = west.
    """
    return (azimuth_deg + 180.0) % 360.0
