"""Closed-form solar geometry, all angles in degrees.

Declination comes from the day-number sine rule, noon height from
latitude minus declination, and intra-day position from the standard
spherical transform on the hour angle. The year is a fixed 365 days
with no leap handling, and every timestamp is local solar time, so
there is no equation-of-time or longitude correction anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_TILT_DEG = 23.45
DAYS_PER_YEAR = 365
EQUINOX_DAY = 81  # spring zero crossing of the declination sine
STRICT_LATITUDE_LIMIT_DEG = 66.55  # below this the noon sun is up year-round

_DEG = math.pi / 180.0


@dataclass(frozen=True)
class Location:
    """A site identified by signed latitude, positive north of the equator."""

    latitude_deg: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(
                f"latitude must be in [-90, 90] degrees, got {self.latitude_deg}"
            )


@dataclass(frozen=True)
class SolarAngles:
    """Sun position for one instant.

    Azimuth is south-referenced and signed: 0 at solar noon, negative
    east of the meridian (morning), positive west (afternoon). Use
    compass_azimuth() to convert to a 0-360 bearing from north.
    """

    declination_deg: float
    elevation_deg: float
    zenith_deg: float
    azimuth_deg: float


def _check_day(day: int) -> int:
    try:
        d = int(day)
    except (TypeError, ValueError):
        raise ValueError(f"day of year must be an integer, got {day!r}") from None
    if d != day or not 1 <= d <= DAYS_PER_YEAR:
        raise ValueError(
            f"day of year must be an integer in [1, {DAYS_PER_YEAR}], got {day!r}"
        )
    return d


def _check_step(step_minutes: float) -> None:
    # the lower bound caps a year grid at about 5.3M samples
    if not 0.1 <= step_minutes <= 120.0:
        raise ValueError(f"time step must be finite minutes in [0.1, 120], got {step_minutes}")


def declination_exact(day: int) -> float:
    """Solar declination on a given day of the year.

    23.45 deg times sin(360/365 * (d - 81)), the angle evaluated in
    degrees. Zero at day 81, peaks near +23.45 at the June solstice
    (d = 172) and -23.45 at the December solstice (d = 355).
    """
    d = _check_day(day)
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


def _elevation_azimuth(latitude_deg, declination_deg, omega_deg):
    """Elevation and south-referenced azimuth for scalar or array hour angles.

    The angles of _up_south, for sun_position and the charts. Inputs in
    degrees; omega may be an ndarray. Returns (elevation_deg, azimuth_deg).
    """
    phi = np.radians(latitude_deg)
    delta = np.radians(declination_deg)
    omega = np.radians(omega_deg)
    up, south = _up_south(np.sin(phi), np.cos(phi), np.sin(delta), np.cos(delta), np.cos(omega))
    elevation = np.degrees(np.arcsin(np.clip(up, -1.0, 1.0)))
    azimuth = np.degrees(np.arctan2(np.cos(delta) * np.sin(omega), south))
    return elevation, azimuth


def _check_hour_angle(hour_angle_deg: float) -> None:
    if not -180.0 <= hour_angle_deg <= 180.0:
        raise ValueError(f"hour angle must be in [-180, 180] degrees, got {hour_angle_deg}")


def sun_position(loc: Location, day: int, hour_angle_deg: float) -> SolarAngles:
    """Sun angles at an hour angle omega (15 deg per hour, negative before noon).

    Elevation follows sin(alpha) = sin(phi) sin(delta) + cos(phi) cos(delta)
    cos(omega); azimuth comes from an atan2 form whose sign tracks omega, so
    no quadrant fixups are needed. At omega = 0 this reduces to the noon
    elevation with azimuth 0 (or the folded elevation with azimuth 180 when
    the noon sun passes poleward of the zenith). Sub-horizon instants return
    a negative elevation for the caller to filter.
    """
    d = _check_day(day)
    _check_hour_angle(hour_angle_deg)
    decl = declination_exact(d)
    elevation, azimuth = _elevation_azimuth(loc.latitude_deg, decl, hour_angle_deg)
    elevation = float(elevation)
    return SolarAngles(
        declination_deg=decl,
        elevation_deg=elevation,
        zenith_deg=90.0 - elevation,
        azimuth_deg=float(azimuth),
    )


def sunrise_hour_angle(loc: Location, day: int) -> float:
    """Hour angle of sunrise and sunset: arccos(-tan(lat) tan(decl)).

    Clamped at the poles of the formula: 0 when the sun never rises
    (polar night), 180 when it never sets (midnight sun). Day length in
    hours is 2/15 of the returned value.
    """
    d = _check_day(day)
    x = -math.tan(loc.latitude_deg * _DEG) * math.tan(declination_exact(d) * _DEG)
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
