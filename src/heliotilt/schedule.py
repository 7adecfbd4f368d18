"""Tilt schedules for south-facing panels in the northern hemisphere.

The daily rule sets tilt to latitude minus declination, so the panel
normal chases the noon sun. Monthly schedules add a per-month offset to
latitude; seasonal schedules average the monthly values in blocks of
three. Two offset bases exist:

* paper: the published monthly reference table, kept exactly as printed.
  Its offsets are slightly asymmetric (July is -24.45 deg rather than
  the -23.45 the construction implies), so the July tilt lands 1 deg
  lower than in exact mode.
* exact: self-consistent offsets interpolating linearly between +23.45
  (December-solstice month) and -23.45 (June-solstice month).

Southern latitudes would need the whole construction mirrored (panels
facing north, offsets negated), which is out of scope here, so every
schedule entry point raises UnsupportedHemisphereError for lat <= 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .geometry import (
    DAYS_PER_YEAR,
    EARTH_TILT_DEG,
    Location,
    _check_day,
    declination_exact,
    declination_simplified,
)


class UnsupportedHemisphereError(ValueError):
    """Raised for tilt requests at latitudes <= 0: schedules are northern-only."""


class TiltMode(str, Enum):
    """Which monthly offset table to use."""

    PAPER = "paper"
    EXACT = "exact"


MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# day of year before the 1st of each month, 365-day year
_CUM_DAYS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)
_DAYS = range(1, DAYS_PER_YEAR + 1)

SEASON_NAMES = ("winter", "spring", "summer", "fall")
SEASON_MONTHS = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))

# As-published monthly offsets, January first. Added to latitude.
PAPER_OFFSETS_DEG = (
    23.45, 15.47, 7.49, -0.5, -8.48, -16.46,
    -24.45, -16.46, -8.48, -0.5, 7.49, 15.47,
)
# Symmetric construction: +-23.45 at the solstice months, linear in between.
EXACT_OFFSETS_DEG = tuple(
    EARTH_TILT_DEG * (4 - n) / 3.0 if n <= 7 else EARTH_TILT_DEG * (n - 10) / 3.0
    for n in range(1, 13)
)

_OFFSETS = {TiltMode.PAPER: PAPER_OFFSETS_DEG, TiltMode.EXACT: EXACT_OFFSETS_DEG}


def offsets_for(mode: TiltMode) -> tuple[float, ...]:
    """The twelve monthly offsets (January first) for a mode."""
    return _OFFSETS[TiltMode(mode)]


def month_of_day(day: int) -> int:
    """Month number (1..12) containing a day of the 365-day year."""
    d = _check_day(day)
    for month in range(12, 0, -1):
        if d > _CUM_DAYS[month - 1]:
            return month
    raise AssertionError("unreachable")


def season_of_day(day: int) -> int:
    """Season number (1..4) for a day: Jan-Mar=1, Apr-Jun=2, Jul-Sep=3, Oct-Dec=4."""
    return (month_of_day(day) - 1) // 3 + 1


def _require_northern(loc: Location) -> float:
    if loc.latitude_deg <= 0.0:
        raise UnsupportedHemisphereError(
            "tilt schedules are defined for northern latitudes only "
            f"(latitude > 0), got {loc.latitude_deg}"
        )
    return loc.latitude_deg


def _clamp_tilt(value: float) -> float:
    return min(max(value, 0.0), 90.0)


def _check_tilt(tilt_deg: float) -> float:
    if not 0.0 <= tilt_deg <= 90.0:
        raise ValueError(f"panel tilt must be in [0, 90] degrees, got {tilt_deg}")
    return float(tilt_deg)


def round_half_up(value: float) -> int:
    """Whole degrees for display, .5 always rounding up."""
    return int(math.floor(value + 0.5))


class TiltValue(NamedTuple):
    """A tilt plus whether clamping to [0, 90] changed the raw value."""

    tilt_deg: float
    clamped: bool


def daily_tilt_details(loc: Location, day: int, *, simplified: bool = False) -> TiltValue:
    """Daily-rule tilt with its clamp flag.

    The raw rule is latitude minus declination; at low latitudes the
    summer value goes negative and is clamped to a flat panel.
    """
    phi = _require_northern(loc)
    decl = declination_simplified(day) if simplified else declination_exact(day)
    raw = phi - decl
    clamped = _clamp_tilt(raw)
    return TiltValue(clamped, clamped != raw)


def daily_tilt(loc: Location, day: int, *, simplified: bool = False) -> float:
    """Tilt for one day under the daily rule, clamped to [0, 90] deg."""
    return daily_tilt_details(loc, day, simplified=simplified).tilt_deg


def tilt_extremes(loc: Location, mode: TiltMode = TiltMode.PAPER) -> tuple[float, float]:
    """(min, max) tilt a monthly schedule reaches at this latitude.

    Latitude plus the smallest and largest offsets of the mode, clamped
    to [0, 90]. Paper mode's minimum sits 1 deg below exact mode's
    because of the July asymmetry.
    """
    phi = _require_northern(loc)
    offsets = offsets_for(mode)
    return (_clamp_tilt(phi + min(offsets)), _clamp_tilt(phi + max(offsets)))


@dataclass(frozen=True)
class MonthlySchedule:
    """Twelve monthly tilts, January first: latitude plus the mode offsets, clamped."""

    latitude_deg: float
    mode: TiltMode
    betas_deg: tuple[float, ...]
    clamped_months: tuple[int, ...]

    def beta_for_month(self, month: int) -> float:
        if not 1 <= int(month) <= 12 or int(month) != month:
            raise ValueError(f"month must be an integer in [1, 12], got {month!r}")
        return self.betas_deg[int(month) - 1]

    def beta_for_day(self, day: int) -> float:
        return self.beta_for_month(month_of_day(day))


def monthly_schedule(loc: Location, mode: TiltMode = TiltMode.PAPER) -> MonthlySchedule:
    """Build the monthly schedule for a northern site."""
    phi = _require_northern(loc)
    mode = TiltMode(mode)
    raw = [phi + off for off in offsets_for(mode)]
    betas = tuple(_clamp_tilt(v) for v in raw)
    clamped = tuple(m for m, (r, b) in enumerate(zip(raw, betas), start=1) if r != b)
    return MonthlySchedule(phi, mode, betas, clamped)


@dataclass(frozen=True)
class SeasonalSchedule:
    """Four per-season tilts: winter, spring, summer, fall.

    Each is the mean of its three monthly tilts; delta_deg records the
    signed adjustment relative to latitude.
    """

    latitude_deg: float
    mode: TiltMode
    betas_deg: tuple[float, float, float, float]
    delta_deg: tuple[float, float, float, float]

    def beta_for_season(self, season: int) -> float:
        if not 1 <= int(season) <= 4 or int(season) != season:
            raise ValueError(f"season must be an integer in [1, 4], got {season!r}")
        return self.betas_deg[int(season) - 1]

    def beta_for_day(self, day: int) -> float:
        return self.betas_deg[season_of_day(day) - 1]

    def rounded(self) -> tuple[int, int, int, int]:
        """Whole-degree display values, .5 always rounding up."""
        return tuple(round_half_up(b) for b in self.betas_deg)


def seasonal_schedule(loc: Location, mode: TiltMode = TiltMode.PAPER) -> SeasonalSchedule:
    """Seasonal tilts as means of the monthly schedule in blocks of three."""
    monthly = monthly_schedule(loc, mode)
    betas = tuple(
        sum(monthly.betas_deg[m - 1] for m in months) / 3.0
        for months in SEASON_MONTHS
    )
    deltas = tuple(b - monthly.latitude_deg for b in betas)
    return SeasonalSchedule(monthly.latitude_deg, monthly.mode, betas, deltas)


class TiltPolicy:
    """A named policy: one panel tilt for each day of the 365-day year.

    Construct through the classmethods; kind is one of fixed, seasonal,
    monthly, daily and label is a short human-readable tag used in
    reports. tilts_deg holds the tilt of day 1 first.
    """

    def __init__(self, kind: str, label: str, tilts_deg: Sequence[float]):
        self.kind = kind
        self.label = label
        self.tilts_deg = tuple(_check_tilt(t) for t in tilts_deg)
        if len(self.tilts_deg) != DAYS_PER_YEAR:
            raise ValueError(f"a policy needs {DAYS_PER_YEAR} tilts, got {len(self.tilts_deg)}")

    def __repr__(self) -> str:
        return f"TiltPolicy({self.label})"

    def tilt_for_day(self, day: int) -> float:
        return self.tilts_deg[_check_day(day) - 1]

    @classmethod
    def fixed(cls, tilt_deg: float) -> "TiltPolicy":
        return cls("fixed", f"fixed({tilt_deg:.2f})", (tilt_deg,) * DAYS_PER_YEAR)

    @classmethod
    def seasonal(cls, schedule: SeasonalSchedule) -> "TiltPolicy":
        label = f"seasonal({schedule.mode.value})"
        return cls("seasonal", label, [schedule.beta_for_day(d) for d in _DAYS])

    @classmethod
    def monthly(cls, schedule: MonthlySchedule) -> "TiltPolicy":
        label = f"monthly({schedule.mode.value})"
        return cls("monthly", label, [schedule.beta_for_day(d) for d in _DAYS])

    @classmethod
    def daily(cls, loc: Location, *, simplified: bool = False) -> "TiltPolicy":
        return cls("daily", "daily", [daily_tilt(loc, d, simplified=simplified) for d in _DAYS])
