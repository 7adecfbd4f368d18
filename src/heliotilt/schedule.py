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
  (January) and -23.45 (July).

Southern latitudes would need the whole construction mirrored (panels
facing north, offsets negated), which is out of scope here, so every
schedule entry point raises UnsupportedHemisphereError for lat <= 0.
"""
from __future__ import annotations

import bisect
import math
from enum import Enum
from typing import NamedTuple, Sequence

from .geometry import (
    DAYS_PER_YEAR,
    EARTH_TILT_DEG,
    Location,
    _check_day,
    _check_index,
    _check_range,
    _declination,
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
# day of year before the 1st of each month, 365-day year
_CUM_DAYS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)
_DAYS = range(1, DAYS_PER_YEAR + 1)
_MONTH_INDEX = tuple(bisect.bisect_left(_CUM_DAYS, d) - 1 for d in _DAYS)  # 0 = January

SEASON_NAMES = ("winter", "spring", "summer", "fall")
SEASON_MONTHS = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
_SEASON_OF_MONTH = {m: s for s, months in enumerate(SEASON_MONTHS) for m in months}  # 0 = winter
_SEASON_INDEX = tuple(_SEASON_OF_MONTH[m + 1] for m in _MONTH_INDEX)  # of each day

# As-published monthly offsets, January first. Added to latitude.
PAPER_OFFSETS_DEG = (
    23.45, 15.47, 7.49, -0.5, -8.48, -16.46,
    -24.45, -16.46, -8.48, -0.5, 7.49, 15.47,
)
# Symmetric construction: +23.45 in January, -23.45 in July, linear in between.
EXACT_OFFSETS_DEG = tuple(
    EARTH_TILT_DEG * (4 - n) / 3.0 if n <= 7 else EARTH_TILT_DEG * (n - 10) / 3.0
    for n in range(1, 13)
)

_MODES = {  # each mode's offsets and the offset_note of its schedule tables
    TiltMode.PAPER: (PAPER_OFFSETS_DEG, "as-published offsets: July is latitude -24.45 deg rather"
                     " than the symmetric -23.45, so the minimum tilt sits 1 deg below exact mode"),
    TiltMode.EXACT: (EXACT_OFFSETS_DEG, "symmetric offsets: tilts interpolate linearly between"
                     " latitude +23.45 and latitude -23.45 deg"),
}


def offsets_for(mode: TiltMode) -> tuple[float, ...]:
    """The twelve monthly offsets (January first) for a mode."""
    return _MODES[TiltMode(mode)][0]


def month_of_day(day: int) -> int:
    """Month number (1..12) containing a day of the 365-day year."""
    return _MONTH_INDEX[_check_day(day) - 1] + 1


def season_of_day(day: int) -> int:
    """Season number (1..4) for a day: Jan-Mar=1, Apr-Jun=2, Jul-Sep=3, Oct-Dec=4."""
    return _SEASON_INDEX[_check_day(day) - 1] + 1


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
    _check_range(tilt_deg, 0.0, 90.0, "panel tilt must be in [0, 90] degrees")
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
    phi = _require_northern(loc)  # before the day check
    raw = phi - (declination_simplified(day) if simplified else declination_exact(day))
    return TiltValue(_clamp_tilt(raw), not 0.0 <= raw <= 90.0)


def _daily_year(loc: Location) -> tuple[list[float], int]:
    """The daily rule over the year: 365 tilts, day 1 first, and how many the clamp changed."""
    phi = _require_northern(loc)
    raws = [phi - _declination(d) for d in _DAYS]
    clamped_days = sum(not 0.0 <= r <= 90.0 for r in raws)
    return ([_clamp_tilt(r) for r in raws] if clamped_days else raws), clamped_days


def daily_tilt(loc: Location, day: int) -> float:
    """Tilt for one day under the daily rule, clamped to [0, 90] deg."""
    return daily_tilt_details(loc, day).tilt_deg


def tilt_extremes(loc: Location, mode: TiltMode = TiltMode.PAPER) -> tuple[float, float]:
    """(min, max) tilt a monthly schedule reaches at this latitude.

    The extremes of monthly_schedule's tilts. Paper mode's minimum sits
    1 deg below exact mode's because of the July asymmetry.
    """
    betas = monthly_schedule(loc, mode).betas_deg
    return (min(betas), max(betas))


class MonthlySchedule(NamedTuple):
    """Twelve monthly tilts, January first: latitude plus the mode offsets, clamped."""

    latitude_deg: float
    mode: TiltMode
    betas_deg: tuple[float, ...]
    clamped_months: tuple[int, ...]

    def beta_for_month(self, month: int) -> float:
        return self.betas_deg[_check_index(month, "month", 12) - 1]


def monthly_schedule(loc: Location, mode: TiltMode = TiltMode.PAPER) -> MonthlySchedule:
    """Build the monthly schedule for a northern site."""
    phi = _require_northern(loc)
    mode = TiltMode(mode)
    raw = [phi + off for off in offsets_for(mode)]
    betas = tuple(_clamp_tilt(v) for v in raw)
    clamped = tuple(m for m, (r, b) in enumerate(zip(raw, betas), start=1) if r != b)
    return MonthlySchedule(phi, mode, betas, clamped)


class SeasonalSchedule(NamedTuple):
    """Four per-season tilts: winter, spring, summer, fall.

    Each is the mean of its three monthly tilts; delta_deg records the
    signed adjustment relative to latitude.
    """

    latitude_deg: float
    mode: TiltMode
    betas_deg: tuple[float, float, float, float]
    delta_deg: tuple[float, float, float, float]

    def beta_for_season(self, season: int) -> float:
        return self.betas_deg[_check_index(season, "season", 4) - 1]

    def rounded(self) -> tuple[int, int, int, int]:
        """Whole-degree display values, .5 always rounding up."""
        return tuple(round_half_up(b) for b in self.betas_deg)


def seasonal_schedule(loc: Location, mode: TiltMode = TiltMode.PAPER) -> SeasonalSchedule:
    """Seasonal tilts as means of the monthly schedule in blocks of three."""
    return _seasonal(monthly_schedule(loc, mode))


def _seasonal(monthly: MonthlySchedule) -> SeasonalSchedule:
    betas = tuple(sum(monthly.betas_deg[m - 1] for m in months) / 3 for months in SEASON_MONTHS)
    deltas = tuple(b - monthly.latitude_deg for b in betas)
    return SeasonalSchedule(monthly.latitude_deg, monthly.mode, betas, deltas)


class TiltPolicy:
    """A named policy: one panel tilt for each day of the 365-day year.

    Construct through the classmethods fixed, seasonal, monthly and daily;
    label is a short tag used in reports that starts with the classmethod's
    name. tilts_deg holds the tilt of day 1 first. A policy is read-only, so
    its tilts stay the ones the constructor checked.
    """

    def __init__(self, label: str, tilts_deg: Sequence[float]):
        tilts = list(tilts_deg)
        # one pass with no call per float tilt; any other type (a bool too) gets _check_tilt
        for tilt in [t for t in tilts if t.__class__ is not float or not 0.0 <= t <= 90.0]:
            _check_tilt(tilt)
        if len(tilts) != DAYS_PER_YEAR:
            raise ValueError(f"a policy needs {DAYS_PER_YEAR} tilts, got {len(tilts)}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "tilts_deg", tuple(map(float, tilts)))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"TiltPolicy is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"TiltPolicy({self.label})"

    def tilt_for_day(self, day: int) -> float:
        return self.tilts_deg[_check_day(day) - 1]

    @classmethod
    def fixed(cls, tilt_deg: float) -> "TiltPolicy":
        tilt = _check_tilt(tilt_deg)
        return cls(f"fixed({tilt:.2f})", (tilt,) * DAYS_PER_YEAR)

    @classmethod
    def seasonal(cls, schedule: SeasonalSchedule) -> "TiltPolicy":
        tilts = [schedule.betas_deg[s] for s in _SEASON_INDEX]
        return cls(f"seasonal({TiltMode(schedule.mode).value})", tilts)

    @classmethod
    def monthly(cls, schedule: MonthlySchedule) -> "TiltPolicy":
        tilts = [schedule.betas_deg[m] for m in _MONTH_INDEX]
        return cls(f"monthly({TiltMode(schedule.mode).value})", tilts)

    @classmethod
    def daily(cls, loc: Location) -> "TiltPolicy":
        return cls("daily", _daily_year(loc)[0])
