"""Clear-sky beam insolation on a tilted, south-facing plane.

Direct-normal irradiance follows the air-mass attenuation law
S * 0.7 ** (AM ** 0.678) with AM = 1 / cos(zenith); the zenith is
capped at 89 deg so the air mass stays finite at the horizon. The
plane-of-array component multiplies by the incidence cosine floored at
zero. Beam only: no diffuse or ground-reflected terms, which keeps the
comparison between tilt policies purely geometric.

Energy is the trapezoid rule over the hour angle from sunrise to sunset,
in Wh per m^2, and every figure is one weighted sum: _sample_days samples
a day range once, _energy adds DNI * trapezoid weight * max(0, cosine).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    Location,
    _check_day,
    _check_step,
    _elevation_azimuth,
    declination_exact,
    sun_position,
    sunrise_hour_angle,
)
from .schedule import TiltMode, TiltPolicy, _check_tilt, monthly_schedule, seasonal_schedule

TRANSMITTANCE = 0.7
AIR_MASS_EXPONENT = 0.678
ZENITH_CAP_DEG = 89.0

# brute-force sweep resolution for optimize_fixed_tilt
COARSE_STEP_DEG = 0.5
FINE_STEP_DEG = 0.05

FULL_YEAR = (1, 365)


@dataclass(frozen=True)
class IrradianceModel:
    """Clear-sky constants plus the integration step in minutes."""

    solar_constant_w_m2: float = 1353.0
    time_step_minutes: float = 1.0

    def __post_init__(self) -> None:
        if self.solar_constant_w_m2 <= 0.0:
            raise ValueError("solar constant must be positive")
        _check_step(self.time_step_minutes)

    def direct_normal(self, elevation_deg):
        """Direct-normal irradiance in W/m^2 for a sun elevation.

        Scalar in, scalar out; ndarray in, ndarray out. Zero at and
        below the horizon.
        """
        elev = np.asarray(elevation_deg, dtype=float)
        zenith = np.minimum(90.0 - elev, ZENITH_CAP_DEG)
        air_mass = 1.0 / np.cos(np.radians(zenith))
        dni = self.solar_constant_w_m2 * TRANSMITTANCE ** (air_mass ** AIR_MASS_EXPONENT)
        out = np.where(elev > 0.0, dni, 0.0)
        if np.ndim(elevation_deg) == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class InsolationResult:
    """Energy total in Wh/m^2 plus the day range and policy it covers."""

    energy_wh_m2: float
    day_range: tuple[int, int]
    policy: str


class OptimalTilt(NamedTuple):
    tilt_deg: float
    energy_wh_m2: float


@dataclass(frozen=True)
class PolicyGain:
    """One policy's annual energy and its percent gain over the baseline."""

    policy: str
    energy_wh_m2: float
    gain_percent: float


@dataclass(frozen=True)
class GainReport:
    """Annual comparison of adjustment policies against fixed-at-latitude."""

    latitude_deg: float
    mode: TiltMode
    baseline: PolicyGain
    policies: tuple[PolicyGain, ...]


def incidence_cosine(
    loc: Location,
    day: int,
    hour_angle_deg: float,
    tilt_deg: float,
    panel_azimuth_deg: float = 0.0,
) -> float:
    """Cosine of the angle between the sun and the panel normal.

    cos(theta) = cos(elev) cos(az - panel_az) sin(tilt) + sin(elev) cos(tilt),
    with the panel azimuth south-referenced like the solar azimuth. A raw
    geometric value in [-1, 1]: negative means the sun is behind the panel
    plane, and a sub-horizon sun still evaluates, so energy callers must
    floor at zero and mask night themselves. At solar noon with a south
    panel this reduces to sin(noon_elevation + tilt).
    """
    if not -90.0 <= tilt_deg <= 90.0:
        raise ValueError(f"tilt must be in [-90, 90] degrees, got {tilt_deg}")
    angles = sun_position(loc, day, hour_angle_deg)
    elev = math.radians(angles.elevation_deg)
    az = math.radians(angles.azimuth_deg - panel_azimuth_deg)
    tilt = math.radians(tilt_deg)
    return math.cos(elev) * math.cos(az) * math.sin(tilt) + math.sin(elev) * math.cos(tilt)


class _Grid(NamedTuple):
    """Flat hour-angle samples of a day range, day after day."""

    horiz: np.ndarray   # cos(elev) * cos(az), the sin(tilt) coefficient
    vert: np.ndarray    # sin(elev), the cos(tilt) coefficient
    weight: np.ndarray  # DNI times the trapezoid weight in hours
    counts: np.ndarray  # samples of each day, 0 on polar-night days


def _sample_days(loc: Location, period: tuple[int, int], model: IrradianceModel | None) -> _Grid:
    """Each day of a period from sunrise to sunset at the model step.

    Filled day by day into preallocated rows: joining whole days would
    hold the range twice.
    """
    model = model or IrradianceModel()
    days = range(period[0], period[1] + 1)
    spans = [sunrise_hour_angle(loc, day) for day in days]
    step_deg = model.time_step_minutes / 4.0  # 15 deg of hour angle per hour
    counts = [math.ceil(2.0 * s / step_deg) + 1 if s > 0.0 else 0 for s in spans]
    samples = np.empty((3, sum(counts)))
    i = 0
    for day, omega_s, n in zip(days, spans, counts):
        omega = np.linspace(-omega_s, omega_s, n)
        elev, az = _elevation_azimuth(loc.latitude_deg, declination_exact(day), omega)
        elev_rad = np.radians(elev)
        hours = np.zeros(n)
        hours[:-1] = half = np.diff(omega / 15.0) / 2.0
        hours[1:] += half
        samples[0, i:i + n] = np.cos(elev_rad) * np.cos(np.radians(az))
        samples[1, i:i + n] = np.sin(elev_rad)
        samples[2, i:i + n] = model.direct_normal(elev) * hours
        i += n
    return _Grid(*samples, np.array(counts))


def _energy(grid: _Grid, tilt_deg) -> float:
    """Wh/m^2: weight @ max(0, sin(tilt) horiz + cos(tilt) vert), one tilt or one per sample."""
    tilt = np.radians(tilt_deg)
    cos_theta = np.sin(tilt) * grid.horiz
    cos_theta += np.cos(tilt) * grid.vert
    return float(grid.weight @ np.maximum(cos_theta, 0.0, out=cos_theta))


def _policy_energy(grid: _Grid, policy: TiltPolicy) -> float:
    return _energy(grid, np.repeat(policy.tilts_deg, grid.counts))


def daily_insolation(
    loc: Location,
    day: int,
    tilt_deg: float,
    model: IrradianceModel | None = None,
) -> InsolationResult:
    """One day's plane-of-array energy at a fixed tilt, in Wh/m^2.

    Zero on polar-night days. Symmetric about solar noon because the
    geometry is, so the morning half carries exactly half the total.
    """
    d = _check_day(day)
    tilt = _check_tilt(tilt_deg)
    grid = _sample_days(loc, (d, d), model)
    return InsolationResult(_energy(grid, tilt), (d, d), f"fixed({tilt:.2f})")


def annual_insolation(
    loc: Location,
    policy: TiltPolicy,
    model: IrradianceModel | None = None,
) -> InsolationResult:
    """Energy over the full 365-day year under a tilt policy."""
    grid = _sample_days(loc, FULL_YEAR, model)
    return InsolationResult(_policy_energy(grid, policy), FULL_YEAR, policy.label)


def _check_period(period: tuple[int, int]) -> tuple[int, int]:
    try:
        start, end = period
    except (TypeError, ValueError):
        raise ValueError(f"period must be a (start_day, end_day) pair, got {period!r}") from None
    start, end = _check_day(start), _check_day(end)
    if start > end:
        raise ValueError(f"period must be non-empty, got {period!r}")
    return start, end


def optimize_fixed_tilt(
    loc: Location,
    period: tuple[int, int] = FULL_YEAR,
    model: IrradianceModel | None = None,
) -> OptimalTilt:
    """Best single fixed tilt over a day range, by brute force.

    Sweeps [0, 90] deg at 0.5 deg, then refines at 0.05 deg in a 0.5 deg
    window around the coarse winner. Ties break toward the lower tilt.
    The panel is assumed south-facing, whatever the latitude.
    """
    grid = _sample_days(loc, _check_period(period), model)

    def best(tilts: np.ndarray) -> OptimalTilt:
        energies = [_energy(grid, t) for t in tilts]
        i = int(np.argmax(energies))
        return OptimalTilt(float(tilts[i]), energies[i])

    coarse = np.linspace(0.0, 90.0, int(round(90.0 / COARSE_STEP_DEG)) + 1)
    top = best(coarse).tilt_deg
    lo, hi = max(0.0, top - COARSE_STEP_DEG), min(90.0, top + COARSE_STEP_DEG)
    steps = int(round((hi - lo) / FINE_STEP_DEG))
    return best(lo + FINE_STEP_DEG * np.arange(steps + 1))


def gain_report(
    loc: Location,
    model: IrradianceModel | None = None,
    mode: TiltMode = TiltMode.PAPER,
) -> GainReport:
    """Annual energy of seasonal, monthly, and daily adjustment against
    a panel fixed at latitude tilt.

    Gains are percent of the fixed baseline. Finer adjustment never
    loses energy here, so the gains come ordered daily >= monthly >=
    seasonal >= 0 (the baseline is not the exact annual optimum, so
    small extra gains over it are expected as well).
    """
    mode = TiltMode(mode)
    policies = (
        TiltPolicy.seasonal(seasonal_schedule(loc, mode)),
        TiltPolicy.monthly(monthly_schedule(loc, mode)),
        TiltPolicy.daily(loc),
        TiltPolicy.fixed(loc.latitude_deg),
    )
    grid = _sample_days(loc, FULL_YEAR, model)
    *energies, base = (_policy_energy(grid, policy) for policy in policies)
    gains = [PolicyGain(p.label, e, 100.0 * (e - base) / base) for p, e in zip(policies, energies)]
    baseline = PolicyGain(policies[-1].label, base, 0.0)
    return GainReport(loc.latitude_deg, mode, baseline, tuple(gains))
