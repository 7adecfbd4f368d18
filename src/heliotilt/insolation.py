"""Clear-sky beam insolation on a tilted, south-facing plane.

Direct-normal irradiance follows the air-mass attenuation law
S * 0.7 ** (AM ** 0.678) with S = 1353 W/m^2 and AM = 1 / cos(zenith);
the zenith is capped at 89 deg, which makes AM = 1 / max(sin(elev),
sin 1 deg) and keeps it finite at the horizon. The plane-of-array
component multiplies by the incidence cosine floored at zero. Beam
only: no diffuse or ground-reflected terms, so the policy comparison is
purely geometric.

Energy is the trapezoid rule over the hour angle from sunrise to sunset,
in Wh per m^2, and every figure is one weighted sum: _sample_days samples
a day range once, _energy adds DNI * trapezoid weight * max(0, cosine),
and _best_tilt finds the tilt that maximises that sum. The sun's horizon
coordinates depend on the hour angle only through cos(omega), so the grid
holds each day from noon to sunset and weighs it twice for the morning.
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
    _sun_vector,
    _up_south,
    declination_exact,
    sunrise_hour_angle,
)
from .schedule import TiltMode, TiltPolicy, _check_tilt, monthly_schedule, seasonal_schedule

SOLAR_CONSTANT_W_M2 = 1353.0
TRANSMITTANCE = 0.7
AIR_MASS_EXPONENT = 0.678
ZENITH_CAP_DEG = 89.0

FULL_YEAR = (1, 365)
_BLOCK_SAMPLES = 1 << 14  # a grid block holds the days that start in one such window


@dataclass(frozen=True)
class IrradianceModel:
    """The integration step in minutes. The clear-sky constants are the module's;
    energy is proportional to S, so S / 1353 rescales it and moves no tilt or gain."""

    time_step_minutes: float = 1.0

    def __post_init__(self) -> None:
        _check_step(self.time_step_minutes)

    def direct_normal(self, elevation_deg):
        """Direct-normal irradiance in W/m^2 for a sun elevation.

        Scalar in, scalar out; ndarray in, ndarray out. Zero at and
        below the horizon.
        """
        out = _direct_normal(np.sin(np.radians(elevation_deg)))
        return float(out) if np.ndim(elevation_deg) == 0 else out


def _direct_normal(sin_elev):
    """S * 0.7 ** (AM ** 0.678), AM = 1 / max(sin(elev), sin 1 deg); 0 unless sin(elev) > 0."""
    air_mass = 1.0 / np.maximum(sin_elev, np.sin(np.radians(90.0 - ZENITH_CAP_DEG)))
    dni = SOLAR_CONSTANT_W_M2 * TRANSMITTANCE ** (air_mass ** AIR_MASS_EXPONENT)
    return np.where(sin_elev > 0.0, dni, 0.0)


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
    with the panel azimuth south-referenced like the solar azimuth, from
    the _sun_vector terms that sun_position uses too. A raw
    geometric value in [-1, 1]: negative means the sun is behind the panel
    plane, and a sub-horizon sun still evaluates, so energy callers must
    floor at zero and mask night themselves. At solar noon with a south
    panel this reduces to sin(noon_elevation + tilt).
    """
    if not -90.0 <= tilt_deg <= 90.0:
        raise ValueError(f"tilt must be in [-90, 90] degrees, got {tilt_deg}")
    if not math.isfinite(panel_azimuth_deg):
        raise ValueError(f"panel azimuth must be finite degrees, got {panel_azimuth_deg}")
    _, up, south, west = _sun_vector(loc, day, hour_angle_deg)
    panel, tilt = math.radians(panel_azimuth_deg), math.radians(tilt_deg)
    facing = south * math.cos(panel) + west * math.sin(panel)
    return facing * math.sin(tilt) + up * math.cos(tilt)


class _Grid(NamedTuple):
    """Flat hour-angle samples of a day range, day after day."""

    horiz: np.ndarray   # cos(elev) * cos(az), the sin(tilt) coefficient
    vert: np.ndarray    # sin(elev), the cos(tilt) coefficient
    weight: np.ndarray  # DNI times the trapezoid weight in hours
    counts: np.ndarray  # samples of each day kept from noon to sunset, 0 on polar-night days


def _sample_days(loc: Location, period: tuple[int, int], model: IrradianceModel | None) -> _Grid:
    """Each day of a period from solar noon to sunset at the model step.

    The trapezoid over np.linspace(-omega_s, omega_s, n) folded at noon:
    horiz and vert depend on the hour angle only through cos(omega), so a
    day keeps omega_s - k * spacing, k = 0 .. (n - 1) // 2, and each kept
    sample weighs twice its two-sided trapezoid weight, except an odd n's
    noon sample, which has no mirror image (found by n's parity, since its
    omega rounds to about +-1e-17, either sign). k = 0 sits exactly on the
    horizon, with the cos(omega_s) of both of the linspace's ends. Days
    are laid flat and put straight through the spherical transform, a
    block of whole days at a time so temporaries stay near _BLOCK_SAMPLES long.
    """
    model = model or IrradianceModel()
    days = range(period[0], period[1] + 1)
    spans = np.array([sunrise_hour_angle(loc, day) for day in days])
    step_deg = model.time_step_minutes / 4.0  # 15 deg of hour angle per hour
    full = np.array([math.ceil(2.0 * s / step_deg) + 1 if s > 0.0 else 0 for s in spans])
    counts = (full + 1) // 2
    ends, phi = np.cumsum(counts), math.radians(loc.latitude_deg)
    starts = ends - counts
    delta = np.radians([declination_exact(day) for day in days])
    spacing = 2.0 * spans / np.maximum(full - 1, 1)  # np.linspace's step
    per_day = (starts, spacing, spans, np.sin(delta), np.cos(delta))
    samples = np.empty((3, int(ends[-1])))
    edges = [0, *np.flatnonzero(np.diff(starts // _BLOCK_SAMPLES)) + 1, len(counts)]
    for first, last in zip(edges, edges[1:]):
        a, b, n = int(starts[first]), int(ends[last - 1]), counts[first:last]
        start, step, span, sin_d, cos_d = (np.repeat(x[first:last], n) for x in per_day)
        omega = span - (np.arange(a, b, dtype=float) - start) * step  # sunset back to noon
        hours = step / 7.5  # twice the two-sided trapezoid weight in hours
        hours[starts[first:last][n > 0] - a] /= 2.0  # k = 0: the two horizon half-steps
        hours[ends[first:last][full[first:last] % 2 == 1] - a - 1] /= 2.0  # odd n: noon once
        up, south = _up_south(math.sin(phi), math.cos(phi), sin_d, cos_d, np.cos(np.radians(omega)))
        samples[:, a:b] = south, up, _direct_normal(up) * hours
    return _Grid(*samples, counts)


def _energy(grid: _Grid, tilt_deg) -> float:
    """Wh/m^2: weight @ max(0, sin(tilt) horiz + cos(tilt) vert), one tilt or one per day."""
    tilt = np.radians(tilt_deg)
    sin_t, cos_t = np.sin(tilt), np.cos(tilt)
    if np.ndim(tilt):  # one tilt per day, over that day's samples
        sin_t, cos_t = np.repeat(sin_t, grid.counts), np.repeat(cos_t, grid.counts)
    sin_t *= grid.horiz  # in place for per-day tilts: two rows, not four
    cos_t *= grid.vert
    cos_theta = np.add(sin_t, cos_t, out=sin_t)
    return float(grid.weight @ np.maximum(cos_theta, 0.0, out=cos_theta))


def _segments(grid: _Grid) -> tuple[np.ndarray, np.ndarray]:
    """Sorted cut-offs in radians, and A and B of each segment between them.

    In [0, 90] only samples with horiz < 0 (sun north of the east-west line)
    are clipped, once the tilt passes atan2(vert, -horiz). Between sorted
    cut-offs E = A sin(tilt) + B cos(tilt), A = H - H_cut and B = V - V_cut
    from prefix sums in cut-off order; segment k spans [cut[k-1], cut[k]].
    """
    behind = grid.horiz < 0.0
    cut = np.arctan2(grid.vert[behind], -grid.horiz[behind])
    order = np.argsort(cut)
    cut.sort()
    ab = np.zeros((2, cut.size + 1))  # H_cut and V_cut, then A and B
    for row, coefficient in zip(ab, (grid.horiz, grid.vert)):
        weighted = grid.weight[behind]
        weighted *= coefficient[behind]
        np.cumsum(weighted[order], out=row[1:])
        np.subtract(grid.weight @ coefficient, row, out=row)
    return cut, ab  # mask, order and weights freed, so the peak rows fit under the sort's peak


def _best_tilt(grid: _Grid) -> float:
    """The tilt in [0, 90] deg where _energy peaks, the lowest one on ties.

    E is continuous, so its maximum is the best of the segment peaks
    atan2(A, B) (_segments), each clipped into its segment (so they rise
    with it) and into [0, 90]: Klein's lit interval (Solar Energy 19:325).
    """
    cut, ab = _segments(grid)
    peak = np.arctan2(*ab)
    np.maximum(peak[1:], cut, out=peak[1:])  # segment k spans [cut[k-1], cut[k]]
    np.minimum(peak[:-1], cut, out=peak[:-1])
    del cut
    np.clip(peak, 0.0, np.pi / 2.0, out=peak)
    ab[0] *= np.sin(peak)
    ab[1] *= np.cos(peak)
    return float(np.degrees(peak[np.argmax(np.add(*ab, out=ab[0]))]))


def daily_insolation(
    loc: Location,
    day: int,
    tilt_deg: float,
    model: IrradianceModel | None = None,
) -> InsolationResult:
    """One day's plane-of-array energy at a fixed tilt, in Wh/m^2.

    Zero on polar-night days. The geometry is symmetric about solar
    noon, so the afternoon samples, weighted twice, stand in for the
    morning ones as well: the result is the full trapezoid from sunrise
    to sunset.
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
    return InsolationResult(_energy(grid, policy.tilts_deg), FULL_YEAR, policy.label)


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
    """Best single fixed tilt over a day range, exact for the sampled model
    (_best_tilt); ties go to the lower tilt. The panel faces south at any latitude."""
    grid = _sample_days(loc, _check_period(period), model)
    tilt = _best_tilt(grid)
    return OptimalTilt(tilt, _energy(grid, tilt))


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
    *energies, base = (_energy(grid, policy.tilts_deg) for policy in policies)
    gains = [PolicyGain(p.label, e, 100.0 * (e - base) / base) for p, e in zip(policies, energies)]
    baseline = PolicyGain(policies[-1].label, base, 0.0)
    return GainReport(loc.latitude_deg, mode, baseline, tuple(gains))
