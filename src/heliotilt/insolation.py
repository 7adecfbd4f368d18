"""Clear-sky beam insolation on a tilted, south-facing plane.

Direct-normal irradiance follows the air-mass attenuation law
S * 0.7 ** (AM ** 0.678) with S = 1353 W/m^2 and AM = 1 / cos(zenith);
the zenith is capped at 89 deg, which makes AM = 1 / max(sin(elev),
sin 1 deg) and keeps it finite at the horizon. It is evaluated as
S * exp(ln 0.7 * exp(-0.678 * ln max(sin(elev), sin 1 deg))), the same
law in one log and two exps, which matches the power form to 4e-15
relative in less than half the time of numpy's two powers. The plane-of-array
component multiplies by the incidence cosine floored at zero. Beam
only: no diffuse or ground-reflected terms, so the policy comparison is
purely geometric.

Energy is the trapezoid rule over the hour angle from sunrise to sunset,
in Wh per m^2, and every figure is one weighted sum: _sample_days samples
a day range once, _energy adds DNI * trapezoid weight * max(0, cosine) at
one tilt, _energies adds it for rows of per-day tilts from one split of
the grid, and _best_tilt finds the tilt that maximises it. The sun's
horizon coordinates depend on the hour angle only through cos(omega), so the
grid holds each day from noon to sunset and weighs it twice for the morning.
cos(omega) comes from tan(omega / 2): numpy's tan runs in SIMD, its cos in libm (_sample_days).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    DAYS_PER_YEAR,
    Location,
    _check_day,
    _check_range,
    _check_step,
    _declination,
    _is_bool,
    _latitude_sin_cos,
    _sun_vector,
    _sunset_angle,
    _up_south,
)
from .schedule import TiltMode, TiltPolicy, _check_tilt, _seasonal, monthly_schedule

SOLAR_CONSTANT_W_M2 = 1353.0
TRANSMITTANCE = 0.7
AIR_MASS_EXPONENT = 0.678
ZENITH_CAP_DEG = 89.0
_SIN_CAP = math.sin(math.radians(90.0 - ZENITH_CAP_DEG))  # sin(elev) at the zenith cap

FULL_YEAR = (1, DAYS_PER_YEAR)
_MAX_FLOAT = math.nextafter(math.inf, 0.0)  # a panel azimuth's only bound is finiteness
# a grid block holds the days that start in one such window; 1 << 15 refaults about 1,600
# pages per site_survey op, 1 << 12 is 15% slower, 1 << 13 no faster (ROADMAP.md item 2)
_BLOCK_SAMPLES = 1 << 14


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
        below the horizon; a non-finite or bool elevation is a ValueError.
        """
        if _is_bool(elevation_deg) or not np.all(np.isfinite(elevation_deg)):
            raise ValueError(f"elevation must be finite degrees, got {elevation_deg}")
        out = _direct_normal(np.sin(np.radians(np.atleast_1d(elevation_deg))))
        return float(out[0]) if np.ndim(elevation_deg) == 0 else out


_DEFAULT_MODEL = IrradianceModel()


def _direct_normal(sin_elev: np.ndarray) -> np.ndarray:
    """S * 0.7 ** (AM ** 0.678) in its exp-log form, as a new array; 0 unless sin(elev) > 0."""
    dni = np.maximum(sin_elev, _SIN_CAP)
    np.log(dni, out=dni)  # -ln(AM)
    np.exp(np.multiply(dni, -AIR_MASS_EXPONENT, out=dni), out=dni)  # AM ** 0.678
    np.exp(np.multiply(dni, math.log(TRANSMITTANCE), out=dni), out=dni)
    dni *= SOLAR_CONSTANT_W_M2
    dni *= sin_elev > 0.0  # finite dni times 0 is +0.0
    return dni


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
    _check_range(tilt_deg, -90.0, 90.0, "tilt must be in [-90, 90] degrees")
    _check_range(panel_azimuth_deg, -_MAX_FLOAT, _MAX_FLOAT, "panel azimuth must be finite degrees")
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

    The trapezoid over np.linspace(-omega_s, omega_s, n) folded at noon: horiz and vert
    depend on the hour angle only through cos(omega), so a day keeps omega_s - k * spacing,
    k = 0 .. (n - 1) // 2, and each kept sample weighs twice its two-sided trapezoid weight,
    except an odd n's noon sample, which has no mirror image (found by n's parity, since its
    omega rounds to about +-1e-17, either sign). k = 0 sits exactly on the horizon and keeps
    the np.cos(omega_s) of both of the linspace's ends, not the half-angle form: its sin(elev)
    is +-1e-17 of noise whose sign sets its weight. One scalar pass over the days lists each
    day's row, the horizon and noon samples and the blocks (a block's days start in one
    _BLOCK_SAMPLES window). A one-day period broadcasts its row over its samples; a longer one
    repeats the rows of each block over the block's samples and copies each block into the
    grid. Either way the rows are only read, and what _up_south returns is the grid.
    """
    if model is None:
        model = _DEFAULT_MODEL
    elif not isinstance(model, IrradianceModel):  # only its constructor checks the step
        raise TypeError(f"model must be an IrradianceModel or None, got {type(model).__name__}")
    step_deg = model.time_step_minutes / 4.0  # 15 deg of hour angle an hour
    sin_phi, cos_phi = _latitude_sin_cos(loc.latitude_deg)  # no horizon noise at +-90
    tan_phi = math.tan(math.radians(loc.latitude_deg))  # sunrise_hour_angle's spans, +-90 too
    per_day, counts, edges, once = [], [], [], []
    blocks = [(0, 0, 0)]  # (first day, first sample, first edge) of each block
    end = 0
    for day in range(period[0], period[1] + 1):
        # scalar math, as in sunrise_hour_angle: a last-bit change in a span flips horizon weights
        decl = _declination(day)
        span = _sunset_angle(tan_phi, decl)
        n = math.ceil(2.0 * span / step_deg) + 1 if span > 0.0 else 0
        start, end = end, end + (n + 1) // 2  # the day is samples start:end
        if start // _BLOCK_SAMPLES > blocks[-1][1] // _BLOCK_SAMPLES:
            blocks.append((len(counts), start, len(edges)))
        if n:
            edges.append(start)  # k = 0: the two horizon half-steps
        if n % 2:
            once.append(end - 1)  # odd n: noon once
        delta = math.radians(decl)
        spacing = 2.0 * span / max(n - 1, 1)  # np.linspace's step
        hours = spacing / 7.5  # twice the two-sided trapezoid hours
        per_day.append((start, spacing, span, math.sin(delta), math.cos(delta), hours))
        counts.append(end - start)
    blocks.append((len(counts), end, len(edges)))

    def fill(k, spacing, span, sin_d, cos_d, hours, horizon, edge):
        """(horiz, vert, weight) from the day terms, scalars or rows, as new arrays; k, the
        index in the day, is scratch, and edge is cos(omega) at horizon."""
        half = np.subtract(span, np.multiply(k, spacing, out=k), out=k)  # sunset back to noon
        half *= math.pi / 360.0  # omega / 2 in radians
        cos_omega = np.tan(half, out=half)
        np.add(np.square(cos_omega, out=cos_omega), 1.0, out=cos_omega)
        np.divide(2.0, cos_omega, out=cos_omega)
        cos_omega -= 1.0  # 2 / (1 + tan(omega / 2) ** 2) - 1
        cos_omega[horizon] = edge
        vert, horiz = _up_south(sin_phi, cos_phi, sin_d, cos_d, cos_omega)
        weight = _direct_normal(vert)
        weight *= hours
        return horiz, vert, weight

    counts = np.array(counts)
    if counts.size == 1:  # the day's own scalars, broadcast over new arrays
        if not end:  # polar night
            return _Grid(*np.empty((3, 0)), counts)
        edge = math.cos(math.radians(span))  # libm's cos, as np.cos calls it
        samples = fill(np.arange(float(end)), *per_day[0][1:], 0, edge)
        for i in edges + once:
            samples[2][i] /= 2.0  # exact, so the DNI may come first
    else:
        rows, samples, starts = np.array(per_day).T, np.empty((3, end)), np.array(edges, dtype=int)
        edge = np.cos(np.radians(rows[2, counts > 0]))
        for (first, a, e), (last, b, f) in zip(blocks, blocks[1:]):
            start, *block = (row.repeat(counts[first:last]) for row in rows[:, first:last])
            k = np.arange(a, b, dtype=float)
            k -= start
            samples[:, a:b] = fill(k, *block, starts[e:f] - a, edge[e:f])
        samples[2, np.array(edges + once, dtype=int)] /= 2.0
    return _Grid(*samples, counts)


def _energy(grid: _Grid, tilt_deg: float) -> float:
    """Wh/m^2 at one tilt, for daily_insolation and the optimum: weight @ max(0, cos(theta))."""
    tilt = math.radians(tilt_deg)  # math's sine and cosine: numpy's bits, without 3 scalar ufuncs
    cos_theta = grid.horiz * math.sin(tilt)
    cos_theta += grid.vert * math.cos(tilt)
    return float(grid.weight @ np.maximum(cos_theta, 0.0, out=cos_theta))


def _energies(grid: _Grid, rows) -> list[float]:
    """Wh/m^2 of each row of per-day tilts in [0, 90], for annual_insolation and gain_report,
    regrouped by max(0, x) = x - min(0, x): sum_d sin(t_d) H_d + cos(t_d) V_d over the lit days
    (H_d, V_d: day sums of weight * horiz and weight * vert) less the sum of min(0, weight *
    cosine) over the horiz < 0 points, the only ones a tilt in [0, 90] clips (_segments).
    """
    lit = grid.counts > 0  # reduceat would give a zero-count day an element, not 0
    tilt = np.radians(rows)[:, lit]
    sin_t, cos_t = np.sin(tilt), np.cos(tilt)
    starts = (np.cumsum(grid.counts) - grid.counts)[lit]
    behind = grid.horiz < 0.0
    per_day = np.add.reduceat(behind, starts)  # each lit day's behind points
    weighted = np.multiply(grid.weight, grid.horiz)  # one scratch row, then weight * vert
    unclipped = sin_t @ np.add.reduceat(weighted, starts)
    w_horiz = weighted[behind]
    np.multiply(grid.weight, grid.vert, out=weighted)
    unclipped += cos_t @ np.add.reduceat(weighted, starts)
    w_vert = weighted[behind]
    del grid, weighted, behind  # so a caller's temporary grid is freed before the rows
    energies = []
    for sin_d, cos_d, total in zip(sin_t, cos_t, unclipped):
        power, part = np.repeat(sin_d, per_day), np.repeat(cos_d, per_day)
        power *= w_horiz  # row by row: a (rows, behind) stack is slower at low latitudes
        power += np.multiply(part, w_vert, out=part)
        energies.append(float(total - np.minimum(power, 0.0, out=power).sum()))
    return energies


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
    cut = cut[order]
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
    atan2(A, B) (_segments), each clipped into [0, 90] and into its segment:
    Klein's lit interval (Solar Energy 19:325). Cut-offs are convex kinks of E,
    so only the peaks that lie in their own segment once clipped into [0, 90] can win.
    """
    cut, ab = _segments(grid)
    peak = np.clip(np.arctan2(*ab), 0.0, np.pi / 2.0)
    inside = np.r_[True, peak[1:] >= cut] & np.r_[peak[:-1] <= cut, True]  # in [cut[k-1], cut[k]]
    (a, b), peak = ab[:, inside], peak[inside]
    return float(np.degrees(peak[np.argmax(a * np.sin(peak) + b * np.cos(peak))]))


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
    if not isinstance(policy, TiltPolicy):  # only its constructor checks the tilts
        raise TypeError(f"policy must be a TiltPolicy, got {type(policy).__name__}")
    energy = _energies(_sample_days(loc, FULL_YEAR, model), [policy.tilts_deg])[0]
    return InsolationResult(energy, FULL_YEAR, policy.label)


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
    (_best_tilt); ties go to the lower tilt.

    The panel faces south at any latitude, so south of the equator the
    answer is a flat panel down to 87 S (0 deg at 10 S and 33.9 S), not
    the best tilt of an equator-facing one; ROADMAP.md item 5 plans that
    mirror.
    """
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
    monthly = monthly_schedule(loc, mode)
    policies = (
        TiltPolicy.seasonal(_seasonal(monthly)),
        TiltPolicy.monthly(monthly),
        TiltPolicy.daily(loc),
        TiltPolicy.fixed(loc.latitude_deg),
    )
    rows = [policy.tilts_deg for policy in policies]  # the grid is _energies' alone to free
    *energies, base = _energies(_sample_days(loc, FULL_YEAR, model), rows)
    gains = [PolicyGain(p.label, e, 100.0 * (e - base) / base) for p, e in zip(policies, energies)]
    baseline = PolicyGain(policies[-1].label, base, 0.0)
    return GainReport(loc.latitude_deg, mode, baseline, tuple(gains))
