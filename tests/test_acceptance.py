"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion; each test also prints the measured values it judged.

Criterion 07 checks the full-year optimal fixed tilt at 20, 32.7 and 45
degrees north against an independent oracle: a Gauss-Legendre integral
of the documented clear-sky model over each day's lit interval, then a
golden-section search. The optimum sits below the latitude, by more at
higher latitudes: long summer days favour a flatter panel, and the
attenuation law cuts the low winter sun more than the high summer sun.
"""
import math
import time

import numpy as np
import pytest

from heliotilt import (
    IrradianceModel,
    Location,
    PAPER_OFFSETS_DEG,
    TiltMode,
    TiltPolicy,
    annual_insolation,
    daily_tilt,
    declination_exact,
    gain_report,
    incidence_cosine,
    monthly_schedule,
    noon_elevation,
    optimize_fixed_tilt,
    schedule_table,
    seasonal_schedule,
    sun_position,
    sunrise_hour_angle,
    tilt_extremes,
)
from heliotilt.cli import main

SITE = Location(32.7)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_monthly_table_reproduction(capsys):
    """Monthly tilts at 32.7 (paper mode) match the reference table to
    0.01 deg and the emitted CSV is byte-identical to the golden file."""
    expected = (
        56.15, 48.17, 40.19, 32.20, 24.22, 16.24,
        8.25, 16.24, 24.22, 32.20, 40.19, 48.17,
    )
    schedule = monthly_schedule(SITE, TiltMode.PAPER)
    max_dev = max(abs(g - w) for g, w in zip(schedule.betas_deg, expected))
    code = main(["schedule", "--lat", "32.7", "--mode", "paper", "--format", "csv"])
    out = capsys.readouterr().out
    import pathlib

    golden = (pathlib.Path(__file__).parent / "golden" / "schedule_monthly_paper_32p7.csv").read_bytes()
    bytes_match = code == 0 and out.encode("utf-8") == golden
    with capsys.disabled():
        verdict(
            "C01 monthly table at 32.7 paper",
            max_dev <= 0.01 and bytes_match,
            f"max deviation {max_dev:.2e} deg (tol 0.01), golden bytes match: {bytes_match}",
        )


def test_criterion_02_seasonal_table_reproduction(capsys):
    """Seasonal tilts at 32.7 (paper mode) round to (48, 24, 16, 40) and
    the pre-rounding means match the mean-of-monthly oracle to 0.01 deg."""
    seasonal = seasonal_schedule(SITE, TiltMode.PAPER)
    oracle = tuple(
        32.7 + sum(PAPER_OFFSETS_DEG[3 * s : 3 * s + 3]) / 3.0 for s in range(4)
    )
    max_dev = max(abs(g - w) for g, w in zip(seasonal.betas_deg, oracle))
    rounded_ok = seasonal.rounded() == (48, 24, 16, 40)
    code = main(
        ["schedule", "--lat", "32.7", "--granularity", "seasonal", "--format", "csv"]
    )
    out = capsys.readouterr().out
    import pathlib

    golden = (pathlib.Path(__file__).parent / "golden" / "schedule_seasonal_paper_32p7.csv").read_bytes()
    bytes_match = code == 0 and out.encode("utf-8") == golden
    with capsys.disabled():
        verdict(
            "C02 seasonal table at 32.7 paper",
            rounded_ok and max_dev <= 0.01 and bytes_match,
            f"rounded {seasonal.rounded()}, max mean deviation {max_dev:.2e} deg, "
            f"golden bytes match: {bytes_match}",
        )


def test_criterion_03_declination_anchors(capsys):
    """Declination is 0 at day 81 (1e-9), about +23.45 at the June peak
    and about -23.45 at the December trough (0.05 deg)."""
    zero = abs(declination_exact(81))
    values = {d: declination_exact(d) for d in range(1, 366)}
    peak_day = max(values, key=values.get)
    trough_day = min(values, key=values.get)
    peak_err = abs(values[peak_day] - 23.45)
    trough_err = abs(values[trough_day] + 23.45)
    ok = (
        zero <= 1e-9
        and peak_err <= 0.05
        and trough_err <= 0.05
        and peak_day in range(168, 177)
        and trough_day in range(351, 360)
    )
    with capsys.disabled():
        verdict(
            "C03 declination anchors",
            ok,
            f"|decl(81)| = {zero:.1e}, peak {values[peak_day]:+.4f} at d={peak_day}, "
            f"trough {values[trough_day]:+.4f} at d={trough_day} (tol 0.05)",
        )


def test_criterion_04_tilt_complements_noon_elevation(capsys):
    """Daily tilt plus noon elevation equals 90 deg for every day at all
    tested latitudes (1e-9, unclamped cases)."""
    worst = 0.0
    for lat in (24.0, 32.7, 45.0, 60.0, 66.0):
        loc = Location(lat)
        for d in range(1, 366):
            worst = max(
                worst, abs(daily_tilt(loc, d) + noon_elevation(loc, d) - 90.0)
            )
    with capsys.disabled():
        verdict(
            "C04 tilt + noon elevation = 90",
            worst <= 1e-9,
            f"worst residual {worst:.2e} deg over 5 latitudes x 365 days (tol 1e-9)",
        )


def test_criterion_05_mode_discrepancy_documented(capsys):
    """Exact mode reports tilt extremes (9.25, 56.15) at 32.7 while paper
    mode reports (8.25, 56.15), and emitted metadata records the
    difference."""
    exact = tilt_extremes(SITE, TiltMode.EXACT)
    paper = tilt_extremes(SITE, TiltMode.PAPER)
    values_ok = (
        abs(exact[0] - 9.25) <= 1e-9
        and abs(exact[1] - 56.15) <= 1e-9
        and abs(paper[0] - 8.25) <= 1e-9
        and abs(paper[1] - 56.15) <= 1e-9
    )
    meta = schedule_table(SITE, "monthly", TiltMode.PAPER).metadata
    noted = (
        meta["tilt_min_deg"] == pytest.approx(8.25)
        and "-24.45" in meta["offset_note"]
        and schedule_table(SITE, "monthly", TiltMode.EXACT).metadata["tilt_min_deg"]
        == pytest.approx(9.25)
    )
    with capsys.disabled():
        verdict(
            "C05 paper/exact extremes discrepancy",
            values_ok and noted,
            f"exact {tuple(round(v, 2) for v in exact)}, "
            f"paper {tuple(round(v, 2) for v in paper)}, metadata notes it: {noted}",
        )


def test_criterion_06_noon_normal_incidence(capsys):
    """A panel tilted to latitude minus declination sees the noon sun at
    normal incidence (cosine 1 within 1e-9) across 20+ latitude/day pairs."""
    pairs = [
        (lat, day)
        for lat in (5.0, 15.0, 25.0, 32.7, 45.0, 55.0, 60.0, 66.0)
        for day in (21, 81, 172, 266, 355)
    ]
    worst = 0.0
    for lat, day in pairs:
        loc = Location(lat)
        tilt = lat - sun_position(loc, day, 0.0).declination_deg
        worst = max(worst, abs(incidence_cosine(loc, day, 0.0, tilt) - 1.0))
    with capsys.disabled():
        verdict(
            "C06 noon normal incidence",
            worst <= 1e-9,
            f"worst |cos(theta) - 1| = {worst:.2e} over {len(pairs)} pairs (tol 1e-9)",
        )


# Oracle for C07, written from the README's model formulas with no
# heliotilt internals: DNI = 1353 * 0.7 ** (AM ** 0.678) with the zenith
# capped at 89 deg, and declination 23.45 sin(360/365 (d - 81)). A
# south-facing plane at tilt beta sees cos(theta) = sin(phi - beta)
# sin(delta) + cos(phi - beta) cos(delta) cos(omega), which falls with
# |omega|, so it is lit for |omega| <= min(omega_s, arccos(-tan(phi - beta)
# tan(delta))) (Klein 1977, Solar Energy 19:325; Duffie & Beckman ch. 1-2).
# Each half-day is integrated by Gauss-Legendre on that interval, split
# where the elevation is 1 deg, the kink of the zenith cap, and at 10 deg:
# the air mass blows up at sunrise, just past the kink, and the extra
# break keeps the rule converging fast near it.
_DECLINATION_RAD = np.radians(
    23.45 * np.sin(np.radians(360.0 / 365.0 * (np.arange(1, 366) - 81)))
)[:, None]
_SIN_CAP = math.sin(math.radians(1.0))  # sin(elevation) at the 89 deg zenith cap
_NODES = 20  # per segment; doubling them moves the annual energy ~1e-15


def _oracle_annual_energy(lat_deg: float, tilt_deg: float, nodes: int = _NODES) -> float:
    """Full-year beam energy on a south-facing plane, Wh/m^2."""
    phi = math.radians(lat_deg)
    plane = math.radians(lat_deg - tilt_deg)
    delta = _DECLINATION_RAD

    def arccos(x):
        return np.arccos(np.clip(x, -1.0, 1.0))  # 0 / pi past the polar limits

    def hour_angle_at(elev_deg):
        sin_elev = math.sin(math.radians(elev_deg))
        return arccos((sin_elev - math.sin(phi) * np.sin(delta)) / (math.cos(phi) * np.cos(delta)))

    lit = np.minimum(hour_angle_at(0.0), arccos(-math.tan(plane) * np.tan(delta)))
    breaks = [0.0, np.minimum(lit, hour_angle_at(10.0)), np.minimum(lit, hour_angle_at(1.0)), lit]
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = (b - a) / 2.0
        omega = (a + b) / 2.0 + half * x
        sin_elev = math.sin(phi) * np.sin(delta) + math.cos(phi) * np.cos(delta) * np.cos(omega)
        dni = 1353.0 * 0.7 ** ((1.0 / np.maximum(sin_elev, _SIN_CAP)) ** 0.678)
        cos_theta = math.sin(plane) * np.sin(delta) + math.cos(plane) * np.cos(delta) * np.cos(omega)
        total += float(np.sum(half * w * dni * cos_theta))
    return 2.0 * total * 12.0 / math.pi  # both half-days; radians of hour angle -> hours


def _oracle_optimum(lat_deg: float) -> tuple[float, float]:
    """Annual-energy maximiser over [0, 90] deg: a 1 deg scan brackets it,
    golden section narrows the bracket to 1e-4 deg."""
    def energy(tilt):
        return _oracle_annual_energy(lat_deg, tilt)

    scan = [energy(float(b)) for b in range(91)]
    i = int(np.argmax(scan))
    lo, hi = float(max(i - 1, 0)), float(min(i + 1, 90))
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = energy(c), energy(d)
    while hi - lo > 1e-4:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = energy(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = energy(d)
    best = (lo + hi) / 2.0
    return best, energy(best)


def test_criterion_07_annual_optimum_near_latitude(capsys):
    """The full-year optimal fixed tilt at 20, 32.7, and 45 deg north is
    the model's true optimum and tracks latitude from below, each search
    finishing inside 10 s at the 1-minute integration step.

    Against the independent oracle above, the returned tilt is within
    0.005 deg of the oracle's maximiser (the exact optimum of the 1-minute
    samples sits within about 3e-4 deg of it) and its energy within 1e-5
    relative of the oracle's maximum (the 1-minute
    trapezoid agrees with the oracle to about 1.4e-6). The optimum lies
    strictly below latitude and the gap grows with latitude. The oracle
    checks its own quadrature: doubling the node count moves the annual
    energy by less than 1e-12 relative.
    """
    measured = []
    quad_worst = 0.0
    for lat in (20.0, 32.7, 45.0):
        oracle_tilt, oracle_energy = _oracle_optimum(lat)
        doubled = _oracle_annual_energy(lat, oracle_tilt, nodes=2 * _NODES)
        quad_worst = max(quad_worst, abs(doubled - oracle_energy) / oracle_energy)
        started = time.perf_counter()
        result = optimize_fixed_tilt(Location(lat))
        elapsed = time.perf_counter() - started
        energy_rel = abs(result.energy_wh_m2 - oracle_energy) / oracle_energy
        measured.append((lat, oracle_tilt, result.tilt_deg, energy_rel, elapsed))
    gaps = [lat - tilt for lat, _, tilt, _, _ in measured]
    ok = (
        all(abs(tilt - oracle) <= 0.005 for _, oracle, tilt, _, _ in measured)
        and all(rel <= 1e-5 for *_, rel, _ in measured)
        and all(elapsed < 10.0 for *_, elapsed in measured)
        and 0.0 < gaps[0] < gaps[1] < gaps[2]
        and quad_worst < 1e-12
    )
    detail = ", ".join(
        f"lat {lat:g}: oracle {oracle:.4f}, opt {tilt:.4f} (diff {tilt - oracle:+.1e}, "
        f"{lat - tilt:.2f} below lat, energy rel {rel:.1e}, {elapsed:.3f}s)"
        for lat, oracle, tilt, rel, elapsed in measured
    )
    with capsys.disabled():
        verdict(
            "C07 annual optimum matches oracle, below latitude",
            ok,
            detail + f" (tol 0.005 deg, 1e-5 rel; quadrature self-check "
            f"{quad_worst:.1e} < 1e-12; budget 10s each)",
        )


def test_criterion_08_gain_ordering_and_band(capsys):
    """At 32.7 the annual energies order daily >= monthly >= seasonal >=
    fixed-at-latitude, the seasonal gain lands in [1%, 10%], and the
    whole report finishes inside 30 s at the 1-minute step."""
    started = time.perf_counter()
    report = gain_report(SITE, IrradianceModel(), TiltMode.PAPER)
    elapsed = time.perf_counter() - started
    seasonal, monthly, daily = report.policies
    ordered = (
        daily.energy_wh_m2
        >= monthly.energy_wh_m2
        >= seasonal.energy_wh_m2
        >= report.baseline.energy_wh_m2
    )
    in_band = 1.0 <= seasonal.gain_percent <= 10.0
    with capsys.disabled():
        verdict(
            "C08 gain ordering and seasonal band",
            ordered and in_band and elapsed < 30.0,
            f"gains seasonal {seasonal.gain_percent:.2f}%, monthly "
            f"{monthly.gain_percent:.2f}%, daily {daily.gain_percent:.2f}% "
            f"(ordered: {ordered}, band [1, 10], {elapsed:.1f}s)",
        )


def test_criterion_09_integration_convergence(capsys):
    """Halving the time step changes the annual insolation by less than
    0.1%."""
    policy = TiltPolicy.fixed(32.7)
    coarse = annual_insolation(SITE, policy, IrradianceModel(time_step_minutes=1.0))
    fine = annual_insolation(SITE, policy, IrradianceModel(time_step_minutes=0.5))
    rel = abs(fine.energy_wh_m2 - coarse.energy_wh_m2) / coarse.energy_wh_m2
    with capsys.disabled():
        verdict(
            "C09 integration convergence",
            rel < 1e-3,
            f"1-min vs 0.5-min relative change {rel:.2e} (tol 1e-3)",
        )


def test_criterion_10_symmetry_suite(capsys):
    """Declination is odd about day 81; the monthly table mirrors
    February=December through June=August; morning and afternoon
    insolation agree to 0.1%."""
    decl_worst = max(
        abs(declination_exact(81 + k) + declination_exact(81 - k)) for k in range(1, 81)
    )
    schedule = monthly_schedule(SITE, TiltMode.PAPER)
    table_worst = max(
        abs(schedule.beta_for_month(n) - schedule.beta_for_month(14 - n))
        for n in range(2, 7)
    )
    model = IrradianceModel()
    day, tilt = 120, 25.0
    omega_s = sunrise_hour_angle(SITE, day)
    omegas = np.linspace(0.0, omega_s, 1500)
    halves = []
    for sign in (-1.0, 1.0):
        powers = [
            model.direct_normal(sun_position(SITE, day, sign * float(w)).elevation_deg)
            * max(0.0, incidence_cosine(SITE, day, sign * float(w), tilt))
            for w in omegas
        ]
        halves.append(abs(np.trapezoid(powers, omegas / 15.0)))
    half_rel = abs(halves[0] - halves[1]) / max(halves)
    ok = decl_worst <= 1e-9 and table_worst <= 1e-9 and half_rel < 1e-3
    with capsys.disabled():
        verdict(
            "C10 symmetry suite",
            ok,
            f"declination oddness {decl_worst:.2e}, table mirror {table_worst:.2e}, "
            f"morning/afternoon split {half_rel:.2e} (tols 1e-9, 1e-9, 1e-3)",
        )
