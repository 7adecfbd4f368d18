"""The model numbers README.md prints, recomputed from the library.

Each test formats its values at the README's precision and looks the
sentence up in the README, so a changed digit on either side fails.
"""
import math
import pathlib

from heliotilt import (
    Location,
    TiltMode,
    TiltPolicy,
    daily_tilt,
    gain_report,
    monthly_schedule,
    noon_elevation,
    optimize_fixed_tilt,
    seasonal_schedule,
    sunrise_hour_angle,
    tilt_extremes,
)
from heliotilt import insolation
from heliotilt.cli import main
from heliotilt.insolation import FULL_YEAR, _energies, _sample_days

README = " ".join(
    (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split()
)
LATITUDES = (20.0, 32.7, 45.0)
SITE = Location(32.7)


def optima():
    return [optimize_fixed_tilt(Location(lat)).tilt_deg for lat in LATITUDES]


def gains(mode):
    """Seasonal, monthly and daily percent gains at the README's site and default step."""
    return [p.gain_percent for p in gain_report(SITE, mode=mode).policies]


def test_quick_start_seasonal_tilts():
    rounded = seasonal_schedule(SITE, TiltMode.PAPER).rounded()
    assert f"seasonal_schedule(site, TiltMode.PAPER).rounded() # {rounded}" in README


def test_quick_start_equinox_tilt():
    assert f"daily_tilt(site, 81) # {daily_tilt(SITE, 81):.2f} on the equinox" in README


def test_offset_mode_extremes():
    low, high = tilt_extremes(SITE, TiltMode.PAPER)
    betas = monthly_schedule(SITE, TiltMode.PAPER).betas_deg
    assert (betas.index(low), betas.index(high)) == (6, 0)  # July and January
    assert f"tilt is {low:.2f} (July) and the maximum is {high:.2f} (January)." in README
    exact_low = tilt_extremes(SITE, TiltMode.EXACT)[0]
    assert f"the minimum tilt at 32.7 N is {exact_low:.2f}." in README


def test_solstice_noon_elevation():
    elevation = noon_elevation(SITE, 172)
    assert f"{elevation:.2f}" == f"{90.0 - (32.7 - 23.45):.2f}"
    assert f"elevation computes to {elevation:.2f} degrees, which is 90 - (32.7 - 23.45)" in README


def test_paper_mode_gains():
    sentence = ("come out near {:.1f}% (seasonal), {:.1f}% (monthly), "
                "and {:.1f}% (daily) in paper mode.")
    assert sentence.format(*gains(TiltMode.PAPER)) in README


def test_exact_mode_gains_are_lower():
    (paper_s, paper_m, paper_d), (exact_s, exact_m, exact_d) = map(gains, TiltMode)
    assert exact_s < paper_s and exact_m < paper_m and exact_d == paper_d
    assert "Exact mode gives slightly lower seasonal and monthly gains" in README


def test_solstice_aligned_months():
    # the paper tilts re-keyed to months that start near the 21st (Dey 1
    # first): a day's month is the one whose start lies the fewest days back,
    # and its season the month's triple, January-February-March first
    starts = (356, 21, 51, 80, 111, 142, 173, 204, 235, 266, 296, 326)
    month = [min(range(12), key=lambda m: (day - starts[m]) % 365) for day in range(1, 366)]
    for lat in LATITUDES:
        loc = Location(lat)
        monthly = monthly_schedule(loc, TiltMode.PAPER)
        seasonal = seasonal_schedule(loc, TiltMode.PAPER)
        rows = [TiltPolicy.fixed(lat).tilts_deg,
                TiltPolicy.seasonal(seasonal).tilts_deg,
                [seasonal.betas_deg[m // 3] for m in month],
                TiltPolicy.monthly(monthly).tilts_deg,
                [monthly.betas_deg[m] for m in month]]
        base, *energies = _energies(_sample_days(loc, FULL_YEAR, None), rows)
        gain = [100.0 * (e - base) / base for e in energies]
        assert "| {:g} | {:.2f}% → {:.2f}% | {:.2f}% → {:.2f}% |".format(lat, *gain) in README


def test_full_year_optima():
    sentence = "come out at {:.2f}, {:.2f}, and {:.2f} degrees at 20, 32.7, and 45 degrees north"
    assert sentence.format(*optima()) in README


def test_optima_without_attenuation(monkeypatch):
    monkeypatch.setattr(insolation, "TRANSMITTANCE", 1.0)
    assert "with no attenuation the optima would be about {:.1f}, {:.1f}, and {:.1f}.".format(
        *optima()) in README


def test_kept_points_against_the_full_grid():
    kept = int(_sample_days(SITE, FULL_YEAR, None).counts.sum())
    step_deg = 0.25  # the default 1-minute step
    full = sum(math.ceil(2.0 * sunrise_hour_angle(SITE, day) / step_deg) + 1
               for day in range(FULL_YEAR[0], FULL_YEAR[1] + 1))
    assert f"a year is {kept:,} points instead of {full:,}." in README


def test_southern_site_lies_flat(capsys):
    assert main(["optimize", "--lat", "-33.9", "--step", "30", "--format", "csv"]) == 0
    tilt, energy = capsys.readouterr().out.splitlines()[1].split(",")[2:]
    sentence = f"`optimize --lat -33.9 --step 30` gives {tilt}° and {float(energy):,.2f} Wh/m²"
    assert sentence in README

