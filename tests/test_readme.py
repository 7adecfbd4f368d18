"""The model numbers README.md prints, recomputed from the library.

Each test formats its values at the README's precision and looks the
sentence up in the README, so a changed digit on either side fails.
"""
import math
import pathlib

from heliotilt import Location, optimize_fixed_tilt, sunrise_hour_angle
from heliotilt import insolation
from heliotilt.cli import main
from heliotilt.insolation import FULL_YEAR, _sample_days

README = " ".join(
    (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split()
)
LATITUDES = (20.0, 32.7, 45.0)


def optima():
    return [optimize_fixed_tilt(Location(lat)).tilt_deg for lat in LATITUDES]


def test_full_year_optima():
    sentence = "come out at {:.2f}, {:.2f}, and {:.2f} degrees at 20, 32.7, and 45 degrees north"
    assert sentence.format(*optima()) in README


def test_optima_without_attenuation(monkeypatch):
    monkeypatch.setattr(insolation, "TRANSMITTANCE", 1.0)
    assert "with no attenuation the optima would be about {:.1f}, {:.1f}, and {:.1f}.".format(
        *optima()) in README


def test_kept_points_against_the_full_grid():
    site = Location(32.7)
    kept = int(_sample_days(site, FULL_YEAR, None).counts.sum())
    step_deg = 0.25  # the default 1-minute step
    full = sum(math.ceil(2.0 * sunrise_hour_angle(site, day) / step_deg) + 1
               for day in range(FULL_YEAR[0], FULL_YEAR[1] + 1))
    assert f"a year is {kept:,} points instead of {full:,}." in README


def test_southern_site_lies_flat(capsys):
    assert main(["optimize", "--lat", "-33.9", "--step", "30", "--format", "csv"]) == 0
    tilt, energy = capsys.readouterr().out.splitlines()[1].split(",")[2:]
    sentence = f"`optimize --lat -33.9 --step 30` gives {tilt}° and {float(energy):,.2f} Wh/m²"
    assert sentence in README

