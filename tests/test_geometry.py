"""Geometry layer: declination, noon angles, intra-day position, sunrise."""
import math

import numpy as np
import pytest

from heliotilt import (
    DAYS_PER_YEAR,
    EARTH_TILT_DEG,
    Location,
    compass_azimuth,
    declination_exact,
    declination_simplified,
    noon_elevation,
    noon_elevation_folded,
    noon_zenith,
    sun_position,
    sunrise_hour_angle,
)

SITE = Location(32.7)


class TestLocation:
    def test_accepts_full_range(self):
        assert Location(0.0).latitude_deg == 0.0
        assert Location(90.0).latitude_deg == 90.0
        assert Location(-90.0).latitude_deg == -90.0
        assert Location(np.float64(32.7)).latitude_deg == 32.7  # numpy scalars, 0-d too
        assert Location(np.array(32.7)).latitude_deg == 32.7

    @pytest.mark.parametrize(
        "bad",
        [90.1, -90.1, 180.0, float("inf"), True, False, np.True_, np.False_,
         np.array([32.7]), np.array([10.0, 20.0])],
    )
    def test_rejects_off_globe(self, bad):
        # a bool too: True is the int 1 to Python, so it read as a site at 1 N;
        # a one-element array compared as a number and made array tilts
        with pytest.raises(ValueError) as err:
            Location(bad)
        assert str(err.value) == f"latitude must be in [-90, 90] degrees, got {bad}"

    def test_is_a_one_field_tuple(self):
        assert SITE == (32.7,) and SITE[0] == 32.7
        assert SITE._replace(latitude_deg=-10.0) == Location(-10.0)
        with pytest.raises(ValueError, match="latitude must be in"):
            SITE._replace(latitude_deg=90.1)


class TestDeclination:
    def test_zero_at_spring_anchor(self):
        assert declination_exact(81) == pytest.approx(0.0, abs=1e-9)
        assert declination_simplified(81) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "day,expected",
        [
            (1, -23.011637),
            (172, 23.449783),
            (355, -23.449783),
            (365, -23.085911),
        ],
    )
    def test_exact_frozen_values(self, day, expected):
        assert declination_exact(day) == pytest.approx(expected, abs=1e-4)

    def test_peaks_near_solstices(self):
        values = {d: declination_exact(d) for d in range(1, 366)}
        assert max(values, key=values.get) == 172
        assert min(values, key=values.get) == 355
        assert values[172] == pytest.approx(EARTH_TILT_DEG, abs=0.05)
        assert values[355] == pytest.approx(-EARTH_TILT_DEG, abs=0.05)

    def test_simplified_hits_peak_exactly(self):
        # sin becomes exactly 1 ninety days after the anchor
        assert declination_simplified(171) == pytest.approx(EARTH_TILT_DEG, abs=1e-9)

    def test_simplified_frozen_year_end(self):
        assert declination_simplified(365) == pytest.approx(-22.753435, abs=1e-4)

    def test_bounded_all_year(self):
        for d in range(1, 366):
            assert abs(declination_exact(d)) <= EARTH_TILT_DEG + 1e-12
            assert abs(declination_simplified(d)) <= EARTH_TILT_DEG + 1e-12

    def test_odd_symmetry_about_anchor(self):
        for k in range(1, 81):
            assert declination_exact(81 + k) == pytest.approx(
                -declination_exact(81 - k), abs=1e-9
            )

    def test_divergence_between_forms(self):
        # the simplified form runs on a 360-day period, so the two drift
        # apart mid-year and re-converge by December, peaking near the
        # autumn zero crossing rather than at year end
        diffs = {
            d: abs(declination_exact(d) - declination_simplified(d))
            for d in range(1, 366)
        }
        worst_day = max(diffs, key=diffs.get)
        assert worst_day == 279
        assert diffs[worst_day] == pytest.approx(1.0635, abs=1e-3)
        assert diffs[365] == pytest.approx(0.3325, abs=1e-3)

    @pytest.mark.parametrize(
        "bad",
        [0, 366, -3, 81.5, "81", None, math.inf, -math.inf, math.nan, True, False,
         np.True_, np.False_],
    )
    def test_rejects_bad_days(self, bad):
        with pytest.raises(ValueError):
            declination_exact(bad)
        with pytest.raises(ValueError):
            declination_simplified(bad)


class TestNoonAngles:
    def test_equinox_elevation(self):
        assert noon_elevation(SITE, 81) == pytest.approx(57.3, abs=1e-9)

    def test_solstice_elevations(self):
        assert noon_elevation(SITE, 172) == pytest.approx(80.7498, abs=1e-3)
        assert noon_elevation(SITE, 355) == pytest.approx(33.8502, abs=1e-3)

    def test_annual_envelope(self):
        values = [noon_elevation(SITE, d) for d in range(1, 366)]
        assert max(values) == pytest.approx(90.0 - (32.7 - EARTH_TILT_DEG), abs=0.01)
        assert min(values) == pytest.approx(90.0 - (32.7 + EARTH_TILT_DEG), abs=0.01)

    def test_zenith_values(self):
        assert noon_zenith(SITE, 81) == pytest.approx(32.7, abs=1e-9)
        assert noon_zenith(Location(0.0), 81) == pytest.approx(0.0, abs=1e-9)
        assert noon_zenith(SITE, 356) == pytest.approx(56.1446, abs=1e-3)

    def test_elevation_zenith_complement(self):
        for lat in (0.0, 15.0, 32.7, 50.0, 70.0):
            loc = Location(lat)
            for d in range(1, 366, 13):
                assert noon_elevation(loc, d) + noon_zenith(loc, d) == pytest.approx(
                    90.0, abs=1e-9
                )

    def test_tropical_fold(self):
        loc = Location(10.0)
        raw = noon_elevation(loc, 172)
        assert raw == pytest.approx(103.4498, abs=1e-3)
        assert noon_elevation_folded(loc, 172) == pytest.approx(76.5502, abs=1e-3)

    def test_fold_is_identity_outside_tropics(self):
        for d in (1, 81, 172, 355):
            assert noon_elevation_folded(SITE, d) == noon_elevation(SITE, d)

    def test_strict_mode_rejects_high_latitude(self):
        with pytest.raises(ValueError):
            noon_elevation(Location(66.55), 81, strict=True)
        with pytest.raises(ValueError):
            noon_elevation(Location(-70.0), 81, strict=True)
        # permissive default returns the negative winter value instead
        assert noon_elevation(Location(70.0), 355) < 0.0
        assert noon_elevation(Location(66.5), 355, strict=True) > 0.0


class TestSunPosition:
    def test_reduces_to_noon_at_zero_hour_angle(self):
        for lat in (24.0, 32.7, 45.0, 60.0, 66.0):
            loc = Location(lat)
            for d in range(1, 366, 30):
                angles = sun_position(loc, d, 0.0)
                assert angles.elevation_deg == pytest.approx(
                    noon_elevation(loc, d), abs=1e-9
                )
                assert angles.azimuth_deg == pytest.approx(0.0, abs=1e-9)

    def test_tropical_noon_faces_north(self):
        # noon sun poleward of the zenith: folded elevation, azimuth 180
        angles = sun_position(Location(10.0), 172, 0.0)
        assert angles.elevation_deg == pytest.approx(76.5502, abs=1e-3)
        assert abs(angles.azimuth_deg) == pytest.approx(180.0, abs=1e-9)

    def test_equator_equinox_sunrise(self):
        angles = sun_position(Location(0.0), 81, -90.0)
        assert angles.elevation_deg == pytest.approx(0.0, abs=1e-6)
        assert angles.azimuth_deg == pytest.approx(-90.0, abs=1e-6)

    @pytest.mark.parametrize(
        "day,omega,elev,azim",
        [
            (172, -60.0, 36.9409, -96.2537),
            (81, -45.0, 36.5153, -61.6203),
        ],
    )
    def test_frozen_positions(self, day, omega, elev, azim):
        angles = sun_position(SITE, day, omega)
        assert angles.elevation_deg == pytest.approx(elev, abs=1e-3)
        assert angles.azimuth_deg == pytest.approx(azim, abs=1e-3)

    def test_zero_elevation_at_sunrise_hour_angle(self):
        for lat in (0.0, 20.0, 32.7, 50.0, 64.0):
            loc = Location(lat)
            for d in range(1, 366, 17):
                omega_s = sunrise_hour_angle(loc, d)
                if omega_s in (0.0, 180.0):
                    continue  # polar clamp, no true crossing
                assert sun_position(loc, d, omega_s).elevation_deg == pytest.approx(
                    0.0, abs=1e-6
                )
                assert sun_position(loc, d, -omega_s).elevation_deg == pytest.approx(
                    0.0, abs=1e-6
                )

    def test_morning_east_afternoon_west(self):
        for omega in (-90.0, -45.0, -10.0):
            assert sun_position(SITE, 100, omega).azimuth_deg < 0.0
            assert sun_position(SITE, 100, -omega).azimuth_deg > 0.0

    def test_mirror_symmetry_about_noon(self):
        for d in (30, 81, 172, 300):
            for omega in (15.0, 50.0, 85.0):
                am = sun_position(SITE, d, -omega)
                pm = sun_position(SITE, d, omega)
                assert am.elevation_deg == pytest.approx(pm.elevation_deg, abs=1e-9)
                assert am.azimuth_deg == pytest.approx(-pm.azimuth_deg, abs=1e-9)

    def test_fields_are_consistent(self):
        angles = sun_position(SITE, 172, -60.0)
        assert angles.zenith_deg == pytest.approx(90.0 - angles.elevation_deg, abs=1e-12)
        assert angles.declination_deg == pytest.approx(declination_exact(172), abs=1e-12)

    @pytest.mark.parametrize(
        "omega", [-180.1, 181.0, 720.0, math.nan, True, False, np.True_, np.array([10.0])]
    )
    def test_rejects_out_of_range_hour_angle(self, omega):
        # a bool is not an hour angle: True read as 1 deg; a one-element
        # array passed the check and failed in math.radians
        with pytest.raises(ValueError) as err:
            sun_position(SITE, 81, omega)
        assert str(err.value) == f"hour angle must be in [-180, 180] degrees, got {omega}"


class TestSunriseHourAngle:
    def test_equinox_is_quarter_turn(self):
        for lat in (-60.0, -10.0, 0.0, 32.7, 60.0):
            assert sunrise_hour_angle(Location(lat), 81) == pytest.approx(90.0, abs=1e-9)

    def test_equator_all_year(self):
        loc = Location(0.0)
        for d in range(1, 366, 7):
            assert sunrise_hour_angle(loc, d) == pytest.approx(90.0, abs=1e-9)

    def test_frozen_summer_value(self):
        assert sunrise_hour_angle(SITE, 172) == pytest.approx(106.1693, abs=1e-3)

    def test_summer_longer_than_winter(self):
        loc = Location(45.0)
        assert sunrise_hour_angle(loc, 172) > 90.0 > sunrise_hour_angle(loc, 355)

    def test_polar_clamps(self):
        assert sunrise_hour_angle(Location(80.0), 355) == 0.0
        assert sunrise_hour_angle(Location(80.0), 172) == 180.0
        assert sunrise_hour_angle(Location(-80.0), 172) == 0.0
        assert sunrise_hour_angle(Location(-80.0), 355) == 180.0

    def test_day_length_brackets(self):
        # between the clamps the value stays inside (0, 180)
        loc = Location(55.0)
        for d in range(1, 366, 11):
            omega_s = sunrise_hour_angle(loc, d)
            assert 0.0 < omega_s < 180.0


class TestCompassAzimuth:
    @pytest.mark.parametrize(
        "south_ref,compass",
        [(0.0, 180.0), (-90.0, 90.0), (90.0, 270.0), (180.0, 0.0), (-96.2537, 83.7463)],
    )
    def test_mapping(self, south_ref, compass):
        assert compass_azimuth(south_ref) == pytest.approx(compass, abs=1e-9)

    def test_range(self):
        for a in range(-180, 181, 5):
            assert 0.0 <= compass_azimuth(float(a)) < 360.0


def test_year_constant():
    assert DAYS_PER_YEAR == 365
    with pytest.raises(ValueError):
        declination_exact(366)
