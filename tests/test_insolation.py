"""Clear-sky integrator, fixed-tilt optimizer, and gain reports.

Frozen energy values were computed with an independent adaptive
quadrature over the same closed-form integrand before this module was
written, so they exercise the trapezoid kernel against an outside
reference rather than against itself.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heliotilt import (
    IrradianceModel,
    Location,
    TiltMode,
    TiltPolicy,
    annual_insolation,
    daily_insolation,
    daily_tilt,
    declination_exact,
    gain_report,
    incidence_cosine,
    month_of_day,
    monthly_schedule,
    noon_elevation,
    noon_elevation_folded,
    optimize_fixed_tilt,
    season_of_day,
    seasonal_schedule,
    sun_position,
    sunpath_chart,
    sunrise_hour_angle,
)
from heliotilt import insolation, schedule
from heliotilt.insolation import (
    SOLAR_CONSTANT_W_M2,
    _BLOCK_SAMPLES,
    _best_tilt,
    _direct_normal,
    _energies,
    _energy,
    _sample_days,
    _segments,
)
from heliotilt.schedule import _check_tilt

SITE = Location(32.7)
FAST = IrradianceModel(time_step_minutes=5.0)


class TestDirectNormal:
    @pytest.mark.parametrize(
        "zenith,expected",
        [
            (0.0, 947.1),        # air mass exactly 1: 1353 * 0.7
            (32.7, 906.088597),
            (60.0, 764.657606),  # air mass exactly 2
        ],
    )
    def test_frozen_values(self, zenith, expected):
        model = IrradianceModel()
        assert model.direct_normal(90.0 - zenith) == pytest.approx(expected, abs=1e-4)

    def test_zero_at_and_below_horizon(self):
        model = IrradianceModel()
        assert model.direct_normal(0.0) == 0.0
        assert model.direct_normal(-5.0) == 0.0

    def test_horizon_cap(self):
        # zeniths beyond 89 deg are treated as 89, so the value at a
        # 0.3 deg sun equals the value at a 1 deg sun
        model = IrradianceModel()
        assert model.direct_normal(0.3) == model.direct_normal(1.0)
        assert model.direct_normal(1.0) == pytest.approx(5.259615, abs=1e-4)

    def test_bounded_by_solar_constant(self):
        model = IrradianceModel()
        for elev in range(1, 91, 3):
            dni = model.direct_normal(float(elev))
            assert 0.0 < dni <= SOLAR_CONSTANT_W_M2

    def test_monotone_in_elevation(self):
        model = IrradianceModel()
        values = [model.direct_normal(float(e)) for e in range(1, 91)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_array_matches_scalar(self):
        model = IrradianceModel()
        elevs = np.array([-3.0, 0.0, 10.0, 45.0, 90.0])
        out = model.direct_normal(elevs)
        assert isinstance(out, np.ndarray)
        for e, v in zip(elevs, out):
            # identical math; numpy's vector and scalar paths may differ
            # in the last ulp
            assert v == pytest.approx(model.direct_normal(float(e)), rel=1e-12, abs=0.0)

    def test_matches_the_documented_power_law(self):
        # the exp-log form against S * 0.7 ** (AM ** 0.678) itself, on both
        # sides of the horizon and of the zenith cap's sin(1 deg)
        cap = math.sin(math.radians(1.0))
        edges = [-1e-17, 0.0, 1e-17, math.nextafter(cap, 0.0), cap, math.nextafter(cap, 1.0),
                 0.5, 1.0]
        dense = [np.linspace(-1.0, 1.0, 20001), np.geomspace(1e-20, 1.0, 2001)]
        sin_elev = np.concatenate([edges, *dense])
        expected = np.array([
            SOLAR_CONSTANT_W_M2 * 0.7 ** ((1.0 / max(s, cap)) ** 0.678) if s > 0.0 else 0.0
            for s in sin_elev.tolist()
        ])
        got = _direct_normal(sin_elev)
        assert np.array_equal(got == 0.0, sin_elev <= 0.0)  # exactly 0 at and below the horizon
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("elevation", [30.0, np.float64(30.0), 0.0, -5.0])
    def test_scalar_in_float_out(self, elevation):
        assert type(IrradianceModel().direct_normal(elevation)) is float

    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, np.float64("nan"), np.array([30.0, math.nan]),
         True, False, np.True_, np.array([True, False])],
    )
    def test_rejects_a_non_finite_elevation(self, bad):
        # a nan elevation read as night (0.0) and a nan in an array as 0 W/m^2;
        # True read as a 1 deg sun, 5.277 W/m^2
        with pytest.raises(ValueError, match="elevation must be finite degrees"):
            IrradianceModel().direct_normal(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            IrradianceModel(time_step_minutes=-1.0)

    @pytest.mark.parametrize(
        "step", [math.inf, math.nan, 0.05, 120.5, True, np.True_, np.array([5.0])]
    )
    def test_rejects_unbounded_steps(self, step):
        # the bound is checked before any grid is built, so a tiny step
        # never reaches an allocation; True was a 1-minute step, and a
        # one-element array a model every energy call failed on
        with pytest.raises(ValueError) as err:
            IrradianceModel(time_step_minutes=step)
        assert str(err.value) == f"time step must be finite minutes in [0.1, 120], got {step}"

    @pytest.mark.parametrize("step", [0.1, 0.5, 120.0, np.float64(5.0), np.array(5.0)])
    def test_accepts_steps_at_the_bounds(self, step):
        assert IrradianceModel(time_step_minutes=step).time_step_minutes == step

    @pytest.mark.parametrize("step", [math.inf, 1.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda model: daily_insolation(SITE, 172, 30.0, model),
            lambda model: annual_insolation(SITE, TiltPolicy.fixed(30.0), model),
            lambda model: optimize_fixed_tilt(SITE, (172, 172), model),
            lambda model: gain_report(SITE, model),
        ],
        ids=["daily", "annual", "optimize", "gains"],
    )
    def test_energy_calls_take_only_a_model(self, call, step):
        # only IrradianceModel checks the step: a look-alike with an inf step
        # would give 0.0 Wh/m^2, and one of 0.01 minutes would pass the 0.1 floor
        with pytest.raises(TypeError, match="model must be an IrradianceModel or None"):
            call(SimpleNamespace(time_step_minutes=step))


class TestIncidenceCosine:
    def test_noon_normal_incidence(self):
        # tilt = latitude - declination points the panel straight at the
        # noon sun, inside and outside the tropics alike
        pairs = [
            (lat, day)
            for lat in (5.0, 15.0, 25.0, 32.7, 45.0, 55.0, 60.0, 66.0)
            for day in (21, 81, 172, 266, 355)
        ]
        assert len(pairs) >= 20
        for lat, day in pairs:
            loc = Location(lat)
            tilt = lat - sun_position(loc, day, 0.0).declination_deg
            assert incidence_cosine(loc, day, 0.0, tilt) == pytest.approx(1.0, abs=1e-9)

    def test_noon_reduces_to_elevation_sine(self):
        for lat in (25.0, 32.7, 50.0):
            loc = Location(lat)
            for day in (21, 81, 172, 300):
                for tilt in (0.0, 20.0, 45.0):
                    expected = math.sin(math.radians(noon_elevation(loc, day) + tilt))
                    assert incidence_cosine(loc, day, 0.0, tilt) == pytest.approx(
                        expected, abs=1e-9
                    )

    def test_horizontal_noon_is_elevation_sine(self):
        for day in (1, 81, 172, 355):
            expected = math.sin(math.radians(noon_elevation_folded(SITE, day)))
            assert incidence_cosine(SITE, day, 0.0, 0.0) == pytest.approx(
                expected, abs=1e-9
            )

    def test_equinox_midmorning_frozen(self):
        # at the equinox a latitude-tilted panel sees the sun at exactly
        # the hour angle: cos(theta) = cos(omega)
        assert incidence_cosine(SITE, 81, -45.0, 32.7) == pytest.approx(
            math.cos(math.radians(45.0)), abs=1e-9
        )

    def test_sun_behind_panel_is_negative(self):
        # summer early morning, sun well north of east: a steep south
        # panel faces away from it
        value = incidence_cosine(SITE, 172, -100.0, 45.0)
        assert value < 0.0
        assert sun_position(SITE, 172, -100.0).elevation_deg > 0.0

    def test_panel_azimuth_can_face_the_sun(self):
        angles = sun_position(SITE, 172, -60.0)
        value = incidence_cosine(
            SITE,
            172,
            -60.0,
            tilt_deg=90.0 - angles.elevation_deg,
            panel_azimuth_deg=angles.azimuth_deg,
        )
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_stays_in_unit_range(self):
        for omega in range(-180, 181, 15):
            for tilt in (0.0, 30.0, 60.0, 90.0):
                value = incidence_cosine(SITE, 200, float(omega), tilt)
                assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    @pytest.mark.parametrize("bad", [-90.5, 91.0, True, np.False_, np.array([30.0])])
    def test_rejects_bad_tilt(self, bad):
        with pytest.raises(ValueError) as err:
            incidence_cosine(SITE, 81, 0.0, bad)
        assert str(err.value) == f"tilt must be in [-90, 90] degrees, got {bad}"

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, True, np.False_, np.array([0.0]), np.array([0.0, 90.0])]
    )
    def test_rejects_a_non_finite_panel_azimuth(self, bad):
        with pytest.raises(ValueError) as err:  # a bool is not 1 or 0 deg; an array is not a number
            incidence_cosine(SITE, 81, 0.0, 30.0, panel_azimuth_deg=bad)
        assert str(err.value) == f"panel azimuth must be finite degrees, got {bad}"


def radians_sun(lat, day, omega, tilt, panel_az):
    """sun_position's elevation and azimuth and incidence_cosine, with every sine
    and cosine from math.radians (the latitude's too, as before the +-90 rule),
    in the product order of geometry._up_south."""
    phi, delta, w = map(math.radians, (lat, declination_exact(day), omega))
    sin_p, cos_p, sin_d, cos_d = math.sin(phi), math.cos(phi), math.sin(delta), math.cos(delta)
    up = sin_p * sin_d + cos_p * cos_d * math.cos(w)
    south = math.cos(w) * cos_d * sin_p - sin_d * cos_p
    west = cos_d * math.sin(w)
    panel, t = math.radians(panel_az), math.radians(tilt)
    facing = south * math.cos(panel) + west * math.sin(panel)
    return (math.degrees(math.asin(min(max(up, -1.0), 1.0))),
            math.degrees(math.atan2(west, south)),
            facing * math.sin(t) + up * math.cos(t))


class TestSunVectorLatitudeTrig:
    @pytest.mark.parametrize("lat", [90.0, -90.0])
    def test_pole_equinox_sun_is_on_the_horizon(self, lat):
        # declination 0 at a pole: the sun circles on the horizon, as the chart's
        # flat path and the grid's 0 Wh/m^2 have it; cos(radians(90)) = 6.1e-17
        # put it 3.5e-15 deg up
        loc = Location(lat)
        for omega in range(-180, 181, 15):
            assert sun_position(loc, 81, float(omega)).elevation_deg == 0.0
            assert incidence_cosine(loc, 81, float(omega), 0.0) == 0.0
        assert set(sunpath_chart(loc, (81,), 30.0)[0].y) == {0.0}
        assert daily_insolation(loc, 81, 0.0).energy_wh_m2 == 0.0

    def test_off_the_poles_every_bit_is_the_radians_trig(self):
        rng = np.random.default_rng(21)
        lats = [0.0, -0.0, 1e-300, 23.45, 32.7, -33.9, 66.55, 89.999, -89.999,
                np.nextafter(90.0, 0.0), np.nextafter(-90.0, 0.0), *rng.uniform(-90, 90, 12)]
        omegas = [-180.0, -90.0, -45.0, 0.0, 0.5, 90.0, 180.0, *rng.uniform(-180, 180, 6)]
        for lat in map(float, lats):
            loc = Location(lat)
            for day in (1, 81, 172, 266, 355, 365):
                for omega in map(float, omegas):
                    for tilt, panel_az in ((0.0, 0.0), (35.0, 0.0), (90.0, -40.0)):
                        sun = sun_position(loc, day, omega)
                        got = (sun.elevation_deg, sun.azimuth_deg,
                               incidence_cosine(loc, day, omega, tilt, panel_az))
                        want = radians_sun(lat, day, omega, tilt, panel_az)
                        assert list(map(float.hex, got)) == list(map(float.hex, want))


class TestDailyInsolation:
    @pytest.mark.parametrize(
        "day,tilt,expected",
        [
            (81, 32.7, 6265.280),
            (81, 0.0, 5272.301),
            (172, 0.0, 7478.875),
            (172, 9.25, 7352.316),
        ],
    )
    def test_frozen_quadrature_values(self, day, tilt, expected):
        result = daily_insolation(SITE, day, tilt)
        assert result.energy_wh_m2 == pytest.approx(expected, rel=1e-4)

    def test_result_fields(self):
        result = daily_insolation(SITE, 81, 32.7)
        assert result.day_range == (81, 81)
        assert result.policy == "fixed(32.70)"

    def test_equinox_tilt_beats_flat(self):
        tilted = daily_insolation(SITE, 81, 32.7).energy_wh_m2
        flat = daily_insolation(SITE, 81, 0.0).energy_wh_m2
        assert tilted > flat * 1.15

    def test_polar_night_is_zero(self):
        assert daily_insolation(Location(80.0), 355, 40.0).energy_wh_m2 == 0.0

    def test_polar_day_is_positive(self):
        energy = daily_insolation(Location(80.0), 172, 40.0).energy_wh_m2
        assert 0.0 < energy < 24.0 * 1353.0

    def test_halving_step_changes_little(self):
        base = daily_insolation(SITE, 100, 30.0, IrradianceModel()).energy_wh_m2
        fine = daily_insolation(
            SITE, 100, 30.0, IrradianceModel(time_step_minutes=0.5)
        ).energy_wh_m2
        assert abs(fine - base) / base < 1e-3

    def test_morning_half_doubles_to_full_day(self):
        # independent trapezoid over the morning only, using the scalar
        # building blocks rather than the vector kernel
        model = IrradianceModel()
        day, tilt = 120, 25.0
        omega_s = sunrise_hour_angle(SITE, day)
        omegas = np.linspace(-omega_s, 0.0, 2001)
        powers = []
        for omega in omegas:
            angles = sun_position(SITE, day, float(omega))
            poa = model.direct_normal(angles.elevation_deg) * max(
                0.0, incidence_cosine(SITE, day, float(omega), tilt)
            )
            powers.append(poa)
        morning = np.trapezoid(powers, omegas / 15.0)
        full = daily_insolation(SITE, day, tilt, model).energy_wh_m2
        assert 2.0 * morning == pytest.approx(full, rel=1e-3)

    @pytest.mark.parametrize("lat", [90.0, -90.0])
    @pytest.mark.parametrize("tilt", [0.0, 45.0, 90.0])
    def test_pole_equinox_is_dark(self, lat, tilt):
        # the sun circles on the horizon all day; cos(radians(90)) = 6.1e-17
        # lifted it above, worth 40.18 Wh/m^2 at 90 N and tilt 90
        assert daily_insolation(Location(lat), 81, tilt).energy_wh_m2 == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 90.1, True, False, np.True_, np.array([30.0])])
    def test_rejects_bad_tilt(self, bad):
        # True was a 1 deg tilt labelled fixed(1.00); a one-element array
        # passed the check and failed in float()
        with pytest.raises(ValueError) as err:
            daily_insolation(SITE, 81, bad)
        assert str(err.value) == f"panel tilt must be in [0, 90] degrees, got {bad}"

    def test_rejects_bad_day(self):
        with pytest.raises(ValueError):
            daily_insolation(SITE, 0, 30.0)


def latitude_sin_cos(lat):
    """sin and cos of a latitude, exactly +-1 and 0 at +-90, as the README states."""
    if abs(lat) == 90.0:
        return math.copysign(1.0, lat), 0.0
    return math.sin(math.radians(lat)), math.cos(math.radians(lat))


def trapezoid_bounds(lat, day, tilt, step_minutes=1.0):
    """Daily Wh/m^2 by the README's rule, written from its formulas alone.

    Trapezoid over the uniform hour-angle grid from sunrise to sunset,
    with the incidence cosine in its equivalent-latitude form
    sin(lat - tilt) sin(decl) + cos(lat - tilt) cos(decl) cos(omega).
    The two grid ends sit on the horizon, where rounding decides whether
    the sun counts as up, so low leaves both ends out and high puts both
    in at the capped-zenith irradiance.
    """
    decl = 23.45 * math.sin(math.radians(360.0 / 365.0 * (day - 81)))
    x = -math.tan(math.radians(lat)) * math.tan(math.radians(decl))
    if x >= 1.0:
        return 0.0, 0.0
    omega_s = 180.0 if x <= -1.0 else math.degrees(math.acos(x))
    n = math.ceil(2.0 * omega_s / (step_minutes / 4.0))
    omega = np.radians(np.linspace(-omega_s, omega_s, n + 1))
    (sin_phi, cos_phi), s = latitude_sin_cos(lat), math.radians(lat - tilt)
    delta = math.radians(decl)
    sin_elev = sin_phi * math.sin(delta) + cos_phi * math.cos(delta) * np.cos(omega)
    zenith = np.minimum(np.degrees(np.arccos(np.clip(sin_elev, -1.0, 1.0))), 89.0)
    dni = 1353.0 * 0.7 ** ((1.0 / np.cos(np.radians(zenith))) ** 0.678)
    cos_i = math.sin(s) * math.sin(delta) + math.cos(s) * math.cos(delta) * np.cos(omega)
    power = dni * np.maximum(cos_i, 0.0)
    ends = power[[0, -1]].copy()
    power[[0, -1]] = 0.0
    power[1:-1] *= sin_elev[1:-1] > 0.0
    dh = np.diff(omega) * 12.0 / math.pi  # radians of hour angle to hours
    low = float(np.sum(0.5 * (power[1:] + power[:-1]) * dh))
    return low, low + 0.5 * float(ends[0] * dh[0] + ends[1] * dh[-1])


def full_day_grid(lat, day, step_minutes):
    """(horiz, vert, weight) of the README's two-sided grid, sunrise to sunset.

    np.linspace(-omega_s, omega_s, n) with n - 1 = ceil(2 omega_s / (step / 4)),
    each point weighted DNI * (h[i+1] - h[i-1]) / 2 hours, one-sided at the
    ends. omega_s and the declination come from geometry, so the horizon
    points see the same sin(elev) sign as the grid under test.
    """
    omega_s = sunrise_hour_angle(Location(lat), day)
    if omega_s == 0.0:
        return np.zeros(0), np.zeros(0), np.zeros(0)
    n = math.ceil(2.0 * omega_s / (step_minutes / 4.0)) + 1
    omega = np.radians(np.linspace(-omega_s, omega_s, n))
    (sin_phi, cos_phi), delta = latitude_sin_cos(lat), np.radians(declination_exact(day))
    horiz = np.cos(delta) * np.cos(omega) * sin_phi - np.sin(delta) * cos_phi
    vert = sin_phi * np.sin(delta) + cos_phi * np.cos(delta) * np.cos(omega)
    air_mass = 1.0 / np.maximum(vert, math.sin(math.radians(1.0)))
    dni = np.where(vert > 0.0, 1353.0 * 0.7 ** (air_mass ** 0.678), 0.0)
    half = np.diff(omega * 12.0 / math.pi) / 2.0  # radians of hour angle to hours
    return horiz, vert, dni * (np.append(half, 0.0) + np.append(0.0, half))


class TestDailyInsolationProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        lat=st.floats(0.0, 90.0),
        day=st.integers(1, 365),
        tilt=st.floats(0.0, 90.0),
        step=st.floats(0.5, 120.0),
    )
    @example(lat=80.0, day=355, tilt=40.0, step=1.0)   # polar night
    @example(lat=80.0, day=172, tilt=40.0, step=1.0)   # midnight sun
    @example(lat=66.6, day=172, tilt=90.0, step=1.0)   # the sun grazes the horizon at midnight
    @example(lat=90.0, day=81, tilt=0.0, step=1.0)
    @example(lat=0.0, day=172, tilt=90.0, step=1.0)
    @example(lat=32.7, day=81, tilt=32.7, step=120.0)  # a day of seven samples
    def test_inside_independent_trapezoid(self, lat, day, tilt, step):
        model = IrradianceModel(time_step_minutes=step)
        energy = daily_insolation(Location(lat), day, tilt, model).energy_wh_m2
        low, high = trapezoid_bounds(lat, day, tilt, step)
        assert energy >= 0.0
        assert low * (1.0 - 1e-9) <= energy <= high * (1.0 + 1e-9)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        lat=st.floats(0.0, 90.0),
        day=st.integers(1, 365),
        tilt=st.floats(0.0, 90.0),
        step=st.floats(0.5, 120.0),
    )
    @example(lat=80.0, day=172, tilt=40.0, step=1.0)   # midnight sun
    @example(lat=70.0, day=172, tilt=75.0, step=7.2)   # midnight sun, clipped around midnight
    @example(lat=32.7, day=172, tilt=60.0, step=7.0)   # clipped mornings and evenings
    @example(lat=0.0, day=81, tilt=10.0, step=1.0)     # n = 721 is odd: a noon sample
    def test_symmetric_about_noon(self, lat, day, tilt, step):
        # the noon-to-sunset grid, mirrored, is the full two-sided
        # trapezoid from sunrise to sunset
        model = IrradianceModel(time_step_minutes=step)
        grid = _sample_days(Location(lat), (day, day), model)
        horiz, vert, weight = full_day_grid(lat, day, step)
        beta = math.radians(tilt)
        full = float(weight @ np.maximum(math.sin(beta) * horiz + math.cos(beta) * vert, 0.0))
        scale = float(grid.weight @ (np.abs(grid.horiz) + np.abs(grid.vert)))
        total = daily_insolation(Location(lat), day, tilt, model).energy_wh_m2
        assert abs(total - full) <= 1e-12 * scale


class TestAnnualInsolation:
    def test_equals_sum_of_days(self):
        policy = TiltPolicy.fixed(32.7)
        annual = annual_insolation(SITE, policy, FAST)
        total = sum(
            daily_insolation(SITE, d, 32.7, FAST).energy_wh_m2 for d in range(1, 366)
        )
        assert annual.energy_wh_m2 == pytest.approx(total, rel=1e-6)
        assert annual.day_range == (1, 365)
        assert annual.policy == "fixed(32.70)"

    def test_latitude_tilt_beats_flat(self):
        flat = annual_insolation(SITE, TiltPolicy.fixed(0.0), FAST).energy_wh_m2
        at_lat = annual_insolation(SITE, TiltPolicy.fixed(32.7), FAST).energy_wh_m2
        assert at_lat > flat

    def test_daily_adjustment_beats_any_fixed(self):
        daily = annual_insolation(SITE, TiltPolicy.daily(SITE), FAST).energy_wh_m2
        for tilt in (0.0, 20.0, 32.7, 50.0):
            fixed = annual_insolation(SITE, TiltPolicy.fixed(tilt), FAST).energy_wh_m2
            assert daily >= fixed

    def test_rejects_a_policy_that_is_not_a_tilt_policy(self):
        # only TiltPolicy checks the tilts: this look-alike would give 74,711.20 Wh/m^2
        look_alike = SimpleNamespace(label="x", tilts_deg=(500.0,) * 365)
        with pytest.raises(TypeError, match="policy must be a TiltPolicy"):
            annual_insolation(SITE, look_alike)


class TestOptimizeFixedTilt:
    def test_equinox_day_optimum_is_latitude(self):
        result = optimize_fixed_tilt(SITE, (81, 81))
        assert result.tilt_deg == pytest.approx(32.7, abs=0.1)

    def test_summer_solstice_optimum_is_flat(self):
        # the long day spends hours with the sun north of the east-west
        # line; tilting south clips those hours for less than the small
        # noon gain, so energy decreases with tilt from zero and the
        # best single-day tilt is a flat panel, not the noon rule value
        result = optimize_fixed_tilt(SITE, (172, 172))
        assert result.tilt_deg == 0.0
        flat = daily_insolation(SITE, 172, 0.0).energy_wh_m2
        noon_rule = daily_insolation(SITE, 172, 9.25).energy_wh_m2
        assert flat > noon_rule

    def test_full_year_optimum_frozen(self):
        result = optimize_fixed_tilt(SITE, model=FAST)
        assert result.tilt_deg == pytest.approx(28.55, abs=0.2)
        assert abs(result.tilt_deg - 32.7) < 5.0

    def test_energy_is_the_sweep_maximum(self):
        result = optimize_fixed_tilt(SITE, (81, 81))
        probe = daily_insolation(SITE, 81, result.tilt_deg).energy_wh_m2
        assert result.energy_wh_m2 == pytest.approx(probe, rel=1e-9)
        for tilt in (0.0, 20.0, 45.0, 90.0):
            assert result.energy_wh_m2 >= daily_insolation(SITE, 81, tilt).energy_wh_m2

    def test_stable_under_quarter_degree_grid_shift(self):
        # an outside search of summed daily energies, a 0.5 deg grid offset
        # by 0.25 deg and then 0.05 deg steps, lands within one fine step
        period = (81, 95)
        result = optimize_fixed_tilt(SITE, period, FAST)

        def period_energy(tilt):
            return sum(
                daily_insolation(SITE, d, tilt, FAST).energy_wh_m2
                for d in range(period[0], period[1] + 1)
            )

        shifted = np.minimum(np.arange(0.25, 90.0 + 0.25, 0.5), 90.0)
        coarse_best = max(shifted, key=period_energy)
        lo, hi = max(0.0, coarse_best - 0.5), min(90.0, coarse_best + 0.5)
        fine = lo + 0.05 * np.arange(int(round((hi - lo) / 0.05)) + 1)
        fine_best = max(fine, key=period_energy)
        assert abs(fine_best - result.tilt_deg) <= 0.05 + 1e-9

    @pytest.mark.parametrize("day", [30, 81, 355])
    def test_single_day_energy_is_unimodal_in_tilt(self, day):
        tilts = np.linspace(0.0, 90.0, 181)
        energies = [daily_insolation(SITE, day, float(t), FAST).energy_wh_m2 for t in tilts]
        interior_maxima = sum(
            1
            for i in range(1, len(energies) - 1)
            if energies[i] > energies[i - 1] and energies[i] > energies[i + 1]
        )
        assert interior_maxima <= 1

    def test_midsummer_energy_decreases_from_flat(self):
        energies = [
            daily_insolation(SITE, 172, float(t), FAST).energy_wh_m2
            for t in np.linspace(0.0, 30.0, 61)
        ]
        assert all(a > b for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("period", [(150, 200), (300, 365)])
    def test_energy_is_the_sum_of_days_at_70n(self, period):
        # midnight sun in the first range, polar night in the second
        loc = Location(70.0)
        result = optimize_fixed_tilt(loc, period)
        total = sum(
            daily_insolation(loc, d, result.tilt_deg).energy_wh_m2
            for d in range(period[0], period[1] + 1)
        )
        assert result.energy_wh_m2 == pytest.approx(total, rel=1e-9)

    @pytest.mark.parametrize("period", [(200, 100), (0, 10), (1, 366), "year"])
    def test_rejects_bad_periods(self, period):
        with pytest.raises(ValueError):
            optimize_fixed_tilt(SITE, period)


SWEEP_LATITUDES = (0.0, 10.0, 23.45, 32.7, 66.55, 70.0, 90.0)
BLOCK_CROSSING = (60, 300)  # a lit day starts in a second grid block, at every latitude


class TestSweep:
    """The optimizer's segment table and its answer, checked against _energy."""

    @pytest.mark.parametrize("lat", SWEEP_LATITUDES)
    @pytest.mark.parametrize("period", [(1, 365), (172, 172), (355, 355), BLOCK_CROSSING])
    def test_equals_the_kernel_at_every_half_degree(self, lat, period):
        # A sin(tilt) + B cos(tilt) of the segment holding each tilt
        grid = _sample_days(Location(lat), period, FAST)
        if period == BLOCK_CROSSING:  # a lit day starts in the second block
            starts = np.cumsum(grid.counts) - grid.counts
            assert np.any(starts[grid.counts > 0] >= _BLOCK_SAMPLES)
        tilts = np.linspace(0.0, 90.0, 181)
        cut, (a, b) = _segments(grid)
        k = np.searchsorted(cut, np.radians(tilts))
        swept = a[k] * np.sin(np.radians(tilts)) + b[k] * np.cos(np.radians(tilts))
        # an absolute bound: the energy is exactly 0 at 0N, day 172, tilt 90
        scale = float(grid.weight @ (np.abs(grid.horiz) + np.abs(grid.vert)))
        for tilt, energy in zip(tilts, swept):
            assert abs(energy - _energy(grid, tilt)) <= 1e-12 * scale

    @pytest.mark.parametrize("lat", SWEEP_LATITUDES)
    @pytest.mark.parametrize(
        "period", [(1, 365), (150, 240), (172, 172), (355, 355), BLOCK_CROSSING]
    )
    def test_optimizer_picks_the_kernel_argmax(self, lat, period):
        # every 0.5 deg over [0, 90] and every 0.001 deg within 0.1 deg of the optimum
        grid = _sample_days(Location(lat), period, FAST)
        if period == BLOCK_CROSSING:  # a lit day starts in the second block
            starts = np.cumsum(grid.counts) - grid.counts
            assert np.any(starts[grid.counts > 0] >= _BLOCK_SAMPLES)
        result = optimize_fixed_tilt(Location(lat), period, FAST)
        assert result.energy_wh_m2 == _energy(grid, result.tilt_deg)
        near = result.tilt_deg + np.arange(-100, 101) / 1000.0
        tilts = np.concatenate([np.linspace(0.0, 90.0, 181), near[(near >= 0.0) & (near <= 90.0)]])
        # an absolute bound: the energy is exactly 0 at 0N, day 172, tilt 90
        scale = float(grid.weight @ (np.abs(grid.horiz) + np.abs(grid.vert)))
        assert max(_energy(grid, tilt) for tilt in tilts) <= result.energy_wh_m2 + 1e-12 * scale

    @pytest.mark.parametrize("lat,period", [(80.0, (330, 365)), (90.0, (300, 365))])
    def test_polar_night_is_exactly_zero(self, lat, period):
        # no samples at all, so every segment sum is 0 and the lowest tilt wins
        result = optimize_fixed_tilt(Location(lat), period)
        assert result == (0.0, 0.0)
        assert math.copysign(1.0, result.tilt_deg) == 1.0


def clipped_peak_argmax(grid):
    """The optimum as the argmax over every segment's peak, clipped into its
    segment and into [0, 90] and scored by A sin + B cos there."""
    cut, (a, b) = _segments(grid)
    peak = np.arctan2(a, b)
    peak[1:] = np.maximum(peak[1:], cut)  # segment k spans [cut[k-1], cut[k]]
    peak[:-1] = np.minimum(peak[:-1], cut)
    peak = np.clip(peak, 0.0, np.pi / 2.0)
    return float(np.degrees(peak[np.argmax(a * np.sin(peak) + b * np.cos(peak))]))


BEST_TILT_CASES = [
    *((lat, period, FAST) for lat in SWEEP_LATITUDES
      for period in [(1, 365), (150, 240), (172, 172), (355, 355), BLOCK_CROSSING]),
    (5.0, (1, 365), IrradianceModel()),  # about 61k segments
]


class TestEnergy:
    @pytest.mark.parametrize("lat", SWEEP_LATITUDES)
    @pytest.mark.parametrize("tilt", [0.0, 17.3, 45.0, 90.0])
    def test_one_tilt_is_that_tilt_on_every_day(self, lat, tilt):
        # bit for bit: the one-tilt kernel takes its sine and cosine from math,
        # the documented form from numpy
        grid = _sample_days(Location(lat), (1, 365), IrradianceModel())
        rad = np.radians(tilt)
        cos_theta = np.sin(rad) * grid.horiz + np.cos(rad) * grid.vert
        energy = _energy(grid, tilt)
        assert energy == float(grid.weight @ np.maximum(cos_theta, 0.0))

    @pytest.mark.parametrize("lat", (*SWEEP_LATITUDES, -90.0))
    @pytest.mark.parametrize("step", [0.1, 1.0, 7.5, 30.0, 120.0])
    def test_policy_rows_against_the_documented_form(self, lat, step):
        # the split sum against weight @ max(0, sin(t) horiz + cos(t) vert), each day's
        # sin(t) and cos(t) repeated over its count; the grids hold polar-night zero-count
        # days, the midnight sun and both poles. The constant rows are one tilt on every
        # day, and at steps 1 and 30 annual_insolation's year checks them too
        loc, rng = Location(lat), np.random.default_rng(7)
        constant = [np.full(365, 17.3), np.full(365, 45.0)]
        rows = [*constant, np.zeros(365), np.full(365, 90.0), rng.choice([0.0, 45.0, 90.0], 365),
                rng.uniform(0.0, 90.0, 365)]
        if lat > 0.0:  # gain_report's four policies; the schedules are northern only
            for mode in TiltMode:
                rows += [policy.tilts_deg for policy in (
                    TiltPolicy.seasonal(seasonal_schedule(loc, mode)),
                    TiltPolicy.monthly(monthly_schedule(loc, mode)),
                    TiltPolicy.daily(loc),
                    TiltPolicy.fixed(lat),
                )]
        model = IrradianceModel(step)
        grid = _sample_days(loc, (1, 365), model)
        energies = _energies(grid, rows)
        assert len(energies) == len(rows)
        # TestSweep's absolute bound, on the scale of the terms the split sum cancels
        scale = float(grid.weight @ (np.abs(grid.horiz) + np.abs(grid.vert)))
        checks = list(zip(rows, energies))
        if step in (1.0, 30.0):
            checks += [(row, annual_insolation(loc, TiltPolicy("row", row), model).energy_wh_m2)
                       for row in constant]
        for row, energy in checks:
            tilt = np.radians(row)  # each day's sine and cosine, repeated over its samples
            sin_t, cos_t = (np.repeat(f(tilt), grid.counts) for f in (np.sin, np.cos))
            cos_theta = sin_t * grid.horiz + cos_t * grid.vert
            assert abs(energy - float(grid.weight @ np.maximum(cos_theta, 0.0))) <= 1e-12 * scale


class TestBestTilt:
    @pytest.mark.parametrize("lat,period,model", BEST_TILT_CASES)
    def test_equals_the_clipped_peak_argmax(self, lat, period, model):
        grid = _sample_days(Location(lat), period, model)
        assert _best_tilt(grid) == clipped_peak_argmax(grid)

    @pytest.mark.parametrize("lat,period,model", BEST_TILT_CASES)
    def test_an_inside_peak_scores_hypot(self, lat, period, model):
        # a peak inside its own segment and inside [0, 90] is that segment's
        # maximum, hypot(A, B); the clipped ones at 0 and 90 are B and A
        grid = _sample_days(Location(lat), period, model)
        cut, (a, b) = _segments(grid)
        peak = np.arctan2(a, b)
        lo, hi = np.append(-np.inf, cut), np.append(cut, np.inf)
        inside = (peak >= np.maximum(lo, 0.0)) & (peak <= np.minimum(hi, np.pi / 2.0))
        scale = float(grid.weight @ (np.abs(grid.horiz) + np.abs(grid.vert)))
        for k in np.flatnonzero(inside):
            energy = _energy(grid, math.degrees(peak[k]))
            assert abs(math.hypot(a[k], b[k]) - energy) <= 1e-12 * scale
        k0 = np.searchsorted(cut, 0.0)  # the segment holding tilt 0
        assert abs(b[k0] - _energy(grid, 0.0)) <= 1e-12 * scale
        assert abs(a[-1] - _energy(grid, 90.0)) <= 1e-12 * scale

    def test_a_horizon_cut_off_below_zero(self):
        # a sunset sample with sin(elev) a hair below 0 north of the east-west
        # line cuts off just below tilt 0; its weight is 0, so the segments on
        # either side of it score tilt 0 alike
        grid = _sample_days(Location(32.7), (1, 365), FAST)
        cut, (a, b) = _segments(grid)
        below = np.flatnonzero(cut < 0.0)
        assert below.size and cut[below].min() > -1e-13
        assert np.all(b[: below[-1] + 2] == b[below[-1] + 1])


def per_day_grid(lat, step_minutes, period=(1, 365), libm_cos=False):
    """(horiz, vert, weight, counts) of a period, built day by day from the checked
    sunrise_hour_angle and declination_exact with the grid's own arithmetic, and
    the DNI in the exp-log form of the module docstring. With libm_cos, every
    cos(omega) is np.cos of the hour angle instead of the grid's half-angle form."""
    (sin_phi, cos_phi), cap = latitude_sin_cos(lat), math.sin(math.radians(1.0))
    horiz, vert, weight, counts = [], [], [], []
    for day in range(period[0], period[1] + 1):
        omega_s = sunrise_hour_angle(Location(lat), day)
        n = math.ceil(2.0 * omega_s / (step_minutes / 4.0)) + 1 if omega_s > 0.0 else 0
        k = np.arange((n + 1) // 2)
        spacing = 2.0 * omega_s / max(n - 1, 1)
        tan_half = np.tan(np.radians(omega_s - k * spacing) / 2.0)
        cos_omega = 2.0 / (1.0 + tan_half * tan_half) - 1.0
        cos_omega[:1] = np.cos(np.radians(omega_s))  # the horizon, k = 0, keeps np.cos
        if libm_cos:
            cos_omega = np.cos(np.radians(omega_s - k * spacing))
        delta = math.radians(declination_exact(day))
        up = sin_phi * math.sin(delta) + cos_phi * math.cos(delta) * cos_omega
        vert.append(up)
        horiz.append(cos_omega * math.cos(delta) * sin_phi - math.sin(delta) * cos_phi)
        hours = np.full(k.size, spacing / 7.5)  # twice the two-sided trapezoid hours
        hours[:1] /= 2.0  # k = 0 stands for both horizon half-steps
        if n % 2:
            hours[-1] /= 2.0  # an odd n's noon, which has no mirror
        dni = 1353.0 * np.exp(math.log(0.7) * np.exp(-0.678 * np.log(np.maximum(up, cap))))
        weight.append(hours * np.where(up > 0.0, dni, 0.0))
        counts.append(k.size)
    return (*map(np.concatenate, (horiz, vert, weight)), np.array(counts))


class TestSampleGrid:
    @pytest.mark.parametrize("lat", SWEEP_LATITUDES + (-90.0, -89.999, -33.9, 89.999))
    @pytest.mark.parametrize("step", [1.0, 7.5, 30.0])
    def test_equals_a_per_day_reference(self, lat, step):
        # bit for bit, zero signs too: a last-bit change in a span or a declination
        # moves the horizon samples, whose sin(elev) is +-1e-16, across zero, and the
        # block rows must round as the reference's scalar products
        grid = _sample_days(Location(lat), (1, 365), IrradianceModel(step))
        horiz, vert, weight, counts = per_day_grid(lat, step)
        assert np.array_equal(grid.counts, counts)
        assert grid.horiz.tobytes() == horiz.tobytes()
        assert grid.vert.tobytes() == vert.tobytes()
        assert grid.weight.tobytes() == weight.tobytes()
        assert np.array_equal(grid.weight > 0.0, vert > 0.0)

    @pytest.mark.parametrize("lat", SWEEP_LATITUDES)
    @pytest.mark.parametrize("step", [0.1, 1.0, 7.5, 30.0, 120.0])
    def test_half_angle_cosines_against_np_cos(self, lat, step):
        # the half-angle cos(omega) is within rounding of np.cos; the horizon
        # samples keep np.cos's bits, so no horizon weight changes its sign
        grid = _sample_days(Location(lat), (1, 365), IrradianceModel(step))
        horiz, vert, weight, counts = per_day_grid(lat, step, libm_cos=True)
        assert np.array_equal(grid.counts, counts)
        assert np.allclose(grid.horiz, horiz, rtol=0.0, atol=1e-15)
        assert np.allclose(grid.vert, vert, rtol=0.0, atol=1e-15)
        horizon = (np.cumsum(counts) - counts)[counts > 0]
        for got, want in zip(grid, (horiz, vert, weight)):
            assert np.array_equal(got[horizon], want[horizon])
        assert np.array_equal(grid.weight > 0.0, weight > 0.0)

    @pytest.mark.parametrize("lat", [-33.9, 32.7, 70.0])
    @pytest.mark.parametrize("step", [0.1, 120.0])
    @pytest.mark.parametrize(
        "period",
        [(172, 172), (355, 355), (1, 91), BLOCK_CROSSING, (1, 30), (340, 365), (81, 81),
         (22, 22), (25, 25)],
    )
    def test_equals_the_reference_on_short_periods(self, lat, step, period):
        # one day (polar night at 70N on day 355), a quarter, a period whose
        # days fill more than one block at both steps, two that mix polar-night
        # and lit days at 70N, and three more single days: at 70N and step 120
        # day 22 keeps one sample (n = 2) and day 25 two, both halved (n = 3)
        grid = _sample_days(Location(lat), period, IrradianceModel(step))
        assert [row.dtype for row in grid] == [np.float64] * 3 + [np.int64]
        for got, want in zip(grid, per_day_grid(lat, step, period)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lat", [-33.9, 0.0, 70.0, 89.999, 90.0])
    @pytest.mark.parametrize("step", [0.1, 1.0, 7.2, 120.0])
    def test_one_day_is_its_slice_of_the_year(self, lat, step):
        # a day's samples do not depend on the other days in its block, or on
        # where the blocks fall: a one-day period, built from its own scalars,
        # and each calendar month, whose blocks start at its own first day,
        # equal their slices of the year byte for byte
        loc, model = Location(lat), IrradianceModel(step)
        year = _sample_days(loc, (1, 365), model)
        ends = np.cumsum(year.counts)
        starts = ends - year.counts
        months = [[d for d in range(1, 366) if month_of_day(d) == m] for m in range(1, 13)]
        periods = [(day, day) for day in range(1, 366)] + [(m[0], m[-1]) for m in months]
        for first, last in periods:
            grid = _sample_days(loc, (first, last), model)
            assert grid.counts.tolist() == year.counts[first - 1:last].tolist()
            part = slice(starts[first - 1], ends[last - 1])
            for got, whole in zip(grid[:3], year[:3]):
                assert got.tobytes() == whole[part].tobytes()

    @staticmethod
    def check_day(loc, day, horiz, vert, weight, model):
        # sample k sits at omega_s - k * spacing, the mirror of the full
        # linspace's point n - 1 - k, and weighs twice that point's
        # two-sided trapezoid hours (once at an odd n's noon)
        omega_s = sunrise_hour_angle(loc, day)
        n = math.ceil(2.0 * omega_s / (model.time_step_minutes / 4.0)) + 1
        assert weight.size == (n - 1) // 2 + 1
        omegas = np.linspace(-omega_s, omega_s, n)
        hours = np.zeros(n)
        hours[:-1] += np.diff(omegas / 15.0) / 2.0
        hours[1:] += np.diff(omegas / 15.0) / 2.0
        spacing = 2.0 * omega_s / (n - 1)
        for k in range(weight.size):
            angles = sun_position(loc, day, omega_s - k * spacing)
            elev, az = math.radians(angles.elevation_deg), math.radians(angles.azimuth_deg)
            assert horiz[k] == pytest.approx(math.cos(elev) * math.cos(az), rel=0.0, abs=1e-12)
            assert vert[k] == pytest.approx(math.sin(elev), rel=0.0, abs=1e-12)
            dni = model.direct_normal(angles.elevation_deg)
            twice = 1.0 if 2 * k == n - 1 else 2.0
            assert weight[k] == pytest.approx(dni * twice * hours[n - 1 - k], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "lat,day",
        [(32.7, 81), (32.7, 355), (10.0, 355), (50.0, 172), (70.0, 172)],  # 70N, 172: midnight sun
    )
    def test_one_day_matches_sun_position(self, lat, day):
        loc, model = Location(lat), IrradianceModel()
        grid = _sample_days(loc, (day, day), model)
        assert grid.counts.tolist() == [grid.weight.size]
        self.check_day(loc, day, grid.horiz, grid.vert, grid.weight, model)

    @pytest.mark.parametrize("lat", SWEEP_LATITUDES)
    def test_horizon_sample_weighs_both_linspace_ends(self, lat):
        # the full grid's ends at -omega_s and omega_s weigh 0 each, or each
        # the capped-zenith DNI times a half step, by the sign of a sin(elev)
        # that rounding alone puts near +-1e-17; k = 0 must carry both
        grid = _sample_days(Location(lat), (1, 365), IrradianceModel())
        starts = np.cumsum(grid.counts) - grid.counts
        for day, start, count in zip(range(1, 366), starts, grid.counts):
            if count:
                ends = full_day_grid(lat, day, 1.0)[2][[0, -1]]
                assert grid.weight[start] == pytest.approx(ends.sum(), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lat", SWEEP_LATITUDES)
    def test_cut_offs_run_up_a_prefix_of_each_day(self, lat):
        # what a per-day table of segment sums with no sort would rest on:
        # on each lit day, read from sunset back to noon, the samples with
        # horiz < 0 come first, and their cut-off atan2(vert, -horiz) never
        # falls along them
        for step in (0.1, 1.0, 7.5, 30.0, 120.0):
            grid = _sample_days(Location(lat), (1, 365), IrradianceModel(step))
            day = np.repeat(np.arange(grid.counts.size), grid.counts)
            same_day = day[1:] == day[:-1]
            behind = grid.horiz < 0.0
            assert not np.any(same_day & behind[1:] & ~behind[:-1])
            cut = np.arctan2(grid.vert, -grid.horiz)
            both = same_day & behind[1:] & behind[:-1]
            assert np.all(cut[1:][both] >= cut[:-1][both])

    @pytest.mark.parametrize("lat,period", [(32.7, (1, 365)), (70.0, (150, 200))])
    def test_days_either_side_of_a_block_edge(self, lat, period):
        # a block holds the days that start in one window of samples, so
        # the first day to start past the window opens the second block;
        # under the midnight sun (70N) the days' end samples carry weight
        loc, model = Location(lat), IrradianceModel()
        grid = _sample_days(loc, period, model)
        ends = np.cumsum(grid.counts)
        first_of_next = int(np.searchsorted(ends - grid.counts, _BLOCK_SAMPLES))
        for i in (first_of_next - 2, first_of_next - 1, first_of_next):
            assert grid.counts[i] > 0
            part = slice(ends[i] - grid.counts[i], ends[i])
            day = period[0] + i
            self.check_day(loc, day, grid.horiz[part], grid.vert[part], grid.weight[part], model)


@pytest.fixture(scope="module")
def paper_report():
    return gain_report(SITE, FAST, TiltMode.PAPER)


@pytest.fixture(scope="module")
def exact_report():
    return gain_report(SITE, FAST, TiltMode.EXACT)


class TestGainReport:
    def test_policy_order_and_labels(self, paper_report):
        assert paper_report.baseline.policy == "fixed(32.70)"
        assert [p.policy for p in paper_report.policies] == [
            "seasonal(paper)",
            "monthly(paper)",
            "daily",
        ]

    def test_finer_adjustment_never_loses(self, paper_report, exact_report):
        for report in (paper_report, exact_report):
            seasonal, monthly, daily = (p.gain_percent for p in report.policies)
            assert daily >= monthly >= seasonal >= 0.0

    def test_frozen_gain_percentages(self, paper_report, exact_report):
        seasonal, monthly, daily = (p.gain_percent for p in paper_report.policies)
        assert seasonal == pytest.approx(4.59, abs=0.05)
        assert monthly == pytest.approx(5.75, abs=0.05)
        assert daily == pytest.approx(7.39, abs=0.05)
        e_seasonal, e_monthly, e_daily = (
            p.gain_percent for p in exact_report.policies
        )
        assert e_seasonal == pytest.approx(4.51, abs=0.05)
        assert e_monthly == pytest.approx(5.66, abs=0.05)
        assert e_daily == pytest.approx(daily, abs=1e-6)

    def test_seasonal_gain_in_plausible_band(self, paper_report):
        assert 1.0 <= paper_report.policies[0].gain_percent <= 10.0

    def test_published_offsets_beat_symmetric_ones_slightly(
        self, paper_report, exact_report
    ):
        # the asymmetric July offset happens to sit closer to this
        # model's optimum, so paper mode edges out exact mode
        for paper_gain, exact_gain in zip(
            paper_report.policies[:2], exact_report.policies[:2]
        ):
            assert paper_gain.gain_percent > exact_gain.gain_percent

    def test_gains_recompute_from_energies(self, paper_report):
        base = paper_report.baseline.energy_wh_m2
        assert paper_report.baseline.gain_percent == 0.0
        for entry in paper_report.policies:
            expected = 100.0 * (entry.energy_wh_m2 - base) / base
            assert entry.gain_percent == pytest.approx(expected, abs=1e-9)

    def test_energies_are_annual_insolation(self, paper_report):
        policies = (
            TiltPolicy.fixed(SITE.latitude_deg),
            TiltPolicy.seasonal(seasonal_schedule(SITE, TiltMode.PAPER)),
            TiltPolicy.monthly(monthly_schedule(SITE, TiltMode.PAPER)),
            TiltPolicy.daily(SITE),
        )
        entries = (paper_report.baseline, *paper_report.policies)
        for policy, entry in zip(policies, entries):
            annual = annual_insolation(SITE, policy, FAST)
            assert entry.policy == annual.policy
            assert entry.energy_wh_m2 == pytest.approx(annual.energy_wh_m2, rel=1e-12)

    def test_rejects_non_northern(self):
        from heliotilt import UnsupportedHemisphereError

        with pytest.raises(UnsupportedHemisphereError):
            gain_report(Location(-33.0), FAST)

    def test_builds_the_monthly_schedule_once(self, monkeypatch):
        # one build serves the seasonal and the monthly policy; counted
        # through both names, so a build inside seasonal_schedule counts too
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        build = schedule.monthly_schedule
        for module in (schedule, insolation):
            monkeypatch.setattr(module, "monthly_schedule", counted)
        gain_report(SITE, IrradianceModel(time_step_minutes=60.0), TiltMode.EXACT)
        assert calls == [(SITE, TiltMode.EXACT)]


class TestPolicyTilts:
    def test_rejects_a_tilt_out_of_range(self):
        with pytest.raises(ValueError):
            TiltPolicy("x", (95.0,) * 365)

    def test_rejects_a_short_year(self):
        for days in (364, 366):  # and a long one
            with pytest.raises(ValueError, match="365 tilts"):
                TiltPolicy("x", (30.0,) * days)

    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, -1e-9, 90.0 + 1e-9, True, False, np.True_, np.False_,
         np.array([30.0]), np.array([30.0, 40.0])],
    )
    def test_rejects_a_bad_tilt_as_check_tilt_does(self, bad):
        with pytest.raises(ValueError) as single:
            _check_tilt(bad)
        with pytest.raises(ValueError) as policy:
            TiltPolicy("x", [30.0] * 200 + [bad] + [30.0] * 164)
        assert str(policy.value) == str(single.value)
        with pytest.raises(ValueError) as fixed:  # a bool is not 1 or 0 deg either
            TiltPolicy.fixed(bad)
        assert str(fixed.value) == str(single.value)

    def test_fixed_rejects_a_string_tilt_as_check_tilt_does(self):
        with pytest.raises(Exception) as single:
            _check_tilt("30")
        with pytest.raises(Exception) as fixed:
            TiltPolicy.fixed("30")
        assert (type(fixed.value), str(fixed.value)) == (type(single.value), str(single.value))

    def test_a_schedule_record_takes_its_mode_as_tilt_mode_does(self):
        monthly = schedule.MonthlySchedule(45.0, "exact", (45.0,) * 12, ())
        seasonal = schedule.SeasonalSchedule(45.0, "exact", (45.0,) * 4, (0.0,) * 4)
        assert TiltPolicy.monthly(monthly).label == "monthly(exact)"
        assert TiltPolicy.seasonal(seasonal).label == "seasonal(exact)"
        for policy, record in ((TiltPolicy.monthly, monthly), (TiltPolicy.seasonal, seasonal)):
            with pytest.raises(ValueError, match="'bogus' is not a valid TiltMode"):
                policy(record._replace(mode="bogus"))

    def test_takes_whole_degrees(self):
        assert TiltPolicy("x", [30] * 365).tilts_deg == (30.0,) * 365

    def test_takes_a_numpy_array_as_python_floats(self):
        tilts = np.linspace(0.0, 90.0, 365)
        policy = TiltPolicy("x", tilts)
        assert isinstance(policy.tilts_deg, tuple)
        assert all(type(t) is float for t in policy.tilts_deg)
        assert policy.tilts_deg == tuple(tilts.tolist())

    @pytest.mark.parametrize(
        "lat",
        [0.1, 2.5, 5.0, 10.0, 15.0, 20.0, 23.45, 25.0, 30.0, 32.7,
         40.0, 45.0, 50.0, 55.0, 60.0, 66.55, 70.0, 75.0, 80.0, 90.0],
    )
    @pytest.mark.parametrize("mode", list(TiltMode))
    def test_tilts_are_the_per_day_rules(self, lat, mode):
        loc, days = Location(lat), range(1, 366)
        seasonal, monthly = seasonal_schedule(loc, mode), monthly_schedule(loc, mode)
        assert TiltPolicy.seasonal(seasonal).tilts_deg == tuple(
            seasonal.beta_for_season(season_of_day(d)) for d in days)
        assert TiltPolicy.monthly(monthly).tilts_deg == tuple(
            monthly.beta_for_month(month_of_day(d)) for d in days)
        assert TiltPolicy.daily(loc).tilts_deg == tuple(daily_tilt(loc, d) for d in days)
