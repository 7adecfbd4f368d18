"""Tilt rules: daily, monthly, seasonal, policies, and their invariants."""
import numpy as np
import pytest

from heliotilt import (
    EXACT_OFFSETS_DEG,
    PAPER_OFFSETS_DEG,
    Location,
    SeasonalSchedule,
    TiltMode,
    TiltPolicy,
    UnsupportedHemisphereError,
    daily_tilt,
    daily_tilt_details,
    month_of_day,
    monthly_schedule,
    noon_elevation,
    offsets_for,
    season_of_day,
    seasonal_schedule,
    tilt_extremes,
)

SITE = Location(32.7)

# 21st of each month in the 365-day year, January first
DAY_21 = (21, 52, 80, 111, 141, 172, 202, 233, 264, 294, 325, 355)


class TestDailyTilt:
    def test_equinox_equals_latitude(self):
        assert daily_tilt(SITE, 81) == pytest.approx(32.7, abs=1e-9)

    def test_annual_envelope(self):
        values = {d: daily_tilt(SITE, d) for d in range(1, 366)}
        assert min(values, key=values.get) == 172
        assert max(values, key=values.get) == 355
        assert values[172] == pytest.approx(9.2502, abs=1e-3)
        assert values[355] == pytest.approx(56.1498, abs=1e-3)
        # the idealized solstice targets, reached to within the
        # half-degree the 365-day discretization allows
        assert values[172] == pytest.approx(32.7 - 23.45, abs=0.05)
        assert values[355] == pytest.approx(32.7 + 23.45, abs=0.05)

    def test_simplified_variant_peak(self):
        # the simplified declination hits exactly 23.45 on day 171
        assert daily_tilt(SITE, 171, simplified=True) == pytest.approx(
            32.7 - 23.45, abs=1e-9
        )

    def test_complements_noon_elevation(self):
        for lat in (24.0, 32.7, 45.0, 60.0):
            loc = Location(lat)
            for d in range(1, 366):
                assert daily_tilt(loc, d) + noon_elevation(loc, d) == pytest.approx(
                    90.0, abs=1e-9
                )

    def test_clamps_to_flat_in_tropical_summer(self):
        detail = daily_tilt_details(Location(10.0), 172)
        assert detail.tilt_deg == 0.0
        assert detail.clamped
        assert not daily_tilt_details(Location(10.0), 81).clamped

    @pytest.mark.parametrize("lat", [0.0, -0.1, -10.0, -45.0])
    def test_rejects_non_northern(self, lat):
        with pytest.raises(UnsupportedHemisphereError):
            daily_tilt(Location(lat), 81)


class TestOffsets:
    def test_paper_table_frozen(self):
        assert PAPER_OFFSETS_DEG == (
            23.45, 15.47, 7.49, -0.5, -8.48, -16.46,
            -24.45, -16.46, -8.48, -0.5, 7.49, 15.47,
        )

    def test_exact_solstice_endpoints(self):
        assert EXACT_OFFSETS_DEG[0] == pytest.approx(23.45, abs=1e-12)
        assert EXACT_OFFSETS_DEG[6] == pytest.approx(-23.45, abs=1e-12)
        assert EXACT_OFFSETS_DEG[3] == pytest.approx(0.0, abs=1e-12)

    def test_exact_offsets_antisymmetric_half_year_apart(self):
        for n in range(6):
            assert EXACT_OFFSETS_DEG[n] == pytest.approx(
                -EXACT_OFFSETS_DEG[n + 6], abs=1e-9
            )

    def test_exact_offsets_step_evenly(self):
        step = 2.0 * 23.45 / 6.0
        for n in range(6):
            assert EXACT_OFFSETS_DEG[n] - EXACT_OFFSETS_DEG[n + 1] == pytest.approx(
                step, abs=1e-9
            )

    def test_paper_july_asymmetry(self):
        # the published table's one departure from mirror symmetry
        assert PAPER_OFFSETS_DEG[6] == -24.45
        assert PAPER_OFFSETS_DEG[0] == 23.45
        assert PAPER_OFFSETS_DEG[6] != -PAPER_OFFSETS_DEG[0]

    def test_offsets_for_accepts_strings(self):
        assert offsets_for("paper") is PAPER_OFFSETS_DEG
        assert offsets_for("exact") is EXACT_OFFSETS_DEG


class TestMonthlySchedule:
    def test_reference_site_paper_values(self):
        schedule = monthly_schedule(SITE, TiltMode.PAPER)
        expected = (
            56.15, 48.17, 40.19, 32.20, 24.22, 16.24,
            8.25, 16.24, 24.22, 32.20, 40.19, 48.17,
        )
        for got, want in zip(schedule.betas_deg, expected):
            assert got == pytest.approx(want, abs=1e-9)
        assert schedule.clamped_months == ()

    def test_reference_site_exact_values(self):
        schedule = monthly_schedule(SITE, TiltMode.EXACT)
        assert schedule.betas_deg[0] == pytest.approx(56.15, abs=1e-9)
        assert schedule.betas_deg[3] == pytest.approx(32.7, abs=1e-9)
        assert schedule.betas_deg[6] == pytest.approx(9.25, abs=1e-9)

    def test_offsets_are_latitude_independent(self):
        for mode in TiltMode:
            offsets = offsets_for(mode)
            for lat in (25.0, 40.0, 66.0):
                schedule = monthly_schedule(Location(lat), mode)
                for beta, offset in zip(schedule.betas_deg, offsets):
                    assert beta - lat == pytest.approx(offset, abs=1e-9)

    def test_month_mirror_symmetry(self):
        # February pairs with December, March with November, and so on
        for mode in TiltMode:
            schedule = monthly_schedule(SITE, mode)
            for n in range(2, 7):
                assert schedule.beta_for_month(n) == pytest.approx(
                    schedule.beta_for_month(14 - n), abs=1e-9
                )

    def test_monotone_to_july_and_back(self):
        for mode in TiltMode:
            for lat in (25.0, 32.7, 45.0, 60.0):
                betas = monthly_schedule(Location(lat), mode).betas_deg
                for n in range(6):
                    assert betas[n] > betas[n + 1]
                for n in range(6, 11):
                    assert betas[n] < betas[n + 1]

    def test_low_latitude_clamps_summer_months(self):
        schedule = monthly_schedule(Location(10.0), TiltMode.PAPER)
        assert schedule.clamped_months == (6, 7, 8)
        assert schedule.betas_deg[5] == 0.0
        assert schedule.betas_deg[6] == 0.0
        # plateau breaks strict monotonicity but never the ordering
        for n in range(6):
            assert schedule.betas_deg[n] >= schedule.betas_deg[n + 1]

    def test_beta_for_day_uses_month_boundaries(self):
        schedule = monthly_schedule(SITE, TiltMode.PAPER)
        assert schedule.beta_for_day(31) == schedule.beta_for_month(1)
        assert schedule.beta_for_day(32) == schedule.beta_for_month(2)
        assert schedule.beta_for_day(59) == schedule.beta_for_month(2)
        assert schedule.beta_for_day(60) == schedule.beta_for_month(3)
        assert schedule.beta_for_day(365) == schedule.beta_for_month(12)

    @pytest.mark.parametrize(
        "bad", [0, 13, 3.5, float("inf"), float("nan"), True, False, np.True_, np.False_]
    )
    def test_rejects_bad_months(self, bad):
        schedule = monthly_schedule(SITE, TiltMode.PAPER)
        with pytest.raises(ValueError, match="month must be an integer in"):
            schedule.beta_for_month(bad)

    def test_rejects_non_northern(self):
        with pytest.raises(UnsupportedHemisphereError):
            monthly_schedule(Location(-32.7), TiltMode.PAPER)


class TestSeasonalSchedule:
    def test_reference_site_paper_means(self):
        seasonal = seasonal_schedule(SITE, TiltMode.PAPER)
        expected = (48.17, 24.22, 16.236667, 40.186667)
        for got, want in zip(seasonal.betas_deg, expected):
            assert got == pytest.approx(want, abs=1e-6)
        assert seasonal.rounded() == (48, 24, 16, 40)

    def test_reference_site_exact_means(self):
        seasonal = seasonal_schedule(SITE, TiltMode.EXACT)
        expected = (48.333333, 24.883333, 17.066667, 40.516667)
        for got, want in zip(seasonal.betas_deg, expected):
            assert got == pytest.approx(want, abs=1e-6)

    def test_means_of_monthly_triples(self):
        for mode in TiltMode:
            for lat in (5.0, 20.0, 32.7, 50.0, 66.0):
                monthly = monthly_schedule(Location(lat), mode)
                seasonal = seasonal_schedule(Location(lat), mode)
                for season in range(4):
                    months = monthly.betas_deg[3 * season : 3 * season + 3]
                    assert seasonal.betas_deg[season] == pytest.approx(
                        sum(months) / 3.0, abs=1e-9
                    )

    def test_season_ordering(self):
        # steepest in winter, flattest in summer, at every latitude
        for lat in (1.0, 5.0, 20.0, 32.7, 50.0, 66.0):
            winter, spring, summer, fall = seasonal_schedule(
                Location(lat), TiltMode.PAPER
            ).betas_deg
            assert winter > fall > spring > summer

    def test_delta_is_relative_to_latitude(self):
        seasonal = seasonal_schedule(SITE, TiltMode.PAPER)
        for beta, delta in zip(seasonal.betas_deg, seasonal.delta_deg):
            assert beta - 32.7 == pytest.approx(delta, abs=1e-9)

    def test_rounding_is_half_up(self):
        synthetic = SeasonalSchedule(
            latitude_deg=30.0,
            mode=TiltMode.PAPER,
            betas_deg=(47.5, 24.2, 16.5, 39.99),
            delta_deg=(17.5, -5.8, -13.5, 9.99),
        )
        assert synthetic.rounded() == (48, 24, 17, 40)

    def test_beta_for_day_uses_season_boundaries(self):
        seasonal = seasonal_schedule(SITE, TiltMode.PAPER)
        assert seasonal.beta_for_day(90) == seasonal.beta_for_season(1)
        assert seasonal.beta_for_day(91) == seasonal.beta_for_season(2)
        assert seasonal.beta_for_day(181) == seasonal.beta_for_season(2)
        assert seasonal.beta_for_day(182) == seasonal.beta_for_season(3)
        assert seasonal.beta_for_day(273) == seasonal.beta_for_season(3)
        assert seasonal.beta_for_day(274) == seasonal.beta_for_season(4)
        assert seasonal.beta_for_day(365) == seasonal.beta_for_season(4)

    def test_rejects_non_northern(self):
        with pytest.raises(UnsupportedHemisphereError):
            seasonal_schedule(Location(0.0), TiltMode.PAPER)

    @pytest.mark.parametrize(
        "bad", [0, 5, 2.5, float("inf"), float("nan"), True, False, np.True_, np.False_]
    )
    def test_rejects_bad_seasons(self, bad):
        seasonal = seasonal_schedule(SITE, TiltMode.PAPER)
        with pytest.raises(ValueError, match="season must be an integer in"):
            seasonal.beta_for_season(bad)


class TestCalendarHelpers:
    def test_month_boundaries(self):
        firsts = (1, 32, 60, 91, 121, 152, 182, 213, 244, 274, 305, 335)
        for month, first in enumerate(firsts, start=1):
            assert month_of_day(first) == month
            if month > 1:
                assert month_of_day(first - 1) == month - 1
        assert month_of_day(365) == 12

    def test_season_of_day(self):
        assert season_of_day(1) == 1
        assert season_of_day(90) == 1
        assert season_of_day(91) == 2
        assert season_of_day(182) == 3
        assert season_of_day(274) == 4
        assert season_of_day(365) == 4

    @pytest.mark.parametrize("mode", list(TiltMode))
    def test_seasonal_policy_agrees_with_season_of_day(self, mode):
        seasonal = seasonal_schedule(SITE, mode)
        assert len(set(seasonal.betas_deg)) == 4  # a wrong season shows
        tilts = TiltPolicy.seasonal(seasonal).tilts_deg
        for day in range(1, 366):
            assert tilts[day - 1] == seasonal.betas_deg[season_of_day(day) - 1]


class TestTiltExtremes:
    def test_reference_site_both_modes(self):
        assert tilt_extremes(SITE, TiltMode.EXACT) == (
            pytest.approx(9.25, abs=1e-9),
            pytest.approx(56.15, abs=1e-9),
        )
        assert tilt_extremes(SITE, TiltMode.PAPER) == (
            pytest.approx(8.25, abs=1e-9),
            pytest.approx(56.15, abs=1e-9),
        )

    def test_modes_disagree_only_at_minimum(self):
        paper_lo, paper_hi = tilt_extremes(SITE, TiltMode.PAPER)
        exact_lo, exact_hi = tilt_extremes(SITE, TiltMode.EXACT)
        assert exact_lo - paper_lo == pytest.approx(1.0, abs=1e-9)
        assert paper_hi == pytest.approx(exact_hi, abs=1e-12)

    def test_clamped_at_edges(self):
        assert tilt_extremes(Location(23.45), TiltMode.EXACT) == (
            pytest.approx(0.0, abs=1e-9),
            pytest.approx(46.9, abs=1e-9),
        )
        assert tilt_extremes(Location(10.0), TiltMode.PAPER)[0] == 0.0
        assert tilt_extremes(Location(70.0), TiltMode.EXACT)[1] == 90.0

    def test_rejects_non_northern(self):
        with pytest.raises(UnsupportedHemisphereError):
            tilt_extremes(Location(-10.0), TiltMode.PAPER)


class TestTiltPolicy:
    def test_fixed_policy(self):
        policy = TiltPolicy.fixed(20.0)
        assert policy.label == "fixed(20.00)"
        for d in (1, 81, 172, 365):
            assert policy.tilt_for_day(d) == 20.0

    @pytest.mark.parametrize("bad", [-1.0, 90.5])
    def test_fixed_policy_range(self, bad):
        with pytest.raises(ValueError):
            TiltPolicy.fixed(bad)

    def test_monthly_policy_tracks_schedule(self):
        schedule = monthly_schedule(SITE, TiltMode.PAPER)
        policy = TiltPolicy.monthly(schedule)
        assert policy.label == "monthly(paper)"
        for d in range(1, 366):
            assert policy.tilt_for_day(d) == schedule.beta_for_day(d)

    def test_seasonal_policy_tracks_schedule(self):
        seasonal = seasonal_schedule(SITE, TiltMode.EXACT)
        policy = TiltPolicy.seasonal(seasonal)
        assert policy.label == "seasonal(exact)"
        for d in range(1, 366):
            assert policy.tilt_for_day(d) == seasonal.beta_for_day(d)

    def test_daily_policy_tracks_rule(self):
        policy = TiltPolicy.daily(SITE)
        for d in range(1, 366, 5):
            assert policy.tilt_for_day(d) == daily_tilt(SITE, d)

    def test_daily_policy_rejects_non_northern(self):
        with pytest.raises(UnsupportedHemisphereError):
            TiltPolicy.daily(Location(-5.0))

    def test_policy_day_validation(self):
        with pytest.raises(ValueError):
            TiltPolicy.fixed(10.0).tilt_for_day(0)


class TestMonthlyAgainstDailyRule:
    def test_monthly_values_anchor_to_preceding_21st(self):
        # the monthly table is solstice-anchored: January carries the
        # December-solstice offset, so each month's tilt sits closest to
        # the daily rule near the PRECEDING month's 21st. The residual
        # is the chord-vs-sine gap of a month-wide step, just under 5
        # degrees at worst (February and December)
        schedule = monthly_schedule(SITE, TiltMode.PAPER)
        preceding_21st = (DAY_21[-1],) + DAY_21[:-1]
        diffs = [
            abs(schedule.beta_for_month(n) - daily_tilt(SITE, day))
            for n, day in zip(range(1, 13), preceding_21st)
        ]
        assert max(diffs) < 5.0
        assert max(diffs) == pytest.approx(4.9715, abs=1e-3)
        # the same-month pairing is far looser, which is what shows the
        # anchoring is to the preceding month
        same_month = [
            abs(schedule.beta_for_month(n) - daily_tilt(SITE, day))
            for n, day in zip(range(1, 13), DAY_21)
        ]
        assert max(same_month) > 10.0
