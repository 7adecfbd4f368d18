"""Chart series, schedule tables, and the CSV/JSON/SVG renderings."""
import json
import pathlib

import numpy as np
import pytest

from heliotilt import (
    DEFAULT_CHART_DAYS,
    ChartSeries,
    Location,
    TiltMode,
    daily_tilt,
    monthly_schedule,
    schedule_table,
    sun_day_rows,
    sunpath_chart,
    tilt_curve,
)
from heliotilt.charts import fmt_angle, render_csv, render_json, render_svg
from heliotilt.cli import CHART_COLUMNS, SUN_COLUMNS, main

SITE = Location(32.7)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def cli_csv(capsys, *argv):
    """Stdout of a successful `heliotilt ... --format csv` at 32.7 N."""
    assert main([argv[0], "--lat", "32.7", *argv[1:], "--format", "csv"]) == 0
    return capsys.readouterr().out


class TestChartSeries:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            ChartSeries("bad", (1.0, 2.0), (1.0,))

    def test_requires_strictly_increasing_x(self):
        with pytest.raises(ValueError):
            ChartSeries("bad", (1.0, 1.0, 2.0), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ChartSeries("bad", (2.0, 1.0), (0.0, 0.0))
        ChartSeries("ok", (1.0, 2.0, 3.0), (0.0, 1.0, 0.0))

    def test_empty_series_allowed(self):
        series = ChartSeries("empty", (), ())
        assert len(series.x) == 0


class TestSunpathChart:
    def test_default_days_are_monthly_21sts(self):
        series = sunpath_chart(SITE, step_minutes=30.0)
        assert len(series) == 12
        assert [s.metadata["day"] for s in series] == list(DEFAULT_CHART_DAYS)

    def test_peak_sits_at_solar_noon(self):
        for day, peak in ((172, 80.7498), (355, 33.8502)):
            (series,) = sunpath_chart(SITE, (day,), step_minutes=10.0)
            top = max(range(len(series.y)), key=series.y.__getitem__)
            assert series.x[top] == 12.0
            assert series.y[top] == pytest.approx(peak, abs=1e-3)

    def test_annual_peak_envelope(self):
        series = sunpath_chart(SITE, step_minutes=20.0)
        peaks = [max(s.y) for s in series]
        assert min(peaks) == pytest.approx(33.8502, abs=0.05)
        assert max(peaks) == pytest.approx(80.7498, abs=0.05)
        assert all(33.0 < p < 81.0 for p in peaks)

    def test_series_start_and_end_at_horizon(self):
        # the sun climbs at most 0.25 deg per minute, so the first kept
        # sample can sit at most one grid step's climb above zero
        step = 5.0
        ceiling = 0.3 * step
        for series in sunpath_chart(SITE, (81, 172, 355), step_minutes=step):
            for edge in (series.y[0], series.y[-1]):
                assert 0.0 <= edge <= ceiling

    def test_equinox_sunrise_sample_is_exact(self):
        # day 81 rises at solar hour 6.0, which the minute grid hits
        (series,) = sunpath_chart(SITE, (81,), step_minutes=1.0)
        assert series.x[0] == 6.0
        assert series.y[0] == pytest.approx(0.0, abs=1e-9)
        assert series.x[-1] == 18.0

    def test_polar_night_gives_empty_series(self):
        (series,) = sunpath_chart(Location(80.0), (355,), step_minutes=10.0)
        assert series.x == ()
        assert series.y == ()

    def test_azimuth_companion_series(self):
        series = sunpath_chart(SITE, (81,), step_minutes=15.0, include_azimuth=True)
        assert len(series) == 2
        elev, azim = series
        assert azim.name == elev.name + "_az"
        assert azim.metadata["kind"] == "compass_azimuth"
        assert azim.x == elev.x
        noon = azim.x.index(12.0)
        assert azim.y[noon] == pytest.approx(180.0, abs=1e-9)
        assert azim.y[0] < 180.0 < azim.y[-1]

    def test_rejects_empty_day_list(self):
        with pytest.raises(ValueError):
            sunpath_chart(SITE, ())

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            sunpath_chart(SITE, (81,), step_minutes=0.0)

    def test_rejects_bad_day(self):
        with pytest.raises(ValueError):
            sunpath_chart(SITE, (81, 400))


class TestTiltCurve:
    def test_covers_whole_year(self):
        series = tilt_curve(SITE)
        assert len(series.x) == 365
        assert series.x[0] == 1.0
        assert series.x[-1] == 365.0

    def test_tracks_daily_rule(self):
        series = tilt_curve(SITE)
        for i in (0, 80, 171, 300, 364):
            assert series.y[i] == daily_tilt(SITE, i + 1)

    def test_metadata_summary(self):
        series = tilt_curve(SITE)
        assert series.metadata["min_deg"] == pytest.approx(9.2502, abs=1e-3)
        assert series.metadata["max_deg"] == pytest.approx(56.1498, abs=1e-3)
        assert series.metadata["clamped_days"] == 0
        clamped = tilt_curve(Location(5.0))
        assert clamped.metadata["clamped_days"] > 0
        assert clamped.metadata["min_deg"] == 0.0

    def test_shape_is_shifted_sine(self):
        # y(d) = lat - 23.45 sin(2 pi (d - 81) / 365) when nothing clamps
        series = tilt_curve(SITE)
        days = np.array(series.x)
        phase = np.sin(2.0 * np.pi * (days - 81.0) / 365.0)
        design = np.column_stack([np.ones_like(days), phase])
        coeffs, *_ = np.linalg.lstsq(design, np.array(series.y), rcond=None)
        assert coeffs[0] == pytest.approx(32.7, abs=1e-6)
        assert coeffs[1] == pytest.approx(-23.45, abs=1e-6)
        residual = np.array(series.y) - design @ coeffs
        assert np.max(np.abs(residual)) < 1e-6


class TestScheduleTable:
    def test_monthly_rows(self):
        table = schedule_table(SITE, "monthly", TiltMode.PAPER)
        schedule = monthly_schedule(SITE, TiltMode.PAPER)
        assert [name for name, _ in table.rows] == [
            "January", "February", "March", "April", "May", "June",
            "July", "August", "September", "October", "November", "December",
        ]
        assert [v for _, v in table.rows] == list(schedule.betas_deg)

    def test_seasonal_rows(self):
        table = schedule_table(SITE, "seasonal", TiltMode.PAPER)
        assert [name for name, _ in table.rows] == ["winter", "spring", "summer", "fall"]

    def test_metadata_documents_mode_difference(self):
        paper = schedule_table(SITE, "monthly", TiltMode.PAPER)
        exact = schedule_table(SITE, "monthly", TiltMode.EXACT)
        assert paper.metadata["tilt_min_deg"] == pytest.approx(8.25, abs=1e-9)
        assert exact.metadata["tilt_min_deg"] == pytest.approx(9.25, abs=1e-9)
        assert paper.metadata["tilt_max_deg"] == pytest.approx(56.15, abs=1e-9)
        assert exact.metadata["tilt_max_deg"] == pytest.approx(56.15, abs=1e-9)
        assert "-24.45" in paper.metadata["offset_note"]
        assert "symmetric" in exact.metadata["offset_note"]

    def test_rejects_unknown_granularity(self):
        with pytest.raises(ValueError):
            schedule_table(SITE, "weekly", TiltMode.PAPER)


class TestNumberFormatting:
    def test_angles_always_two_decimals(self):
        assert fmt_angle(32.7) == "32.70"
        assert fmt_angle(8.25) == "8.25"
        assert fmt_angle(0.0) == "0.00"
        assert fmt_angle(56.149999) == "56.15"

    def test_negative_zero_normalized(self):
        assert fmt_angle(-0.004) == "0.00"
        assert fmt_angle(-0.0) == "0.00"

    def test_abscissa_compact_and_stable(self):
        def x_cells(*xs):
            text = render_csv(CHART_COLUMNS, [("s", x, 0.0) for x in xs])
            return [line.split(",")[1] for line in text.splitlines()[1:]]

        assert x_cells(81.0, 12.0, 6.0166667) == ["81", "12", "6.0167"]
        assert x_cells(float(x_cells(6.0166667)[0])) == ["6.0167"]


class TestCsvRendering:
    def test_monthly_paper_matches_golden_bytes(self, capsys):
        golden = (GOLDEN / "schedule_monthly_paper_32p7.csv").read_bytes()
        assert cli_csv(capsys, "schedule").encode("utf-8") == golden

    def test_seasonal_paper_matches_golden_bytes(self, capsys):
        golden = (GOLDEN / "schedule_seasonal_paper_32p7.csv").read_bytes()
        text = cli_csv(capsys, "schedule", "--granularity", "seasonal")
        assert text.encode("utf-8") == golden

    def test_seasonal_paper_prints_whole_degrees(self, capsys):
        text = cli_csv(capsys, "schedule", "--granularity", "seasonal")
        assert text.splitlines()[1:] == ["winter,48", "spring,24", "summer,16", "fall,40"]

    def test_seasonal_exact_keeps_decimals(self, capsys):
        text = cli_csv(capsys, "schedule", "--granularity", "seasonal", "--mode", "exact")
        assert text.splitlines()[1] == "winter,48.33"

    def test_line_endings_are_lf_with_final_newline(self, capsys):
        for argv in (
            ("schedule",),
            ("chart", "--days", "81", "--step", "60"),
            ("sun", "--day", "81", "--step", "60"),
            ("tilt", "--day", "81"),
            ("optimize", "--step", "60"),
            ("gains", "--step", "60"),
        ):
            text = cli_csv(capsys, *argv)
            assert "\r" not in text
            assert text.endswith("\n")
            assert not text.endswith("\n\n")

    def test_chart_csv_round_trips(self, capsys):
        original = cli_csv(capsys, "chart", "--days", "81,172", "--step", "7")
        lines = original.splitlines()
        assert lines[0] == "series,x,y"
        rebuilt: dict[str, tuple[list, list]] = {}
        for line in lines[1:]:
            name, x, y = line.split(",")
            rebuilt.setdefault(name, ([], []))
            rebuilt[name][0].append(float(x))
            rebuilt[name][1].append(float(y))
        series = [
            ChartSeries(name, tuple(xs), tuple(ys)) for name, (xs, ys) in rebuilt.items()
        ]
        rows = [(s.name, x, y) for s in series for x, y in zip(s.x, s.y)]
        assert render_csv(CHART_COLUMNS, rows) == original

    def test_sun_csv_header_and_equinox_rows(self):
        text = render_csv(SUN_COLUMNS, sun_day_rows(SITE, 81, 120.0))
        lines = text.splitlines()
        assert lines[0] == "solar_hour,elevation_deg,azimuth_deg,compass_azimuth_deg"
        assert lines[1] == "6,0.00,-90.00,90.00"
        assert lines[4] == "12,57.30,0.00,180.00"


class TestJsonRendering:
    def test_trailing_newline_and_stability(self):
        payload = {"kind": "tilt", "tilt_deg": 32.7}
        text = render_json(payload)
        assert text.endswith("}\n")
        assert render_json(payload) == text
        assert json.loads(text) == payload


class TestSvgRendering:
    def test_well_formed_document(self):
        series = sunpath_chart(SITE, (81, 172), step_minutes=30.0)
        svg = render_svg(series, "Sun path", "solar hour", "degrees")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 2
        assert "Sun path" in svg
        assert "solar hour" in svg

    def test_deterministic(self):
        series = [tilt_curve(SITE)]
        first = render_svg(series, "t", "x", "y")
        second = render_svg(series, "t", "x", "y")
        assert first == second

    def test_handles_empty_input(self):
        svg = render_svg([], "empty", "x", "y")
        assert svg.startswith("<svg ")
        assert "<polyline" not in svg

    def test_skips_degenerate_series(self):
        one_point = ChartSeries("dot", (1.0,), (2.0,))
        svg = render_svg([one_point], "t", "x", "y")
        assert "<polyline" not in svg
