"""Chart series, schedule tables, and the CSV/JSON/SVG renderings."""
import csv
import io
import json
import math
import pathlib
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heliotilt import (
    DEFAULT_CHART_DAYS,
    ChartSeries,
    Location,
    TiltMode,
    compass_azimuth,
    daily_tilt,
    daily_tilt_details,
    declination_exact,
    monthly_schedule,
    schedule_table,
    sun_day_rows,
    sun_position,
    sunpath_chart,
    tilt_curve,
    tilt_extremes,
)
from heliotilt import charts, schedule
from heliotilt.charts import angle, fmt_angle, render_csv, render_json, render_svg
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_rejects_non_finite_values(self, bad, where):
        good = (0.0, 1.0, 2.0)
        spoilt = tuple(bad if i == where else v for i, v in enumerate(good))
        with pytest.raises(ValueError, match="'named'"):
            ChartSeries("named", spoilt, good)
        with pytest.raises(ValueError, match="'named': x and y must be finite"):
            ChartSeries("named", good, spoilt)

    def test_rejects_a_lone_non_finite_x(self):
        with pytest.raises(ValueError, match="finite"):
            ChartSeries("one", (math.nan,), (1.0,))

    def test_replace_checks_the_new_samples(self):
        series = ChartSeries("s", (1.0, 2.0), (0.0, 1.0))
        assert series._replace(y=(5.0, 6.0)).y == (5.0, 6.0)
        with pytest.raises(ValueError, match="'s': x and y lengths differ"):
            series._replace(y=(5.0,))

    def test_each_record_gets_its_own_metadata(self):
        first, second = ChartSeries("a", (), ()), ChartSeries("b", (), ())
        first.metadata["key"] = 1
        assert first.metadata == {"key": 1} and second.metadata == {}

    @pytest.mark.parametrize("lat", [89.9, 32.7, 0.0, -0.0, -89.9])
    def test_library_series_construct(self, lat):
        series = sunpath_chart(Location(lat), step_minutes=7.2, include_azimuth=True)
        if lat > 0:  # the tilt rules are northern only
            series.append(tilt_curve(Location(lat)))
        assert all(math.isfinite(v) for s in series for v in (*s.x, *s.y))


class TestSunpathChart:
    def test_default_days_are_monthly_21sts(self):
        series = sunpath_chart(SITE, step_minutes=30.0)
        assert len(series) == 12
        assert [s.metadata["day"] for s in series] == list(DEFAULT_CHART_DAYS)
        assert DEFAULT_CHART_DAYS == (21, 52, 80, 111, 141, 172, 202, 233, 264, 294, 325, 355)

    @pytest.mark.parametrize("step", [1.0, 7.2])
    @pytest.mark.parametrize(
        "lat, day", [(32.7, 81), (32.7, 355), (-45.0, 172), (0.0, 81), (70.0, 172)]
    )
    def test_samples_match_sun_position(self, lat, day, step):
        # each series holds exactly the grid samples where sun_position's
        # elevation is >= 0, at the same angles. At 7.2 min the end hour
        # angles round to +-180.00000000000003, past sun_position's range,
        # so those compare with it at +-180 (70 N on day 172 keeps them)
        loc = Location(lat)
        elev, az = sunpath_chart(loc, (day,), step, include_azimuth=True)
        half = int(12 * 60 / step)
        want = []
        for k in range(-half, half + 1):
            hours = k * (step / 60)
            sun = sun_position(loc, day, min(max(hours * 15, -180.0), 180.0))
            if sun.elevation_deg >= 0.0:
                want.append((12 + hours, sun))
        assert elev.x == az.x == tuple(x for x, _ in want)
        for e, a, (_, sun) in zip(elev.y, az.y, want):
            assert abs(e - sun.elevation_deg) <= 1e-12
            assert abs(math.remainder(a - compass_azimuth(sun.azimuth_deg), 360.0)) <= 1e-12

    @pytest.mark.parametrize("lat", [90.0, -90.0])
    def test_pole_paths_are_flat(self, lat):
        # at a pole the sun circles at +-declination: every sample of a day
        # has the same elevation, bit for bit, on the horizon all day on day 81
        for series in sunpath_chart(Location(lat), range(1, 366), 30.0):
            day = series.metadata["day"]
            assert len(set(series.y)) <= 1
            if series.y:
                assert abs(series.y[0] - math.copysign(1.0, lat) * declination_exact(day)) <= 1e-12
        equinox = sunpath_chart(Location(lat), (81,), 30.0)[0]
        assert equinox.x == tuple(k / 2.0 for k in range(49)) and set(equinox.y) == {0.0}

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

    @pytest.mark.parametrize("days", [(81, 81), (172, 81, 355, 81), (81,) * 40])
    def test_rejects_a_repeated_day_by_name(self, days):
        # each day once, so a chart holds at most 365 series of samples
        with pytest.raises(ValueError, match="day 81 appears more than once"):
            sunpath_chart(SITE, days, step_minutes=0.1)


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

    @pytest.mark.parametrize("lat", [5.0, 23.45, 32.7, 66.55, 90.0])
    def test_is_the_per_day_rule_on_every_day(self, lat):
        # at 90 N day 81's raw tilt is exactly 90.0 and not clamped, so
        # counting the tilts that sit at 0 or 90 would be one too many
        loc = Location(lat)
        series = tilt_curve(loc)
        days = range(1, 366)
        assert series.x == tuple(map(float, days))
        assert series.y == tuple(daily_tilt(loc, d) for d in days)
        clamped = sum(daily_tilt_details(loc, d).clamped for d in days)
        assert series.metadata["clamped_days"] == clamped
        assert series.metadata["min_deg"] == min(series.y)
        assert series.metadata["max_deg"] == max(series.y)

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
        assert (paper.metadata["mode"], exact.metadata["mode"]) == ("paper", "exact")
        assert "-24.45" in paper.metadata["offset_note"]
        assert "symmetric" in exact.metadata["offset_note"]

    def test_rejects_unknown_granularity(self):
        with pytest.raises(ValueError):
            schedule_table(SITE, "weekly", TiltMode.PAPER)

    @pytest.mark.parametrize("granularity", ["monthly", "seasonal"])
    def test_builds_the_monthly_schedule_once(self, monkeypatch, granularity):
        # counted through both names, so a build inside seasonal_schedule or
        # tilt_extremes counts too
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        build = schedule.monthly_schedule
        for module in (schedule, charts):
            monkeypatch.setattr(module, "monthly_schedule", counted)
        schedule_table(SITE, granularity, TiltMode.EXACT)
        assert calls == [(SITE, TiltMode.EXACT)]

    @pytest.mark.parametrize("granularity", ["monthly", "seasonal"])
    @pytest.mark.parametrize("mode", list(TiltMode))
    def test_extremes_are_the_monthly_extremes(self, granularity, mode):
        # a seasonal table keeps the monthly extremes, not its own rows'
        for lat in (0.1, 2.5, 5.0, 10.0, 15.0, 20.0, 23.45, 25.0, 30.0, 32.7,
                    40.0, 45.0, 50.0, 55.0, 60.0, 66.55, 70.0, 75.0, 80.0, 90.0):
            loc = Location(lat)
            meta = schedule_table(loc, granularity, mode).metadata
            assert (meta["tilt_min_deg"], meta["tilt_max_deg"]) == tilt_extremes(loc, mode)


class TestNumberFormatting:
    def test_angles_always_two_decimals(self):
        assert fmt_angle(32.7) == "32.70"
        assert fmt_angle(8.25) == "8.25"
        assert fmt_angle(0.0) == "0.00"
        assert fmt_angle(56.149999) == "56.15"

    def test_negative_zero_normalized(self):
        assert fmt_angle(-0.004) == "0.00"
        assert fmt_angle(-0.0) == "0.00"

    @given(st.floats(allow_nan=False) | st.integers(-10**6, 10**6).map(lambda n: n / 200))
    @example(-0.0)
    @example(-0.005)
    @example(0.125)
    @example(-0.004999999999999999)
    def test_angle_cells_print_the_json_number(self, value):
        # n / 200 hits every half-way case of two decimals
        cells = render_csv((angle("a"), angle("b")), [(value, -value)]).split("\n")[1]
        assert cells == ",".join(format(round(v, 2) + 0.0, ".2f") for v in (value, -value))

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

    def test_text_cells_are_quoted_and_read_back(self):
        names = ["a,b", 'say "hi"', "two\nlines", "cr\r", "plain"]
        text = render_csv(CHART_COLUMNS, [(name, 1.0, 2.0) for name in names])
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows == [["series", "x", "y"], *([name, "1", "2.00"] for name in names)]
        assert text.splitlines()[1] == '"a,b",1,2.00'
        assert text.endswith("\nplain,1,2.00\n")

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
    NS = "{http://www.w3.org/2000/svg}"

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

    def test_escapes_markup_in_text(self):
        series = [ChartSeries("a<b & c>", (1.0, 2.0), (0.0, 1.0))]
        svg = render_svg(series, "Sun & shade", "x <hours>", "y & z")
        root = ET.fromstring(svg)
        texts = [e.text for e in root.iter() if e.tag.endswith(("text", "title"))]
        assert {"Sun & shade", "x <hours>", "y & z", "a<b & c>"} <= set(texts)

    def test_skips_degenerate_series(self):
        one_point = ChartSeries("dot", (1.0,), (2.0,))
        svg = render_svg([one_point], "t", "x", "y")
        assert "<polyline" not in svg

    @staticmethod
    def texts(svg, **attrs):
        """The text of each <text> whose attributes include attrs."""
        root = ET.fromstring(svg)
        return [
            e.text for e in root.iter(TestSvgRendering.NS + "text")
            if all(e.get(k.replace("_", "-")) == v for k, v in attrs.items())
        ]

    def test_flat_series_spans_one_unit(self):
        svg = render_svg([ChartSeries("flat", (0.0, 1.0, 2.0), (5.0, 5.0, 5.0))], "t", "x", "y")
        assert self.texts(svg, text_anchor="end") == ["5", "5.25", "5.5", "5.75", "6"]
        assert 'points="60.00,450.00 420.00,450.00 780.00,450.00"' in svg

    def test_single_x_value_spans_one_unit(self):
        series = [ChartSeries("a", (3.0,), (1.0,)), ChartSeries("b", (3.0,), (2.0,))]
        svg = render_svg(series, "t", "x", "y")
        assert self.texts(svg, font_size="11", text_anchor="middle") == [
            "3", "3.25", "3.5", "3.75", "4"
        ]
        assert self.texts(svg, text_anchor="end") == ["1", "1.25", "1.5", "1.75", "2"]

    def test_narrow_axis_labels_differ(self):
        svg = render_svg([ChartSeries("s", (1e6, 1e6 + 1.0), (0.0, 1e-4))], "t", "x", "y")
        assert self.texts(svg, text_anchor="end") == ["0", "2.5e-05", "5e-05", "7.5e-05", "0.0001"]
        assert self.texts(svg, font_size="11", text_anchor="middle") == [
            "1000000", "1000000.2", "1000000.5", "1000000.8", "1000001"
        ]

    def test_rounding_noise_is_a_flat_axis(self, capsys):
        # at the pole the sun circles at the declination; asin rounding spreads
        # its elevations over 2 ulps (7.1e-15 at 23.45), which a five-tick axis
        # would stretch over the plot with five labels of 23.45
        argv = ["chart", "--days", "172", "--step", "30", "--format", "svg"]
        assert main([*argv, "--lat", "90"]) == 0
        svg = capsys.readouterr().out
        assert self.texts(svg, text_anchor="end") == ["23.45", "23.7", "23.95", "24.2", "24.45"]
        assert {p.split(",")[1] for p in re.search(r'points="([^"]*)"', svg)[1].split()} == {
            "450.00"
        }
        assert main([*argv, "--lat", "89.999"]) == 0  # a narrow axis, not a flat one
        assert self.texts(capsys.readouterr().out, text_anchor="end") == [
            "23.4488", "23.4493", "23.4498", "23.4503", "23.4508"
        ]
        # near the equinox a few ulps of the sine of 90 deg are many ulps of
        # an elevation of 0.40, so only exact trig at the pole makes it flat
        argv = ["chart", "--days", "82", "--step", "30", "--format", "svg", "--lat", "90"]
        assert main(argv) == 0
        svg = capsys.readouterr().out
        assert self.texts(svg, text_anchor="end") == ["0.404", "0.654", "0.904", "1.154", "1.404"]
        assert {p.split(",")[1] for p in re.search(r'points="([^"]*)"', svg)[1].split()} == {
            "450.00"
        }

    def test_flat_axis_far_from_zero_is_drawn(self):
        svg = render_svg([ChartSeries("s", (0.0, 1.0), (-1e20, -1e20))], "t", "x", "y")
        assert self.texts(svg, text_anchor="end") == ["-1e+20", "-7.5e+19", "-5e+19", "-2.5e+19",
                                                      "0"]

    @pytest.mark.parametrize("ys", [(-1e308, 1e308), (0.0, 1e307), (1e308, 1e308)])
    def test_axis_past_the_float_range_is_value_error(self, ys):
        with pytest.raises(ValueError, match="span overflows"):
            render_svg([ChartSeries("big", (0.0, 1.0), ys)], "t", "x", "y")

    def test_colours_repeat_after_twelve_series(self):
        series = [ChartSeries(f"s{i}", (0.0, 1.0), (i, i + 1.0)) for i in range(13)]
        root = ET.fromstring(render_svg(series, "t", "x", "y"))
        strokes = [e.get("stroke") for e in root.iter(self.NS + "polyline")]
        assert len(strokes) == 13 and len(set(strokes[:12])) == 12
        assert strokes[0] == strokes[12] == "#1f77b4"

    def test_every_text_and_line_carries_its_style(self):
        series = sunpath_chart(SITE, (81, 172), step_minutes=30.0, include_azimuth=True)
        root = ET.fromstring(render_svg(series, "Sun & shade", "x <h>", "y"))
        texts, lines = list(root.iter(self.NS + "text")), list(root.iter(self.NS + "line"))
        assert len(texts) == 13 and len(lines) == 12
        assert all(e.get("font-family") == "sans-serif" for e in texts)
        assert all(e.get("stroke") == "black" for e in lines)
