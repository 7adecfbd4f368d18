"""CLI behavior: exit codes, output bytes, schema validity, determinism."""
import json
import pathlib
from importlib import resources

import jsonschema
import pytest

from heliotilt.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("heliotilt") / "schemas" / "output.schema.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTiltCommand:
    def test_bare_value_two_decimals(self, capsys):
        code, out, err = run(capsys, "tilt", "--lat", "32.7", "--day", "81")
        assert code == 0
        assert out == "32.70\n"
        assert err == ""

    def test_monthly_lookup(self, capsys):
        code, out, _ = run(capsys, "tilt", "--lat", "32.7", "--month", "7")
        assert code == 0
        assert out == "8.25\n"

    def test_json_variant(self, capsys, schema):
        code, out, _ = run(
            capsys, "tilt", "--lat", "32.7", "--day", "81", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["tilt_deg"] == 32.7
        assert payload["rule"] == "daily"
        assert payload["clamped"] is False

    def test_month_json_variant(self, capsys, schema):
        code, out, _ = run(
            capsys, "tilt", "--lat", "32.7", "--month", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["tilt_deg"] == 56.15
        assert payload["mode"] == "paper"

    def test_simplified_flag(self, capsys):
        code, out, _ = run(
            capsys, "tilt", "--lat", "32.7", "--day", "171", "--simplified"
        )
        assert code == 0
        assert out == "9.25\n"

    def test_day_and_month_together_is_usage_error(self, capsys):
        code, _, err = run(capsys, "tilt", "--lat", "32.7", "--day", "81", "--month", "3")
        assert code == 2
        assert "usage error" in err

    def test_neither_day_nor_month_is_usage_error(self, capsys):
        code, _, err = run(capsys, "tilt", "--lat", "32.7")
        assert code == 2
        assert "usage error" in err


class TestScheduleCommand:
    def test_seasonal_paper_csv_matches_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "schedule", "--lat", "32.7", "--mode", "paper",
            "--granularity", "seasonal", "--format", "csv",
        )
        assert code == 0
        golden = (GOLDEN / "schedule_seasonal_paper_32p7.csv").read_bytes()
        assert out.encode("utf-8") == golden

    def test_monthly_paper_csv_matches_golden(self, capsys):
        code, out, _ = run(
            capsys, "schedule", "--lat", "32.7", "--format", "csv"
        )
        assert code == 0
        golden = (GOLDEN / "schedule_monthly_paper_32p7.csv").read_bytes()
        assert out.encode("utf-8") == golden

    def test_seasonal_json_carries_rounded_degrees(self, capsys, schema):
        code, out, _ = run(
            capsys, "schedule", "--lat", "32.7", "--granularity", "seasonal"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["rounded_deg"] == [48, 24, 16, 40]
        assert payload["metadata"]["tilt_min_deg"] == 8.25

    def test_exact_mode_metadata(self, capsys, schema):
        code, out, _ = run(
            capsys, "schedule", "--lat", "32.7", "--mode", "exact"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["metadata"]["tilt_min_deg"] == 9.25
        assert len(payload["rows"]) == 12


class TestSouthernHemisphere:
    @pytest.mark.parametrize(
        "argv",
        [
            ("tilt", "--lat", "-10", "--day", "81"),
            ("schedule", "--lat", "-10"),
            ("schedule", "--lat", "-10", "--granularity", "seasonal", "--format", "csv"),
            ("gains", "--lat", "-10", "--step", "30"),
            ("chart", "--lat", "-10", "--kind", "tilt"),
        ],
    )
    def test_schedule_commands_reject_southern_latitudes(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "northern" in err

    def test_sun_accepts_signed_latitude(self, capsys):
        code, out, _ = run(
            capsys, "sun", "--lat", "-10", "--day", "81", "--format", "csv", "--step", "60"
        )
        assert code == 0
        assert out.splitlines()[1].startswith("6,")

    def test_sunpath_chart_accepts_signed_latitude(self, capsys):
        code, out, _ = run(
            capsys, "chart", "--lat", "-35", "--days", "172", "--step", "30",
            "--format", "csv",
        )
        assert code == 0
        assert len(out.splitlines()) > 2


class TestSunCommand:
    def test_equinox_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "sun", "--lat", "32.7", "--day", "81", "--step", "120",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "solar_hour,elevation_deg,azimuth_deg,compass_azimuth_deg"
        assert lines[1] == "6,0.00,-90.00,90.00"
        assert "12,57.30,0.00,180.00" in lines

    def test_json_validates(self, capsys, schema):
        code, out, _ = run(
            capsys, "sun", "--lat", "32.7", "--day", "172", "--step", "60"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        hours = [row["solar_hour"] for row in payload["rows"]]
        assert hours == sorted(hours)
        assert all(row["elevation_deg"] >= 0.0 for row in payload["rows"])


class TestOptimizeCommand:
    def test_single_day_json(self, capsys, schema):
        code, out, _ = run(
            capsys, "optimize", "--lat", "32.7", "--start-day", "81", "--end-day", "81"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["tilt_deg"] == 32.7

    def test_csv_variant(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize", "--lat", "32.7", "--start-day", "172", "--end-day", "172",
            "--step", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "start_day,end_day,tilt_deg,energy_wh_m2"
        assert lines[1].startswith("172,172,0.00,")

    def test_bad_period(self, capsys):
        code, _, err = run(
            capsys, "optimize", "--lat", "32.7", "--start-day", "200", "--end-day", "100"
        )
        assert code == 1
        assert err.startswith("error:")


class TestGainsCommand:
    def test_json_validates_and_orders(self, capsys, schema):
        code, out, _ = run(capsys, "gains", "--lat", "32.7", "--step", "10")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        gains = [p["gain_percent"] for p in payload["policies"]]
        assert gains == sorted(gains)
        assert payload["baseline"]["gain_percent"] == 0.0

    def test_csv_variant(self, capsys):
        code, out, _ = run(
            capsys, "gains", "--lat", "32.7", "--step", "30", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "policy,energy_wh_m2,gain_percent"
        assert lines[1].startswith("fixed(32.70),")
        assert lines[1].endswith(",0.000")


class TestChartCommand:
    def test_tilt_svg(self, capsys):
        code, out, _ = run(
            capsys, "chart", "--lat", "32.7", "--kind", "tilt", "--format", "svg"
        )
        assert code == 0
        assert out.startswith("<svg ")
        assert "<polyline" in out

    def test_sunpath_json_validates(self, capsys, schema):
        code, out, _ = run(
            capsys, "chart", "--lat", "32.7", "--days", "81,172", "--step", "60",
            "--azimuth",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert [s["name"] for s in payload["series"]] == [
            "day_081", "day_081_az", "day_172", "day_172_az",
        ]

    def test_bad_day_list_is_usage_error(self, capsys):
        code, _, err = run(capsys, "chart", "--lat", "32.7", "--days", "21,x")
        assert code == 2
        assert "usage error" in err


class TestErrorHandling:
    @pytest.mark.parametrize(
        "argv",
        [
            ("tilt", "--lat", "95", "--day", "81"),
            ("tilt", "--lat", "32.7", "--day", "400"),
            ("sun", "--lat", "32.7", "--day", "0"),
            ("sun", "--lat", "32.7", "--day", "81", "--step", "-5"),
            ("optimize", "--lat", "32.7", "--step", "inf"),
            ("optimize", "--lat", "32.7", "--step", "nan"),
            ("gains", "--lat", "32.7", "--step", "1e9"),
            ("chart", "--lat", "32.7", "--step", "inf"),
        ],
    )
    def test_domain_errors_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["orbit", "--lat", "32.7"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tilt", "--lat", "32.7", "--day", "81", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_latitude_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tilt", "--day", "81"])
        assert exc.value.code == 2


class TestOutputFile:
    def test_out_writes_same_bytes_as_stdout(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "schedule", "--lat", "32.7", "--format", "csv"
        )
        assert code == 0
        target = tmp_path / "schedule.csv"
        code2 = main(
            ["schedule", "--lat", "32.7", "--format", "csv", "--out", str(target)]
        )
        captured = capsys.readouterr()
        assert code2 == 0
        assert captured.out == ""
        assert target.read_bytes() == out.encode("utf-8")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sun", "--lat", "32.7", "--day", "172", "--step", "30"),
            ("schedule", "--lat", "32.7", "--granularity", "seasonal", "--format", "csv"),
            ("chart", "--lat", "32.7", "--days", "81", "--step", "30", "--format", "svg"),
            ("gains", "--lat", "32.7", "--step", "60", "--format", "csv"),
        ],
    )
    def test_identical_args_identical_bytes(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
