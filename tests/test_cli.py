"""CLI behavior: exit codes, output bytes, schema validity, determinism."""
import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heliotilt
from heliotilt.cli import _build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Default stdout bytes of every subcommand and format at 32.7 N with coarse
# steps, plus the 10 N solstice sun, whose due-north noon row prints the
# signed azimuth as -180.00; the 70 N chart holds a midnight sun whose
# last 7.2-min hour angle rounds past 180, and a polar night; the 45 S
# chart and 33.9 S sun have the sun to the north
CLI_GOLDENS = {
    "sun_32p7_d81_s60.json": ("sun", "--lat", "32.7", "--day", "81", "--step", "60"),
    "sun_32p7_d81_s60.csv": (
        "sun", "--lat", "32.7", "--day", "81", "--step", "60", "--format", "csv"
    ),
    "sun_10_d172_s60.csv": (
        "sun", "--lat", "10", "--day", "172", "--step", "60", "--format", "csv"
    ),
    "tilt_day_32p7_d81.txt": ("tilt", "--lat", "32.7", "--day", "81"),
    "tilt_day_32p7_d81.json": (
        "tilt", "--lat", "32.7", "--day", "81", "--format", "json"
    ),
    "tilt_day_32p7_d81.csv": (
        "tilt", "--lat", "32.7", "--day", "81", "--format", "csv"
    ),
    "tilt_month_32p7_m7.txt": ("tilt", "--lat", "32.7", "--month", "7"),
    "tilt_month_32p7_m7.json": (
        "tilt", "--lat", "32.7", "--month", "7", "--format", "json"
    ),
    "tilt_month_32p7_m7.csv": (
        "tilt", "--lat", "32.7", "--month", "7", "--format", "csv"
    ),
    "schedule_monthly_paper_32p7.json": ("schedule", "--lat", "32.7"),
    "schedule_seasonal_paper_32p7.json": (
        "schedule", "--lat", "32.7", "--granularity", "seasonal"
    ),
    "schedule_seasonal_exact_32p7.csv": (
        "schedule", "--lat", "32.7", "--granularity", "seasonal", "--mode", "exact",
        "--format", "csv",
    ),
    "optimize_32p7_s30.json": ("optimize", "--lat", "32.7", "--step", "30"),
    "optimize_32p7_s30.csv": (
        "optimize", "--lat", "32.7", "--step", "30", "--format", "csv"
    ),
    "gains_32p7_s60.json": ("gains", "--lat", "32.7", "--step", "60"),
    "gains_32p7_s60.csv": ("gains", "--lat", "32.7", "--step", "60", "--format", "csv"),
    "chart_sunpath_32p7_s60.json": (
        "chart", "--lat", "32.7", "--days", "81,172", "--step", "60", "--azimuth"
    ),
    "chart_sunpath_32p7_s60.csv": (
        "chart", "--lat", "32.7", "--days", "81,172", "--step", "60", "--azimuth",
        "--format", "csv",
    ),
    "chart_sunpath_32p7_s60.svg": (
        "chart", "--lat", "32.7", "--days", "81,172", "--step", "60", "--azimuth",
        "--format", "svg",
    ),
    "chart_sunpath_70_d172_355_s7p2.csv": (
        "chart", "--lat", "70", "--days", "172,355", "--step", "7.2", "--azimuth",
        "--format", "csv",
    ),
    "chart_sunpath_m45_d1_172_s10.csv": (
        "chart", "--lat", "-45", "--days", "1,172", "--step", "10", "--azimuth",
        "--format", "csv",
    ),
    "sun_m33p9_d355_s10.csv": (
        "sun", "--lat", "-33.9", "--day", "355", "--step", "10", "--format", "csv"
    ),
    "chart_tilt_32p7.json": ("chart", "--lat", "32.7", "--kind", "tilt"),
    "chart_tilt_32p7.csv": (
        "chart", "--lat", "32.7", "--kind", "tilt", "--format", "csv"
    ),
    "chart_tilt_32p7.svg": (
        "chart", "--lat", "32.7", "--kind", "tilt", "--format", "svg"
    ),
}


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("heliotilt") / "schemas" / "output.schema.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


@pytest.fixture(scope="module")
def validator(schema):
    return jsonschema.validators.validator_for(schema)(schema)


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

    def test_simplified_with_month_is_usage_error(self, capsys):
        # the monthly table has no declination to simplify
        code, out, err = run(capsys, "tilt", "--lat", "32.7", "--month", "7", "--simplified")
        assert (code, out) == (2, "")
        assert err == "usage error: --simplified applies only to --day\n"

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    def test_mode_with_day_is_usage_error(self, capsys, mode):
        # the daily rule has no offset table, so no mode, not even the default one
        code, out, err = run(capsys, "tilt", "--lat", "32.7", "--day", "81", "--mode", mode)
        assert (code, out) == (2, "")
        assert err == "usage error: --mode applies only to --month\n"


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

    def test_repeated_day_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "chart", "--lat", "32.7", "--days", "81,172,81")
        assert code == 1
        assert out == ""
        assert err == "error: day 81 appears more than once in the sun-path days\n"

    @pytest.mark.parametrize("flags", [("--days", "81,81"), ("--azimuth",), ("--days", "81"),
                                       ("--azimuth", "--step", "5")])
    def test_sunpath_flags_on_a_tilt_chart_are_usage_errors(self, capsys, flags):
        code, out, err = run(capsys, "chart", "--lat", "32.7", "--kind", "tilt", *flags)
        assert (code, out) == (2, "")
        assert err == "usage error: --days and --azimuth apply only to --kind sunpath\n"

    @pytest.mark.parametrize("step", ["5", "nan"])
    def test_step_on_a_tilt_chart_is_usage_error(self, capsys, step):
        code, out, err = run(capsys, "chart", "--lat", "32.7", "--kind", "tilt", "--step", step)
        assert (code, out) == (2, "")
        assert err == "usage error: --step applies only to --kind sunpath\n"

    def test_bad_day_list_is_usage_error(self, capsys):
        for days in ("21,x", ""):
            code, out, err = run(capsys, "chart", "--lat", "32.7", "--days", days)
            assert code == 2
            assert out == ""
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

    @pytest.mark.parametrize("target", ["missing/x.txt", "."])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run(
            capsys, "tilt", "--lat", "32.7", "--day", "81", "--out", str(path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1


# Each subcommand and branch, as its shortest valid call, with every optional flag it
# accepts, each given a valid non-default value that matters there ("--out" gets a path)
_FLAGS_BY_BRANCH = {
    ("sun", "--lat", "32.7", "--day", "81"): [("--step", "60"), ("--format", "csv"), ("--out",)],
    ("tilt", "--lat", "32.7", "--day", "279"): [
        ("--simplified",), ("--mode", "exact"), ("--month", "7"), ("--format", "json"),
        ("--format", "csv"), ("--out",),
    ],
    ("tilt", "--lat", "32.7", "--month", "7"): [
        ("--mode", "exact"), ("--simplified",), ("--day", "279"), ("--format", "json"),
        ("--format", "csv"), ("--out",),
    ],
    ("schedule", "--lat", "32.7"): [
        ("--granularity", "seasonal"), ("--mode", "exact"), ("--format", "csv"), ("--out",),
    ],
    ("optimize", "--lat", "32.7"): [
        ("--start-day", "81"), ("--end-day", "81"), ("--step", "30"), ("--format", "csv"),
        ("--out",),
    ],
    ("gains", "--lat", "32.7"): [
        ("--mode", "exact"), ("--step", "30"), ("--format", "csv"), ("--out",),
    ],
    ("chart", "--lat", "32.7"): [
        ("--kind", "tilt"), ("--days", "81"), ("--step", "5"), ("--azimuth",),
        ("--format", "csv"), ("--format", "svg"), ("--out",),
    ],
    ("chart", "--lat", "32.7", "--kind", "tilt"): [
        ("--days", "81"), ("--step", "5"), ("--azimuth",), ("--format", "csv"),
        ("--format", "svg"), ("--out",),
    ],
}


_FLAG_CASES = [(base, flags) for base, cases in _FLAGS_BY_BRANCH.items() for flags in cases]


class TestEveryFlagIsRead:
    @pytest.mark.parametrize("base, flags", _FLAG_CASES,
                             ids=[" ".join((*base, *flags)) for base, flags in _FLAG_CASES])
    def test_flag_changes_the_bytes_or_is_a_usage_error(self, capsys, tmp_path, base, flags):
        target = tmp_path / "out"

        def written(*argv):
            code, out, err = run(capsys, *argv)
            return code, out, err, target.read_bytes() if target.exists() else None

        before = written(*base)
        assert before[0] == 0
        extra = (*flags, str(target)) if flags == ("--out",) else flags
        code, out, err, file_bytes = written(*base, *extra)
        if code == 2:
            assert out == "" and file_bytes is None
            assert err.startswith("usage error: ") and err.count("\n") == 1
        else:
            assert (code, err) == (0, "")
            assert (out, file_bytes) != (before[1], before[3])

    def test_table_names_every_flag(self):
        (commands,) = [a for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        for base, cases in _FLAGS_BY_BRANCH.items():
            declared = {a.option_strings[-1] for a in commands.choices[base[0]]._actions}
            assert declared - {"--help", "--lat"} == {f[0] for f in cases} | set(base[3::2])


class TestJsonHead:
    @pytest.mark.parametrize("argv", [
        ("sun", "--day", "81", "--step", "60"),
        ("chart", "--days", "81", "--step", "60"),
        ("optimize", "--start-day", "81", "--end-day", "81", "--step", "30"),
    ])
    def test_negative_zero_latitude_prints_as_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--lat", "-0", "--format", "json")
        assert code == 0
        assert '"latitude_deg": 0.0,' in out
        assert "-0.0" not in out


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_BAD_STEPS = st.sampled_from((0.0, -5.0, math.inf, -math.inf, math.nan))


@st.composite
def json_argv(draw):
    """A JSON request of any subcommand; numbers go as --flag=value, so a
    negative one is never taken for a flag."""
    command = draw(st.sampled_from(("sun", "tilt", "schedule", "optimize", "gains", "chart")))
    argv = [command, f"--lat={draw(st.floats(-95.0, 95.0))!r}"]
    day = st.integers(-2, 368)
    if command in ("sun", "tilt"):
        argv.append(f"--day={draw(day)}")
    elif command == "chart":
        argv.append(f"--days={draw(day)}")
    elif command == "optimize":
        argv += [f"--start-day={draw(day)}", f"--end-day={draw(day)}"]
    if command in ("sun", "chart"):
        argv.append(f"--step={draw(st.one_of(st.floats(0.05, 150.0), _BAD_STEPS))!r}")
    elif command in ("optimize", "gains"):
        # steps of 30 minutes and up keep an optimize or a year of gains fast
        argv.append(f"--step={draw(st.one_of(st.floats(30.0, 150.0), _BAD_STEPS))!r}")
    return argv + ["--format", "json"]


class TestJsonProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(argv=json_argv())
    def test_valid_finite_json_or_one_error_line(self, validator, argv):
        # redirected by hand: capsys is not reset between hypothesis examples
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == ""
            validator.validate(json.loads(out, parse_constant=_no_constant))
        else:
            assert code in (1, 2)
            assert out == ""
            assert err.count("\n") == 1 and err.startswith(("error: ", "usage error: "))


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
    def test_output_matches_golden(self, capsys, name):
        code, out, err = run(capsys, *CLI_GOLDENS[name])
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (GOLDEN / "cli" / name).read_bytes()


class TestSchemaBounds:
    @pytest.mark.parametrize("name", sorted(n for n in CLI_GOLDENS if n.endswith(".json")))
    def test_golden_json_validates(self, validator, name):
        validator.validate(json.loads((GOLDEN / "cli" / name).read_bytes()))

    @pytest.mark.parametrize("step, valid", [(0.05, False), (0.1, True), (120, True), (121, False)])
    def test_step_is_the_cli_range(self, validator, step, valid):
        # the schema's step is the one --step accepts, [0.1, 120] minutes
        payload = json.loads((GOLDEN / "cli" / "sun_32p7_d81_s60.json").read_bytes())
        assert validator.is_valid({**payload, "step_minutes": step}) is valid


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


# Runs the CLI as `python -m heliotilt.cli` does and prints, on the last line of
# stderr, which of numpy, dataclasses and json the run itself imported
_IMPORT_PROBE = """
import runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("heliotilt.cli", run_name="__main__", alter_sys=True)
finally:
    print(*[m for m in ("numpy", "dataclasses", "json") if m in set(sys.modules) - before],
          sep=",", file=sys.stderr)
"""


class TestNumpyFreePaths:
    """Only optimize and gains load numpy (and insolation's dataclasses); only a
    JSON output loads json."""

    @pytest.mark.parametrize(
        "argv, code, loaded",
        [
            (("tilt", "--lat", "32.7", "--day", "81"), 0, ""),
            (("tilt", "--lat", "32.7", "--month", "7", "--format", "json"), 0, "json"),
            (("tilt", "--lat", "32.7", "--month", "7", "--format", "csv"), 0, ""),
            (("schedule", "--lat", "32.7"), 0, "json"),
            (("schedule", "--lat", "32.7", "--granularity", "seasonal", "--format", "csv"), 0,
             ""),
            (("chart", "--lat", "32.7", "--kind", "tilt"), 0, "json"),
            (("chart", "--lat", "32.7", "--kind", "tilt", "--format", "csv"), 0, ""),
            (("tilt", "--lat", "32.7"), 2, ""),
            (("schedule", "--lat", "-10"), 1, ""),
            (("optimize", "--lat", "32.7", "--step", "60"), 0, "numpy,dataclasses,json"),
            (("sun", "--lat", "32.7", "--day", "81", "--step", "60"), 0, "json"),
            (("sun", "--lat", "32.7", "--day", "81", "--step", "60", "--format", "csv"), 0, ""),
            (("chart", "--lat", "32.7", "--azimuth", "--format", "svg"), 0, ""),
        ],
    )
    def test_heavy_modules_imported_only_where_used(self, argv, code, loaded):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=_src_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.splitlines()[-1] == loaded

    def test_policies_build_without_numpy(self):
        script = (
            "import sys\n"
            "from heliotilt import Location, TiltMode, TiltPolicy\n"
            "from heliotilt import monthly_schedule, seasonal_schedule\n"
            "loc = Location(32.7)\n"
            "for mode in TiltMode:\n"
            "    TiltPolicy.seasonal(seasonal_schedule(loc, mode))\n"
            "    TiltPolicy.monthly(monthly_schedule(loc, mode))\n"
            "TiltPolicy.daily(loc)\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_python_m_heliotilt_is_the_cli(self):
        argv = ["tilt", "--lat", "32.7", "--day", "81"]
        outs = [subprocess.run([sys.executable, "-m", module, *argv], env=_src_env(),
                               capture_output=True, timeout=60)
                for module in ("heliotilt", "heliotilt.cli")]
        assert [(p.returncode, p.stdout, p.stderr) for p in outs] == [(0, b"32.70\n", b"")] * 2


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(pathlib.Path(heliotilt.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
