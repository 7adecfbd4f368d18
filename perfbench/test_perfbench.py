"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

A tiny run of each workload must emit every metric BENCHMARK.json names,
with its unit, and the output checks must count corrupted outputs as
failed, so that a clean run's failed = 0 means something.
"""
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE)]

import run  # noqa: E402  (pins the BLAS threads before numpy loads)

run.import_heliotilt()

import heliotilt as ht  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "site_survey": {"survey_sites_per_s": "1/s", "optimize_s_p50": "s", "gains_s_p50": "s"},
    "point_queries": {"queries_per_s": "1/s", "query_us_p50": "us", "query_us_p90": "us"},
    "cli_mix": {"cli_ms_p50": "ms", "cli_ms_p90": "ms"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "share"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    report = json.loads((HERE / "out" / f"{workload}-seed7-trace{trace}.json").read_text())
    named = {k: unit for k, (_, unit) in report["named_metrics"].items()}
    assert named == ({"setup_s": "s", "failed_share": "share"} if trace
                     else {**COMMON, **NAMED[workload]})
    assert report["seed"] == 7 and report["input_summary"]
    assert {"nproc", "cpu_model", "loadavg_before", "loadavg_after", "python", "numpy",
            "git_commit", "thread_pins", "src_lines"} <= set(report["machine"])


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_site_checks_catch_corruption():
    refs = wl.load_gain_refs()
    site = wl.Site(327, (172, 181))
    optimize, paper = ("optimize", site), ("paper", site)
    tilt, energy = wl.survey_op(optimize)
    assert wl.check_call(optimize, (tilt, energy), refs) == []
    assert wl.check_call(optimize, (tilt + 1.0, energy), refs)
    assert wl.check_call(optimize, (tilt, energy * (1 + 1e-8)), refs)
    gains = wl.survey_op(paper)
    assert wl.check_call(paper, gains, refs) == []
    assert wl.check_call(paper, [gains[0] + 0.06, *gains[1:]], refs)


def test_query_checks_catch_corruption():
    q = next(q for q in wl.point_queries(3) if wl.oracle_daily_bounds(q.lat, q.day, q.tilt)[0] > 1e3)
    good = wl.query_op(q)
    assert wl.check_query(q, good) == []
    for i, delta in enumerate((1e-8, 1e-8, 1e-8, 1e-8)):
        bad = list(good)
        bad[i] += delta
        assert wl.check_query(q, tuple(bad)), i
    bad = list(good)
    bad[4] *= 1.0002
    assert wl.check_query(q, tuple(bad))


def test_cli_checks_catch_corruption():
    import jsonschema
    refs = wl.load_cli_refs()
    validator = jsonschema.Draft202012Validator(wl.load_schema(ROOT))
    pool = wl.cli_pool()
    csv_argv = next(a for a in pool["chart_tilt"] if wl.output_format(a) == "csv")
    json_argv = next(a for a in pool["sun"] if wl.output_format(a) == "json")
    for argv in (csv_argv, json_argv):
        code, out, err = wl.cli_main_in_process(argv)
        item = ("x", tuple(argv))
        assert wl.check_cli(item, (code, out, err), refs, validator) == []
        assert wl.check_cli(item, (1, out, err), refs, validator)
    code, out, err = wl.cli_main_in_process(csv_argv)
    last = b"1" if out[-2:-1] == b"0" else b"0"
    assert wl.check_cli(("x", tuple(csv_argv)), (0, out[:-2] + last + b"\n", err), refs, validator)
    code, out, err = wl.cli_main_in_process(json_argv)
    item = ("x", tuple(json_argv))
    assert wl.check_cli(item, (0, out.replace(b'"day": ', b'"day": NaN, "x": ', 1), err),
                        refs, validator)
    assert wl.check_cli(item, (0, out.replace(b'"sun"', b'"moon"'), err), refs, validator)
    error = ("error_exit2", ("tilt", "--lat", "10", "--day", "5", "--month", "2"))
    assert wl.check_cli(error, wl.cli_main_in_process(error[1]), refs, validator) == []
    assert wl.check_cli(error, (1, b"", b"usage error: x\n"), refs, validator)
    assert wl.check_cli(error, (2, b"", b"two\nlines\n"), refs, validator)


def test_a_wrong_program_is_counted_as_failed(monkeypatch):
    original = ht.daily_insolation

    def three_times_too_much(loc, day, tilt_deg, model=None):
        result = original(loc, day, tilt_deg, model)
        return dataclasses.replace(result, energy_wh_m2=result.energy_wh_m2 * 3.0 + 1e-3)

    monkeypatch.setattr(ht, "daily_insolation", three_times_too_much)
    report = run.run_workload("point_queries", seed=5, seconds=0.2, trace=0)
    assert report["result"]["attempted"] >= 1
    assert report["result"]["failed"] == report["result"]["attempted"]
    assert report["result"]["correct"] is False
    assert report["named_metrics"]["failed_share"][0] == 1.0
