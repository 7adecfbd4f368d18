"""heliotilt benchmark: one seeded workload per run, or all of them.

    python3 perfbench/run.py --workload site_survey --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A single-workload run prints a few readable lines and, last, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones listed in BENCHMARK.json, with
--trace 1 the per-layer ones. A fuller report (named metrics, input
summary, machine facts, failures) goes to perfbench/out/. `--workload
all` runs every workload untraced and traced in child processes, prints
the named end-to-end metrics and the tracing overhead, and writes
perfbench/out/report.json.

Runs from the root of a heliotilt checkout and imports heliotilt from
its src/ directory; without one it exits with status 2.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

THREAD_PINS = {name: "1" for name in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy is first imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("site_survey", "point_queries", "cli_mix")
SETUP_REPEATS = 5
PROBE_REPEATS = 5

# Import plus warm-up, timed inside a child so interpreter start is left out.
WARM_UP = {
    "site_survey": (
        "import heliotilt as ht\n"
        "loc = ht.Location(45.0)\n"
        "ht.optimize_fixed_tilt(loc, (172, 178))\n"
        "ht.gain_report(loc)\n"
    ),
    "point_queries": (
        "import heliotilt as ht\n"
        "loc = ht.Location(45.0)\n"
        "ht.sun_position(loc, 100, -30.0)\n"
        "ht.incidence_cosine(loc, 100, -30.0, 40.0)\n"
        "ht.daily_tilt(loc, 100)\n"
        "ht.daily_insolation(loc, 100, 40.0)\n"
    ),
    "cli_mix": (
        "import contextlib, io\n"
        "import heliotilt.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    heliotilt.cli.main(['tilt', '--lat', '32.7', '--day', '81'])\n"
    ),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_PINS)
    return env


def import_heliotilt():
    if not (SRC / "heliotilt" / "__init__.py").is_file():
        fail(f"no heliotilt sources under {SRC}; run from a heliotilt checkout")
    sys.path.insert(0, str(SRC))
    import heliotilt
    if Path(heliotilt.__file__).resolve().parent != SRC / "heliotilt":
        fail(f"imported heliotilt from {heliotilt.__file__}, not from {SRC}")


# ------------------------------------------------------------------ facts


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_facts():
    import numpy
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "thread_pins": THREAD_PINS,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


# ------------------------------------------------------------ child probes


def child_seconds(code, env):
    """Seconds a child reports for itself, between its first and last line."""
    script = f"import time\n_t = time.perf_counter()\n{code}print(time.perf_counter() - _t)\n"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload, env, speed):
    """Median set-up time at the reference speed, and the raw samples.

    Each child is followed by a spawn probe: set-up is mostly imports,
    which vary with the host the way interpreter start does."""
    samples, scaled = [], []
    for _ in range(SETUP_REPEATS):
        samples.append(child_seconds(WARM_UP[workload], env))
        speed.probe()
        scaled.append(speed.at_reference(speed.times[-1], samples[-1]))
    return statistics.median(scaled), samples


def cli_probes(env):
    """Bare interpreter start, and numpy and heliotilt import times (ms)."""
    bare, numpy_ms, heliotilt_ms = [], [], []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                       timeout=120)
        bare.append((time.perf_counter() - t) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import heliotilt.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                              timeout=120)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        # heliotilt.cli's cumulative time holds the package's, numpy's included
        np_ms = cumulative.get("numpy", 0.0)
        numpy_ms.append(np_ms)
        heliotilt_ms.append(cumulative["heliotilt.cli"] - np_ms)
    return {
        "cli.interpreter_ms": statistics.median(bare),
        "cli.import_numpy_ms": statistics.median(numpy_ms),
        "cli.import_heliotilt_ms": statistics.median(heliotilt_ms),
    }


def tracing_overhead(wl, first_ops, latency_s, run_op, budget_s):
    """Percent by which tracing slows the same ops.

    The shortest prefix of the run's ops whose traced time reaches
    budget_s is run untraced, traced, untraced and traced again, so both
    sides see warm caches. `first_ops` regenerates the run's inputs.
    Returns (prefix length, percent).
    """
    from tracing import Tracer
    m = 1
    while m < len(latency_s) and sum(latency_s[:m]) < budget_s:
        m += 1
    spent = {False: 0.0, True: 0.0}
    for traced in (False, True, False, True):
        tracer = Tracer()
        if traced:
            tracer.install()
        try:
            spent[traced] += sum(wl.run_loop(first_ops(m), float("inf"), run_op).latency_s)
        finally:
            tracer.uninstall()
    return m, 100.0 * (spent[True] - spent[False]) / spent[False]


# ------------------------------------------------------------- one workload


def run_workload(workload, seed, seconds, trace):
    """Run, check and summarise one workload; returns the report dict."""
    import workloads as wl
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = child_env()
    load_before = os.getloadavg()
    setup_s, setup_samples = measure_setup(workload, env, wl.SpeedProbe("spawn", env=env))
    exec(WARM_UP[workload], {})

    if workload == "site_survey":
        refs = wl.load_gain_refs()
        make_ops, run_op = wl.survey_calls, wl.survey_op
        check = lambda op, out: wl.check_call(op, out, refs)  # noqa: E731
        summarise = wl.survey_summary
    elif workload == "point_queries":
        make_ops, run_op = wl.point_queries, wl.query_op
        check, summarise = wl.check_query, wl.query_summary
    else:
        import jsonschema
        refs = wl.load_cli_refs()
        validator = jsonschema.Draft202012Validator(wl.load_schema(ROOT))
        pool = wl.cli_pool()
        make_ops = lambda seed: wl.cli_invocations(seed, pool)  # noqa: E731
        run_op = wl.cli_op_in_process if trace else wl.CliRunner(ROOT, env)
        check = lambda op, out: wl.check_cli(op, out, refs, validator)  # noqa: E731
        summarise = wl.cli_summary

    def first_ops(n):
        return islice(make_ops(seed), n)

    if workload == "cli_mix" and not trace:
        speed = wl.SpeedProbe("spawn", env=env)
    else:
        speed = wl.SpeedProbe("compute", every_s=0.05)
    speed.probe()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        untraced_op, untraced_check, untraced_idle = run_op, check, speed

        def run_op(op):  # tags the op's spans with its index
            tracer.op_id += 1
            return untraced_op(op)

        def check(op, out):
            with tracer.paused():
                return untraced_check(op, out)

        def speed():
            with tracer.paused():
                untraced_idle()
    try:
        log = wl.run_loop(make_ops(seed), seconds, run_op, check, speed)
    finally:
        if tracer:
            tracer.uninstall()
            run_op, speed = untraced_op, untraced_idle
    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    attempted = len(log.latency_s)
    failures = log.failures
    ops = list(first_ops(attempted))
    raw_ms = [s * 1e3 for s in log.latency_s]
    lat_ms = [speed.at_reference(t, s) * 1e3 for t, s in zip(log.start, log.latency_s)]

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one caller, one op in flight",
        "input_summary": summarise(ops),
        "speed_probe": {"kind": speed.kind, "samples": len(speed.seconds),
                        "median_s": statistics.median(speed.seconds),
                        "reference_s": speed.REF_S[speed.kind]},
        "setup_samples_s": setup_samples,
        "failures": {str(i): msg for i, msg in sorted(failures.items())[:20]},
    }
    if trace:
        metrics = tracer.layer_metrics(attempted)
        metrics.update(cli_probes(env))
        m, metrics["trace.overhead_pct"] = tracing_overhead(
            wl, first_ops, log.latency_s, run_op, seconds / 8.0)
        metrics["machine.probe_ms"] = statistics.median(speed.seconds) * 1e3
        report["trace_overhead_ops"] = m
        report["absent_layers"] = tracer.absent
        report["spans"] = len(tracer.spans)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.csv.gz")
    else:
        metrics = {
            "ops_per_s": attempted / (sum(lat_ms) / 1e3),
            "latency_ms_p50": wl.percentile(lat_ms, 50),
            "latency_ms_p90": wl.percentile(lat_ms, 90),
            "setup_s": setup_s,
            "peak_rss_mb": peak_mb,
        }
        report["wall_clock"] = {
            "ops_per_s": attempted / log.elapsed_s,
            "latency_ms_p50": wl.percentile(raw_ms, 50),
            "latency_ms_p90": wl.percentile(raw_ms, 90),
            "setup_s": statistics.median(setup_samples),
        }
    named = {
        "setup_s": [setup_s, "s"],
        "failed_share": [len(failures) / attempted, "share"],
    }
    if not trace:
        named["peak_rss_mb"] = [peak_mb, "MB"]
        if workload == "site_survey":
            per_site = len(wl.SURVEY_CALLS)
            named["survey_sites_per_s"] = [metrics["ops_per_s"] / per_site, "1/s"]
            for name, calls in (("optimize", {"optimize"}), ("gains", {"paper", "exact"})):
                times = [ms / 1e3 for (call, _), ms in zip(ops, lat_ms) if call in calls]
                named[f"{name}_s_p50"] = [statistics.median(times or [math.nan]), "s"]
        elif workload == "point_queries":
            named["queries_per_s"] = [metrics["ops_per_s"], "1/s"]
            named["query_us_p50"] = [metrics["latency_ms_p50"] * 1e3, "us"]
            named["query_us_p90"] = [metrics["latency_ms_p90"] * 1e3, "us"]
        else:
            named["cli_ms_p50"] = [metrics["latency_ms_p50"], "ms"]
            named["cli_ms_p90"] = [metrics["latency_ms_p90"], "ms"]
    report["named_metrics"] = named
    report["samples"] = attempted
    report["metrics"] = metrics
    report["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report["machine"] = machine_facts()
    report["machine"]["loadavg_before"] = load_before
    report["machine"]["loadavg_after"] = os.getloadavg()
    return report


def main_one(args):
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(f"workload {args.workload} seed {args.seed}: {report['samples']} ops, "
          f"{report['result']['failed']} failed; report in perfbench/out/{name}")
    print("inputs:", json.dumps(report["input_summary"], sort_keys=True))
    for key, (value, unit) in report["named_metrics"].items():
        print(f"  {key} = {value:.6g} {unit}")
    for msg in list(report["failures"].values())[:5]:
        print(f"  FAILED: {msg}")
    print(json.dumps(report["result"]))


def main_all(args):
    combined = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(trace)],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
        untraced, traced = (
            json.loads((OUT / f"{workload}-seed{args.seed}-trace{t}.json").read_text())
            for t in (0, 1)
        )
        combined["workloads"][workload] = {"untraced": untraced, "traced": traced}
        print(f"{workload} ({untraced['samples']} ops untraced, "
              f"{traced['samples']} traced):")
        for key, (value, unit) in untraced["named_metrics"].items():
            print(f"  {key} = {value:.6g} {unit}")
        print(f"  tracing overhead = {traced['metrics']['trace.overhead_pct']:.3g} % "
              f"(same {traced['trace_overhead_ops']} ops traced vs untraced)")
    (OUT / "report.json").write_text(json.dumps(combined, indent=1) + "\n")
    print("full report: perfbench/out/report.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    import_heliotilt()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        main_all(args)
    else:
        main_one(args)


if __name__ == "__main__":
    main()
