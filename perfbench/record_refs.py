"""Regenerate the references in perfbench/refs/ from the current sources.

    python3 perfbench/record_refs.py

gains.json holds gain_report's seasonal, monthly and daily gains (percent)
in paper and exact mode for every site latitude the site_survey workload
can draw (0.1 to 72.0 deg in tenths). cli.json holds the SHA-256 of the
stdout bytes of every non-JSON invocation in the cli_mix pool. Record
them only from a commit whose outputs are known to be right: the
benchmark checks later commits against them.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import heliotilt as ht  # noqa: E402
import workloads as wl  # noqa: E402


def record_gains():
    refs = {"lat_step_deg": 0.1, "policies": ["seasonal", "monthly", "daily"]}
    for mode in ("paper", "exact"):
        refs[mode] = [
            [round(p.gain_percent, 6)
             for p in ht.gain_report(ht.Location(k / 10.0), mode=mode).policies]
            for k in range(1, wl.LAT_TENTHS_MAX + 1)
        ]
    return refs


def record_cli():
    refs = {}
    for argvs in wl.cli_pool().values():
        for argv in argvs:
            if wl.output_format(argv) == "json":
                continue
            code, stdout, stderr = wl.cli_main_in_process(argv)
            if code != 0:
                raise SystemExit(f"{argv} exited {code}: {stderr!r}")
            refs[" ".join(argv)] = hashlib.sha256(stdout).hexdigest()
    return refs


def main():
    (HERE / "refs").mkdir(exist_ok=True)
    (HERE / "refs" / "cli.json").write_text(json.dumps(record_cli(), indent=1, sort_keys=True) + "\n")
    (HERE / "refs" / "gains.json").write_text(json.dumps(record_gains()) + "\n")


if __name__ == "__main__":
    main()
