"""Command line interface.

Subcommands cover sun positions through a day, single tilt lookups,
monthly and seasonal schedule tables, the brute-force fixed-tilt
optimum, annual gain reports, and chart emission. Output goes to stdout
or --out as json or csv (svg for charts; the bare tilt lookup defaults
to plain text). Usage mistakes exit 2; domain errors such as a latitude
off the globe or a schedule request south of the equator exit 1 with a
one-line diagnostic on stderr.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .charts import (
    DEFAULT_CHART_DAYS,
    chart_csv,
    fmt_angle,
    render_json,
    render_svg,
    schedule_csv,
    schedule_table,
    sun_csv,
    sun_day_rows,
    sunpath_chart,
    tilt_curve,
)
from .geometry import Location
from .insolation import IrradianceModel, gain_report, optimize_fixed_tilt
from .schedule import (
    TiltMode,
    UnsupportedHemisphereError,
    daily_tilt_details,
    monthly_schedule,
    round_half_up,
)


class UsageError(Exception):
    """Bad argument combinations not expressible as argparse constraints."""


def _round2(value: float) -> float:
    return round(value, 2) + 0.0


def _round4(value: float) -> float:
    return round(value, 4) + 0.0


def _clean_metadata(metadata: dict) -> dict:
    return {
        k: _round2(v) if isinstance(v, float) else v for k, v in metadata.items()
    }


def _cmd_sun(args: argparse.Namespace) -> str:
    loc = Location(args.lat)
    rows = sun_day_rows(loc, args.day, args.step)
    if args.format == "csv":
        return sun_csv(rows)
    payload = {
        "kind": "sun",
        "latitude_deg": args.lat,
        "day": args.day,
        "step_minutes": args.step,
        "rows": [
            {
                "solar_hour": _round4(hour),
                "elevation_deg": _round2(elev),
                "azimuth_deg": _round2(az),
                "compass_azimuth_deg": _round2(compass),
            }
            for hour, elev, az, compass in rows
        ],
    }
    return render_json(payload)


def _cmd_tilt(args: argparse.Namespace) -> str:
    loc = Location(args.lat)
    if (args.day is None) == (args.month is None):
        raise UsageError("exactly one of --day or --month is required")
    if args.day is not None:
        detail = daily_tilt_details(loc, args.day, simplified=args.simplified)
        value = detail.tilt_deg
        payload = {
            "kind": "tilt",
            "latitude_deg": args.lat,
            "rule": "daily",
            "day": args.day,
            "tilt_deg": _round2(value),
            "clamped": detail.clamped,
        }
        csv_text = f"day,tilt_deg\n{args.day},{fmt_angle(value)}\n"
    else:
        schedule = monthly_schedule(loc, TiltMode(args.mode))
        value = schedule.beta_for_month(args.month)
        payload = {
            "kind": "tilt",
            "latitude_deg": args.lat,
            "rule": "monthly",
            "month": args.month,
            "mode": args.mode,
            "tilt_deg": _round2(value),
        }
        csv_text = f"month,tilt_deg\n{args.month},{fmt_angle(value)}\n"
    if args.format == "text":
        return fmt_angle(value) + "\n"
    if args.format == "csv":
        return csv_text
    return render_json(payload)


def _cmd_schedule(args: argparse.Namespace) -> str:
    table = schedule_table(Location(args.lat), args.granularity, TiltMode(args.mode))
    if args.format == "csv":
        return schedule_csv(table)
    payload = {
        "kind": "schedule",
        "latitude_deg": args.lat,
        "mode": table.mode.value,
        "granularity": table.granularity,
        "rows": [
            {"period": name, "tilt_deg": _round2(value)} for name, value in table.rows
        ],
    }
    if table.granularity == "seasonal":
        payload["rounded_deg"] = [round_half_up(value) for _, value in table.rows]
    payload["metadata"] = _clean_metadata(table.metadata)
    return render_json(payload)


def _cmd_optimize(args: argparse.Namespace) -> str:
    loc = Location(args.lat)
    model = IrradianceModel(time_step_minutes=args.step)
    result = optimize_fixed_tilt(loc, (args.start_day, args.end_day), model)
    if args.format == "csv":
        return (
            "start_day,end_day,tilt_deg,energy_wh_m2\n"
            f"{args.start_day},{args.end_day},{fmt_angle(result.tilt_deg)},"
            f"{result.energy_wh_m2:.2f}\n"
        )
    payload = {
        "kind": "optimum",
        "latitude_deg": args.lat,
        "start_day": args.start_day,
        "end_day": args.end_day,
        "step_minutes": args.step,
        "tilt_deg": _round2(result.tilt_deg),
        "energy_wh_m2": _round2(result.energy_wh_m2),
    }
    return render_json(payload)


def _cmd_gains(args: argparse.Namespace) -> str:
    report = gain_report(
        Location(args.lat),
        IrradianceModel(time_step_minutes=args.step),
        TiltMode(args.mode),
    )
    entries = [report.baseline, *report.policies]
    if args.format == "csv":
        lines = ["policy,energy_wh_m2,gain_percent"]
        lines += [
            f"{e.policy},{e.energy_wh_m2:.2f},{e.gain_percent:.3f}" for e in entries
        ]
        return "\n".join(lines) + "\n"
    def row(entry):
        return {
            "policy": entry.policy,
            "energy_wh_m2": _round2(entry.energy_wh_m2),
            "gain_percent": round(entry.gain_percent, 3) + 0.0,
        }
    payload = {
        "kind": "gains",
        "latitude_deg": args.lat,
        "mode": report.mode.value,
        "step_minutes": args.step,
        "baseline": row(report.baseline),
        "policies": [row(e) for e in report.policies],
    }
    return render_json(payload)


def _parse_days(text: str) -> tuple[int, ...]:
    try:
        days = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"--days must be a comma-separated list of integers, got {text!r}"
        ) from None
    if not days:
        raise UsageError("--days must name at least one day")
    return days


def _cmd_chart(args: argparse.Namespace) -> str:
    loc = Location(args.lat)
    if args.kind == "sunpath":
        days = _parse_days(args.days) if args.days else DEFAULT_CHART_DAYS
        series = sunpath_chart(loc, days, args.step, include_azimuth=args.azimuth)
        title = "Sun path"
        x_label = "solar hour"
        payload_extra = {"step_minutes": args.step}
    else:
        series = [tilt_curve(loc)]
        title = "Daily tilt"
        x_label = "day of year"
        payload_extra = {}
    if args.format == "csv":
        return chart_csv(series)
    if args.format == "svg":
        return render_svg(series, title, x_label, "degrees")
    payload = {
        "kind": "chart",
        "latitude_deg": args.lat,
        "chart": args.kind,
        **payload_extra,
        "series": [
            {
                "name": s.name,
                "x": [_round4(x) for x in s.x],
                "y": [_round2(y) for y in s.y],
                "metadata": _clean_metadata(s.metadata),
            }
            for s in series
        ],
    }
    return render_json(payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heliotilt",
        description="Solar angles and panel tilt schedules from closed-form geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_command(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument(
            "--lat",
            type=float,
            required=True,
            metavar="DEG",
            help="site latitude in degrees, positive north",
        )
        p.add_argument(
            "--out",
            type=Path,
            default=None,
            metavar="PATH",
            help="write to this file instead of stdout",
        )
        p.set_defaults(handler=handler)
        return p

    sun = add_command("sun", "sun positions through one day", _cmd_sun)
    sun.add_argument("--day", type=int, required=True, help="day of year, 1 to 365")
    sun.add_argument(
        "--step", type=float, default=1.0, help="sample step, 0.1 to 120 minutes (default 1)"
    )
    sun.add_argument("--format", choices=("json", "csv"), default="json")

    tilt = add_command("tilt", "tilt for one day or one month", _cmd_tilt)
    tilt.add_argument("--day", type=int, default=None, help="day of year for the daily rule")
    tilt.add_argument("--month", type=int, default=None, help="month number for the monthly table")
    tilt.add_argument("--mode", choices=("paper", "exact"), default="paper")
    tilt.add_argument(
        "--simplified",
        action="store_true",
        help="use the simplified declination in the daily rule",
    )
    tilt.add_argument("--format", choices=("text", "json", "csv"), default="text")

    schedule = add_command("schedule", "monthly or seasonal tilt table", _cmd_schedule)
    schedule.add_argument("--granularity", choices=("monthly", "seasonal"), default="monthly")
    schedule.add_argument("--mode", choices=("paper", "exact"), default="paper")
    schedule.add_argument("--format", choices=("json", "csv"), default="json")

    optimize = add_command(
        "optimize", "brute-force best fixed tilt over a day range", _cmd_optimize
    )
    optimize.add_argument("--start-day", type=int, default=1, help="first day (default 1)")
    optimize.add_argument("--end-day", type=int, default=365, help="last day (default 365)")
    optimize.add_argument(
        "--step", type=float, default=1.0, help="integration step, 0.1 to 120 minutes (default 1)"
    )
    optimize.add_argument("--format", choices=("json", "csv"), default="json")

    gains = add_command(
        "gains", "annual energy of each policy against the fixed baseline", _cmd_gains
    )
    gains.add_argument("--mode", choices=("paper", "exact"), default="paper")
    gains.add_argument(
        "--step", type=float, default=1.0, help="integration step, 0.1 to 120 minutes (default 1)"
    )
    gains.add_argument("--format", choices=("json", "csv"), default="json")

    chart = add_command("chart", "sun-path or tilt-curve chart data", _cmd_chart)
    chart.add_argument("--kind", choices=("sunpath", "tilt"), default="sunpath")
    chart.add_argument(
        "--days",
        default=None,
        metavar="D1,D2,...",
        help="days of year for the sun path (default: the 21st of each month)",
    )
    chart.add_argument(
        "--step", type=float, default=1.0, help="sample step, 0.1 to 120 minutes (default 1)"
    )
    chart.add_argument(
        "--azimuth", action="store_true", help="add compass-azimuth series"
    )
    chart.add_argument("--format", choices=("json", "csv", "svg"), default="json")

    return parser


def _write(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_bytes(text.encode("utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedHemisphereError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
