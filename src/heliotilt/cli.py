"""Command line interface.

Subcommands cover sun positions through a day, single tilt lookups,
monthly and seasonal schedule tables, the best fixed tilt over a day
range, annual gain reports, and chart emission. Output goes to stdout
or --out as json or csv (svg for charts; the bare tilt lookup defaults
to plain text); each subcommand builds its rows once and prints both
formats from one column spec. Usage mistakes exit 2; domain errors such
as a latitude off the globe or a schedule request south of the equator,
and an --out path that cannot be written, exit 1 with a one-line
diagnostic on stderr.
"""
from __future__ import annotations

import argparse
import sys

from .charts import (
    DEFAULT_CHART_DAYS,
    angle,
    fmt_angle,
    json_column,
    json_rows,
    render_csv,
    render_json,
    render_svg,
    schedule_table,
    sun_day_rows,
    sunpath_chart,
    tilt_curve,
)
from .geometry import DAYS_PER_YEAR, Location
from .schedule import (
    TiltMode,
    daily_tilt_details,
    monthly_schedule,
    round_half_up,
)

# Every printed field as a (name, digits, csv format) column; see
# charts.Column. A csv format of None marks a JSON-only field.
TILT = angle("tilt_deg")
ENERGY = ("energy_wh_m2", 2, ".2f")
TILT_DAY_COLUMNS = (("rule", None, None), ("day", None, ""), TILT, ("clamped", None, None))
TILT_MONTH_COLUMNS = (("rule", None, None), ("month", None, ""), ("mode", None, None), TILT)
OPTIMUM_COLUMNS = (
    ("start_day", None, ""), ("end_day", None, ""), ("step_minutes", None, None), TILT, ENERGY
)
GAIN_COLUMNS = (("policy", None, ""), ENERGY, ("gain_percent", 3, ".3f"))
SUN_COLUMNS = (("solar_hour", 4, "g"), angle("elevation_deg"), angle("azimuth_deg"),
               angle("compass_azimuth_deg"))
CHART_COLUMNS = (("series", None, ""), ("x", 4, "g"), angle("y"))


class UsageError(Exception):
    """Bad argument combinations not expressible as argparse constraints."""


def _clean_metadata(metadata: dict) -> dict:
    # the float metadata of charts and schedules are latitudes and tilts
    return {k: json_column(angle(k), (v,))[0] if isinstance(v, float) else v
            for k, v in metadata.items()}


def _json(args: argparse.Namespace, kind: str, fields: dict) -> str:
    """A JSON payload: its kind and the site latitude, then the command's fields."""
    return render_json({"kind": kind, "latitude_deg": args.lat + 0.0, **fields})


def _one_row(args: argparse.Namespace, kind: str, columns, row: tuple) -> str:
    """A one-row table as CSV, or its fields as one flat JSON object."""
    if args.format == "csv":
        return render_csv(columns, [row])
    return _json(args, kind, json_rows(columns, [row])[0])


def _cmd_sun(args: argparse.Namespace) -> str:
    rows = sun_day_rows(Location(args.lat), args.day, args.step)
    if args.format == "csv":
        return render_csv(SUN_COLUMNS, rows)
    fields = {"day": args.day, "step_minutes": args.step, "rows": json_rows(SUN_COLUMNS, rows)}
    return _json(args, "sun", fields)


def _cmd_tilt(args: argparse.Namespace) -> str:
    loc = Location(args.lat)
    if (args.day is None) == (args.month is None):
        raise UsageError("exactly one of --day or --month is required")
    if args.simplified and args.month is not None:
        raise UsageError("--simplified applies only to --day")
    if args.day is not None and args.mode is not None:
        raise UsageError("--mode applies only to --month")
    if args.day is not None:
        value, clamped = daily_tilt_details(loc, args.day, simplified=args.simplified)
        columns, row = TILT_DAY_COLUMNS, ("daily", args.day, value, clamped)
    else:
        mode = TiltMode(args.mode or TiltMode.PAPER)
        value = monthly_schedule(loc, mode).beta_for_month(args.month)
        columns, row = TILT_MONTH_COLUMNS, ("monthly", args.month, mode.value, value)
    if args.format == "text":
        return fmt_angle(value) + "\n"
    return _one_row(args, "tilt", columns, row)


def _cmd_schedule(args: argparse.Namespace) -> str:
    table = schedule_table(Location(args.lat), args.granularity, TiltMode(args.mode))
    seasonal = table.granularity == "seasonal"
    rounded = [round_half_up(value) for _, value in table.rows]
    if args.format == "csv":
        label = ("season" if seasonal else "month", None, "")
        if seasonal and table.mode is TiltMode.PAPER:
            # the paper quotes its seasonal table in whole degrees
            rows = [(name, r) for (name, _), r in zip(table.rows, rounded)]
            return render_csv((label, ("tilt_deg", None, "d")), rows)
        return render_csv((label, TILT), table.rows)
    rows = json_rows((("period", None, ""), TILT), table.rows)
    extra = {"rounded_deg": rounded} if seasonal else {}
    return _json(args, "schedule", {"mode": table.mode.value, "granularity": table.granularity,
                                    "rows": rows, **extra,
                                    "metadata": _clean_metadata(table.metadata)})


def _cmd_optimize(args: argparse.Namespace) -> str:
    # imported here, not at the top, so tilt, schedule, sun and chart never load numpy
    from .insolation import IrradianceModel, optimize_fixed_tilt

    model = IrradianceModel(time_step_minutes=args.step)
    period = (args.start_day, args.end_day)
    result = optimize_fixed_tilt(Location(args.lat), period, model)
    return _one_row(args, "optimum", OPTIMUM_COLUMNS, (*period, args.step, *result))


def _cmd_gains(args: argparse.Namespace) -> str:
    from .insolation import IrradianceModel, gain_report

    model = IrradianceModel(time_step_minutes=args.step)
    report = gain_report(Location(args.lat), model, TiltMode(args.mode))
    rows = [(e.policy, e.energy_wh_m2, e.gain_percent)
            for e in (report.baseline, *report.policies)]
    if args.format == "csv":
        return render_csv(GAIN_COLUMNS, rows)
    baseline, *policies = json_rows(GAIN_COLUMNS, rows)
    return _json(args, "gains", {"mode": report.mode.value, "step_minutes": args.step,
                                 "baseline": baseline, "policies": policies})


def _parse_days(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"--days must be a comma-separated list of integers, got {text!r}"
        ) from None


def _cmd_chart(args: argparse.Namespace) -> str:
    loc = Location(args.lat)
    if args.kind == "sunpath":
        step = 1.0 if args.step is None else args.step
        days = DEFAULT_CHART_DAYS if args.days is None else _parse_days(args.days)
        series = sunpath_chart(loc, days, step, include_azimuth=args.azimuth)
        title, x_label, head = "Sun path", "solar hour", {"step_minutes": step}
    elif args.days is not None or args.azimuth:
        raise UsageError("--days and --azimuth apply only to --kind sunpath")
    elif args.step is not None:
        raise UsageError("--step applies only to --kind sunpath")
    else:
        series, title, x_label, head = [tilt_curve(loc)], "Daily tilt", "day of year", {}
    if args.format == "csv":
        rows = [(s.name, x, y) for s in series for x, y in zip(s.x, s.y)]
        return render_csv(CHART_COLUMNS, rows)
    if args.format == "svg":
        return render_svg(series, title, x_label, "degrees")
    _, x_column, y_column = CHART_COLUMNS
    printed = [
        {"name": s.name, "x": json_column(x_column, s.x), "y": json_column(y_column, s.y),
         "metadata": _clean_metadata(s.metadata)}
        for s in series
    ]
    return _json(args, "chart", {"chart": args.kind, **head, "series": printed})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heliotilt",
        description="Solar angles and panel tilt schedules from closed-form geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_command(name: str, help_text: str, handler,
                    formats=("json", "csv")) -> argparse.ArgumentParser:
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
            metavar="PATH",
            help="write to this file instead of stdout",
        )
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(handler=handler)
        return p

    def add_step(p: argparse.ArgumentParser, kind: str, default: float | None = 1.0) -> None:
        p.add_argument("--step", type=float, default=default,
                       help=f"{kind} step, 0.1 to 120 minutes (default 1)")

    def add_mode(p: argparse.ArgumentParser, default: str | None = TiltMode.PAPER.value) -> None:
        p.add_argument("--mode", choices=[m.value for m in TiltMode], default=default)

    sun = add_command("sun", "sun positions through one day", _cmd_sun)
    sun.add_argument("--day", type=int, required=True, help=f"day of year, 1 to {DAYS_PER_YEAR}")
    add_step(sun, "sample")

    tilt = add_command("tilt", "tilt for one day or one month", _cmd_tilt, ("text", "json", "csv"))
    tilt.add_argument("--day", type=int, help="day of year for the daily rule")
    tilt.add_argument("--month", type=int, help="month number for the monthly table")
    add_mode(tilt, default=None)
    tilt.add_argument(
        "--simplified",
        action="store_true",
        help="use the simplified declination in the daily rule",
    )

    schedule = add_command("schedule", "monthly or seasonal tilt table", _cmd_schedule)
    schedule.add_argument("--granularity", choices=("monthly", "seasonal"), default="monthly")
    add_mode(schedule)

    optimize = add_command(
        "optimize", "best fixed tilt over a day range", _cmd_optimize
    )
    optimize.add_argument("--start-day", type=int, default=1, help="first day (default 1)")
    optimize.add_argument("--end-day", type=int, default=DAYS_PER_YEAR,
                          help="last day (default %(default)s)")
    add_step(optimize, "integration")

    gains = add_command(
        "gains", "annual energy of each policy against the fixed baseline", _cmd_gains
    )
    add_mode(gains)
    add_step(gains, "integration")

    chart = add_command("chart", "sun-path or tilt-curve chart data", _cmd_chart,
                        ("json", "csv", "svg"))
    chart.add_argument("--kind", choices=("sunpath", "tilt"), default="sunpath")
    chart.add_argument(
        "--days",
        metavar="D1,D2,...",
        help="days of year for the sun path (default: the 21st of each month)",
    )
    add_step(chart, "sample", default=None)
    chart.add_argument(
        "--azimuth", action="store_true", help="add compass-azimuth series"
    )

    return parser


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "wb") as f:
            f.write(text.encode("utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _write(text, args.out)
    except OSError as exc:
        target = "stdout" if args.out is None else args.out  # --out "" names no file, not stdout
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
