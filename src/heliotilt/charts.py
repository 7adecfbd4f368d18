"""Chart series, schedule tables, and the CSV/JSON/SVG renderers.

JSON and CSV share one output layer: a caller states each printed field
once as a Column, and json_rows/json_column and render_csv print rows
from it. Everything here is deterministic: the same inputs produce the
same bytes, angles are always printed with exactly two decimals, CSV
uses LF line endings with a header row, and the SVG is hand-rolled with
no external assets so files can be diffed byte for byte.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import (
    Location,
    _angles,
    _check_day,
    _check_step,
    _declination,
    _up_south,
    compass_azimuth,
)
from .schedule import (
    MONTH_NAMES,
    SEASON_NAMES,
    TiltMode,
    _CUM_DAYS,
    _DAYS,
    _daily_year,
    _seasonal,
    monthly_schedule,
)

# A printed field: (name, digits, csv format). JSON prints
# round(v, digits) + 0.0 (digits None: v as it is); CSV prints that number
# through format(); a csv format of None keeps the field out of CSV.
Column = tuple[str, "int | None", "str | None"]

DEFAULT_CHART_DAYS = tuple(before + 21 for before in _CUM_DAYS)  # the 21st of each month
_CSV_SPECIAL = (",", '"', "\n", "\r")

_OFFSET_NOTES = {
    TiltMode.PAPER: (
        "as-published offsets: July is latitude -24.45 deg rather than the "
        "symmetric -23.45, so the minimum tilt sits 1 deg below exact mode"
    ),
    TiltMode.EXACT: (
        "symmetric offsets: tilts interpolate linearly between latitude "
        "+23.45 and latitude -23.45 deg"
    ),
}


class _ChartSeries(NamedTuple):
    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    metadata: dict


class ChartSeries(_ChartSeries):
    """One named polyline: paired finite x/y samples with strictly increasing x.

    metadata defaults to a new empty dict for each series.
    """

    __slots__ = ()

    def __new__(cls, name: str, x: tuple, y: tuple, metadata: dict | None = None) -> ChartSeries:
        if len(x) != len(y):
            raise ValueError(
                f"series {name!r}: x and y lengths differ ({len(x)} vs {len(y)})"
            )
        if any(not a < b for a, b in zip(x, x[1:])):  # NaN fails a < b too
            raise ValueError(f"series {name!r}: x must be strictly increasing")
        if not all(map(math.isfinite, (*x[:1], *x[-1:], *y))):  # x: its ends suffice
            raise ValueError(f"series {name!r}: x and y must be finite")
        return super().__new__(cls, name, x, y, {} if metadata is None else metadata)

    @classmethod
    def _make(cls, iterable) -> ChartSeries:  # so _replace checks too
        return cls(*iterable)


def sunpath_chart(
    loc: Location,
    days: tuple[int, ...] = DEFAULT_CHART_DAYS,
    step_minutes: float = 1.0,
    include_azimuth: bool = False,
) -> list[ChartSeries]:
    """Sun elevation through the day for each requested day of the year.

    Defaults to the 21st of every month. Each series samples solar time
    symmetrically around noon at the given step and keeps only
    above-horizon points: the first sample at or just after sunrise, the
    last at or just before sunset, and the peak exactly at hour 12.
    With include_azimuth, a companion compass-azimuth series follows
    each elevation series. Polar-night days come back empty. Each day
    may appear once, which bounds a chart at 365 days.
    """
    days = tuple(_check_day(d) for d in days)
    if not days:
        raise ValueError("at least one day is required for a sun-path chart")
    if len(set(days)) < len(days):
        repeated = next(d for i, d in enumerate(days) if d in days[:i])
        raise ValueError(f"day {repeated} appears more than once in the sun-path days")
    _check_step(step_minutes)
    out: list[ChartSeries] = []
    half = int(math.floor(12.0 * 60.0 / step_minutes))
    offsets = [k * (step_minutes / 60.0) for k in range(-half, half + 1)]
    # not sun_position: at steps such as 7.2 min the last hour angle rounds
    # to 180.00000000000003, which its range check rejects
    omegas = [math.radians(h * 15.0) for h in offsets]
    samples = [(12.0 + h, math.cos(w), math.sin(w)) for h, w in zip(offsets, omegas)]
    phi = math.radians(loc.latitude_deg)
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    for day in days:
        delta = math.radians(_declination(day))
        sin_d, cos_d = math.sin(delta), math.cos(delta)
        xs, elev, az = [], [], []
        for hour, cos_w, sin_w in samples:
            up, south = _up_south(sin_phi, cos_phi, sin_d, cos_d, cos_w)
            if up >= 0.0:  # elevation >= 0, as asin keeps the sign
                e, a = _angles(up, south, cos_d * sin_w)
                xs.append(hour)
                elev.append(e)
                az.append(a)
        xs = tuple(xs)
        base = {"day": day, "latitude_deg": loc.latitude_deg, "units": "degrees"}
        parts = [("", "elevation", elev)]
        if include_azimuth:
            parts.append(("_az", "compass_azimuth", map(compass_azimuth, az)))
        out += [ChartSeries(f"day_{day:03d}{suffix}", xs, tuple(ys), {**base, "kind": kind})
                for suffix, kind, ys in parts]
    return out


def tilt_curve(loc: Location) -> ChartSeries:
    """Daily-rule tilt across the whole year as one series (x = day of year)."""
    values, clamped_days = _daily_year(loc)
    return ChartSeries(
        name="daily_tilt",
        x=tuple(map(float, _DAYS)),
        y=tuple(values),
        metadata={
            "latitude_deg": loc.latitude_deg,
            "units": "degrees",
            "kind": "daily_tilt",
            "min_deg": min(values),
            "max_deg": max(values),
            "clamped_days": clamped_days,
        },
    )


def sun_day_rows(
    loc: Location, day: int, step_minutes: float = 1.0
) -> list[tuple[float, float, float, float]]:
    """Above-horizon (solar_hour, elevation, azimuth, compass_azimuth) rows.

    Azimuth is the signed south-referenced angle; the compass column is
    the 0-360 bearing from north.
    """
    series = sunpath_chart(loc, (day,), step_minutes, include_azimuth=True)
    elev_series, az_series = series
    # compass = (signed + 180) mod 360 with compass in [0, 360), so the
    # signed column is compass - 180, in [-180, 180): a due-north sun reads
    # -180 here where sun_position says +180
    return [
        (h, e, ca - 180.0, ca)
        for h, e, ca in zip(elev_series.x, elev_series.y, az_series.y)
    ]


class _ScheduleTable(NamedTuple):
    granularity: str
    mode: TiltMode
    rows: tuple[tuple[str, float], ...]
    metadata: dict


class ScheduleTable(_ScheduleTable):
    """Labeled tilt rows (months or seasons) plus summary metadata, latitude included.

    metadata defaults to a new empty dict for each table.
    """

    __slots__ = ()

    def __new__(cls, granularity: str, mode: TiltMode, rows: tuple,
                metadata: dict | None = None) -> ScheduleTable:
        return super().__new__(cls, granularity, mode, rows, {} if metadata is None else metadata)


def schedule_table(
    loc: Location, granularity: str = "monthly", mode: TiltMode = TiltMode.PAPER
) -> ScheduleTable:
    """Monthly or seasonal tilt table for a site.

    Metadata carries the schedule's tilt extremes and a note on the
    offset basis, including the 1 deg paper-vs-exact minimum difference.
    """
    mode = TiltMode(mode)
    if granularity not in ("monthly", "seasonal"):
        raise ValueError(f"granularity must be 'monthly' or 'seasonal', got {granularity!r}")
    monthly = monthly_schedule(loc, mode)
    if granularity == "monthly":
        rows = tuple(zip(MONTH_NAMES, monthly.betas_deg))
    else:
        rows = tuple(zip(SEASON_NAMES, _seasonal(monthly).betas_deg))
    return ScheduleTable(
        granularity=granularity,
        mode=mode,
        rows=rows,
        metadata={
            "latitude_deg": loc.latitude_deg,
            "mode": mode.value,
            "tilt_min_deg": min(monthly.betas_deg),
            "tilt_max_deg": max(monthly.betas_deg),
            "offset_note": _OFFSET_NOTES[mode],
        },
    )


def angle(name: str) -> Column:
    """The column of an angle: two decimals in JSON and in CSV."""
    return (name, 2, ".2f")


def fmt_angle(value: float) -> str:
    """An angle with exactly two decimals; negative zero normalized away."""
    return _csv_cells(angle(""), (value,))[0]


def json_column(column: Column, values) -> list:
    """A column's values as JSON numbers: rounded to its digits, no -0.0."""
    digits = column[1]
    if digits is None:
        return list(values)
    return [round(v, digits) + 0.0 for v in values]


def _csv_cells(column: Column, values) -> list[str]:
    _, digits, fmt = column
    if fmt != f".{digits}f":
        return [format(v, fmt) for v in json_column(column, values)]
    # format() rounds the way round() does, so only its negative zero needs mending
    negative_zero = format(-0.0, fmt)
    cells = [format(v, fmt) for v in values]
    return [cell[1:] if cell == negative_zero else cell for cell in cells]


def json_rows(columns: tuple[Column, ...], rows) -> list[dict]:
    """Each row as a JSON object keyed by the column names, in column order."""
    names = [name for name, _, _ in columns]
    values = [json_column(c, col) for c, col in zip(columns, zip(*rows))]
    return [dict(zip(names, row)) for row in zip(*values)]


def _csv_quoted(cells: list[str]) -> list[str]:
    """RFC 4180: a cell holding a comma, a quote or a line break is wrapped in
    quotes, its own quotes doubled. One scan of the joined column finds none
    in every column the CLI prints."""
    joined = "".join(cells)
    if not any(ch in joined for ch in _CSV_SPECIAL):
        return cells
    return ['"' + c.replace('"', '""') + '"' if any(ch in c for ch in _CSV_SPECIAL) else c
            for c in cells]


def render_csv(columns: tuple[Column, ...], rows) -> str:
    """A header and one LF-terminated line per row, skipping JSON-only columns.

    Cells are formatted and quoted a column at a time, which keeps long
    sun-path charts cheap.
    """
    shown = [c for c in columns if c[2] is not None]
    cells = [
        _csv_quoted(_csv_cells(c, col)) for c, col in zip(columns, zip(*rows)) if c[2] is not None
    ]
    lines = [",".join(_csv_quoted([name for name, _, _ in shown])), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    """Stable two-space-indented JSON with a trailing newline."""
    import json  # here, so csv, svg and text output never load it

    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)

_SVG_W, _SVG_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 40, 50


def _svg_text(text: str) -> str:
    """Text escaped for an SVG element: &, < and >."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds(values: list[float]) -> tuple[float, float]:
    """An axis's (lo, hi): (0, 1) when empty, one unit wide when flat (|lo| wide
    where a unit is lost to rounding). A span the canvas overflows is a ValueError."""
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if hi <= lo:
        hi = lo + 1.0 if lo + 1.0 > lo else lo + abs(lo)
    if not math.isfinite(_SVG_W * (hi - lo)):
        raise ValueError(f"cannot draw an axis from {lo:g} to {hi:g}: the span overflows")
    return lo, hi


def _ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Five evenly spaced ticks and their labels: three decimals or, where that
    repeats a label, as many significant digits as tell the ticks apart (a narrow
    axis, or one far from zero). Ticks that are not five distinct floats keep
    three decimals."""
    ticks = [lo + (hi - lo) * i / 4 for i in range(5)]
    labels = [f"{round(t, 3):g}" for t in ticks]
    digits = 6
    while len(set(labels)) < len(labels) == len(set(ticks)):  # .17g tells floats apart
        labels = [f"{t:.{digits}g}" for t in ticks]
        digits += 1
    return list(zip(ticks, labels))


def _line(x1, y1, x2, y2) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>'


def _text(x, y, size, text: str, anchor: str = "middle", extra: str = "") -> str:
    """A sans-serif <text>, escaped. Callers pass each coordinate formatted."""
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{_svg_text(text)}</text>')


def render_svg(
    series_list: list[ChartSeries],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Minimal self-contained SVG line chart (fixed 800x500 canvas)."""
    x_lo, x_hi = _bounds([x for s in series_list for x in s.x])
    y_lo, y_hi = _bounds([y for s in series_list for y in s.y])
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B
    base = _SVG_H - _MARGIN_B  # the x axis
    mid_y = f"{_MARGIN_T + plot_h / 2:.2f}"

    def px(x: float) -> float:
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        _text(f"{_SVG_W / 2:.2f}", 24, 16, title),
        _line(_MARGIN_L, _MARGIN_T, _MARGIN_L, base)
        + _line(_MARGIN_L, base, _SVG_W - _MARGIN_R, base),
    ]
    for tick, label in _ticks(x_lo, x_hi):
        x = f"{px(tick):.2f}"
        out.append(_line(x, base, x, base + 5) + _text(x, base + 18, 11, label))
    for tick, label in _ticks(y_lo, y_hi):
        y = py(tick)
        out.append(_line(_MARGIN_L - 5, f"{y:.2f}", _MARGIN_L, f"{y:.2f}")
                   + _text(_MARGIN_L - 8, f"{y + 4:.2f}", 11, label, "end"))
    out.append(_text(f"{_MARGIN_L + plot_w / 2:.2f}", _SVG_H - 12, 13, x_label))
    out.append(_text(16, mid_y, 13, y_label, extra=f' transform="rotate(-90 16 {mid_y})"'))
    for i, series in enumerate(series_list):
        if len(series.x) < 2:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(series.x, series.y))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"><title>{_svg_text(series.name)}</title></polyline>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
