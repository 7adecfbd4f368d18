"""Chart series, schedule tables, and the CSV/JSON/SVG renderers.

JSON and CSV share one output layer: a caller states each printed field
once as a Column, and json_rows/json_column and render_csv print rows
from it. Everything here is deterministic: the same inputs produce the
same bytes, angles are always printed with exactly two decimals, CSV
uses LF line endings with a header row, and the SVG is hand-rolled with
no external assets so files can be diffed byte for byte.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ChartSeries:
    """One named polyline: paired x/y samples with strictly increasing x."""

    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.name!r}: x and y lengths differ "
                f"({len(self.x)} vs {len(self.y)})"
            )
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError(f"series {self.name!r}: x must be strictly increasing")


def sunpath_chart(
    loc: Location,
    days: tuple[int, ...] = DEFAULT_CHART_DAYS,
    step_minutes: float = 1.0,
    include_azimuth: bool = False,
) -> list[ChartSeries]:
    """Sun elevation through the day for each requested day of the year.

    Defaults to the 21st of every month. Each series samples solar time
    symmetrically around noon at the given step and keeps only
    above-horizon points, so the first and last samples sit at (or just
    after) sunrise and sunset and the peak lands exactly at hour 12.
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
        out.append(
            ChartSeries(
                name=f"day_{day:03d}",
                x=xs,
                y=tuple(elev),
                metadata={**base, "kind": "elevation"},
            )
        )
        if include_azimuth:
            out.append(
                ChartSeries(
                    name=f"day_{day:03d}_az",
                    x=xs,
                    y=tuple(map(compass_azimuth, az)),
                    metadata={**base, "kind": "compass_azimuth"},
                )
            )
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


@dataclass(frozen=True)
class ScheduleTable:
    """Labeled tilt rows (months or seasons) plus summary metadata, latitude included."""

    granularity: str
    mode: TiltMode
    rows: tuple[tuple[str, float], ...]
    metadata: dict = field(default_factory=dict)


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
    fmt = column[2]
    return [format(v, fmt) for v in json_column(column, values)]


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


def _tick_values(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def render_svg(
    series_list: list[ChartSeries],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Minimal self-contained SVG line chart (fixed 800x500 canvas)."""
    xs = [x for s in series_list for x in s.x]
    ys = [y for s in series_list for y in s.y]
    x_lo, x_hi, y_lo, y_hi = (min(xs), max(xs), min(ys), max(ys)) if xs else (0.0, 1.0, 0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_svg_text(title)}</text>',
    ]
    axis = (
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_SVG_H - _MARGIN_B}" stroke="black"/>'
        f'<line x1="{_MARGIN_L}" y1="{_SVG_H - _MARGIN_B}" '
        f'x2="{_SVG_W - _MARGIN_R}" y2="{_SVG_H - _MARGIN_B}" stroke="black"/>'
    )
    out.append(axis)
    for tick in _tick_values(x_lo, x_hi):
        x = px(tick)
        out.append(
            f'<line x1="{x:.2f}" y1="{_SVG_H - _MARGIN_B}" x2="{x:.2f}" '
            f'y2="{_SVG_H - _MARGIN_B + 5}" stroke="black"/>'
            f'<text x="{x:.2f}" y="{_SVG_H - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{round(tick, 3):g}</text>'
        )
    for tick in _tick_values(y_lo, y_hi):
        y = py(tick)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
            f'y2="{y:.2f}" stroke="black"/>'
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{round(tick, 3):g}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_SVG_H - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">{_svg_text(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})">{_svg_text(y_label)}</text>'
    )
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
