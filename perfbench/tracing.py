"""Spans around heliotilt's layer functions, recorded from outside src/.

Tracer.install() swaps each named function for a timing wrapper in every
heliotilt module that binds it, so internal calls are seen too, and
Tracer.uninstall() puts the originals back. A function a later version
no longer has is skipped; its metrics then read 0 and are listed in
`absent`. Spans stay in memory until write() is called.
"""
from __future__ import annotations

import contextlib
import csv
import gzip
import statistics
import sys
import time

import numpy as np

# (span name, module, attribute, count function of (args, kwargs, result))
TARGETS = (
    ("geometry.sun_position", "heliotilt.geometry", "sun_position", None),
    ("geometry.elevation_azimuth", "heliotilt.geometry", "_elevation_azimuth",
     lambda a, k, r: int(np.size(a[2] if len(a) > 2 else k["omega_deg"]))),
    ("schedule.tilt_for_day", "heliotilt.schedule", "TiltPolicy.tilt_for_day", None),
    ("schedule.daily_tilt", "heliotilt.schedule", "daily_tilt", None),
    ("insolation.incidence_cosine", "heliotilt.insolation", "incidence_cosine", None),
    ("insolation.day_profile", "heliotilt.insolation", "_day_profile",
     lambda a, k, r: int(r.hours.size)),
    ("insolation.kernel", "heliotilt.insolation", "_profile_energies",
     lambda a, k, r: int(a[0].hours.size) * len(a[1])),
    ("insolation.daily", "heliotilt.insolation", "daily_insolation", None),
    ("insolation.annual", "heliotilt.insolation", "annual_insolation", None),
    ("insolation.optimizer", "heliotilt.insolation", "optimize_fixed_tilt", None),
    ("insolation.gain_report", "heliotilt.insolation", "gain_report", None),
    ("charts.series", "heliotilt.charts", "sunpath_chart", None),
    ("charts.series", "heliotilt.charts", "tilt_curve", None),
    ("charts.series", "heliotilt.charts", "sun_day_rows", None),
    ("charts.series", "heliotilt.charts", "schedule_table", None),
    ("charts.render_json", "heliotilt.charts", "render_json", None),
    ("charts.render_svg", "heliotilt.charts", "render_svg", None),
    ("charts.csv", "heliotilt.charts", "chart_csv", None),
    ("charts.csv", "heliotilt.charts", "sun_csv", None),
    ("charts.csv", "heliotilt.charts", "schedule_csv", None),
    ("cli.handler", "heliotilt.cli", "_cmd_sun", None),
    ("cli.handler", "heliotilt.cli", "_cmd_tilt", None),
    ("cli.handler", "heliotilt.cli", "_cmd_schedule", None),
    ("cli.handler", "heliotilt.cli", "_cmd_chart", None),
    ("cli.write", "heliotilt.cli", "_write", None),
)

# Span fields, kept as plain lists: name, start, end, parent index, op id, count.
NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = -1
        self.profile_keys = []   # (lat, day, step) of each day profile built
        self.absent = []
        self.enabled = True
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count, is_profile):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            if is_profile:
                self.profile_keys.append((args[0], args[1], args[2].time_step_minutes))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "heliotilt" or n.startswith("heliotilt."))]
        for name, module_name, attr, count in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, count, fn_name == "_day_profile")
            holders = [owner] if cls_name else [
                m for m in modules if any(v is original for v in vars(m).values())
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def write(self, path):
        """All spans as gzipped CSV, times in ns from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_ns", "end_ns", "parent", "op", "count"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[NAME], round((s[START] - t0) * 1e9),
                            round((s[END] - t0) * 1e9), s[PARENT], s[OP], s[COUNT]])

    # ------------------------------------------------------------ metrics

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, ops):
        """Per-layer metrics; totals are per operation (site, query or invocation)."""
        ops = max(1, ops)
        own = self.self_times()
        by_name = {}
        for i, s in enumerate(self.spans):
            by_name.setdefault(s[NAME], []).append(i)

        def total_self(name):
            return sum(own[i] for i in by_name.get(name, ())) / ops

        def calls(name):
            return len(by_name.get(name, ())) / ops

        def counted(name):
            return sum(self.spans[i][COUNT] for i in by_name.get(name, ())) / ops

        def median_inclusive(name, scale):
            d = [self.spans[i][END] - self.spans[i][START] for i in by_name.get(name, ())]
            return statistics.median(d) * scale if d else 0.0

        def under(root, name):
            """Sum of `name` span counts below spans called `root`."""
            roots = set(by_name.get(root, ()))
            total = 0
            for i in by_name.get(name, ()):
                p = self.spans[i][PARENT]
                while p >= 0 and p not in roots:
                    p = self.spans[p][PARENT]
                if p >= 0:
                    total += self.spans[i][COUNT]
            return total

        kernel_self = sum(own[i] for i in by_name.get("insolation.kernel", ()))
        kernel_cells = sum(self.spans[i][COUNT] for i in by_name.get("insolation.kernel", ()))
        optimizer_points = under("insolation.optimizer", "geometry.elevation_azimuth")
        built = len(self.profile_keys)
        return {
            "geometry.sun_position.us_per_call": median_inclusive("geometry.sun_position", 1e6),
            "geometry.elevation_azimuth.points": counted("geometry.elevation_azimuth"),
            "geometry.elevation_azimuth.self_s": total_self("geometry.elevation_azimuth"),
            "schedule.tilt_for_day.calls": calls("schedule.tilt_for_day"),
            "schedule.tilt_for_day.self_s": total_self("schedule.tilt_for_day"),
            "insolation.day_profile.calls": calls("insolation.day_profile"),
            "insolation.day_profile.points": counted("insolation.day_profile"),
            "insolation.day_profile.self_s": total_self("insolation.day_profile"),
            "insolation.day_profile.reuse": len(set(self.profile_keys)) / built if built else 0.0,
            "insolation.kernel.calls": calls("insolation.kernel"),
            "insolation.kernel.cells": counted("insolation.kernel"),
            "insolation.kernel.self_s": total_self("insolation.kernel"),
            "insolation.kernel.ns_per_cell": kernel_self * 1e9 / kernel_cells if kernel_cells else 0.0,
            "insolation.optimizer.tilts_per_call": (
                under("insolation.optimizer", "insolation.kernel") / optimizer_points
                if optimizer_points else 0.0
            ),
            "insolation.optimizer.self_s": total_self("insolation.optimizer"),
            "insolation.annual.self_s": total_self("insolation.annual"),
            "insolation.daily.us_per_call": median_inclusive("insolation.daily", 1e6),
            "charts.series.self_s": total_self("charts.series"),
            "charts.render_json.self_s": total_self("charts.render_json"),
            "charts.render_svg.self_s": total_self("charts.render_svg"),
            "charts.csv.self_s": total_self("charts.csv"),
            "cli.handler_ms": median_inclusive("cli.handler", 1e3),
            "cli.write_ms": median_inclusive("cli.write", 1e3),
        }
