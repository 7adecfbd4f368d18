"""Seeded workloads for the heliotilt benchmark: inputs, timed loops, checks.

Each workload is a closed loop with one caller that waits for every
result before it issues the next operation. Inputs come from the seed
alone; each output is checked right after its operation, outside the
measured time, against independent closed-form evaluations or against
references recorded in refs/.

Callers must put the repository's src/ on sys.path before importing this
module, as run.py does.
"""
from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import heliotilt as ht
import heliotilt.cli as ht_cli

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

# The model constants the independent oracles below are written from.
EARTH_TILT_DEG = 23.45
EQUINOX_DAY = 81
SOLAR_CONSTANT = 1353.0
TRANSMITTANCE = 0.7
AIR_MASS_EXPONENT = 0.678
ZENITH_CAP_DEG = 89.0
STEP_MINUTES = 1.0
ARCTIC_CIRCLE_DEG = 66.55

# Site latitudes are tenths of a degree, so gain references exist for each.
LAT_TENTHS_MAX = 720
SITE_BANDS = (
    ("tropical", 1, 234),    # 0.1-23.4: daily tilts clamp flat in summer
    ("mid", 235, 500),       # 23.5-50.0
    ("high", 501, 665),      # 50.1-66.5
    ("arctic", 666, 720),    # 66.6-72.0: polar night and midnight sun
)
SUB_YEAR_DAYS = 91  # a season: cost stays alike from seed to seed

CLI_TEMPLATES = (
    "tilt_day", "tilt_month", "schedule_monthly", "schedule_seasonal",
    "sun", "sun", "chart_sunpath", "chart_sunpath", "chart_tilt", "error",
)
CLI_POOL_SEED = 20200425
CLI_POOL_PER_TEMPLATE = 40

GAIN_ABS_PP = 0.05
ENERGY_REL = 1e-9
ANGLE_ABS = 1e-9
DAILY_REL = 1e-4
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def declination(day):
    return EARTH_TILT_DEG * math.sin(2.0 * math.pi * (day - EQUINOX_DAY) / 365.0)


def sunrise_deg(lat, decl):
    """Sunrise hour angle: 0 in polar night, 180 under the midnight sun."""
    x = -math.tan(math.radians(lat)) * math.tan(math.radians(decl))
    return 0.0 if x >= 1.0 else 180.0 if x <= -1.0 else math.degrees(math.acos(x))


def grid_points(omega_s):
    """Samples in one day's hour-angle grid at the default step."""
    if omega_s <= 0.0:
        return 0
    return max(1, math.ceil(2.0 * omega_s / (STEP_MINUTES / 4.0))) + 1


@dataclass
class RunLog:
    """What one timed loop did. Inputs are not kept: the seed regenerates them."""

    elapsed_s: float = 0.0
    start: array = field(default_factory=lambda: array("d"))      # perf_counter at op start
    latency_s: array = field(default_factory=lambda: array("d"))  # one per op
    failures: dict = field(default_factory=dict)                  # op index -> message


def run_loop(ops, seconds, run_op, check=None, idle=None):
    """Issue ops one at a time until `seconds` of measuring have passed.

    The op in flight when time runs out is finished and counted; the loop
    also ends when `ops` (an iterator) runs out. An op that raises, or
    whose output `check` finds wrong, is recorded as failed and the loop
    goes on. Drawing the next input, `check` and `idle` run outside the
    measured time.
    """
    log = RunLog()
    clock = time.perf_counter
    excluded = 0.0
    started = clock()
    while True:
        t = clock()
        op = next(ops, None)
        excluded += clock() - t
        if op is None:
            break
        t0 = clock()
        try:
            out, error = run_op(op), None
        except Exception as exc:  # an op failure is data, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        log.start.append(t0)
        log.latency_s.append(t1 - t0)
        if error is None and check is not None:
            error = "; ".join(check(op, out)) or None
        if error:
            log.failures[len(log.latency_s) - 1] = error
        if idle:
            idle()
        excluded += clock() - t1
        if clock() - started - excluded >= seconds:
            break
    log.elapsed_s = clock() - started - excluded
    return log


class SpeedProbe:
    """Tracks the machine's speed with fixed work that is not heliotilt's.

    On a shared 2-vCPU host the same work can take twice as long for tens
    of seconds at a time, for heliotilt and any other code alike. So the
    loop runs a probe between ops (outside the measured time) and each
    op's latency is rescaled by the probes nearest to it in time:
    at_reference(t, seconds) = seconds * REF / (probe time near t).

    kind "compute" times a few small numpy calls and a Python loop, the
    mix of a point query or a day profile; kind "spawn" times a bare
    `python -c pass`, the start-up every CLI invocation pays. REF is the
    probe's typical time on the 2-vCPU Xeon host the benchmark was
    written on, so rescaled figures stay near wall times there.
    """

    REF_S = {"compute": 120e-6, "spawn": 80e-3}
    _X = np.linspace(0.0, 1.0, 720)

    def __init__(self, kind, every_s=0.0, env=None):
        self.kind = kind
        self.every_s = every_s
        self.env = env
        self.times = []    # when each probe ran (perf_counter)
        self.seconds = []  # how long it took
        self._last = -math.inf

    def _compute(self):
        for _ in range(8):
            np.sin(self._X).sum()
            math.atan2(0.3, 0.4)
            sum(i * i for i in range(30))

    def probe(self):
        t = time.perf_counter()
        if self.kind == "spawn":
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60)
            took = time.perf_counter() - t
        else:
            took = []
            for _ in range(3):
                t0 = time.perf_counter()
                self._compute()
                took.append(time.perf_counter() - t0)
            took = statistics.median(took)
        self.times.append(t)
        self.seconds.append(took)

    def __call__(self):
        if time.perf_counter() - self._last >= self.every_s:
            self.probe()
            self._last = time.perf_counter()

    def at_reference(self, t, seconds):
        """`seconds` of work begun at perf_counter `t`, rescaled by the
        median of the three probes before t and the three after it."""
        i = bisect.bisect(self.times, t)
        near = self.seconds[max(0, i - 3):i + 3]
        return seconds * self.REF_S[self.kind] / statistics.median(near)


# --------------------------------------------------------------- site_survey


@dataclass(frozen=True)
class Site:
    lat_tenths: int
    period: tuple

    @property
    def lat(self):
        return self.lat_tenths / 10.0

    @property
    def band(self):
        return next(name for name, lo, hi in SITE_BANDS if lo <= self.lat_tenths <= hi)


SURVEY_CALLS = ("optimize", "paper", "exact")


def survey_sites(seed):
    """Endless seeded sites: each block of four holds one site per band,
    in seeded order, and one of the four, at a seeded place, optimizes a
    91-day range with a seeded start instead of the year."""
    rng = random.Random(f"site_survey:{seed}")
    while True:
        bands = list(SITE_BANDS)
        rng.shuffle(bands)
        sub = rng.randrange(len(bands))
        for j, (_, lo, hi) in enumerate(bands):
            period = (1, 365)
            if j == sub:
                start = rng.randint(1, 366 - SUB_YEAR_DAYS)
                period = (start, start + SUB_YEAR_DAYS - 1)
            yield Site(rng.randint(lo, hi), period)


def survey_calls(seed):
    """The library calls of each site in turn: optimize, paper gains, exact gains."""
    for site in survey_sites(seed):
        for call in SURVEY_CALLS:
            yield call, site


def survey_op(item):
    call, site = item
    loc = ht.Location(site.lat)
    if call == "optimize":
        return ht.optimize_fixed_tilt(loc, site.period)
    report = ht.gain_report(loc, mode=ht.TiltMode(call))
    return [p.gain_percent for p in report.policies]


def load_gain_refs():
    return json.loads((REFS / "gains.json").read_text())


def period_energy(loc, period, tilt):
    if period == (1, 365):
        return ht.annual_insolation(loc, ht.TiltPolicy.fixed(tilt)).energy_wh_m2
    return sum(
        ht.daily_insolation(loc, d, tilt).energy_wh_m2
        for d in range(period[0], period[1] + 1)
    )


def check_call(item, out, refs):
    """Failure messages for one site call's output (empty when correct)."""
    call, site = item
    if call != "optimize":
        want = refs[call][site.lat_tenths - 1]
        if len(out) != len(want) or any(abs(g - w) > GAIN_ABS_PP for g, w in zip(out, want)):
            return [f"{call} gains {out} != reference {want}"]
        return []
    tilt, energy = out
    loc = ht.Location(site.lat)
    bad = []
    probe = period_energy(loc, site.period, tilt)
    if not math.isclose(energy, probe, rel_tol=ENERGY_REL, abs_tol=0.0):
        bad.append(f"optimum energy {energy!r} != period energy {probe!r} at {tilt}")
    for other in (tilt - 0.05, tilt + 0.05):
        if 0.0 <= other <= 90.0:
            e = period_energy(loc, site.period, other)
            if e > energy * (1.0 + ENERGY_REL):
                bad.append(f"tilt {other:.2f} beats the optimum {tilt}: {e!r} > {energy!r}")
    return bad


def survey_summary(calls):
    sites = [site for call, site in calls if call == "optimize"]
    days = polar = midnight = clamped = 0
    points = []
    for site in sites:
        for d in range(site.period[0], site.period[1] + 1):
            decl = declination(d)
            omega_s = sunrise_deg(site.lat, decl)
            days += 1
            polar += omega_s == 0.0
            midnight += omega_s == 180.0
            clamped += not 0.0 <= site.lat - decl <= 90.0
            if omega_s > 0.0:
                points.append(grid_points(omega_s))
    return {
        "sites": len(sites),
        "bands": {name: sum(s.band == name for s in sites) for name, _, _ in SITE_BANDS},
        "sub_year_share": sum(s.period != (1, 365) for s in sites) / max(1, len(sites)),
        "optimize_days": days,
        "polar_night_day_share": polar / max(1, days),
        "midnight_sun_day_share": midnight / max(1, days),
        "clamped_daily_tilt_share": clamped / max(1, days),
        "grid_points_per_day": [min(points, default=0), max(points, default=0)],
    }


# ------------------------------------------------------------ point_queries


@dataclass(frozen=True)
class Query:
    lat: float
    day: int
    hour_angle: float
    tilt: float


def point_queries(seed):
    """Endless seeded one-off queries. Latitudes follow a golden-ratio
    sequence from a seeded start, so no two queries share a site, let
    alone a site-day; day, hour angle and tilt are uniform draws."""
    rng = random.Random(f"point_queries:{seed}")
    frac = rng.random()
    while True:
        frac = (frac + GOLDEN) % 1.0
        lat = 0.05 + 89.9 * frac
        yield Query(lat, rng.randint(1, 365), rng.uniform(-180.0, 180.0), rng.uniform(0.0, 90.0))


def query_op(q):
    loc = ht.Location(q.lat)
    sun = ht.sun_position(loc, q.day, q.hour_angle)
    cos_i = ht.incidence_cosine(loc, q.day, q.hour_angle, q.tilt)
    tilt = ht.daily_tilt(loc, q.day)
    energy = ht.daily_insolation(loc, q.day, q.tilt).energy_wh_m2
    return sun.elevation_deg, sun.azimuth_deg, cos_i, tilt, energy


def oracle_sun(lat, day, hour_angle):
    """Elevation and south-referenced azimuth from the horizon-frame vector."""
    phi, delta, omega = map(math.radians, (lat, declination(day), hour_angle))
    up = math.sin(phi) * math.sin(delta) + math.cos(phi) * math.cos(delta) * math.cos(omega)
    west = math.cos(delta) * math.sin(omega)
    south = math.sin(phi) * math.cos(delta) * math.cos(omega) - math.cos(phi) * math.sin(delta)
    elevation = math.degrees(math.atan2(up, math.hypot(west, south)))
    return elevation, math.degrees(math.atan2(west, south))


def oracle_incidence(lat, day, hour_angle, tilt):
    """cos(theta) for a south-facing plane: the plane sees latitude - tilt."""
    d, w, s = map(math.radians, (declination(day), hour_angle, lat - tilt))
    return math.sin(s) * math.sin(d) + math.cos(s) * math.cos(d) * math.cos(w)


def oracle_daily_bounds(lat, day, tilt):
    """Daily Wh/m^2 by the documented rule, as a (low, high) pair.

    Trapezoid over sunrise..sunset at the default step, written from the
    model constants. The two grid ends sit exactly on the horizon, where
    rounding decides whether the capped-zenith irradiance counts, so low
    leaves both ends out and high puts both in.
    """
    decl = declination(day)
    omega_s = sunrise_deg(lat, decl)
    if omega_s <= 0.0:
        return 0.0, 0.0
    n = grid_points(omega_s) - 1
    omega = np.radians(np.linspace(-omega_s, omega_s, n + 1))
    phi, delta, s = math.radians(lat), math.radians(decl), math.radians(lat - tilt)
    sin_elev = math.sin(phi) * math.sin(delta) + math.cos(phi) * math.cos(delta) * np.cos(omega)
    zenith = np.minimum(np.degrees(np.arccos(np.clip(sin_elev, -1.0, 1.0))), ZENITH_CAP_DEG)
    dni = SOLAR_CONSTANT * TRANSMITTANCE ** ((1.0 / np.cos(np.radians(zenith))) ** AIR_MASS_EXPONENT)
    cos_i = np.maximum(math.sin(s) * math.sin(delta) + math.cos(s) * math.cos(delta) * np.cos(omega), 0.0)
    power = dni * cos_i
    edge = power[[0, -1]].copy()
    power[[0, -1]] = 0.0
    power[1:-1] *= sin_elev[1:-1] > 0.0
    dh = np.diff(omega) * (12.0 / math.pi)  # radians of hour angle to hours
    low = float(np.sum(0.5 * (power[1:] + power[:-1]) * dh))
    high = low + 0.5 * float(edge[0] * dh[0] + edge[-1] * dh[-1]) if n >= 1 else low
    return low, high


def check_query(q, out):
    elev, az, cos_i, tilt, energy = out
    bad = []
    want_elev, want_az = oracle_sun(q.lat, q.day, q.hour_angle)
    if abs(elev - want_elev) > ANGLE_ABS:
        bad.append(f"elevation {elev!r} != {want_elev!r}")
    if abs((az - want_az + 180.0) % 360.0 - 180.0) > ANGLE_ABS:
        bad.append(f"azimuth {az!r} != {want_az!r}")
    want_cos = oracle_incidence(q.lat, q.day, q.hour_angle, q.tilt)
    if abs(cos_i - want_cos) > ANGLE_ABS:
        bad.append(f"incidence cosine {cos_i!r} != {want_cos!r}")
    want_tilt = min(max(q.lat - declination(q.day), 0.0), 90.0)
    if abs(tilt - want_tilt) > ANGLE_ABS:
        bad.append(f"daily tilt {tilt!r} != {want_tilt!r}")
    low, high = oracle_daily_bounds(q.lat, q.day, q.tilt)
    if not low * (1.0 - DAILY_REL) <= energy <= high * (1.0 + DAILY_REL):
        bad.append(f"daily energy {energy!r} outside [{low!r}, {high!r}] +- {DAILY_REL}")
    return bad


def query_summary(queries):
    n = max(1, len(queries))
    polar = midnight = clamped = 0
    points = []
    for q in queries:
        decl = declination(q.day)
        omega_s = sunrise_deg(q.lat, decl)
        polar += omega_s == 0.0
        midnight += omega_s == 180.0
        clamped += not 0.0 <= q.lat - decl <= 90.0
        if omega_s > 0.0:
            points.append(grid_points(omega_s))
    bands = {
        "tropical": sum(q.lat <= EARTH_TILT_DEG for q in queries),
        "mid": sum(EARTH_TILT_DEG < q.lat <= 50.0 for q in queries),
        "high": sum(50.0 < q.lat < ARCTIC_CIRCLE_DEG for q in queries),
        "polar": sum(q.lat >= ARCTIC_CIRCLE_DEG for q in queries),
    }
    return {
        "queries": len(queries),
        "bands": bands,
        "polar_night_share": polar / n,
        "midnight_sun_share": midnight / n,
        "clamped_daily_tilt_share": clamped / n,
        "sun_below_horizon_share": sum(
            oracle_sun(q.lat, q.day, q.hour_angle)[0] <= 0.0 for q in queries
        ) / n,
        "grid_points_per_day": [min(points, default=0), max(points, default=0)],
    }


# ------------------------------------------------------------------ cli_mix


def cli_pool():
    """Fixed invocations per template; refs/cli.json records their outputs."""
    rng = random.Random(CLI_POOL_SEED)

    def lat(lo=1, hi=LAT_TENTHS_MAX):
        return f"{rng.randint(lo, hi) / 10.0:g}"

    def make(template):
        if template == "tilt_day":
            argv = ["tilt", "--lat", lat(), "--day", str(rng.randint(1, 365))]
            if rng.random() < 0.25:
                argv.append("--simplified")
            return argv + ["--format", rng.choice(("text", "json", "csv"))]
        if template == "tilt_month":
            return ["tilt", "--lat", lat(), "--month", str(rng.randint(1, 12)),
                    "--mode", rng.choice(("paper", "exact")),
                    "--format", rng.choice(("text", "json", "csv"))]
        if template.startswith("schedule_"):
            return ["schedule", "--lat", lat(), "--granularity", template[9:],
                    "--mode", rng.choice(("paper", "exact")),
                    "--format", rng.choice(("json", "csv"))]
        if template == "sun":
            return ["sun", "--lat", lat(-LAT_TENTHS_MAX), "--day", str(rng.randint(1, 365)),
                    "--step", rng.choice(("1", "2", "5", "10")),
                    "--format", rng.choice(("json", "csv"))]
        if template == "chart_sunpath":
            argv = ["chart", "--kind", "sunpath", "--lat", lat(-LAT_TENTHS_MAX),
                    "--step", rng.choice(("1", "5", "10"))]
            if rng.random() < 0.5:
                days = sorted(rng.sample(range(1, 366), rng.randint(1, 4)))
                argv += ["--days", ",".join(map(str, days))]
            if rng.random() < 0.3:
                argv.append("--azimuth")
            return argv + ["--format", rng.choice(("json", "csv", "svg"))]
        if template == "chart_tilt":
            return ["chart", "--kind", "tilt", "--lat", lat(),
                    "--format", rng.choice(("json", "csv", "svg"))]
        raise ValueError(template)

    return {
        t: [make(t) for _ in range(CLI_POOL_PER_TEMPLATE)]
        for t in dict.fromkeys(CLI_TEMPLATES) if t != "error"
    }


def cli_invocations(seed, pool):
    """Endless seeded invocations, in blocks of ten: one of each template in
    CLI_TEMPLATES, shuffled, so one in ten is a documented error."""
    rng = random.Random(f"cli_mix:{seed}")
    while True:
        block = list(CLI_TEMPLATES)
        rng.shuffle(block)
        for template in block:
            if template != "error":
                yield template, tuple(rng.choice(pool[template]))
            elif rng.random() < 0.5:  # southern site to a tilt schedule: exit 1
                yield "error_exit1", ("schedule", "--lat", f"-{rng.randint(1, LAT_TENTHS_MAX) / 10.0:g}")
            else:  # --day together with --month: exit 2
                yield "error_exit2", ("tilt", "--lat", f"{rng.randint(1, LAT_TENTHS_MAX) / 10.0:g}",
                                      "--day", str(rng.randint(1, 365)),
                                      "--month", str(rng.randint(1, 12)))


def output_format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def cli_main_in_process(argv):
    """(exit code, stdout bytes, stderr bytes) of heliotilt.cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ht_cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


class CliRunner:
    """Runs one invocation as a `python -m heliotilt.cli` child process."""

    def __init__(self, root, env):
        self.root = str(root)
        self.env = env

    def __call__(self, item):
        _, argv = item
        proc = subprocess.run(
            [sys.executable, "-m", "heliotilt.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr


def cli_op_in_process(item):
    return cli_main_in_process(item[1])


def load_cli_refs():
    return json.loads((REFS / "cli.json").read_text())


def load_schema(root):
    return json.loads((Path(root) / "src/heliotilt/schemas/output.schema.json").read_text())


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_cli(item, out, refs, validator):
    template, argv = item
    code, stdout, stderr = out
    bad = []
    if template.startswith("error_exit"):
        want = int(template[-1])
        lines = stderr.decode(errors="replace").splitlines()
        if code != want:
            bad.append(f"exit {code}, documented {want}")
        if len(lines) != 1 or not lines[0].strip():
            bad.append(f"stderr is not one line: {stderr[:200]!r}")
        if stdout:
            bad.append("error invocation wrote to stdout")
        return bad
    if code != 0:
        return [f"exit {code}: {stderr[:200]!r}"]
    if output_format(argv) == "json":
        try:
            payload = json.loads(stdout, parse_constant=_no_constant)
        except ValueError as exc:
            return [f"bad JSON: {exc}"]
        errors = sorted(validator.iter_errors(payload), key=str)
        if errors:
            bad.append(f"schema: {errors[0].message[:200]}")
    else:
        want = refs.get(" ".join(argv))
        got = hashlib.sha256(stdout).hexdigest()
        if got != want:
            bad.append(f"{output_format(argv)} bytes differ from the reference ({got} != {want})")
    return bad


def cli_summary(items):
    n = max(1, len(items))
    commands, formats = {}, {}
    for template, argv in items:
        commands[argv[0]] = commands.get(argv[0], 0) + 1
        if not template.startswith("error"):
            fmt = output_format(argv)
            formats[fmt] = formats.get(fmt, 0) + 1
    return {
        "invocations": len(items),
        "commands": commands,
        "formats": formats,
        "error_share": sum(t.startswith("error") for t, _ in items) / n,
        "southern_share": sum(float(a[a.index("--lat") + 1]) < 0 for _, a in items) / n,
    }
