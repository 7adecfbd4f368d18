"""The package namespace: the public names, where each comes from, lazy loading,
and the records those names include."""
import importlib

import pytest

import heliotilt

# Every public name, grouped by the module that defines it, in __all__ order
PUBLIC = {
    "geometry": (
        "DAYS_PER_YEAR", "EARTH_TILT_DEG", "EQUINOX_DAY", "STRICT_LATITUDE_LIMIT_DEG",
        "Location", "SolarAngles", "compass_azimuth", "declination_exact",
        "declination_simplified", "noon_elevation", "noon_elevation_folded", "noon_zenith",
        "sun_position", "sunrise_hour_angle",
    ),
    "schedule": (
        "EXACT_OFFSETS_DEG", "MONTH_NAMES", "PAPER_OFFSETS_DEG", "SEASON_NAMES",
        "MonthlySchedule", "SeasonalSchedule", "TiltMode", "TiltPolicy", "TiltValue",
        "UnsupportedHemisphereError", "daily_tilt", "daily_tilt_details", "month_of_day",
        "monthly_schedule", "offsets_for", "season_of_day", "seasonal_schedule",
        "tilt_extremes",
    ),
    "insolation": (
        "GainReport", "InsolationResult", "IrradianceModel", "OptimalTilt", "PolicyGain",
        "annual_insolation", "daily_insolation", "gain_report", "incidence_cosine",
        "optimize_fixed_tilt",
    ),
    "charts": (
        "ChartSeries", "DEFAULT_CHART_DAYS", "ScheduleTable", "schedule_table",
        "sun_day_rows", "sunpath_chart", "tilt_curve",
    ),
}
DEFINED_IN = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_is_the_frozen_list():
    assert heliotilt.__all__ == [*DEFINED_IN, "__version__"]


@pytest.mark.parametrize("name", sorted(DEFINED_IN))
def test_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"heliotilt.{DEFINED_IN[name]}")
    assert getattr(heliotilt, name) is getattr(module, name)
    assert vars(heliotilt)[name] is getattr(module, name)  # kept after the first lookup


def test_star_import_binds_every_name():
    namespace = {}
    exec("from heliotilt import *", namespace)
    for name in heliotilt.__all__:
        assert namespace[name] is getattr(heliotilt, name)
    assert namespace["__version__"] == "0.1.0"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        heliotilt.no_such_name
    assert not hasattr(heliotilt, "_check_day")  # private helpers are not exported


# One of each record the numpy-free modules define, with its repr
RECORDS = [
    (heliotilt.Location(32.7), "Location(latitude_deg=32.7)"),
    (heliotilt.SolarAngles(0.0, 57.3, 32.7, 0.0),
     "SolarAngles(declination_deg=0.0, elevation_deg=57.3, zenith_deg=32.7, azimuth_deg=0.0)"),
    (heliotilt.MonthlySchedule(45.0, heliotilt.TiltMode.EXACT, (68.45, 45.0), ()),
     "MonthlySchedule(latitude_deg=45.0, mode=<TiltMode.EXACT: 'exact'>, "
     "betas_deg=(68.45, 45.0), clamped_months=())"),
    (heliotilt.SeasonalSchedule(45.0, heliotilt.TiltMode.PAPER, (60.0, 45.0), (15.0, 0.0)),
     "SeasonalSchedule(latitude_deg=45.0, mode=<TiltMode.PAPER: 'paper'>, "
     "betas_deg=(60.0, 45.0), delta_deg=(15.0, 0.0))"),
    (heliotilt.ChartSeries("s", (1.0, 2.0), (3.0, 4.0)),
     "ChartSeries(name='s', x=(1.0, 2.0), y=(3.0, 4.0), metadata={})"),
    (heliotilt.ScheduleTable("seasonal", heliotilt.TiltMode.PAPER, (("winter", 48.0),),
                             {"latitude_deg": 32.7}),
     "ScheduleTable(granularity='seasonal', mode=<TiltMode.PAPER: 'paper'>, "
     "rows=(('winter', 48.0),), metadata={'latitude_deg': 32.7})"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_read_only_named_tuples(record, text):
    assert repr(record) == text
    assert record == tuple(record) and record._replace() == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
