"""The package namespace: the public names, where each comes from, lazy loading."""
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
