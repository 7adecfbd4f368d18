"""Solar position angles and PV panel tilt schedules from closed-form geometry.

The geometry layer gives declination, noon elevation, and intra-day sun
position on a 365-day solar-time year. On top of it sit the tilt rules
(daily, monthly, seasonal, fixed), a clear-sky beam insolation
integrator, an exact fixed-tilt optimizer, and gain reports
comparing adjustment policies. A CLI (`heliotilt`) exposes the same
operations as json, csv, and svg.

Public names are imported from their module on first use; only insolation imports numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it, in __all__ order.
_EXPORTS = {
    "DAYS_PER_YEAR": "geometry",
    "EARTH_TILT_DEG": "geometry",
    "EQUINOX_DAY": "geometry",
    "STRICT_LATITUDE_LIMIT_DEG": "geometry",
    "Location": "geometry",
    "SolarAngles": "geometry",
    "compass_azimuth": "geometry",
    "declination_exact": "geometry",
    "declination_simplified": "geometry",
    "noon_elevation": "geometry",
    "noon_elevation_folded": "geometry",
    "noon_zenith": "geometry",
    "sun_position": "geometry",
    "sunrise_hour_angle": "geometry",
    "EXACT_OFFSETS_DEG": "schedule",
    "MONTH_NAMES": "schedule",
    "PAPER_OFFSETS_DEG": "schedule",
    "SEASON_NAMES": "schedule",
    "MonthlySchedule": "schedule",
    "SeasonalSchedule": "schedule",
    "TiltMode": "schedule",
    "TiltPolicy": "schedule",
    "TiltValue": "schedule",
    "UnsupportedHemisphereError": "schedule",
    "daily_tilt": "schedule",
    "daily_tilt_details": "schedule",
    "month_of_day": "schedule",
    "monthly_schedule": "schedule",
    "offsets_for": "schedule",
    "season_of_day": "schedule",
    "seasonal_schedule": "schedule",
    "tilt_extremes": "schedule",
    "GainReport": "insolation",
    "InsolationResult": "insolation",
    "IrradianceModel": "insolation",
    "OptimalTilt": "insolation",
    "PolicyGain": "insolation",
    "annual_insolation": "insolation",
    "daily_insolation": "insolation",
    "gain_report": "insolation",
    "incidence_cosine": "insolation",
    "optimize_fixed_tilt": "insolation",
    "ChartSeries": "charts",
    "DEFAULT_CHART_DAYS": "charts",
    "ScheduleTable": "charts",
    "schedule_table": "charts",
    "sun_day_rows": "charts",
    "sunpath_chart": "charts",
    "tilt_curve": "charts",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import a public name's module on first use and keep the name here (PEP 562)."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
