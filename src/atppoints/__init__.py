"""Ranking-point ratio model for tour-level tennis: fitting, evaluation,
point attribution, seeded-draw simulation, and reporting.

The public names below are loaded on first access (PEP 562): ``import
atppoints`` loads no submodule and no numpy, and ``atppoints.fit_alpha``
imports ``atppoints.model`` when it is first looked up, while
``atppoints.predict`` imports only the numpy-free ``atppoints.formula``.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("DomainError", "SchemaError"),
        "formula": ("ModelParams", "Prediction", "predict", "win_probability"),
        "model": ("MatchTable", "baseline_brier", "brier_curve", "brier_score", "fit_alpha"),
        "points": ("Category", "PointTable", "expected_points", "expected_ratio_to_32",
                   "points_for"),
        "bracket": ("fill_unseeded", "place_seeds", "run_tournament", "run_tournaments"),
        "season": ("CalendarEvent", "SeasonConfig", "SeasonReport", "run_season"),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
