"""Ranking-point ratio model for tour-level tennis: fitting, evaluation,
point attribution, seeded-draw simulation, and reporting.

The public names below are loaded on first access (PEP 562): ``import
atppoints`` loads no submodule and no numpy; ``atppoints.fit_alpha``
imports ``atppoints.model`` and binds the rest of its exports too, and
``atppoints.predict`` imports only the numpy-free ``atppoints.formula``.
"""

import importlib

__version__ = "0.1.0"


def _lazy(namespace: dict, table: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` for a module with globals ``namespace``: a name's first lookup
    imports its ``table`` submodule and binds the names listed for it that are still unbound."""
    def __getattr__(name: str):
        for module, names in table.items():
            if name in names:  # not the names the import system probes (``__path__``)
                loaded = importlib.import_module(f".{module}", __name__)
                for each in names:
                    namespace.setdefault(each, getattr(loaded, each))
                return namespace[name]
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    return __getattr__


#: submodule -> the public names it defines
_TABLE = {
    "errors": ("DomainError", "SchemaError"),
    "formula": ("ModelParams", "Prediction", "predict", "win_probability"),
    "model": ("MatchTable", "baseline_brier", "brier_curve", "brier_score", "fit_alpha"),
    "points": ("Category", "PointTable", "expected_points", "expected_ratio_to_32", "points_for"),
    "bracket": ("fill_unseeded", "place_seeds", "run_tournament", "run_tournaments"),
    "season": ("CalendarEvent", "SeasonConfig", "SeasonReport", "run_season"),
}
#: public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _TABLE.items() for name in names}

__all__ = ["__version__", *_EXPORTS]
__getattr__ = _lazy(globals(), _TABLE)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
