"""Ranking-point ratio model for tour-level tennis: fitting, evaluation,
point attribution, seeded-draw simulation, and reporting."""

__version__ = "0.1.0"

from .errors import DomainError, SchemaError
from .model import (
    MatchObservation,
    ModelParams,
    Prediction,
    baseline_brier,
    brier_curve,
    brier_score,
    fit_alpha,
    predict,
    win_probability,
)
from .points import (
    Category,
    PointTable,
    SeasonResult,
    best_18_total,
    expected_points,
    expected_ratio_to_32,
    points_for,
)
from .bracket import Bracket, fill_unseeded, place_seeds, run_tournament
from .season import CalendarEvent, SeasonConfig, SeasonReport, run_season

__all__ = [
    "__version__",
    "DomainError",
    "SchemaError",
    "MatchObservation",
    "ModelParams",
    "Prediction",
    "baseline_brier",
    "brier_curve",
    "brier_score",
    "fit_alpha",
    "predict",
    "win_probability",
    "Category",
    "PointTable",
    "SeasonResult",
    "best_18_total",
    "expected_points",
    "expected_ratio_to_32",
    "points_for",
    "Bracket",
    "fill_unseeded",
    "place_seeds",
    "run_tournament",
    "CalendarEvent",
    "SeasonConfig",
    "SeasonReport",
    "run_season",
]
