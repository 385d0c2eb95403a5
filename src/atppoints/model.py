"""Logistic match-outcome model driven by the ranking-point ratio.

The model predicts that player i beats player j with probability

    p = ratio**alpha / (1 + ratio**alpha),    ratio = r_i / r_j

where r_i, r_j are the players' current ranking points and alpha is a
single fitted exponent.  Fitting minimizes the Brier score (mean squared
error between 0/1 outcomes and predicted probabilities) by golden-section
search over a bracket.

Every function here takes its matches as one ``MatchTable`` of numpy
columns, one entry per match: ``ingest.load_matches`` builds it from an
archive, ``MatchTable.from_points`` by hand.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

DEFAULT_SEARCH_LO = 0.01
DEFAULT_SEARCH_HI = 5.0
DEFAULT_TOL = 1e-6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ModelParams:
    """Fitted exponent plus fit metadata."""

    alpha: float
    fitted_e2: float | None = None
    n_matches: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha!r}")
        if self.fitted_e2 is not None and not 0.0 <= self.fitted_e2 <= 1.0:
            raise DomainError(f"fitted_e2 must lie in [0, 1], got {self.fitted_e2!r}")
        if self.n_matches is not None and self.n_matches < 0:
            raise DomainError(f"n_matches must be nonnegative, got {self.n_matches!r}")


@dataclass(frozen=True)
class MatchTable:
    """Equal-length numpy columns, one entry per match; index by mask or slice.

    ``ingest.load_raw_rows`` keeps every archive row (NaT, NaN or "" where a
    field is absent or does not parse; ``level`` is the archive's letter).
    ``ingest.select_matches`` keeps the rows the model sees: finite positive
    points, ``level`` as its tag, an empty round as "unknown".
    """

    date: np.ndarray            # datetime64[D]
    winner_points: np.ndarray   # float64
    loser_points: np.ndarray    # float64
    level: np.ndarray           # object (str), as are the text columns below
    round: np.ndarray
    score: np.ndarray
    event: np.ndarray           # tournament id, else tournament name
    winner_id: np.ndarray
    loser_id: np.ndarray
    winner_rank: np.ndarray     # float64
    loser_rank: np.ndarray      # float64
    category: np.ndarray        # Category value or ""

    def __len__(self) -> int:
        return len(self.date)

    def __getitem__(self, rows) -> MatchTable:
        return MatchTable(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    @classmethod
    def from_points(cls, winner_points: Sequence[float], loser_points: Sequence[float],
                    date: datetime.date) -> MatchTable:
        """Winner-first point pairs, every row on ``date`` with level "other",
        round "unknown" and no ids, ranks or score.  Points must be positive
        and finite; ingestion drops (and counts) archive rows where they are not.
        """
        winners = np.array(winner_points, dtype=np.float64)
        losers = np.array(loser_points, dtype=np.float64)
        if winners.ndim != 1 or winners.shape != losers.shape:
            raise DomainError(f"winner_points and loser_points must be equal-length "
                              f"sequences, got shapes {winners.shape} and {losers.shape}")
        for name, column in (("winner_points", winners), ("loser_points", losers)):
            bad = column[~(np.isfinite(column) & (column > 0))]
            if len(bad):
                _require_positive(name, float(bad[0]))
        n = len(winners)
        text = np.full(n, "", dtype=object)
        ranks = np.full(n, np.nan)
        return cls(
            date=np.full(n, date, dtype="datetime64[D]"), winner_points=winners,
            loser_points=losers, level=np.full(n, "other", dtype=object),
            round=np.full(n, "unknown", dtype=object), score=text, event=text,
            winner_id=text, loser_id=text, category=text, winner_rank=ranks, loser_rank=ranks,
        )


@dataclass(frozen=True)
class Prediction:
    ratio: float
    probability: float


def win_probability(alpha: float, ratio: float) -> float:
    """Evaluate ratio**alpha / (1 + ratio**alpha) without overflow.

    For ratio > 1 the equivalent form 1 / (1 + ratio**-alpha) is used so
    that extreme ratios saturate cleanly instead of overflowing.  Agrees
    with the textbook form within 1e-12 for ratio in [1e-6, 1e6].  Where
    ratio**alpha saturates past float resolution the result is clamped to
    the open interval, one ulp inside 0 or 1.
    """
    if ratio > 1.0:
        p = 1.0 / (1.0 + math.pow(ratio, -alpha))
    else:
        t = math.pow(ratio, alpha)
        p = t / (1.0 + t)
    if p >= 1.0:
        return math.nextafter(1.0, 0.0)
    if p <= 0.0:
        return math.nextafter(0.0, 1.0)
    return p


def predict(alpha: float, r_i: float, r_j: float) -> Prediction:
    """Probability that the player holding r_i points beats the one holding r_j."""
    _require_positive("alpha", alpha)
    _require_positive("r_i", r_i)
    _require_positive("r_j", r_j)
    ratio = r_i / r_j
    return Prediction(ratio=ratio, probability=win_probability(alpha, ratio))


def _require_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _log_ratios(table: MatchTable) -> np.ndarray:
    # math.log, not np.log: np.log is an ulp off on some integers, enough to move alpha
    log = np.frompyfunc(math.log, 1, 1)
    return (log(table.winner_points) - log(table.loser_points)).astype(np.float64)


def _brier_from_log_ratios(alpha: float, log_ratios: np.ndarray) -> float:
    # p = 1 / (1 + exp(-alpha * log(ratio))) is the same logistic curve;
    # exp overflow saturates to p = 0, which is the correct limit.
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-alpha * log_ratios))
    resid = 1.0 - p
    # np.mean reduces pairwise over the fixed input order: reproducible.
    return float(np.mean(resid * resid))


def brier_score(alpha: float, matches: MatchTable) -> float:
    """Mean squared error of the model on a winner-first match table.

    Each match contributes (1 - p)**2 with p the predicted probability of
    the actual winner.  Scoring both orientations instead changes nothing:
    the loser-side term (0 - (1 - p))**2 is identical.
    """
    _require_positive("alpha", alpha)
    return _brier_from_log_ratios(alpha, _log_ratios(_nonempty(matches)))


def brier_curve(matches: MatchTable, alphas: Iterable[float]) -> np.ndarray:
    """Brier score evaluated at each alpha, sharing one pass over the data."""
    logs = _log_ratios(_nonempty(matches))
    return np.array([_brier_from_log_ratios(float(a), logs) for a in alphas])


def baseline_brier(matches: MatchTable) -> float:
    """Brier score of the hard predictor "the higher-point player wins".

    p = 1 when the winner had more points, 0 when fewer, 0.5 on a tie, so
    each match contributes 0, 1, or 0.25 respectively.
    """
    table = _nonempty(matches)
    upsets = np.count_nonzero(table.winner_points < table.loser_points)
    ties = np.count_nonzero(table.winner_points == table.loser_points)
    # whole and quarter counts add exactly, so this equals the per-match sum
    return (upsets + 0.25 * ties) / len(table)


def _nonempty(table: MatchTable) -> MatchTable:
    if len(table) == 0:
        raise DomainError("no matches")
    return table


def fit_alpha(
    matches: MatchTable,
    search_lo: float = DEFAULT_SEARCH_LO,
    search_hi: float = DEFAULT_SEARCH_HI,
    tol: float = DEFAULT_TOL,
) -> ModelParams:
    """Minimize the Brier score over alpha in [search_lo, search_hi].

    Golden-section search, run until the bracket width drops below tol.
    The objective is smooth and empirically unimodal on real data; tests
    cross-check against a dense grid scan.  Deterministic for fixed inputs.
    """
    table = _nonempty(matches)
    if not (0 < search_lo < search_hi < math.inf):
        raise DomainError(
            f"invalid search bracket [{search_lo!r}, {search_hi!r}]: need 0 < lo < hi < inf"
        )
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")

    logs = _log_ratios(table)

    def f(a: float) -> float:
        return _brier_from_log_ratios(a, logs)

    a, b = search_lo, search_hi
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
    alpha = 0.5 * (a + b)
    return ModelParams(alpha=alpha, fitted_e2=f(alpha), n_matches=len(table))
