"""Logistic match-outcome model driven by the ranking-point ratio.

The model predicts that player i beats player j with probability

    p = ratio**alpha / (1 + ratio**alpha),    ratio = r_i / r_j

where r_i, r_j are the players' current ranking points and alpha is a
single fitted exponent.  The scalar formula, ``predict`` and
``ModelParams`` live in the numpy-free ``formula`` module.  Fitting
minimizes the Brier score (mean squared error between 0/1 outcomes and
predicted probabilities) by golden-section search over a bracket.

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

from .defaults import DEFAULT_SEARCH_HI, DEFAULT_SEARCH_LO, DEFAULT_TOL
from .errors import DomainError
from .formula import ModelParams, _require_positive

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Participation:
    """Who played which 500s and 250s, and at what rank: an archive's
    participation fields tallied while its rows stream, the one part of a
    ``MatchTable`` that only ``report.participation_table`` reads.  Players
    and counted events (those with a 500 or 250 row) are numbered in the
    sorted order of their ids."""

    rank: np.ndarray            # float64 per player: rank at their latest dated side, else NaN
    event_category: np.ndarray  # object per event: "tour_500" or "tour_250", as its last row
    event_resolved: np.ndarray  # bool per event: that row named its category
    pair_event: np.ndarray      # int64: the distinct (event, player) pairs, sorted
    pair_player: np.ndarray     # int64


@dataclass(frozen=True)
class MatchTable:
    """Equal-length numpy columns, one entry per match; index by mask or slice.

    ``ingest.load_raw_rows`` keeps every archive row (NaT, NaN or "" where a
    field is absent or does not parse; ``level`` is the archive's letter),
    with the ``participation`` tally, which holds no per-row column and does
    not index, when asked for it.
    ``ingest.select_matches`` keeps the rows the model sees: finite positive
    points, ``level`` as its tag, an empty round as "unknown".
    """

    date: np.ndarray            # datetime64[D]
    winner_points: np.ndarray   # float64
    loser_points: np.ndarray    # float64
    level: np.ndarray           # object (str), as are round and score
    round: np.ndarray
    score: np.ndarray
    participation: Participation | None = None

    def __len__(self) -> int:
        return len(self.date)

    def __getitem__(self, rows) -> MatchTable:
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return MatchTable(**{name: None if column is None else column[rows]
                             for name, column in columns.items()})

    @classmethod
    def from_points(cls, winner_points: Sequence[float], loser_points: Sequence[float],
                    date: datetime.date) -> MatchTable:
        """Winner-first point pairs, every row on ``date`` with level "other",
        round "unknown", no score and no participation tally.  Points must be
        positive and finite; ingestion drops (and counts) archive rows where
        they are not.
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
        return cls(
            date=np.full(n, date, dtype="datetime64[D]"), winner_points=winners,
            loser_points=losers, level=np.full(n, "other", dtype=object),
            round=np.full(n, "unknown", dtype=object), score=np.full(n, "", dtype=object),
        )


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
