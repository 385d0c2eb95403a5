"""Empirical analysis artifacts: binned win-frequency curves, calibration,
rank-band point statistics, and participation counts.

Each curve emits both match orientations: a match at ratio r contributes a
win at r and a loss at 1/r, which makes the ratio axis two-sided and the
frequency curve symmetric around r = 1.  The match data arrives as one
``model.MatchTable`` and ranking snapshots as an ``ingest.RankingTable``;
both are binned and tallied as whole columns.  Participation arrives as a
``ParticipationTally`` folded while the archive streams.
Outputs are delimited text plus a self-contained SVG per figure so results
are viewable with no extra toolchain.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field
from typing import IO, Callable, Mapping

import numpy as np

from .defaults import DEFAULT_PROB_BINS, DEFAULT_RATIO_BINS
from .errors import DomainError
from .formula import _require_positive, win_probability
from .ingest import RankingTable, _parse_int
from .model import MatchTable, _nonempty
from .points import (OPTIONAL_CATEGORIES, RANK_BANDS, Category, expected_points,
                     expected_ratio_to_32)

#: Point-ratio range of ``bin_by_ratio``'s log-spaced bins.
RATIO_SPAN = (0.01, 100.0)


@dataclass
class BinnedCurve:
    """Binned empirical outcomes with the model curve for comparison."""

    edges: np.ndarray
    centers: np.ndarray         # geometric midpoints of log-scale bins, else midpoints
    counts: np.ndarray
    freq: np.ndarray            # empirical win frequency; NaN where empty
    mean_predicted: np.ndarray  # mean model probability of members; NaN where empty
    model_value: np.ndarray     # curve value to plot against each bin
    log_scale: bool


def _bin_oriented(
    x: np.ndarray,
    outcomes: np.ndarray,
    predicted: np.ndarray,
    edges: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram outcomes and predictions; x is clamped into the edge span."""
    n_bins = len(edges) - 1
    clamped = np.clip(x, edges[0], edges[-1])
    idx = np.clip(np.searchsorted(edges, clamped, side="right") - 1, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    win_sum = np.bincount(idx, weights=outcomes, minlength=n_bins)
    pred_sum = np.bincount(idx, weights=predicted, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        freq = np.where(counts > 0, win_sum / np.maximum(counts, 1), np.nan)
        mean_pred = np.where(counts > 0, pred_sum / np.maximum(counts, 1), np.nan)
    return counts, freq, mean_pred


def _oriented_ratios(table: MatchTable, alpha: float):
    _require_positive("alpha", alpha)
    # interleaved [r0, 1/r0, r1, 1/r1, ...]: bincount sums in index order,
    # so this order fixes the last bits of every bin's sums
    r = table.winner_points / table.loser_points
    ratios = np.column_stack((r, 1.0 / r)).ravel()
    outcomes = np.tile([1.0, 0.0], len(r))
    with np.errstate(over="ignore"):
        predicted = 1.0 / (1.0 + ratios ** (-alpha))
    return ratios, outcomes, predicted


def bin_by_ratio(
    matches: MatchTable,
    alpha: float,
    n_bins: int = DEFAULT_RATIO_BINS,
) -> BinnedCurve:
    """Win frequency binned over the point ratio, log-spaced bins over
    ``RATIO_SPAN``.

    Both orientations are emitted, so bin counts sum to twice the match
    count; ratios outside the span are clamped into the end bins.
    """
    matches = _nonempty(matches)
    if n_bins < 2:
        raise DomainError(f"n_bins must be at least 2, got {n_bins!r}")
    edges = np.geomspace(*RATIO_SPAN, n_bins + 1)
    ratios, outcomes, predicted = _oriented_ratios(matches, alpha)
    counts, freq, mean_pred = _bin_oriented(ratios, outcomes, predicted, edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    model = np.array([win_probability(alpha, float(c)) for c in centers])
    return BinnedCurve(
        edges=edges, centers=centers, counts=counts, freq=freq, mean_predicted=mean_pred,
        model_value=model, log_scale=True,
    )


def calibration_curve(
    matches: MatchTable,
    alpha: float,
    n_bins: int = DEFAULT_PROB_BINS,
) -> BinnedCurve:
    """Empirical outcome frequency binned over the predicted probability.

    Linear bins on [0, 1]; well-calibrated data tracks the diagonal, so the
    per-bin model value is the mean predicted probability of its members.
    """
    matches = _nonempty(matches)
    if n_bins < 2:
        raise DomainError(f"n_bins must be at least 2, got {n_bins!r}")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    _, outcomes, predicted = _oriented_ratios(matches, alpha)
    counts, freq, mean_pred = _bin_oriented(predicted, outcomes, predicted, edges)
    return BinnedCurve(
        edges=edges, centers=0.5 * (edges[:-1] + edges[1:]), counts=counts, freq=freq,
        mean_predicted=mean_pred, model_value=mean_pred.copy(), log_scale=False,
    )


def write_curve_csv(curve: BinnedCurve, fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["bin_center", "count", "empirical_freq", "model_value"])
    for center, count, freq, model in zip(
        curve.centers, curve.counts, curve.freq, curve.model_value
    ):
        writer.writerow([repr(float(center)), int(count),
                         _num(freq), _num(model)])


def _num(value: float) -> str:
    return "nan" if (value is None or math.isnan(value)) else repr(float(value))


# --- rank-band statistics ----------------------------------------------------


#: The rank-band statistics, in the order of their columns and rows.
STATS = ("max", "mean", "min", "std")


@dataclass(frozen=True)
class RankStats:
    """Point statistics for one rank band across snapshot dates: ``points`` and
    ``ratio`` (to rank 32) map each name in ``STATS``, in order, to its value."""

    n_dates: int
    points: dict[str, float]
    ratio: dict[str, float]


def rank_stats(table: RankingTable) -> tuple[dict[int, RankStats], list[datetime.date]]:
    """``RankStats(n_dates, points, ratio)`` per rank band of ``points.RANK_BANDS``
    (16, 32, 64): the ``STATS`` (max, mean, min, std) of points and of their
    ratio to rank 32.

    Snapshot dates missing any band are skipped and returned in date order.
    Std is the population standard deviation.
    """
    rows = np.isin(table.rank, RANK_BANDS)
    dates, date_of = np.unique(table.date[rows], return_inverse=True)
    # band x date points; a row per band keeps each band's values contiguous
    grid = np.full((len(RANK_BANDS), len(dates)), np.nan)
    grid[np.searchsorted(RANK_BANDS, table.rank[rows]), date_of] = table.points[rows]
    complete = ~np.isnan(grid).any(axis=0)
    if not complete.any():
        raise DomainError("no snapshot date contains every requested rank band")
    usable = grid[:, complete]
    stats: dict[int, RankStats] = {}
    for band, pts in zip(RANK_BANDS, usable):
        ratio = pts / usable[RANK_BANDS.index(32)]
        stats[band] = RankStats(len(pts), _summary(pts), _summary(ratio))
    return stats, dates[~complete].tolist()


def _summary(values: np.ndarray) -> dict[str, float]:
    """The ``STATS`` of ``values``, each by the ndarray method of its name."""
    return {name: float(getattr(values, name)()) for name in STATS}


def write_rank_stats_csv(stats: Mapping[int, RankStats], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["band", "n_dates", "expected_points", *(f"points_{n}" for n in STATS),
                     "expected_ratio_to_32", *(f"ratio_{n}" for n in STATS)])
    for band in sorted(stats):
        s = stats[band]
        writer.writerow([band, s.n_dates, expected_points(band), *map(repr, s.points.values()),
                         repr(expected_ratio_to_32(band)), *map(repr, s.ratio.values())])


def format_rank_stats(stats: Mapping[int, RankStats]) -> str:
    """Aligned plain-text table, ideal-schedule reference row included."""
    bands = sorted(stats)
    head = "rank band          " + "".join(f"{b:>12}" for b in bands)
    rows = [("expected", [float(expected_points(b)) for b in bands]),
            *((n, [stats[b].points[n] for b in bands]) for n in STATS),
            ("ratio expected", [expected_ratio_to_32(b) for b in bands]),
            *((f"ratio {n}", [stats[b].ratio[n] for b in bands]) for n in STATS)]
    lines = [head]
    for name, values in rows:
        lines.append(f"{name:<19}" + "".join(f"{v:>12.4f}" for v in values))
    return "\n".join(lines)


# --- participation counts ------------------------------------------------------

#: Top-N rank bands of the participation table.
PARTICIPATION_BANDS = (8, 16, 30, 64)
_HIST_CAP = 6  # histogram cells 0..5 plus "6 or more"


#: A participation tally counts the ``OPTIONAL_CATEGORIES``; a category's
#: code is its index there, or that tuple's length when it is not counted.
_CATEGORY_CODES = {c.value: OPTIONAL_CATEGORIES.index(c) if c in OPTIONAL_CATEGORIES
                   else len(OPTIONAL_CATEGORIES) for c in Category}


def _coder(codes: dict[str, int]) -> Callable[[str], int]:
    """A parser of one field into the code of its stripped text in ``codes``,
    where a new text takes the next code."""
    return lambda text: codes.setdefault(text.strip(), len(codes))


def _padded(array: np.ndarray, n: int, fill: object) -> np.ndarray:
    return np.concatenate((array, np.full(n - len(array), fill, array.dtype)))


def _last_of_each(key: np.ndarray, shift: int = 0) -> np.ndarray:
    """The index of the last entry of each group ``key >> shift`` in the
    order of the non-negative ``key``, equal keys in entry order (a stable
    sort)."""
    order = np.argsort(key, kind="stable")
    return order[np.diff(key[order] >> shift, append=-1) != 0]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of non-negative ``keys``, sorted: ``np.unique``
    by a plain sort, which here beats its hash table several times over."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


class ParticipationTally:
    """An archive's participation fields, folded one chunk of rows at a time
    as ``ingest.load_raw_rows(paths, schema, tally)`` reads them.

    A row counts when it is a 500 or a 250 (a level "A" row that names no
    category counts as a 250).  The tally keeps each player's rank at their
    latest dated side, a later side breaking a tie; each counted event's
    category and whether its row named it, from its last counted row; and
    the (event, player) pairs of the counted rows, distinct within each
    chunk until ``participation_table`` merges them.  An event is its
    tournament id, or its name where the id is blank.  Players and events
    are coded as their ids are first parsed, in no particular order."""

    #: The fields a file must have for the tally (a tuple: one of them).
    required = (("tournament_id", "tournament_name"), "winner_id", "loser_id",
                "winner_rank", "loser_rank")

    def __init__(self) -> None:
        self.players: dict[str, int] = {}
        self.events: dict[str, int] = {"": 0}  # a blank id codes 0: the name decides
        player, event = _coder(self.players), _coder(self.events)
        #: The fields the tally reads, with their parsers, after the model's.
        self.columns = {
            "tournament_id": (None, event), "tournament_name": (None, event),
            "winner_id": (None, player), "loser_id": (None, player),
            "winner_rank": (None, _parse_int), "loser_rank": (None, _parse_int),
            "category": (None, lambda text: _CATEGORY_CODES.get(text.strip(), -1)),
        }
        self.date = np.empty(0, "datetime64[D]")  # per player; NaT before any
        self.rank = np.empty(0)                   # per player
        self.category = np.empty(0, np.intp)      # per event; -1 before a counted row
        self.resolved = np.empty(0, bool)         # per event
        self.pairs: list[np.ndarray] = []         # per chunk: event << 32 | player

    def add(self, chunk: dict[str, list]) -> None:
        """Fold one chunk's parsed fields, by field name, into the tally."""
        ids = np.array(chunk["tournament_id"], np.intp)
        event = np.where(ids != 0, ids, chunk["tournament_name"])
        named = np.array(chunk["category"], np.intp)
        tour = np.array(chunk["level"], object) == "A"
        category = np.where(named >= 0, named, np.where(
            tour, OPTIONAL_CATEGORIES.index(Category.TOUR_250), len(OPTIONAL_CATEGORIES)))
        sides = np.array((chunk["winner_id"], chunk["loser_id"]), np.intp).T
        self.rank = _padded(self.rank, len(self.players), np.nan)
        self.date = _padded(self.date, len(self.players), np.datetime64("NaT"))
        self.category = _padded(self.category, len(self.events), -1)
        self.resolved = _padded(self.resolved, len(self.events), False)

        # each player's latest side here, kept unless the tally's date is later
        player = sides.ravel()  # winner first
        rank = np.array((chunk["winner_rank"], chunk["loser_rank"]), float).T.ravel()
        date = np.repeat(np.array(chunk["date"], "datetime64[D]"), 2)
        ok = ~np.isnat(date) & ~np.isnan(rank)
        player, date, rank = player[ok], date[ok], rank[ok]
        # days from 1970 made non-negative below each player's code: one sort key
        last = _last_of_each(player << 32 | (date.astype(np.int64) + 2**31), 32)
        player, date, rank = player[last], date[last], rank[last]
        later = ~(date < self.date[player])  # NaT: any date is later
        self.date[player[later]], self.rank[player[later]] = date[later], rank[later]

        counted = np.flatnonzero(category < len(OPTIONAL_CATEGORIES))
        last = counted[_last_of_each(event[counted])]
        self.category[event[last]], self.resolved[event[last]] = category[last], named[last] >= 0
        self.pairs.append(_distinct((event[counted].astype(np.int64) << 32).repeat(2)
                                    | sides[counted].ravel()))


@dataclass
class ParticipationTable:
    """500/250 participation histograms per top-N band of ``PARTICIPATION_BANDS``,
    keyed in band order, 500 before 250: the order the writers print."""

    histograms: dict[tuple[int, Category], list[int]] = field(default_factory=dict)
    means: dict[tuple[int, Category], float] = field(default_factory=dict)
    unresolved_events: int = 0


def participation_table(tally: ParticipationTally) -> ParticipationTable:
    """Count 500 and 250 events played per player, bucketed by the top-N
    bands of ``PARTICIPATION_BANDS`` (8, 16, 30, 64).

    ``tally`` has folded an archive's rows (``ingest.load_raw_rows(paths,
    schema, tally)``), so it already holds who played which event; this
    turns it into histograms and means.  The tally folds every row, before
    any date, level, qualifying or walkover selection.  A player "played" a
    tournament if they appear in any of its rows.  Band membership uses each
    player's rank at their latest dated match.  Events whose category
    cannot be resolved (stock archives tag both series "A") count as 250s
    and are tallied in ``unresolved_events``.
    """
    pairs = _distinct(np.concatenate([np.empty(0, np.int64), *tally.pairs]))
    category = tally.category[pairs >> 32]
    played = {c: np.bincount(pairs[category == code] & 0xFFFFFFFF, minlength=len(tally.rank))
              for code, c in enumerate(OPTIONAL_CATEGORIES)}  # c -> each player's events of c
    result = ParticipationTable()
    result.unresolved_events = int(np.count_nonzero(~tally.resolved[tally.category >= 0]))
    for band in PARTICIPATION_BANDS:
        members = tally.rank <= band
        for c, count in played.items():
            counts = count[members]
            result.histograms[(band, c)] = np.bincount(
                np.minimum(counts, _HIST_CAP), minlength=_HIST_CAP + 1).tolist()
            result.means[(band, c)] = int(counts.sum()) / len(counts) if len(counts) else 0.0
    return result


def write_participation_csv(table: ParticipationTable, fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["band", "category"] + [str(k) for k in range(_HIST_CAP)]
                    + [f"{_HIST_CAP}_or_more", "mean"])
    for (band, category), hist in table.histograms.items():
        writer.writerow([band, category.value] + hist + [repr(table.means[(band, category)])])


def format_participation(table: ParticipationTable) -> str:
    header = ("band  category   " + "".join(f"{k:>5}" for k in range(_HIST_CAP))
              + f"{f'{_HIST_CAP}+':>5}   mean")
    lines = [header]
    for (band, category), hist in table.histograms.items():
        lines.append(
            f"{band:<5} {category.value:<10} "
            + "".join(f"{c:>5}" for c in hist)
            + f"  {table.means[(band, category)]:6.3f}"
        )
    if table.unresolved_events:
        lines.append(f"unresolved tour events counted as 250s: {table.unresolved_events}")
    return "\n".join(lines)


# --- minimal SVG emission ------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_MARGIN = 60


def _x_pos(value: float, lo: float, hi: float, log_scale: bool) -> float:
    if log_scale:
        t = (math.log10(value) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
    else:
        t = (value - lo) / (hi - lo)
    return _MARGIN + t * (_SVG_W - 2 * _MARGIN)


def _y_pos(value: float) -> float:
    return _SVG_H - _MARGIN - value * (_SVG_H - 2 * _MARGIN)


def write_curve_svg(curve: BinnedCurve, fp: IO[str], title: str, x_label: str) -> None:
    """Self-contained vector plot: model curve as a line, data as circles."""
    lo, hi = float(curve.edges[0]), float(curve.edges[-1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    x0, y0 = _MARGIN, _SVG_H - _MARGIN
    x1, y1 = _SVG_W - _MARGIN, _MARGIN
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _y_pos(frac)
        parts.append(f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{frac:.2f}</text>'
        )
    if curve.log_scale:
        ticks = [lo]
        while ticks[-1] * 10 <= hi * 1.0000001:
            ticks.append(ticks[-1] * 10)
    else:
        ticks = [lo + frac * (hi - lo) for frac in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for tick in ticks:
        x = _x_pos(tick, lo, hi, curve.log_scale)
        parts.append(
            f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y0 + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_SVG_W / 2:.1f}" y="{_SVG_H - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    # model curve
    line_pts = []
    for center, model in zip(curve.centers, curve.model_value):
        if math.isnan(model):
            continue
        line_pts.append(f"{_x_pos(float(center), lo, hi, curve.log_scale):.2f},{_y_pos(model):.2f}")
    if line_pts:
        parts.append(
            f'<polyline points="{" ".join(line_pts)}" fill="none" stroke="black" stroke-width="2"/>'
        )
    # empirical points
    for center, freq, count in zip(curve.centers, curve.freq, curve.counts):
        if count == 0 or math.isnan(freq):
            continue
        cx = _x_pos(float(center), lo, hi, curve.log_scale)
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{_y_pos(float(freq)):.2f}" r="3" '
            f'fill="none" stroke="crimson" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    fp.write("\n".join(parts) + "\n")
