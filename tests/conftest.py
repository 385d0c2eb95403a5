"""Shared fixtures, the synthetic-data oracle, and the best-18 oracle.

The generator below is the independent oracle for fit-recovery and
calibration tests: it draws outcomes from the textbook formula with its own
arithmetic and never calls the package's prediction path.  ``best_18_total``
is the date-based oracle of the season's array route to the best-18 rule.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from heapq import nlargest
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest

from atppoints.model import MatchTable
from atppoints.points import BEST_N, Category

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "atppoints" / "data"

SAMPLE_MATCHES = DATA_DIR / "sample_matches.csv"
SAMPLE_RANKINGS = DATA_DIR / "sample_rankings.csv"
DAY = datetime.date(2012, 6, 1)


def synth_matches(
    alpha: float,
    n: int,
    seed: int,
    ratio_span: tuple[float, float] = (0.1, 10.0),
) -> MatchTable:
    """A table of matches drawn from the model: log-uniform ratio, Bernoulli outcome.

    Winner-first orientation: when the ratio-r player loses, the stored
    row has its points swapped.
    """
    rng = np.random.default_rng(seed)
    lo, hi = ratio_span
    log_ratios = rng.uniform(math.log(lo), math.log(hi), size=n)
    base = rng.uniform(500.0, 5000.0, size=n)
    uniforms = rng.random(n)
    winners, losers = [], []
    for k in range(n):
        ratio = math.exp(log_ratios[k])
        r_i = base[k] * ratio
        r_j = base[k]
        p = ratio**alpha / (1.0 + ratio**alpha)
        if uniforms[k] < p:
            winners.append(r_i)
            losers.append(r_j)
        else:
            winners.append(r_j)
            losers.append(r_i)
    return MatchTable.from_points(winners, losers, DAY)


def pairs(*points: tuple[float, float]) -> MatchTable:
    """The table of hand-written (winner points, loser points) pairs, all on DAY."""
    return MatchTable.from_points([w for w, _ in points], [lo for _, lo in points], DAY)


def tables_equal(a, b) -> bool:
    """Two MatchTables or RankingTables hold the same columns, NaN and NaT
    equal to themselves, and the same participation tally or none."""
    def columns(table) -> dict:
        found = dict(vars(table))
        block = found.pop("participation", None)
        if block is not None:
            found.update({f"participation.{k}": v for k, v in vars(block).items()})
        return found

    def same(x, y) -> bool:
        return x.dtype == y.dtype and np.array_equal(x, y, equal_nan=x.dtype.kind in "fmM")

    ours, theirs = columns(a), columns(b)
    return ours.keys() == theirs.keys() and all(same(ours[k], theirs[k]) for k in ours)


# --- the date-based best-18 oracle --------------------------------------------

WINDOW_DAYS = 364  # 52 weeks exactly


@dataclass(frozen=True)
class SeasonResult:
    category: Category
    round_reached: str
    points: int
    date: datetime.date


def best_18_total(results: Iterable[SeasonResult], as_of: datetime.date) -> int:
    """Sum of the 18 largest results in the 52 weeks ending at ``as_of``.

    The window is (as_of - 364 days, as_of]: inclusive of as_of, exact
    364-day arithmetic.  Fewer than 18 in-window results sum plainly.
    """
    in_window = [
        r.points for r in results if 0 <= (as_of - r.date).days < WINDOW_DAYS
    ]
    if len(in_window) <= BEST_N:
        return sum(in_window)
    return sum(nlargest(BEST_N, in_window))


# --- bracket lookups by 1-based slot ------------------------------------------

def player_at(slots: list, slot: int):
    return slots[slot - 1]


def slot_of(slots: list, player) -> int:
    return slots.index(player) + 1


@pytest.fixture(scope="session")
def sample_paths() -> tuple[Path, Path]:
    return SAMPLE_MATCHES, SAMPLE_RANKINGS


# --- acceptance checklist reporting ----------------------------------------

_acceptance_results: list[tuple[int, str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None or report.when != "call":
        return
    if report.passed:
        status = "PASS"
    elif report.skipped:
        status = "SKIP"
    else:
        status = "FAIL"
    _acceptance_results.append(
        (marker.kwargs.get("criterion", 0), marker.kwargs.get("name", item.name), status)
    )


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for criterion, name, status in sorted(_acceptance_results):
        terminalreporter.write_line(f"criterion {criterion} [{status}] {name}")
