"""ATP point-attribution tables, the best-18 count, and ideal schedules.

Winner points double per category step (250, 500, 1000, 2000) and each win
within a category multiplies points by 2 or 5/3.  A player's ranking points
are the sum of their 18 best results in the trailing 52 weeks; ``season``
applies that rule week by week.  ``Category`` is declared by prestige, Grand
Slams first; the 500s and 250s are the optional categories, the ones a
top-30 player picks and the participation tables count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Mapping

from .errors import DomainError


class Category(str, Enum):
    GRAND_SLAM = "grand_slam"
    MASTERS_1000 = "masters_1000"
    TOUR_500 = "tour_500"
    TOUR_250 = "tour_250"


#: The categories a player may skip, 500 before 250.
OPTIONAL_CATEGORIES = (Category.TOUR_500, Category.TOUR_250)


#: Round tags from champion down to first round, plus qualifying.
ROUND_TAGS = ("W", "F", "SF", "QF", "R16", "R32", "R64", "R128", "Q")


@dataclass(frozen=True)
class PointTable:
    """Round-to-points mapping for one category (its key in ``TABLES``).

    ``alternates`` holds draw-size-dependent values, keyed (round, draw_size).
    Which draw sizes take which alternate is a configuration choice here, not
    an official rule: the large-draw variants (96-draw Masters, 48-draw 500s
    and 250s) take the parenthesized value.
    """

    points_by_round: Mapping[str, int]
    alternates: Mapping[tuple[str, int], int] = field(default_factory=dict)


TABLES: dict[Category, PointTable] = {
    Category.GRAND_SLAM: PointTable(
        {"W": 2000, "F": 1200, "SF": 720, "QF": 360, "R16": 180,
         "R32": 90, "R64": 45, "R128": 10, "Q": 25},
    ),
    Category.MASTERS_1000: PointTable(
        {"W": 1000, "F": 600, "SF": 360, "QF": 180, "R16": 90,
         "R32": 45, "R64": 10, "Q": 16},
        alternates={("R64", 96): 25, ("R128", 96): 10},
    ),
    Category.TOUR_500: PointTable(
        {"W": 500, "F": 300, "SF": 180, "QF": 90, "R16": 45, "Q": 20},
        alternates={("R32", 48): 20},
    ),
    Category.TOUR_250: PointTable(
        {"W": 250, "F": 150, "SF": 90, "QF": 45, "R16": 20, "Q": 12},
        alternates={("R32", 48): 5},
    ),
}


def points_for(category: Category, round_tag: str, draw_size: int | None = None) -> int:
    """Points awarded for reaching ``round_tag`` in ``category``.

    ``draw_size`` selects draw-size-dependent alternates where they exist.
    Raises DomainError for a cell the table does not define.
    """
    table = TABLES[Category(category)]
    if draw_size is not None:
        alt = table.alternates.get((round_tag, draw_size))
        if alt is not None:
            return alt
    value = table.points_by_round.get(round_tag)
    if value is None:
        raise DomainError(f"round {round_tag!r} not awarded in category {Category(category).value}")
    return value


def points_or_zero(category: Category, round_tag: str, draw_size: int | None = None) -> int:
    """Like points_for, but an undefined cell awards 0 (first-round exits in small draws)."""
    try:
        return points_for(category, round_tag, draw_size)
    except DomainError:
        return 0


def dump_tables(fp: IO[str]) -> None:
    """Write every table cell as delimited text for audit."""
    writer = csv.writer(fp)
    writer.writerow(["category", "round", "points", "alternate_draw", "alternate_points"])
    for category in Category:
        table = TABLES[category]
        for tag in ROUND_TAGS:
            base = table.points_by_round.get(tag)
            alts = [(d, v) for (r, d), v in table.alternates.items() if r == tag]
            if base is None and not alts:
                continue
            if not alts:
                writer.writerow([category.value, tag, base, "", ""])
            for draw, value in sorted(alts):
                writer.writerow([category.value, tag, "" if base is None else base, draw, value])


#: Results that count toward a ranking: the best 18 of the trailing 52 weeks.
BEST_N = 18


# --- ideal-player expected points -----------------------------------------

#: Events an ideal top-30 player counts: 4 Grand Slams, 8 Masters, 3 + 3 optionals.
IDEAL_SCHEDULE: dict[Category, int] = {
    Category.GRAND_SLAM: 4,
    Category.MASTERS_1000: 8,
    Category.TOUR_500: 3,
    Category.TOUR_250: 3,
}

#: Round-equivalent points per event for an ideal player at each rank band.
#: A rank-32 player exits Grand Slams at R32 (90), Masters at R32 (45), and
#: goes two rounds deeper in the thinner 500/250 fields (90 each).
BAND_EVENT_POINTS: dict[int, dict[Category, int]] = {
    16: {Category.GRAND_SLAM: 180, Category.MASTERS_1000: 90,
         Category.TOUR_500: 180, Category.TOUR_250: 150},
    32: {Category.GRAND_SLAM: 90, Category.MASTERS_1000: 45,
         Category.TOUR_500: 90, Category.TOUR_250: 90},
    64: {Category.GRAND_SLAM: 45, Category.MASTERS_1000: 25,
         Category.TOUR_500: 45, Category.TOUR_250: 45},
}

RANK_BANDS = (16, 32, 64)


def expected_points(rank_band: int) -> int:
    """Season total for an ideal player holding the given rank band."""
    try:
        per_event = BAND_EVENT_POINTS[rank_band]
    except KeyError:
        raise DomainError(
            f"unsupported rank band {rank_band!r}; expected one of {RANK_BANDS}"
        ) from None
    return sum(IDEAL_SCHEDULE[cat] * pts for cat, pts in per_event.items())


def expected_ratio_to_32(rank_band: int) -> float:
    """Ideal-player points at ``rank_band`` relative to rank 32."""
    return expected_points(rank_band) / expected_points(32)
