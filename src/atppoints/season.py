"""Multi-season tour simulation.

Simulates a full calendar of seeded tournaments where every match outcome
is drawn from the ratio model, ranking points follow the official tables,
and rankings are the rolling best-18 total recomputed weekly.  The point of
the exercise: check where the points at ranks 16/32/64 settle relative to
the ideal-schedule totals (2430 / 1260 / 650).

Entry policy (the tour rulebook leaves this to the player, so the simulator
needs a deterministic one): season-start top-30 players enter all four Grand
Slams and the first eight Masters, plus a fixed number of 500 and 250 events
chosen greedily to avoid each other, and rest otherwise; that plan depends
only on the calendar and the rank slot, so one plan serves every season.
Everyone else enters the most prestigious event with an open slot each
week, by ranking priority, and a 500 or 250 takes players under the
appetite cap first.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO

import numpy as np

from .bracket import SEEDS_FOR_DRAW, _draw_size, fill_unseeded, place_seeds, run_tournament
from .errors import DomainError
from .formula import _parse_number, _read_key_values, _require_nonnegative, _require_positive
from .points import BEST_N, IDEAL_SCHEDULE, OPTIONAL_CATEGORIES, Category

WEEKS_PER_SEASON = 52
TOP_N_MANDATORY = 30
MANDATORY_MASTERS = IDEAL_SCHEDULE[Category.MASTERS_1000]  # of the 9 on the calendar
_OPTIONAL_EVENTS = sum(IDEAL_SCHEDULE[category] for category in OPTIONAL_CATEGORIES)

#: Simulated draw size per category (the supported power-of-two sizes).
DRAW_FOR_CATEGORY = {
    Category.GRAND_SLAM: 128,
    Category.MASTERS_1000: 64,
    Category.TOUR_500: 32,
    Category.TOUR_250: 32,
}

_PRESTIGE = {category: rank for rank, category in enumerate(Category)}  # declared by prestige

@dataclass(frozen=True)
class CalendarEvent:
    week: int
    category: Category
    draw_size: int


def default_calendar() -> list[CalendarEvent]:
    """Tour calendar with the standard category counts (4, 9, 13, 40).

    Grand Slams and Masters hold weeks of their own.  Of the free weeks,
    every third one from the first holds a 500, each holds a 250, and the
    first holds a second 250.  Events are listed by week, then prestige.
    """
    gs_weeks = (3, 21, 27, 35)
    masters_weeks = (10, 12, 15, 18, 20, 32, 41, 43, 45)
    free = [w for w in range(1, WEEKS_PER_SEASON + 1) if w not in gs_weeks + masters_weeks]
    weeks = {Category.GRAND_SLAM: gs_weeks, Category.MASTERS_1000: masters_weeks,
             Category.TOUR_500: free[::3], Category.TOUR_250: [free[0], *free]}
    # a stable sort keeps each week's events in the table's prestige order
    return sorted((CalendarEvent(w, category, DRAW_FOR_CATEGORY[category])
                   for category, ws in weeks.items() for w in ws), key=lambda e: e.week)


@dataclass
class SeasonConfig:
    """Season-simulation knobs; every key here is overridable from the CLI."""

    calendar: list[CalendarEvent] = field(default_factory=default_calendar)
    top30_mandatory: bool = True
    n_500_choices: int = IDEAL_SCHEDULE[Category.TOUR_500]
    n_250_choices: int = IDEAL_SCHEDULE[Category.TOUR_250]
    alpha: float = 0.8722
    rng_seed: int = 0
    n_players: int = 300
    n_seasons: int = 1
    burn_in: int = 0
    points_floor: float = 1.0
    # free-entry appetite: beyond this many events a player only adds
    # Grand Slams and Masters, mirroring the BEST_N (18) countable results
    # that determine the ranking
    max_events_per_season: int = BEST_N

    def validate(self) -> None:
        for f in fields(self):  # a count that is not an integer fails inside numpy
            value = getattr(self, f.name)
            if type(f.default) is int and not isinstance(value, numbers.Integral):
                raise DomainError(f"{f.name} must be an integer, got {value!r}")
        _require_nonnegative("alpha", self.alpha)
        for name, value in (("rng_seed", self.rng_seed), ("n_players", self.n_players)):
            if value < 0:
                raise DomainError(f"{name} must be nonnegative, got {value!r}")
        if self.n_500_choices < 0 or self.n_250_choices < 0:
            raise DomainError("optional-event choices must be nonnegative")
        if self.top30_mandatory and self.n_500_choices + self.n_250_choices < _OPTIONAL_EVENTS:
            raise DomainError(f"mandatory top-30 entry requires at least {_OPTIONAL_EVENTS} "
                              f"optional 500/250 choices")
        if self.n_seasons < 1:
            raise DomainError("n_seasons must be at least 1")
        if not 0 <= self.burn_in < self.n_seasons:
            raise DomainError("burn_in must be smaller than n_seasons")
        _require_positive("points_floor", self.points_floor)
        if self.max_events_per_season < 1:
            raise DomainError("max_events_per_season must be at least 1")
        if not self.calendar:
            raise DomainError("calendar is empty")
        for ev in self.calendar:
            if not isinstance(ev.week, numbers.Integral):
                raise DomainError(f"calendar week {ev.week!r} is not an integer")
            if not 1 <= ev.week <= WEEKS_PER_SEASON:
                raise DomainError(f"calendar week {ev.week} outside 1..{WEEKS_PER_SEASON}")
            if ev.category not in list(Category):  # compares, so an unhashable one is unknown
                raise DomainError(f"unknown calendar category {ev.category!r}")
            _draw_size(ev.draw_size)


@dataclass
class SeasonReport:
    """Weekly standings for every simulated season, plus the results log.

    Row ``(season - 1) * 52 + week - 1`` of ``ranked_players`` holds the
    player indices from rank 1 down after that week; the same row of
    ``ranked_points`` holds their ranking points.  ``results`` has one row
    per tournament entry, in the order the draws were played, and four
    integer columns: player index, absolute week ``(season - 1) * 52 + week``,
    index of the event in ``config.calendar``, and points won.  The pool is
    ``config.n_players`` players; only ``write_csv`` names them.

    Each array is stored at its natural width: ``ranked_players`` as the
    smallest unsigned type that holds ``n_players - 1`` (``uint16`` up to
    65,536 players), ``ranked_points`` as ``uint16`` (a best-18 sum stays
    below 2**16) and ``results`` as ``int32``.
    """

    config: SeasonConfig
    ranked_players: np.ndarray
    ranked_points: np.ndarray
    results: np.ndarray

    def points_at_rank(self, season: int, rank: int) -> int:
        """Points held at the given rank in the season's final week."""
        if not (1 <= season <= self.config.n_seasons and 1 <= rank <= self.config.n_players):
            raise DomainError(f"no final standing for season {season}, rank {rank}")
        return int(self.ranked_points[season * WEEKS_PER_SEASON - 1, rank - 1])

    def measured_seasons(self) -> list[int]:
        return list(range(self.config.burn_in + 1, self.config.n_seasons + 1))

    def rank_summary(self, rank: int) -> dict[str, float]:
        """Median/mean/min/max of end-of-season points at a rank, burn-in excluded."""
        values = [float(self.points_at_rank(s, rank)) for s in self.measured_seasons()]
        ordered, mid = sorted(values), len(values) // 2  # np.median imports numpy.ma
        return {
            "median": (ordered[mid] + ordered[~mid]) / 2,  # one element twice if odd
            "mean": float(np.mean(values)),
            "min": min(values),
            "max": max(values),
        }

    def write_csv(self, fp: IO[str]) -> None:
        """The weekly standings, byte for byte as ``csv.writer`` writes them:
        rank order within each week, player index k as ``P`` and k + 1
        zero-padded to three digits or more (never quoted), ``\\r\\n`` row
        ends.  Each week is one string joined from one f-string per row,
        over pieces made once (ids, rank tails)."""
        fp.write("season,week,player,points,rank\r\n")
        names = [f"P{k + 1:03d}" for k in range(self.config.n_players)]
        tails = [f",{rank}\r\n" for rank in range(1, self.config.n_players + 1)]
        for row, (ranked, points) in enumerate(zip(self.ranked_players, self.ranked_points)):
            season, week = divmod(row, WEEKS_PER_SEASON)
            prefix = f"{season + 1},{week + 1},"
            fp.write("".join([f"{prefix}{name},{pts}{tail}" for name, pts, tail in zip(
                map(names.__getitem__, ranked.tolist()), points.tolist(), tails)]))


def _ranked_order(points: np.ndarray, tiebreak: np.ndarray) -> np.ndarray:
    """Player indices from rank 1 down; ties broken by the random key.

    Best-18 sums stay below 2**16 (a test bounds them by the point tables),
    so ``65535 - points`` is an exact 16-bit key, which numpy sorts by radix.
    """
    return np.lexsort((tiebreak, (65535 - points).astype(np.uint16)))


def _update_best(points: np.ndarray, window: np.ndarray, slot: int, left: np.ndarray) -> None:
    """Bring ``points``, the best-18 sums of ``window``'s rows while its
    column ``slot`` held ``left``, up to date: only the rows whose entry in
    that column changed are partitioned again."""
    rows = np.flatnonzero(window[:, slot] != left)
    points[rows] = np.partition(window[rows], WEEKS_PER_SEASON - BEST_N, axis=1)[
        :, WEEKS_PER_SEASON - BEST_N:].sum(axis=1)


def _entry_plan(config: SeasonConfig, n_top: int) -> dict[int, list[tuple]]:
    """Each week's events in draw order (prestige, then calendar order) as
    ``(calendar index, event, top rank slots entering it, open seats)``.

    Each of the season-start top ``n_top`` commits to every Grand Slam and
    the first eight Masters, then picks its optional 500s and 250s greedily:
    slots in rank order take the events with the weakest committed field so
    far, skipping the weeks they already play; ties go to the earlier week,
    then the earlier calendar entry.  A slot committed to two events in one
    week enters the first one drawn.  Free players take the open seats, and
    a draw they cannot fill raises ``DomainError``.  Only the calendar, the
    choice counts and the pool size matter, so every season enters alike."""
    calendar, n = config.calendar, config.n_players
    weeks = np.array([ev.week for ev in calendar])
    plan = np.zeros((len(calendar), n_top), dtype=bool)
    plan[[ev.category == Category.GRAND_SLAM for ev in calendar]] = True
    masters = np.flatnonzero([ev.category == Category.MASTERS_1000 for ev in calendar])
    plan[masters[:MANDATORY_MASTERS]] = True
    field_size = plan.sum(axis=1)
    choices = [
        (np.flatnonzero([ev.category == category for ev in calendar]), wanted)
        for category, wanted in zip(OPTIONAL_CATEGORIES,
                                    (config.n_500_choices, config.n_250_choices))
    ]
    for slot in range(n_top):
        busy = np.zeros(WEEKS_PER_SEASON + 1, dtype=bool)
        busy[weeks[plan[:, slot]]] = True
        for events, wanted in choices:
            free = events[~busy[weeks[events]]]
            picks = free[np.lexsort((free, weeks[free], field_size[free]))[:wanted]]
            plan[picks, slot] = True
            busy[weeks[picks]] = True
            field_size[picks] += 1
    entries: dict[int, list[tuple]] = {}  # lexsort is stable: ties keep calendar order
    for idx in np.lexsort(([_PRESTIGE[ev.category] for ev in calendar], weeks)).tolist():
        ev, drawn = calendar[idx], entries.setdefault(calendar[idx].week, [])  # drawn so far
        slots = np.flatnonzero(plan[idx] & ~plan[[i for i, *_ in drawn]].any(axis=0))
        n_open = ev.draw_size - len(slots)
        free_left = n - n_top - sum(seats for *_, seats in drawn)
        if n_open > free_left:
            raise DomainError(f"week {ev.week}: only {len(slots) + free_left} entrants for a "
                              f"{ev.draw_size}-draw event from a player pool of {n}")
        drawn.append((idx, ev, slots, n_open))
    return entries


def run_season(config: SeasonConfig) -> SeasonReport:
    """Simulate ``config.n_seasons`` consecutive 52-week seasons of a pool of
    ``config.n_players`` players, known by their indices.

    The best-18 window rolls across season boundaries, so later seasons run
    in a stationary regime; ``config.burn_in`` marks how many initial seasons
    summaries discard.  Deterministic for a fixed rng_seed: each season cycle
    consumes its own child RNG stream, and all ranking ties are broken by
    seeded draws so players start exchangeable.

    An event that cannot fill its draw raises ``DomainError`` naming the
    week and the pool; each event enters as many players in every season,
    so a pool too small for the calendar fails before the first draw.
    """
    config.validate()
    n = config.n_players
    calendar = config.calendar

    season_streams = np.random.SeedSequence(config.rng_seed).spawn(config.n_seasons)
    results = np.empty((config.n_seasons * sum(ev.draw_size for ev in calendar), 4),
                       dtype=np.int32)
    n_results = 0
    # Each player's result in each of the last 52 weeks, in column
    # abs_week % 52 (a player plays at most one event a week); the best-18
    # sum of a row is the player's current ranking points.
    window = np.zeros((n, WEEKS_PER_SEASON), dtype=np.int64)
    points = np.zeros(n, dtype=np.int64)
    n_weeks = config.n_seasons * WEEKS_PER_SEASON
    ranked_players = np.empty((n_weeks, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    ranked_points = np.empty((n_weeks, n), dtype=np.uint16)  # best-18 sums fit 16 bits

    n_top = min(TOP_N_MANDATORY, n) if config.top30_mandatory else 0
    entries = _entry_plan(config, n_top)

    for season in range(1, config.n_seasons + 1):
        rng = np.random.Generator(np.random.PCG64(season_streams[season - 1]))
        order = _ranked_order(points, rng.random(n))
        top = order[:n_top]  # the k-th of them enters the events of rank slot k

        events_played = np.zeros(n, dtype=np.int64)
        for week in range(1, WEEKS_PER_SEASON + 1):
            abs_week = (season - 1) * WEEKS_PER_SEASON + week
            slot = abs_week % WEEKS_PER_SEASON
            left = window[:, slot].copy()  # the results 52 weeks old leave
            window[:, slot] = 0
            played = np.zeros(n, dtype=bool)
            played[top] = True  # the top 30 enter only their planned events
            ratings = np.maximum(points, config.points_floor, dtype=float).tolist()  # by player
            for idx, ev, slots, n_open in entries.get(week, ()):
                have = np.zeros(n, dtype=bool)
                have[top[slots]] = True
                free = order[~played[order]]  # in rank order
                if ev.category in OPTIONAL_CATEGORIES:
                    # a 500 or 250 takes players under the appetite cap
                    # first (nobody skips a Grand Slam or Masters over it)
                    capped = events_played[free] >= config.max_events_per_season
                    free = free[np.argsort(capped, kind="stable")]
                have[free[:n_open]] = True
                entrants = order[have[order]].tolist()  # in rank order
                n_seeds = SEEDS_FOR_DRAW[ev.draw_size]
                br = place_seeds(ev.draw_size, entrants[:n_seeds], rng)
                br = fill_unseeded(br, entrants[n_seeds:], rng)
                outcome = run_tournament(br, ratings, config.alpha, ev.category, rng)
                entered = np.fromiter(outcome, np.intp, ev.draw_size)
                won = np.fromiter((res.points for res in outcome.values()), np.int64,
                                  ev.draw_size)
                log = results[n_results:n_results + ev.draw_size]
                n_results += ev.draw_size
                log[:, 0], log[:, 1:3], log[:, 3] = entered, (abs_week, idx), won
                window[entered, slot] = won
                events_played += have
                played |= have

            _update_best(points, window, slot, left)
            order = _ranked_order(points, rng.random(n))
            ranked_players[abs_week - 1] = order
            ranked_points[abs_week - 1] = points[order]

    return SeasonReport(config=config, ranked_players=ranked_players,
                        ranked_points=ranked_points, results=results)


# --- flat key=value config files -------------------------------------------

def load_calendar_file(path: str | Path) -> list[CalendarEvent]:
    """Read a calendar CSV with columns week, category, draw_size.

    A missing column is a SchemaError; a week or draw size that is not an
    ASCII integer (no ``_``), or an unknown category, is a DomainError.
    """
    from .ingest import _load_columns  # only here, so simulate without a calendar skips it
    names = ("week", "category", "draw_size")
    texts = _load_columns([path], {name: name for name in names},
                          dict.fromkeys(names, (object, str)), names)
    events = []
    for week, category, draw_size in zip(*texts.values()):
        try:
            events.append(CalendarEvent(_parse_number(int, week), Category(category),
                                        _parse_number(int, draw_size)))
        except ValueError:
            raise DomainError(f"{path}: bad calendar row: week={week!r}, "
                              f"category={category!r}, draw_size={draw_size!r}") from None
    return events


def load_season_config(path: str | Path) -> tuple[SeasonConfig, Path | None]:
    """Parse a flat key=value config file (keys: the SeasonConfig fields);
    unknown keys are rejected, as are numbers ``formula._parse_number``
    refuses.  ``calendar`` is relative to the file.
    Returns the config and the calendar file it was read from, if any."""
    config = SeasonConfig()
    calendar_path = None
    base = Path(path).parent
    kinds = {f.name: type(f.default) for f in fields(SeasonConfig)}
    for line_no, key, value in _read_key_values(path):
        where = f"{path}:{line_no}"
        kind = kinds.get(key)
        if key == "calendar":
            if not value:
                raise DomainError(f"{where}: calendar names no file")
            calendar_path = base / value
            config = replace(config, calendar=load_calendar_file(calendar_path))
        elif kind is bool:
            if value.lower() not in ("true", "false"):
                raise DomainError(f"{where}: {key} must be true or false")
            config = replace(config, **{key: value.lower() == "true"})
        elif kind in (int, float):
            try:
                config = replace(config, **{key: _parse_number(kind, value)})
            except ValueError:
                raise DomainError(f"{where}: {key} must be {kind.__name__}, "
                                  f"got {value!r}") from None
        else:
            raise DomainError(f"{where}: unknown config key {key!r}")
    return config, calendar_path
