"""Season simulation: determinism, exchangeability, best-18 consistency."""

from __future__ import annotations

import csv
import datetime
import io
import os
from collections import namedtuple
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atppoints.errors import DomainError
from atppoints.points import BEST_N, TABLES, Category
from atppoints.season import (
    CalendarEvent,
    SeasonConfig,
    SeasonReport,
    WEEKS_PER_SEASON,
    _update_best,
    default_calendar,
    load_season_config,
    run_season,
)
from conftest import DATA_DIR, SeasonResult, best_18_total


def small_calendar() -> list[CalendarEvent]:
    """A light 10-event calendar for fast tests (one 128 draw included)."""
    events = [CalendarEvent(3, Category.GRAND_SLAM, 128)]
    events += [CalendarEvent(w, Category.MASTERS_1000, 64) for w in (10, 20)]
    events += [CalendarEvent(w, Category.TOUR_500, 32) for w in (15, 30)]
    events += [CalendarEvent(w, Category.TOUR_250, 32) for w in (5, 25, 35, 40, 45)]
    return events


def small_config(**overrides) -> SeasonConfig:
    defaults = dict(
        calendar=small_calendar(),
        top30_mandatory=False,
        alpha=0.8722,
        rng_seed=11,
        n_seasons=2,
    )
    defaults.update(overrides)
    return SeasonConfig(**defaults)


PLAYERS = [f"P{i:03d}" for i in range(140)]

#: Anchor date for the best-18 oracle; week 1 of season 1 maps to this Monday.
SEASON_EPOCH = datetime.date(2000, 1, 3)


def week_date(season: int, week: int) -> datetime.date:
    absolute = (season - 1) * WEEKS_PER_SEASON + (week - 1)
    return SEASON_EPOCH + datetime.timedelta(days=7 * absolute)


Standing = namedtuple("Standing", "season week player points rank")


def standings(report) -> list[Standing]:
    """The report's weekly standings rows, read back from its CSV."""
    buf = io.StringIO()
    report.write_csv(buf)
    buf.seek(0)
    rows = list(csv.reader(buf))[1:]
    return [Standing(int(s), int(w), p, int(pts), int(r)) for s, w, p, pts, r in rows]


def _reference_write_csv(report, fp) -> None:
    """The csv.writer loop ``SeasonReport.write_csv`` must match byte for byte."""
    writer = csv.writer(fp)
    writer.writerow(["season", "week", "player", "points", "rank"])
    players = np.array(report.players, dtype=object)
    ranks = range(1, len(report.players) + 1)
    for row, (ranked, points) in enumerate(zip(report.ranked_players, report.ranked_points)):
        season, week = divmod(row, WEEKS_PER_SEASON)
        writer.writerows(zip(repeat(season + 1), repeat(week + 1),
                             players[ranked].tolist(), points.tolist(), ranks))


#: Player ids csv must quote (or, for the empty id, must not), and some it
#: leaves alone.
AWKWARD_IDS = ["a,b", 'a"b', "a\nb", " a ", "", "é", "c\r", '"', "x,y\r\n\"z\""]


def synthetic_report(players, n_seasons: int, burn_in: int = 0, seed: int = 0) -> SeasonReport:
    """A report with random standings, for the writer and the summaries."""
    rng = np.random.default_rng(seed)
    n_weeks = n_seasons * WEEKS_PER_SEASON
    ranked_players = rng.random((n_weeks, len(players))).argsort(axis=1)
    ranked_points = -np.sort(-rng.integers(0, 5000, (n_weeks, len(players))), axis=1)
    return SeasonReport(config=SeasonConfig(n_seasons=n_seasons, burn_in=burn_in),
                        players=list(players), ranked_players=ranked_players,
                        ranked_points=ranked_points, results=np.empty((0, 4), dtype=np.int64))


def dated_results(report, player: int) -> list[SeasonResult]:
    """One player's rows of the results log as dated results for the best-18
    oracle (the log keeps no round, which the oracle does not read)."""
    calendar = report.config.calendar
    dated = []
    for _, abs_week, event, points in report.results[report.results[:, 0] == player].tolist():
        season, week = divmod(abs_week - 1, WEEKS_PER_SEASON)
        dated.append(SeasonResult(calendar[event].category, "", points,
                                  week_date(season + 1, week + 1)))
    return dated


#: Points one draw hands out, enumerated by hand: the winner's points plus,
#: per round, the losers times that round's points (blank cells award 0).
DRAW_TOTALS = {
    (Category.GRAND_SLAM, 128): 2000 + 1200 + 2 * 720 + 4 * 360 + 8 * 180
    + 16 * 90 + 32 * 45 + 64 * 10,
    (Category.MASTERS_1000, 64): 1000 + 600 + 2 * 360 + 4 * 180 + 8 * 90 + 16 * 45 + 32 * 10,
    (Category.TOUR_500, 32): 500 + 300 + 2 * 180 + 4 * 90 + 8 * 45,
    (Category.TOUR_250, 32): 250 + 150 + 2 * 90 + 4 * 45 + 8 * 20,
}


#: A week's result: often none, else a point-table value.
_RESULTS = st.sampled_from([0, 0, 10, 20, 45, 90, 180, 360, 500, 1000, 2000])


def _full_best_18(window: np.ndarray) -> np.ndarray:
    return np.partition(window, WEEKS_PER_SEASON - BEST_N, axis=1)[
        :, WEEKS_PER_SEASON - BEST_N:].sum(axis=1)


@settings(max_examples=80, deadline=None)
@given(window=arrays(np.int64, st.tuples(st.integers(1, 6), st.just(WEEKS_PER_SEASON)),
                     elements=_RESULTS),
       first_slot=st.integers(0, WEEKS_PER_SEASON - 1),
       weeks=st.lists(st.lists(_RESULTS, min_size=6, max_size=6), min_size=1, max_size=70))
@example(window=np.array([[90] * 52, [45] * 18 + [0] * 34, [0] * 52]), first_slot=0,
         weeks=[[0, 0, 500]] * 60 + [[10, 45, 0]] * 10)
def test_update_best_equals_full_partition(window, first_slot, weeks):
    """Week after week, the rows re-partitioned where a column changed (a
    result 52 weeks old left, a result this week came in) hold the sums a
    full partition of the window gives, rows over 18 results included."""
    points = _full_best_18(window).astype(float)
    for k, column in enumerate(weeks):
        slot = (first_slot + k) % WEEKS_PER_SEASON
        left = window[:, slot].copy()
        window[:, slot] = column[:len(window)]
        _update_best(points, window, slot, left)
        assert np.array_equal(points, _full_best_18(window))


def test_best_18_sum_fits_16_bits():
    """``_ranked_order`` sorts the 16-bit key ``65535 - points``: no best-18
    sum reaches 2**16, even 18 of the largest entry of any point table."""
    largest = max(max([*table.points_by_round.values(), *table.alternates.values()])
                  for table in TABLES.values())
    assert largest == 2000
    assert BEST_N * largest < 2**16


class TestRunSeason:
    def test_standings_shape(self):
        report = run_season(small_config(), PLAYERS)
        expected_rows = len(PLAYERS) * WEEKS_PER_SEASON * 2
        assert report.ranked_players.shape == report.ranked_points.shape
        assert report.ranked_points.size == expected_rows
        rows = standings(report)
        assert len(rows) == expected_rows
        week_one = [r for r in rows if r.season == 1 and r.week == 1]
        assert sorted(r.rank for r in week_one) == list(range(1, len(PLAYERS) + 1))
        assert sorted(report.ranked_players[0]) == list(range(len(PLAYERS)))

    def test_repeat_run_is_identical(self):
        a = run_season(small_config(), PLAYERS)
        b = run_season(small_config(), PLAYERS)
        assert np.array_equal(a.ranked_players, b.ranked_players)
        assert np.array_equal(a.ranked_points, b.ranked_points)
        assert standings(a) == standings(b)

    def test_different_seed_differs(self):
        a = run_season(small_config(), PLAYERS)
        b = run_season(small_config(rng_seed=12), PLAYERS)
        assert standings(a) != standings(b)

    def test_points_match_best_18_rule(self):
        # dual route: the simulator's rolling window against the date-based
        # best-18 rule applied to the recorded per-player results; on the
        # full calendar players hold more than 18 results in a window
        for config in (small_config(), SeasonConfig(rng_seed=11, n_seasons=2)):
            report = run_season(config, PLAYERS)
            by_player = {p: idx for idx, p in enumerate(report.players)}
            checked = 0
            for row in standings(report):
                if row.week not in (1, 20, 52) or by_player[row.player] % 17 != 0:
                    continue
                season_results = dated_results(report, by_player[row.player])
                expected = best_18_total(season_results, week_date(row.season, row.week))
                assert row.points == expected
                checked += 1
            assert checked > 50
        entries = np.bincount(report.results[:, 0], minlength=len(PLAYERS))
        assert entries[::17].max() > 2 * BEST_N

    @pytest.mark.parametrize("config", [
        small_config(),
        small_config(top30_mandatory=True, rng_seed=3),
        small_config(calendar=small_calendar() + 2 * [CalendarEvent(3, Category.TOUR_250, 32)],
                     n_players=200, rng_seed=5),
        SeasonConfig(rng_seed=11, n_seasons=2),
    ], ids=["free", "top30", "gs-week-250s", "default-calendar"])
    def test_results_log_invariants(self, config):
        players = [f"P{i:03d}" for i in range(config.n_players)]
        report = run_season(config, players)
        player, abs_week, event, points = report.results.T
        calendar = config.calendar
        assert len(report.results) == config.n_seasons * sum(ev.draw_size for ev in calendar)
        # each week holds at most one row per player
        week_player = abs_week * len(players) + player
        assert len(np.unique(week_player)) == len(week_player)
        # each event is played once a season, in its calendar week, with one
        # row per entrant, and hands out its draw's point-table total
        assert np.array_equal((abs_week - 1) % WEEKS_PER_SEASON + 1,
                              [calendar[e].week for e in event])
        draws, which, sizes = np.unique(abs_week * len(calendar) + event,
                                        return_inverse=True, return_counts=True)
        assert len(draws) == config.n_seasons * len(calendar)
        totals = np.bincount(which, weights=points)
        for draw, size, total in zip(draws, sizes, totals):
            ev = calendar[draw % len(calendar)]
            assert size == ev.draw_size
            assert total == DRAW_TOTALS[ev.category, ev.draw_size]

    def test_pool_too_small_raises(self):
        with pytest.raises(DomainError, match="pool"):
            run_season(small_config(), PLAYERS[:100])

    def test_duplicate_players_raise(self):
        with pytest.raises(DomainError, match="distinct"):
            run_season(small_config(), ["A"] * 140)

    def test_alpha_zero_everyone_exchangeable(self):
        # pure coin flips, no mandatory entries: no player index should be
        # systematically favored
        config = small_config(alpha=0.0, n_seasons=4, rng_seed=5)
        report = run_season(config, PLAYERS)
        finals = np.zeros(len(PLAYERS))
        rows = standings(report)
        for row in rows:
            if row.week == WEEKS_PER_SEASON:
                finals[int(row.player[1:])] += row.points
        idx = np.arange(len(PLAYERS))
        corr = np.corrcoef(idx, finals)[0, 1]
        assert abs(corr) < 0.25
        champions = {
            row.player
            for row in rows
            if row.week == WEEKS_PER_SEASON and row.rank == 1
        }
        assert len(champions) > 1

    def test_top30_policy_caps_their_schedule(self):
        config = small_config(
            top30_mandatory=True, n_500_choices=3, n_250_choices=3, n_seasons=2
        )
        report = run_season(config, PLAYERS)
        by_player = {p: idx for idx, p in enumerate(report.players)}
        top30 = [
            by_player[row.player]
            for row in standings(report)
            if row.season == 1 and row.week == WEEKS_PER_SEASON and row.rank <= 30
        ]
        season2_start = WEEKS_PER_SEASON + 1  # absolute week
        player, abs_week, _, _ = report.results.T
        counts = np.bincount(player[abs_week >= season2_start], minlength=len(PLAYERS))
        # restricted players enter Grand Slam + both Masters + their picks
        # only: the small calendar offers 2 of 3 wanted 500s and 3 250s
        for idx in top30:
            assert counts[idx] <= 1 + 2 + 2 + 3
        assert counts.max() > 8  # free players roam the whole calendar

    def test_mandatory_top30_in_grand_slam(self):
        config = small_config(top30_mandatory=True, n_seasons=2, rng_seed=3)
        report = run_season(config, PLAYERS)
        by_player = {p: idx for idx, p in enumerate(report.players)}
        # season 2 enters from the final season-1 standings, ties broken by a
        # fresh draw: everyone with more points than rank 31 is in its top 30
        # and must hold a season-2 Grand Slam result
        season2_start = WEEKS_PER_SEASON + 1  # absolute week
        cutoff = report.points_at_rank(1, 31)
        top = [
            by_player[row.player]
            for row in standings(report)
            if row.season == 1 and row.week == WEEKS_PER_SEASON and row.points > cutoff
        ]
        assert len(top) >= 20
        player, abs_week, event, _ = report.results.T
        grand_slam = np.array([ev.category == Category.GRAND_SLAM
                               for ev in config.calendar])[event]
        season2_gs = set(player[grand_slam & (abs_week >= season2_start)].tolist())
        for idx in top:
            assert idx in season2_gs
        gs_players = set(player[grand_slam & (abs_week < season2_start)].tolist())
        assert len(gs_players) == 128

    @pytest.mark.parametrize("season, rank", [(1, 0), (1, 141), (3, 1), (0, 1)])
    def test_points_at_rank_out_of_range(self, season, rank):
        report = run_season(small_config(), PLAYERS)
        assert report.points_at_rank(2, 140) >= 0
        with pytest.raises(DomainError, match="no final standing"):
            report.points_at_rank(season, rank)


class TestSeasonReport:
    @pytest.mark.parametrize("make", [
        lambda: run_season(small_config(), AWKWARD_IDS + PLAYERS[len(AWKWARD_IDS):]),
        lambda: run_season(small_config(top30_mandatory=True, rng_seed=3), PLAYERS),
        lambda: run_season(SeasonConfig(rng_seed=11), [f"P{i + 1:03d}" for i in range(200)]),
        lambda: synthetic_report(AWKWARD_IDS, n_seasons=2, seed=1),
        lambda: synthetic_report([""], n_seasons=1),
        lambda: synthetic_report([], n_seasons=1),
        lambda: synthetic_report([7, 1.5, True], n_seasons=1),
    ], ids=["awkward-ids", "top30", "default-calendar", "synthetic-awkward", "one-empty-id",
            "no-players", "non-str-ids"])
    def test_write_csv_equals_reference(self, make):
        report = make()
        fast, reference = io.StringIO(newline=""), io.StringIO(newline="")
        report.write_csv(fast)
        _reference_write_csv(report, reference)
        got, want = fast.getvalue(), reference.getvalue()
        # assert a bool: pytest's diff of two megabyte strings takes minutes
        same = got == want
        at = len(os.path.commonprefix([got, want]))
        lo = max(at - 30, 0)
        assert same, f"differ at {at}: {got[lo:at + 30]!r} != {want[lo:at + 30]!r}"

    @pytest.mark.parametrize("n_seasons, burn_in", [(1, 0), (4, 1), (4, 0), (6, 2), (7, 0)])
    def test_rank_summary_median_equals_numpy(self, n_seasons, burn_in):
        # odd and even counts of measured seasons; an even count averages two
        players = [f"P{i}" for i in range(40)]
        report = synthetic_report(players, n_seasons, burn_in, seed=n_seasons)
        for rank in range(1, len(players) + 1):
            measured = [report.points_at_rank(s, rank) for s in report.measured_seasons()]
            assert len(measured) == n_seasons - burn_in
            median = report.rank_summary(rank)["median"]
            assert type(median) is float
            assert median == float(np.median(measured))


class TestSeasonConfig:
    def test_default_calendar_counts(self):
        from collections import Counter

        counts = Counter(ev.category for ev in default_calendar())
        assert counts[Category.GRAND_SLAM] == 4
        assert counts[Category.MASTERS_1000] == 9
        assert counts[Category.TOUR_500] == 13
        assert counts[Category.TOUR_250] == 40

    def test_optional_choice_floor_enforced(self):
        config = SeasonConfig(top30_mandatory=True, n_500_choices=2, n_250_choices=3)
        with pytest.raises(DomainError, match="at least 6"):
            config.validate()

    def test_non_mandatory_skips_choice_floor(self):
        SeasonConfig(top30_mandatory=False, n_500_choices=0, n_250_choices=0).validate()

    def test_burn_in_bounds(self):
        with pytest.raises(DomainError, match="burn_in"):
            SeasonConfig(n_seasons=2, burn_in=2).validate()

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "season.cfg"
        path.write_text(
            "# comment line\n"
            "alpha=0.9\n"
            "rng_seed=42\n"
            "n_players=150\n"
            "n_seasons=3\n"
            "burn_in=1\n"
            "top30_mandatory=false\n"
            "n_500_choices=2\n"
            "n_250_choices=4\n"
            "max_events_per_season=20\n"
            "points_floor=2.0\n"
        )
        config, calendar_path = load_season_config(path)
        assert calendar_path is None
        assert config.alpha == 0.9
        assert config.rng_seed == 42
        assert config.n_players == 150
        assert config.n_seasons == 3
        assert config.burn_in == 1
        assert config.top30_mandatory is False
        assert config.n_500_choices == 2
        assert config.n_250_choices == 4
        assert config.max_events_per_season == 20
        assert config.points_floor == 2.0

    def test_shipped_example_config(self):
        # README points users at this file; a changed default or renamed key fails here
        assert load_season_config(DATA_DIR / "season_example.cfg") == (
            SeasonConfig(n_seasons=24, burn_in=4), None)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "season.cfg"
        path.write_text("alpa=0.9\n")
        with pytest.raises(DomainError, match="unknown config key"):
            load_season_config(path)

    def test_calendar_file(self, tmp_path):
        cal = tmp_path / "cal.csv"
        cal.write_text(
            "week,category,draw_size\n"
            "3,grand_slam,128\n"
            "10,tour_250,32\n"
        )
        cfg = tmp_path / "season.cfg"
        cfg.write_text(f"calendar={cal.name}\n")
        config, calendar_path = load_season_config(cfg)
        assert calendar_path == cal
        assert config.calendar == [
            CalendarEvent(3, Category.GRAND_SLAM, 128),
            CalendarEvent(10, Category.TOUR_250, 32),
        ]

    def test_absolute_calendar_path(self, tmp_path):
        cal = tmp_path / "cal.csv"
        cal.write_text("week,category,draw_size\n3,grand_slam,128\n")
        cfg = tmp_path / "configs" / "season.cfg"
        cfg.parent.mkdir()
        cfg.write_text(f"calendar={cal}\n")
        config, calendar_path = load_season_config(cfg)
        assert calendar_path == cal
        assert config.calendar == [CalendarEvent(3, Category.GRAND_SLAM, 128)]
