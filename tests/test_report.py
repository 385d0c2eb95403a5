"""Binned curves, calibration, rank statistics, participation, emission."""

from __future__ import annotations

import datetime
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from atppoints.errors import DomainError
from atppoints.ingest import RankingTable, load_rankings, load_raw_rows
from atppoints.model import MatchTable, Participation
from atppoints.points import Category
from atppoints.report import (
    PARTICIPATION_BANDS,
    bin_by_ratio,
    calibration_curve,
    format_participation,
    format_rank_stats,
    participation_table,
    rank_stats,
    write_curve_csv,
    write_curve_svg,
    write_participation_csv,
    write_rank_stats_csv,
)
from conftest import SAMPLE_MATCHES, SAMPLE_RANKINGS, pairs, synth_matches


class TestBinByRatio:
    def test_single_even_match_lands_centered(self):
        curve = bin_by_ratio(pairs((800, 800)), alpha=0.9)
        populated = np.nonzero(curve.counts)[0]
        assert len(populated) == 1
        bin_idx = int(populated[0])
        assert curve.counts[bin_idx] == 2
        assert curve.freq[bin_idx] == pytest.approx(0.5)
        assert curve.edges[bin_idx] <= 1.0 <= curve.edges[bin_idx + 1]

    def test_log_spacing_over_requested_span(self):
        curve = bin_by_ratio(pairs((800, 700)), alpha=1.0, n_bins=40)
        assert curve.edges[0] == pytest.approx(0.01)
        assert curve.edges[-1] == pytest.approx(100.0)
        ratios = curve.edges[1:] / curve.edges[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_counts_sum_to_twice_matches(self):
        matches = synth_matches(0.87, 3000, seed=21)
        curve = bin_by_ratio(matches, alpha=0.87)
        assert int(curve.counts.sum()) == 2 * len(matches)
        populated = curve.counts > 0
        assert np.all(curve.freq[populated] >= 0.0)
        assert np.all(curve.freq[populated] <= 1.0)

    def test_out_of_span_ratios_clamp_into_end_bins(self):
        curve = bin_by_ratio(pairs((50000, 10)), alpha=1.0, n_bins=10)
        assert curve.counts[0] == 1 and curve.counts[-1] == 1

    def test_empirical_tracks_model_on_synthetic(self):
        # generator-as-oracle: each populated bin's win frequency must sit
        # within three binomial standard deviations of the model for at
        # least 95% of bins
        matches = synth_matches(0.87, 40_000, seed=22)
        curve = bin_by_ratio(matches, alpha=0.87)
        checked = within = 0
        for count, freq, model in zip(curve.counts, curve.freq, curve.mean_predicted):
            if count < 20:
                continue
            checked += 1
            sd = math.sqrt(max(model * (1 - model), 1e-12) / count)
            if abs(freq - model) <= 3 * sd:
                within += 1
        assert checked >= 10
        assert within / checked >= 0.95

    def test_reflection_symmetry(self):
        matches = synth_matches(0.9, 5000, seed=23)
        curve = bin_by_ratio(matches, alpha=0.9)
        n = len(curve.counts)
        for k in range(n):
            mirror = n - 1 - k
            if curve.counts[k] == 0 or curve.counts[mirror] == 0:
                continue
            # paired orientations: mirrored bins hold each other's losses
            assert curve.counts[k] == curve.counts[mirror]
            assert curve.freq[k] + curve.freq[mirror] == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(DomainError, match="no matches"):
            bin_by_ratio(pairs(), alpha=1.0)

    @given(
        points=st.lists(
            st.tuples(st.floats(1.0, 1e5), st.floats(1.0, 1e5)),
            min_size=1,
            max_size=50,
        ),
        n_bins=st.integers(2, 60),
    )
    def test_count_conservation_property(self, points, n_bins):
        matches = pairs(*points)
        curve = bin_by_ratio(matches, alpha=0.8722, n_bins=n_bins)
        assert int(curve.counts.sum()) == 2 * len(matches)


class TestCalibrationCurve:
    def test_even_matches_single_bin_at_half(self):
        curve = calibration_curve(pairs((900, 900), (20, 20)), alpha=1.1)
        populated = np.nonzero(curve.counts)[0]
        assert len(populated) == 1
        k = int(populated[0])
        assert curve.edges[k] <= 0.5 <= curve.edges[k + 1]
        assert curve.freq[k] == pytest.approx(0.5)

    def test_synthetic_matches_diagonal(self):
        matches = synth_matches(0.87, 30_000, seed=24)
        curve = calibration_curve(matches, alpha=0.87)
        centers = curve.centers
        checked = 0
        for count, freq, center in zip(curve.counts, curve.freq, centers):
            if count < 500:
                continue
            checked += 1
            assert abs(freq - center) <= 0.02
        assert checked >= 5

    def test_deterministic_data_tops_out(self):
        matches = pairs(*[(1000 + k, 500) for k in range(200)])
        curve = calibration_curve(matches, alpha=50.0)
        assert curve.freq[-1] == pytest.approx(1.0)
        assert curve.freq[0] == pytest.approx(0.0)

    def test_counts_sum_to_twice_matches(self):
        matches = synth_matches(0.8, 2000, seed=25)
        curve = calibration_curve(matches, alpha=0.8)
        assert int(curve.counts.sum()) == 2 * len(matches)


class TestRankStats:
    def entries(self, rows):
        dates, ranks, points = zip(*rows)
        return RankingTable(
            date=np.array(dates, dtype="datetime64[D]"),
            rank=np.array(ranks, dtype=np.int64),
            points=np.array(points, dtype=np.float64),
        )

    def test_single_snapshot_ratios(self):
        date = datetime.date(2017, 3, 20)
        stats, skipped = rank_stats(
            self.entries([(date, 16, 2425), (date, 32, 1265), (date, 64, 773)])
        )
        assert skipped == []
        assert stats[16].ratio_mean == pytest.approx(1.9170, abs=1e-4)
        assert stats[32].ratio_mean == 1.0
        assert stats[64].ratio_mean == pytest.approx(0.6111, abs=1e-4)

    def test_two_identical_snapshots_zero_std(self):
        d1, d2 = datetime.date(2015, 1, 5), datetime.date(2016, 1, 4)
        rows = []
        for date in (d1, d2):
            rows += [(date, 16, 2000), (date, 32, 1000), (date, 64, 600)]
        stats, _ = rank_stats(self.entries(rows))
        for band in (16, 32, 64):
            assert stats[band].points_std == 0.0
            assert stats[band].n_dates == 2

    def test_band_32_ratio_column_degenerate(self):
        entries = load_rankings([SAMPLE_RANKINGS])
        stats, _ = rank_stats(entries)
        s = stats[32]
        assert (s.ratio_max, s.ratio_mean, s.ratio_min, s.ratio_std) == (1.0, 1.0, 1.0, 0.0)

    def test_incomplete_dates_skipped_with_report(self):
        d1, d2 = datetime.date(2015, 1, 5), datetime.date(2016, 1, 4)
        rows = [(d1, 16, 2000), (d1, 32, 1000), (d1, 64, 600),
                (d2, 16, 2100), (d2, 32, 1050)]  # d2 misses band 64
        stats, skipped = rank_stats(self.entries(rows))
        assert skipped == [d2]
        assert stats[16].n_dates == 1

    def test_min_le_mean_le_max(self):
        entries = load_rankings([SAMPLE_RANKINGS])
        stats, _ = rank_stats(entries)
        for s in stats.values():
            assert s.points_min <= s.points_mean <= s.points_max
            assert s.points_std >= 0

    def test_no_usable_date_raises(self):
        rows = [(datetime.date(2015, 1, 5), 16, 2000)]
        with pytest.raises(DomainError):
            rank_stats(self.entries(rows))

    def test_text_table_mentions_expected_row(self):
        entries = load_rankings([SAMPLE_RANKINGS])
        stats, _ = rank_stats(entries)
        text = format_rank_stats(stats)
        assert "expected" in text
        assert "2430" in text and "1260" in text and "650" in text

    def test_csv_emission(self):
        entries = load_rankings([SAMPLE_RANKINGS])
        stats, _ = rank_stats(entries)
        buf = io.StringIO()
        write_rank_stats_csv(stats, buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 1 + len(stats)
        assert lines[0].startswith("band,n_dates,expected_points")


class TestParticipation:
    def test_empty_rows_zero_histograms(self):
        text, rank = np.empty(0, dtype=object), np.empty(0)
        table = participation_table(replace(pairs(), participation=Participation(
            event=text, winner_id=text, loser_id=text, winner_rank=rank, loser_rank=rank,
            category=text)))
        for band in PARTICIPATION_BANDS:
            for category in (Category.TOUR_500, Category.TOUR_250):
                assert table.histograms[(band, category)] == [0] * 7
                assert table.means[(band, category)] == 0.0

    def test_hand_counted_fixture(self, tmp_path):
        # three players: A plays two 500s and one 250, B one 500, C one 250.
        header = (
            "tourney_id,tourney_name,surface,draw_size,tourney_level,tourney_date,"
            "match_num,winner_id,winner_name,winner_rank,winner_rank_points,"
            "loser_id,loser_name,loser_rank,loser_rank_points,score,best_of,round,category\n"
        )
        def row(tid, cat, winner, wrank, loser, lrank):
            return (f"{tid},T,Hard,32,A,20150202,1,{winner},W,{wrank},1000,"
                    f"{loser},L,{lrank},900,6-0 6-0,3,F,{cat}\n")
        path = tmp_path / "fixture.csv"
        path.write_text(
            header
            + row("E1", "tour_500", "A", 3, "B", 10)
            + row("E2", "tour_500", "A", 3, "X", 70)
            + row("E3", "tour_250", "A", 3, "C", 40)
            + row("E4", "tour_250", "C", 40, "Y", 80)
        )
        rows = load_raw_rows([path], participation=True)
        table = participation_table(rows)
        # hand count: top 8 = {A}: 500-count 2, 250-count 1
        assert table.histograms[(8, Category.TOUR_500)][2] == 1
        assert table.means[(8, Category.TOUR_500)] == 2.0
        assert table.means[(8, Category.TOUR_250)] == 1.0
        # top 16 = {A, B}: B played one 500, no 250
        assert table.means[(16, Category.TOUR_500)] == pytest.approx(1.5)
        assert table.histograms[(16, Category.TOUR_500)][1] == 1
        # top 64 = {A, B, C(40)}: C has two 250s? no: C played E3 and E4 -> 2
        assert table.histograms[(64, Category.TOUR_250)][2] == 1

    def test_sample_archive_runs(self):
        rows = load_raw_rows([SAMPLE_MATCHES], participation=True)
        table = participation_table(rows)
        # every real sample event carries an explicit category; only the
        # qualifier stub (level A, no category column value) is unresolved
        assert table.unresolved_events == 1
        text = format_participation(table)
        assert "tour_500" in text and "tour_250" in text
        buf = io.StringIO()
        write_participation_csv(table, buf)
        assert buf.getvalue().startswith("band,category,0,1,2,3,4,5,6_or_more,mean")


def reference_rank_stats(table, bands):
    """rank_stats by per-row dictionaries, the loop the columns replaced."""
    needed = set(bands) | {32}
    by_date = {}
    for date, rank, points in zip(table.date.tolist(), table.rank.tolist(),
                                  table.points.tolist()):
        if rank in needed:
            by_date.setdefault(date, {})[rank] = points
    usable = {d: v for d, v in sorted(by_date.items()) if needed <= v.keys()}
    skipped = [d for d in sorted(by_date) if d not in usable]
    stats = {}
    for band in bands:
        pts = np.array([v[band] for v in usable.values()])
        ratio = np.array([v[band] / v[32] for v in usable.values()])
        stats[band] = (len(pts), float(pts.max()), float(pts.mean()), float(pts.min()),
                       float(pts.std()), float(ratio.max()), float(ratio.mean()),
                       float(ratio.min()), float(ratio.std()))
    return stats, skipped


def reference_participation(table, bands):
    """participation_table by per-row and per-player loops."""
    counted = (Category.TOUR_500.value, Category.TOUR_250.value)
    event_category, event_resolved, entrants = {}, {}, {}
    block = table.participation
    for k in range(len(table)):
        category = block.category[k] or ("tour_250" if table.level[k] == "A" else "")
        if category in counted:
            event = block.event[k]
            event_category[event] = category  # the last counted row decides
            event_resolved[event] = block.category[k] != ""
            entrants.setdefault(event, set()).update((block.winner_id[k], block.loser_id[k]))
    played = {c: {} for c in counted}
    for event, players in entrants.items():
        for player in players:
            tally = played[event_category[event]]
            tally[player] = tally.get(player, 0) + 1
    rank_of, seen_on = {}, {}
    for k in range(len(table)):
        date = table.date[k]
        for player, rank in ((block.winner_id[k], block.winner_rank[k]),
                             (block.loser_id[k], block.loser_rank[k])):
            if not np.isnat(date) and not math.isnan(rank) and not date < seen_on.get(player, date):
                rank_of[player], seen_on[player] = rank, date
    histograms, means = {}, {}
    for band in bands:
        members = [p for p, r in rank_of.items() if r <= band]
        for c in counted:
            counts = [played[c].get(p, 0) for p in members]
            histograms[(band, Category(c))] = [sum(min(n, 6) == j for n in counts)
                                               for j in range(7)]
            means[(band, Category(c))] = sum(counts) / len(members) if members else 0.0
    return histograms, means, sum(not r for r in event_resolved.values())


def random_archive(seed: int) -> MatchTable:
    rng = np.random.default_rng(seed)
    n = int(rng.choice([0, 1, 40, 600]))
    pick = lambda values: rng.choice(np.array(values, dtype=object), n)  # noqa: E731
    dates = np.datetime64("2015-01-05") + rng.integers(0, 6, n).astype("timedelta64[D]")
    dates[rng.random(n) < 0.1] = np.datetime64("NaT")
    players = [f"P{k}" for k in range(int(rng.choice([2, 12, 80])))] + [""]
    ranks = [rng.integers(1, 90, n).astype(float) for _ in range(2)]
    for r in ranks:
        r[rng.random(n) < 0.15] = np.nan
    return MatchTable(
        date=dates, winner_points=np.ones(n), loser_points=np.ones(n),
        level=pick(["A", "A", "G", "M", ""]), round=pick(["F"]), score=pick([""]),
        participation=Participation(
            event=pick([f"E{k}" for k in range(int(rng.choice([1, 6, 30])))]),
            winner_id=pick(players), loser_id=pick(players),
            winner_rank=ranks[0], loser_rank=ranks[1],
            category=pick(["tour_500", "tour_250", "", "", "grand_slam", "masters_1000"]),
        ),
    )


class TestScalarReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_rank_stats_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        week, rank = np.divmod(rng.permutation(40), 5)
        keep = rng.random(40) < 0.8
        table = RankingTable(
            date=np.datetime64("2015-01-05") + 7 * week[keep],
            rank=np.array([1, 16, 32, 64, 70])[rank[keep]],
            points=rng.uniform(1.0, 5000.0, keep.sum()),
        )
        expected, expected_skipped = reference_rank_stats(table, (16, 32, 64))
        stats, skipped = rank_stats(table)
        got = {b: (s.n_dates, s.points_max, s.points_mean, s.points_min, s.points_std,
                   s.ratio_max, s.ratio_mean, s.ratio_min, s.ratio_std)
               for b, s in stats.items()}
        assert got == expected
        assert skipped == expected_skipped

    @pytest.mark.parametrize("seed", range(12))
    def test_participation_matches_loop(self, seed):
        table = random_archive(seed)
        result = participation_table(table)
        histograms, means, unresolved = reference_participation(table, (8, 16, 30, 64))
        assert result.histograms == histograms
        assert result.means == means
        assert result.unresolved_events == unresolved

    @pytest.mark.parametrize("rows", [
        # event, winner, loser, winner rank, loser rank, category, level
        [("10", "10", "9", 3, 12, "tour_500", "A"), ("9", "9", "10", 12, 3, "tour_250", "A"),
         ("10", "", "2", 20, 7, "tour_500", "A"), ("", "2", "", 7, 20, "", "A"),
         ("9", "10", "", 3, 20, "tour_500", "A")],
        [("b", "z", "y", 60, 1, "", "A"), ("a", "y", "x", 1, 9, "tour_500", "G"),
         ("b", "x", "z", 9, 60, "tour_250", "A"), ("c", "y", "z", 1, 60, "tour_250", "A"),
         ("a", "w", "z", 15, 60, "masters_1000", "M")],
        [("E10", "P10", "P9", 1, 2, "tour_250", "A"), ("E9", "P9", "P10", 2, 1, "", "A"),
         ("E10", "P1", "P10", 5, 1, "", "A"), ("E1", "P10", "P1", 1, 5, "tour_500", "A"),
         ("E9", "P1", "P9", 5, 2, "tour_500", "A"), ("", "", "P9", 30, 2, "tour_250", "A")],
    ], ids=["numeric-ids", "reverse-sorted", "prefixed"])
    def test_participation_first_seen_order(self, rows):
        # first-seen order of the event and player ids is not their sorted order
        event, winner, loser, wrank, lrank, category, level = (list(c) for c in zip(*rows))
        sides = [p for pair in zip(winner, loser) for p in pair]
        assert list(dict.fromkeys(event)) != sorted(set(event))
        assert list(dict.fromkeys(sides)) != sorted(set(sides))
        text = lambda values: np.array(values, dtype=object)  # noqa: E731
        n = len(rows)
        table = MatchTable(
            date=np.datetime64("2015-01-05") + np.arange(n).astype("timedelta64[D]"),
            winner_points=np.ones(n), loser_points=np.ones(n), level=text(level),
            round=text(["F"] * n), score=text([""] * n), participation=Participation(
                event=text(event), winner_id=text(winner), loser_id=text(loser),
                winner_rank=np.array(wrank, float), loser_rank=np.array(lrank, float),
                category=text(category)),
        )
        result = participation_table(table)
        histograms, means, unresolved = reference_participation(table, (8, 16, 30, 64))
        assert result.histograms == histograms
        assert result.means == means
        assert result.unresolved_events == unresolved


class TestEmission:
    def test_curve_csv_layout(self):
        matches = synth_matches(0.9, 500, seed=26)
        curve = bin_by_ratio(matches, alpha=0.9)
        buf = io.StringIO()
        write_curve_csv(curve, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "bin_center,count,empirical_freq,model_value"
        assert len(lines) == 1 + len(curve.counts)

    def test_svg_is_wellformed_with_curve_and_points(self):
        matches = synth_matches(0.9, 2000, seed=27)
        for curve, log_x in (
            (bin_by_ratio(matches, alpha=0.9), True),
            (calibration_curve(matches, alpha=0.9), False),
        ):
            buf = io.StringIO()
            write_curve_svg(curve, buf, "title", "x")
            svg = buf.getvalue()
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")
            assert "<polyline" in svg
            assert "<circle" in svg

    def test_svg_deterministic(self):
        matches = synth_matches(0.9, 300, seed=28)
        curve = bin_by_ratio(matches, alpha=0.9)
        a, b = io.StringIO(), io.StringIO()
        write_curve_svg(curve, a, "t", "x")
        write_curve_svg(curve, b, "t", "x")
        assert a.getvalue() == b.getvalue()
