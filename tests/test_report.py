"""Binned curves, calibration, rank statistics, participation, emission."""

from __future__ import annotations

import datetime
import io
import math
import xml.etree.ElementTree as ET
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import atppoints.ingest
from atppoints.errors import DomainError
from atppoints.ingest import RankingTable, load_rankings
from atppoints.points import Category
from atppoints.report import (
    PARTICIPATION_BANDS,
    bin_by_ratio,
    calibration_curve,
    format_participation,
    format_rank_stats,
    rank_stats,
    write_curve_csv,
    write_curve_svg,
    write_participation_csv,
    write_rank_stats_csv,
)
from conftest import SAMPLE_MATCHES, SAMPLE_RANKINGS, pairs, synth_matches, tallied


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
        assert stats[16].ratio["mean"] == pytest.approx(1.9170, abs=1e-4)
        assert stats[32].ratio["mean"] == 1.0
        assert stats[64].ratio["mean"] == pytest.approx(0.6111, abs=1e-4)

    def test_two_identical_snapshots_zero_std(self):
        d1, d2 = datetime.date(2015, 1, 5), datetime.date(2016, 1, 4)
        rows = []
        for date in (d1, d2):
            rows += [(date, 16, 2000), (date, 32, 1000), (date, 64, 600)]
        stats, _ = rank_stats(self.entries(rows))
        for band in (16, 32, 64):
            assert stats[band].points["std"] == 0.0
            assert stats[band].n_dates == 2

    def test_band_32_ratio_column_degenerate(self):
        entries = load_rankings([SAMPLE_RANKINGS])
        stats, _ = rank_stats(entries)
        s = stats[32]
        assert (s.ratio["max"], s.ratio["mean"], s.ratio["min"], s.ratio["std"]) == (
            1.0, 1.0, 1.0, 0.0)

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
            assert s.points["min"] <= s.points["mean"] <= s.points["max"]
            assert s.points["std"] >= 0

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
    def test_empty_rows_zero_histograms(self, tmp_path):
        path = write_archive(tmp_path / "empty.csv", [])
        _, table = tallied([path])
        assert table.unresolved_events == 0
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
        _, table = tallied([path])
        # hand count: top 8 = {A}: 500-count 2, 250-count 1
        assert table.histograms[(8, Category.TOUR_500)][2] == 1
        assert table.means[(8, Category.TOUR_500)] == 2.0
        assert table.means[(8, Category.TOUR_250)] == 1.0
        # top 16 = {A, B}: B played one 500, no 250
        assert table.means[(16, Category.TOUR_500)] == pytest.approx(1.5)
        assert table.histograms[(16, Category.TOUR_500)][1] == 1
        # top 64 = {A, B, C(40)}: C has two 250s? no: C played E3 and E4 -> 2
        assert table.histograms[(64, Category.TOUR_250)][2] == 1

    def test_fractional_rank_is_unranked(self, tmp_path):
        # a rank that is not a whole number does not parse: A is in no band
        day = datetime.date(2015, 1, 5)
        rows = [Row("E1", "Open", "A", "B", "7.5", 3, "tour_500", "A", day)]
        _, table = tallied([write_archive(tmp_path / "a.csv", rows)])
        for band in PARTICIPATION_BANDS:
            assert table.histograms[(band, Category.TOUR_500)] == [0, 1, 0, 0, 0, 0, 0]

    def test_sample_archive_runs(self):
        _, table = tallied([SAMPLE_MATCHES])
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


class Row(NamedTuple):
    """One archive row of a participation fixture; None is a blank field."""

    tourney_id: str
    tourney_name: str
    winner_id: str
    loser_id: str
    winner_rank: int | None
    loser_rank: int | None
    category: str              # a Category value, or "" for none
    level: str
    date: datetime.date | None


_ARCHIVE_HEADER = ("tourney_id,tourney_name,tourney_level,tourney_date,round,winner_id,"
                   "winner_rank,winner_rank_points,loser_id,loser_rank,loser_rank_points,"
                   "score,category\n")


def write_archive(path, rows):
    """An archive file of fixture rows, in the default schema's columns."""
    def field(value) -> str:
        if value is None:
            return ""
        return value.strftime("%Y%m%d") if isinstance(value, datetime.date) else str(value)

    path.write_text(_ARCHIVE_HEADER + "".join(
        f"{r.tourney_id},{r.tourney_name},{r.level},{field(r.date)},F,{r.winner_id},"
        f"{field(r.winner_rank)},1000,{r.loser_id},{field(r.loser_rank)},900,6-4 6-4,"
        f"{r.category}\n" for r in rows))
    return path


def load_split(tmp_path, rows, at):
    """participation_table of ``rows`` written as two files split at row ``at``."""
    paths = [write_archive(tmp_path / "a.csv", rows[:at]),
             write_archive(tmp_path / "b.csv", rows[at:])]
    return tallied(paths)[1]


def reference_participation(rows, bands):
    """participation_table by per-row and per-player loops."""
    counted = (Category.TOUR_500.value, Category.TOUR_250.value)
    event_category, event_resolved, entrants = {}, {}, {}
    for r in rows:
        category = r.category or ("tour_250" if r.level == "A" else "")
        if category in counted:
            event = r.tourney_id or r.tourney_name
            event_category[event] = category  # the last counted row decides
            event_resolved[event] = r.category != ""
            entrants.setdefault(event, set()).update((r.winner_id, r.loser_id))
    played = {c: {} for c in counted}
    for event, players in entrants.items():
        for player in players:
            tally = played[event_category[event]]
            tally[player] = tally.get(player, 0) + 1
    rank_of, seen_on = {}, {}
    for r in rows:
        for player, rank in ((r.winner_id, r.winner_rank), (r.loser_id, r.loser_rank)):
            if r.date is not None and rank is not None and not r.date < seen_on.get(player, r.date):
                rank_of[player], seen_on[player] = rank, r.date
    histograms, means = {}, {}
    for band in bands:
        members = [p for p, r in rank_of.items() if r <= band]
        for c in counted:
            counts = [played[c].get(p, 0) for p in members]
            histograms[(band, Category(c))] = [sum(min(n, 6) == j for n in counts)
                                               for j in range(7)]
            means[(band, Category(c))] = sum(counts) / len(members) if members else 0.0
    return histograms, means, sum(not r for r in event_resolved.values())


def assert_matches_reference(result, rows):
    histograms, means, unresolved = reference_participation(rows, PARTICIPATION_BANDS)
    assert result.histograms == histograms
    assert result.means == means
    assert result.unresolved_events == unresolved


def random_archive(seed: int) -> list[Row]:
    rng = np.random.default_rng(seed)
    n = int(rng.choice([0, 1, 40, 600]))
    pick = lambda values: rng.choice(values, n).tolist()  # noqa: E731
    day = datetime.date(2015, 1, 5)
    dates = [None if rng.random() < 0.1 else day + datetime.timedelta(days=int(k))
             for k in rng.integers(0, 6, n)]
    players = [f"P{k}" for k in range(int(rng.choice([2, 12, 80])))] + [""]
    ranks = [[None if rng.random() < 0.15 else int(k) for k in rng.integers(1, 90, n)]
             for _ in range(2)]
    # a blank id falls back on the name, which may equal another event's id
    ids = [f"E{k}" for k in range(int(rng.choice([1, 6, 30])))] + [""]
    return [Row(*fields) for fields in zip(
        pick(ids), pick(["N0", "N1", "E0"]), pick(players), pick(players), *ranks,
        pick(["tour_500", "tour_250", "", "", "grand_slam", "masters_1000"]),
        pick(["A", "A", "G", "M", ""]), dates)]


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
        got = {b: (s.n_dates, s.points["max"], s.points["mean"], s.points["min"],
                   s.points["std"], s.ratio["max"], s.ratio["mean"], s.ratio["min"],
                   s.ratio["std"])
               for b, s in stats.items()}
        assert got == expected
        assert skipped == expected_skipped

    @pytest.mark.parametrize("seed", range(12))
    def test_participation_matches_loop(self, monkeypatch, tmp_path, seed):
        rows = random_archive(seed)
        at = int(np.random.default_rng(seed).integers(0, len(rows) + 1))
        for chunk_rows in (3, 1024):
            monkeypatch.setattr(atppoints.ingest, "_CHUNK_ROWS", chunk_rows)
            assert_matches_reference(load_split(tmp_path, rows, at), rows)

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
    def test_participation_first_seen_order(self, tmp_path, rows):
        # first-seen order of the event and player ids is not their sorted order
        event, winner, loser, wrank, lrank, category, level = (list(c) for c in zip(*rows))
        sides = [p for pair in zip(winner, loser) for p in pair]
        assert list(dict.fromkeys(event)) != sorted(set(event))
        assert list(dict.fromkeys(sides)) != sorted(set(sides))
        day = datetime.date(2015, 1, 5)
        rows = [Row(e, "T", w, lo, wr, lr, c, lv, day + datetime.timedelta(days=k))
                for k, (e, w, lo, wr, lr, c, lv) in enumerate(rows)]
        assert_matches_reference(load_split(tmp_path, rows, len(rows)), rows)


#: A two-file fixture whose rows cross chunk and file boundaries at every
#: chunk size of ``TestTallyAcrossChunks``.
D1, D2, D3 = (datetime.date(2015, 1, d) for d in (5, 12, 19))
BOUNDARY_ROWS = [
    # file a
    Row("E1", "Open", "A", "B", 5, 9, "tour_500", "A", D2),
    Row("E1", "Open", "A", "C", 4, 12, "tour_500", "A", D2),
    Row("", "Cup", "B", "", 20, 5, "", "A", D2),               # a blank id ranks 5; event "Cup"
    Row("E2", "Cup", "C", "E", 11, 3, "", "A", None),          # NaT: E never ranks
    Row("E2", "Cup", "D", "B", 38, 8, "tour_250", "A", D3),    # B's latest: 8
    Row("E3", "Slam", "A", "D", 2, 39, "grand_slam", "G", D3),  # A's latest: 2
    # file b: every id again
    Row("E1", "Open", "C", "A", 10, 12, "tour_250", "A", D1),  # E1 ends a 250; A's date is older
    Row("Cup", "X", "", "C", None, 20, "", "A", D3),           # NaN rank: the blank id keeps 5
    Row("E2", "Cup", "D", "C", 41, 14, "", "M", D3),           # not counted; C ties on D3: 14
]


class TestTallyAcrossChunks:
    """The tally read a few rows at a time equals the per-row reference."""

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1024])
    def test_boundary_fixture(self, monkeypatch, tmp_path, chunk_rows):
        monkeypatch.setattr(atppoints.ingest, "_CHUNK_ROWS", chunk_rows)
        result = load_split(tmp_path, BOUNDARY_ROWS, 6)
        assert_matches_reference(result, BOUNDARY_ROWS)
        # A (rank 2), the blank id (5) and B (8) are the top 8, and C (14) joins them in the
        # top 16: a later side wins a tie, an older date, a NaT date or a NaN rank does not
        assert sum(result.histograms[(8, Category.TOUR_500)]) == 3
        assert sum(result.histograms[(16, Category.TOUR_500)]) == 4
        # "Cup" alone: E1 and E2 name their category in their last counted row
        assert result.unresolved_events == 1


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
