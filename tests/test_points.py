"""Point tables, best-18 rule, and ideal-schedule arithmetic."""

from __future__ import annotations

import datetime
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from atppoints.errors import DomainError
from atppoints.points import (
    BEST_N,
    IDEAL_SCHEDULE,
    Category,
    dump_tables,
    expected_points,
    expected_ratio_to_32,
    points_for,
    points_or_zero,
)
from conftest import SeasonResult, best_18_total

GS = Category.GRAND_SLAM
M = Category.MASTERS_1000
T500 = Category.TOUR_500
T250 = Category.TOUR_250

DAY = datetime.date(2014, 3, 3)

# The full published table, every defined cell.
GOLDEN_CELLS = {
    (GS, "W"): 2000, (GS, "F"): 1200, (GS, "SF"): 720, (GS, "QF"): 360,
    (GS, "R16"): 180, (GS, "R32"): 90, (GS, "R64"): 45, (GS, "R128"): 10,
    (GS, "Q"): 25,
    (M, "W"): 1000, (M, "F"): 600, (M, "SF"): 360, (M, "QF"): 180,
    (M, "R16"): 90, (M, "R32"): 45, (M, "R64"): 10, (M, "Q"): 16,
    (T500, "W"): 500, (T500, "F"): 300, (T500, "SF"): 180, (T500, "QF"): 90,
    (T500, "R16"): 45, (T500, "Q"): 20,
    (T250, "W"): 250, (T250, "F"): 150, (T250, "SF"): 90, (T250, "QF"): 45,
    (T250, "R16"): 20, (T250, "Q"): 12,
}

GOLDEN_ALTERNATES = {
    (M, "R64", 96): 25,
    (M, "R128", 96): 10,
    (T500, "R32", 48): 20,
    (T250, "R32", 48): 5,
}


class TestPointTable:
    def test_every_published_cell(self):
        for (category, tag), value in GOLDEN_CELLS.items():
            assert points_for(category, tag) == value

    def test_draw_size_alternates(self):
        for (category, tag, draw), value in GOLDEN_ALTERNATES.items():
            assert points_for(category, tag, draw_size=draw) == value

    def test_alternate_not_taken_for_other_draws(self):
        assert points_for(M, "R64", draw_size=56) == 10
        assert points_for(M, "R64", draw_size=96) == 25

    def test_undefined_cell_raises(self):
        with pytest.raises(DomainError, match="not awarded"):
            points_for(T250, "R64")
        with pytest.raises(DomainError, match="not awarded"):
            points_for(M, "R128")  # defined only for the 96 draw

    def test_points_or_zero_on_undefined_cell(self):
        assert points_or_zero(T250, "R32", draw_size=32) == 0
        assert points_or_zero(T250, "R32", draw_size=48) == 5

    @pytest.mark.parametrize("lookup", [points_for, points_or_zero])
    def test_unknown_category_raises(self, lookup):
        # only an undefined cell of a known category awards 0
        with pytest.raises(DomainError, match="^unknown category 'nope'$"):
            lookup("nope", "W")

    def test_winner_points_double_per_category(self):
        winners = [points_for(c, "W") for c in (T250, T500, M, GS)]
        assert winners == [250 * 2**k for k in range(4)]

    def test_grand_slam_ratio_law(self):
        # consecutive round ratios from W down to R64 are 2 or 5/3
        tags = ["W", "F", "SF", "QF", "R16", "R32", "R64"]
        values = [points_for(GS, t) for t in tags]
        for a, b in zip(values, values[1:]):
            assert a / b in (2.0, 5 / 3)

    def test_rounds_strictly_decrease(self):
        ladders = {
            GS: ["W", "F", "SF", "QF", "R16", "R32", "R64", "R128"],
            M: ["W", "F", "SF", "QF", "R16", "R32", "R64"],
            T500: ["W", "F", "SF", "QF", "R16"],
            T250: ["W", "F", "SF", "QF", "R16"],
        }
        for category, ladder in ladders.items():
            values = [points_for(category, t) for t in ladder]
            assert values == sorted(values, reverse=True)
            assert len(set(values)) == len(values)

    def test_dump_tables_covers_all_cells(self):
        buf = io.StringIO()
        dump_tables(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "category,round,points,alternate_draw,alternate_points"
        # every defined cell and every alternate appears
        body = "\n".join(lines[1:])
        assert "grand_slam,W,2000" in body
        assert "masters_1000,R64,10,96,25" in body
        assert "tour_250,R32,,48,5" in body


def result(points: int, day: datetime.date) -> SeasonResult:
    return SeasonResult(T250, "W", points, day)


class TestBest18:
    def test_empty_is_zero(self):
        assert best_18_total([], DAY) == 0

    def test_twenty_equal_entries_count_eighteen(self):
        results = [result(10, DAY - datetime.timedelta(days=7 * k)) for k in range(20)]
        assert best_18_total(results, DAY) == 180

    def test_nineteen_distinct_drops_the_minimum(self):
        # hand-enumerated oracle: 19 distinct in-window values
        values = [5, 12, 19, 26, 33, 40, 47, 54, 61, 68,
                  75, 82, 89, 96, 103, 110, 117, 124, 131]
        assert len(values) == 19 and len(set(values)) == 19
        results = [
            result(v, DAY - datetime.timedelta(days=7 * k))
            for k, v in enumerate(values)
        ]
        assert best_18_total(results, DAY) == sum(values) - min(values)

    def test_window_is_364_days_inclusive_of_as_of(self):
        inside_today = result(100, DAY)
        inside_edge = result(100, DAY - datetime.timedelta(days=363))
        outside_edge = result(100, DAY - datetime.timedelta(days=364))
        future = result(100, DAY + datetime.timedelta(days=1))
        assert best_18_total([inside_today], DAY) == 100
        assert best_18_total([inside_edge], DAY) == 100
        assert best_18_total([outside_edge], DAY) == 0
        assert best_18_total([future], DAY) == 0

    @given(st.lists(st.integers(0, 2000), max_size=40), st.integers(0, 2000))
    def test_monotone_under_added_result(self, values, extra):
        results = [result(v, DAY) for v in values]
        before = best_18_total(results, DAY)
        after = best_18_total(results + [result(extra, DAY)], DAY)
        assert after >= before

    @given(st.lists(st.integers(0, 2000), max_size=BEST_N))
    def test_upto_18_entries_is_plain_sum(self, values):
        results = [result(v, DAY) for v in values]
        assert best_18_total(results, DAY) == sum(values)

    def test_two_same_day_results_sum(self):
        assert best_18_total([result(90, DAY), result(45, DAY)], DAY) == 135


class TestExpectedPoints:
    def test_ideal_schedule_fills_the_best_n(self):
        # 4 Grand Slams, 8 Masters, 3 500s and 3 250s: the 18 results that count
        assert sum(IDEAL_SCHEDULE.values()) == BEST_N == 18

    def test_band_totals(self):
        assert expected_points(16) == 2430
        assert expected_points(32) == 1260
        assert expected_points(64) == 650

    def test_band_32_arithmetic(self):
        assert 90 * 4 + 45 * 8 + 90 * 3 + 90 * 3 == expected_points(32)

    def test_ratios_to_32(self):
        assert expected_ratio_to_32(16) == pytest.approx(1.9286, abs=1e-4)
        assert expected_ratio_to_32(32) == 1.0
        assert expected_ratio_to_32(64) == pytest.approx(0.5159, abs=1e-4)

    def test_unsupported_band_raises(self):
        with pytest.raises(DomainError, match="band"):
            expected_points(20)
