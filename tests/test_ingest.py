"""Archive loading, exclusion accounting, ranking snapshots."""

from __future__ import annotations

import csv
import datetime
import gc
import io
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import atppoints.ingest
from atppoints.errors import SchemaError
from atppoints.ingest import (
    DEFAULT_LEVELS,
    _format_points,
    dump_observations,
    load_matches,
    load_rankings,
    load_raw_rows,
    load_schema,
)
from atppoints.model import MatchTable
from atppoints.season import default_calendar, load_calendar_file
from conftest import SAMPLE_MATCHES, SAMPLE_RANKINGS, tables_equal

# Counted once by an independent script over the bundled sample, frozen.
GOLDEN = dict(kept=184, zero=2, missing=1, filtered=3, total=190)


class TestLoadMatches:
    def test_sample_golden_report(self):
        observations, report = load_matches([SAMPLE_MATCHES])
        assert report.kept == GOLDEN["kept"]
        assert report.dropped_zero_points == GOLDEN["zero"]
        assert report.dropped_missing == GOLDEN["missing"]
        assert report.dropped_out_of_range == GOLDEN["filtered"]
        assert report.total_rows == GOLDEN["total"]
        assert len(observations) == GOLDEN["kept"]

    def test_counter_sum_invariant_under_filters(self):
        variants = [
            dict(),
            dict(include_qualifying=True),
            dict(drop_walkovers=True),
            dict(levels=frozenset({"G"})),
            dict(date_range=(datetime.date(2015, 1, 1), None)),
            dict(date_range=(None, datetime.date(2014, 12, 31))),
        ]
        for kwargs in variants:
            _, report = load_matches([SAMPLE_MATCHES], **kwargs)
            assert report.total_rows == GOLDEN["total"], kwargs

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        with open(SAMPLE_MATCHES) as src:
            path.write_text(src.readline())
        observations, report = load_matches([path])
        assert len(observations) == 0
        assert report.total_rows == 0

    def test_zero_point_rows_dropped(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(
            "tourney_id,tourney_name,surface,draw_size,tourney_level,tourney_date,"
            "match_num,winner_id,winner_name,winner_rank,winner_rank_points,"
            "loser_id,loser_name,loser_rank,loser_rank_points,score,best_of,round,category\n"
            "T1,Test Open,Hard,32,A,20140113,1,1,A,10,1200,2,B,20,0,6-0 6-0,3,R32,\n"
        )
        observations, report = load_matches([path])
        assert len(observations) == 0
        assert report.dropped_zero_points == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_points_counted_missing(self, tmp_path, bad):
        path = tmp_path / "nonfinite.csv"
        path.write_text(
            "tourney_id,tourney_name,surface,draw_size,tourney_level,tourney_date,"
            "match_num,winner_id,winner_name,winner_rank,winner_rank_points,"
            "loser_id,loser_name,loser_rank,loser_rank_points,score,best_of,round,category\n"
            f"T1,Test Open,Hard,32,A,20140113,1,1,A,10,{bad},2,B,20,900,6-0 6-0,3,R32,\n"
            f"T1,Test Open,Hard,32,A,20140113,2,3,C,11,900,4,D,21,{bad},6-0 6-0,3,R32,\n"
            "T1,Test Open,Hard,32,A,20140113,3,5,E,12,1200,6,F,22,800,6-0 6-0,3,R32,\n"
        )
        observations, report = load_matches([path])
        assert report.dropped_missing == 2
        assert report.kept == 1
        assert np.isfinite(observations.winner_points).all()
        assert np.isfinite(observations.loser_points).all()

    def test_missing_columns_listed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tourney_date,round\n20140101,F\n")
        with pytest.raises(SchemaError) as err:
            load_matches([path])
        message = str(err.value)
        for column in ("tourney_level", "winner_rank_points", "loser_rank_points"):
            assert column in message

    def test_unreadable_file_raises_oserror_with_path(self, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(OSError, match="nope.csv"):
            load_matches([missing])

    def test_order_stable_and_rerun_identical(self):
        first, _ = load_matches([SAMPLE_MATCHES])
        second, _ = load_matches([SAMPLE_MATCHES])
        for column in vars(first):
            assert np.array_equal(getattr(first, column), getattr(second, column)), column
        # output preserves input row order: kept raw rows line up 1:1
        raw = load_raw_rows([SAMPLE_MATCHES])
        raw_kept = raw[
            np.isin(raw.level, list(DEFAULT_LEVELS))
            & ~np.isin(raw.round, ["Q1", "Q2", "Q3", "Q4"])
            & ~np.isnat(raw.date)
            & np.isfinite(raw.winner_points) & (raw.winner_points != 0)
            & np.isfinite(raw.loser_points) & (raw.loser_points != 0)
        ]
        assert raw_kept.winner_points.tolist() == first.winner_points.tolist()

    def test_date_range_filter(self):
        observations, report = load_matches(
            [SAMPLE_MATCHES],
            date_range=(datetime.date(2015, 1, 1), datetime.date(2015, 12, 31)),
        )
        assert (observations.date.astype("datetime64[Y]") == np.datetime64("2015", "Y")).all()
        assert report.out_of_range_breakdown["date"] > 0

    def test_level_filter_and_tags(self):
        observations, _ = load_matches([SAMPLE_MATCHES], levels=frozenset({"G"}))
        assert observations
        assert (observations.level == "grand_slam").all()

    def test_qualifying_excluded_by_default(self):
        excluded, _ = load_matches([SAMPLE_MATCHES])
        included, _ = load_matches([SAMPLE_MATCHES], include_qualifying=True)
        assert len(included) == len(excluded) + 2  # sample holds two Q rows

    def test_walkover_flag(self):
        kept, _ = load_matches([SAMPLE_MATCHES])
        dropped, report = load_matches([SAMPLE_MATCHES], drop_walkovers=True)
        assert len(kept) == len(dropped) + 1
        assert report.out_of_range_breakdown["walkover"] == 1

    def test_schema_file_remaps_columns(self, tmp_path):
        data = tmp_path / "other.csv"
        data.write_text(
            "day,tier,stage,wpts,lpts\n"
            "20130204,A,F,2000,1000\n"
        )
        schema_file = tmp_path / "schema.cfg"
        schema_file.write_text(
            "date=day\nlevel=tier\nround=stage\nwinner_points=wpts\nloser_points=lpts\n"
        )
        schema = load_schema(schema_file)
        observations, report = load_matches([data], schema=schema)
        assert report.kept == 1
        assert observations.winner_points[0] == 2000

    def test_schema_unknown_key_rejected(self, tmp_path):
        schema_file = tmp_path / "schema.cfg"
        schema_file.write_text("dates=day\n")
        with pytest.raises(SchemaError, match="unknown schema field"):
            load_schema(schema_file)

    def test_dump_observations_format(self):
        observations, _ = load_matches([SAMPLE_MATCHES])
        buf = io.StringIO()
        dump_observations(observations[:2], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "date,level,round,winner_points,loser_points"
        assert len(lines) == 3

    @pytest.mark.parametrize("make", [
        lambda: load_matches([SAMPLE_MATCHES])[0],
        lambda: awkward_table(),
        lambda: awkward_table()[:1],
        lambda: awkward_table()[:0],
    ], ids=["sample", "awkward", "one-row", "empty"])
    def test_dump_observations_equals_reference(self, make):
        table = make()
        got, want = io.StringIO(), io.StringIO()
        dump_observations(table, got)
        _reference_dump_observations(table, want)
        # a bool, so that a failure does not diff long strings
        assert (got.getvalue() == want.getvalue()) is True

    @pytest.mark.parametrize("make", [
        lambda: load_matches([SAMPLE_MATCHES])[0],
        lambda: awkward_table(),
    ], ids=["sample", "awkward"])
    def test_dump_observations_writes_chunks(self, make, monkeypatch):
        table = make()
        whole = io.StringIO()
        dump_observations(table, whole)
        writes: list[str] = []
        monkeypatch.setattr(atppoints.ingest, "_CHUNK_ROWS", 3)
        dump_observations(table, SimpleNamespace(write=writes.append))
        assert ("".join(writes) == whole.getvalue()) is True
        # the header, then one write per chunk of at most 3 rows
        assert len(writes) == 1 + -(-len(table) // 3)
        assert max(len(list(csv.reader(io.StringIO(text, newline="")))) for text in writes) == 3


def _reference_dump_observations(table: MatchTable, fp) -> None:
    """dump_observations through csv.writer, one row at a time."""
    writer = csv.writer(fp)
    writer.writerow(["date", "level", "round", "winner_points", "loser_points"])
    writer.writerows(zip(
        np.datetime_as_string(table.date).tolist(), table.level.tolist(), table.round.tolist(),
        map(_format_points, table.winner_points.tolist()),
        map(_format_points, table.loser_points.tolist()),
    ))


def awkward_table() -> MatchTable:
    """Rounds and levels that csv must quote, and points of every form."""
    texts = ["a,b", 'a"b', "a\rb", "a\nb", "\r\n", " a ", "a ", " ", "", '""', '"', "é",
             "ünï,cödé", "R32", "tour"]
    points = [0.5, 1234.25, 1 / 3, 0.1 + 0.2, 1e-300, 1e300, 2.0**63, 1e16 + 2,
              123456789012345678.0, 7.0, 5e-324, 2.5e15 + 0.5, 4096.0, 1.0, 99.99]
    n = len(texts)
    text = np.array(texts, dtype=object)
    return MatchTable(
        date=np.datetime64("2009-12-31") + np.arange(n).astype("timedelta64[D]"),
        winner_points=np.array(points), loser_points=np.array(points[::-1]),
        level=text, round=text[::-1].copy(), score=text,
    )


class TestRawRows:
    def test_category_column_parsed(self):
        # the counted events in id order: 2014-501, 2015-402, 2015-502 and
        # 2015-900, which alone names no category; 2014-780's level "A" rows
        # name grand_slam, so they are not counted as 250s
        block = load_raw_rows([SAMPLE_MATCHES], participation=True).participation
        assert block.event_category.tolist() == ["tour_250", "tour_500", "tour_250", "tour_250"]
        assert block.event_resolved.tolist() == [True, True, True, False]

    def test_row_order_matches_file(self):
        rows = load_raw_rows([SAMPLE_MATCHES], participation=True)
        with open(SAMPLE_MATCHES, newline="") as fp:
            lines = list(csv.DictReader(fp))
        # one table entry per data line (the first on line 2), in file order
        assert len(rows) == len(lines)
        assert rows.level.tolist() == [r["tourney_level"] for r in lines]
        assert rows.score.tolist() == [r["score"] for r in lines]


class TestLoadRankings:
    def test_sample_contains_2017_snapshot(self):
        table = load_rankings([SAMPLE_RANKINGS])
        snapshot = table.date == np.datetime64("2017-03-20")
        assert snapshot.any()
        by_rank = dict(zip(table.rank[snapshot].tolist(), table.points[snapshot].tolist()))
        assert by_rank[16] == 2425
        assert by_rank[32] == 1265
        assert by_rank[64] == 773

    def test_absent_date_reported_not_fabricated(self):
        wanted = datetime.date(2011, 1, 3)
        table = load_rankings([SAMPLE_RANKINGS])
        rows = table.date == np.datetime64(wanted)
        assert len(table.rank[rows]) == 0
        assert wanted not in table.date.tolist()

    def test_duplicate_rank_raises(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "ranking_date,rank,player,points\n"
            "20150105,5,AA,900\n"
            "20150105,5,BB,880\n"
        )
        with pytest.raises(SchemaError, match="duplicate rank"):
            load_rankings([path])

    def test_duplicate_rank_names_physical_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "ranking_date,rank,player,points\n"
            "\n"
            "\n"
            "20150105,5,AA,900\n"
            "20150105,5,BB,880\n"
        )
        with pytest.raises(SchemaError, match=r"dup\.csv:5: duplicate rank 5 for date 2015-01-05"):
            load_rankings([path])

    def test_duplicate_rank_names_second_file(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("ranking_date,rank,player,points\n20150105,5,AA,900\n")
        second.write_text("ranking_date,rank,player,points\n"
                          "20150105,6,CC,870\n20150105,5,BB,880\n")
        with pytest.raises(SchemaError, match=r"b\.csv:3: duplicate rank 5"):
            load_rankings([first, second])

    @pytest.mark.parametrize("contents, named", [
        (["ranking_date,rank,player,points\n20150105,5,AA,900\n\n\n20150105,5,BB,880\n"],
         "f0.csv:5: duplicate rank 5"),
        (["ranking_date,rank,player,points\r\n20150105,5,AA,900\r\n\r\n20150105,5,BB,880\r\n"],
         "f0.csv:4: duplicate rank 5"),
        (['ranking_date,rank,player,points\n20150105,4,"A\nA",900\n\n20150105,5,BB,880\n'
          '20150105,5,CC,870\n'], "f0.csv:6: duplicate rank 5"),
        (['ranking_date,rank,player,points\n20150105,5,AA,900\n20150105,5,"B\n\nB",880\n'],
         "f0.csv:5: duplicate rank 5"),
        (["ranking_date,rank,player,points\n20150105,5,AA,900\n20150105,6,BB,880\n",
          "ranking_date,rank,player,points\n\n20160104,1,CC,990\n20150105,7,DD,850\n"
          "\n20150105,6,EE,840\n",
          "ranking_date,rank,player,points\n20150105,6,FF,830\n"],
         "f1.csv:6: duplicate rank 6"),
        (["ranking_date,rank,player,points\n20150105,5,AA,900\n",
          "ranking_date,rank,player,points\n\n20150105,5,BB,880\n",
          "ranking_date,rank,player,points\n20150105,5,CC,870\n"],
         "f1.csv:3: duplicate rank 5"),
    ], ids=["blank-lines-before", "crlf", "quoted-newline-before", "quoted-newline-in-row",
            "second-of-three", "first-row-of-second"])
    def test_duplicate_rank_line(self, tmp_path, contents, named):
        # the line csv.reader.line_num gives: where the later copy's row ends
        paths = []
        for k, text in enumerate(contents):
            paths.append(tmp_path / f"f{k}.csv")
            paths[-1].write_bytes(text.encode())
        with pytest.raises(SchemaError, match=named + " for date 2015-01-05"):
            load_rankings(paths)

    def test_player_column_optional(self, tmp_path):
        # only ranking_date, rank and points are read; a player column is ignored
        path = tmp_path / "bare.csv"
        with open(SAMPLE_RANKINGS, newline="", encoding="utf-8") as fp:
            rows = [row[:2] + row[3:] for row in csv.reader(fp)]
        assert rows[0] == ["ranking_date", "rank", "points"]
        with open(path, "w", newline="", encoding="utf-8") as fp:
            csv.writer(fp).writerows(rows)
        assert tables_equal(load_rankings([path]), load_rankings([SAMPLE_RANKINGS]))

    def test_all_dates_when_unfiltered(self):
        table = load_rankings([SAMPLE_RANKINGS])
        assert len(table.rank) == 300
        assert set(table.date.tolist()) == {
            datetime.date(2015, 1, 5),
            datetime.date(2016, 1, 4),
            datetime.date(2017, 3, 20),
        }

    def test_columns_and_skipped_rows(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text(
            "ranking_date,rank,player,points\n"
            "20150105,1,AA,900\n"
            "2015-01-05,2.0, BB ,880.5\n"
            "20150105,3,CC,nan\n"
            "20150105,4,DD,inf\n"
            "20150105,5,EE,0\n"
            "20150105,6,FF,-10\n"
            "20150105,7,GG,abc\n"
            "20150105,x,HH,800\n"
            "bad,9,II,800\n"
            "20150105,1e30,JJ,800\n"
            # a skipped row does not count as a rank's first copy
            "20150105,3,KK,700\n"
        )
        table = load_rankings([path])
        assert table.date.dtype == np.dtype("datetime64[D]")
        assert table.rank.dtype == np.int64
        assert table.points.dtype == np.float64
        assert table.rank.tolist() == [1, 2, 3]
        assert table.points.tolist() == [900.0, 880.5, 700.0]
        assert set(table.date.tolist()) == {datetime.date(2015, 1, 5)}


@pytest.fixture
def small_chunks(monkeypatch):
    """Reads of 3 rows at a time, so that a small file spans many chunks."""
    monkeypatch.setattr(atppoints.ingest, "_CHUNK_ROWS", 3)


def _ranking_lines(n: int) -> list[str]:
    return [f"201501{5 + k // 64:02d},{k % 64 + 1},p{k},{5000 - k}" for k in range(n)]


class TestChunkedReads:
    """A file read a few rows at a time loads as it does in one chunk."""

    @pytest.mark.parametrize("participation", [False, True], ids=["model", "all"])
    def test_raw_rows_equal_one_chunk(self, monkeypatch, participation):
        paths = [SAMPLE_MATCHES, SAMPLE_MATCHES]
        whole = load_raw_rows(paths, participation=participation)
        monkeypatch.setattr(atppoints.ingest, "_CHUNK_ROWS", 3)
        assert tables_equal(load_raw_rows(paths, participation=participation), whole)

    def test_rankings_equal_one_chunk(self, monkeypatch):
        whole = load_rankings([SAMPLE_RANKINGS])
        monkeypatch.setattr(atppoints.ingest, "_CHUNK_ROWS", 3)
        assert tables_equal(load_rankings([SAMPLE_RANKINGS]), whole)

    def test_calendar_equal_one_chunk(self, monkeypatch, tmp_path):
        path = tmp_path / "calendar.csv"
        path.write_text("week,category,draw_size\n" + "".join(
            f"{ev.week},{ev.category.value},{ev.draw_size}\n" for ev in default_calendar()))
        whole = load_calendar_file(path)
        monkeypatch.setattr(atppoints.ingest, "_CHUNK_ROWS", 3)
        assert load_calendar_file(path) == whole == default_calendar()

    def test_projected_columns_equal_full_read(self, small_chunks):
        full = load_raw_rows([SAMPLE_MATCHES], participation=True)
        model = load_raw_rows([SAMPLE_MATCHES])
        assert model.participation is None
        assert tables_equal(model, replace(full, participation=None))

    @pytest.mark.parametrize("blank_lines", [0, 1, 5])
    def test_duplicate_rank_in_later_chunk(self, small_chunks, tmp_path, blank_lines):
        lines = _ranking_lines(20)
        lines[4:4] = [""] * blank_lines
        lines.append("20150105,7,dup,10")  # a copy of rank 7, on the last line
        path = tmp_path / "r.csv"
        path.write_text("ranking_date,rank,player,points\n" + "\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=rf"r\.csv:{len(lines) + 1}: duplicate rank 7 "):
            load_rankings([path])
        assert gc.isenabled()

    def test_duplicate_rank_in_later_file(self, small_chunks, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
        header = "ranking_date,rank,player,points\n"
        paths[0].write_text(header + "\n".join(_ranking_lines(10)) + "\n")
        paths[1].write_text(header + "20160104,1,x,900\n\n20160104,2,y,800\n")
        paths[2].write_text(header + "20160104,3,z,700\n" * 2 + "20150105,9,w,5\n")
        with pytest.raises(SchemaError, match=r"c\.csv:3: duplicate rank 3 for date 2016-01-04"):
            load_rankings(paths)
        assert gc.isenabled()

    @pytest.mark.parametrize("load", [load_rankings, load_raw_rows])
    def test_bad_byte_in_later_chunk(self, small_chunks, tmp_path, load):
        # past the first 8 KiB that the text reader decodes with the header
        path = tmp_path / "late.csv"
        body = "\n".join(_ranking_lines(600)).encode()
        path.write_bytes(b"ranking_date,rank,player,points,tourney_date,tourney_level,round,"
                         b"winner_rank_points,loser_rank_points\n" + body + b"\n\xff\n")
        assert len(body) > 8192
        with pytest.raises(SchemaError, match=rf"{path.name}: not UTF-8 text"):
            load([path])
        assert gc.isenabled()

    def test_missing_column_checked_before_rows(self, small_chunks, tmp_path):
        path = tmp_path / "bad.csv"
        body = "\n".join(_ranking_lines(600)).encode()
        path.write_bytes(b"ranking_date,rank,player\n" + body + b"\n\xff\n")
        with pytest.raises(SchemaError, match="missing required columns: points"):
            load_rankings([path])
        assert gc.isenabled()

    def test_collector_runs_between_chunks(self, small_chunks, monkeypatch):
        # the pause covers reading a chunk, not the caller's work on it
        seen = []
        dtype, parse = atppoints.ingest._COLUMNS["score"]
        monkeypatch.setitem(atppoints.ingest._COLUMNS, "score",
                            (dtype, lambda text: seen.append(gc.isenabled()) or parse(text)))
        load_raw_rows([SAMPLE_MATCHES])
        assert seen and all(seen)
        assert gc.isenabled()
