"""Match-archive and ranking-snapshot loading.

Consumes the de-facto public match-archive layout: comma-separated files
with a header row, dates as 8-digit yyyymmdd, single-letter tournament
level codes, and winner/loser rank-point columns.  A flat key=value schema
file can remap any column name for other archives.

An archive loads into one ``MatchTable`` in a single pass, its ``score``
text read as a walkover flag.  Rows are then dropped (and counted) when a
player's rank points are missing, non-finite or zero, or when the row falls
outside the requested date/level/round/walkover scope.  Ranking snapshots
load the same way into one ``RankingTable``, keeping the rows whose date and
rank parse and whose points are finite and positive.  A row that is not CSV
(an unclosed quote, say) is a SchemaError.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import gc
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .defaults import DEFAULT_LEVELS
from .errors import SchemaError
from .formula import _ENCODING, _parse_number, _read_key_values
from .model import MatchTable

#: Logical field -> column name in the archive files.
DEFAULT_SCHEMA: dict[str, str] = {
    "date": "tourney_date",
    "level": "tourney_level",
    "round": "round",
    "draw_size": "draw_size",
    "tournament_id": "tourney_id",
    "tournament_name": "tourney_name",
    "winner_id": "winner_id",
    "loser_id": "loser_id",
    "winner_rank": "winner_rank",
    "loser_rank": "loser_rank",
    "winner_points": "winner_rank_points",
    "loser_points": "loser_rank_points",
    "score": "score",
    # Optional: a column holding an explicit category tag (grand_slam,
    # masters_1000, tour_500, tour_250).  The stock archive has none (500-
    # and 250-series events both arrive as level "A"); the bundled sample
    # carries one so participation tables resolve exactly.
    "category": "category",
}

_QUALIFYING_ROUNDS = frozenset({"Q1", "Q2", "Q3", "Q4"})

#: Level letter -> normalized tag on the selected matches.
LEVEL_TAGS = {
    "G": "grand_slam",
    "M": "masters_1000",
    "A": "tour",
    "F": "finals",
    "D": "davis_cup",
    "O": "olympics",
}


def load_schema(path: str | Path) -> dict[str, str]:
    """Read a key=value schema file; keys must be known logical field names
    and each value a column name, not empty."""
    schema = dict(DEFAULT_SCHEMA)
    for line_no, key, value in _read_key_values(path):
        if key not in DEFAULT_SCHEMA:
            raise SchemaError(f"{path}:{line_no}: unknown schema field {key!r}")
        if not value:
            raise SchemaError(f"{path}:{line_no}: schema field {key!r} names no column")
        schema[key] = value
    return schema


@dataclass
class IngestReport:
    """Row accounting for one select_matches call.

    kept + dropped_zero_points + dropped_missing + dropped_out_of_range
    equals the number of data rows read.  dropped_out_of_range is the sum of
    the breakdown, which counts the rows each scope filter (level, qualifying
    rounds, walkovers, date range) dropped.
    """

    kept: int = 0
    dropped_zero_points: int = 0
    dropped_missing: int = 0
    out_of_range_breakdown: dict[str, int] = field(
        default_factory=lambda: {"level": 0, "round": 0, "walkover": 0, "date": 0}
    )

    @property
    def dropped_out_of_range(self) -> int:
        return sum(self.out_of_range_breakdown.values())

    @property
    def total_rows(self) -> int:
        return (
            self.kept
            + self.dropped_zero_points
            + self.dropped_missing
            + self.dropped_out_of_range
        )

    def summary(self) -> str:
        lines = [
            f"rows read          {self.total_rows}",
            f"kept               {self.kept}",
            f"dropped: zero pts  {self.dropped_zero_points}",
            f"dropped: missing   {self.dropped_missing}",
            f"dropped: filtered  {self.dropped_out_of_range}",
        ]
        for key, count in self.out_of_range_breakdown.items():
            lines.append(f"  by {key:<9}      {count}")
        return "\n".join(lines)


def _parse_date(text: str) -> datetime.date | None:
    """A date written yyyymmdd or yyyy-mm-dd in ASCII digits; any other
    form (an ISO week date, say) does not parse."""
    text = text.strip()
    if len(text) == 10 and text[4] == text[7] == "-":
        text = text[:4] + text[5:7] + text[8:]
    if len(text) != 8 or not (text.isascii() and text.isdigit()):
        return None
    try:
        return datetime.date(int(text[:4]), int(text[4:6]), int(text[6:]))
    except ValueError:
        return None


def _parse_float(text: str) -> float | None:
    try:
        return _parse_number(float, text)
    except ValueError:
        return None


def _parse_int(text: str) -> int | None:
    """A whole number, written as an integer or a float (``32.0``, ``1e30``)."""
    value = _parse_float(text)
    return int(value) if value is not None and value.is_integer() else None


def _each_distinct(fn: Callable, values: Sequence, memo: dict | None = None) -> list:
    """fn of every value, evaluated once per distinct value; a ``memo`` passed
    in keeps the values evaluated so far across calls."""
    memo = {} if memo is None else memo
    memo.update((v, fn(v)) for v in set(values).difference(memo))
    return list(map(memo.__getitem__, values))


def _is_walkover(score: str) -> bool:
    needle = score.strip().replace(" ", "").replace(".", "").upper()
    return "W/O" in needle or "WO" == needle or "WALKOVER" in needle


#: Logical field -> (column dtype, parser of one field), in the order a
#: MatchTable's columns are built; a parser's None becomes NaN in float64.
_COLUMNS: dict[str, tuple[object, Callable[[str], object]]] = {
    "date": ("datetime64[D]", lambda t: np.datetime64(_parse_date(t) or "NaT", "D")),
    **{name: (object, str.strip) for name in ("level", "round")},
    "score": (bool, _is_walkover),
    "winner_points": (np.float64, _parse_float),
    "loser_points": (np.float64, _parse_float),
}
#: Fields whose parse memo lasts a chunk, not the read: an archive has about
#: one distinct score per match; every other field repeats a few texts.
_CHUNK_MEMO = frozenset({"score"})


#: Rows of a CSV file held as lists at once: a read's transient memory is
#: bounded by this, not by the size of the file.
_CHUNK_ROWS = 1024


def _read_chunks(
    path: str | Path, schema: dict[str, str], names: Iterable[str],
    required: Iterable[str | tuple[str, ...]],
) -> Iterator[list[Sequence[str]]]:
    """The text of each named logical field, in ``names`` order, for up to
    ``_CHUNK_ROWS`` rows of a CSV file at a time: blank lines hold no row, a
    short row or an absent column reads "", and cells past the header's
    width are ignored.  Before any row is read, the header must hold each
    ``required`` field (a tuple: one of its fields), and each column a named
    field reads must appear in it at most once and be read by one field.
    A row csv cannot read (an unclosed quote, say) is a SchemaError.
    ``_line_of_row`` finds the file line of a row when an error names it."""
    try:
        with open(path, newline="", encoding=_ENCODING) as fp:
            reader = csv.reader(fp, strict=True)
            header = next(reader, [])
            missing = [" or ".join(schema[f] for f in group) for group in
                       ((f,) if isinstance(f, str) else f for f in required)
                       if all(schema[f] not in header for f in group)]
            if missing:
                raise SchemaError(f"{path}: missing required columns: {', '.join(missing)}")
            read_by: dict[str, str] = {}  # column -> the field that reads it
            for name in filter(schema.get, names):
                column = schema[name]
                if column in read_by:
                    raise SchemaError(f"{path}: fields {read_by[column]} and {name} "
                                      f"both read column {column}")
                if header.count(column) > 1:
                    raise SchemaError(f"{path}: column {column} appears more than once")
                read_by[column] = name
            index = {name: i for i, name in enumerate(header)}
            at = [index.get(schema.get(name) or None) for name in names]
            present = [i for i in at if i is not None]
            rows = filter(None, reader)
            while True:
                # the row lists die inside the pause, before the caller parses
                with _cycle_collector_paused():
                    read, n_rows = _columns_of(rows, present)
                if not n_rows:
                    return
                read = iter(read)
                yield [("",) * n_rows if i is None else next(read) for i in at]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise SchemaError(f"{path}:{_line_of_bad_row(path)}: not valid CSV ({exc})") from None


def _columns_of(rows: Iterator[list[str]], at: list[int]) -> tuple[list[tuple[str, ...]], int]:
    """Columns ``at`` of the next ``_CHUNK_ROWS`` rows, and the number of rows."""
    chunk = list(islice(rows, _CHUNK_ROWS))
    if not chunk or not at:
        return [], len(chunk)
    width = max(at) + 1
    if min(map(len, chunk)) < width:
        chunk = [row + [""] * (width - len(row)) for row in chunk]
    pick = itemgetter(*at)
    return (list(zip(*map(pick, chunk))) if len(at) > 1 else [tuple(map(pick, chunk))],
            len(chunk))


@contextlib.contextmanager
def _cycle_collector_paused() -> Iterator[None]:
    """Pause the cycle collector: a CSV read makes a list per row, none of them
    in a cycle, and the collector would walk them every 700 allocations."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _line_of_row(path: str | Path, row: int) -> int:
    """The file line that row ``row`` (from 0, as ``_read_chunks`` counts
    rows) ends on, as ``csv.reader.line_num`` counts lines."""
    with open(path, newline="", encoding=_ENCODING) as fp:
        reader = csv.reader(fp, strict=True)
        next(reader, [])
        next(islice(filter(None, reader), row, None))
        return reader.line_num


def _line_of_bad_row(path: str | Path) -> int:
    """The file line on which the first row that csv cannot read starts."""
    with open(path, newline="", encoding=_ENCODING) as fp:
        reader, line = csv.reader(fp, strict=True), 1
        with contextlib.suppress(csv.Error):
            for _ in reader:
                line = reader.line_num + 1
        return line


def _load_columns(
    paths: Sequence[str | Path],
    schema: dict[str, str],
    columns: dict[str, tuple[object, Callable[[str], object]]],
    required: Iterable[str | tuple[str, ...]],
    fold: Callable[[dict[str, list]], None] | None = None,
) -> tuple[dict[str, np.ndarray], list[int]]:
    """Each of ``columns`` parsed from every file and joined in file-argument
    and row order, and the number of rows of each file.  A column's parsed
    values gather in one list across chunks and files; each distinct text is
    parsed once per call, or per chunk for a ``_CHUNK_MEMO`` field.  ``fold``,
    when given, takes each chunk's parsed values by field as they stream; a
    column whose dtype is None is parsed for it alone and never joined."""
    memos: dict[str, dict] = {name: {} for name in columns if name not in _CHUNK_MEMO}
    values = {name: [] for name, (dtype, _) in columns.items() if dtype is not None}
    sizes = []
    for path in paths:
        sizes.append(0)
        for texts in _read_chunks(path, schema, columns, required):
            chunk = {name: _each_distinct(parse, text, memos.get(name))
                     for (name, (_, parse)), text in zip(columns.items(), texts)}
            if fold:
                fold(chunk)
            for name, column in values.items():
                column += chunk[name]
            sizes[-1] += len(texts[0])
    # each list goes as soon as its column is built
    return {name: np.array(values.pop(name), dtype)
            for name, (dtype, _) in columns.items() if dtype is not None}, sizes


#: The logical fields a file must have for a MatchTable.
_REQUIRED_FIELDS = ("date", "level", "round", "winner_points", "loser_points")


def load_raw_rows(
    paths: Sequence[str | Path],
    schema: dict[str, str] | None = None,
    tally=None,
    require_score: bool = False,
) -> MatchTable:
    """Parse archive files into one table, in file-argument and row order.

    Every row is kept, parsed or not; ``select_matches`` decides which rows
    the model sees.  Only the fields of the table's columns are parsed, and,
    given a ``tally`` (a ``report.ParticipationTally``), the fields of its
    ``columns``, which its ``add`` folds chunk by chunk as the rows stream,
    so no per-row column of them is built.  A file must have a column for
    each field the table needs and each of the tally's ``required`` ones,
    and for ``score`` too when ``require_score`` is set (a walkover mask
    read from no column would drop nothing).  ``draw_size`` is a valid
    schema key but is not read.
    """
    columns = dict(_COLUMNS)
    required = _REQUIRED_FIELDS + (("score",) if require_score else ())
    if tally is not None:
        columns.update(tally.columns)
        required += tally.required
    table, _ = _load_columns(paths, schema or DEFAULT_SCHEMA, columns, required,
                             tally and tally.add)
    return MatchTable(walkover=table.pop("score"), **table)


def select_matches(
    table: MatchTable,
    date_range: tuple[datetime.date | None, datetime.date | None] | None = None,
    levels: frozenset[str] | set[str] = DEFAULT_LEVELS,
    include_qualifying: bool = False,
    drop_walkovers: bool = False,
) -> tuple[MatchTable, IngestReport]:
    """The rows of a raw table that reach the model, and their accounting.

    Filter precedence per row: level, qualifying round, walkover (when the
    flag is set), missing or non-finite date/points, date range, zero
    points.  A row is counted by the first filter that drops it.  Kept rows
    stay in input order.
    """
    report = IngestReport()
    left = np.ones(len(table), dtype=bool)

    def drop(mask: np.ndarray) -> int:
        hit = mask & left
        left[hit] = False
        return int(np.count_nonzero(hit))

    by = report.out_of_range_breakdown
    by["level"] = drop(~np.array(_each_distinct(levels.__contains__, table.level), dtype=bool))
    if not include_qualifying:
        by["round"] = drop(np.array(
            _each_distinct(_QUALIFYING_ROUNDS.__contains__, table.round), dtype=bool))
    if drop_walkovers:
        by["walkover"] = drop(table.walkover)
    wp, lp = table.winner_points, table.loser_points
    report.dropped_missing = drop(np.isnat(table.date) | ~np.isfinite(wp) | ~np.isfinite(lp))
    # an open end is NaT, which no date is before or after
    first, last = (np.datetime64(d or "NaT", "D") for d in date_range or (None, None))
    by["date"] = drop((table.date < first) | (table.date > last))
    report.dropped_zero_points = drop((wp <= 0) | (lp <= 0))
    report.kept = int(np.count_nonzero(left))

    kept = table[left]
    tags = _each_distinct(lambda letter: LEVEL_TAGS.get(letter, "other"), kept.level)
    rounds = np.where(kept.round == "", "unknown", kept.round)
    return replace(kept, level=np.array(tags, dtype=object), round=rounds), report


def load_matches(
    paths: Sequence[str | Path],
    date_range: tuple[datetime.date | None, datetime.date | None] | None = None,
    levels: frozenset[str] | set[str] = DEFAULT_LEVELS,
    include_qualifying: bool = False,
    drop_walkovers: bool = False,
    schema: dict[str, str] | None = None,
    tally=None,
) -> tuple[MatchTable, IngestReport]:
    """Load archives, folding every row into a ``tally`` if given
    (``load_raw_rows``), and keep the rows that reach the model (``select_matches``)."""
    return select_matches(load_raw_rows(paths, schema, tally, require_score=drop_walkovers),
                          date_range, levels, include_qualifying, drop_walkovers)


def dump_observations(table: MatchTable, fp) -> None:
    """Write normalized matches as ``csv.writer`` would: a header, then one
    row per match, ``\\r\\n`` row ends, level and round csv-quoted where
    needed, points as an int when integral and as ``repr`` otherwise.  Rows
    are formatted and written ``_CHUNK_ROWS`` at a time."""
    fp.write("date,level,round,winner_points,loser_points\r\n")
    point_texts, level_texts, round_texts = {}, {}, {}  # memos shared by the chunks
    for start in range(0, len(table), _CHUNK_ROWS):
        rows = table[start:start + _CHUNK_ROWS]
        points = _each_distinct(_format_points, np.column_stack(
            (rows.winner_points, rows.loser_points)).ravel().tolist(), point_texts)
        fp.write("".join([f"{date},{level},{rnd},{won},{lost}\r\n"
                          for date, level, rnd, won, lost
                          in zip(np.datetime_as_string(rows.date).tolist(),
                                 _each_distinct(_csv_field, rows.level.tolist(), level_texts),
                                 _each_distinct(_csv_field, rows.round.tolist(), round_texts),
                                 points[0::2], points[1::2])]))


def _format_points(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def _csv_field(text: str) -> str:
    """``text`` as one field of a row of several, quoted where csv would."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# --- ranking snapshots ------------------------------------------------------

#: Ranking field -> column name in the snapshot files.
RANKING_SCHEMA: dict[str, str] = {
    "date": "ranking_date",
    "rank": "rank",
    "points": "points",
}


#: Ranking field -> (column dtype, parser), parsed as the match columns are.
_RANKING_COLUMNS = {"date": _COLUMNS["date"], "rank": (np.float64, _parse_int),
                    "points": _COLUMNS["winner_points"]}


@dataclass(frozen=True)
class RankingTable:
    """Ranking snapshot rows as equal-length numpy columns, in file-argument
    and row order; ``(date, rank)`` is unique and points are finite and
    positive."""

    date: np.ndarray    # datetime64[D]
    rank: np.ndarray    # int64
    points: np.ndarray  # float64


def load_rankings(paths: Sequence[str | Path]) -> RankingTable:
    """Load ranking snapshot files (the ``RANKING_SCHEMA`` columns; any other
    column, such as ``player``, is ignored) into one table.

    A row is skipped when its date or rank does not parse or its points are
    not a finite positive number.  Ranks must be unique within a date: a
    duplicate raises SchemaError naming the file and line of its later copy.
    Only that error reads lines: it reads the named file once more to find
    the line (``_line_of_row``).
    """
    columns, sizes = _load_columns(paths, RANKING_SCHEMA, _RANKING_COLUMNS, _RANKING_COLUMNS)
    date, rank, points = columns.values()
    # a rank that is NaN or outside int64 did not parse; NaN points fail both tests
    keep = ~np.isnat(date) & (np.abs(rank) < 2.0**63) & np.isfinite(points) & (points > 0)
    table = RankingTable(date[keep], rank[keep].astype(np.int64), points[keep])
    # a stable sort by (date, rank) puts each key's copies together in row order
    order = np.lexsort((table.rank, table.date))
    same = (np.diff(table.rank[order]) == 0) & (np.diff(table.date[order]) == np.timedelta64(0))
    if same.any():
        later = order[1:][same].min()
        row = int(np.flatnonzero(keep)[later])
        ends = np.cumsum(sizes)
        k = int(np.searchsorted(ends, row, side="right"))
        line = _line_of_row(paths[k], row - int(ends[k] - sizes[k]))
        raise SchemaError(f"{paths[k]}:{line}: duplicate rank {table.rank[later]} "
                          f"for date {table.date[later]}")
    return table
