"""Deterministic synthetic inputs for the benchmark, generated from a seed.

Everything here uses its own arithmetic, not the package's, so the
benchmark's output checks do not trust the code they measure:

* ``write_archive`` writes yearly match files in the public archive layout
  (the column set of ``scripts/make_sample_data.py``).  Outcomes are drawn
  from ``p = r**ALPHA / (1 + r**ALPHA)`` on the written integer points.
  Each file carries known numbers of zero-point, missing-point, qualifying,
  non-tour-level and walkover rows; ``meta.json`` records the row counts
  each ingest scope must report.  A weekly rankings file goes beside them.
* ``write_fields`` writes the two draw fields of the title-odds Monte Carlo.

Outputs are cached per seed: a directory whose ``meta.json`` exists is
complete and is reused.
"""

from __future__ import annotations

import csv
import datetime
import json
import os
from pathlib import Path

import numpy as np

ALPHA = 0.87
N_FILES = 10
N_TRAIN = 8
ROWS_PER_FILE = 5_000
FIRST_YEAR = 2008
N_POOL = 1500
RANKING_DEPTH = 100
CACHED_SEEDS = 3  # input sets kept per kind; older ones are deleted

COLUMNS = [
    "tourney_id", "tourney_name", "surface", "draw_size", "tourney_level",
    "tourney_date", "match_num", "winner_id", "winner_name", "winner_rank",
    "winner_rank_points", "loser_id", "loser_name", "loser_rank",
    "loser_rank_points", "score", "best_of", "round", "category",
]

# (level, draw, category tag, players drawn from the top-k of the pool)
EVENT_KINDS = {
    "G": ("G", 128, "grand_slam", 400),
    "M": ("M", 64, "masters_1000", 250),
    "5": ("A", 32, "tour_500", 300),
    "2": ("A", 32, "tour_250", 500),
    "U": ("A", 32, "", 500),  # an untagged tour event, as in the stock archive
}
# One year's event mix: 4 Slams, 9 Masters, 13 500s, 40 250s, 2 untagged.
YEAR_MIX = "G" * 4 + "M" * 9 + "5" * 13 + "2" * 40 + "U" * 2
ROUNDS = ["R128", "R64", "R32", "R16", "QF", "SF", "F"]
SCORES = ["6-4 6-4", "7-6(5) 6-3", "6-3 3-6 6-2", "6-2 6-7(4) 7-5", "7-5 6-4"]
SURFACES = ["Hard", "Clay", "Grass"]

# Injected rows per file: kind -> (low, high) count range.
INJECTED = {
    "zero": (30, 60),
    "missing": (15, 40),
    "qualifying": (80, 160),
    "nontour": (80, 160),
    "walkover": (8, 24),
}

# Ingest scopes the workloads use: name -> (file indices, date_from, date_to).
SCOPES = {
    "fit": (list(range(N_TRAIN)),
            datetime.date(FIRST_YEAR, 1, 1),
            datetime.date(FIRST_YEAR + N_TRAIN - 1, 12, 31)),
    "evaluate": (list(range(N_TRAIN, N_FILES)), None, None),
    "all": (list(range(N_FILES)), None, None),
}

# Draw fields of the title-odds Monte Carlo: name -> (draw, category, top-k).
FIELDS = {
    "grand_slam": (128, "grand_slam", 128),
    "tour_250": (32, "tour_250", 200),
}


def _seq_rounds(draw: int) -> list[str]:
    start = ROUNDS.index(f"R{draw}")
    tags: list[str] = []
    size = draw
    for tag in ROUNDS[start:]:
        tags.extend([tag] * (size // 2))
        size //= 2
    return tags


def _pool() -> np.ndarray:
    """Base ranking points by pool rank, strictly decreasing."""
    return 14000.0 * np.arange(1, N_POOL + 1) ** -0.85 + 1.0


def _year_events(rng: np.random.Generator, year: int, n_rows: int) -> list[dict]:
    """Events for one yearly file, cycling the year's mix until n_rows are covered.

    The first event is dated the last day of the previous year, as the
    public archive files the first tournament of a season.
    """
    events: list[dict] = []
    covered = 0
    order = list(YEAR_MIX)
    k = 0
    while covered < n_rows:
        if k % len(order) == 0:
            rng.shuffle(order)
        kind = order[k % len(order)]
        level, draw, category, top_k = EVENT_KINDS[kind]
        if k == 0:
            date = datetime.date(year - 1, 12, 31)
        else:
            date = datetime.date(year, 1, 1) + datetime.timedelta(days=7 * (k % 52))
        events.append({
            "id": f"{year}-{k:04d}", "name": f"Event {year} {k}", "level": level,
            "draw": draw, "category": category, "top_k": top_k,
            "date": date, "surface": SURFACES[k % 3],
        })
        covered += draw - 1
        k += 1
    return events


def _archive_file(rng: np.random.Generator, year: int, base: np.ndarray):
    """Rows of one yearly file plus each row's fate under the ingest filters."""
    counts = {kind: int(rng.integers(lo, hi + 1)) for kind, (lo, hi) in INJECTED.items()}
    n_tour = ROWS_PER_FILE - sum(counts.values())
    events = _year_events(rng, year, n_tour)

    # Tour rows, event by event, rounds in draw order.
    ev_of_row: list[int] = []
    round_of_row: list[str] = []
    for e_idx, ev in enumerate(events):
        tags = _seq_rounds(ev["draw"])
        take = min(len(tags), n_tour - len(ev_of_row))
        ev_of_row.extend([e_idx] * take)
        round_of_row.extend(tags[:take])
    kind_of_row = ["tour"] * n_tour

    # Injected rows borrow a random tour event; non-tour rows get their own.
    for kind, count in counts.items():
        for _ in range(count):
            e_idx = int(rng.integers(0, len(events)))
            ev_of_row.append(e_idx)
            round_of_row.append(f"Q{int(rng.integers(1, 4))}" if kind == "qualifying" else "R32")
            kind_of_row.append(kind)
    n = len(kind_of_row)
    perm = rng.permutation(n)
    ev_of_row = [ev_of_row[k] for k in perm]
    round_of_row = [round_of_row[k] for k in perm]
    kind_of_row = [kind_of_row[k] for k in perm]

    top_k = np.array([events[e]["top_k"] for e in ev_of_row])
    top_k[np.array(kind_of_row) == "nontour"] = N_POOL
    i = (rng.random(n) * top_k).astype(np.int64)
    j = (i + 1 + (rng.random(n) * (top_k - 1)).astype(np.int64)) % top_k
    pts_i = np.maximum(1, np.round(base[i] * rng.uniform(0.9, 1.1, n))).astype(np.int64)
    pts_j = np.maximum(1, np.round(base[j] * rng.uniform(0.9, 1.1, n))).astype(np.int64)
    log_r = np.log(pts_i.astype(np.float64)) - np.log(pts_j.astype(np.float64))
    p_i = 1.0 / (1.0 + np.exp(-ALPHA * log_r))
    i_wins = rng.random(n) < p_i
    win, lose = np.where(i_wins, i, j), np.where(i_wins, j, i)
    win_pts, lose_pts = np.where(i_wins, pts_i, pts_j), np.where(i_wins, pts_j, pts_i)
    side = rng.random(n) < 0.5
    score_idx = rng.integers(0, len(SCORES), n)

    rows = []
    fates = []
    n_nontour = 0
    for k in range(n):
        ev = events[ev_of_row[k]]
        kind = kind_of_row[k]
        level, tid, name, draw, category, date = (
            ev["level"], ev["id"], ev["name"], ev["draw"], ev["category"], ev["date"])
        wp, lp = str(int(win_pts[k])), str(int(lose_pts[k]))
        score = SCORES[int(score_idx[k])]
        if kind == "nontour":
            n_nontour += 1
            level, tid, name, draw, category = (
                "C", f"{year}-C{n_nontour:04d}", f"Challenger {year} {n_nontour}", 32, "")
        elif kind == "walkover":
            score = "W/O"
        elif kind == "zero":
            wp, lp = ("0", lp) if side[k] else (wp, "0")
        elif kind == "missing":
            wp, lp = ("", lp) if side[k] else (wp, "")
        w, l = int(win[k]), int(lose[k])
        rows.append((
            tid, name, ev["surface"], draw, level, date.strftime("%Y%m%d"), k + 1,
            f"1{w:05d}", f"Player {w + 1:04d}", w + 1, wp,
            f"1{l:05d}", f"Player {l + 1:04d}", l + 1, lp,
            score, 5 if level == "G" else 3, round_of_row[k], category,
        ))
        fates.append((kind, date))
    return rows, fates


def _fate_counts(fates, date_from, date_to) -> dict[str, int]:
    """Row accounting under the documented filter precedence with
    --drop-walkovers: level, round, walkover, missing, date, zero."""
    out = {"rows": 0, "kept": 0, "zero": 0, "missing": 0,
           "level": 0, "round": 0, "walkover": 0, "date": 0}
    first = {"nontour": "level", "qualifying": "round", "walkover": "walkover",
             "missing": "missing"}
    for kind, date in fates:
        out["rows"] += 1
        if kind in first:
            out[first[kind]] += 1
        elif (date_from and date < date_from) or (date_to and date > date_to):
            out["date"] += 1
        elif kind == "zero":
            out["zero"] += 1
        else:
            out["kept"] += 1
    out["filtered"] = out["level"] + out["round"] + out["walkover"] + out["date"]
    return out


def _rankings(rng: np.random.Generator, path: Path) -> dict:
    """Weekly top-100 snapshots over the archive's years; a few dates stop
    at rank 50, so rank-band statistics must skip them."""
    start = datetime.date(FIRST_YEAR, 1, 7)
    start -= datetime.timedelta(days=start.weekday())
    dates = []
    d = start
    while d.year < FIRST_YEAR + N_FILES:
        dates.append(d)
        d += datetime.timedelta(days=7)
    short = set(rng.choice(len(dates), size=int(rng.integers(3, 9)), replace=False).tolist())
    ranks = np.arange(1, RANKING_DEPTH + 1)
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["ranking_date", "rank", "player", "points"])
        for k, date in enumerate(dates):
            depth = 50 if k in short else RANKING_DEPTH
            pts = np.round(12000.0 * ranks[:depth] ** -0.92 * rng.uniform(0.9, 1.1))
            ids = rng.permutation(N_POOL)[:depth]
            stamp = date.strftime("%Y%m%d")
            writer.writerows(
                (stamp, int(r), f"1{int(p):05d}", int(v))
                for r, p, v in zip(ranks[:depth], ids, pts)
            )
    return {"snapshots": len(dates), "complete_snapshots": len(dates) - len(short)}


def _publish(tmp: Path, final: Path, meta: dict) -> None:
    with open(tmp / "meta.json", "w", encoding="utf-8") as fp:
        json.dump(meta, fp, indent=2, sort_keys=True, default=str)
    os.replace(tmp, final)
    kind = final.name.split("-")[0]
    cached = sorted(final.parent.glob(f"{kind}-*"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHED_SEEDS]:
        _clear(old)


def write_archive(seed: int, root: Path) -> Path:
    """Yearly match files, a rankings file and meta.json under root; cached."""
    final = root / f"archive-{seed}"
    if (final / "meta.json").exists():
        return final
    tmp = root / f"archive-{seed}.tmp"
    _clear(tmp)
    tmp.mkdir(parents=True)
    rng = np.random.default_rng([seed, 1])
    base = _pool()
    files, fates_by_file = [], []
    for f in range(N_FILES):
        year = FIRST_YEAR + f
        rows, fates = _archive_file(rng, year, base)
        name = f"atp_matches_{year}.csv"
        with open(tmp / name, "w", newline="", encoding="utf-8") as fp:
            writer = csv.writer(fp)
            writer.writerow(COLUMNS)
            writer.writerows(rows)
        files.append(name)
        fates_by_file.append(fates)
    scopes = {}
    for scope, (idx, lo, hi) in SCOPES.items():
        fates = [x for f in idx for x in fates_by_file[f]]
        scopes[scope] = {"files": [files[f] for f in idx], "from": lo, "to": hi,
                         "expect": _fate_counts(fates, lo, hi)}
    meta = {"seed": seed, "alpha": ALPHA, "files": files, "scopes": scopes,
            "rankings": "rankings.csv", **_rankings(rng, tmp / "rankings.csv")}
    _publish(tmp, final, meta)
    return final


def write_fields(seed: int, root: Path) -> Path:
    """The draw-MC fields: players and power-law ratings per draw; cached."""
    final = root / f"fields-{seed}"
    if (final / "meta.json").exists():
        return final
    tmp = root / f"fields-{seed}.tmp"
    _clear(tmp)
    tmp.mkdir(parents=True)
    rng = np.random.default_rng([seed, 2])
    fields = {}
    for name, (draw, category, top_k) in FIELDS.items():
        ranks = np.sort(rng.choice(top_k, size=draw, replace=False)) + 1
        ratings = np.round(12000.0 * ranks ** -0.9 * rng.uniform(0.9, 1.1, draw), 3)
        fields[name] = {
            "draw": draw, "category": category,
            "players": [f"1{int(r):05d}" for r in ranks],
            "ratings": [float(x) for x in ratings],
        }
    with open(tmp / "fields.json", "w", encoding="utf-8") as fp:
        json.dump(fields, fp, indent=1, sort_keys=True)
    _publish(tmp, final, {"seed": seed, "fields": "fields.json"})
    return final


def _clear(path: Path) -> None:
    if path.exists():
        for child in path.iterdir():
            child.unlink()
        path.rmdir()
