#!/usr/bin/env python3
"""Regenerate the bundled sample archive (src/atppoints/data/).

The sample is synthetic but follows the public archive layout: standard
column names, yyyymmdd dates, level letters, rank-point columns.  It mixes
clean rows with the edge cases ingestion must handle (zero points, missing
points, qualifying rounds, challenger rows, a walkover) so every command
and test can run without downloading anything.

Deterministic: fixed seed, stable row order.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "atppoints" / "data"

ALPHA_TRUE = 0.87
SEED = 20170320

COLUMNS = [
    "tourney_id", "tourney_name", "surface", "draw_size", "tourney_level",
    "tourney_date", "match_num", "winner_id", "winner_name", "winner_rank",
    "winner_rank_points", "loser_id", "loser_name", "loser_rank",
    "loser_rank_points", "score", "best_of", "round", "category",
]

EVENTS = [
    # (id, name, level, draw, category, date, n_rows)
    ("2014-501", "Harbor Open", "A", 32, "tour_250", 20140113, 31),
    ("2014-780", "Meridian Championships", "G", 128, "grand_slam", 20140505, 40),
    ("2014-301", "Granite Masters", "M", 64, "masters_1000", 20140804, 30),
    ("2015-402", "Lakeside 500", "A", 32, "tour_500", 20150216, 31),
    ("2015-502", "Sierra Open", "A", 28, "tour_250", 20150608, 27),
    ("2015-779", "Coastal Cup", "D", 4, None, 20150918, 4),
    ("2015-330", "Basalt Masters", "M", 56, "masters_1000", 20151005, 20),
]

ROUNDS_BY_DRAW = {4: ["SF", "SF", "F", "F"]}  # other draws take seq_rounds


def seq_rounds(n_rows: int, draw: int) -> list[str]:
    order = ["R128", "R64", "R32", "R16", "QF", "SF", "F"]
    start = {128: 0, 64: 1, 56: 1, 32: 2, 28: 2}[draw]
    tags = []
    size = 2 ** int(math.ceil(math.log2(draw)))
    for tag in order[start:]:
        tags.extend([tag] * (size // 2))
        size //= 2
    return tags[:n_rows]


def main() -> None:
    rng = np.random.default_rng(SEED)
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    rows = []
    player_pool = [(f"1{i:04d}", f"Player {i:03d}") for i in range(1, 200)]
    for event_id, name, level, draw, category, date, n_rows in EVENTS:
        if draw == 4:
            tags = ROUNDS_BY_DRAW[4]
        else:
            tags = seq_rounds(n_rows, draw)
        for match_num, tag in enumerate(tags, start=1):
            i, j = rng.choice(len(player_pool), size=2, replace=False)
            pi, pj = player_pool[i], player_pool[j]
            # log-uniform ratio in [0.1, 10]
            log_ratio = rng.uniform(-math.log(10), math.log(10))
            points_j = float(rng.integers(300, 4000))
            points_i = points_j * math.exp(log_ratio)
            ratio = points_i / points_j
            p = ratio ** ALPHA_TRUE / (1 + ratio ** ALPHA_TRUE)
            if rng.random() < p:
                winner, loser = (pi, points_i), (pj, points_j)
            else:
                winner, loser = (pj, points_j), (pi, points_i)
            rows.append({
                "tourney_id": event_id,
                "tourney_name": name,
                "surface": "Hard",
                "draw_size": draw,
                "tourney_level": level,
                "tourney_date": date,
                "match_num": match_num,
                "winner_id": winner[0][0],
                "winner_name": winner[0][1],
                "winner_rank": int(rng.integers(1, 150)),
                "winner_rank_points": round(winner[1]),
                "loser_id": loser[0][0],
                "loser_name": loser[0][1],
                "loser_rank": int(rng.integers(1, 150)),
                "loser_rank_points": round(loser[1]),
                "score": "6-4 6-4",
                "best_of": 5 if level == "G" else 3,
                "round": tag,
                "category": category or "",
            })

    # Edge cases the loaders must account for.
    def edge(overrides):
        base = dict(rows[0])
        base.update(overrides)
        return base

    rows.append(edge({"tourney_id": "2015-900", "tourney_name": "Qualifier Stub",
                      "round": "Q1", "tourney_date": 20150301, "category": ""}))
    rows.append(edge({"tourney_id": "2015-900", "tourney_name": "Qualifier Stub",
                      "round": "Q2", "tourney_date": 20150301, "category": ""}))
    rows.append(edge({"tourney_id": "2015-Ch1", "tourney_name": "Challenger Stub",
                      "tourney_level": "C", "tourney_date": 20150310, "category": ""}))
    rows.append(edge({"tourney_id": "2014-501", "loser_rank_points": 0,
                      "tourney_date": 20140113, "round": "R32", "category": "tour_250"}))
    rows.append(edge({"tourney_id": "2014-501", "winner_rank_points": 0,
                      "tourney_date": 20140113, "round": "R32", "category": "tour_250"}))
    rows.append(edge({"tourney_id": "2014-780", "loser_rank_points": "",
                      "tourney_date": 20140505, "round": "R128", "category": "grand_slam"}))
    rows.append(edge({"tourney_id": "2015-402", "score": "W/O",
                      "tourney_date": 20150216, "round": "R16", "category": "tour_500"}))

    with open(DATA_DIR / "sample_matches.csv", "w", newline="", encoding="utf-8") as fp:
        writer = csv.DictWriter(fp, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} match rows")

    # Ranking snapshots: a real 2017-03-20 top slice plus synthetic history.
    snapshots = []
    real_2017 = {16: 2425, 32: 1265, 64: 773}
    for rank in range(1, 101):
        if rank in real_2017:
            points = real_2017[rank]
        else:
            points = round(12000 * rank ** -0.95)
        snapshots.append((20170320, rank, f"1{rank:04d}", points))
    rng2 = np.random.default_rng(SEED + 1)
    for date in (20150105, 20160104):
        for rank in range(1, 101):
            base = 11000 * rank ** -0.92
            points = round(base * rng2.uniform(0.85, 1.15))
            snapshots.append((date, rank, f"1{rank:04d}", points))
    snapshots.sort(key=lambda r: (r[0], r[1]))
    with open(DATA_DIR / "sample_rankings.csv", "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["ranking_date", "rank", "player", "points"])
        writer.writerows(snapshots)
    print(f"wrote {len(snapshots)} ranking rows")


if __name__ == "__main__":
    main()
