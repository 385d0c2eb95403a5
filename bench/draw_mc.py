"""Title-odds Monte Carlo through the bracket module's public API.

For each field (a 128-draw Grand Slam and a 32-draw 250), ``--ballots``
draws are balloted with ``place_seeds`` and ``fill_unseeded``, and each
draw is played ``--runs`` times with ``run_tournament``.  Writes each
player's title count and mean points to ``title_odds.csv`` and the
per-tournament checks to ``checks.json``.  With ``--spans`` the bracket
functions are traced (see ``spans.py``).

    python3 bench/draw_mc.py --fields F --seed N --ballots K --runs M --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
from pathlib import Path

ALPHA = 0.8722
# Points one full draw awards in total, from the benchmark's own copy of
# the point tables: (category, draw) -> sum over every player's exit round.
TABLE_TOTAL = {
    ("grand_slam", 128): 2000 + 1200 + 2 * 720 + 4 * 360 + 8 * 180 + 16 * 90 + 32 * 45 + 64 * 10,
    ("tour_250", 32): 250 + 150 + 2 * 90 + 4 * 45 + 8 * 20,
}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--fields", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ballots", type=int, required=True)
    ap.add_argument("--runs", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--run-id", default="draw_mc")
    args = ap.parse_args(argv)

    recorder = None
    if args.spans:
        from spans import BRACKET_PATCHES, Recorder, install

        recorder = Recorder(args.run_id)
        install(recorder, BRACKET_PATCHES)
    import numpy as np
    from atppoints import bracket
    from atppoints.points import Category

    with open(args.fields, encoding="utf-8") as fp:
        fields = json.load(fp)
    rng = np.random.default_rng(args.seed)
    rows, checks = [], {}
    try:
        with recorder.span("draw_mc.main") if recorder else contextlib.nullcontext():
            for name in sorted(fields):
                field = fields[name]
                draw, players = field["draw"], field["players"]
                category = Category(field["category"])
                ratings = dict(zip(players, field["ratings"]))
                n_seeds = bracket.SEEDS_FOR_DRAW[draw]
                total = TABLE_TOTAL[(field["category"], draw)]
                titles = dict.fromkeys(players, 0)
                points = dict.fromkeys(players, 0)
                bad_champion = bad_total = 0
                for _ in range(args.ballots):
                    br = bracket.place_seeds(draw, players[:n_seeds], rng)
                    br = bracket.fill_unseeded(br, players[n_seeds:], rng)
                    for _ in range(args.runs):
                        result = bracket.run_tournament(br, ratings, ALPHA, category, rng)
                        champions = awarded = 0
                        for player, res in result.items():
                            awarded += res.points
                            points[player] += res.points
                            if res.round_reached == "W":
                                champions += 1
                                titles[player] += 1
                        bad_champion += champions != 1 or len(result) != draw
                        bad_total += awarded != total
                played = args.ballots * args.runs
                checks[name] = {"tournaments": played, "bad_champion": bad_champion,
                                "bad_total": bad_total, "titles": sum(titles.values())}
                rows += [(name, p, repr(ratings[p]), titles[p], repr(points[p] / played))
                         for p in players]
    finally:
        if recorder:
            recorder.dump(args.spans)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "title_odds.csv", "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["field", "player", "rating", "titles", "mean_points"])
        writer.writerows(rows)
    with open(out / "checks.json", "w", encoding="utf-8") as fp:
        json.dump(checks, fp, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
