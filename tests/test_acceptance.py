"""Top-level acceptance checks, one test per criterion.

Each test is tagged with its criterion number; the session summary prints
one pass/fail line per criterion.  Criterion 1 needs the real 2009-2015
match archive on disk (point ATPPOINTS_ARCHIVE at a directory holding
atp_matches_YYYY.csv files); without it the criterion is covered by the
synthetic-recovery check of criterion 2, as specified.
"""

from __future__ import annotations

import datetime
import glob
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from atppoints.bracket import place_seeds
from atppoints.cli import main as cli_main
from atppoints.formula import predict
from atppoints.model import baseline_brier, fit_alpha
from atppoints.points import Category, expected_points, points_for
from atppoints.report import calibration_curve
from atppoints.season import SeasonConfig, run_season
from conftest import SAMPLE_MATCHES, SAMPLE_RANKINGS, slot_of, synth_matches

ARCHIVE_ENV = "ATPPOINTS_ARCHIVE"


def archive_files() -> list[str]:
    root = os.environ.get(ARCHIVE_ENV, "")
    if not root:
        return []
    found = sorted(glob.glob(str(Path(root) / "atp_matches_*.csv")))
    years = {f"atp_matches_{year}.csv" for year in range(2009, 2016)}
    names = {Path(f).name for f in found}
    return found if years <= names else []


@pytest.mark.acceptance(criterion=1, name="real-archive fit reproduces published values")
def test_criterion_1_real_archive_fit():
    files = archive_files()
    if not files:
        pytest.skip(
            f"match archive not found (set {ARCHIVE_ENV}); "
            "criterion replaced by synthetic recovery (criterion 2)"
        )
    from atppoints.ingest import load_matches

    start = time.perf_counter()
    observations, _ = load_matches(
        files, date_range=(datetime.date(2009, 1, 1), datetime.date(2015, 12, 31))
    )
    params = fit_alpha(observations)
    baseline = baseline_brier(observations)
    elapsed = time.perf_counter() - start
    assert abs(params.alpha - 0.8722) <= 0.02
    assert abs(params.fitted_e2 - 0.2052) <= 0.005
    assert abs(baseline - 0.3227) <= 0.01
    assert elapsed < 30.0


@pytest.mark.acceptance(criterion=2, name="synthetic recovery of alpha at 3 seeds")
@pytest.mark.slow
def test_criterion_2_synthetic_recovery():
    for alpha_true in (0.5, 0.87, 1.5):
        for seed in (101, 202, 303):
            matches = synth_matches(alpha_true, 50_000, seed=seed)
            start = time.perf_counter()
            params = fit_alpha(matches)
            elapsed = time.perf_counter() - start
            assert abs(params.alpha - alpha_true) <= 0.03, (alpha_true, seed, params.alpha)
            assert elapsed < 10.0


# Every populated cell of the published point table, including the
# draw-size-dependent alternates.
POINT_TABLE_CELLS = {
    (Category.GRAND_SLAM, "W", None): 2000,
    (Category.GRAND_SLAM, "F", None): 1200,
    (Category.GRAND_SLAM, "SF", None): 720,
    (Category.GRAND_SLAM, "QF", None): 360,
    (Category.GRAND_SLAM, "R16", None): 180,
    (Category.GRAND_SLAM, "R32", None): 90,
    (Category.GRAND_SLAM, "R64", None): 45,
    (Category.GRAND_SLAM, "R128", None): 10,
    (Category.GRAND_SLAM, "Q", None): 25,
    (Category.MASTERS_1000, "W", None): 1000,
    (Category.MASTERS_1000, "F", None): 600,
    (Category.MASTERS_1000, "SF", None): 360,
    (Category.MASTERS_1000, "QF", None): 180,
    (Category.MASTERS_1000, "R16", None): 90,
    (Category.MASTERS_1000, "R32", None): 45,
    (Category.MASTERS_1000, "R64", None): 10,
    (Category.MASTERS_1000, "R64", 96): 25,
    (Category.MASTERS_1000, "R128", 96): 10,
    (Category.MASTERS_1000, "Q", None): 16,
    (Category.TOUR_500, "W", None): 500,
    (Category.TOUR_500, "F", None): 300,
    (Category.TOUR_500, "SF", None): 180,
    (Category.TOUR_500, "QF", None): 90,
    (Category.TOUR_500, "R16", None): 45,
    (Category.TOUR_500, "R32", 48): 20,
    (Category.TOUR_500, "Q", None): 20,
    (Category.TOUR_250, "W", None): 250,
    (Category.TOUR_250, "F", None): 150,
    (Category.TOUR_250, "SF", None): 90,
    (Category.TOUR_250, "QF", None): 45,
    (Category.TOUR_250, "R16", None): 20,
    (Category.TOUR_250, "R32", 48): 5,
    (Category.TOUR_250, "Q", None): 12,
}


@pytest.mark.acceptance(criterion=3, name="exact point-table and expected-points arithmetic")
def test_criterion_3_exact_arithmetic():
    assert expected_points(16) == 2430
    assert expected_points(32) == 1260
    assert expected_points(64) == 650
    for (category, tag, draw), value in POINT_TABLE_CELLS.items():
        assert points_for(category, tag, draw_size=draw) == value, (category, tag, draw)


def _meet_size(slot_a: int, slot_b: int, draw: int) -> int:
    a, b = slot_a - 1, slot_b - 1
    rounds = 0
    while a != b:
        a //= 2
        b //= 2
        rounds += 1
    return draw >> (rounds - 1)


@pytest.mark.acceptance(criterion=4, name="seeding protections over all 48 ballots")
def test_criterion_4_seeding_invariants():
    placements = set()
    for seed in range(4000):
        rng = np.random.default_rng(seed)
        bracket = place_seeds(32, list("ABCDEFGH"), rng)
        placements.add(tuple(slot_of(bracket, s) for s in "ABCDEFGH"))
    assert len(placements) == 48  # 2 ballots for seeds 3-4 x 4! for 5-8
    violations = 0
    for slots in placements:
        if _meet_size(slots[0], slots[1], 32) != 2:
            violations += 1
        for i in range(4):
            for j in range(i + 1, 4):
                if _meet_size(slots[i], slots[j], 32) > 4:
                    violations += 1
        for i in range(8):
            for j in range(i + 1, 8):
                if _meet_size(slots[i], slots[j], 32) > 8:
                    violations += 1
    assert violations == 0


@pytest.mark.acceptance(criterion=5, name="symmetry, scale invariance, monotonicity at 1e-12")
def test_criterion_5_model_properties():
    n = 10_000
    rng = np.random.default_rng(55)

    alphas = np.exp(rng.uniform(math.log(0.05), math.log(5.0), n))
    r_i = np.exp(rng.uniform(math.log(1.0), math.log(1e5), n))
    r_j = np.exp(rng.uniform(math.log(1.0), math.log(1e5), n))
    for k in range(n):
        p_ij = predict(alphas[k], r_i[k], r_j[k]).probability
        p_ji = predict(alphas[k], r_j[k], r_i[k]).probability
        assert abs(p_ij + p_ji - 1.0) <= 1e-12

    scales = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n))
    for k in range(n):
        base = predict(alphas[k], r_i[k], r_j[k])
        scaled = predict(alphas[k], scales[k] * r_i[k], scales[k] * r_j[k])
        assert abs(scaled.probability - base.probability) <= 1e-12
        assert abs(scaled.ratio - base.ratio) <= 1e-12 * max(1.0, base.ratio)

    mono_alpha = np.exp(rng.uniform(math.log(0.05), math.log(3.0), n))
    ratios = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    bumps = np.exp(rng.uniform(math.log(1.05), math.log(10.0), n))
    for k in range(n):
        low = predict(mono_alpha[k], ratios[k], 1.0).probability
        high = predict(mono_alpha[k], ratios[k] * bumps[k], 1.0).probability
        assert high > low


@pytest.mark.acceptance(criterion=6, name="calibration within 0.02 on 100k synthetic matches")
@pytest.mark.slow
def test_criterion_6_calibration_at_scale():
    matches = synth_matches(0.8722, 100_000, seed=66)
    curve = calibration_curve(matches, alpha=0.8722)
    checked = 0
    for count, freq, center in zip(curve.counts, curve.freq, curve.centers):
        if count < 500:
            continue
        checked += 1
        assert abs(freq - center) <= 0.02, (center, freq, count)
    assert checked >= 10


@pytest.mark.acceptance(
    criterion=7, name="season Monte Carlo rank-32 median inside observed envelope"
)
@pytest.mark.slow
def test_criterion_7_season_plausibility():
    config = SeasonConfig(alpha=0.8722, rng_seed=0, n_players=300, n_seasons=24, burn_in=4)
    report = run_season(config)
    assert len(report.measured_seasons()) >= 20
    median = report.rank_summary(32)["median"]
    assert 1102 <= median <= 1395, median


@pytest.mark.acceptance(criterion=8, name="byte-identical reruns of fit, report, simulate")
def test_criterion_8_determinism(tmp_path):
    runner = CliRunner()
    matches, rankings = str(SAMPLE_MATCHES), str(SAMPLE_RANKINGS)

    def run_all(base: Path) -> dict[str, bytes]:
        commands = [
            ["fit", matches, "--out", str(base / "fit")],
            ["report", matches, "--rankings", rankings,
             "--alpha", "0.8722", "--out", str(base / "report")],
            ["simulate", "--seed", "99", "--players", "150", "--seasons", "1",
             "--out", str(base / "sim")],
        ]
        for command in commands:
            result = runner.invoke(cli_main, command)
            assert result.exit_code == 0, result.output
        files: dict[str, bytes] = {}
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                files[str(path.relative_to(base))] = path.read_bytes()
            elif path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                manifest.pop("created_at")
                manifest["flags"].pop("out", None)
                files[str(path.relative_to(base))] = json.dumps(
                    manifest, sort_keys=True
                ).encode()
        return files

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    assert {k.replace("one", "two") for k in first} == set(second)
    for key, blob in first.items():
        assert second[key] == blob, f"{key} differs between reruns"
