"""Core model tests: prediction, Brier scoring, fitting, baseline."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from atppoints.errors import DomainError
from atppoints.formula import predict, win_probability
from atppoints.ingest import load_matches
from atppoints.model import (
    MatchTable,
    ModelParams,
    _log_ratios,
    baseline_brier,
    brier_curve,
    brier_score,
    fit_alpha,
)
from atppoints.report import _oriented_ratios, bin_by_ratio
from conftest import DAY, SAMPLE_MATCHES, pairs, synth_matches

SRC = Path(__file__).resolve().parent.parent / "src"


# Evaluated once with 50-digit decimal arithmetic: 10^0.8722 / (1 + 10^0.8722).
PREDICT_RATIO10_ALPHA08722 = 0.881667309685

# Independent straightforward-summation script over the bundled sample
# archive (default filters), frozen.
SAMPLE_BRIER_AT_08722 = 0.1623998281338591
SAMPLE_BASELINE = 0.1956521739130435


class TestPredict:
    def test_equal_points_is_half(self):
        assert predict(0.8722, 1000, 1000).probability == pytest.approx(0.5, abs=1e-15)

    def test_alpha_one_double_points(self):
        assert predict(1.0, 2000, 1000).probability == pytest.approx(2 / 3, abs=1e-15)

    def test_high_precision_oracle(self):
        p = predict(0.8722, 10000, 1000)
        assert p.ratio == pytest.approx(10.0)
        assert abs(p.probability - PREDICT_RATIO10_ALPHA08722) < 5e-13

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(alpha=-1.0, r_i=100, r_j=100), "alpha"),
            (dict(alpha=0.0, r_i=100, r_j=100), "alpha"),
            (dict(alpha=1.0, r_i=0, r_j=100), "r_i"),
            (dict(alpha=1.0, r_i=100, r_j=-5), "r_j"),
            (dict(alpha=float("nan"), r_i=100, r_j=100), "alpha"),
            (dict(alpha=1.0, r_i=float("inf"), r_j=100), "r_i"),
            (dict(alpha=float("inf"), r_i=100, r_j=100), "alpha"),
        ],
    )
    def test_non_positive_inputs_name_the_argument(self, kwargs, name):
        with pytest.raises(DomainError, match=name):
            predict(**kwargs)

    @given(
        alpha=st.floats(0.01, 5.0),
        r_i=st.floats(1e-3, 1e7),
        r_j=st.floats(1e-3, 1e7),
    )
    def test_symmetry(self, alpha, r_i, r_j):
        total = predict(alpha, r_i, r_j).probability + predict(alpha, r_j, r_i).probability
        assert abs(total - 1.0) <= 1e-12

    @given(
        alpha=st.floats(0.01, 5.0),
        r_i=st.floats(1.0, 1e5),
        r_j=st.floats(1.0, 1e5),
        c=st.floats(1e-6, 1e6),
    )
    def test_scale_invariance(self, alpha, r_i, r_j, c):
        base = predict(alpha, r_i, r_j)
        scaled = predict(alpha, c * r_i, c * r_j)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)
        assert abs(scaled.probability - base.probability) <= 1e-12

    @given(
        alpha=st.floats(0.1, 3.0),
        r_j=st.floats(1.0, 1e4),
        ratio=st.floats(1e-3, 1e3),
        bump=st.floats(1.05, 10.0),
    )
    def test_monotone_in_points(self, alpha, r_j, ratio, bump):
        lower = predict(alpha, r_j * ratio, r_j).probability
        higher = predict(alpha, r_j * ratio * bump, r_j).probability
        assert higher > lower

    @given(
        alpha=st.floats(0.1, 2.0),
        bump=st.floats(1.1, 2.0),
        ratio=st.floats(1.1, 1e3),
    )
    def test_monotone_in_alpha(self, alpha, bump, ratio):
        low = win_probability(alpha, ratio)
        high = win_probability(alpha * bump, ratio)
        assert high > low                      # ratio > 1: increasing in alpha
        low_inv = win_probability(alpha, 1.0 / ratio)
        high_inv = win_probability(alpha * bump, 1.0 / ratio)
        assert high_inv < low_inv              # ratio < 1: decreasing in alpha

    @given(alpha=st.floats(0.01, 5.0), ratio=st.floats(1e-6, 1e6))
    def test_matches_textbook_form(self, alpha, ratio):
        textbook = ratio**alpha / (1.0 + ratio**alpha)
        assert abs(win_probability(alpha, ratio) - textbook) <= 1e-12

    def test_probability_strictly_inside_unit_interval(self):
        for ratio in (1e-9, 1e-3, 1.0, 1e3, 1e9):
            p = win_probability(3.0, ratio)
            assert 0.0 < p < 1.0


class TestBrierScore:
    def test_equal_points_pairs_score_quarter(self):
        matches = pairs((500, 500), (1200, 1200))
        assert brier_score(1.3, matches) == pytest.approx(0.25, abs=1e-15)

    def test_huge_alpha_on_winner_always_ahead(self):
        matches = pairs(*[(1000 + 50 * k, 900 - 10 * k) for k in range(20)])
        assert brier_score(200.0, matches) < 1e-6

    def test_sample_archive_golden(self):
        matches, _ = load_matches([SAMPLE_MATCHES])
        assert brier_score(0.8722, matches) == pytest.approx(
            SAMPLE_BRIER_AT_08722, abs=1e-12
        )

    def test_empty_raises(self):
        with pytest.raises(DomainError, match="no matches"):
            brier_score(1.0, pairs())

    def test_orientation_invariance(self):
        matches = synth_matches(0.9, 500, seed=11)
        winner_first = brier_score(0.8722, matches)
        # score each match in both orientations with plain arithmetic
        total = 0.0
        for w, lo in zip(matches.winner_points.tolist(), matches.loser_points.tolist()):
            ratio = w / lo
            p = ratio**0.8722 / (1 + ratio**0.8722)
            q = (1 / ratio) ** 0.8722 / (1 + (1 / ratio) ** 0.8722)
            total += (1.0 - p) ** 2 + (0.0 - q) ** 2
        both = total / (2 * len(matches))
        assert abs(winner_first - both) <= 1e-12

    def test_deterministic_repeat(self):
        matches = synth_matches(0.8, 1000, seed=3)
        assert brier_score(0.77, matches) == brier_score(0.77, matches)

    def test_curve_agrees_with_pointwise_scores(self):
        matches = synth_matches(0.8, 400, seed=4)
        alphas = [0.3, 0.8722, 2.5]
        curve = brier_curve(matches, alphas)
        for alpha, value in zip(alphas, curve):
            assert value == brier_score(alpha, matches)


class TestBaseline:
    def test_all_winners_ahead_scores_zero(self):
        assert baseline_brier(pairs((900, 100), (500, 400))) == 0.0

    def test_single_upset_scores_one(self):
        assert baseline_brier(pairs((100, 900))) == 1.0

    def test_tie_scores_quarter(self):
        assert baseline_brier(pairs((700, 700))) == 0.25

    def test_sample_archive_golden(self):
        matches, _ = load_matches([SAMPLE_MATCHES])
        assert baseline_brier(matches) == pytest.approx(SAMPLE_BASELINE, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(DomainError, match="no matches"):
            baseline_brier(pairs())


class TestFitAlpha:
    def test_recovers_generator_alpha(self):
        matches = synth_matches(0.87, 50_000, seed=1)
        params = fit_alpha(matches)
        assert abs(params.alpha - 0.87) <= 0.03
        assert params.n_matches == 50_000
        assert 0.0 <= params.fitted_e2 <= 1.0

    def test_deterministic(self):
        matches = synth_matches(0.9, 2000, seed=5)
        a = fit_alpha(matches)
        b = fit_alpha(matches)
        assert a == b

    def test_agrees_with_grid_scan(self):
        # Cross-check against a dense grid over the same bracket: with the
        # fit tolerance set to the grid spacing, the two minimizers must
        # agree within twice that tolerance.
        matches = synth_matches(0.85, 2000, seed=9)
        lo, hi, n_grid = 0.01, 5.0, 10_000
        grid = np.linspace(lo, hi, n_grid)
        spacing = grid[1] - grid[0]
        scores = brier_curve(matches, grid)
        grid_best = float(grid[int(np.argmin(scores))])
        fitted = fit_alpha(matches, search_lo=lo, search_hi=hi, tol=float(spacing))
        assert abs(fitted.alpha - grid_best) <= 2 * spacing

    def test_empty_raises(self):
        with pytest.raises(DomainError, match="no matches"):
            fit_alpha(pairs())

    @pytest.mark.parametrize("lo,hi,tol",
                             [(0, 5, 1e-6), (2, 1, 1e-6), (0.1, 5, 0), (0.1, math.inf, 1e-6),
                              (0.1, 5, math.inf), (0.1, 5, 10), (0.01, 5, 4.99)])
    def test_invalid_bracket_raises(self, lo, hi, tol):
        with pytest.raises(DomainError):
            fit_alpha(pairs((100, 50)), search_lo=lo, search_hi=hi, tol=tol)

    def test_tol_below_one_ulp_raises_and_one_ulp_ends(self):
        # the bracket stalls one ulp of alpha wide, so a smaller tol would
        # never end the search; run apart, so a hang fails on the timeout
        code = (
            "import math\n"
            "from atppoints.errors import DomainError\n"
            "from atppoints.ingest import load_matches\n"
            "from atppoints.model import fit_alpha\n"
            f"matches, _ = load_matches([{str(SAMPLE_MATCHES)!r}])\n"
            "try:\n"
            "    fit_alpha(matches, tol=1e-300)\n"
            "except DomainError as exc:\n"
            "    assert 'tol' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('tol=1e-300 was accepted')\n"
            "for lo, hi in [(1.0, 1.0 + 1e-12), (0.5, 2.0), (0.01, 5.0), (1e-6, 100.0)]:\n"
            "    for k in (1, 2):\n"
            "        fit_alpha(matches, search_lo=lo, search_hi=hi, tol=k * math.ulp(hi))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestModelParams:
    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            ModelParams(alpha=0.0)

    def test_rejects_infinite_alpha(self):
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            ModelParams(alpha=math.inf)

    def test_rejects_out_of_range_e2(self):
        with pytest.raises(DomainError):
            ModelParams(alpha=1.0, fitted_e2=1.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_observation_rejects_non_finite_points(self, bad):
        with pytest.raises(DomainError, match="winner_points"):
            pairs((bad, 100.0))
        with pytest.raises(DomainError, match="loser_points"):
            pairs((100.0, bad))

    def test_observation_rejects_zero_points(self):
        with pytest.raises(DomainError, match="winner_points"):
            pairs((0.0, 100.0))
        with pytest.raises(DomainError, match="loser_points"):
            pairs((100.0, 0.0))

    def test_from_points_rejects_unequal_lengths(self):
        with pytest.raises(DomainError, match="equal-length"):
            MatchTable.from_points([100.0, 200.0], [50.0], DAY)

    def test_empty_table_has_no_matches(self):
        empty = pairs()
        for run in (fit_alpha, lambda t: brier_score(1.0, t), lambda t: bin_by_ratio(t, 1.0)):
            with pytest.raises(DomainError, match="no matches"):
                run(empty)


def _sample_table() -> MatchTable:
    return load_matches([SAMPLE_MATCHES])[0]


def _synth_table() -> MatchTable:
    return synth_matches(0.87, 3000, seed=17)


def _integer_table() -> MatchTable:
    # integers on which np.log and math.log differ in the last bit (x86-64
    # numpy 2.4), each paired both ways with small integers
    odd = [9170, 19143, 94869, 102327, 136085, 136837, 141614, 147674]
    small = range(1, 41)
    return pairs(*[pair for k in odd for j in small for pair in ((k, j), (j, k))])


@pytest.mark.parametrize("make", [_sample_table, _synth_table, _integer_table],
                         ids=["sample", "synth", "integers"])
class TestScalarReference:
    """The column code equals plain per-match loops, bit for bit."""

    def test_log_ratios(self, make):
        table = make()
        expected = [math.log(w) - math.log(lo)
                    for w, lo in zip(table.winner_points.tolist(), table.loser_points.tolist())]
        assert _log_ratios(table).tolist() == expected

    def test_oriented_ratios(self, make):
        table = make()
        alpha = 0.8722
        n = len(table)
        ratios, outcomes = np.empty(2 * n), np.empty(2 * n)
        for k, (w, lo) in enumerate(zip(table.winner_points.tolist(),
                                        table.loser_points.tolist())):
            r = w / lo
            ratios[2 * k], ratios[2 * k + 1] = r, 1.0 / r
            outcomes[2 * k], outcomes[2 * k + 1] = 1.0, 0.0
        with np.errstate(over="ignore"):
            predicted = 1.0 / (1.0 + ratios ** (-alpha))
        got = _oriented_ratios(table, alpha)
        assert got[0].tolist() == ratios.tolist()
        assert got[1].tolist() == outcomes.tolist()
        assert got[2].tolist() == predicted.tolist()

    def test_baseline_brier(self, make):
        table = make()
        total = 0.0
        for w, lo in zip(table.winner_points.tolist(), table.loser_points.tolist()):
            if w < lo:
                total += 1.0
            elif w == lo:
                total += 0.25
        assert baseline_brier(table) == total / len(table)
