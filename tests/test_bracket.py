"""Seed placement, ballot enumeration, protection invariants, tournament runs."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from atppoints.bracket import (
    ROUND_OF,
    SEEDS_FOR_DRAW,
    SUPPORTED_DRAWS,
    TournamentResult,
    fill_unseeded,
    place_seeds,
    run_tournament,
    run_tournaments,
    seed_slot_groups,
)
from atppoints.errors import DomainError
from atppoints.formula import win_probability
from atppoints.points import Category, points_for, points_or_zero
from conftest import player_at, slot_of

GS = Category.GRAND_SLAM
M = Category.MASTERS_1000
T250 = Category.TOUR_250


def meet_size(slot_a: int, slot_b: int, draw: int) -> int:
    """Field size of the round where the two slots' paths first merge.

    2 means the final, 4 the semifinals, draw the first round.
    """
    a, b = slot_a - 1, slot_b - 1
    rounds = 0
    while a != b:
        a //= 2
        b //= 2
        rounds += 1
    return draw >> (rounds - 1)


def full_bracket(draw: int, rng: np.random.Generator) -> tuple[list[str], list[str]]:
    players = [f"p{i:03d}" for i in range(draw)]
    n_seeds = SEEDS_FOR_DRAW[draw]
    br = place_seeds(draw, players[:n_seeds], rng)
    br = fill_unseeded(br, players[n_seeds:], rng)
    return br, players


def _reference_run_tournament(slots, ratings, alpha, category, rng):
    """The plain round-by-round loop: the oracle run_tournament must equal
    exactly, in its result items, their order and the generator state."""
    if None in slots:
        raise DomainError("bracket has unfilled slots")
    if not 0 <= alpha < math.inf:
        raise DomainError(f"alpha must be nonnegative and finite, got {alpha!r}")
    for player in slots:
        if not 0 < ratings[player] < math.inf:
            raise DomainError(f"player {player!r} has non-positive or non-finite "
                              f"rating {ratings[player]!r}")
    draw = len(slots)
    alive = list(slots)
    results = {}
    uniforms = rng.random(draw - 1)
    next_u = 0
    size = draw
    while size > 1:
        tag = ROUND_OF[size]
        loser_result = TournamentResult(tag, points_or_zero(category, tag, draw))
        nxt = []
        for k in range(0, size, 2):
            a, b = alive[k], alive[k + 1]
            p = win_probability(alpha, ratings[a] / ratings[b])
            if uniforms[next_u] < p:
                winner, loser = a, b
            else:
                winner, loser = b, a
            next_u += 1
            results[loser] = loser_result
            nxt.append(winner)
        alive = nxt
        size //= 2
    results[alive[0]] = TournamentResult("W", points_for(category, "W"))
    return results


def _survival(ratings: list[float], alpha: float) -> np.ndarray:
    """``surv[k, r]``, the exact chance that slot k wins its first r matches:
    ``surv[k, r - 1]`` times the chance k beats whoever comes out of the
    other half of k's 2**r-slot block, ``sum_j surv[j, r - 1] * p(k, j)``.
    Column 0 is all ones; shares no code with the kernels but the model."""
    draw = len(ratings)
    p = np.array([[win_probability(alpha, x / y) for y in ratings] for x in ratings])
    surv = np.ones((draw, draw.bit_length()))
    for r in range(1, draw.bit_length()):
        half = 2 ** (r - 1)
        for k in range(draw):
            start = (k ^ half) - k % half  # of the other half
            others = slice(start, start + half)
            surv[k, r] = surv[k, r - 1] * (surv[others, r - 1] * p[k, others]).sum()
    return surv


def _chi2_quantile(q: float, df: int) -> float:
    """The q-quantile of the chi-square law on df degrees of freedom, by
    bisection on its CDF, the series of the regularized lower gamma function."""
    def cdf(x: float) -> float:
        a, h = df / 2, x / 2
        term = total = 1.0
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= h / (a + k)
            total += term
        return total * math.exp(a * math.log(h) - h - math.lgamma(a + 1))

    lo, hi = 0.0, df + 10 * math.sqrt(2 * df) + 30
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if cdf(mid) < q else (lo, mid)
    return hi


def _pearson(counts: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """Pearson's statistic and its degrees of freedom for one multinomial
    sample, the cells expecting least pooled into one until every cell
    expects at least 5."""
    order = np.argsort(expected)
    pooled = max(np.count_nonzero(expected < 5),
                 int(np.searchsorted(np.cumsum(expected[order]), 5)) + 1)
    counts = np.append(counts[order[pooled:]], counts[order[:pooled]].sum())
    expected = np.append(expected[order[pooled:]], expected[order[:pooled]].sum())
    return float(((counts - expected) ** 2 / expected).sum()), len(counts) - 1


def assert_survivors_match(won: np.ndarray, surv: np.ndarray) -> None:
    """``won[run, k]`` is how many matches slot k won in that run.  After
    round r, each 2**r-slot block holds one survivor, drawn by
    ``surv[block, r]`` independently of the other blocks: each round's
    Pearson statistic, summed over its blocks, stays under the 0.999
    quantile of its degrees of freedom."""
    n, draw = won.shape
    for r in range(1, draw.bit_length()):
        survivors = np.count_nonzero(won >= r, axis=0)
        stat, df = 0.0, 0
        for block in range(0, draw, 2 ** r):
            cells = slice(block, block + 2 ** r)
            assert math.isclose(surv[cells, r].sum(), 1.0, rel_tol=1e-12)
            block_stat, block_df = _pearson(survivors[cells], n * surv[cells, r])
            stat, df = stat + block_stat, df + block_df
        assert stat < _chi2_quantile(0.999, df), f"round {r}: chi-square {stat:.1f} on {df} df"


class TestSeedSlots:
    def test_published_32_draw_slots(self):
        # each draw literally, list order included: place_seeds shuffles
        # each group as listed, so the order is part of the stream
        groups = seed_slot_groups(32)
        assert groups == [[1], [32], [9, 24], [8, 16, 17, 25]]
        assert seed_slot_groups(np.int64(32)) == groups
        assert seed_slot_groups(64) == [[1], [64], [17, 48], [16, 32, 33, 49],
                                        [8, 9, 24, 25, 40, 41, 56, 57]]
        assert seed_slot_groups(128) == [
            [1], [128], [33, 96], [32, 64, 65, 97], [16, 17, 48, 49, 80, 81, 112, 113],
            [8, 9, 24, 25, 40, 41, 56, 57, 72, 73, 88, 89, 104, 105, 120, 121]]

    def test_anchors_for_any_draw(self):
        for draw in (32, 64, 128):
            groups = seed_slot_groups(draw)
            assert groups[0] == [1]
            assert groups[1] == [draw]

    def test_group_sizes_double(self):
        groups = seed_slot_groups(128)
        assert [len(g) for g in groups] == [1, 1, 2, 4, 8, 16]

    def test_slots_are_distinct(self):
        for draw, n_seeds in ((32, 8), (64, 16), (128, 32)):
            flat = [s for g in seed_slot_groups(draw) for s in g]
            assert len(set(flat)) == n_seeds

    def test_unsupported_sizes_raise(self):
        with pytest.raises(DomainError):
            seed_slot_groups(16)
        with pytest.raises(DomainError, match="unsupported draw size 32.0"):
            seed_slot_groups(32.0)
        # a draw takes exactly its SEEDS_FOR_DRAW seeds
        with pytest.raises(DomainError, match="64-draw takes 16 seeds, got 8"):
            place_seeds(64, list("ABCDEFGH"), np.random.default_rng(0))


class TestPlaceSeeds:
    def test_top_two_fixed(self):
        rng = np.random.default_rng(1)
        br = place_seeds(32, list("ABCDEFGH"), rng)
        assert player_at(br, 1) == "A"
        assert player_at(br, 32) == "B"

    def test_seeds_three_four_on_their_slots(self):
        rng = np.random.default_rng(2)
        br = place_seeds(32, list("ABCDEFGH"), rng)
        assert {slot_of(br, "C"), slot_of(br, "D")} == {9, 24}
        assert {slot_of(br, s) for s in "EFGH"} == {8, 16, 17, 25}

    def test_exactly_48_distinct_ballots(self):
        # 2 arrangements for seeds 3-4 times 4! for seeds 5-8
        outcomes = set()
        for seed in range(4000):
            rng = np.random.default_rng(seed)
            br = place_seeds(32, list("ABCDEFGH"), rng)
            outcomes.add(tuple(slot_of(br, s) for s in "CDEFGH"))
        assert len(outcomes) == 48

    def test_exhaustive_protection_invariants(self):
        # traverse every ballot outcome: no early meetings possible
        outcomes = set()
        for seed in range(4000):
            rng = np.random.default_rng(seed)
            br = place_seeds(32, list("ABCDEFGH"), rng)
            outcomes.add(tuple(slot_of(br, s) for s in "ABCDEFGH"))
        assert len(outcomes) == 48
        for slots in outcomes:
            assert meet_size(slots[0], slots[1], 32) == 2
            for i in range(4):
                for j in range(i + 1, 4):
                    assert meet_size(slots[i], slots[j], 32) <= 4
            for i in range(8):
                for j in range(i + 1, 8):
                    assert meet_size(slots[i], slots[j], 32) <= 8

    @pytest.mark.parametrize("draw,n_seeds", [(64, 16), (128, 32)])
    def test_larger_draw_protections(self, draw, n_seeds):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            players = [f"s{i}" for i in range(n_seeds)]
            br = place_seeds(draw, players, rng)
            slots = [slot_of(br, p) for p in players]
            assert meet_size(slots[0], slots[1], draw) == 2
            for i in range(4):
                for j in range(i + 1, 4):
                    assert meet_size(slots[i], slots[j], draw) <= 4
            for i in range(8):
                for j in range(i + 1, 8):
                    assert meet_size(slots[i], slots[j], draw) <= 8
            for i in range(16):
                for j in range(i + 1, 16):
                    assert meet_size(slots[i], slots[j], draw) <= 16

    def test_duplicate_players_raise(self):
        with pytest.raises(DomainError):
            place_seeds(32, list("AACDEFGH"), np.random.default_rng(0))

    def test_none_seed_raises_before_any_draw(self):
        # None marks an open slot: as a seed it used to vanish, leaving 25
        # open slots for fill_unseeded to ballot a player onto slot 1
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="None marks an open slot"):
            place_seeds(32, [None, *(f"s{i}" for i in range(7))], rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("draw", [16, 96, 256, [32], 32.0, True, "32"],
                             ids=["16", "96", "256", "list", "float", "bool", "str"])
    def test_unsupported_draw_size_raises(self, draw):
        with pytest.raises(DomainError, match="unsupported draw size"):
            place_seeds(draw, list("ABCDEFGH"), np.random.default_rng(0))


class TestFillUnseeded:
    def test_empty_fill_on_complete_bracket(self):
        rng = np.random.default_rng(0)
        br, _ = full_bracket(32, rng)
        refilled = fill_unseeded(br, [], rng)
        assert refilled == br

    def test_fills_all_slots_with_permutation(self):
        rng = np.random.default_rng(3)
        br = place_seeds(32, list("ABCDEFGH"), rng)
        rest = [f"u{i}" for i in range(24)]
        filled = fill_unseeded(br, rest, rng)
        assert None not in filled
        assert sorted(filled, key=str) == sorted(list("ABCDEFGH") + rest, key=str)

    def test_deterministic_for_fixed_seed(self):
        first = fill_unseeded(
            place_seeds(32, list("ABCDEFGH"), np.random.default_rng(9)),
            [f"u{i}" for i in range(24)],
            np.random.default_rng(77),
        )
        second = fill_unseeded(
            place_seeds(32, list("ABCDEFGH"), np.random.default_rng(9)),
            [f"u{i}" for i in range(24)],
            np.random.default_rng(77),
        )
        assert first == second

    def test_count_mismatch_raises(self):
        br = place_seeds(32, list("ABCDEFGH"), np.random.default_rng(0))
        with pytest.raises(DomainError):
            fill_unseeded(br, ["only", "three", "players"], np.random.default_rng(0))

    def test_already_placed_player_raises(self):
        br = place_seeds(32, list("ABCDEFGH"), np.random.default_rng(0))
        with pytest.raises(DomainError, match="already placed"):
            fill_unseeded(br, ["A", *(f"u{i}" for i in range(23))], np.random.default_rng(0))

    @pytest.mark.parametrize("unseeded, message", [
        (["p0", "p0", *(f"u{i}" for i in range(22))], "'p0' is listed twice"),
        ([*(f"u{i}" for i in range(23)), "C"], "'C' is already placed"),
    ], ids=["repeated", "seeded"])
    def test_clashing_player_named_before_any_draw(self, unseeded, message):
        # a repeated unseeded player used to be balloted twice, and the draw
        # failed only in run_tournament, without the player's name
        br = place_seeds(32, list("ABCDEFGH"), np.random.default_rng(0))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match=message):
            fill_unseeded(br, unseeded, rng)
        assert rng.bit_generator.state == state

    def test_none_player_raises_before_any_draw(self):
        br = place_seeds(32, list("ABCDEFGH"), np.random.default_rng(0))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="None marks an open slot"):
            fill_unseeded(br, [*(f"u{i}" for i in range(23)), None], rng)
        assert rng.bit_generator.state == state

    def test_does_not_mutate_input(self):
        br = place_seeds(32, list("ABCDEFGH"), np.random.default_rng(0))
        before = list(br)
        fill_unseeded(br, [f"u{i}" for i in range(24)], np.random.default_rng(1))
        assert br == before


class TestRunTournament:
    def test_incomplete_bracket_raises(self):
        br = place_seeds(32, list("ABCDEFGH"), np.random.default_rng(0))
        with pytest.raises(DomainError, match="unfilled"):
            run_tournament(br, {}, 1.0, T250, np.random.default_rng(0))

    @pytest.mark.parametrize("slots", [
        [f"p{i}" for i in range(10)],
        [f"p{i}" for i in range(256)],
        ["p0"] * 32,
    ], ids=["size10", "size256", "one-id"])
    def test_every_player_must_be_played(self, slots):
        # unchecked, an unsupported size plays only a power of two of its
        # slots and a repeated id keeps one result: players vanish silently
        ratings = dict.fromkeys(slots, 100.0)
        with pytest.raises(DomainError, match="repeated player"):
            run_tournament(slots, ratings, 1.0, T250, np.random.default_rng(0))

    def test_repeated_player_in_balloted_draw_raises(self):
        br, players = full_bracket(32, np.random.default_rng(0))
        br[br.index(players[20])] = players[7]
        with pytest.raises(DomainError, match="repeated player"):
            run_tournament(br, dict.fromkeys(players, 100.0), 1.0, T250,
                           np.random.default_rng(0))

    def test_deterministic_limit_highest_points_wins(self):
        # with seeds placed by rating, an exponent this large saturates every
        # win probability (a ratio of at least 2000/1990 raised to 1e6 is past
        # float range), so every favorite wins: seed 1 takes the title and
        # meets seed 2 in the final
        players = [f"p{i:03d}" for i in range(32)]
        ratings = {p: 2000.0 - 10 * k for k, p in enumerate(players)}
        br = place_seeds(32, players[:8], np.random.default_rng(5))
        br = fill_unseeded(br, players[8:], np.random.default_rng(5))
        results = run_tournament(br, ratings, 1e6, T250, np.random.default_rng(5))
        assert results[players[0]].round_reached == "W"
        assert results[players[1]].round_reached == "F"

    def test_grand_slam_winner_gets_2000(self):
        rng = np.random.default_rng(6)
        br, players = full_bracket(128, rng)
        ratings = {p: 500.0 for p in players}
        results = run_tournament(br, ratings, 0.8722, GS, rng)
        champion = [p for p, r in results.items() if r.round_reached == "W"]
        assert len(champion) == 1
        assert results[champion[0]].points == 2000

    def test_round_populations_halve(self):
        rng = np.random.default_rng(7)
        br, players = full_bracket(64, rng)
        ratings = {p: 100.0 for p in players}
        results = run_tournament(br, ratings, 1.0, M, rng)
        by_round = {}
        for r in results.values():
            by_round[r.round_reached] = by_round.get(r.round_reached, 0) + 1
        assert by_round == {"R64": 32, "R32": 16, "R16": 8, "QF": 4, "SF": 2, "F": 1, "W": 1}

    @pytest.mark.parametrize(
        "draw,category,expected_total",
        [
            # enumerated independently: sum over rounds of losers x points,
            # plus the winner's points; blank cells award 0
            (128, GS, 2000 + 1200 + 2 * 720 + 4 * 360 + 8 * 180
             + 16 * 90 + 32 * 45 + 64 * 10),
            (64, M, 1000 + 600 + 2 * 360 + 4 * 180 + 8 * 90 + 16 * 45 + 32 * 10),
            (32, Category.TOUR_500, 500 + 300 + 2 * 180 + 4 * 90 + 8 * 45 + 16 * 0),
            (32, T250, 250 + 150 + 2 * 90 + 4 * 45 + 8 * 20 + 16 * 0),
        ],
    )
    def test_point_conservation(self, draw, category, expected_total):
        rng = np.random.default_rng(8)
        br, players = full_bracket(draw, rng)
        ratings = {p: 1000.0 for p in players}
        for _ in range(5):
            results = run_tournament(br, ratings, 0.8722, category, rng)
            assert sum(r.points for r in results.values()) == expected_total

    def test_non_positive_rating_raises(self):
        rng = np.random.default_rng(9)
        br, players = full_bracket(32, rng)
        ratings = {p: 100.0 for p in players}
        ratings[players[5]] = 0.0
        with pytest.raises(DomainError, match="non-positive"):
            run_tournament(br, ratings, 1.0, T250, rng)

    @pytest.mark.parametrize("rating, alpha, named", [
        (math.inf, 1.0, "rating"), (math.nan, 1.0, "rating"),
        (100.0, math.inf, "alpha"), (100.0, math.nan, "alpha"),
    ])
    def test_non_finite_input_raises(self, rating, alpha, named):
        # an infinite floor or rating made every ratio inf/inf = nan, which
        # hands every match to the second slot
        rng = np.random.default_rng(9)
        br, players = full_bracket(32, rng)
        ratings = {p: 100.0 for p in players}
        ratings[players[5]] = rating
        with pytest.raises(DomainError, match=named):
            run_tournament(br, ratings, alpha, T250, rng)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    @pytest.mark.parametrize("make", [lambda v: dict(enumerate(v)), list], ids=["dict", "list"])
    def test_bad_rating_after_warm_memo_raises(self, bad, make):
        # the memo holds this draw's probabilities, but the changed rating
        # must still be validated, before any uniform is drawn
        rng = np.random.default_rng(12)
        players = list(range(32))
        br = fill_unseeded(place_seeds(32, players[:8], rng), players[8:], rng)
        ratings = make([100.0 + k for k in players])
        for _ in range(3):
            run_tournament(br, ratings, 0.8722, T250, rng)
        ratings[br[5]] = bad
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="rating"):
            run_tournament(br, ratings, 0.8722, T250, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("make", [lambda v: dict(enumerate(v)), list], ids=["dict", "list"])
    def test_missing_rating_names_the_player(self, make):
        # the dict lacks player 31 and the list is one rating short; no uniform is drawn
        rng = np.random.default_rng(12)
        players = list(range(32))
        br = fill_unseeded(place_seeds(32, players[:8], rng), players[8:], rng)
        ratings = make([100.0 + k for k in players[:31]])
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="player 31 has no rating"):
            run_tournament(br, ratings, 0.8722, T250, rng)
        assert rng.bit_generator.state == state

    def test_negative_id_has_no_rating_in_a_list(self):
        # a list read player -1's rating from its end, the last player's;
        # a mapping may key a rating by -1, and playing it first leaves the
        # memo holding the very slot ratings the list gives
        rng = np.random.default_rng(12)
        players = [-1, *range(1, 32)]
        br = fill_unseeded(place_seeds(32, players[:8], rng), players[8:], rng)
        ratings = [100.0 + k for k in range(32)]
        run_tournament(br, {p: ratings[p] for p in players}, 0.8722, T250, rng)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="player -1 has no rating"):
            run_tournament(br, ratings, 0.8722, T250, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_unknown_category_raises_before_any_draw(self, warm):
        # the category is looked up on every call, memo hits included
        rng = np.random.default_rng(12)
        players, ratings = list(range(32)), [1.0] * 32
        run_tournament(players, ratings, 0.8 if warm else 0.9, T250, rng)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="^unknown category 'nope'$"):
            run_tournament(players, ratings, 0.8, "nope", rng)
        assert rng.bit_generator.state == state

    def test_repeat_edited_into_warm_memo_raises(self):
        # the memo keeps a copy of the slot list, so an edit made in place
        # after a call is checked again, before any uniform is drawn
        rng = np.random.default_rng(12)
        br, players = full_bracket(32, rng)
        ratings = dict.fromkeys(players, 100.0)
        for _ in range(3):
            run_tournament(br, ratings, 0.8722, T250, rng)
        br[br.index(players[20])] = players[7]
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="repeated player"):
            run_tournament(br, ratings, 0.8722, T250, rng)
        assert rng.bit_generator.state == state

    def test_fixed_seed_reproduces(self):
        br, players = full_bracket(32, np.random.default_rng(10))
        ratings = {p: float(100 + k) for k, p in enumerate(players)}
        a = run_tournament(br, ratings, 0.9, T250, np.random.default_rng(123))
        b = run_tournament(br, ratings, 0.9, T250, np.random.default_rng(123))
        assert a == b


@pytest.mark.parametrize("draw", SUPPORTED_DRAWS)
def test_draw_consumes_the_reference_stream(draw):
    """Balloting and playing a draw leave the generator where a reference
    leaves it that permutes every seed group, the one-slot groups of seeds
    1 and 2 included, then the unseeded players, then draws one uniform per
    match; the seeds land where that reference puts them.  Bounded draws
    reject at random, so a skipped permutation can go unseen on one seed:
    several are checked."""
    players = list(range(draw))
    n_seeds = SEEDS_FOR_DRAW[draw]
    for seed in range(12):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        slots = place_seeds(draw, players[:n_seeds], rng)
        want: list = [None] * draw
        start = 0
        for group in seed_slot_groups(draw):
            for player, k in zip(players[start:start + len(group)], ref.permutation(len(group))):
                want[group[k] - 1] = player
            start += len(group)
        assert slots == want
        assert rng.bit_generator.state == ref.bit_generator.state
        filled = fill_unseeded(slots, players[n_seeds:], rng)
        ref.permutation(draw - n_seeds)
        assert rng.bit_generator.state == ref.bit_generator.state
        run_tournament(filled, [100.0 + k for k in players], 0.8722, T250, rng)
        ref.random(draw - 1)
        assert rng.bit_generator.state == ref.bit_generator.state


def _random_field(draw: int, rng: np.random.Generator, names=str):
    """A balloted draw of players ``names(0..draw-1)`` with spread-out ratings."""
    players = [names(i) for i in range(draw)]
    n_seeds = SEEDS_FOR_DRAW[draw]
    br = fill_unseeded(place_seeds(draw, players[:n_seeds], rng), players[n_seeds:], rng)
    ratings = dict(zip(players, rng.lognormal(6.0, 1.0, draw).tolist()))
    return br, ratings


def _calls_replayed(draw, alpha, rng):
    br, ratings = _random_field(draw, rng)
    return [(br, ratings, alpha)] * 30


def _calls_fresh(draw, alpha, rng):
    br, _ = _random_field(draw, rng)
    return [(br, dict(zip(br, rng.lognormal(6.0, 1.0, draw).tolist())), alpha)
            for _ in range(30)]


def _calls_alternating(draw, alpha, rng):
    first, second = _random_field(draw, rng), _random_field(draw, rng)
    return [(*field, alpha) for _ in range(15) for field in (first, second)]


def _calls_renamed(draw, alpha, rng):
    # equal slot ratings under other ids: the memo may hit, the ids must not leak
    br, ratings = _random_field(draw, rng)
    renamed = [f"x{p}" for p in br]
    renamed_ratings = {f"x{p}": r for p, r in ratings.items()}
    return [call for _ in range(15) for call in ((br, ratings, alpha),
                                                (renamed, renamed_ratings, alpha))]


def _calls_alpha_switch(draw, alpha, rng):
    br, ratings = _random_field(draw, rng)
    return [(br, ratings, a) for _ in range(10) for a in (alpha, 0.8722 * 2, alpha)]


def _calls_season_ids(draw, alpha, rng):
    # int player ids indexing one list of ratings, many at the floor value,
    # several draws of one week's pool
    n = 300
    ratings = np.maximum(rng.lognormal(5.0, 2.0, n) - 150.0, 1.0).tolist()
    calls = []
    for _ in range(10):
        entrants = rng.permutation(n)[:draw].tolist()
        n_seeds = SEEDS_FOR_DRAW[draw]
        br = fill_unseeded(place_seeds(draw, entrants[:n_seeds], rng), entrants[n_seeds:], rng)
        calls += [(br, ratings, alpha)] * 3
    return calls


def _calls_mutated(draw, alpha, rng):
    # one list object edited in place between calls, by a swap of two slots
    # or a player replaced: the ratings the memo reads stay equal, the draw does not
    br, ratings = _random_field(draw, rng)
    spare = "spare"
    ratings[spare] = float(rng.lognormal(6.0, 1.0))
    for k in range(10):
        yield br, ratings, alpha
        yield br, ratings, alpha
        if k % 2:
            br[0], br[-1] = br[-1], br[0]
        else:
            slot = k % draw
            br[slot], spare = spare, br[slot]


def _calls_sequences(draw, alpha, rng):
    # the same draw as a list, a tuple and an ndarray
    br, ratings = _random_field(draw, rng, names=int)
    return [(seq, ratings, alpha) for _ in range(10) for seq in (br, tuple(br), np.array(br))]


@pytest.mark.parametrize("calls", [_calls_replayed, _calls_fresh, _calls_alternating,
                                   _calls_renamed, _calls_alpha_switch, _calls_season_ids,
                                   _calls_mutated, _calls_sequences],
                         ids=lambda f: f.__name__.removeprefix("_calls_"))
@pytest.mark.parametrize("alpha", [0.0, 0.8722, 50.0])
@pytest.mark.parametrize("draw", SUPPORTED_DRAWS)
def test_run_tournament_equals_reference(draw, alpha, calls):
    """Every call's items, their order and the generator state equal the
    round-by-round reference, however calls share the probability memo.
    A family may edit a slot list it yielded once both calls are made."""
    category = {32: T250, 64: M, 128: GS}[draw]
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    for br, ratings, a in calls(draw, alpha, np.random.default_rng(draw)):
        got = run_tournament(br, ratings, a, category, rng)
        want = _reference_run_tournament(br, ratings, a, category, ref_rng)
        assert list(got.items()) == list(want.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.slow
def test_equal_points_champion_is_uniform():
    """With equal ratings every slot should win the draw equally often.

    Chi-square over 32 cells at one million runs; the 99.9% critical value
    for 31 degrees of freedom is 61.1.  Deterministic for the fixed seed.
    """
    rng = np.random.default_rng(20170320)
    players = [f"p{i:02d}" for i in range(32)]
    ratings = {p: 1000.0 for p in players}
    br = place_seeds(32, players[:8], rng)
    br = fill_unseeded(br, players[8:], rng)
    n_runs, chunk = 1_000_000, 100_000
    wins = np.zeros(32, dtype=np.int64)  # by slot
    for _ in range(n_runs // chunk):
        # each row lists slots in order of exit: the champion is last
        wins += np.bincount(run_tournaments(br, ratings, 0.8722, rng, chunk)[:, -1],
                            minlength=32)
    expected = n_runs / 32
    chi2 = float(((wins - expected) ** 2 / expected).sum())
    assert chi2 < 61.1


def test_chi2_quantile_and_equal_odds():
    # published 0.999 quantiles; at equal ratings slot k survives r rounds
    # with chance 2**-r exactly
    for df, quantile in ((1, 10.828), (16, 39.252), (31, 61.098), (127, 181.993)):
        assert _chi2_quantile(0.999, df) == pytest.approx(quantile, abs=1e-3)
    surv = _survival([100.0] * 32, 0.8722)
    assert np.array_equal(surv, np.broadcast_to(0.5 ** np.arange(6), (32, 6)))


@pytest.mark.parametrize("draw, n", [(32, 100_000), (128, 40_000)])
def test_run_tournaments_meets_exact_odds(draw, n):
    """Every round's survivors of the batched kernel, against the exact
    survival table of the draw's spread-out ratings."""
    br, ratings = _random_field(draw, np.random.default_rng(draw))
    exits = run_tournaments(br, ratings, 0.8722, np.random.default_rng(2017), n)
    # matches won at each position of a row: the first-round losers none,
    # the next draw / 4 one, and so on, the champion every round's
    rounds = draw.bit_length()
    won_at = np.repeat(np.arange(rounds), [*(draw >> np.arange(1, rounds)), 1])
    won = np.empty_like(exits)
    won[np.arange(n)[:, None], exits] = won_at
    assert_survivors_match(won, _survival([ratings[p] for p in br], 0.8722))


def test_run_tournament_meets_exact_odds():
    """The scalar kernel's rounds reached, against the same table."""
    br, ratings = _random_field(32, np.random.default_rng(32))
    rng = np.random.default_rng(2017)
    won_by_round = {tag: (32 // size).bit_length() - 1 for size, tag in ROUND_OF.items()
                    if size <= 32} | {"W": 5}
    won = np.array([[won_by_round[results[p].round_reached] for p in br]
                    for results in (run_tournament(br, ratings, 0.8722, T250, rng)
                                    for _ in range(20_000))])
    assert_survivors_match(won, _survival([ratings[p] for p in br], 0.8722))


@pytest.mark.parametrize("alpha", [0.0, 0.8722, 50.0])
@pytest.mark.parametrize("draw", SUPPORTED_DRAWS)
def test_run_tournaments_equals_scalar_calls(draw, alpha):
    """Row k is the exit order of the k-th scalar call, as slot indices, and
    the generator ends where those calls leave it, across batched calls."""
    category = {32: T250, 64: M, 128: GS}[draw]
    br, ratings = _random_field(draw, np.random.default_rng(draw))
    slot_of_player = {p: k for k, p in enumerate(br)}
    rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
    for n in (0, 1, 150, 349):
        got = run_tournaments(br, ratings, alpha, rng, n)
        want = [[slot_of_player[p] for p in run_tournament(br, ratings, alpha, category, ref_rng)]
                for _ in range(n)]
        assert got.shape == (n, draw)
        assert got.tolist() == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _bad_inputs():
    br, players = full_bracket(32, np.random.default_rng(0))
    ratings = dict.fromkeys(players, 100.0)
    repeated = [*br[:-1], br[0]]
    low = {**ratings, players[3]: 0.0}
    yield "open", [None, *br[1:]], ratings, 1.0
    yield "repeated", repeated, ratings, 1.0
    yield "size", br[:16], ratings, 1.0
    yield "alpha", br, ratings, math.nan
    yield "missing", br, {p: 1.0 for p in players[1:]}, 1.0
    yield "rating", br, low, 1.0
    yield "negative", [*range(-1, 31)], [100.0] * 32, 1.0  # a list reads -1 from its end
    yield "non-integer", [f"p{k}" for k in range(32)], [100.0] * 32, 1.0  # no 'p0' in a list


@pytest.mark.parametrize("case", list(_bad_inputs()), ids=lambda case: case[0])
def test_run_tournaments_checks_as_scalar(case):
    # one set of checks, so one message; nothing is drawn before it
    _, slots, ratings, alpha = case
    with pytest.raises(DomainError) as scalar:
        run_tournament(slots, ratings, alpha, T250, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match=f"^{re.escape(str(scalar.value))}$"):
        run_tournaments(slots, ratings, alpha, rng, 10)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [-1, 2.0, "3"])
def test_run_tournaments_needs_a_count(n):
    br, players = full_bracket(32, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="n must be a nonnegative integer"):
        run_tournaments(br, dict.fromkeys(players, 100.0), 1.0, rng, n)
    assert rng.bit_generator.state == state
