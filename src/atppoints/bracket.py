"""Seeded single-elimination draws and model-driven tournament simulation.

Seed placement follows the tour convention: seeds 1 and 2 anchor the
extreme slots, then each successive seed group ({3-4}, {5-8}, {9-16},
{17-32}) is balloted one-per-section into a fixed slot of equal bracket
sections.  For a 32-draw this puts seeds 3-4 on {9, 24} and seeds 5-8 on
{8, 16, 17, 25}, which guarantees that seeds 1-2 cannot meet before the
final, 1-4 before the semifinals, and 1-8 before the quarterfinals.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .formula import win_probability
from .points import Category, points_for, points_or_zero

if TYPE_CHECKING:  # numpy only types annotations here; importing the module loads none
    import numpy as np

#: Conventional seed count for each supported draw size.
SEEDS_FOR_DRAW = {32: 8, 64: 16, 128: 32}
SUPPORTED_DRAWS = tuple(SEEDS_FOR_DRAW)

#: Round tag keyed by number of players still in.
ROUND_OF = {2: "F", 4: "SF", 8: "QF", 16: "R16", 32: "R32", 64: "R64", 128: "R128"}

PlayerId = Hashable

_NONE_IS_OPEN = "None marks an open slot in a bracket, so it cannot be a player"


def _draw_size(draw_size: int) -> int:
    """An integer size that ``SEEDS_FOR_DRAW`` holds, as an int, checked before a cache hashes it."""
    if isinstance(draw_size, numbers.Integral) and draw_size in SEEDS_FOR_DRAW:
        return int(draw_size)
    raise DomainError(f"unsupported draw size {draw_size!r}; expected one of {SUPPORTED_DRAWS}")


def seed_slot_groups(draw_size: int) -> list[list[int]]:
    """Ballot slot sets per seed group, each in ascending order.

    Seeds 1 and 2 take slots 1 and N, seeds 3 and 4 take slots N/4 + 1 and
    3N/4.  Each later group takes both slots on either side of every
    boundary between sections N/4 wide, then N/8, and so on, leaving out
    the slots an earlier seed holds.  A 32-draw gives [[1], [32], [9, 24],
    [8, 16, 17, 25]], the published slots; 64 and 128 draws extend the
    rule to their ``SEEDS_FOR_DRAW`` seeds.
    """
    n = _draw_size(draw_size)
    groups = [[1], [n], [n // 4 + 1, 3 * n // 4]]
    held = {slot for group in groups for slot in group}
    width = n // 4
    while len(held) < SEEDS_FOR_DRAW[n]:
        group = [slot for edge in range(width, n, width) for slot in (edge, edge + 1)
                 if slot not in held]
        groups.append(group)
        held.update(group)
        width //= 2
    return groups


@functools.cache
def _seed_slot_groups(draw_size: int) -> tuple[tuple[int, ...], ...]:
    """``seed_slot_groups`` as 0-based slot indices."""
    return tuple(tuple(slot - 1 for slot in group) for group in seed_slot_groups(draw_size))


def place_seeds(
    draw_size: int,
    seeded_players: Sequence[PlayerId],
    rng: np.random.Generator,
) -> list[PlayerId | None]:
    """The draw's slot list with its ``SEEDS_FOR_DRAW`` seeds balloted within
    each group: ``slots[k]`` is the player at 1-based slot k+1, or None while
    open; so None cannot be a seed."""
    draw_size = _draw_size(draw_size)
    if len(seeded_players) != SEEDS_FOR_DRAW[draw_size]:
        raise DomainError(f"a {draw_size}-draw takes {SEEDS_FOR_DRAW[draw_size]} seeds, "
                          f"got {len(seeded_players)}")
    distinct = set(seeded_players)
    if len(distinct) != len(seeded_players):
        raise DomainError("seeded players must be distinct")
    if None in distinct:
        raise DomainError(_NONE_IS_OPEN)
    slots: list[PlayerId | None] = [None] * draw_size
    seeds = iter(seeded_players)
    for group_slots in _seed_slot_groups(draw_size):
        # shuffling a list draws what rng.permutation of its length draws,
        # nothing for the one-slot groups of seeds 1 and 2
        ballot = list(group_slots)
        rng.shuffle(ballot)
        for slot, player in zip(ballot, seeds):  # takes a seed per slot, in seed order
            slots[slot] = player
    return slots


def fill_unseeded(
    slots: Sequence[PlayerId | None],
    players: Sequence[PlayerId],
    rng: np.random.Generator,
) -> list[PlayerId | None]:
    """Ballot the unseeded players onto the open slots, returning a new slot list.

    A player listed twice or already placed raises ``DomainError`` naming
    the player, and so does None, before any random number is drawn."""
    open_slots = [k for k, p in enumerate(slots) if p is None]
    if len(open_slots) != len(players):
        raise DomainError(
            f"{len(players)} unseeded players for {len(open_slots)} open slots"
        )
    placed = set(slots)
    if len(placed.union(players)) != len(placed) + len(players):
        if None in players:  # None is in placed: it marks the open slots
            raise DomainError(_NONE_IS_OPEN)
        for player in players:
            if player in placed:
                where = "already placed in the bracket" if player in slots else "listed twice"
                raise DomainError(f"unseeded player {player!r} is {where}")
            placed.add(player)
    ballot = list(players)
    rng.shuffle(ballot)
    filled = list(slots)
    for slot, player in zip(open_slots, ballot):
        filled[slot] = player
    return filled


@dataclass(frozen=True)
class TournamentResult:
    round_reached: str
    points: int


@functools.cache
def _exit_results(category: Category, draw: int) -> tuple[TournamentResult, ...]:
    """Each round's loser results, first round first, then the champion's."""
    losers = [TournamentResult(tag, points_or_zero(category, tag, draw))
              for size, tag in sorted(ROUND_OF.items(), reverse=True) if size <= draw
              for _ in range(size // 2)]
    return (*losers, TournamentResult("W", points_for(category, "W")))


def _gathered(gather: operator.itemgetter, slots: Sequence[PlayerId],
              ratings: Mapping[PlayerId, float] | Sequence[float]) -> tuple[float, ...]:
    """``gather(ratings)``, naming the first slot player without a rating."""
    try:
        return gather(ratings)
    except (LookupError, TypeError):  # a player the ratings lack or cannot index
        for player in slots:
            try:
                ratings[player]
            except (LookupError, TypeError):
                raise DomainError(f"player {player!r} has no rating") from None
        raise


def _slot_ratings(
    slots: Sequence[PlayerId],
    ratings: Mapping[PlayerId, float] | Sequence[float],
    alpha: float,
) -> tuple[operator.itemgetter, tuple[float, ...]]:
    """``itemgetter(*slots)`` and the slot players' ratings it reads, after
    the input checks both kernels share; each raises ``DomainError``."""
    draw = len(slots)
    players = set(slots)
    if None in players or len(players) != draw or draw not in SEEDS_FOR_DRAW:
        raise DomainError(f"bracket has unfilled slots, a repeated player or a size not in "
                          f"{SUPPORTED_DRAWS}: {draw} slots hold {len(players)} distinct values")
    if not 0 <= alpha < math.inf:
        raise DomainError(f"alpha must be nonnegative and finite, got {alpha!r}")
    gather = operator.itemgetter(*slots)
    values = _gathered(gather, slots, ratings)
    if not isinstance(ratings, Mapping) and min(slots) < 0:
        # a sequence reads a negative index from its end: another player's rating
        raise DomainError(f"player {next(p for p in slots if p < 0)!r} has no rating")
    for player, rating in zip(slots, values):
        if not 0 < rating < math.inf:
            raise DomainError(f"player {player!r} has non-positive or non-finite "
                              f"rating {rating!r}")
    return gather, values


# The draw played last: (alpha, a copy of its slot list, the type of its
# ratings, its slot ratings, itemgetter(*slots), its first-round win
# probabilities, {a * draw + b: p} for later rounds).  Every p is a function
# of alpha and the slot ratings alone, so callers sharing the memo cannot
# affect each other.
_memo: tuple = (math.nan, [], None, (), None, [], {})


def run_tournament(
    slots: Sequence[PlayerId],
    ratings: Mapping[PlayerId, float] | Sequence[float],
    alpha: float,
    category: Category,
    rng: np.random.Generator,
) -> dict[PlayerId, TournamentResult]:
    """Play out the draw; returns each player's exit round and points.

    Slot 1 meets slot 2, 3 meets 4, and winners are re-paired in order.  Each
    match is won by the slot-i player with the model probability for the
    rating ratio, drawn with one uniform per match in bracket order.  Players
    are listed in order of exit; blank point-table cells award 0.  ``slots``
    must hold distinct players in every slot of a supported draw, each with
    a positive finite rating; a negative player id has no rating in a
    sequence of ratings.

    A one-entry memo keeps the last draw played: its alpha, a copy of its
    slot list, the type of its ratings container and the slot ratings read
    from it, the first-round win probabilities, and later slot-pair
    probabilities in a table keyed ``a * draw + b`` by the two slot indices
    (a the first).  A call hits the memo when ``slots`` is a list equal to
    the copy, alpha is equal, and the slot ratings read from a container of
    the same type are equal; a hit skips the input checks, which ran when
    the memo was stored.  Otherwise every input is checked before the first
    uniform is drawn; the category is checked on every call, hit or miss.
    """
    global _memo
    memo_alpha, memo_slots, memo_type, values, gather, first, probs = _memo
    if not (type(slots) is list and alpha == memo_alpha and type(ratings) is memo_type
            and slots == memo_slots and _gathered(gather, slots, ratings) == values):
        gather, values = _slot_ratings(slots, ratings, alpha)
        first = [win_probability(alpha, a / b) for a, b in zip(values[0::2], values[1::2])]
        probs = {}
        _memo = (alpha, list(slots), type(ratings), values, gather, first, probs)

    draw = len(values)
    try:
        exit_results = _exit_results(category, draw)
    except ValueError:
        raise DomainError(f"unknown category {category!r}") from None
    us = iter(rng.random(draw - 1).tolist())
    # first round: slot a meets a + 1 and wins when its uniform is under p
    alive = [a if u < p else a + 1 for a, u, p in zip(range(0, draw, 2), us, first)]
    exits = [w ^ 1 for w in alive]
    pairs = iter(alive)  # later rounds: each match appends its winner
    for u, a, b in zip(us, pairs, pairs):
        p = probs.get(a * draw + b)
        if p is None:
            p = probs[a * draw + b] = win_probability(alpha, values[a] / values[b])
        if u >= p:  # the second slot wins
            a, b = b, a
        alive.append(a)
        exits.append(b)
    exits.append(alive[-1])
    return dict(zip(operator.itemgetter(*exits)(slots), exit_results))


def run_tournaments(
    slots: Sequence[PlayerId],
    ratings: Mapping[PlayerId, float] | Sequence[float],
    alpha: float,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """Play the draw n times; row k holds the slot indices of play k in
    order of exit, the champion last, shape ``(n, draw)``.

    Play k is the k-th of n ``run_tournament`` calls in turn: row k of
    ``rng.random((n, draw - 1))`` is its uniforms in bracket order, and
    every match reads its probability from a slot-pair table built with
    ``win_probability``.  The inputs are checked as ``run_tournament``
    checks them, and n must be a nonnegative integer, before any uniform is
    drawn.  numpy is imported here, so importing this module loads none.
    """
    import numpy as np

    _, values = _slot_ratings(slots, ratings, alpha)
    if not isinstance(n, numbers.Integral) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    draw = len(values)
    pair_p = np.array([[win_probability(alpha, x / y) for y in values] for x in values])
    us = rng.random((n, draw - 1))
    exits = np.empty((n, draw), dtype=np.intp)
    alive = np.broadcast_to(np.arange(draw), (n, draw))
    done = 0
    while alive.shape[1] > 1:
        a, b = alive[:, 0::2], alive[:, 1::2]
        first_wins = us[:, done:done + a.shape[1]] < pair_p[a, b]
        exits[:, done:done + a.shape[1]] = np.where(first_wins, b, a)
        alive = np.where(first_wins, a, b)
        done += a.shape[1]
    exits[:, -1] = alive[:, 0]
    return exits
