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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from .errors import DomainError
from .formula import win_probability
from .points import Category, points_for, points_or_zero

if TYPE_CHECKING:  # numpy only types the generators; importing the module loads none
    import numpy as np

#: Conventional seed count for each supported draw size.
SEEDS_FOR_DRAW = {32: 8, 64: 16, 128: 32}
SUPPORTED_DRAWS = tuple(SEEDS_FOR_DRAW)

#: Round tag keyed by number of players still in.
ROUND_OF = {2: "F", 4: "SF", 8: "QF", 16: "R16", 32: "R32", 64: "R64", 128: "R128"}

PlayerId = Hashable


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
    each group: ``slots[k]`` is the player at 1-based slot k+1, or None while open."""
    draw_size = _draw_size(draw_size)
    if len(seeded_players) != SEEDS_FOR_DRAW[draw_size]:
        raise DomainError(f"a {draw_size}-draw takes {SEEDS_FOR_DRAW[draw_size]} seeds, "
                          f"got {len(seeded_players)}")
    if len(set(seeded_players)) != len(seeded_players):
        raise DomainError("seeded players must be distinct")
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
    the player, before any random number is drawn."""
    open_slots = [k for k, p in enumerate(slots) if p is None]
    if len(open_slots) != len(players):
        raise DomainError(
            f"{len(players)} unseeded players for {len(open_slots)} open slots"
        )
    placed = set(slots)
    if len(placed.union(players)) != len(placed) + len(players):
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


# (alpha, slot ratings, {a * draw + b: p}) of the draw played last; p is a
# function of the key alone, so callers sharing the memo cannot affect each other.
_memo: tuple[float, list[float], dict[int, float]] = (math.nan, [], {})


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
    are listed in order of exit; blank point-table cells award 0.  A one-entry
    memo keeps the slot-pair probabilities of the last alpha and ratings
    played, in a table keyed ``a * draw + b`` by the two slot indices (a the
    first).  ``slots`` must hold distinct players in every slot of a
    supported draw.  Every input is checked before the first uniform is
    drawn; ratings equal to the memo's were checked when it was stored.
    """
    global _memo
    draw = len(slots)
    players = set(slots)
    if None in players or len(players) != draw or draw not in SEEDS_FOR_DRAW:
        raise DomainError(f"bracket has unfilled slots, a repeated player or a size not in "
                          f"{SUPPORTED_DRAWS}: {draw} slots hold {len(players)} distinct values")
    if not 0 <= alpha < math.inf:
        raise DomainError(f"alpha must be nonnegative and finite, got {alpha!r}")
    try:
        values = list(map(ratings.__getitem__, slots))
    except LookupError:  # a mapping without the player, or a sequence too short
        for player in slots:
            try:
                ratings[player]
            except LookupError:
                raise DomainError(f"player {player!r} has no rating") from None
        raise
    memo_alpha, memo_values, probs = _memo
    # a list equal to the memo's was validated when stored; nan equals nothing
    if alpha != memo_alpha or values != memo_values:
        for player, rating in zip(slots, values):
            if not 0 < rating < math.inf:
                raise DomainError(f"player {player!r} has non-positive or non-finite "
                                  f"rating {rating!r}")
        probs = {}
        _memo = (alpha, values, probs)

    alive = list(range(draw))  # slot indices; each match appends its winner
    exits: list[int] = []
    pairs = iter(alive)
    for u, a, b in zip(rng.random(draw - 1).tolist(), pairs, pairs):
        p = probs.get(a * draw + b)
        if p is None:
            p = probs[a * draw + b] = win_probability(alpha, values[a] / values[b])
        if u >= p:  # the second slot wins
            a, b = b, a
        alive.append(a)
        exits.append(b)
    exits.append(alive[-1])
    return dict(zip(map(slots.__getitem__, exits), _exit_results(category, draw)))
