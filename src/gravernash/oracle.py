"""Brute-force reference implementations for tests and acceptance runs.

Everything here enumerates integer boxes directly and shares no logic
with the completion procedure or the augmentation solver beyond the
elementary sign-pattern predicates, so it can serve as an independent
oracle.  Hard caps keep the enumerations at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import InfeasibleError, ResourceCapExceeded, ValidationError
from .game import (
    GameInstance,
    StrategyProfile,
    aggregate_usage,
    is_feasible_profile,
)
from .graver import GraverBasis
from .linalg import IntMatrix, IntVec, conformal_leq, is_zero, vadd, vsub
from .solver import IpInstance

DEFAULT_POINT_CAP = 10_000_000


@dataclass(frozen=True)
class Box:
    lower: IntVec
    upper: IntVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(self.lower))
        object.__setattr__(self, "upper", tuple(self.upper))
        if len(self.lower) != len(self.upper):
            raise ValidationError("box bounds must have equal lengths")


def _exceeds(counts: Iterable[int], cap: int) -> bool:
    """Whether the product of `counts` passes cap, multiplying only until it does."""
    counts = list(counts)
    if 0 in counts:
        return False
    total = 1
    for count in counts:
        total *= count
        if total > cap:
            return True
    return False


def enumerate_box_points(
    box: Box,
    predicate: Optional[Callable[[IntVec], bool]] = None,
    cap: int = DEFAULT_POINT_CAP,
) -> list[IntVec]:
    """All integer points of the box passing the predicate, lexicographic."""
    if _exceeds((max(0, hi - lo + 1) for lo, hi in zip(box.lower, box.upper)), cap):
        raise ResourceCapExceeded(f"box holds more than {cap} points, past the cap")
    ranges = [range(lo, hi + 1) for lo, hi in zip(box.lower, box.upper)]
    points = itertools.product(*ranges)
    if predicate is None:
        return [tuple(p) for p in points]
    return [tuple(p) for p in points if predicate(tuple(p))]


def brute_graver(
    mat: IntMatrix, bound: int, cap: int = DEFAULT_POINT_CAP
) -> GraverBasis:
    """Graver basis by definition, restricted to the [-bound, bound] box.

    Enumerates the nonzero kernel points of the box and keeps exactly
    those with no nonzero kernel point strictly below them in the
    conformal order.
    """
    if bound < 0:
        raise ValidationError(f"the box bound must be nonnegative, not {bound}")
    n = mat.ncols
    box = Box(tuple([-bound] * n), tuple([bound] * n))
    kernel = [
        p
        for p in enumerate_box_points(box, cap=cap)
        if not is_zero(p) and is_zero(mat.matvec(p))
    ]
    minimal = [
        g
        for g in kernel
        if not any(h != g and conformal_leq(h, g) for h in kernel)
    ]
    return GraverBasis(matrix=mat, elements=tuple(sorted(minimal)))


def brute_ip_opt(
    inst: IpInstance, cap: int = DEFAULT_POINT_CAP
) -> tuple[Fraction, list[IntVec]]:
    """Exhaustive minimum of the objective over the feasible box points."""
    box = Box(tuple([0] * inst.D.ncols), inst.u)
    feasible = enumerate_box_points(
        box, predicate=lambda p: inst.D.matvec(p) == inst.d, cap=cap
    )
    if not feasible:
        raise InfeasibleError("no integer point satisfies the constraints")
    values = [(inst.objective.value(p), p) for p in feasible]
    best = min(v for v, _ in values)
    return best, [p for v, p in values if v == best]


def _strategy_set(game: GameInstance, k: int, cap: int) -> list[IntVec]:
    player = game.players[k]
    box = Box(tuple([0] * game.n), player.u)
    return enumerate_box_points(
        box, predicate=lambda p: player.A.matvec(p) == player.b, cap=cap
    )


def _oracle_satisfied(
    game: GameInstance, profile: StrategyProfile, k: int, strategies: list[IntVec]
) -> bool:
    """Satisfaction by enumeration over player k's alternatives."""
    rivals = vsub(aggregate_usage(profile), profile.strategies[k])
    residual = list(game.b0)
    for i, (p, x) in enumerate(zip(game.players, profile.strategies)):
        if i != k:
            residual = [r - v for r, v in zip(residual, p.B.matvec(x))]
    current = game.costs.value(vadd(profile.strategies[k], rivals))
    for z in strategies:
        load = game.players[k].B.matvec(z)
        if any(l > r for l, r in zip(load, residual)):
            continue
        if game.costs.value(vadd(z, rivals)) < current:
            return False
    return True


def brute_nash_check(
    game: GameInstance, cap: int = DEFAULT_POINT_CAP
) -> tuple[list[StrategyProfile], list[StrategyProfile], list[StrategyProfile]]:
    """Classify every feasible profile of an enumerable game.

    Returns (all feasible profiles, provider-cost minimizers,
    generalized Nash equilibria), each in lexicographic order.
    """
    per_player = [_strategy_set(game, k, cap) for k in range(game.num_players)]
    if _exceeds(map(len, per_player), cap):
        raise ResourceCapExceeded(f"more than {cap} profiles, past the cap")

    feasible = []
    for combo in itertools.product(*per_player):
        profile = StrategyProfile(strategies=tuple(combo))
        if is_feasible_profile(game, profile):
            feasible.append(profile)

    if not feasible:
        return [], [], []

    costs = [game.costs.value(aggregate_usage(p)) for p in feasible]
    best = min(costs)
    minima = [p for p, c in zip(feasible, costs) if c == best]
    equilibria = [
        p
        for p in feasible
        if all(
            _oracle_satisfied(game, p, k, per_player[k])
            for k in range(game.num_players)
        )
    ]
    return feasible, minima, equilibria
