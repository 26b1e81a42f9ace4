"""Integer-programming congestion games.

Each of N players picks an integer point of their own system
A^i x = b^i, 0 <= x <= u^i; a shared coupling constraint
sum_i B^i x^i <= b^0 restricts the joint choice.  The provider pays
sum_j c_j(y_j) for the aggregate usage y = sum_i x^i, and each player
is charged the marginal cost their participation adds.  A profile in
which every player's strategy is marginal-cost-minimal given the others
is a generalized Nash equilibrium; minimizing the provider cost over
all feasible profiles always produces one, which is how equilibria are
computed here.

A best response is found the same way: player k's own program, given
the others, is the equilibrium program of a one-player game whose
coupling bound is what the rivals leave and whose costs are shifted by
the rivals' usage.  A game's costs are valid by their parameters alone
(`params_ok`: convex and nondecreasing on y >= 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .costs import ZERO_COST, SeparableObjective, ShiftedCost
from .errors import CertificateError, DimensionError, InfeasibleError, ValidationError
from .linalg import IntMatrix, IntVec, check_ints, vsub
from .nfold import build_multitype_matrix
from .solver import DEFAULT_ELEMENT_CAP, IpInstance, solve_ip


def _total(vectors: Iterable[IntVec]) -> IntVec:
    """The entrywise sum of one or more vectors of one length, such as one per player."""
    vectors = tuple(vectors)
    if not vectors:
        raise ValidationError("a sum over players needs at least one vector")
    if len(set(map(len, vectors))) != 1:
        raise DimensionError("per-player vectors differ in length")
    return tuple(map(sum, zip(*vectors)))


@dataclass(frozen=True)
class PlayerSpec:
    A: IntMatrix
    b: IntVec
    u: IntVec
    B: IntMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "u", tuple(self.u))
        check_ints(self.b + self.u, "b and u")
        if self.A.ncols != self.B.ncols:
            raise DimensionError("A and B must share the variable dimension")
        if len(self.b) != self.A.nrows:
            raise DimensionError("b length != A row count")
        if len(self.u) != self.A.ncols:
            raise DimensionError("u length != variable dimension")
        if any(v < 0 for v in self.u):
            raise ValidationError("strategy bounds must be nonnegative")

    def accepts(self, x: IntVec) -> bool:
        return (
            len(x) == self.A.ncols
            and all(0 <= v <= b for v, b in zip(x, self.u))
            and self.A.matvec(x) == self.b
        )


@dataclass(frozen=True)
class GameInstance:
    players: tuple[PlayerSpec, ...]
    b0: IntVec
    costs: SeparableObjective

    def __post_init__(self) -> None:
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(self, "b0", tuple(self.b0))
        check_ints(self.b0, "b0")
        if not self.players:
            raise ValidationError("a game needs at least one player")
        n = self.players[0].A.ncols
        m = self.players[0].B.nrows
        for p in self.players:
            if p.A.ncols != n or p.B.nrows != m:
                raise DimensionError("players must share n and m")
        if len(self.b0) != m:
            raise DimensionError("b0 length != coupling row count")
        if len(self.costs) != n:
            raise DimensionError("cost count != resource count")
        if not all(c.params_ok() for c in self.costs.terms):
            raise ValidationError("cost functions must be convex monotone")

    @property
    def n(self) -> int:
        return self.players[0].A.ncols

    @property
    def m(self) -> int:
        return self.players[0].B.nrows

    @property
    def num_players(self) -> int:
        return len(self.players)


@dataclass(frozen=True)
class StrategyProfile:
    strategies: tuple[IntVec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategies", tuple(map(tuple, self.strategies)))
        check_ints((v for s in self.strategies for v in s), "strategies")


def is_feasible_profile(game: GameInstance, profile: StrategyProfile) -> bool:
    pairs = tuple(zip(game.players, profile.strategies))
    if len(profile.strategies) != game.num_players or not all(p.accepts(x) for p, x in pairs):
        return False
    return all(c <= b for c, b in zip(_total(p.B.matvec(x) for p, x in pairs), game.b0))


def aggregate_usage(profile: StrategyProfile) -> IntVec:
    """The aggregate usage y = sum_i x^i; a profile with no strategy is a ValidationError."""
    return _total(profile.strategies)


def provider_cost(game: GameInstance, profile: StrategyProfile) -> Fraction:
    if not is_feasible_profile(game, profile):
        raise InfeasibleError("profile violates the game constraints")
    return game.costs.value(aggregate_usage(profile))


def _check_player(game: GameInstance, profile: StrategyProfile, k: int) -> None:
    if not 0 <= k < game.num_players:
        raise ValidationError(f"player index {k} out of range")
    if not is_feasible_profile(game, profile):
        raise InfeasibleError("profile violates the game constraints")


def player_cost(game: GameInstance, profile: StrategyProfile, k: int) -> Fraction:
    """Marginal cost of player k: full provider cost minus the cost without k."""
    _check_player(game, profile, k)
    usage = aggregate_usage(profile)
    return game.costs.value(usage) - game.costs.value(vsub(usage, profile.strategies[k]))


def _residual_game(game: GameInstance, profile: StrategyProfile, k: int) -> GameInstance:
    """Player k's own program, with the others held fixed, as a one-player game.

    The coupling bound is what the rivals leave, b^0 - sum_{i != k} B^i x^i,
    and each cost c_j(. + r_j) is shifted by the rivals' usage r.
    """
    own, x = game.players[k], profile.strategies[k]
    rivals = vsub(aggregate_usage(profile), x)
    load = _total(p.B.matvec(s) for p, s in zip(game.players, profile.strategies))
    residual = vsub(game.b0, vsub(load, own.B.matvec(x)))
    shifted = tuple(ShiftedCost(c, r) for c, r in zip(game.costs.terms, rivals))
    return GameInstance((own,), residual, SeparableObjective(shifted))


def best_response(
    game: GameInstance, profile: StrategyProfile, k: int, cap: int = DEFAULT_ELEMENT_CAP
) -> IntVec:
    """A strategy of player k that minimizes their cost given the others.

    It is the equilibrium of the one-player residual game; the player's
    current strategy is feasible there, so that game is never infeasible.
    """
    _check_player(game, profile, k)
    return find_equilibrium(_residual_game(game, profile, k), cap=cap).strategies[0]


def is_satisfied(
    game: GameInstance, profile: StrategyProfile, k: int, cap: int = DEFAULT_ELEMENT_CAP
) -> bool:
    """True iff player k's strategy costs them no more than a best response.

    The response is checked: one that leaves the game's constraints or
    costs more than the current strategy is a solver fault and raises
    CertificateError.
    """
    response = best_response(game, profile, k, cap=cap)
    moved = StrategyProfile(profile.strategies[:k] + (response,) + profile.strategies[k + 1 :])
    if not is_feasible_profile(game, moved):
        raise CertificateError(f"player {k}'s best response violates the game constraints")
    current, best = player_cost(game, profile, k), player_cost(game, moved, k)
    if best > current:
        raise CertificateError(f"player {k}'s best response costs {best}, more than {current}")
    return best == current


def is_generalized_nash(
    game: GameInstance, profile: StrategyProfile, cap: int = DEFAULT_ELEMENT_CAP
) -> bool:
    return all(is_satisfied(game, profile, k, cap=cap) for k in range(game.num_players))


def equilibrium_instance(game: GameInstance) -> IpInstance:
    """The provider-cost minimization whose optima are equilibria.

    Columns: per-player x-blocks, aggregate usage y, coupling slack s.
    Costs sit on the y-columns only.  Bounds on y and s come from
    interval arithmetic over the strategy boxes.
    """
    n, m, players = game.n, game.m, game.players
    matrix = build_multitype_matrix([(p.A, p.B) for p in players], range(len(players)))
    # rows: aggregation, coupling, each player's own rows
    rhs = (0,) * n + game.b0 + tuple(v for p in players for v in p.b)
    # columns: the x-blocks, y, s
    bounds = (
        tuple(v for p in players for v in p.u)
        + _total(p.u for p in players)
        + tuple(
            max(0, b0 - sum(min(0, p.B.entries[i][j] * p.u[j]) for p in players for j in range(n)))
            for i, b0 in enumerate(game.b0)
        )
    )
    terms = (ZERO_COST,) * (len(players) * n) + tuple(game.costs.terms) + (ZERO_COST,) * m
    return IpInstance(matrix, rhs, bounds, SeparableObjective(terms))


def find_equilibrium(game: GameInstance, cap: int = DEFAULT_ELEMENT_CAP) -> StrategyProfile:
    result = solve_ip(equilibrium_instance(game), cap=cap)
    if result.status != "optimal":
        raise InfeasibleError("no profile satisfies the coupling constraint")
    # player i's x-block starts at i*n; a range stepping by n would fail for n = 0
    n = game.n
    return StrategyProfile(tuple(result.x[i * n : i * n + n] for i in range(game.num_players)))
