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

from .costs import ZERO_COST, SeparableObjective, ShiftedCost
from .errors import DimensionError, InfeasibleError, ValidationError
from .linalg import IntMatrix, IntVec, vadd, vsub
from .nfold import TypeCatalog, build_multitype_matrix
from .solver import DEFAULT_ELEMENT_CAP, IpInstance, solve_ip


@dataclass(frozen=True)
class PlayerSpec:
    A: IntMatrix
    b: IntVec
    u: IntVec
    B: IntMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "u", tuple(self.u))
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
        object.__setattr__(
            self, "strategies", tuple(tuple(s) for s in self.strategies)
        )


def is_feasible_profile(game: GameInstance, profile: StrategyProfile) -> bool:
    if len(profile.strategies) != game.num_players:
        return False
    coupling = [0] * game.m
    for player, x in zip(game.players, profile.strategies):
        if not player.accepts(x):
            return False
        coupling = vadd(tuple(coupling), player.B.matvec(x))
    return all(c <= b for c, b in zip(coupling, game.b0))


def aggregate_usage(profile: StrategyProfile) -> IntVec:
    total = profile.strategies[0]
    for s in profile.strategies[1:]:
        total = vadd(total, s)
    return total


def provider_cost(game: GameInstance, profile: StrategyProfile) -> Fraction:
    if not is_feasible_profile(game, profile):
        raise InfeasibleError("profile violates the game constraints")
    return game.costs.value(aggregate_usage(profile))


def player_cost(game: GameInstance, profile: StrategyProfile, k: int) -> Fraction:
    """Marginal cost of player k: full provider cost minus the cost without k."""
    if not 0 <= k < game.num_players:
        raise ValidationError(f"player index {k} out of range")
    if not is_feasible_profile(game, profile):
        raise InfeasibleError("profile violates the game constraints")
    usage = aggregate_usage(profile)
    without = vsub(usage, profile.strategies[k])
    return game.costs.value(usage) - game.costs.value(without)


def _residual_game(game: GameInstance, profile: StrategyProfile, k: int) -> GameInstance:
    """Player k's own program, with the others held fixed, as a one-player game.

    The coupling bound is what the rivals leave, b^0 - sum_{i != k} B^i x^i,
    and each cost c_j(. + r_j) is shifted by the rivals' usage r.
    """
    residual, rivals = game.b0, (0,) * game.n
    for i, (other, x) in enumerate(zip(game.players, profile.strategies)):
        if i != k:
            residual = vsub(residual, other.B.matvec(x))
            rivals = vadd(rivals, x)
    shifted = tuple(ShiftedCost(c, r) for c, r in zip(game.costs.terms, rivals))
    return GameInstance((game.players[k],), residual, SeparableObjective(shifted))


def best_response(
    game: GameInstance, profile: StrategyProfile, k: int, cap: int = DEFAULT_ELEMENT_CAP
) -> IntVec:
    """A strategy of player k that minimizes their cost given the others.

    It is the equilibrium of the one-player residual game; the player's
    current strategy is feasible there, so that game is never infeasible.
    """
    if not 0 <= k < game.num_players:
        raise ValidationError(f"player index {k} out of range")
    if not is_feasible_profile(game, profile):
        raise InfeasibleError("profile violates the game constraints")
    return find_equilibrium(_residual_game(game, profile, k), cap=cap).strategies[0]


def is_satisfied(
    game: GameInstance, profile: StrategyProfile, k: int, cap: int = DEFAULT_ELEMENT_CAP
) -> bool:
    response = best_response(game, profile, k, cap=cap)
    costs = _residual_game(game, profile, k).costs
    return costs.value(profile.strategies[k]) == costs.value(response)


def is_generalized_nash(
    game: GameInstance, profile: StrategyProfile, cap: int = DEFAULT_ELEMENT_CAP
) -> bool:
    return all(
        is_satisfied(game, profile, k, cap=cap) for k in range(game.num_players)
    )


def equilibrium_instance(game: GameInstance) -> IpInstance:
    """The provider-cost minimization whose optima are equilibria.

    Columns: per-player x-blocks, aggregate usage y, coupling slack s.
    Costs sit on the y-columns only.  Bounds on y and s come from
    interval arithmetic over the strategy boxes.
    """
    n, m, N = game.n, game.m, game.num_players
    catalog = TypeCatalog(
        types=tuple((p.A, p.B) for p in game.players), assignment=tuple(range(N))
    )
    matrix = build_multitype_matrix(catalog)

    rhs = tuple([0] * n) + tuple(game.b0)
    for p in game.players:
        rhs = rhs + tuple(p.b)

    y_ub = [0] * n
    for p in game.players:
        y_ub = list(vadd(tuple(y_ub), p.u))
    s_ub = []
    for i in range(m):
        least = sum(
            min(0, p.B.entries[i][j] * p.u[j]) for p in game.players for j in range(n)
        )
        s_ub.append(max(0, game.b0[i] - least))
    bounds: tuple[int, ...] = ()
    for p in game.players:
        bounds = bounds + tuple(p.u)
    bounds = bounds + tuple(y_ub) + tuple(s_ub)

    terms = (
        tuple(ZERO_COST for _ in range(N * n))
        + tuple(game.costs.terms)
        + tuple(ZERO_COST for _ in range(m))
    )
    return IpInstance(matrix, rhs, bounds, SeparableObjective(terms))


def find_equilibrium(
    game: GameInstance, cap: int = DEFAULT_ELEMENT_CAP
) -> StrategyProfile:
    inst = equilibrium_instance(game)
    result = solve_ip(inst, cap=cap)
    if result.status != "optimal":
        raise InfeasibleError("no profile satisfies the coupling constraint")
    n, N = game.n, game.num_players
    strategies = tuple(
        tuple(result.x[i * n : (i + 1) * n]) for i in range(N)
    )
    return StrategyProfile(strategies=strategies)
