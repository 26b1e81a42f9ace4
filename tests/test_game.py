import random
from fractions import Fraction

import pytest

import gravernash.game
from gravernash import (
    CertificateError,
    DimensionError,
    GameInstance,
    InfeasibleError,
    IntMatrix,
    PlayerSpec,
    StrategyProfile,
    ValidationError,
    aggregate_usage,
    best_response,
    brute_nash_check,
    find_equilibrium,
    is_feasible_profile,
    is_generalized_nash,
    is_satisfied,
    player_cost,
    provider_cost,
)
from gravernash.costs import ZERO_COST, AffineCost, SeparableObjective
from gravernash.game import equilibrium_instance
from gravernash.nfold import build_multitype_matrix

from conftest import identity_matrix, random_game, squares_objective, zero_matrix

F = Fraction

A11 = IntMatrix.from_rows([[1, 1]])
NO_COUPLING = zero_matrix(1, 2)


def two_player_game() -> GameInstance:
    player = PlayerSpec(A=A11, b=(1,), u=(1, 1), B=NO_COUPLING)
    return GameInstance(players=(player, player), b0=(0,), costs=squares_objective(2))


def test_aggregate_usage():
    assert aggregate_usage(StrategyProfile(((1, 0), (0, 1)))) == (1, 1)
    assert aggregate_usage(StrategyProfile(((1, 0),))) == (1, 0)
    assert aggregate_usage(StrategyProfile(((1, 0), (1, 0)))) == (2, 0)


def test_aggregate_usage_needs_strategies_of_one_length():
    with pytest.raises(ValidationError):
        aggregate_usage(StrategyProfile(()))
    with pytest.raises(DimensionError):
        aggregate_usage(StrategyProfile(((1, 0), (1,))))


def test_provider_cost():
    game = two_player_game()
    assert provider_cost(game, StrategyProfile(((1, 0), (0, 1)))) == 2
    assert provider_cost(game, StrategyProfile(((1, 0), (1, 0)))) == 4
    with pytest.raises(InfeasibleError):
        provider_cost(game, StrategyProfile(((1, 1), (0, 1))))


def test_player_cost_marginal_formula():
    game = two_player_game()
    split = StrategyProfile(((1, 0), (0, 1)))
    assert player_cost(game, split, 0) == (1 + 1) - (0 + 1)
    stacked = StrategyProfile(((1, 0), (1, 0)))
    assert player_cost(game, stacked, 0) == 4 - 1
    assert player_cost(game, stacked, 1) == 4 - 1


def test_player_cost_zero_strategy():
    player = PlayerSpec(A=zero_matrix(1, 2), b=(0,), u=(1, 1), B=NO_COUPLING)
    game = GameInstance(players=(player,), b0=(0,), costs=squares_objective(2))
    assert player_cost(game, StrategyProfile(((0, 0),)), 0) == 0


def test_player_cost_index_out_of_range():
    game = two_player_game()
    with pytest.raises(ValidationError):
        player_cost(game, StrategyProfile(((1, 0), (0, 1))), 2)


@pytest.mark.parametrize("k", [-1, 2])
def test_best_response_index_out_of_range(k):
    game = two_player_game()
    with pytest.raises(ValidationError):
        best_response(game, StrategyProfile(((1, 0), (0, 1))), k)


def test_best_response_examples():
    game = two_player_game()
    assert best_response(game, StrategyProfile(((0, 1), (1, 0))), 0) == (0, 1)
    assert best_response(game, StrategyProfile(((1, 0), (0, 1))), 1) == (0, 1)
    # single player without coupling: the global optimum
    lone = PlayerSpec(A=A11, b=(1,), u=(1, 1), B=NO_COUPLING)
    solo = GameInstance(
        players=(lone,),
        b0=(0,),
        costs=SeparableObjective((AffineCost(F(5), F(0)), AffineCost(F(1), F(0)))),
    )
    assert best_response(solo, StrategyProfile(((1, 0),)), 0) == (0, 1)


def test_is_satisfied_examples():
    game = two_player_game()
    split = StrategyProfile(((1, 0), (0, 1)))
    assert is_satisfied(game, split, 0)
    assert is_satisfied(game, split, 1)
    stacked = StrategyProfile(((1, 0), (1, 0)))
    assert not is_satisfied(game, stacked, 0)
    assert not is_satisfied(game, stacked, 1)
    assert is_generalized_nash(game, split)
    assert not is_generalized_nash(game, stacked)


@pytest.mark.parametrize("faulty, message", [((1, 0), "costs"), ((1, 1), "violates")])
def test_faulty_best_response_raises_certificate_error(monkeypatch, faulty, message):
    """A response that costs more than the current strategy, or leaves the game, is a solver fault."""
    game = two_player_game()
    split = StrategyProfile(((1, 0), (0, 1)))
    # the split is an equilibrium: player 1 moving onto player 0's resource costs 4 - 1 = 3 > 2 - 1
    assert player_cost(game, StrategyProfile(((1, 0), (1, 0))), 1) > player_cost(game, split, 1)
    monkeypatch.setattr(gravernash.game, "best_response", lambda *args, **kwargs: faulty)
    with pytest.raises(CertificateError, match=message):
        is_satisfied(game, split, 1)
    with pytest.raises(CertificateError):
        is_generalized_nash(game, split)


def test_single_strategy_always_satisfied():
    pinned = PlayerSpec(A=identity_matrix(2), b=(1, 0), u=(1, 1), B=NO_COUPLING)
    game = GameInstance(players=(pinned,), b0=(0,), costs=squares_objective(2))
    assert is_satisfied(game, StrategyProfile(((1, 0),)), 0)


def test_find_equilibrium_two_player():
    game = two_player_game()
    profile = find_equilibrium(game)
    assert aggregate_usage(profile) == (1, 1)
    assert is_generalized_nash(game, profile)
    assert provider_cost(game, profile) == 2


def test_find_equilibrium_single_player():
    lone = PlayerSpec(A=A11, b=(1,), u=(1, 1), B=NO_COUPLING)
    game = GameInstance(
        players=(lone,),
        b0=(0,),
        costs=SeparableObjective((AffineCost(F(5), F(0)), AffineCost(F(1), F(0)))),
    )
    profile = find_equilibrium(game)
    assert profile.strategies == ((0, 1),)


def test_find_equilibrium_with_binding_coupling():
    # coupling forbids resource 1 entirely: both players move to resource 2
    player = PlayerSpec(A=A11, b=(1,), u=(1, 1), B=IntMatrix.from_rows([[1, 0]]))
    game = GameInstance(players=(player, player), b0=(0,), costs=squares_objective(2))
    profile = find_equilibrium(game)
    assert profile.strategies == ((0, 1), (0, 1))
    assert is_generalized_nash(game, profile)


def test_find_equilibrium_without_resources():
    # n = 0: every player's x-block is empty, one per player
    player = PlayerSpec(A=IntMatrix(1, 0, ((),)), b=(0,), u=(), B=IntMatrix(0, 0, ()))
    game = GameInstance(players=(player, player), b0=(), costs=SeparableObjective(()))
    assert find_equilibrium(game).strategies == ((), ())


LAYOUT_COSTS = (AffineCost(F(1), F(0)), AffineCost(F(2), F(1, 2)))


def layout_game(coupling: tuple[list[list[int]], list[list[int]]], b0) -> GameInstance:
    """Two players of differing types on 2 resources; `coupling` holds their B rows."""
    first = PlayerSpec(A=A11, b=(1,), u=(1, 2), B=IntMatrix.from_rows(coupling[0], 2))
    second = PlayerSpec(
        A=IntMatrix.from_rows([[1, 0]]), b=(0,), u=(2, 1), B=IntMatrix.from_rows(coupling[1], 2)
    )
    return GameInstance(players=(first, second), b0=b0, costs=SeparableObjective(LAYOUT_COSTS))


def test_equilibrium_instance_layout():
    """Columns (x^1, x^2, y, s), rows (aggregation, coupling, own rows), worked by hand."""
    game = layout_game(([[1, -2], [0, 1]], [[-1, 3], [1, 0]]), (2, -1))
    inst = equilibrium_instance(game)
    assert inst.D == build_multitype_matrix([(p.A, p.B) for p in game.players], range(2))
    assert inst.d == (0, 0, 2, -1, 1, 0)
    # y <= u^1 + u^2; s_i <= max(0, b0_i - sum_j min(0, B_ij u_j)):
    # row 1: 2 - (0 - 4 - 2 + 0) = 8; row 2: max(0, -1 - 0) = 0
    assert inst.u == (1, 2, 2, 1, 3, 3, 8, 0)
    assert inst.objective.terms == (ZERO_COST,) * 4 + LAYOUT_COSTS + (ZERO_COST,) * 2


def test_equilibrium_instance_layout_without_coupling():
    game = layout_game(([], []), ())
    inst = equilibrium_instance(game)
    assert inst.D == build_multitype_matrix([(p.A, p.B) for p in game.players], range(2))
    assert (inst.D.nrows, inst.D.ncols) == (4, 6)
    assert inst.d == (0, 0, 1, 0)
    assert inst.u == (1, 2, 2, 1, 3, 3)
    assert inst.objective.terms == (ZERO_COST,) * 4 + LAYOUT_COSTS


def test_find_equilibrium_infeasible_game():
    player = PlayerSpec(A=A11, b=(1,), u=(1, 1), B=IntMatrix.from_rows([[1, 1]]))
    game = GameInstance(players=(player,), b0=(0,), costs=squares_objective(2))
    with pytest.raises(InfeasibleError):
        find_equilibrium(game)


def test_player_cost_nonnegative():
    rng = random.Random(23)
    for _ in range(15):
        game = random_game(rng)
        feasible, _, _ = brute_nash_check(game)
        for profile in feasible[:6]:
            for k in range(game.num_players):
                assert player_cost(game, profile, k) >= 0


def test_potential_minima_are_equilibria_random():
    rng = random.Random(24)
    checked = 0
    for _ in range(12):
        game = random_game(rng)
        feasible, minima, equilibria = brute_nash_check(game)
        if not feasible:
            continue
        checked += 1
        for profile in minima:
            assert profile in equilibria
        found = find_equilibrium(game)
        assert found in equilibria
        assert provider_cost(game, found) == min(
            provider_cost(game, p) for p in feasible
        )
    assert checked > 0


def test_mixed_type_game_uses_multitype_matrix():
    fast = PlayerSpec(A=A11, b=(1,), u=(1, 1), B=IntMatrix.from_rows([[1, 0]]))
    slow = PlayerSpec(
        A=IntMatrix.from_rows([[1, 0]]), b=(1,), u=(1, 1), B=IntMatrix.from_rows([[0, 1]])
    )
    game = GameInstance(players=(fast, slow), b0=(2,), costs=squares_objective(2))
    profile = find_equilibrium(game)
    assert is_feasible_profile(game, profile)
    assert is_generalized_nash(game, profile)
    _, minima, equilibria = brute_nash_check(game)
    assert profile in equilibria
    assert provider_cost(game, profile) == provider_cost(game, minima[0])


def test_invalid_game_costs_rejected():
    player = PlayerSpec(A=A11, b=(1,), u=(1, 1), B=NO_COUPLING)
    with pytest.raises(ValidationError):
        GameInstance(
            players=(player,),
            b0=(0,),
            costs=SeparableObjective((AffineCost(F(-1), F(0)), AffineCost(F(1), F(0)))),
        )


def test_is_generalized_nash_matches_oracle_on_every_profile(rng):
    profiles = non_equilibria = 0
    for _ in range(40):
        game = random_game(rng)
        feasible, _, equilibria = brute_nash_check(game)
        for profile in feasible:
            verdict = profile in equilibria
            assert is_generalized_nash(game, profile) == verdict
            profiles += 1
            non_equilibria += not verdict
    assert non_equilibria > 0 and profiles > non_equilibria
