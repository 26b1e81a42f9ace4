import pytest

from gravernash import (
    Box,
    GameInstance,
    InfeasibleError,
    IntMatrix,
    IpInstance,
    PlayerSpec,
    ResourceCapExceeded,
    StrategyProfile,
    brute_graver,
    brute_ip_opt,
    brute_nash_check,
    enumerate_box_points,
)
from gravernash.errors import ValidationError

from conftest import identity_matrix, squares_objective, zero_matrix


def test_enumerate_box_points():
    with pytest.raises(ValidationError):
        Box((0,), (1, 1))
    pts = enumerate_box_points(Box((0, 0), (1, 1)))
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]
    odd = enumerate_box_points(Box((0,), (4,)), predicate=lambda p: p[0] % 2 == 1)
    assert odd == [(1,), (3,)]
    with pytest.raises(ResourceCapExceeded):
        enumerate_box_points(Box((0, 0), (9, 9)), cap=50)
    # 3^30 points but for one empty range: none, and no cap is passed
    assert enumerate_box_points(Box((-1,) * 30 + (1,), (1,) * 30 + (0,)), cap=50) == []


def test_brute_graver_small_cases():
    basis = brute_graver(IntMatrix.from_rows([[1, 1]]), 2)
    assert basis.elements == ((-1, 1), (1, -1))
    wide = brute_graver(IntMatrix.from_rows([[1, 2]]), 2)
    assert set(wide.elements) == {(2, -1), (-2, 1)}
    assert brute_graver(identity_matrix(2), 2).elements == ()


def test_brute_ip_opt():
    inst = IpInstance(
        IntMatrix.from_rows([[1, 1, 1]]), (3,), (3, 3, 3), squares_objective(3)
    )
    value, argmins = brute_ip_opt(inst)
    assert value == 3
    assert argmins == [(1, 1, 1)]
    with pytest.raises(InfeasibleError):
        brute_ip_opt(
            IpInstance(IntMatrix.from_rows([[1, 1]]), (5,), (1, 1), squares_objective(2))
        )


def test_brute_nash_check_two_player_split():
    player = PlayerSpec(
        A=IntMatrix.from_rows([[1, 1]]), b=(1,), u=(1, 1), B=zero_matrix(1, 2)
    )
    game = GameInstance(players=(player, player), b0=(0,), costs=squares_objective(2))
    feasible, minima, equilibria = brute_nash_check(game)
    assert len(feasible) == 4
    split = {
        StrategyProfile(((1, 0), (0, 1))),
        StrategyProfile(((0, 1), (1, 0))),
    }
    assert set(minima) == split
    assert set(equilibria) == split


def test_brute_nash_check_infeasible_game():
    player = PlayerSpec(
        A=IntMatrix.from_rows([[1, 1]]), b=(1,), u=(1, 1),
        B=IntMatrix.from_rows([[1, 1]]),
    )
    game = GameInstance(players=(player,), b0=(0,), costs=squares_objective(2))
    assert brute_nash_check(game) == ([], [], [])
