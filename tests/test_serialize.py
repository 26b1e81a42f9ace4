from fractions import Fraction

import pytest

from gravernash import (
    GameInstance,
    IiopAnswer,
    IntMatrix,
    IpInstance,
    PlayerSpec,
    StrategyProfile,
    ValidationError,
    graver_basis,
)
from gravernash.costs import (
    AffineCost,
    PiecewiseLinearCost,
    PowerCost,
    QuadraticCost,
    SeparableObjective,
)
from gravernash.serialize import (
    answer_from_json,
    catalog_from_json,
    answer_to_json,
    cost_from_json,
    cost_to_json,
    dumps,
    frac_from_str,
    frac_to_str,
    game_from_json,
    game_to_json,
    graver_from_json,
    graver_to_json,
    int_from_json,
    ip_instance_from_json,
    ip_instance_to_json,
    matrix_from_json,
    matrix_to_json,
    objective_from_json,
    objective_to_json,
    profile_from_json,
    profile_to_json,
    ratvec_from_json,
)

F = Fraction


def test_frac_round_trip():
    assert frac_to_str(F(3, 4)) == "3/4"
    assert frac_to_str(F(5)) == "5"
    assert frac_from_str("3/4") == F(3, 4)
    assert frac_from_str("-2") == F(-2)
    assert frac_from_str(7) == F(7)
    for bad in ["abc", "1/0", None, True, 1.5]:
        with pytest.raises(ValidationError):
            frac_from_str(bad)


def test_int_from_json_is_strict():
    assert int_from_json(3) == 3
    assert int_from_json("-4") == -4
    for bad in (2.5, 3.0, True, "x", "2.5", None, [1]):
        with pytest.raises(ValidationError):
            int_from_json(bad)
    with pytest.raises(ValidationError):
        ip_instance_from_json(
            {"D": [[1, 1]], "d": [2], "u": [1, False], "objective": []}
        )
    with pytest.raises(ValidationError):
        matrix_from_json([[1, 0.5]])


def test_matrix_round_trip():
    m = IntMatrix.from_rows([[1, -2], [0, 3]])
    assert matrix_from_json(matrix_to_json(m)) == m
    assert matrix_from_json([[1, -2], [0, 3]]) == m
    with pytest.raises(ValidationError):
        matrix_from_json([])
    with pytest.raises(ValidationError):
        matrix_from_json("nope")


def test_cost_round_trips():
    costs = [
        AffineCost(F(2), F(1, 3)),
        QuadraticCost(F(1), F(-4), F(4)),
        PowerCost(F(3), 3),
        PiecewiseLinearCost(breakpoints=(1, 3), slopes=(F(1), F(2), F(5, 2)), c0=F(0)),
    ]
    for c in costs:
        back = cost_from_json(cost_to_json(c))
        assert back == c
    with pytest.raises(ValidationError):
        cost_from_json({"kind": "mystery"})
    with pytest.raises(ValidationError):
        cost_from_json({"kind": "affine"})


@pytest.mark.parametrize(
    "decode, obj",
    [
        (ratvec_from_json, "12"),
        (objective_from_json, 5),
        (cost_from_json, [1]),
        (graver_from_json, {"matrix": [[1, 1]], "elements": 5}),
        (catalog_from_json, {"types": [1], "assignment": [0]}),
        (game_from_json, {"players": [1], "b0": [0], "costs": []}),
        (profile_from_json, [[1, 0]]),
        (answer_from_json, {"verdict": "no", "certificate": [["1"]]}),
        (answer_from_json, {"verdict": "yes", "lambda": 5}),
    ],
)
def test_nested_json_shapes_are_validation_errors(decode, obj):
    with pytest.raises(ValidationError):
        decode(obj)


def test_objective_round_trip():
    obj = SeparableObjective((AffineCost(F(1), F(0)), QuadraticCost(F(1), F(0), F(0))))
    assert objective_from_json(objective_to_json(obj)) == obj


def test_graver_round_trip():
    basis = graver_basis(IntMatrix.from_rows([[1, 1, 1]]))
    back = graver_from_json(graver_to_json(basis))
    assert back.matrix == basis.matrix
    assert back.elements == basis.elements


def test_ip_instance_round_trip():
    inst = IpInstance(
        IntMatrix.from_rows([[1, 1]]),
        (2,),
        (2, 2),
        SeparableObjective((AffineCost(F(1), F(0)), AffineCost(F(2), F(0)))),
    )
    back = ip_instance_from_json(ip_instance_to_json(inst))
    assert back.D == inst.D
    assert back.d == inst.d
    assert back.u == inst.u
    assert back.objective == inst.objective


def test_game_and_profile_round_trip():
    player = PlayerSpec(
        A=IntMatrix.from_rows([[1, 1]]), b=(1,), u=(1, 1), B=IntMatrix.zero(1, 2)
    )
    game = GameInstance(
        players=(player, player),
        b0=(0,),
        costs=SeparableObjective(
            (QuadraticCost(F(1), F(0), F(0)), QuadraticCost(F(1), F(0), F(0)))
        ),
    )
    back = game_from_json(game_to_json(game))
    assert back == game
    profile = StrategyProfile(((1, 0), (0, 1)))
    assert profile_from_json(profile_to_json(profile)) == profile


def test_answer_round_trip():
    yes = IiopAnswer(verdict="yes", lam=(F(1, 4), F(3, 4)))
    assert answer_from_json(answer_to_json(yes)) == yes
    no = IiopAnswer(
        verdict="no", shifts=((-1, 1),), certificate=(F(2, 3),)
    )
    back = answer_from_json(answer_to_json(no))
    assert back.verdict == "no"
    assert back.shifts == ((-1, 1),)
    assert back.certificate == (F(2, 3),)


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [1, 2]})
    b = dumps({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}'
