import json
from fractions import Fraction

import pytest

from gravernash import (
    GameInstance,
    IiopAnswer,
    IntMatrix,
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
    answer_to_json,
    catalog_from_json,
    cost_from_json,
    dumps,
    frac_from_str,
    frac_to_str,
    game_from_json,
    graver_to_json,
    iiop_from_json,
    int_from_json,
    intvec_from_json,
    ip_instance_from_json,
    matrix_from_json,
    matrix_to_json,
    objective_from_json,
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
    """Each cost kind in the README's JSON form decodes to the cost built in Python."""
    documented = [
        ('{"kind": "affine", "a": "2", "b": "1/3"}', AffineCost(F(2), F(1, 3))),
        ('{"kind": "quadratic", "a": "1", "b": "-4", "c": "4"}', QuadraticCost(F(1), F(-4), F(4))),
        ('{"kind": "power", "a": "3", "k": 3}', PowerCost(F(3), 3)),
        (
            '{"kind": "piecewise_linear", "breakpoints": [1, 3],'
            ' "slopes": ["1/2", "2", "5/2"], "c0": "0"}',
            PiecewiseLinearCost(breakpoints=(1, 3), slopes=(F(1, 2), F(2), F(5, 2)), c0=F(0)),
        ),
    ]
    for text, cost in documented:
        assert cost_from_json(json.loads(text)) == cost
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
        (iiop_from_json, {"D": [[1]], "d": [1], "u": [1], "xstar": [1], "shapes": {}}),
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
    text = """[{"kind": "affine", "a": "1", "b": "0"},
              {"kind": "quadratic", "a": "1", "b": "0", "c": "0"}]"""
    obj = SeparableObjective((AffineCost(F(1), F(0)), QuadraticCost(F(1), F(0), F(0))))
    assert objective_from_json(json.loads(text)) == obj


def test_graver_round_trip():
    """The `graver` payload's JSON form decodes back to the basis."""
    basis = graver_basis(IntMatrix.from_rows([[1, 1, 1]]))
    payload = json.loads(dumps(graver_to_json(basis)))
    assert payload == {
        "matrix": [[1, 1, 1]],
        "elements": [[-1, 0, 1], [-1, 1, 0], [0, -1, 1], [0, 1, -1], [1, -1, 0], [1, 0, -1]],
    }
    assert matrix_from_json(payload["matrix"]) == basis.matrix
    assert tuple(intvec_from_json(g) for g in payload["elements"]) == basis.elements


def test_ip_instance_round_trip():
    text = """{"D": [[1, 1]], "d": [2], "u": [2, 2],
              "objective": [{"kind": "affine", "a": "1", "b": "0"},
                            {"kind": "affine", "a": "2", "b": "0"}]}"""
    inst = ip_instance_from_json(json.loads(text))
    assert inst.D == IntMatrix.from_rows([[1, 1]])
    assert inst.d == (2,)
    assert inst.u == (2, 2)
    assert inst.objective == SeparableObjective((AffineCost(F(1), F(0)), AffineCost(F(2), F(0))))


def test_game_and_profile_round_trip():
    """A `verify-equilibrium` input: a game and a profile in the README's form."""
    text = """{"game": {"players": [{"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[0, 0]]},
                                {"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[0, 0]]}],
                        "b0": [0],
                        "costs": [{"kind": "quadratic", "a": "1", "b": "0", "c": "0"},
                                  {"kind": "quadratic", "a": "1", "b": "0", "c": "0"}]},
               "profile": {"strategies": [[1, 0], [0, 1]]}}"""
    data = json.loads(text)
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
    assert game_from_json(data["game"]) == game
    profile = StrategyProfile(((1, 0), (0, 1)))
    assert profile_from_json(data["profile"]) == profile
    assert profile_to_json(profile) == data["profile"]


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
