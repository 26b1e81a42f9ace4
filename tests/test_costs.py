import random
from fractions import Fraction

import pytest

from gravernash import DimensionError, ResourceCapExceeded, ValidationError
from gravernash.costs import (
    MAX_EXPONENT,
    AffineCost,
    PiecewiseLinearCost,
    PowerCost,
    QuadraticCost,
    SeparableObjective,
    ShiftedCost,
)

from conftest import random_rational_cost

F = Fraction


def test_eval_examples():
    assert QuadraticCost(F(1), F(0), F(0)).value(3) == 9
    assert AffineCost(F(2), F(1)).value(0) == 1
    pw = PiecewiseLinearCost(breakpoints=(2,), slopes=(F(1), F(3)), c0=F(0))
    assert pw.value(4) == 2 * 1 + 2 * 3
    assert pw.value(2) == 2
    assert pw.value(0) == 0


def test_power_cost():
    assert PowerCost(F(2), 3).value(2) == 16


def test_negative_argument_rejected():
    with pytest.raises(ValidationError):
        AffineCost(F(1), F(0)).value(-1)


def test_validate_examples():
    assert QuadraticCost(F(1), F(0), F(0)).params_ok()
    assert not AffineCost(F(-1), F(0)).params_ok()
    decreasing = PiecewiseLinearCost(breakpoints=(2,), slopes=(F(3), F(1)), c0=F(0))
    assert not decreasing.params_ok()


def test_validate_probe_catches_differences():
    # probe over 0..K: differences nonnegative and nondecreasing
    cost = QuadraticCost(F(1), F(2), F(3))
    values = [cost.value(y) for y in range(12)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert all(d >= 0 for d in diffs)
    assert all(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert cost.params_ok()


def test_convexity_rule_examples():
    centered = QuadraticCost(F(1), F(-4), F(4))
    assert centered.convex_ok() and not centered.params_ok()
    malformed = [
        QuadraticCost(F(-1), F(0), F(0)),
        PowerCost(F(-1), 2),
        PowerCost(F(1), 0),
        PowerCost(F(1), -1),
        PiecewiseLinearCost(breakpoints=(), slopes=(), c0=F(0)),
        PiecewiseLinearCost(breakpoints=(1, 2), slopes=(F(1),), c0=F(0)),
        PiecewiseLinearCost(breakpoints=(2,), slopes=(F(3), F(1)), c0=F(0)),
        PiecewiseLinearCost(breakpoints=(0,), slopes=(F(1), F(2)), c0=F(0)),
        PiecewiseLinearCost(breakpoints=(2, 2), slopes=(F(1), F(2), F(3)), c0=F(0)),
    ]
    for cost in malformed:
        assert not cost.convex_ok()
        assert not cost.params_ok()


def _random_cost(rng: random.Random, wrap: bool = True):
    """Parameters drawn so that valid and invalid ones both occur often."""

    def rat() -> Fraction:
        return F(rng.randint(-2, 4), rng.randint(1, 3))

    pick = rng.randrange(5 if wrap else 4)
    if pick == 0:
        return AffineCost(rat(), rat())
    if pick == 1:
        return QuadraticCost(rat(), rat(), rat())
    if pick == 2:
        return PowerCost(rat(), rng.randint(-1, 4))
    if pick == 3:
        breakpoints = tuple(sorted(rng.sample(range(-1, 9), rng.randint(0, 3))))
        slopes = [rat() for _ in range(len(breakpoints) + rng.choice((0, 1, 1, 1, 2)))]
        if rng.random() < 0.7:
            slopes.sort()
        return PiecewiseLinearCost(breakpoints, tuple(slopes), rat())
    return ShiftedCost(_random_cost(rng, wrap=False), rng.randint(-1, 5))


def test_parameter_rules_imply_the_probe():
    """Reference check of the parameter rules by first differences over 0..101.

    convex_ok must give nondecreasing differences (convexity); params_ok
    must also give nonnegative ones (monotone growth).
    """
    rng = random.Random(101)
    monotone = set()
    for _ in range(400):
        cost = _random_cost(rng)
        if not cost.convex_ok():
            assert not cost.params_ok(), cost
            continue
        values = [cost.value(y) for y in range(102)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:])), cost
        if cost.params_ok():
            assert all(d >= 0 for d in diffs), cost
            monotone.add(type(cost).__name__)
    assert monotone == {
        "AffineCost",
        "QuadraticCost",
        "PowerCost",
        "PiecewiseLinearCost",
        "ShiftedCost",
    }


def test_objective_examples():
    sq = QuadraticCost(F(1), F(0), F(0))
    obj = SeparableObjective((sq, sq))
    assert obj.value((1, 2)) == 5
    assert obj.value((0, 0)) == 0
    mixed = SeparableObjective((AffineCost(F(2), F(1)), sq))
    assert mixed.value((3, 1)) == 7 + 1


def test_objective_length_mismatch():
    obj = SeparableObjective((AffineCost(F(1), F(0)),))
    with pytest.raises(DimensionError):
        obj.value((1, 2))


def test_shifted_wrapper():
    sq = QuadraticCost(F(1), F(0), F(0))
    shifted = ShiftedCost(sq, 2)
    assert shifted.value(3) == 25
    assert shifted.params_ok()
    assert not ShiftedCost(sq, -1).params_ok()


def test_exactness_no_rounding():
    pw = PiecewiseLinearCost(breakpoints=(1, 3), slopes=(F(1, 3), F(1, 2), F(2)), c0=F(1, 7))
    assert pw.value(5) == F(1, 7) + F(1, 3) + 2 * F(1, 2) + 2 * F(2)


def test_convexity_rule_wants_exact_parameters():
    sq = QuadraticCost(F(1), F(0), F(0))
    inexact = [
        AffineCost(0.5, F(0)),
        AffineCost(F(1), True),
        QuadraticCost(F(1), 0.0, F(0)),
        PowerCost(1.0, 2),
        PowerCost(F(1), 2.0),
        PowerCost(F(1), True),
        PiecewiseLinearCost(breakpoints=(1.5,), slopes=(F(0), F(1)), c0=F(0)),
        PiecewiseLinearCost(breakpoints=(1,), slopes=(F(0), 1.0), c0=F(0)),
        ShiftedCost(sq, 1.0),
        ShiftedCost(AffineCost(0.5, 0), 1),
    ]
    for cost in inexact:
        assert not cost.convex_ok(), cost
        assert not cost.params_ok(), cost
    assert AffineCost(1, 2).params_ok() and PowerCost(2, 3).params_ok()
    # an exponent outside the rule still evaluates exactly, never to a float
    assert PowerCost(F(1), -1).value(2) == F(1, 2)
    assert type(PowerCost(F(1), -1).value(2)) is Fraction
    assert PowerCost(F(1), 2).value(3) == 9 and type(PowerCost(1, 2).value(3)) is int
    for k in (F(1, 2), 0.5, 2.0, True):
        with pytest.raises(ValidationError):
            PowerCost(1, k).value(4)


def test_negative_exponent_at_zero_is_an_input_error():
    """y^k with k < 0 is undefined at 0: the package's error, not ZeroDivisionError."""
    for k in (-1, -3):
        with pytest.raises(ValidationError):
            PowerCost(F(1), k).value(0)
        with pytest.raises(ValidationError):
            ShiftedCost(PowerCost(F(1), k), -2).value(2)
    assert PowerCost(F(1), -1).value(2) == F(1, 2)
    assert PowerCost(F(3), 0).value(0) == 3


def test_power_exponent_above_the_cap_fails_closed():
    """An exponent above MAX_EXPONENT is refused as the cost is built; 1-4 and the cap itself stay valid."""
    for k in (1, 2, 3, 4, MAX_EXPONENT):
        assert PowerCost(F(1), k).params_ok()
    assert PowerCost(1, MAX_EXPONENT).value(2) == 2**MAX_EXPONENT
    for k in (MAX_EXPONENT + 1, 10**7):
        with pytest.raises(ResourceCapExceeded):
            PowerCost(F(1), k)
    # a non-int exponent is an input error, found by the rule, not by the cap
    assert not PowerCost(F(1), 10.0**7).convex_ok()


def test_integer_forms_scale_every_value():
    """times(scale()) is scale() times the cost, in ints, for every family and nesting."""
    rng = random.Random(2012)
    seen = set()
    for _ in range(400):
        cost = random_rational_cost(rng)
        scale = cost.scale()
        assert type(scale) is int and scale >= 1
        for m in (scale, 3 * scale):
            form = cost.times(m)
            for y in range(13):
                value = form.value(y)
                assert type(value) is int and value == m * cost.value(y), (cost, m, y)
        seen.add(type(cost).__name__)
    assert len(seen) == 5
    with pytest.raises(ValueError):
        AffineCost(F(1, 2), F(0)).times(3)


def test_objective_scale_is_the_lcm():
    obj = SeparableObjective(
        (AffineCost(F(1, 2), F(0)), QuadraticCost(F(1, 3), F(0), F(1, 4)), ShiftedCost(PowerCost(F(5, 6), 2), 1))
    )
    assert obj.scale() == 12
    assert SeparableObjective(()).scale() == 1
    assert type(obj.value((1, 2, 3))) is Fraction
