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
    _store_ints,
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
    falling = PiecewiseLinearCost(breakpoints=(2,), slopes=(F(-1), F(1)), c0=F(0))
    assert not falling.params_ok()


def test_validate_probe_catches_differences():
    # probe over 0..K: differences nonnegative and nondecreasing
    cost = QuadraticCost(F(1), F(2), F(3))
    values = [cost.value(y) for y in range(12)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert all(d >= 0 for d in diffs)
    assert all(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert cost.params_ok()


def test_convexity_rule_examples():
    """A cost that is not convex on y >= 0 cannot be built; a convex one that falls can, but fails params_ok."""
    centered = QuadraticCost(F(1), F(-4), F(4))
    assert not centered.params_ok()
    malformed = [
        (QuadraticCost, F(-1), F(0), F(0)),
        (PowerCost, F(-1), 2),
        (PowerCost, F(1), 0),
        (PowerCost, F(1), -1),
        (PiecewiseLinearCost, (), (), F(0)),
        (PiecewiseLinearCost, (1, 2), (F(1),), F(0)),
        (PiecewiseLinearCost, (2,), (F(3), F(1)), F(0)),
        (PiecewiseLinearCost, (0,), (F(1), F(2)), F(0)),
        (PiecewiseLinearCost, (-1,), (F(1), F(2)), F(0)),
        (PiecewiseLinearCost, (2, 2), (F(1), F(2), F(3)), F(0)),
        (PiecewiseLinearCost, (3, 2), (F(1), F(2), F(3)), F(0)),
        (ShiftedCost, QuadraticCost(F(1), F(0), F(0)), -1),
    ]
    for family, *params in malformed:
        with pytest.raises(ValidationError):
            family(*params)


def _random_cost(rng: random.Random, wrap: bool = True):
    """Parameters drawn so that valid and invalid ones both occur often.

    An invalid draw raises ValidationError as its cost is built.
    """

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

    A cost that can be built must give nondecreasing differences
    (convexity); params_ok must also give nonnegative ones (monotone
    growth).
    """
    rng = random.Random(101)
    monotone = set()
    refused = 0
    for _ in range(400):
        try:
            cost = _random_cost(rng)
        except ValidationError:
            refused += 1
            continue
        values = [cost.value(y) for y in range(102)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:])), cost
        if cost.params_ok():
            assert all(d >= 0 for d in diffs), cost
            monotone.add(type(cost).__name__)
    assert refused > 50
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
    assert not ShiftedCost(AffineCost(F(-1), F(9)), 2).params_ok()
    with pytest.raises(ValidationError):
        ShiftedCost(sq, -1)


def test_exactness_no_rounding():
    pw = PiecewiseLinearCost(breakpoints=(1, 3), slopes=(F(1, 3), F(1, 2), F(2)), c0=F(1, 7))
    assert pw.value(5) == F(1, 7) + F(1, 3) + 2 * F(1, 2) + 2 * F(2)


def test_convexity_rule_wants_exact_parameters():
    """A float, a bool, or a Fraction where an int is due cannot be built into a cost."""
    sq = QuadraticCost(F(1), F(0), F(0))
    inexact = [
        (AffineCost, 0.5, F(0)),
        (AffineCost, F(1), True),
        (QuadraticCost, F(1), 0.0, F(0)),
        (PowerCost, 1.0, 2),
        (PowerCost, F(1), 2.0),
        (PowerCost, F(1), True),
        (PowerCost, 1, F(1, 2)),
        (PowerCost, 1, F(2)),
        (PiecewiseLinearCost, (1.5,), (F(0), F(1)), F(0)),
        (PiecewiseLinearCost, (1,), (F(0), 1.0), F(0)),
        (PiecewiseLinearCost, (1,), (F(0), F(1)), "0"),
        # an integral Fraction is stored as an int only after these checks
        (QuadraticCost, F(2), True, F(0)),
        (PowerCost, True, 2),
        (PiecewiseLinearCost, (1,), (F(1), 2), False),
        (ShiftedCost, sq, 1.0),
        (ShiftedCost, sq, True),
        (ShiftedCost, 0.5, 1),
    ]
    for family, *params in inexact:
        with pytest.raises(ValidationError):
            family(*params)
    assert AffineCost(1, 2).params_ok() and PowerCost(2, 3).params_ok()
    assert PowerCost(F(1), 2).value(3) == 9 and type(PowerCost(1, 2).value(3)) is int


def test_negative_exponent_at_zero_is_an_input_error():
    """y^k with k < 1 is not a cost: the package's error when it is built, never ZeroDivisionError at 0."""
    for k in (-3, -1, 0):
        with pytest.raises(ValidationError):
            PowerCost(F(1), k)
    assert PowerCost(F(3), 1).value(0) == 0


def test_power_exponent_above_the_cap_fails_closed():
    """An exponent above MAX_EXPONENT is refused as the cost is built; 1-4 and the cap itself stay valid."""
    for k in (1, 2, 3, 4, MAX_EXPONENT):
        assert PowerCost(F(1), k).params_ok()
    assert PowerCost(1, MAX_EXPONENT).value(2) == 2**MAX_EXPONENT
    for k in (MAX_EXPONENT + 1, 10**7):
        with pytest.raises(ResourceCapExceeded):
            PowerCost(F(1), k)
    # a non-int exponent is an input error, found by the rule, not by the cap
    with pytest.raises(ValidationError):
        PowerCost(F(1), 10.0**7)
    # the cap is checked first: a negative a with a huge exponent is a cap
    with pytest.raises(ResourceCapExceeded):
        PowerCost(F(-1), MAX_EXPONENT + 1)


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


def test_each_family_checks_itself_when_built():
    """Every cost family, and the objective, refuses at construction what the augmentation cannot use."""
    sq = QuadraticCost(F(1), F(0), F(0))
    refused = {
        AffineCost: [(0.5, 0), (1, None)],
        QuadraticCost: [(F(-1, 2), 0, 0), (1, 0, 0.25)],
        PowerCost: [(F(-1), 2), (1, 0), (F(1, 3), 1.0)],
        PiecewiseLinearCost: [((2,), (2, 1), 0), ((2,), (0, 1), 0.0), ([1, 1], [0, 1, 2], 0)],
        ShiftedCost: [(sq, -1), (sq, 0.0), ("sq", 1)],
    }
    for family, cases in refused.items():
        for params in cases:
            with pytest.raises(ValidationError):
                family(*params)
    # sequence fields and terms become tuples, so costs and objectives stay hashable
    pw = PiecewiseLinearCost([1, 3], [0, 1, 2], 0)
    assert (pw.breakpoints, pw.slopes) == ((1, 3), (0, 1, 2))
    obj = SeparableObjective(t for t in (sq, pw))
    assert obj.terms == (sq, pw) and hash(obj) == hash(SeparableObjective((sq, pw)))
    for bad in ((sq, 1), (sq, F(1)), (sq, None), ({"kind": "affine"},)):
        with pytest.raises(ValidationError):
            SeparableObjective(bad)


def _parameters(cost):
    """Every rational parameter of a cost of one of the four families."""
    if isinstance(cost, PiecewiseLinearCost):
        return (*cost.slopes, cost.c0)
    if isinstance(cost, PowerCost):
        return (cost.a,)
    return tuple(vars(cost).values())


def test_integral_parameters_are_stored_as_ints():
    """F(2) is kept as 2 in every family, also inside a shifted cost; F(1, 2) stays a Fraction."""
    built = [
        (AffineCost(F(2), F(1, 2)), AffineCost(2, F(1, 2))),
        (QuadraticCost(F(2), F(1, 2), F(2)), QuadraticCost(2, F(1, 2), 2)),
        (PowerCost(F(2), 3), PowerCost(2, 3)),
        (PiecewiseLinearCost((1,), (F(2), F(5, 2)), F(2)), PiecewiseLinearCost((1,), (2, F(5, 2)), 2)),
    ]
    for cost, twin in built:
        types = [type(q) for q in _parameters(cost)]
        assert types == [int if q.denominator == 1 else Fraction for q in _parameters(cost)]
        assert types == [type(q) for q in _parameters(twin)], cost
        assert cost == twin and hash(cost) == hash(twin)
        shifted = ShiftedCost(cost, 1)
        assert shifted == ShiftedCost(twin, 1) and hash(shifted) == hash(ShiftedCost(twin, 1))
        assert [type(q) for q in _parameters(shifted.base)] == types
    assert type(AffineCost(F(2), F(1, 2)).b) is Fraction
    assert type(ShiftedCost(QuadraticCost(F(2), F(0), F(1)), 2).base.a) is int


def test_store_ints_sets_nothing_when_every_parameter_is_an_int():
    """Int parameters are left as they are; a Fraction(2) among them is still stored as 2."""

    class ReadOnly:
        # a property without a setter: any attempt to store a parameter raises
        a = property(lambda self: 3)
        slopes = property(lambda self: (1, 2))

    _store_ints(ReadOnly(), "a", "slopes")
    ReadOnly.slopes = property(lambda self: (1, F(2)))
    with pytest.raises(AttributeError):
        _store_ints(ReadOnly(), "a", "slopes")
    assert type(PiecewiseLinearCost((1,), (1, F(2)), 0).slopes[1]) is int
    assert type(QuadraticCost(1, 2, F(2)).c) is int


def test_integral_costs_return_int_values():
    rng = random.Random(27)
    seen = set()
    for _ in range(300):
        cost = random_rational_cost(rng)
        for integral in (cost.times(cost.scale()), *([cost] if cost.scale() == 1 else [])):
            assert all(type(integral.value(y)) is int for y in range(8)), integral
        seen.add((type(cost).__name__, cost.scale() == 1))
    assert len(seen) == 10
    objective = SeparableObjective((AffineCost(F(3), F(1)), PowerCost(F(2), 2)))
    assert objective.value((1, 2)) == 12 and type(objective.value((1, 2))) is Fraction


def test_integer_forms_are_the_terms_own_values_at_scale_one():
    """At L = 1 each form is the term's bound `value`; at L > 1 a copy scaled by L."""
    terms = (
        QuadraticCost(F(1), F(2), F(0)),
        AffineCost(F(0), F(4)),
        ShiftedCost(PowerCost(F(3), 2), 1),
        PiecewiseLinearCost((2,), (F(1), F(3)), F(0)),
    )
    scale, forms = SeparableObjective(terms).integer_forms
    assert scale == 1 and forms[1] is None
    for j in (0, 2, 3):
        assert forms[j].__self__ is terms[j]
    halves = terms + (AffineCost(F(1, 2), F(0)),)
    scale, forms = SeparableObjective(halves).integer_forms
    assert scale == 2 and forms[1] is None
    for term, form in zip(halves, forms):
        if form is not None:
            assert form.__self__ is not term
            for y in range(6):
                value = form(y)
                assert type(value) is int and value == 2 * term.value(y)

