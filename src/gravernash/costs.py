"""Univariate convex cost functions.

Four closed-form parametric families cover the public surface (affine,
quadratic, power, piecewise linear); evaluation is exact rational at
nonnegative integer arguments.  A shifted wrapper exists for internal
use (best responses shift by the other players' usage) and preserves
convexity and exactness.

A cost is valid from the moment it is built: its constructor raises
ValidationError unless the parameters are exact (an int or a Fraction,
an int where an integer is due) and give a convex function on y >= 0,
the one rule under which Graver augmentation finds optima.  `params_ok`
is a game's further rule, the signs that make a cost nondecreasing.  A
power cost's exponent is a size cap as well: one above MAX_EXPONENT (64)
raises ResourceCapExceeded as the cost is built, before the rule.

A cost stores each integral parameter as an int, whether it was given
as an int or as a Fraction, so its `value` is an int when every
parameter is integral and a Fraction otherwise.

Every valid cost has an integer form: `scale()` is a positive integer L
such that L*f(y) is an integer at every integer y >= 0, and `times(M)`,
for any multiple M of L, is M*f with integer parameters, whose values
are plain ints.  At L = 1 the cost is its own integer form.
`SeparableObjective.integer_forms` builds them once per objective, with
L the objective's scale; the augmentation and the inverse solver
evaluate them, the inverse verifier evaluates `value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Optional, Sequence

from .errors import DimensionError, ResourceCapExceeded, ValidationError
from .linalg import all_ints, all_rationals


def _check_arg(y: int) -> None:
    if y < 0:
        raise ValidationError(f"cost functions are defined on y >= 0, got {y}")


def _denominators(*values) -> int:
    return lcm(*(v.denominator for v in values))


def _require(cost, ok: bool) -> None:
    if not ok:
        raise ValidationError(f"{type(cost).__name__}: parameters not exact or not convex")


def _store_ints(cost, *names: str) -> None:
    """Store each integral Fraction among the named parameters (or in a tuple of them) as its int.

    Run after the checks, so every parameter is an int or a Fraction; a
    parameter is then an int exactly when it is integral.  A parameter
    that is an int already, or a tuple of ints, is left as it is: the
    decoders pass each integral value as an int, so a decoded cost stores
    nothing.
    """
    for name in names:
        value = getattr(cost, name)
        if type(value) is tuple:
            if all_ints(value):
                continue
            value = tuple(q.numerator if q.denominator == 1 else q for q in value)
        elif type(value) is int or value.denominator != 1:
            continue
        else:
            value = value.numerator
        object.__setattr__(cost, name, value)


def _times(m: int, q) -> int:
    """m*q as an int; `times(m)` makes integral parameters only when m is a multiple of `scale()`."""
    numerator, denominator = m * q.numerator, q.denominator
    if numerator % denominator:
        raise ValueError(f"{m} * {q} is not an integer: times() takes a multiple of scale()")
    return numerator // denominator


@dataclass(frozen=True)
class AffineCost:
    """a*y + b."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        _require(self, all_rationals((self.a, self.b)))
        _store_ints(self, "a", "b")

    def value(self, y: int) -> Fraction | int:
        _check_arg(y)
        return self.a * y + self.b

    def params_ok(self) -> bool:
        return self.a >= 0 and self.b >= 0

    def scale(self) -> int:
        return _denominators(self.a, self.b)

    def times(self, m: int) -> AffineCost:
        return AffineCost(_times(m, self.a), _times(m, self.b))


@dataclass(frozen=True)
class QuadraticCost:
    """a*y^2 + b*y + c with a >= 0."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        _require(self, all_rationals((self.a, self.b, self.c)) and self.a >= 0)
        _store_ints(self, "a", "b", "c")

    def value(self, y: int) -> Fraction | int:
        _check_arg(y)
        return self.a * y * y + self.b * y + self.c

    def params_ok(self) -> bool:
        return self.b >= 0 and self.c >= 0

    def scale(self) -> int:
        return _denominators(self.a, self.b, self.c)

    def times(self, m: int) -> QuadraticCost:
        return QuadraticCost(_times(m, self.a), _times(m, self.b), _times(m, self.c))


# y^k has k times the digits of y, and every exact step after it (the
# augmentation's sums, the inverse LP's pivots) works on numbers that size
MAX_EXPONENT = 64


@dataclass(frozen=True)
class PowerCost:
    """a*y^k with a >= 0 and integer exponent k >= 1.

    An int exponent above MAX_EXPONENT raises ResourceCapExceeded when the
    cost is built, before any value is computed.
    """

    a: Fraction
    k: int

    def __post_init__(self) -> None:
        if all_ints((self.k,)) and self.k > MAX_EXPONENT:
            raise ResourceCapExceeded(
                f"a power cost's exponent is at most {MAX_EXPONENT}, got {self.k}"
            )
        _require(self, all_rationals((self.a,)) and all_ints((self.k,)) and self.a >= 0 and self.k >= 1)
        _store_ints(self, "a")

    def value(self, y: int) -> Fraction | int:
        _check_arg(y)
        return self.a * y**self.k

    def params_ok(self) -> bool:
        return True  # a >= 0 and k >= 1 make it nondecreasing

    def scale(self) -> int:
        return _denominators(self.a)

    def times(self, m: int) -> PowerCost:
        return PowerCost(_times(m, self.a), self.k)


@dataclass(frozen=True)
class PiecewiseLinearCost:
    """Integral of a nondecreasing step function of slopes; c0 is its value at 0.

    Slope slopes[i] applies between breakpoints[i-1] and breakpoints[i]
    (with implicit endpoints 0 and infinity), positive ints in increasing order.
    """

    breakpoints: tuple[int, ...]
    slopes: tuple[Fraction, ...]
    c0: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "slopes", tuple(self.slopes))
        bps, slopes = self.breakpoints, self.slopes
        _require(self, all_ints(bps) and all_rationals((self.c0, *slopes)))
        _require(self, len(slopes) == len(bps) + 1 and list(slopes) == sorted(slopes))
        _require(self, all(a < b for a, b in zip((0,) + bps, bps)))
        _store_ints(self, "slopes", "c0")

    def value(self, y: int) -> Fraction | int:
        _check_arg(y)
        total = self.c0
        prev = 0
        for bp, slope in zip(self.breakpoints, self.slopes):
            if y <= bp:
                return total + slope * (y - prev)
            total += slope * (bp - prev)
            prev = bp
        return total + self.slopes[-1] * (y - prev)

    def params_ok(self) -> bool:
        return self.slopes[0] >= 0

    def scale(self) -> int:
        return _denominators(self.c0, *self.slopes)

    def times(self, m: int) -> PiecewiseLinearCost:
        return PiecewiseLinearCost(
            self.breakpoints, tuple(_times(m, s) for s in self.slopes), _times(m, self.c0)
        )


@dataclass(frozen=True)
class ShiftedCost:
    """base(y + shift) with an int shift >= 0; used for best responses against fixed rivals."""

    base: "UnivariateCost"
    shift: int

    def __post_init__(self) -> None:
        _require(self, isinstance(self.base, UnivariateCost))
        _require(self, all_ints((self.shift,)) and self.shift >= 0)

    def value(self, y: int) -> Fraction | int:
        _check_arg(y)
        return self.base.value(y + self.shift)

    def params_ok(self) -> bool:
        return self.base.params_ok()

    def scale(self) -> int:
        return self.base.scale()

    def times(self, m: int) -> ShiftedCost:
        return ShiftedCost(self.base.times(m), self.shift)


UnivariateCost = AffineCost | QuadraticCost | PowerCost | PiecewiseLinearCost | ShiftedCost

ZERO_COST = AffineCost(0, 0)


@dataclass(frozen=True)
class SeparableObjective:
    terms: tuple[UnivariateCost, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not all(isinstance(t, UnivariateCost) for t in self.terms):
            raise ValidationError("objective terms must be cost objects from gravernash.costs")

    def __len__(self) -> int:
        return len(self.terms)

    def value(self, x: Sequence[int]) -> Fraction:
        if len(x) != len(self.terms):
            raise DimensionError(
                f"objective has {len(self.terms)} terms but x has {len(x)} entries"
            )
        # int-valued terms add as ints; the first Fraction carries the sum
        return Fraction(sum(t.value(v) for t, v in zip(self.terms, x)))

    def scale(self) -> int:
        """The least common multiple of the terms' scales."""
        return lcm(*(t.scale() for t in self.terms))

    @cached_property
    def integer_forms(self) -> tuple[int, tuple[Optional[Callable[[int], int]], ...]]:
        """(L, f): L = scale() and L times each term as an int-valued function.

        At L = 1 every parameter is an int and each function is the
        term's own `value`; no copy is built.  A constant term's function
        is None, and no integer form is built for it: it moves no
        difference and no improvement.
        """
        scale = self.scale()
        return scale, tuple(
            None if isinstance(t, AffineCost) and t.a == 0
            else t.value if scale == 1
            else t.times(scale).value
            for t in self.terms
        )
