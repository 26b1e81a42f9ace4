"""Univariate convex cost functions.

Four closed-form parametric families cover the public surface (affine,
quadratic, power, piecewise linear); evaluation is exact rational at
nonnegative integer arguments.  A shifted wrapper exists for internal
use (best responses shift by the other players' usage) and preserves
convexity and exactness.

Validity is decided by the parameters alone.  `convex_ok` is the rule
for any separable objective (`solve`, inverse shapes): the parameters
are exact (an int or a Fraction, an int where an integer is due) and
give a convex function on y >= 0.  `params_ok` builds on it with the
sign conditions that make a cost nondecreasing, as a game's costs must
be.  A power cost's exponent is a size cap as well: one above
MAX_EXPONENT (64) raises ResourceCapExceeded as the cost is built.

Every valid cost has an integer form: `scale()` is a positive integer L
such that L*f(y) is an integer at every integer y >= 0, and `times(M)`,
for any multiple M of L, is M*f with integer parameters, whose values
are plain ints.  The augmentation and the inverse solver evaluate these
forms; the inverse verifier evaluates `value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DimensionError, ResourceCapExceeded, ValidationError
from .linalg import _INT, all_ints


def _check_arg(y: int) -> None:
    if y < 0:
        raise ValidationError(f"cost functions are defined on y >= 0, got {y}")


_RATIONAL = _INT | {Fraction}


def _rationals(*values) -> bool:
    """Exact rationals only: ints and Fractions, never a float or a bool."""
    return _RATIONAL.issuperset(map(type, values))


def _denominators(*values) -> int:
    return lcm(*(v.denominator for v in values))


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

    def value(self, y: int) -> Fraction:
        _check_arg(y)
        return self.a * y + self.b

    def convex_ok(self) -> bool:
        return _rationals(self.a, self.b)

    def params_ok(self) -> bool:
        return self.convex_ok() and self.a >= 0 and self.b >= 0

    def scale(self) -> int:
        return _denominators(self.a, self.b)

    def times(self, m: int) -> AffineCost:
        return AffineCost(_times(m, self.a), _times(m, self.b))


@dataclass(frozen=True)
class QuadraticCost:
    """a*y^2 + b*y + c."""

    a: Fraction
    b: Fraction
    c: Fraction

    def value(self, y: int) -> Fraction:
        _check_arg(y)
        return self.a * y * y + self.b * y + self.c

    def convex_ok(self) -> bool:
        return _rationals(self.a, self.b, self.c) and self.a >= 0

    def params_ok(self) -> bool:
        return self.convex_ok() and self.b >= 0 and self.c >= 0

    def scale(self) -> int:
        return _denominators(self.a, self.b, self.c)

    def times(self, m: int) -> QuadraticCost:
        return QuadraticCost(_times(m, self.a), _times(m, self.b), _times(m, self.c))


# y^k has k times the digits of y, and every exact step after it (the
# augmentation's sums, the inverse LP's pivots) works on numbers that size
MAX_EXPONENT = 64


@dataclass(frozen=True)
class PowerCost:
    """a*y^k with integer exponent k >= 1.

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

    def value(self, y: int) -> Fraction:
        _check_arg(y)
        # a Fraction or float exponent would give a float power
        if not all_ints((self.k,)):
            raise ValidationError(f"a power cost's exponent must be an int, got {self.k!r}")
        if self.k >= 1:
            return self.a * y**self.k
        if self.k < 0 and y == 0:
            raise ValidationError(f"a power cost with exponent {self.k} is undefined at 0")
        # a negative exponent must not turn y into a float
        return self.a * Fraction(y) ** self.k

    def convex_ok(self) -> bool:
        return _rationals(self.a) and all_ints((self.k,)) and self.a >= 0 and self.k >= 1

    def params_ok(self) -> bool:
        return self.convex_ok()

    def scale(self) -> int:
        return _denominators(self.a)

    def times(self, m: int) -> PowerCost:
        return PowerCost(_times(m, self.a), self.k)


@dataclass(frozen=True)
class PiecewiseLinearCost:
    """Integral of a nondecreasing nonnegative step function of slopes.

    Slope slopes[i] applies between breakpoints[i-1] and breakpoints[i]
    (with implicit endpoints 0 and infinity); c0 is the value at 0.
    """

    breakpoints: tuple[int, ...]
    slopes: tuple[Fraction, ...]
    c0: Fraction

    def value(self, y: int) -> Fraction:
        _check_arg(y)
        total = self.c0
        prev = 0
        for bp, slope in zip(self.breakpoints, self.slopes):
            if y <= bp:
                return total + slope * (y - prev)
            total += slope * (bp - prev)
            prev = bp
        return total + self.slopes[-1] * (y - prev)

    def convex_ok(self) -> bool:
        if not (all_ints(self.breakpoints) and _rationals(self.c0, *self.slopes)):
            return False
        if len(self.slopes) != len(self.breakpoints) + 1:
            return False
        if list(self.slopes) != sorted(self.slopes):
            return False
        if any(bp <= 0 for bp in self.breakpoints):
            return False
        return list(self.breakpoints) == sorted(set(self.breakpoints))

    def params_ok(self) -> bool:
        return self.convex_ok() and self.slopes[0] >= 0

    def scale(self) -> int:
        return _denominators(self.c0, *self.slopes)

    def times(self, m: int) -> PiecewiseLinearCost:
        return PiecewiseLinearCost(
            self.breakpoints, tuple(_times(m, s) for s in self.slopes), _times(m, self.c0)
        )


@dataclass(frozen=True)
class ShiftedCost:
    """base(y + shift); used for best responses against fixed rivals."""

    base: "UnivariateCost"
    shift: int

    def value(self, y: int) -> Fraction:
        _check_arg(y)
        return self.base.value(y + self.shift)

    def convex_ok(self) -> bool:
        return all_ints((self.shift,)) and self.shift >= 0 and self.base.convex_ok()

    def params_ok(self) -> bool:
        return self.convex_ok() and self.base.params_ok()

    def scale(self) -> int:
        return self.base.scale()

    def times(self, m: int) -> ShiftedCost:
        return ShiftedCost(self.base.times(m), self.shift)


UnivariateCost = AffineCost | QuadraticCost | PowerCost | PiecewiseLinearCost | ShiftedCost

ZERO_COST = AffineCost(0, 0)


@dataclass(frozen=True)
class SeparableObjective:
    terms: tuple[UnivariateCost, ...]

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
