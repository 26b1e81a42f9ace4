"""Univariate convex cost functions.

Four closed-form parametric families cover the public surface (affine,
quadratic, power, piecewise linear); evaluation is exact rational at
nonnegative integer arguments.  Shifted and scaled wrappers exist for
internal use (best responses shift by the other players' usage, inverse
weights scale the fixed shapes) and preserve convexity and exactness.

Validity is decided by the parameters alone.  `convex_ok` is the rule
for any separable objective (`solve`, inverse shapes): the parameters
are well formed and give a convex function on y >= 0.  `params_ok`
builds on it with the sign conditions that make a cost nondecreasing,
as a game's costs must be.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, ValidationError


def _check_arg(y: int) -> None:
    if y < 0:
        raise ValidationError(f"cost functions are defined on y >= 0, got {y}")


@dataclass(frozen=True)
class AffineCost:
    """a*y + b."""

    a: Fraction
    b: Fraction

    def value(self, y: int) -> Fraction:
        _check_arg(y)
        return self.a * y + self.b

    def convex_ok(self) -> bool:
        return True

    def params_ok(self) -> bool:
        return self.a >= 0 and self.b >= 0


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
        return self.a >= 0

    def params_ok(self) -> bool:
        return self.convex_ok() and self.b >= 0 and self.c >= 0


@dataclass(frozen=True)
class PowerCost:
    """a*y^k with integer exponent k >= 1."""

    a: Fraction
    k: int

    def value(self, y: int) -> Fraction:
        _check_arg(y)
        return self.a * Fraction(y) ** self.k

    def convex_ok(self) -> bool:
        return self.a >= 0 and isinstance(self.k, int) and self.k >= 1

    def params_ok(self) -> bool:
        return self.convex_ok()


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
        if len(self.slopes) != len(self.breakpoints) + 1:
            return False
        if list(self.slopes) != sorted(self.slopes):
            return False
        if any(bp <= 0 for bp in self.breakpoints):
            return False
        return list(self.breakpoints) == sorted(set(self.breakpoints))

    def params_ok(self) -> bool:
        return self.convex_ok() and self.slopes[0] >= 0


@dataclass(frozen=True)
class ShiftedCost:
    """base(y + shift); used for best responses against fixed rivals."""

    base: "UnivariateCost"
    shift: int

    def value(self, y: int) -> Fraction:
        _check_arg(y)
        return self.base.value(y + self.shift)

    def convex_ok(self) -> bool:
        return self.shift >= 0 and self.base.convex_ok()

    def params_ok(self) -> bool:
        return self.shift >= 0 and self.base.params_ok()


@dataclass(frozen=True)
class ScaledCost:
    """factor * base(y) with factor >= 0; used for weighted shapes."""

    base: "UnivariateCost"
    factor: Fraction

    def value(self, y: int) -> Fraction:
        _check_arg(y)
        return self.factor * self.base.value(y)

    def convex_ok(self) -> bool:
        return self.factor >= 0 and self.base.convex_ok()

    def params_ok(self) -> bool:
        return self.factor >= 0 and self.base.params_ok()


UnivariateCost = (
    AffineCost | QuadraticCost | PowerCost | PiecewiseLinearCost | ShiftedCost | ScaledCost
)

ZERO_COST = AffineCost(Fraction(0), Fraction(0))


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
        return sum((t.value(v) for t, v in zip(self.terms, x)), Fraction(0))
