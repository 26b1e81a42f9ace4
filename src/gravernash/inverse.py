"""Inverse integer optimization: recover cost weights or refute them.

Given P = {D x = d, 0 <= x <= u}, a point x* in P, and fixed convex
shapes f_j, decide whether nonnegative weights lambda (not all zero)
exist making x* minimize sum_j lambda_j f_j(x_j) over P's integer
points.  By the Graver optimality certificate this reduces to a finite
linear system over the feasible Graver shifts H; an exact LP either
produces normalized weights or a nonnegative Farkas combination v of
the H-rows whose weighted difference sums are strictly negative in
every coordinate, certifying that no weights exist.

The H-rows are evaluated in integers: each is L times the difference
row, for L = `shapes.scale()`, through the shapes' integer forms
`times(L)`.  One positive factor on every row changes no sign and no
simplex pivot, so the LP's point is the weight vector itself, and its
Farkas coefficients times L are the certificate for the unscaled rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .costs import ScaledCost, SeparableObjective
from .errors import ValidationError
from .graver import GraverBasis
from .linalg import IntMatrix, IntVec, RatVec, check_ints, vadd
from .lp import FeasiblePoint, rational_lp_feasibility
from .solver import IpInstance, check_optimal


@dataclass(frozen=True)
class IiopInstance:
    D: IntMatrix
    d: IntVec
    u: IntVec
    xstar: IntVec
    shapes: SeparableObjective

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "xstar", tuple(self.xstar))
        check_ints(self.xstar, "xstar")
        base = IpInstance(self.D, self.d, self.u, self.shapes)
        if not base.is_feasible(self.xstar):
            raise ValidationError("xstar must lie in P")

    @property
    def n(self) -> int:
        return self.D.ncols


@dataclass(frozen=True)
class IiopAnswer:
    verdict: str  # "yes" or "no"
    lam: Optional[RatVec] = None  # normalized: sum = 1
    shifts: tuple[IntVec, ...] = ()  # the feasible Graver shifts H, in order
    certificate: Optional[RatVec] = None  # one coefficient per shift


def feasible_shifts(basis: GraverBasis, inst: IiopInstance) -> list[IntVec]:
    """H = Graver directions g with x* + g still inside the box.

    D g = 0 keeps the equations satisfied automatically.
    """
    out = []
    for g in basis.elements:
        moved = vadd(inst.xstar, g)
        if all(0 <= v <= b for v, b in zip(moved, inst.u)):
            out.append(g)
    return out


def _difference_rows(inst: IiopInstance, shifts: Sequence[IntVec]) -> list[IntVec]:
    """Row L*(f_j(x*_j + g_j) - f_j(x*_j)) for each shift g, in ints, L = `shapes.scale()`.

    Each L*f_j(x*_j) is evaluated once.
    """
    scale = inst.shapes.scale()
    forms = [f.times(scale) for f in inst.shapes.terms]
    at_xstar = [f.value(x) for f, x in zip(forms, inst.xstar)]
    return [
        tuple(
            f.value(x + step) - fx if step else 0
            for f, x, fx, step in zip(forms, inst.xstar, at_xstar, g)
        )
        for g in shifts
    ]


def solve_iiop(inst: IiopInstance, basis: GraverBasis) -> IiopAnswer:
    shifts = tuple(feasible_shifts(basis, inst))
    n = inst.n
    if not shifts:
        uniform = tuple(Fraction(1, n) for _ in range(n))
        return IiopAnswer(verdict="yes", lam=uniform, shifts=())
    rows = _difference_rows(inst, shifts)
    outcome = rational_lp_feasibility(rows, (1,) * n)
    if isinstance(outcome, FeasiblePoint):
        total = sum(outcome.lam, Fraction(0))
        lam = tuple(v / total for v in outcome.lam)
        return IiopAnswer(verdict="yes", lam=lam, shifts=shifts)
    # the rows are L times the difference rows, so the ray is 1/L times theirs
    scale = inst.shapes.scale()
    certificate = tuple(scale * v for v in outcome.coefficients)
    return IiopAnswer(verdict="no", shifts=shifts, certificate=certificate)


def weighted_objective(inst: IiopInstance, lam: RatVec) -> SeparableObjective:
    return SeparableObjective(
        tuple(ScaledCost(f, w) for f, w in zip(inst.shapes.terms, lam))
    )


def verify_answer(inst: IiopInstance, basis: GraverBasis, answer: IiopAnswer) -> bool:
    """Recheck an answer by direct substitution.

    Yes: the weights are normalized and nonnegative, and x* passes the
    Graver optimality certificate under the weighted objective, which
    tests every H-inequality: H is the g in G(D) with x* + g in the box,
    and a weighted H-row sums to the objective's change along g.  No: the
    combination is nonnegative and its weighted difference sums are
    strictly negative in every coordinate.
    """
    if answer.verdict == "yes":
        if answer.lam is None or len(answer.lam) != inst.n:
            return False
        if any(v < 0 for v in answer.lam):
            return False
        if sum(answer.lam, Fraction(0)) != 1:
            return False
        weighted = IpInstance(inst.D, inst.d, inst.u, weighted_objective(inst, answer.lam))
        ok, _ = check_optimal(inst.xstar, basis, weighted)
        return ok
    if answer.verdict == "no":
        shifts = feasible_shifts(basis, inst)
        if answer.certificate is None or len(answer.certificate) != len(shifts):
            return False
        if tuple(answer.shifts) != tuple(shifts):
            return False
        if any(v < 0 for v in answer.certificate):
            return False
        # the rows are scaled by one positive L, which keeps every sign tested here
        rows = _difference_rows(inst, shifts)
        for j in range(inst.n):
            combo = sum(v * r[j] for v, r in zip(answer.certificate, rows))
            if combo >= 0:
                return False
        return True
    return False
