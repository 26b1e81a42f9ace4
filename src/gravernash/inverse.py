"""Inverse integer optimization: recover cost weights or refute them.

Given P = {D x = d, 0 <= x <= u}, a point x* in P, and fixed convex
shapes f_j, decide whether nonnegative weights lambda (not all zero)
exist making x* minimize sum_j lambda_j f_j(x_j) over P's integer
points.  By the Graver optimality certificate this reduces to a finite
linear system over the feasible Graver shifts H; an exact LP either
produces normalized weights or a nonnegative Farkas combination v of
the H-rows whose weighted difference sums are strictly negative in
every coordinate, certifying that no weights exist.

The solver evaluates the H-rows in integers, through the shapes' integer
forms (`SeparableObjective.integer_forms`): each is L times the
difference row, and each change L*f_j(x*_j + s) - L*f_j(x*_j) is
evaluated once per column j and step s.  One positive factor on every
row changes no sign and no simplex pivot, so the LP's point is the
weight vector itself, and its Farkas coefficients times L are the
certificate for the unscaled rows; when L = 1, as for integral affine
shapes, the LP's ray is the certificate and no product is formed.  The
LP checks both answers on the integers it builds them from (see `lp`).
Every entry point takes G(D) for the instance's own D and refuses a
basis of another matrix.  The verifier shares none of the solver's
row code: it evaluates the difference rows from the shapes' own values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import getitem, le
from typing import Optional, Sequence

from .costs import SeparableObjective
from .errors import ValidationError
from .graver import GraverBasis
from .linalg import IntMatrix, IntVec, RatVec, all_ints, all_rationals, check_ints
from .lp import FeasiblePoint, rational_lp_feasibility
from .solver import IpInstance


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
        # P with the shapes as its objective checks D, d, u and the shapes
        problem = IpInstance(self.D, self.d, self.u, self.shapes)
        # nonzero weights need at least one variable to sit on
        if self.D.ncols == 0:
            raise ValidationError("an inverse instance needs at least one variable")
        if not problem.is_feasible(self.xstar):
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

    def __post_init__(self) -> None:
        # an answer is checked in exact arithmetic, so a float never enters one
        if not all_rationals((*(self.lam or ()), *(self.certificate or ()))):
            raise ValidationError("weights and certificate coefficients must be ints or Fractions")
        if not all_ints(chain.from_iterable(self.shifts)):
            raise ValidationError("shifts must be integers")


def feasible_shifts(basis: GraverBasis, inst: IiopInstance) -> list[IntVec]:
    """H = Graver directions g with x* + g still inside the box, in basis order.

    D g = 0 keeps the equations satisfied automatically.  0 <= x* + g <= u
    is tested as -x* <= g <= u - x*.  ValidationError unless `basis` is
    G(D) for the instance's D.
    """
    basis.check_matrix(inst.D)
    low = [-x for x in inst.xstar]
    high = [b - x for b, x in zip(inst.u, inst.xstar)]
    return [g for g in basis.elements if all(map(le, low, g)) and all(map(le, g, high))]


def _difference_rows(inst: IiopInstance, shifts: Sequence[IntVec]) -> list[IntVec]:
    """Row L*(f_j(x*_j + g_j) - f_j(x*_j)) for each shift g, in ints.

    L and the functions L*f_j are the shapes' integer forms, from
    `SeparableObjective.integer_forms`; a constant column contributes 0.
    Each change is evaluated once per column and step, and L*f_j(x*_j)
    once per column.
    """
    _, forms = inst.shapes.integer_forms
    changes = []  # per column: step -> L*f_j(x*_j + step) - L*f_j(x*_j)
    for f, x, column in zip(forms, inst.xstar, zip(*shifts)):
        steps = set(column)
        if f is None:
            changes.append(dict.fromkeys(steps, 0))
        else:
            fx = f(x)
            changes.append({s: f(x + s) - fx if s else 0 for s in steps})
    return [tuple(map(getitem, changes, g)) for g in shifts]


def solve_iiop(inst: IiopInstance, basis: GraverBasis) -> IiopAnswer:
    shifts = tuple(feasible_shifts(basis, inst))
    n = inst.n
    if not shifts:
        uniform = tuple(Fraction(1, n) for _ in range(n))
        return IiopAnswer(verdict="yes", lam=uniform, shifts=())
    rows = _difference_rows(inst, shifts)
    outcome = rational_lp_feasibility(rows, (1,) * n)
    if isinstance(outcome, FeasiblePoint):
        # the LP fixes (1, ..., 1) . lam = 1: the weights are normalized
        return IiopAnswer(verdict="yes", lam=outcome.lam, shifts=shifts)
    # the rows are L times the difference rows, so the ray is 1/L times theirs
    scale, _ = inst.shapes.integer_forms
    certificate = outcome.coefficients
    if scale != 1:
        certificate = tuple(scale * v for v in certificate)
    return IiopAnswer(verdict="no", shifts=shifts, certificate=certificate)


def _value_rows(inst: IiopInstance, shifts: Sequence[IntVec]) -> list[RatVec]:
    """Row f_j(x*_j + g_j) - f_j(x*_j) for each shift g, from the shapes' values."""
    terms = inst.shapes.terms
    at_xstar = [f.value(x) for f, x in zip(terms, inst.xstar)]
    return [
        tuple(f.value(x + step) - fx for f, x, fx, step in zip(terms, inst.xstar, at_xstar, g))
        for g in shifts
    ]


def verify_answer(inst: IiopInstance, basis: GraverBasis, answer: IiopAnswer) -> bool:
    """Recheck an answer by direct substitution into the H-rows.

    H is the g in G(D) with x* + g in the box, and the row of g holds the
    shapes' changes f_j(x*_j + g_j) - f_j(x*_j).  Yes: the weights are
    normalized and nonnegative, and every row's weighted sum is
    nonnegative, which is the Graver optimality certificate of x* under
    the weighted objective.  No: the combination is nonnegative and its
    weighted difference sums are strictly negative in every coordinate.
    """
    shifts = feasible_shifts(basis, inst)
    rows = _value_rows(inst, shifts)
    if answer.verdict == "yes":
        lam = answer.lam
        if lam is None or len(lam) != inst.n:
            return False
        if any(v < 0 for v in lam) or sum(lam, Fraction(0)) != 1:
            return False
        return all(sum(w * r for w, r in zip(lam, row)) >= 0 for row in rows)
    if answer.verdict == "no":
        certificate = answer.certificate
        if certificate is None or len(certificate) != len(shifts):
            return False
        if tuple(answer.shifts) != tuple(shifts):
            return False
        if any(v < 0 for v in certificate):
            return False
        return all(
            sum(v * row[j] for v, row in zip(certificate, rows)) < 0 for j in range(inst.n)
        )
    return False
