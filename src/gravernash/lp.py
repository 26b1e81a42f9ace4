"""Exact rational LP feasibility with Farkas certificates.

Decides whether the homogeneous system

    row . lam >= 0   for every given row,
    lam >= 0,
    strict_row . lam > 0

has a solution.  The strict inequality is scale invariant, so it is
homogenized to strict_row . lam = 1 and the question decided by a
phase-1 simplex with Bland's rule.  The simplex is fraction-free: the
tableau's entries are ints, the reduced-cost row is carried in the
tableau and pivoted with the others (Chvatal, Linear Programming, 1983,
ch. 2-3), and every pivot is Bareiss's integer-preserving elimination
(Math. Comp. 22, 1968), so no gcd runs until the answer is read off.
The tableau is condensed (Tucker form), as in lrs's integer pivoting
(Avis, "lrs: A revised implementation of the reverse search vertex
enumeration algorithm", 2000): the basic columns are the determinant
times unit columns, so only the nonbasic ones are stored, and a pivot
writes the leaving variable's column into the entering one's place.  It
is stored by column: one list per nonbasic variable and one for the
right-hand side, each holding the surplus rows, the strict row and the
cost row.  A system has many more rows than variables, so a pivot
rebuilds a few long lists rather than many short ones; a column whose
pivot-row entry is 0 is only scaled, and the ratio test reads the
entering column and the right-hand side.  Every stored number is the
one the full tableau would hold, so the pivots, the point and the ray
are the same.  On infeasibility the simplex duals yield a
nonnegative combination v of the rows with
sum_i v_i row_i + strict_row <= 0  componentwise, which certifies that
no lam exists.  Both answers are checked against the input system
before they are returned, on the integers the tableau ends with, over
a positive denominator: the point is the basic rows' right-hand sides
over the basis determinant, the ray the surpluses' reduced costs over
the strict row's dual.  Multiplying the system by that denominator
keeps every sign the check looks at, and each returned Fraction is
built once, from the same integers.

Every entry of a row and of the strict row must be an int; anything
else, a Fraction, a float or a bool included, raises ValidationError,
and nothing is converted.  Multiplying a row by a positive integer L
moves no basic solution and no pivot, so the point is unchanged and the
ray's coefficient for that row is divided by L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificateError, DimensionError
from .linalg import RatVec, check_ints, dot, int_rows

ZERO = Fraction(0)


@dataclass(frozen=True)
class FeasiblePoint:
    lam: RatVec


@dataclass(frozen=True)
class FarkasRay:
    """Coefficients v >= 0, one per input row, with v^T R + strict_row <= 0."""

    coefficients: RatVec


def rational_lp_feasibility(
    rows: Sequence[Sequence], strict_row: Sequence
) -> FeasiblePoint | FarkasRay:
    n = len(strict_row)
    check_ints(strict_row, "the strict row's entries")
    # one pass over all entries; the row-by-row loop only names the error
    if not int_rows(rows, n):
        for r in rows:
            if len(r) != n:
                raise DimensionError(f"row length {len(r)} != {n}")
            check_ints(r, "LP row entries")
    m = len(rows)

    # standard form, all variables >= 0, rhs >= 0:
    #   -row_i . lam + t_i     = 0     (i < m, t_i the surplus of row i)
    #   strict_row . lam + a   = 1     (a the artificial)
    # phase-1 cost: minimize a.  Variables: lam_0..lam_{n-1}, then
    # t_0..t_{m-1}, then a.  The tableau is stored by column: entry i of
    # a column is on the surplus row i (i < m), the strict row (i = m) or
    # the carried reduced-cost row c_N - c_B B^{-1} N | -c_B B^{-1} b
    # (i = m + 1, basis a); the last column is the right-hand side.
    tableau = [[-r[c] for r in rows] + [s, -s] for c, s in enumerate(strict_row)]
    tableau.append([0] * m + [1, -1])
    rhs = tableau[n]
    cost_row = m + 1

    # Condensed fraction-free tableau: T / det is the simplex tableau
    # restricted to the nonbasic columns, det the basis determinant (> 0).
    # The basic columns are det times unit columns and are not stored.
    det = 1
    basis = [n + i for i in range(m + 1)]  # surpluses then the artificial
    nonbasic = list(range(n))  # the variable of each column
    while True:
        # Bland: the least variable with a negative reduced cost; a basic
        # variable's is 0
        col, entering = -1, n + m + 1
        for c in range(n):
            if tableau[c][cost_row] < 0 and nonbasic[c] < entering:
                col, entering = c, nonbasic[c]
        if col < 0:
            break
        pivot_col = tableau[col]
        leaving = -1
        for i in range(m + 1):
            v = pivot_col[i]
            if v > 0:
                if leaving < 0:
                    leaving = i
                    continue
                # ratio_i < ratio_leaving, cross-multiplied by the positive pivots
                here = rhs[i] * pivot_col[leaving]
                best = rhs[leaving] * v
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            raise CertificateError("unbounded phase-1 simplex")
        # Bareiss's step on the columns that stay nonbasic; the pivot row
        # keeps its entries.  A column whose pivot-row entry is 0 is only
        # scaled by p / det.  Column col then holds the leaving variable's
        # column, det e_leaving before the step: -f off the pivot row, det
        # on it.
        p = pivot_col[leaving]
        for c, column in enumerate(tableau):
            if c != col:
                f = column[leaving]
                # exact: every entry is a minor of the scaled input matrix
                if f:
                    column = [(p * x - f * y) // det for x, y in zip(column, pivot_col)]
                    column[leaving] = f
                    tableau[c] = column
                elif p != det:
                    tableau[c] = [p * x // det for x in column]
        column = [-x for x in pivot_col]
        column[leaving] = det
        tableau[col] = column
        rhs = tableau[n]
        det = p
        basis[leaving], nonbasic[col] = entering, basis[leaving]

    if rhs[cost_row] == 0:  # the artificial is 0
        lam = [0] * n  # lam times det
        for i, b in enumerate(basis):
            if b < n:
                lam[b] = rhs[i]
        _check_point(rows, strict_row, lam, det)
        return FeasiblePoint(tuple(Fraction(x, det) if x else ZERO for x in lam))

    # duals y_i = delta_im - d_i / det, d_i the reduced cost of t_i (of a
    # for i = m); the ray is -y_i / y_m, in which det cancels
    slack_cost = [0] * (m + 1)
    for c, v in enumerate(nonbasic):
        if v >= n:
            slack_cost[v - n] = tableau[c][cost_row]
    y_strict = det - slack_cost[m]
    if y_strict <= 0:
        raise CertificateError("phase-1 duals give no Farkas ray")
    ray = slack_cost[:m]  # the ray times y_strict
    _check_ray(rows, strict_row, ray, y_strict)
    return FarkasRay(tuple(Fraction(x, y_strict) if x else ZERO for x in ray))


def _check_point(rows, strict_row, numerators, denominator) -> None:
    """CertificateError unless lam = numerators / denominator solves the system.

    With denominator > 0, the system on the numerators is the system on
    lam scaled by it.
    """
    if not (
        denominator > 0
        and all(x >= 0 for x in numerators)
        and all(dot(r, numerators) >= 0 for r in rows)
        and dot(strict_row, numerators) > 0
    ):
        raise CertificateError("simplex point violates the system")


def _check_ray(rows, strict_row, numerators, denominator) -> None:
    """CertificateError unless v = numerators / denominator certifies infeasibility.

    s v^T R + s strict_row <= 0 is v^T R + strict_row <= 0 scaled by
    s = denominator > 0.
    """
    support = [(vi, r) for vi, r in zip(numerators, rows) if vi]
    combos = [
        sum(vi * r[j] for vi, r in support) + denominator * c for j, c in enumerate(strict_row)
    ]
    if not (
        denominator > 0
        and all(x >= 0 for x in numerators)
        and all(c <= 0 for c in combos)
    ):
        raise CertificateError("Farkas ray does not certify infeasibility")
