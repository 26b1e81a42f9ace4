"""Exact rational LP feasibility with Farkas certificates.

Decides whether the homogeneous system in n variables

    row . lam >= 0   for every given row,   lam >= 0,   lam != 0

has a solution.  A nonzero lam >= 0 has a positive sum and the system
is scale invariant, so it is normalized to sum(lam) = 1 and decided by
a phase-1 simplex with Bland's rule.  The simplex is fraction-free: the
tableau's entries are ints and every pivot is Bareiss's
integer-preserving elimination (Math. Comp. 22, 1968), so no gcd runs
until the answer is read off.  The tableau is condensed (Tucker form),
as in lrs's integer pivoting (Avis, "lrs: A revised implementation of
the reverse search vertex enumeration algorithm", 2000): the basic
columns are the determinant times unit columns, so only the nonbasic
ones are stored, and a pivot writes the leaving variable's column into
the entering one's place.  It is stored by column, one list per
nonbasic variable and one for the right-hand side, each holding the m
surplus rows and then the normalization row.  A system has many more
rows than variables, so a pivot rebuilds a few long lists rather than
many short ones; a column whose pivot-row entry is 0 is only scaled,
and the ratio test reads the entering column and the right-hand side.

No reduced-cost row is stored.  Phase 1 minimizes the artificial a of
the normalization row, which stays basic in that row until a pivot on
the row removes it and ends phase 1; until then the reduced costs
(Chvatal, Linear Programming, 1983, ch. 2-3) are that row negated.  So
Bland's rule enters the least variable with a positive entry there,
and that entry makes the normalization row a candidate of every ratio
test.  Every stored number is the one the full tableau would hold, so
the pivots, the point and the ray are the same.  The point is the
basic rows' right-hand sides over the basis determinant.  When a ends
basic at a positive level, no entry of its row is positive, and that
row negated on the surplus columns, over the determinant, is a
combination v >= 0 of the rows with v^T R <= -1 componentwise, which
certifies that no lam exists.  Both answers are checked against the
input system on those integers before they are returned: the
denominator is positive, so the check is the system scaled by it, and
each returned Fraction is built once, from the same integers.

Every row entry must be an int; anything else, a Fraction, a float or
a bool included, raises ValidationError, and nothing is converted.
Multiplying a row by a positive integer L moves no basic solution and
no pivot, so the point is unchanged and the ray's coefficient for that
row is divided by L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificateError, DimensionError, ValidationError
from .linalg import RatVec, check_ints, dot, int_rows

ZERO = Fraction(0)


@dataclass(frozen=True)
class FeasiblePoint:
    """Weights lam >= 0 with sum(lam) = 1 and row . lam >= 0 for every row."""

    lam: RatVec


@dataclass(frozen=True)
class FarkasRay:
    """Coefficients v >= 0, one per input row, with v^T R <= -1 componentwise.

    Read off the final normalization row on the surplus columns.
    """

    coefficients: RatVec


def rational_lp_feasibility(rows: Sequence[Sequence], n: int) -> FeasiblePoint | FarkasRay:
    if type(n) is not int or n < 0:
        raise ValidationError(f"the number of variables must be an int >= 0, got {n!r}")
    # one pass over all entries; the row-by-row loop only names the error
    if not int_rows(rows, n):
        for r in rows:
            if len(r) != n:
                raise DimensionError(f"row length {len(r)} != {n}")
            check_ints(r, "LP row entries")
    m = len(rows)

    # standard form, all variables >= 0, rhs >= 0:
    #   -row_i . lam + t_i   = 0     (i < m, t_i the surplus of row i)
    #   sum(lam) + a         = 1     (a the artificial)
    # phase-1 cost: minimize a.  Variables: lam_0..lam_{n-1}, then
    # t_0..t_{m-1}, then a.  The tableau is stored by column: entry i of
    # a column is on the surplus row i (i < m) or the normalization row
    # (i = m); the last column is the right-hand side.
    tableau = [[-r[c] for r in rows] + [1] for c in range(n)]
    tableau.append([0] * m + [1])
    rhs = tableau[n]
    artificial = n + m

    # Condensed fraction-free tableau: T / det is the simplex tableau
    # restricted to the nonbasic columns, det the basis determinant (> 0).
    # The basic columns are det times unit columns and are not stored.
    det = 1
    basis = list(range(n, artificial + 1))  # surpluses then the artificial
    nonbasic = list(range(n))  # the variable of each column
    while basis[m] == artificial:
        # Bland: the least variable with a negative reduced cost, which is
        # a positive entry in row m; a basic variable's is 0
        col, entering = -1, artificial
        for c in range(n):
            if tableau[c][m] > 0 and nonbasic[c] < entering:
                col, entering = c, nonbasic[c]
        if col < 0:
            break
        pivot_col = tableau[col]
        # row m qualifies, so some row always leaves: the phase-1 simplex
        # cannot be unbounded
        leaving = m
        for i in range(m):
            v = pivot_col[i]
            if v > 0:
                # ratio_i < ratio_leaving, cross-multiplied by the positive pivots
                here = rhs[i] * pivot_col[leaving]
                best = rhs[leaving] * v
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving = i
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

    if basis[m] != artificial or rhs[m] == 0:  # the artificial is 0
        lam = [0] * n  # lam times det
        for i, b in enumerate(basis):
            if b < n:
                lam[b] = rhs[i]
        _check_point(rows, lam, det)
        return FeasiblePoint(tuple(Fraction(x, det) if x else ZERO for x in lam))

    # the ray is the surpluses' reduced costs, row m negated on their
    # columns over det (0 for a basic surplus); det > 0, so it always exists
    ray = [0] * m  # the ray times det
    for c, v in enumerate(nonbasic):
        if v >= n:
            ray[v - n] = -tableau[c][m]
    _check_ray(rows, n, ray, det)
    return FarkasRay(tuple(Fraction(x, det) if x else ZERO for x in ray))


def _check_point(rows, numerators, denominator) -> None:
    """CertificateError unless lam = numerators / denominator solves the system.

    With denominator > 0, the system on the numerators is the system on
    lam scaled by it: sum(lam) = 1 becomes sum(numerators) = denominator.
    """
    if not (
        denominator > 0
        and all(x >= 0 for x in numerators)
        and all(dot(r, numerators) >= 0 for r in rows)
        and sum(numerators) == denominator
    ):
        raise CertificateError("simplex point violates the system")


def _check_ray(rows, n, numerators, denominator) -> None:
    """CertificateError unless v = numerators / denominator certifies infeasibility.

    s v^T R + s <= 0 is v^T R + 1 <= 0, for n columns, scaled by
    s = denominator > 0.
    """
    support = [(vi, r) for vi, r in zip(numerators, rows) if vi]
    combos = [sum(vi * r[j] for vi, r in support) + denominator for j in range(n)]
    if not (
        denominator > 0
        and all(x >= 0 for x in numerators)
        and all(c <= 0 for c in combos)
    ):
        raise CertificateError("Farkas ray does not certify infeasibility")
