"""Exact rational LP feasibility with Farkas certificates.

Decides whether the homogeneous system

    row . lam >= 0   for every given row,
    lam >= 0,
    strict_row . lam > 0

has a solution.  The strict inequality is scale invariant, so it is
homogenized to strict_row . lam = 1 and the question decided by a
phase-1 simplex with Bland's rule over exact fractions.  On
infeasibility the simplex duals yield a nonnegative combination v of
the rows with  sum_i v_i row_i + strict_row <= 0  componentwise, which
certifies that no lam exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificateError, DimensionError
from .linalg import RatVec, dot

ZERO = Fraction(0)
ONE = Fraction(1)


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
    for r in rows:
        if len(r) != n:
            raise DimensionError(f"row length {len(r)} != {n}")
    m = len(rows)

    # standard form, all variables >= 0, rhs >= 0:
    #   -row_i . lam + t_i        = 0     (i < m, surplus negated for a +1 basis)
    #   strict_row . lam      + a = 1
    # phase-1 cost: minimize a.
    ncols = n + m + 1
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i, r in enumerate(rows):
        row = [-Fraction(x) for x in r] + [ZERO] * (m + 1)
        row[n + i] = ONE
        matrix.append(row)
        rhs.append(ZERO)
    last = [Fraction(x) for x in strict_row] + [ZERO] * (m + 1)
    last[n + m] = ONE
    matrix.append(last)
    rhs.append(ONE)

    cost = [ZERO] * ncols
    cost[n + m] = ONE

    nrows = m + 1
    basis = [n + i for i in range(nrows)]  # surpluses then the artificial
    tableau = [matrix[i][:] + [rhs[i]] for i in range(nrows)]

    while True:
        y = _multipliers(tableau, basis, cost, n, m)
        entering = -1
        for j in range(ncols):
            reduced = cost[j] - sum(y[i] * matrix[i][j] for i in range(nrows))
            if reduced < 0:
                entering = j  # Bland: first improving column
                break
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(nrows):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise CertificateError("unbounded phase-1 simplex")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    objective = sum(cost[basis[i]] * tableau[i][-1] for i in range(nrows))
    if objective == 0:
        lam = [ZERO] * n
        for i, b in enumerate(basis):
            if b < n:
                lam[b] = tableau[i][-1]
        point = FeasiblePoint(tuple(lam))
        _check_point(rows, strict_row, point.lam)
        return point

    y = _multipliers(tableau, basis, cost, n, m)
    y_strict = y[m]
    if y_strict <= 0:
        raise CertificateError("phase-1 duals give no Farkas ray")
    ray = FarkasRay(tuple(-y[i] / y_strict for i in range(m)))
    _check_ray(rows, strict_row, ray.coefficients)
    return ray


def _multipliers(tableau, basis, cost, n, m):
    """Simplex multipliers y = c_B B^{-1}.

    The surplus and artificial columns of the represented matrix are the
    unit vectors e_0..e_m, so B^{-1} e_i is tableau column n+i and
    y_i = c_B . (that column).
    """
    nrows = m + 1
    return [
        sum(cost[basis[r]] * tableau[r][n + i] for r in range(nrows))
        for i in range(nrows)
    ]


def _pivot(tableau, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i in range(len(tableau)):
        if i == row:
            continue
        factor = tableau[i][col]
        if factor:
            tableau[i] = [x - factor * p for x, p in zip(tableau[i], tableau[row])]


def _check_point(rows, strict_row, lam) -> None:
    if not (
        all(x >= 0 for x in lam)
        and all(dot(r, lam) >= 0 for r in rows)
        and dot(strict_row, lam) > 0
    ):
        raise CertificateError("simplex point violates the system")


def _check_ray(rows, strict_row, v) -> None:
    combos = [sum(vi * r[j] for vi, r in zip(v, rows)) + s for j, s in enumerate(strict_row)]
    if not (all(x >= 0 for x in v) and all(c <= 0 for c in combos)):
        raise CertificateError("Farkas ray does not certify infeasibility")
