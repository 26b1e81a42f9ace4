"""Exact rational LP feasibility with Farkas certificates.

Decides whether the homogeneous system

    row . lam >= 0   for every given row,
    lam >= 0,
    strict_row . lam > 0

has a solution.  The strict inequality is scale invariant, so it is
homogenized to strict_row . lam = 1 and the question decided by a
phase-1 simplex with Bland's rule.  The simplex is fraction-free: each
row is scaled to integers, the reduced-cost row is carried in the
tableau and pivoted with the others (Chvatal, Linear Programming, 1983,
ch. 2-3), and every pivot is Bareiss's integer-preserving elimination
(Math. Comp. 22, 1968), so no gcd runs until the answer is read off.
On infeasibility the simplex duals yield a nonnegative combination v of
the rows with  sum_i v_i row_i + strict_row <= 0  componentwise, which
certifies that no lam exists.  Both answers are checked against the
input system before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import CertificateError, DimensionError
from .linalg import RatVec, dot

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
    for r in rows:
        if len(r) != n:
            raise DimensionError(f"row length {len(r)} != {n}")
    m = len(rows)

    # standard form, all variables >= 0, rhs >= 0, each row scaled by the
    # positive lcm s_i of its denominators so that every entry is an integer:
    #   -s_i row_i . lam + t_i         = 0     (i < m, t_i = s_i * surplus_i)
    #   s_m strict_row . lam     + a   = s_m   (a = s_m * artificial)
    # phase-1 cost: minimize a.  Positive row and column scales keep the
    # signs of the reduced costs and the order of the ratio test, so Bland's
    # rule pivots exactly as it would on the unscaled system.
    ncols = n + m + 1
    scales = []
    tableau: list[list[int]] = []
    for i, r in enumerate([*rows, strict_row]):
        entries = [Fraction(x) for x in r]
        s = lcm(*(x.denominator for x in entries))
        sign = 1 if i == m else -1
        row = [sign * x.numerator * (s // x.denominator) for x in entries] + [0] * (m + 2)
        row[n + i] = 1
        scales.append(s)
        tableau.append(row)
    tableau[m][-1] = scales[m]
    # the carried reduced-cost row c - c_B B^{-1} A | -c_B B^{-1} b, basis a
    tableau.append([-x for x in tableau[m][:n]] + [0] * (m + 1) + [-scales[m]])
    cost_row = m + 1

    # Fraction-free (Bareiss) pivots: the tableau is the integer matrix T
    # with T / det the simplex tableau, det the basis determinant (> 0).
    det = 1
    basis = [n + i for i in range(m + 1)]  # surpluses then the artificial
    while True:
        reduced = tableau[cost_row]
        entering = next((j for j in range(ncols) if reduced[j] < 0), -1)  # Bland
        if entering < 0:
            break
        leaving = -1
        for i in range(m + 1):
            v = tableau[i][entering]
            if v > 0:
                if leaving < 0:
                    leaving = i
                    continue
                # ratio_i < ratio_leaving, cross-multiplied by the positive pivots
                lhs = tableau[i][-1] * tableau[leaving][entering]
                rhs = tableau[leaving][-1] * v
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            raise CertificateError("unbounded phase-1 simplex")
        pivot_row = tableau[leaving]
        p = pivot_row[entering]
        for i, row in enumerate(tableau):
            if i != leaving:
                f = row[entering]
                # exact: every entry is a minor of the scaled input matrix
                tableau[i] = [(p * x - f * y) // det for x, y in zip(row, pivot_row)]
        det = p
        basis[leaving] = entering

    reduced = tableau[cost_row]
    if reduced[-1] == 0:  # the artificial is 0
        lam = [ZERO] * n
        for i, b in enumerate(basis):
            if b < n:
                lam[b] = Fraction(tableau[i][-1], det)
        point = FeasiblePoint(tuple(lam))
        _check_point(rows, strict_row, point.lam)
        return point

    # duals y_i = (delta_im - reduced[n+i] / det) * s_i / s_m of the unscaled
    # system; the ray is -y_i / y_m, in which det cancels
    y_strict = det - reduced[n + m]
    if y_strict <= 0:
        raise CertificateError("phase-1 duals give no Farkas ray")
    ray = FarkasRay(
        tuple(Fraction(reduced[n + i] * scales[i], y_strict * scales[m]) for i in range(m))
    )
    _check_ray(rows, strict_row, ray.coefficients)
    return ray


def _check_point(rows, strict_row, lam) -> None:
    if not (
        all(x >= 0 for x in lam)
        and all(dot(r, lam) >= 0 for r in rows)
        and dot(strict_row, lam) > 0
    ):
        raise CertificateError("simplex point violates the system")


def _check_ray(rows, strict_row, v) -> None:
    support = [(vi, r) for vi, r in zip(v, rows) if vi]
    combos = [sum(vi * r[j] for vi, r in support) + s for j, s in enumerate(strict_row)]
    if not (all(x >= 0 for x in v) and all(c <= 0 for c in combos)):
        raise CertificateError("Farkas ray does not certify infeasibility")
