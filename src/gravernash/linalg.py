"""Exact integer/rational vectors and matrices.

Vectors are plain tuples of Python ints (arbitrary precision by
construction); rational vectors are tuples of fractions.Fraction.
No floating point is used anywhere in this package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CertificateError, DimensionError, ValidationError

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers


def vec(entries: Iterable[int]) -> IntVec:
    return tuple(int(e) for e in entries)


def _check_same_length(u: Sequence, v: Sequence) -> None:
    if len(u) != len(v):
        raise DimensionError(f"vector lengths differ: {len(u)} vs {len(v)}")


def vadd(u: IntVec, v: IntVec) -> IntVec:
    _check_same_length(u, v)
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: IntVec, v: IntVec) -> IntVec:
    _check_same_length(u, v)
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: IntVec) -> IntVec:
    return tuple(-a for a in u)


def vscale(k: int, u: IntVec) -> IntVec:
    return tuple(k * a for a in u)


def dot(u: Sequence, v: Sequence):
    _check_same_length(u, v)
    return sum(a * b for a, b in zip(u, v))


def one_norm(u: IntVec) -> int:
    return sum(abs(a) for a in u)


def is_zero(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def conformal_leq(u: IntVec, v: IntVec) -> bool:
    """Conformal partial order: u_j * v_j >= 0 and |u_j| <= |v_j| everywhere."""
    _check_same_length(u, v)
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored row-major."""

    nrows: int
    ncols: int
    entries: tuple[IntVec, ...]

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.nrows:
            raise ValidationError("row count does not match entries")
        for r in self.entries:
            if len(r) != self.ncols:
                raise ValidationError("ragged matrix rows")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], ncols: int | None = None) -> "IntMatrix":
        rows = tuple(vec(r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValidationError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        return IntMatrix(len(rows), ncols, rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "IntMatrix":
        return IntMatrix(nrows, ncols, tuple(tuple(0 for _ in range(ncols)) for _ in range(nrows)))

    def col(self, j: int) -> IntVec:
        return tuple(r[j] for r in self.entries)

    def matvec(self, x: Sequence[int]) -> IntVec:
        if len(x) != self.ncols:
            raise DimensionError(f"matvec: {self.ncols} columns vs vector of length {len(x)}")
        return tuple(dot(r, x) for r in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def hstack(matrices: Sequence[IntMatrix]) -> IntMatrix:
    if not matrices:
        raise ValidationError("hstack of no matrices")
    nrows = matrices[0].nrows
    for m in matrices:
        if m.nrows != nrows:
            raise DimensionError("hstack: row counts differ")
    rows = tuple(
        tuple(itertools.chain.from_iterable(m.entries[i] for m in matrices))
        for i in range(nrows)
    )
    return IntMatrix(nrows, sum(m.ncols for m in matrices), rows)


def vstack(matrices: Sequence[IntMatrix]) -> IntMatrix:
    if not matrices:
        raise ValidationError("vstack of no matrices")
    ncols = matrices[0].ncols
    for m in matrices:
        if m.ncols != ncols:
            raise DimensionError("vstack: column counts differ")
    rows = tuple(itertools.chain.from_iterable(m.entries for m in matrices))
    return IntMatrix(sum(m.nrows for m in matrices), ncols, rows)


def block_diagonal(matrices: Sequence[IntMatrix]) -> IntMatrix:
    total_rows = sum(m.nrows for m in matrices)
    total_cols = sum(m.ncols for m in matrices)
    rows: list[IntVec] = []
    col_off = 0
    for m in matrices:
        for r in m.entries:
            rows.append(tuple(0 for _ in range(col_off)) + r
                        + tuple(0 for _ in range(total_cols - col_off - m.ncols)))
        col_off += m.ncols
    return IntMatrix(total_rows, total_cols, tuple(rows))


# ---------------------------------------------------------------------------
# integer kernel lattice basis via column HNF


def kernel_lattice_basis(mat: IntMatrix) -> list[IntVec]:
    """Basis of the lattice {x in Z^n : mat @ x = 0}.

    Column-style Hermite reduction with a unimodular transform: integer
    column operations drive the matrix to column echelon form; the
    transform columns matching the zeroed-out columns span the kernel
    lattice over Z.  Empty list when the kernel is trivial.
    """
    r, c = mat.nrows, mat.ncols
    a = [list(mat.col(j)) for j in range(c)]
    u = [[1 if k == j else 0 for k in range(c)] for j in range(c)]
    k = 0
    for i in range(r):
        if k >= c:
            break
        while True:
            nonzero = [j for j in range(k, c) if a[j][i] != 0]
            if not nonzero:
                break
            if len(nonzero) == 1:
                j = nonzero[0]
                a[k], a[j] = a[j], a[k]
                u[k], u[j] = u[j], u[k]
                k += 1
                break
            # reduce every column in the row against the smallest pivot
            j0 = min(nonzero, key=lambda j: (abs(a[j][i]), j))
            for j in nonzero:
                if j == j0:
                    continue
                q = a[j][i] // a[j0][i]
                if q:
                    a[j] = [x - q * y for x, y in zip(a[j], a[j0])]
                    u[j] = [x - q * y for x, y in zip(u[j], u[j0])]
    basis = []
    for j in range(k, c):
        v = tuple(u[j])
        basis.append(_sign_normalized(v))
    # rank accounting: pivots + kernel vectors cover all columns
    if k + len(basis) != c or not all(is_zero(mat.matvec(v)) for v in basis):
        raise CertificateError("kernel lattice basis failed its self-check")
    return sorted(basis)


def _sign_normalized(v: IntVec) -> IntVec:
    for a in v:
        if a > 0:
            return v
        if a < 0:
            return vneg(v)
    return v
