"""Exact integer/rational vectors and matrices.

Vectors are plain tuples of Python ints (arbitrary precision by
construction); rational vectors are tuples of fractions.Fraction.
No floating point is used anywhere in this package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CertificateError, DimensionError, ValidationError

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers


# exact types, so that a bool is no integer here
_INT = frozenset({int})


def all_ints(values: Iterable) -> bool:
    """True iff every value's type is exactly int."""
    return _INT.issuperset(map(type, values))


def check_ints(values: Iterable, what: str) -> None:
    """ValidationError unless every value's type is exactly int; nothing is converted."""
    if not all_ints(values):
        raise ValidationError(f"{what} must be integers")


def _check_same_length(u: Sequence, v: Sequence) -> None:
    if len(u) != len(v):
        raise DimensionError(f"vector lengths differ: {len(u)} vs {len(v)}")


def vadd(u: IntVec, v: IntVec) -> IntVec:
    _check_same_length(u, v)
    return tuple(map(operator.add, u, v))


def vsub(u: IntVec, v: IntVec) -> IntVec:
    _check_same_length(u, v)
    return tuple(map(operator.sub, u, v))


def vneg(u: IntVec) -> IntVec:
    return tuple(map(operator.neg, u))


def vscale(k: int, u: IntVec) -> IntVec:
    return tuple(k * a for a in u)


def dot(u: Sequence, v: Sequence):
    _check_same_length(u, v)
    return sum(map(operator.mul, u, v))


def one_norm(u: IntVec) -> int:
    return sum(map(abs, u))


def is_zero(u: Sequence) -> bool:
    return not any(u)


def conformal_leq(u: IntVec, v: IntVec) -> bool:
    """Conformal partial order: u_j * v_j >= 0 and |u_j| <= |v_j| everywhere."""
    _check_same_length(u, v)
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored row-major.

    Its dimensions and entries must be ints: a float, a bool or a string
    is a ValidationError, never converted.  Rows and bricks given as
    lists are stored as tuples.

    `bricks` declares classes of interchangeable column blocks: each class
    is a tuple of at least two disjoint nonempty blocks of equal width, a
    block a tuple of column indices.  Every permutation of a class's
    blocks (each block's j-th column moving to the j-th column of the
    block it replaces) must map the rows onto a permutation of themselves;
    it then maps ker(D) onto itself and keeps the conformal order, which
    `graver_basis` uses.  A declaration that breaks these rules is a
    ValidationError.  Equality and hashing ignore `bricks`.
    """

    nrows: int
    ncols: int
    entries: tuple[IntVec, ...]
    bricks: tuple[tuple[tuple[int, ...], ...], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        # tuples all the way down, so that a matrix built from lists hashes
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        object.__setattr__(
            self, "bricks", tuple(tuple(map(tuple, blocks)) for blocks in self.bricks)
        )
        check_ints((self.nrows, self.ncols), "matrix dimensions")
        if self.nrows < 0 or self.ncols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.nrows:
            raise ValidationError("row count does not match entries")
        for r in self.entries:
            if len(r) != self.ncols:
                raise ValidationError("ragged matrix rows")
            check_ints(r, "matrix entries")
        if self.bricks:
            self._check_bricks()

    def _check_bricks(self) -> None:
        seen: set[int] = set()
        rows = sorted(self.entries)
        for blocks in self.bricks:
            if len(blocks) < 2 or len({len(b) for b in blocks}) != 1 or not blocks[0]:
                raise ValidationError(
                    "a brick class needs at least two nonempty blocks of equal width"
                )
            for block in blocks:
                for j in block:
                    if type(j) is not int or not 0 <= j < self.ncols or j in seen:
                        raise ValidationError(
                            "brick columns must be distinct indices in range"
                        )
                    seen.add(j)
            # a swap and a cyclic shift of the blocks generate every permutation
            for order in ((1, 0, *range(2, len(blocks))), (*range(1, len(blocks)), 0)):
                sigma = list(range(self.ncols))
                for block, source in zip(blocks, order):
                    for j, k in zip(block, blocks[source]):
                        sigma[j] = k
                permute = operator.itemgetter(*sigma)
                if sorted(map(permute, self.entries)) != rows:
                    raise ValidationError(
                        "permuting a brick class does not permute the rows"
                    )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], ncols: int | None = None) -> "IntMatrix":
        rows = tuple(map(tuple, rows))
        if ncols is None:
            if not rows:
                raise ValidationError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        return IntMatrix(len(rows), ncols, rows)

    def col(self, j: int) -> IntVec:
        return tuple(r[j] for r in self.entries)

    def matvec(self, x: Sequence[int]) -> IntVec:
        if len(x) != self.ncols:
            raise DimensionError(f"matvec: {self.ncols} columns vs vector of length {len(x)}")
        return tuple(dot(r, x) for r in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


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
