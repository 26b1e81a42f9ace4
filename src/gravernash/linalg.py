"""Exact integer/rational vectors and matrices.

Vectors are plain tuples of Python ints (arbitrary precision by
construction); rational vectors are tuples of ints and fractions.Fraction.
No floating point is used anywhere in this package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import CertificateError, DimensionError, ValidationError

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers


# exact types, so that a bool is no integer here and a float no rational
_INT = frozenset({int})
_RATIONAL = _INT | {Fraction}


def all_ints(values: Iterable) -> bool:
    """True iff every value's type is exactly int."""
    return _INT.issuperset(map(type, values))


def all_rationals(values: Iterable) -> bool:
    """True iff every value's type is exactly int or Fraction: never a float or a bool."""
    return _RATIONAL.issuperset(map(type, values))


def int_rows(rows: Sequence[Sequence], n: int) -> bool:
    """True iff every row has n entries and every entry's type is exactly int."""
    return set(map(len, rows)) <= {n} and all_ints(chain.from_iterable(rows))


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


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored row-major.

    Its dimensions and entries must be ints, nrows rows of ncols >= 0
    entries: anything else, a float, a bool or a string included, is one
    ValidationError, never converted.  Rows and bricks given as lists are
    stored as tuples.

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
        if not (
            all_ints((self.nrows, self.ncols)) and self.ncols >= 0
            and len(self.entries) == self.nrows and int_rows(self.entries, self.ncols)
        ):
            raise ValidationError(f"not a {self.nrows!r} x {self.ncols!r} matrix of ints")
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
            for sigma in brick_maps(blocks, self.ncols):
                if sorted(map(operator.itemgetter(*sigma), self.entries)) != rows:
                    raise ValidationError(
                        "permuting a brick class does not permute the rows"
                    )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], ncols: int | None = None) -> "IntMatrix":
        if ncols is None:
            if not rows:
                raise ValidationError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        return IntMatrix(len(rows), ncols, rows)

    def matvec(self, x: Sequence[int]) -> IntVec:
        if len(x) != self.ncols:
            raise DimensionError(f"matvec: {self.ncols} columns vs vector of length {len(x)}")
        return tuple(dot(r, x) for r in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def brick_maps(blocks: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Column maps of a swap and a cyclic shift of one brick class's blocks.

    The two generate every permutation of the blocks, so the maps of all
    classes generate the group of `IntMatrix.bricks`.  The image of v
    under a map sigma has v[sigma[j]] at column j.
    """
    maps = []
    for order in ((1, 0, *range(2, len(blocks))), (*range(1, len(blocks)), 0)):
        sigma = list(range(ncols))
        for block, source in zip(blocks, order):
            for j, k in zip(block, blocks[source]):
                sigma[j] = k
        maps.append(tuple(sigma))
    return maps


# ---------------------------------------------------------------------------
# integer kernel lattice basis via column HNF


def kernel_lattice_basis(mat: IntMatrix) -> list[IntVec]:
    """Basis of the lattice {x in Z^n : mat @ x = 0}.

    Column-style Hermite reduction with a unimodular transform: integer
    column operations drive the matrix to column echelon form; the
    transform columns matching the zeroed-out columns span the kernel
    lattice over Z.  Each column is one list, the matrix column followed
    by the transform's, so a column operation is one pass over one list.
    Empty list when the kernel is trivial.
    """
    r, c = mat.nrows, mat.ncols
    # column j: the matrix's column j (r entries), then the transform's (c)
    cols = [list(col) for col in zip(*mat.entries)] if r else [[] for _ in range(c)]
    for j, col in enumerate(cols):
        col += [0] * c
        col[r + j] = 1
    k = 0
    for i in range(r):
        if k >= c:
            break
        while True:
            # one pass finds the nonzero columns of the row and the pivot j0:
            # the least |entry|, and of those the least j
            nonzero, least = [], 0
            for j in range(k, c):
                a = cols[j][i]
                if a:
                    nonzero.append(j)
                    if a < 0:
                        a = -a
                    if not least or a < least:
                        least, j0 = a, j
            if not nonzero:
                break
            if len(nonzero) == 1:
                cols[k], cols[j0] = cols[j0], cols[k]
                k += 1
                break
            # reduce every column in the row against the pivot
            pivot = cols[j0]
            for j in nonzero:
                if j == j0:
                    continue
                q = cols[j][i] // pivot[i]
                if q:
                    cols[j] = list(map(operator.sub, cols[j], map(q.__mul__, pivot)))
    basis = [_sign_normalized(tuple(cols[j][r:])) for j in range(k, c)]
    # rank accounting: pivots + kernel vectors cover all columns; every
    # vector has c entries, so D v is taken row by row without a length check
    if k + len(basis) != c or any(
        sum(map(operator.mul, row, v)) for v in basis for row in mat.entries
    ):
        raise CertificateError("kernel lattice basis failed its self-check")
    return sorted(basis)


def _sign_normalized(v: IntVec) -> IntVec:
    for a in v:
        if a > 0:
            return v
        if a < 0:
            return vneg(v)
    return v
