"""Structured block-matrix constructors for N-player coupled programs.

Three related matrices are built from a pair (A, B) of integer matrices
with equal column count n and a player count N:

* the plain N-fold matrix: B repeated across the top, A on the diagonal;
* the equilibrium ("nash") matrix: aggregation rows tying the per-player
  blocks to an aggregate-usage variable group y, coupling rows with a
  slack group s, and per-player rows A x^i = b^i;
* the enlarged N-fold matrix whose columns contain the equilibrium
  matrix's columns, with per-brick variable groups (x, w, s), used for
  the zero-padding embedding of kernel elements.

The equilibrium matrix has one builder, `build_multitype_matrix`, which
takes per-type (A, B) pairs and a type index per player; the nash matrix
is its one-type case.  Every builder writes its matrix row by row; none
stacks matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionError, ValidationError
from .linalg import IntMatrix, IntVec


@dataclass(frozen=True)
class NfoldSpec:
    A: IntMatrix
    B: IntMatrix
    N: int

    def __post_init__(self) -> None:
        if self.A.ncols != self.B.ncols:
            raise DimensionError(
                f"A has {self.A.ncols} columns but B has {self.B.ncols}"
            )
        if type(self.N) is not int or self.N < 1:
            raise ValidationError("N must be a positive integer")

    @property
    def n(self) -> int:
        return self.A.ncols

    @property
    def d(self) -> int:
        return self.A.nrows

    @property
    def m(self) -> int:
        return self.B.nrows


def _diagonal_rows(blocks: Sequence[IntMatrix], n: int, tail: int) -> list[IntVec]:
    """The rows of `blocks`, each n wide, on a block diagonal, then `tail` zero columns."""
    N = len(blocks)
    return [
        (0,) * (i * n) + r + (0,) * ((N - 1 - i) * n + tail)
        for i, block in enumerate(blocks)
        for r in block.entries
    ]


def build_nfold(spec: NfoldSpec) -> IntMatrix:
    """(m + N*d) x (N*n) matrix: B repeated on top, A block-diagonal below."""
    N = spec.N
    rows = [r * N for r in spec.B.entries] + _diagonal_rows([spec.A] * N, spec.n, 0)
    return IntMatrix(len(rows), N * spec.n, tuple(rows))


def build_nash_matrix(spec: NfoldSpec) -> IntMatrix:
    """Equilibrium matrix of N players sharing (A, B); see build_multitype_matrix."""
    return build_multitype_matrix(((spec.A, spec.B),), (0,) * spec.N)


def _linking_rows(bs: list[IntMatrix], n: int, m: int) -> list[IntVec]:
    """Aggregation and coupling-with-slack rows, one x-block per B in `bs`.

    Columns: the x-blocks, then y (n), then s (m).  Rows: aggregation
    (I_n per block, -I_n, 0) and coupling (B per block, 0, I_m).
    """
    rows = []
    for j in range(n):
        unit = (0,) * j + (1,) + (0,) * (n - 1 - j)
        rows.append(unit * len(bs) + tuple(-x for x in unit) + (0,) * m)
    for i in range(m):
        coupling = tuple(x for b in bs for x in b.entries[i])
        rows.append(coupling + (0,) * (n + i) + (1,) + (0,) * (m - 1 - i))
    return rows


def build_c_matrix(spec: NfoldSpec) -> IntMatrix:
    """Enlarged N-fold matrix with per-brick groups (x^i, w^i, s^i).

    Equals build_nfold with A' = (A 0 0) and B' = the stacked coupling
    brick; the equilibrium matrix is this matrix with the w and s groups
    of bricks 2..N deleted.
    """
    n, m = spec.n, spec.m
    a_prime = IntMatrix(spec.d, 2 * n + m, tuple(r + (0,) * (n + m) for r in spec.A.entries))
    # merging the slack identity into the B rows is what makes the
    # zero-padding of equilibrium-matrix kernel elements land in the
    # kernel of the enlarged matrix
    brick = IntMatrix.from_rows(_linking_rows([spec.B], n, m), 2 * n + m)
    return build_nfold(NfoldSpec(A=a_prime, B=brick, N=spec.N))


def embedded_columns(spec: NfoldSpec) -> list[int]:
    """Column indices of the enlarged matrix housing the equilibrium columns.

    x^i-columns map to brick-i x-columns, y to brick-1 w-columns, s to
    brick-1 s-columns.
    """
    n, m, N = spec.n, spec.m, spec.N
    width = 2 * n + m
    cols = []
    for i in range(N):
        cols.extend(i * width + j for j in range(n))
    cols.extend(n + j for j in range(n))  # brick-1 w group
    cols.extend(2 * n + j for j in range(m))  # brick-1 s group
    return cols


def pad_to_c(g: IntVec, spec: NfoldSpec) -> IntVec:
    """Zero-pad a nash-matrix kernel vector into the enlarged column space."""
    n, m, N = spec.n, spec.m, spec.N
    if len(g) != N * n + n + m:
        raise DimensionError(
            f"expected a vector of length {N * n + n + m}, got {len(g)}"
        )
    padded = [0] * (N * (2 * n + m))
    for value, col in zip(g, embedded_columns(spec)):
        padded[col] = value
    return tuple(padded)


def build_multitype_matrix(
    types: Sequence[tuple[IntMatrix, IntMatrix]], assignment: Sequence[int]
) -> IntMatrix:
    """Equilibrium matrix for players of differing types.

    `types` holds per-type (A, B) pairs and `assignment` the 0-based type
    t(i) of each player i.
    Columns: N x-blocks of width n, then y (n), then s (m).
    Rows: aggregation (sum_i x^i - y = 0, n rows), coupling with slack
    (sum_i B_t(i) x^i + s = b^0, m rows), then A_t(i) x^i = b^i per
    player.  The x-blocks of the players of each type with two or more
    players form one class of the matrix's `bricks`.

    Every type is checked, including types no player uses: each A and B
    must have n columns and each B m rows (DimensionError).  No types, an
    empty assignment or an index outside [0, len(types)) is a
    ValidationError.
    """
    if not types:
        raise ValidationError("catalog needs at least one type")
    n, m = types[0][0].ncols, types[0][1].nrows
    for a, b in types:
        # a coupling row concatenates the players' B rows, which lets widths
        # that compensate across players through, so every width is checked
        if a.ncols != n or b.ncols != n:
            raise DimensionError("every type's A and B must have n columns")
        if b.nrows != m:
            raise DimensionError("all coupling matrices must share a row count")
    if not assignment:
        raise ValidationError("empty player assignment")
    for t in assignment:
        if not 0 <= t < len(types):
            raise ValidationError(f"assignment index {t} out of range")
    N = len(assignment)
    rows = _linking_rows([types[t][1] for t in assignment], n, m)
    rows.extend(_diagonal_rows([types[t][0] for t in assignment], n, n + m))
    blocks_of_type: dict[int, list[tuple[int, ...]]] = {}
    for i, t in enumerate(assignment):
        blocks_of_type.setdefault(t, []).append(tuple(range(i * n, i * n + n)))
    # players of one type are interchangeable; a block needs a column
    bricks = tuple(tuple(b) for b in blocks_of_type.values() if len(b) > 1 and n)
    return IntMatrix(len(rows), N * n + n + m, tuple(rows), bricks)
