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
takes a small catalog of per-player (A, B) pairs; the nash matrix is its
one-type case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, ValidationError
from .linalg import (
    IntMatrix,
    IntVec,
    block_diagonal,
    hstack,
    vstack,
)


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
        if self.N < 1:
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


@dataclass(frozen=True)
class TypeCatalog:
    """Per-type (A, B) pairs and a 0-based type assignment per player."""

    types: tuple[tuple[IntMatrix, IntMatrix], ...]
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.types:
            raise ValidationError("catalog needs at least one type")
        m = self.types[0][1].nrows
        for a, b in self.types:
            if a.ncols != b.ncols:
                raise DimensionError("type pair with mismatched column counts")
            if b.nrows != m:
                raise DimensionError("all coupling matrices must share a row count")
        n = self.types[0][0].ncols
        for a, _ in self.types:
            if a.ncols != n:
                raise DimensionError("all types must share the variable dimension n")
        if not self.assignment:
            raise ValidationError("empty player assignment")
        for t in self.assignment:
            if not 0 <= t < len(self.types):
                raise ValidationError(f"assignment index {t} out of range")

    @property
    def n(self) -> int:
        return self.types[0][0].ncols

    @property
    def m(self) -> int:
        return self.types[0][1].nrows

    @property
    def N(self) -> int:
        return len(self.assignment)


def build_nfold(spec: NfoldSpec) -> IntMatrix:
    """(m + N*d) x (N*n) matrix: B repeated on top, A block-diagonal below."""
    top = hstack([spec.B] * spec.N)
    diag = block_diagonal([spec.A] * spec.N)
    return vstack([top, diag])


def build_nash_matrix(spec: NfoldSpec) -> IntMatrix:
    """Equilibrium matrix of N players sharing (A, B); see build_multitype_matrix."""
    return build_multitype_matrix(
        TypeCatalog(types=((spec.A, spec.B),), assignment=(0,) * spec.N)
    )


def _linking_rows(bs: list[IntMatrix], n: int, m: int) -> IntMatrix:
    """Aggregation and coupling-with-slack rows, one x-block per B in `bs`.

    Columns: the x-blocks, then y (n), then s (m).  Rows: aggregation
    (I_n per block, -I_n, 0) and coupling (B per block, 0, I_m).
    """
    eye_n = IntMatrix.identity(n)
    neg_eye_n = IntMatrix(n, n, tuple(tuple(-x for x in r) for r in eye_n.entries))
    agg = hstack([eye_n] * len(bs) + [neg_eye_n, IntMatrix.zero(n, m)])
    coupling = hstack(list(bs) + [IntMatrix.zero(m, n), IntMatrix.identity(m)])
    return vstack([agg, coupling])


def build_c_matrix(spec: NfoldSpec) -> IntMatrix:
    """Enlarged N-fold matrix with per-brick groups (x^i, w^i, s^i).

    Equals build_nfold with A' = (A 0 0) and B' = the stacked coupling
    brick; the equilibrium matrix is this matrix with the w and s groups
    of bricks 2..N deleted.
    """
    n, m = spec.n, spec.m
    a_prime = hstack([spec.A, IntMatrix.zero(spec.d, n), IntMatrix.zero(spec.d, m)])
    # merging the slack identity into the B rows is what makes the
    # zero-padding of equilibrium-matrix kernel elements land in the
    # kernel of the enlarged matrix
    brick = _linking_rows([spec.B], n, m)
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


def build_multitype_matrix(catalog: TypeCatalog) -> IntMatrix:
    """Equilibrium matrix for players of differing types.

    Columns: N x-blocks of width n, then y (n), then s (m).
    Rows: aggregation (sum_i x^i - y = 0, n rows), coupling with slack
    (sum_i B_t(i) x^i + s = b^0, m rows), then A_t(i) x^i = b^i per
    player, where t(i) is player i's type.
    """
    n, m = catalog.n, catalog.m
    pairs = [catalog.types[t] for t in catalog.assignment]
    players = block_diagonal([a for a, _ in pairs])
    return vstack(
        [
            _linking_rows([b for _, b in pairs], n, m),
            hstack([players, IntMatrix.zero(players.nrows, n + m)]),
        ]
    )
