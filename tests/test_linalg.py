import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravernash import (
    CertificateError,
    DimensionError,
    IntMatrix,
    conformal_leq,
    kernel_lattice_basis,
)
from gravernash import linalg
from gravernash.linalg import is_zero
from gravernash.oracle import Box, enumerate_box_points

from conftest import rand_matrix

short_vec = st.lists(st.integers(-5, 5), min_size=1, max_size=5)


def test_conformal_leq_examples():
    assert conformal_leq((1, -1), (2, -3))
    assert not conformal_leq((1, -1), (1, 1))
    assert conformal_leq((0, 0), (7, -9))


@given(short_vec)
def test_conformal_reflexive(v):
    assert conformal_leq(tuple(v), tuple(v))


@given(st.integers(1, 4), st.data())
def test_conformal_antisymmetric_transitive(n, data):
    ints = st.tuples(*[st.integers(-3, 3)] * n)
    u, v, w = data.draw(ints), data.draw(ints), data.draw(ints)
    if conformal_leq(u, v) and conformal_leq(v, u):
        assert u == v
    if conformal_leq(u, v) and conformal_leq(v, w):
        assert conformal_leq(u, w)


def test_kernel_basis_examples():
    assert kernel_lattice_basis(IntMatrix.from_rows([[1, 1]])) == [(1, -1)]
    assert kernel_lattice_basis(IntMatrix.from_rows([[2, 3]])) == [(3, -2)]
    assert kernel_lattice_basis(IntMatrix.identity(2)) == []


def test_kernel_self_check_rejects_a_corrupted_basis(monkeypatch):
    monkeypatch.setattr(linalg, "_sign_normalized", lambda v: (v[0] + 1,) + v[1:])
    with pytest.raises(CertificateError):
        kernel_lattice_basis(IntMatrix.from_rows([[1, 1]]))


def _integer_combination(basis, target):
    """Solve sum t_i b_i = target exactly; None unless an integer solution exists."""
    if not basis:
        return [] if is_zero(target) else None
    n = len(target)
    k = len(basis)
    rows = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in rows):
        return None
    t = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        t[c] = rows[i][-1]
    if any(x.denominator != 1 for x in t):
        return None
    return [int(x) for x in t]


def test_kernel_basis_spans_boxed_kernel_points():
    rng = random.Random(99)
    for _ in range(40):
        mat = rand_matrix(rng, rng.randint(1, 2), rng.randint(1, 4), -2, 2)
        basis = kernel_lattice_basis(mat)
        for v in basis:
            assert is_zero(mat.matvec(v))
        box = Box((-2,) * mat.ncols, (2,) * mat.ncols)
        kernel_points = enumerate_box_points(
            box, predicate=lambda p: is_zero(mat.matvec(p))
        )
        for p in kernel_points:
            assert _integer_combination(basis, p) is not None


def test_matrix_shape_validation():
    with pytest.raises(Exception):
        IntMatrix(2, 2, ((1, 2),))
    with pytest.raises(DimensionError):
        IntMatrix.identity(2).matvec((1, 2, 3))
