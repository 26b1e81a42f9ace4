import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravernash import (
    CertificateError,
    DimensionError,
    GameInstance,
    IiopInstance,
    IntMatrix,
    IpInstance,
    NfoldSpec,
    PlayerSpec,
    StrategyProfile,
    ValidationError,
    conformal_leq,
    graver_basis,
    kernel_lattice_basis,
)
from gravernash import linalg
from gravernash.linalg import is_zero
from gravernash.oracle import Box, enumerate_box_points

from conftest import identity_matrix, rand_matrix, squares_objective

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
    assert kernel_lattice_basis(identity_matrix(2)) == []


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
        identity_matrix(2).matvec((1, 2, 3))


A11 = IntMatrix.from_rows([[1, 1]])
B10 = IntMatrix.from_rows([[1, 0]])
# each builds a valid object from the int 1, placed in the named field
INT_FIELDS = {
    "IntMatrix entries": lambda v: IntMatrix(1, 2, ((v, 1),)),
    "IntMatrix.from_rows": lambda v: IntMatrix.from_rows([[v, 1]]),
    "IntMatrix nrows": lambda v: IntMatrix(v, 2, ((1, 1),)),
    "IpInstance d": lambda v: IpInstance(A11, (v,), (1, 1), squares_objective(2)),
    "IpInstance u": lambda v: IpInstance(A11, (1,), (v, 1), squares_objective(2)),
    "PlayerSpec b": lambda v: PlayerSpec(A11, (v,), (1, 1), B10),
    "PlayerSpec u": lambda v: PlayerSpec(A11, (1,), (v, 1), B10),
    "GameInstance b0": lambda v: GameInstance(
        (PlayerSpec(A11, (1,), (1, 1), B10),), (v,), squares_objective(2)
    ),
    "StrategyProfile": lambda v: StrategyProfile(((v, 0),)),
    "IiopInstance xstar": lambda v: IiopInstance(A11, (1,), (1, 1), (v, 0), squares_objective(2)),
    "NfoldSpec N": lambda v: NfoldSpec(A11, B10, v),
}


@pytest.mark.parametrize("value", [1.0, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("field", list(INT_FIELDS))
def test_constructors_take_exact_ints_only(field, value):
    INT_FIELDS[field](1)
    # 1.0 and True equal 1 and int("1") is 1, yet only an int is accepted
    with pytest.raises(ValidationError):
        INT_FIELDS[field](value)


@given(st.data())
def test_vector_kernels_match_their_definitions(data):
    n = data.draw(st.integers(0, 6))
    u = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    v = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    assert linalg.vadd(u, v) == tuple(a + b for a, b in zip(u, v))
    assert linalg.vsub(u, v) == tuple(a - b for a, b in zip(u, v))
    assert linalg.vneg(u) == tuple(-a for a in u)
    assert linalg.dot(u, v) == sum(a * b for a, b in zip(u, v))
    assert linalg.one_norm(u) == sum(abs(a) for a in u)
    assert is_zero(u) == all(a == 0 for a in u)


def test_vector_kernels_check_lengths():
    # map() stops at the shorter argument, so only the check catches these
    for kernel in (linalg.vadd, linalg.vsub, linalg.dot):
        with pytest.raises(DimensionError):
            kernel((1, 2, 3), (1, 2))


# swapping the two blocks exchanges the last two rows and fixes the first
SWAPPABLE = ((1, 2, 1, 2), (1, 1, 0, 0), (0, 0, 1, 1))


def test_declared_bricks_are_checked():
    IntMatrix(3, 4, SWAPPABLE, (((0, 1), (2, 3)),))
    bad = [
        (SWAPPABLE, (((0, 1), (3, 2)),)),  # not a symmetry: columns crossed
        (((1, 2, 2, 1),), (((0, 1), (2, 3)),)),  # not a symmetry
        # the swap of the first two blocks fixes the row, the cyclic shift does not
        (((1, 1, 2),), (((0,), (1,), (2,)),)),
        (SWAPPABLE, (((0, 1), (1, 2)),)),  # overlapping blocks
        (SWAPPABLE, (((0, 1), (2,)),)),  # unequal widths
        (SWAPPABLE, (((0, 1), (2, 4)),)),  # out of range
        (SWAPPABLE, (((-1,), (0,)),)),  # out of range
        (SWAPPABLE, (((0, 1),),)),  # a single block
        (SWAPPABLE, (((), ()),)),  # empty blocks
        (SWAPPABLE, (((0,), (2,)), ((0,), (1,)))),  # classes overlap
    ]
    for rows, bricks in bad:
        with pytest.raises(ValidationError):
            IntMatrix(len(rows), len(rows[0]), rows, bricks)


def test_declared_bricks_do_not_change_equality():
    declared = IntMatrix(3, 4, SWAPPABLE, (((0, 1), (2, 3)),))
    plain = IntMatrix.from_rows(SWAPPABLE)
    assert declared == plain
    assert hash(declared) == hash(plain)


def test_a_matrix_built_from_lists_is_stored_as_tuples():
    """Lists are copied into tuples, so the matrix hashes and `graver_basis` can remember it."""
    listed = IntMatrix(3, 4, [list(r) for r in SWAPPABLE], [[[0, 1], [2, 3]]])
    declared = IntMatrix(3, 4, SWAPPABLE, (((0, 1), (2, 3)),))
    assert listed.entries == SWAPPABLE and listed.bricks == declared.bricks
    assert hash(listed) == hash(declared)
    assert graver_basis(listed) == graver_basis(IntMatrix.from_rows(SWAPPABLE))
