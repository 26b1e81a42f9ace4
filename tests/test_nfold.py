import importlib.util
import json
import random
from pathlib import Path

import pytest

from gravernash import (
    DimensionError,
    IntMatrix,
    NfoldSpec,
    ValidationError,
    build_c_matrix,
    build_multitype_matrix,
    build_nash_matrix,
    build_nfold,
    graver_basis,
    pad_to_c,
)
from gravernash.linalg import is_zero
from gravernash.nfold import embedded_columns
from gravernash.oracle import conformal_leq, enumerate_box_points

from conftest import identity_matrix, rand_matrix, zero_matrix

A11 = IntMatrix.from_rows([[1, 1]])
B10 = IntMatrix.from_rows([[1, 0]])


def test_build_nfold_example():
    mat = build_nfold(NfoldSpec(A=A11, B=B10, N=3))
    assert (mat.nrows, mat.ncols) == (4, 6)
    assert mat.entries[0] == (1, 0, 1, 0, 1, 0)
    assert mat.entries[1] == (1, 1, 0, 0, 0, 0)
    assert mat.entries[2] == (0, 0, 1, 1, 0, 0)
    assert mat.entries[3] == (0, 0, 0, 0, 1, 1)


def test_build_nfold_single_brick_is_vertical_stack():
    mat = build_nfold(NfoldSpec(A=A11, B=B10, N=1))
    assert mat.entries == (B10.entries[0], A11.entries[0])


def test_build_nfold_shape_identity_blocks():
    mat = build_nfold(NfoldSpec(A=identity_matrix(2), B=identity_matrix(2), N=2))
    assert (mat.nrows, mat.ncols) == (6, 4)


def test_nash_matrix_example():
    mat = build_nash_matrix(NfoldSpec(A=A11, B=B10, N=2))
    assert (mat.nrows, mat.ncols) == (5, 7)
    assert mat.entries[0] == (1, 0, 1, 0, -1, 0, 0)
    assert mat.entries[1] == (0, 1, 0, 1, 0, -1, 0)
    assert mat.entries[2] == (1, 0, 1, 0, 0, 0, 1)
    assert mat.entries[3] == (1, 1, 0, 0, 0, 0, 0)
    assert mat.entries[4] == (0, 0, 1, 1, 0, 0, 0)


def test_nash_matrix_zero_coupling_keeps_slack_column():
    spec = NfoldSpec(A=A11, B=zero_matrix(1, 2), N=1)
    mat = build_nash_matrix(spec)
    assert (mat.nrows, mat.ncols) == (4, 5)
    assert list(zip(*mat.entries))[4] == (0, 0, 1, 0)


def test_shape_laws_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        d = rng.randint(1, 2)
        m = rng.randint(1, 2)
        spec = NfoldSpec(
            A=rand_matrix(rng, d, n, -2, 2), B=rand_matrix(rng, m, n, -2, 2), N=rng.randint(1, 4)
        )
        nash = build_nash_matrix(spec)
        assert (nash.nrows, nash.ncols) == (n + m + spec.N * d, spec.N * n + n + m)
        plain = build_nfold(spec)
        assert (plain.nrows, plain.ncols) == (m + spec.N * d, spec.N * n)
        big = build_c_matrix(spec)
        assert (big.nrows, big.ncols) == (n + m + spec.N * d, spec.N * (2 * n + m))


def test_nash_columns_embed_into_c_columns():
    spec = NfoldSpec(A=A11, B=B10, N=2)
    nash = build_nash_matrix(spec)
    big = build_c_matrix(spec)
    nash_cols, big_cols = list(zip(*nash.entries)), list(zip(*big.entries))
    for nash_col, big_col in enumerate(embedded_columns(spec)):
        assert nash_cols[nash_col] == big_cols[big_col]


def test_pad_to_c_zero_and_order():
    spec = NfoldSpec(A=A11, B=B10, N=2)
    zero = (0,) * 7
    assert pad_to_c(zero, spec) == (0,) * 10
    g = (1, -1, 0, 0, 1, -1, -1)
    h = (2, -2, 0, 0, 1, -1, -2)
    assert conformal_leq(g, h) == conformal_leq(pad_to_c(g, spec), pad_to_c(h, spec))
    with pytest.raises(DimensionError):
        pad_to_c((1, 2), spec)


def test_padded_graver_elements_in_c_kernel():
    spec = NfoldSpec(A=A11, B=B10, N=2)
    nash = build_nash_matrix(spec)
    big = build_c_matrix(spec)
    for g in graver_basis(nash):
        assert is_zero(nash.matvec(g))
        assert is_zero(big.matvec(pad_to_c(g, spec)))


def test_multitype_single_type_matches_nash():
    spec = NfoldSpec(A=A11, B=B10, N=3)
    assert build_multitype_matrix(((A11, B10),), (0, 0, 0)) == build_nash_matrix(spec)


def test_multitype_two_types_hand_built():
    a2 = IntMatrix.from_rows([[1, 0]])
    b2 = IntMatrix.from_rows([[0, 1]])
    mat = build_multitype_matrix(((A11, B10), (a2, b2)), (0, 1))
    # rows: n + m + d_1 + d_2 = 2 + 1 + 1 + 1; cols: 2*2 + 2 + 1
    assert (mat.nrows, mat.ncols) == (5, 7)
    expected = IntMatrix.from_rows(
        [
            [1, 0, 1, 0, -1, 0, 0],
            [0, 1, 0, 1, 0, -1, 0],
            [1, 0, 0, 1, 0, 0, 1],  # B of type 0, then B of type 1, slack
            [1, 1, 0, 0, 0, 0, 0],  # A of type 0 for player 1
            [0, 0, 1, 0, 0, 0, 0],  # A of type 1 for player 2
        ]
    )
    assert mat == expected


def test_players_of_one_type_declare_a_brick_class():
    nash = build_nash_matrix(NfoldSpec(A=A11, B=B10, N=3))
    assert nash.bricks == (((0, 1), (2, 3), (4, 5)),)
    plain = IntMatrix.from_rows(nash.entries)
    assert plain.bricks == ()
    assert nash == plain
    assert hash(nash) == hash(plain)
    a2 = IntMatrix.from_rows([[1, 0]])
    b2 = IntMatrix.from_rows([[0, 1]])
    mat = build_multitype_matrix(((A11, B10), (a2, b2)), (1, 0, 1, 1))
    assert mat.bricks == (((0, 1), (4, 5), (6, 7)),)
    assert build_multitype_matrix(((A11, B10), (a2, b2)), (0, 1)).bricks == ()


def test_multitype_assignment_out_of_range():
    for assignment in ((0, 1), (-1,)):
        with pytest.raises(ValidationError):
            build_multitype_matrix(((A11, B10),), assignment)


def test_multitype_widths_that_compensate_are_rejected():
    # player widths 3 + 1 match the 2 + 2 columns of their B blocks, so
    # only the per-type check against n rejects this catalog
    types = [
        (A11, B10),
        (IntMatrix.from_rows([[1, 1, 1]]), B10),
        (IntMatrix.from_rows([[1]]), B10),
    ]
    with pytest.raises(DimensionError):
        build_multitype_matrix(types, (1, 2))


def test_multitype_kernel_is_padded_embedding_of_supermatrix():
    # deleting unused-slot columns cannot create kernel elements beyond
    # zero-padding: check by enumerating small kernels of both matrices
    a2 = IntMatrix.from_rows([[1, 0]])
    b2 = IntMatrix.from_rows([[0, 1]])
    types, assignment = ((A11, B10), (a2, b2)), (0, 1)
    small = build_multitype_matrix(types, assignment)
    n = small.ncols
    small_kernel = enumerate_box_points(
        (-1,) * n, (1,) * n, predicate=lambda p: is_zero(small.matvec(p))
    )

    # the undeleted matrix: both slots present for both players
    full = _full_multitype(types, len(assignment))
    slot_cols = _kept_columns(types, assignment)
    for p in small_kernel:
        padded = [0] * full.ncols
        for value, col in zip(p, slot_cols):
            padded[col] = value
        assert is_zero(full.matvec(tuple(padded)))


def _full_multitype(types, N):
    # the super-brick matrix with every type slot kept, row by row from its
    # definition: player p's slot for type k holds columns (p*t + k)*n onwards
    n, m, t = types[0][0].ncols, types[0][1].nrows, len(types)
    width = N * t * n + n + m

    def row(pieces):
        out = [0] * width
        for start, values in pieces:
            out[start : start + len(values)] = values
        return out

    slots = range(N * t)
    rows = []
    for j in range(n):  # aggregation: every slot's x_j minus y_j
        rows.append(row([(s * n + j, [1]) for s in slots] + [(N * t * n + j, [-1])]))
    for i in range(m):  # coupling: every slot's B row i plus slack s_i
        pieces = [(s * n, types[s % t][1].entries[i]) for s in slots]
        rows.append(row(pieces + [(N * t * n + n + i, [1])]))
    for s in slots:  # each slot's own A
        rows.extend(row([(s * n, r)]) for r in types[s % t][0].entries)
    return IntMatrix.from_rows(rows, width)


def _kept_columns(types, assignment):
    n, m, N, t = types[0][0].ncols, types[0][1].nrows, len(assignment), len(types)
    cols = []
    for i, ty in enumerate(assignment):
        base = i * t * n + ty * n
        cols.extend(range(base, base + n))
    cols.extend(range(N * t * n, N * t * n + n + m))
    return cols


def test_growth_is_monotone():
    sizes = []
    for num in range(1, 5):
        spec = NfoldSpec(A=A11, B=B10, N=num)
        sizes.append(len(graver_basis(build_nash_matrix(spec))))
    assert sizes == sorted(sizes)


def test_reference_nfold_snapshot(tmp_path):
    """`nfold` answers byte for byte as a committed snapshot of earlier code."""
    path = Path(__file__).parent / "data" / "make_reference_nfold.py"
    spec = importlib.util.spec_from_file_location("make_reference_nfold", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = json.loads((Path(__file__).parent / "data" / "reference_nfold.json").read_text())
    assert len(cases) == 148
    specs = [c["input"] for c in cases if "N" in c["input"] and c["exit"] == 0]
    assert {s["variant"] for s in specs} == {"plain", "nash", "c"}
    # the edge cases: an A with no rows, m = 0, N = 1
    assert 0 in {s["A"]["rows"] for s in specs} and 0 in {s["B"]["rows"] for s in specs}
    assert 1 in {s["N"] for s in specs}
    assert {c["exit"] for c in cases} == {0, 2}
    for case in cases:
        got = module.run_command("nfold", case["input"], tmp_path)
        assert got == {k: case[k] for k in got}, case["name"]
