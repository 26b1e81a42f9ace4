import json
import random
from pathlib import Path

import pytest

from gravernash import (
    IntMatrix,
    ResourceCapExceeded,
    brute_graver,
    conformal_reduce,
    graver_basis,
)
from gravernash.graver import GraverBasis, sign_masks
from gravernash.linalg import conformal_leq, is_zero, one_norm, vneg, vsub
from gravernash.oracle import Box, enumerate_box_points

from conftest import inf_norm, rand_matrix, sign_compatible


def verify_graver_basis(basis: GraverBasis, bound: int) -> bool:
    """Cross-check against the brute-force enumeration oracle.

    Compares the elements of `basis` with max-norm <= bound to the
    exhaustive conformal-minimality computation over the same box.
    """
    expected = set(brute_graver(basis.matrix, bound).elements)
    got = {g for g in basis.elements if inf_norm(g) <= bound}
    return got == expected


def test_known_bases():
    assert graver_basis(IntMatrix.from_rows([[1, 1]])).elements == ((-1, 1), (1, -1))
    assert graver_basis(IntMatrix.identity(2)).elements == ()
    assert set(graver_basis(IntMatrix.from_rows([[1, 2]])).elements) == {(2, -1), (-2, 1)}


def test_three_ones_basis():
    basis = graver_basis(IntMatrix.from_rows([[1, 1, 1]]))
    expected = set()
    for g in [(1, -1, 0), (1, 0, -1), (0, 1, -1)]:
        expected.add(g)
        expected.add(vneg(g))
    assert set(basis.elements) == expected
    assert len(basis) == 6


def test_elements_are_nonzero_kernel_vectors():
    rng = random.Random(5)
    for _ in range(30):
        mat = rand_matrix(rng, rng.randint(1, 2), rng.randint(1, 4), -2, 2)
        basis = graver_basis(mat)
        for g in basis:
            assert not is_zero(g)
            assert is_zero(mat.matvec(g))


def test_negation_closure_and_determinism():
    rng = random.Random(6)
    for _ in range(20):
        mat = rand_matrix(rng, rng.randint(1, 2), rng.randint(1, 4), -2, 2)
        basis = graver_basis(mat)
        assert set(basis.elements) == {vneg(g) for g in basis.elements}
        assert basis.elements == graver_basis(mat).elements


def test_pairwise_minimality():
    mat = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
    basis = graver_basis(mat)
    for g in basis:
        box = Box(
            tuple(min(0, x) for x in g), tuple(max(0, x) for x in g)
        )
        splitters = enumerate_box_points(
            box,
            predicate=lambda u: (
                not is_zero(u)
                and u != g
                and is_zero(mat.matvec(u))
                and conformal_leq(u, g)
            ),
        )
        assert splitters == []


def test_oracle_equivalence_random():
    rng = random.Random(7)
    for _ in range(40):
        mat = rand_matrix(rng, rng.randint(1, 2), rng.randint(1, 4), -2, 2)
        basis = graver_basis(mat)
        bound = max((inf_norm(g) for g in basis.elements), default=1)
        oracle = brute_graver(mat, bound)
        assert set(basis.elements) == set(oracle.elements)


def test_conformal_reduce_examples():
    assert conformal_reduce((2, -2), [sign_masks((1, -1))]) == (0, 0)
    assert conformal_reduce((1, 1), [sign_masks((1, -1))]) == (1, 1)


def test_conformal_reduce_shrinks_one_norm():
    z = (3, -1, -2)
    basis = [(1, 0, -1), (1, -1, 0)]
    current = z
    while True:
        divisor = next(
            (g for g in basis if not is_zero(g) and conformal_leq(g, current)), None
        )
        if divisor is None:
            break
        reduced = vsub(current, divisor)
        assert one_norm(reduced) < one_norm(current)
        current = reduced
    assert current == conformal_reduce(z, [sign_masks(g) for g in basis])


def linear_scan_reduce(z, basis):
    """Reference normal form: subtract the first conformal divisor, entries compared."""
    while not is_zero(z):
        divisor = next(
            (g for g in basis if not is_zero(g) and conformal_leq(g, z)), None
        )
        if divisor is None:
            break
        z = vsub(z, divisor)
    return z


def test_masked_reduce_matches_linear_scan():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 7)
        basis = [
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(0, 12))
        ]
        z = tuple(rng.randint(-6, 6) for _ in range(n))
        assert conformal_reduce(z, [sign_masks(g) for g in basis]) == (
            linear_scan_reduce(z, basis)
        )


def test_sign_masks():
    assert sign_masks((3, 0, -1, 2)) == (0b1001, 0b0100, (3, 0, -1, 2))
    assert sign_masks((0, 0)) == (0, 0, (0, 0))
    assert sign_masks(()) == (0, 0, ())


def test_reference_bases_snapshot():
    """Bases equal, element for element, a committed snapshot of earlier completions."""
    path = Path(__file__).parent / "data" / "reference_bases.json"
    cases = json.loads(path.read_text())
    assert len(cases) == 73
    for case in cases:
        basis = graver_basis(IntMatrix.from_rows(case["rows"]))
        assert [list(g) for g in basis.elements] == case["elements"], case["name"]


def test_verify_graver_basis():
    mat = IntMatrix.from_rows([[1, 1]])
    basis = graver_basis(mat)
    assert verify_graver_basis(basis, 3)
    tampered = GraverBasis(matrix=mat, elements=((1, -1),))
    assert not verify_graver_basis(tampered, 3)
    mat3 = IntMatrix.from_rows([[1, 1, 1]])
    assert verify_graver_basis(graver_basis(mat3), 2)


def test_resource_cap():
    mat = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
    with pytest.raises(ResourceCapExceeded):
        graver_basis(mat, cap=1)


def test_sums_of_compatible_elements_are_not_minimal():
    basis = graver_basis(IntMatrix.from_rows([[1, 1, 1]]))
    for f in basis:
        for g in basis:
            if f != g and sign_compatible(f, g):
                assert tuple(a + b for a, b in zip(f, g)) not in set(basis.elements)
