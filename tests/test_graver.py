import json
import random
from pathlib import Path

import pytest

import gravernash.graver
from gravernash import (
    IntMatrix,
    ResourceCapExceeded,
    brute_graver,
    conformal_reduce,
    graver_basis,
)
from gravernash.graver import (
    DEFAULT_ELEMENT_CAP,
    GraverBasis,
    _basis_from_lattice,
    _complete,
    clear_memo,
    sign_masks,
)
from gravernash.linalg import conformal_leq, is_zero, kernel_lattice_basis, one_norm, vneg, vsub
from gravernash.nfold import NfoldSpec, build_multitype_matrix, build_nash_matrix
from gravernash.oracle import Box, enumerate_box_points

from conftest import (
    all_pairs_minimal,
    identity_matrix,
    inf_norm,
    rand_matrix,
    sign_compatible,
)


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
    assert graver_basis(identity_matrix(2)).elements == ()
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
        # a second graver_basis(mat) would read the memo: complete afresh
        fresh = _basis_from_lattice(mat, kernel_lattice_basis(mat), DEFAULT_ELEMENT_CAP)
        assert basis.elements == fresh.elements


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
    """The one-pass reduction ends where a scan restarted after every subtraction ends.

    Zero and repeated records are mixed in, and half the vectors are k * g
    for a record g and k up to 4, so that one record is subtracted several
    times in a row and the reduction often reaches 0 before its last record.
    """
    rng = random.Random(11)
    zeroed = 0
    for _ in range(600):
        n = rng.randint(1, 7)
        basis = [
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(0, 12))
        ]
        basis += rng.choices(basis, k=rng.randint(0, 3)) if basis else []
        basis += [(0,) * n] * rng.randint(0, 2)
        rng.shuffle(basis)
        if basis and rng.random() < 0.5:
            k, g = rng.randint(1, 4), rng.choice(basis)
            z = tuple(k * a for a in g)
        else:
            z = tuple(rng.randint(-6, 6) for _ in range(n))
        reduced = conformal_reduce(z, [sign_masks(g) for g in basis])
        assert reduced == linear_scan_reduce(z, basis)
        zeroed += not is_zero(z) and is_zero(reduced)
    assert zeroed >= 100, zeroed


def test_sign_masks():
    assert sign_masks((3, 0, -1, 2)) == (0b1001, 0b0100, (3, 0, -1, 2))
    assert sign_masks((0, 0)) == (0, 0, (0, 0))
    assert sign_masks(()) == (0, 0, ())


# completed through the builder only: with no declared bricks each takes seconds
BUILDER_ONLY_CASES = {
    "nash A=[[1, 1, 1]] B=[[1, 2, 0]] N=5",
    "nash A=[[1, -1, 2]] B=[[1, 1, 0]] N=4",
}


def test_reference_bases_snapshot():
    """Bases equal, element for element, a committed snapshot of earlier completions.

    Every case but the two largest is completed from its rows alone; every
    nash case is also completed as `build_nash_matrix` builds it.
    """
    path = Path(__file__).parent / "data" / "reference_bases.json"
    cases = json.loads(path.read_text())
    assert len(cases) == 75
    for case in cases:
        matrices = []
        if case["name"] not in BUILDER_ONLY_CASES:
            matrices.append(IntMatrix.from_rows(case["rows"]))
        if "N" in case:
            spec = NfoldSpec(
                IntMatrix.from_rows(case["A"]), IntMatrix.from_rows(case["B"]), case["N"]
            )
            matrices.append(build_nash_matrix(spec))
            assert matrices[-1].entries == tuple(map(tuple, case["rows"])), case["name"]
        for mat in matrices:
            basis = graver_basis(mat)
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


def test_graver_basis_refuses_a_wide_matrix_before_the_hermite_reduction(monkeypatch):
    """G(D) has at least 2 (ncols - nrows) elements; past the cap nothing is reduced."""

    def reduced(mat):
        raise AssertionError("the Hermite reduction ran")

    monkeypatch.setattr(gravernash.graver, "kernel_lattice_basis", reduced)
    with pytest.raises(ResourceCapExceeded):
        graver_basis(IntMatrix(0, 10**9, ()))
    three_ones = IntMatrix.from_rows([[1, 1, 1]])
    with pytest.raises(ResourceCapExceeded):
        graver_basis(three_ones, cap=3)
    monkeypatch.undo()
    # at 2 (ncols - nrows) = 4 the completion runs, and its own cap holds
    with pytest.raises(ResourceCapExceeded):
        graver_basis(three_ones, cap=4)
    assert len(graver_basis(three_ones, cap=6)) == 6


def test_sums_of_compatible_elements_are_not_minimal():
    basis = graver_basis(IntMatrix.from_rows([[1, 1, 1]]))
    for f in basis:
        for g in basis:
            if f != g and sign_compatible(f, g):
                assert tuple(a + b for a, b in zip(f, g)) not in set(basis.elements)


def random_nash_spec(rng):
    n = rng.randint(1, 3)
    return NfoldSpec(
        A=rand_matrix(rng, rng.randint(1, 2), n, -1, 1),
        B=rand_matrix(rng, rng.randint(1, 2), n, -1, 1),
        N=rng.randint(1, 4),
    )


def test_orbit_completion_matches_the_trivial_group():
    """Declared bricks change no basis: G(D) is unique."""
    rng = random.Random(31)
    for _ in range(200):
        built = build_nash_matrix(random_nash_spec(rng))
        plain = IntMatrix.from_rows(built.entries, built.ncols)
        assert graver_basis(built).elements == graver_basis(plain).elements
    for _ in range(50):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        types = [
            (rand_matrix(rng, 1, n, -1, 1), rand_matrix(rng, m, n, -1, 1))
            for _ in range(rng.randint(1, 3))
        ]
        repeated = rng.randrange(len(types))
        assignment = [repeated, repeated] + [
            rng.randrange(len(types)) for _ in range(rng.randint(1, 2))
        ]
        rng.shuffle(assignment)
        built = build_multitype_matrix(types, assignment)
        assert built.bricks
        plain = IntMatrix.from_rows(built.entries, built.ncols)
        assert graver_basis(built).elements == graver_basis(plain).elements


def test_orbit_completion_matches_the_oracle():
    pairs = [
        ([[1, 1]], [[1, 0]], 3),
        ([[1, 2]], [[1, 0]], 2),
        ([[1, 1]], [[1, 2]], 2),
        ([[0, 1]], [[1, -1]], 2),
    ]
    for a, b, big_n in pairs:
        spec = NfoldSpec(IntMatrix.from_rows(a), IntMatrix.from_rows(b), big_n)
        built = build_nash_matrix(spec)
        assert built.bricks
        basis = graver_basis(built)
        bound = max(inf_norm(g) for g in basis.elements)
        assert set(basis.elements) == set(brute_graver(built, bound).elements)


def test_resource_cap_with_declared_bricks():
    spec = NfoldSpec(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, 0]]), 3)
    with pytest.raises(ResourceCapExceeded):
        graver_basis(build_nash_matrix(spec), cap=1)


NASH_PAIRS = (
    (([[1, 1]], [[1, 0]]), (1, 2, 3, 4, 5)),
    (([[1, 1, 1]], [[1, 2, 0]]), (1, 2, 3)),
    (([[1, -1, 2]], [[1, 1, 0]]), (1, 2, 3)),
)


def test_representative_filter_matches_the_all_pairs_filter():
    """Testing one representative per batch against later records keeps what testing every pair keeps."""
    rng = random.Random(600)
    # the completion rarely keeps a non-minimal record; 2 x 5 matrices with
    # entries in [-3, 3] give a few, so the filter removes something
    matrices = [
        rand_matrix(rng, rng.randint(1, 2), rng.randint(2, 5), -2, 2) for _ in range(500)
    ] + [rand_matrix(rng, 2, 5, -3, 3) for _ in range(100)]
    for (a, b), big_ns in NASH_PAIRS:
        for big_n in big_ns:
            spec = NfoldSpec(IntMatrix.from_rows(a), IntMatrix.from_rows(b), big_n)
            matrices.append(build_nash_matrix(spec))
    removed = 0
    for mat in matrices:
        current, _ = _complete(mat, kernel_lattice_basis(mat), DEFAULT_ELEMENT_CAP)
        want = all_pairs_minimal(current)
        assert graver_basis(mat).elements == want, mat
        removed += len(want) < len(current)
    assert removed >= 3, removed


@pytest.fixture
def empty_memo():
    """Give the test an empty `graver_basis` memo, and leave one behind."""
    clear_memo()
    yield gravernash.graver._memo
    clear_memo()


def fresh_kept(mat: IntMatrix) -> int:
    """The number of records a fresh completion of `mat` keeps."""
    return len(_complete(mat, kernel_lattice_basis(mat), DEFAULT_ELEMENT_CAP)[0])


def fresh_basis(mat: IntMatrix, cap: int = DEFAULT_ELEMENT_CAP) -> GraverBasis:
    return _basis_from_lattice(mat, kernel_lattice_basis(mat), cap)


def test_cap_verdicts_do_not_depend_on_earlier_calls(empty_memo, monkeypatch):
    """cap = k - 1 raises and cap = k returns, k the records a fresh completion keeps, in either order."""
    completions = []
    real = gravernash.graver._basis_from_lattice

    def counted(mat, lattice, cap):
        completions.append(cap)
        return real(mat, lattice, cap)

    monkeypatch.setattr(gravernash.graver, "_basis_from_lattice", counted)
    nash = build_nash_matrix(NfoldSpec(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, 0]]), 3))
    # the completion of the 2 x 5 matrix keeps 66 records for 62 elements,
    # so a cap of |G| passes a fresh completion's cap
    wide = IntMatrix.from_rows([[-2, 3, -1, -1, 3], [0, -1, -2, 3, 3]])
    assert fresh_kept(wide) > len(fresh_basis(wide))
    for mat in (IntMatrix.from_rows([[1, 2, 3]]), nash, wide):
        k = fresh_kept(mat)
        want = fresh_basis(mat)
        # the completion's own cap decides, not the 2 (ncols - nrows) refusal
        assert 2 * (mat.ncols - mat.nrows) < k - 1
        # the caps asked, in order, and the ones that complete: a refused
        # completion is not kept, a returned one is, per cap
        cap = DEFAULT_ELEMENT_CAP
        for asked, completed in (
            ([k - 1, k, k - 1, k, cap], [k - 1, k, k - 1, cap]),
            ([cap, k - 1, k, k - 1, k, cap], [cap, k - 1, k, k - 1]),
        ):
            clear_memo()
            completions.clear()
            for c in asked:
                if c < k:
                    with pytest.raises(ResourceCapExceeded, match="Graver completion exceeded"):
                        graver_basis(mat, cap=c)
                else:
                    assert graver_basis(mat, cap=c) == want
            assert completions == completed


def test_the_memo_keeps_a_matrix_with_bricks_apart_from_its_entries(empty_memo):
    """A nash matrix and the same entries without bricks each get their own completion's basis."""
    spec = NfoldSpec(IntMatrix.from_rows([[1, 1, 1]]), IntMatrix.from_rows([[1, 2, 0]]), 2)
    built = build_nash_matrix(spec)
    plain = IntMatrix.from_rows(built.entries, built.ncols)
    assert built == plain and built.bricks and not plain.bricks
    for mat in (plain, built, plain, built):
        basis = graver_basis(mat)
        assert basis == fresh_basis(mat)
        assert basis.matrix.bricks == mat.bricks
    assert empty_memo.cache_info()[:2] == (2, 2)  # (hits, misses)


def test_interleaved_calls_answer_as_fresh_completions(empty_memo):
    """Repeated matrices under mixed caps: every basis and every verdict is a fresh completion's."""
    rng = random.Random(22)
    pool = [rand_matrix(rng, rng.randint(1, 2), rng.randint(2, 5), -2, 2) for _ in range(8)]
    kept = {mat: fresh_kept(mat) for mat in pool}
    raised = returned = 0
    for _ in range(300):
        mat = rng.choice(pool)
        cap = rng.choice(
            [DEFAULT_ELEMENT_CAP, kept[mat], max(0, kept[mat] - 1), rng.randint(0, 2 * kept[mat])]
        )
        try:
            want = fresh_basis(mat, cap)
        except ResourceCapExceeded:
            with pytest.raises(ResourceCapExceeded):
                graver_basis(mat, cap)
            raised += 1
        else:
            assert graver_basis(mat, cap) == want == fresh_basis(mat)
            returned += 1
    assert raised > 50 and returned > 50, (raised, returned)
    assert empty_memo.cache_info().hits > 100
