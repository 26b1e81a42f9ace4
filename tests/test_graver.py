import itertools
import json
import operator
import random
from pathlib import Path

import pytest

import gravernash.graver
import gravernash.solver
from gravernash import (
    GameInstance,
    IntMatrix,
    IpInstance,
    PlayerSpec,
    ResourceCapExceeded,
    SeparableObjective,
    StrategyProfile,
    ValidationError,
    best_response,
    brute_graver,
    brute_ip_opt,
    brute_nash_check,
    check_graver,
    conformal_reduce,
    find_equilibrium,
    graver_basis,
    is_generalized_nash,
    solve_ip,
)
from gravernash.costs import ZERO_COST
from gravernash.graver import (
    DEFAULT_ELEMENT_CAP,
    GraverBasis,
    _complete,
    _orbit_maps,
    sign_masks,
)
from gravernash.linalg import is_zero, kernel_lattice_basis, one_norm, vneg, vsub
from gravernash.nfold import NfoldSpec, build_multitype_matrix, build_nash_matrix
from gravernash.oracle import conformal_leq, enumerate_box_points

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
        assert basis.elements == graver_basis(mat).elements


def test_pairwise_minimality():
    mat = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
    basis = graver_basis(mat)
    for g in basis:
        splitters = enumerate_box_points(
            tuple(min(0, x) for x in g),
            tuple(max(0, x) for x in g),
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


def mask_per_step_reduce(z, reducers):
    """The one-pass reduction with z's masks recomputed after every subtraction.

    Returns (normal form, stale): stale counts the nonzero records whose
    supports nest in the entering z's but not in those of the z they meet.
    """
    zpos, zneg, _ = sign_masks(z)
    entering_out = (~zpos, ~zneg)
    out_pos, out_neg = entering_out
    zabs = tuple(map(abs, z))
    stale = 0
    for pos, neg, g in reducers:
        if pos & out_pos or neg & out_neg or not (pos or neg):
            stale += bool(pos or neg) and not (pos & entering_out[0] or neg & entering_out[1])
            continue
        while all(map(operator.le, map(abs, g), zabs)):
            z = tuple(map(operator.sub, z, g))
            zpos, zneg, _ = sign_masks(z)
            if not (zpos or zneg):
                return z, stale
            out_pos, out_neg = ~zpos, ~zneg
            zabs = tuple(map(abs, z))
    return z, stale


def test_conformal_reduce_matches_the_mask_per_step_reduction():
    """Masks taken once on entry subtract exactly what masks refreshed after each subtraction do.

    Each z is a sum of multiples of a few records, with noise on half of
    them, so that subtractions zero entries of z: records after them then
    nest in the entering z's supports but not in the current z's, and many
    passes end at 0.
    """
    rng = random.Random(30)
    stale_cases = zeroed = 0
    for _ in range(2500):
        n = rng.randint(1, 6)
        basis = [
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(1, 10))
        ]
        basis += [(0,) * n] * rng.randint(0, 1)
        z = [0] * n
        for g in rng.sample(basis, rng.randint(1, min(3, len(basis)))):
            k = rng.randint(1, 3)
            z = [a + k * b for a, b in zip(z, g)]
        if rng.random() < 0.5:
            z = [a + rng.randint(-1, 1) for a in z]
        z = tuple(z)
        rng.shuffle(basis)
        records = [sign_masks(g) for g in basis]
        reduced = conformal_reduce(z, records)
        want, stale = mask_per_step_reduce(z, records)
        assert reduced == want, (z, basis)
        stale_cases += stale > 0
        zeroed += any(z) and not any(reduced)
    assert stale_cases >= 200, stale_cases
    assert zeroed >= 200, zeroed


def test_key_runs_once_per_distinct_raw_pair_sum(monkeypatch):
    """The completion canonicalizes each distinct raw pair sum r + g at most once.

    Calls to `key` are bounded by the lattice vectors queued, one per batch
    (the normal form r) and one per distinct raw sum of the pairs the
    completion sums: each batch's r with every record up to the batch's
    end that is not sign-compatible with r.
    """
    calls = []
    real_maps = _orbit_maps

    def counting_maps(mat):
        key, images = real_maps(mat)

        def counted(v):
            calls.append(v)
            return key(v)

        return counted, images

    monkeypatch.setattr(gravernash.graver, "_orbit_maps", counting_maps)
    p2 = build_nash_matrix(
        NfoldSpec(IntMatrix.from_rows([[1, 1, 1]]), IntMatrix.from_rows([[1, 2, 0]]), 4)
    )
    plain = IntMatrix.from_rows([[1, 2, 0, -1, 2], [0, 1, 2, 2, -1]])
    assert p2.bricks and not plain.bricks
    for mat in (p2, plain):
        calls.clear()
        lattice = kernel_lattice_basis(mat)
        current, batches = _complete(mat, lattice, DEFAULT_ELEMENT_CAP)
        ends = [start for start, _ in batches[1:]] + [len(current)]
        summed = [
            tuple(map(operator.add, r, g))
            for (_, r), end in zip(batches, ends)
            for _, _, g in current[:end]
            if not sign_compatible(r, g)
        ]
        assert len(calls) <= len(lattice) + len(batches) + len(set(summed)), mat
        if mat is p2:
            assert len(calls) < len(summed), (len(calls), len(summed))


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


def test_solve_ip_refuses_a_wide_matrix_before_the_hermite_reduction(monkeypatch):
    """solve_ip makes graver_basis's refusal before reducing [D | -d], and so do the game functions."""

    def reduced(mat):
        raise AssertionError("the Hermite reduction ran")

    def free(n):
        return SeparableObjective((ZERO_COST,) * n)

    wide = IpInstance(IntMatrix(0, 3, ()), (), (1, 1, 1), free(3))
    # one player with n = 4 columns and d = 1 row of A: N (n - d) = 3
    player = PlayerSpec(IntMatrix.from_rows([[1, 1, 1, 1]]), (1,), (1,) * 4, IntMatrix.from_rows([[0] * 4]))
    game = GameInstance(players=(player,), b0=(0,), costs=free(4))
    profile = StrategyProfile(((1, 0, 0, 0),))
    calls = [
        lambda cap: solve_ip(wide, cap=cap),
        lambda cap: find_equilibrium(game, cap=cap),
        lambda cap: best_response(game, profile, 0, cap=cap),
        lambda cap: is_generalized_nash(game, profile, cap=cap),
    ]
    monkeypatch.setattr(gravernash.solver, "kernel_lattice_basis", reduced)
    for call in calls:
        with pytest.raises(ResourceCapExceeded):
            call(5)
    monkeypatch.undo()
    # under the default cap each call reduces and returns
    for call in calls:
        call(DEFAULT_ELEMENT_CAP)


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
        # certified apart from the completion, by the completion criterion
        assert check_graver(mat, want), mat
        removed += len(want) < len(current)
    assert removed >= 3, removed


def _group_images(mat, v):
    """Every image of v under the permutations of mat's brick classes, by brute force."""
    images = {tuple(v)}
    for blocks in mat.bricks:
        moved = set()
        for w in images:
            for order in itertools.permutations(blocks):
                image = list(w)
                for block, source in zip(blocks, order):
                    for j, i in zip(block, source):
                        image[j] = w[i]
                moved.add(tuple(image))
        images = moved
    return images


def test_orbit_key_is_one_form_per_orbit_of_plus_minus_v():
    """key(σv) == key(v) == key(-v), and key(v) is an image of v or of -v.

    Covers vectors that are zero on the columns outside every class, where
    the sign of no fixed entry decides, and matrices whose classes cover
    every column, where none ever does.
    """
    rng = random.Random(29)
    p2 = NfoldSpec(IntMatrix.from_rows([[1, 1, 1]]), IntMatrix.from_rows([[1, 2, 0]]), 3)
    one_type = ([[1, 1]], [[1, 0]])
    two_types = [tuple(map(IntMatrix.from_rows, t)) for t in (one_type, ([[1, -1]], [[0, 1]]))]
    matrices = [
        build_nash_matrix(p2),
        build_multitype_matrix(two_types, [0, 1, 0, 1, 1]),
        IntMatrix(1, 4, ((1, -1, 1, -1),), bricks=(((0, 1), (2, 3)),)),
        IntMatrix(1, 3, ((1, 1, 1),), bricks=(((0,), (1,), (2,)),)),
        IntMatrix.from_rows([[1, 2, 3]]),
    ]
    for mat in matrices:
        key, _ = _orbit_maps(mat)
        classed = {j for blocks in mat.bricks for block in blocks for j in block}
        fixed = [j for j in range(mat.ncols) if j not in classed]
        seen = set()
        for _ in range(150):
            v = [rng.randint(-2, 2) for _ in range(mat.ncols)]
            if rng.random() < 0.5:
                for j in fixed:
                    v[j] = 0
            v = tuple(v)
            seen.add(any(v[j] for j in fixed))
            k = key(v)
            assert k in _group_images(mat, v) | _group_images(mat, vneg(v)), (mat, v)
            for w in _group_images(mat, v):
                assert key(w) == k and key(vneg(w)) == k, (mat, v, w)
        assert seen == ({False, True} if fixed else {False}), mat


def test_negated_images_take_their_records_by_swapping_masks():
    """Every record the completion keeps equals sign_masks of its vector, the negated ones too."""
    spec = NfoldSpec(IntMatrix.from_rows([[1, -1, 2]]), IntMatrix.from_rows([[1, 1, 0]]), 3)
    for mat in (build_nash_matrix(spec), IntMatrix.from_rows([[1, 2, 3]])):
        current, batches = _complete(mat, kernel_lattice_basis(mat), DEFAULT_ELEMENT_CAP)
        assert all(record == sign_masks(record[2]) for record in current)
        stored = {g for _, _, g in current}
        assert all(vneg(r) in stored for _, r in batches)


def test_repeated_calls_do_the_same_work(monkeypatch):
    """graver_basis keeps nothing between calls: a second pass reduces and completes as the first."""
    counts = {"reduce": 0, "kernel": 0}

    def counting(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(gravernash.graver, "conformal_reduce", counting("reduce", conformal_reduce))
    monkeypatch.setattr(
        gravernash.graver, "kernel_lattice_basis", counting("kernel", kernel_lattice_basis)
    )
    nash = build_nash_matrix(NfoldSpec(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, 0]]), 3))
    assert nash.bricks
    matrices = [IntMatrix.from_rows([[1, 2, 3]]), nash, IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])]
    passes = []
    for _ in range(2):
        counts.update(reduce=0, kernel=0)
        bases = [graver_basis(mat) for mat in matrices]
        passes.append((dict(counts), bases))
    assert passes[0] == passes[1]
    assert passes[0][0]["reduce"] > 0 and passes[0][0]["kernel"] == len(matrices)


I_2 = IntMatrix.from_rows([[1, 0], [0, 1]])
FREE = SeparableObjective((ZERO_COST, ZERO_COST))
POINT = IpInstance(I_2, (0, 0), (1, 1), FREE)
ONE_PLAYER = GameInstance(
    players=(PlayerSpec(IntMatrix.from_rows([[1, 1]]), (1,), (1, 1), IntMatrix.from_rows([[0, 0]])),),
    b0=(0,),
    costs=FREE,
)
# every library function that takes a cap: the game functions reach the
# check through solve_ip, the enumerating oracles through their count
CAP_ENTRY_POINTS = {
    "graver_basis": lambda cap: graver_basis(I_2, cap=cap),
    "solve_ip": lambda cap: solve_ip(POINT, cap=cap),
    "find_equilibrium": lambda cap: find_equilibrium(ONE_PLAYER, cap=cap),
    "is_generalized_nash": lambda cap: is_generalized_nash(
        ONE_PLAYER, StrategyProfile(((1, 0),)), cap=cap
    ),
    "enumerate_box_points": lambda cap: enumerate_box_points((0,), (1,), cap=cap),
    "brute_graver": lambda cap: brute_graver(I_2, 1, cap=cap),
    "check_graver": lambda cap: check_graver(I_2, (), cap=cap),
    "brute_ip_opt": lambda cap: brute_ip_opt(POINT, cap=cap),
    "brute_nash_check": lambda cap: brute_nash_check(ONE_PLAYER, cap=cap),
}


@pytest.mark.parametrize("cap", [-1, 1.5, True])
@pytest.mark.parametrize("entry", list(CAP_ENTRY_POINTS))
def test_a_cap_that_is_not_a_nonnegative_int_is_refused_as_input(entry, cap):
    """Before any reduction or count; each entry point returns with cap = 10."""
    CAP_ENTRY_POINTS[entry](10)
    with pytest.raises(ValidationError, match="a cap must be an int >= 0"):
        CAP_ENTRY_POINTS[entry](cap)
