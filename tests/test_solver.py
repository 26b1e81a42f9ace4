import random
from fractions import Fraction

import pytest

from gravernash import (
    InfeasibleError,
    IntMatrix,
    IpInstance,
    best_step,
    brute_ip_opt,
    check_optimal,
    find_feasible,
    graver_basis,
    greedy_augment,
    solve_ip,
)
from gravernash.costs import AffineCost, SeparableObjective
from gravernash.oracle import Box, enumerate_box_points

from conftest import rand_matrix, random_convex_objective, squares_objective

F = Fraction

D111 = IntMatrix.from_rows([[1, 1, 1]])
SUM3 = IpInstance(D111, (3,), (3, 3, 3), squares_objective(3))


def test_find_feasible_examples():
    inst = IpInstance(
        IntMatrix.from_rows([[1, 1]]), (2,), (1, 1), squares_objective(2)
    )
    assert find_feasible(inst, graver_basis(inst.D)) == (1, 1)
    tight = IpInstance(
        IntMatrix.from_rows([[1, 1]]), (3,), (1, 1), squares_objective(2)
    )
    assert find_feasible(tight, graver_basis(tight.D)) is None
    # solvable over the rationals and inside the box, but not over Z
    odd = IpInstance(IntMatrix.from_rows([[2]]), (3,), (5,), squares_objective(1))
    assert find_feasible(odd, graver_basis(odd.D)) is None


def test_best_step_example():
    g = (-1, 1, 0)
    step, gain = best_step((3, 0, 0), g, SUM3)
    assert step == 1  # ties broken toward the smaller step
    assert gain == 9 - (4 + 1)


def test_best_step_blocked():
    step, gain = best_step((3, 3, 3), (0, 0, 1), SUM3)
    assert (step, gain) == (0, 0)


def test_best_step_linear_endpoint():
    lin = SeparableObjective(
        (AffineCost(F(3), F(0)), AffineCost(F(1), F(0)), AffineCost(F(1), F(0)))
    )
    inst = IpInstance(D111, (3,), (3, 3, 3), lin)
    step, gain = best_step((3, 0, 0), (-1, 1, 0), inst)
    assert step == 3  # linear objective: optimum at the segment end
    assert gain == 9 - 3


def test_greedy_augment_reaches_optimum():
    basis = graver_basis(D111)
    result = greedy_augment((3, 0, 0), basis, SUM3)
    assert result.x == (1, 1, 1)
    assert result.objective == 3
    assert result.augmentation_count >= 1
    again = greedy_augment((1, 1, 1), basis, SUM3)
    assert again.augmentation_count == 0


def test_greedy_augment_trivial_kernel():
    inst = IpInstance(IntMatrix.identity(1), (2,), (3,), squares_objective(1))
    basis = graver_basis(inst.D)
    assert len(basis) == 0
    result = greedy_augment((2,), basis, inst)
    assert result.x == (2,)


def test_check_optimal_examples():
    basis = graver_basis(D111)
    ok, _ = check_optimal((1, 1, 1), basis, SUM3)
    assert ok
    bad, g = check_optimal((3, 0, 0), basis, SUM3)
    assert not bad
    assert g == (-1, 0, 1)  # first violator in the basis ordering


def test_solve_ip_examples():
    result = solve_ip(SUM3)
    assert result.status == "optimal"
    assert result.objective == 3
    lin = SeparableObjective(
        (AffineCost(F(1), F(0)), AffineCost(F(2), F(0)), AffineCost(F(3), F(0)))
    )
    linear = solve_ip(IpInstance(D111, (3,), (3, 3, 3), lin))
    assert linear.x == (3, 0, 0)
    assert linear.objective == 3
    infeasible = solve_ip(
        IpInstance(IntMatrix.from_rows([[1, 1]]), (3,), (1, 1), squares_objective(2))
    )
    assert infeasible.status == "infeasible"
    assert infeasible.x is None


def test_every_step_preserves_feasibility_and_decreases():
    # instrumented run: follow the augmentation trace manually
    basis = graver_basis(D111)
    x = (3, 0, 0)
    seen = [SUM3.objective.value(x)]
    while True:
        candidates = [(best_step(x, g, SUM3), g) for g in basis.elements]
        (step, gain), g = max(candidates, key=lambda c: c[0][1])
        if gain == 0:
            break
        x = tuple(a + step * b for a, b in zip(x, g))
        assert SUM3.is_feasible(x)
        seen.append(SUM3.objective.value(x))
    assert all(b < a for a, b in zip(seen, seen[1:]))


def test_oracle_equivalence_random():
    rng = random.Random(17)
    infeasible_seen = 0
    for i in range(100):
        nvars = rng.randint(1, 4)
        mat = rand_matrix(rng, rng.randint(1, 2), nvars, -2, 2)
        u = tuple(rng.randint(0, 4) for _ in range(nvars))
        if i % 2:
            # a random right-hand side: mostly infeasible, over Z or in the box
            d = tuple(rng.randint(-6, 6) for _ in range(mat.nrows))
        else:
            witness = tuple(rng.randint(0, ui) for ui in u)
            d = mat.matvec(witness)
        inst = IpInstance(mat, d, u, random_convex_objective(rng, nvars))
        result = solve_ip(inst)
        try:
            value, _ = brute_ip_opt(inst)
        except InfeasibleError:
            infeasible_seen += 1
            assert result.status == "infeasible"
            continue
        assert result.status == "optimal"
        assert result.objective == value
    assert infeasible_seen


def test_check_optimal_matches_value_optimality():
    rng = random.Random(18)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        mat = rand_matrix(rng, 1, nvars, -2, 2)
        u = tuple(rng.randint(0, 3) for _ in range(nvars))
        witness = tuple(rng.randint(0, ui) for ui in u)
        inst = IpInstance(mat, mat.matvec(witness), u, random_convex_objective(rng, nvars))
        value, _ = brute_ip_opt(inst)
        basis = graver_basis(mat)
        points = enumerate_box_points(
            Box((0,) * nvars, u), predicate=lambda p: mat.matvec(p) == inst.d
        )
        for p in points:
            ok, _ = check_optimal(p, basis, inst)
            assert ok == (inst.objective.value(p) == value)


def test_brute_ip_opt_infeasible():
    inst = IpInstance(IntMatrix.from_rows([[1, 1]]), (5,), (1, 1), squares_objective(2))
    with pytest.raises(InfeasibleError):
        brute_ip_opt(inst)
