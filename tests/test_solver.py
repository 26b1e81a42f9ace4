import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gravernash import graver, linalg, solver
from gravernash import (
    InfeasibleError,
    IntMatrix,
    IpInstance,
    ValidationError,
    best_step,
    brute_ip_opt,
    check_optimal,
    graver_basis,
    greedy_augment,
    solve_ip,
)
from gravernash.costs import ZERO_COST, AffineCost, PowerCost, QuadraticCost, SeparableObjective
from gravernash.linalg import is_zero, kernel_lattice_basis
from gravernash.oracle import Box, enumerate_box_points

from conftest import (
    fraction_best_step,
    fraction_greedy_augment,
    identity_matrix,
    rand_matrix,
    random_convex_objective,
    random_rational_cost,
    reference_integer_solution,
    squares_objective,
)

F = Fraction

D111 = IntMatrix.from_rows([[1, 1, 1]])
SUM3 = IpInstance(D111, (3,), (3, 3, 3), squares_objective(3))


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
    inst = IpInstance(identity_matrix(1), (2,), (3,), squares_objective(1))
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
    # solvable over the rationals and inside the box, but not over Z
    odd = solve_ip(IpInstance(IntMatrix.from_rows([[2]]), (3,), (5,), squares_objective(1)))
    assert (odd.status, odd.x) == ("infeasible", None)


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


def test_library_rejects_objectives_it_cannot_minimize_exactly():
    """A float parameter or a concave term is an input error, not a float or a wrong "optimal".

    The cost refuses it as it is built, so no instance can hold one.
    """
    for family, *params in (
        (AffineCost, 0.5, 0),
        (QuadraticCost, -1, 0, 0),
        (PowerCost, F(1), 2.0),
        (PowerCost, F(1), True),
        (AffineCost, F(1), 0.0),
    ):
        with pytest.raises(ValidationError):
            family(*params)
    # nor can an objective hold a term that is not a cost
    with pytest.raises(ValidationError):
        IpInstance(D111, (3,), (3, 3, 3), SeparableObjective((F(1), F(1), F(1))))
    # ints and Fractions are both exact
    mixed = SeparableObjective((AffineCost(1, F(1, 2)), QuadraticCost(F(1, 3), -1, 0), PowerCost(2, 3)))
    inst = IpInstance(D111, (3,), (3, 3, 3), mixed)
    result = solve_ip(inst)
    assert result.objective == brute_ip_opt(inst)[0] == F(1, 2)
    assert type(result.objective) is Fraction


def test_phase_one_terms_are_range_distances():
    """Each phase-1 term is the distance from the shifted range on the widened box."""
    for x0 in range(-4, 7):
        for u in range(5):
            term = solver._range_distance(x0, u)
            assert term.scale() == 1
            low = min(0, x0)
            lo, hi = -low, u - low
            box = range(max(u, x0) - low + 1)
            assert [term.value(y) for y in box] == [max(lo - y, 0, y - hi) for y in box]
            if 0 <= x0 <= u:  # in range: a constant term, which best_step skips
                assert term == ZERO_COST


def test_integer_augmentation_matches_the_fraction_oracle(monkeypatch):
    """Both phases of solve_ip against the Fraction augmentation, step by step.

    Every greedy_augment call (phase 1 on the distance objective, when x0
    leaves the box, and phase 2 on the instance's) is replayed by the
    oracle; at every point on the oracle's path each basis element must
    give the same (step, gain), and the end point, augmentation count and
    objective must agree.
    """
    calls = []
    real = solver.greedy_augment

    def recording(x0, basis, inst):
        result = real(x0, basis, inst)
        calls.append((x0, basis, inst, result))
        return result

    monkeypatch.setattr(solver, "greedy_augment", recording)
    rng = random.Random(2011)
    scales, families, augmented, walked = set(), set(), 0, 0
    for _ in range(300):
        nvars = rng.randint(2, 5)
        mat = rand_matrix(rng, rng.randint(1, 2), nvars, -2, 2)
        u = tuple(rng.randint(0, 5) for _ in range(nvars))
        witness = tuple(rng.randint(0, ui) for ui in u)
        objective = SeparableObjective(tuple(random_rational_cost(rng) for _ in range(nvars)))
        inst = IpInstance(mat, mat.matvec(witness), u, objective)
        calls.clear()
        result = solve_ip(inst)
        assert result.status == "optimal" and len(calls) in (1, 2)
        walked += len(calls) == 2
        for x0, basis, sub, got in calls:
            path, count, value = fraction_greedy_augment(x0, basis, sub)
            for x in path:
                for g in basis.elements:
                    assert best_step(x, g, sub) == fraction_best_step(x, g, sub)
            assert (got.x, got.augmentation_count, got.objective) == (path[-1], count, value)
            assert type(got.objective) is Fraction
        assert check_optimal(result.x, basis, inst) == (True, None)
        scales.add(objective.scale())
        families |= {type(t).__name__ for t in objective.terms}
        families |= {"ZERO_COST"} if ZERO_COST in objective.terms else set()
        augmented += result.augmentation_count > 0
    assert len(scales) > 10 and augmented > 100 and len(families) == 6
    assert walked > 100, walked


def test_reference_solve_snapshot(tmp_path):
    """`solve`, `equilibrium`, `best-response` and `verify-equilibrium` answer byte for byte as a committed snapshot of earlier code."""
    path = Path(__file__).parent / "data" / "make_reference_solve.py"
    spec = importlib.util.spec_from_file_location("make_reference_solve", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = json.loads((Path(__file__).parent / "data" / "reference_solve.json").read_text())
    assert len(cases) == 230
    assert {c["exit"] for c in cases} == {0, 1, 2}
    for case in cases:
        got = module.run_command(case["command"], case["input"], tmp_path)
        assert got == {k: case[k] for k in got}, (case["name"], case["command"])


REDUCTION_FAMILIES = ("image", "random", "gcd", "outside-span", "zero", "trivial-kernel")


def reduction_inputs():
    """600 seeded (family, D, d, point), 100 per family; `point` is an x with D x = d or None.

    image: d = D w; random: d drawn at random; gcd: D = 2R with every
    entry of d odd; outside-span: a two-row D of rank one with d outside
    its column span; zero: d = 0; trivial-kernel: D of full column rank
    and d = D w.
    """
    rng = random.Random(2016)
    cases = []
    for i in range(600):
        family = REDUCTION_FAMILIES[i % len(REDUCTION_FAMILIES)]
        nvars = rng.randint(1, 5)
        mat = rand_matrix(rng, rng.randint(1, 3), nvars, -2, 2)
        point = None
        if family in ("image", "trivial-kernel"):
            if family == "trivial-kernel":
                while kernel_lattice_basis(mat):
                    mat = rand_matrix(rng, rng.randint(2, 3), rng.randint(1, 2), -2, 2)
            point = tuple(rng.randint(-3, 3) for _ in range(mat.ncols))
            d = mat.matvec(point)
        elif family == "random":
            d = tuple(rng.randint(-6, 6) for _ in range(mat.nrows))
        elif family == "gcd":
            mat = IntMatrix.from_rows([[2 * a for a in row] for row in mat.entries])
            d = tuple(2 * rng.randint(-3, 3) + 1 for _ in range(mat.nrows))
        elif family == "outside-span":
            first = mat.entries[0] if any(mat.entries[0]) else (1,) + mat.entries[0][1:]
            factor, lhs = rng.choice((-2, -1, 2)), rng.randint(-4, 4)
            mat = IntMatrix.from_rows([first, [factor * a for a in first]])
            d = (lhs, factor * lhs + rng.choice((-1, 1)))
        else:
            point = (0,) * nvars
            d = (0,) * mat.nrows
        cases.append((family, mat, d, point))
    return cases


def test_single_reduction_matches_the_two_step_reference():
    """x0 equals the old solver's, and the derived vectors are a basis of ker(D)."""
    random_infeasible = 0
    for family, mat, d, point in reduction_inputs():
        x0, lattice = solver._solution_and_lattice(mat, d)
        assert x0 == reference_integer_solution(mat, d), (family, mat, d)
        if family == "random":
            random_infeasible += x0 is None
        elif family in ("gcd", "outside-span"):
            assert x0 is None
        else:
            assert mat.matvec(x0) == d
        if family == "trivial-kernel":
            assert x0 == point
        # as many vectors of ker(D) as its rank; that they generate it shows
        # in the next test, whose completion from them gives G(D)
        assert len(lattice) == len(kernel_lattice_basis(mat))
        assert all(is_zero(mat.matvec(v)) for v in lattice)
    assert 0 < random_infeasible < 100


def test_basis_from_the_derived_lattice_matches_graver_basis():
    for family, mat, d, _ in reduction_inputs():
        _, lattice = solver._solution_and_lattice(mat, d)
        derived = graver._basis_from_lattice(mat, lattice, graver.DEFAULT_ELEMENT_CAP)
        assert derived.elements == graver_basis(mat).elements, (family, mat, d)


def _count_calls(monkeypatch, module, name):
    """Every call of `module.name` made through any gravernash module, recorded."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.split(".")[0] == "gravernash" and getattr(loaded, name, None) is real:
            monkeypatch.setattr(loaded, name, counting)
    return calls


def test_solve_ip_makes_one_hermite_reduction(monkeypatch):
    """Optimal, infeasible in the box, infeasible over Z, trivial kernel: one reduction each."""
    instances = [
        SUM3,
        IpInstance(IntMatrix.from_rows([[1, 1]]), (3,), (1, 1), squares_objective(2)),
        IpInstance(IntMatrix.from_rows([[2]]), (3,), (5,), squares_objective(1)),
        IpInstance(identity_matrix(2), (1, 2), (3, 3), squares_objective(2)),
    ]
    sizes = [len(graver_basis(inst.D)) for inst in instances]
    reductions = _count_calls(monkeypatch, linalg, "kernel_lattice_basis")
    completions = _count_calls(monkeypatch, graver, "graver_basis")
    for inst, size in zip(instances, sizes):
        reductions.clear()
        assert solve_ip(inst).graver_size == size
        assert len(reductions) == 1
    assert completions == []
