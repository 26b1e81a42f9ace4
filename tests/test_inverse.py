import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gravernash import (
    IiopAnswer,
    IiopInstance,
    IntMatrix,
    IpInstance,
    ValidationError,
    brute_ip_opt,
    check_optimal,
    feasible_shifts,
    graver_basis,
    greedy_augment,
    solve_iiop,
    verify_answer,
)
from gravernash import inverse
from gravernash.costs import ZERO_COST, AffineCost, QuadraticCost, SeparableObjective
from gravernash.inverse import _difference_rows, _value_rows
from gravernash.nfold import NfoldSpec, build_nash_matrix

from conftest import (
    fraction_solve_iiop,
    identity_matrix,
    rand_matrix,
    random_rational_cost,
    square_cost,
)

F = Fraction

D11 = IntMatrix.from_rows([[1, 1]])


def shifted_square(center: int) -> QuadraticCost:
    # (y - center)^2, convex and minimized at the center
    return QuadraticCost(F(1), F(-2 * center), F(center * center))


def test_yes_instance_example():
    # x* = (1, 1) on x1 + x2 = 2 with shapes (y-1)^2 each: any weights work
    inst = IiopInstance(
        D=D11,
        d=(2,),
        u=(2, 2),
        xstar=(1, 1),
        shapes=SeparableObjective((shifted_square(1), shifted_square(1))),
    )
    basis = graver_basis(D11)
    answer = solve_iiop(inst, basis)
    assert answer.verdict == "yes"
    assert answer.lam is not None
    assert sum(answer.lam) == 1
    assert verify_answer(inst, basis, answer)


def test_yes_instance_needs_skewed_weights():
    # x* = (2, 0): squares alone prefer (1, 1), but weights can tilt the
    # objective so the corner becomes optimal
    inst = IiopInstance(
        D=D11,
        d=(2,),
        u=(2, 2),
        xstar=(2, 0),
        shapes=SeparableObjective((shifted_square(2), square_cost())),
    )
    basis = graver_basis(D11)
    answer = solve_iiop(inst, basis)
    assert answer.verdict == "yes"
    assert verify_answer(inst, basis, answer)
    weighted = IpInstance(
        inst.D,
        inst.d,
        inst.u,
        SeparableObjective(
            tuple(
                QuadraticCost(w * f.a, w * f.b, w * f.c)
                for f, w in zip(inst.shapes.terms, answer.lam)
            )
        ),
    )
    value, argmins = brute_ip_opt(weighted)
    assert weighted.objective.value(inst.xstar) == value


def test_no_instance_example():
    # both shapes strictly prefer moving off x* in the same direction
    inst = IiopInstance(
        D=D11,
        d=(2,),
        u=(2, 2),
        xstar=(1, 1),
        shapes=SeparableObjective((shifted_square(2), square_cost())),
    )
    basis = graver_basis(D11)
    answer = solve_iiop(inst, basis)
    assert answer.verdict == "no"
    assert answer.certificate is not None
    assert verify_answer(inst, basis, answer)


def test_no_shifts_means_uniform_yes():
    eye = identity_matrix(2)
    inst = IiopInstance(
        D=eye,
        d=(1, 1),
        u=(1, 1),
        xstar=(1, 1),
        shapes=SeparableObjective((square_cost(), square_cost())),
    )
    basis = graver_basis(eye)
    answer = solve_iiop(inst, basis)
    assert answer.verdict == "yes"
    assert answer.lam == (F(1, 2), F(1, 2))
    assert answer.shifts == ()
    assert verify_answer(inst, basis, answer)


def test_feasible_shifts_respect_box():
    basis = graver_basis(D11)
    inst = IiopInstance(
        D=D11,
        d=(2,),
        u=(2, 2),
        xstar=(2, 0),
        shapes=SeparableObjective((square_cost(), square_cost())),
    )
    assert feasible_shifts(basis, inst) == [(-1, 1)]
    # the definition, H = {g in G(D) : 0 <= x* + g <= u} in basis order, on
    # random instances whose x* often lies on a face of the box
    rng = random.Random(25)
    faces = 0
    for case in range(150):
        k = rng.randint(2, 5)
        D = rand_matrix(rng, rng.randint(1, 2), k, -2, 2)
        u = [rng.randint(0, 3) for _ in range(k)]
        xstar = [rng.choice((0, ub, rng.randint(0, ub))) for ub in u]
        faces += sum(x in (0, ub) for x, ub in zip(xstar, u))
        inst = IiopInstance(
            D=D,
            d=D.matvec(xstar),
            u=u,
            xstar=xstar,
            shapes=SeparableObjective(tuple(square_cost() for _ in range(k))),
        )
        basis = graver_basis(D)
        want = [
            g
            for g in basis.elements
            if all(0 <= x + v <= ub for x, v, ub in zip(xstar, g, u))
        ]
        assert feasible_shifts(basis, inst) == want, case
    assert faces >= 300, faces


def test_entry_points_refuse_a_basis_of_another_matrix():
    """A basis of another matrix answers wrongly, so every entry point that takes one refuses it."""
    squares = SeparableObjective((square_cost(), ZERO_COST))
    ip = IpInstance(D=D11, d=(2,), u=(2, 2), objective=squares)
    linear = SeparableObjective((AffineCost(1, 0), AffineCost(1, 0)))
    iiop = IiopInstance(D=D11, d=(2,), u=(2, 2), xstar=(1, 1), shapes=linear)
    right = graver_basis(D11)
    assert greedy_augment((1, 1), right, ip).x == (0, 2)
    assert check_optimal((1, 1), right, ip) == (False, (-1, 1))
    answer = solve_iiop(iiop, right)
    assert answer.lam == (F(1, 2), F(1, 2)) and verify_answer(iiop, right, answer)
    # the same width (G([1 0]) would call (1, 1) optimal and answer lam = (1, 0)),
    # and a wider matrix
    for other in ([[1, 0]], [[1, 1, 1]]):
        wrong = graver_basis(IntMatrix.from_rows(other))
        with pytest.raises(ValidationError):
            greedy_augment((1, 1), wrong, ip)
        with pytest.raises(ValidationError):
            check_optimal((1, 1), wrong, ip)
        with pytest.raises(ValidationError):
            feasible_shifts(wrong, iiop)
        with pytest.raises(ValidationError):
            solve_iiop(iiop, wrong)
        with pytest.raises(ValidationError):
            verify_answer(iiop, wrong, answer)


def test_xstar_outside_polytope_rejected():
    with pytest.raises(ValidationError):
        IiopInstance(
            D=D11,
            d=(2,),
            u=(2, 2),
            xstar=(2, 1),
            shapes=SeparableObjective((square_cost(), square_cost())),
        )


def test_verify_rejects_tampered_answers():
    inst = IiopInstance(
        D=D11,
        d=(2,),
        u=(2, 2),
        xstar=(1, 1),
        shapes=SeparableObjective((shifted_square(1), shifted_square(1))),
    )
    basis = graver_basis(D11)
    good = solve_iiop(inst, basis)
    assert verify_answer(inst, basis, good)
    negative = IiopAnswer(verdict="yes", lam=(F(2), F(-1)), shifts=good.shifts)
    assert not verify_answer(inst, basis, negative)
    unnormalized = IiopAnswer(verdict="yes", lam=(F(1), F(1)), shifts=good.shifts)
    assert not verify_answer(inst, basis, unnormalized)
    bogus_no = IiopAnswer(
        verdict="no", shifts=good.shifts, certificate=(F(1),) * len(good.shifts)
    )
    assert not verify_answer(inst, basis, bogus_no)
    assert not verify_answer(inst, basis, IiopAnswer(verdict="maybe"))
    for lam in (None, (F(1),), (F(1, 3),) * 3):
        assert not verify_answer(inst, basis, IiopAnswer(verdict="yes", lam=lam, shifts=good.shifts))

    refutable = no_family_instance(2)
    basis = graver_basis(refutable.D)
    no = solve_iiop(refutable, basis)
    assert no.verdict == "no" and verify_answer(refutable, basis, no)
    # normalized and nonnegative, but some H-row's weighted sum is negative
    uniform = IiopAnswer(verdict="yes", lam=(F(1, 2), F(1, 2)), shifts=no.shifts)
    assert not verify_answer(refutable, basis, uniform)
    for certificate in (None, no.certificate[1:], no.certificate + (F(1),)):
        tampered = IiopAnswer(verdict="no", shifts=no.shifts, certificate=certificate)
        assert not verify_answer(refutable, basis, tampered)
    reordered = IiopAnswer(verdict="no", shifts=no.shifts[::-1], certificate=no.certificate)
    assert not verify_answer(refutable, basis, reordered)
    negative = IiopAnswer(verdict="no", shifts=no.shifts, certificate=(F(-1),) + no.certificate[1:])
    assert not verify_answer(refutable, basis, negative)


def test_answers_take_exact_numbers_only():
    """A float weight, float coefficient or non-int shift is an input error, for both verdicts."""
    for lam in ((0.5, F(1, 2)), (F(1), True)):
        with pytest.raises(ValidationError):
            IiopAnswer(verdict="yes", lam=lam)
    for certificate in ((1.0, F(3), F(0)), (F(1), F(3), 0.0)):
        with pytest.raises(ValidationError):
            IiopAnswer(verdict="no", shifts=((1, -1),) * 3, certificate=certificate)
    for shifts in (((1.0, -1),), ((F(1), -1),), ((True, -1),)):
        with pytest.raises(ValidationError):
            IiopAnswer(verdict="no", shifts=shifts, certificate=(F(1),))
    # every shift is checked, not only the first
    for entry in (True, 1.0, F(1)):
        with pytest.raises(ValidationError):
            IiopAnswer(verdict="no", shifts=((1, -1), (-1, entry)), certificate=(F(1), F(1)))
    assert IiopAnswer(verdict="yes", lam=(1, F(0))).lam == (1, 0)
    assert IiopAnswer(verdict="no", shifts=((1, -1),), certificate=(2,)).certificate == (2,)


def test_instance_without_variables_rejected():
    # no nonzero weight exists on zero columns, so neither verdict could be right
    with pytest.raises(ValidationError):
        IiopInstance(
            D=IntMatrix.from_rows([[]], 0), d=(0,), u=(), xstar=(), shapes=SeparableObjective(())
        )


def test_verifier_does_not_share_the_solver_rows(monkeypatch):
    """Corrupted solver rows flip verdicts, and the verifier rejects each flipped answer."""
    real_rows = _difference_rows
    corruptions = (
        lambda row: tuple(-v - 1 for v in row),  # every entry
        lambda row: (abs(row[0]) + 1,) + row[1:],  # the first entry only
    )
    cases = [
        IiopInstance(
            D=D11, d=(2,), u=(2, 2), xstar=(1, 1),
            shapes=SeparableObjective((shifted_square(1), shifted_square(1))),
        ),
        no_family_instance(2),
        no_family_instance(3),
    ]
    flipped = set()
    for inst in cases:
        basis = graver_basis(inst.D)
        right = solve_iiop(inst, basis)
        assert verify_answer(inst, basis, right)
        for corrupt in corruptions:
            with monkeypatch.context() as patch:
                patch.setattr(
                    inverse, "_difference_rows",
                    lambda inst, shifts: [corrupt(row) for row in real_rows(inst, shifts)],
                )
                wrong = solve_iiop(inst, basis)
                # the two verdicts exclude each other, so a flipped one is wrong
                if wrong.verdict != right.verdict:
                    assert not verify_answer(inst, basis, wrong), (inst, wrong)
                    flipped.add(wrong.verdict)
    assert flipped == {"yes", "no"}


def no_family_instance(n: int) -> IiopInstance:
    """A refutable instance for every n >= 2.

    Coordinates 1-2 form the conflicted pair; every extra coordinate is
    unconstrained with a shape that strictly rewards moving off x*.
    """
    row = [1, 1] + [0] * (n - 2)
    u = (2,) * n
    xstar = (1, 1) + (0,) * (n - 2)
    shapes = [shifted_square(2), square_cost()] + [shifted_square(2)] * (n - 2)
    return IiopInstance(
        D=IntMatrix.from_rows([row]), d=(2,), u=u, xstar=xstar,
        shapes=SeparableObjective(tuple(shapes)),
    )


def test_no_family_scales():
    for n in range(2, 5):
        inst = no_family_instance(n)
        basis = graver_basis(inst.D)
        answer = solve_iiop(inst, basis)
        assert answer.verdict == "no"
        assert verify_answer(inst, basis, answer)


def test_planted_yes_instances_random():
    rng = random.Random(31)
    produced = 0
    while produced < 25:
        n = rng.randint(1, 3)
        mat = rand_matrix(rng, 1, n, -2, 2)
        u = tuple(rng.randint(1, 3) for _ in range(n))
        lam0 = tuple(F(rng.randint(1, 4)) for _ in range(n))
        centers = tuple(rng.randint(0, ui) for ui in u)
        shapes = SeparableObjective(tuple(shifted_square(c) for c in centers))
        witness = tuple(rng.randint(0, ui) for ui in u)
        planted = IpInstance(
            mat,
            mat.matvec(witness),
            u,
            SeparableObjective(
                tuple(
                    QuadraticCost(w * F(1), w * F(-2 * c), w * F(c * c))
                    for w, c in zip(lam0, centers)
                )
            ),
        )
        _, argmins = brute_ip_opt(planted)
        xstar = argmins[0]
        inst = IiopInstance(D=mat, d=planted.d, u=u, xstar=xstar, shapes=shapes)
        basis = graver_basis(mat)
        answer = solve_iiop(inst, basis)
        assert answer.verdict == "yes"
        assert verify_answer(inst, basis, answer)
        produced += 1


def _pulled_instance(rng) -> IiopInstance | None:
    """Parabolas pulled from x* along one full-support shift g: a "no" verdict.

    Each f_j = a_j (y - c_j)^2 with c_j = x*_j + t g_j drops by
    a_j g_j^2 (2t - 1) > 0 along g, for t in {1, 2}; None if no shift has
    full support.
    """
    n = rng.randint(2, 4)
    mat = IntMatrix.from_rows([[rng.choice((-2, -1, 1, 2)) for _ in range(n)]])
    u = (4,) * n
    xstar = tuple(rng.randint(1, 3) for _ in range(n))
    full = [
        g for g in graver_basis(mat).elements
        if all(g) and all(0 <= x + step <= 4 for x, step in zip(xstar, g))
    ]
    if not full:
        return None
    g, t = rng.choice(full), rng.randint(1, 2)
    shapes = []
    for x, step in zip(xstar, g):
        a, c = F(rng.randint(1, 6), rng.randint(1, 6)), x + t * step
        shapes.append(QuadraticCost(a, -2 * a * c, a * c * c))
    return IiopInstance(
        D=mat, d=mat.matvec(xstar), u=u, xstar=xstar, shapes=SeparableObjective(tuple(shapes))
    )


def test_integer_rows_match_the_fraction_rows():
    """The solver's int rows are L times the verifier's rows, and answer as they do: same lam, same certificate."""
    rng = random.Random(2718)
    verdicts = {"yes": 0, "no": 0}
    for case in range(300):
        inst = _pulled_instance(rng) if case % 2 else None
        if inst is None:
            n = rng.randint(2, 4)
            mat = rand_matrix(rng, rng.randint(1, 2), n, -2, 2)
            u = tuple(rng.randint(1, 3) for _ in range(n))
            xstar = tuple(rng.randint(0, ui) for ui in u)
            shapes = SeparableObjective(tuple(random_rational_cost(rng) for _ in range(n)))
            inst = IiopInstance(D=mat, d=mat.matvec(xstar), u=u, xstar=xstar, shapes=shapes)
        basis = graver_basis(inst.D)
        shifts = feasible_shifts(basis, inst)
        scale = inst.shapes.scale()
        want_rows = _value_rows(inst, shifts)
        got_rows = _difference_rows(inst, shifts)
        assert all(type(x) is int for row in got_rows for x in row), case
        assert got_rows == [tuple(scale * x for x in row) for row in want_rows], case
        got = solve_iiop(inst, basis)
        assert got == fraction_solve_iiop(inst, basis), case
        assert verify_answer(inst, basis, got), case
        verdicts[got.verdict] += 1
    assert min(verdicts.values()) >= 50, verdicts


def _linear_instance(rng, mat: IntMatrix, u, xstar) -> IiopInstance:
    """Increasing linear shapes a*y, a in 1..3 and b = 0 (so L = 1), at x* = `xstar`."""
    shapes = SeparableObjective(tuple(AffineCost(F(rng.randint(1, 3)), F(0)) for _ in xstar))
    return IiopInstance(D=mat, d=mat.matvec(xstar), u=u, xstar=xstar, shapes=shapes)


def test_linear_shapes_at_interior_points_match_the_dense_fraction_reference():
    """The benchmark's systems: linear shapes at a point inside the box.

    Each surplus row starts with right-hand side 0, so most pivots are
    degenerate.  On [1 -2 -2 0 -1] and on the N = 2 equilibrium matrix of
    A = [1 1], B = [1 0] (x-blocks, then their sums y, then the coupling
    slack), the answers equal the dense-Fraction reference's and verify.
    """
    rng = random.Random(2026)
    row = IntMatrix.from_rows([[1, -2, -2, 0, -1]])
    nash = build_nash_matrix(
        NfoldSpec(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, 0]]), 2)
    )
    bases = {mat: graver_basis(mat) for mat in (row, nash)}
    verdicts = {"yes": 0, "no": 0}
    for case in range(100):
        if case % 2:
            u = tuple(rng.randint(3, 5) for _ in range(5))
            inst = _linear_instance(rng, row, u, tuple(rng.randint(1, v - 1) for v in u))
        else:
            us = [[rng.randint(3, 5) for _ in range(2)] for _ in range(2)]
            xs = [[rng.randint(1, v - 1) for v in ub] for ub in us]
            load = sum(x[0] for x in xs)
            u = (*us[0], *us[1], us[0][0] + us[1][0], us[0][1] + us[1][1], load + 3)
            xstar = (*xs[0], *xs[1], xs[0][0] + xs[1][0], xs[0][1] + xs[1][1], rng.randint(1, 2))
            inst = _linear_instance(rng, nash, u, xstar)
        basis = bases[inst.D]
        got = solve_iiop(inst, basis)
        assert got == fraction_solve_iiop(inst, basis), case
        assert verify_answer(inst, basis, got), case
        verdicts[got.verdict] += 1
    assert min(verdicts.values()) >= 30, verdicts


def _snapshot_runner():
    path = Path(__file__).parent / "data" / "make_reference_inverse.py"
    spec = importlib.util.spec_from_file_location("make_reference_inverse", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_case


def test_reference_inverse_snapshot(tmp_path):
    """`inverse` and `verify-inverse` answer byte for byte as a committed snapshot of earlier code."""
    run_case = _snapshot_runner()
    cases = json.loads((Path(__file__).parent / "data" / "reference_inverse.json").read_text())
    assert len(cases) == 99
    assert {c["inverse"]["status"] for c in cases} == {"ok", "no"}
    # "no" answers at L = 1, whose certificate is the LP's ray itself
    assert sum(c["name"].startswith("linear") and c["inverse"]["status"] == "no" for c in cases) == 8
    for case in cases:
        got = run_case(case["instance"], tmp_path)
        assert got["inverse"] == case["inverse"], case["name"]
        assert got["verify-inverse"] == case["verify-inverse"], case["name"]
