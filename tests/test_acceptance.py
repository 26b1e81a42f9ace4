"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist when run with `pytest -s tests/test_acceptance.py`.
"""

import json
import random
import time
from fractions import Fraction

from gravernash import (
    IiopInstance,
    IntMatrix,
    IpInstance,
    NfoldSpec,
    brute_graver,
    brute_ip_opt,
    brute_nash_check,
    build_c_matrix,
    build_nash_matrix,
    check_optimal,
    enumerate_box_points,
    find_equilibrium,
    graver_basis,
    pad_to_c,
    solve_iiop,
    solve_ip,
    verify_answer,
)
from gravernash.cli import main as cli_main
from gravernash.costs import QuadraticCost, SeparableObjective
from gravernash.linalg import is_zero, vneg
from gravernash.oracle import conformal_leq

from conftest import inf_norm, rand_matrix, random_convex_objective, random_game, square_cost

F = Fraction


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok


def test_acceptance_1_graver_matches_oracle():
    rng = random.Random(12345)
    start = time.monotonic()
    ok = True
    for _ in range(100):
        mat = rand_matrix(rng, rng.randint(1, 2), rng.randint(1, 4), -2, 2)
        basis = graver_basis(mat)
        bound = max((inf_norm(g) for g in basis.elements), default=1)
        oracle = brute_graver(mat, bound)
        if set(basis.elements) != set(oracle.elements):
            ok = False
            break
    elapsed = time.monotonic() - start
    report(
        f"graver basis equals enumeration oracle on 100 random matrices "
        f"({elapsed:.1f}s < 60s)",
        ok and elapsed < 60,
    )


def test_acceptance_2_known_six_element_basis():
    basis = graver_basis(IntMatrix.from_rows([[1, 1, 1]]))
    expected = set()
    for g in [(1, -1, 0), (1, 0, -1), (0, 1, -1)]:
        expected.add(g)
        expected.add(vneg(g))
    ok = len(basis) == 6 and set(basis.elements) == expected
    report("single-row ones matrix has exactly the 6 known basis elements", ok)


def test_acceptance_3_potential_minima_are_equilibria():
    rng = random.Random(7)
    start = time.monotonic()
    games = violations = 0
    ok = True
    while games < 50:
        game = random_game(rng)
        feasible, minima, equilibria = brute_nash_check(game)
        if not feasible:
            continue
        games += 1
        for profile in minima:
            if profile not in equilibria:
                violations += 1
        found = find_equilibrium(game)
        if found not in equilibria:
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 300
    report(
        f"provider-cost minima are equilibria on 50 random games, "
        f"0 violations ({elapsed:.1f}s < 300s)",
        ok,
    )


def test_acceptance_4_solver_matches_oracle_with_certificates():
    rng = random.Random(12345)
    ok = True
    for _ in range(100):
        nvars = rng.randint(1, 4)
        mat = rand_matrix(rng, rng.randint(1, 2), nvars, -2, 2)
        u = tuple(rng.randint(0, 4) for _ in range(nvars))
        witness = tuple(rng.randint(0, ui) for ui in u)
        inst = IpInstance(
            mat, mat.matvec(witness), u, random_convex_objective(rng, nvars)
        )
        result = solve_ip(inst)
        value, _ = brute_ip_opt(inst)
        if result.status != "optimal" or result.objective != value:
            ok = False
            break
        basis = graver_basis(mat)
        points = enumerate_box_points(
            (0,) * nvars, u, predicate=lambda p: mat.matvec(p) == inst.d
        )
        for p in points:
            certified, _ = check_optimal(p, basis, inst)
            if certified != (inst.objective.value(p) == value):
                ok = False
                break
        if not ok:
            break
    report(
        "augmentation solver matches enumeration oracle on 100 instances "
        "and the no-improving-step certificate coincides with optimality",
        ok,
    )


def test_acceptance_5_zero_padding_embeds_basis():
    spec = NfoldSpec(A=IntMatrix.from_rows([[1, 1]]), B=IntMatrix.from_rows([[1, 0]]), N=2)
    nash = build_nash_matrix(spec)
    big = build_c_matrix(spec)
    violations = 0
    for g in graver_basis(nash):
        padded = pad_to_c(g, spec)
        if not is_zero(big.matvec(padded)):
            violations += 1
            continue
        splitters = enumerate_box_points(
            tuple(min(0, x) for x in padded),
            tuple(max(0, x) for x in padded),
            predicate=lambda v: (
                not is_zero(v)
                and v != padded
                and is_zero(big.matvec(v))
                and conformal_leq(v, padded)
            ),
        )
        if splitters:
            violations += 1
    report(
        f"padded basis elements stay in the enlarged kernel and remain "
        f"conformally minimal ({violations} violations)",
        violations == 0,
    )


def test_acceptance_6_growth_table_monotone():
    sizes = []
    print()
    print("  N  basis size")
    for num in range(1, 5):
        spec = NfoldSpec(
            A=IntMatrix.from_rows([[1, 1]]), B=IntMatrix.from_rows([[1, 0]]), N=num
        )
        sizes.append(len(graver_basis(build_nash_matrix(spec))))
        print(f"  {num}  {sizes[-1]}")
    report(f"basis growth table computed and monotone: {sizes}", sizes == sorted(sizes))


def _planted_yes(rng: random.Random) -> tuple[IiopInstance, IntMatrix]:
    n = rng.randint(1, 3)
    mat = rand_matrix(rng, 1, n, -2, 2)
    u = tuple(rng.randint(1, 3) for _ in range(n))
    centers = tuple(rng.randint(0, ui) for ui in u)
    weights = tuple(F(rng.randint(1, 4)) for _ in range(n))
    shapes = SeparableObjective(
        tuple(QuadraticCost(F(1), F(-2 * c), F(c * c)) for c in centers)
    )
    witness = tuple(rng.randint(0, ui) for ui in u)
    planted = IpInstance(
        mat,
        mat.matvec(witness),
        u,
        SeparableObjective(
            tuple(
                QuadraticCost(w, w * F(-2 * c), w * F(c * c))
                for w, c in zip(weights, centers)
            )
        ),
    )
    _, argmins = brute_ip_opt(planted)
    return (
        IiopInstance(D=mat, d=planted.d, u=u, xstar=argmins[0], shapes=shapes),
        mat,
    )


def _no_family(n: int) -> IiopInstance:
    row = [1, 1] + [0] * (n - 2)
    xstar = (1, 1) + (0,) * (n - 2)
    away = QuadraticCost(F(1), F(-4), F(4))  # (y-2)^2: pulls off xstar
    shapes = [away, square_cost()] + [away] * (n - 2)
    return IiopInstance(
        D=IntMatrix.from_rows([row]),
        d=(2,),
        u=(2,) * n,
        xstar=xstar,
        shapes=SeparableObjective(tuple(shapes)),
    )


def test_acceptance_7_inverse_round_trip():
    rng = random.Random(31)
    passed = total = 0
    for _ in range(50):
        inst, mat = _planted_yes(rng)
        basis = graver_basis(mat)
        answer = solve_iiop(inst, basis)
        total += 1
        if answer.verdict == "yes" and verify_answer(inst, basis, answer):
            passed += 1
    for n in range(2, 5):
        inst = _no_family(n)
        basis = graver_basis(inst.D)
        answer = solve_iiop(inst, basis)
        total += 1
        if answer.verdict == "no" and verify_answer(inst, basis, answer):
            passed += 1
    report(
        f"inverse problem: {passed}/{total} planted yes-instances and "
        "scaled no-instances verify",
        passed == total,
    )


def test_acceptance_8_cli_determinism(tmp_path, capsys):
    sq = {"kind": "quadratic", "a": "1", "b": "0", "c": "0"}
    game = {
        "players": [
            {"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[0, 0]]},
            {"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[0, 0]]},
        ],
        "b0": [0],
        "costs": [sq, sq],
    }
    iiop = {
        "D": [[1, 1]],
        "d": [2],
        "u": [2, 2],
        "xstar": [1, 1],
        "shapes": [sq, sq],
    }
    inputs = {
        "graver": {"D": [[1, 1, 1]]},
        "nfold": {"A": [[1, 1]], "B": [[1, 0]], "N": 2},
        "solve": {"D": [[1, 1, 1]], "d": [3], "u": [3, 3, 3], "objective": [sq] * 3},
        "equilibrium": game,
        "verify-equilibrium": {
            "game": game,
            "profile": {"strategies": [[1, 0], [0, 1]]},
        },
        "best-response": {
            "game": game,
            "profile": {"strategies": [[1, 0], [1, 0]]},
            "player": 0,
        },
        "inverse": iiop,
        "verify-inverse": {
            "instance": iiop,
            "answer": {"verdict": "yes", "lambda": ["1/2", "1/2"]},
        },
        "oracle": {"op": "graver", "D": [[1, 1]], "bound": 2},
    }
    ok = True
    for command, data in inputs.items():
        inp = tmp_path / f"{command}.json"
        inp.write_text(json.dumps(data))
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}.json"
            cli_main(
                [command, "--input", str(inp), "--output", str(out), "--quiet"]
            )
            capsys.readouterr()
            payloads.append(out.read_bytes())
        if payloads[0] != payloads[1]:
            ok = False
            break
    with capsys.disabled():
        report("every CLI subcommand is byte-deterministic on repeated runs", ok)
