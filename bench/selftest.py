"""Self-test of the benchmark's checks and tracing, on a small seed.

Every check must reject a corrupted answer: a profile that is not a
provider-cost minimum, a basis with one element dropped, a certificate
with one coefficient's sign flipped, and weights moved off the optimum.
Two traced passes over the same cheap operations must give identical
counters, a wrapped name that is missing must be reported absent
without stopping the run, and a basis cache kept in the program must
not make a later round cheaper than the first.  Prints one PASS or FAIL
line per test and exits with 1 if any failed.  Run from the root of the
repository:

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SEED = 0
# operations per workload in the traced passes, cheapest first
TRACED_OPS = 12

MODS = worker.import_program()
ORACLE = importlib.import_module(f"{worker.PACKAGE}.oracle")
CHECK_EQUILIBRIUM = run.checker("equilibrium")
CHECK_NFOLD = run.checker("nfold-graver")

RESULTS: list[bool] = []


def report(name: str, ok: bool) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}: {name}")


def run_inverse(instance: dict) -> dict:
    """The inverse subcommand on one instance, as the workload runs it."""
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out")) as tmp:
        src, dst = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
        with open(src, "w") as fh:
            json.dump({k: instance[k] for k in worker.INVERSE_KEYS}, fh)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = MODS["cli"].main(["inverse", "--input", src, "--output", dst, "--quiet"])
        with open(dst) as fh:
            payload = json.load(fh)
    return {"code": code, "status": json.loads(out.getvalue())["status"], "payload": payload}


def test_equilibrium_check() -> None:
    """A feasible profile that is not a minimum is rejected."""
    for op in inputs.equilibrium_round(SEED):
        game = worker.build_game(MODS, op["game"])
        feasible, minima, _ = ORACLE.brute_nash_check(game)
        worse = [p for p in feasible if p not in minima]
        if worse:
            break
    found = [list(s) for s in MODS["game"].find_equilibrium(game).strategies]
    accepted = CHECK_EQUILIBRIUM(op, found) is None
    rejected = CHECK_EQUILIBRIUM(op, [list(s) for s in worse[0].strategies])
    report("equilibrium check accepts the program's profile", accepted)
    report(f"equilibrium check rejects a non-minimal profile: {rejected}", rejected is not None)


def test_nfold_check() -> None:
    """Dropping any one element of a basis is caught."""
    for a, b, big_n in (([[1, 1]], [[1, 0]], 2), ([[1, 1, 1]], [[1, 2, 0]], 2)):
        op = {"A": a, "B": b, "N": big_n}
        matrix = MODS["linalg"].IntMatrix.from_rows(inputs.nash_matrix(a, b, big_n))
        basis = [list(g) for g in MODS["graver"].graver_basis(matrix).elements]
        ok = CHECK_NFOLD(op, basis) is None
        caught = sum(
            CHECK_NFOLD(op, basis[:i] + basis[i + 1 :]) is not None
            for i in range(len(basis))
        )
        report(f"nfold check accepts the basis of A={a} B={b} N={big_n}", ok)
        report(
            f"nfold check rejects each of the {len(basis)} one-element drops ({caught} caught)",
            caught == len(basis),
        )


def test_inverse_no_check() -> None:
    """Flipping the sign of any nonzero certificate coefficient is caught."""
    op = inputs.no_family(3)
    result = run_inverse(op)
    certificate = result["payload"]["certificate"]
    accepted = checks.check_inverse(op, result) is None
    report("inverse check accepts the no-family certificate", accepted)
    flips = 0
    for i, (coefficient, shift) in enumerate(certificate):
        if coefficient.lstrip("-") == "0":
            continue
        flipped = [list(pair) for pair in certificate]
        flipped[i][0] = coefficient[1:] if coefficient.startswith("-") else "-" + coefficient
        bad = dict(result, payload=dict(result["payload"], certificate=flipped))
        flips += checks.check_inverse(op, bad) is not None
    nonzero = sum(c.lstrip("-") != "0" for c, _ in certificate)
    report(f"inverse check rejects each of {nonzero} sign flips ({flips} caught)",
           flips == nonzero > 0)


def test_inverse_yes_check() -> None:
    """Weights moved off the optimum are caught.

    On x1 + x2 = 2 with shapes y and y^2, x* = (1, 1) is optimal exactly
    when w2 <= w1 <= 3 w2, so the unit weights (1, 0) and (0, 1) are not.
    """
    op = {
        "kind": "yes-probe",
        "D": [[1, 1]],
        "d": [2],
        "u": [2, 2],
        "xstar": [1, 1],
        "shapes": [inputs.quadratic(0, 1, 0), inputs.quadratic(1, 0, 0)],
    }
    result = run_inverse(op)
    report("inverse check accepts the program's weights", checks.check_inverse(op, result) is None)
    for lam in (["1", "0"], ["0", "1"]):
        moved = dict(result, payload=dict(result["payload"], **{"lambda": lam}))
        reason = checks.check_inverse(op, moved)
        report(f"inverse check rejects weights {lam}: {reason}", reason is not None)


def traced_counters(workload: str, mods: dict) -> tuple[dict, list]:
    ops = inputs.ROUNDS[workload](SEED)
    where = os.path.join(BENCH, "out", f"selftest-{workload}")
    if workload == "inverse-cli":
        worker.write_inverse_inputs(ops, where)
    work = worker.OPERATIONS[workload](mods, ops, where)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        cheap = sorted(range(len(ops)), key=lambda i: _size(ops[i]))[:TRACED_OPS]
        for i in cheap:
            run, output = work[i]
            output(run())
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0, 0.0)
    return {name: metrics[name] for name in tracing.COUNT_METRICS}, tracer.absent_metrics()


def _size(op: dict) -> int:
    if "game" in op:
        return inputs.phase1_dim(op["game"]) if op["kind"] == "random" else 99
    if "N" in op:
        return len(op["A"][0]) * op["N"]
    return len(op["u"])


def test_traced_counters_repeat() -> None:
    for workload in inputs.ROUNDS:
        first, _ = traced_counters(workload, MODS)
        second, _ = traced_counters(workload, MODS)
        busy = sum(1 for v in first.values() if v)
        report(f"{workload}: two traced passes give identical counters ({busy} nonzero)",
               first == second and busy > 0)


def test_absent_name() -> None:
    """Without the inverse module, its names are absent and the pass completes."""
    mods = {k: v for k, v in MODS.items() if k != "inverse"}
    counters, absent = traced_counters("inverse-cli", mods)
    report(
        f"a missing wrapped name is reported absent ({', '.join(absent)})",
        "lp.simplex_s" in absent and counters["lp.calls"] == 0,
    )


def memoizing_import() -> dict:
    """The program with a basis cache kept in its graver module.

    `graver_basis` remembers the basis of every matrix it has seen, as a
    per-matrix cache added to the program would.
    """
    mods = REAL_IMPORT()
    graver = mods["graver"]
    compute, cache = graver.graver_basis, {}

    def graver_basis(matrix, *args, **kwargs):
        key = (matrix.nrows, matrix.ncols, matrix.entries)
        if key not in cache:
            cache[key] = compute(matrix, *args, **kwargs)
        return cache[key]

    graver.graver_basis = graver_basis
    return mods


REAL_IMPORT = worker.import_program


def test_rounds_start_fresh() -> None:
    """A cache the program keeps does not carry over from round to round.

    With the memoizing program, a second pass over the same operation
    objects is nearly free, but every round of `worker.run_rounds` costs
    what the first does, because each starts from a fresh import.
    """
    ops = [op for op in inputs.nfold_round(SEED) if op["kind"] == "pair" and op["N"] <= 3]
    where = os.path.join(BENCH, "out", "selftest-fresh")
    worker.import_program = memoizing_import
    try:
        _, work = worker.prepare("nfold-graver", ops, where)
        reused = [
            sum(end - start for start, end in worker.run_round(work, None)[0]) for _ in range(2)
        ]
        _, work = worker.prepare("nfold-graver", ops, where)
        rounds = worker.run_rounds("nfold-graver", ops, where, work, 3.5 * reused[0])[0]
    finally:
        worker.import_program = REAL_IMPORT
    times = [sum(end - start for start, end in r) for r in rounds]
    report(
        f"a cache in the program makes a reused round {reused[1] / reused[0]:.2f} of the first",
        reused[1] < 0.2 * reused[0],
    )
    report(
        f"fresh rounds cost {', '.join(f'{t / times[0]:.2f}' for t in times)} of the first",
        len(times) >= 2 and min(times[1:]) > 0.5 * times[0],
    )


def main() -> int:
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    test_equilibrium_check()
    test_nfold_check()
    test_inverse_no_check()
    test_inverse_yes_check()
    test_traced_counters_repeat()
    test_absent_name()
    test_rounds_start_fresh()
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
