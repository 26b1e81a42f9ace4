"""Timed side of the benchmark: one workload, in this one process.

Draws the inputs of the seed, times the import of the program from
``src/`` of the checkout plus its objects for every input (set-up), runs
whole rounds of operations, each on a freshly imported program, and
prints one JSON document with the timings, the outputs of the first
round and, for a traced run, the per-layer metrics.  It checks nothing:
``run.py`` does that from the outputs, in another process, after this
one has ended.

    python3 bench/worker.py --workload equilibrium --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import clock  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

PACKAGE = "gravernash"
INVERSE_KEYS = ("D", "d", "u", "xstar", "shapes")
LAYERS = (
    "linalg", "graver", "solver", "costs", "nfold", "game", "lp", "inverse", "cli", "serialize"
)
# Set-up is repeated at least SETUPS_MIN times and until SETUPS_S have
# passed (at most SETUPS_MAX times); its median is the set-up time.
SETUPS_MIN, SETUPS_MAX, SETUPS_S = 3, 25, 2.0


def import_program() -> dict:
    """Fresh import of every program module, from src/ of the checkout."""
    src = os.path.join(ROOT, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def cost(mods, spec):
    c = mods["costs"]
    kind = spec["kind"]
    if kind == "quadratic":
        return c.QuadraticCost(Fraction(spec["a"]), Fraction(spec["b"]), Fraction(spec["c"]))
    if kind == "affine":
        return c.AffineCost(Fraction(spec["a"]), Fraction(spec["b"]))
    if kind == "power":
        return c.PowerCost(Fraction(spec["a"]), int(spec["k"]))
    raise ValueError(f"unknown cost kind {kind!r}")


def build_game(mods, game):
    la, gm, c = mods["linalg"], mods["game"], mods["costs"]
    players = tuple(
        gm.PlayerSpec(
            A=la.IntMatrix.from_rows(p["A"]),
            b=tuple(p["b"]),
            u=tuple(p["u"]),
            B=la.IntMatrix.from_rows(p["B"]),
        )
        for p in game["players"]
    )
    costs = c.SeparableObjective(tuple(cost(mods, s) for s in game["costs"]))
    return gm.GameInstance(players=players, b0=tuple(game["b0"]), costs=costs)


# ---------------------------------------------------------------------------
# operations: setup builds (run, output) pairs; run is timed, output is not


def equilibrium_ops(mods, ops, workdir):
    gm = mods["game"]

    def make(game):
        return (lambda: gm.find_equilibrium(game)), (
            lambda profile: [list(s) for s in profile.strategies]
        )

    return [make(build_game(mods, op["game"])) for op in ops]


def nfold_ops(mods, ops, workdir):
    la, nf, gr = mods["linalg"], mods["nfold"], mods["graver"]

    def make(spec):
        return (lambda: gr.graver_basis(nf.build_nash_matrix(spec))), (
            lambda basis: [list(g) for g in basis.elements]
        )

    matrix = la.IntMatrix.from_rows
    return [make(nf.NfoldSpec(A=matrix(op["A"]), B=matrix(op["B"]), N=op["N"])) for op in ops]


def write_inverse_inputs(ops, workdir):
    """The CLI's input files, written once per run before any timed window."""
    os.makedirs(workdir, exist_ok=True)
    for i, op in enumerate(ops):
        with open(os.path.join(workdir, f"{i}.json"), "w") as fh:
            json.dump({k: op[k] for k in INVERSE_KEYS}, fh)


def inverse_ops(mods, ops, workdir):
    cli, serialize = mods["cli"], mods["serialize"]

    def make(i, op):
        # the program's own decoding of the input is set-up work; the
        # timed call decodes the file again, as the CLI always does
        serialize.iiop_from_json({k: op[k] for k in INVERSE_KEYS})
        src = os.path.join(workdir, f"{i}.json")
        dst = os.path.join(workdir, f"{i}.out.json")
        argv = ["inverse", "--input", src, "--output", dst, "--quiet"]

        def run():
            with contextlib.redirect_stdout(io.StringIO()) as report:
                code = cli.main(argv)
            return code, report

        def output(result):
            code, report = result
            payload = None
            if os.path.exists(dst):
                with open(dst) as fh:
                    payload = json.load(fh)
                os.remove(dst)
            # the report's timings change from run to run; its status does not
            status = json.loads(report.getvalue())["status"]
            return {"code": code, "status": status, "payload": payload}

        return run, output

    return [make(i, op) for i, op in enumerate(ops)]


OPERATIONS = {
    "equilibrium": equilibrium_ops,
    "nfold-graver": nfold_ops,
    "inverse-cli": inverse_ops,
}


def prepare(workload: str, ops: list, where: str):
    """Fresh program modules, and the operations built on fresh program objects.

    Every round starts from this, so no state the program keeps in its
    modules or objects (a cache, say) carries over from one round to the
    next, and each round costs what a first round costs.
    """
    mods = import_program()
    return mods, OPERATIONS[workload](mods, ops, where)


def setup(workload: str, ops: list, where: str):
    """Set-up: the program's import plus its objects for every input, repeated.

    Returns the modules and operations of the last repetition and the
    (start, end) window of every repetition.
    """
    windows = []
    begin = time.perf_counter()
    while len(windows) < SETUPS_MIN or (
        len(windows) < SETUPS_MAX and time.perf_counter() - begin < SETUPS_S
    ):
        # earlier program modules sit in reference cycles; freeing them
        # here, untimed, keeps peak memory from hanging on when the
        # collector happens to run
        gc.collect()
        start = time.perf_counter()
        mods, work = prepare(workload, ops, where)
        windows.append((start, time.perf_counter()))
    return mods, work, windows


def run_round(work, first):
    """One pass over every operation.

    Returns the (start, end) window of each op, the outputs (on the first
    round; later rounds only compare theirs with it) and a status per op:
    "ok", "raised" or "differs".
    """
    windows, outputs, status, errors = [], [], [], {}
    for i, (run, output) in enumerate(work):
        start = time.perf_counter()
        try:
            result = run()
            windows.append((start, time.perf_counter()))
            out = output(result)
        except Exception as exc:  # a failing operation is counted, the run goes on
            if len(windows) == i:
                windows.append((start, time.perf_counter()))
            errors[i] = f"{type(exc).__name__}: {exc}"
            outputs.append(None)
            status.append("raised")
            continue
        outputs.append(out if first is None else None)
        status.append("ok" if first is None or out == first[i] else "differs")
    return windows, outputs, status, errors


def run_rounds(workload: str, ops: list, where: str, work: list, seconds: float):
    """Whole rounds, as many as end within `seconds`; at least one.

    The first round runs `work`; before every later round the program is
    imported afresh and the operations rebuilt (`prepare`), outside the
    timed windows.  Returns the op windows of every round, the outputs
    of the first round, the statuses of every round and the errors.
    """
    rounds, statuses, errors = [], [], {}
    first = None
    begin = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - begin + last <= seconds:
        if rounds:
            _, work = prepare(workload, ops, where)
        gc.collect()
        windows, outputs, status, errs = run_round(work, first)
        if first is None:
            first = outputs
        rounds.append(windows)
        statuses.append(status)
        errors.update(errs)
        last = sum(end - start for start, end in windows)
    return rounds, first, statuses, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = inputs.ROUNDS[args.workload](args.seed)
    where = os.path.join(OUT, f"work-{args.workload}-{args.seed}")
    if args.workload == "inverse-cli":
        write_inverse_inputs(ops, where)
    host = clock.HostClock(corrected=not args.trace)
    host.start()
    _, work, setup_windows = setup(args.workload, ops, where)
    layers = None
    absent: list = []
    if args.trace:
        # one untraced round, then one traced round on a fresh program;
        # the counters cover the traced round only
        rounds, first, statuses, errors = run_rounds(args.workload, ops, where, work, 0)
        mods, work = prepare(args.workload, ops, where)
        gc.collect()
        tracer = tracing.Tracer()
        tracer.install(mods)
        try:
            windows, _, status, errs = run_round(work, first)
        finally:
            tracer.uninstall()
        rounds.append(windows)
        statuses.append(status)
        errors.update(errs)
        untraced, traced = (sum(end - start for start, end in r) for r in rounds)
        layers = tracer.metrics(traced, traced - untraced)
        absent = tracer.absent_metrics()
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(
            os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "metrics": layers},
        )
    else:
        rounds, first, statuses, errors = run_rounds(
            args.workload, ops, where, work, args.seconds
        )
    host.stop()

    print(
        json.dumps(
            {
                "setup_s": [host.seconds(*w) for w in setup_windows],
                "round_s": [sum(host.seconds(*w) for w in r) for r in rounds],
                "op_s": [[host.seconds(*r[i]) for r in rounds] for i in range(len(work))],
                "outputs": first,
                "status": statuses,
                "errors": errors,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "layers": layers,
                "absent": absent,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
