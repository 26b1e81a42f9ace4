"""Benchmark of gravernash: equilibria, N-fold Graver bases, inverse problem.

Runs one seeded workload in a child process (bench/worker.py), checks
every output of it here against computations made apart from the
program, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
child runs one round untraced and one traced, and the metrics are the
per-layer ones.  Run from the root of the repository:

    python3 bench/run.py --workload nfold-graver --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

WORKER_TIMEOUT_S = 160
MAX_REPORTED_FAILURES = 5


def end_to_end(result: dict) -> dict:
    op_medians = [statistics.median(times) for times in result["op_s"]]
    return {
        "suite_s": (statistics.median(result["round_s"]), "s"),
        "op_s.p50": (statistics.median(op_medians), "s"),
        "op_s.p90": (statistics.quantiles(op_medians, n=10)[-1], "s"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    metrics = {name: (layers[name], "s") for name in tracing.TIME_METRICS}
    metrics.update({name: (layers[name], "count") for name in tracing.COUNT_METRICS})
    return metrics


def checker(workload: str):
    """The check for one output of the workload, with its oracle bound in."""
    mods = worker.import_program()
    oracle = importlib.import_module(f"{worker.PACKAGE}.oracle")

    if workload == "equilibrium":

        def minima_of(game):
            _, minima, _ = oracle.brute_nash_check(worker.build_game(mods, game))
            return [[list(s) for s in p.strategies] for p in minima]

        return lambda op, out: checks.check_equilibrium(op, out, minima_of)
    if workload == "nfold-graver":

        def brute_graver(rows, bound):
            matrix = mods["linalg"].IntMatrix.from_rows(rows)
            return oracle.brute_graver(matrix, bound).elements

        return lambda op, out: checks.check_nfold(op, out, brute_graver)
    return checks.check_inverse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gravernash", "__init__.py")):
        print(f"bench: no program under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    cmd = [
        sys.executable,
        os.path.join(BENCH, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        child = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"bench: worker exited with code {child.returncode}", file=sys.stderr)
        return 3
    result = json.loads(child.stdout.strip().splitlines()[-1])

    ops = inputs.ROUNDS[args.workload](args.seed)
    check = checker(args.workload)
    statuses = result["status"]
    attempted = len(statuses) * len(ops)
    failed = 0
    correct = True
    reasons = []
    for i, op in enumerate(ops):
        column = [status[i] for status in statuses]
        failed += column.count("raised") + column.count("differs")
        if "differs" in column:
            correct = False
            reasons.append(f"op {i}: output changed between rounds")
        if str(i) in result["errors"]:
            reasons.append(f"op {i}: {result['errors'][str(i)]}")
        output = result["outputs"][i]
        if output is None:
            continue
        reason = check(op, output)
        if reason is not None:
            failed += column.count("ok")
            correct = False
            reasons.append(f"op {i} ({op.get('kind')}): {reason}")
    for line in reasons[:MAX_REPORTED_FAILURES]:
        print(f"bench: {line}", file=sys.stderr)
    if result["absent"]:
        print(f"bench: absent, reported as 0: {', '.join(result['absent'])}", file=sys.stderr)

    metrics = per_layer(result) if args.trace else end_to_end(result)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
