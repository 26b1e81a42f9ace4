"""Command-line front end.

Every subcommand reads a JSON instance file, dispatches to the library,
and writes a single JSON run report to standard output:

    {"command": ..., "input_digest": ..., "status": ...,
     "timings_ms": {...}, "counters": {...}, "result": ...}

Each handler returns its outcome as (status, payload, counters), so the
report of every completed run, negative outcomes included, carries
`timings_ms.run` and the handler's counters.  Exit codes: 0 success,
1 infeasible / "no" verdict / failed check, 2 usage or input error,
3 resource cap exceeded.  Result payloads are deterministic: identical
inputs give byte-identical payloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

from . import serialize
from .errors import DimensionError, InfeasibleError, ResourceCapExceeded
from .game import (
    best_response,
    find_equilibrium,
    aggregate_usage,
    is_feasible_profile,
    is_generalized_nash,
    provider_cost,
)
from .graver import graver_basis
from .inverse import solve_iiop, verify_answer
from .linalg import IntMatrix
from .nfold import build_c_matrix, build_multitype_matrix, build_nash_matrix, build_nfold
from .oracle import brute_graver, brute_ip_opt, brute_nash_check
from .serialize import frac_to_str
from .solver import solve_ip

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _cmd_graver(data, caps):
    basis = graver_basis(serialize.matrix_from_json(data["D"]), **caps)
    return "ok", serialize.graver_to_json(basis), {"graver_size": len(basis)}


def _cmd_nfold(data, caps):
    if "types" in data:
        matrix = build_multitype_matrix(serialize.catalog_from_json(data))
    else:
        spec = serialize.nfold_spec_from_json(data)
        variant = data.get("variant", "nash")
        builders = {"plain": build_nfold, "nash": build_nash_matrix, "c": build_c_matrix}
        if not isinstance(variant, str) or variant not in builders:
            raise serialize.ValidationError(f"unknown variant {variant!r}")
        matrix = builders[variant](spec)
    return "ok", serialize.matrix_to_json(matrix), {}


def _cmd_solve(data, caps):
    inst = serialize.ip_instance_from_json(data)
    result = solve_ip(inst, **caps)
    counters = {
        "augmentation_count": result.augmentation_count,
        "graver_size": result.graver_size,
    }
    if result.status != "optimal":
        return "infeasible", {"status": "infeasible"}, counters
    payload = {
        "status": "optimal",
        "x": list(result.x),
        "objective": frac_to_str(result.objective),
    }
    return "ok", payload, counters


def _cmd_equilibrium(data, caps):
    game = serialize.game_from_json(data)
    profile = find_equilibrium(game, **caps)
    payload = {
        "strategies": [list(s) for s in profile.strategies],
        "usage": list(aggregate_usage(profile)),
        "provider_cost": frac_to_str(provider_cost(game, profile)),
    }
    return "ok", payload, {}


def _cmd_verify_equilibrium(data, caps):
    game = serialize.game_from_json(data["game"])
    profile = serialize.profile_from_json(data["profile"])
    if not is_feasible_profile(game, profile):
        return "not-equilibrium", {"is_equilibrium": False, "feasible": False}, {}
    ok = is_generalized_nash(game, profile, **caps)
    return "ok" if ok else "not-equilibrium", {"is_equilibrium": ok, "feasible": True}, {}


def _cmd_best_response(data, caps):
    game = serialize.game_from_json(data["game"])
    profile = serialize.profile_from_json(data["profile"])
    player = serialize.int_from_json(data["player"])
    z = best_response(game, profile, player, **caps)
    return "ok", {"player": player, "strategy": list(z)}, {}


def _cmd_inverse(data, caps):
    inst = serialize.iiop_from_json(data)
    basis = graver_basis(inst.D, **caps)
    answer = solve_iiop(inst, basis)
    payload = serialize.answer_to_json(answer)
    counters = {"graver_size": len(basis), "feasible_shifts": len(answer.shifts)}
    return "ok" if answer.verdict == "yes" else "no", payload, counters


def _cmd_verify_inverse(data, caps):
    inst = serialize.iiop_from_json(data["instance"])
    answer = serialize.answer_from_json(data["answer"])
    basis = graver_basis(inst.D, **caps)
    ok = verify_answer(inst, basis, answer)
    return "ok" if ok else "invalid", {"valid": ok}, {}


def _cmd_oracle(data, caps, seed=None):
    op = data.get("op")
    if op == "random-graver":
        rng = random.Random(seed)
        rows = serialize.int_from_json(data["rows"])
        cols = serialize.int_from_json(data["cols"])
        entry_bound = serialize.int_from_json(data.get("entry_bound", 2))
        matrix = IntMatrix.from_rows(
            [
                [rng.randint(-entry_bound, entry_bound) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        bound = serialize.int_from_json(data.get("bound", 3))
        basis = brute_graver(matrix, bound, **caps)
        return "ok", serialize.graver_to_json(basis), {"graver_size": len(basis)}
    if op == "graver":
        basis = brute_graver(
            serialize.matrix_from_json(data["D"]),
            serialize.int_from_json(data["bound"]),
            **caps,
        )
        return "ok", serialize.graver_to_json(basis), {"graver_size": len(basis)}
    if op == "ip":
        inst = serialize.ip_instance_from_json(data["instance"])
        value, argmins = brute_ip_opt(inst, **caps)
        return "ok", {
            "value": frac_to_str(value),
            "argmins": [list(p) for p in argmins],
        }, {}
    if op == "nash":
        game = serialize.game_from_json(data["game"])
        feasible, minima, equilibria = brute_nash_check(game, **caps)
        return "ok", {
            "feasible_count": len(feasible),
            "potential_minima": [serialize.profile_to_json(p) for p in minima],
            "equilibria": [serialize.profile_to_json(p) for p in equilibria],
        }, {}
    raise serialize.ValidationError(f"unknown oracle op {op!r}")


_COMMANDS = {
    "graver": _cmd_graver,
    "nfold": _cmd_nfold,
    "solve": _cmd_solve,
    "equilibrium": _cmd_equilibrium,
    "verify-equilibrium": _cmd_verify_equilibrium,
    "best-response": _cmd_best_response,
    "inverse": _cmd_inverse,
    "verify-inverse": _cmd_verify_inverse,
    "oracle": _cmd_oracle,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravernash",
        description="Exact equilibria and inverse costs for integer congestion games.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--input", required=True, help="JSON instance file")
    parser.add_argument("--output", help="write the result payload to this file")
    parser.add_argument("--cap", type=int, default=None, help="override resource caps")
    parser.add_argument("--seed", type=int, default=None, help="seed for generated instances")
    parser.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0

    report = {"command": args.command, "timings_ms": {}, "counters": {}}
    payload = None
    try:
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise serialize.ValidationError(f"cannot read input: {exc}") from exc
        report["input_digest"] = hashlib.sha256(raw).hexdigest()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise serialize.ValidationError(f"invalid JSON input: {exc}") from exc
        if not isinstance(data, dict):
            raise serialize.ValidationError("the input must be a JSON object")

        # without --cap every library call keeps its own default cap
        caps = {} if args.cap is None else {"cap": args.cap}
        start = time.perf_counter()
        handler = _COMMANDS[args.command]
        if args.command == "oracle":
            status, payload, counters = handler(data, caps, seed=args.seed)
        else:
            status, payload, counters = handler(data, caps)
        report["timings_ms"]["run"] = round((time.perf_counter() - start) * 1000, 3)
        report["counters"] = counters
        report["status"] = status
        code = EXIT_OK if status == "ok" else EXIT_NEGATIVE
    except ResourceCapExceeded as exc:
        report["status"] = "cap-exceeded"
        _diag(args, str(exc))
        code = EXIT_CAP
    # a CertificateError is a program fault, not an input error: it propagates
    except (serialize.ValidationError, DimensionError, InfeasibleError, KeyError) as exc:
        if isinstance(exc, InfeasibleError):
            report["status"] = "infeasible"
            code = EXIT_NEGATIVE
        else:
            report["status"] = "input-error"
            code = EXIT_INPUT
        _diag(args, f"{type(exc).__name__}: {exc}")

    report["result"] = payload
    text = serialize.dumps(payload) if payload is not None else "null"
    if args.output and payload is not None:
        with open(args.output, "w") as fh:
            fh.write(text)
    print(json.dumps(report, sort_keys=True))
    return code


def _diag(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(f"gravernash: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
