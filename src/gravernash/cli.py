"""Command-line front end.

Every subcommand reads a JSON instance file, dispatches to the library,
and writes a single JSON run report to standard output:

    {"command": ..., "input_digest": ..., "status": ...,
     "timings_ms": {...}, "counters": {...}, "result": ...}

Each handler returns its outcome as (status, payload, counters), so the
report of every completed run, negative outcomes included, carries
`timings_ms.run` and the handler's counters.  Exit codes: 0 success,
1 infeasible / "no" verdict / failed check, 2 usage or input error,
3 resource cap exceeded, a result number too long to print included.
Result payloads are deterministic: identical inputs give byte-identical
payloads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import serialize
from .errors import DimensionError, InfeasibleError, ResourceCapExceeded, ValidationError
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
from .nfold import build_c_matrix, build_multitype_matrix, build_nash_matrix, build_nfold
from .oracle import brute_graver, brute_ip_opt, brute_nash_check, check_graver
from .serialize import frac_to_str
from .solver import solve_ip

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
# `nfold`'s default cap on the entries of the matrix it prints; --cap overrides it
NFOLD_ENTRY_CAP = 10**6


# keyed by matrix and cap (a decoded matrix declares no bricks): repeated
# in-process `main` calls gain, and 32 bases cover inverse-cli's 21 matrices.
# `graver_basis` is looked up at each miss, so a wrapper set on this module's
# name (a tracer's, say) sees every completion
@functools.lru_cache(maxsize=32)
def _graver_basis(mat, **caps):
    return graver_basis(mat, **caps)


def _cmd_graver(data, caps):
    basis = _graver_basis(serialize.matrix_from_json(data["D"]), **caps)
    return "ok", serialize.graver_to_json(basis), {"graver_size": len(basis)}


def _check_nfold_size(n: int, m: int, d: int, N: int, caps) -> None:
    """ResourceCapExceeded unless the widest variant, c, fits the entry cap; nothing is built."""
    entries = (n + m + N * d) * (N * (2 * n + m) + n + m)
    cap = caps.get("cap", NFOLD_ENTRY_CAP)
    if entries > cap:
        raise ResourceCapExceeded(f"an N-fold matrix of up to {entries} entries exceeds the cap {cap}")


def _cmd_nfold(data, caps):
    variant = data.get("variant", "nash")
    builders = {"plain": build_nfold, "nash": build_nash_matrix, "c": build_c_matrix}
    # a catalog of player types builds the equilibrium matrix only
    variants = ("nash",) if "types" in data else builders
    if not isinstance(variant, str) or variant not in variants:
        raise ValidationError(f"unknown variant {variant!r} for this input")
    if "types" in data:
        types, assignment = serialize.catalog_from_json(data)
        # sized before build_multitype_matrix checks the catalog
        n, m = (types[0][0].ncols, types[0][1].nrows) if types else (0, 0)
        _check_nfold_size(n, m, max((a.nrows for a, _ in types), default=0), len(assignment), caps)
        matrix = build_multitype_matrix(types, assignment)
    else:
        spec = serialize.nfold_spec_from_json(data)
        _check_nfold_size(spec.n, spec.m, spec.d, spec.N, caps)
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
    basis = _graver_basis(inst.D, **caps)
    answer = solve_iiop(inst, basis)
    payload = serialize.answer_to_json(answer)
    counters = {"graver_size": len(basis), "feasible_shifts": len(answer.shifts)}
    return "ok" if answer.verdict == "yes" else "no", payload, counters


def _cmd_verify_inverse(data, caps):
    inst = serialize.iiop_from_json(data["instance"])
    answer = serialize.answer_from_json(data["answer"])
    basis = _graver_basis(inst.D, **caps)
    ok = verify_answer(inst, basis, answer)
    return "ok" if ok else "invalid", {"valid": ok}, {}


def _cmd_oracle(data, caps):
    op = data.get("op")
    if op == "graver":
        basis = brute_graver(
            serialize.matrix_from_json(data["D"]),
            serialize.int_from_json(data["bound"]),
            **caps,
        )
        return "ok", serialize.graver_to_json(basis), {"graver_size": len(basis)}
    if op == "graver-check":
        elements = serialize.graver_elements_from_json(data["elements"])
        ok = check_graver(serialize.matrix_from_json(data["D"]), elements, **caps)
        return "ok" if ok else "invalid", {"valid": ok}, {"graver_size": len(elements)}
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
    raise ValidationError(f"unknown oracle op {op!r}")


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


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravernash",
        description="Exact equilibria and inverse costs for integer congestion games.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--input", required=True, help="JSON instance file")
    parser.add_argument("--output", help="write the result payload to this file")
    parser.add_argument(
        "--cap", type=_nonnegative_int, default=None, help="override resource caps"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")
    return parser


# built once per import: parse_args leaves the parser as it was, so every
# main call in a process reuses it
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0

    report = {"command": args.command, "timings_ms": {}, "counters": {}, "result": None}
    text = None
    try:
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read input: {exc}") from exc
        report["input_digest"] = hashlib.sha256(raw).hexdigest()
        try:
            data = json.loads(raw)
        # a ValueError also for bytes that are not UTF-8 and for an int past
        # the int-to-string digit limit; a RecursionError for deep nesting
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"invalid JSON input: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("the input must be a JSON object")

        # without --cap every library call keeps its own default cap
        caps = {} if args.cap is None else {"cap": args.cap}
        start = time.perf_counter()
        handler = _COMMANDS[args.command]
        try:
            status, payload, counters = handler(data, caps)
        except InfeasibleError as exc:
            _diag(args, f"{type(exc).__name__}: {exc}")
            status, payload, counters = "infeasible", None, {}
        report["timings_ms"]["run"] = round((time.perf_counter() - start) * 1000, 3)
        # a number too long to print raises ResourceCapExceeded here, before
        # the payload enters the report or a file
        text = None if payload is None else serialize.dumps(payload)
        report["counters"] = counters
        report["status"] = status
        report["result"] = payload
        code = EXIT_OK if status == "ok" else EXIT_NEGATIVE
    except ResourceCapExceeded as exc:
        report["status"] = "cap-exceeded"
        _diag(args, str(exc))
        code = EXIT_CAP
    # a CertificateError is a program fault, not an input error: it propagates
    except (ValidationError, DimensionError, KeyError) as exc:
        report["status"] = "input-error"
        code = EXIT_INPUT
        _diag(args, f"{type(exc).__name__}: {exc}")

    if args.output and text is not None:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            report["status"], report["result"] = "input-error", None
            code = EXIT_INPUT
            _diag(args, f"cannot write output: {exc}")
    print(json.dumps(report, sort_keys=True))
    return code


def _diag(args, message: str) -> None:
    if not args.quiet:
        print(f"gravernash: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
