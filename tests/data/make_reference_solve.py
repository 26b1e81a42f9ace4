"""Write reference_solve.json: CLI answers of the solver that later code must reproduce.

Each case holds a CLI input and, byte for byte, what one subcommand
answered: exit code, report status, the report's counters and the
payload.  The `solve` instances are seeded: random 1-2 x 2-5 matrices
with entries in [-2, 2], a 1x5 matrix, and the equilibrium matrix of the
pair A=[1 1], B=[1 0] at N = 2 with zero costs on its x and s columns.
Their objectives mix convex affine, quadratic, power and piecewise-linear
terms whose coefficients have denominators up to 6; most right-hand sides
come from a point of the box, some are drawn at random and are mostly
infeasible.  Two malformed objectives (a concave term, a JSON float)
must stay input errors.  The games are congestion games with 1-3 players
and 1-3 resources, a planted feasible profile and nondecreasing convex
costs with fractional coefficients; each is answered by `equilibrium`,
by `best-response` for one player against the planted profile, and by
`verify-equilibrium` on the equilibrium found.  Four edge families of
`solve` instances come last, drawn from a generator of their own so that
the cases before them stay as they were: D = 2R with every entry of d
odd (no integer solution), a two-row D of rank one with d outside its
column span, d = 0 with a one-row D of both signs, and a nonsingular
2 x 2 D, whose kernel is trivial, with d the image of an integer point.
A family of signed games follows, from a generator of its own again:
coupling entries in [-2, 2] and 0-2 coupling rows (none written as a
`{"rows": 0, ...}` matrix), either 1-3 players of differing types or 4
players of one type with at most 2 resources.  Each is answered by
`equilibrium` (and its `verify-equilibrium`), then by `best-response`
for one player and by `verify-equilibrium`, both on the planted profile,
which is often not an equilibrium.
Run from the repository root:

    PYTHONPATH=src python tests/data/make_reference_solve.py
"""

from __future__ import annotations

import itertools
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

from gravernash import IntMatrix
from gravernash.cli import main
from gravernash.nfold import NfoldSpec, build_nash_matrix

RANDOM_SEED = 2011
RANDOM_COUNT = 40
WIDE_COUNT = 10
NASH_COUNT = 10
GAME_COUNT = 20
EDGE_SEED = 2012
EDGE_COUNT = 3
SIGNED_SEED = 2013
SIGNED_COUNT = 24
WIDE_ROWS = [[1, 2, -1, 1, -2]]
ZERO = {"kind": "affine", "a": "0", "b": "0"}
MALFORMED = [
    ("concave", {"D": [[1, 1]], "d": [2], "u": [2, 2], "objective": [
        {"kind": "quadratic", "a": "-1", "b": "0", "c": "0"}, ZERO]}),
    ("float", {"D": [[1, 1]], "d": [2], "u": [2, 2], "objective": [
        {"kind": "affine", "a": 0.5, "b": "0"}, ZERO]}),
]
PATH = Path(__file__).with_name("reference_solve.json")


def _frac(rng: random.Random, lo: int, hi: int) -> str:
    return str(Fraction(rng.randint(lo, hi), rng.randint(1, 6)))


def _cost(rng: random.Random, center: int | None = None) -> dict:
    """A convex cost, nondecreasing on y >= 0 (as a game's must be) unless centred.

    A centred cost is a parabola with its minimum near `center` or a
    piecewise-linear cost whose slopes may be negative, so that the
    optimum lies inside the box rather than where phase 1 ends.
    """
    lo = 0 if center is None else -6
    kind = rng.choice(("affine", "quadratic", "quadratic", "power", "piecewise_linear"))
    if kind == "affine":
        return {"kind": "affine", "a": _frac(rng, lo, 6), "b": _frac(rng, lo, 3)}
    if kind == "quadratic":
        a = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        c = Fraction(0) if center is None else center + Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        b = -2 * a * c + Fraction(rng.randint(0, 3), rng.randint(1, 6))
        return {"kind": "quadratic", "a": str(a), "b": str(b), "c": _frac(rng, 0, 3)}
    if kind == "power":
        return {"kind": "power", "a": _frac(rng, 0, 5), "k": rng.randint(1, 3)}
    breakpoints = sorted(rng.sample(range(1, 5), rng.randint(1, 2)))
    slopes = sorted(Fraction(rng.randint(lo, 6), rng.randint(1, 6)) for _ in range(len(breakpoints) + 1))
    return {
        "kind": "piecewise_linear",
        "breakpoints": breakpoints,
        "slopes": [str(s) for s in slopes],
        "c0": _frac(rng, 0, 3),
    }


def _solve_instance(rng: random.Random, rows, u, objective) -> dict:
    if rng.random() < 0.8:
        witness = [rng.randint(0, ui) for ui in u]
        d = [sum(a * x for a, x in zip(row, witness)) for row in rows]
    else:
        d = [rng.randint(-6, 6) for _ in rows]
    return {"D": rows, "d": d, "u": u, "objective": objective}


def _box_instance(rng: random.Random, rows) -> dict:
    u = [rng.randint(0, 6) for _ in rows[0]]
    return _solve_instance(rng, rows, u, [_cost(rng, rng.randint(0, v)) for v in u])


def _edge_family(rng: random.Random, family: str) -> tuple[list[list[int]], list[int]]:
    """(D, d) of one edge family; see the module docstring."""
    k = rng.randint(2, 4)

    def row() -> list[int]:
        r = [0] * k
        while not any(r):
            r = [rng.randint(-2, 2) for _ in range(k)]
        return r

    if family == "gcd":
        rows = [[2 * a for a in row()] for _ in range(rng.randint(1, 2))]
        return rows, [2 * rng.randint(-3, 3) + 1 for _ in rows]
    if family == "outside-span":
        first, factor = row(), rng.choice((-2, -1, 2))
        lhs = rng.randint(-4, 4)
        return [first, [factor * a for a in first]], [lhs, factor * lhs + rng.choice((-1, 1))]
    if family == "zero-rhs":
        # one row of both signs: ker(D) meets the box beyond 0
        mixed = [0]
        while not min(mixed) < 0 < max(mixed):
            mixed = row()
        return [mixed], [0]
    rows = [[0, 0], [0, 0]]
    while rows[0][0] * rows[1][1] == rows[0][1] * rows[1][0]:
        rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
    # the image of an integer point, which the box may or may not hold
    point = [rng.randint(0, 4) for _ in range(2)]
    return rows, [sum(a * x for a, x in zip(r, point)) for r in rows]


def _edge_instance(rng: random.Random, family: str) -> dict:
    rows, d = _edge_family(rng, family)
    u = [rng.randint(0, 6) for _ in rows[0]]
    return {"D": rows, "d": d, "u": u, "objective": [_cost(rng, rng.randint(0, v)) for v in u]}


def _nash_instance(rng: random.Random) -> dict:
    spec = NfoldSpec(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, 0]]), 2)
    rows = [list(r) for r in build_nash_matrix(spec).entries]
    us = [rng.randint(1, 4) for _ in range(4)]
    u = us + [us[0] + us[2], us[1] + us[3], us[0] + us[2] + 1]
    objective = [ZERO] * 4 + [_cost(rng), _cost(rng)] + [ZERO]
    return _solve_instance(rng, rows, u, objective)


def _game(rng: random.Random) -> tuple[dict, list[list[int]]]:
    """A game with a planted feasible profile, and that profile."""
    players, witnesses = [], []
    n = rng.randint(1, 3)
    load = 0
    for _ in range(rng.randint(1, 3)):
        u = [rng.randint(0, 2) for _ in range(n)]
        a = [rng.randint(0, 1) for _ in range(n)]
        coupling = [rng.randint(0, 1) for _ in range(n)]
        witness = [rng.randint(0, v) for v in u]
        b = sum(x * y for x, y in zip(a, witness))
        load += sum(x * y for x, y in zip(coupling, witness))
        players.append({"A": [a], "b": [b], "u": u, "B": [coupling]})
        witnesses.append(witness)
    game = {"players": players, "b0": [load + rng.randint(0, 1)], "costs": [_cost(rng) for _ in range(n)]}
    return game, witnesses


def _signed_game(rng: random.Random, same_type: bool) -> tuple[dict, list[list[int]]]:
    """A signed game with a planted feasible profile, and that profile.

    Same-type games have 4 players sharing one (A, b, u, B); each planted
    strategy is a point of their common polytope.
    """
    n = rng.randint(1, 2)
    m = rng.randint(0, 2)

    def player() -> tuple[dict, list[int]]:
        u = [rng.randint(0, 2) for _ in range(n)]
        a = [rng.randint(0, 1) for _ in range(n)]
        witness = [rng.randint(0, v) for v in u]
        coupling = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        B = coupling if m else {"rows": 0, "cols": n, "entries": []}
        return {"A": [a], "b": [sum(x * y for x, y in zip(a, witness))], "u": u, "B": B}, witness

    if same_type:
        shared, first = player()
        box = itertools.product(*(range(v + 1) for v in shared["u"]))
        points = [list(x) for x in box if sum(a * y for a, y in zip(shared["A"][0], x)) == shared["b"][0]]
        players, witnesses = [shared] * 4, [first] + [rng.choice(points) for _ in range(3)]
    else:
        players, witnesses = map(list, zip(*(player() for _ in range(rng.randint(1, 3)))))
    load = [0] * m
    for p, x in zip(players, witnesses):
        for i in range(m):
            load[i] += sum(c * y for c, y in zip(p["B"][i], x))
    b0 = [v + rng.randint(0, 2) for v in load]
    return {"players": players, "b0": b0, "costs": [_cost(rng) for _ in range(n)]}, witnesses


def run_command(command: str, data: dict, workdir: Path) -> dict:
    """Exit code, report status and counters, and payload text of one CLI call."""
    inp, out = workdir / "in.json", workdir / "out.json"
    inp.write_text(json.dumps(data))
    out.unlink(missing_ok=True)
    stdout = StringIO()
    with redirect_stdout(stdout), redirect_stderr(StringIO()):
        code = main([command, "--input", str(inp), "--output", str(out), "--quiet"])
    report = json.loads(stdout.getvalue())
    payload = out.read_text() if out.exists() else None
    return {"exit": code, "status": report["status"], "counters": report["counters"], "payload": payload}


def reference_inputs() -> list[tuple[str, str, dict]]:
    """(name, command, CLI input) for every case, in snapshot order."""
    rng = random.Random(RANDOM_SEED)
    cases = []
    for i in range(RANDOM_COUNT):
        r, k = rng.randint(1, 2), rng.randint(2, 5)
        rows = [[0] * k]
        while not all(any(row) for row in rows):
            rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)]
        cases.append((f"random {i}", "solve", _box_instance(rng, rows)))
    for i in range(WIDE_COUNT):
        cases.append((f"1x5 {i}", "solve", _box_instance(rng, WIDE_ROWS)))
    for i in range(NASH_COUNT):
        cases.append((f"nash {i}", "solve", _nash_instance(rng)))
    for name, inst in MALFORMED:
        cases.append((f"malformed {name}", "solve", inst))
    for i in range(GAME_COUNT):
        game, witnesses = _game(rng)
        cases.append((f"game {i}", "equilibrium", game))
        profile = {"strategies": witnesses}
        player = rng.randrange(len(witnesses))
        cases.append((f"game {i}", "best-response", {"game": game, "profile": profile, "player": player}))
    edge = random.Random(EDGE_SEED)
    for family in ("gcd", "outside-span", "zero-rhs", "trivial-kernel"):
        for i in range(EDGE_COUNT):
            cases.append((f"{family} {i}", "solve", _edge_instance(edge, family)))
    signed = random.Random(SIGNED_SEED)
    for i in range(SIGNED_COUNT):
        game, witnesses = _signed_game(signed, same_type=i % 4 == 3)
        cases.append((f"signed {i}", "equilibrium", game))
        profile = {"strategies": witnesses}
        player = signed.randrange(len(witnesses))
        cases.append((f"signed {i}", "best-response", {"game": game, "profile": profile, "player": player}))
        cases.append((f"signed {i}", "verify-equilibrium", {"game": game, "profile": profile}))
    return cases


def run_case(name: str, command: str, data: dict, workdir: Path) -> list[dict]:
    """The case itself and, after `equilibrium`, the `verify-equilibrium` of its answer."""
    got = run_command(command, data, workdir)
    out = [{"name": name, "command": command, "input": data, **got}]
    if command == "equilibrium" and got["payload"] is not None:
        strategies = json.loads(got["payload"])["strategies"]
        check = {"game": data, "profile": {"strategies": strategies}}
        out.append({"name": name, "command": "verify-equilibrium", "input": check,
                    **run_command("verify-equilibrium", check, workdir)})
    return out


def write_snapshot() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = [
            case
            for name, command, data in reference_inputs()
            for case in run_case(name, command, data, Path(tmp))
        ]
    # one case per line, so a changed answer shows as a changed line
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in snapshot)
    PATH.write_text("[\n" + lines + "\n]\n")


if __name__ == "__main__":
    write_snapshot()
