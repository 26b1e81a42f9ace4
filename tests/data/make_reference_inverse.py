"""Write reference_inverse.json: CLI answers to the inverse problem that later code must reproduce.

Each case holds an inverse instance and, byte for byte, what the
`inverse` subcommand answered (exit code, status, payload) and what
`verify-inverse` answered when handed that payload back.  The instances
are seeded: random 1-2 x 2-5 matrices with entries in [-2, 2], a 1x5
matrix, the equilibrium matrix of the pair A=[1 1], B=[1 0] at N = 2, and
the no-family of the benchmark, with affine, quadratic, power and
piecewise-linear shapes whose coefficients have denominators up to 6, so
that the solver scales the difference rows to ints.  Most verdicts on
such instances are "yes", so parabolas pulled off x* are drawn until
PULLED_NO of them are answered "no".  Last comes the nash-wide family,
drawn from a seed of its own: instances on the N = 2 equilibrium
matrices of A=[1 1 1], B=[1 2 0] and A=[1 -1 2], B=[1 1 0], whose
24-48 feasible shifts give the LP its widest tableaux.  The linear family
comes after it, from a seed of its own too: integral increasing linear
shapes (affine, a in 1..3, b = 0, so the solver's scale L is 1) at
points inside the box, as the benchmark draws them, on the 1x5 matrix
[1 -2 -2 0 -1] and on the N = 2 equilibrium matrix of A=[1 1], B=[1 0].
The eight 1x5 instances are answered "no", with Farkas coefficients that
the solver returns unscaled; the eight on the equilibrium matrix "yes".
Run from the repository root:

    PYTHONPATH=src python tests/data/make_reference_inverse.py
"""

from __future__ import annotations

import importlib.util
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from gravernash import IntMatrix
from gravernash.nfold import NfoldSpec, build_nash_matrix

RANDOM_SEED = 2009
RANDOM_COUNT = 36
WIDE_COUNT = 10
NASH_COUNT = 8
NO_FAMILY = (2, 3, 4)
PLANTED_COUNT = 6
PULLED_NO = 12
WIDE_ROWS = [[1, 2, -1, 1, -2]]
NASH_WIDE_SEED = 2010
NASH_WIDE_PAIRS = (([[1, 1, 1]], [[1, 2, 0]]), ([[1, -1, 2]], [[1, 1, 0]]))
NASH_WIDE_COUNT = 4
LINEAR_SEED = 2011
LINEAR_ROWS = [[1, -2, -2, 0, -1]]
LINEAR_PAIR = ([[1, 1]], [[1, 0]])
LINEAR_COUNT = 8
PATH = Path(__file__).with_name("reference_inverse.json")

# the solve snapshot's runner and rational draw, so that the snapshots
# record a CLI call alike and draw coefficients alike
_SOLVE = importlib.util.spec_from_file_location(
    "make_reference_solve", Path(__file__).with_name("make_reference_solve.py")
)
_solve = importlib.util.module_from_spec(_SOLVE)
_SOLVE.loader.exec_module(_solve)
_frac = _solve._frac


def _shape(rng: random.Random, center: int) -> dict:
    kind = rng.choice(("affine", "quadratic", "quadratic", "power", "piecewise_linear"))
    if kind == "affine":
        return {"kind": "affine", "a": _frac(rng, -4, 6), "b": _frac(rng, 0, 3)}
    if kind == "quadratic":
        a = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        c = center + rng.randint(-1, 1)
        return {"kind": "quadratic", "a": str(a), "b": str(-2 * a * c), "c": str(a * c * c)}
    if kind == "power":
        return {"kind": "power", "a": _frac(rng, 0, 5), "k": rng.randint(1, 3)}
    breakpoints = sorted(rng.sample(range(1, 5), rng.randint(1, 2)))
    slopes = sorted(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(len(breakpoints) + 1))
    return {
        "kind": "piecewise_linear",
        "breakpoints": breakpoints,
        "slopes": [str(s) for s in slopes],
        "c0": _frac(rng, 0, 3),
    }


def _instance(rows, u, xstar, shapes) -> dict:
    d = [sum(a * x for a, x in zip(row, xstar)) for row in rows]
    return {"D": rows, "d": d, "u": u, "xstar": xstar, "shapes": shapes}


def _linear(rng: random.Random, center: int) -> dict:
    """An integral increasing linear shape; the center plays no part."""
    return {"kind": "affine", "a": str(rng.randint(1, 3)), "b": "0"}


def _box_instance(rng: random.Random, rows) -> dict:
    u = [rng.randint(2, 4) for _ in rows[0]]
    xstar = [rng.randint(0, ui) for ui in u]
    return _instance(rows, u, xstar, [_shape(rng, x) for x in xstar])


def _nash_instance(rng: random.Random) -> dict:
    a, b, big_n = [[1, 1]], [[1, 0]], 2
    spec = NfoldSpec(IntMatrix.from_rows(a), IntMatrix.from_rows(b), big_n)
    rows = [list(r) for r in build_nash_matrix(spec).entries]
    us = [[rng.randint(2, 4) for _ in range(2)] for _ in range(big_n)]
    xs = [[rng.randint(0, v) for v in u] for u in us]
    y = [sum(x[j] for x in xs) for j in range(2)]
    load = sum(x[0] for x in xs)
    s = rng.randint(0, 2)
    u = [v for ui in us for v in ui] + [sum(ui[j] for ui in us) for j in range(2)] + [load + 2]
    xstar = [v for x in xs for v in x] + y + [s]
    return _instance(rows, u, xstar, [_shape(rng, x) for x in xstar])


def _nash_wide_instance(rng: random.Random, a, b, shape=_shape) -> dict:
    """A point inside the boxes of the N = 2 equilibrium matrix of (A, B); B >= 0, one row."""
    big_n, n = 2, len(a[0])
    spec = NfoldSpec(IntMatrix.from_rows(a), IntMatrix.from_rows(b), big_n)
    rows = [list(r) for r in build_nash_matrix(spec).entries]
    us = [[rng.randint(3, 5) for _ in range(n)] for _ in range(big_n)]
    xs = [[rng.randint(1, v - 1) for v in u] for u in us]
    y = [sum(x[j] for x in xs) for j in range(n)]
    load = sum(bj * xj for x in xs for bj, xj in zip(b[0], x))
    s = rng.randint(1, 2)
    u = [v for ui in us for v in ui] + [sum(ui[j] for ui in us) for j in range(n)] + [load + 3]
    xstar = [v for x in xs for v in x] + y + [s]
    return _instance(rows, u, xstar, [shape(rng, x) for x in xstar])


def nash_wide_instances() -> list[tuple[str, dict]]:
    rng = random.Random(NASH_WIDE_SEED)
    return [
        (f"nash-wide {p} {i}", _nash_wide_instance(rng, a, b))
        for p, (a, b) in enumerate(NASH_WIDE_PAIRS)
        for i in range(NASH_WIDE_COUNT)
    ]


def _linear_box_instance(rng: random.Random, rows) -> dict:
    u = [rng.randint(3, 5) for _ in rows[0]]
    xstar = [rng.randint(1, ui - 1) for ui in u]
    return _instance(rows, u, xstar, [_linear(rng, x) for x in xstar])


def linear_instances() -> list[tuple[str, dict]]:
    rng = random.Random(LINEAR_SEED)
    a, b = LINEAR_PAIR
    return [
        *((f"linear 1x5 {i}", _linear_box_instance(rng, LINEAR_ROWS)) for i in range(LINEAR_COUNT)),
        *((f"linear nash {i}", _nash_wide_instance(rng, a, b, _linear)) for i in range(LINEAR_COUNT)),
    ]


def _no_family(n: int) -> dict:
    away = {"kind": "quadratic", "a": "1", "b": "-4", "c": "4"}
    square = {"kind": "quadratic", "a": "1", "b": "0", "c": "0"}
    return _instance([[1, 1] + [0] * (n - 2)], [2] * n, [1, 1] + [0] * (n - 2), [away, square] + [away] * (n - 2))


def _parabolas(rng: random.Random, rows, pull: tuple[int, ...]) -> dict:
    """Parabolas with fractional weights centred on x* plus a pull drawn from `pull`."""
    u = [rng.randint(2, 4) for _ in rows[0]]
    xstar = [rng.randint(0, ui) for ui in u]
    shapes = []
    for x in xstar:
        w, c = Fraction(rng.randint(1, 6), rng.randint(1, 6)), x + rng.choice(pull)
        shapes.append({"kind": "quadratic", "a": str(w), "b": str(-2 * w * c), "c": str(w * c * c)})
    return _instance(rows, u, xstar, shapes)


def reference_instances() -> list[tuple[str, dict]]:
    rng = random.Random(RANDOM_SEED)
    cases = []
    for i in range(RANDOM_COUNT):
        r, k = rng.randint(1, 2), rng.randint(2, 5)
        rows = [[0] * k]
        while not all(any(row) for row in rows):
            rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)]
        cases.append((f"random {i}", _box_instance(rng, rows)))
    for i in range(WIDE_COUNT):
        cases.append((f"1x5 {i}", _box_instance(rng, WIDE_ROWS)))
    for i in range(NASH_COUNT):
        cases.append((f"nash {i}", _nash_instance(rng)))
    for i in range(PLANTED_COUNT):
        # centred on x*: x* minimizes every nonnegative weighting, so the verdict is yes
        cases.append((f"planted {i}", _parabolas(rng, WIDE_ROWS if i % 2 else [[1, -1, 2]], (0,))))
    for n in NO_FAMILY:
        cases.append((f"no-family {n}", _no_family(n)))
    return cases


def run_command(command: str, data: dict, workdir: Path) -> dict:
    """Exit code, report status and payload text of one CLI call; the counters are not kept."""
    got = _solve.run_command(command, data, workdir)
    return {key: got[key] for key in ("exit", "status", "payload")}


def run_case(instance: dict, workdir: Path) -> dict:
    inverse = run_command("inverse", instance, workdir)
    answer = json.loads(inverse["payload"]) if inverse["payload"] is not None else None
    verify = run_command("verify-inverse", {"instance": instance, "answer": answer}, workdir)
    return {"inverse": inverse, "verify-inverse": verify}


def write_snapshot() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = [
            {"name": name, "instance": inst, **run_case(inst, Path(tmp))}
            for name, inst in reference_instances()
        ]
        rng = random.Random(RANDOM_SEED + 1)
        pulled = []
        while len(pulled) < PULLED_NO:
            inst = _parabolas(rng, WIDE_ROWS if rng.randint(0, 1) else [[1, -1, 2]], (-2, -1, 1, 2))
            case = run_case(inst, Path(tmp))
            if case["inverse"]["status"] == "no":
                pulled.append({"name": f"pulled {len(pulled)}", "instance": inst, **case})
        snapshot += pulled
        snapshot += [
            {"name": name, "instance": inst, **run_case(inst, Path(tmp))}
            for name, inst in (*nash_wide_instances(), *linear_instances())
        ]
    # one case per line, so a changed answer shows as a changed line
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in snapshot)
    PATH.write_text("[\n" + lines + "\n]\n")


if __name__ == "__main__":
    write_snapshot()
