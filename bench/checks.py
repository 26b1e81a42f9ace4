"""Checks of the program's outputs, made apart from the program.

Each check takes one operation of a round (plain data from inputs.py)
and what the program returned for it, and gives None when the output is
right or a one-line reason when it is not.  The arithmetic here is the
benchmark's own; only the brute-force oracles come from the package,
because they are its stated reference.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

import inputs

# Boxes up to this many points are enumerated to compare with brute_graver.
BRUTE_GRAVER_POINTS = 5_000


def cost_value(spec: dict, y: int) -> Fraction:
    kind = spec["kind"]
    if kind == "quadratic":
        return Fraction(spec["a"]) * y * y + Fraction(spec["b"]) * y + Fraction(spec["c"])
    if kind == "affine":
        return Fraction(spec["a"]) * y + Fraction(spec["b"])
    if kind == "power":
        return Fraction(spec["a"]) * Fraction(y) ** int(spec["k"])
    raise ValueError(f"unknown cost kind {kind!r}")


def _ratio(text) -> Fraction | None:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


# ---------------------------------------------------------------------------
# equilibrium


def check_equilibrium(op: dict, strategies, minima_of) -> str | None:
    """The profile must be a provider-cost minimum found by brute_nash_check.

    `minima_of(game)` returns the oracle's minimizing profiles as lists.
    """
    minima = minima_of(op["game"])
    if strategies not in minima:
        return f"profile {strategies} is not among the {len(minima)} provider-cost minima"
    return None


# ---------------------------------------------------------------------------
# nfold-graver


def row_basis(rows: list[list[int]]) -> list[list[int]]:
    """A maximal set of linearly independent rows, by exact elimination."""
    kept, reduced = [], []
    for row in rows:
        v = [Fraction(x) for x in row]
        for pivot, r in reduced:
            if v[pivot]:
                f = v[pivot] / r[pivot]
                v = [a - f * b for a, b in zip(v, r)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is not None:
            kept.append(list(row))
            reduced.append((pivot, v))
    return kept


def _kernel_line(sub: list[list[int]]) -> list[int] | None:
    """Primitive kernel vector of an r x (r+1) integer matrix of rank r, else None."""
    m = [row[:] for row in sub]
    r = len(m)
    pivots = []
    row = 0
    for col in range(r + 1):
        p = next((i for i in range(row, r) if m[i][col]), None)
        if p is None:
            continue
        m[row], m[p] = m[p], m[row]
        for i in range(r):
            if i != row and m[i][col]:
                f, g = m[i][col], m[row][col]
                new = [g * a - f * b for a, b in zip(m[i], m[row])]
                k = 0
                for x in new:
                    k = gcd(k, x)
                m[i] = [x // k for x in new] if k > 1 else new
        pivots.append(col)
        row += 1
        if row == r:
            break
    if row < r:
        return None
    free = next(c for c in range(r + 1) if c not in pivots)
    scale = 1
    for i, col in enumerate(pivots):
        scale = lcm(scale, abs(m[i][col]))
    v = [0] * (r + 1)
    v[free] = scale
    for i, col in enumerate(pivots):
        v[col] = -m[i][free] * scale // m[i][col]
    k = 0
    for x in v:
        k = gcd(k, x)
    return [x // k for x in v]


def circuits(rows: list[list[int]]) -> set[tuple[int, ...]]:
    """All circuits of the matrix, both signs, from its maximal minors.

    The kernel of every (rank + 1)-column submatrix of a row basis is a
    line when that submatrix has full rank; its primitive generators,
    placed back into all columns, are exactly the circuits.
    """
    basis = row_basis(rows)
    n = len(rows[0])
    r = len(basis)
    found: set[tuple[int, ...]] = set()
    if r == 0:
        for j in range(n):
            e = [0] * n
            e[j] = 1
            found.update({tuple(e), tuple(-x for x in e)})
        return found
    for cols in itertools.combinations(range(n), r + 1):
        line = _kernel_line([[row[j] for j in cols] for row in basis])
        if line is None:
            continue
        v = [0] * n
        for j, x in zip(cols, line):
            v[j] = x
        found.add(tuple(v))
        found.add(tuple(-x for x in v))
    return found


def _masks(g):
    pos = neg = 0
    for j, x in enumerate(g):
        if x > 0:
            pos |= 1 << j
        elif x < 0:
            neg |= 1 << j
    return pos, neg


def first_comparable_pair(elements) -> tuple | None:
    """Two distinct elements h, g with h conformally below g, if any."""
    masks = [_masks(g) for g in elements]
    for (h, (hp, hn)), (g, (gp, gn)) in itertools.permutations(zip(elements, masks), 2):
        if hp & ~gp or hn & ~gn:
            continue
        if all(abs(a) <= abs(b) for a, b in zip(h, g)):
            return h, g
    return None


def check_nfold(op: dict, elements, brute_graver) -> str | None:
    """Kernel, negation, antichain, player symmetry, circuits, brute force.

    `brute_graver(rows, bound)` returns the oracle's elements as tuples.
    """
    rows = inputs.nash_matrix(op["A"], op["B"], op["N"])
    ncols = len(rows[0])
    got = [tuple(g) for g in elements]
    basis = set(got)
    if len(basis) != len(got):
        return "duplicate elements"
    for g in got:
        if len(g) != ncols or not any(g):
            return f"element {g} is zero or has the wrong length"
        if any(inputs.dot(r, g) for r in rows):
            return f"element {g} is not in the kernel"
    for g in got:
        if tuple(-x for x in g) not in basis:
            return f"negation of {g} is missing"
    pair = first_comparable_pair(got)
    if pair is not None:
        return f"{pair[0]} lies conformally below {pair[1]}"
    n, big_n = len(op["A"][0]), op["N"]
    for i in range(big_n - 1):
        for g in got:
            swapped = list(g)
            swapped[i * n : (i + 1) * n] = g[(i + 1) * n : (i + 2) * n]
            swapped[(i + 1) * n : (i + 2) * n] = g[i * n : (i + 1) * n]
            if tuple(swapped) not in basis:
                return f"swapping players {i} and {i + 1} maps {g} out of the basis"
    missing = circuits(rows) - basis
    if missing:
        return f"{len(missing)} circuits missing, e.g. {min(missing)}"
    bound = max((max(abs(x) for x in g) for g in got), default=0)
    if (2 * bound + 1) ** ncols <= BRUTE_GRAVER_POINTS:
        if set(brute_graver(rows, bound)) != basis:
            return f"differs from brute_graver within bound {bound}"
    return None


# ---------------------------------------------------------------------------
# inverse-cli


def lattice_points(rows, rhs, upper):
    """Every integer x with rows @ x = rhs and 0 <= x <= upper, by pruned search."""
    n = len(upper)
    # reach[k][r]: least and greatest value columns k.. can add to row r
    reach = [None] * (n + 1)
    reach[n] = [(0, 0) for _ in rows]
    for k in range(n - 1, -1, -1):
        reach[k] = [
            (lo + min(0, r[k] * upper[k]), hi + max(0, r[k] * upper[k]))
            for (lo, hi), r in zip(reach[k + 1], rows)
        ]
    x = [0] * n

    def walk(k, residual):
        if any(not lo <= res <= hi for res, (lo, hi) in zip(residual, reach[k])):
            return
        if k == n:
            yield tuple(x)
            return
        for v in range(upper[k] + 1):
            x[k] = v
            yield from walk(k + 1, [res - r[k] * v for res, r in zip(residual, rows)])

    yield from walk(0, list(rhs))


def _shape_table(op):
    return [
        [cost_value(spec, v) for v in range(ub + 1)]
        for spec, ub in zip(op["shapes"], op["u"])
    ]


def check_yes(op: dict, lam: list[Fraction]) -> str | None:
    """Weights are normalized and no point of P beats x* under them."""
    if len(lam) != len(op["u"]) or any(v is None or v < 0 for v in lam):
        return f"weights {lam} are not {len(op['u'])} nonnegative rationals"
    if sum(lam) != 1:
        return "weights do not sum to 1"
    table = _shape_table(op)
    weighted = [[w * f for f in column] for w, column in zip(lam, table)]
    best = sum(column[v] for column, v in zip(weighted, op["xstar"]))
    for x in lattice_points(op["D"], op["d"], op["u"]):
        if sum(column[v] for column, v in zip(weighted, x)) < best:
            return f"point {x} of P has a lower weighted objective than x*"
    return None


def check_no(op: dict, certificate) -> str | None:
    """Nonnegative combination of feasible shifts, negative in every coordinate."""
    table = _shape_table(op)
    xstar, upper = op["xstar"], op["u"]
    sums = [Fraction(0)] * len(upper)
    for coefficient, shift in certificate:
        c = _ratio(coefficient)
        if c is None or c < 0:
            return f"coefficient {coefficient!r} is not a nonnegative rational"
        if len(shift) != len(upper) or any(inputs.dot(r, shift) for r in op["D"]):
            return f"shift {shift} is not in the kernel"
        moved = [a + b for a, b in zip(xstar, shift)]
        if any(not 0 <= v <= ub for v, ub in zip(moved, upper)):
            return f"shift {shift} leaves the box"
        for j, (a, v) in enumerate(zip(xstar, moved)):
            sums[j] += c * (table[j][v] - table[j][a])
    if not certificate or any(s >= 0 for s in sums):
        return f"weighted difference sums {[str(s) for s in sums]} are not all negative"
    return None


KNOWN_VERDICTS = {"planted-yes": "yes", "no-family": "no"}


def check_inverse(op: dict, result: dict) -> str | None:
    """Exit code, report status and the answer's own certificate."""
    code, payload = result["code"], result["payload"]
    status = result["status"]
    verdict = payload.get("verdict") if isinstance(payload, dict) else None
    expected = KNOWN_VERDICTS.get(op["kind"])
    if expected is not None and verdict != expected:
        return f"verdict {verdict!r}, expected {expected!r}"
    if verdict == "yes" and code == 0 and status == "ok":
        return check_yes(op, [_ratio(v) for v in payload.get("lambda", [])])
    if verdict == "no" and code == 1 and status == "no":
        return check_no(op, payload.get("certificate", []))
    return f"exit code {code}, status {status!r}, verdict {verdict!r}"

