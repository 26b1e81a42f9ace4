"""The exact LP against the dense-Fraction reference simplex on many seeded systems.

Draws --systems N systems of the two shapes `tests/test_lp.py` checks
on a few hundred: Fraction rows scaled to ints, and, one system in five,
wide int rows at the inverse solver's sizes.  Solves each with `rational_lp_feasibility`
and `conftest.reference_lp` (strict row all ones), prints how many were
points and how many rays, and exits 1 on the first system whose answers
differ.  Pytest does not collect this file.  Run from the repository
root:

    PYTHONPATH=src python tests/lp_reference.py --systems 20000
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from math import lcm

from conftest import reference_lp
from gravernash import FarkasRay, FeasiblePoint, rational_lp_feasibility
from gravernash.linalg import dot


def _random_entry(rng, den):
    return Fraction(rng.randint(-4, 4), rng.randint(1, den))


def _integral(row):
    """(s, s*row) for the lcm s of the denominators of row's entries, in ints."""
    s = lcm(*(Fraction(x).denominator for x in row))
    return s, tuple(int(s * x) for x in row)


def fraction_system(rng, case):
    """(rows, n): up to 15 rows of Fractions with denominators up to 6, n in 1..7."""
    n = rng.randint(1, 7)
    m = 0 if case % 10 == 0 else rng.randint(1, 12)
    den = 1 + case % 6  # denominators 1..6
    rows = [tuple(_random_entry(rng, den) for _ in range(n)) for _ in range(m)]
    if m and case % 3 == 0:
        # repeated and scaled rows make ties in the ratio test
        rows += [tuple(2 * x for x in rng.choice(rows)) for _ in range(rng.randint(1, 3))]
    return rows, n


def wide_system(rng, case):
    """Int rows at the inverse solver's sizes: m in 15..40, n in 3..8, a quarter repeated.

    About half the entries are 0, as in a difference row, which is 0 where
    its Graver shift is.  Even cases plant a nonnegative lam* that every
    row keeps nonnegative, so the system is feasible; odd cases end on a
    row whose sum with the row before is negative in every entry, so
    they are not.
    Every eleventh case draws entries above 2^200, on at most 20 rows.
    """
    big = case % 11 == 0
    n, m = rng.randint(3, 8), rng.randint(15, 20 if big else 40)
    hi = 2**210 if big else 4
    planted = [rng.randint(0, 3) for _ in range(n)] if case % 2 == 0 else None
    if planted is not None and not any(planted):
        planted[0] = 1
    rows = []
    while len(rows) < m - m // 4:
        row = [rng.randint(-hi, hi) if rng.random() < 0.5 else 0 for _ in range(n)]
        if planted is not None and dot(row, planted) < 0:
            row = [-x for x in row]
        rows.append(tuple(row))
    if planted is None:
        rows[-1] = tuple(-x - rng.randint(1, 3) for x in rows[-2])
    # repeated rows make ties in the ratio test
    rows += [rng.choice(rows) for _ in range(m // 4)]
    rng.shuffle(rows)
    return rows, n


def answer_kind(rows, n):
    """"point" or "ray" if the program's answer is the reference's, None if not.

    The program gets row i times the lcm s_i of its denominators.  That
    moves no pivot, so its point is the reference's, and its coefficient
    for row i times s_i is the reference's.
    """
    kind, want = reference_lp(rows, (1,) * n)
    scaled = [_integral(r) for r in rows]
    got = rational_lp_feasibility([r for _, r in scaled], n)
    if kind == "point":
        same = isinstance(got, FeasiblePoint) and got.lam == want
    else:
        same = isinstance(got, FarkasRay) and want == tuple(
            si * v for (si, _), v in zip(scaled, got.coefficients)
        )
    return kind if same else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", type=int, default=20000, help="systems to draw (default 20000)")
    parser.add_argument("--seed", type=int, default=2009, help="seed of the draws (default 2009)")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    kinds = {"point": 0, "ray": 0}
    for case in range(args.systems):
        # a wide system costs about five Fraction ones
        draw = wide_system if case % 5 == 4 else fraction_system
        rows, n = draw(rng, case)
        kind = answer_kind(rows, n)
        if kind is None:
            print(f"system {case} ({draw.__name__}, n = {n}): the answers differ; rows = {rows}")
            return 1
        kinds[kind] += 1
    print(f"{args.systems} systems: {kinds['point']} points, {kinds['ray']} rays, all as the reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
