"""Write reference_bases.json: Graver bases that later completions must reproduce.

The snapshot holds the equilibrium matrices of the three (A, B) pairs of
the N-fold growth experiments (the first at N = 1..6, the second at
N = 1..5, the third at N = 1..4), each case with its A, B and N, and
seeded random matrices of 1-3 rows and 2-6 columns with entries in
[-2, 2], each with its basis in the canonical order `graver_basis`
returns.  Run from the repository root:

    PYTHONPATH=src python tests/data/make_reference_bases.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from gravernash import IntMatrix, graver_basis
from gravernash.nfold import NfoldSpec, build_nash_matrix

PAIRS = (
    ([[1, 1]], [[1, 0]]),
    ([[1, 1, 1]], [[1, 2, 0]]),
    ([[1, -1, 2]], [[1, 1, 0]]),
)
# per pair; the second pair's basis at N = 5 has 580 elements, the third's
# at N = 4 has 704
PAIR_NS = ((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5), (1, 2, 3, 4))
RANDOM_SEED = 2009
RANDOM_COUNT = 60
PATH = Path(__file__).with_name("reference_bases.json")


def reference_matrices() -> list[tuple[dict, IntMatrix]]:
    """(fields, matrix) per case; a nash case's fields also hold its A, B and N."""
    cases = []
    for (a, b), big_ns in zip(PAIRS, PAIR_NS):
        for big_n in big_ns:
            spec = NfoldSpec(IntMatrix.from_rows(a), IntMatrix.from_rows(b), big_n)
            fields = {"name": f"nash A={a} B={b} N={big_n}", "A": a, "B": b, "N": big_n}
            cases.append((fields, build_nash_matrix(spec)))
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_COUNT):
        rows, cols = rng.randint(1, 3), rng.randint(2, 6)
        entries = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        cases.append(({"name": f"random {i}"}, IntMatrix.from_rows(entries)))
    return cases


def main() -> None:
    snapshot = [
        {
            **fields,
            "rows": [list(r) for r in mat.entries],
            "elements": [list(g) for g in graver_basis(mat).elements],
        }
        for fields, mat in reference_matrices()
    ]
    # one case per line, so a changed basis shows as a changed line
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in snapshot)
    PATH.write_text("[\n" + lines + "\n]\n")


if __name__ == "__main__":
    main()
