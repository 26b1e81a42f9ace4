"""Write reference_nfold.json: `nfold` answers that later builders must reproduce.

Each case holds an `nfold` input and, byte for byte, what the subcommand
answered: exit code, report status, counters and the payload (the
matrix's rows, columns and entries).  The specs are seeded: A and B with
n in [1, 3] columns and entries in [-3, 3], 0-2 rows each, and N in
[1, 4], each built as the `plain`, `nash` and `c` variant; matrices with
no rows travel as {"rows", "cols", "entries"}.  The catalogs are seeded
too: 1-3 player types on shared n and m, and an assignment of 1-4
players that may leave a type unused.  A few malformed inputs must stay
input errors.  Run from the repository root:

    PYTHONPATH=src python tests/data/make_reference_nfold.py
"""

from __future__ import annotations

import importlib.util
import json
import random
import tempfile
from pathlib import Path

RANDOM_SEED = 2013
SPEC_COUNT = 40
CATALOG_COUNT = 24
VARIANTS = ("plain", "nash", "c")
MALFORMED = [
    ("widths differ", {"A": [[1, 1]], "B": [[1]], "N": 2, "variant": "plain"}),
    ("no players", {"A": [[1, 1]], "B": [[1, 0]], "N": 0, "variant": "c"}),
    ("catalog variant", {"types": [{"A": [[1]], "B": [[1]]}], "assignment": [0], "variant": "c"}),
    ("assignment out of range", {"types": [{"A": [[1]], "B": [[1]]}], "assignment": [0, 1]}),
]
PATH = Path(__file__).with_name("reference_nfold.json")

# the solve snapshot's runner, so that both snapshots record a CLI call alike
_SOLVE = importlib.util.spec_from_file_location(
    "make_reference_solve", Path(__file__).with_name("make_reference_solve.py")
)
_solve = importlib.util.module_from_spec(_SOLVE)
_SOLVE.loader.exec_module(_solve)
run_command = _solve.run_command


def _matrix(rng: random.Random, rows: int, cols: int) -> dict:
    entries = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    return {"rows": rows, "cols": cols, "entries": entries}


def reference_inputs() -> list[tuple[str, dict]]:
    """(name, `nfold` input) for every case, in snapshot order."""
    rng = random.Random(RANDOM_SEED)
    cases = []
    for i in range(SPEC_COUNT):
        n, d, m = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2)
        spec = {"A": _matrix(rng, d, n), "B": _matrix(rng, m, n), "N": rng.randint(1, 4)}
        cases.extend((f"spec {i}", {**spec, "variant": v}) for v in VARIANTS)
    for i in range(CATALOG_COUNT):
        n, m = rng.randint(1, 3), rng.randint(0, 2)
        types = [
            {"A": _matrix(rng, rng.randint(0, 2), n), "B": _matrix(rng, m, n)}
            for _ in range(rng.randint(1, 3))
        ]
        assignment = [rng.randrange(len(types)) for _ in range(rng.randint(1, 4))]
        cases.append((f"catalog {i}", {"types": types, "assignment": assignment}))
    cases.extend((f"malformed {name}", data) for name, data in MALFORMED)
    return cases


def write_snapshot() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = [
            {"name": name, "input": data, **run_command("nfold", data, Path(tmp))}
            for name, data in reference_inputs()
        ]
    # one case per line, so a changed answer shows as a changed line
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in snapshot)
    PATH.write_text("[\n" + lines + "\n]\n")


if __name__ == "__main__":
    write_snapshot()
