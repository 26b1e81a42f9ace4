"""Time against N of the Graver completion on equilibrium matrices, each basis certified.

For each of the three (A, B) pairs of the N-fold growth experiments (p1,
p2, p3, as in `tests/data/make_reference_bases.py`) and N = 1, 2, ...,
--max-n, completes G of `build_nash_matrix` and prints one line: |G|,
the number of orbits of ±g under the brick permutations, the seconds
the completion took and the verdict of `oracle.check_graver` with the
seconds it took.  Exits 1 if any verdict is false.  Pytest does not
collect this file.  Run from the repository root:

    PYTHONPATH=src python tests/nfold_scaling.py --max-n 6
    PYTHONPATH=src python tests/nfold_scaling.py --max-n 12 --pairs p2
"""

from __future__ import annotations

import argparse
import sys
import time

from gravernash import IntMatrix, check_graver, graver_basis
from gravernash.graver import _orbit_maps
from gravernash.nfold import NfoldSpec, build_nash_matrix

PAIRS = {
    "p1": ([[1, 1]], [[1, 0]]),
    "p2": ([[1, 1, 1]], [[1, 2, 0]]),
    "p3": ([[1, -1, 2]], [[1, 1, 0]]),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6, help="largest N (default 6)")
    parser.add_argument(
        "--pairs", nargs="+", choices=list(PAIRS), default=list(PAIRS), help="pairs to run"
    )
    args = parser.parse_args(argv)
    print(f"{'pair':<5}{'N':>3}{'|G|':>8}{'orbits':>8}{'complete_s':>12}{'check':>7}{'check_s':>9}")
    all_ok = True
    for name in args.pairs:
        a, b = PAIRS[name]
        for big_n in range(1, args.max_n + 1):
            mat = build_nash_matrix(NfoldSpec(IntMatrix.from_rows(a), IntMatrix.from_rows(b), big_n))
            start = time.perf_counter()
            basis = graver_basis(mat)
            complete_s = time.perf_counter() - start
            key, _ = _orbit_maps(mat)
            orbits = len(set(map(key, basis.elements)))
            start = time.perf_counter()
            ok = check_graver(mat, basis.elements)
            check_s = time.perf_counter() - start
            all_ok &= ok
            print(
                f"{name:<5}{big_n:>3}{len(basis):>8}{orbits:>8}{complete_s:>12.3f}"
                f"{str(ok).lower():>7}{check_s:>9.3f}",
                flush=True,
            )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
