"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gravernash import (
    CertificateError,
    GameInstance,
    IiopAnswer,
    IntMatrix,
    PlayerSpec,
    feasible_shifts,
)
from gravernash.costs import (
    ZERO_COST,
    AffineCost,
    PiecewiseLinearCost,
    PowerCost,
    QuadraticCost,
    SeparableObjective,
    ShiftedCost,
)
from gravernash.inverse import _value_rows
from gravernash.linalg import kernel_lattice_basis, vadd, vscale, vsub
from gravernash.oracle import conformal_leq


def inf_norm(u) -> int:
    return max((abs(a) for a in u), default=0)


def sign_compatible(u, v) -> bool:
    """True iff u_j * v_j >= 0 in every coordinate."""
    return all(a * b >= 0 for a, b in zip(u, v))


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], n)


def zero_matrix(nrows: int, ncols: int) -> IntMatrix:
    return IntMatrix.from_rows([[0] * ncols for _ in range(nrows)], ncols)


def rand_matrix(rng: random.Random, rows: int, cols: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def square_cost() -> QuadraticCost:
    return QuadraticCost(Fraction(1), Fraction(0), Fraction(0))


def squares_objective(n: int) -> SeparableObjective:
    return SeparableObjective(tuple(square_cost() for _ in range(n)))


def random_convex_cost(rng: random.Random):
    pick = rng.random()
    if pick < 0.5:
        return QuadraticCost(
            Fraction(rng.randint(0, 2)), Fraction(rng.randint(0, 2)), Fraction(rng.randint(0, 2))
        )
    if pick < 0.8:
        return AffineCost(Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 2)))
    return PowerCost(Fraction(rng.randint(0, 2)), rng.randint(1, 3))


def random_convex_objective(rng: random.Random, n: int) -> SeparableObjective:
    return SeparableObjective(tuple(random_convex_cost(rng) for _ in range(n)))


def random_game(rng: random.Random, max_players: int = 3, max_resources: int = 3) -> GameInstance:
    """A random game with a planted feasible profile.

    Each player's right-hand side comes from a witness strategy, and the
    coupling bound covers the witnesses' joint load, so the feasible
    profile set is never empty.
    """
    num_players = rng.randint(1, max_players)
    n = rng.randint(1, max_resources)
    m = 1
    players = []
    witnesses = []
    for _ in range(num_players):
        u = tuple(rng.randint(0, 2) for _ in range(n))
        a = rand_matrix(rng, 1, n, 0, 1)
        witness = tuple(rng.randint(0, ui) for ui in u)
        b = a.matvec(witness)
        coupling = rand_matrix(rng, m, n, 0, 1)
        players.append(PlayerSpec(A=a, b=b, u=u, B=coupling))
        witnesses.append(witness)
    load = [0] * m
    for p, w in zip(players, witnesses):
        load = [x + y for x, y in zip(load, p.B.matvec(w))]
    b0 = tuple(x + rng.randint(0, 1) for x in load)
    return GameInstance(
        players=tuple(players), b0=b0, costs=random_convex_objective(rng, n)
    )


def random_rational_cost(rng: random.Random, depth: int = 2):
    """A convex cost of any of the five families, coefficients with denominators up to 6.

    Shifted wrappers nest up to `depth` deep; one draw in nine is
    ZERO_COST.
    """

    def rat(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), rng.randint(1, 6))

    pick = rng.randrange(9 if depth else 7)
    if pick == 0:
        return ZERO_COST
    if pick == 1:
        return AffineCost(rat(-6, 6), rat(-3, 3))
    if pick in (2, 3):
        return QuadraticCost(rat(0, 6), rat(-12, 6), rat(-3, 3))
    if pick == 4:
        return PowerCost(rat(0, 4), rng.randint(1, 3))
    if pick in (5, 6):
        breakpoints = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 3))))
        slopes = tuple(sorted(rat(-6, 6) for _ in range(len(breakpoints) + 1)))
        return PiecewiseLinearCost(breakpoints, slopes, rat(-3, 3))
    return ShiftedCost(random_rational_cost(rng, depth - 1), rng.randint(0, 3))


def fraction_best_step(x, g, inst):
    """The augmentation step as computed before the integer scaling: every term, in Fractions.

    A test oracle for `solver.best_step`: same contract, no scaling and
    no skipped terms.
    """
    lam_max = None
    moved = []
    for term, xi, gi, ui in zip(inst.objective.terms, x, g, inst.u):
        if gi > 0:
            room = (ui - xi) // gi
        elif gi < 0:
            room = xi // (-gi)
        else:
            continue
        moved.append((term, xi, gi))
        lam_max = room if lam_max is None else min(lam_max, room)
    if lam_max is None or lam_max <= 0:
        return 0, Fraction(0)

    def phi(lam: int) -> Fraction:
        return sum((t.value(xi + lam * gi) for t, xi, gi in moved), Fraction(0))

    lo, hi = 0, lam_max
    while lo < hi:
        mid = (lo + hi) // 2
        if phi(mid + 1) - phi(mid) >= 0:
            hi = mid
        else:
            lo = mid + 1
    improvement = phi(0) - phi(lo)
    if improvement < 0:
        return 0, Fraction(0)
    return lo, improvement


def fraction_greedy_augment(x0, basis, inst):
    """Oracle for `solver.greedy_augment` on `fraction_best_step`: (path, count, objective).

    `path` lists every point visited, the start included.
    """
    path = [x0]
    while True:
        best_g, best_lam, best_gain = None, 0, Fraction(0)
        for g in basis.elements:
            lam, gain = fraction_best_step(path[-1], g, inst)
            if gain > best_gain:
                best_g, best_lam, best_gain = g, lam, gain
        if best_g is None:
            break
        path.append(vadd(path[-1], vscale(best_lam, best_g)))
    return path, len(path) - 1, inst.objective.value(path[-1])


def reference_lp(rows, strict_row):
    """The dense-Fraction phase-1 simplex that `rational_lp_feasibility` replaced.

    It takes rows of ints or Fractions and shares no code with the
    program's LP.  Same standard form and Bland's rule, but it prices
    every column against the original matrix with multipliers c_B B^{-1}
    rebuilt each iteration, and divides in Fractions.  Returns ("point", lam) or
    ("ray", coefficients), unchecked.
    """
    n, m = len(strict_row), len(rows)
    ncols, nrows = n + m + 1, m + 1
    matrix = []
    for i, r in enumerate(rows):
        row = [-Fraction(x) for x in r] + [Fraction(0)] * (m + 1)
        row[n + i] = Fraction(1)
        matrix.append(row)
    last = [Fraction(x) for x in strict_row] + [Fraction(0)] * (m + 1)
    last[n + m] = Fraction(1)
    matrix.append(last)
    rhs = [Fraction(0)] * m + [Fraction(1)]
    cost = [Fraction(0)] * ncols
    cost[n + m] = Fraction(1)
    basis = [n + i for i in range(nrows)]
    tableau = [matrix[i][:] + [rhs[i]] for i in range(nrows)]

    def multipliers():
        # the slack and artificial columns are unit vectors, so B^{-1} e_i is column n+i;
        # terms with a zero factor are skipped, which changes no sum
        priced = [r for r in range(nrows) if cost[basis[r]]]
        return [sum(cost[basis[r]] * tableau[r][n + i] for r in priced) for i in range(nrows)]

    while True:
        y = multipliers()
        support = [i for i in range(nrows) if y[i]]
        entering = next(
            (j for j in range(ncols)
             if cost[j] - sum(y[i] * matrix[i][j] for i in support) < 0),
            -1,
        )
        if entering < 0:
            break
        leaving, best = -1, None
        for i in range(nrows):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        if leaving < 0:
            raise CertificateError("unbounded phase-1 simplex")
        piv = tableau[leaving][entering]
        tableau[leaving] = [x / piv for x in tableau[leaving]]
        for i in range(nrows):
            factor = tableau[i][entering]
            if i != leaving and factor:
                tableau[i] = [x - factor * p if p else x for x, p in zip(tableau[i], tableau[leaving])]
        basis[leaving] = entering

    if sum(cost[basis[i]] * tableau[i][-1] for i in range(nrows)) == 0:
        lam = [Fraction(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                lam[b] = tableau[i][-1]
        return "point", tuple(lam)
    y = multipliers()
    return "ray", tuple(-y[i] / y[m] for i in range(m))


def fraction_solve_iiop(inst, basis):
    """Oracle for `inverse.solve_iiop`: `reference_lp` on the verifier's `Fraction` rows, same contract."""
    shifts = tuple(feasible_shifts(basis, inst))
    n = inst.n
    if not shifts:
        return IiopAnswer(verdict="yes", lam=tuple(Fraction(1, n) for _ in range(n)), shifts=())
    kind, values = reference_lp(_value_rows(inst, shifts), (1,) * n)
    if kind == "point":
        total = sum(values, Fraction(0))
        return IiopAnswer(verdict="yes", lam=tuple(v / total for v in values), shifts=shifts)
    return IiopAnswer(verdict="no", shifts=shifts, certificate=values)


def reference_integer_solution(D, d):
    """Some x in Z^n with D x = d, or None: the solver's x0 as it was taken before
    its reduction of [D | -d] also gave the kernel basis of D, which
    `graver_basis` then computed from a second reduction.

    Euclid on the last coordinates of the kernel lattice basis of
    [D | -d] leaves one vector whose last coordinate is their gcd; D x = d
    is solvable over Z iff that gcd is 1.
    """
    augmented = IntMatrix(D.nrows, D.ncols + 1, tuple(r + (-v,) for r, v in zip(D.entries, d)))
    acc = (0,) * (D.ncols + 1)
    for v in kernel_lattice_basis(augmented):
        while v[-1]:
            acc, v = v, vsub(acc, vscale(acc[-1] // v[-1], v))
    return vscale(acc[-1], acc)[:-1] if abs(acc[-1]) == 1 else None


def all_pairs_minimal(records):
    """The conformally minimal elements of `sign_masks` records, sorted, by testing every pair.

    A test oracle for the final filter of `graver.graver_basis`, which
    tests one representative per batch.
    """
    records = sorted(records, key=lambda record: record[2])
    return tuple(
        g
        for gpos, gneg, g in records
        if not any(
            h != g and conformal_leq(h, g)
            for hpos, hneg, h in records
            if not (hpos & ~gpos or hneg & ~gneg)
        )
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
