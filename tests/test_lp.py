import random
from fractions import Fraction

import pytest

from gravernash import (
    CertificateError,
    DimensionError,
    FarkasRay,
    FeasiblePoint,
    rational_lp_feasibility,
)
from gravernash.linalg import dot
from gravernash.lp import _check_point, _check_ray


def F(x):
    return Fraction(x)


def test_feasible_example():
    out = rational_lp_feasibility([(F(3), F(-1))], (F(1), F(1)))
    assert isinstance(out, FeasiblePoint)
    lam = out.lam
    assert all(x >= 0 for x in lam)
    assert 3 * lam[0] - lam[1] >= 0
    assert lam[0] + lam[1] > 0
    # the spec's witness is also accepted by the system
    assert 3 * F(1) - F(3) >= 0


def test_infeasible_example():
    out = rational_lp_feasibility([(F(-1), F(-1))], (F(1), F(1)))
    assert isinstance(out, FarkasRay)
    (v,) = out.coefficients
    assert v >= 0
    # v * row + strict <= 0 componentwise
    assert v * F(-1) + F(1) <= 0


def test_no_constraints():
    out = rational_lp_feasibility([], (F(1), F(0)))
    assert isinstance(out, FeasiblePoint)
    assert dot(out.lam, (F(1), F(0))) > 0


def test_no_constraints_infeasible():
    out = rational_lp_feasibility([], (F(-1), F(0)))
    assert isinstance(out, FarkasRay)
    assert out.coefficients == ()


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        rational_lp_feasibility([(F(1),)], (F(1), F(1)))


def test_random_systems_one_branch_verifies():
    rng = random.Random(4242)
    feasible_seen = infeasible_seen = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(0, 4)
        rows = [
            tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(m)
        ]
        strict = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        out = rational_lp_feasibility(rows, strict)
        if isinstance(out, FeasiblePoint):
            feasible_seen += 1
            lam = out.lam
            assert all(x >= 0 for x in lam)
            assert all(dot(r, lam) >= 0 for r in rows)
            assert dot(strict, lam) > 0
        else:
            infeasible_seen += 1
            v = out.coefficients
            assert len(v) == m
            assert all(x >= 0 for x in v)
            for j in range(n):
                combo = sum(vi * r[j] for vi, r in zip(v, rows)) + strict[j]
                assert combo <= 0
    assert feasible_seen and infeasible_seen


def test_checks_reject_corrupted_answers():
    rows = [(F(3), F(-1))]
    strict = (F(1), F(1))
    _check_point(rows, strict, (F(1), F(3)))
    with pytest.raises(CertificateError):
        _check_point(rows, strict, (F(1), F(4)))  # 3 - 4 < 0
    with pytest.raises(CertificateError):
        _check_point(rows, strict, (F(0), F(0)))  # strict row not positive
    neg = [(F(-1), F(-1))]
    _check_ray(neg, strict, (F(1),))
    with pytest.raises(CertificateError):
        _check_ray(neg, strict, (Fraction(1, 2),))  # -1/2 + 1 > 0
    with pytest.raises(CertificateError):
        _check_ray(neg, strict, (F(-1),))


def test_checks_reject_corrupted_answers_on_int_rows():
    """The checks scale a point or a ray to integers; a corrupted one still fails."""
    Q = Fraction
    rows = [(3, -1), (-1, 2)]
    strict = (1, 1)
    _check_point(rows, strict, (Q(1, 3), Q(1, 2)))  # row sums 1/2 and 2/3
    corrupted = [(Q(1, 3), Q(5, 4)), (Q(1, 2), Q(1, 5)), (Q(-1, 2), Q(1, 3)), (Q(0), Q(0))]
    for lam in corrupted:
        with pytest.raises(CertificateError):
            _check_point(rows, strict, lam)
    neg = [(-2, -1), (0, -3)]
    _check_ray(neg, strict, (Q(1, 2), Q(1, 3)))  # v^T R + strict = (0, -1/2)
    corrupted = [(Q(1, 2), Q(1, 7)), (Q(1, 3), Q(1, 3)), (Q(-1), Q(2)), (Q(0), Q(0))]
    for v in corrupted:
        with pytest.raises(CertificateError):
            _check_ray(neg, strict, v)


def test_int_rows_match_rows_divided_by_a_constant():
    """Dividing row i by L_i > 0 keeps the point and multiplies the ray's i-th coefficient by L_i."""
    rng = random.Random(1968)
    kinds = {"point": 0, "ray": 0}
    for case in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 10)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        strict = (1,) * n if case % 2 else tuple(rng.randint(-2, 3) for _ in range(n))
        scales = [rng.randint(1, 12) for _ in range(m)]
        divided = [tuple(Fraction(x, s) for x in r) for r, s in zip(rows, scales)]
        got = rational_lp_feasibility(rows, strict)
        want = rational_lp_feasibility(divided, strict)
        assert type(got) is type(want), case
        if isinstance(got, FeasiblePoint):
            assert got.lam == want.lam, case
            kinds["point"] += 1
        else:
            assert want.coefficients == tuple(
                s * v for s, v in zip(scales, got.coefficients)
            ), case
            kinds["ray"] += 1
    assert min(kinds.values()) >= 50, kinds


def reference_lp(rows, strict_row):
    """The dense-Fraction phase-1 simplex that `rational_lp_feasibility` replaced.

    Same standard form and Bland's rule, but it prices every column
    against the original matrix with multipliers c_B B^{-1} rebuilt each
    iteration, and divides in Fractions.  Returns ("point", lam) or
    ("ray", coefficients), unchecked.
    """
    n, m = len(strict_row), len(rows)
    ncols, nrows = n + m + 1, m + 1
    matrix = []
    for i, r in enumerate(rows):
        row = [-F(x) for x in r] + [F(0)] * (m + 1)
        row[n + i] = F(1)
        matrix.append(row)
    last = [F(x) for x in strict_row] + [F(0)] * (m + 1)
    last[n + m] = F(1)
    matrix.append(last)
    rhs = [F(0)] * m + [F(1)]
    cost = [F(0)] * ncols
    cost[n + m] = F(1)
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
        lam = [F(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                lam[b] = tableau[i][-1]
        return "point", tuple(lam)
    y = multipliers()
    return "ray", tuple(-y[i] / y[m] for i in range(m))


def _random_entry(rng, den):
    return Fraction(rng.randint(-4, 4), rng.randint(1, den))


def _kinds_matching_the_reference(systems) -> dict:
    """Assert equal lam and equal Farkas coefficients on every system; count each kind."""
    kinds = {"point": 0, "ray": 0}
    for case, (rows, strict) in enumerate(systems):
        kind, want = reference_lp(rows, strict)
        got = rational_lp_feasibility(rows, strict)
        if kind == "point":
            assert isinstance(got, FeasiblePoint) and got.lam == want, case
        else:
            assert isinstance(got, FarkasRay) and got.coefficients == want, case
        kinds[kind] += 1
    return kinds


def _fraction_system(rng, case):
    n = rng.randint(1, 7)
    m = 0 if case % 10 == 0 else rng.randint(1, 12)
    den = 1 + case % 6  # denominators 1..6
    rows = [tuple(_random_entry(rng, den) for _ in range(n)) for _ in range(m)]
    if m and case % 3 == 0:
        # repeated and scaled rows make ties in the ratio test
        rows += [tuple(2 * x for x in rng.choice(rows)) for _ in range(rng.randint(1, 3))]
    if case % 7 == 0:
        strict = tuple(F(0) for _ in range(n))
    else:
        strict = tuple(_random_entry(rng, den) for _ in range(n))
    return rows, strict


def test_matches_the_dense_fraction_reference():
    """Same pivots as the dense-Fraction simplex: equal lam and equal Farkas coefficients."""
    rng = random.Random(2009)
    kinds = _kinds_matching_the_reference(_fraction_system(rng, case) for case in range(300))
    assert min(kinds.values()) >= 50, kinds


def _wide_system(rng, case):
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
    return rows, (1,) * n


def test_matches_the_dense_fraction_reference_on_wide_int_rows():
    """Same pivots as the dense-Fraction simplex on the inverse solver's tableau sizes."""
    rng = random.Random(1968)
    systems = [_wide_system(rng, case) for case in range(44)]
    assert sum(any(abs(x) > 2**200 for r in rows for x in r) for rows, _ in systems) >= 4
    kinds = _kinds_matching_the_reference(systems)
    assert min(kinds.values()) >= 20, kinds
