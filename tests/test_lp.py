import random
from fractions import Fraction
from math import lcm

import pytest

from gravernash import (
    CertificateError,
    DimensionError,
    FarkasRay,
    FeasiblePoint,
    ValidationError,
    rational_lp_feasibility,
)
from gravernash.linalg import dot
from gravernash.lp import _check_point, _check_ray

from conftest import reference_lp


def test_feasible_example():
    out = rational_lp_feasibility([(3, -1)], (1, 1))
    assert isinstance(out, FeasiblePoint)
    lam = out.lam
    assert all(x >= 0 for x in lam)
    assert 3 * lam[0] - lam[1] >= 0
    assert lam[0] + lam[1] > 0


def test_infeasible_example():
    out = rational_lp_feasibility([(-1, -1)], (1, 1))
    assert isinstance(out, FarkasRay)
    (v,) = out.coefficients
    assert v >= 0
    # v * row + strict <= 0 componentwise
    assert v * -1 + 1 <= 0


def test_no_constraints():
    out = rational_lp_feasibility([], (1, 0))
    assert isinstance(out, FeasiblePoint)
    assert dot(out.lam, (1, 0)) > 0


def test_no_constraints_infeasible():
    out = rational_lp_feasibility([], (-1, 0))
    assert isinstance(out, FarkasRay)
    assert out.coefficients == ()


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        rational_lp_feasibility([(1,)], (1, 1))


def test_inputs_are_checked_row_by_row():
    """The strict row first, then each row's length and then its entries, row by row."""
    with pytest.raises(ValidationError):
        rational_lp_feasibility([(True, 1), (1,)], (1, 1))
    with pytest.raises(DimensionError):
        rational_lp_feasibility([(1,), (True, 1)], (1, 1))
    with pytest.raises(ValidationError):
        rational_lp_feasibility([(1,)], (1, True))


@pytest.mark.parametrize("entry", [Fraction(1), Fraction(1, 2), 1.0, True], ids=repr)
def test_an_entry_that_is_not_an_int_is_rejected(entry):
    """A row or strict-row entry must be an int; nothing is converted."""
    with pytest.raises(ValidationError):
        rational_lp_feasibility([(1, -1), (entry, 2)], (1, 1))
    with pytest.raises(ValidationError):
        rational_lp_feasibility([(1, -1)], (1, entry))


def test_random_systems_one_branch_verifies():
    rng = random.Random(4242)
    feasible_seen = infeasible_seen = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(0, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
        strict = tuple(rng.randint(-3, 3) for _ in range(n))
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
    """A point or a ray is given as numerators over a positive denominator."""
    rows = [(3, -1)]
    strict = (1, 1)
    _check_point(rows, strict, (1, 3), 1)
    with pytest.raises(CertificateError):
        _check_point(rows, strict, (1, 4), 1)  # 3 - 4 < 0
    with pytest.raises(CertificateError):
        _check_point(rows, strict, (0, 0), 1)  # strict row not positive
    neg = [(-1, -1)]
    _check_ray(neg, strict, (1,), 1)
    with pytest.raises(CertificateError):
        _check_ray(neg, strict, (1,), 2)  # -1/2 + 1 > 0
    with pytest.raises(CertificateError):
        _check_ray(neg, strict, (-1,), 1)


def test_checks_reject_corrupted_answers_on_int_rows():
    """The checks read a point or a ray in integers; a corrupted one still fails."""
    rows = [(3, -1), (-1, 2)]
    strict = (1, 1)
    _check_point(rows, strict, (2, 3), 6)  # (1/3, 1/2): row sums 1/2 and 2/3
    # (1/3, 5/4), (1/2, 1/5), (-1/2, 1/3), (0, 0)
    corrupted = [((4, 15), 12), ((5, 2), 10), ((-3, 2), 6), ((0, 0), 1)]
    for lam, den in corrupted:
        with pytest.raises(CertificateError):
            _check_point(rows, strict, lam, den)
    neg = [(-2, -1), (0, -3)]
    _check_ray(neg, strict, (3, 2), 6)  # (1/2, 1/3): v^T R + strict = (0, -1/2)
    # (1/2, 1/7), (1/3, 1/3), (-1, 2), (0, 0)
    corrupted = [((7, 2), 14), ((1, 1), 3), ((-1, 2), 1), ((0, 0), 1)]
    for v, den in corrupted:
        with pytest.raises(CertificateError):
            _check_ray(neg, strict, v, den)


def test_checks_reject_a_denominator_that_is_not_positive():
    """Numerators that pass over a positive denominator fail over 0 or a negative one."""
    rows = [(3, -1)]
    strict = (1, 1)
    for den in (0, -1):
        with pytest.raises(CertificateError):
            _check_point(rows, strict, (1, 3), den)
        with pytest.raises(CertificateError):
            _check_ray([(-1, -1)], strict, (1,), den)


def test_int_rows_match_rows_divided_by_a_constant():
    """Multiplying row i by an int s_i > 0 keeps the point and divides the ray's i-th coefficient by s_i."""
    rng = random.Random(1968)
    kinds = {"point": 0, "ray": 0}
    for case in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 10)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        strict = (1,) * n if case % 2 else tuple(rng.randint(-2, 3) for _ in range(n))
        scales = [rng.randint(1, 12) for _ in range(m)]
        multiplied = [tuple(s * x for x in r) for r, s in zip(rows, scales)]
        got = rational_lp_feasibility(multiplied, strict)
        want = rational_lp_feasibility(rows, strict)
        assert type(got) is type(want), case
        if isinstance(got, FeasiblePoint):
            assert got.lam == want.lam, case
            kinds["point"] += 1
        else:
            assert got.coefficients == tuple(
                v / s for s, v in zip(scales, want.coefficients)
            ), case
            kinds["ray"] += 1
    assert min(kinds.values()) >= 50, kinds


def _random_entry(rng, den):
    return Fraction(rng.randint(-4, 4), rng.randint(1, den))


def _integral(row):
    """(s, s*row) for the lcm s of the denominators of row's entries, in ints."""
    s = lcm(*(Fraction(x).denominator for x in row))
    return s, tuple(int(s * x) for x in row)


def _kinds_matching_the_reference(systems) -> dict:
    """Assert the program's answer on each system, scaled to ints, is the reference's; count each kind.

    The program gets row i times the lcm s_i of its denominators and the
    strict row times its own lcm s.  That moves no pivot, so its point
    times s is the reference's, and its coefficient for row i times
    s_i / s is the reference's.
    """
    kinds = {"point": 0, "ray": 0}
    for case, (rows, strict) in enumerate(systems):
        kind, want = reference_lp(rows, strict)
        scaled = [_integral(r) for r in rows]
        s, int_strict = _integral(strict)
        got = rational_lp_feasibility([r for _, r in scaled], int_strict)
        if kind == "point":
            assert isinstance(got, FeasiblePoint), case
            assert tuple(s * x for x in got.lam) == want, case
        else:
            assert isinstance(got, FarkasRay), case
            assert tuple(
                Fraction(si, s) * v for (si, _), v in zip(scaled, got.coefficients)
            ) == want, case
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
        strict = tuple(Fraction(0) for _ in range(n))
    else:
        strict = tuple(_random_entry(rng, den) for _ in range(n))
    return rows, strict


def test_matches_the_dense_fraction_reference():
    """Same pivots as the dense-Fraction simplex on Fraction systems scaled to ints."""
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
