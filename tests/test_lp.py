import random
from fractions import Fraction

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

from lp_reference import answer_kind, fraction_system, wide_system


def test_feasible_example():
    out = rational_lp_feasibility([(3, -1)], 2)
    assert isinstance(out, FeasiblePoint)
    lam = out.lam
    assert all(x >= 0 for x in lam)
    assert 3 * lam[0] - lam[1] >= 0
    assert lam[0] + lam[1] == 1


def test_infeasible_example():
    out = rational_lp_feasibility([(-1, -1)], 2)
    assert isinstance(out, FarkasRay)
    (v,) = out.coefficients
    assert v >= 0
    # v * row <= -1 componentwise
    assert v * -1 + 1 <= 0


def test_no_constraints():
    """With no rows, Bland's rule enters lam_0 and the normalization puts all weight on it."""
    assert rational_lp_feasibility([], 2) == FeasiblePoint((1, 0))


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        rational_lp_feasibility([(1,)], 2)


@pytest.mark.parametrize("n", [-1, 2.0, True, None], ids=repr)
def test_a_variable_count_that_is_not_an_int_at_least_0_is_rejected(n):
    with pytest.raises(ValidationError):
        rational_lp_feasibility([], n)


def test_inputs_are_checked_row_by_row():
    """Each row's length and then its entries, row by row."""
    with pytest.raises(ValidationError):
        rational_lp_feasibility([(True, 1), (1,)], 2)
    with pytest.raises(DimensionError):
        rational_lp_feasibility([(1,), (True, 1)], 2)


@pytest.mark.parametrize("entry", [Fraction(1), Fraction(1, 2), 1.0, True], ids=repr)
def test_an_entry_that_is_not_an_int_is_rejected(entry):
    """A row entry must be an int; nothing is converted."""
    with pytest.raises(ValidationError):
        rational_lp_feasibility([(1, -1), (entry, 2)], 2)


def test_random_systems_one_branch_verifies():
    rng = random.Random(4242)
    feasible_seen = infeasible_seen = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(0, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
        out = rational_lp_feasibility(rows, n)
        if isinstance(out, FeasiblePoint):
            feasible_seen += 1
            lam = out.lam
            assert all(x >= 0 for x in lam)
            assert all(dot(r, lam) >= 0 for r in rows)
            assert sum(lam) == 1
        else:
            infeasible_seen += 1
            v = out.coefficients
            assert len(v) == m
            assert all(x >= 0 for x in v)
            for j in range(n):
                assert sum(vi * r[j] for vi, r in zip(v, rows)) <= -1
    assert feasible_seen and infeasible_seen


def test_checks_reject_corrupted_answers():
    """A point or a ray is given as numerators over a positive denominator."""
    rows = [(3, -1)]
    _check_point(rows, (1, 3), 4)
    with pytest.raises(CertificateError):
        _check_point(rows, (1, 4), 5)  # 3 - 4 < 0
    with pytest.raises(CertificateError):
        _check_point(rows, (1, 3), 1)  # the weights sum to 4, not 1
    with pytest.raises(CertificateError):
        _check_point(rows, (0, 0), 1)  # not normalized
    neg = [(-1, -1)]
    _check_ray(neg, 2, (1,), 1)
    with pytest.raises(CertificateError):
        _check_ray(neg, 2, (1,), 2)  # -1/2 + 1 > 0
    with pytest.raises(CertificateError):
        _check_ray(neg, 2, (-1,), 1)
    with pytest.raises(CertificateError):
        _check_ray([], 2, (), 1)  # no rows: 0 > -1


def test_checks_reject_corrupted_answers_on_int_rows():
    """The checks read a point or a ray in integers; a corrupted one still fails."""
    rows = [(3, -1), (-1, 2)]
    _check_point(rows, (2, 3), 5)  # (2/5, 3/5): row sums 3/5 and 4/5
    # (1/5, 4/5), (5/6, 1/6), (-1/2, 3/2), (1/3, 1/2), (0, 0)
    corrupted = [((1, 4), 5), ((5, 1), 6), ((-1, 3), 2), ((2, 3), 6), ((0, 0), 1)]
    for lam, den in corrupted:
        with pytest.raises(CertificateError):
            _check_point(rows, lam, den)
    neg = [(-2, -1), (0, -3)]
    _check_ray(neg, 2, (3, 2), 6)  # (1/2, 1/3): v^T R + 1 = (0, -1/2)
    # (1/2, 1/7), (1/3, 1/3), (-1, 2), (0, 0)
    corrupted = [((7, 2), 14), ((1, 1), 3), ((-1, 2), 1), ((0, 0), 1)]
    for v, den in corrupted:
        with pytest.raises(CertificateError):
            _check_ray(neg, 2, v, den)


def test_checks_reject_a_denominator_that_is_not_positive():
    """Numerators that pass over a positive denominator fail over 0 or a negative one.

    The point's numerators must sum to the denominator, so only the zero
    point can meet that over 0.
    """
    rows = [(3, -1)]
    with pytest.raises(CertificateError):
        _check_point(rows, (0, 0), 0)
    for den in (0, -1):
        with pytest.raises(CertificateError):
            _check_ray([(-1, -1)], 2, (1,), den)


def test_int_rows_match_rows_divided_by_a_constant():
    """Multiplying row i by an int s_i > 0 keeps the point and divides the ray's i-th coefficient by s_i."""
    rng = random.Random(1968)
    kinds = {"point": 0, "ray": 0}
    for case in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 10)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        scales = [rng.randint(1, 12) for _ in range(m)]
        multiplied = [tuple(s * x for x in r) for r, s in zip(rows, scales)]
        got = rational_lp_feasibility(multiplied, n)
        want = rational_lp_feasibility(rows, n)
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


def _kinds_matching_the_reference(systems) -> dict:
    """Assert the program's answer on each (rows, n) is the reference's; count each kind."""
    kinds = {"point": 0, "ray": 0}
    for case, (rows, n) in enumerate(systems):
        kind = answer_kind(rows, n)
        assert kind, case
        kinds[kind] += 1
    return kinds


def test_matches_the_dense_fraction_reference():
    """Same pivots as the dense-Fraction simplex on Fraction systems scaled to ints."""
    rng = random.Random(2009)
    kinds = _kinds_matching_the_reference(fraction_system(rng, case) for case in range(300))
    assert min(kinds.values()) >= 50, kinds


def test_matches_the_dense_fraction_reference_on_wide_int_rows():
    """Same pivots as the dense-Fraction simplex on the inverse solver's tableau sizes."""
    rng = random.Random(1968)
    systems = [wide_system(rng, case) for case in range(44)]
    assert sum(any(abs(x) > 2**200 for r in rows for x in r) for rows, _ in systems) >= 4
    kinds = _kinds_matching_the_reference(systems)
    assert min(kinds.values()) >= 20, kinds
