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
