import itertools
import json
from pathlib import Path

import pytest

from gravernash import (
    GameInstance,
    InfeasibleError,
    IntMatrix,
    IpInstance,
    PlayerSpec,
    ResourceCapExceeded,
    StrategyProfile,
    brute_graver,
    brute_ip_opt,
    brute_nash_check,
    check_graver,
    enumerate_box_points,
    graver_basis,
)
from gravernash.errors import ValidationError
from gravernash.nfold import NfoldSpec, build_nash_matrix

from conftest import identity_matrix, squares_objective, zero_matrix


def test_enumerate_box_points():
    with pytest.raises(ValidationError):
        enumerate_box_points((0,), (1, 1))
    pts = enumerate_box_points((0, 0), (1, 1))
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]
    odd = enumerate_box_points((0,), (4,), predicate=lambda p: p[0] % 2 == 1)
    assert odd == [(1,), (3,)]
    with pytest.raises(ResourceCapExceeded):
        enumerate_box_points((0, 0), (9, 9), cap=50)
    # 3^30 points but for one empty range: none, and no cap is passed
    assert enumerate_box_points((-1,) * 30 + (1,), (1,) * 30 + (0,), cap=50) == []


def test_brute_graver_small_cases():
    basis = brute_graver(IntMatrix.from_rows([[1, 1]]), 2)
    assert basis.elements == ((-1, 1), (1, -1))
    wide = brute_graver(IntMatrix.from_rows([[1, 2]]), 2)
    assert set(wide.elements) == {(2, -1), (-2, 1)}
    assert brute_graver(identity_matrix(2), 2).elements == ()


def test_brute_ip_opt():
    inst = IpInstance(
        IntMatrix.from_rows([[1, 1, 1]]), (3,), (3, 3, 3), squares_objective(3)
    )
    value, argmins = brute_ip_opt(inst)
    assert value == 3
    assert argmins == [(1, 1, 1)]
    with pytest.raises(InfeasibleError):
        brute_ip_opt(
            IpInstance(IntMatrix.from_rows([[1, 1]]), (5,), (1, 1), squares_objective(2))
        )


def test_brute_nash_check_two_player_split():
    player = PlayerSpec(
        A=IntMatrix.from_rows([[1, 1]]), b=(1,), u=(1, 1), B=zero_matrix(1, 2)
    )
    game = GameInstance(players=(player, player), b0=(0,), costs=squares_objective(2))
    feasible, minima, equilibria = brute_nash_check(game)
    assert len(feasible) == 4
    split = {
        StrategyProfile(((1, 0), (0, 1))),
        StrategyProfile(((0, 1), (1, 0))),
    }
    assert set(minima) == split
    assert set(equilibria) == split


def test_brute_nash_check_infeasible_game():
    player = PlayerSpec(
        A=IntMatrix.from_rows([[1, 1]]), b=(1,), u=(1, 1),
        B=IntMatrix.from_rows([[1, 1]]),
    )
    game = GameInstance(players=(player,), b0=(0,), costs=squares_objective(2))
    assert brute_nash_check(game) == ([], [], [])


def _snapshot_cases():
    """(name, matrix, elements) per reference basis; a nash case's matrix declares its bricks."""
    path = Path(__file__).parent / "data" / "reference_bases.json"
    for case in json.loads(path.read_text()):
        if "N" in case:
            spec = NfoldSpec(IntMatrix.from_rows(case["A"]), IntMatrix.from_rows(case["B"]), case["N"])
            mat = build_nash_matrix(spec)
        else:
            mat = IntMatrix.from_rows(case["rows"])
        yield case["name"], mat, [tuple(g) for g in case["elements"]]


def _orbit(mat, g):
    """Every image of ±g under the permutations of mat's one brick class, if it has one."""
    blocks = mat.bricks[0] if mat.bricks else ((),)
    images = set()
    for order in itertools.permutations(blocks):
        image = list(g)
        for block, source in zip(blocks, order):
            for j, i in zip(block, source):
                image[j] = g[i]
        images |= {tuple(image), tuple(-a for a in image)}
    return images


def test_check_graver_accepts_every_snapshot_basis():
    cases = list(_snapshot_cases())
    assert len(cases) == 75
    for name, mat, elements in cases:
        assert check_graver(mat, elements), name


def test_check_graver_rejects_a_dropped_element_and_a_dropped_orbit():
    """Each one-element drop and each one-orbit drop, with bricks and without."""
    nash = build_nash_matrix(
        NfoldSpec(IntMatrix.from_rows([[1, 1, 1]]), IntMatrix.from_rows([[1, 2, 0]]), 3)
    )
    for mat in (nash, IntMatrix.from_rows([[1, 1, 1, 1], [0, 1, 2, 3]]), IntMatrix.from_rows([[2, -1, 3]])):
        elements = list(graver_basis(mat).elements)
        assert check_graver(mat, elements)
        orbits = set()
        for k, g in enumerate(elements):
            assert not check_graver(mat, elements[:k] + elements[k + 1 :]), (mat, g)
            orbits.add(frozenset(_orbit(mat, g)))
        assert sum(map(len, orbits)) == len(elements)
        for orbit in orbits:
            assert not check_graver(mat, [g for g in elements if g not in orbit]), (mat, orbit)
        assert len(orbits) > 1


def test_check_graver_rejects_an_added_non_minimal_sum():
    """The sum of two sign-compatible elements, added with its whole orbit, is caught."""
    nash = build_nash_matrix(
        NfoldSpec(IntMatrix.from_rows([[1, -1, 2]]), IntMatrix.from_rows([[1, 1, 0]]), 2)
    )
    for mat in (nash, IntMatrix.from_rows([[1, 2, 3]])):
        elements = list(graver_basis(mat).elements)
        f, g = next(
            (f, g) for f in elements for g in elements
            if f != g and all(a * b >= 0 for a, b in zip(f, g))
        )
        added = _orbit(mat, tuple(a + b for a, b in zip(f, g)))
        assert not added & set(elements)
        assert not check_graver(mat, elements + sorted(added)), mat


def test_check_graver_rejects_malformed_families():
    mat = IntMatrix.from_rows([[1, 1, 1]])
    elements = list(graver_basis(mat).elements)
    assert not check_graver(mat, elements + elements[:1])  # a repeated element
    assert not check_graver(mat, elements + [(0, 0, 0)])
    assert not check_graver(mat, elements + [(1, 1, 1), (-1, -1, -1)])  # not in the kernel
    assert check_graver(identity_matrix(2), [])
    assert not check_graver(mat, [])  # generates no lattice
    for bad in ([(1, -1)], [(1, -1, 0.0)], [(1, -1, True)]):
        with pytest.raises(ValidationError):
            check_graver(mat, bad)
    with pytest.raises(ResourceCapExceeded):
        check_graver(mat, elements, cap=2)
