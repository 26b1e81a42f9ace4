"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gravernash import GameInstance, IntMatrix, PlayerSpec
from gravernash.costs import (
    AffineCost,
    PowerCost,
    QuadraticCost,
    SeparableObjective,
)


def inf_norm(u) -> int:
    return max((abs(a) for a in u), default=0)


def sign_compatible(u, v) -> bool:
    """True iff u_j * v_j >= 0 in every coordinate."""
    return all(a * b >= 0 for a, b in zip(u, v))


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
