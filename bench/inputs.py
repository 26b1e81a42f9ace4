"""Seeded input generation for the three benchmark workloads.

Everything here is plain data (lists, ints, cost specs in the CLI's JSON
form) built with the standard library only, so the inputs of a seed do
not change when the program under test changes.  The same seed always
gives the same inputs.

A round is the list of operations one workload runs; every operation of
a round is a dict with a ``kind`` and its inputs.
"""

from __future__ import annotations

import random

# The three (A, B) pairs of the N-fold growth experiments.
PAIRS = (
    ([[1, 1]], [[1, 0]]),
    ([[1, 1, 1]], [[1, 2, 0]]),
    ([[1, -1, 2]], [[1, 1, 0]]),
)

# Random equilibrium games per (players, resources, phase-1 kernel
# dimension), in about the shares the generator draws them (see
# phase1_dim), and same-type games on the first two pairs at N = 2.  As
# many operations cost more than the dimension-3 games as cost less, so
# the median falls in their middle; the 90th percentile falls among the
# 50 first-pair games, which all cost the same.  Fixing the count of
# every cell keeps a seed's mix of cheap and dear games the same.
GAME_STRATA = {
    (1, 1, 1): 16, (1, 2, 1): 8, (2, 1, 1): 10, (3, 1, 1): 6,
    (1, 1, 2): 20, (1, 2, 2): 18, (1, 3, 2): 8, (2, 1, 2): 18, (2, 2, 2): 4, (3, 1, 2): 12,
    (1, 2, 3): 60, (1, 3, 3): 48, (2, 1, 3): 48, (2, 2, 3): 28, (3, 1, 3): 52, (3, 2, 3): 4,
    (1, 3, 4): 12, (2, 2, 4): 10, (2, 3, 4): 2, (3, 1, 4): 12, (3, 2, 4): 4,
    (2, 2, 5): 12, (2, 3, 5): 6, (3, 2, 5): 12,
}
PAIR_GAMES = (50, 1)
# The games of the largest phase-1 dimension cost 5-100 ms each, and by
# which of them a seed drew a round's total moved by 6%; they are drawn
# from a fixed seed, the same for every seed.
TAIL_DIM = 5

# nfold-graver: fixed pairs at growing N, then random pads by (n, N).
PAIR_NS = ((1, 2, 3, 4, 5, 6), (1, 2, 3, 4), (1, 2, 3))
PAD_STRATA = {(3, 1): 30, (2, 2): 30, (2, 3): 60, (2, 4): 25, (2, 5): 35}

# inverse-cli: instances on the equilibrium matrices of the pairs at N = 2,
# on catalogue matrices (RANDOM_PER_MATRIX each), planted-yes instances on
# catalogue rows, and the no-family.  Above the cheapest few, the other
# families' costs spread evenly from 6 ms to 0.4 s, so a median among them
# would move 1.5% per rank.  MEDIAN_INSTANCES more instances on the one
# catalogue matrix MEDIAN_MATRIX, which all cost about the same and spend
# about three quarters of their time in the simplex, are half the round,
# so that the median falls among them.
NASH_INSTANCES = (24, 12, 12)
CATALOGUE_SHAPES = ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6))
CATALOGUE_PER_SHAPE = 3
RANDOM_PER_MATRIX = 8
MEDIAN_MATRIX, MEDIAN_INSTANCES = 1, 250
PLANTED_YES = 60
# The dearest families, the instances on the second and third pairs'
# matrices and on the 1x7 and 2x6 catalogue matrices (0.04-0.33 s each),
# hold the 90th percentile.  Their instances are drawn from a fixed seed,
# as the catalogue is, so that the percentile does not hinge on which of
# them a seed drew: drawn by the seed, it spread 9.5% over ten seeds.
TAIL_PAIRS = (1, 2)
TAIL_SHAPES = ((1, 7), (2, 6))
NO_FAMILY = (2, 3, 4)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def matvec(rows, x) -> list[int]:
    return [dot(r, x) for r in rows]


# ---------------------------------------------------------------------------
# costs, as the CLI spells them


def quadratic(a, b, c) -> dict:
    return {"kind": "quadratic", "a": str(a), "b": str(b), "c": str(c)}


def convex_cost(rng: random.Random) -> dict:
    """Mixed convex nondecreasing costs, drawn as the acceptance games draw them."""
    pick = rng.random()
    if pick < 0.5:
        return quadratic(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
    if pick < 0.8:
        return {"kind": "affine", "a": str(rng.randint(0, 3)), "b": str(rng.randint(0, 2))}
    return {"kind": "power", "a": str(rng.randint(0, 2)), "k": rng.randint(1, 3)}


def ray(rng: random.Random) -> dict:
    """An increasing linear shape for the inverse problem.

    Bland's simplex takes a number of pivots that varies far less from
    instance to instance on linear shapes than on parabolas (a coefficient
    of variation of about 0.25 against 0.6 on the same matrices), so a
    seed's total depends little on which instances it drew.
    """
    return {"kind": "affine", "a": str(rng.randint(1, 3)), "b": "0"}


# ---------------------------------------------------------------------------
# equilibrium


def random_game(rng: random.Random) -> dict:
    """1-3 players, 1-3 resources, one coupling row, a planted feasible profile."""
    num_players = rng.randint(1, 3)
    n = rng.randint(1, 3)
    players = []
    load = 0
    for _ in range(num_players):
        u = [rng.randint(0, 2) for _ in range(n)]
        a = [rng.randint(0, 1) for _ in range(n)]
        witness = [rng.randint(0, ui) for ui in u]
        coupling = [rng.randint(0, 1) for _ in range(n)]
        players.append({"A": [a], "b": [dot(a, witness)], "u": u, "B": [coupling]})
        load += dot(coupling, witness)
    costs = [convex_cost(rng) for _ in range(n)]
    return {"players": players, "b0": [load + rng.randint(0, 1)], "costs": costs}


def phase1_dim(game: dict) -> int:
    """Kernel dimension of the phase-1 matrix [D | +-e_i] of a game.

    D has N*n + n + 1 columns and rank n + 1 + (players with A != 0);
    phase 1 adds one column per nonzero right-hand side.  Completion
    cost grows steeply with this number, so it sorts games by cost
    without running them.
    """
    players = game["players"]
    n = len(players[0]["u"])
    kernel = len(players) * n - sum(1 for p in players if any(p["A"][0]))
    hot = sum(1 for p in players if p["b"][0]) + (1 if game["b0"][0] else 0)
    return kernel + hot


def pair_game(rng: random.Random, pair) -> dict:
    """Two-player game on a fixed (A, B) pair with every right-hand side nonzero.

    Nonzero right-hand sides fix the phase-1 matrix, so these games cost
    the same on every seed.
    """
    a, b = pair
    n = len(a[0])
    players = []
    load = 0
    for _ in range(2):
        u = [rng.randint(1, 3) for _ in range(n)]
        witness = [0] * n
        while not dot(a[0], witness):
            witness = [rng.randint(0, ui) for ui in u]
        players.append({"A": a, "b": matvec(a, witness), "u": u, "B": b})
        load += dot(b[0], witness)
    b0 = load + (1 if load == 0 else rng.randint(0, 1))
    costs = [quadratic(1, rng.randint(0, 2), 0) for _ in range(n)]
    return {"players": players, "b0": [b0], "costs": costs}


def equilibrium_round(seed: int) -> list[dict]:
    rng = rng_for("equilibrium", seed)
    games = []
    for draw, tail in ((random.Random("equilibrium/tail"), True), (rng, False)):
        need = {cell: n for cell, n in GAME_STRATA.items() if (cell[2] == TAIL_DIM) == tail}
        while any(need.values()):
            game = random_game(draw)
            dim = phase1_dim(game)
            cell = (len(game["players"]), len(game["costs"]), dim)
            if need.get(cell, 0):
                need[cell] -= 1
                games.append({"kind": "random", "dim": dim, "game": game})
    for pair, count in zip(PAIRS, PAIR_GAMES):
        for _ in range(count):
            games.append({"kind": "pair", "game": pair_game(rng, pair)})
    rng.shuffle(games)
    return games


# ---------------------------------------------------------------------------
# nfold-graver


def nfold_round(seed: int) -> list[dict]:
    rng = rng_for("nfold-graver", seed)
    ops = []
    for (a, b), ns in zip(PAIRS, PAIR_NS):
        for big_n in ns:
            ops.append({"kind": "pair", "A": a, "B": b, "N": big_n})
    seen = {(str(op["A"]), str(op["B"]), op["N"]) for op in ops}
    for (n, big_n), count in PAD_STRATA.items():
        while count:
            a = [rng.randint(-2, 2) for _ in range(n)]
            b = [rng.randint(-2, 2) for _ in range(n)]
            key = (str([a]), str([b]), big_n)
            if any(a) and key not in seen:  # every matrix of the round is distinct
                seen.add(key)
                ops.append({"kind": "pad", "A": [a], "B": [b], "N": big_n})
                count -= 1
    rng.shuffle(ops)
    return ops


def nash_matrix(a, b, big_n: int) -> list[list[int]]:
    """Equilibrium matrix of N same-type players: columns x^1..x^N, y, s.

    Rows: sum_i x^i - y = 0, sum_i B x^i + s = b0, then A x^i = b per player.
    """
    n, m, d = len(a[0]), len(b), len(a)
    width = big_n * n + n + m
    rows = []
    for j in range(n):
        row = [0] * width
        for i in range(big_n):
            row[i * n + j] = 1
        row[big_n * n + j] = -1
        rows.append(row)
    for r in range(m):
        row = [0] * width
        for i in range(big_n):
            row[i * n : (i + 1) * n] = b[r]
        row[big_n * n + n + r] = 1
        rows.append(row)
    for i in range(big_n):
        for r in range(d):
            row = [0] * width
            row[i * n : (i + 1) * n] = a[r]
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# inverse-cli


def _inverse_instance(kind, rows, u, xstar, shapes) -> dict:
    d = matvec(rows, xstar)
    return {"kind": kind, "D": rows, "d": d, "u": u, "xstar": xstar, "shapes": shapes}


def _nash_point(rng, pair, big_n: int):
    """Box and interior point for the equilibrium matrix of a pair."""
    a, b = pair
    n = len(a[0])
    xs, us = [], []
    for _ in range(big_n):
        us.append([rng.randint(3, 5) for _ in range(n)])
        xs.append([rng.randint(1, ui - 1) for ui in us[-1]])
    y = [sum(x[j] for x in xs) for j in range(n)]
    load = sum(dot(b[0], x) for x in xs)
    # slack bound covers the most negative coupling load, as game.py sets it
    least = sum(min(0, b[0][j] * u[j]) for u in us for j in range(n))
    b0 = load + rng.randint(1, 2)
    s = b0 - load
    u_full = [v for u in us for v in u] + [sum(u[j] for u in us) for j in range(n)]
    u_full.append(max(s + 1, b0 - least))
    return u_full, [v for x in xs for v in x] + y + [s]


def no_family(n: int) -> dict:
    """Instances with verdict "no": (y-2)^2 pulls every coordinate off x* but one."""
    away = quadratic(1, -4, 4)
    return {
        "kind": "no-family",
        "D": [[1, 1] + [0] * (n - 2)],
        "d": [2],
        "u": [2] * n,
        "xstar": [1, 1] + [0] * (n - 2),
        "shapes": [away, quadratic(1, 0, 0)] + [away] * (n - 2),
    }


def catalogue() -> list[list[list[int]]]:
    """Random matrices with entries in [-2, 2], the same for every seed.

    Their Graver bases range from 14 to 96 elements, so a seed that drew
    its own matrices would have its total set by which ones it drew; the
    seed draws the instances on them instead.
    """
    rng = random.Random("inverse-cli/catalogue")
    matrices = []
    for r, k in CATALOGUE_SHAPES:
        for _ in range(CATALOGUE_PER_SHAPE):
            rows = [[0] * k]
            while not all(any(row) for row in rows):
                rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)]
            matrices.append(rows)
    return matrices


def _box_point(rng, k):
    u = [rng.randint(3, 5) for _ in range(k)]
    return u, [rng.randint(1, ui - 1) for ui in u]


def inverse_round(seed: int) -> list[dict]:
    rng = rng_for("inverse-cli", seed)
    tail = random.Random("inverse-cli/tail")

    def draw_for(rows):
        return tail if (len(rows), len(rows[0])) in TAIL_SHAPES else rng

    ops = []
    for i, (pair, count) in enumerate(zip(PAIRS, NASH_INSTANCES)):
        rows = nash_matrix(pair[0], pair[1], 2)
        draw = tail if i in TAIL_PAIRS else rng
        for _ in range(count):
            u, xstar = _nash_point(draw, pair, 2)
            ops.append(_inverse_instance("nash", rows, u, xstar, [ray(draw) for _ in u]))
    matrices = catalogue()
    for i, rows in enumerate(matrices):
        draw = draw_for(rows)
        count = RANDOM_PER_MATRIX + (MEDIAN_INSTANCES if i == MEDIAN_MATRIX else 0)
        for _ in range(count):
            u, xstar = _box_point(draw, len(rows[0]))
            ops.append(_inverse_instance("random", rows, u, xstar, [ray(draw) for _ in u]))
    single_rows = [rows for rows in matrices if len(rows) == 1]
    for i in range(PLANTED_YES):
        # parabolas centred on x*: x* minimizes every nonnegative weighting
        rows = single_rows[i % len(single_rows)]
        draw = draw_for(rows)
        u, xstar = _box_point(draw, len(rows[0]))
        weights = [draw.randint(1, 3) for _ in u]
        shapes = [quadratic(w, -2 * w * c, w * c * c) for c, w in zip(xstar, weights)]
        ops.append(_inverse_instance("planted-yes", rows, u, xstar, shapes))
    for n in NO_FAMILY:
        ops.append(no_family(n))
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "equilibrium": equilibrium_round,
    "nfold-graver": nfold_round,
    "inverse-cli": inverse_round,
}
