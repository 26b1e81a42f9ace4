"""Brute-force reference implementations for tests and acceptance runs.

Everything here shares no logic with the completion procedure or the
augmentation solver (its conformal order, `conformal_leq`, and its
reducer are its own), so it can serve as an independent oracle.  The
enumerations walk integer boxes directly.  A box is given by its bounds:
two integer vectors `lower` and `upper` of one length, holding the
points p with lower <= p <= upper.  Hard caps keep the enumerations at
desk scale.

`check_graver` certifies a claimed Graver basis of a matrix too large
to enumerate, by the completion criterion of the positive sum property
(Hemmecke, Math. Program. 96, 2003).  The CLI's `oracle` command reaches
it as `"op": "graver-check"`.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import InfeasibleError, ResourceCapExceeded, ValidationError
from .game import (
    GameInstance,
    StrategyProfile,
    aggregate_usage,
    is_feasible_profile,
)
from .graver import GraverBasis, check_cap
from .linalg import (
    IntMatrix,
    IntVec,
    _check_same_length,
    all_ints,
    brick_maps,
    is_zero,
    kernel_lattice_basis,
    vadd,
    vneg,
    vsub,
)
from .solver import IpInstance

DEFAULT_POINT_CAP = 10_000_000


def conformal_leq(u: IntVec, v: IntVec) -> bool:
    """Conformal partial order: u_j * v_j >= 0 and |u_j| <= |v_j| everywhere."""
    _check_same_length(u, v)
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))


def _exceeds(counts: Iterable[int], cap: int) -> bool:
    """Whether the product of `counts` passes cap, multiplying only until it does."""
    check_cap(cap)
    counts = list(counts)
    if 0 in counts:
        return False
    total = 1  # the empty product: a 0-dimensional box holds one point
    for count in counts:
        total *= count
        if total > cap:
            break
    return total > cap


def enumerate_box_points(
    lower: IntVec,
    upper: IntVec,
    predicate: Optional[Callable[[IntVec], bool]] = None,
    cap: int = DEFAULT_POINT_CAP,
) -> list[IntVec]:
    """All integer points p with lower <= p <= upper passing the predicate, lexicographic."""
    if len(lower) != len(upper):
        raise ValidationError("box bounds must have equal lengths")
    if _exceeds((max(0, hi - lo + 1) for lo, hi in zip(lower, upper)), cap):
        raise ResourceCapExceeded(f"box holds more than {cap} points, past the cap")
    points = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lower, upper)))
    return [p for p in points if predicate is None or predicate(p)]


def brute_graver(
    mat: IntMatrix, bound: int, cap: int = DEFAULT_POINT_CAP
) -> GraverBasis:
    """Graver basis by definition, restricted to the [-bound, bound] box.

    Enumerates the nonzero kernel points of the box and keeps exactly
    those with no nonzero kernel point strictly below them in the
    conformal order.
    """
    if bound < 0:
        raise ValidationError(f"the box bound must be nonnegative, not {bound}")
    n = mat.ncols
    kernel = enumerate_box_points(
        (-bound,) * n,
        (bound,) * n,
        predicate=lambda p: not is_zero(p) and is_zero(mat.matvec(p)),
        cap=cap,
    )
    minimal = [
        g
        for g in kernel
        if not any(h != g and conformal_leq(h, g) for h in kernel)
    ]
    return GraverBasis(matrix=mat, elements=tuple(sorted(minimal)))


class _SignIndex:
    """Bitsets over a family's elements, one per column and sign.

    Bit k of pos[j] is set iff element k is positive at column j, of
    neg[j] iff it is negative there, so the elements of one sign pattern
    are found with a few big-integer ORs, never a scan of the family.
    """

    def __init__(self, elements: list[IntVec], ncols: int) -> None:
        self.elements = elements
        self.pos, self.neg = [0] * ncols, [0] * ncols
        for k, g in enumerate(elements):
            for j, a in enumerate(g):
                if a > 0:
                    self.pos[j] |= 1 << k
                elif a < 0:
                    self.neg[j] |= 1 << k
        self.every = (1 << len(elements)) - 1

    def _members(self, bits: int) -> list[IntVec]:
        found = []
        while bits:
            low = bits & -bits
            found.append(self.elements[low.bit_length() - 1])
            bits ^= low
        return found

    def nesting(self, z: IntVec) -> list[IntVec]:
        """The elements whose positive support lies in z's and negative support in z's."""
        outside = 0
        for j, a in enumerate(z):
            if a <= 0:
                outside |= self.pos[j]
            if a >= 0:
                outside |= self.neg[j]
        return self._members(self.every & ~outside)

    def opposed(self, f: IntVec) -> list[IntVec]:
        """The elements g with g_j f_j < 0 at some j: those not sign-compatible with f."""
        bits = 0
        for j, a in enumerate(f):
            if a > 0:
                bits |= self.neg[j]
            elif a < 0:
                bits |= self.pos[j]
        return self._members(bits)


def _reduces_to_zero(z: IntVec, index: _SignIndex) -> bool:
    """Whether subtracting an element conformally below z, while one is, reaches 0.

    Every step leaves z - g conformally below z, so an element below a
    later z is below the first: the candidates are collected once.  Each
    agrees in sign with the first z wherever it is nonzero, and so with
    every later z where that is nonzero; it is below a later z exactly
    when its absolute values fit.
    """
    candidates = index.nesting(z)
    while any(z):
        for g in candidates:
            if all(map(operator.le, map(abs, g), map(abs, z))):
                z = tuple(map(operator.sub, z, g))
                break
        else:
            return False
    return True


def check_graver(mat: IntMatrix, elements, cap: int = DEFAULT_POINT_CAP) -> bool:
    """Whether `elements`, without repeats, are exactly the Graver basis of mat.

    F = set(elements) is G(mat) when all of the following hold:
    - every element is a nonzero vector of ker(mat), and F is closed
      under negation and under the group the declared `bricks` generate;
    - F generates the kernel lattice: every vector of a lattice basis
      reduces to 0 by conformal subtraction of elements of F;
    - every sum f + g of f, g in F reduces to 0 the same way.  Then every
      element of ker(mat) is a conformal sum of elements of F, so F holds
      G(mat) (Hemmecke's completion criterion).  A sign-compatible sum is
      such a sum already and is skipped.  Since F is closed under the
      group and negation, it is enough to sum one representative f per
      orbit of ±f with every g;
    - no element of F lies conformally below another one, which again
      needs testing on the representatives only.
    If F holds G(mat), every nonzero kernel vector has an element of F
    below it, so no reduction gets stuck: a true basis is never refused.
    An element that is not an integer vector of mat's width is a
    ValidationError; ResourceCapExceeded, before any reduction, when the
    representatives times |F| pass cap.
    """
    check_cap(cap)
    elements = list(map(tuple, elements))
    for g in elements:
        if len(g) != mat.ncols or not all_ints(g):
            raise ValidationError(f"a Graver element must be {mat.ncols} integers, got {list(g)}")
    family = set(elements)
    if len(family) != len(elements) or any(
        is_zero(g) or not is_zero(mat.matvec(g)) for g in elements
    ):
        return False
    maps = [sigma for blocks in mat.bricks for sigma in brick_maps(blocks, mat.ncols)]
    representatives, seen = [], set()
    for g in sorted(family):
        if g in seen:
            continue
        representatives.append(g)
        orbit = [g]
        seen.add(g)
        for v in orbit:
            for image in [vneg(v), *(tuple(map(v.__getitem__, sigma)) for sigma in maps)]:
                if image not in family:
                    return False
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    if _exceeds((len(representatives), len(family)), cap):
        raise ResourceCapExceeded(
            f"{len(representatives)} representatives times {len(family)} elements pass the cap {cap}"
        )
    index = _SignIndex(elements, mat.ncols)
    if not all(_reduces_to_zero(b, index) for b in kernel_lattice_basis(mat)):
        return False
    for f in representatives:
        # a sign-compatible sum is a conformal sum already
        for g in index.opposed(f):
            if not _reduces_to_zero(tuple(map(operator.add, f, g)), index):
                return False
        if any(g != f and conformal_leq(g, f) for g in index.nesting(f)):
            return False
    return True


def brute_ip_opt(
    inst: IpInstance, cap: int = DEFAULT_POINT_CAP
) -> tuple[Fraction, list[IntVec]]:
    """Exhaustive minimum of the objective over the feasible box points."""
    feasible = enumerate_box_points(
        (0,) * inst.D.ncols, inst.u, predicate=lambda p: inst.D.matvec(p) == inst.d, cap=cap
    )
    if not feasible:
        raise InfeasibleError("no integer point satisfies the constraints")
    values = [(inst.objective.value(p), p) for p in feasible]
    best = min(v for v, _ in values)
    return best, [p for v, p in values if v == best]


def _strategy_set(game: GameInstance, k: int, cap: int) -> list[IntVec]:
    player = game.players[k]
    return enumerate_box_points(
        (0,) * game.n, player.u, predicate=lambda p: player.A.matvec(p) == player.b, cap=cap
    )


def _oracle_satisfied(
    game: GameInstance, profile: StrategyProfile, k: int, strategies: list[IntVec]
) -> bool:
    """Satisfaction by enumeration over player k's alternatives."""
    rivals = vsub(aggregate_usage(profile), profile.strategies[k])
    residual = list(game.b0)
    for i, (p, x) in enumerate(zip(game.players, profile.strategies)):
        if i != k:
            residual = [r - v for r, v in zip(residual, p.B.matvec(x))]
    current = game.costs.value(vadd(profile.strategies[k], rivals))
    for z in strategies:
        load = game.players[k].B.matvec(z)
        if any(l > r for l, r in zip(load, residual)):
            continue
        if game.costs.value(vadd(z, rivals)) < current:
            return False
    return True


def brute_nash_check(
    game: GameInstance, cap: int = DEFAULT_POINT_CAP
) -> tuple[list[StrategyProfile], list[StrategyProfile], list[StrategyProfile]]:
    """Classify every feasible profile of an enumerable game.

    Returns (all feasible profiles, provider-cost minimizers,
    generalized Nash equilibria), each in lexicographic order.
    """
    per_player = [_strategy_set(game, k, cap) for k in range(game.num_players)]
    if _exceeds(map(len, per_player), cap):
        raise ResourceCapExceeded(f"more than {cap} profiles, past the cap")

    feasible = []
    for combo in itertools.product(*per_player):
        profile = StrategyProfile(strategies=tuple(combo))
        if is_feasible_profile(game, profile):
            feasible.append(profile)

    if not feasible:
        return [], [], []

    costs = [game.costs.value(aggregate_usage(p)) for p in feasible]
    best = min(costs)
    minima = [p for p, c in zip(feasible, costs) if c == best]
    equilibria = [
        p
        for p in feasible
        if all(
            _oracle_satisfied(game, p, k, per_player[k])
            for k in range(game.num_players)
        )
    ]
    return feasible, minima, equilibria
