"""Separable convex integer minimization by Graver-basis augmentation.

Solves min { sum_j f_j(x_j) : D x = d, 0 <= x <= u, x integer } by
computing the Graver basis G(D) once and using it twice.  One Hermite
reduction, of [D | -d], gives both an integer solution x0 of D x = d and
a basis of the kernel lattice of D, which seeds the completion of G(D).
Phase 1, inside `solve_ip`, widens the box to contain x0 and walks
along G(D) to a point of the original box.  Phase 2 greedily augments
from there: at each iteration the (direction, step) pair with the
largest improvement is applied, until no Graver step improves the
objective.  Since a feasible point is optimal exactly when no single
Graver step improves it, both walks end at optima.

Both walks run in integers: the objective is multiplied once by its
scale L (`SeparableObjective.integer_forms`), a positive integer that
makes every term's values integral, and
a positive factor changes no comparison between steps.  Improvements
are reported divided by L, and the objective of a result, like the
optimality certificate, is evaluated on the unscaled objective.  The
walks rely on exact convex terms, which every cost checks as it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .costs import ZERO_COST, AffineCost, PiecewiseLinearCost, SeparableObjective
from .errors import DimensionError, ValidationError
from .graver import DEFAULT_ELEMENT_CAP, GraverBasis, _basis_from_lattice, check_size
from .linalg import IntMatrix, IntVec, check_ints, kernel_lattice_basis, vadd, vscale, vsub


@dataclass(frozen=True)
class IpInstance:
    D: IntMatrix
    d: IntVec
    u: IntVec
    objective: SeparableObjective

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "u", tuple(self.u))
        check_ints(self.d + self.u, "d and u")
        if len(self.d) != self.D.nrows:
            raise DimensionError("right-hand side length != row count")
        if len(self.u) != self.D.ncols:
            raise DimensionError("bound vector length != column count")
        if len(self.objective) != self.D.ncols:
            raise DimensionError("objective length != column count")
        if any(b < 0 for b in self.u):
            raise ValidationError("upper bounds must be nonnegative")

    def is_feasible(self, x: IntVec) -> bool:
        return (
            len(x) == self.D.ncols
            and all(0 <= v <= b for v, b in zip(x, self.u))
            and self.D.matvec(x) == self.d
        )


@dataclass(frozen=True)
class SolveResult:
    status: str  # "optimal" or "infeasible"
    x: Optional[IntVec]
    objective: Optional[Fraction]
    augmentation_count: int
    graver_size: int


def best_step(x: IntVec, g: IntVec, inst: IpInstance) -> tuple[int, Fraction | int]:
    """Smallest integer step minimizing the objective along g from x.

    D g = 0 keeps the equations satisfied, so only the box limits the
    step.  The objective along the ray is convex, hence its first
    differences are nondecreasing; the smallest minimizer is the first
    step whose difference is nonnegative, found by bisection.  Only the
    non-constant terms on the support of g change along the ray, so only
    they are evaluated, in the integer form L*f: differences and the
    improvement are exactly L times the objective's.
    Returns (step, improvement) with improvement >= 0, in the
    objective's own units: an int when L = 1, else a Fraction.
    """
    scale, forms = inst.objective.integer_forms
    lam_max = None
    moved = []  # (L*f_j, x_j, g_j) for every non-constant j with g_j != 0
    for f, xi, gi, ui in zip(forms, x, g, inst.u):
        if gi > 0:
            room = (ui - xi) // gi
        elif gi < 0:
            room = xi // (-gi)
        else:
            continue
        if f is not None:
            moved.append((f, xi, gi))
        if lam_max is None or room < lam_max:
            lam_max = room
    if lam_max is None or lam_max <= 0 or not moved:
        return 0, 0

    def phi(lam: int) -> int:
        return sum(f(xi + lam * gi) for f, xi, gi in moved)

    # first lam in [0, lam_max-1] with phi(lam+1) - phi(lam) >= 0
    lo, hi = 0, lam_max
    while lo < hi:
        mid = (lo + hi) // 2
        if phi(mid + 1) - phi(mid) >= 0:
            hi = mid
        else:
            lo = mid + 1
    step = lo
    improvement = phi(0) - phi(step)
    if improvement <= 0:  # a positive step always improves along a convex ray
        return 0, 0
    return step, improvement if scale == 1 else Fraction(improvement, scale)


def greedy_augment(x0: IntVec, basis: GraverBasis, inst: IpInstance) -> SolveResult:
    """Best-improvement greedy augmentation from a feasible start.

    ValidationError unless `basis` is G(D) for the instance's D.
    """
    basis.check_matrix(inst.D)
    if not inst.is_feasible(x0):
        raise ValidationError("greedy_augment requires a feasible start")
    x = x0
    count = 0
    while True:
        best_g = None
        best_lam = 0
        best_gain = 0
        for g in basis.elements:
            lam, gain = best_step(x, g, inst)
            if gain > best_gain:
                best_g, best_lam, best_gain = g, lam, gain
        if best_g is None:
            break
        x = vadd(x, vscale(best_lam, best_g))
        count += 1
    return SolveResult(
        status="optimal",
        x=x,
        objective=inst.objective.value(x),
        augmentation_count=count,
        graver_size=len(basis),
    )


def check_optimal(
    x: IntVec, basis: GraverBasis, inst: IpInstance
) -> tuple[bool, Optional[IntVec]]:
    """Graver optimality certificate: no single feasible step improves x.

    Returns (True, None) or (False, first violating direction in
    canonical order).  ValidationError unless `basis` is G(D) for the
    instance's D.
    """
    basis.check_matrix(inst.D)
    if not inst.is_feasible(x):
        raise ValidationError("check_optimal requires a feasible point")
    fx = inst.objective.value(x)
    for g in basis.elements:
        candidate = vadd(x, g)
        if inst.is_feasible(candidate) and inst.objective.value(candidate) < fx:
            return False, g
    return True, None


def _solution_and_lattice(D: IntMatrix, d: IntVec) -> tuple[Optional[IntVec], list[IntVec]]:
    """(x0, lattice): some x0 in Z^n with D x0 = d, or None when there is
    none, and a basis of the kernel lattice of D, from one Hermite reduction.

    The kernel lattice of [D | -d] holds (x, t) exactly when D x = t d.
    Euclid's algorithm on the last coordinates of its basis, carried
    along the vectors, leaves one lattice vector `acc` whose last
    coordinate is their gcd g; D x = d is solvable over Z iff g = 1
    (Schrijver, Theory of Linear and Integer Programming, Cor. 4.1a).
    Every other vector leaves the loop with t = 0.  Each step is
    unimodular, so they and `acc` still form a basis; a lattice vector
    with t = 0 has no component along `acc` when g != 0, so the nonzero
    ones, without their last coordinate, form a basis of ker(D).  When
    no vector has t != 0, acc stays 0 and the whole basis is ker(D) x {0}.
    """
    augmented = IntMatrix(D.nrows, D.ncols + 1, tuple(r + (-v,) for r, v in zip(D.entries, d)))
    acc = (0,) * (D.ncols + 1)
    lattice = []
    for v in kernel_lattice_basis(augmented):
        while v[-1]:
            acc, v = v, vsub(acc, vscale(acc[-1] // v[-1], v))
        if any(v):
            lattice.append(v[:-1])
    x0 = vscale(acc[-1], acc)[:-1] if abs(acc[-1]) == 1 else None
    return x0, lattice


def _range_distance(v: int, ub: int) -> AffineCost | PiecewiseLinearCost:
    """Phase 1's term for a coordinate with bound ub and x0_j = v.

    It is the distance of the coordinate from [0, ub], on phase 1's box
    [min(0, v), max(ub, v)] shifted to start at 0.  There the coordinate
    can leave its range on one side only: below it when v < 0, above it
    when v > ub.  When 0 <= v <= ub the range is the whole box.
    """
    if v < 0:
        return PiecewiseLinearCost((-v,), (-1, 0), -v)
    if v <= ub:
        return ZERO_COST
    return PiecewiseLinearCost((ub,), (0, 1), 0) if ub else AffineCost(1, 0)


def _walk_into_box(inst: IpInstance, x0: IntVec, basis: GraverBasis) -> Optional[IntVec]:
    """Phase 1: a feasible point of `inst`, or None when it has none.

    `basis` is G(D) and x0 an integer solution of D x = d.  x0 lies in
    the widened box [min(0, x0), max(u, x0)], shifted here to start at 0;
    augmenting along G(D) minimizes the summed distance of the
    coordinates from their original ranges [0, u_j], and the instance
    is feasible exactly when that minimum is 0.  An x0 already in the
    box is returned at once: every term is 0 there, so no step improves.
    """
    if all(0 <= v <= ub for v, ub in zip(x0, inst.u)):
        return x0
    low = tuple(min(0, v) for v in x0)
    wide = IpInstance(
        inst.D,
        vsub(inst.d, inst.D.matvec(low)),
        tuple(max(ub, v) - lo for ub, v, lo in zip(inst.u, x0, low)),
        SeparableObjective(tuple(_range_distance(v, ub) for v, ub in zip(x0, inst.u))),
    )
    result = greedy_augment(vsub(x0, low), basis, wide)
    if result.objective != 0:
        return None
    return vadd(result.x, low)


def solve_ip(inst: IpInstance, cap: int = DEFAULT_ELEMENT_CAP) -> SolveResult:
    check_size(inst.D, cap)
    # one reduction of [D | -d] gives both x0 and the completion's seeds;
    # G(D) is completed even when x0 is None, for `graver_size`
    x0, lattice = _solution_and_lattice(inst.D, inst.d)
    basis = _basis_from_lattice(inst.D, lattice, cap)
    start = None if x0 is None else _walk_into_box(inst, x0, basis)
    if start is None:
        return SolveResult(
            status="infeasible",
            x=None,
            objective=None,
            augmentation_count=0,
            graver_size=len(basis),
        )
    return greedy_augment(start, basis, inst)
