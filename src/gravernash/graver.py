"""Graver bases via a Pottier-style completion procedure.

The Graver basis of an integer matrix D is the set of nonzero elements
of ker(D) over Z that are minimal in the conformal order: none of them
splits into a sum of two nonzero sign-compatible kernel vectors.
The completion seeds a kernel lattice basis (and its negations),
repeatedly sums pairs, conformally reduces each candidate against the
current set, keeps irreducible remainders until a fixpoint, and finally
filters to the conformally minimal elements.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import ResourceCapExceeded
from .linalg import (
    IntMatrix,
    IntVec,
    conformal_leq,
    is_zero,
    kernel_lattice_basis,
    one_norm,
    sign_compatible,
    vadd,
    vneg,
    vsub,
)

DEFAULT_ELEMENT_CAP = 100_000


@dataclass(frozen=True)
class GraverBasis:
    """Canonical (lexicographically sorted) Graver basis of `matrix`."""

    matrix: IntMatrix
    elements: tuple[IntVec, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def conformal_reduce(z: IntVec, basis) -> IntVec:
    """Normal form of z: subtract conformal divisors until none applies.

    Every subtraction of a nonzero g with g conformally below z strictly
    shrinks the 1-norm of z, so this terminates.
    """
    reduced = True
    while reduced and not is_zero(z):
        reduced = False
        for g in basis:
            if not is_zero(g) and conformal_leq(g, z):
                z = vsub(z, g)
                reduced = True
                break
    return z


def graver_basis(mat: IntMatrix, cap: int = DEFAULT_ELEMENT_CAP) -> GraverBasis:
    lattice = kernel_lattice_basis(mat)
    seeds = sorted({v for b in lattice for v in (b, vneg(b))})

    # candidate sums of sign-compatible pairs reduce to zero immediately
    # (the first summand conformally divides the sum), so they are skipped;
    # the heap processes the rest by increasing 1-norm for faster closure.
    # A nonzero normal form is never in `current` already: every element
    # conformally divides itself.
    current: list[IntVec] = []
    queue: list[tuple[int, IntVec]] = []
    queued: set[IntVec] = set()

    def add(r: IntVec) -> None:
        current.append(r)
        if len(current) > cap:
            raise ResourceCapExceeded(
                f"Graver completion exceeded the element cap of {cap}"
            )
        for g in current:
            if sign_compatible(r, g):
                continue
            s = vadd(r, g)
            if is_zero(s) or s in queued:
                continue
            queued.add(s)
            heapq.heappush(queue, (one_norm(s), s))

    for s in seeds:
        r = conformal_reduce(s, current)
        if not is_zero(r):
            add(r)
    while queue:
        _, candidate = heapq.heappop(queue)
        r = conformal_reduce(candidate, current)
        if not is_zero(r):
            add(r)

    closed = sorted(set(current) | {vneg(g) for g in current})
    minimal = [
        g
        for g in closed
        if not any(h != g and conformal_leq(h, g) for h in closed if not is_zero(h))
    ]
    return GraverBasis(matrix=mat, elements=tuple(minimal))

