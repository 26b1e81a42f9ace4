"""Graver bases via a Pottier-style completion procedure.

The Graver basis of an integer matrix D is the set of nonzero elements
of ker(D) over Z that are minimal in the conformal order: none of them
splits into a sum of two nonzero sign-compatible kernel vectors.
The completion queues a kernel lattice basis, repeatedly sums pairs,
conformally reduces each candidate against the current set, keeps
irreducible remainders and their negations until a fixpoint, and
finally filters to the conformally minimal elements.

Every element carries its positive- and negative-support bitmasks (see
`sign_masks`).  A g conformally below z has its positive support inside
z's and its negative support inside z's, so a candidate divisor whose
supports do not nest is rejected with two integer ANDs before any entry
is compared; the same masks decide sign-compatibility of pairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import ResourceCapExceeded
from .linalg import (
    IntMatrix,
    IntVec,
    _sign_normalized,
    conformal_leq,
    is_zero,
    kernel_lattice_basis,
    one_norm,
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


def sign_masks(g: IntVec) -> tuple[int, int, IntVec]:
    """The record (pos, neg, g): bit i of pos is set iff g[i] > 0, of neg iff g[i] < 0."""
    pos = neg = 0
    for i, a in enumerate(g):
        if a > 0:
            pos |= 1 << i
        elif a < 0:
            neg |= 1 << i
    return pos, neg, g


def conformal_reduce(z: IntVec, reducers) -> IntVec:
    """Normal form of z: subtract conformal divisors until none applies.

    `reducers` holds (pos, neg, g) records from `sign_masks`; the first
    nonzero g conformally below z is subtracted.  Every such subtraction
    strictly shrinks the 1-norm of z, so this terminates.
    """
    reduced = True
    while reduced and not is_zero(z):
        reduced = False
        zpos, zneg, _ = sign_masks(z)
        out_pos, out_neg = ~zpos, ~zneg
        for pos, neg, g in reducers:
            # g cannot divide z unless its supports nest inside z's
            if pos & out_pos or neg & out_neg or not (pos or neg):
                continue
            if conformal_leq(g, z):
                z = vsub(z, g)
                reduced = True
                break
    return z


def graver_basis(mat: IntMatrix, cap: int = DEFAULT_ELEMENT_CAP) -> GraverBasis:
    # `current` is closed under negation, so each ± pair of candidates is
    # queued and reduced once, in its sign-normalized form s: -s reduces by
    # the negated steps to -r, which joins `current` with r, and each sum
    # of (-r, g) is the negation of a sum of (r, -g).  Sums of
    # sign-compatible pairs reduce to zero at once (the first summand
    # conformally divides the sum), so they are skipped; the heap pops the
    # rest by increasing 1-norm.  A nonzero normal form is never in
    # `current` already: every element conformally divides itself.
    lattice = kernel_lattice_basis(mat)  # sign-normalized
    current: list[tuple[int, int, IntVec]] = []
    queue = [(one_norm(b), b) for b in lattice]
    heapq.heapify(queue)
    queued: set[IntVec] = set(lattice)
    while queue:
        _, candidate = heapq.heappop(queue)
        r = _sign_normalized(conformal_reduce(candidate, current))
        if is_zero(r):
            continue
        record = sign_masks(r)
        current += (record, sign_masks(vneg(r)))
        if len(current) > cap:
            raise ResourceCapExceeded(
                f"Graver completion exceeded the element cap of {cap}"
            )
        rpos, rneg, _ = record
        for pos, neg, g in current:
            if not (rpos & neg or rneg & pos):  # sign-compatible
                continue
            s = _sign_normalized(vadd(r, g))
            if is_zero(s) or s in queued:
                continue
            queued.add(s)
            heapq.heappush(queue, (one_norm(s), s))

    # every element of G(D) is in `current`: the completion reduces it to
    # zero, and only the element itself divides it conformally.  So the
    # minimal elements of `current` are exactly G(D).
    records = sorted(current, key=lambda record: record[2])
    minimal = [
        g
        for gpos, gneg, g in records
        if not any(
            h != g and conformal_leq(h, g)
            for hpos, hneg, h in records
            if not (hpos & ~gpos or hneg & ~gneg)
        )
    ]
    return GraverBasis(matrix=mat, elements=tuple(minimal))
