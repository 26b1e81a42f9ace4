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
and filtered, and every image of it is kept.  The permutations move no
column outside every class (y and s of an equilibrium matrix), so the
representative of the orbit of ±v is read off one sorted form: the sign
of v's first nonzero entry on those columns picks v or -v.  Only a
vector that is zero there compares the forms of v and -v.

Every element carries its positive- and negative-support bitmasks (see
`sign_masks`).  A g conformally below z has its positive support inside
z's and its negative support inside z's, so a candidate divisor whose
supports do not nest is rejected with two integer ANDs before any entry
is compared.  Once they nest, g and z agree in sign wherever g is
nonzero, and g is below z exactly when |g_i| <= |z_i| everywhere.  The
same masks decide sign-compatibility of pairs.  The masks of -g are
those of g swapped, so the negated images of a remainder take their
records from the images' records.

`graver_basis` is a pure function of D and the cap and keeps nothing
between calls; the CLI, whose in-process `main` calls repeat matrices,
keeps its own cache of bases.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from itertools import chain, islice, permutations, product

from .errors import ResourceCapExceeded, ValidationError
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

    def check_matrix(self, D: IntMatrix) -> None:
        """ValidationError unless this is the basis of D.

        The basis of another matrix holds steps that leave D x = d, or
        lacks steps that improve, so an answer read from it is wrong.
        """
        if self.matrix != D:
            raise ValidationError("the basis is not G(D) for the instance's matrix D")


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

    key(v) is the canonical form of the orbit of ±v, so key(σv) = key(v)
    = key(-v) for every σ in the group, and key(v) lies in the orbit of v
    or of -v.  The form of a vector keeps its entries outside every class
    and sorts each class's brick slices.  The group fixes the columns
    outside every class, so their first nonzero entry has one sign on the
    whole orbit of v: key(v) is the form of v if it is positive, of -v if
    it is negative.  A vector that is zero on those columns takes the
    larger of the forms of v and -v.  images(r) lists every distinct
    image of r.  With no bricks the group is trivial, every column is
    fixed: key is `_sign_normalized` and r is its own only image.
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

    # the columns outside every class, which the group fixes
    fixed = [j for j, source in enumerate(sources) if source == j]

    def key(v: IntVec) -> IntVec:
        lead = next(filter(None, map(v.__getitem__, fixed)), 0)
        if lead < 0:
            v = vneg(v)
        pool = list(v)
        if lead:
            for gather, slices, _ in classes:
                pool += chain.from_iterable(sorted(map(gather(v).__getitem__, slices)))
            return place(pool)
        flipped = list(v)
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
        z = conformal_reduce(candidate, current)
        if is_zero(z):
            continue
        r = key(z)
        batches.append((len(current), r))
        orbit = images(r)
        records = list(map(sign_masks, orbit))
        rpos, rneg, _ = records[orbit.index(r)]
        current += records
        if vneg(r) not in orbit:
            # -g's positive support is g's negative support and back
            current += [(neg, pos, vneg(g)) for pos, neg, g in records]
        if len(current) > cap:
            raise ResourceCapExceeded(
                f"Graver completion exceeded the element cap of {cap}"
            )
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


def check_cap(cap) -> None:
    """ValidationError unless cap is an int >= 0; a bool is no int here."""
    if type(cap) is not int or cap < 0:
        raise ValidationError(f"a cap must be an int >= 0, got {cap!r}")


def check_size(mat: IntMatrix, cap) -> None:
    """`check_cap`; then, before any reduction, ResourceCapExceeded if G(mat) cannot fit cap."""
    check_cap(cap)
    # G(D) spans ker(D) and is closed under negation: |G(D)| >= 2 (ncols - nrows)
    if 2 * (mat.ncols - mat.nrows) > cap:
        raise ResourceCapExceeded(
            f"the Graver basis of a {mat.nrows} x {mat.ncols} matrix passes the element cap of {cap}"
        )


def graver_basis(mat: IntMatrix, cap: int = DEFAULT_ELEMENT_CAP) -> GraverBasis:
    """G(mat), completed from a Hermite reduction of mat.

    A pure function of mat and cap: nothing is kept between calls.
    ResourceCapExceeded when the completion keeps more than cap records.
    """
    check_size(mat, cap)
    return _basis_from_lattice(mat, kernel_lattice_basis(mat), cap)


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
        if conformal_reduce(r, islice(current, end, None)) == r:
            minimal += (g for _, _, g in current[start:end])
    return GraverBasis(matrix=mat, elements=tuple(sorted(minimal)))
