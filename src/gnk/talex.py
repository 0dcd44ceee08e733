"""Twisted Alexander polynomials over prime fields.

Pipeline: a knot group presentation, whose generators are meridians that
the degree map sends to t, plus a finite-image matrix representation,
gives a square-block matrix of Laurent polynomials via free differential
calculus.  Deleting one generator's column block leaves the numerator
matrix; the invariant is the pair

    (gcd of maximal minors of the deleted matrix, det(Phi(x_j) - 1))

with both entries normalized to lowest degree 0 and lowest coefficient 1.
The gcd is the product of the pivots of a row-only echelon form of the
deleted matrix over F_p[t], and the same kernel gives the denominator as
a determinant.  The echelon form is reached by Euclid's algorithm down
each column: the entry of least degree becomes the pivot, every row below
it loses the quotient multiple of the pivot row that leaves its
remainder, and this repeats until the column is clear below the pivot.
That row step is one fused ring call, `reduce_row`: it divides the row's
entry by the pivot and subtracts the quotient multiple of the pivot row
from the rest of the row in place, skipping the pivot row's zeros.  An
entry is one int, its coefficients packed w bits apart (Kronecker
substitution): a bitmask over F_2, where w = 1, and over odd p slots wide
enough to take a product of residues.  Each quotient term is then one
shift, one small multiply and one add on a whole entry, and over odd p
one reduction of every slot mod p at once, by multiplying with a
precomputed inverse of p and shifting (division by an invariant integer).
The test suite checks the kernel against a Smith diagonalization and
cofactor determinants, recomputes small cases by enumerating minors
directly, and rebuilds the block matrix from Fox derivatives.

The block matrices are built for a batch of representations at once,
such as one sweep cell's class representatives.  A `Representation` is
that batch: arrays of images and of their inverses, (members,
generators, k, k) over one p, gathered from a matrix target's table of
element matrices, the inverses through the group's inverse table; no
matrix is inverted here.  A relator prefix's degree is its signed letter
count for every member, so one walk per relator serves the batch, each
letter one stacked matrix product into an integer array of coefficients
by degree.  One product checks the batch's inverses mod p before the
walk, the walk checks that each relator lands on the identity at
degree 0, and the blocks must satisfy the chain-rule identity
sum_j Phi(dr/dx_j) (Phi(x_j) - 1) = 0, degree by degree.  One transpose
and reshape then reads every member's deleted matrix as plain F_p[t]
elements under one common power of t.  A denominator depends only on p
and the deleted generator's image, so a process computes each once.
Both results are kept as coefficient tuples (c_0, ..., c_d) with
c_0 = 1, and () for zero.

A sweep cell's invariant lines come from `cell_lines`: it merges the
cell's conjugation orbits into GL_k(F_p) classes and evaluates one batch
gathered for the classes' rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .fingroups import (
    MAX_WADA_BYTES,
    CapabilityError,
    FiniteGroup,
    PSL2Group,
    SL2Group,
)
from .homsearch import indexed_tables, into_fibers, row_locator
from .presentations import Presentation
from .words import GeneratorTable

# -- plain polynomial kernels ----------------------------------------------------


class _PackedRing:
    """F_p[t] with a polynomial packed into one int: the coefficient of
    t^d, a residue below p, sits in bits [w d, w d + w)."""

    zero = 0
    one = 1

    def to_coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(a >> s & self.slot for s in range(0, a.bit_length(), self.w))


class _GF2Ring(_PackedRing):
    """F_2[t] with polynomials as bitmasks, w = 1, where a step needs no
    reduction."""

    p = 2
    w = 1
    slot = 1

    @staticmethod
    def neg(a: int) -> int:
        return a

    @staticmethod
    def mul(a: int, b: int) -> int:
        """One shifted copy of the longer factor per set bit of the other."""
        if a > b:
            a, b = b, a
        out = 0
        while a:
            if a & 1:
                out ^= b
            a >>= 1
            b <<= 1
        return out

    @staticmethod
    def reduce_row(row: list, top: list, t: int) -> None:
        """row[t] becomes its remainder by top[t], and every later entry of
        row loses the quotient times top's entry in its column; columns
        where top is zero are skipped.  Long division finds the quotient's
        terms t^s, and each term is one shift and one xor on row[t] and on
        every later entry."""
        piv = top[t]
        d = piv.bit_length()
        rem, shifts = row[t], []
        while rem.bit_length() >= d:
            shifts.append(rem.bit_length() - d)
            rem ^= piv << shifts[-1]
        row[t] = rem
        for j in range(t + 1, len(row)):
            b = top[j]
            if b:
                e = row[j]
                for shift in shifts:
                    e ^= b << shift
                row[j] = e


class _GFpRing(_PackedRing):
    """F_p[t] for odd p, with slots wide enough for a product of residues.

    This is Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009):
    a step c t^s b adds (c * b) << w s to an entry, a few big-int
    operations on the whole polynomial, which leaves every slot below p^2.
    _reduce then takes every slot mod p at once, by division by the
    invariant integer p (Granlund and Montgomery, PLDI 1994): with
    m = ceil(2^k / p), a slot v < p^2 has quotient floor(v m / 2^k), so the
    quotients are the packed int times m, shifted right by k and masked to
    each slot's low w - k bits.  k is the least with (p^2 - 1) e < 2^k for
    e = m p - 2^k, which makes that quotient exact, and w is the width of
    (p^2 - 1) m, so no slot's product spills into the next.
    """

    def __init__(self, p: int) -> None:
        self.p = p
        k = p.bit_length()
        while (p * p - 1) * (-(1 << k) % p) >= 1 << k:
            k += 1
        self.k, self.m = k, -(-(1 << k) // p)
        self.w = ((p * p - 1) * self.m).bit_length()
        self.slot = (1 << self.w) - 1
        self._quotients = (1 << (self.w - k)) - 1  # grows by doubling
        self._span = self.w
        self._neg_inv = [0] + [-pow(c, -1, p) % p for c in range(1, p)]

    def _reduce(self, a: int) -> int:
        """a with every slot, each below p^2, taken mod p."""
        q = a * self.m >> self.k
        while q.bit_length() > self._span:
            self._quotients |= self._quotients << self._span
            self._span *= 2
        return a - (q & self._quotients) * self.p

    def neg(self, a: int) -> int:
        return self._reduce(a * (self.p - 1))

    def mul(self, a: int, b: int) -> int:
        """One shifted multiple of the longer factor per term of the other."""
        if a > b:
            a, b = b, a
        out, shift = 0, 0
        while a:
            if a & self.slot:
                out = self._reduce(out + ((a & self.slot) * b << shift))
            a >>= self.w
            shift += self.w
        return out

    def reduce_row(self, row: list, top: list, t: int) -> None:
        """As in the F_2 ring.  Long division finds the quotient's terms
        c t^s, and each term is one packed step on row[t] and on every
        later entry where top is nonzero."""
        p, w, reduce, piv = self.p, self.w, self._reduce, top[t]
        d = (piv.bit_length() - 1) // w
        neg_inv = self._neg_inv[piv >> w * d]
        rem, terms = row[t], []
        for shift in range(w * ((rem.bit_length() - 1) // w - d), -1, -w):
            # slots above shift / w + d are already clear
            c = (rem >> shift + w * d) * neg_inv % p
            if c:
                terms.append((c, shift))
                rem = reduce(rem + (c * piv << shift))
        row[t] = rem
        for j in range(t + 1, len(row)):
            b = top[j]
            if b:
                e = row[j]
                for c, shift in terms:
                    e = reduce(e + (c * b << shift))
                row[j] = e


@lru_cache(maxsize=None)
def _ring_for(p: int) -> _PackedRing:
    return _GF2Ring() if p == 2 else _GFpRing(p)


def _normalized(ring, a) -> tuple[int, ...]:
    """The associate of a with lowest degree 0 and lowest coefficient 1, as
    coefficients from degree 0 upward; () for zero."""
    if not a:
        return ()
    a >>= ((a & -a).bit_length() - 1) // ring.w * ring.w  # the empty low slots
    return ring.to_coeffs(ring.mul(a, pow(a & ring.slot, -1, ring.p)))


def _poly_text(cs: tuple[int, ...]) -> str:
    """c_0 + c_1*t + c_2*t^2 + ..., leaving out zero terms and unit
    coefficients of powers of t."""
    terms = []
    for deg, c in enumerate(cs):
        if c:
            var = "t" if deg == 1 else f"t^{deg}"
            terms.append(str(c) if deg == 0 else var if c == 1 else f"{c}*{var}")
    return " + ".join(terms) or "0"


def _pivot_product(ring, grid: list[list]):
    """Product of the pivots of a row-only echelon form over F_p[t].

    Each column is cleared by Euclid's algorithm: the nonzero entry of
    least degree is swapped to the top, every row below subtracts the
    quotient multiple of the top row that leaves its remainder (one
    ring.reduce_row call), and this repeats until nothing below the top is
    nonzero.  Swaps and such subtractions keep the ideal of maximal minors,
    and in echelon form the only nonzero maximal minor is the pivot
    product.  So for rows >= columns this is the gcd of the maximal minors
    up to a unit, and for a square grid it is the determinant exactly: the
    sign is flipped once per row swap.  Zero when a column has no pivot.
    Entries and the result are packed ints.  Rows are reduced in place.
    """
    n = len(grid[0]) if grid else 0
    prod, negate = ring.one, False
    for t in range(n):
        while True:
            # bit length orders by degree first, as a leading coefficient
            # takes at most w bits
            live = [(r[t].bit_length(), i) for i, r in enumerate(grid[t:], t) if r[t]]
            if not live:
                return ring.zero
            piv = min(live)[1]
            if piv != t:
                grid[t], grid[piv] = grid[piv], grid[t]
                negate = not negate
            if len(live) == 1:
                break
            for row in grid[t + 1 :]:
                if row[t]:
                    ring.reduce_row(row, grid[t], t)
        prod = ring.mul(prod, grid[t][t])
    return ring.neg(prod) if negate else prod


# -- representations and the block matrix --------------------------------------------


@dataclass(frozen=True, eq=False)
class Representation:
    """A batch of representations of one presentation's group in GL_k(F_p).

    images[r, j] is member r's image of generator j, a k x k integer
    matrix, and inverses[r, j] is its inverse; both arrays are (members,
    generators, k, k).  Every generator is a meridian, so x contributes the
    block image(x) * t; a member is admissible for a presentation when
    every relator lands on the identity block with total degree zero.  The
    builders gather both arrays from the target's matrix table, the
    inverses through the group's inverse table; wada_matrix checks the
    shapes, and image times inverse = 1 mod p, before its walk.
    """

    table: GeneratorTable
    p: int
    images: np.ndarray
    inverses: np.ndarray


@dataclass(frozen=True, eq=False)
class WadaMatrix:
    """The block matrices of a batch of representations, by degree, over
    the presentation that wada_matrix was given.

    coeffs[r, i, j, d] is the k x k coefficient matrix of t^(low + d) in
    the block of relator i and generator j for member r, reduced mod p;
    rep is the batch with its images and inverses reduced mod p, in int64.
    """

    rep: Representation
    low: int
    coeffs: np.ndarray


def wada_matrix(pres: Presentation, rep: Representation) -> WadaMatrix:
    """Check a batch against pres and build its blocks, one walk per relator.

    A prefix's degree is its signed letter count, one for the whole batch.
    Walking relator r letter by letter with prefix w, a letter x_j adds
    Phi(w) t^deg(w) to block j and a letter x_j^-1 subtracts
    Phi(w x_j^-1) t^deg(w x_j^-1): the Fox derivative dr/dx_j pushed
    through the representation.  Each letter is one stacked product over
    the batch.  The batch must hold one k x k image and inverse per
    generator for at least one member.  A batch whose coefficient array
    would pass MAX_WADA_BYTES then raises CapabilityError before anything
    is allocated.  Before the walk every image times its given inverse
    must be the identity mod p, in one product for the batch; after it
    every member's walk must end on the identity at degree 0, and the
    blocks must pass the chain-rule check.
    """
    if rep.table != pres.gens:
        raise ValueError("representation is over different generators")
    shape = rep.images.shape
    members, k = len(rep.images), shape[-1] if len(shape) == 4 else 0
    if shape != (members, len(pres.gens), k, k) or rep.inverses.shape != shape:
        raise ValueError(f"need one {k} x {k} image per generator, and its inverse")
    if not members:
        raise ValueError("a batch needs at least one representation")
    # a prefix's degree is monotone along a syllable, so its extremes sit
    # at syllable ends
    ends = [
        d
        for rel in pres.relators
        for d in accumulate((e for _, e in rel.syllables), initial=0)
    ]
    low = min(ends, default=0)
    span = max(ends, default=0) - low + 1
    size = len(pres.relators) * len(pres.gens) * span * members * k * k * 8
    if size > MAX_WADA_BYTES:
        raise CapabilityError(
            f"the Wada array would take {size} bytes, past the bound of "
            f"{MAX_WADA_BYTES} (MAX_WADA_BYTES)"
        )
    p = rep.p
    images = rep.images.astype(np.int64) % p
    inverses = rep.inverses.astype(np.int64) % p
    ident = np.eye(k, dtype=np.int64)
    if (images @ inverses % p != ident).any():
        raise ValueError("an image times its inverse is not 1 mod p")
    acc = np.zeros((len(pres.relators), len(pres.gens), span, members, k, k), np.int64)
    for i, rel in enumerate(pres.relators):
        prefix, deg = ident, -low
        for g, e in rel.syllables:
            for _ in range(e):
                acc[i, g, deg] += prefix
                prefix = prefix @ images[:, g] % p
                deg += 1
            for _ in range(-e):
                deg -= 1
                prefix = prefix @ inverses[:, g] % p
                acc[i, g, deg] -= prefix
        if deg != -low or (prefix != ident).any():
            raise ValueError(f"relator {rel.syllables} is not respected")
    rep = Representation(rep.table, p, images, inverses)
    wm = WadaMatrix(rep, low, np.moveaxis(acc, 3, 0) % p)
    _check_chain_rule(wm)
    return wm


def _check_chain_rule(wm: WadaMatrix) -> None:
    """sum_j C_ij(t) (A_j t - 1) = 0 for each member and relator i, degree
    by degree."""
    members, rels, _, span, k, _ = wm.coeffs.shape
    total = np.zeros((members, rels, span + 1, k, k), np.int64)
    total[:, :, 1:] = (wm.coeffs @ wm.rep.images[:, None, :, None]).sum(axis=2)
    total[:, :, :-1] -= wm.coeffs.sum(axis=2)
    if (total % wm.rep.p).any():
        raise RuntimeError("free-calculus identity failed; the matrix is wrong")


def _grids(ring, blocks: np.ndarray) -> list[list[list[int]]]:
    """Each member's matrix of k x k blocks as packed ring elements.

    blocks[r, i, j, d] is the coefficient matrix of t^d in block (i, j) of
    member r, reduced mod p.  Entry (u, v) of that block lands in row
    i*k + u and column j*k + v.  Every entry of every member is divided by
    the same power of t, the least one with a nonzero coefficient in the
    batch: a common power of t changes no pivot choice, and normalizing
    strips it from the product.  One product with the slot weights 2^(w d)
    packs every entry, in int64 while w times the span fits in 63 bits.
    """
    live = np.flatnonzero(blocks.any(axis=(0, 1, 2, 4, 5)))
    lo, hi = (live[0], live[-1] + 1) if live.size else (0, 0)
    members, rows, cols, _, k, _ = blocks.shape
    flat = blocks[:, :, :, lo:hi].transpose(0, 1, 4, 2, 5, 3)
    flat = flat.reshape(members, rows * k, cols * k, hi - lo)
    weights = [1 << ring.w * d for d in range(hi - lo)]
    dtype = np.int64 if ring.w * (hi - lo) <= 63 else object
    return (flat @ np.array(weights, dtype)).tolist()


def _denominators(ring, images: np.ndarray) -> list:
    """det(A t - 1) in the plain ring for each image A of images, (D, k, k),
    from one _grids call.  Its constant term is det(-1) = (-1)^k, so it
    never vanishes."""
    k = images.shape[-1]
    blocks = np.zeros((len(images), 1, 1, 2, k, k), np.int64)
    blocks[:, 0, 0, 0] = -np.eye(k, dtype=np.int64)
    blocks[:, 0, 0, 1] = images
    return [_pivot_product(ring, grid) for grid in _grids(ring, blocks % ring.p)]


@dataclass(frozen=True)
class TwistedAlexander:
    """Normalized numerator and denominator.

    Each is a coefficient tuple (c_0, ..., c_d) with c_0 = 1, or () for zero.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def line(self) -> str:
        return f"{_poly_text(self.numerator)} | {_poly_text(self.denominator)}"


# normalized det(A t - 1) by (p, the bytes of A as int64 reduced mod p), for
# every image A any batch of this process has deleted
_DENOMINATORS: dict[tuple[int, bytes], tuple[int, ...]] = {}


def twisted_alexanders(
    pres: Presentation, rep: Representation
) -> list[TwistedAlexander]:
    """The invariant of each member of a batch, from one wada_matrix call.

    Every member deletes the first generator's column block.  Every
    generator is a meridian and all of them are conjugate, so any other
    column would give the same pair.  A denominator depends only on p and
    the deleted generator's reduced image, so it is computed once per
    image per process, for the images no earlier batch has seen.
    """
    wm = wada_matrix(pres, rep)
    p, ring = wm.rep.p, _ring_for(wm.rep.p)
    firsts = wm.rep.images[:, 0]
    keys = [(p, a.tobytes()) for a in firsts]
    new = {key: r for r, key in enumerate(keys) if key not in _DENOMINATORS}
    if new:
        dens = _denominators(ring, firsts[list(new.values())])
        _DENOMINATORS.update(zip(new, (_normalized(ring, den) for den in dens)))
    grids = _grids(ring, wm.coeffs[:, :, 1:])
    return [
        TwistedAlexander(
            _normalized(ring, _pivot_product(ring, grid)), _DENOMINATORS[key]
        )
        for key, grid in zip(keys, grids)
    ]


def twisted_alexander(pres: Presentation, rep: Representation) -> TwistedAlexander:
    """The invariant of a batch of one."""
    (invariant,) = twisted_alexanders(pres, rep)
    return invariant


# -- matrix tables and representation builders ------------------------------------
#
# Every generator of a G_n(K) presentation is a meridian, so the degree map
# onto Z sends each one to t, which Representation assumes.  Under that map
# a relator's walk ends at its exponent sum, so the Wada walk's end-degree
# check rejects any presentation on which it is not a homomorphism.


@lru_cache(maxsize=None)
def _matrix_table(group: FiniteGroup) -> tuple:
    """(p, mats, twin) for a matrix target, cached on the group for the
    life of the process; every other target raises CapabilityError, on
    every call, since a refusal is not cached.

    mats[x] is the matrix of element index x over F_p, int64 and reduced
    mod p: SL2_p's natural representation, or the 168-element dictionary
    of PSL2_7 onto GL_3(F_2).  twin[x] is the element index of P x P^-1,
    for P = diag(1, r) and r the least quadratic non-residue mod p.
    Conjugation by P is not inner for odd p, and together with the inner
    automorphisms it gives every conjugation by GL_2(F_p).  There is no
    twin (None) for p = 2, where every unit is a square and GL_2(F_2) =
    SL_2(F_2), nor for PSL2_7, which is all of GL_3(F_2): every
    conjugation is inner, and its outer automorphism dualizes the
    representation.
    """
    if isinstance(group, PSL2Group) and group.p == 7:
        return 2, psl27_matrix_dictionary(group), None
    if not isinstance(group, SL2Group) or isinstance(group, PSL2Group):
        raise CapabilityError(f"no matrix representation route for {group.name}")
    p = group.p
    mats = np.array(group.elements(), dtype=np.int64).reshape(-1, 2, 2) % p
    mats.flags.writeable = False
    twin = None
    if p != 2:
        r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
        moved = mats * [[1, pow(r, -1, p)], [r, 1]] % p
        twin = row_locator(mats.reshape(-1, 4))(moved.reshape(-1, 4))
    return p, mats, twin


def _gather(pres: Presentation, group: FiniteGroup, rows) -> Representation:
    """The batch of the homomorphisms with these image rows, (members,
    generators) element indices: each image is its element's matrix, and
    each inverse the matrix of the group's inverse of that element."""
    p, mats, _ = _matrix_table(group)
    inverses = mats[indexed_tables(group).inv[rows]]
    return Representation(pres.gens, p, mats[rows], inverses)


def representation_from_sl2_hom(pres: Presentation, hom) -> Representation:
    """Natural 2-dimensional representation of an SL2-valued homomorphism,
    a batch of one."""
    if not isinstance(hom.group, SL2Group) or isinstance(hom.group, PSL2Group):
        raise ValueError("homomorphism must land in SL2_p")
    return _gather(pres, hom.group, np.array([hom.image_indices]))


def representation_from_psl27_hom(pres: Presentation, hom) -> Representation:
    """3-dimensional F_2 representation through the 168-element dictionary,
    a batch of one."""
    if not isinstance(hom.group, PSL2Group) or hom.group.p != 7:
        raise ValueError("homomorphism must land in PSL2_7")
    return _gather(pres, hom.group, np.array([hom.image_indices]))


# -- a sweep cell's lines ----------------------------------------------------------


def cell_lines(
    pres: Presentation,
    group: FiniteGroup,
    matrix: np.ndarray,
    roots: np.ndarray,
    reps: np.ndarray,
    sizes: np.ndarray,
) -> list[tuple[str, int]]:
    """(invariant line, orbit size) for each conjugation orbit of a cell, in
    lex order.

    matrix is the fiber matrix, roots[i] the row of the lex-least member of
    row i's orbit, reps the distinct roots in lex order and sizes their
    orbit sizes.  The normalized invariant is unchanged when the
    representation is conjugated by any matrix in GL_k(F_p) (Wada 1994;
    Kirk and Livingston 1999).  So it is evaluated once per GL_k(F_p)
    class, on the class's lex-least fiber row, and that line stands for
    every member of every orbit in the class.  With a twin map an orbit's
    class is itself and the orbit of its conjugates by diag(1, r), whose
    rows are conjugated back into the fibers to be found; without one it
    is the orbit alone.  The classes' rows are one twisted_alexanders batch,
    gathered from the matrix table.
    """
    twin = _matrix_table(group)[2]
    keys = reps
    if twin is not None:
        twins = into_fibers(pres, group, twin[matrix[reps]])
        keys = np.minimum(reps, roots[row_locator(matrix)(twins)])
    keys = keys.tolist()
    distinct = list(dict.fromkeys(keys))
    invariants = twisted_alexanders(pres, _gather(pres, group, matrix[distinct]))
    lines = {key: ta.line() for key, ta in zip(distinct, invariants)}
    return [(lines[key], size) for key, size in zip(keys, sizes.tolist())]


# -- the 168-element dictionary ----------------------------------------------------


def psl27_matrix_dictionary(psl: PSL2Group) -> np.ndarray:
    """Isomorphism from psl, a PSL2_7, onto GL_3(F_2), as a (168, 3, 3)
    int64 array whose row x is the matrix of psl's element index x.

    The stored images of the two standard generators are extended along
    the Cayley graph of psl's index table, one 3 x 3 product per new
    element.  The extension must be a bijection, and it is checked
    multiplicatively on every pair, in one array comparison against the
    index table, before being returned; an edge the extension disagrees
    with fails its pair.
    """
    idx = indexed_tables(psl)
    # s and t have orders 2 and 7 and a product of order 3; so do their images
    gens = [
        (psl.index_of(psl.parse_element(text)), np.array(img))
        for text, img in (
            ("[[0,1],[6,0]]", ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
            ("[[1,1],[0,1]]", ((0, 1, 1), (0, 0, 1), (1, 0, 0))),
        )
    ]
    mats = np.zeros((idx.n, 3, 3), np.int64)
    mats[idx.ident] = np.eye(3, dtype=np.int64)
    reached = {idx.ident}
    frontier = [idx.ident]
    while frontier:
        x = frontier.pop()
        for gen, img in gens:
            y = int(idx.product(x, gen))
            if y not in reached:
                reached.add(y)
                mats[y] = mats[x] @ img % 2
                frontier.append(y)
    if len(reached) != idx.n or len(np.unique(mats.reshape(-1, 9), axis=0)) != idx.n:
        raise RuntimeError("generator images do not give a bijection")
    if not ((mats[:, None] @ mats[None]) % 2 == mats[idx.mul]).all():
        raise RuntimeError("dictionary failed the pair check")
    mats.flags.writeable = False
    return mats
