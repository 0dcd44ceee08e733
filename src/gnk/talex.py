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
from the rest of the row in place, skipping the pivot row's zeros.  Over
F_2 an entry is a bitmask; over F_p the grid holds trimmed coefficient
lists, and the quotient is applied term by term, mod p per term.
The test suite checks the kernel against a Smith diagonalization and
cofactor determinants, recomputes small cases by enumerating minors
directly, and rebuilds the block matrix from Fox derivatives.

The block matrices are built for a batch of representations at once,
such as one sweep cell's class representatives: they share p and the
dimension, and a relator prefix's degree is its signed letter count for
all of them, so one walk per relator serves every member, each letter
one stacked matrix product into an integer array of coefficients by
degree.  The same walk checks that the relator lands on the identity at
degree 0 for every member, and the finished blocks must satisfy the
chain-rule identity sum_j Phi(dr/dx_j) (Phi(x_j) - 1) = 0, degree by
degree, before any invariant is computed from them.  One transpose and
reshape of the array then reads every member's deleted matrix as plain
F_p[t] elements under one common power of t, and one more reads every
distinct denominator block.  Members that send the deleted generator to
the same matrix share one denominator.  No matrix is inverted here: each
representation carries its images' inverses, read off the group, and one
product checks a whole batch's inverses mod p before the walk.  Both
results are kept as coefficient tuples (c_0, ..., c_d) with c_0 = 1, and
() for zero.

A sweep cell's invariant lines come from `cell_lines`: it picks the
target's representation route, merges the cell's conjugation orbits into
GL_k(F_p) classes, and evaluates one batch of the classes' rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .fingroups import (
    CapabilityError,
    FiniteGroup,
    PSL2Group,
    SL2Group,
    group_from_spec,
)
from .homsearch import Homomorphism, indexed_tables, into_fibers, row_locator
from .presentations import Presentation
from .words import GeneratorTable

# -- plain polynomial kernels ----------------------------------------------------


class _GF2Ring:
    """F_2[t] with polynomials as bitmasks."""

    p = 2
    zero = 0
    one = 1

    @staticmethod
    def deg(a: int) -> int:
        return a.bit_length() - 1

    @staticmethod
    def neg(a: int) -> int:
        return a

    @staticmethod
    def mul(a: int, b: int) -> int:
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        return out

    @classmethod
    def divmod(cls, a: int, b: int) -> tuple[int, int]:
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        q = 0
        db = cls.deg(b)
        while a and cls.deg(a) >= db:
            shift = cls.deg(a) - db
            q ^= 1 << shift
            a ^= b << shift
        return q, a

    @staticmethod
    def to_coeffs(a: int) -> tuple[int, ...]:
        return tuple((a >> i) & 1 for i in range(a.bit_length()))

    @classmethod
    def reduce_row(cls, row: list, top: list, t: int) -> None:
        """row[t] becomes its remainder by top[t], and every later entry of
        row loses the quotient times top's entry in its column; columns
        where top is zero are skipped.  Entries are replaced, not mutated."""
        q, row[t] = cls.divmod(row[t], top[t])
        for j in range(t + 1, len(row)):
            if top[j]:
                row[j] ^= cls.mul(q, top[j])


class _GFpRing:
    """F_p[t] with polynomials as trimmed coefficient tuples; the echelon's
    grid entries are trimmed coefficient lists."""

    zero = ()
    one = (1,)

    def __init__(self, p: int) -> None:
        self.p = p

    @staticmethod
    def deg(a: Sequence[int]) -> int:
        return len(a) - 1

    @staticmethod
    def _trim(cs: list[int]) -> list[int]:
        while cs and not cs[-1]:
            cs.pop()
        return cs

    def neg(self, a: Sequence[int]) -> tuple:
        return tuple((-c) % self.p for c in a)

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        if not a or not b:
            return ()
        p = self.p
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] = (out[j] + x * y) % p
        return tuple(self._trim(out))

    @staticmethod
    def to_coeffs(a: Sequence[int]) -> Sequence[int]:
        return a

    def reduce_row(self, row: list, top: list, t: int) -> None:
        """As in the F_2 ring.  Long division finds the quotient's terms
        c t^s; each term times top's entry is subtracted from a later entry
        coefficient by coefficient, in a fresh list, mod p per term."""
        p, piv = self.p, top[t]
        d = len(piv) - 1
        rem = list(row[t])
        size = len(rem) - d  # quotient terms c t^s have s < size
        inv_lead = pow(piv[-1], -1, p)
        terms = []
        for s in range(size - 1, -1, -1):
            c = -rem[s + d] * inv_lead % p
            if c:
                terms.append((s, c))
                for i, y in enumerate(piv, s):
                    rem[i] = (rem[i] + c * y) % p
        row[t] = self._trim(rem)
        for j in range(t + 1, len(row)):
            b = top[j]
            if b:
                out = list(row[j])
                out += [0] * (size + len(b) - 1 - len(out))
                for s, c in terms:
                    for i, y in enumerate(b, s):
                        out[i] = (out[i] + c * y) % p
                row[j] = self._trim(out)


def _ring_for(p: int):
    return _GF2Ring if p == 2 else _GFpRing(p)


def _normalized(ring, a) -> tuple[int, ...]:
    """The associate of a with lowest degree 0 and lowest coefficient 1, as
    coefficients from degree 0 upward; () for zero."""
    cs = ring.to_coeffs(a)
    low = next((i for i, c in enumerate(cs) if c), len(cs))
    if low == len(cs):
        return ()
    unit = pow(cs[low], -1, ring.p)
    return tuple(c * unit % ring.p for c in cs[low:])


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
    Entries are tuples or lists over F_p and ints over F_2; the result is a
    tuple or an int.  Rows are reduced in place, entries replaced, never
    mutated.
    """
    n = len(grid[0]) if grid else 0
    prod, negate = ring.one, False
    for t in range(n):
        while True:
            live = [(ring.deg(r[t]), i) for i, r in enumerate(grid[t:], t) if r[t]]
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


@dataclass(frozen=True)
class Representation:
    """Generator images in GL_k(F_p), and their inverses.

    Every generator is a meridian, so x contributes the block image(x) * t;
    the map is admissible for a presentation when every relator lands on
    the identity block with total degree zero.  The builders read each
    inverse off the group; wada_matrix checks a whole batch, shapes and
    image times inverse = 1 mod p, before its walk.
    """

    table: GeneratorTable
    dim: int
    p: int
    images: tuple
    inverses: tuple


@dataclass(frozen=True, eq=False)
class WadaMatrix:
    """The block matrices of a batch of representations, by degree.

    coeffs[r, i, j, d] is the k x k coefficient matrix of t^(low + d) in
    the block of relator i and generator j for member r, reduced mod p;
    images[j, r] is member r's image of generator j, reduced mod p.
    """

    pres: Presentation
    reps: tuple[Representation, ...]
    low: int
    coeffs: np.ndarray
    images: np.ndarray


def _stack(reps, attr: str) -> np.ndarray:
    """Each generator's images (or inverses) over the batch, (gens, R, k, k),
    reduced mod p; anything but one k x k matrix per generator raises."""
    k, gens = reps[0].dim, len(reps[0].table)
    try:
        arr = np.array([getattr(r, attr) for r in reps], np.int64)
    except ValueError:  # ragged
        arr = np.empty(0)
    if arr.shape[1:] != (gens, k, k):
        raise ValueError(f"need one {k} x {k} {attr[:-1]} per generator")
    return arr.swapaxes(0, 1) % reps[0].p


def wada_matrix(pres: Presentation, reps: Sequence[Representation]) -> WadaMatrix:
    """Check a batch against pres and build its blocks, one walk per relator.

    The members must share p and dim.  A prefix's degree is its signed
    letter count, one for the whole batch.  Walking relator r letter by
    letter with prefix w, a letter x_j adds Phi(w) t^deg(w) to block j and
    a letter x_j^-1 subtracts Phi(w x_j^-1) t^deg(w x_j^-1): the Fox
    derivative dr/dx_j pushed through the representation.  Each letter is
    one stacked product over the batch.  Before the walk every image times
    its given inverse must be the identity mod p, in one product for the
    batch; after it every member's walk must end on the identity at degree
    0, and the blocks must pass the chain-rule check.
    """
    reps = tuple(reps)
    if not reps:
        raise ValueError("a batch needs at least one representation")
    if any(rep.table != pres.gens for rep in reps):
        raise ValueError("representation is over different generators")
    p, k = reps[0].p, reps[0].dim
    if any((rep.p, rep.dim) != (p, k) for rep in reps):
        raise ValueError("a batch must share p and dim")
    walks = []
    for rel in pres.relators:
        letters = [(g, e // abs(e)) for g, e in rel.syllables for _ in range(abs(e))]
        degs = accumulate((s for _, s in letters), initial=0)
        walks.append((rel, letters, list(degs)))
    low = min((d for *_, degs in walks for d in degs), default=0)
    span = max((d for *_, degs in walks for d in degs), default=0) - low + 1
    images, inverses = _stack(reps, "images"), _stack(reps, "inverses")
    ident = np.broadcast_to(np.eye(k, dtype=np.int64), (len(reps), k, k))
    if (images @ inverses % p != ident).any():
        raise ValueError("an image times its inverse is not 1 mod p")
    acc = np.zeros((len(walks), len(pres.gens), span, len(reps), k, k), np.int64)
    for i, (rel, letters, degs) in enumerate(walks):
        prefix = ident
        for n, (g, s) in enumerate(letters):
            if s > 0:
                acc[i, g, degs[n] - low] += prefix
                prefix = prefix @ images[g] % p
            else:
                prefix = prefix @ inverses[g] % p
                acc[i, g, degs[n + 1] - low] -= prefix
        if degs[-1] != 0 or (prefix != ident).any():
            raise ValueError(f"relator {rel.syllables} is not respected")
    wm = WadaMatrix(pres, reps, low, np.moveaxis(acc, 3, 0) % p, images)
    _check_chain_rule(wm)
    return wm


def _check_chain_rule(wm: WadaMatrix) -> None:
    """sum_j C_ij(t) (A_j t - 1) = 0 for each member and relator i, degree
    by degree."""
    members, rels, gens, span, k, _ = wm.coeffs.shape
    total = np.zeros((members, rels, span + 1, k, k), np.int64)
    for j in range(gens):
        block = wm.coeffs[:, :, j]
        total[:, :, 1:] += block @ wm.images[j][:, None, None]
        total[:, :, :-1] -= block
    if (total % wm.reps[0].p).any():
        raise RuntimeError("free-calculus identity failed; the matrix is wrong")


def _grids(ring, blocks: np.ndarray) -> list[list[list]]:
    """Each member's matrix of k x k blocks as ring elements: bitmasks over
    F_2, trimmed coefficient lists over F_p.

    blocks[r, i, j, d] is the coefficient matrix of t^d in block (i, j) of
    member r, reduced mod p.  Entry (u, v) of that block lands in row
    i*k + u and column j*k + v.  Every entry of every member is divided by
    the same power of t, the least one with a nonzero coefficient in the
    batch: a common power of t changes no pivot choice, and normalizing
    strips it from the product.
    """
    live = np.flatnonzero(blocks.any(axis=(0, 1, 2, 4, 5)))
    lo, hi = (live[0], live[-1] + 1) if live.size else (0, 0)
    members, rows, cols, _, k, _ = blocks.shape
    flat = blocks[:, :, :, lo:hi].transpose(0, 1, 4, 2, 5, 3)
    flat = flat.reshape(members, rows * k, cols * k, hi - lo)
    if ring is _GF2Ring:
        bits = [1 << d for d in range(hi - lo)]
        return (flat @ np.array(bits, np.int64 if hi - lo < 63 else object)).tolist()
    return [[list(map(ring._trim, row)) for row in grid] for grid in flat.tolist()]


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


def twisted_alexanders(
    pres: Presentation, reps: Sequence[Representation]
) -> list[TwistedAlexander]:
    """The invariant of each member of a batch, from one wada_matrix call.

    Every member deletes the first generator's column block.  Every
    generator is a meridian and all of them are conjugate, so any other
    column would give the same pair.  A denominator depends only on the
    deleted generator's image, so members sharing the reduced image share
    one.
    """
    wm = wada_matrix(pres, reps)
    ring = _ring_for(wm.reps[0].p)
    distinct, which = np.unique(wm.images[0], axis=0, return_inverse=True)
    dens = [_normalized(ring, den) for den in _denominators(ring, distinct)]
    grids = _grids(ring, wm.coeffs[:, :, 1:])
    return [
        TwistedAlexander(_normalized(ring, _pivot_product(ring, grid)), dens[i])
        for i, grid in zip(which.reshape(-1).tolist(), grids)
    ]


def twisted_alexander(pres: Presentation, rep: Representation) -> TwistedAlexander:
    """The invariant of one representation: a batch of one."""
    return twisted_alexanders(pres, (rep,))[0]


# -- representation builders ---------------------------------------------------
#
# Every generator of a G_n(K) presentation is a meridian, so the degree map
# onto Z sends each one to t, which Representation assumes.  Under that map
# a relator's walk ends at its exponent sum, so the Wada walk's end-degree
# check rejects any presentation on which it is not a homomorphism.


def representation_from_sl2_hom(pres: Presentation, hom) -> Representation:
    """Natural 2-dimensional representation of an SL2-valued homomorphism;
    the inverses are the group's."""
    group, elements = hom.group, hom.images()

    def matrices(xs):
        return tuple(((a, b), (c, d)) for a, b, c, d in xs)

    return Representation(
        table=pres.gens,
        dim=2,
        p=group.p,
        images=matrices(elements),
        inverses=matrices(map(group.inv, elements)),
    )


def representation_from_psl27_hom(pres: Presentation, hom) -> Representation:
    """3-dimensional F_2 representation through the 168-element dictionary;
    an inverse is the dictionary's matrix of the group's inverse."""
    group, elements = hom.group, hom.images()
    if not isinstance(group, PSL2Group) or group.p != 7:
        raise ValueError("homomorphism must land in PSL2_7")
    table = psl27_matrix_dictionary()
    return Representation(
        table=pres.gens,
        dim=3,
        p=2,
        images=tuple(table[x] for x in elements),
        inverses=tuple(table[group.inv(x)] for x in elements),
    )


# -- a sweep cell's lines ----------------------------------------------------------


def _route(group: FiniteGroup):
    """(representation builder, diag(1, r) twin map or None) for a matrix
    target; every other target raises CapabilityError.

    The twin map gives the element index of P x P^-1 for each element x,
    P = diag(1, r) and r the least quadratic non-residue mod p.
    Conjugation by P is not inner for odd p, and together with the inner
    automorphisms it gives every conjugation by GL_2(F_p).  There is no
    twin for p = 2, where every unit is a square and GL_2(F_2) = SL_2(F_2),
    nor for PSL2_7, which is all of GL_3(F_2): every conjugation is inner,
    and its outer automorphism dualizes the representation.
    """
    if isinstance(group, PSL2Group) and group.p == 7:
        return representation_from_psl27_hom, None
    if not isinstance(group, SL2Group) or isinstance(group, PSL2Group):
        raise CapabilityError(f"no matrix representation route for {group.name}")
    p = group.p
    if p == 2:
        return representation_from_sl2_hom, None
    r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    r_inv = pow(r, -1, p)
    twin = [
        group.index_of((a, b * r_inv % p, c * r % p, d))
        for a, b, c, d in group.elements()
    ]
    return representation_from_sl2_hom, np.array(twin, dtype=np.int64)


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
    is the orbit alone.  The classes' rows are one twisted_alexanders batch.
    """
    builder, twin = _route(group)
    keys = reps
    if twin is not None:
        twins = into_fibers(pres, group, twin[matrix[reps]])
        keys = np.minimum(reps, roots[row_locator(matrix)(twins)])
    keys = keys.tolist()
    distinct = list(dict.fromkeys(keys))
    batch = [
        builder(pres, Homomorphism(pres, group, tuple(matrix[key].tolist())))
        for key in distinct
    ]
    invariants = twisted_alexanders(pres, batch)
    lines = {key: ta.line() for key, ta in zip(distinct, invariants)}
    return [(lines[key], size) for key, size in zip(keys, sizes.tolist())]


# -- the 168-element dictionary ----------------------------------------------------


@lru_cache(maxsize=None)
def psl27_matrix_dictionary() -> dict:
    """Isomorphism from PSL2_7 elements onto GL_3(F_2) matrices.

    The stored images of the two standard generators are extended along
    the Cayley graph of the shared group's index table, one 3 x 3 product
    per new element.  The extension must be a bijection, and it is checked
    multiplicatively on every pair, in one array comparison against the
    index table, before being returned; an edge the extension disagrees
    with fails its pair.
    """
    psl = group_from_spec("PSL2_7")
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
    reached = {idx.ident: None}  # in the order the walk reaches them
    frontier = [idx.ident]
    while frontier:
        x = frontier.pop()
        for gen, img in gens:
            y = int(idx.mul[x, gen])
            if y not in reached:
                reached[y] = None
                mats[y] = mats[x] @ img % 2
                frontier.append(y)
    if len(reached) != idx.n or len(np.unique(mats.reshape(-1, 9), axis=0)) != idx.n:
        raise RuntimeError("generator images do not give a bijection")
    if not ((mats[:, None] @ mats[None]) % 2 == mats[idx.mul]).all():
        raise RuntimeError("dictionary failed the pair check")
    els = psl.elements()
    return {els[x]: tuple(map(tuple, mats[x].tolist())) for x in reached}
