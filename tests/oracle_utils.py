"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: straightforward algorithms whose
correctness is easy to see, used to cross-check the fast paths in the
package.  Fox derivatives rebuild the twisted Alexander block matrix term by
term (`wada_blocks` reads one member of a batched block array in the same
form), a relator replay matrix by matrix checks the kernel's relator check,
the per-homomorphism talex loop checks the class-weighted one, the
scalar root lift checks the array kernel behind property T and `gnk extend`,
the full n = 1 base checks the class-weighted fiber rows behind property T
and structured counts, and entry-by-entry index tables, a greedy
generating set closed element by element and a union-find orbit
partition check the Cayley-graph walk that builds the generators and
tables, and the least-conjugate orbits.  The plan's descent replayed
one row at a time, with the scalar word evaluation, checks the search's
work counters.  A Smith diagonalization over
F_p[t], built from extended-gcd transforms, checks the package's
Euclidean row-echelon pivot product, and `poly_gcd` with cofactor
expansion gives the gcd of maximal minors directly.  These oracles add,
subtract and divide ring elements with `ring_add`, `ring_sub` and
`ring_divmod`, schoolbook code on coefficient lists that the package no
longer needs, and `laurent_divmod`, long division in `LaurentPoly`,
checks the package's fused row step.  `poly_det` is the
Laurent front end of the pivot product, checked against cofactor
expansion and used by the minors oracle.  `LaurentPoly` is the polynomial
type of these oracles; the package itself keeps only plain F_p[t] ring
elements and normalized coefficient tuples.  Every rotation of a relator
and of its inverse, each reduced afresh, checks the canonical relator.
An integer Smith form of the exponent-sum matrix gives the abelianization
and its map onto Z, which checks the package's degree map: t on every
generator.  All 168 invertible 3x3 matrices over F_2 and their orders
check that the PSL2_7 dictionary is onto GL_3(F_2) and keeps orders, and
a walk of PSL2_7 by group.mul rebuilds it element by element.  Each
element's matrix and its inverse's as nested tuples, the form the
per-homomorphism builders once returned, check the batches talex gathers
from its matrix tables.  These matrix oracles and the relator replay
multiply and invert matrices with their own entry-by-entry product and
powers.

Other helpers serve the tests as fixtures or as oracles: relator
multisets, next to the canonical relator; word powers, next to the Fox
derivatives that use them; conjugation, next to the conjugacy classes;
and at the end the trivial and hand-built representation batches, a
stand-in process pool, the benchmark's modules loaded from their files,
word evaluation in any group with identity, mul and power, word
substitution, the powered third relation, homomorphism checks, and text
forms of presentations, diagrams and Cayley tables.
"""

import hashlib
import importlib.util
import itertools
import os
import random
from dataclasses import dataclass
from math import gcd

import numpy as np

from gnk.fingroups import nth_roots
from gnk.homsearch import compile_plan, hom_image_matrix, lift_roots
from gnk.presentations import (
    KnotDiagram,
    Presentation,
    cyclic_reduce,
    g1_braid_presentation,
    knot_presentation,
)
from gnk.talex import Representation
from gnk.words import (
    GeneratorTable,
    Word,
    parse_word,
    reduce,
    word_inverse,
    word_product,
)


# -- Laurent polynomials over F_p -------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly:
    """Coefficients over F_p from degree low upward; ends are nonzero."""

    p: int
    low: int
    coeffs: tuple

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("modulus must be at least 2")
        if self.coeffs:
            if self.coeffs[0] == 0 or self.coeffs[-1] == 0:
                raise ValueError("coefficient ends must be nonzero")
            if any(not 0 <= c < self.p for c in self.coeffs):
                raise ValueError("coefficients must be reduced")
        elif self.low != 0:
            raise ValueError("zero polynomial must have low 0")

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def high(self):
        return self.low + len(self.coeffs) - 1

    def __add__(self, other):
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        out = [0] * (high - low + 1)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] = c
        for i, c in enumerate(other.coeffs):
            out[other.low - low + i] = (out[other.low - low + i] + c) % self.p
        return laurent(self.p, out, low)

    def __neg__(self):
        return laurent(self.p, [(-c) % self.p for c in self.coeffs], self.low)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.is_zero or other.is_zero:
            return laurent(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % self.p
        return laurent(self.p, out, self.low + other.low)

    def scale(self, c):
        c %= self.p
        return laurent(self.p, [a * c % self.p for a in self.coeffs], self.low)

    def shift(self, k):
        if self.is_zero:
            return self
        return LaurentPoly(self.p, self.low + k, self.coeffs)

    def normalized(self):
        """The associate with lowest degree 0 and lowest coefficient 1."""
        if self.is_zero:
            return self
        unit = pow(self.coeffs[0], -1, self.p)
        return laurent(self.p, [c * unit % self.p for c in self.coeffs], 0)

    def text(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            deg = self.low + i
            if deg == 0:
                parts.append(str(c))
            else:
                var = "t" if deg == 1 else f"t^{deg}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts)


def laurent(p, coeffs, low=0):
    """Build a LaurentPoly, reducing mod p and trimming zero ends."""
    cs = [c % p for c in coeffs]
    start = 0
    while start < len(cs) and cs[start] == 0:
        start += 1
    end = len(cs)
    while end > start and cs[end - 1] == 0:
        end -= 1
    if start == end:
        return LaurentPoly(p, 0, ())
    return LaurentPoly(p, low + start, tuple(cs[start:end]))


def from_plain(ring, a, low=0):
    """A talex F_p[t] ring element times t^low as a LaurentPoly."""
    return laurent(ring.p, ring.to_coeffs(a), low)


def rotation_canonical_relator(w):
    """Least syllable tuple over every rotation of the cyclically reduced
    relator and of its inverse, each rotation reduced afresh."""
    w = cyclic_reduce(w)
    letters = []
    for gen, exp in w.syllables:
        step = 1 if exp > 0 else -1
        letters.extend([(gen, step)] * abs(exp))
    if not letters:
        return w
    flipped = [(g, -s) for g, s in reversed(letters)]
    best = None
    for base in (letters, flipped):
        for r in range(len(base)):
            cand = reduce(w.table, base[r:] + base[:r]).syllables
            if best is None or cand < best:
                best = cand
    return Word(w.table, best)


def relator_multiset(relators):
    """Relators as a sorted list of syllable tuples, forgetting their order."""
    return sorted(r.syllables for r in relators)


# -- integer matrices and the abelianization ----------------------------------------


def int_det(mat):
    """Exact integer determinant, fraction-free Gaussian elimination."""
    A = [[int(x) for x in row] for row in mat]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def minors_gcd(mat, k):
    """gcd of all k-by-k minors (0 when every minor vanishes)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = [[mat[i][j] for j in cols] for i in rows]
            g = gcd(g, int_det(sub))
    return g


def smith_normal_form(mat):
    """Integer Smith form: returns (U, D, V) with U mat V = D.

    U and V are unimodular; D is diagonal with d_1 | d_2 | ..., all
    nonnegative, zeros last.  Exact integer arithmetic throughout.
    """
    A = [[int(x) for x in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    for row in A:
        if len(row) != n:
            raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(M, i, j, q):
        Mi, Mj = M[i], M[j]
        for k in range(len(Mi)):
            Mi[k] -= q * Mj[k]

    def col_sub(M, i, j, q):
        for row in M:
            row[i] -= q * row[j]

    def col_swap(M, i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            A[t], A[best[0]] = A[best[0]], A[t]
            U[t], U[best[0]] = U[best[0]], U[t]
        if best[1] != t:
            col_swap(A, t, best[1])
            col_swap(V, t, best[1])
        while True:
            dirty = False
            for i in range(m):
                if i != t and A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_sub(A, i, t, q)
                    row_sub(U, i, t, q)
                    if A[i][t]:
                        # remainder is a strictly smaller pivot
                        A[t], A[i] = A[i], A[t]
                        U[t], U[i] = U[i], U[t]
                        dirty = True
            if dirty:
                continue
            for j in range(n):
                if j != t and A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_sub(A, j, t, q)
                    col_sub(V, j, t, q)
                    if A[t][j]:
                        col_swap(A, t, j)
                        col_swap(V, t, j)
                        dirty = True
            if dirty:
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(A, t, bad, -1)
            row_sub(U, t, bad, -1)
        if A[t][t] < 0:
            for k in range(n):
                A[t][k] = -A[t][k]
            for k in range(m):
                U[t][k] = -U[t][k]
        t += 1
    pack = lambda M: tuple(tuple(row) for row in M)
    return pack(U), pack(A), pack(V)


def exponent_matrix(pres):
    """Relator-by-generator exponent sums (the abelianized relation matrix)."""
    rows = []
    for r in pres.relators:
        row = [0] * len(pres.gens)
        for gen, exp in r.syllables:
            row[gen] += exp
        rows.append(tuple(row))
    return tuple(rows)


def invariant_factors(pres):
    """Invariant factors of the abelianization: the Smith diagonal entries
    above 1, then one 0 per free rank."""
    g = len(pres.gens)
    if not pres.relators:
        return (0,) * g
    _, D, _ = smith_normal_form(exponent_matrix(pres))
    diag = [D[i][i] for i in range(min(len(D), g))]
    rank = sum(1 for d in diag if d)
    return tuple(d for d in diag if d > 1) + (0,) * (g - rank)


def abelianization_map(pres):
    """Generator degrees under the map onto Z, for abelianization Z: the
    column of the Smith form's V that the relation matrix kills.  V is
    unimodular, so the column is primitive and the map onto; it is unique
    up to sign."""
    if invariant_factors(pres) != (0,):
        raise ValueError("abelianization is not infinite cyclic")
    _, D, V = smith_normal_form(exponent_matrix(pres))
    g = len(pres.gens)
    free = [j for j in range(g) if j >= len(D) or D[j][j] == 0]
    return tuple(V[i][free[0]] for i in range(g))


# -- determinants and minors over F_p[t] ------------------------------------------


def poly_cofactor_det(p, rows):
    """Laurent-matrix determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return laurent(p, (1,))
    if n == 1:
        return rows[0][0]
    total = laurent(p, ())
    for j in range(n):
        minor = [
            [row[c] for c in range(n) if c != j] for row in rows[1:]
        ]
        term = rows[0][j] * poly_cofactor_det(p, minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def plain_poly(ring, coeffs):
    """Coefficients from degree 0 upward as an element of a talex F_p[t]
    ring: residues packed ring.w bits apart, a bitmask over F_2."""
    return sum((c % ring.p) << ring.w * d for d, c in enumerate(coeffs))


def ring_deg(ring, a):
    """The degree of a talex F_p[t] ring element, -1 for zero."""
    return len(ring.to_coeffs(a)) - 1


def ring_add(ring, a, b):
    """a + b in a talex F_p[t] ring, coefficient by coefficient."""
    pairs = itertools.zip_longest(ring.to_coeffs(a), ring.to_coeffs(b), fillvalue=0)
    return plain_poly(ring, [x + y for x, y in pairs])


def ring_sub(ring, a, b):
    """a - b in a talex F_p[t] ring."""
    return ring_add(ring, a, ring.neg(b))


def ring_divmod(ring, a, b):
    """(quotient, remainder) in a talex F_p[t] ring, by schoolbook long
    division on coefficient lists."""
    rem, div = list(ring.to_coeffs(a)), ring.to_coeffs(b)
    if not div:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(rem) - len(div) + 1)
    inv_lead = pow(div[-1], -1, ring.p)
    for shift in reversed(range(len(q))):
        q[shift] = c = rem[shift + len(div) - 1] * inv_lead % ring.p
        for i, y in enumerate(div):
            rem[shift + i] = (rem[shift + i] - c * y) % ring.p
    return plain_poly(ring, q), plain_poly(ring, rem)


def laurent_divmod(a, b):
    """(quotient, remainder) of polynomials, LaurentPoly values with no
    negative powers, by long division one LaurentPoly term at a time."""
    q = laurent(a.p, ())
    while not a.is_zero and a.high >= b.high:
        c = a.coeffs[-1] * pow(b.coeffs[-1], -1, a.p)
        term = laurent(a.p, (c,), a.high - b.high)
        q, a = q + term, a - term * b
    return q, a


def poly_det(p, rows):
    """Laurent-matrix determinant through the package's plain-ring kernel.

    Every entry is multiplied by one common power of t, the determinant is
    taken over F_p[t], and the power is divided back out.
    """
    from gnk.talex import _pivot_product, _ring_for

    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    ring = _ring_for(p)
    shift = min((e.low for row in rows for e in row if not e.is_zero), default=0)
    plain = [
        [plain_poly(ring, (0,) * (e.low - shift) + e.coeffs) for e in row]
        for row in rows
    ]
    return from_plain(ring, _pivot_product(ring, plain), n * shift)


def poly_gcd(p, polys):
    """Normalized gcd; zero when every input is zero."""
    from gnk.talex import _ring_for

    ring = _ring_for(p)
    acc = ring.zero
    for poly in polys:
        if poly.p != p:
            raise ValueError("modulus mismatch")
        if poly.is_zero:
            continue
        b = plain_poly(ring, poly.coeffs)
        while b:
            _, r = ring_divmod(ring, acc, b)
            acc, b = b, r
    return from_plain(ring, acc).normalized()


def poly_minors_gcd(p, rows, k):
    """gcd of all k-by-k minors of a Laurent-polynomial matrix."""
    minors = []
    for rr in itertools.combinations(range(len(rows)), k):
        for cc in itertools.combinations(range(len(rows[0])), k):
            sub = [[rows[i][j] for j in cc] for i in rr]
            minors.append(poly_cofactor_det(p, sub))
    return poly_gcd(p, minors)


def gcdex(ring, a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b), by the extended Euclidean
    algorithm."""
    r0, r1 = a, b
    s0, s1 = ring.one, ring.zero
    t0, t1 = ring.zero, ring.one
    while r1:
        q, r = ring_divmod(ring, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ring_sub(ring, s0, ring.mul(q, s1))
        t0, t1 = t1, ring_sub(ring, t0, ring.mul(q, t1))
    return r0, s0, t0


def invariant_factor_product(ring, grid):
    """(product of diagonal entries, rank) after diagonalizing over F_p[t].

    Row and column sweeps, each entry killed by a unimodular 2x2 transform
    from the extended gcd, repeated until the pivot column stays clean.  For
    a grid with at least as many rows as columns and full column rank the
    product is the gcd of the maximal minors, up to a unit.  The grid is
    reduced in place.
    """
    m = len(grid)
    n = len(grid[0]) if m else 0
    t = 0
    prod = ring.one
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if grid[i][j] and (
                    piv is None
                    or ring_deg(ring, grid[i][j])
                    < ring_deg(ring, grid[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            grid[t], grid[piv[0]] = grid[piv[0]], grid[t]
        if piv[1] != t:
            for row in grid:
                row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            for i in range(t + 1, m):
                b = grid[i][t]
                if not b:
                    continue
                a = grid[t][t]
                q, r = ring_divmod(ring, b, a)
                if not r:
                    for j in range(t, n):
                        grid[i][j] = ring_sub(
                            ring, grid[i][j], ring.mul(q, grid[t][j])
                        )
                else:
                    g, u, v = gcdex(ring, a, b)
                    qa, _ = ring_divmod(ring, a, g)
                    qb, _ = ring_divmod(ring, b, g)
                    for j in range(t, n):
                        x, y = grid[t][j], grid[i][j]
                        grid[t][j] = ring_add(ring, ring.mul(u, x), ring.mul(v, y))
                        grid[i][j] = ring_sub(ring, ring.mul(qa, y), ring.mul(qb, x))
            col_dirty = False
            for j in range(t + 1, n):
                b = grid[t][j]
                if not b:
                    continue
                a = grid[t][t]
                q, r = ring_divmod(ring, b, a)
                if not r:
                    for i in range(t, m):
                        grid[i][j] = ring_sub(
                            ring, grid[i][j], ring.mul(q, grid[i][t])
                        )
                else:
                    g, u, v = gcdex(ring, a, b)
                    qa, _ = ring_divmod(ring, a, g)
                    qb, _ = ring_divmod(ring, b, g)
                    for i in range(t, m):
                        x, y = grid[i][t], grid[i][j]
                        grid[i][t] = ring_add(ring, ring.mul(u, x), ring.mul(v, y))
                        grid[i][j] = ring_sub(ring, ring.mul(qa, y), ring.mul(qb, x))
                    col_dirty = True  # column t picked up new entries
            if not col_dirty:
                break
        prod = ring.mul(prod, grid[t][t])
        t += 1
    return prod, t


def brute_force_homs(pres, group):
    """All homomorphisms as tuples of element indices, in lex order."""
    els = group.elements()
    found = []
    for assign in itertools.product(range(len(els)), repeat=len(pres.gens)):
        images = [els[i] for i in assign]
        if all(
            evaluate(r, images, group) == group.identity for r in pres.relators
        ):
            found.append(assign)
    return found


def search_work(pres, group, fibers=False, shards=1, shard_id=0):
    """(nodes, prunes, homs) of the plan's descent, one row at a time.

    Step 0 takes every element, or each class's least index with its class
    size as weight, shard by shard; each later step gives every surviving
    row every element, or the scalar value of its solved word.  A step's
    rows enter its checks, nodes sums them, prunes sums those the checks
    drop, and homs sums the weights of the rows left after the last step.
    """
    els = group.elements()
    steps = compile_plan(pres)
    if fibers:
        seed = [(c[0], len(c)) for c in conjugacy_classes(group)]
    else:
        seed = [(i, 1) for i in range(len(els))]
    rows = []
    for i, weight in seed[shard_id::shards]:
        images = [None] * len(pres.gens)
        images[steps[0].gen] = els[i]
        rows.append((images, weight))
    nodes = prunes = 0
    for i, step in enumerate(steps):
        if i:
            grown = []
            for images, weight in rows:
                if step.expr is None:
                    values = els
                else:
                    values = [evaluate(step.expr, images, group)]
                for x in values:
                    child = list(images)
                    child[step.gen] = x
                    grown.append((child, weight))
            rows = grown
        kept = [
            (images, weight)
            for images, weight in rows
            if all(
                evaluate(pres.relators[r], images, group) == group.identity
                for r in step.checks
            )
        ]
        nodes += len(rows)
        prunes += len(rows) - len(kept)
        rows = kept
    return nodes, prunes, sum(weight for _, weight in rows)


# -- finite groups -----------------------------------------------------------------


def conjugate(group, x, by):
    """by^-1 x by."""
    return group.mul(group.mul(group.inv(by), x), by)


def generating_set(group):
    """Greedy generating set: repeatedly adjoin the first element, in
    enumeration order, outside the closure of the generators so far."""
    gens = []
    closure = {group.identity}
    for e in group.elements():
        if e in closure:
            continue
        gens.append(e)
        closure = {group.identity}
        frontier = [group.identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = group.mul(x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        if len(closure) == group.order:
            break
    return tuple(gens)


def conjugacy_classes(group):
    """Element indices grouped by conjugacy, classes ordered by least index."""
    els = group.elements()
    gens = generating_set(group)
    seen = [False] * len(els)
    classes = []
    for i, e in enumerate(els):
        if seen[i]:
            continue
        seen[i] = True
        members = [i]
        frontier = [e]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = conjugate(group, x, g)
                j = group.index_of(y)
                if not seen[j]:
                    seen[j] = True
                    members.append(j)
                    frontier.append(y)
        classes.append(tuple(sorted(members)))
    return tuple(classes)


def validate_group(group, seed=0):
    """Identity and inverse axioms exhaustively; associativity sampled."""
    els = group.elements()
    if len(set(els)) != len(els):
        raise ValueError(f"{group.name}: duplicate elements")
    e = group.identity
    members = set(els)
    for x in els:
        if group.mul(e, x) != x or group.mul(x, e) != x:
            raise ValueError(f"{group.name}: identity fails at {x}")
        y = group.inv(x)
        if y not in members:
            raise ValueError(f"{group.name}: inverse leaves the group at {x}")
        if group.mul(x, y) != e or group.mul(y, x) != e:
            raise ValueError(f"{group.name}: inverse fails at {x}")
    n = len(els)
    if n**2 <= 600_000:
        for a in els:
            for b in els:
                if group.mul(a, b) not in members:
                    raise ValueError(f"{group.name}: not closed at ({a}, {b})")
    if n**3 <= 300_000:
        triples = itertools.product(els, repeat=3)
    else:
        rng = random.Random(seed)
        triples = (
            (els[rng.randrange(n)], els[rng.randrange(n)], els[rng.randrange(n)])
            for _ in range(3000)
        )
    for a, b, c in triples:
        if group.mul(group.mul(a, b), c) != group.mul(a, group.mul(b, c)):
            raise ValueError(f"{group.name}: not associative at ({a}, {b}, {c})")
    return True


def naive_index_tables(group):
    """(mul, inv, ident) over element indices, one group.mul call per entry."""
    import numpy as np

    els = group.elements()
    idx = {e: i for i, e in enumerate(els)}
    mul = np.array(
        [[idx[group.mul(a, b)] for b in els] for a in els], dtype=np.int32
    )
    inv = np.array([idx[group.inv(e)] for e in els], dtype=np.int32)
    return mul, inv, idx[group.identity]


def union_find_partition(matrix, group):
    """Least row index of each row's conjugation orbit, by union-find.

    Rows are conjugated by each generator through the naive tables and looked
    up in a dict of row tuples.
    """
    mul, inv, _ = naive_index_tables(group)
    lookup = {tuple(int(v) for v in row): i for i, row in enumerate(matrix)}
    rows = len(matrix)
    parent = list(range(rows))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in generating_set(group):
        k = group.index_of(g)
        for i, row in enumerate(matrix):
            conj = tuple(int(mul[mul[inv[k], int(v)], k]) for v in row)
            a, b = find(i), find(lookup[conj])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(rows)]


def mat_identity(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def mat_product(p, a, b):
    """a b over F_p, each entry a sum of products."""
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b))
        for row in a
    )


def mat_inverse(p, m):
    """m^-1 over F_p as the power of m just before the identity; m must be
    invertible, so that some power of it is the identity."""
    ident = mat_identity(len(m))
    before, power = ident, m
    while power != ident:
        before, power = power, mat_product(p, power, m)
    return before


def gl32_elements():
    """All invertible 3x3 matrices over F_2, in flat-bit order."""
    out = []
    for bits in range(512):
        m = tuple(
            tuple((bits >> (3 * i + j)) & 1 for j in range(3)) for i in range(3)
        )
        det = (
            m[0][0] * (m[1][1] * m[2][2] ^ m[1][2] * m[2][1])
            ^ m[0][1] * (m[1][0] * m[2][2] ^ m[1][2] * m[2][0])
            ^ m[0][2] * (m[1][0] * m[2][1] ^ m[1][1] * m[2][0])
        )
        if det & 1:
            out.append(m)
    return tuple(out)


def mat3_order(m):
    """The multiplicative order of a matrix in GL_3(F_2), at most 7."""
    ident = mat_identity(3)
    acc = m
    for k in range(1, 9):
        if acc == ident:
            return k
        acc = mat_product(2, acc, m)
    raise RuntimeError("order above 8 is impossible here")


def burnside_orbit_count(matrix, group):
    """(1/|H|) * sum over h of the rows fixed by conjugation by h."""
    mul, inv, _ = naive_index_tables(group)
    fixed = 0
    for h in range(len(mul)):
        conj = mul[mul[inv[h], matrix], h]
        fixed += int((conj == matrix).all(axis=1).sum())
    assert fixed % len(mul) == 0
    return fixed // len(mul)


# -- root lifts of base homomorphisms, one scalar product at a time -----------------


def _chain(group, *xs):
    acc = xs[0]
    for x in xs[1:]:
        acc = group.mul(acc, x)
    return acc


def scalar_lifts(group, base, n, knot):
    """(d_hat, b_hat, e_hat, third_ok) for each n-th root d_hat of D.

    base is a (D, B, E) element triple; the lift follows the written-out
    formulas b_hat = D B d_hat B^-1 D^-1 and e_hat = D E d_hat E^-1 D^-1
    (SK) or D^-1 E^-1 d_hat E D (GK).
    """
    D, B, E = base
    inv = group.inv
    third = knot_presentation(knot, n).relators[2]
    out = []
    for d_hat in nth_roots(group, D, n):
        b_hat = _chain(group, D, B, d_hat, inv(B), inv(D))
        if knot == "SK":
            e_hat = _chain(group, D, E, d_hat, inv(E), inv(D))
        elif knot == "GK":
            e_hat = _chain(group, inv(D), inv(E), d_hat, E, D)
        else:
            raise KeyError(f"no extension rule for knot {knot!r}")
        ok = evaluate(third, [d_hat, b_hat, e_hat], group) == group.identity
        out.append((d_hat, b_hat, e_hat, ok))
    return out


def g1_base_matrix(group):
    """Every n = 1 base row (D, B, E), lex-sorted: the full base that the
    package's fiber rows stand for."""
    rows, _ = hom_image_matrix(g1_braid_presentation(), group)
    return rows


def full_base_property_t(group, base_rows, n, knot):
    """(holds, bases, pairs, first failing (base, root) or None) from every
    row of base_rows, each lifted once; pairs is also the structured count."""
    els = group.elements()
    row, lifts, third_ok = lift_roots(group, base_rows, n, knot)
    bad = np.flatnonzero(~third_ok)
    first_fail = None
    if len(bad):
        j = bad[0]
        first_fail = (tuple(els[i] for i in base_rows[row[j]]), els[lifts[j, 0]])
    return not len(bad), len(base_rows), len(row), first_fail


def scalar_property_t(group, base_rows, n, knot):
    """(holds, first failing (base, root) or None, pairs) over index rows."""
    els = group.elements()
    first_fail = None
    pairs = 0
    for row in base_rows:
        triple = tuple(els[int(i)] for i in row)
        for d_hat, _, _, ok in scalar_lifts(group, triple, n, knot):
            pairs += 1
            if not ok and first_fail is None:
                first_fail = (triple, d_hat)
    return first_fail is None, first_fail, pairs


# -- free differential calculus ----------------------------------------------------


@dataclass(frozen=True)
class GroupRingElem:
    """Integer combination of free-group words, terms sorted and nonzero."""

    table: GeneratorTable
    terms: tuple

    def __add__(self, other):
        if self.table != other.table:
            raise ValueError("generator-table mismatch")
        return group_ring(self.table, list(self.terms) + list(other.terms))

    def scale(self, c):
        return group_ring(self.table, [(w, k * c) for w, k in self.terms])

    def __neg__(self):
        return self.scale(-1)

    def times_word(self, w):
        """Left multiplication by a group element."""
        return group_ring(
            self.table, [(word_product(w, u), c) for u, c in self.terms]
        )

    @property
    def augmentation(self):
        return sum(c for _, c in self.terms)


def group_ring(table, terms):
    acc = {}
    for w, c in terms:
        if w.table != table:
            raise ValueError("generator-table mismatch")
        key = w.syllables
        if key in acc:
            acc[key] = (w, acc[key][1] + c)
        else:
            acc[key] = (w, c)
    kept = [(w, c) for w, c in acc.values() if c]
    kept.sort(key=lambda item: item[0].syllables)
    return GroupRingElem(table, tuple(kept))


def word_power(w, k):
    """w^k as a reduced word, by repeated products."""
    if k == 0:
        return Word(w.table, ())
    base = w if k > 0 else word_inverse(w)
    out = base
    for _ in range(abs(k) - 1):
        out = word_product(out, base)
    return out


def fox_derivative(w, gen):
    """d(w)/d(x_gen) with d(uv) = du + u dv, d(g) = 1, d(g^-1) = -g^-1."""
    table = w.table
    terms = []
    prefix = Word(table, ())
    unit = Word(table, ((gen, 1),))
    for g, e in w.syllables:
        if g == gen:
            if e > 0:
                for j in range(e):
                    terms.append((word_product(prefix, word_power(unit, j)), 1))
            else:
                for j in range(1, -e + 1):
                    terms.append(
                        (word_product(prefix, word_power(unit, -j)), -1)
                    )
        prefix = word_product(prefix, Word(table, ((g, e),)))
    return group_ring(table, terms)


def member_matrices(rep, member=0):
    """(images, inverses) of one member of a Representation batch, each
    a tuple of nested-tuple matrices, one per generator."""
    return tuple(
        tuple(tuple(map(tuple, m)) for m in mats[member].tolist())
        for mats in (rep.images, rep.inverses)
    )


def apply_word(rep, w, member=0):
    """(matrix, degree) of a word under one member of a representation
    batch, letter by letter; every generator has degree 1."""
    images, _ = member_matrices(rep, member)
    mat = mat_identity(len(images[0]))
    deg = 0
    for g, e in w.syllables:
        base = images[g] if e > 0 else mat_inverse(rep.p, images[g])
        for _ in range(abs(e)):
            mat = mat_product(rep.p, mat, base)
        deg += e
    return mat, deg


def fox_block(rep, elem, member=0):
    """The image of a group-ring element under one member of a batch: sum
    of c * rep(word) * t^deg(word)."""
    k, p = rep.images.shape[-1], rep.p
    block = [[laurent(p, ()) for _ in range(k)] for _ in range(k)]
    for word, c in elem.terms:
        mat, deg = apply_word(rep, word, member)
        for u in range(k):
            for v in range(k):
                block[u][v] = block[u][v] + laurent(p, (c * mat[u][v],), deg)
    return tuple(tuple(row) for row in block)


def degree_terms(block):
    """A Laurent block as (degree, coefficient matrix) pairs, the kernel's form."""
    degrees = sorted(
        {e.low + i for row in block for e in row for i, c in enumerate(e.coeffs) if c}
    )
    return tuple(
        (
            d,
            tuple(
                tuple(
                    e.coeffs[d - e.low] if 0 <= d - e.low < len(e.coeffs) else 0
                    for e in row
                )
                for row in block
            ),
        )
        for d in degrees
    )


def laurent_block(p, k, terms):
    """The k x k Laurent block of a kernel block's (degree, matrix) pairs."""
    block = [[laurent(p, ()) for _ in range(k)] for _ in range(k)]
    for d, mat in terms:
        for u in range(k):
            for v in range(k):
                block[u][v] = block[u][v] + laurent(p, (mat[u][v],), d)
    return block


def wada_blocks(wm, member=0):
    """One member's blocks[i][j] of a WadaMatrix batch as (degree, matrix)
    pairs in ascending degree, zero matrices left out: the Fox oracle's form."""
    return tuple(
        tuple(
            tuple(
                (wm.low + d, tuple(map(tuple, mat)))
                for d, mat in enumerate(by_deg.tolist())
                if any(map(any, mat))
            )
            for by_deg in row
        )
        for row in wm.coeffs[member]
    )


def deleted_flat(wm, column, member=0):
    """One member's Wada matrix without one generator's column block, as
    Laurent rows."""
    k, p = wm.rep.images.shape[-1], wm.rep.p
    rows = []
    for row in wada_blocks(wm, member):
        blocks = [laurent_block(p, k, terms) for j, terms in enumerate(row) if j != column]
        for u in range(k):
            rows.append([e for block in blocks for e in block[u]])
    return rows


def validate_representation(pres, rep):
    """Replay every relator through every member of a representation
    batch, matrix by matrix."""
    if rep.table != pres.gens:
        raise ValueError("representation is over different generators")
    ident = mat_identity(rep.images.shape[-1])
    for member in range(len(rep.images)):
        for r in pres.relators:
            mat, deg = apply_word(rep, r, member)
            if mat != ident or deg != 0:
                raise ValueError(f"relator {r.syllables} is not respected")


# -- twisted Alexander, one evaluation per homomorphism -----------------------------


def per_hom_talex(knot, n, target):
    """(digest, homs, distinct) of a talex cell, evaluating every homomorphism."""
    from gnk.fingroups import PSL2Group, group_from_spec
    from gnk.homsearch import enumerate_homs
    from gnk.presentations import knot_presentation
    from gnk.talex import (
        representation_from_psl27_hom,
        representation_from_sl2_hom,
        twisted_alexander,
    )

    group = group_from_spec(target)
    pres = knot_presentation(knot, n)
    builder = (
        representation_from_psl27_hom
        if isinstance(group, PSL2Group)
        else representation_from_sl2_hom
    )
    lines = [
        twisted_alexander(pres, builder(pres, hom)).line()
        for hom in enumerate_homs(pres, group)
    ]
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    return digest, len(lines), len(set(lines))


def trivial_representation(pres, p):
    """Every generator to the 1 x 1 identity over F_p, and to t under the
    degree map: the classical Alexander polynomial; a batch of one."""
    return hand_representation(pres, p, [(((1,),),) * len(pres.gens)])


def hand_representation(pres, p, members):
    """A batch from nested-tuple images, one tuple of k x k matrices per
    member, each inverse from the oracle's mat_inverse."""
    inverses = [[mat_inverse(p, m) for m in images] for images in members]
    return Representation(
        pres.gens, p, np.array(members, np.int64), np.array(inverses, np.int64)
    )


def batch_member(rep, member):
    """One member of a batch as a batch of one."""
    pick = slice(member, member + 1)
    return Representation(rep.table, rep.p, rep.images[pick], rep.inverses[pick])


def joined_batch(*reps):
    """The members of several batches over one table and p, in order, as
    one batch."""
    return Representation(
        reps[0].table,
        reps[0].p,
        np.concatenate([rep.images for rep in reps]),
        np.concatenate([rep.inverses for rep in reps]),
    )


# -- matrix images by element, the per-homomorphism builders' nested tuples --------

def psl27_oracle_dictionary(psl):
    """{element: GL_3(F_2) matrix} for PSL2_7, extended from the images of
    the standard generators breadth first with group.mul and
    entry-by-entry products."""
    gens = [
        (psl.parse_element(text), img)
        for text, img in (
            ("[[0,1],[6,0]]", ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
            ("[[1,1],[0,1]]", ((0, 1, 1), (0, 0, 1), (1, 0, 0))),
        )
    ]
    table = {psl.identity: mat_identity(3)}
    frontier = [psl.identity]
    while frontier:
        x = frontier.pop(0)
        for g, img in gens:
            y = psl.mul(x, g)
            if y not in table:
                table[y] = mat_product(2, table[x], img)
                frontier.append(y)
    return table


def oracle_matrices(group, indices):
    """(images, inverses) of element indices into SL2_p or PSL2_7 as
    nested-tuple matrices: each image is its element's matrix, and each
    inverse the matrix of group.inv of that element."""
    from gnk.fingroups import PSL2Group

    els = group.elements()
    if isinstance(group, PSL2Group):
        table = psl27_oracle_dictionary(group)

        def matrix(x):
            return table[x]

    else:

        def matrix(x):
            a, b, c, d = x
            return ((a, b), (c, d))

    xs = [els[i] for i in indices]
    return tuple(map(matrix, xs)), tuple(matrix(group.inv(x)) for x in xs)


def recording_pool(sizes):
    """A ProcessPoolExecutor stand-in that appends each max_workers to sizes
    and maps in this process, so no worker process starts."""

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return Pool


def bench_module(name):
    """bench/<name>.py, loaded from its file; the benchmark's modules that
    tests read import only the standard library."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- homomorphisms, words, presentations and tables as text -----------------------


def evaluate(w, images, group):
    """Image of a word under generator assignments, left to right.

    images[i] is the image of generator i; group supplies identity, mul
    and power.
    """
    if len(images) != len(w.table):
        raise ValueError("one image per generator required")
    acc = group.identity
    for gen, exp in w.syllables:
        acc = group.mul(acc, group.power(images[gen], exp))
    return acc


def hom_images(hom):
    """The group elements a Homomorphism sends its generators to."""
    els = hom.group.elements()
    return tuple(els[i] for i in hom.image_indices)


def hom_is_valid(pres, hom):
    """Every relator of pres evaluates to the identity under the
    homomorphism."""
    images = hom_images(hom)
    return all(
        evaluate(r, images, hom.group) == hom.group.identity
        for r in pres.relators
    )


def serialize_hom(pres, hom):
    """name=element for each generator of pres, in generator order."""
    return " ".join(
        f"{name}={hom.group.format_element(img)}"
        for name, img in zip(pres.gens.names, hom_images(hom))
    )


def substitute(u, gen, replacement):
    """Replace every occurrence of a generator by a word not mentioning it."""
    if replacement.table != u.table:
        raise ValueError("generator-table mismatch")
    if any(g == gen for g, _ in replacement.syllables):
        raise ValueError("replacement mentions the substituted generator")
    stream = []
    for g, e in u.syllables:
        if g == gen:
            stream.extend(word_power(replacement, e).syllables)
        else:
            stream.append((g, e))
    return reduce(u.table, stream)


def generator_words(table):
    return tuple(Word(table, ((i, 1),)) for i in range(len(table)))


def sk_powered_third_relation(n):
    """Both sides of (e^n d^n)^3 d (e^n d^n)^-3 = (b^n d^n)^3 d (b^n d^n)^-3."""
    t = GeneratorTable(("d", "b", "e"))
    ed = parse_word(f"e^{n} d^{n}", t)
    bd = parse_word(f"b^{n} d^{n}", t)
    d = parse_word("d", t)
    return tuple(
        word_product(word_power(u, 3), d, word_power(u, -3)) for u in (ed, bd)
    )


def parse_presentation(text):
    """The inverse of presentations.format_presentation."""
    gens = None
    n = 1
    relators = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ValueError(f"bad line {line!r}")
        key = key.strip()
        rest = rest.strip()
        if key == "gens":
            if gens is not None:
                raise ValueError("duplicate gens line")
            gens = GeneratorTable(tuple(rest.split()))
        elif key == "n":
            n = int(rest)
        elif key == "rel":
            if gens is None:
                raise ValueError("rel line before gens line")
            relators.append(parse_word(rest, gens))
        else:
            raise ValueError(f"unknown key {key!r}")
    if gens is None:
        raise ValueError("missing gens line")
    return Presentation(gens, tuple(relators), n=n)


def format_diagram(diagram):
    lines = [f"arcs {diagram.arc_count}"]
    for sign, over, ui, uo in diagram.crossings:
        lines.append(f"{'+' if sign > 0 else '-'} {over} {ui} {uo}")
    return "\n".join(lines) + "\n"


def parse_diagram(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("arcs "):
        raise ValueError("first line must be 'arcs N'")
    arc_count = int(lines[0].split()[1])
    crossings = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] not in "+-":
            raise ValueError(f"bad crossing line {line!r}")
        sign = 1 if parts[0] == "+" else -1
        crossings.append((sign, int(parts[1]), int(parts[2]), int(parts[3])))
    return KnotDiagram(arc_count, tuple(crossings))


def cayley_table(group):
    """Element-index multiplication table, in the group's element order."""
    els = group.elements()
    idx = {e: i for i, e in enumerate(els)}
    return tuple(tuple(idx[group.mul(a, b)] for b in els) for a in els)


def format_cayley_table(group):
    """The text form that fingroups.parse_cayley_table and cayley: specs read."""
    table = cayley_table(group)
    lines = [str(len(table))]
    lines.extend(" ".join(str(v) for v in row) for row in table)
    return "\n".join(lines) + "\n"
