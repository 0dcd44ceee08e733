"""Vectorized homomorphism search from finite presentations into finite groups.

The search assigns one generator image per plan step, in a compiled order
rather than plain presentation order: whenever an unused relator mentions
exactly one still-unknown generator, exactly once, with exponent +-1, that
generator's image is solved from it instead of enumerated.  Remaining
generators are enumerated, most-constrained first; the first step always
enumerates.  Each step then checks the relators its assignment completes.
Every batch is an image matrix, one int32 row of generator images per
candidate: the search's rows, the root lifts and the extend base alike.
Step 0's values are a seed column, so one descent covers every seed value,
and the matrix comes back sorted lexicographically by the presentation's
own generator order, so shard outputs merge deterministically.

The full search seeds every element.  The fiber search seeds one
representative c of each conjugacy class: its rows are the fibers F_c, the
homomorphisms whose first free generator maps to c.  The paper's two
invariants follow from them, |Hom| = sum_c [H : C_H(c)] |F_c|, and the
conjugation orbits of homomorphisms are the C_H(c)-orbits on each F_c
(Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005):
each row is conjugated by every element of C_H(c) outside the centre, and
its orbit's least row is the least row found.
Property T and structured counts read the fibers of the n = 1 base, each
row weighted by [H : C_H(c)].  Property T at any n tests the n-th roots of
each row's D against one stored commutant per row, which does not depend on
n (see lift_roots).  Shards split the seed.

All group arithmetic runs on precomputed index tables (numpy int32): a
product of index arrays is one flat gather, mul_flat[a * n + b], and
n**2 - 1 < 2**31 while n <= 46340, so a larger order is refused before
its n x n table is allocated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fingroups import CapabilityError, FiniteGroup
from .presentations import (
    Presentation,
    g1_braid_presentation,
    knot_presentation,
)
from .words import Word, word_inverse, word_product

BLOCK_ROWS = 1 << 17
MAX_TABLE_ORDER = 46340  # 46341**2 > 2**31: a * n + b would wrap in int32


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: int = 0
    homs: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class Homomorphism:
    group: FiniteGroup
    image_indices: tuple[int, ...]


class _Indexed:
    """Generators, multiplication, inverse, and power tables over element
    indices, from one walk of the Cayley graph (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005).

    Row g x of mul is row x mapped through row g, as (g x) y = g (x y), so
    the walk fills rows outwards from the identity's by left multiplication
    with the generators.  Whenever it stalls it adjoins the least element
    not reached as the next generator, whose row alone calls group.mul; so
    gens is the greedy generating set.  The inverses are read off the table.
    """

    def __init__(self, group: FiniteGroup) -> None:
        els = group.elements()
        n = len(els)
        if n > MAX_TABLE_ORDER:
            raise CapabilityError(
                f"{group.name} has order {n}, above the int32 bound {MAX_TABLE_ORDER}"
            )
        index = group.index_of
        ident = index(group.identity)
        mul = np.empty((n, n), dtype=np.int32)
        mul[ident] = np.arange(n)
        reached = np.zeros(n, dtype=bool)
        reached[ident] = True
        gens: list[int] = []
        queue = [ident]
        while len(queue) < n:
            g = int(np.argmin(reached))
            gens.append(g)
            mul[g] = [index(group.mul(els[g], y)) for y in els]
            for x in queue:  # the queue grows while it is walked
                for h in gens:
                    k = int(mul[h, x])
                    if not reached[k]:
                        reached[k] = True
                        mul[k] = mul[h][mul[x]]
                        queue.append(k)
        self.n = n
        self.ident = ident
        self.gens = np.array(gens, dtype=np.int32)
        self.mul = mul
        self.mul_flat = mul.reshape(-1)
        self.inv = np.nonzero(mul == ident)[1].astype(np.int32)
        self._pow: dict[int, np.ndarray] = {
            0: np.full(n, ident, dtype=np.int32),
            1: np.arange(n, dtype=np.int32),
        }
        self._roots: dict[int, tuple[np.ndarray, ...]] = {}

    def product(self, a, b):
        """Products of index arrays (or indices) a, b that broadcast."""
        return self.mul_flat.take(a * self.n + b)

    def pow_map(self, k: int) -> np.ndarray:
        """pow_map(k)[i] is the index of the k-th power of element i.

        x^|H| = 1, so k is reduced mod the order first; the map is built by
        square-and-multiply on the index arrays and cached per residue.
        """
        k %= self.n
        out = self._pow.get(k)
        if out is None:
            out, square, e = self._pow[0], self._pow[1], k
            while e:
                if e & 1:
                    out = self.product(out, square)
                square = self.product(square, square)
                e >>= 1
            self._pow[k] = out
        return out

    def root_buckets(self, k: int) -> tuple[np.ndarray, ...]:
        """(order, starts, counts): the k-th roots of element t, in
        enumeration order, are order[starts[t] : starts[t] + counts[t]];
        cached per residue of k, as pow_map is."""
        k %= self.n
        if k not in self._roots:
            powers = self.pow_map(k)
            counts = np.bincount(powers, minlength=self.n)
            order = np.argsort(powers, kind="stable").astype(np.int32)
            self._roots[k] = order, np.cumsum(counts) - counts, counts
        return self._roots[k]


@lru_cache(maxsize=None)
def indexed_tables(group: FiniteGroup) -> _Indexed:
    return _Indexed(group)


def _conjugate(idx: _Indexed, rows: np.ndarray, by: np.ndarray) -> np.ndarray:
    """by^-1 x by for each entry x of rows; by broadcasts against rows."""
    return idx.product(idx.product(idx.inv.take(by), rows), by)


def _expand(buckets: tuple[np.ndarray, ...], keys: np.ndarray) -> tuple:
    """(i, member) pairs, one per member of bucket keys[i], ordered by i and
    then by position in the bucket; buckets are (members, starts, counts),
    bucket k being members[starts[k] : starts[k] + counts[k]]."""
    members, starts, counts = buckets
    per = counts.take(keys)
    i = np.repeat(np.arange(len(keys)), per)
    first = np.repeat(starts.take(keys) + per - np.cumsum(per), per)
    return i, members.take(first + np.arange(len(i)))


class _Classes:
    """Conjugacy classes of a group, read off its index tables.

    reps          the least element index of each class, ascending
    label[x]      the position in reps of x's class
    sizes[i]      |class(c)| = [H : C_H(c)] for c = reps[i]
    centralizers  buckets (members, starts, counts) for _expand: bucket i
                  is C_H(reps[i]) minus the centre Z(H), ascending, as
                  Z(H) conjugates trivially

    An element's class representative is its least conjugate, read off the
    n x n table of conjugates t^-1 x t, built a block of rows at a time so
    that no temporary outgrows a search block.
    """

    def __init__(self, group: FiniteGroup) -> None:
        idx = indexed_tables(group)
        every = np.arange(idx.n, dtype=np.int32)
        per = max(BLOCK_ROWS // idx.n, 1)  # table rows at a time, as the search
        least = np.concatenate([
            _conjugate(idx, every[lo : lo + per, None], every).min(axis=1)
            for lo in range(0, idx.n, per)
        ])
        self.reps = np.flatnonzero(least == every).astype(np.int32)
        self.label = np.searchsorted(self.reps, least)
        self.sizes = np.bincount(self.label)
        moves = self.sizes[self.label] > 1
        c = self.reps[:, None]
        commute = (idx.product(c, every) == idx.product(every, c)) & moves
        counts = np.count_nonzero(commute, axis=1)
        members = np.nonzero(commute)[1].astype(np.int32)
        self.centralizers = members, np.cumsum(counts) - counts, counts


@lru_cache(maxsize=None)
def class_data(group: FiniteGroup) -> _Classes:
    return _Classes(group)


# -- assignment plans ---------------------------------------------------------


@dataclass(frozen=True)
class _Step:
    """Assign gen, enumerated (expr None) or solved from a relator (expr, a
    word in earlier generators), then keep the rows on which the relators
    at positions checks hold: those this assignment completes."""

    gen: int
    expr: Word | None
    checks: tuple[int, ...]


def _solve_for(relator: Word, pos: int) -> Word:
    """x from u x^e v = 1 where the syllable at pos is x^e, e = +-1."""
    table = relator.table
    u = Word(table, relator.syllables[:pos])
    v = Word(table, relator.syllables[pos + 1 :])
    if relator.syllables[pos][1] == 1:
        return word_product(word_inverse(u), word_inverse(v))
    return word_product(v, u)


@lru_cache(maxsize=None)
def compile_plan(pres: Presentation) -> tuple[_Step, ...]:
    """One _Step per generator; checks refer to relator positions."""
    relators, count = pres.relators, len(pres.gens)
    known: set[int] = set()
    used = {ri for ri, r in enumerate(relators) if not r.syllables}
    steps: list[_Step] = []
    while len(known) < count:
        for ri, r in enumerate(relators):
            if ri in used:
                continue
            unknown = [
                (pos, g, e)
                for pos, (g, e) in enumerate(r.syllables)
                if g not in known
            ]
            if known and len(unknown) == 1 and abs(unknown[0][2]) == 1:
                pos, gen, _ = unknown[0]
                used.add(ri)
                expr = _solve_for(r, pos)
                break
        else:
            best = None
            for g in range(count):
                if g in known:
                    continue
                near_done = members = 0
                for ri, r in enumerate(relators):
                    if ri in used:
                        continue
                    gens_in = {gg for gg, _ in r.syllables}
                    if g in gens_in:
                        members += 1
                        if len(gens_in - known) == 2:
                            near_done += 1
                key = (near_done, members, -g)
                if best is None or key > best[0]:
                    best = (key, g)
            assert best is not None
            gen, expr = best[1], None
        known.add(gen)
        checks = tuple(
            ri
            for ri, r in enumerate(relators)
            if ri not in used and {g for g, _ in r.syllables} <= known
        )
        used.update(checks)
        steps.append(_Step(gen, expr, checks))
    return tuple(steps)


# -- the search ----------------------------------------------------------------


def _eval_on_columns(word: Word, rows: np.ndarray, idx: _Indexed) -> np.ndarray:
    """The word's value on each image row, each power column g^e read once."""
    syllables = word.syllables
    if not syllables:
        return np.full(len(rows), idx.ident, dtype=np.int32)
    powers = {(g, e): idx.pow_map(e).take(rows[:, g]) for g, e in set(syllables)}
    val = powers[syllables[0]]
    for syllable in syllables[1:]:
        val = idx.product(val, powers[syllable])
    return val


def _lex_sorted(matrix: np.ndarray) -> np.ndarray:
    return matrix[np.lexsort(matrix.T[::-1])]


def _check_shards(shards: int, shard_id: int = 0) -> None:
    if shards < 1 or not 0 <= shard_id < shards:
        raise ValueError("need shards >= 1 and 0 <= shard_id < shards")


def hom_image_matrix(
    pres: Presentation,
    group: FiniteGroup,
    shards: int = 1,
    shard_id: int = 0,
    fibers: bool = False,
) -> tuple[np.ndarray, SearchStats]:
    """All homomorphism image rows, lex-sorted in presentation gen order,
    or with fibers only those whose first free generator maps to a class
    representative (see class_data).

    Plan step 0 enumerates, and the seed column takes its place: every
    element, or the class representatives.  So one descent covers every
    seed value, and shard s of k takes every k-th seed value from the s-th
    on.  A found row counts weight[x] towards stats.homs, x its first free
    generator's image: 1, or with fibers the size of x's class, so
    stats.homs counts every homomorphism of the shard either way.
    """
    _check_shards(shards, shard_id)
    idx = indexed_tables(group)
    if fibers:
        classes = class_data(group)
        seed, weight = classes.reps, classes.sizes[classes.label]
    else:
        seed = np.arange(idx.n, dtype=np.int32)
        weight = np.ones(idx.n, dtype=np.int64)
    seed = seed[shard_id::shards]
    steps = compile_plan(pres)
    first = steps[0].gen
    stats = SearchStats()
    started = time.perf_counter()
    start = np.zeros((len(seed), len(pres.gens)), dtype=np.int32)
    start[:, first] = seed
    blocks: list[np.ndarray] = []

    def descend(i: int, rows: np.ndarray) -> None:
        """Keep the rows that pass step i's checks, then assign step i + 1."""
        for ri in steps[i].checks:
            keep = _eval_on_columns(pres.relators[ri], rows, idx) == idx.ident
            kept = int(np.count_nonzero(keep))
            stats.prunes += len(rows) - kept
            if not kept:
                return
            if kept < len(rows):
                rows = rows[keep]
        if i + 1 == len(steps):
            stats.homs += int(weight[rows[:, first]].sum())
            blocks.append(rows)
            return
        step = steps[i + 1]
        if step.expr is not None:
            stats.nodes += len(rows)
            # each call holds its own rows, so the solved column goes in place
            rows[:, step.gen] = _eval_on_columns(step.expr, rows, idx)
            descend(i + 1, rows)
            return
        # at most BLOCK_ROWS rows a block: per parents, each taking width values
        width = min(idx.n, BLOCK_ROWS)
        per = max(BLOCK_ROWS // idx.n, 1)
        for lo in range(0, len(rows), per):
            for v in range(0, idx.n, width):
                values = np.arange(v, min(v + width, idx.n), dtype=np.int32)
                block = np.repeat(rows[lo : lo + per], len(values), axis=0)
                block.reshape(-1, len(values), len(pres.gens))[..., step.gen] = values
                stats.nodes += len(block)
                descend(i + 1, block)

    stats.nodes += len(seed)
    descend(0, start)
    matrix = _lex_sorted(np.concatenate([start[:0], *blocks]))
    stats.wall_time = time.perf_counter() - started
    return matrix, stats


def count_homs(pres: Presentation, group: FiniteGroup) -> tuple[int, SearchStats]:
    """|Hom(pres, group)| = sum over class representatives c of
    [H : C_H(c)] times the size of c's fiber."""
    _, stats = hom_image_matrix(pres, group, fibers=True)
    return stats.homs, stats


def pool_map(fn, items: list, jobs: int) -> list:
    """[fn(*item) for item in items], on a pool of min(jobs, len(items))
    processes when that is at least 2, else in this process.

    The only process pool in gnk: fn must be a module-level function, so
    that the pool can pickle it.
    """
    if jobs < 1:
        raise ValueError("need jobs >= 1")
    workers = min(jobs, len(items))
    if workers < 2:
        return [fn(*item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*items)))


def sharded_search(
    pres: Presentation,
    group: FiniteGroup,
    shards: int = 1,
    jobs: int = 1,
    shard_id: int | None = None,
) -> tuple[np.ndarray, dict]:
    """One fiber search split into shards, run through pool_map on up to
    jobs processes: every shard, or only shard_id.

    Returns the lex-sorted fiber matrix of the shards run and their stats
    summed: nodes, prunes, homs, wall_time and the shard count.
    """
    _check_shards(shards, shard_id or 0)
    seeds = len(class_data(group).reps)  # shards from this one on seed nothing
    ids = range(min(shards, seeds)) if shard_id is None else [shard_id]
    work = [(pres, group, shards, s, True) for s in ids]
    results = pool_map(hom_image_matrix, work, jobs)
    matrix = results[0][0]
    if len(results) > 1:
        matrix = _lex_sorted(np.vstack([found for found, _ in results]))
    parts = [stats for _, stats in results]
    return matrix, {
        "nodes": sum(s.nodes for s in parts),
        "prunes": sum(s.prunes for s in parts),
        "homs": sum(s.homs for s in parts),
        "wall_time": round(sum(s.wall_time for s in parts), 6),
        "shards": shards,
    }


def enumerate_homs(pres: Presentation, group: FiniteGroup):
    matrix, _ = hom_image_matrix(pres, group)
    for row in matrix:
        yield Homomorphism(group, tuple(int(v) for v in row))


# -- conjugation orbits ---------------------------------------------------------


def row_locator(matrix: np.ndarray):
    """locate(block)[i] is the row of matrix equal to block[i]."""
    rows = matrix.shape[0]

    def as_keys(block: np.ndarray) -> np.ndarray:
        block = np.ascontiguousarray(block, dtype=np.int32)
        row_bytes = np.dtype((np.void, block.itemsize * block.shape[1]))
        return block.view(row_bytes)[:, 0]

    keys = as_keys(matrix)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    def locate(block: np.ndarray) -> np.ndarray:
        got = as_keys(block)
        pos = np.searchsorted(sorted_keys, got)
        ok = (pos < rows) & (sorted_keys[np.minimum(pos, rows - 1)] == got)
        if not ok.all():
            raise ValueError("conjugate left the homomorphism set")
        return order[pos]

    return locate


def orbit_partition(
    matrix: np.ndarray, group: FiniteGroup, pairs: tuple | None = None
) -> np.ndarray:
    """The least row index of each input row's conjugation orbit, as an
    int64 array.

    For a lex-sorted image matrix that is the orbit's lex-least row.  Each
    pair (i, t) conjugates row i by t (default: every row by every
    element), all conjugates are found in one lookup, and row i's label is
    the least row found, or i.  When the pairs of row i run over a whole
    group, leaving out only elements that fix every row (such as the
    centre), that is the least row of its orbit under the group.
    """
    idx, rows = indexed_tables(group), matrix.shape[0]
    i, by = np.divmod(np.arange(rows * idx.n), idx.n) if pairs is None else pairs
    least = np.arange(rows)
    if len(i):  # no pairs (an abelian group's fibers): each row is its orbit
        conjugates = _conjugate(idx, matrix.take(i, axis=0), by[:, None])
        np.minimum.at(least, i, row_locator(matrix)(conjugates))
    return least


def orbit_count(matrix: np.ndarray, group: FiniteGroup) -> int:
    return len(np.unique(orbit_partition(matrix, group)))


def orbit_representatives(matrix: np.ndarray, group: FiniteGroup) -> np.ndarray:
    """Lex-least row of each conjugation orbit, in lex order."""
    return matrix[np.unique(orbit_partition(matrix, group))]


# -- fibers: one class representative per first free generator -----------------


def into_fibers(
    pres: Presentation, group: FiniteGroup, rows: np.ndarray
) -> np.ndarray:
    """Each row conjugated so its first free generator maps to its class's
    representative c: by the least t with t^-1 x t = c, x that generator's
    image, found for each distinct x by one comparison over the group."""
    idx, classes = indexed_tables(group), class_data(group)
    xs, which = np.unique(rows[:, compile_plan(pres)[0].gen], return_inverse=True)
    reps = classes.reps[classes.label[xs]]
    hit = _conjugate(idx, xs[:, None], np.arange(idx.n)) == reps[:, None]
    return _conjugate(idx, rows, hit.argmax(axis=1)[which, None])


def fiber_orbits(
    pres: Presentation, group: FiniteGroup, matrix: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(each row's orbit root, the distinct roots in lex order, orbit sizes)
    for a fiber matrix.

    The conjugation orbits of homomorphisms meet the fiber of c in the
    orbits of C_H(c), so each row is conjugated by every element of C_H(c)
    outside the centre (see class_data).  A root is the row of the orbit's
    lex-least member; an orbit's size counts all its homomorphisms,
    [H : C_H(c)] times its C_H(c)-orbit size.
    """
    classes = class_data(group)
    row_class = classes.label[matrix[:, compile_plan(pres)[0].gen]]
    roots = orbit_partition(matrix, group, _expand(classes.centralizers, row_class))
    reps = np.flatnonzero(roots == np.arange(len(roots)))
    counts = np.bincount(roots, minlength=len(roots))[reps]
    return roots, reps, counts * classes.sizes[row_class[reps]]


# -- n = 1 base homomorphisms and their twisted extensions ----------------------


@lru_cache(maxsize=None)
def g1_base_fibers(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """(rows, weights): the fibers of the shared n = 1 group, images
    (D, B, E), each row weighted by the size of the class its first free
    generator maps to; cached per group."""
    pres = g1_braid_presentation()
    rows, _ = hom_image_matrix(pres, group, fibers=True)
    classes = class_data(group)
    return rows, classes.sizes[classes.label[rows[:, compile_plan(pres)[0].gen]]]


_COMPOSITE = ("SK", "GK")


def require_composite(task: str, knot: str) -> None:
    """Refuse tasks that need the third relator of the composite knots."""
    if knot not in _COMPOSITE:
        raise CapabilityError(f"{task} is defined for the composite knots only")


def _lift_conjugators(idx: _Indexed, base: np.ndarray) -> tuple[np.ndarray, ...]:
    """(x, y, c) for base rows (D, B, E); y and c hold one row per knot of
    _COMPOSITE, SK then GK.  A lift along an n-th root d_hat of D has b_hat =
    x d_hat x^-1 and e_hat = y d_hat y^-1, and its third relator holds
    exactly when d_hat commutes with c, at every n.

    x = DB, and y = DE (SK) or D^-1 E^-1 (GK).  As d_hat^n = D, b_hat^n =
    x D x^-1 and e_hat^n = y D y^-1 on any row, braid or not.  So the right
    side b^n d^n b d^-n b^-n is Q d_hat Q^-1, Q = (x D x^-1) D x, and the
    left side is P d_hat P^-1, P = (y D y^-1) D y for SK's e^n d^n e d^-n
    e^-n and P = (y D^-1 y^-1) D^-1 y for GK's e^-n d^-n e d^n e^n: they
    agree exactly when d_hat commutes with c = Q^-1 P.
    """
    D, B, E = base.T
    inv, prod = idx.inv, idx.product
    d_inv = inv.take(D)
    z = np.stack([prod(D, B), prod(D, E), prod(d_inv, inv.take(E))])  # x, y, y
    t = np.stack([D, D, d_inv])
    sides = prod(prod(prod(prod(z, t), inv.take(z)), t), z)  # Q, P, P
    return z[0], z[1:], prod(inv.take(sides[0]), sides[1:])


@lru_cache(maxsize=None)
def _commutants(group: FiniteGroup, base_bytes: bytes) -> np.ndarray:
    """c of _lift_conjugators for int32 base rows (D, B, E) given as bytes:
    built once per group and base rows, for both composite knots."""
    base = np.frombuffer(base_bytes, dtype=np.int32).reshape(-1, 3)
    return _lift_conjugators(indexed_tables(group), base)[2]


def _commutes(idx: _Indexed, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return idx.product(a, b) == idx.product(b, a)


def lift_roots(
    group: FiniteGroup, base: np.ndarray, n: int, knot: str
) -> tuple[np.ndarray, ...]:
    """Every root lift of every base row (D, B, E), valid or not.

    Returns (row, lifts, third_ok), one entry per pair of a base row and an
    n-th root d_hat of its D, ordered by row and then root: row is the base
    row, and lifts holds the images (d_hat, b_hat, e_hat), an image row of
    knot_presentation(knot, n).  The other two images are forced: b_hat =
    (DB) d_hat (DB)^-1, and e_hat is d_hat conjugated by DE (SK) or
    D^-1 E^-1 (GK).  A lift is a homomorphism of the reduced twisted
    presentation exactly when its third relator checks out; the braid
    relators hold whenever the base's do, and the third exactly when d_hat
    commutes with the row's commutant c (see _lift_conjugators), which does
    not depend on n: n enters only through the n-th roots of D.
    """
    knot_presentation(knot, n)  # bad n or knot raise here
    require_composite("property_t", knot)
    idx = indexed_tables(group)
    row, d_hat = _expand(idx.root_buckets(n), base[:, 0])
    k = _COMPOSITE.index(knot)
    x, y, c = _lift_conjugators(idx, base)
    # conjugating by z^-1 takes d_hat to z d_hat z^-1, for z = x and y
    by = idx.inv.take(np.stack([x, y[k]])[:, row])
    lifts = np.column_stack([d_hat, *_conjugate(idx, d_hat, by)])
    return row, lifts, _commutes(idx, d_hat, c[k].take(row))


@dataclass(frozen=True)
class ExtensionCandidate:
    """One lift of a base homomorphism along an n-th root d_hat of D; it is
    a homomorphism exactly when third_ok holds."""

    d_hat: object
    b_hat: object
    e_hat: object
    third_ok: bool


def extend_g1_hom(
    group: FiniteGroup, base: tuple, n: int, knot: str
) -> tuple[ExtensionCandidate, ...]:
    """All root lifts of one base homomorphism, valid or not.

    base is the (D, B, E) image triple; see lift_roots.  A base that breaks
    a braid relator raises ValueError, before the knot is checked.
    """
    indices = np.array([[group.index_of(x) for x in base]], dtype=np.int32)
    idx = indexed_tables(group)
    braid = g1_braid_presentation().relators
    if any(_eval_on_columns(r, indices, idx)[0] != idx.ident for r in braid):
        raise ValueError("base images do not satisfy the braid relations")
    _, lifts, third_ok = lift_roots(group, indices, n, knot)
    els = group.elements()
    return tuple(
        ExtensionCandidate(*(els[i] for i in lift), ok)
        for lift, ok in zip(lifts.tolist(), third_ok.tolist())
    )


@dataclass(frozen=True)
class PropertyTReport:
    """Whether every root lift of every base homomorphism is valid.

    pairs counts every (base, root) pair, also when property T fails; the
    counterexample is the first failing pair in base-row, then root order.
    """

    holds: bool
    bases: int
    pairs: int
    counterexample_base: tuple | None = None
    counterexample_root: object | None = None


def check_property_t(group: FiniteGroup, n: int, knot: str) -> PropertyTReport:
    """Property T on the base fibers, each row weighted by its class size:
    the lifts of a conjugate base row are the conjugate lifts.

    No lift is built: each n-th root d_hat of a row's D is tested against
    the row's commutant c (see lift_roots), cached per group and base rows
    for every n and both knots.  The search seeds D, so a fiber holds every
    base row whose D is a class representative, its class's least element.
    Failing rows are closed under conjugation, so the first failing base
    row has such a D; the fiber rows, lex-sorted like the full base, meet
    its pairs first.
    """
    knot_presentation(knot, n)  # bad n or knot raise before any table is built
    require_composite("property_t", knot)
    base, weights = g1_base_fibers(group)
    idx = indexed_tables(group)
    row, d_hat = _expand(idx.root_buckets(n), base[:, 0])
    c = _commutants(group, np.ascontiguousarray(base, dtype=np.int32).tobytes())
    c = c[_COMPOSITE.index(knot)].take(row)
    bad = np.flatnonzero(~_commutes(idx, d_hat, c))
    counterexample = None, None
    if len(bad):
        els = group.elements()
        j = bad[0]
        counterexample = tuple(els[i] for i in base[row[j]]), els[d_hat[j]]
    return PropertyTReport(
        not len(bad), int(weights.sum()), int(weights[row].sum()), *counterexample
    )


def structured_count(group: FiniteGroup, n: int) -> int:
    """Sum over base homomorphisms of the number of n-th roots of D.

    Equals the twisted homomorphism count whenever every root lift is
    valid; when lifts can fail, the difference is data worth recording.
    """
    _, _, counts = indexed_tables(group).root_buckets(n)
    base, weights = g1_base_fibers(group)
    return int((counts[base[:, 0]] * weights).sum())
