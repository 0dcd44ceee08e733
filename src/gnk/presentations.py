"""Finite presentations of generalized knot groups.

A crossing with over-arc y carries the relation ``x = y^n z y^-n`` between
the two under-arcs, where for a positive crossing x is the incoming
under-arc and z the outgoing one, and for a negative crossing the roles
swap.  At n = 1 this is the usual Wirtinger relation.

Relators are stored cyclically reduced and canonicalized: among all
rotations of the relator and of its inverse we keep the lexicographically
least syllable tuple.  Two relators that present the same cyclic word
therefore compare equal.  A presentation is its fields: two compare equal
when their generators, ordered relators and n do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import (
    GeneratorTable,
    Word,
    format_word,
    parse_word,
    reduce,
    word_inverse,
    word_product,
)

SIGNS = (1, -1)


@dataclass(frozen=True)
class KnotDiagram:
    """Arcs numbered 0..arc_count-1; crossings as (sign, over, in, out).

    When crossings are present, every arc must appear exactly once as an
    incoming under-arc and exactly once as an outgoing one; that is what
    closing up the strands means combinatorially.
    """

    arc_count: int
    crossings: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        if self.arc_count < 1:
            raise ValueError("need at least one arc")
        ins: list[int] = []
        outs: list[int] = []
        for sign, over, under_in, under_out in self.crossings:
            if sign not in SIGNS:
                raise ValueError(f"crossing sign must be +1 or -1, got {sign}")
            for arc in (over, under_in, under_out):
                if not 0 <= arc < self.arc_count:
                    raise ValueError(f"arc {arc} out of range")
            ins.append(under_in)
            outs.append(under_out)
        if self.crossings:
            want = list(range(self.arc_count))
            if sorted(ins) != want or sorted(outs) != want:
                raise ValueError("each arc must pass under exactly once")


def cyclic_reduce(w: Word) -> Word:
    syl = list(w.syllables)
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        gen, head = syl[0]
        tail = syl[-1][1]
        mid = syl[1:-1]
        syl = ([(gen, head + tail)] if head + tail else []) + mid
    return Word(w.table, tuple(syl))


def canonical_relator(w: Word) -> Word:
    """Least rotation of the cyclically reduced relator or its inverse.

    Syllable tuples compare on the generator, then the exponent.  So the
    least rotation starts on the least generator g with the most negative
    exponent possible: at the front of a syllable g^e with e < 0, which
    the relator or its inverse has.  A start inside a syllable would give a
    smaller |e|, and a start on g^e with e > 0 a positive exponent.
    """
    w = cyclic_reduce(w)
    if not w.syllables:
        return w
    least = min(g for g, _ in w.syllables)
    return Word(
        w.table,
        min(
            base[i:] + base[:i]
            for base in (w.syllables, word_inverse(w).syllables)
            for i, (g, e) in enumerate(base)
            if g == least and e < 0
        ),
    )


def equality_relator(lhs: Word, rhs: Word) -> Word:
    """Relator expressing lhs = rhs, as lhs rhs^-1; a Presentation
    canonicalizes it."""
    return word_product(lhs, word_inverse(rhs))


@dataclass(frozen=True)
class Presentation:
    """Generators, canonicalized relators in construction order and the
    twist level n."""

    gens: GeneratorTable
    relators: tuple[Word, ...]
    n: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("twist level n must be >= 1")
        for r in self.relators:
            if r.table != self.gens:
                raise ValueError("relator on a different generator table")
        object.__setattr__(
            self, "relators", tuple(canonical_relator(r) for r in self.relators)
        )


# -- diagram to presentation ------------------------------------------------


def arc_names(count: int) -> tuple[str, ...]:
    if count <= 26:
        return tuple(chr(ord("a") + i) for i in range(count))
    return tuple(f"x{i}" for i in range(count))


def gn_from_diagram(diagram: KnotDiagram, n: int) -> Presentation:
    """One generator per arc, one twisted conjugation relator per crossing."""
    table = GeneratorTable(arc_names(diagram.arc_count))
    relators = []
    for sign, over, under_in, under_out in diagram.crossings:
        if sign > 0:
            x, z = under_in, under_out
        else:
            x, z = under_out, under_in
        lhs = Word(table, ((x, 1),))
        rhs = reduce(table, [(over, n), (z, 1), (over, -n)])
        relators.append(equality_relator(lhs, rhs))
    return Presentation(table, tuple(relators), n=n)


TREFOIL_RIGHT = KnotDiagram(3, ((1, 1, 0, 2), (1, 2, 1, 0), (1, 0, 2, 1)))
TREFOIL_LEFT = KnotDiagram(3, ((-1, 1, 0, 2), (-1, 2, 1, 0), (-1, 0, 2, 1)))
# granny: two right trefoil factors; square: a right and a left factor
SQUARE_KNOT = KnotDiagram(
    6,
    (
        (1, 4, 0, 2),
        (1, 2, 4, 3),
        (1, 3, 2, 4),
        (-1, 3, 1, 5),
        (-1, 5, 3, 1),
        (-1, 1, 5, 0),
    ),
)
GRANNY_KNOT = KnotDiagram(
    6,
    (
        (1, 2, 0, 1),
        (1, 1, 2, 3),
        (1, 3, 1, 2),
        (1, 5, 3, 4),
        (1, 4, 5, 0),
        (1, 0, 4, 5),
    ),
)

DIAGRAMS = {
    "trefoil_r": TREFOIL_RIGHT,
    "trefoil_l": TREFOIL_LEFT,
    "SK": SQUARE_KNOT,
    "GK": GRANNY_KNOT,
}


# -- reduced two- and three-generator forms ---------------------------------


def _rel(table: GeneratorTable, lhs: str, rhs: str) -> Word:
    return equality_relator(parse_word(lhs, table), parse_word(rhs, table))


def trefoil_right_reduced(n: int) -> Presentation:
    t = GeneratorTable(("a", "b"))
    rels = (
        _rel(t, f"a b^{n} a^{n}", f"b^{n} a^{n} b"),
        _rel(t, f"b a^{n} b^{n}", f"a^{n} b^{n} a"),
    )
    return Presentation(t, rels, n=n)


def trefoil_left_reduced(n: int) -> Presentation:
    t = GeneratorTable(("a", "b"))
    rels = (
        _rel(t, f"b a^{n} b^{n}", f"a^{n} b^{n} a"),
        _rel(t, f"a b^{n} a^{n}", f"b^{n} a^{n} b"),
    )
    return Presentation(t, rels, n=n)


def square_knot_gn(n: int) -> Presentation:
    t = GeneratorTable(("d", "b", "e"))
    rels = (
        _rel(t, f"b d^{n} b^{n}", f"d^{n} b^{n} d"),
        _rel(t, f"e d^{n} e^{n}", f"d^{n} e^{n} d"),
        _rel(t, f"e^{n} d^{n} e d^-{n} e^-{n}", f"b^{n} d^{n} b d^-{n} b^-{n}"),
    )
    return Presentation(t, rels, n=n)


def granny_knot_gn(n: int) -> Presentation:
    t = GeneratorTable(("d", "b", "e"))
    rels = (
        _rel(t, f"b d^{n} b^{n}", f"d^{n} b^{n} d"),
        _rel(t, f"d e^{n} d^{n}", f"e^{n} d^{n} e"),
        _rel(t, f"e^-{n} d^-{n} e d^{n} e^{n}", f"b^{n} d^{n} b d^-{n} b^-{n}"),
    )
    return Presentation(t, rels, n=n)


@lru_cache(maxsize=None)
def g1_braid_presentation() -> Presentation:
    """The common n = 1 group of both composite knots, on d, b, e."""
    t = GeneratorTable(("d", "b", "e"))
    rels = (_rel(t, "b d b", "d b d"), _rel(t, "e d e", "d e d"))
    return Presentation(t, rels, n=1)


REDUCED_BUILDERS = {
    "trefoil_r": trefoil_right_reduced,
    "trefoil_l": trefoil_left_reduced,
    "SK": square_knot_gn,
    "GK": granny_knot_gn,
}

KNOT_NAMES = tuple(REDUCED_BUILDERS)


@lru_cache(maxsize=None, typed=True)
def knot_presentation(knot: str, n: int, raw: bool = False) -> Presentation:
    """G_n(knot), reduced or (raw) one generator per arc; built once each."""
    if n < 1:
        raise ValueError("twist level n must be >= 1")
    if knot not in KNOT_NAMES:
        raise KeyError(f"unknown knot {knot!r}")
    if raw:
        return gn_from_diagram(DIAGRAMS[knot], n)
    return REDUCED_BUILDERS[knot](n)


# -- text form ---------------------------------------------------------------


def format_presentation(pres: Presentation) -> str:
    lines = ["gens: " + " ".join(pres.gens.names)]
    if pres.n != 1:
        lines.append(f"n: {pres.n}")
    for r in pres.relators:
        lines.append("rel: " + format_word(r))
    return "\n".join(lines) + "\n"
