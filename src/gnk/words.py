"""Words in a free group, in run-length syllable form.

A word is a sequence of syllables ``(gen_index, exponent)`` with nonzero
exponents and no two adjacent syllables on the same generator.  Words are
always stored reduced in that sense; free reduction (cancelling ``g g^-1``)
falls out of the merge rule because merging can only ever produce a zero
exponent, which is dropped.

Composition convention, used everywhere downstream: words read left to
right, and evaluation applies the leftmost letter first.  So evaluating
``a b`` with images ``f, g`` yields "first f, then g".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Syllable = tuple[int, int]


@dataclass(frozen=True)
class GeneratorTable:
    """An ordered alphabet of generator names.

    Names must look like identifiers (letter first, then letters, digits,
    underscores) and be distinct.  The token ``1`` is reserved for the
    identity in the text form, which the first-character rule already
    guarantees.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("generator table needs at least one name")
        seen: set[str] = set()
        for name in self.names:
            if not name or not name[0].isalpha():
                raise ValueError(f"bad generator name {name!r}")
            if not all(ch.isalnum() or ch == "_" for ch in name):
                raise ValueError(f"bad generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None


@dataclass(frozen=True)
class Word:
    """A reduced word over a generator table."""

    table: GeneratorTable
    syllables: tuple[Syllable, ...]

    def __post_init__(self) -> None:
        prev, count = -1, len(self.table)
        for gen, exp in self.syllables:
            if not 0 <= gen < count:
                raise ValueError(f"generator index {gen} out of range")
            if exp == 0:
                raise ValueError("zero exponent in syllable")
            if gen == prev:
                raise ValueError("adjacent syllables on the same generator")
            prev = gen
        object.__setattr__(self, "syllables", tuple(self.syllables))


def reduce(table: GeneratorTable, raw: Iterable[Syllable]) -> Word:
    """Merge a raw syllable stream into a reduced word."""
    stack: list[list[int]] = []
    for gen, exp in raw:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    # The stack is reduced at every step: a pop can expose an earlier
    # syllable on the same generator only if something separated them,
    # and that something merged away, which the pop already handled.
    return Word(table, tuple(map(tuple, stack)))


def word_product(*words: Word) -> Word:
    if not words:
        raise ValueError("empty product needs an explicit table")
    table = words[0].table
    for w in words[1:]:
        if w.table != table:
            raise ValueError("generator-table mismatch")
    stream: list[Syllable] = []
    for w in words:
        stream.extend(w.syllables)
    return reduce(table, stream)


def word_inverse(w: Word) -> Word:
    return Word(w.table, tuple((g, -e) for g, e in reversed(w.syllables)))


def format_word(w: Word) -> str:
    if not w.syllables:
        return "1"
    parts = []
    for gen, exp in w.syllables:
        name = w.table.names[gen]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def parse_word(text: str, table: GeneratorTable) -> Word:
    tokens = text.split()
    if not tokens or tokens == ["1"]:
        return Word(table, ())
    stream: list[Syllable] = []
    for tok in tokens:
        name, sep, tail = tok.partition("^")
        if sep and not tail:
            raise ValueError(f"bad token {tok!r}")
        try:
            exp = int(tail) if sep else 1
        except ValueError:
            raise ValueError(f"bad exponent in token {tok!r}") from None
        stream.append((table.index(name), exp))
    return reduce(table, stream)
