import itertools

import pytest
from hypothesis import given, strategies as st

from gnk.words import (
    GeneratorTable,
    Word,
    format_word,
    parse_word,
    reduce,
    word_inverse,
    word_product,
)

from oracle_utils import evaluate, generator_words, substitute, word_power

AB = GeneratorTable(("a", "b"))
ABC = GeneratorTable(("a", "b", "c"))


def w(text, table=ABC):
    return parse_word(text, table)


class PermGroup:
    """Just enough of the group protocol for evaluate()."""

    def __init__(self, degree):
        self.identity = tuple(range(degree))

    def mul(self, x, y):
        # left-to-right: x first, then y
        return tuple(y[i] for i in x)

    def power(self, x, k):
        if k < 0:
            inv = [0] * len(x)
            for i, xi in enumerate(x):
                inv[xi] = i
            return self.power(tuple(inv), -k)
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc


def test_table_validation():
    with pytest.raises(ValueError):
        GeneratorTable(())
    with pytest.raises(ValueError):
        GeneratorTable(("a", "a"))
    with pytest.raises(ValueError):
        GeneratorTable(("1x",))
    with pytest.raises(ValueError):
        GeneratorTable(("a b",))
    assert GeneratorTable(("x_1", "Y2")).index("Y2") == 1
    with pytest.raises(KeyError):
        AB.index("z")


def test_word_validation():
    with pytest.raises(ValueError):
        Word(AB, ((0, 0),))
    with pytest.raises(ValueError):
        Word(AB, ((2, 1),))
    with pytest.raises(ValueError):
        Word(AB, ((0, 1), (0, 2)))
    assert Word(AB, [(0, 1), (1, -2)]).syllables == ((0, 1), (1, -2))


def test_reduce_merges_and_cancels():
    assert reduce(AB, [(0, 1), (0, 1)]).syllables == ((0, 2),)
    assert not reduce(AB, [(0, 1), (0, -1)]).syllables
    # b a a^-1 b^-1 collapses across the exposed pair
    assert not reduce(AB, [(1, 1), (0, 1), (0, -1), (1, -1)]).syllables
    assert reduce(AB, [(0, 2), (1, 0), (0, 3)]).syllables == ((0, 5),)


def test_product_and_inverse():
    u = w("a b^2")
    v = w("b^-2 a^-1")
    assert not word_product(u, v).syllables
    assert word_inverse(u) == v
    assert word_product(u, w("c")) == w("a b^2 c")
    assert word_product(u, v, w("c"), word_inverse(w("c"))) == w("1")
    with pytest.raises(ValueError):
        word_product(u, w("a", AB))


def test_power():
    u = w("a b")
    assert not word_power(u, 0).syllables
    assert word_power(u, 3) == w("a b a b a b")
    assert word_power(u, -2) == w("b^-1 a^-1 b^-1 a^-1")
    assert word_power(u, 2) == word_product(u, u)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", range(1, 6))
def test_conjugate_power_lemma(n, m):
    # (x^n y x^-n)^m = x^n y^m x^-n
    lhs = word_power(w(f"a^{n} b a^-{n}"), m)
    assert lhs == w(f"a^{n} b^{m} a^-{n}")


def test_substitute():
    u = w("a b a^-1")
    assert substitute(u, 0, w("c^2")) == w("c^2 b c^-2")
    assert substitute(u, 1, w("a c a^-1")) == w("a^2 c a^-2")
    with pytest.raises(ValueError):
        substitute(u, 1, w("b c"))


def test_evaluate_frozen_example():
    # a -> (1 2), b -> (1 3) in S_3, word a b a.
    # Left to right: 0 ->(a) 1 ->(b) 1 ->(a) 0?  Track images instead:
    # the composite sends 0->0? Hand computation gives (2 3) on {0,1,2}:
    # 0: a->1, b->1, a->0 ... composite fixes 0; 1: a->0, b->2, a->2;
    # 2: a->2, b->0, a->1.  So images (0, 2, 1).
    g = PermGroup(3)
    got = evaluate(w("a b a", AB), [(1, 0, 2), (2, 1, 0)], g)
    assert got == (0, 2, 1)


def test_evaluate_validates_arity():
    g = PermGroup(3)
    with pytest.raises(ValueError):
        evaluate(w("a", AB), [(1, 0, 2)], g)


def test_generator_words():
    gens = generator_words(ABC)
    assert [format_word(g) for g in gens] == ["a", "b", "c"]


def test_format_parse_examples():
    assert format_word(w("a^2 b^-1 c")) == "a^2 b^-1 c"
    assert format_word(w("1")) == "1"
    assert not parse_word("", ABC).syllables
    assert parse_word("a a", ABC) == w("a^2")
    with pytest.raises(ValueError):
        parse_word("a^", ABC)
    with pytest.raises(ValueError):
        parse_word("a^x", ABC)
    with pytest.raises(KeyError):
        parse_word("q", ABC)


syllable_streams = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-4, 4)), max_size=12
)


@given(syllable_streams)
def test_reduce_idempotent(raw):
    once = reduce(ABC, raw)
    assert reduce(ABC, once.syllables) == once


@given(syllable_streams, syllable_streams)
def test_product_inverse_cancels(raw_u, raw_v):
    u, v = reduce(ABC, raw_u), reduce(ABC, raw_v)
    assert not word_product(u, v, word_inverse(v), word_inverse(u)).syllables


@given(syllable_streams, syllable_streams)
def test_evaluate_is_multiplicative(raw_u, raw_v):
    g = PermGroup(4)
    images = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 2, 1, 3)]
    u, v = reduce(ABC, raw_u), reduce(ABC, raw_v)
    assert evaluate(word_product(u, v), images, g) == g.mul(
        evaluate(u, images, g), evaluate(v, images, g)
    )


@given(syllable_streams, st.integers(-3, 3))
def test_evaluate_respects_power(raw, k):
    g = PermGroup(4)
    images = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 2, 1, 3)]
    u = reduce(ABC, raw)
    assert evaluate(word_power(u, k), images, g) == g.power(
        evaluate(u, images, g), k
    )


@given(syllable_streams, syllable_streams)
def test_substitute_commutes_with_evaluate(raw_u, raw_r):
    g = PermGroup(4)
    u = reduce(ABC, raw_u)
    r = reduce(ABC, raw_r)
    if any(gen == 1 for gen, _ in r.syllables):
        return  # replacement may not mention the substituted generator
    images = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 2, 1, 3)]
    patched = list(images)
    patched[1] = evaluate(r, images, g)
    assert evaluate(substitute(u, 1, r), images, g) == evaluate(
        u, patched, g
    )


@given(syllable_streams)
def test_parse_format_round_trip(raw):
    u = reduce(ABC, raw)
    assert parse_word(format_word(u), ABC) == u


def test_exhaustive_small_words_reduce_stable():
    # every length-3 letter sequence over {a, a^-1, b, b^-1}
    letters = [(0, 1), (0, -1), (1, 1), (1, -1)]
    for combo in itertools.product(letters, repeat=3):
        u = reduce(AB, combo)
        assert reduce(AB, u.syllables) == u
        assert not word_product(u, word_inverse(u)).syllables
