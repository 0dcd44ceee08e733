import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnk.fingroups import (
    CapabilityError,
    PSL2Group,
    SL2Group,
    SymmetricGroup,
    group_from_spec,
)
from gnk.homsearch import Homomorphism, enumerate_homs
from gnk.presentations import (
    KNOT_NAMES,
    Presentation,
    g1_braid_presentation,
    knot_presentation,
    trefoil_right_reduced,
)
from gnk.talex import (
    Representation,
    _check_chain_rule,
    _denominators,
    _grids,
    _normalized,
    _pivot_product,
    _poly_text,
    _ring_for,
    psl27_matrix_dictionary,
    representation_from_psl27_hom,
    representation_from_sl2_hom,
    twisted_alexander,
    twisted_alexanders,
    wada_matrix,
)
from gnk.words import GeneratorTable, Word, parse_word, word_inverse, word_product

from oracle_utils import (
    LaurentPoly,
    abelianization_map,
    apply_word,
    conjugate,
    degree_terms,
    deleted_flat,
    fox_block,
    fox_derivative,
    from_plain,
    gl32_elements,
    group_ring,
    hom_is_valid,
    invariant_factor_product,
    invariant_factors,
    laurent,
    laurent_divmod,
    mat3_order,
    mat_inverse,
    mat_product,
    plain_poly,
    poly_cofactor_det,
    poly_det,
    poly_gcd,
    poly_minors_gcd,
    ring_add,
    ring_deg,
    ring_sub,
    trivial_representation,
    validate_representation,
    wada_blocks,
)
from oracle_utils import (
    batch_member,
    hand_representation,
    joined_batch,
    member_matrices,
    naive_index_tables,
    oracle_matrices,
    psl27_oracle_dictionary,
)

AB = GeneratorTable(("a", "b"))


def w(text, table=AB):
    return parse_word(text, table)


# -- Laurent arithmetic, the oracles' polynomial type ----------------------------


def test_laurent_trims_and_reduces():
    poly = laurent(5, (0, 6, 10, 3, 0, 0), low=-2)
    assert (poly.low, poly.coeffs) == (-1, (1, 0, 3))
    assert laurent(3, (3, 9, 6)).is_zero
    assert laurent(3, ()).low == 0


def test_laurent_validation():
    with pytest.raises(ValueError, match="nonzero"):
        LaurentPoly(5, 0, (0, 1))
    with pytest.raises(ValueError, match="reduced"):
        LaurentPoly(5, 0, (7,))
    with pytest.raises(ValueError, match="low 0"):
        LaurentPoly(5, 3, ())
    with pytest.raises(ValueError, match="at least 2"):
        laurent(1, (1,))


def test_laurent_text_frozen():
    assert laurent(5, ()).text() == "0"
    assert laurent(5, (1,)).text() == "1"
    assert laurent(5, (1, 4, 1)).text() == "1 + 4*t + t^2"
    assert laurent(5, (1, 2), low=-1).text() == "t^-1 + 2"
    assert laurent(5, (3, 0, 0, 1), low=-2).text() == "3*t^-2 + t"
    assert laurent(2, (1,), low=1).text() == "t"


def test_laurent_ops():
    a = laurent(5, (1, 2), low=-1)
    b = laurent(5, (3,), low=2)
    assert (a + b).coeffs == (1, 2, 0, 3) and (a + b).low == -1
    assert (a - a).is_zero
    assert (a * b).low == 1 and (a * b).coeffs == (3, 6 % 5)
    assert a.shift(3).low == 2
    assert a.scale(0).is_zero
    with pytest.raises(ValueError, match="mismatch"):
        a + laurent(7, (1,))


def test_normalized_is_unit_free():
    poly = laurent(5, (3, 0, 2), low=-4)
    norm = poly.normalized()
    assert norm.low == 0 and norm.coeffs[0] == 1
    assert norm.normalized() == norm
    assert laurent(5, ()).normalized().is_zero


@st.composite
def laurents(draw, p):
    coeffs = draw(st.lists(st.integers(0, p - 1), max_size=6))
    low = draw(st.integers(-3, 3))
    return laurent(p, coeffs, low)


@settings(max_examples=120)
@given(st.data(), st.sampled_from([2, 3, 5]))
def test_laurent_ring_laws(data, p):
    a = data.draw(laurents(p))
    b = data.draw(laurents(p))
    c = data.draw(laurents(p))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


@settings(max_examples=60)
@given(st.data(), st.sampled_from([2, 5]))
def test_normalization_respects_products(data, p):
    a = data.draw(laurents(p))
    b = data.draw(laurents(p))
    lhs = (a * b).normalized()
    rhs = (a.normalized() * b.normalized()).normalized()
    assert lhs == rhs


# -- determinants and gcd -------------------------------------------------------


def test_poly_det_frozen_example():
    t = laurent(3, (0, 1))
    mat = [[t, laurent(3, (1,))], [laurent(3, (2,)), t]]
    assert poly_det(3, mat).text() == "1 + t^2"


def test_poly_det_edge_cases():
    assert poly_det(5, []).text() == "1"
    t = laurent(5, (0, 1))
    assert poly_det(5, [[t, t], [t, t]]).is_zero
    with pytest.raises(ValueError, match="square"):
        poly_det(5, [[t, t]])


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([2, 5]))
def test_poly_det_matches_cofactor_oracle(data, p):
    n = data.draw(st.integers(1, 3))
    mat = [
        [data.draw(laurents(p)) for _ in range(n)] for _ in range(n)
    ]
    assert poly_det(p, mat) == poly_cofactor_det(p, mat)


def test_poly_gcd_frozen():
    f = laurent(5, (4, 0, 1))  # t^2 - 1
    g = laurent(5, (4, 1))  # t - 1
    assert poly_gcd(5, [f, g]).text() == "1 + 4*t"
    assert poly_gcd(5, [laurent(5, ()), laurent(5, ())]).is_zero
    assert poly_gcd(5, [laurent(5, (0, 3))]).text() == "1"  # t is a unit


@settings(max_examples=60)
@given(st.data(), st.sampled_from([2, 3, 5]))
def test_poly_gcd_divides_inputs(data, p):
    a = data.draw(laurents(p))
    b = data.draw(laurents(p))
    g = poly_gcd(p, [a, b])
    if g.is_zero:
        assert a.is_zero and b.is_zero
        return
    for poly in (a, b):
        if not poly.is_zero:
            assert poly_gcd(p, [poly, g]) == g  # g divides poly


def _random_grid(rng, ring, rows, cols, max_deg=3):
    """Entries of degree at most max_deg, a third of them zero; one column
    in three grids is a polynomial combination of the others, so the rank
    drops."""
    p = ring.p

    def entry():
        if rng.random() < 1 / 3:
            return ring.zero
        size = rng.randint(1, max_deg + 1)
        return plain_poly(ring, [rng.randrange(p) for _ in range(size)])

    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 1 / 3:
        weights = [entry() for _ in range(cols - 1)]
        for row in grid:
            acc = ring.zero
            for x, c in zip(row, weights):
                acc = ring_add(ring, acc, ring.mul(x, c))
            row[-1] = acc
    return grid


def _talex_grids(monkeypatch):
    """Every grid the kernel reduces on the talex grid: SK and GK, n = 1..3,
    into SL2_3, as (ring, grid) before reduction."""
    import gnk.talex
    from gnk.harness import run_cell

    seen = []
    real = gnk.talex._pivot_product

    def spy(ring, grid):
        seen.append((ring, [list(row) for row in grid]))
        return real(ring, grid)

    monkeypatch.setattr(gnk.talex, "_pivot_product", spy)
    monkeypatch.setattr(gnk.talex, "_DENOMINATORS", {})  # a cold process
    for knot in ("SK", "GK"):
        for n in (1, 2, 3):
            run_cell(knot, n, "SL2_3", ("talex",))
    return seen


def test_pivot_product_matches_smith_and_cofactor_oracles(monkeypatch):
    # tall grids: the pivot product and the Smith diagonal product agree up
    # to a unit, and are zero together; square grids: the pivot product is
    # the determinant, sign included; every grid: the normalized tuple and
    # its text are the Laurent oracle's; the high-degree block takes Euclid's
    # algorithm through many quotient steps per column
    rng = random.Random(20261018)
    cases = _talex_grids(monkeypatch)
    assert len(cases) == 75  # 70 numerators and 5 distinct denominators
    for p in (2, 3, 5, 7, 13):
        ring = _ring_for(p)
        for _ in range(150):
            cols = rng.randint(1, 4)
            rows = rng.randint(cols, 6)
            cases.append((ring, _random_grid(rng, ring, rows, cols)))
        for _ in range(25):
            cols = rng.randint(1, 3)
            rows = rng.randint(cols, 4)
            cases.append((ring, _random_grid(rng, ring, rows, cols, max_deg=30)))
    deficient = square = zero = 0
    for ring, grid in cases:
        p, cols = ring.p, len(grid[0])
        got = _pivot_product(ring, [list(row) for row in grid])
        prod, rank = invariant_factor_product(ring, [list(row) for row in grid])
        if rank < cols:
            deficient += 1
            assert got == ring.zero
        else:
            assert from_plain(ring, got).normalized() == (
                from_plain(ring, prod).normalized()
            )
        if len(grid) == cols:
            square += 1
            laurents = [[from_plain(ring, e) for e in row] for row in grid]
            assert from_plain(ring, got) == poly_cofactor_det(p, laurents)
        oracle = from_plain(ring, got).normalized()
        assert _normalized(ring, got) == oracle.coeffs
        assert _poly_text(_normalized(ring, got)) == oracle.text()
        zero += got == ring.zero
    assert deficient > 100 and square > 100 and zero == deficient


def _canonical(ring, e):
    """A nonnegative int whose every w-bit slot holds a residue mod p."""
    if not isinstance(e, int) or e < 0:
        return False
    cs = ring.to_coeffs(e)
    return all(c < ring.p for c in cs) and plain_poly(ring, cs) == e


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_reduce_row_matches_laurent_oracle(p):
    # one fused row step against long division and subtraction in the
    # LaurentPoly oracle: row[t] becomes the remainder by top[t], every later
    # entry loses the quotient times top's entry, earlier entries and top
    # stay, and entries are replaced, never mutated.  Zero entries, zero
    # entries of top, unit pivots and degree-0 quotients all occur, with
    # entries up to degree 60.
    rng = random.Random(p)
    ring = _ring_for(p)

    def entry(deg):
        """A polynomial of exactly this degree."""
        lead = 1 + rng.randrange(p - 1)
        return plain_poly(ring, [rng.randrange(p) for _ in range(deg)] + [lead])

    def entries(width):
        return [
            entry(rng.randint(0, 60)) if rng.random() < 2 / 3 else ring.zero
            for _ in range(width)
        ]

    seen = {"zero top": 0, "unit pivot": 0, "degree-0 quotient": 0, "degree 60": 0}
    for case in range(300):
        width = rng.randint(2, 5)
        t = rng.randrange(width - 1)
        top_deg = 0 if case % 5 == 0 else rng.randint(0, 60)
        row_deg = {1: top_deg, 2: 60}.get(case % 5, rng.randint(0, 60))
        top, row = entries(width), entries(width)
        top[t], row[t] = entry(top_deg), entry(row_deg)
        if case % 5 == 3:
            top[-1], row[-1] = ring.zero, entry(rng.randint(0, 60))
        kept, top_before = [list(ring.to_coeffs(e)) for e in row], list(top)
        q, r = laurent_divmod(from_plain(ring, row[t]), from_plain(ring, top[t]))
        out = list(row)
        ring.reduce_row(out, top, t)
        assert top == top_before
        assert [list(ring.to_coeffs(e)) for e in row] == kept
        assert all(_canonical(ring, e) for e in out)
        assert out[:t] == row[:t] and from_plain(ring, out[t]) == r
        for j in range(t + 1, width):
            want = laurent(p, kept[j]) - q * from_plain(ring, top[j])
            assert from_plain(ring, out[j]) == want
        seen["zero top"] += any(not top[j] and row[j] for j in range(t + 1, width))
        seen["unit pivot"] += top_deg == 0
        seen["degree-0 quotient"] += not q.is_zero and q.high == 0
        seen["degree 60"] += max(ring_deg(ring, e) for e in row + top) == 60
    assert min(seen.values()) > 10


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 31])
def test_slot_reduction_takes_every_value_below_p_squared_mod_p(p):
    # every sum a step leaves in a slot is below p^2; each such value, in
    # four slots of one packed int beside random neighbours below p^2, must
    # come out as itself mod p, and no slot may disturb the next
    rng = random.Random(p)
    ring = _ring_for(p)
    mine = (0, 1, 7, 31)
    for v in range(p * p):
        slots = [v if d in mine else rng.randrange(p * p) for d in range(32)]
        packed = sum(x << ring.w * d for d, x in enumerate(slots))
        got = ring._reduce(packed)
        assert [got >> ring.w * d & ring.slot for d in range(32)] == [
            x % p for x in slots
        ]
        assert got < 1 << ring.w * 32


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_packed_ring_matches_laurent_oracle_at_long_degrees(p):
    # to_coeffs, neg, mul and reduce_row on entries up to degree 2000,
    # packed ints thousands of bits long, against LaurentPoly arithmetic;
    # the row steps have quotients from 1 to about 150 terms and later
    # entries longer and shorter than the pivot
    rng = random.Random(2000 + p)
    ring = _ring_for(p)

    def coeffs(deg):
        """Coefficients of a random polynomial of exactly this degree."""
        return [rng.randrange(p) for _ in range(deg)] + [1 + rng.randrange(p - 1)]

    for deg_a, deg_b in [(2000, 0), (2000, 1), (2000, 150), (700, 40), (61, 60)]:
        a_cs, b_cs = coeffs(deg_a), coeffs(deg_b)
        a, b = plain_poly(ring, a_cs), plain_poly(ring, b_cs)
        big, small = laurent(p, a_cs), laurent(p, b_cs)
        assert list(ring.to_coeffs(a)) == a_cs and ring_deg(ring, a) == deg_a
        assert from_plain(ring, ring.neg(a)) == -big
        assert from_plain(ring, ring_sub(ring, b, a)) == small - big
        assert ring_sub(ring, a, a) == ring.zero
        assert from_plain(ring, ring.mul(a, b)) == big * small
        assert ring.mul(b, a) == ring.mul(a, b)
    for deg_row, deg_top in [(2000, 1850), (2000, 2000), (1200, 1100), (300, 299)]:
        top = [plain_poly(ring, coeffs(deg_top)), plain_poly(ring, coeffs(2000)),
               ring.zero, plain_poly(ring, coeffs(3))]
        row = [plain_poly(ring, coeffs(deg_row)), plain_poly(ring, coeffs(5)),
               plain_poly(ring, coeffs(1999)), ring.zero]
        q, r = laurent_divmod(from_plain(ring, row[0]), from_plain(ring, top[0]))
        out = list(row)
        ring.reduce_row(out, top, 0)
        assert from_plain(ring, out[0]) == r and ring_deg(ring, out[0]) < deg_top
        for j in (1, 2, 3):
            want = from_plain(ring, row[j]) - q * from_plain(ring, top[j])
            assert from_plain(ring, out[j]) == want and _canonical(ring, out[j])


# -- Fox calculus ----------------------------------------------------------------


def test_fox_frozen_example():
    word = w("a b a b^-1 a^-1 b^-1")
    got = fox_derivative(word, AB.index("b"))
    expected = group_ring(
        AB,
        [
            (w("a"), 1),
            (w("a b a b^-1"), -1),
            (w("a b a b^-1 a^-1 b^-1"), -1),
        ],
    )
    assert got == expected


def test_fox_base_cases():
    a = AB.index("a")
    assert fox_derivative(w("a"), a) == group_ring(AB, [(w(""), 1)])
    assert fox_derivative(w("a^-1"), a) == group_ring(AB, [(w("a^-1"), -1)])
    assert fox_derivative(w("b"), a).terms == ()
    assert fox_derivative(w(""), a).terms == ()
    assert fox_derivative(w("a^3"), a) == group_ring(
        AB, [(w(""), 1), (w("a"), 1), (w("a^2"), 1)]
    )
    assert fox_derivative(w("a^-2"), a) == group_ring(
        AB, [(w("a^-1"), -1), (w("a^-2"), -1)]
    )


def test_group_ring_canonicalization():
    elem = group_ring(AB, [(w("a"), 2), (w("a"), -2), (w("b"), 1)])
    assert elem.terms == ((w("b"), 1),)
    other = GeneratorTable(("x",))
    with pytest.raises(ValueError, match="mismatch"):
        group_ring(AB, [(parse_word("x", other), 1)])


def _mk_word(raw):
    out = Word(AB, ())
    for g, e in raw:
        out = word_product(out, Word(AB, ((g, e),)))
    return out


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(-2, 2).filter(bool)), max_size=5),
    st.lists(st.tuples(st.integers(0, 1), st.integers(-2, 2).filter(bool)), max_size=5),
    st.integers(0, 1),
)
def test_fox_product_rule(raw_u, raw_v, gen):
    u, v = _mk_word(raw_u), _mk_word(raw_v)
    lhs = fox_derivative(word_product(u, v), gen)
    rhs = fox_derivative(u, gen) + fox_derivative(v, gen).times_word(u)
    assert lhs == rhs


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3).filter(bool)), max_size=6),
    st.integers(0, 1),
)
def test_fox_augmentation_is_exponent_sum(raw, gen):
    word = _mk_word(raw)
    total = sum(e for g, e in word.syllables if g == gen)
    assert fox_derivative(word, gen).augmentation == total


# -- degree maps ----------------------------------------------------------------


def test_meridian_degrees_are_the_abelianization_map():
    # t on every generator is the Smith-form map onto the free part of the
    # abelianization, up to sign, on every registry presentation
    registry = [g1_braid_presentation()] + [
        knot_presentation(knot, n, raw=raw)
        for knot in KNOT_NAMES
        for n in range(1, 7)
        for raw in (False, True)
    ]
    for pres in registry:
        ones = (1,) * len(pres.gens)
        assert invariant_factors(pres) == (0,), pres
        assert abelianization_map(pres) in (ones, tuple(-v for v in ones))


def test_degrees_of_knot_presentations():
    # both builders' representations, with every generator sent to t, pass
    # the replay oracle's relator and degree check and the kernel's walk
    for knot, n, raw in (("SK", 2, False), ("GK", 1, True), ("trefoil_r", 2, False)):
        pres = knot_presentation(knot, n, raw=raw)
        hom = next(iter(enumerate_homs(pres, SL2Group(3))))
        sl2 = representation_from_sl2_hom(pres, hom)
        hom = next(iter(enumerate_homs(pres, PSL2Group(7))))
        psl = representation_from_psl27_hom(pres, hom)
        for rep in (sl2, psl):
            validate_representation(pres, rep)
            wada_matrix(pres, rep)


def test_degree_map_rejects_nonzero_exponent_sum():
    # <x, y | x y> abelianizes to Z with degrees (1, -1); t on both
    # generators sends x y to t^2, which the Wada walk's degree check refuses
    tab = GeneratorTable(("x", "y"))
    pres = Presentation(tab, (parse_word("x y", tab),))
    assert abelianization_map(pres) in ((1, -1), (-1, 1))
    with pytest.raises(ValueError, match="not respected"):
        twisted_alexander(pres, trivial_representation(pres, 5))


# -- representations and the block matrix ------------------------------------------


def hand_rep(pres, p, images):
    """A batch of one by hand, each inverse from the oracle."""
    return hand_representation(pres, p, [images])


def test_representation_validation():
    pres = trefoil_right_reduced(1)
    rep = trivial_representation(pres, 5)
    validate_representation(pres, rep)
    wada_matrix(pres, rep)
    ones = [[[[1]], [[1]]]]

    def by_hand(images, inverses):
        return Representation(
            pres.gens, 5, np.array(images, np.int64), np.array(inverses, np.int64)
        )

    # a wrong inverse of a unit image, and a singular image, which no
    # inverse can pass: alone and beside a valid member
    for bad in (by_hand(ones, [[[[1]], [[2]]]]), by_hand([[[[0]], [[1]]]], ones)):
        for batch in (bad, joined_batch(rep, bad)):
            with pytest.raises(ValueError, match="inverse"):
                wada_matrix(pres, batch)
    cases = (
        # images of the wrong shape
        ("2 x 2 image", by_hand([[[[1, 0]], [[0, 1]]]], ones)),
        # a missing image
        ("image per generator", by_hand([[[[1]]]], ones)),
        # inverses of another shape than the images
        ("image per generator", by_hand(ones, [[[[1, 0], [0, 1]]] * 2])),
        # an array that is not one matrix per member and generator
        ("image per generator", by_hand([[1], [1]], [[1], [1]])),
    )
    for match, bad in cases:
        with pytest.raises(ValueError, match=match):
            wada_matrix(pres, bad)
    # the trefoil's relation makes both generators' characters equal
    bad_image = hand_rep(pres, 5, (((1,),), ((2,),)))
    other = Presentation(GeneratorTable(("x",)), ())
    # the replay oracle and the kernel's walk reject the same inputs
    for check in (validate_representation, wada_matrix, twisted_alexander):
        with pytest.raises(ValueError, match="not respected"):
            check(pres, bad_image)
        with pytest.raises(ValueError, match="different generators"):
            check(other, rep)


def test_inverses_are_checked_mod_p():
    # the inverse of m mod 5 is not its inverse mod 3, so the same record
    # passes under p = 5 and is refused under p = 3; entries are read mod p
    pres = Presentation(GeneratorTable(("x",)), ())

    def batch_of_one(p, image, inverse):
        rep = Representation(pres.gens, p, np.array([[image]]), np.array([[inverse]]))
        return wada_matrix(pres, rep)

    m = ((1, 2), (1, 1))  # determinant -1
    inv5 = mat_inverse(5, m)
    assert mat_product(3, m, inv5) != ((1, 0), (0, 1))
    assert batch_of_one(5, m, inv5).rep.images.tolist() == [[[[1, 2], [1, 1]]]]
    with pytest.raises(ValueError, match="inverse"):
        batch_of_one(3, m, inv5)
    batch_of_one(3, m, mat_inverse(3, m))
    batch_of_one(3, m, tuple(tuple(v + 3 for v in row) for row in mat_inverse(3, m)))
    odd = ((1, 1), (1, 4))  # determinant 3: singular mod 3, a unit mod 5
    with pytest.raises(ValueError, match="inverse"):
        batch_of_one(3, odd, odd)
    batch_of_one(5, odd, mat_inverse(5, odd))


@pytest.mark.parametrize("target", ["SL2_2", "SL2_3", "SL2_5", "SL2_7", "PSL2_7"])
def test_builders_read_inverses_off_the_group(target):
    # the batch of the one-generator hom x -> g, for every g, gathered from
    # the group's matrix table: image and inverse are the nested-tuple
    # oracle's, and the inverse is the image's matrix inverse
    group = PSL2Group(7) if target == "PSL2_7" else SL2Group(int(target[4:]))
    build = (
        representation_from_psl27_hom
        if target == "PSL2_7"
        else representation_from_sl2_hom
    )
    pres = Presentation(GeneratorTable(("x",)), ())
    images, inverses = oracle_matrices(group, range(group.order))
    for i in range(group.order):
        rep = build(pres, Homomorphism(group, (i,)))
        assert member_matrices(rep) == ((images[i],), (inverses[i],))
        assert inverses[i] == mat_inverse(rep.p, images[i])


def test_relator_check_matches_replay_oracle():
    # swapping one generator's image for another element breaks most homs
    pres = knot_presentation("SK", 2)
    group = SL2Group(3)
    hom = next(iter(enumerate_homs(pres, group)))
    verdicts = set()
    for j in range(len(pres.gens)):
        for x in group.elements():
            images = list(hom.image_indices)
            images[j] = group.index_of(x)
            rep = representation_from_sl2_hom(
                pres, Homomorphism(group, tuple(images))
            )
            try:
                validate_representation(pres, rep)
                expected = True
            except ValueError:
                expected = False
            try:
                wada_matrix(pres, rep)
                got = True
            except ValueError:
                got = False
            assert got == expected
            verdicts.add(got)
    assert verdicts == {True, False}


def test_representation_apply_inverse():
    group = SL2Group(5)
    pres = knot_presentation("SK", 2)
    hom = next(iter(enumerate_homs(pres, group)))
    rep = representation_from_sl2_hom(pres, hom)
    word = parse_word("d b^-2 e d^-1", pres.gens)
    mat, deg = apply_word(rep, word)
    imat, ideg = apply_word(rep, word_inverse(word))
    k = rep.images.shape[-1]
    ident = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    prod = tuple(
        tuple(
            sum(mat[i][l] * imat[l][j] for l in range(k)) % 5 for j in range(k)
        )
        for i in range(k)
    )
    assert prod == ident and deg + ideg == 0


def test_chain_rule_check_rejects_tampering():
    import dataclasses

    pres = trefoil_right_reduced(1)
    wm = wada_matrix(pres, trivial_representation(pres, 5))
    coeffs = wm.coeffs.copy()
    coeffs[0, 0, 0] = 0
    coeffs[0, 0, 0, [-1 - wm.low, -wm.low]] = 1  # the block t^-1 + 1
    broken = dataclasses.replace(wm, coeffs=coeffs)
    with pytest.raises(RuntimeError, match="identity failed"):
        _check_chain_rule(broken)


def test_every_evaluation_checks_the_chain_rule(monkeypatch):
    import gnk.harness
    import gnk.talex

    checked = []
    real = gnk.talex._check_chain_rule

    def spy(wm):
        checked.append(wm)
        real(wm)

    monkeypatch.setattr(gnk.talex, "_check_chain_rule", spy)
    pres = knot_presentation("SK", 2)
    homs = list(enumerate_homs(pres, SL2Group(3)))[:5]
    for hom in homs:
        twisted_alexander(pres, representation_from_sl2_hom(pres, hom))
    assert len(checked) == len(homs)

    # a sweep cell evaluates one batch: every member is covered by a check
    evaluated = []
    real_batch = gnk.talex.twisted_alexanders

    def batch_spy(pres, rep):
        out = real_batch(pres, rep)
        evaluated.append(rep)
        return out

    monkeypatch.setattr(gnk.talex, "twisted_alexanders", batch_spy)
    checked.clear()
    (rec,) = gnk.harness.run_cell("GK", 3, "PSL2_7", ("talex",))
    assert rec.status == "ok" and sum(len(rep.images) for rep in evaluated) == 54
    for rep in evaluated:
        assert any(
            np.array_equal(wm.rep.images, rep.images % rep.p)
            and np.array_equal(wm.rep.inverses, rep.inverses % rep.p)
            for wm in checked
        )


def test_wada_shape():
    pres = knot_presentation("GK", 2)
    group = SL2Group(3)
    hom = next(iter(enumerate_homs(pres, group)))
    wm = wada_matrix(pres, representation_from_sl2_hom(pres, hom))
    assert len(wada_blocks(wm)) == 3
    assert all(len(row) == 3 for row in wada_blocks(wm))
    (grid,) = _grids(_ring_for(3), wm.coeffs[:, :, 1:])
    assert len(grid) == 6 and all(len(row) == 4 for row in grid)


def test_wada_bound_counts_every_byte(monkeypatch):
    # the bound is checked before the walk, on relators x generators x
    # degree span x members x k^2 x 8 bytes: the array's exact size
    import gnk.talex

    pres = knot_presentation("GK", 2)
    batch = _spread_batch(pres, SL2Group(3), 3, representation_from_sl2_hom)
    size = wada_matrix(pres, batch).coeffs.nbytes
    monkeypatch.setattr(gnk.talex, "MAX_WADA_BYTES", size)
    assert wada_matrix(pres, batch).coeffs.nbytes == size
    monkeypatch.setattr(gnk.talex, "MAX_WADA_BYTES", size - 1)
    text = f"would take {size} bytes, past the bound of {size - 1}"
    with pytest.raises(CapabilityError, match=text):
        wada_matrix(pres, batch)


def test_grid_reads_entries_over_any_degree_span():
    # entries are packed w bits a coefficient, in int64 while w times the
    # span fits in 63 bits and as Python ints past it; every entry must
    # equal its coefficients packed directly, on both sides of that switch
    rng = np.random.default_rng(20261018)
    for p in (2, 3, 5, 7, 13):
        ring = _ring_for(p)
        edge = 63 // ring.w + 1  # span + 1: degree 0 is cleared below
        for span in sorted({2, 3, edge, edge + 1, 64, 70}):
            coeffs = rng.integers(0, p, size=(2, 2, 3, span, 2, 2))
            coeffs[:, :, :, 0] = 0  # the common power of t is divided out
            coeffs[1, 0, 0, 1, 0, 0] = 1
            coeffs[0, 1, 2, -1, 1, 0] = 1  # the top degree is live
            grids = _grids(ring, coeffs)
            for r, i, j, u, v in itertools.product(
                range(2), range(2), range(3), range(2), range(2)
            ):
                entry = plain_poly(ring, coeffs[r, i, j, 1:, u, v].tolist())
                got = grids[r][i * 2 + u][j * 2 + v]
                assert type(got) is int and got == entry


def _spread_batch(pres, group, members, build):
    """One batch of members homs spread evenly over the search."""
    homs = list(enumerate_homs(pres, group))
    step = max(1, len(homs) // members)
    return joined_batch(*[build(pres, hom) for hom in homs[::step][:members]])


def test_batched_grids_match_deleted_flat_oracle():
    # one conversion grids a whole batch; each member's grid is its Wada
    # matrix without the first column block, under one power of t for all
    sl23, psl27 = SL2Group(3), PSL2Group(7)
    cases = [
        (knot_presentation("SK", 2), sl23, representation_from_sl2_hom),
        (knot_presentation("SK", 50), sl23, representation_from_sl2_hom),
        (knot_presentation("SK", 2), psl27, representation_from_psl27_hom),
    ]
    for pres, group, build in cases:
        wm = wada_matrix(pres, _spread_batch(pres, group, 5, build))
        assert len(wm.rep.images) == 5
        ring = _ring_for(wm.rep.p)
        grids = _grids(ring, wm.coeffs[:, :, 1:])
        flats = [deleted_flat(wm, 0, member) for member in range(5)]
        shift = min(e.low for flat in flats for row in flat for e in row if e.coeffs)
        for grid, flat in zip(grids, flats):
            assert len(grid) == len(flat)
            for got_row, want_row in zip(grid, flat):
                assert [from_plain(ring, e, shift) for e in got_row] == want_row


def test_wada_matches_fox_oracle():
    cases = []
    pres = trefoil_right_reduced(1)
    cases.append((pres, trivial_representation(pres, 5)))
    raw = knot_presentation("GK", 1, raw=True)
    cases.append((raw, trivial_representation(raw, 3)))
    sk = knot_presentation("SK", 2)
    homs = list(enumerate_homs(sk, SL2Group(3)))
    cases.append((sk, representation_from_sl2_hom(sk, homs[len(homs) // 2])))
    gk = knot_presentation("GK", 3)
    hom = next(iter(enumerate_homs(gk, PSL2Group(7))))
    cases.append((gk, representation_from_psl27_hom(gk, hom)))
    for pres, rep in cases:
        wm = wada_matrix(pres, rep)
        for i, rel in enumerate(pres.relators):
            for j in range(len(pres.gens)):
                fox = fox_block(rep, fox_derivative(rel, j))
                assert wada_blocks(wm)[i][j] == degree_terms(fox)


def _class_key_batches(monkeypatch, knots_ns, target):
    """Every (pres, wada_matrix batch) that run_cell builds for talex on
    the cells.

    Each batch is gathered from the group's matrix table; every member's
    images and inverses must be the nested-tuple oracle's for its row."""
    import gnk.talex
    from gnk.harness import run_cell

    built, gathered = [], []
    real, real_gather = gnk.talex.wada_matrix, gnk.talex._gather

    def spy(pres, rep):
        wm = real(pres, rep)
        built.append((pres, wm))
        return wm

    def gather_spy(pres, group, rows):
        rep = real_gather(pres, group, rows)
        gathered.append(rep)
        images, inverses = oracle_matrices(group, rows.reshape(-1).tolist())
        gens = rows.shape[1]
        for member in range(len(rows)):
            pick = slice(member * gens, (member + 1) * gens)
            assert member_matrices(rep, member) == (images[pick], inverses[pick])
        return rep

    monkeypatch.setattr(gnk.talex, "wada_matrix", spy)
    monkeypatch.setattr(gnk.talex, "_gather", gather_spy)
    for knot, n in knots_ns:
        (rec,) = run_cell(knot, n, target, ("talex",))
        assert rec.status == "ok"
    assert len(gathered) == len(built) == len(knots_ns)
    for rep, (_, wm) in zip(gathered, built):
        assert np.array_equal(wm.rep.images, rep.images)
        assert np.array_equal(wm.rep.inverses, rep.inverses)
    return built


def _assert_blocks_match_fox(pres, wm):
    fox = [
        [fox_derivative(rel, j) for j in range(len(pres.gens))]
        for rel in pres.relators
    ]
    for member in range(len(wm.rep.images)):
        blocks = wada_blocks(wm, member)
        for i, row in enumerate(fox):
            for j, elem in enumerate(row):
                assert blocks[i][j] == degree_terms(fox_block(wm.rep, elem, member))


def _characters(pres, p):
    """The 1-dimensional representations x -> u of a knot group, one
    member per unit u mod p; u = 1 is the trivial representation."""
    members = [(((u,),),) * len(pres.gens) for u in range(1, p)]
    return hand_representation(pres, p, members)


KNOTS_NS = [(knot, n) for knot in ("SK", "GK") for n in (1, 2, 3)]


@pytest.mark.parametrize("target", ["SL2_2", "SL2_3", "SL2_5", "SL2_7", "PSL2_7"])
def test_batched_blocks_match_fox_oracle(target, monkeypatch):
    # every member of every cell's class-key batch, against Fox derivatives
    batches = _class_key_batches(monkeypatch, KNOTS_NS, target)
    assert len(batches) == len(KNOTS_NS)
    assert all(len(wm.rep.images) > 1 for _, wm in batches)
    for pres, wm in batches:
        _assert_blocks_match_fox(pres, wm)


def test_batched_characters_match_fox_oracle():
    for knot, n in KNOTS_NS:
        pres = knot_presentation(knot, n)
        for p in (2, 5):
            batch = _characters(pres, p)
            wm = wada_matrix(pres, batch)
            _assert_blocks_match_fox(pres, wm)
            got = [ta.line() for ta in twisted_alexanders(pres, batch)]
            alone = [
                twisted_alexander(pres, batch_member(batch, member)).line()
                for member in range(p - 1)
            ]
            assert got == alone


@pytest.mark.parametrize("target,distinct", [("SL2_3", 30), ("PSL2_7", 36)])
def test_batch_computes_each_denominator_once(target, distinct, monkeypatch):
    # a denominator depends only on p and the deleted generator's image, so
    # a process computes one per distinct image over all its batches, not
    # one per distinct image of each batch, and a batch's lines are those
    # of evaluating every member alone
    import gnk.talex

    batches = _class_key_batches(monkeypatch, KNOTS_NS, target)
    monkeypatch.undo()
    calls = []
    real = gnk.talex._denominators

    def spy(ring, images):
        calls.append(images)
        return real(ring, images)

    monkeypatch.setattr(gnk.talex, "_denominators", spy)
    monkeypatch.setattr(gnk.talex, "_DENOMINATORS", {})  # a cold process
    seen, total, tried = set(), 0, 0
    for pres, wm in batches:
        calls.clear()
        got = twisted_alexanders(pres, wm.rep)
        firsts = {member_matrices(wm.rep, r)[0][0] for r in range(len(got))}
        assert len(calls) == (not firsts <= seen)  # at most one call per batch
        computed = [tuple(map(tuple, m)) for c in calls for m in c.tolist()]
        assert sorted(computed) == sorted(firsts - seen)
        seen |= firsts
        total += len(firsts)
        tried += len(got)
        alone = [
            twisted_alexander(pres, batch_member(wm.rep, r)).line()
            for r in range(len(got))
        ]
        assert [ta.line() for ta in got] == alone
    assert total == distinct < tried
    process_wide = {"SL2_3": 5, "PSL2_7": 6}[target]
    assert len(seen) == len(gnk.talex._DENOMINATORS) == process_wide < total


def test_denominators_are_cached_per_p(monkeypatch):
    # one integer matrix, reduced alike mod 3 and mod 5, gets one entry
    # under each p, and each matches a fresh evaluation
    import gnk.talex

    pres = Presentation(GeneratorTable(("x",)), ())
    m = ((1, 2), (1, 1))  # determinant -1, a unit mod 3 and mod 5
    monkeypatch.setattr(gnk.talex, "_DENOMINATORS", {})
    dens = {}
    for p in (3, 5):
        rep = Representation(
            pres.gens, p, np.array([[m]]), np.array([[mat_inverse(p, m)]])
        )
        dens[p] = twisted_alexander(pres, rep).denominator
        ring = _ring_for(p)
        (fresh,) = _denominators(ring, np.array([m]))
        assert dens[p] == _normalized(ring, fresh)
    assert set(gnk.talex._DENOMINATORS) == {
        (3, np.array(m, np.int64).tobytes()),
        (5, np.array(m, np.int64).tobytes()),
    }
    assert dens[3] != dens[5]


def test_batch_failures_name_the_member_fault(monkeypatch):
    import dataclasses

    pres = knot_presentation("SK", 2)
    ((_, wm),) = _class_key_batches(monkeypatch, [("SK", 2)], "SL2_5")
    members = len(wm.rep.images)
    # one member with a generator image swapped breaks a relator
    images, _ = member_matrices(wm.rep, members // 2)
    for a, b, c, d in SL2Group(5).elements():
        bad = hand_rep(pres, 5, (images[0], ((a, b), (c, d)), *images[2:]))
        try:
            validate_representation(pres, bad)
        except ValueError:
            break
    head, tail = batch_member(wm.rep, 0), batch_member(wm.rep, members - 1)
    with pytest.raises(ValueError, match="not respected"):
        wada_matrix(pres, joined_batch(head, bad, tail))
    # a tampered block in one member fails the chain rule
    _check_chain_rule(wm)
    coeffs = wm.coeffs.copy()
    coeffs[members - 1, 2, 1, -wm.low] += np.eye(2, dtype=coeffs.dtype)
    with pytest.raises(RuntimeError, match="identity failed"):
        _check_chain_rule(dataclasses.replace(wm, coeffs=coeffs % 5))
    # members share p and dim: a batch has one p, and its images and
    # inverses one k x k shape
    for other in (trivial_representation(pres, 3), trivial_representation(pres, 5)):
        mixed = dataclasses.replace(wm.rep, inverses=other.inverses)
        with pytest.raises(ValueError, match="image per generator"):
            wada_matrix(pres, mixed)
        wada_matrix(pres, other)  # valid on its own
    empty = dataclasses.replace(
        wm.rep, images=wm.rep.images[:0], inverses=wm.rep.inverses[:0]
    )
    with pytest.raises(ValueError, match="at least one"):
        wada_matrix(pres, empty)


def test_cells_gather_batches_without_homomorphisms(monkeypatch):
    # a talex cell gathers its one batch from the group's matrix table: it
    # builds no per-class Homomorphism and calls no per-hom builder
    import gnk.talex
    from gnk.harness import run_cell

    def refuse(*args, **kwargs):
        raise AssertionError("built per homomorphism")

    monkeypatch.setattr(Homomorphism, "__init__", refuse)
    for name in ("representation_from_sl2_hom", "representation_from_psl27_hom"):
        monkeypatch.setattr(gnk.talex, name, refuse)
    with pytest.raises(AssertionError, match="per homomorphism"):
        Homomorphism(None, ())
    for target in ("SL2_2", "SL2_3", "PSL2_7"):
        for knot in ("SK", "GK"):
            (rec,) = run_cell(knot, 2, target, ("talex",))
            assert rec.status == "ok"


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_twin_map_matches_index_of_oracle(p):
    # twin[x] is the index of P x P^-1, P = diag(1, r) for the least
    # non-square r mod p, looked up element by element
    import gnk.talex

    group = SL2Group(p)
    r = min(set(range(1, p)) - {x * x % p for x in range(1, p)})
    want = [
        group.index_of((a, b * pow(r, -1, p) % p, c * r % p, d))
        for a, b, c, d in group.elements()
    ]
    twin = gnk.talex._matrix_table(group)[2]
    assert twin.tolist() == want
    assert sorted(want) == list(range(len(want)))  # a bijection


@pytest.mark.parametrize("fault", ["bytes", "inverse", "relator", "chain rule"])
def test_cell_batch_path_runs_every_check(fault, monkeypatch):
    # each check of wada_matrix fires on the batch that run_cell gathers:
    # the byte bound skips the cell, and a tampered inverse, a member that
    # breaks a relator or a tampered block raises
    import dataclasses

    import gnk.talex
    from gnk.harness import run_cell

    real_gather, real_chain = gnk.talex._gather, gnk.talex._check_chain_rule

    def gather(pres, group, rows):
        if fault == "relator":  # the last member's second image moved
            rows = rows.copy()
            for x in range(group.order):
                rows[-1, 1] = x
                try:
                    validate_representation(pres, real_gather(pres, group, rows[-1:]))
                except ValueError:
                    break
        rep = real_gather(pres, group, rows)
        if fault == "inverse":
            inverses = rep.inverses.copy()
            inverses[-1, 0, 0, 0] += 1
            rep = dataclasses.replace(rep, inverses=inverses)
        return rep

    def chain(wm):
        coeffs = wm.coeffs.copy()
        coeffs[-1, 0, 0, -wm.low] += np.eye(coeffs.shape[-1], dtype=coeffs.dtype)
        real_chain(dataclasses.replace(wm, coeffs=coeffs % wm.rep.p))

    monkeypatch.setattr(gnk.talex, "_gather", gather)
    if fault == "bytes":
        monkeypatch.setattr(gnk.talex, "MAX_WADA_BYTES", 1)
        (rec,) = run_cell("SK", 2, "SL2_5", ("talex",))
        assert rec.status == "skip" and "MAX_WADA_BYTES" in rec.stats["reason"]
        return
    if fault == "chain rule":
        monkeypatch.setattr(gnk.talex, "_check_chain_rule", chain)
    error, match = {
        "inverse": (ValueError, "inverse is not 1"),
        "relator": (ValueError, "not respected"),
        "chain rule": (RuntimeError, "identity failed"),
    }[fault]
    with pytest.raises(error, match=match):
        run_cell("SK", 2, "SL2_5", ("talex",))


# -- the invariant --------------------------------------------------------------


def test_trefoil_classical_values():
    pres = trefoil_right_reduced(1)
    for p, num, den in (
        (5, "1 + 4*t + t^2", "1 + 4*t"),
        (2, "1 + t + t^2", "1 + t"),
        (7, "1 + 6*t + t^2", "1 + 6*t"),
    ):
        ta = twisted_alexander(pres, trivial_representation(pres, p))
        assert ta.line() == f"{num} | {den}"


def test_composite_knots_square_the_trefoil():
    # connected sums multiply classical Alexander polynomials
    square = (laurent(5, (1, 4, 1)) * laurent(5, (1, 4, 1))).normalized()
    for knot in ("SK", "GK"):
        pres = knot_presentation(knot, 1, raw=True)
        ta = twisted_alexander(pres, trivial_representation(pres, 5))
        assert ta.numerator == square.coeffs
        assert ta.denominator == (1, 4)


def test_invariant_survives_presentation_change():
    for knot in ("SK", "GK"):
        raw = knot_presentation(knot, 1, raw=True)
        red = knot_presentation(knot, 1)
        ta_raw = twisted_alexander(raw, trivial_representation(raw, 5))
        ta_red = twisted_alexander(red, trivial_representation(red, 5))
        assert ta_raw.numerator == ta_red.numerator
        assert ta_raw.denominator == ta_red.denominator


def test_braid_and_reduced_presentations_agree_per_hom():
    group = SL2Group(3)
    braid = g1_braid_presentation()
    red = knot_presentation("SK", 1)
    braid_homs = list(enumerate_homs(braid, group))
    assert {h.image_indices for h in braid_homs} == {
        h.image_indices for h in enumerate_homs(red, group)
    }
    for hom in braid_homs[:25]:
        a = twisted_alexander(braid, representation_from_sl2_hom(braid, hom))
        b = twisted_alexander(red, representation_from_sl2_hom(red, hom))
        assert a.line() == b.line()


def test_numerator_does_not_depend_on_the_deleted_column():
    # the kernel always deletes the first column; every generator is a
    # meridian, so deleting any other gives the same minors gcd
    sk1, sk2 = knot_presentation("SK", 1), knot_presentation("SK", 2)
    homs = list(enumerate_homs(sk2, SL2Group(3)))
    cases = [
        (sk1, trivial_representation(sk1, 5)),
        (sk2, representation_from_sl2_hom(sk2, homs[len(homs) // 2])),
        (sk2, representation_from_sl2_hom(sk2, homs[-1])),
    ]
    for pres, rep in cases:
        ta = twisted_alexander(pres, rep)
        wm = wada_matrix(pres, rep)
        for j in range(len(pres.gens)):
            flat = deleted_flat(wm, j)
            oracle = poly_minors_gcd(rep.p, flat, len(flat[0]))
            assert oracle.normalized().coeffs == ta.numerator
    line = "1 + 3*t + 3*t^2 + 3*t^3 + t^4 | 1 + 4*t"
    assert twisted_alexander(*cases[0]).line() == line


def test_denominators_never_vanish():
    # det(A t - 1) has constant term det(-1) = (-1)^k, so no column needs
    # skipping: checked on every element of SL2_3 and SL2_5 and every matrix
    # of the PSL2_7 dictionary
    images = {
        p: [((a, b), (c, d)) for a, b, c, d in SL2Group(p).elements()]
        for p in (3, 5)
    }
    images[2] = psl27_matrix_dictionary(group_from_spec("PSL2_7"))
    assert [len(images[p]) for p in (3, 5, 2)] == [24, 120, 168]
    for p, batch in images.items():
        ring = _ring_for(p)
        dens = _denominators(ring, np.array(batch))
        assert len(dens) == len(batch)
        for den in dens:
            assert den != ring.zero
            assert _normalized(ring, den)[0] == 1


def test_numerator_matches_minors_oracle():
    cases = []
    pres = trefoil_right_reduced(1)
    cases.append((pres, trivial_representation(pres, 5)))
    raw = knot_presentation("SK", 1, raw=True)
    cases.append((raw, trivial_representation(raw, 5)))
    pres2 = knot_presentation("SK", 2)
    group = SL2Group(3)
    hom = next(iter(enumerate_homs(pres2, group)))
    cases.append((pres2, representation_from_sl2_hom(pres2, hom)))
    for pres, rep in cases:
        ta = twisted_alexander(pres, rep)
        flat = deleted_flat(wada_matrix(pres, rep), 0)
        oracle = poly_minors_gcd(rep.p, flat, len(flat[0]))
        assert ta.numerator == oracle.normalized().coeffs


def test_psl27_numerator_matches_minors_oracle():
    psl = PSL2Group(7)
    pres = knot_presentation("GK", 3)
    hom = next(iter(enumerate_homs(pres, psl)))
    rep = representation_from_psl27_hom(pres, hom)
    ta = twisted_alexander(pres, rep)
    flat = deleted_flat(wada_matrix(pres, rep), 0)
    minors = [
        poly_det(2, [flat[i] for i in rows])
        for rows in itertools.combinations(range(9), 6)
    ]
    assert poly_gcd(2, minors).coeffs == ta.numerator


def test_invariant_is_conjugation_invariant():
    psl = PSL2Group(7)
    pres = knot_presentation("SK", 3)
    homs = list(itertools.islice(enumerate_homs(pres, psl), 40))
    base = homs[-1]
    ta = twisted_alexander(pres, representation_from_psl27_hom(pres, base))
    els = psl.elements()
    for c in (els[3], els[50], els[111]):
        moved = tuple(
            psl.index_of(conjugate(psl, els[i], c)) for i in base.image_indices
        )
        other = Homomorphism(psl, moved)
        assert hom_is_valid(pres, other)
        tb = twisted_alexander(pres, representation_from_psl27_hom(pres, other))
        assert (ta.numerator, ta.denominator) == (tb.numerator, tb.denominator)


# -- the 168-element dictionary ---------------------------------------------------


@pytest.mark.parametrize(
    "knot, n, target, homs, digest",
    [
        ("SK", 100, "SL2_3", 264,
         "dd5ebb602b8ed20b568520a9ddb87164f39abe2537770c3d565d086d93ad38b7"),
        ("GK", 100, "SL2_3", 264,
         "dd5ebb602b8ed20b568520a9ddb87164f39abe2537770c3d565d086d93ad38b7"),
        ("SK", 20, "SL2_5", 2040,
         "903b9b71af1eb88c375d54990201e40998a56feb6e20681e8d49883c77fb19f7"),
        ("GK", 20, "PSL2_7", 5880,
         "2d540585acdc44d9d705fefe3c613d08283bbac0fd020ce8ab83da0860bc1413"),
    ],
)
def test_large_n_digests_are_pinned(knot, n, target, homs, digest):
    # cells whose entries run to hundreds of coefficients, so their grids
    # take the Python-int packing; digests recorded with coefficient-list
    # entries
    from gnk.harness import run_cell

    (rec,) = run_cell(knot, n, target, ("talex",))
    assert (rec.status, rec.value, rec.stats["homs"]) == ("ok", digest, homs)


def _psl27_matrices():
    """The dictionary's rows as nested tuples, in element-index order."""
    shared = psl27_matrix_dictionary(group_from_spec("PSL2_7"))
    return [tuple(map(tuple, m)) for m in shared.tolist()]


def test_dictionary_is_isomorphism():
    # the array in element-index order: onto GL_3(F_2), order-preserving,
    # and the oracle's own walk of the group by group.mul; psl, built afresh
    # rather than shared, gets its own dictionary, multiplicative on its own
    # index table and equal to the shared group's
    shared = psl27_matrix_dictionary(group_from_spec("PSL2_7"))
    assert shared.shape == (168, 3, 3)
    table = _psl27_matrices()
    psl = PSL2Group(7)
    els = psl.elements()
    assert len(set(table)) == 168
    assert set(table) == set(gl32_elements())
    ident3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert table[psl.index_of(psl.identity)] == ident3
    oracle = psl27_oracle_dictionary(psl)
    assert table == [oracle[x] for x in els]
    for i, x in enumerate(els):
        order = 1
        acc = x
        while acc != psl.identity:
            acc = psl.mul(acc, x)
            order += 1
        assert mat3_order(table[i]) == order
    mats = psl27_matrix_dictionary(psl)
    mul, _, _ = naive_index_tables(psl)
    assert ((mats[:, None] @ mats[None]) % 2 == mats[mul]).all()
    assert np.array_equal(mats, shared)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 167), st.integers(0, 167))
def test_dictionary_multiplicative(i, j):
    table = _psl27_matrices()
    psl = PSL2Group(7)
    els = psl.elements()
    prod = table[psl.index_of(psl.mul(els[i], els[j]))]
    k = 3
    manual = tuple(
        tuple(
            sum(table[i][r][l] * table[j][l][c] for l in range(k)) % 2
            for c in range(k)
        )
        for r in range(k)
    )
    assert prod == manual


def test_psl27_rep_rejects_other_groups():
    pres = knot_presentation("SK", 2)
    group = SymmetricGroup(3)
    hom = next(iter(enumerate_homs(pres, group)))
    with pytest.raises(ValueError, match="PSL2_7"):
        representation_from_psl27_hom(pres, hom)
