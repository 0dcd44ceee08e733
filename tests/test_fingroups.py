import functools
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gnk.cli import main
from gnk.fingroups import (
    AlternatingGroup,
    CapabilityError,
    CayleyGroup,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    MAX_ENUMERABLE_ORDER,
    PSL2Group,
    SL2Group,
    SymmetricGroup,
    WITNESS_CYCLES,
    WITNESS_DEGREE,
    WITNESS_TWIST,
    format_cycles,
    from_cayley_table,
    group_from_spec,
    nth_roots,
    parse_cayley_table,
    parse_cycles,
    permutation_parity,
    s24_witness_report,
)
from gnk.homsearch import indexed_tables

from oracle_utils import (
    cayley_table,
    conjugacy_classes,
    format_cayley_table,
    validate_group,
)

SUITE = (
    "S3 S4 S5 S6 A4 A5 D4 D5 D6 D7 D8 "
    "SL2_3 SL2_5 PSL2_7 Z2 Z3 Z4 Z5 Z6 Z7 Z2xZ4"
).split()


@pytest.mark.parametrize("spec", SUITE)
def test_suite_groups_satisfy_axioms(spec):
    validate_group(group_from_spec(spec))


def test_known_orders():
    orders = {
        "S3": 6,
        "S6": 720,
        "A1": 1,
        "A2": 1,
        "A3": 3,
        "A4": 12,
        "A5": 60,
        "D4": 8,
        "D8": 16,
        "SL2_3": 24,
        "SL2_5": 120,
        "PSL2_7": 168,
        "Z7": 7,
        "Z2xZ4": 8,
    }
    for spec, want in orders.items():
        g = group_from_spec(spec)
        assert g.order == want
        assert len(g.elements()) == want


def test_symmetric_composes_left_to_right():
    s3 = SymmetricGroup(3)
    x = parse_cycles("(1,2)", 3)
    y = parse_cycles("(1,3)", 3)
    # apply (1 2) first, then (1 3): 1->2, 2->3, 3->1
    assert s3.mul(x, y) == parse_cycles("(1,2,3)", 3)
    assert s3.mul(y, x) == parse_cycles("(1,3,2)", 3)


def test_permutation_parity():
    assert permutation_parity((0, 1, 2)) == 0
    assert permutation_parity((1, 0, 2)) == 1
    assert permutation_parity((1, 2, 0)) == 0


def test_alternating_membership():
    a4 = AlternatingGroup(4)
    assert all(permutation_parity(p) == 0 for p in a4.elements())
    with pytest.raises(ValueError):
        a4.parse_element("(1,2)")
    assert a4.parse_element("(1,2,3)") == (1, 2, 0, 3)


def test_cycle_text_round_trip():
    s24 = SymmetricGroup(24)
    text = "(1,8,10,5,2,7,9,6)(15,17,24,19,16,18,23,20)"
    perm = s24.parse_element(text)
    assert s24.format_element(perm) == text
    assert s24.power(perm, 8) == s24.identity
    assert s24.power(perm, 4) != s24.identity
    assert format_cycles(parse_cycles("()", 5)) == "()"
    assert parse_cycles("(2 3)", 4) == parse_cycles("(2,3)", 4)


def test_cycle_text_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(0,1)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,5)", 4)
    with pytest.raises(ValueError):
        parse_cycles("1,2", 4)
    # empty text is refused, not read as the identity; these spellings are it
    for text in ("", "  "):
        with pytest.raises(ValueError, match="bad cycle text"):
            parse_cycles(text, 4)
    for text in ("()", "e", "1", " e "):
        assert parse_cycles(text, 4) == (0, 1, 2, 3)


def test_enumeration_is_gated_but_arithmetic_is_not():
    s24 = SymmetricGroup(24)
    assert s24.order == math.factorial(24) > MAX_ENUMERABLE_ORDER
    with pytest.raises(CapabilityError):
        s24.elements()
    # A7 is just past the bound; at degree 10^5 the gate never forms k!,
    # whose order is worked out only when read
    for big in (AlternatingGroup(7), SymmetricGroup(10**5), AlternatingGroup(10**5)):
        with pytest.raises(CapabilityError, match="bound 2500"):
            big.elements()
        assert ("order" in vars(big)) == (big.degree == 7)
    assert AlternatingGroup(7).order == 2520
    # a product asks its factors before it forms its own order
    product = DirectProductGroup(SymmetricGroup(3), SymmetricGroup(10**6))
    with pytest.raises(CapabilityError, match="bound 2500"):
        product.elements()
    assert "order" not in vars(product) and "order" not in vars(product.right)
    x = s24.parse_element("(3,5,12,7,4,6,11,8)(15,17,24,19,16,18,23,20)")
    assert s24.mul(x, s24.inv(x)) == s24.identity


def test_prime_test_is_exact_below_its_limit():
    # trial division below 5000; the least strong pseudoprimes to the first
    # 4, 11 and 12 prime bases, and 2^61 - 1; past the limit a composite is
    # still found, and the limit itself, the least strong pseudoprime to all
    # 13 bases, is refused
    from gnk.fingroups import _is_prime

    for p in range(-2, 5000):
        assert _is_prime(p) == (p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1)))
    for psp in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(psp)
    assert _is_prime(2**61 - 1) and not _is_prime((2**31 - 1) * (2**61 - 1))
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        _is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="limit"):
        SL2Group(2**89 - 1)


def test_cyclic_and_dihedral_elements():
    z6 = CyclicGroup(6)
    assert z6.power(5, -1) == 1
    assert z6.parse_element("4") == 4
    with pytest.raises(ValueError):
        z6.parse_element("6")
    d4 = DihedralGroup(4)
    r = (1, 0)
    f = (0, 1)
    assert d4.mul(f, d4.mul(r, f)) == d4.inv(r)  # f r f = r^-1
    assert d4.format_element((3, 1)) == "r3f"
    assert d4.parse_element("r3f") == (3, 1)
    assert d4.parse_element("e") == (0, 0)
    assert d4.parse_element("f") == (0, 1)
    with pytest.raises(ValueError):
        d4.parse_element("r9")
    with pytest.raises(ValueError):
        d4.parse_element("q")


def test_sl2_and_psl2():
    sl = SL2Group(5)
    m = (2, 1, 1, 1)  # det 1 mod 5
    assert sl.mul(m, sl.inv(m)) == sl.identity
    assert sl.parse_element(sl.format_element(m)) == m
    with pytest.raises(ValueError):
        sl.parse_element("[[1,0],[1,2]]")  # det 2
    with pytest.raises(ValueError):
        SL2Group(6)
    psl = PSL2Group(7)
    assert psl.order == 168
    for e in psl.elements():
        assert e == psl._normalize(e)
    # -I collapses to I
    assert psl._normalize((6, 0, 0, 6)) == psl.identity
    assert PSL2Group(2).order == SL2Group(2).order == 6


def test_psl2_parse_normalizes():
    psl = PSL2Group(7)
    assert psl.parse_element("[[6,0],[0,6]]") == psl.identity


def test_nth_roots_counts():
    s4 = SymmetricGroup(4)
    assert len(nth_roots(s4, s4.identity, 2)) == 10  # e, 6 swaps, 3 doubles
    s3 = SymmetricGroup(3)
    assert len(nth_roots(s3, s3.identity, 3)) == 3
    z12 = CyclicGroup(12)  # additive: x^2 means 2x
    assert nth_roots(z12, 4, 2) == (2, 8)
    assert nth_roots(z12, 1, 2) == ()


def test_root_table_matches_nth_roots():
    # the root buckets behind property T, extend and structured counts, on
    # a cold cache (a fresh group) and a warm one (the same tables again,
    # and n + |H|, which has the same residue)
    for make in (
        lambda: SymmetricGroup(4),
        lambda: DihedralGroup(6),
        lambda: CyclicGroup(12),
        lambda: SL2Group(3),
    ):
        g = make()
        els = g.elements()
        built = {}
        for n in (2, 3, 2, 3 + g.order):
            buckets = indexed_tables(g).root_buckets(n)
            assert built.setdefault(n % g.order, buckets) is buckets
            order, starts, counts = buckets
            for t, target in enumerate(els):
                bucket = order[starts[t] : starts[t] + counts[t]]
                assert tuple(els[i] for i in bucket) == nth_roots(g, target, n)
            assert counts.sum() == g.order


def test_conjugacy_class_counts():
    counts = {
        "S3": 3,
        "S4": 5,
        "S5": 7,
        "A4": 4,
        "A5": 5,
        "D4": 5,
        "PSL2_7": 6,
        "SL2_3": 7,
        "Z6": 6,
    }
    for spec, want in counts.items():
        g = group_from_spec(spec)
        classes = conjugacy_classes(g)
        assert len(classes) == want
        sizes = [len(c) for c in classes]
        assert sum(sizes) == g.order
        for s in sizes:
            assert g.order % s == 0
        # classes are disjoint and sorted by least member
        firsts = [c[0] for c in classes]
        assert firsts == sorted(firsts)
        assert sorted(i for c in classes for i in c) == list(range(g.order))
        ident = g.index_of(g.identity)
        assert (ident,) in classes


def test_generating_set_generates():
    for spec in ("S5", "Z6", "D6", "PSL2_7", "Z2xZ4"):
        g = group_from_spec(spec)
        gens = [g.elements()[i] for i in indexed_tables(g).gens]
        assert len(gens) <= max(2, math.ceil(math.log2(g.order)))
        closure = {g.identity}
        frontier = [g.identity]
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = g.mul(x, h)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        assert len(closure) == g.order


def test_cayley_round_trip():
    s3 = SymmetricGroup(3)
    text = format_cayley_table(s3)
    g = parse_cayley_table(text, name="S3-table")
    assert g.order == 6
    validate_group(g)
    assert cayley_table(g) == cayley_table(s3)
    assert len(conjugacy_classes(g)) == 3


def test_cayley_rejects_bad_tables():
    with pytest.raises(ValueError):
        from_cayley_table([[0, 1], [0, 1]])  # column not latin
    with pytest.raises(ValueError, match="identity"):
        CayleyGroup(((1, 0), (1, 0)), name="bad")
    with pytest.raises(ValueError, match="inverse"):
        CayleyGroup(((0, 1, 2), (1, 2, 0), (2, 1, 0)), name="bad")
    # latin square with identity and inverses that is not associative
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        from_cayley_table(loop)


def test_cayley_group_inverses():
    z4 = CyclicGroup(4)
    g = from_cayley_table(cayley_table(z4), name="Z4-table")
    assert g.inv(1) == 3
    assert g.parse_element("2") == 2
    with pytest.raises(ValueError):
        g.parse_element("4")


def test_direct_product():
    g = group_from_spec("Z2xZ4")
    assert isinstance(g, DirectProductGroup)
    assert g.order == 8
    x = (1, 3)
    assert g.mul(x, g.inv(x)) == g.identity
    assert g.parse_element(g.format_element(x)) == x
    nested = group_from_spec("Z2xZ2xZ2")
    assert nested.order == 8
    y = ((1, 0), 1)
    assert nested.parse_element(nested.format_element(y)) == y


def test_group_from_spec_errors():
    for bad in ("Q8", "S", "PSL3_2", "", "SL2_4"):
        with pytest.raises(ValueError):
            group_from_spec(bad)


def test_group_from_spec_cayley_file(tmp_path):
    path = tmp_path / "d4.table"
    path.write_text(format_cayley_table(DihedralGroup(4)))
    g = group_from_spec(f"cayley:{path}")
    assert g.order == 8
    assert len(conjugacy_classes(g)) == 5


def test_refused_symmetric_group_builds_no_identity():
    # the identity of S_k is worked out only when read, so a skip of a huge
    # S_k stays small; reading it here would keep it in the spec cache
    tracemalloc.start()
    try:
        group = group_from_spec("S3000000")
        with pytest.raises(CapabilityError, match="bound 2500"):
            group.elements()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "identity" not in vars(group)


def test_cayley_factor_takes_the_rest_of_the_spec(tmp_path, capsys):
    # the path holds an x, which must not split the spec
    path = tmp_path / "z3.txt"
    path.write_text(format_cayley_table(CyclicGroup(3)))
    group = group_from_spec(f"Z2xcayley:{path}")
    assert group.order == 6
    assert group.right.name == f"cayley:{path}"
    argv = ["count-homs", "--knot", "SK", "--n", "2", "--target", f"Z2xcayley:{path}"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "6\n"
    # a rewritten file gives a new product, as it gives a new factor
    path.write_text(format_cayley_table(CyclicGroup(5)))
    assert group_from_spec(f"Z2xcayley:{path}").order == 10
    missing = tmp_path / "no" / "table.txt"
    with pytest.raises(FileNotFoundError) as info:
        group_from_spec(f"Z2xcayley:{missing}")
    assert info.value.filename == str(missing)
    argv[-1] = f"Z2xcayley:{missing}"
    assert main(argv) == 1
    assert str(missing) in capsys.readouterr().err


def test_group_from_spec_shares_one_group_per_spec():
    assert group_from_spec("S4") is group_from_spec(" S4 ")
    assert group_from_spec("Z2xZ4") is group_from_spec("Z2xZ4")
    for _ in range(2):
        with pytest.raises(ValueError):
            group_from_spec("Q8")


def test_group_from_spec_cayley_keys_on_content(tmp_path):
    path = tmp_path / "g.table"
    path.write_text(format_cayley_table(DihedralGroup(4)))
    first = group_from_spec(f"cayley:{path}")
    assert first is group_from_spec(f"cayley:{path}")
    path.write_text(format_cayley_table(CyclicGroup(8)))
    second = group_from_spec(f"cayley:{path}")
    assert second is not first
    assert second.table == cayley_table(CyclicGroup(8))
    assert first.table == cayley_table(DihedralGroup(4))
    path.write_text("2\n0 1\n0 1\n")
    for _ in range(2):
        with pytest.raises(ValueError):
            group_from_spec(f"cayley:{path}")


@settings(max_examples=40)
@given(st.permutations(tuple(range(5))), st.permutations(tuple(range(5))))
def test_cycles_and_mul_consistency(x, y):
    s5 = SymmetricGroup(5)
    x, y = tuple(x), tuple(y)
    assert s5.parse_element(s5.format_element(x)) == x
    z = s5.mul(x, y)
    for i in range(5):
        assert z[i] == y[x[i]]
    assert permutation_parity(z) == permutation_parity(x) ^ permutation_parity(y)


@settings(max_examples=40)
@given(st.permutations(tuple(range(5))), st.integers(-12, 12))
def test_power_matches_iteration(x, k):
    s5 = SymmetricGroup(5)
    x = tuple(x)
    naive = s5.identity
    step = x if k >= 0 else s5.inv(x)
    for _ in range(abs(k)):
        naive = s5.mul(naive, step)
    assert s5.power(x, k) == naive



# -- the degree-24 certificate as a commutant test --------------------------------


def test_s24_witness_fails_the_commutant_test():
    # property T(2,SK) at the certificate's lift holds exactly when d_hat
    # commutes with c = Q^-1 P, Q = (x D x^-1) D x and P = (y D y^-1) D y
    # for x = DB and y = DE.  Read under either composition convention it
    # fails, as the certificate's powered relation does
    group = SymmetricGroup(WITNESS_DEGREE)
    B, D, E, d_hat = (
        group.parse_element(WITNESS_CYCLES[k]) for k in ("B", "D", "E", "d_hat")
    )
    report = s24_witness_report()

    def commutes_under(mul):
        x, y = mul(D, B), mul(D, E)
        q, p = (functools.reduce(mul, (z, D, group.inv(z), D, z)) for z in (x, y))
        c = mul(group.inv(q), p)
        return mul(d_hat, c) == mul(c, d_hat)

    assert group.power(d_hat, WITNESS_TWIST) == D
    assert not commutes_under(group.mul)
    assert not commutes_under(lambda a, b: group.mul(b, a))
    assert not report.powered_holds and not report.powered_holds_mirror
