"""End-to-end acceptance checklist.

One test per numbered criterion; the pytest line for each test is its
pass/fail line.  Wall-clock budgets are pinned as constants below.  The
standard suite sweep (the shipped config) runs once as a module fixture
and feeds criteria 2, 4, 5, and 6.
"""

import dataclasses
import itertools
import os
import time

import numpy as np
import pytest

from gnk.fingroups import group_from_spec, nth_roots, s24_witness_report
from gnk.harness import SweepConfig, compare_report, run_cell, run_sweep
from gnk.homsearch import hom_image_matrix, sharded_search
from gnk.presentations import g1_braid_presentation, knot_presentation
from gnk.talex import twisted_alexander, wada_matrix
from gnk.words import (
    GeneratorTable,
    format_word,
    parse_word,
    reduce,
    word_product,
)
from oracle_utils import (
    exponent_matrix,
    int_det,
    invariant_factors,
    smith_normal_form,
    trivial_representation,
    word_power,
)

WITNESS_BUDGET = 1.0          # seconds, criterion 1
PSL_COUNT_BUDGET = 300.0      # seconds per knot, single shard, criterion 2
PSL_SHARDED_BUDGET = 60.0     # seconds per knot, 8 shards, criterion 2
TALEX_BUDGET = 1800.0         # seconds for both knots, criterion 3
MIN_STRUCTURED_CELLS = 20     # criterion 4

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")


@pytest.fixture(scope="module")
def suite_records(tmp_path_factory):
    cfg = SweepConfig.from_file(os.path.join(CONFIG_DIR, "standard_suite.json"))
    out = tmp_path_factory.mktemp("acceptance") / "standard_suite.jsonl"
    cfg = dataclasses.replace(cfg, output=str(out))
    return run_sweep(cfg)


def cell_value(records, knot, n, target, task):
    for r in records:
        if r.key() == (knot, n, target, task):
            return r
    raise AssertionError(f"no record for {(knot, n, target, task)}")


def test_criterion_01_s24_witness():
    start = time.perf_counter()
    report = s24_witness_report()
    elapsed = time.perf_counter() - start
    assert report.root_ok is True
    assert report.braid_bd_ok is True
    assert report.braid_ed_ok is True
    # the powered relation must fail under at least one composition convention
    assert (report.powered_holds, report.powered_holds_mirror) != (True, True)
    assert report.confirmed is True
    assert elapsed < WITNESS_BUDGET
    print(f"criterion 1 PASS: witness confirmed in {elapsed:.3f}s")


def test_criterion_02_psl27_hom_count(suite_records):
    values = {}
    for knot in ("SK", "GK"):
        start = time.perf_counter()
        (rec,) = run_cell(knot, 3, "PSL2_7", ("count",))
        elapsed = time.perf_counter() - start
        assert rec.status == "ok"
        assert elapsed < PSL_COUNT_BUDGET
        values[knot] = (rec.value, rec.stats["buckets"])
    assert values["SK"][0] == values["GK"][0] == 8232
    assert values["SK"][1] == values["GK"][1]  # bucket-by-bucket

    # the sweep's own records agree and identify which bucket hits 8232
    swept = {
        knot: cell_value(suite_records, knot, 3, "PSL2_7", "count")
        for knot in ("SK", "GK")
    }
    for knot, rec in swept.items():
        assert rec.value == 8232
        assert rec.stats["buckets"] == values[knot][1]
        hit = sorted(k for k, v in rec.stats["buckets"].items() if v == 8232)
        assert hit == ["all_homs"]
    assert swept["SK"].stats["buckets"] == swept["GK"].stats["buckets"]

    # eight shards partition the same search and land on the same total
    for knot in ("SK", "GK"):
        pres = knot_presentation(knot, 3)
        group = group_from_spec("PSL2_7")
        start = time.perf_counter()
        total = sum(
            sharded_search(pres, group, 8, shard_id=s)[1]["homs"] for s in range(8)
        )
        elapsed = time.perf_counter() - start
        assert total == 8232
        assert elapsed < PSL_SHARDED_BUDGET
    print("criterion 2 PASS: 8232 homs each, all-homs bucket, buckets agree")


def test_criterion_03_twisted_alexander_multisets_equal():
    start = time.perf_counter()
    cells = {}
    for knot in ("SK", "GK"):
        (rec,) = run_cell(knot, 3, "PSL2_7", ("talex",))
        assert rec.status == "ok"
        assert rec.stats["homs"] == 8232
        cells[knot] = rec
    elapsed = time.perf_counter() - start
    assert cells["SK"].value == cells["GK"].value  # sorted-multiset digest
    assert cells["SK"].stats["distinct"] == cells["GK"].stats["distinct"]
    assert elapsed < TALEX_BUDGET
    print(
        f"criterion 3 PASS: multisets identical "
        f"({cells['SK'].stats['distinct']} distinct lines, {elapsed:.0f}s)"
    )


def test_criterion_04_structured_count_identity(suite_records):
    by_key = {r.key(): r for r in suite_records}
    checked = 0
    for r in suite_records:
        if r.task != "property_t" or r.status != "ok" or r.n not in (2, 3):
            continue
        if r.value is not True:
            continue
        count = by_key[(r.knot, r.n, r.target, "count")]
        structured = by_key[(r.knot, r.n, r.target, "structured")]
        assert count.status == "ok" and structured.status == "ok"
        assert structured.value == count.value, (r.knot, r.n, r.target)
        checked += 1
    assert checked >= MIN_STRUCTURED_CELLS
    print(f"criterion 4 PASS: structured = brute force in {checked} cells")


def test_criterion_05_chiral_pair_equality(suite_records):
    report = compare_report(suite_records)
    assert report.mismatches == 0
    rows = {(r.pair, r.n, r.target, r.task): r.outcome for r in report.rows}
    targets = SweepConfig.from_file(
        os.path.join(CONFIG_DIR, "standard_suite.json")
    ).targets
    for target in targets:
        for n in (1, 2, 3):
            for task in ("count", "classes"):
                assert rows[("SK/GK", n, target, task)] == "match"
                assert rows[("trefoil_r/trefoil_l", n, target, task)] == "match"
    bad = {outcome for outcome in rows.values()} - {"match", "skip"}
    assert not bad  # no MISMATCH, no incomplete rows anywhere
    print(f"criterion 5 PASS: {len(rows)} pair rows, zero mismatches")


def test_criterion_06_trefoil_chirality(suite_records):
    for n in range(1, 6):
        left = knot_presentation("trefoil_l", n)
        right = knot_presentation("trefoil_r", n)
        assert sorted(map(format_word, left.relators)) == sorted(
            map(format_word, right.relators)
        ), n
    by_key = {r.key(): r for r in suite_records}
    targets = SweepConfig.from_file(
        os.path.join(CONFIG_DIR, "standard_suite.json")
    ).targets
    for target in targets:
        for n in (1, 2, 3):
            r = by_key[("trefoil_r", n, target, "count")]
            l = by_key[("trefoil_l", n, target, "count")]
            assert r.status == l.status == "ok"
            assert r.value == l.value, (target, n)
    print("criterion 6 PASS: relator multisets n=1..5, counts across suite")


def serialized_hom_set(pres, group):
    matrix, _ = hom_image_matrix(pres, group)
    names = pres.gens.names
    out = set()
    for row in matrix:
        image = {
            name: group.format_element(group.elements()[idx])
            for name, idx in zip(names, row)
        }
        out.add(" ".join(f"{k}={image[k]}" for k in sorted(image)))
    return out


def test_criterion_07_n1_degeneration():
    braid = g1_braid_presentation()
    for target in ("S3", "S4"):
        group = group_from_spec(target)
        braid_set = serialized_hom_set(braid, group)
        for knot in ("SK", "GK"):
            pres = knot_presentation(knot, 1)
            assert len(pres.relators) == 3
            assert serialized_hom_set(pres, group) == braid_set, (knot, target)
    print("criterion 7 PASS: n=1 hom-sets equal the braid presentation's")


def matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def test_criterion_08_abelianization():
    for knot in ("SK", "GK"):
        for n in range(1, 6):
            for raw in (False, True):
                pres = knot_presentation(knot, n, raw=raw)
                assert invariant_factors(pres) == (0,)
                mat = [list(row) for row in exponent_matrix(pres)]
                U, D, V = smith_normal_form(mat)
                assert matmul(matmul([list(r) for r in U], mat),
                              [list(r) for r in V]) == [list(r) for r in D]
                assert abs(int_det(U)) == 1
                assert abs(int_det(V)) == 1
    print("criterion 8 PASS: invariant factors (0,) with verified transforms")


def test_criterion_09_classical_alexander_mod5():
    # By hand from the braid-relator presentation <x,y | xyx = yxy>:
    # numerator t^2 - t + 1, denominator t - 1.  Mod 5, scaled so the
    # lowest coefficient is 1: 1 + 4t + t^2 over 1 + 4t.
    for knot in ("trefoil_r", "trefoil_l"):
        for raw in (False, True):
            pres = knot_presentation(knot, 1, raw=raw)
            rep = trivial_representation(pres, 5)
            inv = twisted_alexander(pres, rep)
            assert inv.line() == "1 + 4*t + t^2 | 1 + 4*t", (knot, raw)
    print("criterion 9 PASS: classical trefoil polynomial recovered mod 5")


def test_criterion_10_property_suites(suite_records):
    # words: reduction is idempotent and stable under round-trip
    table = GeneratorTable(("a", "b", "c"))
    streams = [
        [(0, 2), (0, -2)],
        [(0, 1), (1, -1), (1, 1), (0, 3)],
        [(2, -1), (2, -1), (2, 2), (1, 0), (0, 1)],
        [(0, 1), (1, 1), (0, 1), (0, -1), (1, -1), (0, -1)],
        list(itertools.chain.from_iterable(
            [(g, e) for g in (0, 1, 2)] for e in (1, -1, 2, -2))),
    ]
    for raw in streams:
        once = reduce(table, raw)
        assert reduce(table, once.syllables) == once
        assert parse_word(format_word(once), table) == once

    # power lemma, n and m up to 5, plus additivity of powers
    x = parse_word("a", table)
    y = parse_word("b", table)
    u = parse_word("a b^-2 c", table)
    for n in range(1, 6):
        for m in range(1, 6):
            conj = word_product(word_power(x, n), y, word_power(x, -n))
            expected = word_product(
                word_power(x, n), word_power(y, m), word_power(x, -n)
            )
            assert word_power(conj, m) == expected
            assert word_power(u, n + m) == word_product(
                word_power(u, n), word_power(u, m)
            )

    # the free-calculus identity is enforced on every Wada matrix built
    from gnk.homsearch import enumerate_homs
    from gnk.talex import _check_chain_rule, representation_from_sl2_hom

    trefoil = knot_presentation("trefoil_r", 1)
    wm = wada_matrix(trefoil, trivial_representation(trefoil, 5))
    sk = knot_presentation("SK", 2)
    sl23 = group_from_spec("SL2_3")
    hom = next(iter(enumerate_homs(sk, sl23)))
    wm2 = wada_matrix(sk, representation_from_sl2_hom(sk, hom))
    for built in (wm, wm2):
        # adding the identity to one block shifts that row's telescoping
        # sum by Phi(x_0) - 1, which is never zero
        k = built.rep.images.shape[-1]
        coeffs = built.coeffs.copy()
        coeffs[0, 0, 0, -built.low] += np.eye(k, dtype=coeffs.dtype)
        broken = dataclasses.replace(built, coeffs=coeffs % built.rep.p)
        with pytest.raises(RuntimeError, match="identity failed"):
            _check_chain_rule(broken)

    # root-set conservation: g -> g^n reaches every element exactly once
    targets = SweepConfig.from_file(
        os.path.join(CONFIG_DIR, "standard_suite.json")
    ).targets
    for target in targets:
        group = group_from_spec(target)
        for n in (1, 2, 3):
            total = sum(
                len(nth_roots(group, h, n)) for h in group.elements()
            )
            assert total == group.order, (target, n)

    # shard determinism: merged multi-shard output is byte-identical
    cells = (
        ("SK", 2, "S4"),
        ("GK", 2, "SL2_3"),
        ("trefoil_r", 3, "S5"),
    )
    for knot, n, target in cells:
        pres = knot_presentation(knot, n)
        group = group_from_spec(target)
        single, _ = sharded_search(pres, group, 1)
        for shards in (3, 8):
            merged, _ = sharded_search(pres, group, shards)
            assert merged.tobytes() == single.tobytes(), (knot, n, target, shards)
    print("criterion 10 PASS: words, Fox identity, roots, shard determinism")


def test_out_of_scope_cells_become_skip_records():
    # the degree-24 symmetric group is beyond the enumeration bound by
    # design; such cells must surface as explicit skip records
    records = run_cell("SK", 2, "S24", ("count", "classes", "talex"))
    assert [r.status for r in records] == ["skip"] * 3
    for r in records:
        assert "2500" in r.stats["reason"]
    print("carve-out PASS: oversized cells produce skip records, not results")
