import itertools
import time
import tracemalloc

import numpy as np
import pytest

import gnk.fingroups
from gnk import homsearch
from gnk.fingroups import (
    CapabilityError,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    SymmetricGroup,
    from_cayley_table,
    group_from_spec,
    nth_roots,
    s24_witness_report,
)
from gnk.harness import _count_buckets
from gnk.homsearch import (
    Homomorphism,
    check_property_t,
    class_data,
    compile_plan,
    count_homs,
    enumerate_homs,
    extend_g1_hom,
    fiber_orbits,
    g1_base_fibers,
    hom_image_matrix,
    indexed_tables,
    into_fibers,
    lift_roots,
    orbit_count,
    orbit_partition,
    orbit_representatives,
    sharded_search,
    structured_count,
    row_locator,
)
from gnk.presentations import (
    Presentation,
    g1_braid_presentation,
    knot_presentation,
)
from gnk.talex import _matrix_table
from gnk.words import GeneratorTable, parse_word

from oracle_utils import (
    brute_force_homs,
    burnside_orbit_count,
    cayley_table,
    conjugacy_classes,
    conjugate,
    evaluate,
    format_cayley_table,
    full_base_property_t,
    g1_base_matrix,
    generating_set,
    hom_is_valid,
    naive_index_tables,
    recording_pool,
    relator_multiset,
    scalar_lifts,
    scalar_property_t,
    search_work,
    serialize_hom,
    sk_powered_third_relation,
    union_find_partition,
)

S3 = SymmetricGroup(3)
S4 = SymmetricGroup(4)


def rows_of(mat):
    return [tuple(int(v) for v in row) for row in mat]


# -- plans ---------------------------------------------------------------------


def test_reduced_plan_never_pins():
    steps = compile_plan(knot_presentation("SK", 2))
    assert [s.expr for s in steps] == [None] * 3
    assert sum(len(s.checks) for s in steps) == 3


def test_raw_plan_pins_three_generators():
    steps = compile_plan(knot_presentation("SK", 2, raw=True))
    assert sum(s.expr is None for s in steps) == 3
    assert sum(s.expr is not None for s in steps) == 3
    assert sum(len(s.checks) for s in steps) == 3
    assert sorted(s.gen for s in steps) == list(range(6))


def test_plan_covers_presentations_without_relators():
    t = GeneratorTable(("x", "y"))
    steps = compile_plan(Presentation(t, ()))
    assert [s.expr for s in steps] == [None, None]
    assert [s.checks for s in steps] == [(), ()]


def named(knot, n, raw=False):
    """knot_presentation(knot, n, raw) as a parameter whose id names it."""
    name = f"G_{n}({knot})" + " raw" * raw
    return pytest.param(knot_presentation(knot, n, raw=raw), id=name)


BASE = pytest.param(g1_braid_presentation(), id="base")
PLANNED = [
    named(knot, n, raw)
    for knot in ("SK", "GK", "trefoil_r", "trefoil_l")
    for n in (1, 2, 3, 4)
    for raw in (False, True)
] + [BASE]


@pytest.mark.parametrize("pres", PLANNED)
def test_plan_assigns_each_generator_once_and_places_each_relator(pres):
    """Every nonempty relator is completed at one step: the first after
    which all its generators are assigned.  There it is either checked or
    the relator that pins the step's generator, which occurs in it once with
    exponent +-1; each pin comes from exactly one relator.  A pin's word
    uses only earlier generators, and on every row of the full search into
    S3 it evaluates (scalar oracle) to the pinned image."""
    steps = compile_plan(pres)
    assert sorted(s.gen for s in steps) == list(range(len(pres.gens)))
    assert steps[0].expr is None
    assigned = list(itertools.accumulate(({s.gen} for s in steps), set.union))
    checked = [ri for s in steps for ri in s.checks]
    assert len(checked) == len(set(checked))
    pinned_by = []
    for ri, r in enumerate(pres.relators):
        gens = {g for g, _ in r.syllables}
        if not gens:
            assert ri not in checked
            continue
        j = next(j for j, known in enumerate(assigned) if gens <= known)
        if ri in steps[j].checks:
            continue
        assert ri not in checked
        assert steps[j].expr is not None
        assert [abs(e) for g, e in r.syllables if g == steps[j].gen] == [1]
        pinned_by.append(j)
    pins = [j for j, s in enumerate(steps) if s.expr is not None]
    assert sorted(pinned_by) == pins
    rows, _ = hom_image_matrix(pres, S3)
    assert len(rows)
    els = S3.elements()
    for j in pins:
        step = steps[j]
        assert {g for g, _ in step.expr.syllables} <= assigned[j - 1]
        for row in rows.tolist():
            images = [els[v] for v in row]
            assert evaluate(step.expr, images, S3) == images[step.gen]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("group", [S3, S4], ids=["S3", "S4"])
def test_relator_on_the_first_generator_is_checked_at_step_0(n, group):
    """a^2 on a trefoil group is complete once a is assigned, so the seed
    column is filtered by it before anything else is enumerated."""
    base = knot_presentation("trefoil_r", n)
    square = parse_word("a^2", base.gens)
    pres = Presentation(base.gens, base.relators + (square,), n)
    steps = compile_plan(pres)
    assert steps[0].gen == 0
    assert steps[0].checks == (len(base.relators),)
    want = brute_force_homs(pres, group)
    full, stats = hom_image_matrix(pres, group)
    assert rows_of(full) == want
    els = group.elements()
    squares_one = sum(group.mul(x, x) == group.identity for x in els)
    assert stats.nodes == group.order * (1 + squares_one)  # b per kept seed
    fibers, fiber_stats = hom_image_matrix(pres, group, fibers=True)
    assert fiber_stats.homs == len(want)
    moved = into_fibers(pres, group, full)
    assert len(row_locator(fibers)(moved)) == len(want)
    assert len(fibers) == len(np.unique(moved, axis=0))


def test_plan_cache_respects_relator_order():
    # Reordered presentations share gens, n and the relator multiset, but
    # plan steps hold relator positions, so each ordering needs its own plan.
    pres = knot_presentation("SK", 2, raw=True)
    assert count_homs(pres, S3)[0] == 6
    for order in itertools.permutations(pres.relators):
        moved = Presentation(pres.gens, order, pres.n)
        assert (moved.gens, moved.n) == (pres.gens, pres.n)
        assert relator_multiset(moved.relators) == relator_multiset(pres.relators)
        assert count_homs(moved, S3)[0] == 6


# -- engine vs brute force -------------------------------------------------------


@pytest.mark.parametrize(
    "pres",
    [
        named("trefoil_r", 1),
        named("trefoil_r", 2),
        named("trefoil_l", 3),
        named("SK", 2),
        named("GK", 2),
        BASE,
    ],
)
def test_matrix_matches_brute_force_s3(pres):
    want = brute_force_homs(pres, S3)
    mat, stats = hom_image_matrix(pres, S3)
    assert rows_of(mat) == sorted(want)
    assert stats.homs == len(want)


@pytest.mark.parametrize("fibers", [False, True], ids=["full", "fibers"])
@pytest.mark.parametrize("raw", [False, True], ids=["reduced", "raw"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("knot", ["SK", "GK", "trefoil_r"])
def test_work_counters_match_row_by_row_descent(knot, n, raw, fibers):
    pres = knot_presentation(knot, n, raw=raw)
    for group in (S3, S4, CyclicGroup(4)):
        _, stats = hom_image_matrix(pres, group, fibers=fibers)
        want = search_work(pres, group, fibers=fibers)
        assert (stats.nodes, stats.prunes, stats.homs) == want, group.name


def test_shard_work_counters_match_row_by_row_descent():
    # a^2 prunes the whole seed of the odd shard of Z4 at step 0
    trefoil = knot_presentation("trefoil_r", 2)
    square = Presentation(
        trefoil.gens, trefoil.relators + (parse_word("a^2", trefoil.gens),), 2
    )
    cases = [(knot_presentation("SK", 2, raw=raw), S4) for raw in (False, True)]
    for pres, group in cases + [(square, CyclicGroup(4))]:
        for fibers in (False, True):
            for shard_id in (0, 1):
                _, stats = hom_image_matrix(pres, group, 2, shard_id, fibers)
                want = search_work(pres, group, fibers, 2, shard_id)
                assert (stats.nodes, stats.prunes, stats.homs) == want


def test_raw_presentations_match_brute_force():
    raw = knot_presentation("SK", 2, raw=True)
    z4 = CyclicGroup(4)
    assert rows_of(hom_image_matrix(raw, z4)[0]) == sorted(
        brute_force_homs(raw, z4)
    )
    assert rows_of(hom_image_matrix(raw, S3)[0]) == sorted(
        brute_force_homs(raw, S3)
    )


def test_trefoil_counts_into_s3():
    # 6 diagonal homs plus 6 pairs of distinct transpositions
    count, _ = count_homs(knot_presentation("trefoil_r", 1), S3)
    assert count == 12
    t = GeneratorTable(("x",))
    sq = Presentation(t, (parse_word("x^2", t),))
    assert count_homs(sq, S3)[0] == 4  # identity and three transpositions


def test_free_group_counts():
    t = GeneratorTable(("x", "y"))
    free = Presentation(t, ())
    assert count_homs(free, S3)[0] == 36
    assert count_homs(free, CyclicGroup(4))[0] == 16


def test_raw_equals_reduced_counts():
    for name in ("trefoil_r", "SK", "GK"):
        for n in (1, 2):
            for group in (S3, S4):
                raw, _ = count_homs(knot_presentation(name, n, raw=True), group)
                red, _ = count_homs(knot_presentation(name, n), group)
                assert raw == red, (name, n, group.name)


def test_n1_reduced_equals_braid_homs():
    base, _ = hom_image_matrix(g1_braid_presentation(), S4)
    for knot in ("SK", "GK"):
        mat, _ = hom_image_matrix(knot_presentation(knot, 1), S4)
        assert np.array_equal(mat, base)


def test_matrix_rows_are_valid_homs():
    pres = knot_presentation("SK", 2)
    homs = list(enumerate_homs(pres, S4))
    assert all(hom_is_valid(pres, h) for h in homs)
    assert len(homs) == count_homs(pres, S4)[0]
    text = serialize_hom(pres, homs[0])
    assert text.startswith("d=") and " b=" in text and " e=" in text


def test_shard_merge_is_byte_identical():
    pres = knot_presentation("SK", 2)
    full, _ = hom_image_matrix(pres, S4)
    for shards in (2, 3, 5):
        parts = [
            hom_image_matrix(pres, S4, shards=shards, shard_id=i)[0]
            for i in range(shards)
        ]
        assert sum(len(p) for p in parts) == len(full)
        merged = np.concatenate(parts)
        merged = merged[np.lexsort((merged[:, 2], merged[:, 1], merged[:, 0]))]
        assert np.array_equal(full, merged)
        # shard pieces are disjoint by the image of the first generator
        for i, p in enumerate(parts):
            assert (p[:, 0] % shards == i).all()


def test_shard_validation():
    pres = knot_presentation("SK", 2)
    with pytest.raises(ValueError):
        sharded_search(pres, S3, shards=0)
    with pytest.raises(ValueError):
        sharded_search(pres, S3, 2, shard_id=2)


def test_sharding_applies_to_pinned_first_generator():
    raw = knot_presentation("SK", 2, raw=True)  # generator a gets pinned
    full, _ = hom_image_matrix(raw, S4)
    parts = [
        hom_image_matrix(raw, S4, shards=2, shard_id=i)[0] for i in range(2)
    ]
    merged = np.concatenate(parts)
    order = np.lexsort(tuple(merged[:, c] for c in range(5, -1, -1)))
    assert np.array_equal(full, merged[order])


def test_sharded_search_validates_and_sums():
    pres = knot_presentation("SK", 2)
    for bad in (0, -2):
        with pytest.raises(ValueError, match="shards >= 1"):
            sharded_search(pres, S3, bad)
    sl23 = group_from_spec("SL2_3")
    count, _ = count_homs(pres, sl23)
    single, _ = sharded_search(pres, sl23)
    for jobs in (1, 2):
        matrix, stats = sharded_search(pres, sl23, 3, jobs=jobs)
        assert np.array_equal(matrix, single)
        assert stats["homs"] == count and stats["shards"] == 3


def test_sharded_search_pool_size(monkeypatch):
    # the pool never outnumbers the shards, and jobs must be positive
    sizes = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        recording_pool(sizes))
    pres = knot_presentation("SK", 2)
    count, _ = count_homs(pres, S3)
    for jobs in (2, 64):
        _, stats = sharded_search(pres, S3, 3, jobs=jobs)
        assert stats["homs"] == count
    assert sizes == [2, 3]
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="jobs >= 1"):
            sharded_search(pres, S3, 3, jobs=jobs)
    assert sizes == [2, 3]


def test_shards_past_the_class_count_run_no_search(monkeypatch):
    # S3 has three classes, so of a million shards only three seed anything
    pres = knot_presentation("SK", 2)
    single, want = sharded_search(pres, S3)
    seen = []
    search = homsearch.hom_image_matrix
    monkeypatch.setattr(
        homsearch, "hom_image_matrix", lambda *a: seen.append(a[3]) or search(*a)
    )
    started = time.perf_counter()
    matrix, stats = sharded_search(pres, S3, 10**6)
    assert time.perf_counter() - started < 1
    assert seen == [0, 1, 2]
    assert np.array_equal(matrix, single)
    assert {**stats, "wall_time": 0} == {**want, "shards": 10**6, "wall_time": 0}
    _, past = sharded_search(pres, S3, 10**6, shard_id=10**6 - 1)
    assert (past["homs"], past["nodes"], len(seen)) == (0, 0, 4)


def test_capability_error_propagates():
    with pytest.raises(CapabilityError):
        count_homs(knot_presentation("SK", 2), SymmetricGroup(24))


def test_tables_refuse_orders_whose_products_overflow_int32(monkeypatch):
    # products are mul_flat[a * n + b], so n * n - 1 must stay below 2**31;
    # the refusal comes before the n x n table (8.6 GB here) is allocated
    monkeypatch.setattr(gnk.fingroups, "MAX_ENUMERABLE_ORDER", 50_000)
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="46340"):
            indexed_tables(CyclicGroup(46341))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


@pytest.mark.parametrize("target", ["S4", "PSL2_7"])
def test_block_splitting_keeps_matrix_and_work_counters(target, monkeypatch):
    # a bound below |H| splits one parent's values; 3 |H| + 1 puts three
    # parents in a block.  Neither may change a row or a counter
    group = group_from_spec(target)
    order = len(group.elements())
    cases = [
        (knot_presentation(knot, n), fibers)
        for knot in ("SK", "GK", "trefoil_r")
        for n in (2, 3)
        for fibers in (False, True)
    ]
    want = [hom_image_matrix(pres, group, fibers=fibers) for pres, fibers in cases]
    seen = []

    def spy(word, rows, idx):
        seen.append(len(rows))
        return evaluate_on_columns(word, rows, idx)

    evaluate_on_columns = homsearch._eval_on_columns
    monkeypatch.setattr(homsearch, "_eval_on_columns", spy)
    for block_rows in (5, 3 * order + 1):
        monkeypatch.setattr(homsearch, "BLOCK_ROWS", block_rows)
        for (pres, fibers), (matrix, stats) in zip(cases, want):
            seen.clear()
            got, got_stats = hom_image_matrix(pres, group, fibers=fibers)
            assert np.array_equal(got, matrix)
            assert (got_stats.nodes, got_stats.prunes, got_stats.homs) == (
                stats.nodes,
                stats.prunes,
                stats.homs,
            )
            seeds = len(class_data(group).reps) if fibers else order
            assert max(seen) <= max(block_rows, seeds)


# -- orbits ----------------------------------------------------------------------


def test_trefoil_orbits_in_s3():
    mat, _ = hom_image_matrix(knot_presentation("trefoil_r", 1), S3)
    assert orbit_count(mat, S3) == 4
    reps = orbit_representatives(mat, S3)
    assert len(reps) == 4
    all_rows = rows_of(mat)
    for rep in rows_of(reps):
        assert rep in all_rows
    # representatives are the lex-least members of their orbits
    part = orbit_partition(mat, S3)
    assert isinstance(part, np.ndarray)
    for root in np.unique(part):
        assert np.flatnonzero(part == root).min() == root


def test_orbit_rejects_non_closed_sets():
    mat, _ = hom_image_matrix(knot_presentation("trefoil_r", 1), S3)
    with pytest.raises(ValueError):
        orbit_count(mat[:5], S3)


def test_orbit_counts_match_naive_conjugation():
    pres = knot_presentation("SK", 2)
    mat, _ = hom_image_matrix(pres, S4)
    # naive: orbit of each row under conjugation by every group element
    els = S4.elements()
    rows = {tuple(int(v) for v in r) for r in mat}
    seen = set()
    orbits = 0
    for row in sorted(rows):
        if row in seen:
            continue
        orbits += 1
        images = tuple(els[i] for i in row)
        for g in els:
            conj = tuple(
                S4.index_of(S4.mul(S4.mul(S4.inv(g), x), g)) for x in images
            )
            assert conj in rows
            seen.add(conj)
    assert orbit_count(mat, S4) == orbits


STANDARD_TARGETS = (
    "S3 S4 S5 S6 A4 A5 D4 D5 D6 D7 D8 "
    "SL2_3 SL2_5 PSL2_7 Z2 Z3 Z4 Z5 Z6 Z7 Z2xZ4"
).split()


def _cayley_d5(tmp_path):
    path = tmp_path / "d5.table"
    path.write_text(format_cayley_table(DihedralGroup(5)))
    return group_from_spec(f"cayley:{path}")


TABLE_GROUPS = {
    **{
        spec: lambda _, spec=spec: group_from_spec(spec)
        for spec in STANDARD_TARGETS + ["S1", "Z1", "SL2_2", "Z2xZ2xZ2", "S3xZ2"]
    },
    "D5-table": lambda _: from_cayley_table(
        cayley_table(DihedralGroup(5)), name="D5-table"
    ),
    "S3xZ4": lambda _: DirectProductGroup(SymmetricGroup(3), CyclicGroup(4)),
    "cayley-D5": _cayley_d5,
}


@pytest.mark.parametrize("make", TABLE_GROUPS.values(), ids=TABLE_GROUPS.keys())
def test_index_tables_match_naive_oracle(make, tmp_path):
    # the Cayley-graph walk against entry-by-entry tables and the greedy
    # generating set closed element by element, which share none of its code
    group = make(tmp_path)
    idx = indexed_tables(group)
    mul, inv, ident = naive_index_tables(group)
    assert np.array_equal(idx.mul, mul)
    assert np.array_equal(idx.inv, inv)
    assert idx.ident == ident
    oracle = [group.index_of(g) for g in generating_set(group)]
    assert idx.gens.tolist() == oracle


@pytest.mark.parametrize("target", ["S4", "SL2_3", "A5", "PSL2_7"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("knot", ["SK", "GK"])
def test_orbit_partition_matches_union_find_and_burnside(knot, n, target):
    group = group_from_spec(target)
    mat, _ = hom_image_matrix(knot_presentation(knot, n), group)
    part = orbit_partition(mat, group)
    assert isinstance(part, np.ndarray)
    assert part.tolist() == union_find_partition(mat, group)
    assert len(np.unique(part)) == burnside_orbit_count(mat, group)


@pytest.mark.parametrize(
    "make",
    [lambda _, spec=spec: group_from_spec(spec) for spec in STANDARD_TARGETS]
    + [_cayley_d5, lambda _: DirectProductGroup(SymmetricGroup(3), CyclicGroup(4))],
    ids=STANDARD_TARGETS + ["cayley-D5", "S3xZ4"],
)
def test_class_data_matches_oracle(make, tmp_path):
    group = make(tmp_path)
    data = class_data(group)
    els = group.elements()
    oracle = conjugacy_classes(group)
    assert data.reps.tolist() == [members[0] for members in oracle]
    assert data.sizes.tolist() == [len(members) for members in oracle]
    assert int(data.sizes.sum()) == group.order
    for i, members in enumerate(oracle):
        assert (data.label[list(members)] == i).all()

    def commute(x, y):
        return group.mul(x, y) == group.mul(y, x)

    # bucket i is C_H(c) minus the centre, which conjugates trivially, in
    # ascending element order
    centre = {x for x in els if all(commute(x, y) for y in els)}
    members, starts, counts = data.centralizers
    assert len(starts) == len(counts) == len(data.reps)
    assert counts.sum() == len(members)
    for i, c in enumerate(data.reps.tolist()):
        bucket = members[starts[i] : starts[i] + counts[i]].tolist()
        want = [
            g for g, x in enumerate(els) if x not in centre and commute(x, els[c])
        ]
        assert bucket == want


def _buckets_of(matrix, group):
    """The counting buckets of a full image matrix, entry by entry."""
    els = group.elements()
    abelian = 0
    for row in matrix.tolist():
        images = [els[v] for v in row]
        abelian += all(
            group.mul(x, y) == group.mul(y, x)
            for x, y in itertools.combinations(images, 2)
        )
    return {"all_homs": len(matrix), "nonabelian_image": len(matrix) - abelian}


@pytest.mark.parametrize(
    "target", ["S3", "S4", "S5", "A5", "D4", "Z2xZ4", "SL2_3", "SL2_5", "PSL2_7"]
)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "knot,raw", [("SK", False), ("GK", False), ("trefoil_r", False), ("SK", True)]
)
def test_fibers_match_full_search(knot, raw, n, target):
    """Counts, buckets, classes and orbit sizes from the fibers equal those
    of the full image matrix partitioned under the whole group."""
    group = group_from_spec(target)
    pres = knot_presentation(knot, n, raw=raw)
    full, _ = hom_image_matrix(pres, group)
    full_roots = orbit_partition(full, group)
    full_reps, full_sizes = np.unique(full_roots, return_counts=True)
    want = _buckets_of(full, group)
    for shards in (1, 3):
        fibers, stats = sharded_search(pres, group, shards)
        roots, reps, sizes = fiber_orbits(pres, group, fibers)
        assert stats["homs"] == len(full)
        parts = [
            sharded_search(pres, group, shards, shard_id=s)[1]["homs"]
            for s in range(shards)
        ]
        assert sum(parts) == len(full)
        buckets = _count_buckets(group, fibers[reps], sizes)
        assert buckets == {**want, "class_representatives": len(full_reps)}
        # each fiber orbit lies in one full orbit of the same size, and
        # every full orbit is met exactly once
        hit = full_roots[row_locator(full)(fibers)]
        assert (hit == hit[roots]).all()
        assert sorted(hit[reps].tolist()) == full_reps.tolist()
        assert dict(zip(hit[reps].tolist(), sizes.tolist())) == dict(
            zip(full_reps.tolist(), full_sizes.tolist())
        )


def test_into_fibers_lands_on_class_representatives():
    """Each row comes back conjugated by the least t that takes its first
    free generator's image x to the least element of x's class: the S4
    full search's rows, and the diag(1, r) twins of SL2_p fiber matrices."""
    for target in ("S4", "SL2_3", "SL2_5", "SL2_7"):
        group = group_from_spec(target)
        twin = _matrix_table(group)[2] if target != "S4" else None
        pres = knot_presentation("SK", 2, raw=twin is None)  # first free gen is not 0
        fibers, _ = hom_image_matrix(pres, group, fibers=True)
        rows = hom_image_matrix(pres, group)[0] if twin is None else twin[fibers]
        moved = into_fibers(pres, group, rows)
        gen = compile_plan(pres)[0].gen
        els = group.elements()
        least = {}
        for x in set(rows[:, gen].tolist()):
            conj = [group.index_of(conjugate(group, els[x], t)) for t in els]
            least[x] = els[conj.index(min(conj))]
        want = [
            [group.index_of(conjugate(group, els[v], least[row[gen]])) for v in row]
            for row in rows.tolist()
        ]
        assert moved.tolist() == want, target
        assert len(row_locator(fibers)(moved)) == len(rows)  # every row is found


def test_row_locator_matches_dict_oracle():
    # 6 columns of 12 bits each do not fit one 64-bit key
    rng = np.random.default_rng(7)
    matrix = np.unique(rng.integers(0, 2184, size=(3000, 6)), axis=0)
    matrix = matrix[rng.permutation(len(matrix))].astype(np.int32)
    lookup = {tuple(row): i for i, row in enumerate(matrix.tolist())}
    locate = row_locator(matrix)
    block = matrix[rng.integers(0, len(matrix), size=500)]
    want = [lookup[tuple(row)] for row in block.tolist()]
    assert locate(block).tolist() == want
    missing = np.array([[2183, 0, 0, 0, 0, 1]], dtype=np.int32)
    assert tuple(missing[0].tolist()) not in lookup
    with pytest.raises(ValueError, match="left the homomorphism set"):
        locate(np.vstack([block[:3], missing]))


# -- extensions of base homomorphisms ---------------------------------------------


@pytest.mark.parametrize("knot", ["SK", "GK"])
@pytest.mark.parametrize("n", [2, 3])
def test_extension_bijection(knot, n):
    for group in (S3, S4):
        els = group.elements()
        base = g1_base_matrix(group)
        lifted = set()
        total = 0
        for row in base:
            triple = tuple(els[i] for i in row)
            for cand in extend_g1_hom(group, triple, n, knot):
                assert group.power(cand.d_hat, n) == triple[0]
                if cand.third_ok:
                    total += 1
                    lifted.add(
                        tuple(
                            group.index_of(x)
                            for x in (cand.d_hat, cand.b_hat, cand.e_hat)
                        )
                    )
        mat, _ = hom_image_matrix(knot_presentation(knot, n), group)
        assert total == len(mat)  # every hom arises exactly once
        assert lifted == set(rows_of(mat))


def test_extension_roots_on_product_base():
    # the base that gnk extend reads from product-element text
    group = group_from_spec("Z2xS3")
    D = group.parse_element("(0; (1,2,3))")
    checked = 0
    for knot in ("SK", "GK"):
        for n in (2, 3):
            cands = extend_g1_hom(group, (D, D, D), n, knot)
            assert len(cands) == len(nth_roots(group, D, n))
            for cand in cands:
                assert group.power(cand.d_hat, n) == D
                checked += 1
    assert checked == 4  # two square roots per knot, and no cube root


def test_extension_respects_root_structure():
    els = S4.elements()
    base = g1_base_matrix(S4)
    row = base[-1]
    triple = tuple(els[i] for i in row)
    cands = extend_g1_hom(S4, triple, 2, "SK")
    assert len(cands) == len(nth_roots(S4, triple[0], 2))
    for c in cands:
        assert S4.power(c.d_hat, 2) == triple[0]
        assert S4.power(c.b_hat, 2) == triple[1]  # lifted images keep B
        assert S4.power(c.e_hat, 2) == triple[2]


def test_powered_relation_agrees_with_third_relator():
    lhs, rhs = sk_powered_third_relation(2)
    els = S4.elements()
    checked = valid = 0
    for row in g1_base_matrix(S4):
        triple = tuple(els[i] for i in row)
        for c in extend_g1_hom(S4, triple, 2, "SK"):
            images = [c.d_hat, c.b_hat, c.e_hat]
            powered = evaluate(lhs, images, S4) == evaluate(rhs, images, S4)
            assert powered == c.third_ok
            checked += 1
            valid += c.third_ok
    assert checked > 0 and 0 < valid <= checked


def test_extension_unknown_knot():
    with pytest.raises(KeyError):
        extend_g1_hom(S3, (S3.identity,) * 3, 2, "unknot")


def test_extension_refuses_a_non_braid_base():
    # checked before the roots and the knot: a 4-cycle has no square root
    # in S4, so no candidate would show the fault, and a trefoil would skip
    braid = g1_braid_presentation()
    swap, four, other = (S4.parse_element(x) for x in ("(1,2)", "(1,2,3,4)", "(3,4)"))
    assert nth_roots(S4, four, 2) == ()
    for base in ((swap, swap, other), (four, swap, other)):
        assert any(evaluate(r, base, S4) != S4.identity for r in braid.relators)
        for knot in ("SK", "GK", "trefoil_r"):
            with pytest.raises(ValueError, match="braid relations") as info:
                extend_g1_hom(S4, base, 2, knot)
            assert not isinstance(info.value, CapabilityError)
    with pytest.raises(CapabilityError):  # a braid base still skips the trefoil
        extend_g1_hom(S4, (S4.identity,) * 3, 2, "trefoil_r")


# -- property T and structured counts ----------------------------------------------


def naive_property_t(group, n, knot):
    rows = brute_force_homs(g1_braid_presentation(), group)
    holds, _, _ = scalar_property_t(group, rows, n, knot)
    return holds


def non_braid_rows(group, count, seed):
    """Seeded random (D, B, E) index rows that break a braid relation."""
    rng = np.random.default_rng(seed)
    els = group.elements()
    braid = g1_braid_presentation()
    rows = []
    while len(rows) < count:
        row = rng.integers(0, group.order, size=3)
        images = [els[i] for i in row]
        if any(evaluate(r, images, group) != group.identity for r in braid.relators):
            rows.append(row)
    return np.array(rows, dtype=np.int32)


def kernel_pairs(group, base, n, knot):
    els = group.elements()
    row, lifts, third_ok = lift_roots(group, base, n, knot)
    return [
        (int(r), *(els[i] for i in lift), bool(ok))
        for r, lift, ok in zip(row, lifts, third_ok)
    ]


def oracle_pairs(group, base, n, knot):
    els = group.elements()
    return [
        (r, *lift)
        for r, indices in enumerate(base)
        for lift in scalar_lifts(group, tuple(els[i] for i in indices), n, knot)
    ]


@pytest.mark.parametrize("knot", ["SK", "GK"])
@pytest.mark.parametrize("n", [1, 2, 3, 12])  # 12 = exp(S4): all roots of 1
def test_lift_kernel_matches_scalar_oracle(knot, n):
    for spec in ("S3", "S4", "D4", "Z6", "SL2_3"):
        group = group_from_spec(spec)
        base = g1_base_matrix(group)
        assert kernel_pairs(group, base, n, knot) == oracle_pairs(
            group, base, n, knot
        ), spec
    base = non_braid_rows(S4, 40, seed=n)
    got = kernel_pairs(S4, base, n, knot)
    assert got == oracle_pairs(S4, base, n, knot)
    assert not all(ok for *_, ok in got)  # lifts do fail off the braid rows


def conjugation_closure(group, rows):
    """Every conjugate of every row, lex-sorted and without repeats."""
    idx = indexed_tables(group)
    every = np.arange(group.order)[None, :, None]
    conj = idx.mul[idx.mul[idx.inv[every], rows[:, None, :]], every]
    return np.unique(conj.reshape(-1, rows.shape[1]), axis=0)


def with_orbits_of(group, extra):
    """The lex-sorted full n = 1 base with the conjugation orbits of extra."""
    orbits = conjugation_closure(group, extra)
    return np.unique(np.concatenate([g1_base_matrix(group), orbits]), axis=0)


def fiber_form(group, base):
    """(rows, weights) of a conjugation-closed base, as g1_base_fibers gives
    them: the rows whose first free generator maps to a class
    representative, weighted by that class's size."""
    classes = class_data(group)
    first = base[:, compile_plan(g1_braid_presentation())[0].gen]
    keep = classes.reps[classes.label[first]] == first
    return base[keep], classes.sizes[classes.label[first[keep]]]


def test_property_t_failure_counts_every_pair(monkeypatch):
    extra = non_braid_rows(S4, 12, seed=7)
    base = with_orbits_of(S4, extra)
    fibers = fiber_form(S4, base)
    monkeypatch.setattr("gnk.homsearch.g1_base_fibers", lambda group: fibers)
    report = check_property_t(S4, 2, "SK")
    holds, first_fail, pairs = scalar_property_t(S4, base, 2, "SK")
    assert not report.holds and not holds
    assert (report.counterexample_base, report.counterexample_root) == first_fail
    els = S4.elements()
    root_counts = [len(nth_roots(S4, els[int(d)], 2)) for d in base[:, 0]]
    assert report.pairs == pairs == sum(root_counts)
    assert report.bases == len(base)


def test_property_t_commutants_key_on_the_base_rows(monkeypatch):
    # the same group and knot on another base must not meet stale commutants
    assert check_property_t(S4, 2, "SK").holds
    base = with_orbits_of(S4, non_braid_rows(S4, 12, seed=7))
    fibers = fiber_form(S4, base)
    with monkeypatch.context() as patch:
        patch.setattr("gnk.homsearch.g1_base_fibers", lambda group: fibers)
        report = check_property_t(S4, 2, "SK")
    holds, first_fail, _ = scalar_property_t(S4, base, 2, "SK")
    assert not report.holds and not holds
    assert (report.counterexample_base, report.counterexample_root) == first_fail
    assert check_property_t(S4, 2, "SK").holds


def assert_fibers_match_full_base(group, base, n, knot):
    report = check_property_t(group, n, knot)
    holds, bases, pairs, first_fail = full_base_property_t(group, base, n, knot)
    assert (report.holds, report.bases, report.pairs) == (holds, bases, pairs)
    got = (report.counterexample_base, report.counterexample_root)
    assert got == (first_fail or (None, None))
    assert structured_count(group, n) == pairs
    return holds


@pytest.mark.parametrize("spec", STANDARD_TARGETS)
def test_property_t_on_fibers_matches_full_base(spec):
    group = group_from_spec(spec)
    base = g1_base_matrix(group)
    rows, weights = g1_base_fibers(group)
    want_rows, want_weights = fiber_form(group, base)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(weights, want_weights)
    for n in (1, 2, 3):
        for knot in ("SK", "GK"):
            assert_fibers_match_full_base(group, base, n, knot)


@pytest.mark.parametrize("spec", ["S4", "A5", "SL2_3", "D5"])
def test_property_t_on_fibers_matches_full_base_when_it_fails(spec, monkeypatch):
    group = group_from_spec(spec)
    failing = 0
    for seed in range(8):
        base = with_orbits_of(group, non_braid_rows(group, 3, seed))
        fibers = fiber_form(group, base)
        monkeypatch.setattr("gnk.homsearch.g1_base_fibers", lambda group: fibers)
        for n in (2, 3):
            for knot in ("SK", "GK"):
                failing += not assert_fibers_match_full_base(group, base, n, knot)
    assert failing >= 16


@pytest.mark.parametrize("spec", ["S3", "D4", "Z6"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("knot", ["SK", "GK"])
def test_property_t_matches_naive(spec, n, knot):
    group = group_from_spec(spec)
    report = check_property_t(group, n, knot)
    assert report.holds == naive_property_t(group, n, knot)


def test_property_t_report_counts():
    report = check_property_t(S3, 3, "SK")
    assert report.bases == 30
    assert report.pairs == 30
    assert report.holds and report.counterexample_base is None


def test_structured_count_frozen_example():
    # Z3: base homs force one diagonal image each; doubling is invertible
    assert structured_count(CyclicGroup(3), 2) == 3


def test_structured_count_equals_homs_when_t_holds():
    for spec in ("Z5", "S3", "S4", "D4"):
        group = group_from_spec(spec)
        for n in (2, 3):
            predicted = structured_count(group, n)
            for knot in ("SK", "GK"):
                if check_property_t(group, n, knot).holds:
                    got, _ = count_homs(knot_presentation(knot, n), group)
                    assert predicted == got, (spec, n, knot)


def test_structured_count_naive_cross_check():
    # direct sum over base homs of root counts, no bincount
    group = S3
    n = 2
    base = g1_base_matrix(group)
    els = group.elements()
    want = sum(len(nth_roots(group, els[int(r[0])], n)) for r in base)
    assert structured_count(group, n) == want


# -- the stored degree-24 certificate ----------------------------------------------


def test_witness_report():
    report = s24_witness_report()
    assert report.root_ok
    assert report.braid_bd_ok
    assert report.braid_ed_ok
    assert not report.powered_holds
    assert not report.powered_holds_mirror
    assert report.confirmed
