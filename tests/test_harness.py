import dataclasses
import json
import os

import pytest

import gnk.talex
from gnk import harness
from gnk.harness import (
    CHIRAL_PAIRS,
    ENGINE,
    Report,
    ResultRecord,
    SweepConfig,
    compare_report,
    read_records,
    run_cell,
    run_sweep,
    sort_records,
    write_records,
)

from gnk.fingroups import CapabilityError, group_from_spec
from gnk.homsearch import Homomorphism, enumerate_homs
from gnk.presentations import knot_presentation
from gnk.talex import representation_from_sl2_hom, twisted_alexander

from oracle_utils import per_hom_talex, recording_pool, union_find_partition


def make_record(knot="SK", n=2, target="S3", task="count", status="ok",
                value=6, stats=None, timestamp="2024-01-01T00:00:00Z"):
    return ResultRecord(
        knot=knot, n=n, target=target, task=task, status=status,
        value=value, stats=stats or {}, timestamp=timestamp, engine=ENGINE,
    )


# -- config ---------------------------------------------------------------------


def test_config_roundtrip():
    cfg = SweepConfig(("SK", "GK"), (1, 2), ("S3",), ("count",), "out.jsonl")
    again = SweepConfig.from_json(json.dumps(dataclasses.asdict(cfg)))
    assert again == cfg


def test_config_validation():
    with pytest.raises(ValueError, match="knots"):
        SweepConfig(("figure8",), (1,), ("S3",), ("count",))
    with pytest.raises(ValueError, match="n_values"):
        SweepConfig(("SK",), (0,), ("S3",), ("count",))
    with pytest.raises(ValueError, match="n_values"):
        SweepConfig(("SK",), (), ("S3",), ("count",))
    with pytest.raises(ValueError, match="targets"):
        SweepConfig(("SK",), (1,), (), ("count",))
    with pytest.raises(ValueError, match="tasks"):
        SweepConfig(("SK",), (1,), ("S3",), ("frobnicate",))
    with pytest.raises(ValueError, match="unknown config fields"):
        SweepConfig.from_json('{"knots": ["SK"], "budget": 7}')
    # a sweep has no shards field: a cell's search runs in one process
    with pytest.raises(ValueError, match=r"unknown config fields: \['shards'\]"):
        SweepConfig.from_json(
            '{"knots": ["SK"], "n_values": [1], "targets": ["S3"], '
            '"tasks": ["count"], "shards": 1}'
        )


def test_shipped_configs_parse():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("standard_suite.json", "psl27_talex.json"):
        cfg = SweepConfig.from_file(os.path.join(here, "configs", name))
        assert "SK" in cfg.knots and "GK" in cfg.knots
    suite = SweepConfig.from_file(
        os.path.join(here, "configs", "standard_suite.json")
    )
    assert len(suite.targets) == 21
    assert suite.n_values == (1, 2, 3)


# -- records --------------------------------------------------------------------


def test_record_json_roundtrip():
    rec = make_record(stats={"nodes": 3, "buckets": {"all_homs": 6}})
    again = ResultRecord.from_json(rec.to_json())
    assert again == rec


def test_record_to_json_matches_asdict():
    # to_json reuses one encoder; it must write what json.dumps writes
    nested = {
        "nodes": 3,
        "wall_time": 0.125,
        "buckets": {"all_homs": 6, "nonabelian_image": 0, "z": {"b": [1, None]}},
        "counterexample_base": ["(1,2)", "()", "(1,2,3)"],
        "reason": "order above 2500 \u2014 too big",
    }
    records = [
        make_record(stats=nested),
        make_record(task="talex", value="ab" * 32, stats={"homs": 6, "distinct": 2}),
        make_record(status="skip", value=None, stats={"reason": "too big"}),
        make_record(task="property_t", value=False, stats={}),
    ]
    records += run_cell("SK", 2, "SL2_3", ("count", "classes", "property_t", "talex"))
    for rec in records:
        assert rec.to_json() == json.dumps(dataclasses.asdict(rec), sort_keys=True)
        assert rec.to_json() == json.dumps(vars(rec), sort_keys=True)


def test_cell_records_share_one_timestamp():
    records = run_cell("SK", 2, "S4", ("count", "classes", "property_t", "structured"))
    assert len({rec.timestamp for rec in records}) == 1


def test_write_read_append(tmp_path):
    path = str(tmp_path / "deep" / "dir" / "records.jsonl")
    first = [make_record(), make_record(task="classes", value=3)]
    write_records(path, first)
    write_records(path, [make_record(n=3, value=30)])
    got = read_records(path)
    assert got == first + [make_record(n=3, value=30)]


def test_sort_records_canonical():
    a = make_record(target="S4", n=1)
    b = make_record(target="S3", n=2)
    c = make_record(target="S3", n=1, knot="GK")
    d = make_record(target="S3", n=1, knot="SK")
    assert sort_records([a, b, c, d]) == [c, d, b, a]
    # the key alone orders records: a later timestamp decides nothing
    first = make_record(timestamp="2024-01-02T00:00:00Z")
    second = make_record(timestamp="2024-01-01T00:00:00Z")
    assert sort_records([first, second]) == [first, second]


# -- cells ----------------------------------------------------------------------


def test_cell_count_stats_and_buckets():
    (rec,) = run_cell("SK", 2, "S3", ("count",))
    assert rec.status == "ok" and rec.value == 6
    assert rec.stats["buckets"] == {
        "all_homs": 6,
        "nonabelian_image": 0,
        "class_representatives": 3,
    }
    assert rec.engine == ENGINE
    json.loads(rec.to_json())  # every field serializes


def test_cell_cartesian_example():
    cfg = SweepConfig(("SK", "GK"), (1, 2), ("S3", "S4"), ("count",))
    records = [
        rec
        for target in cfg.targets
        for n in cfg.n_values
        for knot in cfg.knots
        for rec in run_cell(knot, n, target, cfg.tasks)
    ]
    assert len(records) == 8


def test_cell_all_tasks_agree_with_library():
    from gnk.fingroups import SymmetricGroup
    from gnk.homsearch import check_property_t, structured_count

    group = SymmetricGroup(4)
    recs = {
        r.task: r
        for r in run_cell("GK", 2, "S4", ("count", "classes", "property_t", "structured"))
    }
    assert recs["count"].value == 144
    assert recs["classes"].value == recs["count"].stats["buckets"]["class_representatives"]
    assert recs["property_t"].value == check_property_t(group, 2, "GK").holds
    assert recs["structured"].value == structured_count(group, 2)


def test_cell_capability_skip_record():
    (rec,) = run_cell("SK", 2, "S24", ("count",))
    assert rec.status == "skip" and rec.value is None
    assert "2500" in rec.stats["reason"]


def test_cell_extension_tasks_skip_on_trefoils():
    records = run_cell("trefoil_r", 2, "S3", ("count", "property_t", "structured", "talex"))
    by_task = {r.task: r for r in records}
    assert by_task["count"].status == "ok"
    for task in ("property_t", "structured", "talex"):
        assert by_task[task].status == "skip"
        assert "composite" in by_task[task].stats["reason"]


def test_cell_talex_skip_without_matrix_route():
    (rec,) = run_cell("SK", 2, "S4", ("talex",))
    assert rec.status == "skip"
    assert "representation route" in rec.stats["reason"]
    # the matrix table is cached per group, but a refusal is not cached: it
    # raises again on the next call
    for spec in ("S4", "PSL2_11"):
        group = group_from_spec(spec)
        for _ in range(2):
            with pytest.raises(CapabilityError, match="route"):
                gnk.talex._matrix_table(group)


def test_cell_talex_skip_past_the_wada_bound():
    (rec,) = run_cell("GK", 400, "SL2_3", ("talex",))
    assert rec.status == "skip" and rec.value is None
    assert rec.stats["reason"] == (
        "the Wada array would take 8648640 bytes, past the bound of 8388608 "
        "(MAX_WADA_BYTES)"
    )


def test_cell_talex_digest_stable():
    a, = run_cell("SK", 2, "SL2_3", ("talex",))
    b, = run_cell("SK", 2, "SL2_3", ("talex",))
    assert a.status == "ok"
    assert len(a.value) == 64 and a.value == b.value
    assert a.stats["homs"] == 264


@pytest.mark.parametrize(
    "knot,n,target",
    [(knot, n, "SL2_3") for knot in ("SK", "GK") for n in (1, 2, 3)]
    + [("SK", 3, "SL2_5")],
)
def test_cell_talex_matches_per_hom_oracle(knot, n, target, monkeypatch):
    evaluated = []
    real = gnk.talex.cell_lines

    def spy(*args):
        out = real(*args)
        evaluated.append(out)
        return out

    monkeypatch.setattr(harness, "cell_lines", spy)  # the harness's binding
    classes, talex = run_cell(knot, n, target, ("classes", "talex"))
    digest, homs, distinct = per_hom_talex(knot, n, target)
    assert talex.value == digest
    assert talex.stats == {"homs": homs, "distinct": distinct}
    (weighted,) = evaluated
    assert len(weighted) == classes.value  # one evaluation per orbit
    assert sum(size for _, size in weighted) == homs


# talex (digest, homs, distinct) off the benchmark grid, whose talex cells are
# all SL2_3: p = 2 and larger p and k, pinned before the batched Wada kernel,
# and two large-n cells (long relators, high-degree entries) pinned before the
# Euclid-only echelon
TALEX_PINS = {
    ("SK", 50, "SL2_3"): (
        "a1e44beac0aa368a180d51d1c28161baf03f7fa7d0223bea99636467c57ef04f",
        264,
        7,
    ),
    ("SK", 10, "PSL2_7"): (
        "6cdfbbe7b48b68f09d92ea49a1a04bed5ff939fc88a944ece8549b5dcefe3cf1",
        9240,
        14,
    ),
    ("SK", 1, "SL2_2"): (
        "e1c021de103f8adaca53b340004b424a364429fbdc8396ebe74799774185e321",
        30,
        4,
    ),
    ("SK", 1, "SL2_5"): (
        "7c5e28c18811f020a2c3e167e84cf5893de5a2b296c05f7f4c37f4fbba6ae261",
        4440,
        15,
    ),
    ("SK", 1, "SL2_7"): (
        "5dfa4b88ac31e16f910e5c04f5a33445d26d0b3c01af94bf4ae21c331ef0e5e0",
        21840,
        21,
    ),
    ("SK", 1, "PSL2_7"): (
        "e8e3a772f2e6512a0300023e7c62e16ef1f5000f7f5e3050eaffbc56d4fcb0cf",
        10920,
        10,
    ),
    ("SK", 2, "SL2_2"): (
        "1ce0f1898f2186bfcb89e09efe9b54a03be1e3eb4443b1b4ee4f55728b925691",
        6,
        2,
    ),
    ("SK", 2, "SL2_5"): (
        "3b3aade2ba108b9c1a9e5b9adc72999cd9dc8207bc13631a0ab2480763d35f1a",
        3720,
        13,
    ),
    ("SK", 2, "SL2_7"): (
        "0da54f815edce8976d424abd69139506d16e3bbe5f973c8d24486418092893e6",
        18480,
        19,
    ),
    ("SK", 2, "PSL2_7"): (
        "952778835c6ff902d9a88c5f42a08ec67f97498d5cbf3d1c310e3a6248d54c55",
        9240,
        13,
    ),
    ("SK", 3, "SL2_2"): (
        "9f9b62ccb6b72d582accbd19b72693081c9a88f4a41ccc076089bb05cbcc564c",
        30,
        4,
    ),
    ("SK", 3, "SL2_5"): (
        "0f9be8558847f7b5e2efc5204e6d4653379b47fea16bc947d27e21fb7477602c",
        2520,
        11,
    ),
    ("SK", 3, "SL2_7"): (
        "47215e562c30c5034fbf59d0ca35d79b033df2d31feeb073d189ac2f96958e92",
        16464,
        17,
    ),
    ("SK", 3, "PSL2_7"): (
        "d7d68bb842c8bdce670a752f788c469bcd9223ce6580f8d6f334e80efbcccdca",
        8232,
        12,
    ),
    ("GK", 1, "SL2_2"): (
        "e1c021de103f8adaca53b340004b424a364429fbdc8396ebe74799774185e321",
        30,
        4,
    ),
    ("GK", 1, "SL2_5"): (
        "7c5e28c18811f020a2c3e167e84cf5893de5a2b296c05f7f4c37f4fbba6ae261",
        4440,
        15,
    ),
    ("GK", 1, "SL2_7"): (
        "5dfa4b88ac31e16f910e5c04f5a33445d26d0b3c01af94bf4ae21c331ef0e5e0",
        21840,
        21,
    ),
    ("GK", 1, "PSL2_7"): (
        "e8e3a772f2e6512a0300023e7c62e16ef1f5000f7f5e3050eaffbc56d4fcb0cf",
        10920,
        10,
    ),
    ("GK", 2, "SL2_2"): (
        "1ce0f1898f2186bfcb89e09efe9b54a03be1e3eb4443b1b4ee4f55728b925691",
        6,
        2,
    ),
    ("GK", 2, "SL2_5"): (
        "3b3aade2ba108b9c1a9e5b9adc72999cd9dc8207bc13631a0ab2480763d35f1a",
        3720,
        13,
    ),
    ("GK", 2, "SL2_7"): (
        "0da54f815edce8976d424abd69139506d16e3bbe5f973c8d24486418092893e6",
        18480,
        19,
    ),
    ("GK", 2, "PSL2_7"): (
        "952778835c6ff902d9a88c5f42a08ec67f97498d5cbf3d1c310e3a6248d54c55",
        9240,
        13,
    ),
    ("GK", 3, "SL2_2"): (
        "9f9b62ccb6b72d582accbd19b72693081c9a88f4a41ccc076089bb05cbcc564c",
        30,
        4,
    ),
    ("GK", 3, "SL2_5"): (
        "0f9be8558847f7b5e2efc5204e6d4653379b47fea16bc947d27e21fb7477602c",
        2520,
        11,
    ),
    ("GK", 3, "SL2_7"): (
        "47215e562c30c5034fbf59d0ca35d79b033df2d31feeb073d189ac2f96958e92",
        16464,
        17,
    ),
    ("GK", 3, "PSL2_7"): (
        "d7d68bb842c8bdce670a752f788c469bcd9223ce6580f8d6f334e80efbcccdca",
        8232,
        12,
    ),
}


@pytest.mark.parametrize("knot,n,target", sorted(TALEX_PINS))
def test_talex_pins_off_the_benchmark_grid(knot, n, target):
    (rec,) = run_cell(knot, n, target, ("talex",))
    digest, homs, distinct = TALEX_PINS[knot, n, target]
    assert rec.status == "ok" and rec.value == digest
    assert rec.stats == {"homs": homs, "distinct": distinct}

# GL_2(F_p) classes of homomorphisms: inner orbits merged with their twins
GL_CLASSES = {("SL2_3", 1): 15, ("SL2_3", 2): 15, ("SL2_3", 3): 5, ("SL2_5", 3): 27}


@pytest.mark.parametrize(
    "knot,n,target",
    [(knot, n, "SL2_3") for knot in ("SK", "GK") for n in (1, 2, 3)]
    + [("SK", 3, "SL2_5"), ("SK", 2, "PSL2_7")],
)
def test_talex_evaluates_once_per_gl_class(knot, n, target, monkeypatch):
    batches = []
    real = gnk.talex.twisted_alexanders

    def spy(pres, rep):
        batches.append(len(rep.images))
        return real(pres, rep)

    monkeypatch.setattr(gnk.talex, "twisted_alexanders", spy)
    classes, _ = run_cell(knot, n, target, ("classes", "talex"))
    (evaluated,) = batches  # one batch per cell
    if target == "PSL2_7":
        # its outer automorphism dualizes the representation: no merging
        assert evaluated == classes.value
        return
    assert evaluated == GL_CLASSES[target, n]

    # independently: conjugate each inner orbit's least row by diag(1, r)
    # for the largest non-residue r, compare the two lines, count classes
    group = group_from_spec(target)
    pres = knot_presentation(knot, n)
    p, els = group.p, group.elements()
    r = max(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    rows = [hom.image_indices for hom in enumerate_homs(pres, group)]
    lookup = {row: i for i, row in enumerate(rows)}
    roots = union_find_partition(rows, group)
    twin_of = {}
    for i in sorted(set(roots)):
        twin = tuple(
            group.index_of((a, b * pow(r, -1, p) % p, c * r % p, d))
            for a, b, c, d in (els[v] for v in rows[i])
        )
        lines = [
            twisted_alexander(
                pres, representation_from_sl2_hom(pres, Homomorphism(group, row))
            ).line()
            for row in (rows[i], twin)
        ]
        assert lines[0] == lines[1]
        twin_of[i] = roots[lookup[twin]]
    # diag(1, r^2) acts as an inner automorphism, so twins come in pairs
    assert all(twin_of[twin_of[i]] == i for i in twin_of)
    assert len({frozenset((i, j)) for i, j in twin_of.items()}) == evaluated
    assert len(twin_of) == classes.value


def test_cell_rejects_unknown_task():
    with pytest.raises(ValueError, match="tasks"):
        SweepConfig(("SK",), (1,), ("S3",), ("count", "mystery"))


# -- sweeps ---------------------------------------------------------------------


def test_sweep_values_independent_of_shards_and_jobs(tmp_path):
    base = dict(knots=("SK", "GK"), n_values=(1, 2), targets=("S3", "S4"),
                tasks=("count", "classes"))
    cfg1 = SweepConfig(**base, output=str(tmp_path / "one.jsonl"))
    cfg2 = SweepConfig(**base, output=str(tmp_path / "two.jsonl"))
    recs1 = run_sweep(cfg1)
    recs2 = run_sweep(cfg2, jobs=2)
    strip = lambda rs: [(r.key(), r.status, r.value) for r in rs]
    assert strip(recs1) == strip(recs2)
    assert len(recs1) == 16


def test_sweep_pool_size(tmp_path, monkeypatch):
    # the pool never outnumbers the cells, one cell runs in this process,
    # and jobs must be positive
    sizes = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        recording_pool(sizes))
    cfg = SweepConfig(("SK", "GK"), (2,), ("S3",), ("count",),
                      output=str(tmp_path / "r.jsonl"))
    for jobs in (2, 64):
        assert [r.value for r in run_sweep(cfg, jobs=jobs)] == [6, 6]
    assert sizes == [2, 2]
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="jobs >= 1"):
            run_sweep(cfg, jobs=jobs)
    one_cell = SweepConfig(("SK",), (2,), ("S3",), ("count",),
                           output=str(tmp_path / "one.jsonl"))
    assert [r.value for r in run_sweep(one_cell, jobs=2)] == [6]
    assert sizes == [2, 2]


def test_sweep_appends_and_rerun_matches(tmp_path):
    cfg = SweepConfig(("SK",), (2,), ("S3",), ("count",),
                      output=str(tmp_path / "r.jsonl"))
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    on_disk = read_records(cfg.output)
    assert len(on_disk) == 2
    assert on_disk[0].value == on_disk[1].value == first[0].value == second[0].value


def test_repeated_sweeps_in_one_process_agree(tmp_path):
    # the second sweep finds every group, table and presentation cached
    cfg = SweepConfig(("SK", "GK", "trefoil_r"), (1, 2, 3), ("S4", "SL2_3"),
                      ("count", "classes", "property_t", "structured", "talex"),
                      output=str(tmp_path / "r.jsonl"))
    run_sweep(cfg)
    run_sweep(cfg)
    on_disk = read_records(cfg.output)
    half = len(on_disk) // 2
    assert half == 90

    def outcome(rec):
        stats = {k: v for k, v in rec.stats.items() if k != "wall_time"}
        return rec.key(), rec.status, rec.value, stats

    assert [outcome(r) for r in on_disk[:half]] == [
        outcome(r) for r in on_disk[half:]
    ]


def test_sweep_unconstructible_target_fails_before_writing(tmp_path):
    cfg = SweepConfig(("SK",), (1,), ("S3", "Q8"), ("count",),
                      output=str(tmp_path / "r.jsonl"))
    with pytest.raises(ValueError):
        run_sweep(cfg)
    assert not os.path.exists(cfg.output)


# -- reports --------------------------------------------------------------------


def test_report_empty():
    report = compare_report([])
    assert report.rows == () and report.exit_code() == 0


def test_report_matching_pair():
    recs = [make_record(knot="SK"), make_record(knot="GK")]
    report = compare_report(recs)
    assert [r.outcome for r in report.rows] == ["match"]
    assert report.exit_code() == 0


def test_report_synthetic_mismatch():
    recs = [make_record(knot="SK", value=6), make_record(knot="GK", value=7)]
    report = compare_report(recs)
    assert report.rows[0].outcome == "MISMATCH"
    assert report.exit_code() == 3
    assert "MISMATCH" in report.text_table()


def test_report_bucket_mismatch_is_flagged():
    good = {"buckets": {"all_homs": 6, "nonabelian_image": 0}}
    bad = {"buckets": {"all_homs": 6, "nonabelian_image": 2}}
    recs = [
        make_record(knot="SK", stats=good),
        make_record(knot="GK", stats=bad),
    ]
    assert compare_report(recs).rows[0].outcome == "MISMATCH"


def test_report_incomplete_and_skip_rows():
    recs = [
        make_record(knot="SK", target="S5"),
        make_record(knot="SK", target="S3", status="skip", value=None,
                    stats={"reason": "too big"}),
        make_record(knot="GK", target="S3", status="skip", value=None,
                    stats={"reason": "too big"}),
    ]
    report = compare_report(recs)
    outcomes = {(r.target, r.outcome) for r in report.rows}
    assert ("S5", "incomplete") in outcomes
    assert ("S3", "skip") in outcomes
    assert report.exit_code() == 2  # skips present, no mismatch


def test_report_last_record_wins():
    stale = make_record(knot="GK", value=99, timestamp="2024-01-01T00:00:00Z")
    fresh = make_record(knot="GK", value=6, timestamp="2024-01-02T00:00:00Z")
    recs = [make_record(knot="SK"), stale, fresh]
    report = compare_report(recs)
    assert report.rows[0].outcome == "match"


def test_report_covers_trefoil_pair():
    recs = [
        make_record(knot="trefoil_r", value=12, n=1),
        make_record(knot="trefoil_l", value=12, n=1),
    ]
    report = compare_report(recs)
    assert report.rows[0].pair == "trefoil_r/trefoil_l"
    assert report.rows[0].outcome == "match"
    assert CHIRAL_PAIRS == (("SK", "GK"), ("trefoil_r", "trefoil_l"))
