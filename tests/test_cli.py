import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import gnk
from gnk.cli import main
from gnk.fingroups import MAX_WADA_BYTES, group_from_spec
from gnk.harness import ENGINE, ResultRecord, write_records


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_does_not_load_process_pools():
    # a pool starts only with --jobs above 1, so importing it waits till then
    src = os.path.dirname(os.path.dirname(os.path.abspath(gnk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, gnk.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


HEAVY = {"numpy", "gnk.homsearch", "gnk.harness", "gnk.talex"}
LOADED_PROBE = """
import sys
from gnk.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(" ".join(sorted(m for m in sys.modules if m == "numpy" or m.startswith("gnk."))))
"""


@pytest.mark.parametrize(
    "argv, heavy",
    [
        (["present", "--knot", "SK", "--n", "2"], set()),
        (["roots", "--target", "S4", "--element", "(1,2,3)", "--n", "2"], set()),
        (["verify-witness"], set()),
        (["present", "--knot", "figure8", "--n", "2"], set()),
        (["count-homs", "--knot", "SK", "--n", "2", "--target", "S3"],
         {"numpy", "gnk.homsearch"}),
    ],
)
def test_commands_load_only_their_layers(argv, heavy):
    # a fresh process, because this one already holds numpy
    src = os.path.dirname(os.path.dirname(os.path.abspath(gnk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *argv],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.splitlines()[-1].split())
    assert "gnk.cli" in loaded
    assert loaded & HEAVY == heavy


@pytest.mark.parametrize(
    "spec, code, text",
    [
        ("SL2_2305843009213693951", 2, "enumeration bound 2500"),
        ("PSL2_2305843009213693951", 2, "enumeration bound 2500"),
        ("S3000000", 2, "enumeration bound 2500"),
        ("S100000", 2, "enumeration bound 2500"),
        ("A100000", 2, "enumeration bound 2500"),
        ("S3xS200000", 2, "enumeration bound 2500"),
        ("S3xS3000000", 2, "enumeration bound 2500"),
        ("SL2_4951760154835678088235319297", 1, "is not prime"),
    ],
)
def test_oversized_targets_exit_at_once(spec, code, text):
    # p = 2^61 - 1 is prime and (2^31 - 1)(2^61 - 1) is not, past any trial
    # division; k! for k = 10^6 alone takes seconds, and S_k's order from
    # k = 1559 up has more digits than int-to-text conversion allows.  A
    # fresh process, so that the huge groups are not cached in this one
    src = os.path.dirname(os.path.dirname(os.path.abspath(gnk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["count-homs", "--knot", "SK", "--n", "2", "--target", spec]
    done = subprocess.run(
        [sys.executable, "-m", "gnk.cli", *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout) == (code, ""), done.stderr
    assert text in done.stderr and len(done.stderr) < 200, done.stderr


# -- present ----------------------------------------------------------------------


def test_present_text(capsys):
    code, out, _ = run(capsys, "present", "--knot", "sk", "--n", "2")
    assert code == 0
    assert out.startswith("gens: d b e")
    assert out.count("rel:") == 3


def test_present_json_parses(capsys):
    code, out, _ = run(capsys, "present", "--knot", "SK", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["knot"] == "SK" and payload["n"] == 2
    assert len(payload["relators"]) == 3


def test_present_raw_has_more_generators(capsys):
    _, out_red, _ = run(capsys, "present", "--knot", "GK", "--n", "1",
                        "--format", "json")
    _, out_raw, _ = run(capsys, "present", "--knot", "GK", "--n", "1", "--raw",
                        "--format", "json")
    assert len(json.loads(out_raw)["gens"]) > len(json.loads(out_red)["gens"])


def test_present_rejects_nonpositive_n(capsys):
    code, out, err = run(capsys, "present", "--knot", "SK", "--n", "-2")
    assert code == 1 and out == ""
    assert err == "error: twist level n must be >= 1\n"


def test_unknown_knot_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["present", "--knot", "figure8", "--n", "1"])
    assert info.value.code == 1
    assert "unknown knot" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


# -- counting ---------------------------------------------------------------------


def test_count_homs_classical_trefoil(capsys):
    code, out, _ = run(capsys, "count-homs", "--knot", "trefoil_r", "--n", "1",
                       "--target", "S3")
    assert code == 0
    assert out.strip() == "12"


def test_count_homs_sharded_matches_plain(capsys):
    code, plain, _ = run(capsys, "count-homs", "--knot", "SK", "--n", "2",
                         "--target", "SL2_3")
    assert code == 0
    code, sharded, _ = run(capsys, "count-homs", "--knot", "SK", "--n", "2",
                           "--target", "SL2_3", "--shards", "3", "--jobs", "2")
    assert code == 0
    assert plain == sharded == "264\n"


def test_traced_sharded_count_fans_out(tmp_path):
    # the benchmark's entry script wraps hom_image_matrix in its tracer, and
    # the pool then pickles the wrapped function itself
    root = os.path.dirname(os.path.dirname(os.path.abspath(gnk.__file__)))
    repo = os.path.dirname(root)
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=root, BENCH_SPANS_OUT=str(out))
    argv = ["count-homs", "--knot", "SK", "--n", "3", "--target", "PSL2_7",
            "--shards", "4", "--jobs", "2"]
    done = subprocess.run(
        [sys.executable, os.path.join(repo, "bench", "gnk_entry.py"), *argv],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (0, "8232\n"), done.stderr
    assert "spans" in json.loads(out.read_text())


def test_count_homs_single_shard_json(capsys):
    total = 0
    for sid in range(3):
        code, out, _ = run(capsys, "count-homs", "--knot", "SK", "--n", "2",
                           "--target", "S4", "--shards", "3",
                           "--shard-id", str(sid), "--format", "json")
        assert code == 0
        total += json.loads(out)["count"]
    code, out, _ = run(capsys, "count-homs", "--knot", "SK", "--n", "2",
                       "--target", "S4")
    assert total == int(out)
    # the stats have one shape whether all shards run, or one, or no sharding
    keys = []
    for extra in ([], ["--shards", "3"], ["--shards", "3", "--shard-id", "1"]):
        code, out, _ = run(capsys, "count-homs", "--knot", "SK", "--n", "2",
                           "--target", "S4", "--format", "json", *extra)
        assert code == 0
        keys.append(sorted(json.loads(out)["stats"]))
    assert keys == [["homs", "nodes", "prunes", "shards", "wall_time"]] * 3


@pytest.mark.parametrize("shards", ["0", "-2"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_count_homs_rejects_nonpositive_shards(capsys, shards, jobs):
    code, out, err = run(capsys, "count-homs", "--knot", "SK", "--n", "2",
                         "--target", "S3", "--shards", shards, "--jobs", jobs)
    assert code == 1
    assert out == ""
    assert "need shards >= 1" in err


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_count_homs_rejects_nonpositive_jobs(capsys, jobs):
    for shard_id in ([], ["--shard-id", "0"]):
        code, out, err = run(capsys, "count-homs", "--knot", "SK", "--n", "2",
                             "--target", "S3", "--shards", "2", "--jobs", jobs,
                             *shard_id)
        assert code == 1
        assert out == ""
        assert err == "error: need jobs >= 1\n"


def test_count_classes(capsys):
    code, out, _ = run(capsys, "count-classes", "--knot", "SK", "--n", "2",
                       "--target", "S3")
    assert code == 0
    assert out.strip() == "3"


def test_count_homs_oversized_target_skips(capsys):
    code, out, err = run(capsys, "count-homs", "--knot", "SK", "--n", "2",
                         "--target", "S24")
    assert code == 2
    assert out == ""
    assert err.startswith("skip:")


@pytest.mark.parametrize("spec, factor", [("SL2_3x", ""), ("xZ2", ""), ("Z2xQ8", "Q8")])
def test_bad_product_spec_names_spec_and_factor(capsys, spec, factor):
    code, out, err = run(capsys, "count-homs", "--knot", "SK", "--n", "2",
                         "--target", spec)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: bad factor {factor!r} in group spec {spec!r}")


# -- large n ----------------------------------------------------------------------

BASE = "d=(1,2,3); b=(1,2,3); e=(1,2,3)"
LARGE_N_CELLS = {
    "count-homs-S3": ("count-homs", "--knot", "SK", "--target", "S3"),
    "count-homs-SL2_3": ("count-homs", "--knot", "SK", "--target", "SL2_3"),
    "count-classes-A4": ("count-classes", "--knot", "GK", "--target", "A4"),
    "check-t-S4": ("check-t", "--knot", "GK", "--target", "S4"),
    "extend-S4": ("extend", "--knot", "SK", "--target", "S4", "--base", BASE),
}


@pytest.mark.parametrize("n", [1200, 10**6])
@pytest.mark.parametrize("cell", sorted(LARGE_N_CELLS))
def test_large_n_matches_n_mod_group_order(capsys, cell, n):
    # x^n depends only on n mod |H|, so a large n gives the answer at the
    # least positive residue; both 1200 and 10**6 exceed Python's
    # recursion limit
    argv = LARGE_N_CELLS[cell]
    order = group_from_spec(argv[argv.index("--target") + 1]).order
    small = n % order or order
    code, out, err = run(capsys, *argv, "--n", str(n))
    assert code == 0 and "Traceback" not in err, err
    code, want, _ = run(capsys, *argv, "--n", str(small))
    assert code == 0
    assert out.replace(f"({n},", f"({small},") == want


# -- roots and property checks ------------------------------------------------------


def test_roots_output(capsys):
    code, out, _ = run(capsys, "roots", "--target", "S4", "--element", "(1,2,3)",
                       "--n", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == str(len(lines) - 1)
    assert "(1,3,2)" in lines[1:]


@pytest.mark.parametrize("text", ["[[1,", "[[1.5,0],[0,1]]"])
def test_roots_and_extend_reject_bad_matrix_text(capsys, text):
    # unparseable text and non-integer entries are input errors
    code, out, err = run(capsys, "roots", "--target", "SL2_3", "--element",
                         text, "--n", "2")
    assert (code, out) == (1, "")
    assert err == f"error: bad matrix {text!r}\n"
    base = f"d={text}; b=[[1,0],[0,1]]; e=[[1,0],[0,1]]"
    code, out, err = run(capsys, "extend", "--target", "SL2_3", "--n", "2",
                         "--knot", "SK", "--base", base)
    assert (code, out) == (1, "")
    assert err.startswith("error: bad matrix") and "Traceback" not in err


def test_check_t_holds(capsys):
    code, out, _ = run(capsys, "check-t", "--target", "S3", "--n", "2",
                       "--knot", "SK")
    assert code == 0
    assert "property T(2,SK) for S3: holds" in out
    assert "bases:" in out


def test_check_t_json_fields(capsys):
    code, out, _ = run(capsys, "check-t", "--target", "Z6", "--n", "3",
                       "--knot", "GK", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["target"] == "Z6" and payload["knot"] == "GK"


# -- extension --------------------------------------------------------------------


def test_check_t_trefoil_skips(capsys):
    code, out, err = run(capsys, "check-t", "--target", "S3", "--n", "2",
                         "--knot", "trefoil_r")
    assert code == 2 and out == ""
    assert err == "skip: property_t is defined for the composite knots only\n"


def test_check_t_checks_knot_and_n_before_any_table(capsys):
    # S24 is past the enumeration bound, so a table build would skip first
    code, out, err = run(capsys, "check-t", "--target", "S24", "--n", "0",
                         "--knot", "SK")
    assert (code, out, err) == (1, "", "error: twist level n must be >= 1\n")
    code, out, err = run(capsys, "check-t", "--target", "S24", "--n", "2",
                         "--knot", "trefoil_r")
    assert (code, out) == (2, "")
    assert err == "skip: property_t is defined for the composite knots only\n"


def test_extend_reports_candidates(capsys):
    code, out, _ = run(capsys, "extend", "--target", "S4", "--n", "2",
                       "--knot", "SK", "--base",
                       "d=(1,2,3); b=(1,2,3); e=(1,2,3)")
    assert code == 0
    last = out.strip().split("\n")[-1]
    assert last.startswith("valid extensions:")


def test_extend_trefoil_skips(capsys):
    code, out, err = run(capsys, "extend", "--target", "S4", "--n", "2",
                         "--knot", "trefoil_r", "--base",
                         "d=(1,2,3); b=(1,2,3); e=(1,2,3)")
    assert code == 2 and out == ""
    assert err == "skip: property_t is defined for the composite knots only\n"


def test_extend_rejects_non_braid_base(capsys):
    code, _, err = run(capsys, "extend", "--target", "S4", "--n", "2",
                       "--knot", "SK", "--base",
                       "d=(1,2); b=(1,2); e=(3,4)")
    assert code == 1
    assert "braid relations" in err


def test_extend_reads_product_elements(capsys):
    # "(x; y)" holds a semicolon, which used to split the base there
    element = "(0; (1,2,3))"
    base = f"d={element}; b={element}; e={element}"
    code, out, err = run(capsys, "extend", "--target", "Z2xS3", "--n", "2",
                         "--knot", "SK", "--base", base)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "d_hat=(0; (1,3,2)) root=ok braid=ok third=ok valid",
        "d_hat=(1; (1,3,2)) root=ok braid=ok third=ok valid",
        "valid extensions: 2 of 2",
    ]
    code, out, err = run(capsys, "extend", "--target", "Z2xS3", "--n", "2",
                         "--knot", "SK", "--base", base + ";")
    assert (code, out, err) == (1, "", "error: bad base assignment ''\n")


def test_extend_rejects_incomplete_base(capsys):
    code, _, err = run(capsys, "extend", "--target", "S4", "--n", "2",
                       "--knot", "SK", "--base", "d=(1,2)")
    assert code == 1
    assert "must assign" in err


def test_extend_rejects_repeated_assignment(capsys):
    # a second d= used to replace the first without a word
    for base in ("d=(1,4); d=(1,2,3); b=(1,2,3); e=(1,2,3)",
                 "d=(1,2,3); b=(1,2,3); e=(1,2,3); d =(1,2,3)"):
        code, out, err = run(capsys, "extend", "--target", "S4", "--n", "2",
                             "--knot", "SK", "--base", base)
        assert (code, out) == (1, "")
        assert err == "error: base assigns d more than once\n"


def test_empty_cycle_text_is_refused(capsys):
    # empty text used to read as the identity of S4: 10 square roots of it,
    # and 10 valid extensions of the trivial base
    for argv in (
        ("roots", "--target", "S4", "--element", "", "--n", "2"),
        ("extend", "--target", "S4", "--n", "2", "--knot", "SK",
         "--base", "d=; b=; e="),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: bad cycle text ''\n"


# -- witness ----------------------------------------------------------------------


def test_verify_witness_text(capsys):
    code, out, _ = run(capsys, "verify-witness")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0] == "root condition d_hat^2 = D: True"
    assert lines[-1] == "property T(2,SK) counterexample: CONFIRMED"


def test_verify_witness_json(capsys):
    code, out, _ = run(capsys, "verify-witness", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["confirmed"] is True
    assert payload["root_ok"] is True


# -- talex ------------------------------------------------------------------------


def test_talex_digest(capsys):
    code, out, _ = run(capsys, "talex", "--knot", "SK", "--n", "2",
                       "--target", "SL2_3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["homs"] == 264
    assert len(payload["digest"]) == 64


def test_talex_skip_for_permutation_target(capsys):
    code, _, err = run(capsys, "talex", "--knot", "SK", "--n", "2",
                       "--target", "S4")
    assert code == 2
    assert "skip:" in err


def test_talex_skips_past_the_wada_bound(capsys):
    # 1.3 GB of Wada coefficients at n = 100000: refused before allocating
    code, out, err = run(capsys, "talex", "--knot", "SK", "--n", "100000",
                         "--target", "SL2_3")
    assert code == 2 and out == ""
    assert err.startswith("skip: the Wada array would take 1296008640 bytes")
    assert str(MAX_WADA_BYTES) in err and "Traceback" not in err


# -- sweep and report -------------------------------------------------------------


def write_config(tmp_path, **overrides):
    cfg = {
        "knots": ["SK", "GK"],
        "n_values": [1],
        "targets": ["S3"],
        "tasks": ["count", "classes"],
        "output": str(tmp_path / "records.jsonl"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg["output"]


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_rejects_nonpositive_jobs(capsys, tmp_path, jobs):
    config, output = write_config(tmp_path)
    code, out, err = run(capsys, "sweep", "--config", config, "--jobs", jobs)
    assert (code, out) == (1, "")
    assert err == "error: need jobs >= 1\n"
    assert not os.path.exists(output)


GOOD_CONFIG = '"knots": ["SK"], "n_values": [1], "targets": ["S3"], "tasks": ["count"]'


@pytest.mark.parametrize(
    "text",
    [
        "5",
        "null",
        "[]",
        "{}",
        '{"knots": ["SK"], "n_values": 3, "targets": ["S3"], "tasks": ["count"]}',
        '{"knots": ["SK"], "n_values": [2.5], "targets": ["S3"], "tasks": ["count"]}',
        '{"knots": ["SK"], "n_values": [true], "targets": ["S3"], "tasks": ["count"]}',
        '{"knots": ["SK"], "n_values": [1], "targets": [3], "tasks": ["count"]}',
        '{"knots": ["SK"], "n_values": [1], "targets": "S3", "tasks": ["count"]}',
        '{"knots": "SK", "n_values": [1], "targets": ["S3"], "tasks": ["count"]}',
        "{" + GOOD_CONFIG + ', "shards": "2"}',
        "{" + GOOD_CONFIG + ', "shards": 2.0}',
        "{" + GOOD_CONFIG + ', "output": 5}',
    ],
)
def test_sweep_rejects_malformed_config(capsys, tmp_path, text):
    # valid JSON of the wrong shape or type: refused before any cell runs
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "field, values, repeated",
    [
        ("knots", ["SK", "SK"], "'SK'"),
        ("n_values", [1, 2, 1], "1"),
        ("targets", ["S3", "S4", "S4"], "'S4'"),
        ("tasks", ["count", "count"], "'count'"),
        ("targets", ["S3", " S3"], "'S3'"),  # targets are compared stripped
    ],
)
def test_sweep_rejects_repeated_grid_entries(capsys, tmp_path, field, values, repeated):
    # a repeated entry would run and write the same cells more than once
    config, output = write_config(tmp_path, **{field: values})
    code, out, err = run(capsys, "sweep", "--config", config)
    assert (code, out) == (1, "")
    assert err == f"error: {field} repeats {repeated}\n"
    assert not os.path.exists(output)


def test_sweep_then_report_clean(capsys, tmp_path):
    config, records = write_config(tmp_path)
    code, out, _ = run(capsys, "sweep", "--config", config)
    assert code == 0
    assert "records: 4  skips: 0" in out
    code, out, _ = run(capsys, "report", "--records", records)
    assert code == 0
    assert "MISMATCH" not in out
    assert "SK/GK" in out


def test_sweep_with_skips_exits_two(capsys, tmp_path):
    config, records = write_config(tmp_path, knots=["trefoil_r"],
                                   tasks=["count", "property_t"])
    code, out, _ = run(capsys, "sweep", "--config", config)
    assert code == 2
    assert "skips: 1" in out


def test_sweep_unwritable_output_fails_before_any_cell(capsys, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(gnk.harness, "run_cell", lambda *cell: ran.append(cell) or [])
    config, _ = write_config(tmp_path, output=str(tmp_path))
    code, out, err = run(capsys, "sweep", "--config", config)
    assert (code, out, ran) == (1, "", [])
    assert err.startswith("error: [Errno 21] Is a directory")


@pytest.mark.parametrize("command", ["sweep --config", "report --records"])
def test_deeply_nested_json_is_an_error(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    if command.startswith("report"):
        assert err.startswith(f"error: {path}:1: bad record: ")


def test_sweep_output_override(capsys, tmp_path):
    config, _ = write_config(tmp_path)
    other = str(tmp_path / "elsewhere.jsonl")
    code, _, _ = run(capsys, "sweep", "--config", config, "--output", other)
    assert code == 0
    code, out, _ = run(capsys, "report", "--records", other)
    assert code == 0


def test_report_mismatch_exits_three(capsys, tmp_path):
    path = str(tmp_path / "bad.jsonl")
    mk = lambda knot, value: ResultRecord(
        knot=knot, n=2, target="S3", task="count", status="ok", value=value,
        stats={}, timestamp="2024-01-01T00:00:00Z", engine=ENGINE,
    )
    write_records(path, [mk("SK", 6), mk("GK", 7)])
    code, out, _ = run(capsys, "report", "--records", path)
    assert code == 3
    assert "MISMATCH" in out


def test_report_json(capsys, tmp_path):
    config, records = write_config(tmp_path)
    run(capsys, "sweep", "--config", config)
    code, out, _ = run(capsys, "report", "--records", records, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(row["outcome"] == "match" for row in payload["rows"])


def test_report_missing_file_is_error(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--records", str(tmp_path / "nope.jsonl"))
    assert code == 1
    assert err.startswith("error:")


def test_report_truncated_record_names_the_line(capsys, tmp_path):
    config, records = write_config(tmp_path)
    run(capsys, "sweep", "--config", config)
    with open(records, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(records, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]))
    code, _, err = run(capsys, "report", "--records", records)
    assert code == 1
    assert err.startswith("error:")
    assert f"{records}:{len(lines)}:" in err


@pytest.mark.parametrize(
    "field,left,right",
    [("stats", [], []), ("n", 1, "1"), ("n", True, True), ("knot", None, None)],
)
def test_report_mistyped_record_names_the_line(capsys, tmp_path, field, left, right):
    # unchecked, a list stats reaches _pair_outcome's stats.get and a string
    # n compare_report's sort, each with a traceback
    path = str(tmp_path / "typed.jsonl")
    lines = []
    for knot, value in (("SK", left), ("GK", right)):
        record = {
            "knot": knot, "n": 1, "target": "S3", "task": "count", "status": "ok",
            "value": 6, "stats": {}, "timestamp": "t", "engine": ENGINE,
        }
        record[field] = value
        lines.append(json.dumps(record))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    code, _, err = run(capsys, "report", "--records", path)
    assert code == 1
    assert err.startswith("error:")
    assert f"{path}:{1 if left == right else 2}: bad record" in err
    assert "Traceback" not in err


# -- any argument vector ----------------------------------------------------------

KNOT_TEXT = st.sampled_from(["SK", "gk", "trefoil_r", "Trefoil_L"]) | st.sampled_from(
    ["figure8", "", "S K"]
)
TWISTS = st.integers(-5, 12) | st.integers(-5, 10**7)
GROUP_TEXT = (
    st.sampled_from(["S3", "S4", "A4", "D4", "Z5", "Z2xZ4", "SL2_3", "SL2_5", "PSL2_7"])
    | st.sampled_from(["S0", "Z0", "D1", "SL2_4", "SL2_3x", "xZ2", "x", "Z2xxZ3", "Q8",
                       "S9", "PSL2_97", "", " ", "cayley:", "cayley:no/such/file",
                       "S100000", "PSL2_2305843009213693951", "S3xS3000000",
                       "Z2xcayley:no/such/table.txt"])
    | st.text(max_size=8)
)
ELEMENT_TEXT = (
    st.sampled_from(["(1,2)", "(1,2,3)", "(1,2)(3,4)", "()", "[[1,1],[0,1]]",
                     "[[0,1],[2,0]]", "[[0,4],[1,0]]"])
    | st.sampled_from(["(1,2", "(1,9)", "(1,1)", "(0,1)", "[[1,]", "[[1.5,0],[0,1]]",
                       "[[1,1],[1,1]]", "[1,2]", "1", "e", ""])
    | st.text(max_size=10)
)
BASE_TEXT = st.sampled_from([BASE, "d=(1,2); b=(1,2); e=(1,2)"]) | st.builds(
    "; ".join,
    st.lists(
        st.builds("=".join, st.tuples(st.sampled_from(["d", "b", "e", "x", ""]),
                                      ELEMENT_TEXT).map(list)),
        max_size=4,
    ),
) | st.text(max_size=12)
FORMAT = st.sampled_from([[], ["--format", "json"]])


def _maybe_truncated(draw, text):
    if draw(st.booleans()):
        return text
    return text[: draw(st.integers(0, len(text)))]


def _config_text(draw):
    tasks = draw(st.lists(st.sampled_from(["count", "classes", "property_t",
                                           "structured", "talex", "mystery"]),
                          min_size=1, max_size=2))
    config = {
        "knots": draw(st.lists(KNOT_TEXT, min_size=1, max_size=2)),
        "n_values": draw(st.lists(TWISTS, min_size=1, max_size=2)),
        "targets": draw(st.lists(GROUP_TEXT, min_size=1, max_size=2)),
        "tasks": tasks,
    }
    return _maybe_truncated(draw, json.dumps(config))


def _records_text(draw):
    record = ResultRecord(
        knot=draw(KNOT_TEXT), n=draw(TWISTS), target=draw(GROUP_TEXT),
        task=draw(st.sampled_from(["count", "classes", "talex", "?"])),
        status=draw(st.sampled_from(["ok", "skip", "error"])),
        value=draw(st.integers(0, 99)), stats={}, timestamp="t", engine=ENGINE,
    )
    text = record.to_json()
    if draw(st.booleans()):  # one field of another JSON type
        data = json.loads(text)
        data[draw(st.sampled_from(sorted(data)))] = draw(st.sampled_from(
            ["1", [], None, 1.5, True, {}, 2]
        ))
        text = json.dumps(data)
    lines = [text] * draw(st.integers(1, 2))
    return _maybe_truncated(draw, "\n".join(lines))


@st.composite
def argument_vectors(draw, files):
    command = draw(st.sampled_from(
        ["present", "count-homs", "count-classes", "roots", "check-t", "extend",
         "verify-witness", "talex", "sweep", "report"]
    ))
    knot = ["--knot", draw(KNOT_TEXT)]
    n = ["--n", str(draw(TWISTS))]
    target = ["--target", draw(GROUP_TEXT)]
    if command == "present":
        argv = knot + n + draw(st.sampled_from([[], ["--raw"]]))
    elif command == "count-homs":
        shards = draw(st.integers(-1, 4) | st.integers(-1, 10**9))
        argv = knot + n + target + ["--shards", str(shards), "--jobs", "1"]
        if draw(st.booleans()):
            argv += ["--shard-id", str(draw(st.integers(-1, shards)))]
    elif command in ("count-classes", "talex"):
        argv = knot + n + target
    elif command == "roots":
        argv = target + n + ["--element", draw(ELEMENT_TEXT)]
    elif command == "check-t":
        argv = target + n + knot
    elif command == "extend":
        argv = target + n + knot + ["--base", draw(BASE_TEXT)]
    elif command == "verify-witness":
        argv = []
    elif command == "sweep":
        with open(files["config"], "w", encoding="utf-8") as fh:
            fh.write(_config_text(draw))
        argv = ["--config", files["config"], "--output", files["output"], "--jobs", "1"]
    else:
        with open(files["records"], "w", encoding="utf-8") as fh:
            fh.write(_records_text(draw))
        argv = ["--records", files["records"]]
    return [command] + argv + draw(FORMAT)


def test_any_argument_vector_exits_cleanly(tmp_path):
    # every argument vector ends in an exit code 0..3, never in a traceback
    files = {name: str(tmp_path / name) for name in ("config", "output", "records")}

    @settings(max_examples=400, deadline=None, database=None)
    @given(argument_vectors(files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()
