"""Every output pinned in bench/expected.json, reproduced in this process:
each sweep record through harness.run_cell and each cli call through
cli.main, compared by the benchmark's own checks."""

import json

from gnk.cli import main
from gnk.harness import run_cell

from oracle_utils import bench_module


def test_every_record_pin_reproduces():
    workloads = bench_module("workloads")
    pins = workloads.load_pins()["records"]
    cells = {}
    for key in pins:
        knot, n, target, task = key.split("/")
        cells.setdefault((knot, int(n), target), []).append(task)
    got = {}
    for (knot, n, target), tasks in cells.items():
        for rec in run_cell(knot, n, target, tuple(tasks)):
            rec = json.loads(rec.to_json())
            got[workloads.record_key(rec)] = workloads.record_outcome(rec)
    assert got == pins


def test_every_cli_pin_reproduces(capsys):
    workloads = bench_module("workloads")
    pins = workloads.load_pins()
    assert set(pins["cli"]) == set(workloads.CLI_CALLS)
    for call_id, call in pins["cli"].items():
        code = main(list(call["argv"]))
        out = capsys.readouterr().out
        assert workloads.check_cli(call_id, out, code, pins) == []
