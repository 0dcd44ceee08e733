"""Smoke test of the benchmark itself, on tiny grids and cli rounds.

    python3 -m pytest bench/test_smoke.py

It runs the real measuring code (fresh worker processes, the tracer, the
checks against expected.json) with one untraced and one traced unit per
workload.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

TINY_GRIDS = {
    "suite": dict(workloads.GRIDS["suite"], n_values=[2], targets=["S3", "D5"]),
    "talex": dict(workloads.GRIDS["talex"], n_values=[3]),
}
TINY_CALLS = {
    cid: (workloads.CLI_CALLS[cid][0], 1) for cid in ("present", "count-small", "talex")
}


def tiny_measure(workload: str, seed: int, trace: bool, pins=None) -> dict:
    bench = run.Run(ROOT, workload, seed, grid=TINY_GRIDS.get(workload), calls=TINY_CALLS)
    if pins is not None:
        bench.pins = pins
    try:
        return run.measure(bench, 0, trace)
    finally:
        bench.close()


@pytest.fixture(scope="module")
def traced():
    return {
        (w, seed): tiny_measure(w, seed, True)
        for w in run.WORKLOADS
        for seed in (1, 2)
    }


def test_benchmark_json_matches_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_present_and_outputs_are_correct(traced, workload):
    result = traced[(workload, 1)]
    assert result["failures"] == []
    assert list(result["end_to_end"]) == list(run.END_TO_END)
    assert list(result["per_layer"]) == list(run.PER_LAYER)
    assert all(v > 0 for v in result["end_to_end"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_work_counters_repeat_across_seeds(traced, workload):
    first, second = traced[(workload, 1)], traced[(workload, 2)]
    for metric in run.COUNTER_METRICS:
        assert first["per_layer"][metric] == second["per_layer"][metric], metric
    assert first["per_layer"]["homsearch.nodes"] > 0


def test_unit_medians_take_each_operation_and_the_rest_at_their_median():
    units = [
        {"wall_s": 1.0, "latencies": [("a", 0.5), ("b", 0.2), ("a", 0.1)]},
        {"wall_s": 0.7, "latencies": [("b", 0.1), ("a", 0.3), ("a", 0.2)]},
        {"wall_s": 0.9, "latencies": [("a", 0.3), ("b", 0.3), ("a", 0.1)]},
    ]
    wall, ops = run.unit_medians(units)
    assert ops == pytest.approx([0.25, 0.2, 0.25])
    assert wall == pytest.approx(0.7 + 0.2)


def test_corrupted_pins_fail():
    pins = copy.deepcopy(workloads.load_pins())
    pins["records"]["SK/2/S3/count"][1] += 1
    pins["cli"]["count-small"]["stdout"] = "13\n"
    for workload in ("suite", "cli"):
        result = tiny_measure(workload, 1, False, pins)
        assert len(result["failures"]) / result["attempted"] > 0, workload
