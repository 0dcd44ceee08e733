"""Workload definitions and output checks shared by the benchmark's scripts.

A workload is fixed work: the seed only permutes the order in which it is
done, so the correct outputs (pinned in expected.json) are the same for every
seed.  Times in the comments were measured on a 2-vCPU Intel Xeon VM with
Python 3.11.7 and numpy 2.4.6.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "expected.json")

# The standard suite's targets minus S6.  A whole standard-suite sweep takes
# 40-60 s, S6 about 32 s of it, and a run measures 40 s; this grid at
# n = 2, 3 takes 5-8 s in a fresh process, so a run holds four to eight
# passes.  PSL2_7, SL2_5, A5 and S5 still exercise the per-cell table
# rebuilds and the property T row loop.  n = 1 would add about 4 s a pass.
SUITE_TARGETS = (
    "S3", "S4", "S5",
    "A4", "A5",
    "D4", "D5", "D6", "D7", "D8",
    "SL2_3", "SL2_5", "PSL2_7",
    "Z2", "Z3", "Z4", "Z5", "Z6", "Z7",
    "Z2xZ4",
)

# Sweep grids, in the shape of harness.SweepConfig.  SL2_5 is left out of
# talex: its two n=2 cells take about 39 s.  A talex pass takes 3-6 s.
GRIDS = {
    "suite": {
        "knots": ["trefoil_r", "trefoil_l", "SK", "GK"],
        "n_values": [2, 3],
        "targets": list(SUITE_TARGETS),
        "tasks": ["count", "classes", "property_t", "structured"],
    },
    "talex": {
        "knots": ["SK", "GK"],
        "n_values": [1, 2, 3],
        "targets": ["SL2_3"],
        "tasks": ["count", "classes", "talex"],
    },
}

_BASE = "d=(1,2,3); b=(1,2,3); e=(1,2,3)"

# One round of the cli workload: call id -> (gnk argv, copies per round).
# A round is 15 calls.  Run alone, check-t on PSL2_7 takes about 1.2 s, the
# sharded count 0.6 s and every other call about 0.4 s, mostly imports.  One
# client runs the calls one at a time: with two at once on two cores the
# run-to-run spread of every cli metric was two to three times wider.  A
# round takes 4-7 s, so a 40 s run holds five to seven.  talex runs at n=3
# (24 homs): at n=2 (264 homs) it takes 2 s and a run would hold fewer rounds.
CLI_CALLS = {
    "present": (["present", "--knot", "sk", "--n", "2"], 2),
    "count-small": (["count-homs", "--knot", "trefoil_r", "--n", "1", "--target", "S3"], 2),
    "count-sl23": (["count-homs", "--knot", "GK", "--n", "2", "--target", "SL2_3"], 1),
    "classes-raw": (["count-classes", "--knot", "SK", "--n", "2", "--target", "S3", "--raw"], 2),
    "roots": (["roots", "--target", "S4", "--element", "(1,2,3)", "--n", "2"], 2),
    "check-t-s4": (["check-t", "--target", "S4", "--n", "2", "--knot", "SK"], 1),
    "check-t-psl27": (["check-t", "--target", "PSL2_7", "--n", "2", "--knot", "GK"], 1),
    "extend": (["extend", "--target", "S4", "--n", "2", "--knot", "SK", "--base", _BASE], 1),
    "verify-witness": (["verify-witness"], 1),
    "talex": (["talex", "--knot", "GK", "--n", "3", "--target", "SL2_3"], 1),
    "count-sharded": (
        ["count-homs", "--knot", "SK", "--n", "3", "--target", "PSL2_7",
         "--shards", "4", "--jobs", "2"],
        1,
    ),
}


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


def shuffled_grid(grid: dict, seed: int) -> dict:
    """The grid with knots, twist exponents and targets in a seeded order.

    Every pass of a run uses the same order, so a cell finds the same caches
    warm in each pass and its times over the passes are times of the same work.
    """
    rng = _rng(seed, 0)
    out = dict(grid)
    for field in ("knots", "n_values", "targets"):
        values = list(grid[field])
        rng.shuffle(values)
        out[field] = values
    return out


def cli_round(calls: dict, seed: int, index: int) -> list[str]:
    """Call ids of one cli round, each repeated per its copies, shuffled."""
    ids = [cid for cid, (_, copies) in calls.items() for _ in range(copies)]
    _rng(seed, index).shuffle(ids)
    return ids


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- sweep outputs ----------------------------------------------------------------


def record_key(rec: dict) -> str:
    return f"{rec['knot']}/{rec['n']}/{rec['target']}/{rec['task']}"


def record_outcome(rec: dict) -> list:
    """The part of a record that is a result: status, value and its detail."""
    stats = rec["stats"]
    detail = None
    if rec["task"] == "count":
        detail = stats.get("buckets")
    elif rec["task"] == "talex" and rec["status"] == "ok":
        detail = {"homs": stats["homs"], "distinct": stats["distinct"]}
    return [rec["status"], rec["value"], detail]


def grid_keys(grid: dict) -> list[str]:
    return [
        f"{knot}/{n}/{target}/{task}"
        for target in grid["targets"]
        for n in grid["n_values"]
        for knot in grid["knots"]
        for task in grid["tasks"]
    ]


def check_sweep(grid: dict, outcome: dict, pins: dict) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) for one sweep pass.

    An operation is one record, plus the pass's chiral-pair report.  Each
    record must equal its pin.  Independently of the pins, every structured
    count must equal the hom count where property T holds, and the report
    must show no mismatch.  Expected skips are checked like any other value.
    """
    records = outcome["records"]
    failures = []
    keys = grid_keys(grid)
    for key in keys:
        want = pins["records"].get(key)
        got = records.get(key)
        if want is None:
            failures.append(f"{key}: no pinned value")
        elif got != want:
            failures.append(f"{key}: expected {want!r}, got {got!r}")
    for key in set(records) - set(keys):
        failures.append(f"{key}: record outside the grid")
    for key, got in records.items():
        knot, n, target, task = key.split("/")
        if task != "property_t" or got[:2] != ["ok", True]:
            continue
        count = records.get(f"{knot}/{n}/{target}/count")
        structured = records.get(f"{knot}/{n}/{target}/structured")
        if count and structured and count[1] != structured[1]:
            failures.append(
                f"{knot}/{n}/{target}: structured {structured[1]} != count {count[1]}"
            )
    report = outcome["report"]
    skips = sum(pins["records"].get(k, ["ok"])[0] == "skip" for k in keys)
    want_exit = 2 if skips else 0
    if report["mismatches"] or report["exit_code"] != want_exit:
        failures.append(
            f"report: {report['mismatches']} mismatches, exit {report['exit_code']}"
            f" (expected 0 mismatches, exit {want_exit})"
        )
    return len(keys) + 1, failures


def check_cli(call_id: str, stdout: str, exit_code: int, pins: dict) -> list[str]:
    want = pins["cli"].get(call_id)
    if want is None:
        return [f"{call_id}: no pinned output"]
    if [stdout, exit_code] != [want["stdout"], want["exit"]]:
        return [
            f"{call_id}: expected exit {want['exit']} {want['stdout']!r}, "
            f"got exit {exit_code} {stdout!r}"
        ]
    return []
