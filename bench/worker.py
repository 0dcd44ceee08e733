"""One fresh-process pass of a sweep workload, or one timed set-up.

run.py starts this script once per pass, so every pass pays gnk's import and
its module-level caches, as a user's `gnk sweep` does.  Set-up is measured
from the moment run.py spawned the process to the moment the inputs are
ready; both sides read the same monotonic clock.

    python3 bench/worker.py --grid JSON --seed N --index I --trace 0|1 \
        --spawned-at T --out result.json [--setup-only]

Without --grid it times the cli workload's set-up: importing gnk.cli and
building the invocation list.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import workloads


def _sweep_and_report(harness, cfg):
    harness.run_sweep(cfg, jobs=1)
    records = harness.read_records(cfg.output)
    return records, harness.compare_report(records)


def run_pass(harness, cfg, index: int, traced: bool) -> dict:
    """Sweep, read back and report, timed; untraced, only cells are timed."""
    import spans

    tracer = spans.Tracer(index)
    spans.install(tracer, None if traced else {"harness.run_cell"})
    started = time.perf_counter()
    records, report = tracer.call("bench.pass", _sweep_and_report, harness, cfg)
    wall = time.perf_counter() - started
    os.remove(cfg.output)
    work = {"nodes": 0, "prunes": 0, "homs": 0}
    for rec in records:
        if rec.task == "count":
            for field in work:
                work[field] += rec.stats[field]
    as_dicts = [json.loads(rec.to_json()) for rec in records]
    return {
        "wall_s": wall,
        "records": {
            workloads.record_key(r): workloads.record_outcome(r) for r in as_dicts
        },
        "report": {"mismatches": report.mismatches, "exit_code": report.exit_code()},
        "work": work,
        "spans": tracer.spans,
        "cells": tracer.cells,
        "counters": tracer.counters,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", help="sweep grid as JSON; absent for cli")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.grid is None:
        import gnk.cli  # noqa: F401  (the import every gnk call pays)

        workloads.cli_round(workloads.CLI_CALLS, args.seed, args.index)
    else:
        from gnk import harness

        grid = workloads.shuffled_grid(json.loads(args.grid), args.seed)
        cfg = harness.SweepConfig(**grid, output=args.out + ".jsonl")
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        result.update(run_pass(harness, cfg, args.index, bool(args.trace)))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
