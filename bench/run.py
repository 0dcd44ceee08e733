"""gnk benchmark: the suite, talex and cli workloads, end to end or traced.

    python3 bench/run.py [--workload suite|talex|cli|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from the root of a gnk checkout; it imports gnk from ./src.  Each
workload is a closed loop of fresh processes that runs for --seconds:

- suite: one `harness.run_sweep` pass over the suite grid per process, then
  `read_records` and `compare_report`;
- talex: the same on the twisted Alexander grid;
- cli:   rounds of `gnk` invocations, one at a time.

Every output is checked against expected.json.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics, or with --trace 1 the per-layer ones).  --trace 1 alternates
untraced and traced passes, so it also reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
ENTRY = os.path.join(HERE, "gnk_entry.py")

WORKLOADS = ("suite", "talex", "cli")
CALIBRATION_LOOPS = 5_000_000
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.run_cell_s.p50": "s",
    "harness.run_cell_s.p90": "s",
    "harness.self_s": "s",
    "harness.io_s": "s",
    "fingroups.group_s": "s",
    "fingroups.groups_built": "count",
    "presentations.present_s": "s",
    "homsearch.tables_s": "s",
    "homsearch.table_builds": "count",
    "homsearch.search_s": "s",
    "homsearch.nodes": "count",
    "homsearch.prunes": "count",
    "homsearch.homs": "count",
    "homsearch.homs_per_node": "ratio",
    "homsearch.orbits_s": "s",
    "homsearch.orbits": "count",
    "homsearch.homs_per_orbit": "ratio",
    "homsearch.property_t_s": "s",
    "homsearch.property_t_pairs": "count",
    "homsearch.structured_s": "s",
    "homsearch.self_s": "s",
    "talex.invariant_s": "s",
    "talex.invariants": "count",
    "talex.invariant_call_s.p50": "s",
    "talex.invariant_call_s.p90": "s",
    "talex.rep_s": "s",
    "talex.distinct_per_invariant": "ratio",
    "talex.self_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.spawn_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer self times: metric -> span names whose self time it sums.
SELF_TIMES = {
    "harness.self_s": ("harness.sweep", "harness.run_cell"),
    "harness.io_s": ("harness.io",),
    "fingroups.group_s": ("fingroups.group",),
    "presentations.present_s": ("presentations.present",),
    "homsearch.tables_s": ("homsearch.tables",),
    "homsearch.search_s": ("homsearch.search",),
    "homsearch.orbits_s": ("homsearch.orbits",),
    "homsearch.property_t_s": ("homsearch.property_t",),
    "homsearch.structured_s": ("homsearch.structured",),
    "homsearch.self_s": (
        "homsearch.tables",
        "homsearch.search",
        "homsearch.orbits",
        "homsearch.property_t",
        "homsearch.structured",
    ),
    "talex.invariant_s": ("talex.invariant",),
    "talex.rep_s": ("talex.rep",),
    "talex.self_s": ("talex.invariant", "talex.rep"),
    "cli.self_s": ("cli.main",),
}

COUNTER_METRICS = {
    "fingroups.groups_built": "groups_built",
    "homsearch.table_builds": "table_builds",
    "homsearch.nodes": "nodes",
    "homsearch.prunes": "prunes",
    "homsearch.homs": "homs",
    "homsearch.orbits": "orbits",
    "homsearch.property_t_pairs": "property_t_pairs",
    "talex.invariants": "invariants",
}


def machine_block() -> dict:
    """Host facts recorded with every run; never used to scale a metric."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "calibration_loops": CALIBRATION_LOOPS,
        "calibration_s": round(time.perf_counter() - started, 4),
    }


class Run:
    """One workload's run: its inputs, child processes and temporary files."""

    def __init__(self, root: str, workload: str, seed: int, grid=None, calls=None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.grid = grid if grid is not None else workloads.GRIDS.get(workload)
        self.calls = calls if calls is not None else workloads.CLI_CALLS
        self.pins = workloads.load_pins()
        src = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        self.env = env
        self.tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=root)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _worker(self, index: int, traced: bool, setup_only: bool) -> dict:
        out = os.path.join(self.tmp, f"{'setup' if setup_only else 'pass'}{index}.json")
        cmd = [sys.executable, WORKER, "--seed", str(self.seed), "--index", str(index),
               "--trace", str(int(traced)), "--out", out]
        if self.workload != "cli":
            cmd += ["--grid", json.dumps(self.grid)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--spawned-at", repr(time.monotonic())]
        subprocess.run(cmd, env=self.env, cwd=self.root, check=True,
                       timeout=CHILD_TIMEOUT_S)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def sweep_unit(self, index: int, traced: bool) -> dict:
        result = self._worker(index, traced, False)
        attempted, failures = workloads.check_sweep(self.grid, result, self.pins)
        return {
            "traced": traced,
            "setup_s": result["setup_s"],
            "wall_s": result["wall_s"],
            "latencies": list(zip(
                result["cells"], spans.durations(result["spans"], "harness.run_cell")
            )),
            "attempted": attempted,
            "failures": failures,
            "work": result["work"],
            "processes": [{"spans": result["spans"]}],
            "counters": result["counters"],
        }

    def _cli_call(self, call_id: str, index: int, slot: int, traced: bool) -> dict:
        argv = self.calls[call_id][0]
        env = self.env
        out = os.path.join(self.tmp, f"cli{index}-{slot}.json")
        if traced:
            env = dict(env, BENCH_SPANS_OUT=out, BENCH_RUN_ID=str(index))
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, ENTRY, *argv], env=env, cwd=self.root,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        latency = time.perf_counter() - started
        call = {
            "latency": latency,
            "failures": workloads.check_cli(call_id, proc.stdout, proc.returncode, self.pins),
        }
        if traced:
            with open(out, encoding="utf-8") as fh:
                call.update(json.load(fh))
        return call

    def cli_unit(self, index: int, traced: bool) -> dict:
        setup = self._worker(index, False, True)["setup_s"]
        ids = workloads.cli_round(self.calls, self.seed, index)
        started = time.perf_counter()
        calls = [self._cli_call(cid, index, slot, traced) for slot, cid in enumerate(ids)]
        unit = {
            "traced": traced,
            "setup_s": setup,
            "wall_s": time.perf_counter() - started,
            "latencies": [(cid, c["latency"]) for cid, c in zip(ids, calls)],
            "attempted": len(calls),
            "failures": [f for c in calls for f in c["failures"]],
            "work": {},
        }
        if traced:
            counters = dict.fromkeys(spans.COUNTERS, 0)
            for c in calls:
                for name, value in c["counters"].items():
                    counters[name] += value
            unit["processes"] = calls
            unit["counters"] = counters
            unit["import_s"] = sum(c["import_s"] for c in calls)
            unit["main_s"] = sum(c["main_s"] for c in calls)
            latency = sum(c["latency"] for c in calls)
            unit["spawn_s"] = latency - unit["import_s"] - unit["main_s"]
        return unit


def closed_loop(run: Run, seconds: float, trace: bool) -> list[dict]:
    """Units back to back until the next one would end past the deadline.

    With tracing, units alternate untraced and traced, starting untraced.
    """
    unit = run.cli_unit if run.workload == "cli" else run.sweep_unit
    deadline = time.perf_counter() + seconds
    units, lengths = [], []
    while True:
        traced = trace and len(units) % 2 == 1
        started = time.perf_counter()
        units.append(unit(len(units), traced))
        lengths.append(time.perf_counter() - started)
        if len(units) >= (2 if trace else 1) and (
            time.perf_counter() + statistics.median(lengths) > deadline
        ):
            return units


def unit_medians(units: list[dict]) -> tuple[float, list[float]]:
    """A unit's time and its operations' latencies, each the median over units.

    Every unit does the same operations: grid cells, in one order for the
    whole run, or cli calls by id, each its own process.  Each operation is
    taken at its median over the units, and so is the rest of a unit's time
    (sorting, writing and reading records, the report).  Percentiles of
    latencies pooled over units jump from run to run where they fall between
    two clusters of operations; over one list of operations they compare the
    same ranks every run.  A sweep keeps its order because a cell's time
    depends on the caches earlier cells warmed: over shuffled passes a cell
    would pay for filling them in few passes, and its median would leave
    that cost out.
    """
    times: dict[str, list[float]] = {}
    rest = []
    for unit in units:
        for key, latency in unit["latencies"]:
            times.setdefault(key, []).append(latency)
        rest.append(unit["wall_s"] - sum(latency for _, latency in unit["latencies"]))
    ops = [statistics.median(times[key]) for key, _ in units[0]["latencies"]]
    return sum(ops) + statistics.median(rest), ops


def unit_layers(unit: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced unit, and any accounting failures."""
    self_s: dict[str, float] = {}
    root = 0.0
    for proc in unit["processes"]:
        proc_self, proc_root = spans.aggregate(proc["spans"])
        for name, value in proc_self.items():
            self_s[name] = self_s.get(name, 0.0) + value
        root += proc_root
    out = {
        metric: sum(self_s.get(name, 0.0) for name in names)
        for metric, names in SELF_TIMES.items()
    }
    counters = unit["counters"]
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = counters[counter]
    out["homsearch.homs_per_node"] = counters["homs"] / max(counters["nodes"], 1)
    out["homsearch.homs_per_orbit"] = counters["orbit_rows"] / max(counters["orbits"], 1)
    out["talex.distinct_per_invariant"] = (
        counters["distinct_lines"] / max(counters["invariants"], 1)
    )
    for name in ("import_s", "main_s", "spawn_s"):
        out[f"cli.{name}"] = unit.get(name, 0.0)
    out["trace.wall_s"] = unit["wall_s"]
    failures = []
    residual = sum(self_s.values()) - root
    if abs(residual) > 1e-6 * max(root, 1.0):
        failures.append(f"self times miss the traced time by {residual:.3g} s")
    return out, failures


def measure(run: Run, seconds: float, trace: bool) -> dict:
    units = closed_loop(run, seconds, trace)
    untraced = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    attempted = sum(u["attempted"] for u in units)
    failures = [f for u in units for f in u["failures"]]
    if any(u["work"] != units[0]["work"] for u in units):
        failures.append("record work counters differ between passes")
    attempted += 1
    wall, latencies = unit_medians(untraced)
    end_to_end = {
        "wall_s": wall,
        "latency_s.p50": spans.quantile(latencies, 50),
        "latency_s.p90": spans.quantile(latencies, 90),
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    per_layer = {}
    if traced:
        rows = []
        for unit in traced:
            row, accounting = unit_layers(unit)
            rows.append(row)
            failures += accounting
            attempted += 1
        if any(u["counters"] != traced[0]["counters"] for u in traced):
            failures.append("trace counters differ between traced passes")
        medians = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        medians.update({k: rows[0][k] for k in COUNTER_METRICS})  # all equal
        for prefix, span_name in (("harness.run_cell_s", "harness.run_cell"),
                                  ("talex.invariant_call_s", "talex.invariant")):
            values = [x for u in traced for proc in u["processes"]
                      for x in spans.durations(proc["spans"], span_name)]
            medians[f"{prefix}.p50"] = spans.quantile(values, 50)
            medians[f"{prefix}.p90"] = spans.quantile(values, 90)
        medians["trace.wall_s"] = unit_medians(traced)[0]
        medians["trace.overhead_s"] = medians["trace.wall_s"] - end_to_end["wall_s"]
        per_layer = {k: medians[k] for k in PER_LAYER}
    return {
        "units": len(untraced),
        "traced_units": len(traced),
        "latency_samples": sum(len(u["latencies"]) for u in untraced),
        "attempted": attempted,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def print_table(workload: str, seed: int, result: dict) -> None:
    failed = len(result["failures"])
    print(f"workload {workload}  seed {seed}  untraced units {result['units']}"
          f"  traced units {result['traced_units']}"
          f"  latency samples {result['latency_samples']}")
    for title, metrics, units in (("end to end", result["end_to_end"], END_TO_END),
                                  ("per layer", result["per_layer"], PER_LAYER)):
        if metrics:
            print(f"  {title}:")
            for name, value in metrics.items():
                print(f"    {name:<32} {value:>14.6g} {units[name]}")
    print(f"    {'failed_frac':<32} {failed / result['attempted']:>14.6g}"
          f" ({failed} of {result['attempted']} operations)")
    for message in result["failures"][:20]:
        print(f"  FAILED {message}")


def run_one(root: str, args) -> int:
    print(json.dumps({"machine": machine_block()}), flush=True)
    run = Run(root, args.workload, args.seed)
    try:
        result = measure(run, args.seconds, bool(args.trace))
    finally:
        run.close()
    print_table(args.workload, args.seed, result)
    metrics, units = (
        (result["per_layer"], PER_LAYER) if args.trace
        else (result["end_to_end"], END_TO_END)
    )
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 3


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 3):
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gnk", "__init__.py")):
        print("error: run from the root of a gnk checkout (src/gnk is missing)",
              file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    return run_one(root, args)


if __name__ == "__main__":
    sys.exit(main())
