"""Regenerate expected.json from the current tree, after independent checks.

    python3 bench/pin.py

Run it from the root of a gnk checkout.  It runs every sweep grid and every
cli call once, in their natural order, and refuses to write the pins unless
the outputs agree with sources that do not depend on them: the constants the
README documents, the structured-count identity wherever property T holds,
a chiral-pair report with no mismatch, and a confirmed S24 witness.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import workloads

# (where, key, value) documented in the README and the acceptance criteria.
README_CONSTANTS = (
    ("records", "GK/2/SL2_3/count", 264),
    ("records", "SK/3/PSL2_7/count", 8232),
    ("records", "GK/3/PSL2_7/count", 8232),
    ("records", "SK/2/S3/classes", 3),
    ("cli", "count-small", "12\n"),
    ("cli", "count-sl23", "264\n"),
    ("cli", "classes-raw", "3\n"),
    ("cli", "count-sharded", "8232\n"),
)


def sweep_records(root: str, grid: dict) -> dict:
    from gnk import harness

    with tempfile.TemporaryDirectory(dir=root) as tmp:
        cfg = harness.SweepConfig(**grid, output=os.path.join(tmp, "pins.jsonl"))
        harness.run_sweep(cfg)
        records = harness.read_records(cfg.output)
    report = harness.compare_report(records)
    outcome = {
        "records": {
            workloads.record_key(r): workloads.record_outcome(r)
            for r in (json.loads(rec.to_json()) for rec in records)
        },
        "report": {"mismatches": report.mismatches, "exit_code": report.exit_code()},
    }
    _, failures = workloads.check_sweep(grid, outcome, outcome)
    if failures:
        raise SystemExit("independent checks failed:\n" + "\n".join(failures))
    return outcome["records"]


def cli_outputs(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = {}
    for call_id, (argv, _) in workloads.CLI_CALLS.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(workloads.HERE, "gnk_entry.py"), *argv],
            env=env, cwd=root, capture_output=True, text=True, check=False,
        )
        out[call_id] = {"argv": argv, "stdout": proc.stdout, "exit": proc.returncode}
    return out


def main() -> None:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    pins = {"records": {}, "cli": cli_outputs(root)}
    for grid in workloads.GRIDS.values():
        pins["records"].update(sweep_records(root, grid))
    bad = []
    for where, key, value in README_CONSTANTS:
        got = pins[where][key]
        got = got[1] if where == "records" else got["stdout"]
        if got != value:
            bad.append(f"{key}: expected {value!r}, got {got!r}")
    if not pins["cli"]["verify-witness"]["stdout"].endswith("CONFIRMED\n"):
        bad.append("verify-witness: the stored counterexample did not verify")
    failed = [cid for cid, call in pins["cli"].items() if call["exit"] != 0]
    if failed:
        bad.append(f"cli calls exited non-zero: {failed}")
    if bad:
        raise SystemExit("independent checks failed:\n" + "\n".join(bad))
    records = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(pins["records"].items())
    )
    cli = json.dumps(pins["cli"], indent=1, sort_keys=True)
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{"cli": {cli},\n "records": {{\n{records}\n}}}}\n')
    print(f"wrote {len(pins['records'])} record pins and {len(pins['cli'])} cli pins")


if __name__ == "__main__":
    main()
