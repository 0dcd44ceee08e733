"""Sweep orchestration and chiral-pair reporting.

A sweep walks the grid (knot, twist exponent, target group, task), runs
each task once per cell, and appends one line-delimited JSON record per
(knot, n, target, task) to the output file.  Records are append-only and
canonically sorted before writing, so reruns and parallel runs agree on
every record's value and deterministic stats.  They are not byte-identical:
each record carries its wall-clock `timestamp`, and count records carry the
search's `stats.wall_time`.  Moving those into a separate field is the
deterministic-records item in ROADMAP.md.

Tasks that a target cannot support (enumeration beyond the capability
bound, or no matrix representation route for the invariant task) become
explicit skip records instead of failures.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .fingroups import CapabilityError, FiniteGroup, group_from_spec
from .homsearch import (
    check_property_t,
    fiber_orbits,
    indexed_tables,
    pool_map,
    require_composite,
    sharded_search,
    structured_count,
)
from .presentations import KNOT_NAMES, knot_presentation
from .talex import cell_lines

TASKS = ("count", "classes", "property_t", "structured", "talex")

ENGINE = f"gnk-{__version__}"

CHIRAL_PAIRS = (("SK", "GK"), ("trefoil_r", "trefoil_l"))

_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps builds one per call


@dataclass(frozen=True)
class SweepConfig:
    knots: tuple[str, ...]
    n_values: tuple[int, ...]
    targets: tuple[str, ...]
    tasks: tuple[str, ...]
    output: str = "results.jsonl"

    def __post_init__(self) -> None:
        # JSON gives any type anywhere: lists must be lists, not strings
        # split into characters, and integers must not be floats or booleans
        for name, kind in (
            ("knots", str),
            ("n_values", int),
            ("targets", str),
            ("tasks", str),
        ):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or any(
                type(v) is not kind for v in value
            ):
                raise ValueError(f"{name} must be a list of {kind.__name__} values")
            if name == "targets":  # group_from_spec reads " S3" as S3
                value = [v.strip() for v in value]
            # a repeated entry would run and write the same cells twice
            for i, v in enumerate(value):
                if v in value[:i]:
                    raise ValueError(f"{name} repeats {v!r}")
            object.__setattr__(self, name, tuple(value))
        if not isinstance(self.output, str):
            raise ValueError("output must be a path")
        bad = [k for k in self.knots if k not in KNOT_NAMES]
        if bad or not self.knots:
            raise ValueError(f"knots must be a nonempty subset of {KNOT_NAMES}")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("n_values must be nonempty with every n >= 1")
        if not self.targets:
            raise ValueError("targets must be nonempty")
        bad = [t for t in self.tasks if t not in TASKS]
        if bad or not self.tasks:
            raise ValueError(f"tasks must be a nonempty subset of {TASKS}")

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("a sweep config must not nest this deeply") from None
        if not isinstance(data, dict):
            raise ValueError("a sweep config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {"knots", "n_values", "targets", "tasks"} - set(data)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "SweepConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class ResultRecord:
    knot: str
    n: int
    target: str
    task: str
    status: str  # "ok" or "skip"
    value: object
    stats: dict
    timestamp: str
    engine: str

    def key(self) -> tuple:
        return (self.knot, self.n, self.target, self.task)

    def to_json(self) -> str:
        # vars, not asdict: the same JSON without deep-copying stats
        return _ENCODER.encode(vars(self))

    @classmethod
    def from_json(cls, line: str) -> "ResultRecord":
        record = cls(**json.loads(line))
        # JSON gives any type anywhere: every field but value must have the
        # exact type its annotation names (so n is no bool), as run_cell writes
        for f in fields(cls):
            got = type(getattr(record, f.name)).__name__
            if f.type != "object" and got != f.type:
                raise ValueError(f"{f.name} must be of type {f.type}")
        return record


def sort_records(records) -> list[ResultRecord]:
    # a sweep's keys are unique, since SweepConfig refuses repeated entries
    return sorted(records, key=lambda r: (r.target, r.n, r.knot, r.task))


def write_records(path: str, records) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def read_records(path: str) -> list[ResultRecord]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(ResultRecord.from_json(line))
            except (ValueError, TypeError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") from exc
    return out


# -- per-cell task execution -----------------------------------------------------


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _count_buckets(group: FiniteGroup, reps: np.ndarray, sizes: np.ndarray) -> dict:
    """The three counting buckets, from one row per conjugation orbit and
    the orbits' sizes (commuting images are a class function)."""
    idx = indexed_tables(group)
    x, y = reps[:, :, None], reps[:, None, :]  # every pair of images
    commuting = (idx.product(x, y) == idx.product(y, x)).all(axis=(1, 2))
    total = int(sizes.sum())
    return {
        "all_homs": total,
        "nonabelian_image": total - int(sizes[commuting].sum()),
        "class_representatives": len(reps),
    }


def run_cell(knot: str, n: int, target: str, tasks) -> list[ResultRecord]:
    """All task records for one (knot, n, target) grid cell.

    count, classes and talex read one fiber search: the homomorphisms whose
    first free generator maps to a conjugacy class representative.
    """
    group = group_from_spec(target)
    pres = knot_presentation(knot, n)
    cache: dict[str, object] = {}
    stamp = _now()

    def fibers():
        """(search stats, fiber matrix, each row's orbit root, the distinct
        roots in lex order, the orbits' sizes)."""
        if "fibers" not in cache:
            matrix, stats = sharded_search(pres, group)
            cache["fibers"] = (stats, matrix, *fiber_orbits(pres, group, matrix))
        return cache["fibers"]

    records = []
    for task in tasks:
        try:
            if task in ("property_t", "structured", "talex"):
                require_composite(task, knot)
            if task == "count":
                stats, matrix, _, reps, sizes = fibers()
                value, status = int(sizes.sum()), "ok"
                stats = dict(stats)
                stats["buckets"] = _count_buckets(group, matrix[reps], sizes)
            elif task == "classes":
                _, _, _, reps, sizes = fibers()
                value, status = len(reps), "ok"
                stats = {"homs": int(sizes.sum())}
            elif task == "property_t":
                report = check_property_t(group, n, knot)
                value, status = report.holds, "ok"
                stats = {"bases": report.bases, "pairs": report.pairs}
                if report.counterexample_base is not None:
                    stats["counterexample_base"] = [
                        group.format_element(x)
                        for x in report.counterexample_base
                    ]
                    stats["counterexample_root"] = group.format_element(
                        report.counterexample_root
                    )
            elif task == "structured":
                value, status = structured_count(group, n), "ok"
                stats = {}
            elif task == "talex":
                _, *found = fibers()  # oversized targets skip here
                weighted = cell_lines(pres, group, *found)
                lines = sorted(line for line, size in weighted for _ in range(size))
                digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
                value, status = digest, "ok"
                stats = {
                    "homs": len(lines),
                    "distinct": len({line for line, _ in weighted}),
                }
            else:
                raise ValueError(f"unknown task {task!r}")
        except CapabilityError as exc:
            value, status, stats = None, "skip", {"reason": str(exc)}
        records.append(
            ResultRecord(
                knot=knot,
                n=n,
                target=target,
                task=task,
                status=status,
                value=value,
                stats=stats,
                timestamp=stamp,
                engine=ENGINE,
            )
        )
    return records


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> list[ResultRecord]:
    """Run every cell through pool_map on up to jobs processes, and append
    the canonical-sorted records to cfg.output."""
    for target in cfg.targets:
        group_from_spec(target)  # unconstructible targets fail before work
    if jobs < 1:  # and so do bad job counts and unwritable outputs
        raise ValueError("need jobs >= 1")
    write_records(cfg.output, [])
    cells = [
        (knot, n, target, cfg.tasks)
        for target in cfg.targets
        for n in cfg.n_values
        for knot in cfg.knots
    ]
    batches = pool_map(run_cell, cells, jobs)
    records = sort_records(rec for batch in batches for rec in batch)
    write_records(cfg.output, records)
    return records


# -- chiral pair comparison ------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    pair: str
    n: int
    target: str
    task: str
    left: object
    right: object
    outcome: str  # "match", "MISMATCH", "skip", or "incomplete"


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]
    skips: int  # skip records anywhere in the input, paired or not

    @property
    def mismatches(self) -> int:
        return sum(r.outcome == "MISMATCH" for r in self.rows)

    def exit_code(self) -> int:
        if self.mismatches:
            return 3
        if self.skips:
            return 2
        return 0

    def text_table(self) -> str:
        header = f"{'pair':<22} {'n':>2} {'target':<14} {'task':<11} {'outcome':<10} values"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            values = "" if r.outcome == "match" else f"{r.left!r} vs {r.right!r}"
            lines.append(
                f"{r.pair:<22} {r.n:>2} {r.target:<14} {r.task:<11} {r.outcome:<10} {values}".rstrip()
            )
        lines.append(
            f"rows: {len(self.rows)}  mismatches: {self.mismatches}  skips: {self.skips}"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": [asdict(r) for r in self.rows],
                "mismatches": self.mismatches,
                "skips": self.skips,
                "exit_code": self.exit_code(),
            },
            indent=2,
        )


def _pair_outcome(a: ResultRecord, b: ResultRecord) -> str:
    if a.status == "skip" or b.status == "skip":
        return "skip"
    if a.value != b.value:
        return "MISMATCH"
    if a.stats.get("buckets") != b.stats.get("buckets"):
        return "MISMATCH"
    return "match"


def compare_report(records) -> Report:
    latest: dict[tuple, ResultRecord] = {}
    skips = 0
    for rec in records:
        latest[rec.key()] = rec  # later records supersede earlier ones
        if rec.status == "skip":
            skips += 1
    rows = []
    for left_knot, right_knot in CHIRAL_PAIRS:
        keys = sorted(
            {
                (n, target, task)
                for knot, n, target, task in latest
                if knot in (left_knot, right_knot)
            },
            key=lambda k: (k[1], k[0], k[2]),
        )
        for n, target, task in keys:
            a = latest.get((left_knot, n, target, task))
            b = latest.get((right_knot, n, target, task))
            if a is None or b is None:
                outcome = "incomplete"
            else:
                outcome = _pair_outcome(a, b)
            rows.append(
                ReportRow(
                    pair=f"{left_knot}/{right_knot}",
                    n=n,
                    target=target,
                    task=task,
                    left=a.value if a else None,
                    right=b.value if b else None,
                    outcome=outcome,
                )
            )
    return Report(rows=tuple(rows), skips=skips)
