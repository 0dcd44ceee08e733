"""Span recorder that wraps gnk's layer functions from outside the package.

`install` replaces every module attribute of gnk that is bound to a wrapped
function, so calls between modules and within one (for example
g1_base_matrix -> hom_image_matrix -> indexed_tables) are all caught.  Spans
are kept in memory; the process that recorded them writes them out when its
run ends.  A layer's self time is its spans' time minus the time of the
wrapped calls nested inside them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

# (module, function) -> span name.  The span name's prefix is the layer.
WRAPPED = {
    ("harness", "run_sweep"): "harness.sweep",
    ("harness", "run_cell"): "harness.run_cell",
    ("harness", "write_records"): "harness.io",
    ("harness", "read_records"): "harness.io",
    ("harness", "compare_report"): "harness.io",
    ("fingroups", "group_from_spec"): "fingroups.group",
    ("fingroups", "nth_roots"): "fingroups.group",
    ("presentations", "knot_presentation"): "presentations.present",
    ("presentations", "g1_braid_presentation"): "presentations.present",
    ("homsearch", "indexed_tables"): "homsearch.tables",
    ("homsearch", "hom_image_matrix"): "homsearch.search",
    ("homsearch", "count_homs"): "homsearch.search",
    ("homsearch", "orbit_count"): "homsearch.orbits",
    ("homsearch", "orbit_partition"): "homsearch.orbits",
    ("homsearch", "orbit_representatives"): "homsearch.orbits",
    ("homsearch", "check_property_t"): "homsearch.property_t",
    ("homsearch", "extend_g1_hom"): "homsearch.property_t",
    ("homsearch", "structured_count"): "homsearch.structured",
    ("talex", "twisted_alexander"): "talex.invariant",
    ("talex", "representation_from_sl2_hom"): "talex.rep",
    ("talex", "representation_from_psl27_hom"): "talex.rep",
    ("cli", "main"): "cli.main",
}

COUNTERS = (
    "groups_built",
    "table_builds",
    "nodes",
    "prunes",
    "homs",
    "orbits",
    "orbit_rows",
    "property_t_pairs",
    "invariants",
    "distinct_lines",
)


def _count_search(tracer, args, result):
    stats = result[1]
    tracer.counters["nodes"] += stats.nodes
    tracer.counters["prunes"] += stats.prunes
    tracer.counters["homs"] += stats.homs


def _count_tables(tracer, args, result):
    group = args[0]
    if id(group) not in tracer.groups_seen:
        tracer.groups_seen[id(group)] = group  # held so the id is not reused
        tracer.counters["table_builds"] += 1


def _count_orbits(tracer, args, result):
    tracer.counters["orbits"] += result
    tracer.counters["orbit_rows"] += len(args[0])


def _count_pairs(tracer, args, result):
    tracer.counters["property_t_pairs"] += result.pairs


def _count_group(tracer, args, result):
    tracer.counters["groups_built"] += 1


def _count_invariant(tracer, args, result):
    tracer.counters["invariants"] += 1


def _on_cell(tracer, args, result):
    knot, n, target = args[:3]
    tracer.cells.append(f"{knot}/{n}/{target}")
    for rec in result:
        if rec.task == "talex" and rec.status == "ok":
            tracer.counters["distinct_lines"] += rec.stats["distinct"]


ON_RESULT = {
    "hom_image_matrix": _count_search,
    "count_homs": _count_search,
    "indexed_tables": _count_tables,
    "orbit_count": _count_orbits,
    "check_property_t": _count_pairs,
    "group_from_spec": _count_group,
    "twisted_alexander": _count_invariant,
    "run_cell": _on_cell,
}


class Tracer:
    """Spans as [name, start, end, parent index, run id], in call order.

    `cells` names the grid cell of each harness.run_cell span, in order.
    """

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cells: list[str] = []
        self.groups_seen: dict[int, object] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)


def install(tracer: Tracer, span_names=None) -> None:
    """Wrap the layer functions (all, or those whose span is in span_names)."""
    chosen = {
        key: name
        for key, name in WRAPPED.items()
        if span_names is None or name in span_names
    }
    modules = {mod: importlib.import_module(f"gnk.{mod}") for mod, _ in chosen}
    loaded = [m for name, m in sys.modules.items() if name.startswith("gnk.")]
    for (mod, fn), name in chosen.items():
        original = getattr(modules[mod], fn)
        wrapper = tracer.wrap(name, original, ON_RESULT.get(fn))
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# -- aggregation --------------------------------------------------------------------


def aggregate(spans: list[list]) -> tuple[dict, float]:
    """(self seconds per span name, seconds of the root spans) of one process.

    Parent indices refer to the recording process's own list, so spans from
    several processes are aggregated one process at a time.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    root = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[i]
        if parent < 0:
            root += end - start
    return self_s, root


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for span_name, start, end, _, _ in spans if span_name == name]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens), or the only value.

    Interpolates between the closest values and never beyond the largest, so
    over a short list the p90 stays within its two largest values.
    """
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]
