"""Calls into the package, plain or traced.

Workloads make every call into a package module through a caller:
`caller.call(name, fn, *args)`. `Direct` just calls. `Tracer` records a
span per call (name, start, end, parent span, instance id), aggregates the
`holds` queries of each wrapped oracle per parent span instead of keeping
one span per query, and adds up named counts. Spans stay in memory; the
per-layer metrics are computed from them when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from time import perf_counter


class Direct:
    """Untraced caller: no spans, no wrapped oracles, no counts."""

    instance = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def oracle(self, oracle):
        return oracle

    def count(self, name: str, n: int) -> None:
        pass


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, instance id, failed]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = None
        self.holds: dict = defaultdict(lambda: [0, 0.0])  # parent span -> [queries, seconds]
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.instance, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            rec[5] = True
            raise
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def oracle(self, oracle):
        """The same oracle with its `holds` decider counted and timed."""
        inner = oracle.holds

        def holds(name, tup):
            start = perf_counter()
            try:
                return inner(name, tup)
            finally:
                agg = self.holds[self.stack[-1] if self.stack else None]
                agg[0] += 1
                agg[1] += perf_counter() - start

        return dataclasses.replace(oracle, holds=holds)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, inst, failed) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "instance": inst, "failed": failed,
                    "holds": self.holds[i] if i in self.holds else None,
                }) + "\n")


# Per-layer metrics: (name, unit). Every traced run reports all of them, with
# zeros for the layers its workload does not call.
TIMED = [
    "search.find_isomorphism", "coding.encode", "coding.decode_full",
    "coding.canonical_iso", "coding.lambda_graph", "core.simple_cycles",
    "efgames.ef_winner", "efgames.equiv_n", "core.restrict", "reduction.decode_f",
    "reduction.build_f_graph", "reduction.induced_embedding",
]
PER_LAYER = (
    [(f"{n}.{k}", u) for n in TIMED for k, u in (("s", "s"), ("calls", "count"), ("failed", "count"))]
    + [
        ("search.find_isomorphism.max_s", "s"),
        ("coding.encode.vertices", "count"),
        ("efgames.ef_winner.symmetric_s", "s"),
        ("efgames.ef_winner.random_s", "s"),
        ("efgames.symmetric_share", "share"),
        ("core.restrict.self_s", "s"),
        ("core.restrict.holds_queries", "count"),
        ("core.restrict.facts_per_query", "facts/query"),
        ("reduction.decode_f.self_s", "s"),
        ("reduction.decode_f.holds_queries", "count"),
        ("reduction.holds.s", "s"),
        ("reduction.holds.calls", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "share"),
    ]
)


def layer_metrics(tracer: Tracer, instance_class: dict, scales: dict) -> dict[str, float]:
    """Aggregate the spans into the PER_LAYER values (overhead excluded).

    Times are scaled to the reference speed by `scales[instance]`, the
    factor the timing loop found for the span's instance.
    """
    values: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    holds_under: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _parent, inst, failed) in enumerate(tracer.spans):
        scale = scales[inst]
        queries, seconds = tracer.holds.get(i, (0, 0.0))
        values["reduction.holds.calls"] += queries
        values["reduction.holds.s"] += seconds * scale
        if name not in TIMED:
            continue
        dur = (end - start) * scale
        values[f"{name}.s"] += dur
        values[f"{name}.calls"] += 1
        values[f"{name}.failed"] += int(failed)
        if name == "search.find_isomorphism":
            values[f"{name}.max_s"] = max(values[f"{name}.max_s"], dur)
        if name == "efgames.ef_winner":
            values[f"{name}.{instance_class[inst]}_s"] += dur
        holds_under[name][0] += queries
        holds_under[name][1] += seconds * scale
    for name in ("core.restrict", "reduction.decode_f"):
        queries, seconds = holds_under[name]
        values[f"{name}.holds_queries"] = queries
        values[f"{name}.self_s"] = values[f"{name}.s"] - seconds
    values["coding.encode.vertices"] = tracer.counts["coding.encode.vertices"]
    queries = values["core.restrict.holds_queries"]
    values["core.restrict.facts_per_query"] = (
        tracer.counts["core.restrict.facts"] / queries if queries else 0
    )
    ef = values["efgames.ef_winner.s"]
    values["efgames.symmetric_share"] = values["efgames.ef_winner.symmetric_s"] / ef if ef else 0
    return values
