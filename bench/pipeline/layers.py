#!/usr/bin/env python3
"""Reduce a pipeline-benchmark trace to a per-layer table and metrics.

Usage: python3 bench/pipeline/layers.py TRACE.json

The trace is the Chrome trace-event JSON pipeline_bench writes in its traced
pass. Root spans are "setup" (world build or load, warm-up) and "op" (one
timed operation). A span's self time is its duration minus its children's.
A parallel-region span carries the per-item busy time of each layer it ran;
a layer's share of the region is its busy time divided by the region's lane
count, and what is left of the region's wall time is pool idle and dispatch
("exec.idle"). Self time of the structural spans ("setup", "op", "chunk") is
not attributed to any layer ("unattributed").
"""

import json
import sys
from collections import defaultdict

STRUCTURAL = ("setup", "op", "chunk")
# Layers whose share of the operation time is a per-layer metric; each metric
# is named "<layer>_share".
SHARED_LAYERS = (
    "traffic.chunk",
    "bgp.warm",
    "bgp.reconverge",
    "bgp.read",
    "bgp.path",
    "core.plan",
    "core.measure",
    "core.fold",
    "stats.reduce",
    "latency.geo_path",
    "latency.rtt",
    "cdn.pop",
    "cdn.egress_rank",
    "core.format",
    "exec.idle",
)
WORLD_LAYERS = ("topology.build", "core.serving_load")
# Workloads whose per-layer split must account for almost all operation time.
ATTRIBUTION_LIMIT = {"fig1_1x": 0.10, "study_30x": 0.10}


def load(path):
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    return trace["traceEvents"], trace["otherData"]


def attribute(events):
    """Self time (us) and calls per (root, layer), plus per-root totals."""
    by_index = {e["args"]["span"]: e for e in events}
    child_us = defaultdict(float)
    for e in events:
        if e["args"]["parent"] >= 0:
            child_us[e["args"]["parent"]] += e["dur"]

    def root_of(e):
        while e["args"]["parent"] >= 0:
            e = by_index[e["args"]["parent"]]
        return e["name"]

    self_us = defaultdict(float)
    calls = defaultdict(int)
    roots = defaultdict(list)  # root name -> durations of its spans
    busy_us = 0.0
    lane_us = 0.0
    for e in events:
        args = e["args"]
        root = root_of(e)
        own = e["dur"] - child_us[args["span"]]
        if args["parent"] < 0:
            roots[root].append(e["dur"])
        if "busy_us" in args:
            width = args["width"]
            for layer, us in args["busy_us"].items():
                self_us[root, layer] += us / width
                calls[root, layer] += args["calls"][layer]
            idle = own - sum(args["busy_us"].values()) / width
            self_us[root, "exec.idle"] += idle
            if root == "op":
                busy_us += sum(args["busy_us"].values())
                lane_us += e["dur"] * width
        elif e["name"] in STRUCTURAL:
            self_us[root, "unattributed"] += own
        else:
            self_us[root, e["name"]] += own
            calls[root, e["name"]] += 1
    return self_us, calls, roots, (busy_us, lane_us)


def reduce(path):
    """The per-layer table rows and the per-layer metrics of one trace."""
    events, other = load(path)
    self_us, calls, roots, (busy_us, lane_us) = attribute(events)
    rows = []
    for (root, layer), us in sorted(self_us.items()):
        n = len(roots[root])
        total = sum(roots[root])
        rows.append(
            {
                "root": root,
                "layer": layer,
                "self_ms": us / n / 1e3,
                "calls": calls[root, layer] / n,
                "share": us / total if total else 0.0,
            }
        )

    ops = roots["op"]
    op_total = sum(ops)
    counts = other["counts"]

    def share(layer):
        return self_us["op", layer] / op_total

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    world_us = sum(self_us["setup", layer] for layer in WORLD_LAYERS)
    metrics = {f"{layer}_share": (share(layer), "frac") for layer in SHARED_LAYERS}
    metrics.update(
        {
            "setup.world_ms": (world_us / len(roots["setup"]) / 1e3, "ms"),
            "exec.efficiency": (busy_us / lane_us if lane_us else 0.0, "frac"),
            "trace.unattributed_frac": (share("unattributed"), "frac"),
            "bgp.warm_tables_per_op": (counts.get("bgp.warm_tables", 0.0) / len(ops), "count"),
            "core.pair_windows_per_op": (
                counts.get("core.pair_windows", 0.0) / len(ops),
                "count",
            ),
            "core.plan_measurable_frac": (
                ratio("core.plan_measurable", "core.plan_attempted"),
                "frac",
            ),
            "bgp.changed_routes_per_event": (ratio("bgp.changed_routes", "bgp.events"), "count"),
            "bgp.worklist_pops_per_event": (ratio("bgp.worklist_pops", "bgp.events"), "count"),
            "bgp.invalidated_per_event": (ratio("bgp.invalidated", "bgp.events"), "count"),
            "bgp.changed_per_pop": (ratio("bgp.changed_routes", "bgp.worklist_pops"), "frac"),
        }
    )
    return rows, metrics, other["workload"]


def check(metrics, workload):
    """Failed checks of the attribution itself, one line each."""
    limit = ATTRIBUTION_LIMIT.get(workload)
    unattributed = metrics["trace.unattributed_frac"][0]
    if limit is not None and unattributed > limit:
        return [f"{workload}: {unattributed:.1%} of operation time is unattributed (limit {limit:.0%})"]
    return []


def format_table(rows, workload):
    lines = [f"{workload}: per-layer self time (per root span)",
             f"  {'root':6} {'layer':22} {'self_ms':>12} {'calls':>10} {'share':>8}"]
    for r in sorted(rows, key=lambda r: (r["root"] != "op", -r["share"])):
        lines.append(
            f"  {r['root']:6} {r['layer']:22} {r['self_ms']:12.4f} {r['calls']:10.1f} {r['share']:8.2%}"
        )
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, metrics, workload = reduce(argv[1])
    print(format_table(rows, workload))
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value!r} {unit}")
    errors = check(metrics, workload)
    for e in errors:
        print(f"layers: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
