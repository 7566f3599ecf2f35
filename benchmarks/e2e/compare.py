#!/usr/bin/env python3
"""Compare two result sets of ``run.py``: base (A) against new (B).

    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric) with base, new, the ratio
new ÷ base, the regression bound from ``BENCHMARK.json`` and a verdict
— for the pairs where the metric is a reading of its own (``PRIMARY``);
where it only restates ``wall_s`` it gets no row, so that one
regression is one row:

``better`` / ``worse``  the medians differ by more than the bound, in
                       the metric's good / bad direction;
``same``               they differ by no more than the bound;
``unresolved``         the repeats of either side scatter (max − min,
                       relative to the median) more widely than the
                       bound, so the difference cannot be told from
                       noise — reported as such, never as "same".

``mr_jobs`` and ``shuffle_records`` are counts the program makes: when
both sets ran the same seed and size they must match *exactly*, and any
increase is ``worse`` whatever the bound says.  Exits non-zero on any
``worse`` or if a workload's ``failed_ratio`` went up.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)

#: Deterministic counts, compared exactly between runs of one input.
EXACT = ("mr_jobs", "shuffle_records")

BATCH = ("join_mem", "join_spill", "join_cluster", "greedy_match",
         "stack_match")
#: The workloads on which a metric is compared; a metric not named
#: here is compared on all of them.  ``BENCHMARK.json`` makes every
#: workload report every metric, but a batch run is one operation, so
#: its ``events_per_s`` is 1 ÷ ``wall_s`` and both latencies are
#: ``wall_s``; on a serving workload ``edges_per_s`` is a constant ÷
#: ``wall_s``; ``serve_open`` completes events at the rate they are
#: offered; and in the closed loop of ``serve_closed`` latency is
#: clients ÷ ``events_per_s`` (Little's law).
PRIMARY = {
    "edges_per_s": BATCH,
    "events_per_s": ("serve_closed",),
    "event_latency_p50_ms": ("serve_open",),
    "event_latency_p95_ms": ("serve_open",),
}


def verdict(
    base: Dict[str, float],
    new: Dict[str, float],
    better: str,
    bound: float,
    exact: bool = False,
) -> str:
    """``better | same | worse | unresolved`` for one metric.

    ``base`` and ``new`` are ``{"median", "min", "max"}`` summaries;
    an ``exact`` comparison reads the medians only.
    """
    worse_by = new["median"] - base["median"]
    if better == "higher":
        worse_by = -worse_by
    if exact:
        return "worse" if worse_by > 0 else "better" if worse_by < 0 else "same"
    worse_by /= base["median"]
    scatter = max(
        (side["max"] - side["min"]) / side["median"] for side in (base, new)
    )
    if scatter > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(
    base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """All rows, in ``BENCHMARK.json`` order; ``failed_ratio`` last."""
    same_input = all(
        base["environment"][key] == new["environment"][key]
        for key in ("seed", "size")
    )
    rows: List[Dict[str, Any]] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if name not in PRIMARY.get(key, (name,)):
                continue
            if key not in a["metrics"] or key not in b["metrics"]:
                continue  # a failed workload wrote no numbers
            rows.append(
                {
                    "workload": name,
                    "metric": key,
                    "unit": metric["unit"],
                    "base": a["metrics"][key]["median"],
                    "new": b["metrics"][key]["median"],
                    "bound": metric["bound"],
                    "verdict": verdict(
                        a["metrics"][key],
                        b["metrics"][key],
                        metric["better"],
                        metric["bound"],
                        exact=same_input and key in EXACT,
                    ),
                }
            )
        rows.append(
            {
                "workload": name,
                "metric": "failed_ratio",
                "unit": "ratio",
                "base": a["failed_ratio"],
                "new": b["failed_ratio"],
                "bound": 0.0,
                "verdict": verdict(
                    {"median": a["failed_ratio"]},
                    {"median": b["failed_ratio"]},
                    "lower", 0.0, exact=True,
                ),
            }
        )
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<14}{'metric':<24}{'base':>14}{'new':>14}"
        f"{'new/base':>10}{'bound':>7}  verdict"
    ]
    for row in rows:
        ratio = (
            f"{row['new'] / row['base']:.4f}" if row["base"] else "-"
        )
        lines.append(
            f"{row['workload']:<14}{row['metric']:<24}"
            f"{row['base']:>14.6g}{row['new']:>14.6g}{ratio:>10}"
            f"{row['bound']:>7.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    sets = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            sets.append(json.load(handle))
    rows = compare(sets[0], sets[1], spec)
    print(render(rows))
    for side, results in zip("AB", sets):
        if results["environment"]["noisy"]:
            print(f"note: set {side} was measured on a loaded machine")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(
        f"{len(rows)} rows: {len(worse)} worse, {unresolved} unresolved"
    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
