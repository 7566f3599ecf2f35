"""The benchmark's counts of record, pinned at smoke size.

``golden_counts.json`` pins, for each of the seven workloads of
``benchmarks/e2e/workloads.py`` at ``size="smoke"`` and seeds 0-2, the
two counts the benchmark reports as end-to-end metrics: ``mr_jobs``
(``runtime.jobs``) and ``shuffle_records`` (``runtime.shuffle.records``),
each the difference of the runtime's counters around ``run()``, exactly
as ``benchmarks/e2e/run.py`` takes them.

A change that claims to leave the counts alone (a faster shuffle, a
cheaper state store, a new index) shows it here, seed by seed, without
running the benchmark.  The workloads are imported from the benchmark's
own files, which this test does not edit, and run in-process.

Regenerate (only for a deliberate, CHANGES.md-worthy change of counts)::

    PYTHONPATH=src python tests/integration/test_counts_of_record.py
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
E2E = os.path.join(ROOT, "benchmarks", "e2e")
if E2E not in sys.path:
    sys.path.insert(0, E2E)

import workloads  # noqa: E402  (the benchmark's module, found on E2E)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_counts.json"
)
SIZE = "smoke"
SEEDS = (0, 1, 2)


def _counts(name, seed):
    """``{mr_jobs, shuffle_records}`` of one smoke run, counted around
    ``run()`` only, as the benchmark counts them."""
    workload = workloads.WORKLOADS[name](SIZE, seed)
    try:
        workload.setup()
        before = workload.runtime.counters.snapshot().get("runtime", {})
        workload.run()
        after = workload.runtime.counters.snapshot()["runtime"]
    finally:
        workload.close()
    return {
        "mr_jobs": after["jobs"] - before.get("jobs", 0),
        "shuffle_records": (
            after["shuffle.records"] - before.get("shuffle.records", 0)
        ),
    }


def _load():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_workload_and_seed():
    golden = _load()
    assert sorted(golden) == sorted(workloads.WORKLOADS)
    for name, rows in golden.items():
        assert sorted(rows) == [str(seed) for seed in SEEDS], name
        for row in rows.values():
            assert row["mr_jobs"] > 0 and row["shuffle_records"] > 0, name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_of_record(name, seed):
    assert _counts(name, seed) == _load()[name][str(seed)]


def _regenerate():
    golden = {
        name: {str(seed): _counts(name, seed) for seed in SEEDS}
        for name in sorted(workloads.WORKLOADS)
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"-> {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
