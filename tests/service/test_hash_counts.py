"""A resident key is hashed once: when it enters its store.

The resident store's key index maps every key it holds to its
partition, and a stateful round's shuffle, its state applies and the
matcher's point reads all route through it.  So once a node is
resident, no round, flush or lookup hashes its name again; only a key
a store does not yet hold costs a ``fast_hash_bytes`` call.  These
tests count the calls made from ``repro.mapreduce.state`` and
``repro.mapreduce.runtime`` (the only two callers), on the serial
backend so the counts are taken in this interpreter.
"""

import pytest

from repro.mapreduce import Counters, MapReduceRuntime, ResidentStateStore
from repro.mapreduce import runtime as runtime_module
from repro.mapreduce import state as state_module
from repro.matching import greedy_mr_b_matching
from repro.service import OnlineMatcher
from repro.telemetry.loadgen import zipf_events

from ..matching.test_greedy_kernel import (
    _flickr_graph_at,
    _seeded_record_count,
)

#: Events that only touch nodes already in the graph.
RESIDENT_MIX = {
    "arrival": 0.0,
    "edge": 0.6,
    "capacity": 0.3,
    "retirement": 0.1,
}


def _serial_runtime() -> MapReduceRuntime:
    return MapReduceRuntime(
        num_map_tasks=4, num_reduce_tasks=4, counters=Counters()
    )


def _count_hashes(monkeypatch):
    """Record the bytes of every ``fast_hash_bytes`` call made by the
    state store and the runtime."""
    calls = []
    for module in (state_module, runtime_module):
        real = module.fast_hash_bytes

        def counted(data, real=real):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(module, "fast_hash_bytes", counted)
    return calls


def _record_new_keys(monkeypatch):
    """Record every ``put`` of a key its store did not hold."""
    new_keys = []
    put = ResidentStateStore.put

    def spy(self, key_bytes, key, value):
        if not self.contains(key):
            new_keys.append((self.name, key_bytes))
        put(self, key_bytes, key, value)

    monkeypatch.setattr(ResidentStateStore, "put", spy)
    return new_keys


def test_a_batch_over_resident_nodes_hashes_only_its_new_keys(monkeypatch):
    graph = _flickr_graph_at(0.1)
    events, _ = zipf_events(graph, 16, seed=3, mix=RESIDENT_MIX)
    runtime = _serial_runtime()
    with OnlineMatcher(runtime=runtime, graph=graph) as matcher:
        matcher.flush(events[:8])  # warm-up
        shuffled = runtime.counters.get("runtime", "shuffle.records")
        hashes = _count_hashes(monkeypatch)
        new_keys = _record_new_keys(monkeypatch)
        report = matcher.flush(events[8:])
        shuffled = (
            runtime.counters.get("runtime", "shuffle.records") - shuffled
        )
        assert report.admitted == 8 and report.rounds >= 2
        assert len(hashes) <= len(new_keys)
        # Hashing every shuffled message would break the bound.
        assert shuffled > 2 * len(new_keys)
        assert matcher.verify()[0]


@pytest.mark.parametrize("scale", [0.1, 0.2])
def test_greedy_mr_hashes_each_seeded_node_once(monkeypatch, scale):
    graph = _flickr_graph_at(scale)
    hashes = _count_hashes(monkeypatch)
    result = greedy_mr_b_matching(graph, runtime=_serial_runtime())
    assert result.rounds > 1
    assert len(hashes) == len(set(hashes)) == _seeded_record_count(graph)
