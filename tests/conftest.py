"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.mapreduce import Counters, LocalDiskFileSystem, MapReduceRuntime
from repro.mapreduce.executors import EXECUTOR_BACKENDS
from repro.mapreduce.storage import FILESYSTEM_BACKENDS

# One moderate default profile: property tests are plentiful, so each
# keeps a modest example budget to bound total suite time.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")

# Execution backends the `runtime` fixture cycles through.  CI narrows
# this (e.g. REPRO_TEST_BACKENDS=cluster for the service and cluster
# matrix jobs, serial for the out-of-core ones); the default exercises
# every registered backend so backend-sensitive regressions surface in
# the ordinary suite.  A name that is not registered fails collection
# up front instead of turning every `runtime` test into a fixture
# error.
_BACKENDS = os.environ.get("REPRO_TEST_BACKENDS", "serial,cluster")
BACKENDS = tuple(name.strip() for name in _BACKENDS.split(",") if name.strip())
for _name in BACKENDS:
    if _name not in EXECUTOR_BACKENDS:
        raise pytest.UsageError(
            f"REPRO_TEST_BACKENDS names {_name!r}; known backends: "
            f"{', '.join(EXECUTOR_BACKENDS)}"
        )

# Storage configuration for the `runtime` fixture.  The out-of-core CI
# job sets REPRO_TEST_FS=disk (tmpdir-backed datasets) and
# REPRO_TEST_SPILL_THRESHOLD to a small value that forces the external
# sort-and-spill shuffle, so the whole tier-1 suite also proves the
# out-of-core path — results are bit-identical by contract.
STORAGE = os.environ.get("REPRO_TEST_FS", "").strip() or "memory"
if STORAGE not in FILESYSTEM_BACKENDS:
    raise pytest.UsageError(
        f"REPRO_TEST_FS={STORAGE!r}; known backends: "
        f"{', '.join(FILESYSTEM_BACKENDS)}"
    )
_SPILL = os.environ.get("REPRO_TEST_SPILL_THRESHOLD", "").strip()
SPILL_THRESHOLD = int(_SPILL) if _SPILL else None


def pytest_collection_modifyitems(config, items):
    """Tag every test that runs on the cluster backend.

    Any test parametrized (directly or via a fixture) with the value
    ``"cluster"`` gets the ``cluster`` marker, so the multi-process
    backend can be selected (``-m cluster``) or skipped
    (``-m "not cluster"``) without per-test bookkeeping.  Tests in the
    dedicated cluster module mark themselves via ``pytestmark``.
    """
    for item in items:
        callspec = getattr(item, "callspec", None)
        if callspec and "cluster" in callspec.params.values():
            item.add_marker(pytest.mark.cluster)


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    """Each configured execution backend in turn."""
    return request.param


@pytest.fixture(params=EXECUTOR_BACKENDS)
def all_backends(request) -> str:
    """Every *registered* backend, ignoring the env narrowing.

    ``backend`` follows REPRO_TEST_BACKENDS so CI matrix jobs can run
    one cell at a time; this fixture always cycles the full registry
    (serial, cluster) — for the registry-driven
    smoke tests that must prove each backend at least boots and agrees,
    no matter how the matrix is narrowed.
    """
    return request.param


@pytest.fixture
def runtime(backend, tmp_path) -> MapReduceRuntime:
    """A default 4x4 simulated cluster, parametrized over backends.

    Tests using this fixture run once per execution backend; jobs they
    submit must therefore be picklable (module-level classes).  Storage
    (filesystem backend + spill threshold) follows REPRO_TEST_FS /
    REPRO_TEST_SPILL_THRESHOLD, defaulting to in-memory with no spill.
    """
    if STORAGE == "memory":
        storage = None
    else:
        storage = LocalDiskFileSystem(root=str(tmp_path / "dfs"))
    return MapReduceRuntime(
        num_map_tasks=4,
        num_reduce_tasks=4,
        counters=Counters(),
        backend=backend,
        storage=storage,
        spill_threshold=SPILL_THRESHOLD,
        spill_dir=str(tmp_path / "spills"),
    )


@pytest.fixture
def single_task_runtime() -> MapReduceRuntime:
    """A 1x1 cluster — used to check task-count independence."""
    return MapReduceRuntime(
        num_map_tasks=1, num_reduce_tasks=1, counters=Counters()
    )


@pytest.fixture
def rng() -> random.Random:
    """A seeded RNG for deterministic randomized tests."""
    return random.Random(0xC0FFEE)
