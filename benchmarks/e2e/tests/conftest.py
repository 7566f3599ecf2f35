"""Tests of the benchmark harness itself.

    python -m pytest benchmarks/e2e/tests -q

Not part of the tier-1 suite (``testpaths = ["tests"]``): these check
the measuring instrument, not the program.
"""

import json
import os
import subprocess
import sys
import time

import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
for path in (E2E, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """One traced smoke set of all seven workloads: (results, seconds)."""
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), "--size", "smoke",
         "--repeats", "1", "--trace", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120,
    )
    seconds = time.monotonic() - started
    assert done.returncode == 0, done.stdout
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), seconds
