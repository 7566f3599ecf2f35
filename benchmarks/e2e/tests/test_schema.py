"""BENCHMARK.json is well-formed and the smoke run emits all of it."""

import json
import os
import re
import shutil
import subprocess
import sys

from conftest import E2E, ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert spec["paths"] == ["benchmarks/e2e"]
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_smoke_run_emits_every_declared_name_without_failures(spec, smoke):
    results, seconds = smoke
    assert seconds < 30, "the smoke preset must stay under 30 s"
    assert set(results["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, summary in results["workloads"].items():
        assert summary["failed"] == 0, (name, summary["failures"])
        assert summary["failed_ratio"] == 0
        assert set(summary["metrics"]) == {
            m["name"] for m in spec["end_to_end"]
        }, name
        assert set(summary["layers"]) == {
            m["name"] for m in spec["per_layer"]
        }, name
        for metric, stats in summary["metrics"].items():
            assert stats["median"] > 0, (name, metric)


def test_layers_close_and_workloads_isolate_what_they_claim(smoke):
    workloads = smoke[0]["workloads"]

    def layer(name, metric):
        return workloads[name]["layers"][metric]["median"]

    for name in workloads:
        # One traced run per workload, so the medians are that run's
        # values: the self times the report names must cover its clock.
        covered = layer(name, "bench.unattributed_s") + sum(
            stats["median"]
            for metric, stats in workloads[name]["layers"].items()
            if metric.endswith(".self_s")
        )
        wall_s = layer(name, "bench.traced_wall_s")
        assert abs(covered - wall_s) < 0.01 * wall_s, name
        spilled = layer(name, "storage.spilled_records")
        frames = layer(name, "cluster.frames")
        assert (spilled > 0) == (name == "join_spill"), name
        assert (frames > 0) == (name == "join_cluster"), name
    joins = [workloads[name] for name in ("join_mem", "join_spill", "join_cluster")]
    for key in ("shuffle_records", "mr_jobs"):
        assert len({j["metrics"][key]["median"] for j in joins}) == 1
    assert len({j["layers"]["simjoin.output_edges"]["median"] for j in joins}) == 1
    for name in ("greedy_match", "stack_match"):
        assert layer(name, "storage.fs_write_s") == 0
        assert layer(name, "simjoin.self_s") == 0


def test_environment_block(smoke):
    environment = smoke[0]["environment"]
    assert {"nproc", "python", "load_average_1m", "noisy", "git_sha",
            "seed", "repeats", "size"} <= set(environment)
    assert environment["noisy"] == (
        environment["load_average_1m"] > environment["nproc"]
    )
    assert environment["repeats"] == 1
    assert all(w["repeats"] == 1 for w in smoke[0]["workloads"].values())


def test_contract_line_and_refusal_without_the_program(spec, tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), "--size", "smoke",
         "--workload", "greedy_match", "--seed", "3", "--seconds", "1",
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 3  # at least three fresh processes
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name] and metric["value"] > 0

    # A directory with the benchmark but no program: refuse, print no result.
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copytree(
        E2E, bare / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    refused = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "join_mem",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert refused.returncode != 0 and refused.stdout.strip() == ""
