#!/usr/bin/env python3
"""The benchmark of record: one command, every end-to-end metric.

    python benchmarks/e2e/run.py                      # all workloads
    python benchmarks/e2e/run.py --workload join_mem --repeats 5
    python benchmarks/e2e/run.py --trace              # per-layer pass
    python benchmarks/e2e/run.py --self-check         # two sets, compared
    python benchmarks/e2e/run.py --size smoke         # < 30 s, for tests

and, as ``BENCHMARK.json`` runs it,

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

which ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.

Every (workload, repeat) runs in a **fresh child process**, strictly
one after another: ``peak_rss_mb`` and pool state are per run, and the
load generator shares its process with nothing but the service under
test.  End-to-end metrics are always measured with tracing off;
``--trace`` adds, after each untraced run, a traced run of the same
inputs for the per-layer numbers and ``out/trace_<workload>.jsonl``,
and the gap between the two is ``bench.trace_overhead_ratio``.
Outputs are checked against an oracle computed in set-up, after the
clock has stopped; a wrong answer is counted, printed, leaves no
number behind and makes this command exit non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: ``--seconds``: at least this many repeats however long each takes …
MIN_REPEATS = 3
#: … and never more, however short.
MAX_REPEATS = 12
#: A child normally ends within ten seconds.  One that does not is
#: killed and counted as a failed operation, early enough that the
#: invocation still ends within the driver's 180 s.
CHILD_TIMEOUT_S = 120


def load_spec() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- the child: one workload, one run ------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Set up, run and check one workload; print one JSON line."""
    import gc
    import resource

    started = time.perf_counter()  # set-up includes importing the program
    sys.path.insert(0, SRC)
    import loadgen
    import workloads

    recorder = None
    if args.trace:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder(layers.layer_of)
        layers.install(recorder)

    workload = workloads.WORKLOADS[args.workload[0]](
        args.size, args.seed, tracer=recorder
    )
    workload.setup()
    setup_s = time.perf_counter() - started

    runtime = workload.runtime
    before = runtime.counters.snapshot()
    spill_before = runtime.phase_timings["spill"]
    gc.collect()
    first = len(recorder.spans) if recorder is not None else 0
    with (
        recorder.span("bench.run", layer="bench", new_trace=True)
        if recorder is not None
        else contextlib.nullcontext()
    ):
        started = time.perf_counter()
        output = workload.run()
        wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = runtime.counters.snapshot()
    counters = {
        group: {
            name: value - before.get(group, {}).get(name, 0)
            for name, value in names.items()
        }
        for group, names in after.items()
    }

    outcome = workload.outcome(output)
    latencies_ms = [1000.0 * s for s in outcome.latencies or [wall_s]]
    tail_ms, tail_rank = loadgen.tail_latency(latencies_ms)
    result: Dict[str, Any] = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "digest": outcome.digest,
        "latency_samples": len(latencies_ms),
        "latency_tail_rank": tail_rank,
        "metrics": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "edges_per_s": outcome.edges / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "mr_jobs": counters["runtime"]["jobs"],
            "shuffle_records": counters["runtime"]["shuffle.records"],
            "events_per_s": outcome.attempted / wall_s,
            "event_latency_p50_ms": loadgen.percentile(latencies_ms, 50),
            "event_latency_p95_ms": tail_ms,
        },
    }
    if recorder is not None:
        facts = dict(outcome.facts)
        facts.update(workload.setup_seconds)
        facts["workers"] = getattr(runtime.executor, "max_workers", 1)
        facts["reduce_tasks"] = runtime.num_reduce_tasks
        facts["spill_s"] = runtime.phase_timings["spill"] - spill_before
        facts["wall_s"] = wall_s
        result["layers"] = layers.per_layer(
            recorder.spans[first:], counters, facts
        )
        os.makedirs(OUT, exist_ok=True)
        recorder.write_jsonl(
            os.path.join(OUT, f"trace_{workload.name}.jsonl")
        )
    workload.close()
    print(json.dumps(result))
    return 0


# -- the parent: spawn, aggregate, report --------------------------------------


def run_child(
    workload: str, seed: int, size: str, traced: bool
) -> Dict[str, Any]:
    """One fresh process; its temporary files stay under ``out/``.

    A child that raises, is killed or outlives ``CHILD_TIMEOUT_S`` is a
    failed operation like a wrong answer: the result says so and holds
    no metrics.  The child leads its own process group, which is killed
    once the child has ended, so that no cluster worker outlives a
    child that did not get to close its pool.
    """
    tmp = os.path.join(OUT, "tmp", f"{os.getpid()}-{workload}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp, PYTHONHASHSEED="0")
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", "1" if traced else "0",
    ]
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, start_new_session=True,
    )
    def kill_group() -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)

    reason = None
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reason = f"timed out after {CHILD_TIMEOUT_S} s"
        kill_group()  # workers too: they hold the pipes open
        stdout, stderr = child.communicate()
    finally:
        kill_group()
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(stderr)
    if reason is None and child.returncode != 0:
        last = (stderr.strip().splitlines() or ["no message"])[-1]
        reason = f"exited with code {child.returncode}: {last}"
    if reason is not None:
        return {
            "attempted": 1,
            "failed": 1,
            "failures": [f"the {workload} process {reason}"],
            "digest": None,
            "metrics": {},
        }
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def collect(
    name: str,
    seed: int,
    size: str,
    traced: bool,
    repeats: Optional[int],
    seconds: Optional[float],
    sets: int = 1,
) -> List[Dict[str, Any]]:
    """The repeats of one workload: ``{"plain", "traced"}`` per repeat.

    With ``seconds`` the repeats go on until the timed regions add up
    to that long (at least ``MIN_REPEATS``), so a faster program is
    measured over more runs rather than for less time.  A traced pass
    stops at ``MIN_REPEATS`` pairs: per-layer numbers carry no bound,
    and every pair already costs two runs.  The first failed run ends
    the collection (once each of the ``sets`` has as many pairs as the
    others): it will write no number, whatever the rest measure.
    """
    pairs: List[Dict[str, Any]] = []
    measured = 0.0
    failed = False
    while True:
        pair = {"plain": run_child(name, seed, size, traced=False)}
        if traced:
            pair["traced"] = run_child(name, seed, size, traced=True)
        pairs.append(pair)
        failed = failed or any(run["failed"] for run in pair.values())
        if failed:
            if len(pairs) % sets == 0:
                return pairs
            continue
        measured += pair["plain"]["metrics"]["wall_s"]
        if repeats is not None:
            if len(pairs) >= repeats * sets:
                return pairs
        elif len(pairs) >= MAX_REPEATS or (
            len(pairs) >= MIN_REPEATS and (traced or measured >= seconds)
        ):
            return pairs


def aggregate(pairs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians, ranges and the failure count over one set of repeats."""
    runs = [pair["plain"] for pair in pairs]
    traced_runs = [pair["traced"] for pair in pairs if "traced" in pair]
    every = runs + traced_runs
    attempted = sum(run["attempted"] for run in every)
    failed = sum(run["failed"] for run in every)
    failures = [text for run in every for text in run["failures"]]
    for run in every[1:]:
        # The determinism contract, and StackMR's oracle: every repeat
        # of one seed must produce the first repeat's result (a run
        # that crashed has none and is counted already).
        if None not in (run["digest"], every[0]["digest"]) and (
            run["digest"] != every[0]["digest"]
        ):
            failed += run["attempted"] - run["failed"]
            failures.append(
                f"result digest {run['digest']} differs from the first "
                f"repeat's {every[0]['digest']}"
            )
    summary: Dict[str, Any] = {
        "repeats": len(runs),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:10],
        "latency_samples": runs[0].get("latency_samples"),
        "latency_tail_rank": runs[0].get("latency_tail_rank"),
        "metrics": {},
        "layers": {},
    }
    if failed:
        return summary  # no number is written for a wrong answer
    for metric in runs[0]["metrics"]:
        summary["metrics"][metric] = summarize(
            [run["metrics"][metric] for run in runs]
        )
    if traced_runs:
        for metric in traced_runs[0]["layers"]:
            summary["layers"][metric] = summarize(
                [run["layers"][metric] for run in traced_runs]
            )
        summary["layers"]["bench.trace_overhead_ratio"] = summarize(
            [
                pair["traced"]["metrics"]["wall_s"]
                / pair["plain"]["metrics"]["wall_s"] - 1.0
                for pair in pairs
            ]
        )
    return summary


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "load_average_1m": load,
        "noisy": load > nproc,
        "git_sha": sha,
        "seed": args.seed,
        "size": args.size,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def run_sets(
    args: argparse.Namespace, spec: Dict[str, Any], sets: int = 1
) -> List[Dict[str, Any]]:
    """Measure every selected workload; returns one result per set.

    With ``sets > 1`` the sets' repeats alternate (A, B, A, B, …), so
    a slow spell of the machine falls on all sets alike.
    """
    names = args.workload or [w["name"] for w in spec["workloads"]]
    results = [
        {"environment": environment(args), "workloads": {}}
        for _ in range(sets)
    ]
    if results[0]["environment"]["noisy"]:
        print(
            "warning: load average "
            f"{results[0]['environment']['load_average_1m']:.2f} exceeds "
            "the core count; this set is flagged noisy",
            file=sys.stderr,
        )
    for name in names:
        pairs = collect(
            name, args.seed, args.size, bool(args.trace),
            args.repeats, args.seconds, sets,
        )
        for index, result in enumerate(results):
            summary = aggregate(pairs[index::sets])
            result["workloads"][name] = summary
            which = f"set {'AB'[index]}, " if sets > 1 else ""
            print_workload(
                name, f"({which}{summary['repeats']} repeats)", summary, spec
            )
    return results


def print_workload(
    name: str, note: str, summary: Dict[str, Any], spec: Dict[str, Any]
) -> None:
    """Every metric that is a reading of its own on this workload (the
    results file and the driver's line carry the derived ones too)."""
    units = {
        m["name"]: m["unit"]
        for m in spec["end_to_end"] + spec["per_layer"]
    }
    print(f"\n== {name}  {note}")
    print(
        f"  {'failed_ratio':<34}{summary['failed_ratio']:>14.6g} "
        f"{'ratio':<6} ({summary['failed']} of {summary['attempted']} "
        "operations)"
    )
    for text in summary["failures"]:
        print(f"  FAILED: {text}")
    for section in ("metrics", "layers"):
        for metric, stats in summary[section].items():
            if name not in compare.PRIMARY.get(metric, (name,)):
                continue
            note = ""
            if metric == "event_latency_p95_ms":
                note = (
                    f"  p{summary['latency_tail_rank']:g} of "
                    f"{summary['latency_samples']} samples per run"
                )
            print(
                f"  {metric:<34}{stats['median']:>14.6g} "
                f"{units.get(metric, ''):<6} "
                f"[{stats['min']:.6g} .. {stats['max']:.6g}] "
                f"n={stats['n']}{note}"
            )


def write_results(results: Dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {os.path.relpath(path, ROOT)}")


def contract_line(summary: Dict[str, Any], spec: Dict[str, Any], traced: bool):
    """The last line the driver reads: medians under their spec names."""
    section, declared = (
        ("layers", spec["per_layer"]) if traced
        else ("metrics", spec["end_to_end"])
    )
    metrics = {
        m["name"]: {
            "value": summary[section][m["name"]]["median"],
            "unit": m["unit"],
        }
        for m in declared
        if m["name"] in summary[section]
    }
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def self_check(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Two sets of the same commit must agree within the bounds."""
    paths = []
    for tag, results in zip("AB", run_sets(args, spec, sets=2)):
        path = os.path.join(OUT, f"selfcheck_{tag}.json")
        write_results(results, path)
        paths.append(path)
    print()
    return compare.main(paths)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="renaming seed for the generated inputs")
    parser.add_argument("--repeats", type=int,
                        help=f"fresh processes per workload "
                             f"(default {MIN_REPEATS})")
    parser.add_argument("--seconds", type=float,
                        help="repeat until the timed regions add up to "
                             "this long; prints the driver's JSON line "
                             "(needs exactly one --workload)")
    parser.add_argument("--size", default="record",
                        choices=("smoke", "record"),
                        help="record: what BENCHMARK.json runs; smoke: "
                             "all seven workloads in < 30 s, for the tests")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="also run the traced per-layer pass")
    parser.add_argument("--self-check", action="store_true",
                        help="run two sets and compare them")
    parser.add_argument("--out", metavar="PATH",
                        help="results file (default out/results.json, "
                             "out/results_trace.json with --trace)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None and (
        args.repeats is not None or len(args.workload or ()) != 1
    ):
        parser.error("--seconds needs exactly one --workload, no --repeats")
    if args.repeats is None and args.seconds is None:
        args.repeats = MIN_REPEATS
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    spec = load_spec()
    unknown = set(args.workload or ()) - {w["name"] for w in spec["workloads"]}
    if unknown:
        print(f"error: no workload named {sorted(unknown)}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args, spec)
    (results,) = run_sets(args, spec)
    write_results(
        results,
        args.out or os.path.join(
            OUT, "results_trace.json" if args.trace else "results.json"
        ),
    )
    failed = sum(w["failed"] for w in results["workloads"].values())
    if args.seconds is not None:
        summary = results["workloads"][args.workload[0]]
        print(contract_line(summary, spec, bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
