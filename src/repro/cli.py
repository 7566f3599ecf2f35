"""Command-line interface: generate datasets, join, match, experiment.

The CLI mirrors how the paper's system would be operated as batch
jobs::

    repro generate flickr-small --scale 0.2 --out /tmp/fs
    repro join /tmp/fs --sigma 4.0 --method mapreduce --backend cluster
    repro join /tmp/fs --sigma 4.0 --method mapreduce --fs disk \
        --spill-threshold 1000
    repro match /tmp/fs --sigma 4.0 --alpha 2.0 --algorithm greedy_mr \
        --backend cluster --out /tmp/fs/matching.tsv
    repro serve /tmp/fs --sigma 4.0 --events 200 --batch-size 32
    repro experiment --only fig5 --scale 0.5

``--backend {serial,cluster}`` selects the execution backend
of the simulated cluster for the MapReduce paths; ``--fs
{memory,disk}`` selects its storage backend (inter-job datasets and
parked resident state in RAM or as on-disk JSONL), and
``--spill-threshold N`` bounds the shuffle buffers — map outputs
beyond ``N`` records per reduce partition are sorted and spilled to
disk runs, then k-way merged at reduce time — as well as the resident
state store's parking point.  The ``*_mr`` algorithms keep node state
resident between rounds and shuffle only messages.  Results are
bit-identical across all three knobs; the spill counters report the
extra IO.

``generate`` persists the item/consumer vectors, activity, and quality
signals as TSV (via :mod:`repro.mapreduce.storage.tsvio`); ``join``
materializes candidate edges; ``match`` builds the Problem-1 instance
(capacities per §4) and writes the matched edges; ``serve`` keeps the
matching *warm* — it bootstraps the online service from the corpus
graph and streams seeded Zipf live events (arrivals, re-scores,
budget retunes, retirements; :mod:`repro.telemetry.loadgen`) through
micro-batched incremental re-convergence, reporting coalescing,
latency percentiles, and the cold-batch verification; ``experiment``
runs the paper's tables and figures from
:data:`repro.experiments.figures.EXPERIMENTS` and prints each report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from typing import Any, List, Optional

from .datasets import load_dataset
from .datasets.base import Dataset
from .datasets.registry import DATASETS
from .experiments.figures import EXPERIMENTS
from .graph import BipartiteGraph, write_capacities, write_edges
from .mapreduce import (
    EXECUTOR_BACKENDS,
    FILESYSTEM_BACKENDS,
    MapReduceRuntime,
    RetryPolicy,
)
from .mapreduce.storage import (
    read_scalars,
    read_vectors,
    write_scalars,
    write_vectors,
)
from .matching import ALGORITHMS, solve
from .simjoin import candidate_edges

__all__ = ["main", "build_parser"]


def _profile_summary(runtime: Optional[MapReduceRuntime]) -> str:
    """Per-phase wall-clock report for ``--profile``, or '' without a
    simulated cluster (the centralized engines have no phases)."""
    if runtime is None:
        return "phase timings: n/a (no simulated cluster in this run)"
    timings = runtime.phase_timings
    spill = timings.get("spill", 0.0)
    spill_note = f" (spill {spill:.3f}s)" if spill else ""
    return (
        f"phase timings: map {timings['map']:.3f}s | "
        f"shuffle {timings['shuffle']:.3f}s{spill_note} | "
        f"reduce {timings['reduce']:.3f}s "
        f"[{runtime.jobs_executed} jobs]"
    )


def _serve_profile_summary(runtime: MapReduceRuntime) -> str:
    """The serving variant of ``--profile``: cumulative across flushes.

    The phase gauges live on the runtime's metrics registry and
    accumulate over *every* flush's re-convergence jobs (the registry
    is the source of truth — nothing resets between flushes), and the
    matcher meters its admit/re-converge stages into the same registry,
    so the report covers the whole serving session including the
    earliest flushes.
    """
    admit = runtime.metrics.gauge("service", "admit_seconds").value
    reconverge = runtime.metrics.gauge(
        "service", "reconverge_seconds"
    ).value
    return (
        _profile_summary(runtime)
        + "\n"
        + f"flush stages (cumulative over all flushes): "
        f"admit {admit:.3f}s | reconverge {reconverge:.3f}s"
    )


def _make_tracer(args: argparse.Namespace):
    """A :class:`~repro.telemetry.Tracer` when ``--trace`` was given."""
    if not getattr(args, "trace", None):
        return None
    from .telemetry import Tracer

    return Tracer()


def _report_run(
    args: argparse.Namespace,
    runtime: Optional[MapReduceRuntime],
    tracer,
    profile=_profile_summary,
) -> None:
    """The lines a join, match or serve run ends with: what the shuffle
    spilled (if anything), ``--profile`` and the ``--trace`` export."""
    counters = runtime.counters if runtime is not None else None
    if counters is not None and counters.get("runtime", "spilled_records"):
        print(
            f"shuffle spilled {counters.get('runtime', 'spilled_records')} "
            f"records across {counters.get('runtime', 'spill_files')} "
            f"runs ({counters.get('runtime', 'spilled_bytes')} bytes)"
        )
    if args.profile:
        print(profile(runtime))
    if tracer is not None:
        count = tracer.export(args.trace)
        print(f"span log: {count} spans -> {args.trace}")


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    os.makedirs(args.out, exist_ok=True)
    write_vectors(os.path.join(args.out, "items.tsv"), dataset.items)
    write_vectors(
        os.path.join(args.out, "consumers.tsv"), dataset.consumers
    )
    write_scalars(
        os.path.join(args.out, "activity.tsv"), dataset.consumer_activity
    )
    write_scalars(
        os.path.join(args.out, "quality.tsv"), dataset.item_quality
    )
    with open(
        os.path.join(args.out, "meta.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "name": dataset.name,
                "capacity_scheme": dataset.capacity_scheme,
                "seed": args.seed,
                "scale": args.scale,
            },
            handle,
        )
    print(
        f"wrote {dataset.num_items} items / "
        f"{dataset.num_consumers} consumers to {args.out}"
    )
    return 0


def _corpus_dataset(directory: str) -> Dataset:
    """The :class:`Dataset` a ``generate`` run wrote to ``directory``."""
    with open(
        os.path.join(directory, "meta.json"), "r", encoding="utf-8"
    ) as handle:
        meta = json.load(handle)
    return Dataset(
        name=meta["name"],
        items=read_vectors(os.path.join(directory, "items.tsv")),
        consumers=read_vectors(os.path.join(directory, "consumers.tsv")),
        consumer_activity=read_scalars(
            os.path.join(directory, "activity.tsv")
        ),
        item_quality=read_scalars(os.path.join(directory, "quality.tsv")),
        capacity_scheme=meta["capacity_scheme"],
    )


def _make_runtime(args: argparse.Namespace, **overrides) -> MapReduceRuntime:
    """The simulated cluster the shared cluster options describe;
    ``overrides`` replace or extend its constructor arguments."""
    options = dict(
        backend=args.backend,
        max_workers=args.workers,
        storage=args.fs,
        spill_threshold=args.spill_threshold,
    )
    if args.max_task_attempts is not None or args.task_timeout is not None:
        options["retry_policy"] = RetryPolicy(
            max_attempts=args.max_task_attempts or 1,
            task_timeout=args.task_timeout,
        )
    options.update(overrides)
    return MapReduceRuntime(**options)


def _cmd_join(args: argparse.Namespace) -> int:
    dataset = _corpus_dataset(args.corpus)
    runtime = None
    tracer = None
    if args.method == "mapreduce":
        tracer = _make_tracer(args)
        runtime = _make_runtime(args, tracer=tracer)
    start = time.perf_counter()
    edges = candidate_edges(
        dataset.items,
        dataset.consumers,
        args.sigma,
        method=args.method,
        runtime=runtime,
    )
    elapsed = time.perf_counter() - start
    out = args.out or os.path.join(args.corpus, "edges.tsv")
    write_edges(out, edges)
    engine = args.method
    if runtime is not None:
        engine = f"{args.method}/{runtime.backend}/{runtime.storage}"
    print(
        f"{len(edges)} candidate edges >= {args.sigma} "
        f"({engine}, {elapsed:.2f}s) -> {out}"
    )
    _report_run(args, runtime, tracer)
    if runtime is not None and runtime.storage == "disk":
        print(f"dfs root: {runtime.filesystem.root}")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    dataset = _corpus_dataset(args.corpus)
    graph = dataset.graph(sigma=args.sigma, alpha=args.alpha)
    kwargs = {}
    if args.algorithm.startswith("stack"):
        kwargs["epsilon"] = args.epsilon
        kwargs["seed"] = args.seed
    runtime = None
    tracer = None
    if "_mr" in args.algorithm:
        # Only the MapReduce adaptations take a simulated cluster; the
        # centralized solvers ignore the backend/storage choices.  --fs
        # backs the resident state store, so node records park
        # out-of-core between rounds once --spill-threshold is
        # exceeded; --spill-threshold also bounds every round's shuffle.
        tracer = _make_tracer(args)
        runtime = _make_runtime(args, tracer=tracer)
        kwargs["runtime"] = runtime
    start = time.perf_counter()
    result = solve(graph, args.algorithm, **kwargs)
    elapsed = time.perf_counter() - start
    report = result.violations(graph.capacities())
    out = args.out or os.path.join(args.corpus, "matching.tsv")
    write_edges(out, result.matching.edges())
    print(
        f"{result.algorithm}: value={result.value:,.2f} "
        f"edges={len(result.matching)} rounds={result.rounds} "
        f"mr_jobs={result.mr_jobs} "
        f"avg_violation={report.average_violation:.4f} "
        f"({elapsed:.2f}s) -> {out}"
    )
    _report_run(args, runtime, tracer)
    if args.capacities_out:
        write_capacities(args.capacities_out, graph.capacities())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Drive the online matching service over a Zipf live stream.

    Bootstraps an :class:`~repro.service.OnlineMatcher` from the
    corpus's Problem-1 graph (same ``--sigma``/``--alpha`` path as
    ``match``), then submits ``--events`` generated arrivals /
    re-scores / retunes / retirements through the asyncio facade's
    micro-batching and reports coalescing, latency percentiles,
    throughput, and the cold-batch verification.
    """
    import asyncio

    from .service import MatchingService, OnlineMatcher
    from .telemetry.loadgen import zipf_events

    dataset = _corpus_dataset(args.corpus)
    graph = dataset.graph(sigma=args.sigma, alpha=args.alpha)
    events, _ = zipf_events(graph, args.events, seed=args.seed)
    tracer = _make_tracer(args)
    runtime = _make_runtime(args, tracer=tracer)
    matcher = OnlineMatcher(runtime=runtime, graph=graph)
    service = MatchingService(
        matcher,
        max_batch=args.batch_size,
        max_delay=args.max_delay_ms / 1000.0,
    )
    exporter = None
    if args.metrics_port is not None:
        from .telemetry import MetricsExporter

        exporter = MetricsExporter(
            registry=runtime.metrics,
            extra_metrics=service.metrics,
            port=args.metrics_port,
        ).start()
        print(
            f"metrics endpoint: {exporter.url}/metrics "
            f"(JSON at /metrics.json)"
        )

    async def drive():
        # Verification must run before close() releases the resident
        # stores, so it lives inside the service's lifetime.
        async with service:
            await asyncio.gather(
                *(service.submit_event(event) for event in events)
            )
            snap = await service.snapshot()
            check = matcher.verify() if args.verify else None
            return snap, check

    start = time.perf_counter()
    try:
        snapshot, verification = asyncio.run(drive())
    finally:
        if exporter is not None:
            exporter.stop()
    elapsed = time.perf_counter() - start
    metrics = service.metrics()
    print(
        f"serve: {metrics['events_admitted']:.0f} events admitted "
        f"({metrics['events_rejected']:.0f} rejected) in "
        f"{metrics['batches_flushed']:.0f} flushes "
        f"(coalescing x{metrics['coalescing_ratio']:.1f}) "
        f"over {elapsed:.2f}s"
    )
    print(
        f"matching: {snapshot['matched_edges']} edges "
        f"value={snapshot['value']:,.2f} across "
        f"{snapshot['nodes']} nodes / "
        f"{snapshot['candidate_edges']} candidate edges"
    )
    print(
        f"latency: p50={metrics['latency_p50_ms']:.1f}ms "
        f"p95={metrics['latency_p95_ms']:.1f}ms "
        f"p99={metrics['latency_p99_ms']:.1f}ms "
        f"throughput={metrics['throughput_events_per_s']:,.0f} ev/s "
        f"flushes/s={metrics['flushes_per_sec']:,.1f} "
        f"rounds={metrics['reconverge_rounds']:.0f}"
    )
    _report_run(args, runtime, tracer, profile=_serve_profile_summary)
    if verification is not None:
        identical, cold_value = verification
        status = "identical" if identical else "MISMATCH"
        print(
            f"cold-batch check: {status} "
            f"(cold value={cold_value:,.2f})"
        )
        if not identical:
            return 1
    return 0


#: ``repro chaos``'s line for a run of each half: its status words
#: (failed, passed), then the counts it prints after the injected
#: total, where ``f`` maps a ``faults`` counter to its value (0 unset).
_CHAOS_LINES = {
    "runtime": (
        ("DIVERGED", "bit-identical"),
        "(crashes {f[injected_crash]}, delays {f[injected_delay]}, "
        "io {f[injected_io]}, kills {f[injected_worker_kill]}, "
        "drops {f[injected_drop_frame]}), task retries "
        "{f[task.retries]}, resubmits {f[task.resubmits]}, respawns "
        "{f[pool.respawns]}, storage retries {f[storage.retries]}",
    ),
    "service": (
        ("MISMATCH", "verified"),
        "(flush {f[injected_flush]}, crashes {f[injected_crash]}, "
        "delays {f[injected_delay]}, io {f[injected_io]}, kills "
        "{f[injected_worker_kill]}, drops {f[injected_drop_frame]}), "
        "flush retries {f[flush.retries]}, task retries "
        "{f[task.retries]}",
    ),
}


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Replay one fault plan per seed through :func:`repro.chaos.chaos`
    and print a line per run; exits 1 unless every run passed."""
    from collections import Counter

    from .chaos import chaos
    from .mapreduce import FaultPlan

    # Each --*-rate option is the FaultPlan field of the same name.
    rates = {k: v for k, v in vars(args).items() if k.endswith("_rate")}
    plans = [FaultPlan(s, delay_seconds=0.0, **rates) for s in args.seeds]
    attempts = args.max_task_attempts or 3
    policy = RetryPolicy(max_attempts=attempts, task_timeout=args.task_timeout)
    workload = (args.nodes, args.seed, args.events)
    failures = 0
    for run in chaos(partial(_make_runtime, args), plans, policy, *workload):
        words, counts = _CHAOS_LINES[run.half]
        status = words[run.identical]
        if not run.injected:
            status += " (but zero faults injected)"
        print(
            f"{run.half} seed {run.seed}: {status} — injected "
            f"{run.injected} " + counts.format(f=Counter(run.faults))
        )
        failures += not run.passed
    if failures:
        print(f"chaos: {failures} run(s) diverged or injected nothing")
        return 1
    print(
        f"chaos: all {2 * len(plans)} runs recovered bit-identically "
        f"under injected faults"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a span log (written via ``--trace``) as a timing tree."""
    from .telemetry import load_spans, render_spans

    try:
        spans = load_spans(args.span_log)
    except (OSError, ValueError) as exc:
        # Reported like an argparse usage error: exit 2, no traceback.
        print(
            f"repro trace: error: cannot read span log "
            f"{args.span_log!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    if not spans:
        print(f"{args.span_log}: no spans recorded")
        return 0
    print(render_spans(spans, max_tasks_per_parent=args.max_tasks))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run the selected experiments (default: the whole menu) in
    order, printing each report and its wall-clock."""
    for name in args.only or EXPERIMENTS:
        start = time.perf_counter()
        print(EXPERIMENTS[name](args.scale, args.seed))
        print(
            f"[{name} completed in "
            f"{time.perf_counter() - start:.1f}s]\n"
        )
    return 0


def _number(text: str, kind: type) -> Any:
    """Parse an argparse value as ``kind`` (``int`` or ``float``)."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}"
        ) from None


def _nonnegative(value: Any) -> Any:
    """``value`` if it is >= 0.  ``nan`` fails too: ``nan >= 0`` is false."""
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for --spill-threshold, serve --events and trace
    --max-tasks: an integer >= 0."""
    return _nonnegative(_number(text, int))


def _nonnegative_float(text: str) -> float:
    """argparse type for --max-delay-ms: a float >= 0."""
    return _nonnegative(_number(text, float))


def _positive(value: Any) -> Any:
    """``value`` if it is > 0.  ``nan`` fails too: ``nan > 0`` is false."""
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for --workers, --batch-size, --max-task-attempts
    and chaos --events/--nodes: an integer > 0."""
    return _positive(_number(text, int))


def _probability(text: str) -> float:
    """argparse type for the chaos --*-rate flags: a float in [0, 1].
    ``nan`` fails too: every comparison with it is false."""
    value = _number(text, float)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _port(text: str) -> int:
    """argparse type for serve --metrics-port: a TCP port in
    [0, 65535] (0 picks an ephemeral port)."""
    value = _number(text, int)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 65535], got {value}"
        )
    return value


def _seed_list(text: str) -> List[int]:
    """argparse type for chaos --seeds: comma-separated integers.

    Every token must parse, so ``""`` and ``"1,,2"`` are rejected: a
    run over no seeds would pass vacuously.
    """
    return [_number(token, int) for token in text.split(",")]


def _experiment_list(text: str) -> List[str]:
    """argparse type for experiment --only: comma-separated names from
    :data:`~repro.experiments.figures.EXPERIMENTS`.

    Every token must name an experiment, so ``""`` and ``",,"`` are
    rejected like chaos --seeds: a run of no experiments would pass
    vacuously.
    """
    names = [token.strip() for token in text.split(",")]
    if "" in names:
        raise argparse.ArgumentTypeError(
            f"empty experiment name in {text!r}"
        )
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown experiments {unknown}; choose from "
            + ", ".join(EXPERIMENTS)
        )
    return names


def _positive_float(text: str) -> float:
    """argparse type for --sigma, --alpha, --epsilon, --scale and
    --task-timeout."""
    return _positive(_number(text, float))


def _corpus_dir(text: str) -> str:
    """argparse type for the join/match/serve corpus: a directory
    written by ``repro generate``, which always holds ``meta.json``."""
    if not os.path.isfile(os.path.join(text, "meta.json")):
        raise argparse.ArgumentTypeError(
            f"no meta.json in {text!r}; write the corpus with "
            "'repro generate' first"
        )
    return text


def _output_path(text: str) -> str:
    """argparse type for --out, --capacities-out and --trace: a file
    path in an existing directory, so a run never fails at its last
    write after the work is done."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"directory {directory!r} does not exist"
        )
    return text


def _add_cluster_options(
    parser: argparse.ArgumentParser, applies_to: str
) -> None:
    """The simulated-cluster knobs shared by ``join``, ``match``,
    ``serve`` and ``chaos``."""
    parser.add_argument(
        "--backend",
        default="serial",
        choices=EXECUTOR_BACKENDS,
        help="execution backend for the simulated cluster "
        f"({applies_to})",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="daemon-fleet size for the cluster backend (default: "
        f"the CPU count, at most 4; {applies_to})",
    )
    parser.add_argument(
        "--fs",
        default="memory",
        choices=FILESYSTEM_BACKENDS,
        help="storage backend for inter-job datasets: 'memory' keeps "
        "them in RAM, 'disk' persists them as JSONL under a "
        f"temporary dfs root ({applies_to})",
    )
    parser.add_argument(
        "--spill-threshold",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="external shuffle: sort-and-spill a reduce partition's "
        "map outputs to disk runs once its buffer exceeds N records "
        "(default: keep the whole shuffle in memory; results are "
        "identical either way)",
    )
    parser.add_argument(
        "--max-task-attempts",
        type=_positive_int,
        default=None,
        metavar="N",
        help="retry failed task attempts, storage operations, and "
        "flushes up to N total attempts each (default 1: no retries; "
        "failed attempts discard their counters, so totals stay "
        f"bit-identical; {applies_to})",
    )
    parser.add_argument(
        "--task-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="straggler mitigation on the cluster backend: tasks still "
        "running after SECONDS get a speculative backup attempt and "
        f"the first finisher wins ({applies_to})",
    )


def _add_report_options(
    parser: argparse.ArgumentParser, applies_to: str
) -> None:
    """``--profile`` and ``--trace``, on the runs that end with
    :func:`_report_run` (``join``, ``match`` and ``serve``)."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase wall-clock (map/shuffle/spill/reduce) "
        "accumulated over every MapReduce job of the run "
        f"({applies_to})",
    )
    parser.add_argument(
        "--trace",
        type=_output_path,
        metavar="PATH",
        default=None,
        help="record a job->phase->task span tree for every MapReduce "
        "job of the run and write it as a JSON span log to PATH "
        f"(render it with 'repro trace PATH'; {applies_to})",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Social Content Matching in MapReduce (VLDB 2011) — "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a synthetic dataset to a directory"
    )
    generate.add_argument("dataset", choices=sorted(DATASETS))
    generate.add_argument("--out", required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--scale", type=_positive_float, default=1.0)
    generate.set_defaults(func=_cmd_generate)

    join = sub.add_parser(
        "join", help="compute candidate edges for a generated corpus"
    )
    join.add_argument(
        "corpus", type=_corpus_dir, help="directory written by 'generate'"
    )
    join.add_argument("--sigma", type=_positive_float, required=True)
    join.add_argument(
        "--method",
        default="auto",
        choices=("auto", "exact", "scipy", "mapreduce"),
    )
    _add_cluster_options(join, "mapreduce method only")
    _add_report_options(join, "mapreduce method only")
    join.add_argument("--out", type=_output_path)
    join.set_defaults(func=_cmd_join)

    match = sub.add_parser(
        "match", help="solve the b-matching for a generated corpus"
    )
    match.add_argument(
        "corpus", type=_corpus_dir, help="directory written by 'generate'"
    )
    match.add_argument("--sigma", type=_positive_float, required=True)
    match.add_argument("--alpha", type=_positive_float, default=2.0)
    match.add_argument(
        "--algorithm", default="greedy_mr", choices=sorted(ALGORITHMS)
    )
    match.add_argument("--epsilon", type=_positive_float, default=1.0)
    _add_cluster_options(match, "*_mr algorithms only")
    _add_report_options(match, "*_mr algorithms only")
    match.add_argument("--seed", type=int, default=0)
    match.add_argument("--out", type=_output_path)
    match.add_argument("--capacities-out", type=_output_path)
    match.set_defaults(func=_cmd_match)

    serve = sub.add_parser(
        "serve",
        help="drive the online matching service over a synthetic "
        "live event stream",
    )
    serve.add_argument(
        "corpus", type=_corpus_dir, help="directory written by 'generate'"
    )
    serve.add_argument("--sigma", type=_positive_float, required=True)
    serve.add_argument("--alpha", type=_positive_float, default=2.0)
    serve.add_argument(
        "--events",
        type=_nonnegative_int,
        default=50,
        help="number of synthetic live events to stream (default 50)",
    )
    serve.add_argument(
        "--batch-size",
        type=_positive_int,
        default=16,
        metavar="N",
        help="flush the pending micro-batch at N events (default 16)",
    )
    serve.add_argument(
        "--max-delay-ms",
        type=_nonnegative_float,
        default=50.0,
        metavar="MS",
        help="flush at latest MS milliseconds after the first pending "
        "event (default 50)",
    )
    serve.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="check the final incremental matching against a cold "
        "batch on the final graph (default on; exits 1 on mismatch)",
    )
    serve.add_argument(
        "--metrics-port",
        type=_port,
        default=None,
        metavar="PORT",
        help="serve the metrics registry over HTTP on 127.0.0.1:PORT "
        "while events stream: Prometheus text format at /metrics, "
        "JSON at /metrics.json (0 picks an ephemeral port)",
    )
    _add_cluster_options(serve, "all re-convergences")
    _add_report_options(serve, "all re-convergences")
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=_cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection smoke: inject seeded "
        "crashes/delays/storage errors and prove recovery keeps "
        "results bit-identical",
    )
    chaos.add_argument(
        "--seeds",
        type=_seed_list,
        default=[1, 2, 3],
        help="comma-separated fault-plan seeds (default 1,2,3; each "
        "seed reproduces one whole failure scenario)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="workload seed for the synthetic graph and event stream",
    )
    chaos.add_argument(
        "--nodes",
        type=_positive_int,
        default=12,
        help="graph size: N items + N consumers (default 12)",
    )
    chaos.add_argument(
        "--events",
        type=_positive_int,
        default=24,
        help="synthetic live events for the service smoke (default 24)",
    )
    chaos.add_argument("--crash-rate", type=_probability, default=0.3)
    chaos.add_argument("--delay-rate", type=_probability, default=0.15)
    chaos.add_argument("--io-rate", type=_probability, default=0.2)
    chaos.add_argument("--flush-rate", type=_probability, default=0.5)
    chaos.add_argument(
        "--worker-kill-rate",
        type=_probability,
        default=0.0,
        help="cluster-backend fault kind: probability a task's first "
        "attempt hard-kills its worker daemon mid-execution "
        "(degrades to a plain injected crash on other backends)",
    )
    chaos.add_argument(
        "--frame-drop-rate",
        type=_probability,
        default=0.0,
        help="cluster-backend fault kind: probability a task's reply "
        "frame is dropped on the wire after the work completed "
        "(degrades to a plain injected crash on other backends)",
    )
    _add_cluster_options(chaos, "all chaos runs")
    chaos.set_defaults(func=_cmd_chaos)

    trace = sub.add_parser(
        "trace",
        help="render a JSON span log written by --trace as an "
        "indented timing tree",
    )
    trace.add_argument(
        "span_log", help="path written by 'repro ... --trace PATH'"
    )
    trace.add_argument(
        "--max-tasks",
        type=_nonnegative_int,
        default=4,
        metavar="N",
        help="show at most N task spans per parent, eliding the rest "
        "into a summary line (default 4)",
    )
    trace.set_defaults(func=_cmd_trace)

    experiment = sub.add_parser(
        "experiment", help="reproduce the paper's tables and figures"
    )
    experiment.add_argument("--scale", type=_positive_float, default=1.0)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--only",
        type=_experiment_list,
        default=None,
        metavar="NAMES",
        help="comma-separated subset of: " + ", ".join(EXPERIMENTS)
        + " (default: all, in that order)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed early (`repro trace ... | head`); exit
        # quietly without a traceback, devnull-ing stdout so the
        # interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
