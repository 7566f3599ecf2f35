"""End-to-end tests for the command-line interface."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.figures import EXPERIMENTS
from repro.graph import read_edges
from repro.matching import ALGORITHMS


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("corpus") / "flickr")
    code = main(
        [
            "generate",
            "flickr-small",
            "--out",
            directory,
            "--scale",
            "0.05",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return directory


def test_generate_writes_all_files(corpus_dir, capsys):
    for name in (
        "items.tsv",
        "consumers.tsv",
        "activity.tsv",
        "quality.tsv",
        "meta.json",
    ):
        assert os.path.exists(os.path.join(corpus_dir, name)), name
    with open(os.path.join(corpus_dir, "meta.json")) as handle:
        meta = json.load(handle)
    assert meta["name"] == "flickr-small"
    assert meta["capacity_scheme"] == "quality"


def test_join_writes_edges(corpus_dir, capsys):
    code = main(["join", corpus_dir, "--sigma", "2.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "candidate edges" in out
    edges = list(read_edges(os.path.join(corpus_dir, "edges.tsv")))
    assert edges
    assert all(weight >= 2.0 for _, _, weight in edges)


def test_join_mapreduce_method_matches_exact(corpus_dir, tmp_path):
    exact_path = str(tmp_path / "exact.tsv")
    mr_path = str(tmp_path / "mr.tsv")
    assert (
        main(
            [
                "join",
                corpus_dir,
                "--sigma",
                "3.0",
                "--method",
                "exact",
                "--out",
                exact_path,
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "join",
                corpus_dir,
                "--sigma",
                "3.0",
                "--method",
                "mapreduce",
                "--out",
                mr_path,
            ]
        )
        == 0
    )
    exact_rows = [(t, c) for t, c, _ in read_edges(exact_path)]
    mr_rows = [(t, c) for t, c, _ in read_edges(mr_path)]
    assert exact_rows == mr_rows


def test_join_disk_fs_with_spill_matches_memory(corpus_dir, tmp_path, capsys):
    """The ISSUE acceptance run: --fs disk --spill-threshold spills and
    produces byte-identical candidate edges to the in-memory run."""
    memory_path = str(tmp_path / "memory.tsv")
    disk_path = str(tmp_path / "disk.tsv")
    assert (
        main(
            [
                "join",
                corpus_dir,
                "--sigma",
                "2.0",
                "--method",
                "mapreduce",
                "--out",
                memory_path,
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(
            [
                "join",
                corpus_dir,
                "--sigma",
                "2.0",
                "--method",
                "mapreduce",
                "--fs",
                "disk",
                "--spill-threshold",
                "50",
                "--out",
                disk_path,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "mapreduce/serial/disk" in out
    assert "shuffle spilled" in out
    assert "dfs root:" in out
    with open(memory_path, "rb") as handle:
        memory_bytes = handle.read()
    with open(disk_path, "rb") as handle:
        disk_bytes = handle.read()
    assert memory_bytes == disk_bytes
    assert memory_bytes  # non-trivial corpus


def test_match_accepts_storage_options(corpus_dir, tmp_path, capsys):
    matching_path = str(tmp_path / "matching-disk.tsv")
    code = main(
        [
            "match",
            corpus_dir,
            "--sigma",
            "2.0",
            "--algorithm",
            "greedy_mr",
            "--fs",
            "disk",
            "--spill-threshold",
            "0",
            "--out",
            matching_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "value=" in out
    assert "shuffle spilled" in out
    assert os.path.getsize(matching_path) > 0


def test_match_rejects_removed_plane_flags(corpus_dir, capsys):
    """There is one iteration plane: ``--delta`` / ``--no-delta`` are
    argparse usage errors, not silently accepted no-ops.  So are the
    deleted solvers' names."""
    for extra, error in (
        (["--delta"], "unrecognized arguments: --delta"),
        (["--no-delta"], "unrecognized arguments: --no-delta"),
        (["--algorithm", "suitor"], "invalid choice: 'suitor'"),
        (["--algorithm", "exact"], "invalid choice: 'exact'"),
        (["--algorithm", "exact_lp"], "invalid choice: 'exact_lp'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["match", corpus_dir, "--sigma", "2.0", *extra])
        assert exc.value.code == 2, extra
        assert error in capsys.readouterr().err


def test_join_profile_reports_phase_timings(corpus_dir, tmp_path, capsys):
    code = main(
        [
            "join",
            corpus_dir,
            "--sigma",
            "2.0",
            "--method",
            "mapreduce",
            "--profile",
            "--out",
            str(tmp_path / "edges.tsv"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "phase timings:" in out
    assert "map " in out and "shuffle " in out and "reduce " in out
    assert "[3 jobs]" in out


def test_join_profile_with_spill_reports_spill_time(
    corpus_dir, tmp_path, capsys
):
    code = main(
        [
            "join",
            corpus_dir,
            "--sigma",
            "2.0",
            "--method",
            "mapreduce",
            "--spill-threshold",
            "0",
            "--profile",
            "--out",
            str(tmp_path / "edges.tsv"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "phase timings:" in out
    assert "(spill " in out


def test_join_profile_without_cluster_prints_note(
    corpus_dir, tmp_path, capsys
):
    code = main(
        [
            "join",
            corpus_dir,
            "--sigma",
            "2.0",
            "--method",
            "exact",
            "--profile",
            "--out",
            str(tmp_path / "edges.tsv"),
        ]
    )
    assert code == 0
    assert "n/a" in capsys.readouterr().out


def test_join_rejects_unknown_fs(corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["join", corpus_dir, "--sigma", "2.0", "--fs", "tape"])
    assert exc.value.code == 2
    # Backends take exactly their canonical names: the removed
    # ``threads`` and ``processes`` backends are argparse usage errors
    # on every subcommand that takes --backend.
    for command in ("join", "match", "serve"):
        for backend in ("threads", "processes"):
            with pytest.raises(SystemExit) as exc:
                main(
                    [command, corpus_dir, "--sigma", "2.0", "--backend", backend]
                )
            assert exc.value.code == 2, (command, backend)


def test_join_rejects_negative_spill_threshold(corpus_dir):
    with pytest.raises(SystemExit):  # argparse usage error, not traceback
        main(
            [
                "join",
                corpus_dir,
                "--sigma",
                "2.0",
                "--method",
                "mapreduce",
                "--spill-threshold",
                "-1",
            ]
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["join", "{corpus}", "--sigma", "nan"],
        ["join", "{corpus}", "--sigma", "0"],
        ["serve", "{corpus}", "--sigma", "-2"],
        ["match", "{corpus}", "--sigma", "2.0", "--alpha", "nan"],
        ["match", "{corpus}", "--sigma", "2.0", "--alpha", "-1"],
        ["match", "{corpus}", "--sigma", "2.0", "--epsilon", "-1"],
        ["match", "{corpus}", "--sigma", "2.0", "--epsilon", "nan"],
        ["generate", "flickr-small", "--out", "{out}", "--scale", "-1"],
        ["generate", "flickr-small", "--out", "{out}", "--scale", "0"],
        ["experiment", "--scale", "nan"],
        ["join", "{corpus}", "--sigma", "2.0", "--method", "mapreduce",
         "--out", "{out}", "--workers", "0"],
        ["match", "{corpus}", "--sigma", "2.0", "--out", "{out}",
         "--max-task-attempts", "0"],
        ["match", "{corpus}", "--sigma", "2.0", "--out", "{out}",
         "--max-task-attempts", "-2"],
        ["match", "{corpus}", "--sigma", "2.0", "--out", "{out}",
         "--task-timeout", "-1"],
        ["match", "{corpus}", "--sigma", "2.0", "--out", "{out}",
         "--task-timeout", "nan"],
        ["chaos", "--max-task-attempts", "0"],
        ["chaos", "--nodes", "0"],
    ],
    ids=lambda argv: " ".join(argv[0:1] + argv[-2:]),
)
def test_out_of_range_parameters_are_usage_errors(
    corpus_dir, tmp_path, capsys, argv
):
    """NaN, zero and negative values exit 2 at argparse, naming the
    option — not a traceback, and never a silent run."""
    argv = [
        arg.format(corpus=corpus_dir, out=str(tmp_path / "out"))
        for arg in argv
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be > 0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, option, message",
    [
        (["serve", "{corpus}", "--batch-size", "0"], "--batch-size",
         "must be > 0"),
        (["serve", "{corpus}", "--max-delay-ms", "-1"], "--max-delay-ms",
         "must be >= 0"),
        (["serve", "{corpus}", "--events", "-3"], "--events",
         "must be >= 0"),
        (["serve", "{corpus}", "--metrics-port", "70000"], "--metrics-port",
         "must be in [0, 65535]"),
        (["serve", "{corpus}", "--metrics-port", "-1"], "--metrics-port",
         "must be in [0, 65535]"),
        (["chaos", "--events", "0"], "--events", "must be > 0"),
        (["chaos", "--seeds", ""], "--seeds", "invalid int value: ''"),
        (["chaos", "--seeds", "a"], "--seeds", "invalid int value: 'a'"),
        (["experiment", "--only", ",,"], "--only",
         "empty experiment name in ',,'"),
        (["experiment", "--only", ""], "--only",
         "empty experiment name in ''"),
        (["experiment", "--only", "table1,"], "--only",
         "empty experiment name in 'table1,'"),
        (["trace", "spans.json", "--max-tasks", "-1"], "--max-tasks",
         "must be >= 0"),
        (["join", "{corpus}/missing", "--sigma", "2"], "corpus",
         "no meta.json in '{corpus}/missing'"),
        (["match", "{corpus}/missing", "--sigma", "2"], "corpus",
         "no meta.json in '{corpus}/missing'"),
        (["serve", "{corpus}/missing"], "corpus",
         "no meta.json in '{corpus}/missing'"),
        (["join", "{corpus}", "--sigma", "2", "--out", "{corpus}/no/e.tsv"],
         "--out", "directory '{corpus}/no' does not exist"),
        (["match", "{corpus}", "--sigma", "2", "--out", "{corpus}/no/m.tsv"],
         "--out", "directory '{corpus}/no' does not exist"),
        (["match", "{corpus}", "--sigma", "2", "--capacities-out",
          "{corpus}/no/c.tsv"],
         "--capacities-out", "directory '{corpus}/no' does not exist"),
        (["match", "{corpus}", "--sigma", "2", "--trace",
          "{corpus}/no/t.json"],
         "--trace", "directory '{corpus}/no' does not exist"),
        (["match", "{corpus}", "--sigma", "2", "--out", "{corpus}"],
         "--out", "'{corpus}' is a directory"),
    ],
    ids=[
        "serve-batch-size-0",
        "serve-max-delay-ms-negative",
        "serve-events-negative",
        "serve-metrics-port-too-large",
        "serve-metrics-port-negative",
        "chaos-events-0",
        "chaos-seeds-empty",
        "chaos-seeds-not-int",
        "experiment-only-commas",
        "experiment-only-empty",
        "experiment-only-trailing-comma",
        "trace-max-tasks-negative",
        "join-corpus-without-meta",
        "match-corpus-without-meta",
        "serve-corpus-without-meta",
        "join-out-missing-directory",
        "match-out-missing-directory",
        "match-capacities-out-missing-directory",
        "match-trace-missing-directory",
        "match-out-is-a-directory",
    ],
)
def test_serve_and_chaos_reject_bad_values(
    corpus_dir, capsys, argv, option, message
):
    """Each value exits 2 at argparse: no traceback, no silent run over
    zero events, no chaos run that passes over zero seeds or experiment
    run over no experiments, no task span sliced off a trace, and no
    solve whose corpus or output path was unusable from the start."""
    argv = [arg.format(corpus=corpus_dir) for arg in argv]
    if argv[0] == "serve":
        argv[2:2] = ["--sigma", "2.0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    message = message.format(corpus=corpus_dir)
    assert f"argument {option}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [None, "not json", "[]", '{"version": 99}'],
    ids=["missing", "not-json", "not-an-object", "wrong-version"],
)
def test_trace_rejects_unreadable_span_logs(tmp_path, capsys, content):
    """A span log that cannot be loaded is a usage error (exit 2,
    ``repro trace: error:``), not a traceback."""
    path = tmp_path / "spans.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert main(["trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"repro trace: error: cannot read span log '{path}'" in err


@pytest.mark.parametrize("value", ["1.5", "nan"])
@pytest.mark.parametrize(
    "flag",
    [
        "--crash-rate",
        "--delay-rate",
        "--io-rate",
        "--flush-rate",
        "--worker-kill-rate",
        "--frame-drop-rate",
    ],
)
def test_chaos_rates_are_probabilities(capsys, flag, value):
    """Every chaos rate is a probability: anything outside [0, 1],
    NaN included, exits 2 at argparse instead of a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["chaos", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be in [0, 1]" in capsys.readouterr().err


def test_chaos_at_its_defaults_injects_faults_on_every_run(capsys):
    """``repro chaos`` with no options (serial backend, in memory):
    every run recovers and every run injected something — a seed whose
    run injects nothing would prove nothing and fail the command.  On
    one process every count it prints is a function of the seeds, so
    the whole output is pinned."""
    assert main(["chaos"]) == 0
    out = capsys.readouterr().out
    golden = Path(__file__).with_name("golden_chaos.txt")
    assert out == golden.read_text(encoding="utf-8")
    lines = out.splitlines()
    runs = [line for line in lines if line.startswith(("runtime", "service"))]
    assert [line.split(":")[0] for line in runs] == [
        f"{half} seed {seed}"
        for half in ("runtime", "service")
        for seed in (1, 2, 3)
    ]
    for line in runs:
        injected = int(line.split("injected ")[1].split()[0])
        assert injected > 0, line


def test_chaos_run_that_injects_nothing_fails(capsys):
    """With every rate at 0 both runs recover trivially, and each one
    fails: a chaos run that cannot fail proves nothing."""
    zero = ["--crash-rate", "0", "--delay-rate", "0", "--io-rate", "0"]
    assert main(["chaos", "--seeds", "1", "--flush-rate", "0", *zero]) == 1
    runtime, service, verdict = capsys.readouterr().out.splitlines()
    assert runtime.startswith(
        "runtime seed 1: bit-identical (but zero faults injected) — "
        "injected 0 "
    )
    assert service.startswith(
        "service seed 1: verified (but zero faults injected) — "
        "injected 0 "
    )
    assert verdict == "chaos: 2 run(s) diverged or injected nothing"


def test_chaos_offers_no_trace_or_profile(tmp_path, capsys):
    """A chaos run writes no span log and prints no phase timings, so
    it does not accept ``--trace`` or ``--profile``: both are usage
    errors, and its help names neither."""
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--trace", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "--trace" not in usage and "--profile" not in usage


@pytest.mark.parametrize("algorithm", ["greedy_mr", "stack_mr"])
def test_match_produces_feasible_output(
    corpus_dir, tmp_path, capsys, algorithm
):
    matching_path = str(tmp_path / f"{algorithm}.tsv")
    caps_path = str(tmp_path / f"{algorithm}-caps.tsv")
    code = main(
        [
            "match",
            corpus_dir,
            "--sigma",
            "2.0",
            "--alpha",
            "2.0",
            "--algorithm",
            algorithm,
            "--out",
            matching_path,
            "--capacities-out",
            caps_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "value=" in out
    matched = list(read_edges(matching_path))
    assert matched
    from repro.graph import check_matching, read_capacities
    from repro.graph.edges import edge_key

    capacities = read_capacities(caps_path)
    report = check_matching(
        capacities, [edge_key(u, v) for u, v, _ in matched]
    )
    if algorithm == "greedy_mr":
        assert report.feasible
    else:
        assert report.average_violation <= 0.10


def test_experiment_subcommand(capsys):
    code = main(
        ["experiment", "--scale", "0.05", "--only", "table1"]
    )
    assert code == 0
    assert "Table 1" in capsys.readouterr().out


def test_experiments_menu_complete():
    assert set(EXPERIMENTS) == {
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
    }


def test_main_runs_selected_experiment(capsys):
    """``--only`` runs exactly the named experiments, in the order
    given; blanks around a name are ignored."""
    code = main(["experiment", "--scale", "0.05", "--only", "fig7, table1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    completed = [
        line.split()[0][1:] for line in out.splitlines()
        if line.startswith("[") and " completed in " in line
    ]
    assert completed == ["fig7", "table1"]


def test_experiment_runs_whole_menu(capsys):
    """Without ``--only`` the whole menu runs, in menu order."""
    code = main(["experiment", "--scale", "0.05"])
    assert code == 0
    out = capsys.readouterr().out
    positions = [out.index(f"[{name} completed in ") for name in EXPERIMENTS]
    assert positions == sorted(positions)


def test_main_rejects_unknown_experiment(capsys):
    """An unknown name exits 2 at ``repro experiment``'s own parser
    before any experiment runs."""
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--only", "fig99"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        "repro experiment: error: argument --only: "
        "unknown experiments ['fig99']"
    ) in captured.err


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_dataset_rejected():
    with pytest.raises(SystemExit):
        main(["generate", "imdb", "--out", "/tmp/x"])


def test_serve_streams_events_and_verifies(corpus_dir, capsys):
    code = main(
        [
            "serve",
            corpus_dir,
            "--sigma",
            "2.0",
            "--events",
            "24",
            "--batch-size",
            "8",
            "--max-delay-ms",
            "20",
            "--seed",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "events admitted" in out
    assert "coalescing x" in out
    assert "latency: p50=" in out
    assert "cold-batch check: identical" in out


def test_serve_accepts_cluster_options(corpus_dir, capsys):
    code = main(
        [
            "serve",
            corpus_dir,
            "--sigma",
            "2.0",
            "--events",
            "12",
            "--backend",
            "cluster",
            "--fs",
            "disk",
            "--spill-threshold",
            "8",
            "--no-verify",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "cold-batch check" not in out


def test_serve_metrics_endpoint_matches_service_metrics(
    corpus_dir, capsys, monkeypatch
):
    import urllib.request

    from repro.telemetry import MetricsExporter

    # The CLI tears the exporter down before returning, so scrape it on
    # the way down: after the stream is served, before the real stop.
    captured = {}
    real_stop = MetricsExporter.stop

    def scrape_then_stop(exporter):
        try:
            captured["url"] = exporter.url
            with urllib.request.urlopen(
                exporter.url + "/metrics.json", timeout=10
            ) as response:
                captured["scrape"] = json.loads(response.read())
        finally:
            real_stop(exporter)

    monkeypatch.setattr(MetricsExporter, "stop", scrape_then_stop)
    code = main(
        [
            "serve",
            corpus_dir,
            "--sigma",
            "2.0",
            "--events",
            "24",
            "--batch-size",
            "8",
            "--max-delay-ms",
            "20",
            "--seed",
            "5",
            "--metrics-port",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert f"metrics endpoint: {captured['url']}/metrics" in out
    scrape = captured["scrape"]
    # The scrape carries the same registry the CLI reports from.
    assert "runtime" in scrape["registry"]["counters"]
    assert scrape["service"]["events_admitted"] == 24


def test_serve_trace_exports_flush_spans(corpus_dir, tmp_path, capsys):
    span_log = str(tmp_path / "spans.json")
    code = main(
        [
            "serve",
            corpus_dir,
            "--sigma",
            "2.0",
            "--events",
            "12",
            "--batch-size",
            "4",
            "--seed",
            "5",
            "--trace",
            span_log,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "span log:" in out
    from repro.telemetry import load_spans

    spans = load_spans(span_log)
    kinds = {span.kind for span in spans}
    assert {"flush", "stage", "job", "phase", "task"} <= kinds
    names = {span.name for span in spans}
    assert {"admit", "reconverge"} <= names

    # And the trace renders.
    code = main(["trace", span_log, "--max-tasks", "2"])
    rendered = capsys.readouterr().out
    assert code == 0
    assert "flush (flush)" in rendered
    assert "admit (stage)" in rendered


def test_join_trace_subcommand_roundtrip(corpus_dir, tmp_path, capsys):
    span_log = str(tmp_path / "join-spans.json")
    code = main(
        [
            "join",
            corpus_dir,
            "--sigma",
            "2.0",
            "--method",
            "mapreduce",
            "--trace",
            span_log,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "span log:" in out
    code = main(["trace", span_log])
    rendered = capsys.readouterr().out
    assert code == 0
    assert "(job)" in rendered
    assert "phase:map (phase)" in rendered
    assert "more tasks" in rendered or "(task)" in rendered


# -- registry-driven coverage: every algorithm through `repro match` -------


def _match_sigma(algorithm):
    """Per-algorithm sigma: bruteforce is capped at 26 edges, so it
    gets a similarity threshold high enough to prune the candidate
    graph under the cap; everything else shares one moderate cell."""
    return "80" if algorithm == "bruteforce" else "4.0"


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_match_runs_every_registered_algorithm(
    corpus_dir, tmp_path, capsys, algorithm
):
    """The CLI registry contract: every algorithm in
    :data:`repro.matching.ALGORITHMS` — centralized, MapReduce,
    STACK-family, exact flow, brute force — solves the flickr-small corpus
    through ``repro match`` without error and emits a non-empty,
    capacity-feasible-or-reported matching."""
    out = str(tmp_path / f"matching-{algorithm}.tsv")
    code = main(
        [
            "match",
            corpus_dir,
            "--sigma",
            _match_sigma(algorithm),
            "--algorithm",
            algorithm,
            "--out",
            out,
        ]
    )
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "value=" in printed
    assert list(read_edges(out)), f"{algorithm} wrote no matching"


@pytest.mark.cluster
def test_match_cluster_backend_agrees_with_serial(
    corpus_dir, tmp_path, capsys
):
    """`--backend cluster --workers 2` through the real CLI produces
    the same matching file as the serial backend."""
    serial_out = str(tmp_path / "serial.tsv")
    cluster_out = str(tmp_path / "cluster.tsv")
    for backend, out, extra in (
        ("serial", serial_out, []),
        ("cluster", cluster_out, ["--workers", "2"]),
    ):
        code = main(
            [
                "match",
                corpus_dir,
                "--sigma",
                "4.0",
                "--algorithm",
                "greedy_mr",
                "--backend",
                backend,
                "--out",
                out,
            ]
            + extra
        )
        assert code == 0, capsys.readouterr().out
    capsys.readouterr()
    assert sorted(read_edges(serial_out)) == sorted(
        read_edges(cluster_out)
    )
