"""compare.py verdicts and exit codes."""

import copy
import json

import pytest

import compare


def stats(median, low=None, high=None):
    return {
        "median": median,
        "min": median if low is None else low,
        "max": median if high is None else high,
        "n": 3,
    }


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        (stats(10.0), stats(10.5), "lower", "same"),
        (stats(10.0), stats(11.5), "lower", "worse"),
        (stats(10.0), stats(8.5), "lower", "better"),
        (stats(10.0), stats(8.5), "higher", "worse"),
        (stats(10.0), stats(11.5), "higher", "better"),
        # Either side scattering wider than the bound: cannot tell.
        (stats(10.0, 9.0, 10.5), stats(12.0), "lower", "unresolved"),
        (stats(10.0), stats(10.0, 9.9, 11.2), "lower", "unresolved"),
    ],
)
def test_verdict_against_a_ten_percent_bound(base, new, better, expected):
    assert compare.verdict(base, new, better, 0.10) == expected


def test_exact_counts_ignore_the_bound():
    assert compare.verdict(stats(40), stats(41), "lower", 0.05, exact=True) == "worse"
    assert compare.verdict(stats(40), stats(40), "lower", 0.05, exact=True) == "same"
    assert compare.verdict(stats(40), stats(39), "lower", 0.05, exact=True) == "better"


def results(spec, seed=0):
    metrics = {m["name"]: stats(100.0) for m in spec["end_to_end"]}
    return {
        "environment": {"seed": seed, "size": "record", "noisy": False},
        "workloads": {
            w["name"]: {
                "failed_ratio": 0.0,
                "metrics": copy.deepcopy(metrics),
            }
            for w in spec["workloads"]
        },
    }


def run(tmp_path, base, new):
    paths = []
    for name, payload in (("a.json", base), ("b.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return compare.main(paths)


def test_identical_sets_pass_with_one_row_per_primary_reading(
    spec, tmp_path, capsys
):
    assert run(tmp_path, results(spec), results(spec)) == 0
    rows = compare.compare(results(spec), results(spec), spec)
    assert {row["verdict"] for row in rows} == {"same"}
    assert "0 worse, 0 unresolved" in capsys.readouterr().out
    pairs = {(row["workload"], row["metric"]) for row in rows}
    assert len(pairs) == len(rows)
    everywhere = {"setup_s", "wall_s", "peak_rss_mb", "mr_jobs",
                  "shuffle_records", "failed_ratio"}
    for workload in spec["workloads"]:
        name = workload["name"]
        extra = {m for w, m in pairs if w == name} - everywhere
        # A metric that only restates wall_s on a workload has no row.
        assert extra == {
            "serve_closed": {"events_per_s"},
            "serve_open": {"event_latency_p50_ms", "event_latency_p95_ms"},
        }.get(name, {"edges_per_s"}), name


def test_a_regression_in_a_derived_metric_alone_is_no_row(spec, tmp_path):
    new = results(spec)
    new["workloads"]["join_mem"]["metrics"]["events_per_s"] = stats(1.0)
    assert run(tmp_path, results(spec), new) == 0


def test_a_regression_beyond_the_bound_fails(spec, tmp_path, capsys):
    bound = next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s"
    )
    new = results(spec)
    new["workloads"]["join_mem"]["metrics"]["wall_s"] = stats(
        100.0 * (1.0 + bound) + 5.0
    )
    assert run(tmp_path, results(spec), new) == 1
    out = capsys.readouterr().out
    assert "1 worse" in out and "worse" in out


def test_one_more_job_fails_on_the_same_seed_only(spec, tmp_path):
    new = results(spec)
    new["workloads"]["greedy_match"]["metrics"]["mr_jobs"] = stats(101.0)
    assert run(tmp_path, results(spec), new) == 1
    # Another seed is another input: the bound applies, 1 % is "same".
    other = results(spec, seed=1)
    other["workloads"]["greedy_match"]["metrics"]["mr_jobs"] = stats(101.0)
    assert run(tmp_path, results(spec), other) == 0


def test_a_higher_failed_ratio_fails_and_leaves_no_metric_rows(
    spec, tmp_path
):
    new = results(spec)
    new["workloads"]["serve_open"] = {"failed_ratio": 0.5, "metrics": {}}
    assert run(tmp_path, results(spec), new) == 1
    rows = [
        row for row in compare.compare(results(spec), new, spec)
        if row["workload"] == "serve_open"
    ]
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("failed_ratio", "worse")
    ]
