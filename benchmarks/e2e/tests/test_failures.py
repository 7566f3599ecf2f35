"""A run that cannot finish is a failed operation, not a crash."""

import json

import run


def test_a_child_that_raises_is_a_failed_operation():
    # No such workload: the child raises KeyError before it prints.
    result = run.run_child("no_such_workload", 0, "smoke", traced=False)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["metrics"] == {} and result["digest"] is None
    assert "exited with code 1" in result["failures"][0]
    assert "KeyError" in result["failures"][0]


def test_a_failed_run_ends_the_set_and_leaves_no_number(monkeypatch):
    good = run.run_child("greedy_match", 0, "smoke", traced=False)
    assert good["failed"] == 0
    bad = {"attempted": 1, "failed": 1, "failures": ["boom"],
           "digest": None, "metrics": {}}
    replies = iter([good, bad, good])
    monkeypatch.setattr(run, "run_child", lambda *a, **k: next(replies))
    pairs = run.collect("greedy_match", 0, "smoke", False, 3, None)
    assert len(pairs) == 2  # the third repeat never ran
    summary = run.aggregate(pairs)
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["failed_ratio"] == 0.5
    assert summary["failures"] == ["boom"] and summary["metrics"] == {}


def test_a_hung_child_is_killed_reported_and_fails_the_command(
    monkeypatch, tmp_path, capsys, spec
):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.05)
    out = tmp_path / "results.json"
    code = run.main([
        "--workload", "join_cluster", "--size", "smoke", "--seconds", "1",
        "--trace", "0", "--out", str(out),
    ])
    assert code == 1
    printed = capsys.readouterr().out
    assert "FAILED: the join_cluster process timed out" in printed
    line = json.loads(printed.strip().splitlines()[-1])
    assert line == {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}
    }
    summary = json.loads(out.read_text())["workloads"]["join_cluster"]
    assert summary["failed_ratio"] == 1.0 and summary["metrics"] == {}
