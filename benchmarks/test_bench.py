"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest benchmarks/test_bench.py -q

Kept out of the repository's tier-1 suite (pyproject testpaths = tests).
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, contract_problems  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli:run_scenario", 0.0, 10.0, -1, None],
        ["marks:window_arrays", 1.0, 4.0, 0, [3, 1]],
        ["marks:mark_at", 2.0, 3.0, 1, None],
        ["recursion:certified_zero", 5.0, 7.0, 0, None],
        ["cli.write:_write_csv", 8.0, 9.5, 0, None],
        ["estimation:import", 10.0, 11.0, -1, None],
    ]
    assert metrics.self_times(spans) == pytest.approx(
        {"cli": 10.0 - 3.0 - 2.0 - 1.5, "marks": 2.0 + 1.0, "recursion": 2.0,
         "cli.write": 1.5, "estimation.import": 1.0})


def test_layer_self_times_add_up_to_the_root_span():
    spans = [["cli:run_scenario", 0.0, 8.0, -1, None],
             ["fifo_begin:exact_triple_at", 1.0, 6.0, 0, [2, 3]],
             ["recursion:certified_zero", 1.5, 2.5, 1, [3]],
             ["recursion:certified_zero", 3.0, 4.0, 1, None]]
    assert sum(metrics.self_times(spans).values()) == pytest.approx(8.0)


@pytest.mark.parametrize("n, q", [(0, None), (5, 50.0), (19, 50.0), (20, 50.0),
                                  (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
                                  (5000, 99.0)])
def test_tail_rank_keeps_ten_samples_beyond(n, q):
    assert metrics.tail_rank(n) == q


def test_tail_percentile_uses_nearest_rank():
    assert metrics.tail_percentile(list(range(1, 1001))) == 990.0
    assert metrics.tail_percentile(list(range(100, 0, -1))) == 90.0
    assert metrics.tail_percentile([]) == 0.0


def test_quartiles_match_statistics_quantiles():
    q1, med, q3 = metrics.quartiles([4.0, 1.0, 3.0, 2.0])
    assert (q1, med, q3) == (1.25, 2.5, 3.75)
    assert metrics.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_layer_metrics_counts_and_ratios():
    spans = [
        ["cli:run_scenario", 0.0, 10.0, -1, None],
        ["fifo_begin:exact_triple_at", 0.0, 2.0, 0, [4, 2]],
        ["recursion:certified_zero", 0.0, 0.5, 1, None],
        ["recursion:range", 0.1, 0.4, 2, None],
        ["marks:window_arrays", 0.1, 0.3, 3, [512, 0]],
        ["recursion:certified_zero", 0.5, 1.0, 1, [2]],
        ["marks:mark_at", 2.0, 2.5, 0, None],
        ["marks:window_arrays", 2.0, 2.4, 6, [1, 1]],
    ]
    m = metrics.layer_metrics(spans)
    assert m["marks.calls"] == 2
    assert m["marks.generated"] == 513
    assert m["marks.useful_ratio"] == pytest.approx((1 + 4 + 2) / 513)
    assert m["recursion.certify_calls"] == 2
    assert m["recursion.hit_ratio"] == 0.5
    assert m["recursion.renovation_distance_mean"] == 4.0
    assert m["fifo_begin.steps"] == 4
    assert m["fifo_begin.replica_p50_ms"] == pytest.approx(2000.0)
    assert m["fifo_end.steps"] == 0
    assert metrics.largest_layer(m) == "cli"
    assert metrics.replica_count(spans) == 1


def test_metric_names_and_units_match_the_spec():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: run.END_TO_END_UNITS[name] for name in run.END_TO_END}
    produced = set(metrics.layer_metrics([])) | {
        "cli.bytes_written", "cli.pool_speedup", "trace.overhead_frac"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for wl in WORKLOADS.values():
        assert wl.pinned and "summary.json" in wl.pinned
        assert wl.config(7)["source"]["seed"] == 7


def test_contract_problems():
    des, loss = WORKLOADS["des"], WORKLOADS["forward"]
    ok = {"results": {"inclusion_violations": 0, "sojourn_violations": 0}}
    assert contract_problems(des, ok) == []
    assert contract_problems(des, {"results": {"inclusion_violations": 2,
                                               "sojourn_violations": 0}}) != []
    assert contract_problems(loss, {"results": {"bracket_ok": True}}) == []
    assert contract_problems(loss, {"results": {"bracket_ok": False}}) != []


def test_failed_run_is_counted_with_its_stderr(tmp_path):
    # exact mode on an unbounded source is a capability error: exit status 3
    wl = WORKLOADS["forward"]
    wl = dataclasses.replace(wl, run={**wl.run, "mode": "exact", "samples": 10})
    runner = run.Runner(HERE.parent, tmp_path, wl)
    assert runner.run(runner.write_config(1), 1, 1) is None
    assert runner.attempted == 1
    (failure,) = runner.failures
    assert failure["rc"] == 3
    assert "capability error" in failure["stderr"]


def test_refuses_to_run_without_a_source_tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "forward", "--seconds", "1"]) != 0
