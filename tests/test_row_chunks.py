"""Replica rows cut into even ranges: the ranges of cli._parallel_rows.

Every row kind gets one range per worker, or, past cli._RANGE_ROWS rows a
range, the fewest multiple of the worker count that keeps each range within
it; --workers 1 runs the same ranges in-process.  The ranges differ in size
by one row at most, so no worker is handed a whole batch of
recursion._BATCH rows more than another.  Each range's detail.csv text is
written as it arrives, into a temporary file that a failing run removes.
Rows depend only on the replica index, so every worker count and range size
writes the same files and raises the first failing replica's error,
wherever the range boundaries fall.
"""

import io
import json
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from renege import DepthExhaustedError, source_from_config
from renege import cli
from renege.cli import _ranges, main
from renege.fifo import END, exact_loss_rows
from renege.recursion import _BATCH, _FIRST_WIDTH, renovation_offsets

from test_batched_rows import oracle_rows


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("total", [1, 127, 128, 129, 600, 4000])
def test_chunks_cover_the_rows_at_batch_multiples(total, workers):
    # the ranges are even, not cut at multiples of _BATCH: 600 rows at
    # --workers 2 are two ranges of 300, not one of 512 and one of 88
    chunks = _ranges(total, workers)
    assert chunks[0][0] == 0 and chunks[-1][1] == total
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    sizes = [hi - lo for lo, hi in chunks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert len(chunks) == min(total, workers)


def test_exact_iid_pool_takes_one_range_per_worker():
    assert _ranges(4000, 2) == [(0, 2000), (2000, 4000)]
    assert _ranges(4000, 3) == [(0, 1333), (1333, 2666), (2666, 4000)]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("total", [cli._RANGE_ROWS + 1, 5 * cli._RANGE_ROWS - 7, 40_000])
def test_long_runs_take_a_multiple_of_the_workers_in_capped_ranges(total, workers):
    ranges = _ranges(total, workers)
    sizes = [hi - lo for lo, hi in ranges]
    assert ranges[0][0] == 0 and ranges[-1][1] == total and sum(sizes) == total
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert max(sizes) <= cli._RANGE_ROWS and max(sizes) - min(sizes) <= 1
    assert len(ranges) % workers == 0
    assert len(ranges) - workers < -(-total // cli._RANGE_ROWS)  # the fewest such


@pytest.mark.parametrize("total", [1, 7, 128, 300])
def test_sampled_replicas_keep_an_even_split(total):
    # approximate sampled replicas run one at a time in the same ranges
    chunks = _ranges(total, 4)
    assert len(chunks) == min(total, 4)
    assert chunks[0][0] == 0 and chunks[-1][1] == total
    assert max(hi - lo for lo, hi in chunks) == -(-total // 4)


class _InProcessPool:
    """Stands in for the process's pool (cli._executor): runs each range here
    as it is submitted, records them."""

    def __init__(self):
        self.ranges = []

    def submit(self, fn, lo, hi):
        self.ranges.append((lo, hi))
        future = Future()
        future.set_result(fn(lo, hi))
        return future


@pytest.mark.parametrize("kind, mode", [("loss", "exact"), ("sample", "exact"),
                                        ("sample", "approximate")])
def test_pool_ranges_by_row_kind(monkeypatch, kind, mode):
    # exact rows, loss or sample, and approximate sampled replicas all take
    # one range per worker: 300 rows at 4 workers are 4 ranges of 75, their
    # text written in replica order
    pool = _InProcessPool()
    monkeypatch.setattr(cli, "_executor", lambda workers: pool)
    monkeypatch.setattr(cli, "_replica_rows",
                        lambda kind, src, params, lo, hi: (f"{lo}-{hi};", hi - lo))
    fh = io.StringIO()
    assert cli._parallel_rows(kind, None, {"mode": mode}, 300, 4, fh) == [75] * 4
    assert pool.ranges == _ranges(300, 4) == [(0, 75), (75, 150), (150, 225), (225, 300)]
    assert fh.getvalue() == "0-75;75-150;150-225;225-300;"


def _u(low, high):
    return {"dist": "uniform", "low": low, "high": high}


# a two-state chain with a heavy patience in state 0 (seed 4): at max_depth 13
# replicas 213, 252 and 339 exhaust their certificate depth, each in its own
# chunk at --workers 2 and 3
DEEP_MARKOV = {"kind": "markov", "seed": 4, "transition": [[0.8, 0.2], [0.3, 0.7]],
               "states": [{"xi": _u(0.1, 0.9), "sigma": _u(0.0, 1.0),
                           "dpat": {"dist": "truncated-exponential", "rate": 0.5, "cap": 6.0}},
                          {"xi": _u(0.3, 1.2), "sigma": _u(0.0, 0.5), "dpat": _u(0.0, 2.0)}]}


def _run(tmp_path, cfg, workers, experiment="loss-end"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"{experiment}-w{workers}"
    code = main([experiment, "--config", str(path), "--workers", str(workers),
                 "--out-dir", str(out)])
    return code, out


def _identical_over_worker_counts(tmp_path, experiment):
    cfg = {"source": DEEP_MARKOV, "run": {"mode": "exact", "samples": 300, "max_depth": 60}}
    assert 300 % _BATCH
    outputs = []
    for workers in (1, 2, 3):
        code, out = _run(tmp_path, cfg, workers, experiment)
        assert code == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(outputs[0]["detail.csv"].splitlines()) == 301
    assert outputs[0] == outputs[1] == outputs[2]


def test_worker_counts_write_identical_files_over_part_batches(tmp_path):
    _identical_over_worker_counts(tmp_path, "loss-end")


def test_worker_counts_write_identical_sample_files_over_part_batches(tmp_path):
    _identical_over_worker_counts(tmp_path, "sample-s")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_failing_replica_after_a_boundary_raises(tmp_path, capsys, workers):
    cfg = {"source": DEEP_MARKOV, "run": {"mode": "exact", "samples": 400, "max_depth": 13}}
    src = source_from_config(DEEP_MARKOV)
    messages = []
    for r in (213, 252, 339):
        with pytest.raises(DepthExhaustedError) as exc:
            exact_loss_rows(END, src, r, r + 1, 10_000, 13)
        messages.append(str(exc.value))
    assert exact_loss_rows(END, src, 0, 213, 10_000, 13)[-1][0] == 212
    assert len(set(messages)) == 3
    code, _ = _run(tmp_path, cfg, workers)
    assert code == 3
    assert capsys.readouterr().err.strip() == f"capability error: {messages[0]}"


# the heavy end-model iid source (alpha = dpat up to 6) at seed 3: at max_depth
# 16 the first pass of 32 marks stops replica 1050 alone, and decides neither
# 450 nor 468, which max_depth stops only in wider re-screens
DEEP_IID = {"kind": "iid", "seed": 3, "xi": _u(0.1, 0.9), "sigma": _u(0.0, 1.0),
            "dpat": {"dist": "truncated-exponential", "rate": 0.5, "cap": 6.0}}
STOPPED = {"source": DEEP_IID, "run": {"mode": "exact", "samples": 1100, "max_depth": 16}}


def test_stopped_replicas_of_the_deep_iid_source():
    src = source_from_config(DEEP_IID)
    marks = src.replica_windows(range(1100), 32, _FIRST_WIDTH)
    k, depth = renovation_offsets(marks[0], END.dominating.alpha_array(*marks[1:]),
                                  src.alpha_bound_for("d_only"), 10_000, 16)
    assert np.flatnonzero((k >= 0) & (depth == 0)).tolist() == [1050]
    assert k[450] < 0 and k[468] < 0
    failing = []
    for r in (449, 450, 451, 468, 1050):
        try:
            exact_loss_rows(END, src, r, r + 1, 10_000, 16)
        except DepthExhaustedError:
            failing.append(r)
    assert failing == [450, 468, 1050]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_early_rescreen_stop_comes_before_a_later_first_pass_stop(tmp_path, capsys, workers):
    # replica 450, in the first batch, stops only at a re-screen width, after
    # the first pass has stopped 1050 in the third batch: the error is 450's,
    # the scalar oracle's, at every worker count
    src = source_from_config(DEEP_IID)
    with pytest.raises(DepthExhaustedError) as oracle:
        oracle_rows(END, src, 450, 451, 10_000, 16)
    assert 450 < _BATCH < 2 * _BATCH < 1050
    code, out = _run(tmp_path, STOPPED, workers)
    assert code == 3
    assert capsys.readouterr().err.strip() == f"capability error: {oracle.value}"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_stopped_run_leaves_no_partial_file(tmp_path, capsys, monkeypatch, workers):
    # ranges of at most 128 rows: the first three ranges are written before
    # the one holding replica 450 stops the run
    monkeypatch.setattr(cli, "_RANGE_ROWS", 128)
    assert sum(hi <= 450 for lo, hi in _ranges(1100, workers)) >= 3
    code, out = _run(tmp_path, STOPPED, workers)
    assert code == 3 and "replica 450 at epoch" in capsys.readouterr().err
    assert out.is_dir() and list(out.iterdir()) == []


BOUNDED = {"kind": "iid", "seed": 321, "xi": _u(0.5, 1.5), "sigma": _u(0.0, 0.8),
           "dpat": _u(0.0, 0.4)}


def _traced_peak(tmp_path, samples):
    """tracemalloc peak of an in-process exact loss-begin run, after a first run."""
    cfg = tmp_path / f"bounded-{samples}.json"
    cfg.write_text(json.dumps({"source": BOUNDED, "run": {"mode": "exact", "samples": samples}}))
    args = ["loss-begin", "--config", str(cfg), "--out-dir", str(tmp_path / f"out-{samples}")]
    assert main(args) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_rows_run_in_bounded_memory(tmp_path, monkeypatch):
    # the rows of each range are written and dropped before the next: with
    # ranges of 2 * _BATCH rows, 20 000 rows peak no higher than 5000 but for
    # a small slack.  When every row was held as a tuple until the end, the
    # peaks were 1 931 837 and 6 603 071 bytes (tracemalloc; Python 3.11.7,
    # numpy 2.4.6): 4.67 MB more.  The bound is a tenth of that.
    monkeypatch.setattr(cli, "_RANGE_ROWS", 2 * _BATCH)
    assert _traced_peak(tmp_path, 20_000) - _traced_peak(tmp_path, 5000) < 467_000
