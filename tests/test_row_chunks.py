"""Replica rows cut into even ranges: the chunks of cli._parallel_rows.

The workers*4 chunks differ in size by one row at most, so no worker is
handed a whole batch of fifo._BATCH rows more than another; each chunk's
last batch may be part full.  Rows depend only on the replica index, so
every worker count writes the same files and raises the first failing
replica's error, wherever the chunk boundaries fall.
"""

import json

import pytest

from renege import DepthExhaustedError, source_from_config
from renege import cli
from renege.cli import _chunks, main
from renege.fifo import _BATCH, END, exact_loss_rows


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("total", [1, 127, 128, 129, 600, 4000])
def test_chunks_cover_the_rows_at_batch_multiples(total, workers):
    # the ranges are even, not cut at multiples of _BATCH: 600 rows at
    # --workers 2 are eight chunks of 75, not one of 512 and one of 88
    chunks = _chunks(total, workers * 4)
    assert chunks[0][0] == 0 and chunks[-1][1] == total
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    sizes = [hi - lo for lo, hi in chunks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert len(chunks) == min(total, workers * 4)


def test_exact_iid_pool_keeps_eight_chunks():
    assert _chunks(4000, 8) == [(lo, lo + 500) for lo in range(0, 4000, 500)]


@pytest.mark.parametrize("total", [1, 7, 128, 300])
def test_sampled_replicas_keep_an_even_split(total):
    # approximate sampled replicas run one at a time: their ranges spread over the pool
    chunks = _chunks(total, 16)
    assert len(chunks) == min(total, 16)
    assert chunks[0][0] == 0 and chunks[-1][1] == total
    assert max(hi - lo for lo, hi in chunks) == -(-total // 16)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: runs the ranges here, records them."""

    ranges = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, los, his):
        self.ranges[:] = list(zip(los, his))
        return map(fn, los, his)


@pytest.mark.parametrize("kind, mode", [("loss", "exact"), ("sample", "exact"),
                                        ("sample", "approximate")])
def test_pool_ranges_by_row_kind(monkeypatch, kind, mode):
    # exact rows, loss or sample, and approximate sampled replicas all spread
    # evenly over the pool: 300 rows at 4 workers are 16 chunks of 18 or 19
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(cli, "_replica_rows", lambda kind, src, params, lo, hi: range(lo, hi))
    assert cli._parallel_rows(kind, None, {"mode": mode}, 300, 4) == list(range(300))
    assert _InProcessPool.ranges == _chunks(300, 16)
    assert {hi - lo for lo, hi in _InProcessPool.ranges} == {18, 19}


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
