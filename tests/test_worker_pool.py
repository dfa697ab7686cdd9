"""One worker pool per process for cli._parallel_rows.

cli._executor starts the pool at the first pooled call, keeps it while
--workers stays the same and replaces it when the count changes, so at most
one pool is live; a pool that breaks is dropped and its error raised.  Its
workers end with the interpreter.  Every worker count, in any order of
calls, writes the files of --workers 1.
"""

import io
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import renege
from renege import cli
from renege.cli import main

CONFIG = {"source": {"kind": "iid", "seed": 4409,
                     "xi": {"dist": "uniform", "low": 0.5, "high": 1.5},
                     "sigma": {"dist": "uniform", "low": 0.0, "high": 0.8},
                     "dpat": {"dist": "uniform", "low": 0.0, "high": 0.4}},
          "run": {"mode": "exact", "samples": 300}}


def _config(tmp_path) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return path


def _run(tmp_path, workers, name):
    out = tmp_path / name
    assert main(["loss-begin", "--config", str(_config(tmp_path)), "--workers", str(workers),
                 "--out-dir", str(out)]) == 0
    return {f.name: f.read_bytes() for f in out.iterdir()}


def _workers() -> set:
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pids) -> list:
    return [pid for pid in pids if Path(f"/proc/{pid}").exists()]


def test_pooled_calls_reuse_the_workers(tmp_path):
    want = _run(tmp_path, 1, "w1")
    assert _workers() == set()  # one worker runs in-process
    first = _run(tmp_path, 2, "first")
    pids = _workers()
    second = _run(tmp_path, 2, "second")
    assert len(pids) == 2 and _workers() == pids
    assert first == second == want


def test_a_new_worker_count_replaces_the_pool(tmp_path, monkeypatch):
    started = []  # the workers alive as each pool starts

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(_workers())
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    want = _run(tmp_path, 1, "w1")
    seen = []
    for i, workers in enumerate((2, 3, 2)):
        assert _run(tmp_path, workers, f"call-{i}") == want
        seen.append(_workers())
        assert len(seen[-1]) == workers and cli._pool[0] == workers
    assert not (seen[0] & seen[1] or seen[1] & seen[2] or seen[0] & seen[2])
    assert started == [set()] * 3 and _alive(seen[0] | seen[1]) == []


class _Returned(Future):
    """A finished future that tells its executor when its result is taken."""

    def __init__(self, spy, value):
        super().__init__()
        self.spy = spy
        self.set_result(value)

    def result(self, timeout=None):
        self.spy.outstanding -= 1
        return super().result(timeout)


class _Spy(Executor):
    """An executor that runs each range in-process as it is submitted and
    counts the ranges submitted and not yet returned to the caller."""

    def __init__(self):
        self.outstanding = self.peak = self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        self.outstanding += 1
        self.peak = max(self.peak, self.outstanding)
        return _Returned(self, fn(*args))


def test_ranges_in_flight_are_capped(tmp_path, monkeypatch):
    # 300 rows in ranges of at most 50: six ranges at --workers 2, of which at
    # most four are submitted and not yet written; the file is --workers 1's
    want = _run(tmp_path, 1, "w1")
    spy = _Spy()
    monkeypatch.setattr(cli, "_RANGE_ROWS", 50)
    monkeypatch.setattr(cli, "_executor", lambda workers: spy)
    assert _run(tmp_path, 2, "w2") == want
    assert spy.submitted == 6 and spy.outstanding == 0
    assert spy.peak == 2 * 2


def _die(kind, src, params, lo, hi):
    os._exit(1)


def test_a_broken_pool_is_replaced(tmp_path, monkeypatch):
    want = _run(tmp_path, 1, "w1")
    assert _run(tmp_path, 2, "before") == want
    broken = _workers()
    with monkeypatch.context() as m:
        m.setattr(cli, "_replica_rows", _die)
        with pytest.raises(BrokenProcessPool):
            cli._parallel_rows("loss", None, {}, 8, 2, io.StringIO())
    assert cli._pool is None and _alive(broken) == []
    assert _run(tmp_path, 2, "after") == want
    assert len(_workers()) == 2 and not _workers() & broken


def test_workers_end_with_the_interpreter(tmp_path):
    # one pooled call, then exit: concurrent.futures joins the workers
    src = str(Path(renege.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import multiprocessing, sys\n"
            "from renege.cli import main\n"
            "code = main(['loss-begin', '--config', sys.argv[1], '--workers', '2',\n"
            "             '--out-dir', sys.argv[2]])\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n"
            "sys.exit(code)\n")
    out = subprocess.run([sys.executable, "-c", code, str(_config(tmp_path)),
                          str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    pids = [int(p) for p in out.stdout.split()]
    assert len(pids) == 2
    assert _alive(pids) == []
