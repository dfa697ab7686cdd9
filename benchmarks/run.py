"""renege benchmark: one workload per invocation, end to end or traced.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the directory holding src/renege).
Every CLI run happens through renege.cli.main on the workload's config with
the given seed, in a fresh interpreter (child.py).

--trace 0 splits --seconds among CHILDREN_PER_RUN fresh interpreters, each of
which sets up once and then calls cli.main back to back for its share, and
reports the end-to-end metrics: throughput (work items per second of cli.main
wall time, median over every call), setup_s (fresh interpreter to renege
imported, config loaded and MarkSource built, median over the interpreters),
peak_rss_mb (largest resident set of an interpreter and its pool workers,
median over the interpreters) and, in the report line, failed_frac (failed
calls over calls attempted).  Calls after the first in an interpreter start
warm, but renege keeps no state between calls: each builds its own
MarkSource, so each does the same work.

The two timings are scaled to a reference host speed with child.reference_s(),
a fixed kernel that calls no renege code and is timed before and after every
call: each call's throughput is multiplied by the mean of those two kernel
times over REFERENCE_S, and setup_s by REFERENCE_S over the run's median
kernel time.  On a shared host the speed drifts by tens of percent over
minutes; the kernel drifts with it, so the scaled figures move with renege's
own speed and far less with the host's.  The unscaled medians and the kernel
times are in the report line.

--trace 1 repeats, for --seconds, a cycle of an untraced run at --workers 1,
an untraced run at the workload's own worker count when that is not 1, and a
traced in-process run at --workers 1; it reports the per-layer metrics of
metrics.layer_metrics plus cli.bytes_written, cli.pool_speedup (untraced
--workers 1 wall over the wall at the workload's worker count, so 1 for
workloads run at --workers 1) and trace.overhead_frac (traced over untraced
--workers 1 wall, minus 1), each the median over the cycles.

Every CLI call is checked: at the workload's default seed its outputs must
match the SHA-256 pinned in workloads.py, at any seed its summary must meet
the run's contracts, and every call within one invocation (traced or not,
any worker count) must write the same bytes.  --trace 1 also runs the
default seed at --workers 1 first, so the pinned hashes (made at the
workload's own worker count) are checked on every traced invocation.  A call
fails when it exits non-zero or an output is wrong; its stderr is kept in the
report.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
report with provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import WORKLOADS, Workload, contract_problems  # noqa: E402

END_TO_END_UNITS = {"throughput": "items/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "throughput_unscaled": "items/s", "setup_s_unscaled": "s",
                    "reference_s": "s"}
# The metrics of the result line; the rest of END_TO_END_UNITS is in the report.
END_TO_END = ("throughput", "setup_s", "peak_rss_mb")
# The whole invocation must end within 180 s: no new CLI run starts after
# LAST_START_S, and a run still going at DEADLINE_S is killed.
LAST_START_S = 120.0
DEADLINE_S = 170.0
STDERR_KEEP = 4000
# Fresh interpreters per untraced run: each gives one set-up sample.
CHILDREN_PER_RUN = 3
# child.reference_s() on the host the benchmark was defined on (2 cores,
# Python 3.11.7, numpy 2.4.6): timings are reported as if the host ran at the
# speed that gives this kernel time.
REFERENCE_S = 0.034


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_speedup")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def provenance(root: Path) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src" / "renege").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "git_commit": git_commit(root), "src_lines": src_lines}


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stop_group(pgid: int) -> None:
    """Kill whatever is left in a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Runner:
    """Starts CLI runs in fresh interpreters and checks what they write."""

    def __init__(self, root: Path, work: Path, workload: Workload):
        self.root = root
        self.work = work
        self.workload = workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = 0
        self.failures: list[dict] = []
        self.expected: dict[int, dict] = {}   # seed -> hashes of its first good call
        self.started = time.monotonic()

    def write_config(self, seed: int) -> Path:
        path = self.work / f"config-{seed}.json"
        path.write_text(json.dumps(self.workload.config(seed), indent=2), encoding="utf-8")
        return path

    def run(self, config: Path, seed: int, workers: int, budget: float = 0.0,
            spans: Path | None = None) -> dict | None:
        """One fresh interpreter making CLI calls for about `budget` seconds
        (one call when 0 or traced).  Returns the child's set-up time, peak
        memory and its calls that passed every check, or None when the child
        failed; each failed call is recorded."""
        out_dir = Path(tempfile.mkdtemp(prefix="out-", dir=self.work))
        cmd = [sys.executable, str(HERE / "child.py"), repr(time.monotonic()), str(config),
               str(out_dir), str(workers), repr(budget)] + ([str(spans)] if spans else [])
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _stop_group(proc.pid)
            stdout, stderr = proc.communicate()
            stderr += f"\nkilled after {timeout:.0f} s"
        finally:
            _stop_group(proc.pid)
            shutil.rmtree(out_dir, ignore_errors=True)
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if result is None:
            self.attempted += 1
            self._fail(seed, workers, spans, proc.returncode,
                       f"exit status {proc.returncode}, no result", stderr)
            return None
        good = []
        for call in result["calls"]:
            self.attempted += 1
            problem = self._check(call, seed)
            if problem is None:
                good.append(call)
            else:
                self._fail(seed, workers, spans, call["rc"], problem, stderr)
        result["calls"] = good
        return result if good and proc.returncode == 0 else None

    def _fail(self, seed, workers, spans, rc, problem, stderr) -> None:
        self.failures.append({"seed": seed, "workers": workers, "traced": spans is not None,
                              "rc": rc, "problem": problem, "stderr": stderr[-STDERR_KEEP:]})

    def _check(self, call: dict, seed: int) -> str | None:
        """What is wrong with one call's outputs, or None."""
        if call["rc"] != 0:
            return f"exit status {call['rc']}"
        hashes = call["hashes"]
        if seed == self.workload.default_seed and hashes != self.workload.pinned:
            return f"outputs differ from the pinned SHA-256: {hashes}"
        if call["summary"] is None:
            return "no summary.json written"
        problems = contract_problems(self.workload, call["summary"])
        if problems:
            return "contract violation: " + "; ".join(problems)
        expect = self.expected.setdefault(seed, hashes)
        if hashes != expect:
            return f"outputs differ from the first call at this seed: {hashes} != {expect}"
        return None

    def time_left(self) -> bool:
        return time.monotonic() - self.started < LAST_START_S


def measure(runner: Runner, config: Path, seed: int, seconds: float) -> dict:
    """Fresh interpreters, each making calls for a share of `seconds`: one
    set-up and peak-memory sample per interpreter, one throughput sample per
    call."""
    wl = runner.workload
    children = []
    t_end = time.monotonic() + seconds
    share = seconds / CHILDREN_PER_RUN
    need = 0.0  # set-up plus one call, as the last interpreter took
    while True:
        left = t_end - time.monotonic()
        r = runner.run(config, seed, wl.workers, budget=min(share, left - need))
        if r is not None:
            children.append(r)
            need = r["setup_s"] + max(c["wall_s"] for c in r["calls"])
        if time.monotonic() + need >= t_end or not runner.time_left():
            break
    calls = [c for r in children for c in r["calls"]]
    ref_s = metrics.median([c["ref_s"] for c in calls]) if calls else REFERENCE_S
    series = {
        "throughput": [wl.items / c["wall_s"] * c["ref_s"] / REFERENCE_S for c in calls],
        "setup_s": [r["setup_s"] * REFERENCE_S / ref_s for r in children],
        "peak_rss_mb": [r["peak_rss_mb"] for r in children],
        "throughput_unscaled": [wl.items / c["wall_s"] for c in calls],
        "setup_s_unscaled": [r["setup_s"] for r in children],
        "reference_s": [c["ref_s"] for c in calls]}
    return {name: metrics.summarize(v) if v else None for name, v in series.items()}


def measure_traced(runner: Runner, config: Path, seed: int,
                   seconds: float) -> tuple[dict, int]:
    """Median per-layer metrics over the cycles, and the replicas per traced run."""
    wl = runner.workload
    cycles, replicas = [], 0
    spans_path = runner.work / "spans.json"
    t_end = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        plain = runner.run(config, seed, 1)
        pooled = runner.run(config, seed, wl.workers) if wl.workers != 1 else plain
        traced = runner.run(config, seed, 1, spans=spans_path)
        if plain and pooled and traced:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            plain_s = plain["calls"][0]["wall_s"]
            m = metrics.layer_metrics(spans)
            m["cli.bytes_written"] = traced["calls"][0]["bytes_written"]
            m["cli.pool_speedup"] = plain_s / pooled["calls"][0]["wall_s"]
            m["trace.overhead_frac"] = traced["calls"][0]["wall_s"] / plain_s - 1.0
            cycles.append(m)
            replicas = metrics.replica_count(spans)
        spans_path.unlink(missing_ok=True)
        now = time.monotonic()
        if now + (now - t0) >= t_end or not runner.time_left():
            break
    if not cycles:
        return {}, replicas
    return {name: metrics.median([c[name] for c in cycles]) for name in cycles[0]}, replicas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="source seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "renege" / "cli.py").is_file():
        print(f"no renege source tree under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root))
    try:
        runner = Runner(root, work, wl)
        config = runner.write_config(seed)
        if args.trace:
            runner.run(runner.write_config(wl.default_seed), wl.default_seed, 1)
            layers, replicas = measure_traced(runner, config, seed, args.seconds)
        else:
            e2e = measure(runner, config, seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    failed = len(runner.failures)
    report = {"workload": wl.name, "seed": seed, "item": wl.item, "items_per_run": wl.items,
              "workers": wl.workers, "trace": args.trace, "seconds": args.seconds,
              "failed_frac": failed / runner.attempted, "failures": runner.failures,
              "provenance": provenance(root)}
    if args.trace:
        report["layers"] = layers
        report["largest_layer"] = metrics.largest_layer(layers) if layers else None
        report["p99_reported_at"] = metrics.tail_rank(replicas)
        values = {name: (v, unit_of(name)) for name, v in layers.items()}
        print(f"{wl.name} traced at seed {seed}: largest self-time layer "
              f"{report['largest_layer']}, {replicas} replicas "
              f"(*_p99 reported at p{report['p99_reported_at']})")
        for name, (v, unit) in values.items():
            print(f"  {name:40s} {v:.6g} {unit}")
    else:
        report["end_to_end"] = e2e
        values = {name: (e2e[name]["median"] if e2e[name] else 0.0, END_TO_END_UNITS[name])
                  for name in END_TO_END}
        print(f"{wl.name} at seed {seed}: {wl.items} {wl.item} per cli run, "
              f"--workers {wl.workers}")
        for name, s in e2e.items():
            if s:
                unit = END_TO_END_UNITS[name].replace("items", wl.item)
                print(f"  {name:19s} {s['median']:.6g} {unit}  (median of {s['n']}, "
                      f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"  failed_frac         {failed}/{runner.attempted} = {report['failed_frac']:.6g}")
    for f in runner.failures:
        print(f"  FAILED ({f['problem']}): {f['stderr'].strip()[-400:]}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
