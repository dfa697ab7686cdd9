"""renege CLI runs in one fresh interpreter, started by run.py.

    python3 benchmarks/child.py LAUNCHED CONFIG OUT_DIR WORKERS BUDGET [SPANS]

LAUNCHED is the CLOCK_MONOTONIC time at which the parent started this process
(the clock is system-wide on Linux).  The child imports renege, loads the
config and builds its MarkSource (set-up), then calls renege.cli.main on the
same config, each call writing to its own directory under OUT_DIR.  It keeps
calling while the next call is expected to end within BUDGET seconds of the
first call's start, and always makes at least one call; it stops at the first
call that exits non-zero.  After each call it hashes and removes what the call
wrote, so only one call's outputs are on disk at a time.

Right after set-up and after every call it runs reference_s(), which times
a fixed kernel that calls no renege code, so run.py can scale each timing to a
reference host speed: the host's speed drifts by tens of percent over
minutes, and the kernel drifts with it.

Its last stdout line is a JSON object with the set-up time, the peak resident
memory of this process and its pool workers, and per call the exit status,
the cli.main wall time, the mean of the kernel times just before and after
the call, the SHA-256 and total size of the outputs, and the parsed
summary.json.  With SPANS it makes exactly one call, records spans
(tracing.py) from before the first renege import and writes them to SPANS.
"""

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def outputs(out: Path) -> dict:
    files = sorted(out.iterdir()) if out.is_dir() else []
    summary = out / "summary.json"
    return {"hashes": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
            "bytes_written": sum(p.stat().st_size for p in files),
            "summary": json.loads(summary.read_text(encoding="utf-8"))
            if summary.is_file() else None}


def _kernel() -> None:
    import numpy as np
    d = {}
    for i in range(100_000):
        d[i & 1023] = d.get(i & 1023, 0) + i * 3
    a = np.arange(200_000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * 1.0001 + 1.0)


def reference_s() -> float:
    """Median seconds of three runs of a fixed interpreter and numpy kernel
    (about 34 ms each on the host behind run.REFERENCE_S)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def main(argv) -> int:
    launched, config, out_dir = float(argv[0]), argv[1], Path(argv[2])
    workers, budget = argv[3], float(argv[4])
    spans = argv[5] if len(argv) > 5 else None
    tracer = None
    if spans is not None:
        import numpy  # noqa: F401  (shared by every layer, so charged to none)

        import tracing
        tracer = tracing.Tracer()
        finder = tracing.ImportTimer(tracer)
        sys.meta_path.insert(0, finder)
    import renege
    from renege import cli
    with open(config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    renege.source_from_config(cfg["source"])
    setup_s = time.monotonic() - launched
    if tracer is not None:
        sys.meta_path.remove(finder)
        tracing.install(tracer)
    reference_s()  # warm-up: the first run after set-up is slower
    refs = [reference_s()]
    calls, rc = [], 0
    first = time.perf_counter()
    while True:
        out = out_dir / f"call-{len(calls)}"
        t0 = time.perf_counter()
        rc = cli.main([cfg["experiment"], "--config", config, "--out-dir", str(out),
                       "--workers", workers])
        wall_s = time.perf_counter() - t0
        refs.append(reference_s())
        calls.append({"rc": rc, "wall_s": wall_s, "ref_s": (refs[-2] + refs[-1]) / 2,
                      **outputs(out)})
        shutil.rmtree(out, ignore_errors=True)
        if rc != 0 or tracer is not None:
            break
        if time.perf_counter() + wall_s - first > budget:
            break
    if tracer is not None:
        tracer.dump(spans)
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": kib / 1024.0, "calls": calls}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
