"""Arithmetic of the benchmark: medians, quartiles, the tail-percentile rule,
span self times, and the per-layer metrics derived from a traced run.

Everything here is pure: it takes numbers or span records and returns numbers,
so the self-tests in test_bench.py can check it without running renege.

A span record is the list ``[name, start, end, parent, info]`` written by
tracing.Tracer: ``name`` is ``"<layer>:<function>"`` (``"<layer>:import"`` for
the execution of a module at import), ``parent`` is the index of the enclosing
span or -1, and ``info`` is None or a small list whose meaning depends on the
function (see tracing.py).
"""

from __future__ import annotations

import math
import statistics

# Layers are renege's modules; "cli.config", "cli.pool" and "cli.write" are
# child spans of cli.run_scenario that cli.self_s leaves out.
LAYERS = ("marks", "recursion", "fifo_begin", "fifo_end", "estimation", "des", "cli")

# Highest rung first; p50 is the fallback when no rung has 10 samples beyond it.
PERCENTILE_LADDER = (99.0, 90.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(sorted_values, q: float) -> float:
    """Value at percentile q by the nearest-rank rule (rank ceil(q/100 * n))."""
    n = len(sorted_values)
    k = max(1, math.ceil(q / 100.0 * n))
    return float(sorted_values[k - 1])


def tail_rank(n: int, cap: float = 99.0) -> float | None:
    """Highest percentile q <= cap that still has at least MIN_BEYOND of n
    samples beyond it; 50 when no rung qualifies, None when n is 0."""
    if n == 0:
        return None
    for q in PERCENTILE_LADDER:
        if q <= cap and n - max(1, math.ceil(q / 100.0 * n)) >= MIN_BEYOND:
            return q
    return 50.0


def tail_percentile(values, cap: float = 99.0) -> float:
    """Value at tail_rank(len(values), cap); 0.0 when there are no samples."""
    q = tail_rank(len(values), cap)
    return 0.0 if q is None else nearest_rank(sorted(values), q)


def summarize(values) -> dict:
    """Median, quartiles, sample count and the tail percentile of a timing."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "tail_q": tail_rank(len(values)), "tail": tail_percentile(values)}


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus the time its direct
    child spans cover, summed by layer.  Import spans are summed under
    "<layer>.import".  Spans on one thread nest, so the children of a span
    never overlap and their durations add."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        layer, _, func = name.partition(":")
        key = layer + ".import" if func == "import" else layer
        out[key] = out.get(key, 0.0) + (end - start) - covered[i]
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def _mean(values) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced cli run, by metric name.

    info by span name (see tracing.py):
    - marks:window_arrays  [marks generated, 1 if called outside the mark cache]
    - recursion:certified_zero  [certificate depth] on a hit, None on a miss
    - fifo_*:exact_triple_*  [renovation distance, certificate depth]
    - fifo_*:loss_*  [forward steps] in approximate mode
    - des:simulate  [customers, events]
    """
    selfs = self_times(spans)
    marks_calls = generated = direct = 0
    certify_calls = hits = 0
    steps = {"fifo_begin": 0, "fifo_end": 0}
    replica_ms: dict[str, list[float]] = {"fifo_begin": [], "fifo_end": []}
    distances: list[int] = []
    depths: list[int] = []
    estimation_calls = customers = events = 0
    for name, start, end, _, info in spans:
        layer, _, func = name.partition(":")
        if func == "import":
            continue
        if name == "marks:window_arrays":
            marks_calls += 1
            generated += info[0]
            direct += info[0] * info[1]
        elif name == "recursion:certified_zero":
            certify_calls += 1
            hits += info is not None
        elif layer in steps and func.startswith("exact_triple"):
            replica_ms[layer].append((end - start) * 1e3)
            distances.append(info[0])
            depths.append(info[1])
            steps[layer] += info[0]
        elif layer in steps and info is not None:
            steps[layer] += info[0]
        elif layer == "estimation":
            estimation_calls += 1
        elif name == "des:simulate":
            customers += info[0]
            events += info[1]
    # an exact row reads exactly the marks in [start - depth, epoch - 1]
    useful = direct + sum(distances) + sum(depths)
    out = {
        "marks.calls": marks_calls,
        "marks.generated": generated,
        "marks.useful_ratio": useful / generated if generated else 0.0,
        "marks.self_s": selfs.get("marks", 0.0),
        "marks.per_s": _rate(generated, selfs.get("marks", 0.0)),
        "recursion.certify_calls": certify_calls,
        "recursion.hit_ratio": hits / certify_calls if certify_calls else 0.0,
        "recursion.renovation_distance_mean": _mean(distances),
        "recursion.renovation_distance_p99": tail_percentile(distances),
        "recursion.cert_depth_mean": _mean(depths),
        "recursion.cert_depth_p99": tail_percentile(depths),
        "recursion.self_s": selfs.get("recursion", 0.0),
    }
    for mod in ("fifo_begin", "fifo_end"):
        out[f"{mod}.steps"] = steps[mod]
        out[f"{mod}.self_s"] = selfs.get(mod, 0.0)
        out[f"{mod}.steps_per_s"] = _rate(steps[mod], selfs.get(mod, 0.0))
        out[f"{mod}.replica_p50_ms"] = (nearest_rank(sorted(replica_ms[mod]), 50.0)
                                        if replica_ms[mod] else 0.0)
        out[f"{mod}.replica_p99_ms"] = tail_percentile(replica_ms[mod])
    out.update({
        "estimation.calls": estimation_calls,
        "estimation.self_s": selfs.get("estimation", 0.0),
        "des.customers": customers,
        "des.events": events,
        "des.self_s": selfs.get("des", 0.0),
        "des.events_per_s": _rate(events, selfs.get("des", 0.0)),
        "cli.self_s": selfs.get("cli", 0.0),
        "cli.write_s": selfs.get("cli.write", 0.0),
    })
    for layer in LAYERS:
        out[f"{layer}.import_s"] = selfs.get(layer + ".import", 0.0)
    return out


def replica_count(spans) -> int:
    """Exact replicas (exact_triple_* spans) in a traced run: the sample count
    behind the *_p99 replica and renovation metrics."""
    return sum(1 for s in spans if s[0].partition(":")[2].startswith("exact_triple"))


def largest_layer(metrics: dict[str, float]) -> str:
    """Layer with the largest runtime self time (imports excluded)."""
    return max(LAYERS, key=lambda layer: metrics.get(f"{layer}.self_s", 0.0))
