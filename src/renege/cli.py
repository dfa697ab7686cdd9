"""Command-line front end: one subcommand per experiment.

Every run takes a JSON scenario config (--config), writes summary.json plus
CSV detail files into --out-dir, and exits 0 on success, 2 on config errors,
3 on capability errors (an exact mode without the bound it needs, no
renovation epoch in range, or a Markov chain with no regeneration within
reach), 4 on contract violations.  What each experiment takes from the
config's model and run sections is one table, SCHEMA: each key's caster,
default, minimum, choices and numpy byte unit.  run_scenario checks the key
names, then the source, then every value against it, and only then makes the
out dir, so a config error leaves no path behind; the experiments read the
checked values, and the config itself is only echoed into summary.json.
Summaries carry the config hash, seeds, and method tags, and contain nothing
run-dependent, so identical configs replay to bit-identical files regardless
of --workers.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import orjson

from . import __version__
from .cesaro import boundary_mass, cesaro_distribution, invariance_distance, tightness_report
from .des import (
    Scenario,
    recursion_discrepancy,
    regeneration_stats,
    simulate_blocks,
    time_tolerance,
)
from .estimation import mc_aggregate
from .fifo import (
    BEGIN,
    END,
    MODELS,
    Model,
    exact_rows,
    loss_counts,
    loss_probability,
    loss_report,
    sample_stationary,
)
from .marks import (
    ConfigError,
    MarkSource,
    _cast,
    check_keys,
    source_from_config,
    strict_float,
    strict_int,
)
from .properties import (
    des_inclusion_suite,
    end_case_table_mismatches,
    pointwise_inequality_suite,
    step_monotonicity_violations,
)
from .recursion import CapabilityError, DepthExhaustedError, RenovationNotFoundError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPABILITY = 3
EXIT_CONTRACT = 4

_CSV_ROWS = 1024  # rows formatted at once by _csv_rows
_RANGE_ROWS = 8192  # the most replica rows in one range of _parallel_rows
_INDEX_MAX = int(np.iinfo(np.intp).max)

# The process's one worker pool, (workers, pool), or None: _executor starts it
# at the first pooled call and replaces it when the worker count changes;
# concurrent.futures joins its workers at interpreter exit.
_pool: tuple[int, ProcessPoolExecutor] | None = None


def _levels(values) -> tuple[float, ...]:
    """Quantile levels as floats, each in [0, 1]."""
    levels = tuple(strict_float(v) for v in values)
    if not all(0.0 <= q <= 1.0 for q in levels):
        raise ValueError(f"quantile levels must lie in [0, 1], got {list(levels)}")
    return levels


class _Key(NamedTuple):
    """One model or run key of an experiment (SCHEMA): caster(value), or the
    default when the config leaves the key out, must be at least minimum, one
    of choices when they are given, and at most the count whose largest
    numpy array, at unit bytes a count, takes _INDEX_MAX bytes."""

    caster: Callable
    default: object
    minimum: int | None = None
    unit: int | None = None
    choices: tuple = ()


_SERVERS = _Key(strict_int, 1, 1)
_ONE_SERVER = _Key(strict_int, 1, 1, choices=(1,))  # the single-server recursions
_IMPATIENCE = _Key(str, BEGIN.name, choices=tuple(MODELS))
_CUSTOMERS = _Key(strict_int, 10_000, 1)
_MAX_DEPTH = _Key(strict_int, 10_000, 1)


def _replica_keys(model: Model) -> dict:
    """The keys of the sample and loss experiments, which run one server and
    their own model."""
    return {"model": {"servers": _ONE_SERVER,
                      "impatience": _Key(str, model.name, choices=(model.name,))},
            "run": {"mode": _Key(str, "exact", choices=("exact", "approximate")),
                    "samples": _Key(strict_int, 1000, 1),
                    "max_epochs": _Key(strict_int, 10_000, 1, unit=1),  # taken as a C long
                    "max_depth": _MAX_DEPTH,
                    "warmup": _Key(strict_int, 100_000, 0)}}


# The model and run keys each experiment takes: any other is refused, though
# another experiment may take it.
SCHEMA = {
    "sample-w": _replica_keys(BEGIN),
    "sample-s": _replica_keys(END),
    "loss-begin": _replica_keys(BEGIN),
    "loss-end": _replica_keys(END),
    "regen": {"model": {"servers": _SERVERS, "impatience": _IMPATIENCE},
              "run": {"customers": _CUSTOMERS, "replicas": _Key(strict_int, 200, 1, unit=8),
                      "max_depth": _MAX_DEPTH}},
    "des": {"model": {"servers": _SERVERS, "impatience": _IMPATIENCE},
            "run": {"customers": _CUSTOMERS}},
    "xval": {"model": {"servers": _ONE_SERVER, "impatience": _IMPATIENCE},
             "run": {"customers": _CUSTOMERS}},
    "cesaro": {"model": {"servers": _ONE_SERVER, "impatience": _IMPATIENCE},
               "run": {"steps": _Key(strict_int, 10_000, 1, unit=24),  # three float64 rows
                       "boundary_p": _Key(strict_int, 10, 1),
                       "quantiles": _Key(_levels, (0.5, 0.9, 0.99, 0.999))}},
    "props": {"model": {}, "run": {"tuples": _Key(strict_int, 100_000, 1, unit=8),
                                   "prop_seed": _Key(strict_int, 20240811, 0)}},
}
CONFIG_KEYS = ("experiment", "source", "model", "run")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _check_config_keys(cfg: dict, experiment: str) -> None:
    check_keys(cfg, CONFIG_KEYS, "top-level config")
    for section, keys in SCHEMA[experiment].items():
        block = cfg.get(section, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        check_keys(block, keys, f"{experiment} config section {section!r}")


def _params(cfg: dict, experiment: str) -> dict:
    """The experiment's model and run values by key name, each read from the
    config, or its default, and checked by its SCHEMA entry."""
    params = {}
    for section, keys in SCHEMA[experiment].items():
        block = cfg.get(section, {})
        for key, (caster, default, minimum, unit, choices) in keys.items():
            name = f"config key {section}.{key}"
            value = _cast(block[key], caster, name) if key in block else default
            if minimum is not None and value < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {value}")
            if unit is not None and value > (most := _INDEX_MAX // unit):
                raise ConfigError(f"{name} must be <= {most}, got {value}")
            if choices and value not in choices:
                raise ConfigError(f"{name} must be one of {list(choices)} for {experiment}, "
                                  f"got {value!r}")
            params[key] = value
    return params


def _build_source(cfg: dict, seed_override: int | None) -> MarkSource:
    if "source" not in cfg:
        raise ConfigError("config is missing the 'source' section")
    scfg = dict(cfg["source"])
    if seed_override is not None:
        scfg["seed"] = seed_override
    return source_from_config(scfg)


def _config_sha256(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_summary(out_dir: Path, experiment: str, cfg: dict, seeds: dict, results: dict) -> None:
    payload = {
        "tool": "renege",
        "version": __version__,
        "experiment": experiment,
        "config": cfg,
        "config_sha256": _config_sha256(cfg),
        "seeds": seeds,
        "results": results,
    }
    # serialize first so a failure never leaves a truncated file behind
    blob = json.dumps(payload, sort_keys=True, indent=2, default=lambda o: o.item()) + "\n"
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        fh.write(blob)


def _finish(out_dir: Path, experiment: str, cfg: dict, src: MarkSource, results: dict,
            violation: str | None = None, **seeds) -> int:
    """Write summary.json and return the exit status: EXIT_CONTRACT, after
    reporting it, when the run broke a contract."""
    _write_summary(out_dir, experiment, cfg, {"seed": src.seed, "stream": src.stream, **seeds},
                   results)
    if violation:
        print(f"contract violation: {violation}", file=sys.stderr)
        return EXIT_CONTRACT
    return EXIT_OK


@contextmanager
def _csv_file(path: Path, header: list[str], preamble: str | None = None):
    """An open file holding the preamble and the header, for the caller's rows:
    it becomes path when the block ends, and a block that raises leaves none."""
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            if preamble:
                fh.write(preamble + "\n")
            _write_lines(fh, [[h] for h in header])
            yield fh
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)


def _csv_rows(fh, columns: list) -> None:
    """Write the columns' rows, _CSV_ROWS rows at a time, each formatted a
    column at a time by the one cell rule (_cells)."""
    for lo in range(0, len(columns[0]), _CSV_ROWS):
        _write_lines(fh, [_cells(c[lo:lo + _CSV_ROWS]) for c in columns])


def _write_lines(fh, columns: list) -> None:
    """Rows of the columns' cells, joined by commas and ended by \\r\\n, as
    csv.writer writes cells that need no quoting: no cell the program writes
    holds a comma, a quote or a line end."""
    fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _cells(col) -> list[str]:
    """One column's cells as text, by the kind of column, with no per-cell type
    check: a float64 array by _float_cells, an int64 array by orjson's integers
    (int.__repr__'s text), one whose values all have the same bits (compared
    as int64, so 0.0 and -0.0 differ) as one cell's text repeated; a range by
    int.__repr__; and a list as the program's own text cells."""
    if isinstance(col, list):
        return col
    if isinstance(col, range):
        return list(map(int.__repr__, col))
    bits = col.view(np.int64)
    same = bits.size > 1 and (bits == bits[0]).all()
    cells = (_float_cells if col.dtype == np.float64 else _json_cells)(col[:1] if same else col)
    return cells * col.size if same else cells


def _json_cells(a: np.ndarray) -> list[str]:
    """orjson's text of each value of a float64 or int64 array, from one
    dumps call over the whole array."""
    text = orjson.dumps(np.ascontiguousarray(a), option=orjson.OPT_SERIALIZE_NUMPY)
    return text[1:-1].decode().split(",") if a.size else []


def _float_cells(a: np.ndarray) -> list[str]:
    """float.__repr__ of each value of a float64 array, blank for NaN (a
    missing value): orjson's Ryu text, which is repr's shortest round-trip
    digits, and repr again for the cells where orjson's layout differs:
    infinities (orjson's null) and nonzero values outside 1e-4 <= |x| < 1e16
    (orjson's 0.00001 and 1e16 for 1e-05 and 1e+16)."""
    cells = _json_cells(a)
    mag = np.abs(a)
    odd = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (a != 0.0))
    for i, v in zip(odd.tolist(), a[odd].tolist()):
        cells[i] = "" if v != v else float.__repr__(v)
    return cells


def _ranges(total: int, workers: int):
    """_parallel_rows' ranges over 0..total, of sizes that differ by one at most,
    yielded one at a time: one per worker, or the fewest multiple of workers
    within _RANGE_ROWS rows each."""
    parts = workers * -(-total // (workers * _RANGE_ROWS))
    for i in range(parts):
        lo, hi = total * i // parts, total * (i + 1) // parts
        if lo < hi:
            yield lo, hi


def _replica_rows(kind: str, src: MarkSource, params: dict, lo: int, hi: int) -> tuple:
    """Replica-indexed rows lo..hi-1 as detail.csv text (_csv_rows), with the
    loss rows' indicator counts (fifo.loss_counts) or the sample rows' W."""
    model = MODELS[params["impatience"]]
    if params["mode"] == "exact":
        columns = exact_rows(model, src, lo, hi, params["max_epochs"], params["max_depth"],
                             int(kind == "sample"))
    else:
        # approximate draws of a non-iid source sit further apart than their warm-up
        spacing = max(2 * params["max_depth"], params["warmup"])
        w = np.array([sample_stationary(model, rep.shift(e), warmup=params["warmup"])
                      for rep, e in (src.replica(r, spacing) for r in range(lo, hi))])
        columns = [range(lo, hi), w, ["forward-approximate"] * w.size, *[[""] * w.size] * 2]
    text = io.StringIO(newline="")
    _csv_rows(text, columns)
    return text.getvalue(), loss_counts(model, columns[1:]) if kind == "loss" else columns[1]


def _executor(workers: int) -> ProcessPoolExecutor:
    """The live pool of `workers` workers: a pool of another size is shut
    down first, and a new one started when none is live."""
    global _pool
    if _pool is not None and _pool[0] != workers:
        _drop_pool()
    if _pool is None:
        _pool = workers, ProcessPoolExecutor(max_workers=workers)
    return _pool[1]


def _drop_pool() -> None:
    """Shut down the live pool, if any, waiting for its workers to end."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown()


def _pooled(fn, ranges, workers: int):
    """fn(lo, hi) of each range, in order, run on the process's pool
    (_executor) with at most 2 * workers ranges submitted and not yet
    returned: Executor.map would submit them all, and the results of later
    ranges would wait in memory until the earlier ones are written.  Ranges
    not yet started are cancelled when the caller stops early."""
    pool, pending = _executor(workers), deque()
    try:
        for lo, hi in ranges:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, lo, hi))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _parallel_rows(kind: str, src: MarkSource, params: dict, total: int, workers: int, fh):
    """Rows 0..total-1 (_replica_rows) in _ranges, over at most one worker a
    row: in-process at one worker, else over the process's pool (_pooled),
    each range's text written to fh in replica order as it arrives.  Returns
    the loss rows' indicator counts, summed as they arrive, or the sample
    rows' W in replica order.  A pool that breaks is dropped and its error
    raised."""
    workers = min(workers, total)
    ranges = _ranges(total, workers)
    rows = partial(_replica_rows, kind, src, params)
    counts, values = None, []
    try:
        for text, stat in (_pooled(rows, ranges, workers) if workers > 1
                           else (rows(lo, hi) for lo, hi in ranges)):
            fh.write(text)
            if kind == "loss":
                counts = stat if counts is None else [a + b for a, b in zip(counts, stat)]
            else:
                values.append(stat)
    except BrokenProcessPool:
        _drop_pool()
        raise
    return counts if kind == "loss" else np.concatenate(values)


def _exp_sample(experiment: str, cfg, params, out_dir, workers, src) -> int:
    samples = params["samples"]
    with _csv_file(out_dir / "detail.csv", ["replica", "value", "method", "renovation_epoch",
                                            "certificate_depth"]) as fh:
        values = _parallel_rows("sample", src, params, samples, workers, fh)
    results = {
        "model": params["impatience"],
        "method": "renovation-exact" if params["mode"] == "exact" else "forward-approximate",
        "samples": samples,
        "mean": (mc_aggregate(values, kind="real").as_dict() if samples > 1 else
                 {"point": values[0], "low": None, "high": None, "n": 1, "kind": "single"}),
        "zero_fraction": np.count_nonzero(values == 0.0) / samples,
        "max_value": values.max(),
    }
    return _finish(out_dir, experiment, cfg, src, results, replica_streams=[0, samples])


def _exp_loss(experiment: str, cfg, params, out_dir, workers, src) -> int:
    model, samples = MODELS[params["impatience"]], params["samples"]
    if params["mode"] == "exact":
        with _csv_file(out_dir / "detail.csv", model.columns) as fh:
            counts = _parallel_rows("loss", src, params, samples, workers, fh)
        report = loss_report(model, src, counts, samples, "renovation-exact")
    else:
        report = loss_probability(model, src, samples, mode="approximate",
                                  warmup=params["warmup"])
    results = {
        "model": report.model,
        "method": report.method,
        "pi_hat": report.pi_hat.as_dict(),
        "lower_bound": report.lower_bound.as_dict(),
        "upper_bound": report.upper_bound.as_dict(),
        "bracket_ok": report.bracket_ok,
        "replicas": report.replicas,
    }
    if report.pi_never_reach is not None:
        results["pi_never_reach"] = report.pi_never_reach.as_dict()
    return _finish(out_dir, experiment, cfg, src, results,
                   None if report.bracket_ok else "loss estimate escapes its bounds")


def _scenario(params: dict, src) -> Scenario:
    return Scenario(servers=params["servers"], impatience=params["impatience"], source=src,
                    horizon_customers=params["customers"])


def _path_stats_results(stats) -> dict:
    return {
        "arrivals": stats.arrivals,
        "outcomes": dict(stats.outcome_counts),
        "empty_epoch_count": stats.empty_epoch_count,
        "inclusion_violations": stats.inclusion_violations,
        "sojourn_violations": stats.sojourn_violations,
        "time_average_congestion": stats.time_average_congestion,
        "horizon_time": stats.horizon_time,
        "l_zero_arrival_freq": stats.l_zero_arrival_freq,
        "m_zero_arrival_freq": stats.m_zero_arrival_freq,
    }


def _path_violation(stats) -> str | None:
    if stats.inclusion_violations or stats.sojourn_violations:
        return "inclusion or sojourn bounds broken"
    return None


def _exp_regen(cfg, params, out_dir, workers, src) -> int:
    scn = _scenario(params, src)
    with _csv_file(out_dir / "detail.csv", ["index", "l_before", "m_before", "x_before"]) as fh:
        stats = simulate_blocks(scn, lambda b: _csv_rows(fh, [
            range(b.start, b.start + b.x_before.size), b.l_before, b.m_before, b.x_before]))
        report = regeneration_stats(scn, stats, replicas=params["replicas"],
                                    max_depth=params["max_depth"])
    results = _path_stats_results(report.stats)
    results.update({
        "sufficient_alpha": report.sufficient_alpha,
        "p_zero_sufficient": {**report.p_zero_sufficient.estimate.as_dict(),
                              "exact": report.p_zero_sufficient.exact},
        "p_zero_necessary": {**report.p_zero_necessary.estimate.as_dict(),
                             "exact": report.p_zero_necessary.exact},
    })
    return _finish(out_dir, "regen", cfg, src, results, _path_violation(report.stats))


def _exp_des(cfg, params, out_dir, workers, src) -> int:
    scn = _scenario(params, src)
    with _csv_file(out_dir / "customers.csv", ["index", "arrival", "sigma", "dpat",
                                               "service_start", "departure", "outcome"]) as fh:
        stats = simulate_blocks(scn, lambda b: _csv_rows(fh, [
            range(b.start, b.start + b.arrival.size), b.arrival, b.sigma, b.dpat,
            b.service_start, b.departure, b.outcome]))
    return _finish(out_dir, "des", cfg, src, _path_stats_results(stats), _path_violation(stats))


def _exp_cesaro(cfg, params, out_dir, workers, src) -> int:
    model, n, p = params["impatience"], params["steps"], params["boundary_p"]
    mu = cesaro_distribution(src, n, model)
    inv = invariance_distance(mu, src)
    bmass = boundary_mass(mu, src, p)
    # the tightness block is the begin model's, whatever the run's model
    begin = mu if model == BEGIN.name else cesaro_distribution(src, n, BEGIN.name)
    tight = tightness_report(begin, src, params["quantiles"])
    results = {
        "model": model,
        "mode": "trajectory",
        "steps": n,
        "invariance_distance": inv,
        "boundary_p": p,
        "boundary_mass": bmass,
        "tightness": {
            "levels": list(tight.levels),
            "w_quantiles": list(tight.w_quantiles),
            "l_quantiles": list(tight.l_quantiles),
            "ordered_ok": tight.ordered_ok,
        },
    }
    preamble = f"# n_steps={mu.n_steps} model={mu.model} seed={src.seed} stream={src.stream}"
    with _csv_file(out_dir / "detail.csv", ["value", "weight"], preamble) as fh:
        _csv_rows(fh, [mu.values, mu.weights])
    return _finish(out_dir, "cesaro", cfg, src, results)


def _exp_xval(cfg, params, out_dir, workers, src) -> int:
    scn = _scenario(params, src)
    disc, horizon = recursion_discrepancy(scn)
    tol = float(time_tolerance(horizon))
    ok = disc <= tol
    return _finish(out_dir, "xval", cfg, src,
                   {"model": scn.impatience, "customers": scn.horizon_customers,
                    "max_discrepancy": disc, "tolerance": tol, "contract_ok": ok},
                   None if ok else f"DES/recursion discrepancy {disc:g} > {tol:g}")


def _exp_props(cfg, params, out_dir, workers, src) -> int:
    count, seed = params["tuples"], params["prop_seed"]
    suite = pointwise_inequality_suite(count, seed)
    suite["step_monotonicity"] = step_monotonicity_violations(count, seed + 1)
    suite["end_case_table"] = end_case_table_mismatches(count, seed + 2)
    suite.update(des_inclusion_suite(seed + 3))
    total = sum(suite.values())
    for name, bad in suite.items():
        print(f"{name}: {'ok' if bad == 0 else f'{bad} violations'}")
    return _finish(out_dir, "props", cfg, src,
                   {"violations": suite, "total_violations": total, "tuples": count},
                   "property suite found violations" if total else None)


EXPERIMENTS = {
    "sample-w": partial(_exp_sample, "sample-w"),
    "sample-s": partial(_exp_sample, "sample-s"),
    "loss-begin": partial(_exp_loss, "loss-begin"),
    "loss-end": partial(_exp_loss, "loss-end"),
    "regen": _exp_regen,
    "des": _exp_des,
    "cesaro": _exp_cesaro,
    "xval": _exp_xval,
    "props": _exp_props,
}


def run_scenario(cfg: dict, experiment: str, out_dir: str | Path, workers: int = 1,
                 seed_override: int | None = None) -> int:
    """Execute one experiment; returns the process exit status.  Every config
    error is raised before the out dir is made."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    declared = cfg.get("experiment")
    if declared is not None and declared != experiment:
        raise ConfigError(f"config declares experiment {declared!r} but {experiment!r} was invoked")
    _check_config_keys(cfg, experiment)
    src = _build_source(cfg, seed_override)
    params = _params(cfg, experiment)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return EXPERIMENTS[experiment](cfg, params, out, workers, src)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="renege",
        description="Queues with impatient customers: exact stationary sampling, "
                    "loss bounds, event simulation, and property suites.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config (JSON)")
        p.add_argument("--out-dir", default="renege-out", help="report directory")
        p.add_argument("--workers", type=int, default=1, help="replica-level parallelism")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the source seed from the config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return run_scenario(cfg, args.experiment, args.out_dir,
                            workers=args.workers, seed_override=args.seed_override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapabilityError, RenovationNotFoundError, DepthExhaustedError) as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
