"""The arrival-indexed recursion against the event loop that pushed every
event through one heap, kept here as the oracle; the instant check and its
memory; the run in blocks against one whole-horizon block; and the memory of
the statistics, which keep no block."""

import hashlib
import heapq
import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from renege import (
    Discrete,
    Scenario,
    Uniform,
    deterministic_source,
    iid_source,
    simulate,
    source_from_config,
    workload_before_arrivals,
)
from renege import des
from renege.cli import main
from renege.des import (
    OUTCOME_ABANDONED,
    OUTCOME_ABORTED,
    OUTCOME_SERVED,
    SOJOURN_TIME_TOL,
    PathBlock,
)

_COMPLETION, _DEADLINE, _ARRIVAL = 0, 1, 2
_WAITING, _IN_SERVICE, _DONE = 0, 1, 2


def heap_loop(scn, shift=0.0):
    """Every event through one heap, arrivals included: the event-driven
    simulation simulate must reproduce.  The inclusion checks see the running
    maxima moved by shift, e_l lowered and e_m raised, and are counted with
    the instants they close."""
    n_cust = scn.horizon_customers
    end_model = scn.impatience == "end"
    xi, sigma, dpat = scn.source.window_arrays(0, n_cust - 1)
    sigma_l, dpat_l = sigma.tolist(), dpat.tolist()
    arrival = np.concatenate([[0.0], np.cumsum(xi)[:-1]]) if n_cust > 1 else np.zeros(1)
    arrival_l = arrival.tolist()

    status = [_WAITING] * n_cust
    service_start = [math.nan] * n_cust
    departure = [0.0] * n_cust
    outcome = [""] * n_cust
    server_of = [-1] * n_cust

    free = list(range(scn.servers))
    heapq.heapify(free)
    queue = deque()
    heap = [(0.0, _ARRIVAL, 0)]

    l_before = np.zeros(n_cust)
    m_before = np.zeros(n_cust)
    x_before = np.zeros(n_cust, dtype=np.int64)

    e_l = -math.inf
    e_m = -math.inf
    x = 0
    integral = 0.0
    t_prev = 0.0
    empty_epochs = 0
    inclusion_violations = 0
    closes = 0
    sojourn_violations = 0
    counts = {OUTCOME_SERVED: 0, OUTCOME_ABANDONED: 0, OUTCOME_ABORTED: 0}

    def dispatch(now):
        while free and queue:
            j = queue[0]
            if status[j] != _WAITING:
                queue.popleft()
                continue
            queue.popleft()
            server = heapq.heappop(free)
            status[j] = _IN_SERVICE
            service_start[j] = now
            server_of[j] = server
            heapq.heappush(heap, (now + sigma_l[j], _COMPLETION, j))

    def depart(j, now, kind):
        nonlocal x, empty_epochs, sojourn_violations
        status[j] = _DONE
        departure[j] = now
        outcome[j] = kind
        counts[kind] += 1
        x -= 1
        if x == 0:
            empty_epochs += 1
        soj = now - arrival_l[j]
        lb = sigma_l[j] if sigma_l[j] < dpat_l[j] else dpat_l[j]
        ub = dpat_l[j] if end_model else sigma_l[j] + dpat_l[j]
        if soj < lb - SOJOURN_TIME_TOL or soj > ub + SOJOURN_TIME_TOL:
            sojourn_violations += 1

    while heap:
        t, tie, j = heapq.heappop(heap)
        if tie == _COMPLETION:
            valid = status[j] == _IN_SERVICE
        elif tie == _DEADLINE:
            valid = status[j] == _WAITING or (end_model and status[j] == _IN_SERVICE)
        else:
            valid = True
        if valid:
            integral += x * (t - t_prev)
            t_prev = t
            if tie == _ARRIVAL:
                lp = e_l - t
                l_before[j] = lp if lp > 0.0 else 0.0
                mp = e_m - t
                m_before[j] = mp if mp > 0.0 else 0.0
                x_before[j] = x
                x += 1
                deadline = t + dpat_l[j]
                term_l = deadline if end_model else deadline + sigma_l[j]
                if term_l > e_l:
                    e_l = term_l
                smin = sigma_l[j] if sigma_l[j] < dpat_l[j] else dpat_l[j]
                term_m = t + smin
                if term_m > e_m:
                    e_m = term_m
                heapq.heappush(heap, (deadline, _DEADLINE, j))
                queue.append(j)
                dispatch(t)
                if j + 1 < n_cust:
                    heapq.heappush(heap, (arrival_l[j + 1], _ARRIVAL, j + 1))
            elif tie == _COMPLETION:
                depart(j, t, OUTCOME_SERVED)
                heapq.heappush(free, server_of[j])
                dispatch(t)
            else:
                if status[j] == _WAITING:
                    depart(j, t, OUTCOME_ABANDONED)
                else:
                    depart(j, t, OUTCOME_ABORTED)
                    heapq.heappush(free, server_of[j])
                    dispatch(t)
        if not heap or heap[0][0] != t:
            closes += 1
            if e_l - shift <= t and x > 0:
                inclusion_violations += 1
            if x == 0 and e_m + shift > t:
                inclusion_violations += 1

    columns = {"arrival": arrival_l, "sigma": sigma_l, "dpat": dpat_l,
               "service_start": service_start, "departure": departure, "outcome": outcome}
    stats = {"counts": counts, "empty_epochs": empty_epochs,
             "inclusion_violations": inclusion_violations, "closes": closes,
             "sojourn_violations": sojourn_violations,
             "horizon_time": t_prev, "integral": integral,
             "time_average_congestion": integral / t_prev if t_prev > 0.0 else 0.0,
             "l_before": l_before, "m_before": m_before, "x_before": x_before}
    return columns, stats


def heap_loop_workload(columns):
    """Workload before each arrival by the record walk it replaced."""
    out = []
    f = -math.inf
    for a, s, d in zip(columns["arrival"], columns["service_start"], columns["departure"]):
        v = f - a
        out.append(v if v > 0.0 else 0.0)
        if not math.isnan(s) and d > f:
            f = d
    return out


def _hex(values):
    return [float(v).hex() for v in values]


def _tie_heavy(seed):
    # atoms at 0 everywhere: simultaneous arrivals, zero services completing
    # on arrival and deadlines falling on arrivals, completions and each other
    return iid_source(Discrete((0.0, 0.5, 1.0), (0.4, 0.3, 0.3)),
                      Discrete((0.0, 0.5, 1.0, 1.5), (0.25, 0.25, 0.25, 0.25)),
                      Discrete((0.0, 0.5, 1.0), (0.3, 0.4, 0.3)), seed=seed)


SOURCES = {
    "tie-heavy": _tie_heavy(4242),
    "tie-heavy-overloaded": iid_source(Discrete((0.0, 0.5), (0.6, 0.4)),
                                       Discrete((0.0, 1.0, 2.0), (0.2, 0.4, 0.4)),
                                       Discrete((0.0, 0.5, 2.0), (0.2, 0.3, 0.5)), seed=77),
    "deterministic-equal": deterministic_source(1.0, 1.0, 1.0, seed=1),
    "deterministic-half": deterministic_source(0.5, 0.5, 0.5, seed=1),
    "deterministic-overloaded": deterministic_source(0.5, 1.0, 1.0, seed=1),
    "bounded": iid_source(Uniform(0.1, 1.0), Uniform(0.0, 1.6), Uniform(0.0, 1.0), seed=99),
}


@pytest.mark.parametrize("horizon", [1, 2, 3000])
@pytest.mark.parametrize("servers", [1, 2, 3, 4])
@pytest.mark.parametrize("model", ["begin", "end"])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_merged_arrivals_match_the_heap_loop(name, model, servers, horizon):
    scn = Scenario(servers=servers, impatience=model, source=SOURCES[name],
                   horizon_customers=horizon)
    got, stats = simulate(scn)
    want, ref = heap_loop(scn)
    assert isinstance(got, PathBlock) and got.start == 0
    # every field a numpy array but the outcomes' text: NaN marks a start that never came
    assert [k for k, v in vars(got).items() if isinstance(v, list)] == ["outcome"]
    assert [getattr(got, col).dtype for col in ("arrival", "xi", "sigma", "dpat", "service_start",
                                                "departure", "l_before", "m_before",
                                                "x_before")] == [np.float64] * 8 + [np.int64]
    for col in ("arrival", "sigma", "dpat", "service_start", "departure"):
        assert _hex(getattr(got, col)) == _hex(want[col]), col
    assert _hex(got.xi) == _hex(scn.source.window_arrays(0, horizon - 1)[0])
    assert got.outcome == want["outcome"]
    for series in ("l_before", "m_before"):
        assert _hex(getattr(got, series)) == _hex(ref[series]), series
    assert got.x_before.tolist() == ref["x_before"].tolist()
    assert stats.outcome_counts == ref["counts"]
    assert stats.empty_epoch_count == ref["empty_epochs"]
    assert stats.inclusion_violations == ref["inclusion_violations"] == 0
    assert stats.sojourn_violations == ref["sojourn_violations"] == 0
    assert stats.horizon_time.hex() == ref["horizon_time"].hex()
    assert (stats.time_average_congestion.hex()
            == float(ref["time_average_congestion"]).hex())
    if servers == 1:
        assert (_hex(workload_before_arrivals(got))
                == _hex(heap_loop_workload(want)))


def _instant_inputs(cols, model, shift):
    """instant_sums' arguments read from the columns, the running maxima
    moved by shift as heap_loop moves them."""
    a, s, d, dep = (np.array(getattr(cols, k)) for k in ("arrival", "sigma", "dpat", "departure"))
    e_l = np.maximum.accumulate(a + d if model == "end" else a + d + s) - shift
    e_m = np.maximum.accumulate(a + np.minimum(s, d)) + shift
    completion = cols.service_start + s
    stale = completion[np.array(cols.outcome) == OUTCOME_ABORTED]
    return a, np.sort(dep), e_l, e_m, np.sort(a + d), np.sort(stale)


@pytest.mark.parametrize("servers", [1, 3])
@pytest.mark.parametrize("model", ["begin", "end"])
@pytest.mark.parametrize("name", ["tie-heavy", "bounded"])
def test_instant_check_sees_every_instant_the_heap_loop_closes(name, model, servers,
                                                              monkeypatch):
    # moved maxima break the inclusions at some instants: the check must find
    # exactly the oracle's breaks, over exactly its instants
    scn = Scenario(servers=servers, impatience=model, source=SOURCES[name],
                   horizon_customers=3000)
    seen = []
    check = des.instant_sums
    monkeypatch.setattr(des, "instant_sums", lambda *args: seen.append(check(*args)) or seen[0])
    cols, _ = simulate(scn)
    _, ref = heap_loop(scn)
    # what simulate itself checked
    assert seen == [(ref["integral"], 0, ref["closes"])]
    for shift in (0.0, 0.25):
        _, ref = heap_loop(scn, shift)
        integral, violations, instants = check(*_instant_inputs(cols, model, shift))
        assert instants == ref["closes"]
        assert violations == ref["inclusion_violations"]
        assert (violations > 0) == (shift > 0.0)
        assert integral.hex() == float(ref["integral"]).hex()


@pytest.mark.parametrize("model", ["begin", "end"])
@pytest.mark.parametrize("name", ["tie-heavy", "tie-heavy-overloaded", "deterministic-half"])
def test_small_windows_match_the_heap_loop(name, model, monkeypatch):
    # windows of 5 arrivals: tie blocks and empty windows on their edges
    monkeypatch.setattr(des, "_CHUNK", 5)
    scn = Scenario(servers=2, impatience=model, source=SOURCES[name], horizon_customers=400)
    cols, stats = simulate(scn)
    want, ref = heap_loop(scn)
    assert _hex(cols.departure) == _hex(want["departure"])
    assert cols.x_before.tolist() == ref["x_before"].tolist()
    assert stats.time_average_congestion.hex() == float(ref["time_average_congestion"]).hex()
    assert stats.sojourn_violations == ref["sojourn_violations"] == 0
    integral, violations, instants = des.instant_sums(*_instant_inputs(cols, model, 0.25))
    _, moved = heap_loop(scn, 0.25)
    assert (integral.hex(), violations, instants) == (
        float(ref["integral"]).hex(), moved["inclusion_violations"], moved["closes"])


# the des benchmark workload's source: 4 servers, end model
DES_SOURCE = {"kind": "iid", "xi": {"dist": "exponential", "rate": 3.0},
              "sigma": {"dist": "exponential", "rate": 1.0},
              "dpat": {"dist": "exponential", "rate": 0.5}, "seed": 20084}


def test_simulate_peaks_no_higher_than_the_event_loop():
    # the event loop simulate replaced peaked at 4 407 259 bytes here
    # (tracemalloc, after a first call; Python 3.11.7, numpy 2.4.6);
    # simulate, joining its blocks into one, peaks at 3 550 074
    scn = Scenario(servers=4, impatience="end", source=source_from_config(DES_SOURCE),
                   horizon_customers=20_000)
    simulate(scn)
    tracemalloc.start()
    try:
        simulate(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_407_259


def _fields(block):
    """A block's fields, the floats as hex and the counts as lists."""
    return [v if k in ("start", "outcome") else v.tolist() if k == "x_before" else _hex(v)
            for k, v in vars(block).items()]


def _run(scn):
    """simulate's outputs, floats as hex."""
    block, stats = simulate(scn)
    return _fields(block), repr(stats)


@pytest.mark.parametrize("block, chunk", [(1, 1), (2, 1), (7, 3), (64, 5)])
@pytest.mark.parametrize("servers", [1, 3])
@pytest.mark.parametrize("model", ["begin", "end"])
def test_blocks_give_the_whole_horizon_path(model, servers, block, chunk, monkeypatch):
    # 3000 customers in one block against blocks of a few arrivals, in windows
    # of fewer: runs of equal arrival times straddle block edges, with
    # instant departures on both sides (x_before counts the earlier ones as
    # gone and the later ones as not yet arrived), and block edges fall
    # inside windows of the instant check
    scn = Scenario(servers=servers, impatience=model, source=SOURCES["tie-heavy"],
                   horizon_customers=3000)
    whole = _run(scn)
    path = simulate(scn)[0]
    a, dep = path.arrival, path.departure
    edges = np.arange(block, 3000, block)
    edges = edges[a[edges - 1] == a[edges]]
    assert sum(((a[:k] == a[k]) & (dep[:k] == a[k])).any() for k in edges) > 5
    assert sum(((a[k:] == a[k]) & (dep[k:] == a[k])).any() for k in edges) > 5
    monkeypatch.setattr(des, "_BLOCK", block)
    monkeypatch.setattr(des, "_CHUNK", chunk)
    assert _run(scn) == whole


TIE_HEAVY = {"kind": "iid", "seed": 4242,
             "xi": {"dist": "discrete", "atoms": [0.0, 0.5, 1.0], "probs": [0.4, 0.3, 0.3]},
             "sigma": {"dist": "discrete", "atoms": [0.0, 0.5, 1.0, 1.5],
                       "probs": [0.25, 0.25, 0.25, 0.25]},
             "dpat": {"dist": "discrete", "atoms": [0.0, 0.5, 1.0], "probs": [0.3, 0.4, 0.3]}}


def _outputs(tmp_path, name, experiment, cfg):
    """The run's exit status and the SHA-256 of each file it writes."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    code = main([experiment, "--config", str(path), "--out-dir", str(tmp_path / name)])
    return code, {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                  for f in sorted((tmp_path / name).iterdir())}


@pytest.mark.parametrize("experiment", ["des", "regen", "xval"])
def test_block_size_leaves_the_files_alone(tmp_path, monkeypatch, experiment):
    # blocks of 7 arrivals that do not divide the 2000 customers
    run = {"customers": 2000, **({"replicas": 5, "max_depth": 50} if experiment == "regen"
                                 else {})}
    cfg = {"source": TIE_HEAVY, "model": {"servers": 1, "impatience": "end"}, "run": run}
    whole = _outputs(tmp_path, "whole", experiment, cfg)
    assert whole[0] == 0
    monkeypatch.setattr(des, "_BLOCK", 7)
    assert _outputs(tmp_path, "blocks", experiment, cfg) == whole


def _cli_peak(tmp_path, experiment, customers):
    """tracemalloc peak of an in-process des or regen run on the des workload's
    source, after a first run."""
    run = {"customers": customers}
    if experiment == "regen":
        run.update(replicas=20, max_depth=100)
    cfg = tmp_path / f"{experiment}-{customers}.json"
    cfg.write_text(json.dumps({"source": DES_SOURCE, "model": {"servers": 4, "impatience": "end"},
                               "run": run}))
    args = [experiment, "--config", str(cfg), "--out-dir", str(tmp_path / cfg.stem)]
    assert main(args) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("experiment", ["des", "regen"])
def test_des_and_regen_run_in_bounded_memory(tmp_path, experiment):
    # each block is written and dropped before the next is simulated: 80 000
    # customers peak no higher than 20 000 but for a small slack.  Measured
    # (tracemalloc; Python 3.11.7, numpy 2.4.6): des 1 015 252 and 1 015 140
    # bytes, regen 1 014 119 and 1 016 847; when the whole horizon was
    # simulated before the file was written, des peaked at 4 075 632 and
    # 16 233 965.  With blocks of 2^14 arrivals, holding one block too many
    # while the next was simulated added about 266 000.
    assert _cli_peak(tmp_path, experiment, 80_000) - _cli_peak(tmp_path, experiment, 20_000) \
        < 50_000


def test_regeneration_stats_keep_no_block():
    # with no statistics given, the path is simulated block by block and each
    # block dropped: 20 000 and 200 000 customers both peaked at 0.90 MB,
    # where the whole horizon simulate joins peaked at 3.8 and 39.6 MB
    # (tracemalloc; Python 3.11.7, numpy 2.4.6)
    peaks = []
    for customers in (20_000, 20_000, 200_000):  # the first call warms up
        scn = Scenario(servers=4, impatience="end", source=source_from_config(DES_SOURCE),
                       horizon_customers=customers)
        tracemalloc.start()
        try:
            des.regeneration_stats(scn, replicas=20, max_depth=100)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] <= 500_000


def test_servers_past_the_customers_cost_no_memory():
    # at most `customers` servers are ever busy: 10^6 servers for 1000
    # customers peaked at 8.4 MB with a free time per server, 0.43 MB at 1000
    # (tracemalloc, after a first call), with the same outputs
    runs = []
    for servers in (10**6, 1000):
        scn = Scenario(servers=servers, impatience="end", source=source_from_config(DES_SOURCE),
                       horizon_customers=1000)
        simulate(scn)
        tracemalloc.start()
        try:
            cust, stats = simulate(scn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000
        runs.append((_fields(cust), repr(stats)))
    assert runs[0] == runs[1]


def test_tie_heavy_sources_do_tie():
    # the cases above only test the tie order if events really coincide
    got, _ = simulate(Scenario(servers=1, impatience="end", source=SOURCES["tie-heavy"],
                               horizon_customers=3000))
    cust = list(zip(got.arrival, got.sigma, got.dpat, got.service_start, got.departure,
                    got.outcome))
    assert sum(a == b for a, b in zip(got.arrival, got.arrival[1:])) > 500
    assert sum(d == a + p for a, _, p, _, d, _ in cust) > 500
    # completions exactly on the deadline count as served
    assert sum(o == OUTCOME_SERVED and s + g == a + p for a, g, p, s, _, o in cust) > 100
    assert sum(got.outcome.count(k) > 100 for k in
               (OUTCOME_SERVED, OUTCOME_ABANDONED, OUTCOME_ABORTED)) == 3


def test_workload_before_arrivals_matches_the_record_walk():
    for model in ("begin", "end"):
        src = iid_source(Uniform(0.0, 1.0), Uniform(0.0, 1.5), Uniform(0.0, 1.0), seed=5)
        got, _ = simulate(Scenario(servers=1, impatience=model, source=src,
                                   horizon_customers=5000))
        w = workload_before_arrivals(got)
        assert np.count_nonzero(w) > 1000
        want = heap_loop_workload({"arrival": got.arrival, "service_start": got.service_start,
                                   "departure": got.departure})
        assert _hex(w) == _hex(want)
