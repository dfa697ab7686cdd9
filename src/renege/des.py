"""Simulation of the s-server FIFO queue with impatient customers.

Arrivals T_0 = 0, T_{n+1} = T_n + xi_n carry service sigma_n and patience
dpat_n; customer n's deadline is D_n = T_n + dpat_n.  Waiting customers go
FIFO to a free server.  In the begin model a customer abandons the queue at
D_n unless service has started (starting exactly at D_n counts as served),
and service, once started, runs to completion.  In the end model the
deadline removes the customer even mid-service (completing exactly at D_n
counts as served).

simulate_blocks runs the Kiefer-Wolfowitz recursion indexed by arrivals: one
loop over customers in arrival order holds a heap of the s servers' free
times (of min(s, customers) of them: no more are ever busy).
With f the earliest free time the customers before n left: if f <= D_n, n
starts at T_n if f <= T_n, else at f, and departs at start + sigma_n, or
at D_n in the end model if that is later (aborted), and the server frees at
the departure; otherwise n abandons the queue at D_n.  These are the
outcomes of the event order completion < deadline < arrival, then customer
index: servers are interchangeable, FIFO gives the earliest free times to
the earliest customers, a server that frees at n's deadline (by a completion
or an earlier customer's abort) still serves n, and an abandoning customer
takes no server.

Alongside the congestion X_t the simulator reports the largest remaining
maximal and minimal sojourn times L_t = [e_l - t]+ and M_t = [e_m - t]+,
e_l and e_m the running maxima of the latest (D_n in the end model, D_n +
sigma_n in the begin model) and earliest (T_n + sigma_n ^ dpat_n) possible
departures.  Seen just before each arrival, they equal the arrival-indexed
recursions (L from the model's dominating alpha, M from sigma ^ dpat) up to
reassociation of the arrival times.  Every statistic is read from the
columns with numpy: X before arrival n is n less the departures at or
before T_n, but for the instant ones (departure = arrival) of n and later
customers arriving at T_n, whose events come after arrival n; each emptying
is seen by the next arrival and the first arrival finds the system empty,
so the empty epochs are the arrivals that see X = 0.  instant_sums reads
the integral of X and checks {L=0} => {X=0} => {M=0} at every event
instant: each distinct arrival, departure, deadline and completion time.

The loop runs in blocks of _BLOCK arrivals, each handed to the caller as a
PathBlock (the block's CustomerColumns and series) and dropped before the
next, so a run holds one block whatever its horizon: the CLI writes
customers.csv and regen's detail.csv block by block, and xval compares W
block by block.  Between blocks the run carries only _Carry: the heap of
free times, the next arrival time (the next block's times are
np.cumsum([t_last, *xi]), summed in the same sequence as over the whole
horizon), the running maxima e_l and e_m, the counters, and the events the
instant check has not reached: the departures, deadlines and voided
completions at or after the next block's first arrival, whose customers are
still in the system, and the block's arrivals tied with it.  So its memory
is bounded by the congestion, not the horizon.  instant_sums keeps its
windows of _CHUNK arrivals and sums the integral in time order across
blocks, so the statistics keep their bits.  simulate joins the blocks into
whole-horizon CustomerColumns (indexing or iterating them gives
CustomerRecord views) and series.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from heapq import heapreplace

import numpy as np

from .fifo import MODELS
from .marks import MarkSource
from .recursion import SIGMA_MIN_D, CapabilityError, ProbZero, clip, prob_zero_estimate

_CHUNK = 2 ** 10  # arrivals per window of the checks on the columns
# Arrivals per block of simulate_blocks: what a run holds at once.  Blocks of
# 16 * _CHUNK peaked about 2 MB higher in RSS on the des benchmark workload
# (100k customers, 2-core host), and ran no faster in CPU time.
_BLOCK = 4 * _CHUNK

# The slack of the sojourn bounds and of the DES/recursion cross-validation.
# Event times are sums taken in sequence, so their rounding error grows with
# them: a difference of event times up to T is trusted to within
# time_tolerance(T), the wider of SOJOURN_TIME_TOL and _TIME_ULPS spacings of
# T (the latter from T = 2^17 on).  A sojourn is off its marks by one
# rounding of its departure, at most half a spacing.  The DES workload before
# an arrival and the recursion's each gather one rounding per customer of
# the busy period, at most half a spacing of T each: up to about a spacing
# per customer, and about its square root when roundings fall at random.
# Measured on the des benchmark workload's source at one server: 21.5
# spacings of the horizon at 10^6 customers (begin model), 15.1 with times
# 10^4 times longer at 20 000; 64 is the power of two past three times the
# largest.
SOJOURN_TIME_TOL = 1e-9
_TIME_ULPS = 64


def time_tolerance(t):
    """The tolerance of a difference of event times up to t (a float, or an
    array of them): the wider of SOJOURN_TIME_TOL and _TIME_ULPS spacings of t."""
    return np.maximum(SOJOURN_TIME_TOL, _TIME_ULPS * np.spacing(t))


OUTCOME_SERVED = "served"
OUTCOME_ABANDONED = "abandoned_queue"
OUTCOME_ABORTED = "aborted_in_service"


@dataclass(frozen=True)
class Scenario:
    """One simulation setup; the system always starts empty."""

    servers: int
    impatience: str  # "begin" | "end"
    source: MarkSource
    horizon_customers: int

    def __post_init__(self):
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.impatience not in MODELS:
            raise ValueError(f"impatience must be 'begin' or 'end', got {self.impatience!r}")
        if self.horizon_customers < 1:
            raise ValueError("horizon_customers must be >= 1")


@dataclass
class CustomerRecord:
    index: int
    arrival: float
    sigma: float
    dpat: float
    service_start: float | None
    departure: float
    outcome: str


@dataclass(frozen=True, repr=False)
class CustomerColumns(Sequence):
    """Per-customer columns of one simulation, read as CustomerRecord views.

    The columns are the lists the recursion fills, indexed by customer;
    service_start is None for a customer who abandoned the queue.  Indexing
    builds a fresh CustomerRecord (a list of them for a slice).
    """

    arrival: list[float]
    sigma: list[float]
    dpat: list[float]
    service_start: list[float | None]
    departure: list[float]
    outcome: list[str]

    def __len__(self) -> int:
        return len(self.arrival)

    def __iter__(self):
        return map(CustomerRecord, range(len(self)), *vars(self).values())

    def __getitem__(self, i):
        k = range(len(self))[i]  # IndexError out of range, a range for a slice
        if isinstance(k, range):
            return [self[j] for j in k]
        return CustomerRecord(k, *(col[k] for col in vars(self).values()))


@dataclass
class PathStatistics:
    arrivals: int
    outcome_counts: dict[str, int]
    empty_epoch_count: int
    inclusion_violations: int
    sojourn_violations: int
    time_average_congestion: float
    horizon_time: float
    l_zero_arrival_freq: float
    m_zero_arrival_freq: float
    # per-arrival series, values seen just before each arrival
    l_before: np.ndarray = field(repr=False, default=None)
    m_before: np.ndarray = field(repr=False, default=None)
    x_before: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class PathBlock:
    """Customers start.. of a path, with the series seen just before each of
    their arrivals."""

    start: int
    customers: CustomerColumns
    l_before: np.ndarray
    m_before: np.ndarray
    x_before: np.ndarray


@dataclass
class _Carry:
    """What simulate_blocks keeps from one block to the next."""

    free: list[float]  # a heap of the servers' free times
    t_next: float = 0.0  # the next block's first arrival time
    e_l: float = -math.inf  # the running maxima
    e_m: float = -math.inf
    # what the instant check has not reached, each sorted: arrivals at the
    # next block's first arrival time (with their e_l and e_m), and the
    # departures, deadlines and voided completions at or after it
    pending: tuple[np.ndarray, ...] = (np.empty(0),) * 6
    # the integral so far, the last arrival or departure instant checked, X
    # right after it, and the departures checked
    integral: float = 0.0
    u_last: float = 0.0
    x_last: int = 0
    departed: int = 0
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        (OUTCOME_SERVED, OUTCOME_ABANDONED, OUTCOME_ABORTED), 0))
    empty_epochs: int = 0
    inclusion_violations: int = 0
    sojourn_violations: int = 0
    l_zero: int = 0
    m_zero: int = 0
    horizon_time: float = 0.0  # the latest departure so far


def simulate_blocks(scn: Scenario, each: Callable[[PathBlock], object]) -> PathStatistics:
    """Run the scenario to the arrival horizon, then drain the system, in
    blocks of _BLOCK arrivals, each handed to `each` when its customers are
    done and dropped after; returns the path statistics, without the
    per-arrival series, which are the blocks'.  Between blocks the run keeps
    only _Carry, whose events are those of customers still in the system,
    so its memory is bounded by the congestion, not the horizon."""
    n_cust = scn.horizon_customers
    carry = _Carry(free=[-math.inf] * min(scn.servers, n_cust))
    for k0 in range(0, n_cust, _BLOCK):
        each(_block(scn, carry, k0, min(k0 + _BLOCK, n_cust)))
    horizon_time = carry.horizon_time
    return PathStatistics(
        arrivals=n_cust,
        outcome_counts=carry.counts,
        empty_epoch_count=carry.empty_epochs,
        inclusion_violations=carry.inclusion_violations,
        sojourn_violations=carry.sojourn_violations,
        time_average_congestion=carry.integral / horizon_time if horizon_time > 0.0 else 0.0,
        horizon_time=horizon_time,
        l_zero_arrival_freq=carry.l_zero / n_cust,
        m_zero_arrival_freq=carry.m_zero / n_cust,
    )


def _block(scn: Scenario, carry: _Carry, k0: int, k1: int) -> PathBlock:
    """Customers k0..k1-1 of simulate_blocks' run, carry updated past them."""
    m = k1 - k0
    end_model = scn.impatience == "end"
    xi, sigma, dpat = scn.source.window_arrays(k0, k1 - 1)
    # np.cumsum sums in sequence from the carried time, as over the whole horizon
    t = np.concatenate(([carry.t_next], xi))
    np.cumsum(t, out=t)
    carry.t_next, t = float(t[-1]), t[:-1]
    arrival_l, sigma_l, dpat_l = t.tolist(), sigma.tolist(), dpat.tolist()
    # from the marks: the sojourn bounds (their slack, time_tolerance, is the
    # departure's), the deadlines, and the running maxima e_m and e_l by
    # arrival after the carried ones
    e_m, e_l = np.empty((2, m + 1))
    e_m[0], e_l[0] = carry.e_m, carry.e_l
    low = np.minimum(sigma, dpat)
    high = dpat if end_model else sigma + dpat
    np.add(t, low, out=e_m[1:])
    deadline = t + dpat
    if end_model:
        e_l[1:] = deadline
    else:
        np.add(deadline, sigma, out=e_l[1:])
    for e in (e_m, e_l):
        np.maximum.accumulate(e, out=e)
    carry.e_m, carry.e_l = e_m[-1], e_l[-1]
    del xi, sigma, dpat

    free = carry.free
    # allocated whole and filled in place: lists grown by appends fragment the heap
    service_start: list[float | None] = [None] * m
    departure = [0.0] * m
    outcome = [OUTCOME_ABANDONED] * m
    stale = array("d")  # the completion times that an end-model abort voids
    j = -1
    for a, s, d in zip(arrival_l, sigma_l, dpat_l):
        j += 1
        due = a + d
        f = free[0]
        if f > due:
            departure[j] = due
            continue
        st = a if f <= a else f
        c = st + s
        if end_model and c > due:
            stale.append(c)
            c = due
            outcome[j] = OUTCOME_ABORTED
        else:
            outcome[j] = OUTCOME_SERVED
        heapreplace(free, c)
        service_start[j] = st
        departure[j] = c

    dep = np.array(departure)
    for k in range(0, m, _CHUNK):  # in windows, which keeps the peak down
        w = slice(k, k + _CHUNK)
        soj, tol = dep[w] - t[w], time_tolerance(dep[w])
        carry.sojourn_violations += int(np.count_nonzero((soj < low[w] - tol) |
                                                         (soj > high[w] + tol)))
    del low, high
    zero = np.flatnonzero(dep == t)  # the customers who depart as they arrive
    # the block's events after those pending, sorted
    arr, arr_l, arr_m, dep_s, due_s, stale_s = (
        np.concatenate((old, new)) if old.size else new for old, new in
        zip(carry.pending, (t, e_l[1:], e_m[1:], dep, deadline, np.array(stale))))
    del dep, deadline
    for events in (dep_s, due_s, stale_s):
        events.sort()
    # the instants before the next block's first arrival; the last block's, all
    end = carry.t_next if k1 < scn.horizon_customers else math.inf
    carry.integral, violations, _ = instant_sums(arr, dep_s, arr_l, arr_m, due_s, stale_s, end,
                                                 (carry.integral, carry.u_last, carry.x_last))
    carry.inclusion_violations += violations
    checked_a, checked_d = arr.searchsorted(end), dep_s.searchsorted(end)
    if checked_a:
        carry.u_last = max(carry.u_last, arr[checked_a - 1])
    if checked_d:
        carry.u_last = max(carry.u_last, dep_s[checked_d - 1])
    carry.x_last += checked_a - checked_d
    carry.pending = tuple(a[i:].copy() for a, i in (
        (arr, checked_a), (arr_l, checked_a), (arr_m, checked_a), (dep_s, checked_d),
        (due_s, due_s.searchsorted(end)), (stale_s, stale_s.searchsorted(end))))
    carry.horizon_time = max(carry.horizon_time, float(dep_s[-1]))
    # X before arrival n: n less the departures of earlier customers at or
    # before T_n (those before this block's first arrival are carry.departed);
    # a later customer k of the block departs by T_n only at T_k = T_n, an
    # instant departure that comes after arrival n
    x_before = np.arange(k0 - carry.departed, k1 - carry.departed) - dep_s.searchsorted(t, "right")
    if zero.size:
        late = np.bincount(t.searchsorted(t[zero]), minlength=m + 1)
        x_before += np.cumsum(late - np.bincount(zero + 1, minlength=m + 1))[:-1]
    carry.departed += checked_d
    del arr, arr_l, arr_m, dep_s, due_s, stale_s
    for e in (e_l, e_m):  # in place: [e_{n-1} - T_n]+, seen by arrival n
        clip(np.subtract(e[:-1], t, out=e[:-1]), e[:-1])

    abandoned = service_start.count(None)
    carry.counts[OUTCOME_SERVED] += m - abandoned - len(stale)
    carry.counts[OUTCOME_ABANDONED] += abandoned
    carry.counts[OUTCOME_ABORTED] += len(stale)
    carry.empty_epochs += int(np.count_nonzero(x_before == 0))
    carry.l_zero += np.count_nonzero(e_l[:-1] == 0.0)
    carry.m_zero += np.count_nonzero(e_m[:-1] == 0.0)
    return PathBlock(k0, CustomerColumns(arrival_l, sigma_l, dpat_l, service_start, departure,
                                         outcome), e_l[:-1], e_m[:-1], x_before)


def simulate(scn: Scenario) -> tuple[CustomerColumns, PathStatistics]:
    """Run the scenario to the arrival horizon, then drain the system.

    Returns the per-customer columns plus path statistics, with the
    per-arrival series, over the whole horizon: simulate_blocks' blocks
    joined.  Inclusion and per-customer sojourn-bound violations are 0 by
    contract.
    """
    first, series = [], ([], [], [])

    def join(block: PathBlock) -> None:  # onto the first block's columns
        if first:
            for whole, part in zip(vars(first[0]).values(), vars(block.customers).values()):
                whole.extend(part)
        else:
            first.append(block.customers)
        for whole, part in zip(series, (block.l_before, block.m_before, block.x_before)):
            whole.append(part)

    stats = simulate_blocks(scn, join)
    l_before, m_before, x_before = map(np.concatenate, series)
    return first[0], replace(stats, l_before=l_before, m_before=m_before, x_before=x_before)


def instant_sums(t: np.ndarray, dep: np.ndarray, e_l: np.ndarray, e_m: np.ndarray,
                 deadline: np.ndarray, stale: np.ndarray, end: float = math.inf,
                 start: tuple[float, float, int] = (0.0, 0.0, 0)) -> tuple[float, int, int]:
    """(integral of X, inclusion violations, instants) over the distinct
    instants u before `end` of the sorted arrivals t, departures, deadlines
    and the completions that aborts void (stale); e_l and e_m are by
    arrival, so L = [e_l - u]+ and M = [e_m - u]+ right after u.  The
    integral sums X after each arrival or departure instant times the time
    to the next, in time order (the other events at an instant would add
    x * 0.0), from start's integral, last such instant and X right after it
    (those of the instants before t[0], none by default).
    Window i spans the arrivals _CHUNK * i to _CHUNK * (i + 1), the last one
    the time up to `end`, so no merged array of the four streams is built."""
    integral, u_prev, x_prev = start
    x_start, violations, instants = x_prev, 0, 0
    streams = (t, dep, deadline, stale)
    bounds = np.concatenate((t[::_CHUNK], [end]))
    edges = np.array([s.searchsorted(bounds) for s in streams]).T.tolist()  # of each window
    for lo, hi in zip(edges, edges[1:]):
        merged = np.concatenate([s[i:j] for s, i, j in zip(streams, lo, hi)])
        if not merged.size:
            continue
        order = np.argsort(merged, kind="stable")  # merges the sorted runs
        merged = merged[order]
        last = np.concatenate((merged[1:] != merged[:-1], [True]))  # of each instant
        u = merged[last]
        (a0, d0), (a1, d1) = lo[:2], hi[:2]
        arrived = a0 + np.cumsum(order < a1 - a0)[last]
        events = a0 + d0 + np.cumsum(order < a1 - a0 + d1 - d0)[last]  # arrivals, departures
        x = x_start + 2 * arrived - events  # arrivals less departures
        arrived -= 1  # the last arrival at or before u
        violations += np.count_nonzero((e_l[arrived] <= u) & (x > 0))
        violations += np.count_nonzero((x == 0) & (e_m[arrived] > u))
        instants += u.size
        moved = events > np.concatenate(([a0 + d0], events[:-1]))  # an event at u
        u, x = np.concatenate(([u_prev], u[moved])), np.concatenate(([x_prev], x[moved]))
        integral = float(np.add.accumulate(np.concatenate(([integral], x[:-1] * np.diff(u))))[-1])
        u_prev, x_prev = u[-1], x[-1]
    return integral, int(violations), instants


@dataclass
class RegenReport:
    """Empirical emptiness of the path next to the zero-probability
    conditions of the dominating (sufficient) and dominated (necessary)
    recursions."""

    stats: PathStatistics
    sufficient_alpha: str
    p_zero_sufficient: ProbZero
    p_zero_necessary: ProbZero


def regeneration_stats(scn: Scenario, stats: PathStatistics | None = None,
                       replicas: int = 200, max_depth: int = 10_000) -> RegenReport:
    """Side-by-side regenerativity report for the path statistics of a
    completed simulation of scn (simulate's, when stats is None).

    The sufficient condition estimates P(Y=0) for alpha = sigma+dpat (begin)
    or dpat (end); the necessary one uses alpha = sigma^dpat.  Exactness of
    those estimates follows source bounds; the path statistics are reported
    as observed, with no contract tying them to the conditions.
    """
    if stats is None:
        stats = simulate(scn)[1]
    suff_spec = MODELS[scn.impatience].dominating
    p_suff = prob_zero_estimate(suff_spec, scn.source, replicas, max_depth)
    p_nec = prob_zero_estimate(SIGMA_MIN_D, scn.source, replicas, max_depth)
    return RegenReport(stats=stats, sufficient_alpha=suff_spec.alpha_kind,
                       p_zero_sufficient=p_suff, p_zero_necessary=p_nec)


def workload_before_arrivals(records: CustomerColumns) -> np.ndarray:
    """Workload just before each arrival, reconstructed from the records.

    With one FIFO server the customers that reach it occupy it back to back
    in arrival order, so the committed work at T_n- is the latest departure
    among engaged (served or aborted) earlier customers minus T_n, clipped.
    """
    return _work_before(records, -math.inf)[0]


def _work_before(records: CustomerColumns, latest: float) -> tuple[np.ndarray, float]:
    """workload_before_arrivals of records that follow customers whose latest
    engaged departure is `latest`; and the latest one after the records."""
    # service_start is None (nan here) exactly for customers who abandoned
    engaged = ~np.isnan(np.array(records.service_start, dtype=float))
    ends = np.maximum.accumulate(np.concatenate(
        ([latest], np.where(engaged, records.departure, -math.inf))))
    v = ends[:-1] - np.array(records.arrival)
    return clip(v, v), float(ends[-1])


def cross_validate_recursion(scn: Scenario) -> float:
    """Max |DES workload before arrival - arrival recursion| over the horizon:
    recursion_discrepancy's first value."""
    return recursion_discrepancy(scn)[0]


def recursion_discrepancy(scn: Scenario) -> tuple[float, float]:
    """(max |DES workload before arrival - arrival recursion| over the
    horizon, the path's horizon time).

    Single server only; the contract is that the first is at most
    time_tolerance of the second, which is 1e-9 before time 2^17 (pure float
    reassociation between event-time and mark-time arithmetic).  Compared
    block by block (simulate_blocks), the recursion carried from one block
    to the next.
    """
    if scn.servers != 1:
        raise CapabilityError("workload cross-validation is defined for a single server")
    w_path = MODELS[scn.impatience].w_path
    disc, w, latest = -math.inf, 0.0, -math.inf

    def compare(block: PathBlock) -> None:
        nonlocal disc, w, latest
        # W before each of the block's arrivals: w, then after each but the last
        stop = block.start + len(block.customers)
        path = [w] + w_path(w, *scn.source.window_arrays(block.start, stop - 1))
        w = path.pop()
        des_w, latest = _work_before(block.customers, latest)
        disc = np.maximum(disc, np.max(np.abs(des_w - path)))  # NaN stays NaN

    stats = simulate_blocks(scn, compare)
    return float(disc), stats.horizon_time
