"""Simulation of the s-server FIFO queue with impatient customers.

Arrivals T_0 = 0, T_{n+1} = T_n + xi_n carry service sigma_n and patience
dpat_n; customer n's deadline is D_n = T_n + dpat_n.  Waiting customers go
FIFO to a free server.  In the begin model a customer abandons the queue at
D_n unless service has started (starting exactly at D_n counts as served),
and service, once started, runs to completion.  In the end model the
deadline removes the customer even mid-service (completing exactly at D_n
counts as served).

simulate runs the Kiefer-Wolfowitz recursion indexed by arrivals: one loop
over customers in arrival order holds a heap of the s servers' free times.
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

simulate returns the per-customer lists the loop fills, as CustomerColumns;
the CLI writes them to customers.csv column by column, and indexing or
iterating them gives CustomerRecord views.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import heapreplace

import numpy as np

from .fifo import MODELS
from .marks import MarkSource
from .recursion import SIGMA_MIN_D, CapabilityError, ProbZero, clip, prob_zero_estimate

_CHUNK = 2 ** 10  # arrivals per block of the checks on the columns

# |departure - arrival| vs the mark-based sojourn bounds can differ by a few
# ulps of absolute time; same slack as the DES/recursion cross-validation.
SOJOURN_TIME_TOL = 1e-9

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
        if self.impatience not in ("begin", "end"):
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


def simulate(scn: Scenario) -> tuple[CustomerColumns, PathStatistics]:
    """Run the scenario to the arrival horizon, then drain the system.

    Returns the per-customer columns plus path statistics; inclusion and
    per-customer sojourn-bound violations are 0 by contract.
    """
    n_cust = scn.horizon_customers
    end_model = scn.impatience == "end"
    xi, sigma, dpat = scn.source.window_arrays(0, n_cust - 1)
    t = np.zeros(n_cust)
    np.cumsum(xi[:-1], out=t[1:])
    arrival_l, sigma_l, dpat_l = t.tolist(), sigma.tolist(), dpat.tolist()
    # from the marks, before they go: the sojourn bounds with their slack,
    # e_m and e_l, and the deadlines, sorted
    e_m = np.minimum(sigma, dpat)
    low, high = e_m - SOJOURN_TIME_TOL, (dpat if end_model else sigma + dpat) + SOJOURN_TIME_TOL
    e_m = np.maximum.accumulate(np.add(t, e_m, out=e_m), out=e_m)
    deadline = t + dpat
    e_l = np.maximum.accumulate(deadline if end_model else deadline + sigma)
    deadline.sort()
    del xi, sigma, dpat

    free = [-math.inf] * scn.servers  # a heap of the servers' free times
    # allocated whole and filled in place: lists grown by appends fragment the heap
    service_start: list[float | None] = [None] * n_cust
    departure = [0.0] * n_cust
    outcome = [OUTCOME_ABANDONED] * n_cust
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
    sojourn_violations = 0
    for k in range(0, n_cust, _CHUNK):  # in blocks, which keeps the peak down
        w = slice(k, k + _CHUNK)
        soj = dep[w] - t[w]
        sojourn_violations += int(np.count_nonzero((soj < low[w]) | (soj > high[w])))
    del low, high
    zero = np.flatnonzero(dep == t)  # the customers who depart as they arrive
    dep.sort()
    integral, inclusion_violations, _ = instant_sums(t, dep, e_l, e_m, deadline,
                                                     np.sort(np.frombuffer(stale)))
    del deadline
    x_before = np.arange(n_cust) - dep.searchsorted(t, "right")
    if zero.size:  # k's instant departure comes after the arrivals at T_k up to k
        late = np.bincount(t.searchsorted(t[zero]), minlength=n_cust + 1)
        x_before += np.cumsum(late - np.bincount(zero + 1, minlength=n_cust + 1))[:-1]
    for e in (e_l, e_m):  # in place: [e_{n-1} - T_n]+, seen by arrival n
        np.subtract(e[:-1], t[1:], out=e[1:])
        e[0] = 0.0
        clip(e, e)

    horizon_time = float(dep[-1])
    abandoned = service_start.count(None)
    stats = PathStatistics(
        arrivals=n_cust,
        outcome_counts={OUTCOME_SERVED: n_cust - abandoned - len(stale),
                        OUTCOME_ABANDONED: abandoned, OUTCOME_ABORTED: len(stale)},
        empty_epoch_count=int(np.count_nonzero(x_before == 0)),
        inclusion_violations=inclusion_violations,
        sojourn_violations=sojourn_violations,
        time_average_congestion=integral / horizon_time if horizon_time > 0.0 else 0.0,
        horizon_time=horizon_time,
        l_zero_arrival_freq=np.count_nonzero(e_l == 0.0) / n_cust,
        m_zero_arrival_freq=np.count_nonzero(e_m == 0.0) / n_cust,
        l_before=e_l, m_before=e_m, x_before=x_before,
    )
    columns = CustomerColumns(arrival_l, sigma_l, dpat_l, service_start, departure, outcome)
    return columns, stats


def instant_sums(t: np.ndarray, dep: np.ndarray, e_l: np.ndarray, e_m: np.ndarray,
                 deadline: np.ndarray, stale: np.ndarray) -> tuple[float, int, int]:
    """(integral of X, inclusion violations, instants) over the distinct
    instants u of the sorted arrivals t, departures, deadlines and the
    completions that aborts void (stale); e_l and e_m are by arrival, so
    L = [e_l - u]+ and M = [e_m - u]+ right after u.  The integral sums X
    after each arrival or departure instant times the time to the next, in
    time order (the other events at an instant would add x * 0.0).
    Window i spans the arrivals _CHUNK * i to _CHUNK * (i + 1), the last one
    all later time, so no merged array of the four streams is built."""
    integral, violations, instants, u_prev, x_prev = 0.0, 0, 0, 0.0, 0
    streams = (t, dep, deadline, stale)
    bounds = np.concatenate((t[::_CHUNK], [math.inf]))
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
        x = 2 * arrived - events  # arrivals less departures
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


def regeneration_stats(scn: Scenario, sim: tuple[CustomerColumns, PathStatistics] | None = None,
                       replicas: int = 200, max_depth: int = 10_000) -> RegenReport:
    """Side-by-side regenerativity report for a completed simulation.

    The sufficient condition estimates P(Y=0) for alpha = sigma+dpat (begin)
    or dpat (end); the necessary one uses alpha = sigma^dpat.  Exactness of
    those estimates follows source bounds; the path statistics are reported
    as observed, with no contract tying them to the conditions.
    """
    if sim is None:
        sim = simulate(scn)
    _, stats = sim
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
    # service_start is None (nan here) exactly for customers who abandoned
    engaged = ~np.isnan(np.array(records.service_start, dtype=float))
    latest = np.maximum.accumulate(np.where(engaged, records.departure, -math.inf))
    v = np.concatenate([[-math.inf], latest[:-1]]) - np.array(records.arrival)
    return clip(v, v)


def cross_validate_recursion(scn: Scenario) -> float:
    """Max |DES workload before arrival - arrival recursion| over the horizon.

    Single server only; the contract is <= 1e-9 (pure float reassociation
    between event-time and mark-time arithmetic).
    """
    if scn.servers != 1:
        raise CapabilityError("workload cross-validation is defined for a single server")
    records, _ = simulate(scn)
    # W before each arrival: 0 before the first, then after arrivals 0..n-2
    marks = (m[:-1] for m in scn.source.window_arrays(0, scn.horizon_customers - 1))
    w = [0.0] + MODELS[scn.impatience].w_path(0.0, *marks)
    return float(np.max(np.abs(workload_before_arrivals(records) - w)))
