"""Event-driven simulation of the s-server queue with impatient customers.

Arrivals T_0 = 0, T_{n+1} = T_n + xi_n carry service sigma_n and patience
dpat_n.  Waiting customers go FIFO to the lowest-index free server.  In the
begin model a customer abandons at T_n + dpat_n unless service has started
(boundary: starting exactly at the deadline counts as served) and service,
once started, runs to completion.  In the end model the deadline removes the
customer even mid-service (completing exactly at the deadline counts as
served).

Alongside the congestion X_t the simulator tracks the largest remaining
maximal and minimal sojourn times L_t and M_t.  Both decay at unit rate
between arrivals, so each is [E - t]+ for a running max E of per-customer
latest (resp. earliest) possible departure times; that form makes the
zero-set checks {L=0} => {X=0} => {M=0} exact against event timestamps.
Seen just before each arrival, they equal the arrival-indexed recursions
(L from the model's dominating alpha, M from sigma ^ dpat) up to
reassociation of the arrival times.

Completions and deadlines wait in a heap; arrivals, already sorted by
index, are merged in from their list and go after any heap event at the
same instant.  Simultaneous events therefore process as completion <
deadline < arrival, then by customer index.  A completion or deadline that
no longer applies stays in the heap and is ignored when popped, and
inclusion checks run when an instant's events are done (right-continuous
convention).

simulate returns the per-customer lists the event loop fills, as
CustomerColumns; the CLI writes them to customers.csv column by column, and
indexing or iterating them gives CustomerRecord views.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .fifo import MODELS
from .marks import MarkSource
from .recursion import SIGMA_MIN_D, CapabilityError, ProbZero, clip, prob_zero_estimate

_COMPLETION, _DEADLINE = 0, 1  # heap ties at one instant: completion first
_WAITING, _IN_SERVICE, _DONE = 0, 1, 2

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

    The columns are the lists the event loop fills, indexed by customer;
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
    per-customer sojourn-bound violations are counted inline and are 0 by
    contract.
    """
    n_cust = scn.horizon_customers
    end_model = scn.impatience == "end"
    xi, sigma, dpat = scn.source.window_arrays(0, n_cust - 1)
    sigma_l, dpat_l = sigma.tolist(), dpat.tolist()
    arrival = np.concatenate([[0.0], np.cumsum(xi)[:-1]]) if n_cust > 1 else np.zeros(1)
    arrival_l = arrival.tolist()

    status = [_WAITING] * n_cust
    service_start: list[float | None] = [None] * n_cust
    departure = [0.0] * n_cust
    outcome = [""] * n_cust
    server_of = [-1] * n_cust

    free = list(range(scn.servers))  # a sorted list is a heap
    queue: deque[int] = deque()
    # completions and deadlines; arrivals come in index order from arrival_l
    heap: list[tuple[float, int, int]] = []
    heappush, heappop, popleft = heapq.heappush, heapq.heappop, queue.popleft

    l_before = np.zeros(n_cust)
    m_before = np.zeros(n_cust)
    x_before = np.zeros(n_cust, dtype=np.int64)

    e_l = -math.inf  # L_t = [e_l - t]+
    e_m = -math.inf
    x = 0
    integral = 0.0
    t_prev = 0.0
    empty_epochs = 0
    inclusion_violations = 0
    sojourn_violations = 0
    counts = {OUTCOME_SERVED: 0, OUTCOME_ABANDONED: 0, OUTCOME_ABORTED: 0}
    nxt = 0  # next customer to arrive
    t_arr = 0.0  # its arrival time, inf once all have arrived

    while True:
        # a heap event at the next arrival's instant goes first: completion <
        # deadline < arrival, then index
        if heap and heap[0][0] <= t_arr:
            t, tie, j = heappop(heap)
            st = status[j]
            if tie == _COMPLETION:
                kind = OUTCOME_SERVED if st == _IN_SERVICE else None
            elif st == _WAITING:
                kind = OUTCOME_ABANDONED
            else:
                kind = OUTCOME_ABORTED if end_model and st == _IN_SERVICE else None
            if kind is not None:  # stale events change nothing
                integral += x * (t - t_prev)
                t_prev = t
                status[j] = _DONE
                departure[j] = t
                outcome[j] = kind
                counts[kind] += 1
                x -= 1
                if x == 0:
                    empty_epochs += 1
                soj = t - arrival_l[j]
                s_j, d_j = sigma_l[j], dpat_l[j]
                lb = s_j if s_j < d_j else d_j
                ub = d_j if end_model else s_j + d_j
                if soj < lb - SOJOURN_TIME_TOL or soj > ub + SOJOURN_TIME_TOL:
                    sojourn_violations += 1
                if kind != OUTCOME_ABANDONED:
                    heappush(free, server_of[j])
                    while free and queue:
                        k = popleft()
                        if status[k] == _WAITING:
                            status[k] = _IN_SERVICE
                            service_start[k] = t
                            server_of[k] = heappop(free)
                            heappush(heap, (t + sigma_l[k], _COMPLETION, k))
        elif nxt < n_cust:
            t = t_arr
            j = nxt
            nxt += 1
            t_arr = arrival_l[nxt] if nxt < n_cust else math.inf
            integral += x * (t - t_prev)
            t_prev = t
            lp = e_l - t
            l_before[j] = lp if lp > 0.0 else 0.0
            mp = e_m - t
            m_before[j] = mp if mp > 0.0 else 0.0
            x_before[j] = x
            x += 1
            s_j, d_j = sigma_l[j], dpat_l[j]
            deadline = t + d_j
            term_l = deadline if end_model else deadline + s_j
            if term_l > e_l:
                e_l = term_l
            term_m = t + (s_j if s_j < d_j else d_j)
            if term_m > e_m:
                e_m = term_m
            heappush(heap, (deadline, _DEADLINE, j))
            # every dispatch ends with no free server or an empty queue, so
            # with a server free the arrival is served at once
            if free:
                status[j] = _IN_SERVICE
                service_start[j] = t
                server_of[j] = heappop(free)
                heappush(heap, (t + s_j, _COMPLETION, j))
            else:
                queue.append(j)
        else:
            break
        t_next = heap[0][0] if heap and heap[0][0] < t_arr else t_arr
        if t_next != t:
            # instant closed: right-continuous state at t
            if e_l <= t and x > 0:
                inclusion_violations += 1
            if x == 0 and e_m > t:
                inclusion_violations += 1

    horizon_time = t_prev
    stats = PathStatistics(
        arrivals=n_cust,
        outcome_counts=counts,
        empty_epoch_count=empty_epochs,
        inclusion_violations=inclusion_violations,
        sojourn_violations=sojourn_violations,
        time_average_congestion=integral / horizon_time if horizon_time > 0.0 else 0.0,
        horizon_time=horizon_time,
        l_zero_arrival_freq=float(np.mean(l_before == 0.0)),
        m_zero_arrival_freq=float(np.mean(m_before == 0.0)),
        l_before=l_before, m_before=m_before,
        x_before=x_before,
    )
    columns = CustomerColumns(arrival_l, sigma_l, dpat_l, service_start, departure, outcome)
    return columns, stats


@dataclass
class RegenReport:
    """Empirical emptiness of the path next to the zero-probability
    conditions of the dominating (sufficient) and dominated (necessary)
    recursions."""

    stats: PathStatistics
    l_zero_freq: float
    m_zero_freq: float
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
    return RegenReport(stats=stats,
                       l_zero_freq=stats.l_zero_arrival_freq,
                       m_zero_freq=stats.m_zero_arrival_freq,
                       sufficient_alpha=suff_spec.alpha_kind,
                       p_zero_sufficient=p_suff,
                       p_zero_necessary=p_nec)


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
