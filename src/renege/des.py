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
The same quantities are also built in arrival-indexed recursion form,
before the event loop and by recursion.y_path: L from the model's dominating
alpha and M from sigma ^ dpat, bit-identical to the generic recursion step
on the same marks.

Simultaneous events process as completion < deadline < arrival, then by
customer index; inclusion checks run when an instant's events are done
(right-continuous convention).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .fifo import MODELS
from .marks import MarkSource
from .recursion import SIGMA_MIN_D, CapabilityError, ProbZero, prob_zero_estimate, y_path

_COMPLETION, _DEADLINE, _ARRIVAL = 0, 1, 2
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
    l_chain: np.ndarray = field(repr=False, default=None)
    m_chain: np.ndarray = field(repr=False, default=None)
    x_before: np.ndarray = field(repr=False, default=None)


def simulate(scn: Scenario) -> tuple[list[CustomerRecord], PathStatistics]:
    """Run the scenario to the arrival horizon, then drain the system.

    Returns one record per customer plus path statistics; inclusion and
    per-customer sojourn-bound violations are counted inline and are 0 by
    contract.
    """
    n_cust = scn.horizon_customers
    end_model = scn.impatience == "end"
    xi, sigma, dpat = scn.source.window_arrays(0, n_cust - 1)
    sigma_l, dpat_l = sigma.tolist(), dpat.tolist()
    arrival = np.concatenate([[0.0], np.cumsum(xi)[:-1]]) if n_cust > 1 else np.zeros(1)
    arrival_l = arrival.tolist()
    # L and M before each arrival in recursion form: 0 before the first, then
    # after arrivals 0..n-2.  Built before the event loop, whose lists would
    # otherwise hold their memory at the same time as these paths.
    marks = xi[:-1], sigma[:-1], dpat[:-1]
    alpha_l = MODELS[scn.impatience].dominating.alpha_array(*marks)
    l_chain = np.array([0.0] + y_path(0.0, alpha_l, xi[:-1]))
    m_chain = np.array([0.0] + y_path(0.0, SIGMA_MIN_D.alpha_array(*marks), xi[:-1]))

    status = [_WAITING] * n_cust
    service_start: list[float | None] = [None] * n_cust
    departure = [0.0] * n_cust
    outcome = [""] * n_cust
    server_of = [-1] * n_cust

    free = list(range(scn.servers))
    heapq.heapify(free)
    queue: deque[int] = deque()
    heap: list[tuple[float, int, int]] = [(0.0, _ARRIVAL, 0)]

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

    def dispatch(now: float) -> None:
        nonlocal x
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

    def depart(j: int, now: float, kind: str) -> None:
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
            else:  # deadline
                if status[j] == _WAITING:
                    depart(j, t, OUTCOME_ABANDONED)
                else:  # end model, in service
                    depart(j, t, OUTCOME_ABORTED)
                    heapq.heappush(free, server_of[j])
                    dispatch(t)
        if not heap or heap[0][0] != t:
            # instant closed: right-continuous state at t
            if e_l <= t and x > 0:
                inclusion_violations += 1
            if x == 0 and e_m > t:
                inclusion_violations += 1

    records = [CustomerRecord(index=i, arrival=arrival_l[i], sigma=sigma_l[i],
                              dpat=dpat_l[i], service_start=service_start[i],
                              departure=departure[i], outcome=outcome[i])
               for i in range(n_cust)]
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
        l_chain=l_chain, m_chain=m_chain, x_before=x_before,
    )
    return records, stats


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


def regeneration_stats(scn: Scenario, sim: tuple[list[CustomerRecord], PathStatistics] | None = None,
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
    exact = suff_spec.bound_for(scn.source) is not None
    p_suff = prob_zero_estimate(suff_spec, scn.source, replicas, max_depth, exact=exact)
    exact_nec = SIGMA_MIN_D.bound_for(scn.source) is not None
    p_nec = prob_zero_estimate(SIGMA_MIN_D, scn.source, replicas, max_depth, exact=exact_nec)
    return RegenReport(stats=stats,
                       l_zero_freq=stats.l_zero_arrival_freq,
                       m_zero_freq=stats.m_zero_arrival_freq,
                       sufficient_alpha=suff_spec.alpha_kind,
                       p_zero_sufficient=p_suff,
                       p_zero_necessary=p_nec)


def workload_before_arrivals(records: list[CustomerRecord]) -> np.ndarray:
    """Workload just before each arrival, reconstructed from the records.

    With one FIFO server the customers that reach it occupy it back to back
    in arrival order, so the committed work at T_n- is the latest departure
    among engaged (served or aborted) earlier customers minus T_n, clipped.
    """
    out = np.empty(len(records))
    f = -math.inf
    for r in records:
        v = f - r.arrival
        out[r.index] = v if v > 0.0 else 0.0
        if r.service_start is not None and r.departure > f:
            f = r.departure
    return out


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
