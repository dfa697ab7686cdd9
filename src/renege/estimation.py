"""Monte Carlo aggregation, the two-sample KS statistic, and birth-death oracles.

The birth-death chain here is the independent ground truth for the memoryless
single-server scenarios: number-in-system moves up at the arrival rate and
down at mu + (n-1)*gamma in state n (one customer in service, n-1 waiting and
each quitting at rate gamma).  The per-arrival abandonment fraction of that
chain equals the stationary loss probability of the matching workload
recursion, which is what the acceptance checks exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a 95% confidence interval."""

    point: float
    low: float
    high: float
    n: int
    kind: str  # "wilson" | "t"

    def as_dict(self) -> dict:
        return {"point": self.point, "low": self.low, "high": self.high,
                "n": self.n, "kind": self.kind}


def binomial_se(p: float, n: int) -> float:
    """Plain binomial standard error, used for 'within k SE' tolerances."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def wilson(successes: float, n: int) -> Estimate:
    """Wilson 95% interval; well behaved at proportions 0 and 1."""
    if n < 1:
        raise ValueError("need at least one observation")
    p = successes / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return Estimate(point=p, low=max(0.0, center - half), high=min(1.0, center + half),
                    n=n, kind="wilson")


def mc_aggregate(values, kind: str) -> Estimate:
    """Mean of replica outcomes with a 95% CI.

    Binary data (kind "binary") gets a Wilson interval, real data (kind
    "real") a t interval.  Sums use math.fsum, so the result is exact in the
    inputs and permutation invariant.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot aggregate an empty list")
    n = len(vals)
    if kind == "binary":
        if any(v not in (0.0, 1.0) for v in vals):
            raise ValueError("binary aggregation requires 0/1 outcomes")
        return wilson(math.fsum(vals), n)
    if kind != "real":
        raise ValueError(f"unknown aggregation kind {kind!r}")
    mean = math.fsum(vals) / n
    if n == 1:
        return Estimate(point=mean, low=-math.inf, high=math.inf, n=1, kind="t")
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    from scipy import stats  # about 1 s to import; only real-valued intervals need it
    half = float(stats.t.ppf(0.975, n - 1)) * math.sqrt(var / n)
    return Estimate(point=mean, low=mean - half, high=mean + half, n=n, kind="t")


def ks_two_sample(a, b) -> float:
    """sup_x |F_a(x) - F_b(x)| over the pooled sample points."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    return float(np.abs(fa - fb).max())


@dataclass(frozen=True)
class OracleSpec:
    """Birth-death ground truth parameters: arrivals lam, service mu,
    per-waiting-customer abandonment rate gamma (0 means no abandonment)."""

    lam: float
    mu: float
    gamma: float = 0.0
    tail_tol: float = 1e-12
    max_states: int = 1 << 22

    def __post_init__(self):
        if not (self.lam > 0.0 and self.mu > 0.0):
            raise ValueError("lam and mu must be > 0")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")


class TruncationError(RuntimeError):
    """The birth-death chain's tail mass cannot be brought under tail_tol."""


def birth_death_stationary(oracle: OracleSpec) -> np.ndarray:
    """Stationary distribution of number-in-system, truncated so the neglected
    geometric tail is below tail_tol."""
    lam, mu, gamma = oracle.lam, oracle.mu, oracle.gamma
    weights = [1.0]
    n = 0
    while True:
        n += 1
        rate = mu + (n - 1) * gamma
        weights.append(weights[-1] * lam / rate)
        ratio = lam / (mu + n * gamma)
        if ratio < 1.0:
            tail = weights[-1] * ratio / (1.0 - ratio)
            if tail < oracle.tail_tol * math.fsum(weights):
                break
        if n >= oracle.max_states:
            raise TruncationError(
                f"no usable truncation within {oracle.max_states} states "
                f"(lam={lam}, mu={mu}, gamma={gamma}); the chain may have no stationary law")
    w = np.asarray(weights)
    return w / math.fsum(weights)


def birth_death_abandonment(oracle: OracleSpec) -> tuple[float, float]:
    """(abandonment probability, M/M/1/1 blocking probability).

    Abandonment is the stationary rate sum_n pi_n (n-1) gamma divided by lam:
    the long-run fraction of arrivals whose patience ends while waiting.  The
    second value is the zero-patience corner: blocking of the two-state loss
    system with the same lam and mu, i.e. rho/(1+rho).
    """
    pi = birth_death_stationary(oracle)
    n = np.arange(pi.size)
    loss = float(math.fsum(pi[2:] * (n[2:] - 1)) * oracle.gamma / oracle.lam)
    rho = oracle.lam / oracle.mu
    blocking = rho / (1.0 + rho)
    return loss, blocking


@dataclass(frozen=True)
class LossReport:
    """Loss-probability estimates with the dominating/dominated bounds.

    For the begin model pi_hat is P(W > D).  For the end model pi_hat is
    P(S > D - sigma) (service cannot complete) and pi_never_reach is
    P(S > D) (the customer never reaches the server).
    """

    model: str
    pi_hat: Estimate
    lower_bound: Estimate
    upper_bound: Estimate
    method: str
    replicas: int
    seed: int
    stream: int
    bracket_ok: bool
    pi_never_reach: Estimate | None = None

    def __post_init__(self):
        for name in ("pi_hat", "lower_bound", "upper_bound"):
            e = getattr(self, name)
            if not 0.0 <= e.point <= 1.0:
                raise ValueError(f"{name} must be a probability, got {e.point}")
        if self.pi_never_reach is not None and not 0.0 <= self.pi_never_reach.point <= 1.0:
            raise ValueError("pi_never_reach must be a probability")
