"""Monte Carlo intervals and the loss report: Wilson intervals for binary
outcomes, t intervals for real ones, and the loss-probability estimates with
their dominated and dominating bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
