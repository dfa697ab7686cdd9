"""Single-server FIFO queue, impatience until the beginning of service.

The workload seen by arriving customers obeys

    W' = [ W + sigma * 1{W <= D} - xi ]+        (W = D counts as served)

which is not monotone in W, so the plain backward scheme does not apply.
Stationarity instead comes from domination: the monotone recursion with
alpha = sigma + dpat bounds W from above pathwise, every epoch where that
dominating value is certifiably 0 forces W = 0 there too, and replaying the
workload forward from such an epoch gives an exact draw of the unique
stationary workload (strong backwards coupling).  alpha = sigma ^ dpat
dominates from below, giving computable bounds on the loss probability
P(W > D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import LossReport, binomial_se, wilson
from .marks import MarkSource, MarkTriple
from .recursion import (
    SIGMA_PLUS_D,
    MarkWindowCache,
    ZeroCertificate,
    renovation_search,
)

DEFAULT_WARMUP = 100_000


@dataclass(frozen=True)
class StationarySample:
    """One draw of the stationary workload with its provenance."""

    value: float
    method: str  # "renovation-exact" | "forward-approximate"
    renovation_epoch: int | None = None
    certificate: ZeroCertificate | None = None

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"workload must be finite and >= 0, got {self.value}")
        if self.method == "renovation-exact":
            if self.certificate is None or self.certificate.epoch != self.renovation_epoch:
                raise ValueError("exact samples need a certificate at the renovation epoch")
        elif self.method != "forward-approximate":
            raise ValueError(f"unknown method {self.method!r}")


def fifo_step(w: float, mark: MarkTriple) -> float:
    """One arrival: the customer is served iff w <= dpat."""
    if w < 0.0:
        raise ValueError(f"workload must be >= 0, got {w}")
    inner = w + mark.sigma if w <= mark.dpat else w
    v = inner - mark.xi
    return v if v > 0.0 else 0.0


def find_renovation_epoch(src: MarkSource, max_epochs: int, max_depth: int,
                          cache: MarkWindowCache | None = None) -> tuple[int, ZeroCertificate]:
    """Nearest epoch -m, m = 1..max_epochs, where the dominating recursion
    (alpha = sigma + dpat) is certifiably 0, hence the stationary W is 0."""
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    return renovation_search(SIGMA_PLUS_D, src, 0, max_epochs, max_depth, cache, first=1)


def _replay(src: MarkSource, start_epoch: int, end_epoch: int,
            cache: MarkWindowCache | None = None) -> float:
    """Workload at end_epoch when it was 0 at start_epoch."""
    w = 0.0
    if start_epoch == end_epoch:
        return w
    cache = cache if cache is not None else MarkWindowCache(src)
    xi, sigma, dpat = cache.range(start_epoch, end_epoch - 1)
    for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
        inner = w + s if w <= d else w
        v = inner - x
        w = v if v > 0.0 else 0.0
    return w


def exact_w_at(src: MarkSource, epoch: int, max_epochs: int, max_depth: int,
               cache: MarkWindowCache | None = None) -> float:
    """Exact stationary workload at an arbitrary epoch, via the nearest
    certified-zero epoch at or before it."""
    if cache is None:
        cache = MarkWindowCache(src)
    start, _ = renovation_search(SIGMA_PLUS_D, src, epoch, max_epochs, max_depth, cache)
    return _replay(src, start, epoch, cache)


def exact_triple_at(src: MarkSource, epoch: int, max_epochs: int, max_depth: int,
                    cache: MarkWindowCache | None = None) -> tuple[float, float, float]:
    """(Y(sigma^dpat), W, Y(sigma+dpat)) at `epoch`, replayed from a common
    certified-zero epoch of the dominating recursion.

    A certified zero of Y(sigma+dpat) forces the dominated values to 0 too,
    and replaying the three chains on the same marks keeps the ordering
    ym <= w <= yp exact in floating point at every step.
    """
    if cache is None:
        cache = MarkWindowCache(src)
    start, _ = renovation_search(SIGMA_PLUS_D, src, epoch, max_epochs, max_depth, cache)
    ym = w = yp = 0.0
    if start == epoch:
        return ym, w, yp
    xi, sigma, dpat = cache.range(start, epoch - 1)
    for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
        a = s if s < d else d
        v = (ym if ym > a else a) - x
        ym = v if v > 0.0 else 0.0
        inner = w + s if w <= d else w
        v = inner - x
        w = v if v > 0.0 else 0.0
        a = s + d
        v = (yp if yp > a else a) - x
        yp = v if v > 0.0 else 0.0
    return ym, w, yp


def sample_stationary_w(src: MarkSource, max_epochs: int = 10_000, max_depth: int = 10_000,
                        mode: str = "exact", warmup: int = DEFAULT_WARMUP) -> StationarySample:
    """Stationary workload at epoch 0.

    Exact mode replays from the nearest renovation epoch -m and is an exact
    draw.  Approximate mode iterates forward from 0 over `warmup` arrivals
    and carries the method tag saying so.
    """
    if mode == "exact":
        cache = MarkWindowCache(src)
        epoch, cert = find_renovation_epoch(src, max_epochs, max_depth, cache)
        value = _replay(src, epoch, 0, cache)
        return StationarySample(value, "renovation-exact", epoch, cert)
    if mode == "approximate":
        value = _replay(src, -warmup, 0)
        return StationarySample(value, "forward-approximate")
    raise ValueError(f"unknown mode {mode!r}")


def sandwich_check(src: MarkSource, epochs, max_depth: int,
                   max_epochs: int = 10_000) -> int:
    """Count violations of Y(sigma^dpat) <= W <= Y(sigma+dpat) at the epochs."""
    cache = MarkWindowCache(src)
    violations = 0
    for e in epochs:
        ym, w, yp = exact_triple_at(src, e, max_epochs, max_depth, cache)
        if ym > w:
            violations += 1
        if w > yp:
            violations += 1
    return violations


def forward_samples(src: MarkSource, count: int, warmup: int = DEFAULT_WARMUP,
                    spacing: int = 1, with_marks: bool = False):
    """Workload states from one forward trajectory started empty.

    Records the state seen by customers warmup, warmup+spacing, ... (the
    state before that customer's mark is applied).  With with_marks=True also
    returns the (sigma, dpat) of the recording customers, preserving the
    joint law needed for loss estimation.
    """
    if count < 1 or spacing < 1 or warmup < 0:
        raise ValueError("count and spacing must be >= 1, warmup >= 0")
    total = warmup + (count - 1) * spacing + 1
    out = np.empty(count)
    sig_out = np.empty(count) if with_marks else None
    dp_out = np.empty(count) if with_marks else None
    w = 0.0
    pos = 0
    taken = 0
    chunk = 1 << 14
    while pos < total:
        take = min(chunk, total - pos)
        xi, sigma, dpat = src.window_arrays(pos, pos + take - 1)
        for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
            if pos >= warmup and (pos - warmup) % spacing == 0:
                out[taken] = w
                if with_marks:
                    sig_out[taken] = s
                    dp_out[taken] = d
                taken += 1
                if taken == count:
                    return (out, sig_out, dp_out) if with_marks else out
            inner = w + s if w <= d else w
            v = inner - x
            w = v if v > 0.0 else 0.0
            pos += 1
    return (out, sig_out, dp_out) if with_marks else out


def _bracket_ok(lower: float, pi: float, upper: float, n: int) -> bool:
    slack = 3.0 * binomial_se(pi, n)
    return lower <= pi + slack and pi <= upper + slack


def exact_loss_rows(src: MarkSource, lo: int, hi: int, max_epochs: int,
                    max_depth: int) -> list[tuple[int, float, float, float, float]]:
    """Per-replica exact rows (replica, Y(sigma^dpat), W, Y(sigma+dpat), D).

    Replica r draws at epoch 0 of stream+r for iid sources, or at epoch
    r * 2*max_depth of the single realization otherwise.  Rows only depend on
    the replica index, so ranges computed in parallel merge deterministically.
    """
    rows = []
    for r in range(lo, hi):
        if src.is_iid:
            rep, e = src.substream(r), 0
        else:
            # spaced epochs do not overlap backwards windows; a per-replica
            # cache keeps memory at O(scan depth) instead of the whole span
            rep, e = src, r * 2 * max_depth
        cache = MarkWindowCache(rep)
        _, _, dpat = cache.range(e, e)  # the first fill ends at e and covers the search
        ym, w, yp = exact_triple_at(rep, e, max_epochs, max_depth, cache)
        rows.append((r, ym, w, yp, float(dpat[0])))
    return rows


def loss_report_from_rows(src: MarkSource, rows) -> LossReport:
    """Aggregate exact per-replica rows into the begin-model loss report."""
    samples = len(rows)
    pi = wilson(sum(w > d for _, _, w, _, d in rows), samples)
    lo = wilson(sum(ym > d for _, ym, _, _, d in rows), samples)
    up = wilson(sum(yp > d for _, _, _, yp, d in rows), samples)
    return LossReport(model="begin", pi_hat=pi, lower_bound=lo, upper_bound=up,
                      method="renovation-exact", replicas=samples,
                      seed=src.seed, stream=src.stream,
                      bracket_ok=_bracket_ok(lo.point, pi.point, up.point, samples))


def loss_probability_begin(src: MarkSource, samples: int, mode: str = "exact",
                           max_epochs: int = 10_000, max_depth: int = 10_000,
                           warmup: int = DEFAULT_WARMUP) -> LossReport:
    """Loss probability P(W > D) with its dominating bounds.

    Each stationary W is paired with the patience of the customer observing
    it, preserving their joint law.  Bounds evaluate the dominated and
    dominating recursions against the same patience: P(Y(sigma^dpat) > D) <=
    P(W > D) <= P(Y(sigma+dpat) > D).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if mode == "exact":
        return loss_report_from_rows(src, exact_loss_rows(src, 0, samples, max_epochs, max_depth))
    elif mode == "approximate":
        n_loss = n_low = n_up = 0
        w = ym = yp = 0.0
        total = warmup + samples
        pos = 0
        chunk = 1 << 14
        while pos < total:
            take = min(chunk, total - pos)
            xi, sigma, dpat = src.window_arrays(pos, pos + take - 1)
            for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
                if pos >= warmup:
                    if w > d:
                        n_loss += 1
                    if ym > d:
                        n_low += 1
                    if yp > d:
                        n_up += 1
                inner = w + s if w <= d else w
                v = inner - x
                w = v if v > 0.0 else 0.0
                a = s if s < d else d
                v = (ym if ym > a else a) - x
                ym = v if v > 0.0 else 0.0
                a = s + d
                v = (yp if yp > a else a) - x
                yp = v if v > 0.0 else 0.0
                pos += 1
        pi = wilson(n_loss, samples)
        lo = wilson(n_low, samples)
        up = wilson(n_up, samples)
        method = "forward-approximate"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return LossReport(model="begin", pi_hat=pi, lower_bound=lo, upper_bound=up,
                      method=method, replicas=samples, seed=src.seed, stream=src.stream,
                      bracket_ok=_bracket_ok(lo.point, pi.point, up.point, samples))
