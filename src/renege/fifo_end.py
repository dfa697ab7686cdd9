"""Single-server FIFO queue, impatience until the end of service.

Customers leave at their deadline even mid-service, so the work a customer
adds is sigma truncated to the patience budget left when it reaches the
server:

    S' = [ S + (sigma - (S + sigma - D)+)+ - xi ]+

whose inner term equals (S + sigma) ^ D when S <= D and S otherwise; that is
the form computed here (it is exact at the plateau D, where the naive
difference form drifts by one ulp).  The map is nondecreasing and continuous
in S, so both the plain backward scheme and renovation via the dominating
recursion with alpha = dpat apply; the two constructions cross-check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import LossReport, wilson
from .fifo_begin import StationarySample, _bracket_ok
from .marks import MarkSource, MarkTriple
from .recursion import (
    D_ONLY,
    MarkWindowCache,
    ZeroCertificate,
    renovation_search,
)

DEFAULT_WARMUP = 100_000


def end_step(s: float, mark: MarkTriple) -> float:
    """One arrival of the end-impatience workload; nondecreasing and
    1-Lipschitz in s."""
    if s < 0.0:
        raise ValueError(f"workload must be >= 0, got {s}")
    if s > mark.dpat:
        inner = s
    else:
        t = s + mark.sigma
        inner = t if t < mark.dpat else mark.dpat
    v = inner - mark.xi
    return v if v > 0.0 else 0.0


def find_renovation_epoch_end(src: MarkSource, max_epochs: int, max_depth: int,
                              cache: MarkWindowCache | None = None
                              ) -> tuple[int, ZeroCertificate]:
    """Nearest epoch -m where the dominating recursion (alpha = dpat) is
    certifiably 0, hence the stationary S is 0."""
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    return renovation_search(D_ONLY, src, 0, max_epochs, max_depth, cache, first=1)


def _replay_end(src: MarkSource, start_epoch: int, end_epoch: int,
                cache: MarkWindowCache | None = None) -> float:
    s = 0.0
    if start_epoch == end_epoch:
        return s
    cache = cache if cache is not None else MarkWindowCache(src)
    xi, sigma, dpat = cache.range(start_epoch, end_epoch - 1)
    for x, sg, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
        if s > d:
            inner = s
        else:
            t = s + sg
            inner = t if t < d else d
        v = inner - x
        s = v if v > 0.0 else 0.0
    return s


def exact_triple_end(src: MarkSource, epoch: int, max_epochs: int, max_depth: int,
                     cache: MarkWindowCache | None = None) -> tuple[float, float, float]:
    """(Y(sigma^dpat), S, Y(dpat)) at `epoch`, all replayed from a common
    certified-zero epoch of the dominating recursion.

    A certified zero of Y(dpat) forces the two dominated values to 0 as well,
    and replaying the three chains on the same marks keeps the ordering
    ym <= s <= yd exact in floating point at every step.
    """
    if cache is None:
        cache = MarkWindowCache(src)
    start, _ = renovation_search(D_ONLY, src, epoch, max_epochs, max_depth, cache)
    ym = s = yd = 0.0
    if start == epoch:
        return ym, s, yd
    xi, sigma, dpat = cache.range(start, epoch - 1)
    for x, sg, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
        a = sg if sg < d else d
        v = (ym if ym > a else a) - x
        ym = v if v > 0.0 else 0.0
        if s > d:
            inner = s
        else:
            t = s + sg
            inner = t if t < d else d
        v = inner - x
        s = v if v > 0.0 else 0.0
        v = (yd if yd > d else d) - x
        yd = v if v > 0.0 else 0.0
    return ym, s, yd


def sample_stationary_s(src: MarkSource, max_epochs: int = 10_000, max_depth: int = 10_000,
                        mode: str = "exact", warmup: int = DEFAULT_WARMUP) -> StationarySample:
    """Stationary end-impatience workload at epoch 0 (exact via renovation
    replay, or forward-approximate with a warm-up)."""
    if mode == "exact":
        cache = MarkWindowCache(src)
        epoch, cert = find_renovation_epoch_end(src, max_epochs, max_depth, cache)
        return StationarySample(_replay_end(src, epoch, 0, cache), "renovation-exact", epoch, cert)
    if mode == "approximate":
        return StationarySample(_replay_end(src, -warmup, 0), "forward-approximate")
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class LoynesResult:
    """Minimal stationary solution as the limit of backward iterates from 0."""

    value: float
    depth: int
    converged: bool


def loynes_minimal(src: MarkSource, epoch: int = 0, max_depth: int = 1000,
                   cache: MarkWindowCache | None = None) -> LoynesResult:
    """Backward iterates of end_step from 0 at increasingly remote epochs.

    end_step is nondecreasing and continuous, so the iterates increase to the
    minimal stationary solution.  Iteration stops when two consecutive depths
    agree exactly (a heuristic, confirmed against renovation replay in tests),
    or reports converged=False at max_depth.  Each depth replays from scratch,
    O(max_depth^2) worst case; keep max_depth moderate.
    """
    if cache is None:
        cache = MarkWindowCache(src)
    prev = _replay_end(src, epoch - 1, epoch, cache)
    for k in range(2, max_depth + 1):
        cur = _replay_end(src, epoch - k, epoch, cache)
        if cur == prev:
            return LoynesResult(cur, k, True)
        prev = cur
    return LoynesResult(prev, max_depth, False)


def sandwich_check_end(src: MarkSource, epochs, max_depth: int,
                       max_epochs: int = 10_000) -> int:
    """Count violations of Y(sigma^dpat) <= S <= Y(dpat) at the epochs."""
    cache = MarkWindowCache(src)
    violations = 0
    for e in epochs:
        ym, s, yd = exact_triple_end(src, e, max_epochs, max_depth, cache)
        if ym > s:
            violations += 1
        if s > yd:
            violations += 1
    return violations


def forward_samples_end(src: MarkSource, count: int, warmup: int = DEFAULT_WARMUP,
                        spacing: int = 1):
    """End-model analog of fifo_begin.forward_samples (values only)."""
    if count < 1 or spacing < 1 or warmup < 0:
        raise ValueError("count and spacing must be >= 1, warmup >= 0")
    total = warmup + (count - 1) * spacing + 1
    out = np.empty(count)
    s = 0.0
    pos = 0
    taken = 0
    chunk = 1 << 14
    while pos < total:
        take = min(chunk, total - pos)
        xi, sigma, dpat = src.window_arrays(pos, pos + take - 1)
        for x, sg, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
            if pos >= warmup and (pos - warmup) % spacing == 0:
                out[taken] = s
                taken += 1
                if taken == count:
                    return out
            if s > d:
                inner = s
            else:
                t = s + sg
                inner = t if t < d else d
            v = inner - x
            s = v if v > 0.0 else 0.0
            pos += 1
    return out


def exact_loss_rows_end(src: MarkSource, lo: int, hi: int, max_epochs: int,
                        max_depth: int) -> list[tuple[int, float, float, float, float, float]]:
    """Per-replica exact rows (replica, Y(sigma^dpat), S, Y(dpat), sigma, D);
    replica placement as in the begin-model rows."""
    rows = []
    for r in range(lo, hi):
        if src.is_iid:
            rep, e = src.substream(r), 0
        else:
            rep, e = src, r * 2 * max_depth
        cache = MarkWindowCache(rep)
        _, sigma, dpat = cache.range(e, e)  # the first fill ends at e and covers the search
        ym, s, yd = exact_triple_end(rep, e, max_epochs, max_depth, cache)
        rows.append((r, ym, s, yd, float(sigma[0]), float(dpat[0])))
    return rows


def loss_report_from_rows_end(src: MarkSource, rows) -> LossReport:
    """Aggregate exact per-replica rows into the end-model loss report."""
    samples = len(rows)
    pi = wilson(sum(s > d - sg for _, _, s, _, sg, d in rows), samples)
    nv = wilson(sum(s > d for _, _, s, _, _, d in rows), samples)
    lo = wilson(sum(ym > d - sg for _, ym, _, _, sg, d in rows), samples)
    up = wilson(sum(yd > d - sg for _, _, _, yd, sg, d in rows), samples)
    return LossReport(model="end", pi_hat=pi, lower_bound=lo, upper_bound=up,
                      method="renovation-exact", replicas=samples,
                      seed=src.seed, stream=src.stream,
                      bracket_ok=_bracket_ok(lo.point, pi.point, up.point, samples),
                      pi_never_reach=nv)


def loss_metrics_end(src: MarkSource, samples: int, mode: str = "exact",
                     max_epochs: int = 10_000, max_depth: int = 10_000,
                     warmup: int = DEFAULT_WARMUP) -> LossReport:
    """Loss metrics of the end-impatience queue.

    pi_hat estimates P(S > D - sigma): the observing customer's service
    cannot complete by its deadline.  pi_never_reach estimates P(S > D): it
    never reaches the server at all.  The bounds evaluate the dominated and
    dominating recursions against the same D - sigma threshold.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if mode == "exact":
        return loss_report_from_rows_end(
            src, exact_loss_rows_end(src, 0, samples, max_epochs, max_depth))
    elif mode == "approximate":
        n_loss = n_never = n_low = n_up = 0
        s = ym = yd = 0.0
        total = warmup + samples
        pos = 0
        chunk = 1 << 14
        while pos < total:
            take = min(chunk, total - pos)
            xi, sigma, dpat = src.window_arrays(pos, pos + take - 1)
            for x, sg, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
                if pos >= warmup:
                    thresh = d - sg
                    if s > thresh:
                        n_loss += 1
                    if s > d:
                        n_never += 1
                    if ym > thresh:
                        n_low += 1
                    if yd > thresh:
                        n_up += 1
                a = sg if sg < d else d
                v = (ym if ym > a else a) - x
                ym = v if v > 0.0 else 0.0
                if s > d:
                    inner = s
                else:
                    t = s + sg
                    inner = t if t < d else d
                v = inner - x
                s = v if v > 0.0 else 0.0
                v = (yd if yd > d else d) - x
                yd = v if v > 0.0 else 0.0
                pos += 1
        pi = wilson(n_loss, samples)
        nv = wilson(n_never, samples)
        lo = wilson(n_low, samples)
        up = wilson(n_up, samples)
        method = "forward-approximate"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return LossReport(model="end", pi_hat=pi, lower_bound=lo, upper_bound=up,
                      method=method, replicas=samples, seed=src.seed, stream=src.stream,
                      bracket_ok=_bracket_ok(lo.point, pi.point, up.point, samples),
                      pi_never_reach=nv)


def compare_disciplines(src: MarkSource, horizon: int) -> int:
    """Count indices n <= horizon where the end-model workload exceeds the
    begin-model workload on the same marks from the same empty start.
    The contract is 0: aborting service at the deadline never leaves more
    work than running every admitted service to completion."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s = w = 0.0
    violations = 0
    pos = 0
    chunk = 1 << 14
    while pos < horizon:
        take = min(chunk, horizon - pos)
        xi, sigma, dpat = src.window_arrays(pos, pos + take - 1)
        for x, sg, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
            if s > d:
                inner = s
            else:
                t = s + sg
                inner = t if t < d else d
            v = inner - x
            s = v if v > 0.0 else 0.0
            inner = w + sg if w <= d else w
            v = inner - x
            w = v if v > 0.0 else 0.0
            if s > w:
                violations += 1
            pos += 1
    return violations
