"""Scalar oracles of the exact engine: one replica, one epoch, one lag at a time.

renege decides every exact answer with one batch screen
(recursion.renovation_offsets, run by recursion.screen_replicas).  These are
the scalar walks it replaced, kept to check it:

- the backward scheme (loynes_backward) and the backward supremum with its
  zero certificate (backward_supremum, certified_zero);
- the renovation search, candidate by candidate (renovation_search), and what
  is replayed from it: the exact triple, the exact draw and the sandwich
  count of each model;
- the end model's minimal stationary solution as the limit of backward
  iterates from 0 (loynes_minimal).

They read marks through recursion.MarkWindowCache and replay with the scalar
kernels of the models (Model.scalar_window, Model.w_path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from renege.fifo import END, Model
from renege.marks import CapabilityError, MarkSource
from renege.recursion import (
    _FIRST_FILL,
    _SEARCH_LAGS,
    DepthExhaustedError,
    MarkWindowCache,
    RecursionSpec,
    RenovationNotFoundError,
    renovation_offsets,
)

_CHUNK = 512  # the longest chunk of lags a backward walk reads at once


@dataclass(frozen=True)
class ZeroCertificate:
    """Finite witness that the backward supremum at `epoch` is <= 0.

    Every checked term alpha_{epoch-j} - sum_{i<=j} beta_{epoch-i}, j <= depth,
    is <= 0, and the cumulative beta over the window reached the a.s. bound on
    alpha, so every unchecked tail term is <= residual_bound <= 0.
    """

    epoch: int
    depth: int
    residual_bound: float

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("certificate depth must be >= 1")
        if self.residual_bound > 0.0:
            raise ValueError("residual bound must be <= 0")


@dataclass(frozen=True)
class RecursionValue:
    """Value of the stationary recursion at one epoch."""

    value: float
    exact: bool
    truncation_depth: int | None = None
    certificate: ZeroCertificate | None = None

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"recursion value must be finite and >= 0, got {self.value}")


def _lag_terms(spec: RecursionSpec, src: MarkSource, epoch: int, depth: int,
               cache: MarkWindowCache | None = None):
    """Terms alpha_{epoch-j} - cumsum beta for lags j=1..depth, oldest mark first."""
    if cache is not None:
        xi, sigma, dpat = cache.range(epoch - depth, epoch - 1)
    else:
        xi, sigma, dpat = src.window_arrays(epoch - depth, epoch - 1)
    alpha = spec.alpha_array(xi, sigma, dpat)
    # lag j corresponds to array position depth - j
    cum_beta = np.cumsum(xi[::-1])
    return alpha[::-1] - cum_beta, cum_beta


def loynes_backward(spec: RecursionSpec, src: MarkSource, epoch: int, depth: int,
                    cache: MarkWindowCache | None = None) -> list[float]:
    """Backward scheme: the k-th entry (k = 1..depth) is the value at `epoch`
    of the recursion started from 0 at epoch-k.

    Equals the clipped running maximum of the lag terms, so the list is
    nondecreasing and its last element is a lower bound on the stationary
    value at `epoch`.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    terms, _ = _lag_terms(spec, src, epoch, depth, cache)
    running = np.maximum.accumulate(terms)
    return [v if v > 0.0 else 0.0 for v in running.tolist()]


def backward_supremum(spec: RecursionSpec, src: MarkSource, epoch: int, max_depth: int,
                      exact: bool = True,
                      cache: MarkWindowCache | None = None) -> RecursionValue:
    """Stationary recursion value at `epoch` via the backward supremum.

    Exact mode cuts the tail at the first depth J where the cumulative beta
    reaches the a.s. alpha bound (every deeper term is then <= bound - cum <= 0)
    and attaches a ZeroCertificate when the value is 0; it raises
    DepthExhaustedError when J > max_depth, even where a positive term was
    seen.  Approximate mode truncates at max_depth; the bias is one-sided (the
    value is underestimated, so zero events are overestimated).
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if not exact:
        terms, _ = _lag_terms(spec, src, epoch, max_depth, cache)
        v = float(terms.max())
        return RecursionValue(v if v > 0.0 else 0.0, exact=False, truncation_depth=max_depth)
    bound = spec.bound_for(src)
    if bound is None:
        raise CapabilityError(
            f"exact evaluation needs an a.s. bound on alpha ({spec.alpha_kind}); "
            "the source marginals are unbounded and no bound is declared")
    best = -np.inf
    for depth, t, s in _backward_walk(spec, src, epoch, max_depth, cache, bound):
        if t > best:
            best = t
        if s >= bound:
            value = best if best > 0.0 else 0.0
            cert = None
            if value == 0.0:
                cert = ZeroCertificate(epoch=epoch, depth=depth, residual_bound=bound - s)
            return RecursionValue(value, exact=True, certificate=cert)


def _backward_walk(spec: RecursionSpec, src: MarkSource, epoch: int, max_depth: int,
                   cache: MarkWindowCache | None, bound: float):
    """(depth, lag term, cumulative beta) for lags 1..max_depth, beta summed in
    sequence; DepthExhaustedError past max_depth.  Chunks double up to _CHUNK."""
    s = 0.0
    depth = 0
    chunk = _SEARCH_LAGS
    while depth < max_depth:
        take = min(chunk, max_depth - depth)
        chunk = min(2 * chunk, _CHUNK)
        lo, hi = epoch - depth - take, epoch - depth - 1
        xi, sigma, dpat = cache.range(lo, hi) if cache is not None else src.window_arrays(lo, hi)
        alpha = spec.alpha_array(xi, sigma, dpat)
        for al, be in zip(alpha[::-1].tolist(), xi[::-1].tolist()):
            depth += 1
            s = s + be
            yield depth, al - s, s
    raise DepthExhaustedError(
        f"cumulative beta reached {s:.6g} < alpha bound {bound:.6g} within {max_depth} lags")


def certified_zero(spec: RecursionSpec, src: MarkSource, epoch: int, max_depth: int,
                   cache: MarkWindowCache | None = None) -> ZeroCertificate | None:
    """Certificate that the stationary value at `epoch` is 0, or None if it is
    positive (a positive lag term classifies the epoch exactly as
    backward_supremum would, with the same arithmetic, but stops early).
    """
    bound = spec.bound_for(src)
    if bound is None:
        raise CapabilityError(
            f"zero certificates need an a.s. bound on alpha ({spec.alpha_kind})")
    for depth, t, s in _backward_walk(spec, src, epoch, max_depth, cache, bound):
        if t > 0.0:
            return None
        if s >= bound:
            return ZeroCertificate(epoch=epoch, depth=depth, residual_bound=bound - s)


def renovation_search(spec: RecursionSpec, src: MarkSource, epoch: int, max_epochs: int,
                      max_depth: int, cache: MarkWindowCache | None,
                      first: int = 0) -> tuple[int, ZeroCertificate]:
    """Nearest renovation epoch epoch-k, k = first..max_epochs, with its
    certificate: what certified_zero at k = first, first+1, ... returns or
    raises first.

    renovation_offsets screens the cached window of marks ending at
    epoch - first, as a batch of one, from _FIRST_FILL marks on, doubled
    until the window decides the search or max_epochs or max_depth stops it.
    certified_zero then issues the found candidate's certificate or raises
    its DepthExhaustedError.
    """
    if cache is None:
        cache = MarkWindowCache(src)
    bound = spec.bound_for(src)
    if first <= max_epochs and (bound is None or max_depth < 1):
        certified_zero(spec, src, epoch - first, max_depth, cache)  # raises either error
    k, width = -1, _FIRST_FILL
    while k < 0 and first <= max_epochs:
        xi, sigma, dpat = cache.range(epoch - first - width + 1, epoch - first)
        alpha = spec.alpha_array(xi, sigma, dpat)
        (k,), _ = renovation_offsets(xi[None], alpha[None], bound, max_epochs - first, max_depth,
                                     -1 - k)
        width *= 2
    if not 0 <= k <= max_epochs - first:
        raise RenovationNotFoundError(
            f"no certified zero epoch within {max_epochs} epochs of {epoch}; either zero states "
            "have probability 0 for this source or max_epochs/max_depth are too small")
    k = first + int(k)
    return epoch - k, certified_zero(spec, src, epoch - k, max_depth, cache)


def find_renovation_epoch(model: Model, src: MarkSource, max_epochs: int, max_depth: int,
                          cache: MarkWindowCache | None = None) -> tuple[int, ZeroCertificate]:
    """Nearest epoch -m, m = 1..max_epochs, where the dominating recursion is
    certifiably 0, hence the stationary workload is 0."""
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    return renovation_search(model.dominating, src, 0, max_epochs, max_depth, cache, first=1)


def exact_triple(model: Model, src: MarkSource, epoch: int, max_epochs: int, max_depth: int,
                 cache: MarkWindowCache | None = None) -> tuple[float, float, float]:
    """(dominated Y, W, dominating Y) at `epoch`, replayed by the scalar
    window kernel from a common certified-zero epoch of the dominating
    recursion.

    The certified zero forces the two dominated values to 0 as well, and
    replaying the three chains on the same marks keeps ym <= w <= yp exact in
    floating point at every step.
    """
    if cache is None:
        cache = MarkWindowCache(src)
    start, _ = renovation_search(model.dominating, src, epoch, max_epochs, max_depth, cache)
    return model.scalar_window(0.0, 0.0, 0.0, *cache.range(start, epoch - 1))[:3]


@dataclass(frozen=True)
class ExactSample:
    """One exact draw of the stationary workload with its provenance."""

    value: float
    renovation_epoch: int
    certificate: ZeroCertificate
    method: str = "renovation-exact"


def sample_stationary(model: Model, src: MarkSource, max_epochs: int = 10_000,
                      max_depth: int = 10_000) -> ExactSample:
    """Exact stationary workload at epoch 0, replayed by the scalar path
    kernel from the nearest renovation epoch -m, m >= 1."""
    cache = MarkWindowCache(src)
    epoch, cert = find_renovation_epoch(model, src, max_epochs, max_depth, cache)
    path = model.w_path(0.0, *cache.range(epoch, -1))
    return ExactSample(path[-1], epoch, cert)


def sandwich_check(model: Model, src: MarkSource, epochs, max_depth: int,
                   max_epochs: int = 10_000) -> int:
    """Count violations of dominated Y <= W <= dominating Y at the epochs."""
    cache = MarkWindowCache(src)
    violations = 0
    for e in epochs:
        ym, w, yp = exact_triple(model, src, e, max_epochs, max_depth, cache)
        violations += (ym > w) + (w > yp)
    return violations


@dataclass(frozen=True)
class LoynesResult:
    """Minimal stationary solution as the limit of backward iterates from 0."""

    value: float
    depth: int
    converged: bool


def loynes_minimal(src: MarkSource, epoch: int = 0, max_depth: int = 1000,
                   cache: MarkWindowCache | None = None) -> LoynesResult:
    """Backward iterates of the end model's step from 0 at increasingly
    remote epochs.

    The step is nondecreasing and continuous, so the iterates increase to the
    minimal stationary solution.  Iteration stops when two consecutive depths
    agree exactly (a heuristic, confirmed against renovation replay in tests),
    or reports converged=False at max_depth.  Each depth replays from scratch,
    O(max_depth^2) worst case; keep max_depth moderate.
    """
    if cache is None:
        cache = MarkWindowCache(src)

    def from_zero(k):
        return END.w_path(0.0, *cache.range(epoch - k, epoch - 1))[-1]

    prev = from_zero(1)
    for k in range(2, max_depth + 1):
        cur = from_zero(k)
        if cur == prev:
            return LoynesResult(cur, k, True)
        prev = cur
    return LoynesResult(prev, max_depth, False)
