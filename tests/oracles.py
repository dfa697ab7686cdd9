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
  iterates from 0 (loynes_minimal);
- each model's plain per-arrival step (model_step), the reference of the
  window, path and lockstep kernels.

They read marks through recursion.MarkWindowCache and replay with the scalar
kernels of the models (Model.scalar_window, Model.w_path).

Below them are the checks and ground truths no renege run needs, only the
tests:

- coalescence of forward iterates at the atom 0 (coupling_time) and the
  begin/end comparison on common marks (compare_disciplines);
- the fifo step's non-monotonicity witness;
- the birth-death chain of the memoryless single-server scenarios
  (OracleSpec, birth_death_stationary, birth_death_abandonment);
- the two-sample Kolmogorov-Smirnov statistic (ks_two_sample);
- fifo.exact_rows' columns read as one tuple per row (exact_loss_rows,
  exact_sample_rows, and the loss rows bound to each model,
  exact_loss_rows_begin and exact_loss_rows_end);
- the states of a fake source (declared_states), whose marginals give a spec
  the alpha bound the fake names, whether its marks keep it or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from renege.fifo import BEGIN, END, Model, exact_rows
from renege.marks import (
    CapabilityError,
    Deterministic,
    Exponential,
    MarkSource,
    MarkTriple,
    StateMarginals,
)
from renege.recursion import (
    _FIRST_FILL,
    DepthExhaustedError,
    MarkWindowCache,
    RecursionSpec,
    RenovationNotFoundError,
    mark_windows,
    renovation_offsets,
    y_path,
)

_FIRST_LAGS = 16  # the first chunk of lags a backward walk reads
_CHUNK = 512  # the longest chunk of lags a backward walk reads at once
_WINDOW = 1 << 14  # marks per window of a forward walk


def declared_states(spec: RecursionSpec, bound: float | None) -> tuple[StateMarginals]:
    """One state whose marginals give spec.bound the value `bound` (None: no
    bound): dpat bounded by it, sigma 0 (unbounded for sigma ^ dpat)."""
    if bound is None:
        return (StateMarginals(Deterministic(1.0), Exponential(1.0), Exponential(1.0)),)
    sigma = Exponential(1.0) if spec.alpha_kind == "sigma_min_d" else Deterministic(0.0)
    return (StateMarginals(Deterministic(1.0), sigma, Deterministic(bound)),)


def model_step(model: Model, w: float, x: float, s: float, d: float) -> float:
    """One arrival of the model's workload w with marks (x, s, d), written
    out per model, as the models' kernels inline it: the begin model adds s
    when w <= d, the end model adds at most up to d and nothing when w > d."""
    if model.name == "begin":
        inner = w + s if w <= d else w
    elif w > d:
        inner = w
    else:
        t = w + s
        inner = t if t < d else d
    v = inner - x
    return v if v > 0.0 else 0.0


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
    alpha = spec.alpha_array(sigma, dpat)
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
    bound = spec.bound(src)
    if bound is None:
        raise CapabilityError(
            f"exact evaluation needs an a.s. bound on alpha ({spec.alpha_kind}); "
            "the source marginals are unbounded")
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
    chunk = _FIRST_LAGS
    while depth < max_depth:
        take = min(chunk, max_depth - depth)
        chunk = min(2 * chunk, _CHUNK)
        lo, hi = epoch - depth - take, epoch - depth - 1
        xi, sigma, dpat = cache.range(lo, hi) if cache is not None else src.window_arrays(lo, hi)
        alpha = spec.alpha_array(sigma, dpat)
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
    bound = spec.bound(src)
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
    bound = spec.bound(src)
    if first <= max_epochs and (bound is None or max_depth < 1):
        certified_zero(spec, src, epoch - first, max_depth, cache)  # raises either error
    k, width = -1, _FIRST_FILL
    while k < 0 and first <= max_epochs:
        xi, sigma, dpat = cache.range(epoch - first - width + 1, epoch - first)
        alpha = spec.alpha_array(sigma, dpat)
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


def exact_loss_rows(model: Model, src: MarkSource, lo: int, hi: int, max_epochs: int,
                    max_depth: int) -> list[tuple]:
    """fifo.exact_rows' loss rows, (replica, ym, W, yp, *row marks) each."""
    return _rows(exact_rows(model, src, lo, hi, max_epochs, max_depth, 0))


def exact_sample_rows(model: Model, src: MarkSource, lo: int, hi: int, max_epochs: int,
                      max_depth: int) -> list[tuple]:
    """fifo.exact_rows' sample rows, (replica, W, method, renovation epoch,
    certificate depth) each."""
    return _rows(exact_rows(model, src, lo, hi, max_epochs, max_depth, 1))


def _rows(columns: list) -> list[tuple]:
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


exact_loss_rows_begin = partial(exact_loss_rows, BEGIN)
exact_loss_rows_end = partial(exact_loss_rows, END)


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


def coupling_time(spec: RecursionSpec, src: MarkSource, z1: float, z2: float,
                  horizon: int) -> int | None:
    """Smallest n <= horizon at which forward iterates from z1 and z2 coincide.

    Both iterates consume the same marks (indices 0, 1, ...).  Once equal the
    iterates are verified to stay equal up to the horizon; None means the
    iterates did not couple within the horizon.  Equality is exact floating
    equality: coalescence happens at the atom 0 and the iterates then traverse
    identical arithmetic.
    """
    if z1 < 0.0 or z2 < 0.0:
        raise ValueError("initial states must be >= 0")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    a, b = z1, z2
    met: int | None = 0 if a == b else None
    n = 0  # steps taken before the window
    for xi, sigma, dpat in mark_windows(src.window_arrays, 0, horizon, _WINDOW):
        alpha = spec.alpha_array(sigma, dpat)
        pa, pb = y_path(a, alpha, xi), y_path(b, alpha, xi)
        equal = np.equal(pa, pb)
        if met is None and equal.any():
            met = n + 1 + int(equal.argmax())
        apart = np.flatnonzero(~equal) + n + 1  # the steps after which they differ
        if met is not None and apart.size and apart[-1] > met:
            raise RuntimeError(
                f"iterates separated at step {apart[apart > met][0]} after coupling at {met}")
        a, b = pa[-1], pb[-1]
        n += xi.size
    return met


def compare_disciplines(src: MarkSource, horizon: int) -> int:
    """Count indices n <= horizon where the end-model workload exceeds the
    begin-model workload on the same marks from the same empty start.
    The contract is 0: aborting service at the deadline never leaves more
    work than running every admitted service to completion."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s = w = 0.0
    violations = 0
    for marks in mark_windows(src.window_arrays, 0, horizon, _WINDOW):
        s_path, w_path = END.w_path(s, *marks), BEGIN.w_path(w, *marks)
        violations += int(np.count_nonzero(np.greater(s_path, w_path)))
        s, w = s_path[-1], w_path[-1]
    return violations


def fifo_nonmonotonicity_witness() -> tuple[float, float, float, float]:
    """States x < y with fifo_step(x) > fifo_step(y) for one mark.

    Crossing the patience boundary drops the service term: serving at x = d
    loads d + sigma while y just above d keeps only y.
    """
    mark = MarkTriple(xi=0.5, sigma=1.0, dpat=1.0)
    x, y = 1.0, 1.25
    return x, y, BEGIN.mark_step(x, mark), BEGIN.mark_step(y, mark)


@dataclass(frozen=True)
class OracleSpec:
    """Birth-death ground truth parameters: arrivals lam, service mu,
    per-waiting-customer abandonment rate gamma (0 means no abandonment).

    Number-in-system moves up at lam and down at mu + (n-1)*gamma in state n
    (one customer in service, n-1 waiting and each quitting at rate gamma).
    The per-arrival abandonment fraction of that chain equals the stationary
    loss probability of the matching workload recursion.
    """

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
