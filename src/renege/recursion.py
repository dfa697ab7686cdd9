"""The generic monotone recursion y -> [max(y, alpha) - beta]+.

alpha is a nonnegative functional of one customer's marks (sigma+dpat,
sigma^dpat, dpat alone, or a custom extractor) and beta is the interarrival
xi.  The stationary solution is the clipped backward supremum

    Y = [ sup_{j>=1} ( alpha_{-j} - sum_{i=1..j} beta_{-i} ) ]+

evaluated here either exactly, by cutting the tail once the cumulative beta
reaches an a.s. bound on alpha (which yields a finite zero certificate when
the value is 0), or approximately by truncating at a fixed depth.  Forward
iterates started from different states coalesce at the atom 0; coupling_time
detects that and checks absorption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimation import Estimate, mc_aggregate
from .marks import CapabilityError, MarkSource, MarkTriple

_CHUNK = 512
_FORWARD_CHUNK = 1 << 14  # marks per window of a forward pass
# Marks in a MarkWindowCache's first fill: a shallow exact draw reads fewer.
_FIRST_FILL = 128
# A renovation screen first takes this many candidate epochs, each over this
# many lags; both double as needed, with at most _SEARCH_CELLS terms per slice
# of replicas in a pass.  A slice's arrays take about 40 bytes a term: 2^16
# terms held a batch of 512 exact rows above 2.5 MB (tracemalloc).
_SEARCH_EPOCHS = 16
_SEARCH_LAGS = 16
_SEARCH_CELLS = 1 << 15


class DepthExhaustedError(RuntimeError):
    """Exact evaluation did not terminate within max_depth."""


class RenovationNotFoundError(RuntimeError):
    """No certified zero epoch within the scanned range."""


@dataclass(frozen=True)
class RecursionSpec:
    """Choice of the dominating recursion: which mark functional plays alpha.

    beta is always the interarrival xi.  A custom extractor maps a MarkTriple
    to a nonnegative real; exact evaluation then needs custom_bound, an a.s.
    upper bound on its output.
    """

    alpha_kind: str  # "sigma_plus_d" | "sigma_min_d" | "d_only" | "custom"
    custom: Callable[[MarkTriple], float] | None = None
    custom_bound: float | None = None

    def __post_init__(self):
        if self.alpha_kind not in ("sigma_plus_d", "sigma_min_d", "d_only", "custom"):
            raise ValueError(f"unknown alpha kind {self.alpha_kind!r}")
        if (self.alpha_kind == "custom") != (self.custom is not None):
            raise ValueError("custom extractor is required exactly when alpha_kind='custom'")

    def alpha_of(self, mark: MarkTriple) -> float:
        if self.alpha_kind == "sigma_plus_d":
            return mark.sigma + mark.dpat
        if self.alpha_kind == "sigma_min_d":
            return min(mark.sigma, mark.dpat)
        if self.alpha_kind == "d_only":
            return mark.dpat
        v = float(self.custom(mark))
        if not (np.isfinite(v) and v >= 0.0):
            raise ValueError(f"custom alpha extractor returned {v}, must be finite and >= 0")
        return v

    def alpha_array(self, xi: np.ndarray, sigma: np.ndarray, dpat: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """alpha elementwise, written into `out` when given."""
        if self.alpha_kind == "sigma_plus_d":
            return np.add(sigma, dpat, out=out)
        if self.alpha_kind == "sigma_min_d":
            return np.minimum(sigma, dpat, out=out)
        alpha = dpat if self.alpha_kind == "d_only" else np.array(
            [self.alpha_of(MarkTriple(x, s, d))
             for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist())])
        if out is not None:
            out[...] = alpha
        return alpha if out is None else out

    def bound_for(self, src: MarkSource) -> float | None:
        """A.s. upper bound on alpha under src, or None if unavailable."""
        if self.alpha_kind == "custom":
            return self.custom_bound
        return src.alpha_bound_for(self.alpha_kind)


SIGMA_PLUS_D = RecursionSpec("sigma_plus_d")
SIGMA_MIN_D = RecursionSpec("sigma_min_d")
D_ONLY = RecursionSpec("d_only")


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


class MarkWindowCache:
    """Contiguous cache of mark arrays over a source, grown on demand.

    One exact draw reads overlapping backward windows: the renovation search,
    the certificate walk and the replay.  The first fill spans at least
    _FIRST_FILL marks ending at the highest index asked for, so a shallow draw
    costs one window_arrays call; each later fill at least doubles the cached
    range, so a deep one costs a logarithmic number.
    """

    def __init__(self, src: MarkSource):
        self.src = src
        self._lo = 0
        self._marks = np.empty((3, 0))  # rows xi, sigma, dpat from index _lo on

    def range(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xi, sigma, dpat) for indices lo..hi inclusive."""
        size, fetch = self._marks.shape[1], self.src.window_arrays
        if size == 0:
            self._lo = min(lo, hi - _FIRST_FILL + 1)
            self._marks = fetch(self._lo, hi)
        elif lo < self._lo:
            new_lo = min(lo, self._lo - size)
            self._marks = np.hstack([fetch(new_lo, self._lo - 1), self._marks])
            self._lo = new_lo
        top = self._lo + self._marks.shape[1] - 1
        if hi > top:
            self._marks = np.hstack([self._marks, fetch(top + 1, max(hi, top + size))])
        return tuple(self._marks[:, lo - self._lo:hi - self._lo + 1])


def mark_windows(fetch, lo: int, hi: int, size: int = _FORWARD_CHUNK):
    """(xi, sigma, dpat) over indices lo..hi-1, `size` marks at a time, read
    with fetch(lo, hi) (MarkSource.window_arrays or MarkWindowCache.range)."""
    for a in range(lo, hi, size):
        yield fetch(a, min(a + size, hi) - 1)


def step(y: float, mark: MarkTriple, spec: RecursionSpec) -> float:
    """One forward step [max(y, alpha) - beta]+; nondecreasing, 1-Lipschitz in y."""
    if y < 0.0:
        raise ValueError(f"state must be >= 0, got {y}")
    v = max(y, spec.alpha_of(mark)) - mark.xi
    return v if v > 0.0 else 0.0


def clip(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[v]+ elementwise, into `out` when given (which may be v): +0.0 where the
    scalar steps' v if v > 0.0 else 0.0 gives it, for v = -0.0 too, since
    np.maximum may keep the sign of a tied zero and adding 0.0 clears it."""
    out = np.maximum(v, 0.0, out=out)
    return np.add(out, 0.0, out=out)


def step_array(y: np.ndarray, alpha: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The step [max(y, alpha) - xi]+ elementwise.  Bit-identical to the
    scalar (y if y > alpha else alpha): np.maximum differs from it only in
    the sign of a tied zero, which the clip clears."""
    out = np.maximum(y, alpha)
    return clip(np.subtract(out, xi, out=out), out)


def y_path(y: float, alpha: np.ndarray, xi: np.ndarray) -> list[float]:
    """y after each arrival of the step [max(y, alpha) - xi]+ from y, one
    arrival per entry of alpha and xi, with the scalar kernels' operations."""
    path = []
    put = path.append
    for a, x in zip(alpha.tolist(), xi.tolist()):
        v = (y if y > a else a) - x
        y = v if v > 0.0 else 0.0
        put(y)
    return path


def _lag_terms(spec: RecursionSpec, src: MarkSource, epoch: int, depth: int,
               cache: MarkWindowCache | None = None):
    """Terms alpha_{epoch-j} - cumsum beta for lags j=1..depth, oldest mark first."""
    if cache is not None:
        xi, sigma, dpat = cache.range(epoch - depth, epoch - 1)
    else:
        xi, sigma, dpat = src.window_arrays(epoch - depth, epoch - 1)
    alpha = spec.alpha_array(xi, sigma, dpat)
    # lag j corresponds to array position depth - j
    rev_xi = xi[::-1]
    rev_alpha = alpha[::-1]
    cum_beta = np.cumsum(rev_xi)
    return rev_alpha - cum_beta, cum_beta


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
    and attaches a ZeroCertificate when the value is 0.  Approximate mode
    truncates at max_depth; the bias is one-sided (the value is underestimated,
    so zero events are overestimated).
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
    sequence; DepthExhaustedError past max_depth.  Chunks double up to _CHUNK,
    so a shallow walk reads only marks a renovation search already fetched."""
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


def renovation_offsets(xi: np.ndarray, alpha: np.ndarray, bound: float, max_epochs: int,
                       max_depth: int, start: int | np.ndarray = 0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Renovation distances k and certificate depths of a batch of replicas,
    screened in lockstep.

    Row i of xi and alpha holds a window of marks whose last column is
    replica i's epoch, and max_depth >= 1.  Entry i is where the walk of
    certified_zero over the candidates epoch - k, k = start[i]..max_epochs,
    ends: the first candidate that is not positive, with the depth of its
    certificate, or with depth 0 when max_depth stops it (certified_zero
    raises there); k = max_epochs + 1 and depth 0 when every candidate is
    positive; -1 - k and depth 0 when candidate k's walk needs marks before
    the window, where a wider window's walk may start.

    Each pass gathers lags x candidates from each replica's next candidate
    k on.  np.add.accumulate sums beta down the lags in sequence,
    bit-identical to certified_zero's s = s + be, and a candidate is
    positive when the first lag with a positive term or with s >= bound has
    a positive term; that lag is the certificate depth otherwise.  A replica
    whose candidates were all positive moves on by the block, doubled for
    the next pass, and one whose first open candidate is undecided doubles
    the lags; neither grows past the lags left in the window for the
    nearest candidate still open.  A pass covers at most _SEARCH_CELLS
    (replica, lag, candidate) cells at a time, or one replica's lags.
    """
    replicas, width = xi.shape
    out, depth = np.full(replicas, -1), np.zeros(replicas, dtype=np.intp)
    k = np.zeros(replicas, dtype=np.intp) + start
    todo = np.arange(replicas if width > 1 else 0)  # one mark has no lag to walk
    epochs, lags, more_epochs, more_lags = _SEARCH_EPOCHS, _SEARCH_LAGS, False, False
    while todo.size:
        # no open candidate has more lags in the window than the nearest one
        room = width - 1 - int(k[todo].min())
        lags = max(1, min(2 * lags if more_lags else lags, max_depth, room))
        epochs = max(1, min(2 * epochs if more_epochs else epochs, room, _SEARCH_CELLS // lags))
        part = max(1, _SEARCH_CELLS // (epochs * lags))
        more_epochs = more_lags = False
        nxt = []
        for a in range(0, todo.size, part):
            rows, cand = todo[a:a + part], np.arange(epochs)
            i = np.arange(rows.size)
            kr = k[rows]
            # [i, j-1, c] is lag j of replica i's candidate epoch - k - c
            at = (width - 1 - kr)[:, None, None] - np.arange(1, lags + 1)[:, None] - cand
            inside = at >= 0
            at = np.where(inside, at, 0) + (rows * width)[:, None, None]
            s = np.add.accumulate(xi.ravel()[at], axis=1)
            positive = (alpha.ravel()[at] - s > 0.0) & inside
            decided = positive | ((s >= bound) & inside)
            first = decided.argmax(axis=1)
            in_range = (kr[:, None] + cand) <= max_epochs
            is_pos = positive[i[:, None], first, cand] & in_range
            has_open = ~is_pos.all(axis=1)
            c0 = (~is_pos).argmax(axis=1)  # the first open candidate
            k0 = kr + c0
            cert = has_open & (k0 <= max_epochs) & decided[i, first[i, c0], c0]
            room = width - 1 - k0  # the lags of candidate k0 in the window
            found = cert | has_open & ((k0 > max_epochs) | (np.minimum(lags, room) >= max_depth))
            out[rows[found]] = k0[found]
            depth[rows[cert]] = first[i, c0][cert] + 1
            widen = has_open & ~found & (lags < room)
            k[rows] = np.where(has_open, k0, kr + epochs)
            more_lags |= bool(widen.any())
            more_epochs |= not has_open.all()
            nxt.append(rows[widen | ~has_open])
        todo = np.concatenate(nxt)
    return np.where(out < 0, -1 - k, out), depth


@dataclass(frozen=True)
class ProbZero:
    """Estimated probability that the stationary recursion value is 0."""

    estimate: Estimate
    exact: bool
    replicas: int


def prob_zero_estimate(spec: RecursionSpec, src: MarkSource, replicas: int, max_depth: int,
                       exact: bool | None = None) -> ProbZero:
    """Fraction of well-separated epochs whose value is 0, with a Wilson 95% CI.

    iid sources use one independent stream per replica; other sources use
    epochs spaced 2*max_depth apart to damp dependence.  exact=None picks
    exact mode when an alpha bound is available.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if exact is None:
        exact = spec.bound_for(src) is not None
    hits = []
    for r in range(replicas):
        # uncached window fetches keep memory flat across the wide span that
        # spaced epochs cover
        rep, e = src.replica(r, 2 * max_depth)
        rv = backward_supremum(spec, rep, e, max_depth, exact=exact)
        hits.append(1.0 if rv.value == 0.0 else 0.0)
    return ProbZero(mc_aggregate(hits, kind="binary"), exact=exact, replicas=replicas)


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
    for xi, sigma, dpat in mark_windows(src.window_arrays, 0, horizon):
        alpha = spec.alpha_array(xi, sigma, dpat)
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
