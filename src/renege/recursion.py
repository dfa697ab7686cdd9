"""The generic monotone recursion y -> [max(y, alpha) - beta]+.

alpha is a nonnegative functional of one customer's marks (sigma+dpat,
sigma^dpat, dpat alone, or a custom extractor) and beta is the interarrival
xi.  The stationary solution is the clipped backward supremum

    Y = [ sup_{j>=1} ( alpha_{-j} - sum_{i=1..j} beta_{-i} ) ]+

and Y = 0 at an epoch (a renovation) is decided exactly by cutting the tail
once the cumulative beta reaches an a.s. bound on alpha: every deeper term is
then <= 0.  One screen decides it, renovation_offsets, for a batch of
replica windows in lockstep, and one loop, screen_replicas, runs it over
replicas fetched at doubling widths; the exact rows of renege.fifo and the
exact prob_zero_estimate are what it yields.  Forward iterates started from
different states coalesce at the atom 0; coupling_time detects that and
checks absorption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimation import Estimate, mc_aggregate
from .marks import CapabilityError, MarkSource, MarkTriple

_FORWARD_CHUNK = 1 << 14  # marks per window of a forward pass
# Marks in a MarkWindowCache's first fill.
_FIRST_FILL = 128
# A renovation screen first takes this many candidate epochs, each over this
# many lags; both double as needed, with at most _SEARCH_CELLS terms per slice
# of replicas in a pass.  A slice's arrays take about 40 bytes a term: 2^16
# terms held a batch of 512 exact rows above 2.5 MB (tracemalloc).
_SEARCH_EPOCHS = 16
_SEARCH_LAGS = 16
_SEARCH_CELLS = 1 << 15
# Replicas per lockstep batch of screen_replicas, and the marks of each one's
# first window; a re-screen at width w takes _BATCH * _FIRST_WIDTH // w
# replicas at a time.  On the benchmark sources the renovation distance has
# mean 2 (Markov) and 15 (heavy iid).  A batch's arrays peak near 1.7 MB for
# a Markov source (the marks fetch with its chain lookback and composition)
# and for an iid one (tracemalloc, with _SEARCH_CELLS terms per screen slice).
_BATCH = 512
_FIRST_WIDTH = 32


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


class MarkWindowCache:
    """Contiguous cache of mark arrays over a source, grown on demand.

    Only the scalar test oracles (tests/oracles.py) read through it; it
    stays in this module because the benchmark tracer wraps its range method
    by name.

    The first fill spans at least _FIRST_FILL marks ending at the highest
    index asked for; each later fill at least doubles the cached range, so a
    deep walk costs a logarithmic number of window_arrays calls.
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
    with fetch(lo, hi), a MarkSource's window_arrays."""
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


def renovation_offsets(xi: np.ndarray, alpha: np.ndarray, bound: float, max_epochs: int,
                       max_depth: int, start: int | np.ndarray = 0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Renovation distances k and certificate depths of a batch of replicas,
    screened in lockstep.

    Row i of xi and alpha holds a window of marks whose last column is
    replica i's epoch, and max_depth >= 1, max_epochs >= start.  Entry i is
    where the walk over the candidates epoch - k, k = start[i]..max_epochs,
    each down its lags j = 1..max_depth, ends: the first candidate that is
    not positive, with the depth of its certificate, or with depth 0 when
    max_depth stops it; k = max_epochs + 1 and depth 0 when every candidate
    is positive; -1 - k and depth 0 when candidate k's walk needs marks
    before the window, where a wider window's walk may start.

    Each pass gathers lags x candidates from each replica's next candidate
    k on.  np.add.accumulate sums beta down the lags in sequence,
    bit-identical to a scalar running sum s = s + beta, and a candidate is
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


def screen_replicas(spec: RecursionSpec, src: MarkSource, lo: int, hi: int, spacing: int,
                    max_epochs: int, max_depth: int, first: int = 0, positive_ok: bool = False):
    """Renovation screen of the replicas lo..hi-1 (MarkSource.replica at
    `spacing`): for each, the nearest candidate epoch e - k, k =
    first..max_epochs, e its epoch, where the spec's recursion is
    certifiably 0.

    Yields (rows, marks, alpha, k, depth) for every window it fetches: the
    replica indices, their marks (3, rows, width) ending at e, the spec's
    alpha over them, and what renovation_offsets finds on the windows
    without their last `first` marks, as distances from e: each row's k with
    its certificate depth, k < 0 while the window cannot decide the row, or
    depth 0 where max_epochs or max_depth stops it.  With positive_ok, a row
    whose every candidate is positive (k = max_epochs + 1) is an answer, not
    a stopped row.

    _BATCH replicas at a time start from windows of _FIRST_WIDTH marks.  The
    rows a window leaves undecided are fetched again and re-screened together
    at twice the width, from the candidate where each one's walk ran out of
    marks, in sub-batches of at most _BATCH * _FIRST_WIDTH marks, until every
    row is certified or stopped.  No row after the first stopped one is
    widened further, and at the end of the batch that row's error is raised
    (_stopped): so the rows of a batch that completes are all certified, each
    by the last window yielded for it, and the first error is the first
    stopped replica's.  The marks are a pure function of the replica index,
    so rows computed in any order or process agree bit for bit.
    """
    if lo >= hi:
        return
    if max_epochs < first:
        raise ValueError(f"max_epochs must be >= {first}")
    bound = spec.bound_for(src)
    if bound is None:
        raise CapabilityError(
            f"zero certificates need an a.s. bound on alpha ({spec.alpha_kind})")
    if max_depth < 1:
        raise _stopped(src, lo, spacing, bound, max_epochs, max_depth, 0.0)
    for a in range(lo, hi, _BATCH):
        n = min(_BATCH, hi - a)
        # k: the renovation distance, or -1 - the candidate an undecided row's
        # walk is at; beta: the cumulative beta of the rows max_depth stops
        k, depth, beta = np.full(n, -1), np.zeros(n, dtype=np.intp), np.zeros(n)
        todo, width = np.arange(n), _FIRST_WIDTH
        while todo.size:
            undecided, step, cut = [], max(1, _BATCH * _FIRST_WIDTH // width), width - first
            for part in (todo[b:b + step] for b in range(0, todo.size, step)):
                marks = src.replica_windows((part + a).tolist(), spacing, width)
                alpha = spec.alpha_array(*marks)
                kp, dp = renovation_offsets(marks[0, :, :cut], alpha[:, :cut], bound,
                                            max_epochs - first, max_depth, -1 - k[part])
                k[part] = np.where(kp < 0, kp, kp + first)
                depth[part] = dp
                for i in np.flatnonzero((dp == 0) & (0 <= kp) & (kp <= max_epochs - first)):
                    c = width - 1 - k[part[i]]  # the stopped candidate's column
                    beta[part[i]] = np.add.accumulate(marks[0, i, c - max_depth:c][::-1])[-1]
                yield part + a, marks, alpha, k[part], dp
                undecided.append(part[kp < 0])
            todo = np.concatenate(undecided)
            stopped = np.flatnonzero((k >= 0) & (depth == 0)
                                     & ((k <= max_epochs) | (not positive_ok)))
            todo = todo[todo < stopped[0]] if stopped.size else todo
            width *= 2
        if stopped.size:
            i = stopped[0]
            raise _stopped(src, a + int(i), spacing, bound, max_epochs, max_depth,
                           float(beta[i]) if k[i] <= max_epochs else None)


def _stopped(src: MarkSource, r: int, spacing: int, bound: float, max_epochs: int,
             max_depth: int, beta: float | None) -> RuntimeError:
    """The error of replica r, which max_depth stopped with the cumulative
    beta `beta` or, with beta None, max_epochs stopped: the message of the
    scalar walk, prefixed by the replica and its epoch e."""
    e = src.replica(r, spacing)[1]
    if beta is None:
        return RenovationNotFoundError(
            f"replica {r} at epoch {e}: no certified zero epoch within {max_epochs} epochs of "
            f"{e}; either zero states have probability 0 for this source or "
            "max_epochs/max_depth are too small")
    return DepthExhaustedError(
        f"replica {r} at epoch {e}: cumulative beta reached {beta:.6g} < alpha bound "
        f"{bound:.6g} within {max_depth} lags")


@dataclass(frozen=True)
class ProbZero:
    """Estimated probability that the stationary recursion value is 0."""

    estimate: Estimate
    exact: bool
    replicas: int


def prob_zero_estimate(spec: RecursionSpec, src: MarkSource, replicas: int,
                       max_depth: int) -> ProbZero:
    """Fraction of well-separated epochs whose value is 0, with a Wilson 95% CI.

    iid sources use one independent stream per replica; other sources use
    epochs spaced 2*max_depth apart to damp dependence.  With an a.s. alpha
    bound the answer is exact: candidate 0 of screen_replicas (max_epochs
    0), which raises the DepthExhaustedError of the first replica whose lag
    terms stay <= 0 while the cumulative beta stays under the bound for
    max_depth lags.  Without one it is approximate: the supremum truncated at
    max_depth, which overestimates zero events.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    exact = spec.bound_for(src) is not None
    hits = np.zeros(replicas)
    if exact:
        for rows, _, _, _, depth in screen_replicas(spec, src, 0, replicas, 2 * max_depth, 0,
                                                    max_depth, positive_ok=True):
            hits[rows] = depth > 0
    else:
        for r in range(replicas):
            rep, e = src.replica(r, 2 * max_depth)
            xi, sigma, dpat = rep.window_arrays(e - max_depth, e - 1)
            # alpha - cumulative beta at lags 1..max_depth
            terms = spec.alpha_array(xi, sigma, dpat)[::-1] - np.cumsum(xi[::-1])
            hits[r] = not terms.max() > 0.0
    return ProbZero(mc_aggregate(hits.tolist(), kind="binary"), exact=exact, replicas=replicas)


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
