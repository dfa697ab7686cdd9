"""The generic monotone recursion y -> [max(y, alpha) - beta]+.

alpha is a nonnegative functional of one customer's marks (sigma+dpat,
sigma^dpat or dpat alone) and beta is the interarrival xi.  The stationary
solution is the clipped backward supremum

    Y = [ sup_{j>=1} ( alpha_{-j} - sum_{i=1..j} beta_{-i} ) ]+

and Y = 0 at an epoch (a renovation) is decided exactly by cutting the tail
once the cumulative beta reaches an a.s. bound on alpha, which the spec reads
off the source's marginals (RecursionSpec.bound): every deeper term is then <= 0.
One screen decides it, renovation_offsets, for a batch of replica windows in
lockstep, and one loop, screen_replicas, runs it over replicas fetched at
doubling widths; the exact rows of renege.fifo and the exact
prob_zero_estimate are what it yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import Estimate, wilson
from .marks import CapabilityError, MarkSource, MarkTriple

# Marks in a MarkWindowCache's first fill.
_FIRST_FILL = 128
# A renovation screen walks the candidate epochs lag 1 leaves open, first this
# many, each over this many lags, doubling either as needed: from 2 x 8, the
# exact-iid source screens 10 % faster than from 1 x 4, Markov windows 20 %
# faster than from 4 x 8.  A pass takes at most _SEARCH_CELLS terms, of about
# 40 bytes each, per replica slice; the open-candidate table at most as much.
_SEARCH_EPOCHS = 2
_SEARCH_LAGS = 8
_SEARCH_CELLS = 1 << 15
# Replicas per part of screen_replicas' first pass, and the marks of each
# one's first window; a re-screen at width w takes a range's undecided
# replicas _BATCH * _FIRST_WIDTH // w at a time.  The renovation distance has
# mean 2 (Markov) and 15 (heavy iid) on the benchmark sources.  A batch of exact
# loss rows peaks near 1.0 MB on either (end model) and 1.2 MB on the heavy
# iid one (begin model, with its re-screens), by tracemalloc.
_BATCH = 512
_FIRST_WIDTH = 32


class DepthExhaustedError(RuntimeError):
    """Exact evaluation did not terminate within max_depth."""


class RenovationNotFoundError(RuntimeError):
    """No certified zero epoch within the scanned range."""


@dataclass(frozen=True)
class RecursionSpec:
    """Choice of the dominating recursion: which mark functional plays alpha,
    sigma + dpat, sigma ^ dpat or dpat alone.  beta is always the
    interarrival xi; the a.s. bound on alpha that exact evaluation needs is
    bound(src)."""

    alpha_kind: str  # "sigma_plus_d" | "sigma_min_d" | "d_only"

    def __post_init__(self):
        if self.alpha_kind not in ("sigma_plus_d", "sigma_min_d", "d_only"):
            raise ValueError(f"unknown alpha kind {self.alpha_kind!r}")

    def alpha_array(self, sigma: np.ndarray, dpat: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """alpha elementwise over the marks sigma and dpat, written into `out`
        when given."""
        if self.alpha_kind == "sigma_plus_d":
            return np.add(sigma, dpat, out=out)
        if self.alpha_kind == "sigma_min_d":
            return np.minimum(sigma, dpat, out=out)
        if out is None:
            return dpat
        out[...] = dpat
        return out

    def bound(self, src: MarkSource) -> float | None:
        """A.s. bound on alpha over the source: alpha_array of each state's
        support bounds of sigma and dpat, an unbounded one counted as inf,
        maximized over the states and 0.0; None when that is inf."""
        ub = np.array([[np.inf if m.upper_bound is None else m.upper_bound
                        for m in (st.sigma, st.dpat)] for st in src.states])
        b = float(self.alpha_array(ub[:, 0], ub[:, 1]).max(initial=0.0))
        return None if b == np.inf else b


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


def mark_windows(fetch, lo: int, hi: int, size: int):
    """(xi, sigma, dpat) over indices lo..hi-1, `size` marks at a time, read
    with fetch(lo, hi), a MarkSource's window_arrays."""
    for a in range(lo, hi, size):
        yield fetch(a, min(a + size, hi) - 1)


def step(y: float, mark: MarkTriple, spec: RecursionSpec) -> float:
    """One forward step [max(y, alpha) - beta]+, y_path over the one mark;
    nondecreasing, 1-Lipschitz in y."""
    if not 0.0 <= y < np.inf:
        raise ValueError(f"state must be finite and >= 0, got {y}")
    xi, sigma, dpat = np.array([[mark.xi], [mark.sigma], [mark.dpat]])
    return y_path(y, spec.alpha_array(sigma, dpat), xi)[0]


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
    replica i's epoch, and max_depth >= 1.  Entry i is where the walk over
    the candidates epoch - k, k = start[i]..max_epochs, each down its lags
    j = 1..max_depth, ends: the first candidate that is not positive, with
    the depth of its certificate, or with depth 0 when max_depth stops it;
    k = max_epochs + 1 and depth 0 when every candidate is positive, or
    there is none (start[i] > max_epochs); -1 - k and depth 0 when candidate
    k's walk needs marks before the window, where a wider window's walk may
    start.

    np.add.accumulate sums beta down each candidate's lags in sequence,
    bit-identical to a scalar running sum s = s + beta, and a candidate is
    positive when the first lag with a positive term or with s >= bound has
    a positive term; that lag is the certificate depth otherwise.  Most
    candidates are positive at lag 1 (alpha - xi > 0.0 one column before
    them), which one elementwise test over the window finds.  A flat table
    lists each replica's other, open candidates: the _FIRST_WIDTH nearest,
    twice as many when a replica runs past them; those past its reach, and
    past the window (no lag in it), are all listed.  Each pass gathers lags
    x listed candidates from each replica's next one on.  A replica whose
    candidates were all positive moves on by the block, doubled for the
    next pass, and one whose first open candidate is undecided doubles the
    lags; neither grows past the lags left in the window for the nearest
    candidate still open.  A pass covers at most _SEARCH_CELLS (replica,
    lag, candidate) cells at a time, or one replica's lags.
    """
    replicas, width = xi.shape
    k = np.zeros(replicas, dtype=np.intp) + start
    out, depth = np.where(k > max_epochs, max_epochs + 1, -1), np.zeros(replicas, dtype=np.intp)
    todo = np.flatnonzero(out < 0) if width > 1 else np.arange(0)  # one mark has no lag to walk
    # row i's listed candidates: tab[pos[i]:end[i]], then every one from reach[i] on
    limit = min(width - 1, max_epochs + 1)  # the candidates with a lag 1, in range
    (pos, end, reach), span = np.zeros((3, replicas), dtype=np.intp), 0
    epochs, lags, more_epochs, more_lags = _SEARCH_EPOCHS, _SEARCH_LAGS, False, False
    while todo.size:
        if ((pos[todo] >= end[todo]) & (reach[todo] < limit)).any():
            # list the open candidates lo..hi-1 of the rows todo (candidate c's
            # lag 1 is column width - 2 - c): tab[f] is lo + f % w of todo[f // w]
            span, lo = 2 * span or _FIRST_WIDTH, int(k[todo].min())
            hi = max(lo, min(limit, lo + span))
            w, cols = max(hi - lo, 1), slice(width - 1 - hi, width - 1 - lo)
            r = todo if todo.size < replicas else slice(None)  # every row: no copies
            tab = np.flatnonzero(~(alpha[r, cols] - xi[r, cols] > 0.0)[:, ::-1])
            row = np.arange(todo.size) * w
            pos[todo], end[todo] = np.searchsorted(tab, (row + np.minimum(k[todo] - lo, w),
                                                         row + w))
            # one spare entry: np.take cannot clip into an empty table
            tab, reach[todo] = np.append(tab % w + lo, 0), np.maximum(k[todo], hi)
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
            # kc[i, c]: replica i's next listed candidates, c = 0..epochs
            at = pos[rows][:, None] + np.arange(epochs + 1)
            past = at - end[rows][:, None]
            kc = np.where(past < 0, np.take(tab, at, mode="clip"), reach[rows][:, None] + past)
            # [i, j-1, c] is lag j of replica i's candidate epoch - kc[i, c]
            at = (width - 1 - kc[:, None, :epochs]) - np.arange(1, lags + 1)[:, None]
            inside = at >= 0
            at = np.where(inside, at, 0) + (rows * width)[:, None, None]
            s = np.add.accumulate(xi.ravel()[at], axis=1)
            positive = (alpha.ravel()[at] - s > 0.0) & inside
            decided = positive | ((s >= bound) & inside)
            first = decided.argmax(axis=1)
            is_pos = positive[i[:, None], first, cand] & (kc[:, :epochs] <= max_epochs)
            has_open = ~is_pos.all(axis=1)
            c0 = (~is_pos).argmax(axis=1)  # the first open candidate
            k0 = kc[i, c0]
            cert = has_open & (k0 <= max_epochs) & decided[i, first[i, c0], c0]
            room = width - 1 - k0  # the lags of candidate k0 in the window
            found = cert | has_open & ((k0 > max_epochs) | (np.minimum(lags, room) >= max_depth))
            out[rows[found]] = k0[found]
            depth[rows[cert]] = first[i, c0][cert] + 1
            widen = has_open & ~found & (lags < room)
            step = np.where(has_open, c0, epochs)
            k[rows], pos[rows] = kc[i, step], pos[rows] + step
            more_lags |= bool(widen.any())
            more_epochs |= not has_open.all()
            nxt.append(rows[widen | ~has_open])
        todo = np.concatenate(nxt)
    return np.where(out < 0, -1 - k, out), depth


def screen_replicas(spec: RecursionSpec, src: MarkSource, lo: int, hi: int, max_epochs: int,
                    max_depth: int, first: int = 0, positive_ok: bool = False):
    """Renovation screen of the replicas lo..hi-1: for each, the nearest
    candidate epoch e - k, k = first..max_epochs, e its epoch, where the
    spec's recursion is certifiably 0.  This is the one place exact replicas
    are placed, loss rows, sample draws and zero estimates alike: replica r
    at MarkSource.replica(r, 2*max_depth).

    Yields (rows, marks, alpha, k, depth) for every window it fetches: the
    replica indices, their marks (3, rows, width) ending at e, the spec's
    alpha over them, and what renovation_offsets finds on the windows
    without their last `first` marks, as distances from e: each row's k with
    its certificate depth, k < 0 while the window cannot decide the row, or
    depth 0 where max_epochs or max_depth stops it.  With positive_ok, a row
    whose every candidate is positive (k = max_epochs + 1) is an answer, not
    a stopped row.

    The first pass fetches windows of _FIRST_WIDTH marks, _BATCH replicas at
    a time.  The rows it leaves undecided, from every batch of the range, are
    re-screened together at each doubled width, from the candidate where
    each one's walk ran out of marks, in parts of at most _BATCH *
    _FIRST_WIDTH marks, until every row is certified or stopped.  No part
    after the first stopped row is fetched, and once the rows before it are
    decided its error is raised (_stopped): so every row of a range that
    completes is certified, by the last window yielded for it, and the error
    is the first stopped replica's.  A source whose marginals give no a.s.
    bound on alpha raises CapabilityError before any fetch.  The marks are a
    pure function of the replica index, so rows computed in any order, range
    or process agree bit for bit.
    """
    if lo >= hi:
        return
    if max_epochs < first:
        raise ValueError(f"max_epochs must be >= {first}")
    bound = spec.bound(src)
    if bound is None:
        raise CapabilityError(
            f"exact mode needs an a.s. bound on alpha ({spec.alpha_kind}), and the source's "
            "marginals give none (use uniform, truncated-exponential, discrete or "
            "deterministic marginals)")
    if max_depth < 1:
        raise _stopped(src, lo, bound, max_epochs, max_depth, 0.0)
    # k: the renovation distance, or -1 - the candidate an undecided row's walk
    # is at; stop: the first stopped row so far, with its error
    k, todo, width = np.full(hi - lo, -1), np.arange(hi - lo), _FIRST_WIDTH
    stop, error = hi - lo, None
    while todo.size:
        undecided, step, cut = [], max(1, _BATCH * _FIRST_WIDTH // width), width - first
        for part in (todo[b:b + step] for b in range(0, todo.size, step)):
            marks = src.replica_windows((part + lo).tolist(), 2 * max_depth, width)
            alpha = spec.alpha_array(*marks[1:])
            kp, dp = renovation_offsets(marks[0, :, :cut], alpha[:, :cut], bound,
                                        max_epochs - first, max_depth, -1 - k[part])
            k[part] = np.where(kp < 0, kp, kp + first)
            yield part + lo, marks, alpha, k[part], dp
            undecided.append(part[kp < 0])
            stopped = np.flatnonzero((dp == 0) & (0 <= kp)
                                     & ((kp <= max_epochs - first) | (not positive_ok)))
            if stopped.size:  # todo is sorted: every later part is after this row
                i = stopped[0]
                stop, c = part[i], width - 1 - k[part[i]]  # c: the stopped candidate's column
                beta = (float(np.add.accumulate(marks[0, i, c - max_depth:c][::-1])[-1])
                        if kp[i] <= max_epochs - first else None)
                error = _stopped(src, lo + int(stop), bound, max_epochs, max_depth, beta)
                break
        todo = np.concatenate(undecided)
        todo = todo[todo < stop]
        width *= 2
    if error is not None:
        raise error


def _stopped(src: MarkSource, r: int, bound: float, max_epochs: int, max_depth: int,
             beta: float | None) -> RuntimeError:
    """The error of replica r, which max_depth stopped with the cumulative
    beta `beta` or, with beta None, max_epochs stopped: the message of the
    scalar walk, prefixed by the replica and its epoch e."""
    e = src.replica(r, 2 * max_depth)[1]
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
    exact = spec.bound(src) is not None
    hits = 0
    if exact:
        # a row is undecided, depth 0, in every window yielded for it but its last
        for _, _, _, _, depth in screen_replicas(spec, src, 0, replicas, 0, max_depth,
                                                 positive_ok=True):
            hits += int(np.count_nonzero(depth))
    else:
        # lag terms alpha - cumulative beta in windows doubling back from the
        # epoch, up to the first positive one; np.cumsum over [carry, *window]
        # sums in sequence, as one np.cumsum over all the lags would
        for r in range(replicas):
            rep, e = src.replica(r, 2 * max_depth)
            s, depth, take, hit = np.zeros(1), 0, _FIRST_WIDTH, True
            while hit and depth < max_depth:
                xi, sigma, dpat = rep.window_arrays(e - min(depth + take, max_depth), e - depth - 1)
                s = np.cumsum(np.concatenate((s[-1:], xi[::-1])))
                hit = not (spec.alpha_array(sigma, dpat)[::-1] - s[1:] > 0.0).any()
                depth, take = depth + xi.size, 2 * take
            hits += hit
    return ProbZero(wilson(hits, replicas), exact=exact)
