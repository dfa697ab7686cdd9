"""Single-server FIFO queues with impatient customers: one record per model,
one driver per method.

Both models are handled by one argument.  The workload W of the model is
bounded from above pathwise by a monotone dominating recursion
Y' = [max(Y, alpha) - xi]+ (alpha = sigma + dpat for the begin model,
alpha = dpat for the end model), and from below by the dominated recursion
with alpha = sigma ^ dpat.  Every epoch where the dominating value is
certifiably 0 forces W = 0 there too, so replaying the three chains forward
from such an epoch gives an exact draw of the stationary triple, ordered
exactly in floating point at every step.  Loss probabilities count the
states above the observing customer's threshold; the dominated and
dominating chains bracket them.

A Model holds what differs between the two: the dominating spec, the
elementwise in-place numpy form of the step, a scalar window kernel that
advances (ym, w, yp) over a window of marks and counts its exceedances, one
that lists W alone along a window (whose one-mark case is the scalar step),
and the layout of the exact loss rows.

Exact rows, loss rows and sample draws alike, come as columns from one
function, exact_rows: the renovation screen of recursion.screen_replicas
finds each replica's nearest certified zero of the dominating recursion, and
every window it yields is replayed in lockstep from there (_replay_rows).  A
replica the screen cannot certify within max_epochs and max_depth raises
its error, naming the replica and its epoch.

Long forward runs (approximate loss, approximate sampling) go through one
coupled-segment engine, _coupled, for both models.  The queue is
regenerative: two copies driven by the same marks are equal from the first
index where their states are equal.  So a window is cut into segments of
_SEGMENT marks, every segment is run from 0 in lockstep, and each segment's
start, guessed as the end of the previous segment's path from 0, is stepped
until it meets that recorded path.  After a segment that does not couple,
the scalar kernels run the next segments from the true end until one ends
on its path from 0, and the later segments keep their lockstep results.
The scalar kernels also run the first segment (twice, to see whether it
couples; a window whose first segment does not is left to them), windows
too short to cut and the tail of a window, and they are the engine's test
oracle.  _advance writes each window's marks once, into one segment-major block.

Every lockstep step, of the coupled engine and of the replay of exact loss
and sample rows, is one in-place kernel, _step, writing into preallocated
buffers: np.maximum for the dominated and dominating chains, the model's
inner form for W, then one subtraction of xi and one clip over all the chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable

import numpy as np

from .estimation import LossReport, binomial_se, wilson
from .marks import MarkSource, MarkTriple
from .recursion import (
    D_ONLY,
    SIGMA_MIN_D,
    SIGMA_PLUS_D,
    RecursionSpec,
    clip,
    mark_windows,
    screen_replicas,
)

DEFAULT_WARMUP = 100_000
# Marks per window of a coupled forward run, and per segment.  A run holds one
# window's arrays for all its windows, 72 bytes a mark for three chains, 4.7 MB:
# the segment-major marks and the recorded paths (24 each), the alphas (16) and
# the end model's thresholds (8).  Against 2^15-mark windows and 96 bytes a mark,
# the forward workload ran 22 % faster at the same peak RSS (benchmarks/run.py,
# 2 cores); 2^17 takes 4.7 MB more.  M/M/1+M segments couple within 56 steps.
_WINDOW = 1 << 16
_SEGMENT = 64


@dataclass(frozen=True)
class Model:
    """What one single-server model needs beyond the shared drivers.

    inner(w, sigma, dpat, out=None, mask=None) is the elementwise numpy form
    of the step before xi is taken off, written into `out` (not w) with
    `mask` as scratch for w > dpat, so step_array is the step; mark_step is
    w_path over one mark.
    scalar_window(ym, w, yp, xi, sigma, dpat) returns (ym, w, yp, counts)
    after the window, counts being how many arrivals saw each of (w, ym, yp)
    above their loss threshold, plus, for the end model, w above dpat (the
    customer never reaches the server); w_path(w, xi, sigma, dpat) lists w
    after each arrival.  An exact loss row is (replica, ym, w, yp, *row_marks(sigma,
    dpat)); exceeds(ym, w, yp, *row marks, out=None) gives the same indicators
    for one row, or elementwise for arrays, the end model's d - s into `out`.
    """

    name: str
    dominating: RecursionSpec
    inner: Callable[..., np.ndarray]
    scalar_window: Callable[..., tuple]
    w_path: Callable[..., list]
    row_marks: Callable[[float, float], tuple]
    exceeds: Callable[..., tuple]
    columns: tuple[str, ...]  # detail.csv header of the exact loss rows

    def mark_step(self, w: float, mark: MarkTriple) -> float:
        """One arrival with the given marks; the workload must be finite and >= 0."""
        if not 0.0 <= w < np.inf:
            raise ValueError(f"workload must be finite and >= 0, got {w}")
        return self.w_path(w, *np.array([[mark.xi], [mark.sigma], [mark.dpat]]))[0]

    def step_array(self, w, xi, sigma, dpat):
        """mark_step, elementwise over numpy arrays, bit-identical (see _step)."""
        out = self.inner(w, sigma, dpat)
        return clip(np.subtract(out, xi, out=out), out)


def _inner_begin(w, s, d, out=None, mask=None):
    out = np.add(w, s, out=out)
    np.copyto(out, w, where=np.greater(w, d, out=mask))
    return out


def _inner_end(w, s, d, out=None, mask=None):
    out = np.add(w, s, out=out)
    np.minimum(out, d, out=out)
    np.copyto(out, w, where=np.greater(w, d, out=mask))
    return out


def _w_path_begin(w, xi, sigma, dpat):
    path = []
    put = path.append
    for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
        inner = w + s if w <= d else w
        v = inner - x
        w = v if v > 0.0 else 0.0
        put(w)
    return path


def _w_path_end(w, xi, sigma, dpat):
    path = []
    put = path.append
    for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
        if w > d:
            inner = w
        else:
            t = w + s
            inner = t if t < d else d
        v = inner - x
        w = v if v > 0.0 else 0.0
        put(w)
    return path


def _window_begin(ym, w, yp, xi, sigma, dpat):
    n_loss = n_low = n_up = 0
    for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
        if w > d:
            n_loss += 1
        if ym > d:
            n_low += 1
        if yp > d:
            n_up += 1
        a = s if s < d else d
        v = (ym if ym > a else a) - x
        ym = v if v > 0.0 else 0.0
        inner = w + s if w <= d else w
        v = inner - x
        w = v if v > 0.0 else 0.0
        a = s + d
        v = (yp if yp > a else a) - x
        yp = v if v > 0.0 else 0.0
    return ym, w, yp, (n_loss, n_low, n_up)


def _window_end(ym, w, yp, xi, sigma, dpat):
    n_loss = n_low = n_up = n_never = 0
    for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
        thresh = d - s
        if w > thresh:
            n_loss += 1
        if ym > thresh:
            n_low += 1
        if yp > thresh:
            n_up += 1
        if w > d:
            n_never += 1
        a = s if s < d else d
        v = (ym if ym > a else a) - x
        ym = v if v > 0.0 else 0.0
        if w > d:
            inner = w
        else:
            t = w + s
            inner = t if t < d else d
        v = inner - x
        w = v if v > 0.0 else 0.0
        v = (yp if yp > d else d) - x
        yp = v if v > 0.0 else 0.0
    return ym, w, yp, (n_loss, n_low, n_up, n_never)


def _exceeds_end(ym, w, yp, s, d, out=None):
    t = d - s if out is None else np.subtract(d, s, out=out)
    return w > t, ym > t, yp > t, w > d


BEGIN = Model(
    name="begin", dominating=SIGMA_PLUS_D, inner=_inner_begin,
    scalar_window=_window_begin, w_path=_w_path_begin,
    row_marks=lambda s, d: (d,),
    exceeds=lambda ym, w, yp, d, out=None: (w > d, ym > d, yp > d),
    columns=("replica", "y_min", "w", "y_plus", "dpat"))
END = Model(
    name="end", dominating=D_ONLY, inner=_inner_end,
    scalar_window=_window_end, w_path=_w_path_end,
    row_marks=lambda s, d: (s, d),
    exceeds=_exceeds_end,
    columns=("replica", "y_min", "s", "y_dpat", "sigma", "dpat"))
MODELS = {m.name: m for m in (BEGIN, END)}


def _scalar(model: Model, state: tuple, xi, sigma, dpat) -> tuple:
    """_coupled by the scalar kernels: the three chains with their counts, or
    W alone with none."""
    if len(state) == 3:
        *state, counts = model.scalar_window(*state, xi, sigma, dpat)
        return tuple(state), counts
    return (model.w_path(state[0], xi, sigma, dpat)[-1] if xi.size else state[0],), ()


def _step(model: Model, y: np.ndarray, alphas, x, s, d, out: np.ndarray,
          mask: np.ndarray) -> None:
    """One arrival of the chains in the rows of y, (w,) or (ym, w, yp), written
    into out (not y), in place: alphas holds the rows (sigma ^ dpat, the
    dominating alpha) for three chains, mask is scratch.

    Bit-identical to the scalar kernels.  np.maximum and np.minimum differ
    from y if y > a else a and t if t < d else d only in the sign of a tied
    zero; taking off xi and the clip's + 0.0 turn any such zero into +0.0,
    as v if v > 0.0 else 0.0 does.  Marks and states are finite, so no NaN.
    """
    w = len(y) // 2
    model.inner(y[w], s, d, out[w], mask)
    if w:
        np.maximum(y[::2], alphas, out=out[::2])
    clip(np.subtract(out, x, out=out), out)


def _workspace(chains: int, k: int) -> tuple:
    """_lockstep's arrays for k segments (or fewer) of the given chains."""
    rows = np.empty((3 if chains == 3 else 1, _SEGMENT, k))  # thresh[, two alphas]
    return (rows[0], rows[1:], np.empty((_SEGMENT + 1, chains, k)), *np.empty((2, chains, k)))


def _in_order(block: np.ndarray, a: int, b: int) -> np.ndarray:
    """Marks a..b-1 of a segment-major block (see _coupled) in index order."""
    i = a // _SEGMENT
    segs = block[:, :, i:-(-b // _SEGMENT)].transpose(0, 2, 1).reshape(3, -1)
    return segs[:, a - i * _SEGMENT:b - i * _SEGMENT]


def _coupled(model: Model, state: tuple, block: np.ndarray, n: int, work: tuple = ()) -> tuple:
    """(state, counts) after the first n marks of a window, for the chains in
    `state`: (ym, w, yp) with the exceedance counts of Model.scalar_window,
    or (w,) alone with no counts.  Bit-identical to the scalar kernels.

    `block` holds the window segment-major: [:, j, i] is mark i * _SEGMENT + j,
    in segment i of _SEGMENT arrivals.  Segment 0 runs through the scalar
    kernels from `state` and from 0; when the two ends differ it has not
    coupled, a sign of heavy traffic in which the later segments would mostly
    not couple either, and the scalar kernels run the rest of the window.
    Otherwise the later whole segments go to _lockstep, and the scalar
    kernels run the tail.
    """
    k = n // _SEGMENT - 1  # whole segments after segment 0
    if k < 1:  # no segment to guess a start for
        return _scalar(model, state, *_in_order(block, 0, n))
    zero, _ = _scalar(model, (0.0,) * len(state), *block[:, :, 0])
    state, counts = _scalar(model, state, *block[:, :, 0])
    a = _SEGMENT  # marks taken
    if state == zero:
        state, more = _lockstep(model, state, block[:, :, 1:k + 1], work)
        counts = tuple(map(add, counts, more))
        a += k * _SEGMENT
    state, rest = _scalar(model, state, *_in_order(block, a, n))
    return state, tuple(map(add, counts, rest))


def _lockstep(model: Model, state: tuple, marks: np.ndarray, work: tuple = ()) -> tuple:
    """(state, counts) of _coupled over the K whole segments of `marks`
    (3, _SEGMENT, K), segment-major, the first starting from its true
    `state`, in the arrays of `work` (a _workspace, or fresh ones).

    Equal states take equal steps, so a path that meets another on the same
    marks retraces it from there on.  (a) Every segment runs from 0 at once,
    and the states seen before each arrival are recorded.  (b) Segment 0
    starts from `state` and every later one from the recorded end of the one
    before; these starts are stepped in lockstep until all the chains of
    every segment equal its recorded path, each stepped row overwriting the
    recorded one it was compared with.  The stepped path, continued by the
    recorded one, is a segment's true path whenever its start was true: its
    counts are those before the coupling index plus the recorded ones from
    there on.  (c) A segment whose end is not its recorded end, because it
    did not couple within _SEGMENT steps, makes the next start wrong: the
    scalar kernels run the next segment from the true end, and each one
    after it, until one ends on its recorded end; the later segments keep
    their lockstep paths.
    """
    k, c = marks.shape[2], len(state)
    # [j, i] is arrival j of segment i, [a, j, i] in alphas (three chains only);
    # [j, c, i]: chain c of segment i before arrival j, and after the last at j = _SEGMENT
    x, s, d = marks
    thresh, alphas, recorded, y, zero_ends = (a[..., :k] for a in (work or _workspace(c, k)))
    if c == 3:
        SIGMA_MIN_D.alpha_array(s, d, alphas[0])
        model.dominating.alpha_array(s, d, alphas[1])
    mask = np.empty(k, dtype=bool)
    recorded[0] = 0.0  # (a)
    for j in range(_SEGMENT):
        _step(model, recorded[j], alphas[:, j], x[j], s[j], d[j], recorded[j + 1], mask)
    zero_ends[...] = recorded[-1]
    y[:, 0] = state  # (b)
    y[:, 1:] = zero_ends[:, :-1]
    j = 0
    while j < _SEGMENT and (y != recorded[j]).any():
        recorded[j] = y
        _step(model, recorded[j], alphas[:, j], x[j], s[j], d[j], y, mask)
        j += 1
    recorded[j] = y
    ends = recorded[-1]
    taken = np.ones(k, dtype=bool)  # segments whose lockstep path is true
    end, redone = None, []  # (c): the scalar kernels' last end, and their counts
    for i in np.flatnonzero((ends != zero_ends).any(axis=0)).tolist():
        if not taken[i] or i == k - 1:
            continue
        end = tuple(ends[:, i].tolist())
        for t in range(i + 1, k):
            taken[t] = False
            end, more = _scalar(model, end, *marks[:, :, t])
            redone.append(more)
            if end == tuple(zero_ends[:, t].tolist()):
                break
    counts = ()
    if c == 3:
        flags = model.exceeds(*recorded[:_SEGMENT].transpose(1, 0, 2), *model.row_marks(s, d),
                              out=thresh)
        counts = tuple(int(np.count_nonzero(f) - np.count_nonzero(f[:, ~taken])) for f in flags)
    state = tuple(ends[:, -1].tolist()) if taken[-1] else end
    return state, tuple(map(sum, zip(counts, *redone)))


def _advance(model: Model, src: MarkSource, lo: int, hi: int, state: tuple) -> tuple:
    """(state, counts) at hi from `state` at lo, run by _coupled a window at a
    time: the chains (ym, w, yp) with the exceedance counts of the arrivals
    lo..hi-1, or (w,) alone with none (counts None when there are no
    arrivals).  Each window's marks are written once, in whole segments (the
    marks from hi on complete the last one, unrun), into one segment-major
    block, held with the lockstep arrays for all the windows of the call."""
    n = min(max(hi - lo, 0), _WINDOW)
    block = np.empty((3, _SEGMENT, -(-n // _SEGMENT)))
    work = _workspace(len(state), max(n // _SEGMENT - 1, 0))  # the segments after _coupled's first
    counts = None
    def into(b, size):  # the segments from mark b of the window on, in index order
        return block[:, :, b // _SEGMENT:(b + size) // _SEGMENT].transpose(0, 2, 1)
    for a in range(lo, hi, _WINDOW):
        m = min(_WINDOW, hi - a)
        src.fill_window(a, a + -(-m // _SEGMENT) * _SEGMENT - 1, into)
        state, c = _coupled(model, state, block, m, work)
        counts = c if counts is None else tuple(map(add, counts, c))
    return state, counts


def sample_stationary(model: Model, src: MarkSource, warmup: int = DEFAULT_WARMUP) -> float:
    """Stationary workload at epoch 0, approximately: iterated forward from 0
    over `warmup` arrivals.  Exact draws are the sample rows of exact_rows."""
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    (w,), _ = _advance(model, src, -warmup, 0, (0.0,))
    return w


def forward_samples(model: Model, src: MarkSource, count: int, warmup: int = DEFAULT_WARMUP,
                    spacing: int = 1) -> np.ndarray:
    """Workload states from one forward trajectory started empty: the states
    seen by customers warmup, warmup+spacing, ... (before that customer's
    mark is applied)."""
    if count < 1 or spacing < 1 or warmup < 0:
        raise ValueError("count and spacing must be >= 1, warmup >= 0")
    total = warmup + (count - 1) * spacing + 1
    out = np.empty(count)
    (w,), _ = _advance(model, src, 0, warmup, (0.0,))
    a = taken = 0
    for marks in mark_windows(src.window_arrays, warmup, total, _WINDOW):
        seen = [w] + model.w_path(w, *marks)  # before each arrival, then after
        w = seen.pop()
        got = seen[-a % spacing::spacing]
        out[taken:taken + len(got)] = got
        taken += len(got)
        a += marks.shape[1]
    return out


def loss_report(model: Model, src: MarkSource, counts, samples: int, method: str) -> LossReport:
    """Wilson intervals of the counts (pi, lower, upper[, never-reach]) over `samples` arrivals
    or rows; the bracket holds when pi is within 3 standard errors of its bounds."""
    pi, lo, up, *never = (wilson(c, samples) for c in counts)
    slack = 3.0 * binomial_se(pi.point, samples)
    return LossReport(model=model.name, pi_hat=pi, lower_bound=lo, upper_bound=up,
                      method=method, replicas=samples, seed=src.seed, stream=src.stream,
                      bracket_ok=lo.point <= pi.point + slack and pi.point <= up.point + slack,
                      pi_never_reach=never[0] if never else None)


def _replay_rows(model: Model, marks: np.ndarray, alpha_up: np.ndarray,
                 k: np.ndarray) -> np.ndarray:
    """(ym, w, yp) at the last column of each row of marks, replayed in
    lockstep from 0 at column -1-k of that row (no step where k < 1).

    Each step is _step into a scratch buffer, copied to the rows whose
    replay has begun.
    """
    lags = int(k.max(initial=0))
    cols = slice(marks.shape[2] - 1 - lags, marks.shape[2] - 1)  # the columns replayed
    # [j, r]: the mark of row r at lag lags - j
    x, s, d = (np.ascontiguousarray(v[:, cols].T) for v in marks)
    alphas = np.stack((SIGMA_MIN_D.alpha_array(s, d), alpha_up[:, cols].T), axis=1)
    y = np.zeros((3, k.size))
    out = np.empty_like(y)
    mask, on = np.empty((2, k.size), dtype=bool)
    for j, lag in enumerate(range(lags, 0, -1)):
        _step(model, y, alphas[j], x[j], s[j], d[j], out, mask)
        np.copyto(y, out, where=np.greater_equal(k, lag, out=on))
    return y


def exact_rows(model: Model, src: MarkSource, lo: int, hi: int, max_epochs: int,
               max_depth: int, first: int) -> list:
    """Exact rows of the replicas lo..hi-1 as columns, at the epochs where
    recursion.screen_replicas places them: loss rows (first=0), replica, ym, W, yp, row
    marks, or sample rows (k from first = 1), replica, W, method, renovation epoch,
    certificate depth; the replicas a range, the method a list, the rest numpy arrays.

    recursion.screen_replicas screens the model's dominating recursion over
    the replicas' windows, widening the rows it cannot yet decide, and
    raises the DepthExhaustedError or RenovationNotFoundError of the first
    replica it cannot certify, its message naming the replica and its epoch
    (a CapabilityError first when the source's marginals give no bound on
    alpha).  Every window it yields is replayed at once: the three chains in
    lockstep from 0 at each certified row's renovation epoch (_replay_rows).
    The window that certifies a row is the last one yielded for it, so its
    values are final.  The screen and the replay run the IEEE operations of
    the scalar search and step kernels on the same marks, so the rows are
    bit-identical to one replica at a time.
    """
    vals = np.empty((5, hi - lo))  # ym, w, yp, sigma, dpat
    dist, certs = np.empty((2, hi - lo), dtype=np.intp)  # renovation distance, certificate depth
    for rows, marks, alpha_up, k, depth in screen_replicas(
            model.dominating, src, lo, hi, max_epochs, max_depth, first):
        i = rows - lo
        vals[:3, i] = _replay_rows(model, marks, alpha_up, np.where(depth > 0, k, 0))
        vals[3:, i] = marks[1:, :, -1]
        dist[i], certs[i] = k, depth
    ym, w, yp, sigma, dpat = vals
    if first:
        return [range(lo, hi), w, ["renovation-exact"] * (hi - lo), -dist, certs]
    return [range(lo, hi), ym, w, yp, *model.row_marks(sigma, dpat)]


def loss_counts(model: Model, columns) -> list[int]:
    """How many exact loss rows, given by their columns after the replica
    (ym, w, yp, *row marks), meet each of the model's indicators."""
    return [int(np.count_nonzero(c)) for c in model.exceeds(*columns)]


def loss_probability(model: Model, src: MarkSource, samples: int, mode: str = "exact",
                     max_epochs: int = 10_000, max_depth: int = 10_000,
                     warmup: int = DEFAULT_WARMUP) -> LossReport:
    """Loss probability with its dominated and dominating bounds.

    Each stationary workload is paired with the marks of the customer
    observing it, preserving their joint law, and the bounds evaluate the
    dominated and dominating recursions against the same threshold.  Exact
    mode draws one renovation replay per replica; approximate mode counts
    `samples` arrivals after `warmup` on one forward trajectory from 0.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if mode == "exact":
        columns = exact_rows(model, src, 0, samples, max_epochs, max_depth, 0)
        return loss_report(model, src, loss_counts(model, columns[1:]), samples,
                           "renovation-exact")
    if mode != "approximate":
        raise ValueError(f"unknown mode {mode!r}")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    state, _ = _advance(model, src, 0, warmup, (0.0, 0.0, 0.0))
    _, counts = _advance(model, src, warmup, warmup + samples, state)
    return loss_report(model, src, counts, samples, "forward-approximate")
