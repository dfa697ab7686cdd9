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

A Model holds what differs between the two: the dominating spec, the scalar
step (w, xi, sigma, dpat) -> w', its elementwise in-place numpy form, a
scalar window kernel that advances (ym, w, yp) over a window of marks and
counts its exceedances, one that lists W alone along a window, and the
layout of the exact loss rows.

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
oracle.  _advance holds one window's marks and lockstep arrays for a run.

Every lockstep step, of the coupled engine and of the replay of exact loss
and sample rows, is one in-place kernel, _step, writing into preallocated
buffers: np.maximum for the dominated and dominating chains, the model's
inner form for W, then one subtraction of xi and one clip over all the chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Callable

import numpy as np

from .estimation import LossReport, binomial_se, wilson
from .marks import MarkSource, MarkTriple
from .recursion import (
    D_ONLY,
    SIGMA_MIN_D,
    SIGMA_PLUS_D,
    DepthExhaustedError,
    MarkWindowCache,
    RecursionSpec,
    RenovationNotFoundError,
    ZeroCertificate,
    clip,
    mark_windows,
    renovation_offsets,
    renovation_search,
)

DEFAULT_WARMUP = 100_000
# Replicas per lockstep batch of exact rows, and the marks of each one's first
# window; a re-screen at width w takes _BATCH * _FIRST_WIDTH // w replicas at
# a time.  On the benchmark sources the renovation distance has mean 2 (Markov)
# and 15 (heavy iid).  A batch's arrays peak near 1.7 MB for a Markov source
# (the marks fetch with its chain lookback and composition) and for an iid one
# (tracemalloc, with recursion._SEARCH_CELLS terms per screen slice).
_BATCH = 512
_FIRST_WIDTH = 32
# Marks per window of a coupled forward run, and per segment of a window.  A
# run holds one window's arrays, 3.2 MB, for all its windows: the marks and
# their segment-major copies (0.8 MB each), the alphas (0.5 MB), the recorded
# paths (0.8 MB) and the end model's thresholds (0.26 MB).  Windows of 2^16
# marks ran 5-15 % faster for 3 MB more peak RSS (in-process, 2 cores).  On
# the M/M/1+M forward workload every segment couples, within 56 steps at most.
_WINDOW = 1 << 15
_SEGMENT = 64


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


@dataclass(frozen=True)
class Model:
    """What one single-server model needs beyond the shared drivers.

    inner(w, sigma, dpat, out=None, mask=None) is the elementwise numpy form
    of the step before xi is taken off, written into `out` (not w) with
    `mask` as scratch for w > dpat, so step_array is the step.
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
    step: Callable[[float, float, float, float], float]
    inner: Callable[..., np.ndarray]
    scalar_window: Callable[..., tuple]
    w_path: Callable[..., list]
    row_marks: Callable[[float, float], tuple]
    exceeds: Callable[..., tuple]
    columns: tuple[str, ...]  # detail.csv header of the exact loss rows

    def mark_step(self, w: float, mark: MarkTriple) -> float:
        """One arrival with the given marks; the workload must be >= 0."""
        if w < 0.0:
            raise ValueError(f"workload must be >= 0, got {w}")
        return self.step(w, mark.xi, mark.sigma, mark.dpat)

    def step_array(self, w, xi, sigma, dpat):
        """step, elementwise over numpy arrays, bit-identical (see _step)."""
        out = self.inner(w, sigma, dpat)
        return clip(np.subtract(out, xi, out=out), out)


def _step_begin(w: float, x: float, s: float, d: float) -> float:
    inner = w + s if w <= d else w
    v = inner - x
    return v if v > 0.0 else 0.0


def _step_end(w: float, x: float, s: float, d: float) -> float:
    if w > d:
        inner = w
    else:
        t = w + s
        inner = t if t < d else d
    v = inner - x
    return v if v > 0.0 else 0.0


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
    name="begin", dominating=SIGMA_PLUS_D, step=_step_begin, inner=_inner_begin,
    scalar_window=_window_begin, w_path=_w_path_begin,
    row_marks=lambda s, d: (d,),
    exceeds=lambda ym, w, yp, d, out=None: (w > d, ym > d, yp > d),
    columns=("replica", "y_min", "w", "y_plus", "dpat"))
END = Model(
    name="end", dominating=D_ONLY, step=_step_end, inner=_inner_end,
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
    rows = np.empty((6 if chains == 3 else 4, _SEGMENT, k))  # x, s, d, thresh[, two alphas]
    return (*rows[:4], rows[4:], np.empty((_SEGMENT + 1, chains, k)), *np.empty((2, chains, k)))


def _coupled(model: Model, state: tuple, xi, sigma, dpat, work: tuple = ()) -> tuple:
    """(state, counts) after the window xi, sigma, dpat, for the chains in
    `state`: (ym, w, yp) with the exceedance counts of Model.scalar_window,
    or (w,) alone with no counts.  Bit-identical to the scalar kernels.

    The window is cut into segments of _SEGMENT arrivals.  Segment 0 runs
    through the scalar kernels from `state` and from 0; when the two ends
    differ it has not coupled, a sign of heavy traffic in which the later
    segments would mostly not couple either, and the scalar kernels run the
    rest of the window.  Otherwise the later whole segments go to _lockstep,
    and the scalar kernels run the tail.
    """
    k = xi.size // _SEGMENT - 1  # whole segments after segment 0
    if k < 1:  # no segment to guess a start for
        return _scalar(model, state, xi, sigma, dpat)
    head = slice(_SEGMENT)
    zero, _ = _scalar(model, (0.0,) * len(state), xi[head], sigma[head], dpat[head])
    state, counts = _scalar(model, state, xi[head], sigma[head], dpat[head])
    a = _SEGMENT  # marks taken
    if state == zero:
        body = slice(a, a + k * _SEGMENT)
        state, more = _lockstep(model, state, xi[body], sigma[body], dpat[body], work)
        counts = tuple(map(add, counts, more))
        a += k * _SEGMENT
    state, rest = _scalar(model, state, xi[a:], sigma[a:], dpat[a:])
    return state, tuple(map(add, counts, rest))


def _lockstep(model: Model, state: tuple, xi, sigma, dpat, work: tuple = ()) -> tuple:
    """(state, counts) of _coupled over the K whole segments of xi, sigma,
    dpat, the first starting from its true `state`, in the arrays of `work`
    (a _workspace, or fresh ones).

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
    k, c = xi.size // _SEGMENT, len(state)
    # [j, i] is arrival j of segment i, [a, j, i] in alphas (three chains only);
    # [j, c, i]: chain c of segment i before arrival j, and after the last at j = _SEGMENT
    x, s, d, thresh, alphas, recorded, y, zero_ends = (
        a[..., :k] for a in (work or _workspace(c, k)))
    for v, seg in zip((xi, sigma, dpat), (x, s, d)):
        seg[...] = v.reshape(k, _SEGMENT).T
    if c == 3:
        SIGMA_MIN_D.alpha_array(x, s, d, alphas[0])
        model.dominating.alpha_array(x, s, d, alphas[1])
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
            at = slice(t * _SEGMENT, (t + 1) * _SEGMENT)
            end, more = _scalar(model, end, xi[at], sigma[at], dpat[at])
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


def _advance(model: Model, src: MarkSource, lo: int, hi: int, state: tuple,
             cache: MarkWindowCache | None = None) -> tuple:
    """(state, counts) at hi from `state` at lo, run by _coupled a window at a
    time: the chains (ym, w, yp) with the exceedance counts of the arrivals
    lo..hi-1, or (w,) alone with none (counts None when there are no
    arrivals).  The marks (unless from `cache`) and the lockstep arrays of
    every window are held in buffers allocated once per call."""
    n = min(max(hi - lo, 0), _WINDOW)
    fetch = cache.range if cache is not None else partial(src.window_arrays, out=np.empty((3, n)))
    work = _workspace(len(state), max(n // _SEGMENT - 1, 0))  # the segments after _coupled's first
    counts = None
    for marks in mark_windows(fetch, lo, hi, _WINDOW):
        state, c = _coupled(model, state, *marks, work)
        counts = c if counts is None else tuple(map(add, counts, c))
    return state, counts


def find_renovation_epoch(model: Model, src: MarkSource, max_epochs: int, max_depth: int,
                          cache: MarkWindowCache | None = None) -> tuple[int, ZeroCertificate]:
    """Nearest epoch -m, m = 1..max_epochs, where the dominating recursion is
    certifiably 0, hence the stationary workload is 0."""
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    return renovation_search(model.dominating, src, 0, max_epochs, max_depth, cache, first=1)


def exact_triple(model: Model, src: MarkSource, epoch: int, max_epochs: int, max_depth: int,
                 cache: MarkWindowCache | None = None) -> tuple[float, float, float]:
    """(dominated Y, W, dominating Y) at `epoch`, replayed from a common
    certified-zero epoch of the dominating recursion.

    The certified zero forces the two dominated values to 0 as well, and
    replaying the three chains on the same marks keeps ym <= w <= yp exact in
    floating point at every step.
    """
    if cache is None:
        cache = MarkWindowCache(src)
    start, _ = renovation_search(model.dominating, src, epoch, max_epochs, max_depth, cache)
    return _advance(model, src, start, epoch, (0.0, 0.0, 0.0), cache)[0]


def sample_stationary(model: Model, src: MarkSource, max_epochs: int = 10_000,
                      max_depth: int = 10_000, mode: str = "exact",
                      warmup: int = DEFAULT_WARMUP) -> StationarySample:
    """Stationary workload at epoch 0.

    Exact mode replays from the nearest renovation epoch -m and is an exact
    draw.  Approximate mode iterates forward from 0 over `warmup` arrivals
    and carries the method tag saying so.
    """
    if mode == "exact":
        cache = MarkWindowCache(src)
        epoch, cert = find_renovation_epoch(model, src, max_epochs, max_depth, cache)
        (w,), _ = _advance(model, src, epoch, 0, (0.0,), cache)
        return StationarySample(w, "renovation-exact", epoch, cert)
    if mode == "approximate":
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        (w,), _ = _advance(model, src, -warmup, 0, (0.0,))
        return StationarySample(w, "forward-approximate")
    raise ValueError(f"unknown mode {mode!r}")


def sandwich_check(model: Model, src: MarkSource, epochs, max_depth: int,
                   max_epochs: int = 10_000) -> int:
    """Count violations of dominated Y <= W <= dominating Y at the epochs."""
    cache = MarkWindowCache(src)
    violations = 0
    for e in epochs:
        ym, w, yp = exact_triple(model, src, e, max_epochs, max_depth, cache)
        violations += (ym > w) + (w > yp)
    return violations


def forward_samples(model: Model, src: MarkSource, count: int, warmup: int = DEFAULT_WARMUP,
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
    out = np.empty((3, count))  # rows: state, sigma, dpat of the recording customers
    (w,), _ = _advance(model, src, 0, warmup, (0.0,))
    a = taken = 0
    for xi, sigma, dpat in mark_windows(src.window_arrays, warmup, total):
        seen = [w] + model.w_path(w, xi, sigma, dpat)  # before each arrival, then after
        w = seen.pop()
        at = slice(-a % spacing, None, spacing)
        got = seen[at]
        out[:, taken:taken + len(got)] = got, sigma[at], dpat[at]
        taken += len(got)
        a += xi.size
    return (out[0], out[1], out[2]) if with_marks else out[0]


def _report(model: Model, src: MarkSource, counts, samples: int, method: str) -> LossReport:
    """Wilson intervals of the counts (pi, lower, upper[, never-reach]); the
    bracket holds when pi is within 3 standard errors of its bounds."""
    pi, lo, up, *never = (wilson(c, samples) for c in counts)
    slack = 3.0 * binomial_se(pi.point, samples)
    return LossReport(model=model.name, pi_hat=pi, lower_bound=lo, upper_bound=up,
                      method=method, replicas=samples, seed=src.seed, stream=src.stream,
                      bracket_ok=lo.point <= pi.point + slack and pi.point <= up.point + slack,
                      pi_never_reach=never[0] if never else None)


def _exact_row(model: Model, src: MarkSource, r: int, max_epochs: int, max_depth: int,
               spacing: int, first: int) -> tuple:
    """Replica r's row of _batch_rows by the scalar path: exact_triple for a
    loss row; for a sample row, sample_stationary's search and replay at the
    replica's epoch e, whose errors name the replica and e."""
    rep, e = src.replica(r, spacing)
    cache = MarkWindowCache(rep)
    if first:
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        try:
            start, cert = renovation_search(model.dominating, rep, e, max_epochs, max_depth,
                                            cache, first)
        except (DepthExhaustedError, RenovationNotFoundError) as exc:
            raise type(exc)(f"replica {r} at epoch {e}: {exc}") from exc
        (w,), _ = _advance(model, rep, start, e, (0.0,), cache)
        return (r, w, "renovation-exact", start - e, cert.depth)
    _, sigma, dpat = cache.range(e, e)  # the first fill ends at e and covers the search
    ym, w, yp = exact_triple(model, rep, e, max_epochs, max_depth, cache)
    return (r, ym, w, yp, *model.row_marks(float(sigma[0]), float(dpat[0])))


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
    alphas = np.stack((SIGMA_MIN_D.alpha_array(x, s, d), alpha_up[:, cols].T), axis=1)
    y = np.zeros((3, k.size))
    out = np.empty_like(y)
    mask, on = np.empty((2, k.size), dtype=bool)
    for j, lag in enumerate(range(lags, 0, -1)):
        _step(model, y, alphas[j], x[j], s[j], d[j], out, mask)
        np.copyto(y, out, where=np.greater_equal(k, lag, out=on))
    return y


def exact_loss_rows(model: Model, src: MarkSource, lo: int, hi: int, max_epochs: int,
                    max_depth: int) -> list[tuple]:
    """Per-replica exact rows (replica, ym, W, yp, *row marks) at the
    replica's own epoch (MarkSource.replica, spacing 2*max_depth), replayed
    from the renovation epoch exact_triple finds, in batches (_batch_rows)."""
    return [row for a in range(lo, hi, _BATCH) for row in _batch_rows(
        model, src, a, min(a + _BATCH, hi), max_epochs, max_depth, 2 * max_depth, 0)]


def exact_sample_rows(model: Model, src: MarkSource, lo: int, hi: int, max_epochs: int,
                      max_depth: int, spacing: int) -> list[tuple]:
    """Per-replica exact draws (replica, W, method, renovation epoch,
    certificate depth): sample_stationary on replica r's source shifted to
    its epoch (MarkSource.replica at `spacing`), in batches (_batch_rows)."""
    return [row for a in range(lo, hi, _BATCH) for row in _batch_rows(
        model, src, a, min(a + _BATCH, hi), max_epochs, max_depth, spacing, 1)]


def _batch_rows(model: Model, src: MarkSource, lo: int, hi: int, max_epochs: int,
                max_depth: int, spacing: int, first: int) -> list[tuple]:
    """Exact rows of the replicas lo..hi-1 (at most _BATCH), spaced `spacing`
    apart: loss rows (first=0) or sample rows, whose renovation search
    starts at k = first = 1.  Its arrays are freed on return, before the
    next batch's marks are fetched.

    The batch runs in lockstep, from windows of _FIRST_WIDTH marks ending at
    each replica's epoch: one renovation screen (recursion.renovation_offsets)
    on the windows without their last `first` marks, and one replay of the
    three chains for the rows it certifies.  The rows it leaves undecided are
    fetched again and re-screened together at twice the width, from the
    candidate where each one's walk ran out of marks, in sub-batches of at
    most _BATCH * _FIRST_WIDTH marks, until every row is certified or
    max_epochs or max_depth stops it.  A stopped row takes the
    scalar path (_exact_row), which raises its DepthExhaustedError or
    RenovationNotFoundError, first replica first; so no row after the first
    stopped one is widened further.  Both paths run the same IEEE operations
    on the same marks, so the rows are bit-identical to the scalar path's.
    Rows only depend on the replica index, so ranges computed in parallel
    merge deterministically, and memory stays at one sub-batch, whatever the
    span of a non-iid source.
    """
    bound = model.dominating.bound_for(src)
    if bound is None or max_depth < 1:  # the scalar path raises at the first replica
        return [_exact_row(model, src, r, max_epochs, max_depth, spacing, first)
                for r in range(lo, hi)]
    vals = np.empty((5, hi - lo))  # ym, w, yp, sigma, dpat of the certified rows
    # k: the renovation distance, or -1 - the candidate an undecided row's walk is at
    k, depth = np.full(hi - lo, -1), np.zeros(hi - lo, dtype=np.intp)
    todo, width = np.arange(hi - lo), _FIRST_WIDTH
    while todo.size:
        undecided, step = [], max(1, _BATCH * _FIRST_WIDTH // width)
        for part in (todo[a:a + step] for a in range(0, todo.size, step)):
            marks = src.replica_windows((part + lo).tolist(), spacing, width)
            alpha_up = model.dominating.alpha_array(*marks)
            cut = width - first
            kp, dp = renovation_offsets(marks[0, :, :cut], alpha_up[:, :cut], bound,
                                        max_epochs - first, max_depth, -1 - k[part])
            k[part] = np.where(kp < 0, kp, kp + first)
            depth[part] = dp
            vals[:3, part] = _replay_rows(model, marks, alpha_up, np.where(dp > 0, k[part], 0))
            vals[3:, part] = marks[1:, :, -1]
            undecided.append(part[kp < 0])
        todo = np.concatenate(undecided)
        stopped = np.flatnonzero((k >= 0) & (depth == 0))
        todo = todo[todo < stopped[0]] if stopped.size else todo
        width *= 2
    ym, w, yp, sigma, dpat = vals.tolist()
    k, depth = k.tolist(), depth.tolist()
    return [_exact_row(model, src, r, max_epochs, max_depth, spacing, first) if not depth[i]
            else (r, w[i], "renovation-exact", -k[i], depth[i]) if first
            else (r, ym[i], w[i], yp[i], *model.row_marks(sigma[i], dpat[i]))
            for i, r in enumerate(range(lo, hi))]


def loss_report_from_rows(model: Model, src: MarkSource, rows) -> LossReport:
    """Aggregate exact per-replica rows into the model's loss report: the
    model's indicators, each counted over the rows' columns at once."""
    columns = map(np.array, list(zip(*rows))[1:])
    counts = [int(np.count_nonzero(c)) for c in model.exceeds(*columns)]
    return _report(model, src, counts, len(rows), "renovation-exact")


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
        return loss_report_from_rows(
            model, src, exact_loss_rows(model, src, 0, samples, max_epochs, max_depth))
    if mode != "approximate":
        raise ValueError(f"unknown mode {mode!r}")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    state, _ = _advance(model, src, 0, warmup, (0.0, 0.0, 0.0))
    _, counts = _advance(model, src, warmup, warmup + samples, state)
    return _report(model, src, counts, samples, "forward-approximate")


def compare_disciplines(src: MarkSource, horizon: int) -> int:
    """Count indices n <= horizon where the end-model workload exceeds the
    begin-model workload on the same marks from the same empty start.
    The contract is 0: aborting service at the deadline never leaves more
    work than running every admitted service to completion."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s = w = 0.0
    violations = 0
    for marks in mark_windows(src.window_arrays, 0, horizon):
        s_path, w_path = _w_path_end(s, *marks), _w_path_begin(w, *marks)
        violations += int(np.count_nonzero(np.greater(s_path, w_path)))
        s, w = s_path[-1], w_path[-1]
    return violations
