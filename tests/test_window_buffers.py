"""Forward windows in reused buffers, bit for bit against fresh arrays.

MarkSource.fill_window reads a window in chunks of marks._CHUNK Philox
blocks (a Markov chunk composing its chain states from the state before it)
and writes each chunk's marks where the caller says: the columns of one
index-order array for window_arrays, the segments of one segment-major block
for fifo._advance, which holds that block and one set of lockstep arrays for
all the windows of a call.  Every case compares by float.hex: both layouts
against window_arrays and against whole-window oracles, and _advance against
the scalar window kernels on the same marks.
"""

import tracemalloc

import numpy as np
import pytest

from renege import fifo
from renege.cli import source_from_config
from renege.fifo import BEGIN, END
from renege.marks import (
    _CHAIN_LOOKBACK,
    _CHUNK,
    _U53,
    Deterministic,
    Discrete,
    Exponential,
    StateMarginals,
    TruncatedExponential,
    Uniform,
    iid_source,
    markov_source,
)

L = fifo._SEGMENT
W = fifo._WINDOW

MARGINALS = {
    "deterministic": Deterministic(0.75),
    "uniform": Uniform(0.2, 1.0),
    "exponential": Exponential(0.9),
    "truncated-exponential": TruncatedExponential(1.5, 2.0),
    "discrete": Discrete((0.0, 0.5, 2.0), (0.25, 0.25, 0.5)),
}
# the segment, chunk and window boundaries, and those of 2^11-block chunks and
# 2^15-mark windows, which read the same marks
OLD_CHUNK = 1 << 11
LENGTHS = [1, L - 1, L, 2 * L - 1, 2 * L, 2 * L + 1, OLD_CHUNK - 1, OLD_CHUNK, OLD_CHUNK + 1,
           3 * OLD_CHUNK + 5, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5, 1 << 15,
           W - 1, W, W + 1]
# the workload of benchmarks/workloads.py "forward": M/M/1+M, lambda 0.9, mu 1, gamma 0.5
FORWARD = {"kind": "iid", "seed": 20083, "xi": {"dist": "exponential", "rate": 0.9},
           "sigma": {"dist": "exponential", "rate": 1.0},
           "dpat": {"dist": "exponential", "rate": 0.5}}


def _hex(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


def _whole_window(src, lo, hi):
    """The iid marks of lo..hi by one Philox read and one transposed copy of
    the scaled words, quantiles over whole contiguous rows."""
    u = np.ascontiguousarray(
        ((src._blocks(src.origin + lo, hi - lo + 1) >> np.uint64(11)) * _U53).T)
    sm = src.states[0]
    return np.stack([sm.xi.quantile(u[1]), sm.sigma.quantile(u[2]), sm.dpat.quantile(u[3])])


def _into_buffer(src, lo, hi, spare=7):
    """fill_window into a NaN-filled buffer wider than the window: the marks
    must land in its first columns, the rest untouched."""
    buf = np.full((3, hi - lo + 1 + spare), np.nan)
    src.fill_window(lo, hi, lambda a, m: buf[:, a:a + m])
    assert np.isnan(buf[:, hi - lo + 1:]).all()
    return buf[:, :hi - lo + 1]


def _into_block(src, lo, hi):
    """fill_window into a NaN-filled segment-major block, as fifo._advance
    reads a window: in whole segments, [:, j, i] holding mark i * L + j."""
    n = hi - lo + 1
    block = np.full((3, L, -(-n // L)), np.nan)
    src.fill_window(lo, lo + block.shape[2] * L - 1,
                    lambda a, m: block[:, :, a // L:(a + m) // L].transpose(0, 2, 1))
    assert not np.isnan(block).any()
    return block.transpose(0, 2, 1).reshape(3, -1)[:, :n]


@pytest.mark.parametrize("name", sorted(MARGINALS))
@pytest.mark.parametrize("n", LENGTHS)
def test_iid_chunks_match_whole_window(name, n):
    m = MARGINALS[name]
    src = iid_source(m, m, m, seed=606)
    for lo in (0, -n - 3):
        want = _hex(_whole_window(src, lo, lo + n - 1))
        assert _hex(src.window_arrays(lo, lo + n - 1)) == want
        assert _hex(_into_buffer(src, lo, lo + n - 1)) == want
        assert _hex(_into_block(src, lo, lo + n - 1)) == want


@pytest.mark.parametrize("origin", [-3, -OLD_CHUNK - 1, -_CHUNK - 1, 2 ** 256 - 2 * OLD_CHUNK + 1,
                                    2 ** 256 - 2 * _CHUNK + 1])
def test_iid_chunks_across_the_counter_wrap(origin):
    # the window crosses index 2^256 = 0 of the Philox counter in mid-chunk:
    # the counter carries on, as a fresh read positioned after the wrap shows
    m = MARGINALS["truncated-exponential"]
    src = iid_source(Exponential(0.9), m, Uniform(0.0, 1.5), seed=7).shift(origin)
    n = 3 * _CHUNK + 5
    whole = _into_buffer(src, 0, n - 1)
    assert _hex(whole) == _hex(_whole_window(src, 0, n - 1))
    assert _hex(_into_block(src, 0, n - 1)) == _hex(whole)
    wrap = (-origin) % 2 ** 256
    parts = np.hstack([src.window_arrays(0, wrap - 1), src.window_arrays(wrap, n - 1)])
    assert _hex(whole) == _hex(parts)


_FAST = StateMarginals(Uniform(0.2, 0.6), TruncatedExponential(2.0, 0.5), Uniform(0.0, 0.2))
_SLOW = StateMarginals(Uniform(1.0, 2.0), Exponential(1.3),
                       Discrete((0.1, 0.4, 0.9), (0.5, 0.3, 0.2)))


def _whole_markov_window(src, lo, hi):
    """The Markov marks of lo..hi, or None when the first lookback holds no
    regeneration: one fetch of the lookback and the window, one composition
    from the last regeneration at or before lo, quantiles over whole rows."""
    g0, look = src.origin + lo, _CHAIN_LOOKBACK
    u = (src._blocks(g0 - look, look + hi - lo + 1) >> np.uint64(11)) * _U53
    regen = np.flatnonzero(u[:look + 1, 0] < src._doeblin_parts[0])
    if not regen.size:
        return None
    state = src._compose_states(u[None, regen[-1]:, 0])[0, look - regen[-1]:]
    return src._quantiles(u[look:].T[1:], state)


@pytest.mark.parametrize("transition, found", [
    (((0.9, 0.1), (0.3, 0.7)), {True}),
    # delta 0.02: the first lookback of a window often holds no regeneration
    (((0.01, 0.99), (0.99, 0.01)), {True, False})])
def test_markov_windows_into_buffer(transition, found):
    # chunk by chunk, the chain states carry over from one chunk to the next,
    # also where the first index of a chunk is no regeneration
    src = markov_source(transition, (_FAST, _SLOW), seed=19)
    regen, carried = set(), set()
    for lo in range(-5000, 5000, 1234):
        for n in (1, 150, _CHUNK + 1, 2 * _CHUNK + 5):
            want = _hex(src.window_arrays(lo, lo + n - 1))
            assert _hex(_into_buffer(src, lo, lo + n - 1)) == want
            assert _hex(_into_block(src, lo, lo + n - 1)) == want
            whole = _whole_markov_window(src, lo, lo + n - 1)
            assert whole is None or _hex(whole) == want
        regen.add(whole is not None)
        chain = (src._blocks(src.origin + lo + _CHUNK, 1)[0, 0] >> np.uint64(11)) * _U53
        carried.add(bool(chain >= src._doeblin_parts[0]))
    assert regen == found and True in carried


class ArraySource:
    """Marks (3, n) of indices 0..n-1 read from a fixed array, NaN past its
    end (fifo._advance reads a window's last segment whole, but runs none of
    the marks from hi on)."""

    def __init__(self, marks):
        self.marks = marks

    def window_arrays(self, lo, hi):
        out = np.full((3, hi - lo + 1), np.nan)
        got = self.marks[:, lo:hi + 1]
        out[:, :got.shape[1]] = got
        return out

    def fill_window(self, lo, hi, into):
        out = into(0, hi - lo + 1)
        out[...] = self.window_arrays(lo, hi).reshape(out.shape)


def _scalar_run(model, state, marks):
    if len(state) == 3:
        *state, counts = model.scalar_window(*state, *marks)
        return tuple(state), counts
    return (model.w_path(state[0], *marks)[-1],), ()


def _same_as_scalar(model, src, lo, hi, state):
    marks = np.hstack([src.window_arrays(a, min(a + W, hi) - 1) for a in range(lo, hi, W)])
    got_state, got_counts = fifo._advance(model, src, lo, hi, state)
    want_state, want_counts = _scalar_run(model, state, marks)
    assert _hex(got_state) == _hex(want_state)
    assert all(type(v) is float for v in got_state)
    assert got_counts == want_counts


def _restarting_marks():
    """Three full windows and a short one of light traffic.  In window 1 a
    big job arrives at the end of segment 6, and segment 7 (no service,
    interarrivals of 0.001) cannot drain it, so its lockstep restarts at
    segment 8 through the scalar kernels.  Window 2, over lockstep arrays of
    the same shape, has the same slow segment 7 but entered empty: every
    chain stays at 0 and it couples, unless its path from 0 starts from the
    big job left in the arrays by window 1.  Window 3 is shorter."""
    rng = np.random.default_rng(11)
    n = 3 * W + 5 * L + 9
    marks = np.stack([rng.uniform(0.5, 1.5, n), rng.uniform(0.0, 0.8, n),
                      rng.uniform(0.0, 0.4, n)])
    for a, before in ((W + 7 * L, (0.5, 5.0, 10.0)), (2 * W + 7 * L, (5.0, 0.0, 0.0))):
        marks[:, a - 1] = before
        marks[:, a:a + L] = [[0.001], [0.0], [0.0]]
    return marks


@pytest.mark.parametrize("model", [BEGIN, END])
@pytest.mark.parametrize("chains", [3, 1])
def test_advance_over_windows_matches_scalar_kernels(model, chains):
    state = (0.0, 0.25, 1.5) if chains == 3 else (0.25,)
    forward = source_from_config(FORWARD)
    _same_as_scalar(model, forward, -5, 3 * W + 3 * L + 17, state)
    marks = _restarting_marks()
    _same_as_scalar(model, ArraySource(marks), 0, marks.shape[1], state)


@pytest.mark.parametrize("model", [BEGIN, END])
def test_restart_is_taken(model, monkeypatch):
    # window 1 of _restarting_marks is the only one whose segments go back to
    # the scalar kernels after segment 0; a path from 0 that did not start at 0
    # in window 2 would send its segment 8 there too
    sizes = []
    scalar = fifo._scalar

    def spy(model, state, xi, sigma, dpat):
        sizes.append(xi.size)
        return scalar(model, state, xi, sigma, dpat)

    monkeypatch.setattr(fifo, "_scalar", spy)
    marks = _restarting_marks()
    fifo._advance(model, ArraySource(marks), 0, marks.shape[1], (0.0, 0.0, 0.0))
    assert sizes == [L, L, 0, L, L, L, 0, L, L, 0, L, L, 9]


@pytest.mark.parametrize("model", [BEGIN, END])
def test_successive_advances_match_fresh_runs(model):
    # one call of several windows, then a shorter one and a longer one: the
    # results do not depend on what ran before
    src = source_from_config(FORWARD)
    spans = [(0, 2 * W + 100), (7, 3 * L + 1), (-W, W + 5 * L), (0, 2 * W + 100)]
    first = [fifo._advance(model, src, lo, hi, (0.0, 0.0, 0.0)) for lo, hi in spans]
    for (lo, hi), got in zip(spans, first):
        marks = src.window_arrays(lo, hi - 1)
        (state, counts) = _scalar_run(model, (0.0, 0.0, 0.0), marks)
        assert (_hex(got[0]), got[1]) == (_hex(state), counts)
    assert first[0] == first[-1]


def test_advance_holds_one_block_of_marks():
    # three chains over three windows and a tail: the segment-major block, the
    # lockstep workspace (thresholds, two alphas, the recorded paths, two rows
    # of ends) and one chunk's temporaries: its raw words, the three uniform
    # rows and the three arrays a quantile may hold at once.  A bound of 5.4 MB:
    # the index-order marks and their lockstep copy took 6.6 MB at 2^16 marks
    src = source_from_config(FORWARD)
    state, _ = fifo._advance(BEGIN, src, 0, W, (0.0, 0.0, 0.0))
    k = W // L - 1
    bound = 8 * (3 * W + 3 * L * k + (L + 1) * 3 * k + 2 * 3 * k + (4 + 3 + 3) * _CHUNK)
    tracemalloc.start()
    try:
        fifo._advance(BEGIN, src, W, 4 * W + 17, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_advance_takes_few_page_faults():
    # a forward run maps its window arrays once: over 32 windows it takes
    # about a thousand minor faults at most; arrays allocated afresh for each
    # window, which the allocator hands back to the kernel, take about 20k
    resource = pytest.importorskip("resource")
    src = source_from_config(FORWARD)
    state, _ = fifo._advance(BEGIN, src, 0, W, (0.0, 0.0, 0.0))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fifo._advance(BEGIN, src, W, 33 * W, state)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 5000
