"""Vectorised Markov chain-state resolution against scalar oracles.

The first oracle is the resolver the vectorised one replaced: it fetches one
Philox block per index, scans back from the index before the window to the
most recent Doeblin regeneration, then walks forward one searchsorted call at
a time.  The vectorised resolver performs the same IEEE divisions and the same
comparisons, so states and marks must agree bit for bit.

MarkSource._compose_states takes one of two compositions, a scan level by
level after each index's last regeneration or pointer doubling of per-index
successor tables, by the longest regeneration gap.  Both, forced through
_SCAN_LEVEL, are checked against a per-index scalar forward walk that reads
the same uniforms as one sequence after a given state; a uniform whose
residual rounds to 1.0 stands for the largest one below it in all three.
"""

import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renege import (
    CapabilityError,
    Deterministic,
    Discrete,
    MarkSource,
    StateMarginals,
    TruncatedExponential,
    Uniform,
    markov_source,
)
from renege import marks
from renege.marks import _CHAIN_LOOKBACK, _MAX_CHAIN_LOOKBACK, _U53, ChainRegenerationError

_FAST = StateMarginals(Uniform(0.2, 0.6), TruncatedExponential(2.0, 0.5), Uniform(0.0, 0.2))
_SLOW = StateMarginals(Uniform(1.0, 2.0), Uniform(0.0, 0.8),
                       Discrete((0.1, 0.4, 0.9), (0.5, 0.3, 0.2)))
_MID = StateMarginals(Uniform(0.6, 1.0), TruncatedExponential(0.7, 3.0), Uniform(0.3, 0.6))

CHAINS = {
    "two-state": (((0.9, 0.1), (0.3, 0.7)), (_FAST, _SLOW)),
    "three-state": (((0.9, 0.06, 0.04), (0.05, 0.9, 0.05), (0.03, 0.02, 0.95)),
                    (_FAST, _SLOW, _MID)),
    "delta-one": (((0.3, 0.7), (0.3, 0.7)), (_FAST, _SLOW)),
    # residual kernel is the flip: states between regenerations never coalesce
    "delta-0.02": (((0.01, 0.99), (0.99, 0.01)), (_FAST, _SLOW)),
}

# (lo, hi) windows: negative indices, length one, straddling 0, long
WINDOWS = [(-300, -200), (-1, -1), (0, 0), (-17, 40), (5, 5), (1000, 1511),
           (-100_000, -99_990), (123_456, 123_456), (2_000_000, 2_000_700)]


def _chain_u(src, g):
    return float((src._blocks(g, 1)[0, 0] >> np.uint64(11)) * _U53)


def oracle_states(src, g0, count):
    """Chain states at global indices g0..g0+count-1 by the scalar backward scan."""
    delta, nu_cum, q_cum = src._doeblin_parts
    pending = []
    j = g0 - 1
    while True:
        u = _chain_u(src, j)
        if u < delta:
            s = int(np.searchsorted(nu_cum, u / delta, side="right"))
            break
        pending.append(u)
        j -= 1
        if g0 - 1 - j > _MAX_CHAIN_LOOKBACK:
            raise RuntimeError("no chain regeneration found")
    for u in reversed(pending):
        s = int(np.searchsorted(q_cum[s], (u - delta) / (1.0 - delta), side="right"))
    out = []
    for g in range(g0, g0 + count):
        u = _chain_u(src, g)
        if u < delta:
            s = int(np.searchsorted(nu_cum, u / delta, side="right"))
        else:
            s = int(np.searchsorted(q_cum[s], (u - delta) / (1.0 - delta), side="right"))
        out.append(s)
    return np.array(out), g0 - 1 - j


def window_states(src, g0, count):
    """Chain states of indices g0..g0+count-1 as window_arrays resolves them:
    composed from the state before g0, found in the chain lookback."""
    chain = (src._blocks(g0, count)[:, 0] >> np.uint64(11)) * _U53
    return src._compose_states(chain[None], src._chain_before(g0))[0]


def oracle_marks(src, lo, hi):
    """(xi, sigma, dpat) for lo..hi, one index and one quantile call at a time."""
    g0 = src.origin + lo
    states, _ = oracle_states(src, g0, hi - lo + 1)
    out = ([], [], [])
    for k, s in enumerate(states):
        u = (src._blocks(g0 + k, 1) >> np.uint64(11)) * _U53
        sm = src.states[s]
        for col, marginal in enumerate((sm.xi, sm.sigma, sm.dpat)):
            out[col].append(float(marginal.quantile(u[:, col + 1])[0]))
    return tuple(np.array(c) for c in out)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _source(name, seed=31, stream=0):
    transition, states = CHAINS[name]
    return markov_source(transition, states, seed=seed, stream=stream)


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_states_and_marks_match_backward_scan(name):
    src = _source(name).shift(7)
    for lo, hi in WINDOWS:
        g0 = src.origin + lo
        expected, _ = oracle_states(src, g0, hi - lo + 1)
        np.testing.assert_array_equal(window_states(src, g0, hi - lo + 1), expected)
        for got, want in zip(src.window_arrays(lo, hi), oracle_marks(src, lo, hi)):
            assert np.array_equal(_bits(got), _bits(want))


def test_small_delta_lookback_outgrows_first_fetch():
    src = _source("delta-0.02", seed=5)
    reaches = []
    for g0 in range(0, 40_000, 1000):
        expected, reach = oracle_states(src, g0, 3)
        np.testing.assert_array_equal(window_states(src, g0, 3), expected)
        reaches.append(reach)
    assert max(reaches) > _CHAIN_LOOKBACK  # the doubled fetch was needed and exercised


@pytest.mark.parametrize("name", ["two-state", "three-state"])
def test_shuffled_request_order(name):
    windows = [(lo, lo + size) for lo in range(-5000, 5000, 700) for size in (0, 3, 90)]
    src = _source(name, seed=77, stream=2)
    expected = {w: src.window_arrays(*w) for w in windows}
    random.Random(4).shuffle(windows)
    fresh = _source(name, seed=77, stream=2)
    for lo, hi in windows:
        for got, want in zip(fresh.window_arrays(lo, hi), expected[(lo, hi)]):
            assert np.array_equal(_bits(got), _bits(want))
    lo, hi = windows[0]
    for got, want in zip(fresh.window_arrays(lo, hi), oracle_marks(fresh, lo, hi)):
        assert np.array_equal(_bits(got), _bits(want))


def test_near_degenerate_chain_raises():
    eps = 1e-9  # delta = 2e-9: a regeneration within 2^20 steps has probability ~0.2%
    src = markov_source(((1.0 - eps, eps), (eps, 1.0 - eps)), (_FAST, _SLOW), seed=3)
    with pytest.raises(RuntimeError, match="regeneration"):
        src.window_arrays(0, 10)


def test_near_degenerate_chain_raises_on_the_scalar_and_batch_paths():
    # delta = 2e-9 and one absorbing state; every window falls back
    src = markov_source(((1.0 - 2e-9, 2e-9), (0.0, 1.0)), (_FAST, _SLOW), seed=7).shift(3)
    assert issubclass(ChainRegenerationError, CapabilityError)
    assert issubclass(ChainRegenerationError, RuntimeError)
    with pytest.raises(ChainRegenerationError, match="before index 8;"):
        src.window_arrays(5, 10)
    with pytest.raises(ChainRegenerationError, match="before index -12;"):
        src.replica_windows(range(3), 10, 16)  # replica 0's window is -15..0


# (lo, hi, spacing, width): replica batches; one replica; overlapping windows
BATCHES = [(0, 9, 300, 128), (37, 41, 300, 128), (5, 6, 300, 128), (0, 40, 1, 128),
           (2, 50, 7, 16)]


@pytest.mark.parametrize("origin", [0, -5, 3, 2 ** 256 - 40, -(2 ** 256) + 60])
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_replica_windows_match_window_arrays(name, origin, monkeypatch):
    src = _source(name, seed=23).shift(origin)
    fallbacks = []
    scalar = MarkSource.window_arrays

    def counted(self, lo, hi):
        fallbacks.append(lo)
        return scalar(self, lo, hi)
    for lo, hi, spacing, width in BATCHES:
        monkeypatch.setattr(MarkSource, "window_arrays", counted)
        batch = src.replica_windows(range(lo, hi), spacing, width)
        monkeypatch.undo()
        assert batch.shape == (3, hi - lo, width)
        for i, r in enumerate(range(lo, hi)):
            want = np.stack(src.window_arrays(r * spacing - width + 1, r * spacing))
            assert np.array_equal(_bits(batch[:, i]), _bits(want))
    if name == "delta-0.02":
        # (1 - 0.02)^65: about one row in four has no regeneration in its lookback
        assert len(fallbacks) >= 5
    else:
        assert not fallbacks


@pytest.mark.parametrize("name, look", [("two-state", 16), ("delta-one", 1),
                                        ("three-state", 64), ("delta-0.02", 64)])
def test_replica_lookback_is_sized_by_delta(name, look):
    # the shortest power of two up to _CHAIN_LOOKBACK missing a regeneration
    # with probability (1 - delta)^(look + 1) <= 2^-9
    src = _source(name)
    miss = 1.0 - src._doeblin_parts[0]
    assert src._lookback == look
    assert look == _CHAIN_LOOKBACK or miss ** (look + 1) <= 2.0 ** -9
    assert look == 1 or miss ** (look // 2 + 1) > 2.0 ** -9


def test_sized_lookback_falls_back_where_it_misses_a_regeneration(monkeypatch):
    # the two-state chain reads 16 blocks of lookback; the window of replica r
    # starts at g, after a run of 17 indices without a regeneration
    src, width = _source("two-state", seed=23), 8
    look, delta = src._lookback, src._doeblin_parts[0]
    assert look < _CHAIN_LOOKBACK
    regen = (src._blocks(0, 50_000)[:, 0] >> np.uint64(11)) * _U53 < delta
    g = int(np.flatnonzero(np.convolve(regen, np.ones(look + 1), "valid") == 0)[0]) + look
    r = g + width - 1
    fallbacks = []
    scalar = MarkSource.window_arrays

    def counted(self, lo, hi):
        fallbacks.append(lo)
        return scalar(self, lo, hi)
    monkeypatch.setattr(MarkSource, "window_arrays", counted)
    batch = src.replica_windows(range(r - 3, r + 4), 1, width)
    monkeypatch.undo()
    assert g in fallbacks
    for i, e in enumerate(range(r - 3, r + 4)):
        want = np.stack(src.window_arrays(e - width + 1, e))
        assert np.array_equal(_bits(batch[:, i]), _bits(want))


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_composition_with_a_replica_axis_matches_backward_scan(name):
    # rows of different lengths of lookback before a regeneration, composed
    # at once: each row's window must come out as its own backward scan
    src = _source(name, seed=41)
    delta = src._doeblin_parts[0]
    look, count = 600, 40
    starts = [1000 * i - 7 for i in range(24)]
    rows = np.stack([(src._blocks(g - look, look + count)[:, 0] >> np.uint64(11)) * _U53
                     for g in starts])
    assert (rows[:, 1:look] < delta).any(axis=1).all()  # a true regeneration in each lookback
    rows[:, 0] = 0.0  # every row starts at a regeneration
    states = src._compose_states(rows)
    assert states.shape == rows.shape
    for g, row in zip(starts, states):
        np.testing.assert_array_equal(row[look:], oracle_states(src, g, count)[0])


def test_memory_stays_flat_over_far_apart_windows():
    src = _source("two-state", seed=12)

    def resolve(first, last):
        for i in range(first, last):
            src.window_arrays(i * 100_000, i * 100_000 + 511)

    resolve(0, 20)  # lazy set-up: cached Doeblin split, numpy internals
    tracemalloc.start()
    try:
        resolve(20, 40)
        held_before = tracemalloc.get_traced_memory()[0]
        resolve(40, 220)
        held_after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a memo of resolved states would hold ~50 kB per window here
    assert held_after - held_before < 32 * 1024


_TOP = 1.0 - _U53  # the largest uniform Philox gives
SCAN, DOUBLING = 0, 2 ** 64  # a scan level free, or dearer than any table


def forced(level):
    """The scan forced (SCAN), the doubling forced (DOUBLING), or
    _compose_states's own choice (None)."""
    return mock.patch.object(marks, "_SCAN_LEVEL", marks._SCAN_LEVEL if level is None else level)


def composed(src, chain, state=0, level=None):
    with forced(level):
        return src._compose_states(chain, state)


def walked_states(src, chain, state=0):
    """States by one scalar lookup per index, in index order; a uniform whose
    residual rounds to 1.0 stands for the largest one below it."""
    delta, nu_cum, q_cum = src._doeblin_parts
    out = []
    for u in np.ravel(chain).tolist():
        cum, v = (nu_cum, u / delta) if u < delta else (q_cum[state], (u - delta) / (1.0 - delta))
        state = int(np.searchsorted(cum, min(v, _TOP), side="right"))
        out.append(state)
    return np.array(out, dtype=np.intp).reshape(np.shape(chain))


_POINT = StateMarginals(Deterministic(1.0), Deterministic(0.5), Deterministic(0.25))


@st.composite
def chains(draw):
    """A Markov source with S = 1..4 states and delta from near 0 up to 1,
    uniforms (rows x indices) on the Philox grid, and a start state."""
    n_states = draw(st.integers(1, 4))
    delta = draw(st.sampled_from([1e-3, 0.02, 0.3, 0.7, 0.999, 1.0]))
    nu = np.array(draw(st.lists(st.integers(1, 9), min_size=n_states, max_size=n_states)), float)
    nu /= nu.sum()
    if n_states == 1:
        transition = [[1.0]]
    else:
        # a zero diagonal in the residual kernel keeps the column minima at delta * nu
        q = np.array([[0.0 if i == j else draw(st.integers(0, 9)) + (j == (i + 1) % n_states)
                       for j in range(n_states)] for i in range(n_states)], float)
        q /= q.sum(axis=1, keepdims=True)
        transition = (delta * nu + (1.0 - delta) * q).tolist()
    src = markov_source(transition, (_POINT,) * n_states, seed=1)
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 24))
    # edges: 0, the top uniform, and the grid points next to delta
    d = int(src._doeblin_parts[0] / _U53)
    edges = [0, 2 ** 53 - 1] + [k for k in (d - 1, d, d + 1) if 0 <= k < 2 ** 53]
    special = st.sampled_from(edges)
    k = draw(st.lists(st.one_of(st.integers(0, 2 ** 53 - 1), special),
                      min_size=rows * width, max_size=rows * width))
    chain = np.array(k, dtype=float).reshape(rows, width) * _U53
    if draw(st.booleans()):
        chain[-1, -1] = 0.0  # a regeneration at the last index
    return src, chain, draw(st.integers(0, n_states - 1))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=chains())
def test_scan_and_doubling_match_the_scalar_walk(case):
    src, chain, state = case
    want = walked_states(src, chain, state)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for level in (None, SCAN, DOUBLING):
            got = composed(src, chain, state, level)
            assert got.shape == chain.shape and got.dtype == np.intp
            np.testing.assert_array_equal(got, want)


def test_the_cheaper_composition_is_taken():
    # a gap of 4096 indices costs 4096 scan levels but 13 doubling passes;
    # gaps of one index cost one scan level
    src = _source("two-state")
    long_gap, short_gaps = np.full((1, 4096), 0.5), np.tile([0.0, 0.5], (1, 2048))
    for chain, used in ((long_gap, "_doubled_states"), (short_gaps, "_scanned_states")):
        with mock.patch.object(MarkSource, used, autospec=True,
                               side_effect=getattr(MarkSource, used)) as spy:
            got = src._compose_states(chain, 1)
        assert spy.call_count == 1
        np.testing.assert_array_equal(got, walked_states(src, chain, 1))


def test_top_uniform_selects_the_last_state_with_mass():
    # delta = 0.3; (u - delta) / (1 - delta) rounds to 1.0 at the top uniform.
    # Q's row of state 0 is [0, 1, 0]: the lookup must give state 1, not 2
    src = markov_source(((0.3, 0.7, 0.0), (0.3, 0.0, 0.7), (0.5, 0.5, 0.0)), (_POINT,) * 3,
                        seed=1)
    delta = src._doeblin_parts[0]
    assert delta == 0.3 and (_TOP - delta) / (1.0 - delta) == 1.0
    chain = np.array([[0.0, _TOP, 0.5, 0.5]])
    for level in (SCAN, DOUBLING):
        np.testing.assert_array_equal(composed(src, chain, 0, level), [[0, 1, 2, 1]])
    np.testing.assert_array_equal(walked_states(src, chain), [[0, 1, 2, 1]])
    # mid-array and as the start of a chunk: no index reads another's entry
    chain = np.array([[0.0, 0.5, _TOP, 0.5, 0.0, _TOP, 0.5]])
    for level in (SCAN, DOUBLING):
        np.testing.assert_array_equal(composed(src, chain, 0, level), walked_states(src, chain))
        np.testing.assert_array_equal(composed(src, chain[:, 2:], 0, level), [[1, 2, 0, 1, 2]])
    # every state drives the marks: none is left uninitialized
    marks_ = src._quantiles([np.full((1, 4), 0.5)] * 3, src._compose_states(chain[:, :4]))
    assert np.array_equal(marks_, np.broadcast_to([[[1.0]], [[0.5]], [[0.25]]], (3, 1, 4)))


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_marks_match_under_either_composition(name):
    src = _source(name, seed=29).shift(11)
    windows = [(-40, 300), (5, 5), (1000, 1000 + 4 * 2 ** 11 + 7)]
    batches = [(0, 9, 300, 128), (2, 50, 7, 16)]
    got = []
    for level in (None, SCAN, DOUBLING):
        with warnings.catch_warnings(), forced(level):
            warnings.simplefilter("error", RuntimeWarning)
            got.append([src.window_arrays(lo, hi) for lo, hi in windows]
                       + [src.replica_windows(range(lo, hi), *rest)
                          for lo, hi, *rest in batches])
    for g, s, d in zip(*got):
        assert [v.hex() for v in g.ravel().tolist()] == [v.hex() for v in s.ravel().tolist()]
        assert [v.hex() for v in g.ravel().tolist()] == [v.hex() for v in d.ravel().tolist()]


def test_an_empty_batch_composes_nothing():
    src = _source("two-state")
    for level in (SCAN, DOUBLING):
        assert composed(src, np.empty((0, 5)), 1, level).shape == (0, 5)
    assert src.replica_windows(range(3, 3), 300, 128).shape == (3, 0, 128)
