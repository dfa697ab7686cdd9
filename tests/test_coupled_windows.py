"""The coupled-segment engine against the scalar window kernels, bit for bit.

fifo._coupled runs a window for the three chains or for W alone: it cuts it
into segments of fifo._SEGMENT marks, runs the first through the scalar
kernels (the whole window when the first does not couple) and the later ones
in lockstep; after a segment that does not couple, the scalar kernels run
the next ones until one ends on its path from 0.  fifo._advance runs it a
window at a time.
Every case compares the engine's states by float.hex and its counts exactly
with _window_begin / _window_end (and w_path for W alone) on the same marks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renege import fifo
from renege.cli import source_from_config
from renege.fifo import BEGIN, END, MODELS
from renege.marks import deterministic_source

from oracles import coupled, model_step

L = fifo._SEGMENT


def _u(low, high):
    return {"dist": "uniform", "low": low, "high": high}


def _e(rate):
    return {"dist": "exponential", "rate": rate}


SOURCES = {
    "iid": {"kind": "iid", "seed": 77, "xi": _e(0.9), "sigma": _e(1.0), "dpat": _e(0.5)},
    "markov": {"kind": "markov", "seed": 78, "transition": [[0.9, 0.1], [0.3, 0.7]],
               "states": [{"xi": _u(0.5, 1.5), "sigma": _u(0.0, 0.8), "dpat": _u(0.0, 1.0)},
                          {"xi": _u(0.1, 0.7), "sigma": _u(0.0, 3.0), "dpat": _u(0.5, 3.0)}]},
    "deterministic": {"kind": "deterministic", "seed": 79, "xi": {"dist": "deterministic",
                                                                 "value": 1.0},
                      "sigma": {"dist": "deterministic", "value": 0.75},
                      "dpat": {"dist": "deterministic", "value": 0.5}},
}
STARTS = [(0.0, 0.0, 0.0), (0.25, 1.5, 4.0), (0.0, 7.0, 30.0)]


def _same(model, state, xi, sigma, dpat):
    """The engine, for the three chains and for W alone, equals the scalar
    kernels."""
    got, got_counts = coupled(model, state, xi, sigma, dpat)
    *want, want_counts = model.scalar_window(*state, xi, sigma, dpat)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert got_counts == want_counts
    assert all(type(c) is int for c in got_counts)
    (w,), counts = coupled(model, (state[1],), xi, sigma, dpat)
    want_w = model.w_path(state[1], xi, sigma, dpat)[-1] if xi.size else state[1]
    assert (w.hex(), counts) == (want_w.hex(), ())


@pytest.fixture
def rests(monkeypatch):
    """Sizes of the windows' parts that the scalar kernels run, three chains,
    in call order."""
    sizes = []
    scalar = fifo._scalar

    def spy(model, state, xi, sigma, dpat):
        if len(state) == 3:
            sizes.append(xi.size)
        return scalar(model, state, xi, sigma, dpat)

    monkeypatch.setattr(fifo, "_scalar", spy)
    return sizes


@pytest.mark.parametrize("kind", sorted(SOURCES))
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("state", STARTS)
@pytest.mark.parametrize("n", [1, L - 1, 2 * L - 1, 2 * L, 5 * L + 3, 300 * L + 17, 1 << 15,
                               fifo._WINDOW])
def test_engine_matches_scalar_kernels(kind, model, state, n):
    src = source_from_config(SOURCES[kind])
    _same(MODELS[model], state, *src.window_arrays(-n // 3, n - 1 - n // 3))


def test_short_windows_take_the_scalar_kernels(rests):
    xi, sigma, dpat = source_from_config(SOURCES["iid"]).window_arrays(0, 2 * L - 2)
    _same(BEGIN, (0.0, 0.0, 0.0), xi, sigma, dpat)
    assert rests == [xi.size]


@pytest.mark.parametrize("model", [BEGIN, END])
def test_no_segment_couples(model, rests):
    # the workload grows by 1 at every arrival and never drains, so a path
    # started above 0 never meets the one started from 0
    n = 40 * L + 5
    xi, sigma, dpat = deterministic_source(0.5, 1.5, 1e6, seed=1).window_arrays(0, n - 1)
    _same(model, (0.0, 2.0, 3.0), xi, sigma, dpat)
    # segment 0 from the state and from 0, then, as their ends differ, the rest
    assert rests == [L, L, n - L]
    rests.clear()
    _same(model, (0.0, 0.0, 0.0), xi, sigma, dpat)
    # segment 0 starts at 0 and couples; 1 starts true but ends off its path
    # from 0, and so does every segment after it: each is redone, then the tail
    assert rests == [L, L] + [L] * 38 + [5]


@pytest.mark.parametrize("model", [BEGIN, END])
def test_a_middle_segment_fails(model, rests):
    # light traffic everywhere except segment 7, which receives a large
    # workload and drains it too slowly to reach 0 within the segment
    k, fail = 20, 7
    rng = np.random.default_rng(5)
    xi = rng.uniform(0.5, 1.5, k * L + 9)
    sigma = rng.uniform(0.0, 0.8, xi.size)
    dpat = rng.uniform(0.0, 0.4, xi.size)
    xi[fail * L - 1], sigma[fail * L - 1], dpat[fail * L - 1] = 0.5, 5.0, 10.0
    seg = slice(fail * L, (fail + 1) * L)
    xi[seg], sigma[seg], dpat[seg] = 0.001, 0.0, 0.0
    for state in STARTS[:2]:
        rests.clear()
        _same(model, state, xi, sigma, dpat)
        # segment 0 twice; segment fail + 1 is redone and ends on its path
        # from 0, so the later segments keep their lockstep paths
        assert rests == [L, L, L, 9]
        # each later segment's end, lockstep-made, by float.hex
        for m in range(fail + 2, k + 1):
            rests.clear()
            _same(model, state, xi[:m * L], sigma[:m * L], dpat[:m * L])
            assert rests == [L, L, L, 0]


def test_every_segment_couples_on_light_traffic(rests):
    xi, sigma, dpat = source_from_config(SOURCES["markov"]).window_arrays(0, 50 * L + 11)
    _same(END, STARTS[1], xi, sigma, dpat)
    assert rests == [L, L, 11 + 1]  # segment 0 twice, then the tail left over


@pytest.mark.parametrize("kind", sorted(SOURCES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_replay_matches_w_path(kind, model):
    src = source_from_config(SOURCES[kind])
    model = MODELS[model]
    for lo, hi in [(-5, 0), (-3 * L, 0), (-fifo._WINDOW - 3 * L - 1, 17)]:
        want = model.w_path(0.0, *src.window_arrays(lo, hi - 1))[-1]
        (w,), counts = fifo._advance(model, src, lo, hi, (0.0,))
        assert (w.hex(), counts) == (want.hex(), ())
    assert fifo._advance(model, src, 4, 4, (0.0,)) == ((0.0,), None)


GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=st.sampled_from(sorted(MODELS)), n=st.integers(0, 12 * L),
       seed=st.integers(0, 2**32 - 1), heavy=st.booleans(),
       start=st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])] * 3))
def test_engine_on_coarse_marks(model, n, seed, heavy, start):
    # marks on a grid of binary fractions: states land exactly on the
    # patience and on d - sigma, and ties decide the thresholds
    rng = np.random.default_rng(seed)
    xi = rng.choice(GRID[:5] if heavy else GRID, n)
    sigma, dpat = rng.choice(GRID, (2, n))
    _same(MODELS[model], start, xi, sigma, dpat)


def test_boundary_thresholds_in_segments():
    # a window of 4L arrivals that all sit on w == d: the begin model serves
    # them, the end model counts them as lost
    n = 4 * L
    xi, sigma, dpat = np.full(n, 1.0), np.full(n, 1.0), np.full(n, 1.0)
    for model in (BEGIN, END):
        _same(model, (0.0, 1.0, 1.0), xi, sigma, dpat)
        _same(model, (0.0, math.nextafter(1.0, math.inf), 1.0), xi, sigma, dpat)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_forward_samples_match_scalar_steps(model):
    # a recording span over several mark windows, with a spacing that does not
    # divide the window size
    model = MODELS[model]
    src = source_from_config(SOURCES["iid"])
    count, warmup, spacing = 6000, 40_001, 7
    xi, sigma, dpat = (v.tolist() for v in src.window_arrays(0, warmup + count * spacing))
    w, want = 0.0, []
    for i, (x, s, d) in enumerate(zip(xi, sigma, dpat)):
        if i >= warmup and (i - warmup) % spacing == 0 and len(want) < count:
            want.append(w)
        w = model_step(model, w, x, s, d)
    got = fifo.forward_samples(model, src, count, warmup, spacing)
    assert [v.hex() for v in want] == [v.hex() for v in got.tolist()]
