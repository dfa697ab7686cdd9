"""The in-place step kernel fifo._step, and the numpy step forms built on the
same operations, bit for bit against the scalar steps and the np.where forms
they replaced.

np.maximum and np.minimum may keep either sign of a tied zero where the
scalar steps' comparisons pick one; the kernel's clip must turn every such
zero into +0.0.  So marks and states here are often +0.0 or -0.0, and the
ties s == d, w == d and w + s == d are forced.  Every value is compared by
float.hex, which tells +0.0 from -0.0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renege import SIGMA_MIN_D, MarkTriple, step
from renege import fifo
from renege.cli import source_from_config
from renege.fifo import MODELS
from renege.marks import _CHUNK
from renege.recursion import clip, step_array

from oracles import coupled, model_step

L = fifo._SEGMENT
W = fifo._WINDOW


def _e(rate):
    return {"dist": "exponential", "rate": rate}


def _u(low, high):
    return {"dist": "uniform", "low": low, "high": high}


SOURCES = {
    # the forward workload's M/M/1+M source: every segment couples
    "forward": {"kind": "iid", "seed": 20083, "xi": _e(0.9), "sigma": _e(1.0), "dpat": _e(0.5)},
    # delta 0.2: the chain state at a chunk's first index is mostly carried over
    "markov": {"kind": "markov", "seed": 31, "transition": [[0.1, 0.9], [0.9, 0.1]],
               "states": [{"xi": _u(0.5, 1.5), "sigma": _u(0.0, 0.8), "dpat": _u(0.0, 1.0)},
                          {"xi": _u(0.1, 0.7), "sigma": _u(0.0, 3.0), "dpat": _u(0.5, 3.0)}]},
    # tests/test_golden.py's near-critical HEAVY source
    "heavy": {"kind": "iid", "seed": 4406, "xi": _e(1.0), "sigma": _e(1.0), "dpat": _e(0.2)},
}


# The np.where forms the kernel replaced, kept as oracles.
def _where_clip(v):
    return np.where(v > 0.0, v, 0.0)


def _where_step_array(y, alpha, xi):
    return _where_clip(np.where(y > alpha, y, alpha) - xi)


def _where_inner(model, w, s, d):
    if model.name == "begin":
        return np.where(w <= d, w + s, w)
    t = w + s
    return np.where(w > d, w, np.where(t < d, t, d))


def _where_replay_rows(model, marks, alpha_up, k):
    xi, sigma, dpat = marks
    ym, w, yp = np.zeros((3, k.size))
    width = xi.shape[1]
    for lag in range(int(k.max(initial=0)), 0, -1):
        c = width - 1 - lag
        x, s, d = xi[:, c], sigma[:, c], dpat[:, c]
        on = k >= lag
        ym = np.where(on, _where_step_array(ym, np.where(s < d, s, d), x), ym)
        w = np.where(on, _where_clip(_where_inner(model, w, s, d) - x), w)
        yp = np.where(on, _where_step_array(yp, alpha_up[:, c], x), yp)
    return np.stack((ym, w, yp))


def _hex(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


values = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 2.0]),
                   st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False))
tie = st.sampled_from(["none", "s == d", "w == d", "w + s == d"])
cells = st.lists(st.tuples(values, values, values, values, values, values, tie),
                 min_size=1, max_size=20)


def _columns(cell_list):
    """(x, s, d) and the states (ym, w, yp) as arrays, with each cell's tie
    forced."""
    rows = []
    for x, s, d, ym, w, yp, kind in cell_list:
        if kind == "s == d":
            d = s
        elif kind == "w == d":
            d = w
        elif kind == "w + s == d":
            d = w + s
        rows.append((x, s, d, ym, w, yp))
    return (np.array(c) for c in zip(*rows))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(model=st.sampled_from(sorted(MODELS)), cell_list=cells)
def test_kernel_matches_scalar_steps_and_where_forms(model, cell_list):
    model = MODELS[model]
    x, s, d, ym, w, yp = _columns(cell_list)
    alpha_up = model.dominating.alpha_array(s, d)
    y, out = np.stack((ym, w, yp)), np.empty((3, x.size))
    fifo._step(model, y, np.stack((SIGMA_MIN_D.alpha_array(s, d), alpha_up)), x, s, d,
               out, np.empty(x.size, dtype=bool))
    marks = [MarkTriple(*m) for m in zip(x.tolist(), s.tolist(), d.tolist())]
    want = [[step(v, m, SIGMA_MIN_D) for v, m in zip(ym.tolist(), marks)],
            [model_step(model, v, *m) for v, m in zip(w.tolist(), zip(x.tolist(), s.tolist(),
                                                                      d.tolist()))],
            [step(v, m, model.dominating) for v, m in zip(yp.tolist(), marks)]]
    assert _hex(out) == _hex(want)
    assert _hex(out) == _hex([_where_step_array(ym, np.where(s < d, s, d), x),
                              _where_clip(_where_inner(model, w, s, d) - x),
                              _where_step_array(yp, alpha_up, x)])
    # W alone, and the wrappers that keep one definition of the step
    one = np.empty((1, x.size))
    fifo._step(model, w[None], None, x, s, d, one, np.empty(x.size, dtype=bool))
    assert _hex(one) == _hex(want[1])
    assert _hex(model.step_array(w, x, s, d)) == _hex(want[1])
    assert _hex(model.inner(w, s, d)) == _hex(_where_inner(model, w, s, d))
    assert _hex(step_array(yp, alpha_up, x)) == _hex(want[2])
    assert _hex(step_array(ym, np.minimum(s, d), x)) == _hex(want[0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(v=st.lists(st.one_of(values, st.floats(-3.0, 0.0)), min_size=1, max_size=20))
def test_clip_in_place_matches_where_form(v):
    v = np.array(v)
    want = _hex(_where_clip(v))
    assert _hex(clip(v)) == want
    assert clip(v, v) is v and _hex(v) == want


GRID = np.array([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("n", [2 * L + 1, 3 * L - 1, 7 * L + 33])
@pytest.mark.parametrize("state", [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.5, 1.0, 2.0),
                                   (0.0, 6.0, 40.0)])
def test_segments_with_signed_zeros_and_ties(model, n, state):
    # grid marks that tie often (s == d, w == d, w + s == d) and signed zeros
    # among the marks, over windows that _SEGMENT does not divide
    model = MODELS[model]
    rng = np.random.default_rng(n)
    xi, sigma, dpat = rng.choice(GRID, (3, n))
    dpat[::5] = sigma[::5]
    got, got_counts = coupled(model, state, xi, sigma, dpat)
    *want, want_counts = model.scalar_window(*state, xi, sigma, dpat)
    assert _hex(got) == _hex(want)
    assert got_counts == want_counts
    (w,), _ = coupled(model, (state[1],), xi, sigma, dpat)
    assert w.hex() == model.w_path(state[1], xi, sigma, dpat)[-1].hex()


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_rows_with_masked_rows(model, seed):
    # rows with k = -1 (undecided) and k = 0 (renovation at the epoch itself)
    # take no step and stay at +0.0; the others replay k steps from 0
    model = MODELS[model]
    rng = np.random.default_rng(seed)
    rows, width = 40, 24
    marks = rng.choice(GRID, (3, rows, width))
    marks[2, ::3] = marks[1, ::3]
    k = rng.integers(-1, width, rows)
    k[:4] = -1, 0, width - 1, 1
    alpha_up = model.dominating.alpha_array(*marks[1:])
    got = fifo._replay_rows(model, marks, alpha_up, k)
    assert _hex(got) == _hex(_where_replay_rows(model, marks, alpha_up, k))
    for r in range(rows):
        start = width - 1 - max(int(k[r]), 0)
        *want, _ = model.scalar_window(0.0, 0.0, 0.0, *marks[:, r, start:width - 1])
        assert _hex(got[:, r]) == _hex(want)


@pytest.mark.parametrize("kind", sorted(SOURCES))
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("n", [1, L - 1, L, 2 * L - 1, 2 * L, 2 * L + 1, _CHUNK - 1, _CHUNK + 1,
                               W - 1, W + 1])
def test_advance_at_segment_chunk_and_window_boundaries(kind, model, n, monkeypatch):
    # fifo._advance, over its segment-major block, against the scalar kernels
    # on window_arrays' marks: the three chains from 0, whose segment 0
    # couples, and from a backlog it does not drain, and W alone
    model, src = MODELS[model], source_from_config(SOURCES[kind])
    lo = -n // 3
    xi, sigma, dpat = src.window_arrays(lo, lo + n - 1)
    locksteps = []
    lockstep = fifo._lockstep

    def spy(model, state, marks, work=()):
        locksteps.append(marks.shape[2])
        return lockstep(model, state, marks, work)

    monkeypatch.setattr(fifo, "_lockstep", spy)
    for state, segments in (((0.0, 0.0, 0.0), [min(n, W) // L - 1]), ((0.0, 500.0, 900.0), [])):
        locksteps.clear()
        got, got_counts = fifo._advance(model, src, lo, lo + n, state)
        *want, want_counts = model.scalar_window(*state, xi, sigma, dpat)
        assert _hex(got) == _hex(want)
        assert got_counts == want_counts
        assert locksteps == [k for k in segments if k > 0]
        (w,), counts = fifo._advance(model, src, lo, lo + n, state[1:2])
        assert (w.hex(), counts) == (model.w_path(state[1], xi, sigma, dpat)[-1].hex(), ())
