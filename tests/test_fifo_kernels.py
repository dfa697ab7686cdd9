"""Each model's window kernels, path kernel and numpy step forms against its
per-arrival step, bit for bit.

The reference advances the model's workload with oracles.model_step, and the
dominated and dominating chains with the generic recursion step, one mark at
a time; an arrival's exceedances are the model's per-row indicators.  Marks
sit on a coarse grid often enough that states land exactly on the patience
and the end-model threshold, and the first state is drawn from the boundary
values w == d, w = nextafter(d, inf), w == d - sigma and w == 0.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from renege import SIGMA_MIN_D, MarkTriple, step
from renege.fifo import BEGIN, END, MODELS
from renege.recursion import clip, step_array

from oracles import coupled, model_step

values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]),
                   st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False))
marks = st.lists(st.tuples(values, values, values), min_size=1, max_size=24)


def _start(kind, x, s, d, free):
    return {"zero": 0.0, "at_d": d, "above_d": math.nextafter(d, math.inf),
            "at_threshold": max(d - s, 0.0), "free": free}[kind]


def _reference(model, state, mark_list):
    ym, w, yp = state
    counts = None
    for x, s, d in mark_list:
        flags = model.exceeds(ym, w, yp, *model.row_marks(s, d))
        counts = [int(f) for f in flags] if counts is None else [
            c + int(f) for c, f in zip(counts, flags)]
        mark = MarkTriple(x, s, d)
        ym = step(ym, mark, SIGMA_MIN_D)
        w = model_step(model, w, x, s, d)
        yp = step(yp, mark, model.dominating)
    return (ym, w, yp), tuple(counts)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(model=st.sampled_from(sorted(MODELS)), mark_list=marks,
       kinds=st.tuples(*[st.sampled_from(["zero", "at_d", "above_d", "at_threshold", "free"])] * 3),
       frees=st.tuples(values, values, values), sigma_above_d=st.booleans())
def test_window_kernel_matches_scalar_steps(model, mark_list, kinds, frees, sigma_above_d):
    model = MODELS[model]
    if sigma_above_d:
        x, s, d = mark_list[0]
        mark_list[0] = (x, d + s + 0.25, d)
    x, s, d = mark_list[0]
    state = tuple(_start(k, x, s, d, f) for k, f in zip(kinds, frees))
    want_state, want_counts = _reference(model, state, mark_list)
    xi, sigma, dpat = (np.array(c) for c in zip(*mark_list))
    got_state, got_counts = coupled(model, state, xi, sigma, dpat)
    assert [v.hex() for v in got_state] == [v.hex() for v in want_state]
    assert got_counts == want_counts


def test_kernel_thresholds_at_the_boundary():
    # w == d is served in the begin model; in the end model it reaches the
    # server but cannot complete a positive service by its deadline
    d = 1.0
    one = np.array([0.0]), np.array([0.5]), np.array([d])
    above = math.nextafter(d, math.inf)
    assert coupled(BEGIN, (0.0, d, 0.0), *one)[1] == (0, 0, 0)
    assert coupled(BEGIN, (0.0, above, 0.0), *one)[1] == (1, 0, 0)
    assert coupled(END, (0.0, d, 0.0), *one)[1] == (1, 0, 0, 0)
    assert coupled(END, (0.0, 0.5, 0.0), *one)[1] == (0, 0, 0, 0)  # w == d - sigma completes
    assert coupled(END, (0.0, above, 0.0), *one)[1] == (1, 0, 0, 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=st.sampled_from(sorted(MODELS)), mark_list=marks,
       kind=st.sampled_from(["zero", "at_d", "above_d", "at_threshold", "free"]), free=values)
def test_w_path_and_numpy_steps_match_scalar_steps(model, mark_list, kind, free):
    # the numpy forms step every (state, mark) pair of the scalar walk at once
    model = MODELS[model]
    x, s, d = mark_list[0]
    w = _start(kind, x, s, d, free)
    states, ys = [], []
    for x, s, d in mark_list:
        states.append(w)
        ys.append(step(w, MarkTriple(x, s, d), SIGMA_MIN_D))
        w = model_step(model, w, x, s, d)
    xi, sigma, dpat = (np.array(c) for c in zip(*mark_list))
    after = [v.hex() for v in states[1:] + [w]]
    assert [v.hex() for v in model.w_path(states[0], xi, sigma, dpat)] == after
    assert [v.hex() for v in model.step_array(np.array(states), xi, sigma, dpat).tolist()] == after
    assert [model.mark_step(v, MarkTriple(*m)).hex() for v, m in zip(states, mark_list)] == after
    got = step_array(np.array(states), np.minimum(sigma, dpat), xi).tolist()
    assert [v.hex() for v in got] == [v.hex() for v in ys]


def test_clip_writes_positive_zero():
    assert [v.hex() for v in clip(np.array([-0.0, 0.0, -1.5, 2.0])).tolist()] == \
        [(0.0).hex(), (0.0).hex(), (0.0).hex(), (2.0).hex()]
    assert step_array(np.array([0.0]), np.array([-0.0]), np.array([0.0]))[0].hex() == (0.0).hex()
