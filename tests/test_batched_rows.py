"""Exact rows and exact zero-probability estimates in lockstep batches
against the scalar oracles (tests/oracles.py), bit for bit.

The oracles compute each replica on its own, as the rows were computed
before batching.  A loss row takes the replica's source and epoch, the
scalar renovation search and three-chain replay of exact_triple, and the
observer's marks by mark_at.  A sample row takes the exact sample_stationary
oracle on the replica's source shifted to its epoch.  A zero of
prob_zero_estimate takes backward_supremum at the replica's epoch.  Rows are
compared through float.hex, so a signed zero or a last-ulp change fails.
Small batch sizes put batch boundaries inside the ranges tested.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renege import (
    D_ONLY,
    SIGMA_MIN_D,
    SIGMA_PLUS_D,
    CapabilityError,
    DepthExhaustedError,
    Exponential,
    RenovationNotFoundError,
    StateMarginals,
    TruncatedExponential,
    Uniform,
    deterministic_source,
    iid_source,
    markov_source,
    mc_aggregate,
    prob_zero_estimate,
    source_from_config,
)
from renege import fifo, marks, recursion
from renege.cli import main
from renege.fifo import (
    BEGIN,
    END,
    MODELS,
    loss_counts,
    loss_probability,
)
from renege.recursion import renovation_offsets, screen_replicas

from oracles import (
    backward_supremum,
    certified_zero,
    declared_states,
    exact_loss_rows,
    exact_sample_rows,
    exact_triple,
    loynes_backward,
    sample_stationary,
)
from test_golden import BOUNDED, MARKOV, MARKOV3

# heavy end-model dominating recursion (alpha = dpat up to 6): about one
# replica in six is not decided within 128 marks, so rows widen several times
DEEP = iid_source(Uniform(0.1, 0.9), Uniform(0.0, 1.0), TruncatedExponential(0.5, 6.0),
                  seed=4405)
DEEP_MARKOV = markov_source(
    [[0.8, 0.2], [0.3, 0.7]],
    (StateMarginals(Uniform(0.1, 0.9), Uniform(0.0, 1.0), TruncatedExponential(0.5, 6.0)),
     StateMarginals(Uniform(0.3, 1.2), Uniform(0.0, 0.5), Uniform(0.0, 2.0))),
    seed=4406)
# three states, delta = 0.03: about one replica window in eight has no chain
# regeneration in its lookback and is resolved by window_arrays
SLOW_MARKOV = markov_source(
    [[0.97, 0.02, 0.01], [0.01, 0.97, 0.02], [0.02, 0.01, 0.97]],
    (StateMarginals(Uniform(0.3, 1.1), Uniform(0.0, 0.6), Uniform(0.0, 0.4)),
     StateMarginals(Uniform(0.6, 1.4), TruncatedExponential(1.5, 2.0), Uniform(0.0, 1.2)),
     StateMarginals(Uniform(0.9, 1.9), Uniform(0.2, 1.0), Uniform(0.0, 1.6))),
    seed=4407)
SOURCES = {
    "iid": iid_source(Uniform(0.2, 1.0), TruncatedExponential(1.5, 2.0), Uniform(0.0, 1.5),
                      seed=20081),
    "markov": markov_source(
        [[0.9, 0.1], [0.3, 0.7]],
        (StateMarginals(Uniform(0.5, 1.5), Uniform(0.0, 0.8), Uniform(0.0, 1.0)),
         StateMarginals(Uniform(0.1, 0.7), TruncatedExponential(1.0, 3.0), Uniform(0.5, 3.0))),
        seed=20082),
    "deterministic": deterministic_source(1.5, 0.5, 0.7, seed=3),
    "deep": DEEP,
    "deep-markov": DEEP_MARKOV,
    "slow-markov": SLOW_MARKOV,
}


def oracle_rows(model, src, lo, hi, max_epochs, max_depth):
    """Loss rows one replica at a time; an error names the replica and its
    epoch e, as the batch engine's do."""
    rows = []
    for r in range(lo, hi):
        rep, e = src.replica(r, 2 * max_depth)
        try:
            ym, w, yp = exact_triple(model, rep, e, max_epochs, max_depth)
        except (DepthExhaustedError, RenovationNotFoundError) as exc:
            raise type(exc)(f"replica {r} at epoch {e}: {exc}") from exc
        mark = rep.mark_at(e)
        rows.append((r, ym, w, yp, *model.row_marks(mark.sigma, mark.dpat)))
    return rows


def sample_oracle(model, src, lo, hi, max_epochs, max_depth):
    """Sample rows one replica at a time, at the loss rows' epochs."""
    rows = []
    for r in range(lo, hi):
        rep, e = src.replica(r, 2 * max_depth)
        smp = sample_stationary(model, rep.shift(e), max_epochs, max_depth)
        rows.append((r, smp.value, smp.method, smp.renovation_epoch, smp.certificate.depth))
    return rows


def hexed(rows):
    return [tuple(c.hex() if isinstance(c, float) else c for c in row) for row in rows]


def outcome(fn):
    try:
        return hexed(fn())
    except (CapabilityError, DepthExhaustedError, RenovationNotFoundError) as exc:
        return type(exc), str(exc)


# max_epochs, max_depth pairs that stop some replica of DEEP and DEEP_MARKOV
LIMITS = [(1, 10_000), (0, 10_000), (10_000, 2), (3, 5), (10_000, 0), (60, 10_000)]


@pytest.mark.parametrize("kind", sorted(SOURCES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_rows_match_the_scalar_path(model, kind, monkeypatch):
    model, src = MODELS[model], SOURCES[kind]
    monkeypatch.setattr(recursion, "_BATCH", 7)
    lo, hi = 5, 45  # starts and ends inside a batch
    assert hexed(exact_loss_rows(model, src, lo, hi, 10_000, 400)) == \
        hexed(oracle_rows(model, src, lo, hi, 10_000, 400))


def test_default_batches_match_the_scalar_path():
    src = SOURCES["iid"]
    assert hexed(exact_loss_rows(BEGIN, src, 250, 600, 10_000, 10_000)) == \
        hexed(oracle_rows(BEGIN, src, 250, 600, 10_000, 10_000))


def test_deep_replicas_match_the_scalar_path():
    # undecided replicas are re-screened as a batch, several times over
    rows = exact_loss_rows(END, DEEP, 0, 120, 10_000, 10_000)
    assert hexed(rows) == hexed(oracle_rows(END, DEEP, 0, 120, 10_000, 10_000))


def test_one_rescreen_cascade_per_range():
    # the first pass takes _BATCH replicas a window; then the undecided rows of
    # every batch of the range are re-screened together, so each wider width
    # takes only as many windows as those rows fill
    n = 4 * recursion._BATCH + 37
    windows, undecided = {}, {}
    for rows, marks, _, k, _ in screen_replicas(END.dominating, DEEP, 0, n, 10_000, 10_000):
        width = marks.shape[2]
        windows[width] = windows.get(width, 0) + 1
        undecided[width] = undecided.get(width, 0) + int(np.count_nonzero(k < 0))
    widths = sorted(windows)
    assert widths[0] == recursion._FIRST_WIDTH and len(widths) >= 4
    assert windows[widths[0]] == -(-n // recursion._BATCH)
    for narrow, wide in zip(widths, widths[1:]):
        part = recursion._BATCH * recursion._FIRST_WIDTH // wide
        assert wide == 2 * narrow and windows[wide] == -(-undecided[narrow] // part)
    assert undecided[widths[-1]] == 0
    rows = exact_loss_rows(END, DEEP, 0, n, 10_000, 10_000)
    assert hexed(rows) == hexed(oracle_rows(END, DEEP, 0, n, 10_000, 10_000))
    batches = [row for a in range(0, n, recursion._BATCH)
               for row in exact_loss_rows(END, DEEP, a, min(a + recursion._BATCH, n),
                                          10_000, 10_000)]
    assert hexed(batches) == hexed(rows)


@pytest.mark.parametrize("kind", ["deep-markov", "slow-markov"])
def test_markov_replicas_take_no_scalar_path(kind):
    # the default limits stop no row: every row is certified in the batch
    src = SOURCES[kind]
    rows = exact_loss_rows(END, src, 0, 120, 10_000, 10_000)
    samples = exact_sample_rows(BEGIN, src, 0, 120, 10_000, 10_000)
    assert hexed(rows) == hexed(oracle_rows(END, src, 0, 120, 10_000, 10_000))
    assert hexed(samples) == hexed(sample_oracle(BEGIN, src, 0, 120, 10_000, 10_000))


def test_shallow_replicas_stay_in_the_batch():
    rows = exact_loss_rows(BEGIN, SOURCES["iid"], 0, 300, 10_000, 10_000)
    assert hexed(rows) == hexed(oracle_rows(BEGIN, SOURCES["iid"], 0, 300, 10_000, 10_000))


@pytest.mark.parametrize("kind", ["deep", "deep-markov"])
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("max_epochs, max_depth", LIMITS)
def test_errors_match_the_scalar_path(model, kind, max_epochs, max_depth, monkeypatch):
    # the error names the first stopped replica and its epoch
    model, src = MODELS[model], SOURCES[kind]
    monkeypatch.setattr(recursion, "_BATCH", 16)
    want = outcome(lambda: oracle_rows(model, src, 3, 60, max_epochs, max_depth))
    assert isinstance(want, tuple)
    assert outcome(lambda: exact_loss_rows(model, src, 3, 60, max_epochs, max_depth)) == want


@pytest.mark.parametrize("first_width", [1, 2, 8])
@pytest.mark.parametrize("kind", ["deep", "deep-markov", "slow-markov"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_narrow_first_windows_widen_to_the_scalar_rows(model, kind, first_width, monkeypatch):
    # every row is re-screened several times, at widths first_width * 2^i; the
    # rows that max_epochs or max_depth stop raise the oracle's error
    model, src = MODELS[model], SOURCES[kind]
    monkeypatch.setattr(recursion, "_FIRST_WIDTH", first_width)
    monkeypatch.setattr(recursion, "_BATCH", 16)
    assert hexed(exact_loss_rows(model, src, 3, 40, 10_000, 400)) == \
        hexed(oracle_rows(model, src, 3, 40, 10_000, 400))
    assert hexed(exact_sample_rows(model, src, 3, 40, 10_000, 400)) == \
        hexed(sample_oracle(model, src, 3, 40, 10_000, 400))
    want = [outcome(lambda: oracle_rows(model, src, 3, 40, *limits)) for limits in LIMITS]
    assert any(isinstance(w, tuple) for w in want)
    got = [outcome(lambda: exact_loss_rows(model, src, 3, 40, *limits)) for limits in LIMITS]
    assert got == want


@pytest.mark.parametrize("kind", sorted(SOURCES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_sample_rows_match_the_sampler(model, kind, monkeypatch):
    model, src = MODELS[model], SOURCES[kind]
    monkeypatch.setattr(recursion, "_BATCH", 7)
    assert hexed(exact_sample_rows(model, src, 5, 45, 10_000, 400)) == \
        hexed(sample_oracle(model, src, 5, 45, 10_000, 400))


def test_deep_sample_replicas_match_the_sampler():
    rows = exact_sample_rows(END, DEEP, 0, 120, 10_000, 10_000)
    assert hexed(rows) == hexed(sample_oracle(END, DEEP, 0, 120, 10_000, 10_000))


def test_shallow_sample_replicas_stay_in_the_batch():
    rows = exact_sample_rows(BEGIN, SOURCES["iid"], 0, 300, 10_000, 10_000)
    assert hexed(rows) == hexed(sample_oracle(BEGIN, SOURCES["iid"], 0, 300, 10_000, 10_000))
    assert max(-row[3] for row in rows) > 16  # searches past the first block of candidates


@pytest.mark.parametrize("kind", [k for k in sorted(SOURCES) if not SOURCES[k].is_iid])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_sample_rows_sit_at_the_loss_rows_epochs(model, kind):
    # one placement of the replicas of a non-iid source: replica r's exact
    # draw is the W of its loss row, bit for bit
    model, src = MODELS[model], SOURCES[kind]
    loss = exact_loss_rows(model, src, 0, 80, 10_000, 400)
    samples = exact_sample_rows(model, src, 0, 80, 10_000, 400)
    assert [row[2].hex() for row in loss] == [row[1].hex() for row in samples]


def named(src, r, max_depth, want):
    """The sampler's outcome for replica r alone, an error naming the replica
    and its epoch e, which the sampler's search from epoch 0 of the shifted
    source reads as 0."""
    if not isinstance(want, tuple):
        return want
    _, e = src.replica(r, 2 * max_depth)
    cls, message = want
    return cls, f"replica {r} at epoch {e}: " + message.replace(" of 0;", f" of {e};")


@pytest.mark.parametrize("kind", ["deep", "deep-markov", "markov"])
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("max_epochs, max_depth", [(1, 10_000), (3, 10_000), (10_000, 2),
                                                   (10_000, 5), (3, 5)])
def test_sample_errors_match_the_sampler(model, kind, max_epochs, max_depth, monkeypatch):
    # each replica alone gives the sampler's row or error, the error naming
    # the replica and its epoch, and a range raises the message of its first
    # failing replica.  At max_epochs 1 only epoch -1 may renovate: a screen
    # that took the limit unchanged would accept epoch -2 where the sampler raises.
    model, src = MODELS[model], SOURCES[kind]
    monkeypatch.setattr(recursion, "_BATCH", 16)
    limits = max_epochs, max_depth
    each = [outcome(lambda: exact_sample_rows(model, src, r, r + 1, *limits))
            for r in range(3, 60)]
    assert each == [named(src, r, max_depth, outcome(lambda: sample_oracle(model, src, r, r + 1,
                                                                           *limits)))
                    for r in range(3, 60)]
    failing = [got for got in each if isinstance(got, tuple)]
    assert failing
    assert outcome(lambda: exact_sample_rows(model, src, 3, 60, *limits)) == failing[0]


@pytest.mark.parametrize("kind", ["iid", "markov", "deep"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_loss_counts_match_the_per_row_sums(model, kind, monkeypatch):
    # loss_counts counts each indicator over the rows' columns at once; the
    # per-row sums give the same integers, the end model's never-reach count
    # included, and the exact loss report is made of them
    model, src = MODELS[model], SOURCES[kind]
    rows = exact_loss_rows(model, src, 0, 300, 10_000, 400)
    sums = [sum(col) for col in zip(*(model.exceeds(*row[1:]) for row in rows))]
    assert len(sums) == len(model.columns) - 2 and 0 < min(sums) and max(sums) < len(rows)
    counts = loss_counts(model, map(np.array, list(zip(*rows))[1:]))
    assert counts == sums and {type(c) for c in counts} == {int}
    seen, report = [], fifo.loss_report
    monkeypatch.setattr(fifo, "loss_report", lambda *args: seen.append(args[2]) or report(*args))
    assert loss_probability(model, src, 300, max_depth=400) == report(model, src, sums, 300,
                                                                      "renovation-exact")
    assert seen == [sums]


def test_unbounded_marginals_raise_capability_error():
    src = iid_source(Exponential(1.0), Uniform(0.0, 0.5), Exponential(2.0), seed=9)
    with pytest.raises(CapabilityError):
        exact_loss_rows(BEGIN, src, 0, 3, 100, 100)
    assert exact_loss_rows(BEGIN, src, 4, 4, 100, 100) == []


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("kind", ["iid", "markov", "deterministic"])
@pytest.mark.parametrize("origin", [0, -5, 3, 2 ** 256 - 40, -(2 ** 256) + 60])
def test_batch_marks_match_window_arrays(kind, origin):
    src = SOURCES[kind].shift(origin)
    for lo, hi in ((0, 9), (37, 41)):
        batch = src.replica_windows(range(lo, hi), 300, 128)
        assert batch.shape == (3, hi - lo, 128)
        for i, r in enumerate(range(lo, hi)):
            rep, e = src.replica(r, 300)
            np.testing.assert_array_equal(_bits(batch[:, i]),
                                          _bits(np.stack(rep.window_arrays(e - 127, e))))


def test_batch_marks_wrap_the_stream():
    src = iid_source(Exponential(1.0), TruncatedExponential(2.0, 1.0), Uniform(0.0, 2.0),
                     seed=2 ** 64 - 1, stream=2 ** 64 - 3)
    batch = src.replica_windows(range(6), 1, 16)
    for r in range(6):
        assert src.substream(r).stream == (2 ** 64 - 3 + r) % 2 ** 64
        np.testing.assert_array_equal(_bits(batch[:, r]),
                                      _bits(np.stack(src.substream(r).window_arrays(-15, 0))))


def test_markov_batch_marks_peak_under_2_5_mb():
    # a whole batch at its first width, with the chain lookback and composition
    src, n = SOURCES["markov"], recursion._BATCH
    src.replica_windows(range(n), 20_000, recursion._FIRST_WIDTH)  # lazy set-up: the Doeblin split
    tracemalloc.start()
    try:
        src.replica_windows(range(n, 2 * n), 20_000, recursion._FIRST_WIDTH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


@pytest.mark.parametrize("kind", ["iid", "markov"])
def test_a_whole_batch_of_rows_peaks_under_2_5_mb(kind):
    # the marks, the screen, the replay and any re-screens of one batch
    src, n = SOURCES[kind], recursion._BATCH
    exact_loss_rows(END, src, 0, n, 10_000, 10_000)
    tracemalloc.start()
    try:
        exact_loss_rows(END, src, n, 2 * n, 10_000, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


@pytest.mark.parametrize("kind", ["iid", "markov", "slow-markov"])
def test_batch_marks_across_fetch_blocks(kind, monkeypatch):
    # replicas in any order, over several blocks of Philox reads
    monkeypatch.setattr(marks, "_REPLICA_BLOCK", 3)
    src, rows = SOURCES[kind], [7, 2, 11, 3, 40, 41, 0, 5]
    batch = src.replica_windows(rows, 300, 20)
    assert batch.shape == (3, len(rows), 20)
    for i, r in enumerate(rows):
        rep, e = src.replica(r, 300)
        np.testing.assert_array_equal(_bits(batch[:, i]),
                                      _bits(np.stack(rep.window_arrays(e - 19, e))))


def window_oracle(xi, alpha, bound, max_epochs, max_depth, start=0):
    """(k, depth) where renovation_search's candidate walk over the window's
    last index, from candidate `start` on, ends: the certified candidate and
    its depth, the candidate that max_depth stops with depth 0, max_epochs + 1
    with depth 0 when every candidate is positive, or -1 - k with depth 0
    where candidate k's walk needs marks before the window."""
    width = len(xi)
    for k in range(start, max_epochs + 1):
        s = 0.0
        for j in range(1, max_depth + 1):
            col = width - 1 - k - j
            if col < 0:
                return -1 - k, 0
            s = s + xi[col]
            if alpha[col] - s > 0.0:
                break
            if s >= bound:
                return k, j
        else:
            return k, 0
    return max_epochs + 1, 0


class WindowSource:
    """One row of a screen's window as a source for certified_zero: index c
    is column c, dpat (D_ONLY's alpha) is the row's alpha, and indices
    before the window, which a certificate never reaches, hold NaN."""

    def __init__(self, xi, alpha, bound):
        self.marks = np.stack([xi, np.zeros_like(xi), alpha])
        self.states = declared_states(D_ONLY, bound)

    def window_arrays(self, lo, hi):
        out = np.full((3, hi - lo + 1), np.nan)
        out[:, max(-lo, 0):] = self.marks[:, max(lo, 0):hi + 1]
        return out


# coarse values make positive terms and reached bounds tie at one lag
grid = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(st.tuples(grid, grid), min_size=2, max_size=100),
                     min_size=1, max_size=5),
       bound=st.sampled_from([0.5, 1.0, 2.0, 3.0]), max_epochs=st.integers(0, 120),
       max_depth=st.integers(1, 120), start=st.integers(0, 40))
# the screen walks only the candidates whose lag-1 term alpha - xi (one column
# before the candidate) is not > 0.0: a lag-1 term of exactly 0.0 goes on to lag 2
@example(rows=[[(1.0, 0.0), (0.5, 0.5), (0.0, 0.0)]], bound=1.0, max_epochs=10, max_depth=10,
         start=0)
# candidate 0 positive at lag 1, candidate 1 certified there by xi >= bound
@example(rows=[[(0.0, 0.0), (1.0, 0.0), (0.25, 1.0), (0.0, 0.0)]], bound=1.0, max_epochs=10,
         max_depth=10, start=0)
# +-0.0 marks at lag 1 and 2: neither term is positive, and the sums stay at zero
@example(rows=[[(1.5, 0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)]], bound=1.0, max_epochs=10,
         max_depth=10, start=0)
# candidates 0 and 2 positive at lag 1, 1 at lag 2, 3 certified at lag 2
@example(rows=[[(0.5, 0.0), (1.5, 0.0), (0.25, 0.0), (0.25, 1.5), (0.25, 0.0), (0.25, 1.0),
                (0.0, 0.0)]], bound=1.0, max_epochs=10, max_depth=10, start=0)
# a re-screen start on a candidate positive at lag 1
@example(rows=[[(1.5, 0.0), (0.25, 1.0), (0.25, 1.0), (0.0, 0.0)]], bound=1.0, max_epochs=10,
         max_depth=10, start=1)
# max_epochs 1 between the open candidates 0 and 3: max_epochs + 1, not 3
@example(rows=[[(0.0, 0.0), (1.5, 0.0), (0.25, 1.0), (0.25, 1.0), (0.25, 0.0), (0.0, 0.0)]],
         bound=1.0, max_epochs=1, max_depth=10, start=0)
# windows of one and two marks
@example(rows=[[(1.0, 0.0)]], bound=1.0, max_epochs=10, max_depth=10, start=0)
@example(rows=[[(1.0, 0.0), (0.0, 0.0)], [(0.25, 1.0), (0.0, 0.0)]], bound=1.0, max_epochs=10,
         max_depth=10, start=0)
# max_epochs at the largest int64: a window's edge or a certificate ends every walk
@example(rows=[[(0.5, 0.0), (0.25, 1.0), (0.0, 0.0)], [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0)],
               [(0.25, 1.0), (0.25, 1.0), (0.0, 0.0)]], bound=1.0, max_epochs=2**63 - 1,
         max_depth=10, start=0)
def test_screen_matches_the_per_candidate_walk(rows, bound, max_epochs, max_depth, start):
    # a re-screen starts where a narrower window's walk needed more marks; a
    # start past max_epochs leaves no candidate
    width = min(len(r) for r in rows)
    xi = np.array([[x for x, _ in r[:width]] for r in rows])
    alpha = np.array([[a for _, a in r[:width]] for r in rows])
    k, depth = renovation_offsets(xi, alpha, bound, max_epochs, max_depth, start)
    want = [window_oracle(x.tolist(), a.tolist(), bound, max_epochs, max_depth, start)
            for x, a in zip(xi, alpha)]
    assert list(zip(k.tolist(), depth.tolist())) == want
    for x, a, kr, d in zip(xi, alpha, k.tolist(), depth.tolist()):
        if d:
            cert = certified_zero(D_ONLY, WindowSource(x, a, bound), width - 1 - kr, max_depth)
            assert cert.depth == d


def test_screen_reaches_past_the_first_blocks():
    # row i: candidates 0..k_i - 1 are positive at lag 1 and candidate k_i
    # needs 40 lags; 16 and 48 open the second and third blocks
    width = 128
    want = [1, 15, 16, 17, 47, 48, 70]
    xi = np.full((len(want), width), 0.1)
    alpha = np.zeros((len(want), width))
    for row, k in zip(alpha, want):
        row[width - 1 - k:] = 1.0
    k, depth = renovation_offsets(xi, alpha, 3.95, 10_000, 10_000)
    assert [window_oracle(x.tolist(), a.tolist(), 3.95, 10_000, 10_000)
            for x, a in zip(xi, alpha)] == [(k, 40) for k in want]
    assert k.tolist() == want and depth.tolist() == [40] * len(want)


@pytest.mark.parametrize("max_epochs, start", [(-1, 0), (2, 5)])
def test_screen_without_candidates_reports_none_found(max_epochs, start):
    # max_epochs + 1 with depth 0 (every candidate positive), not (start, 0),
    # which would read as max_depth stopping candidate start
    k, depth = renovation_offsets(np.full((1, 40), 0.5), np.zeros((1, 40)), 1.0, max_epochs, 10,
                                  start)
    assert (k.tolist(), depth.tolist()) == ([max_epochs + 1], [0])


# (_SEARCH_EPOCHS, _SEARCH_LAGS, _SEARCH_CELLS) of the screen's passes
PASS_SHAPES = [(1, 1, 1 << 15), (3, 7, 1 << 15), (4, 4, 1 << 15), (16, 16, 1 << 15), (4, 4, 40)]


@pytest.mark.parametrize("limits", [(10_000, 10_000), (3, 10_000), (10_000, 5)],
                         ids=["open", "max_epochs-3", "max_depth-5"])
@pytest.mark.parametrize("kind, spec", [("iid", SIGMA_PLUS_D), ("markov", D_ONLY),
                                        ("deep", D_ONLY)], ids=["iid", "markov", "deep"])
def test_screen_answers_do_not_depend_on_the_pass_shape(kind, spec, limits, monkeypatch):
    # each candidate's lag sums are one sequential np.add.accumulate whatever
    # the first pass, its doublings or the slices of replicas
    src, (max_epochs, max_depth) = SOURCES[kind], limits
    marks = src.replica_windows(range(40), 300, 96)
    alpha, bound = spec.alpha_array(*marks[1:]), spec.bound(src)
    start = np.arange(40) % 6
    want = [window_oracle(x.tolist(), a.tolist(), bound, max_epochs, max_depth, s)
            for x, a, s in zip(marks[0], alpha, start.tolist())]
    for epochs, lags, cells in PASS_SHAPES:
        monkeypatch.setattr(recursion, "_SEARCH_EPOCHS", epochs)
        monkeypatch.setattr(recursion, "_SEARCH_LAGS", lags)
        monkeypatch.setattr(recursion, "_SEARCH_CELLS", cells)
        k, depth = renovation_offsets(marks[0], alpha, bound, max_epochs, max_depth, start)
        assert list(zip(k.tolist(), depth.tolist())) == want


def _u(low, high):
    return {"dist": "uniform", "low": low, "high": high}


def test_worker_counts_write_identical_markov_files(tmp_path):
    # SLOW_MARKOV's chain, in one part batch at any worker count, in process or
    # in a pool worker; some windows are resolved in the batch, some by window_arrays
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps({"source": {
        "kind": "markov", "seed": 4407,
        "transition": [[0.97, 0.02, 0.01], [0.01, 0.97, 0.02], [0.02, 0.01, 0.97]],
        "states": [{"xi": _u(0.3, 1.1), "sigma": _u(0.0, 0.6), "dpat": _u(0.0, 0.4)},
                   {"xi": _u(0.6, 1.4), "sigma": _u(0.0, 1.5), "dpat": _u(0.0, 1.2)},
                   {"xi": _u(0.9, 1.9), "sigma": _u(0.2, 1.0), "dpat": _u(0.0, 1.6)}]},
        "run": {"mode": "exact", "samples": 90, "max_depth": 400}}))
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert main(["loss-end", "--config", str(cfg), "--workers", str(workers),
                     "--out-dir", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]


def test_worker_counts_write_identical_files(tmp_path):
    # 60 rows: one part batch at any worker count, in process or in a pool worker
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"source": {
        "kind": "iid", "seed": 4405, "xi": {"dist": "uniform", "low": 0.1, "high": 0.9},
        "sigma": {"dist": "uniform", "low": 0.0, "high": 1.0},
        "dpat": {"dist": "truncated-exponential", "rate": 0.5, "cap": 6.0}},
        "run": {"mode": "exact", "samples": 60}}))
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert main(["loss-end", "--config", str(cfg), "--workers", str(workers),
                     "--out-dir", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]


# the golden sources of the regen and exact cases (tests/test_golden.py)
GOLDEN = {"markov3": MARKOV3, "markov": MARKOV, "bounded": BOUNDED}
SPECS = {"sigma_plus_d": SIGMA_PLUS_D, "sigma_min_d": SIGMA_MIN_D, "d_only": D_ONLY}


def zero_oracle(spec, src, replicas, max_depth):
    """Whether the backward supremum is 0 at each replica's epoch."""
    hits = []
    for r in range(replicas):
        rep, e = src.replica(r, 2 * max_depth)
        hits.append(backward_supremum(spec, rep, e, max_depth).value == 0.0)
    return hits


@pytest.mark.parametrize("spec", sorted(SPECS))
@pytest.mark.parametrize("kind", [*sorted(GOLDEN), "deep"])
def test_prob_zero_matches_the_per_replica_oracle(kind, spec, monkeypatch):
    # candidate 0 of the screen, in batches of 7 that the widening re-screens
    # cross, against one backward_supremum per replica
    src = DEEP if kind == "deep" else source_from_config(GOLDEN[kind])
    spec, replicas, max_depth = SPECS[spec], 60, 300
    monkeypatch.setattr(recursion, "_BATCH", 7)
    want = zero_oracle(spec, src, replicas, max_depth)
    got = [None] * replicas
    for rows, _, _, _, depth in screen_replicas(spec, src, 0, replicas, 0, max_depth,
                                                positive_ok=True):
        for r, d in zip(rows.tolist(), depth.tolist()):
            got[r] = d > 0
    assert got == want
    pz = prob_zero_estimate(spec, src, replicas, max_depth)
    assert pz.exact and pz.estimate == mc_aggregate([float(h) for h in want], kind="binary")


def test_prob_zero_decides_a_positive_replica_the_depth_cuts_short():
    # replica 0 of DEEP under D_ONLY has a positive term within 3 lags, but the
    # cumulative beta stays under the bound 6 there: positive, although the
    # backward supremum, which needs the bound reached, cannot say so
    assert loynes_backward(D_ONLY, DEEP, 0, 3)[-1] > 0.0
    with pytest.raises(DepthExhaustedError):
        backward_supremum(D_ONLY, DEEP, 0, 3)
    assert prob_zero_estimate(D_ONLY, DEEP, 1, 3).estimate.point == 0.0


@pytest.mark.parametrize("kind", ["deep", "deep-markov"])
def test_prob_zero_raises_where_the_depth_runs_out_on_nonpositive_terms(kind):
    # the first replica whose 3 lag terms are all <= 0 cannot be decided within
    # 3 lags (beta stays under the bound 6); the replicas before it are positive
    src, max_depth = SOURCES[kind], 3
    r = next(r for r in range(200)
             if loynes_backward(D_ONLY, *src.replica(r, 2 * max_depth), max_depth)[-1] == 0.0)
    rep, e = src.replica(r, 2 * max_depth)
    assert r > 0 and (e > 0) == (kind == "deep-markov")
    with pytest.raises(DepthExhaustedError) as scalar:
        backward_supremum(D_ONLY, rep, e, max_depth)
    with pytest.raises(DepthExhaustedError) as batch:
        prob_zero_estimate(D_ONLY, src, r + 20, max_depth)
    assert str(batch.value) == f"replica {r} at epoch {e}: {scalar.value}"
