"""The renovation screen as a batch of one (the renovation_search oracle)
against the scalar certified_zero loop.

The loop walks the candidate epochs epoch-first, epoch-first-1, ... one at a
time and stops at the first certificate or error.  renovation_search, which
runs recursion.renovation_offsets on a doubling window, must return the same
epoch and a bit-identical certificate, or raise the same error, whatever the
spec, the source or the search limits.
"""

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
    RenovationNotFoundError,
    StateMarginals,
    TruncatedExponential,
    Uniform,
    iid_source,
    markov_source,
)
from renege.recursion import MarkWindowCache

from oracles import certified_zero, declared_states, renovation_search

SPECS = {"sigma_plus_d": SIGMA_PLUS_D, "sigma_min_d": SIGMA_MIN_D, "d_only": D_ONLY}


class TableSource:
    """Marks set per index over a default triple, with states declaring the
    spec's alpha bound, which need not hold (so a positive term and s >= bound
    can meet)."""

    def __init__(self, marks: dict[int, tuple], default=(0.0, 0.0, 0.0), bound=1.0,
                 spec=D_ONLY):
        self.marks = dict(marks)
        self.default = default
        self.states = declared_states(spec, bound)

    def window_arrays(self, lo, hi):
        rows = np.array([self.marks.get(i, self.default) for i in range(lo, hi + 1)], dtype=float)
        return rows.T.copy()


def scalar_search(spec, src, epoch, max_epochs, max_depth, first=0):
    cache = MarkWindowCache(src)
    for k in range(first, max_epochs + 1):
        cert = certified_zero(spec, src, epoch - k, max_depth, cache)
        if cert is not None:
            return epoch - k, cert
    raise RenovationNotFoundError


def outcome(search, spec, src, epoch, max_epochs, max_depth, first=0):
    """("cert", epoch, depth, residual bits) of the certificate, or the name
    and message of the error raised."""
    try:
        e, cert = search(spec, src, epoch, max_epochs, max_depth, first=first)
    except (DepthExhaustedError, CapabilityError) as exc:
        return type(exc).__name__, str(exc)
    except RenovationNotFoundError:
        return "RenovationNotFoundError", None  # the oracle has no message
    assert cert.epoch == e
    return "cert", e, cert.depth, cert.residual_bound.hex()


def block_search(spec, src, epoch, max_epochs, max_depth, first=0):
    return renovation_search(spec, src, epoch, max_epochs, max_depth, MarkWindowCache(src),
                             first=first)


def assert_same(spec, src, epoch, max_epochs, max_depth, first=0):
    got = outcome(block_search, spec, src, epoch, max_epochs, max_depth, first)
    assert got == outcome(scalar_search, spec, src, epoch, max_epochs, max_depth, first)
    return got


# name -> (table source, epoch, max_epochs, max_depth, first, expected outcome)
CASES = {
    "cert-at-k0": (TableSource({-1: (2.0, 0.0, 0.0)}), 0, 10, 10, 0, (0, 1, (-1.0).hex())),
    "cert-first-1": (TableSource({-1: (2.0, 0.0, 0.0), -2: (3.0, 0.0, 0.0)}),
                     0, 10, 10, 1, (-1, 1, (-2.0).hex())),
    # lag 1 of epoch 0 is positive (3 - 1 > 0) and reaches the bound (1 >= 1):
    # the positive term wins, epoch 0 is not certified and the search moves on
    "positive-and-reached": (TableSource({-1: (1.0, 0.0, 3.0), -2: (2.0, 0.0, 0.0)}),
                             0, 10, 10, 0, (-1, 1, (-1.0).hex())),
    # epoch 0 is positive, epoch -1 never reaches the bound: xi is 0 behind it
    "exhausted-behind-none": (TableSource({-1: (0.5, 0.0, 1.0)}), 0, 10, 40, 0,
                              "DepthExhaustedError"),
    "not-found-at-max-epochs": (TableSource({}, default=(1.0, 0.0, 2.0), bound=5.0),
                                0, 40, 40, 0, "RenovationNotFoundError"),
    # every candidate up to -49 has a positive first lag; -50 certifies at once
    "distance-beyond-first-block": (TableSource({-51: (10.0, 0.0, 0.0)}, default=(1.0, 0.0, 2.0),
                                                bound=5.0), 0, 200, 100, 0,
                                    (-50, 1, (-5.0).hex())),
    # xi 0.125 a lag: 40 lags to reach the bound 5, past the first lag window
    "depth-beyond-first-lags": (TableSource({}, default=(0.125, 0.0, 0.0), bound=5.0),
                                7, 3, 100, 0, (7, 40, (0.0).hex())),
    # epochs 0..-39 stay undecided past 32 lags, then turn positive at index -40
    "positive-beyond-first-lags": (TableSource({-40: (0.5, 0.0, 3.0), -41: (20.0, 0.0, 0.0)},
                                               bound=10.0), 0, 100, 60, 0,
                                   (-40, 1, (-10.0).hex())),
    # the search's first window of 128 marks cannot decide these: it doubles
    "distance-beyond-first-window": (TableSource({-301: (10.0, 0.0, 0.0)},
                                                 default=(1.0, 0.0, 2.0), bound=5.0),
                                     0, 1000, 100, 0, (-300, 1, (-5.0).hex())),
    # xi 2^-5 a lag: 160 lags to reach the bound 5 exactly
    "depth-beyond-first-window": (TableSource({}, default=(0.03125, 0.0, 0.0), bound=5.0),
                                  0, 3, 1000, 1, (-1, 160, (0.0).hex())),
    "exhausted-beyond-first-window": (TableSource({}, default=(0.03125, 0.0, 0.0), bound=5.0),
                                      0, 3, 150, 0, "DepthExhaustedError"),
    "zero-max-depth": (TableSource({}), 0, 5, 0, 0, "DepthExhaustedError"),
    "no-candidates": (TableSource({}), 0, 0, 5, 1, "RenovationNotFoundError"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_constructed_cases(name):
    src, epoch, max_epochs, max_depth, first, expected = CASES[name]
    got = assert_same(D_ONLY, src, epoch, max_epochs, max_depth, first)
    assert got[0] == expected if isinstance(expected, str) else got == ("cert", *expected)


def test_missing_bound_raises_capability_error():
    src = TableSource({}, bound=None)
    assert assert_same(D_ONLY, src, 0, 5, 5)[0] == "CapabilityError"


_LEVELS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(marks=st.lists(st.tuples(_LEVELS, _LEVELS, _LEVELS), max_size=80),
       default=st.tuples(_LEVELS, _LEVELS, _LEVELS),
       bound=st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.5]),
       spec=st.sampled_from(sorted(SPECS)),
       epoch=st.integers(-30, 30),
       max_epochs=st.integers(0, 90),
       max_depth=st.integers(0, 90),
       first=st.integers(0, 1))
@example(marks=[(1.0, 0.0, 3.0), (2.0, 0.0, 0.0)], default=(0.0, 0.0, 0.0), bound=1.0,
         spec="d_only", epoch=0, max_epochs=5, max_depth=5, first=0)
def test_table_sources_match_scalar_loop(marks, default, bound, spec, epoch, max_epochs,
                                         max_depth, first):
    src = TableSource({epoch - 1 - i: m for i, m in enumerate(marks)}, default, bound,
                      SPECS[spec])
    assert_same(SPECS[spec], src, epoch, max_epochs, max_depth, first)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), spec=st.sampled_from(sorted(SPECS)),
       epoch=st.integers(-10**6, 10**6), max_epochs=st.integers(0, 300),
       max_depth=st.sampled_from([1, 3, 20, 1000]), first=st.integers(0, 1))
def test_heavy_iid_source_matches_scalar_loop(seed, spec, epoch, max_epochs, max_depth, first):
    # the exact-iid benchmark marginals: renovation distances reach past 16
    src = iid_source(Uniform(0.2, 1.0), TruncatedExponential(1.5, 2.0), Uniform(0.0, 1.5),
                     seed=seed)
    assert_same(SPECS[spec], src, epoch, max_epochs, max_depth, first)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), spec=st.sampled_from(sorted(SPECS)),
       epoch=st.integers(-10**6, 10**6), max_epochs=st.integers(0, 200),
       first=st.integers(0, 1))
def test_markov_source_matches_scalar_loop(seed, spec, epoch, max_epochs, first):
    states = (StateMarginals(Uniform(0.5, 1.5), Uniform(0.0, 0.8), Uniform(0.0, 1.0)),
              StateMarginals(Uniform(0.1, 0.7), TruncatedExponential(1.0, 3.0),
                             Uniform(0.5, 3.0)))
    src = markov_source([[0.9, 0.1], [0.3, 0.7]], states, seed=seed)
    assert_same(SPECS[spec], src, epoch, max_epochs, 500, first)


def test_benchmark_source_distances_match_scalar_loop():
    """Replicas of the exact-iid benchmark source, whose searches run past the
    first blocks of candidates."""
    src = iid_source(Uniform(0.2, 1.0), TruncatedExponential(1.5, 2.0), Uniform(0.0, 1.5),
                     seed=20081)
    distances = [-assert_same(SIGMA_PLUS_D, src.substream(r), 0, 10_000, 10_000)[1]
                 for r in range(300)]
    assert max(distances) > 48
