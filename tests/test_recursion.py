import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renege import (
    D_ONLY,
    SIGMA_MIN_D,
    SIGMA_PLUS_D,
    CapabilityError,
    DepthExhaustedError,
    Deterministic,
    Discrete,
    Exponential,
    MarkTriple,
    RecursionSpec,
    StateMarginals,
    TruncatedExponential,
    Uniform,
    deterministic_source,
    iid_source,
    markov_source,
    mc_aggregate,
    prob_zero_estimate,
    step,
)
from renege.recursion import y_path

import oracles
from oracles import backward_supremum, coupling_time, declared_states, loynes_backward

DET_SUB = deterministic_source(1.0, 0.6, 0.3, seed=2)   # sigma+dpat = 0.9 < xi
DET_SUPER = deterministic_source(1.0, 1.4, 0.3, seed=2)  # sigma+dpat = 1.7 > xi


class SequenceSource:
    """Fixed mark values by index; enough surface for the recursion ops."""

    def __init__(self, dvals: dict[int, float], xi: float = 2.0, bound: float = 10.0):
        self.dvals = dict(dvals)
        self.xi = xi
        self.states = declared_states(D_ONLY, bound)  # the spec of every test below
        self.is_iid = False
        self.seed = 0
        self.stream = 0

    def window_arrays(self, lo, hi):
        n = hi - lo + 1
        xi = np.full(n, self.xi)
        sigma = np.zeros(n)
        dpat = np.array([self.dvals.get(i, 0.0) for i in range(lo, hi + 1)])
        return np.stack((xi, sigma, dpat))

    def replica(self, r, spacing):
        return self, r * spacing


def test_step_examples():
    assert step(2.0, MarkTriple(3.0, 0.0, 6.0), D_ONLY) == 3.0
    assert step(0.0, MarkTriple(5.0, 0.0, 0.0), D_ONLY) == 0.0
    assert step(5.0, MarkTriple(7.0, 0.0, 1.0), D_ONLY) == 0.0
    for y in (-0.1, np.nan, np.inf):  # a state that is not finite and >= 0
        for spec in (D_ONLY, SIGMA_PLUS_D):
            with pytest.raises(ValueError):
                step(y, MarkTriple(1.0, 1.0, 1.0), spec)


def test_step_alpha_kinds():
    m = MarkTriple(1.0, 2.0, 0.5)
    assert step(0.0, m, SIGMA_PLUS_D) == 2.5 - 1.0
    assert step(0.0, m, SIGMA_MIN_D) == 0.0   # [0.5 - 1]+
    assert step(0.0, m, D_ONLY) == 0.0
    with pytest.raises(ValueError, match="unknown alpha kind"):
        RecursionSpec("custom")


# each marginal kind as sigma under dpat ~ U(0, 0.5), then as dpat under
# sigma ~ U(0, 0.5), with the alpha bound of (SIGMA_PLUS_D, SIGMA_MIN_D, D_ONLY):
# a Discrete is bounded by its largest atom of positive mass
KINDS = {
    "deterministic": Deterministic(0.75),
    "deterministic-0": Deterministic(0.0),
    "uniform": Uniform(0.25, 2.0),
    "exponential": Exponential(1.0),
    "truncated-exponential": TruncatedExponential(2.0, 0.25),
    "discrete": Discrete((0.125, 1.0, 4.0), (0.5, 0.5, 0.0)),
}
AS_SIGMA = {
    "deterministic": (1.25, 0.5, 0.5),
    "deterministic-0": (0.5, 0.0, 0.5),
    "uniform": (2.5, 0.5, 0.5),
    "exponential": (None, 0.5, 0.5),
    "truncated-exponential": (0.75, 0.25, 0.5),
    "discrete": (1.5, 0.5, 0.5),
}
AS_DPAT = {
    "deterministic": (1.25, 0.5, 0.75),
    "deterministic-0": (0.5, 0.0, 0.0),
    "uniform": (2.5, 0.5, 2.0),
    "exponential": (None, 0.5, None),
    "truncated-exponential": (0.75, 0.25, 0.25),
    "discrete": (1.5, 0.5, 1.0),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_alpha_bound_of_each_marginal_kind(kind):
    half = Uniform(0.0, 0.5)
    for src, want in ((iid_source(Deterministic(1.0), KINDS[kind], half, seed=1), AS_SIGMA),
                      (iid_source(Deterministic(1.0), half, KINDS[kind], seed=1), AS_DPAT)):
        assert tuple(spec.bound(src) for spec in (SIGMA_PLUS_D, SIGMA_MIN_D, D_ONLY)) \
            == want[kind]
        # the marks never exceed it
        xi, sigma, dpat = src.window_arrays(0, 4095)
        for spec, b in zip((SIGMA_PLUS_D, SIGMA_MIN_D, D_ONLY), want[kind]):
            assert b is None or spec.alpha_array(sigma, dpat).max() <= b


def test_alpha_bound_is_the_max_over_the_states():
    low = StateMarginals(Deterministic(1.0), Uniform(0.0, 0.5), Deterministic(0.75))
    high = StateMarginals(Deterministic(2.0), Deterministic(2.0), Uniform(0.0, 0.25))
    open_ = StateMarginals(Deterministic(1.0), Exponential(1.0), Deterministic(0.0))
    chain = ((0.5, 0.5), (0.5, 0.5))
    src = markov_source(chain, (low, high), seed=1)
    assert (SIGMA_PLUS_D.bound(src), SIGMA_MIN_D.bound(src), D_ONLY.bound(src)) \
        == (2.25, 0.5, 0.75)
    # one state's unbounded sigma leaves sigma + dpat unbounded, and the
    # other two bounded by that state's dpat 0
    src = markov_source(chain, (low, open_), seed=1)
    assert (SIGMA_PLUS_D.bound(src), SIGMA_MIN_D.bound(src), D_ONLY.bound(src)) \
        == (None, 0.5, 0.75)


def test_loynes_backward_deterministic():
    assert loynes_backward(SIGMA_PLUS_D, DET_SUB, 0, 3) == [0.0, 0.0, 0.0]
    vals = loynes_backward(SIGMA_PLUS_D, DET_SUPER, 0, 3)
    assert vals == pytest.approx([0.7, 0.7, 0.7], abs=1e-12)


def test_loynes_backward_prefix_and_monotone(bounded_src):
    for epoch in (0, -7, 13):
        deep = loynes_backward(SIGMA_PLUS_D, bounded_src, epoch, 40)
        shallow = loynes_backward(SIGMA_PLUS_D, bounded_src, epoch, 10)
        assert deep[:10] == shallow
        assert all(a <= b for a, b in zip(deep, deep[1:]))


def test_backward_supremum_crafted_window():
    # terms at lags 1..4: 3-2=1, 5-4=1, 1-6=-5, 10-8=2; beta reaches the
    # bound 10 at depth 5, certifying every deeper term <= 0
    src = SequenceSource({-1: 3.0, -2: 5.0, -3: 1.0, -4: 10.0})
    rv = backward_supremum(D_ONLY, src, 0, 100)
    assert rv.exact and rv.value == 2.0 and rv.certificate is None
    # agreement with the backward scheme at certificate depth and beyond
    assert loynes_backward(D_ONLY, src, 0, 5)[-1] == rv.value
    assert loynes_backward(D_ONLY, src, 0, 9)[-1] == rv.value


def test_backward_supremum_zero_certificates():
    rv = backward_supremum(SIGMA_PLUS_D, DET_SUB, 0, 100)
    assert rv.exact and rv.value == 0.0
    assert rv.certificate.depth == 1 and rv.certificate.epoch == 0
    assert rv.certificate.residual_bound <= 0.0

    zero_alpha = deterministic_source(1.0, 0.0, 0.0, seed=1)
    rv0 = backward_supremum(SIGMA_PLUS_D, zero_alpha, -3, 10)
    assert rv0.value == 0.0 and rv0.certificate.depth == 1


def test_backward_supremum_certificate_terms_are_nonpositive(bounded_src):
    for epoch in range(0, -200, -1):
        rv = backward_supremum(SIGMA_PLUS_D, bounded_src, epoch, 1000)
        if rv.certificate is None:
            continue
        depth = rv.certificate.depth
        xi, sigma, dpat = bounded_src.window_arrays(epoch - depth, epoch - 1)
        terms = (sigma + dpat)[::-1] - np.cumsum(xi[::-1])
        assert terms.max() <= 0.0
        assert np.cumsum(xi[::-1])[-1] >= SIGMA_PLUS_D.bound(bounded_src) \
            + rv.certificate.residual_bound
        # the backward scheme has converged exactly by the certificate depth
        assert loynes_backward(SIGMA_PLUS_D, bounded_src, epoch, depth)[-1] == rv.value
        assert loynes_backward(SIGMA_PLUS_D, bounded_src, epoch, depth + 7)[-1] == rv.value


def test_backward_supremum_errors():
    unbounded = iid_source(Uniform(0.5, 1.5), Exponential(1.0), Uniform(0.0, 0.4), seed=5)
    with pytest.raises(CapabilityError):
        backward_supremum(SIGMA_PLUS_D, unbounded, 0, 100)
    src = SequenceSource({-1: 3.0})
    with pytest.raises(DepthExhaustedError):
        backward_supremum(D_ONLY, src, 0, 3)  # cum beta 6 < bound 10


def test_backward_supremum_approximate_mode():
    unbounded = iid_source(Uniform(0.5, 1.5), Exponential(1.0), Exponential(2.0), seed=5)
    rv10 = backward_supremum(SIGMA_PLUS_D, unbounded, 0, 10, exact=False)
    rv100 = backward_supremum(SIGMA_PLUS_D, unbounded, 0, 100, exact=False)
    assert not rv10.exact and rv10.truncation_depth == 10
    assert rv10.value <= rv100.value  # deeper truncation only raises the supremum


def test_dominance_ordering(bounded_src):
    for epoch in range(0, -200, -1):
        ym = backward_supremum(SIGMA_MIN_D, bounded_src, epoch, 1000).value
        yd = backward_supremum(D_ONLY, bounded_src, epoch, 1000).value
        yp = backward_supremum(SIGMA_PLUS_D, bounded_src, epoch, 1000).value
        assert ym <= yd <= yp


def test_prob_zero_estimates():
    assert prob_zero_estimate(SIGMA_PLUS_D, DET_SUB, 50, 100).estimate.point == 1.0
    assert prob_zero_estimate(SIGMA_PLUS_D, DET_SUPER, 50, 100).estimate.point == 0.0
    dominated = iid_source(Deterministic(1.0), Uniform(0.0, 0.5), Deterministic(9.0), seed=6)
    pz = prob_zero_estimate(SIGMA_MIN_D, dominated, 200, 100)
    assert pz.exact and pz.estimate.point == 1.0


def test_prob_zero_approximate_flag():
    unbounded = iid_source(Uniform(0.5, 1.5), Exponential(1.0), Exponential(2.0), seed=7)
    pz = prob_zero_estimate(SIGMA_PLUS_D, unbounded, 50, 200)
    assert not pz.exact
    assert 0.0 <= pz.estimate.point <= 1.0


# the forward benchmark workload's source: M/M/1+M, no bound on alpha
FORWARD = iid_source(Exponential(0.9), Exponential(1.0), Exponential(0.5), seed=20083)


@pytest.mark.parametrize("max_depth", [7, 10_000])
@pytest.mark.parametrize("spec", [SIGMA_PLUS_D, SIGMA_MIN_D], ids=["sigma_plus_d", "sigma_min_d"])
def test_truncated_prob_zero_matches_the_whole_window_walk(spec, max_depth):
    # the estimate stops at each replica's first positive lag term; the
    # oracle's truncated supremum reads all max_depth lags in one window.
    # Replica r of an iid source is replica 0 of its substream r.
    replicas = 40
    want = [backward_supremum(spec, *FORWARD.replica(r, 2 * max_depth), max_depth,
                              exact=False).value == 0.0 for r in range(replicas)]
    got = [prob_zero_estimate(spec, FORWARD.substream(r), 1, max_depth).estimate.point == 1.0
           for r in range(replicas)]
    assert got == want and any(want) and not all(want)
    pz = prob_zero_estimate(spec, FORWARD, replicas, max_depth)
    assert not pz.exact
    assert pz.estimate == mc_aggregate([float(h) for h in want], kind="binary")


@pytest.mark.parametrize("lag", [1, 32, 33, 95, 96, 97, 200])
def test_truncated_prob_zero_finds_a_positive_term_in_any_window(lag):
    # xi is 2 at every index, so the one positive term is 0.5 at `lag`; the
    # estimate reads the lags in windows 1..32, 33..96 and 97..224
    src = SequenceSource({-lag: 2.0 * lag + 0.5}, bound=None)
    for max_depth in {max(lag - 1, 1), lag, 224}:
        zero = backward_supremum(D_ONLY, src, 0, max_depth, exact=False).value == 0.0
        assert zero == (lag > max_depth)
        pz = prob_zero_estimate(D_ONLY, src, 1, max_depth)
        assert not pz.exact and pz.estimate.point == float(zero)


def test_coupling_time_examples():
    assert coupling_time(SIGMA_PLUS_D, DET_SUB, 4.0, 4.0, 10) == 0
    assert coupling_time(SIGMA_PLUS_D, DET_SUB, 0.0, 5.0, 100) == 5
    assert coupling_time(SIGMA_PLUS_D, DET_SUB, 0.0, 0.5, 100) == 1
    assert coupling_time(SIGMA_PLUS_D, DET_SUB, 0.0, 5.0, 3) is None


def test_coupling_time_across_mark_windows():
    # alpha = 0.5 < xi = 1: from 20000 the iterate falls by 1 a step and meets
    # the one from 0 at step 20000, in the second window of marks; equality is
    # then checked through a third
    src = deterministic_source(1.0, 0.25, 0.25, seed=5)
    assert oracles._WINDOW < 20_000
    assert coupling_time(SIGMA_PLUS_D, src, 20_000.0, 0.0, 3 * oracles._WINDOW) == 20_000
    assert coupling_time(SIGMA_PLUS_D, src, 0.0, 20_000.0, 19_999) is None
    assert coupling_time(SIGMA_PLUS_D, src, 3.0, 3.0, 2 * oracles._WINDOW + 1) == 0


def test_coupling_time_reports_separation(monkeypatch):
    paths = iter([[1.0, 0.0, 0.0], [2.0, 0.0, 1.0]])
    monkeypatch.setattr(oracles, "y_path", lambda y, alpha, xi: next(paths))
    with pytest.raises(RuntimeError, match="separated at step 3 after coupling at 2"):
        coupling_time(SIGMA_PLUS_D, DET_SUB, 0.0, 5.0, 3)


values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]),
                   st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=st.sampled_from([SIGMA_PLUS_D, SIGMA_MIN_D, D_ONLY]),
       mark_list=st.lists(st.tuples(values, values, values), min_size=1, max_size=24),
       start=st.sampled_from(["zero", "at_alpha", "free"]), free=values)
def test_y_path_matches_repeated_step(spec, mark_list, start, free):
    # grid marks put states on alpha (y == alpha) often, and on 0
    xi, sigma, dpat = (np.array(c) for c in zip(*mark_list))
    alpha = spec.alpha_array(sigma, dpat)
    y0 = y = {"zero": 0.0, "at_alpha": float(alpha[0]), "free": free}[start]
    want = []
    for x, s, d in mark_list:
        y = step(y, MarkTriple(x, s, d), spec)
        want.append(y.hex())
    assert [v.hex() for v in y_path(y0, alpha, xi)] == want


def test_coupling_time_bounded_scenario(bounded_src):
    t = coupling_time(SIGMA_PLUS_D, bounded_src, 0.0, 12.0, 100_000)
    assert t is not None and t >= 1
