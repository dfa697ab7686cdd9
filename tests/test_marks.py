import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renege import (
    D_ONLY,
    SIGMA_MIN_D,
    SIGMA_PLUS_D,
    ConfigError,
    Deterministic,
    Discrete,
    Exponential,
    MarkTriple,
    StateMarginals,
    TruncatedExponential,
    Uniform,
    deterministic_source,
    iid_source,
    markov_source,
    source_from_config,
)


def test_deterministic_mark_at_negative_index():
    src = deterministic_source(1.0, 0.6, 0.3, seed=5)
    assert src.mark_at(-5) == MarkTriple(1.0, 0.6, 0.3)


def test_mark_at_is_pure(bounded_src):
    assert bounded_src.mark_at(7) == bounded_src.mark_at(7)
    # and batch access agrees bit for bit with single access
    xi, sigma, dpat = bounded_src.window_arrays(-3, 3)
    for k, n in enumerate(range(-3, 4)):
        m = bounded_src.mark_at(n)
        assert (m.xi, m.sigma, m.dpat) == (xi[k], sigma[k], dpat[k])


def test_shift_identity_definition_composition(bounded_src):
    src = bounded_src
    assert src.shift(0).mark_at(11) == src.mark_at(11)
    assert src.shift(3).mark_at(2) == src.mark_at(5)
    assert src.shift(4).shift(-9).mark_at(1) == src.shift(-5).mark_at(1)


def test_window_basics(bounded_src):
    m = bounded_src.mark_at(0)
    assert [v.tolist() for v in bounded_src.window_arrays(0, 0)] == [[m.xi], [m.sigma], [m.dpat]]
    det = deterministic_source(2.0, 1.0, 0.5, seed=0)
    assert [v.tolist() for v in det.window_arrays(-2, 1)] == [[2.0] * 4, [1.0] * 4, [0.5] * 4]
    a, b, c = -4, 1, 6
    for left, right, whole in zip(bounded_src.window_arrays(a, b),
                                  bounded_src.window_arrays(b + 1, c),
                                  bounded_src.window_arrays(a, c)):
        assert left.tolist() + right.tolist() == whole.tolist()
    with pytest.raises(ValueError):
        bounded_src.window_arrays(2, 1)


def test_empirical_stationarity_of_xi():
    src = iid_source(Exponential(1.0), Exponential(1.0), Exponential(0.5), seed=99)
    n = 100_000
    m1 = src.window_arrays(0, n - 1)[0]
    m2 = src.window_arrays(n, 2 * n - 1)[0]
    se_diff = math.sqrt(m1.var(ddof=1) / n + m2.var(ddof=1) / n)
    assert abs(m1.mean() - m2.mean()) <= 5.0 * se_diff


def test_bound_enforcement():
    src = iid_source(Uniform(0.5, 2.0), TruncatedExponential(1.0, 0.7), Uniform(0.0, 0.4),
                     seed=3)
    _, sigma, dpat = src.window_arrays(0, 50_000)
    assert sigma.max() <= 0.7
    assert dpat.max() <= 0.4
    assert SIGMA_PLUS_D.bound(src) == 0.7 + 0.4
    assert SIGMA_MIN_D.bound(src) == 0.4
    assert D_ONLY.bound(src) == 0.4


def test_unbounded_alpha_has_no_bound():
    src = iid_source(Uniform(0.5, 1.5), Exponential(1.0), Uniform(0.0, 0.4), seed=3)
    assert SIGMA_PLUS_D.bound(src) is None
    assert SIGMA_MIN_D.bound(src) == 0.4  # min is bounded by either factor


def test_constructor_rejects_zero_mean_xi():
    with pytest.raises(ConfigError):
        deterministic_source(0.0, 1.0, 1.0, seed=1)
    # xi = 0 a.s.: the discrete's positive atom has mass 0
    for xi in (Deterministic(0.0), Uniform(0.0, 0.0), Discrete((0.0, 2.0), (1.0, 0.0))):
        with pytest.raises(ConfigError, match=r"E\[xi\] > 0"):
            iid_source(xi, Uniform(0, 1), Uniform(0, 1), seed=8)


def test_batch_arrivals_allowed_with_positive_mean():
    src = iid_source(Discrete((0.0, 2.0), (0.3, 0.7)), Uniform(0, 1), Uniform(0, 1), seed=8)
    xi = src.window_arrays(0, 20_000)[0]
    assert (xi == 0.0).any()
    assert xi.mean() == pytest.approx(1.4, abs=5 * xi.std() / math.sqrt(xi.size))


def test_xi_of_a_tiny_truncated_exponential_rate_is_accepted():
    # E[xi | xi <= 1] is about 0.5 at rate 1e-20; its closed form
    # 1/rate - cap e^{-rate cap} / (1 - e^{-rate cap}) cancels to 0.0 there
    src = iid_source(TruncatedExponential(1e-20, 1.0), Uniform(0, 1), Uniform(0, 1), seed=8)
    xi = src.window_arrays(0, 100_000)[0]
    assert xi.mean() == pytest.approx(0.5, abs=5 * xi.std() / math.sqrt(xi.size))


def test_positive_xi_only_in_a_transient_state_is_rejected():
    # the chain leaves state 1 at once and never returns: pi = (1, 0)
    busy = StateMarginals(Deterministic(0.0), Uniform(0, 1), Uniform(0, 1))
    idle = StateMarginals(Deterministic(1.0), Uniform(0, 1), Uniform(0, 1))
    with pytest.raises(ConfigError, match=r"E\[xi\] > 0"):
        markov_source(((1.0, 0.0), (1.0, 0.0)), (busy, idle), seed=1)
    assert markov_source(((0.5, 0.5), (1.0, 0.0)), (busy, idle), seed=1).kind == "markov"


def test_marginal_validation():
    with pytest.raises(ConfigError):
        Uniform(2.0, 1.0)
    with pytest.raises(ConfigError):
        Exponential(0.0)
    with pytest.raises(ConfigError):
        Discrete((1.0, 2.0), (0.6, 0.6))
    with pytest.raises(ConfigError):
        Deterministic(-1.0)
    with pytest.raises(ConfigError):
        MarkTriple(1.0, -0.1, 0.0)


def test_truncated_exponential_mean_matches_samples():
    rate, cap = 2.0, 1.5
    src = iid_source(Deterministic(1.0), TruncatedExponential(rate, cap), Deterministic(0.0),
                     seed=21)
    sigma = src.window_arrays(0, 200_000)[1]
    # E[X | X <= cap] for X ~ Exp(rate), accurate at rate * cap = 3
    mean = 1.0 / rate - cap * math.exp(-rate * cap) / -math.expm1(-rate * cap)
    assert sigma.mean() == pytest.approx(mean, abs=5 * sigma.std() / math.sqrt(sigma.size))


_U_EDGES = np.array([0.0, 1.0 - 2.0 ** -53])
_SCALE = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
_NONNEG = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
_DISCRETE = st.lists(st.tuples(_NONNEG, st.integers(0, 9)), min_size=1, max_size=6).filter(
    lambda aw: sum(w for _, w in aw) > 0).map(
    lambda aw: Discrete(tuple(a for a, _ in aw),
                        tuple(w / sum(w for _, w in aw) for _, w in aw)))
_MARGINALS = st.one_of(
    st.builds(Deterministic, _NONNEG),
    st.tuples(_NONNEG, _NONNEG).map(lambda ab: Uniform(min(ab), max(ab))),
    st.builds(Exponential, _SCALE),
    st.builds(TruncatedExponential, _SCALE, _SCALE),
    _DISCRETE,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_MARGINALS)
# each of these once returned a value outside its support at u = 1 - 2^-53
@example(TruncatedExponential(3.069, 0.172))
@example(TruncatedExponential(0.112, 3.46))
@example(Discrete((1.0, 2.0, 3.0, 9.0), (0.7, 0.2, 0.1, 0.0)))
def test_quantiles_stay_in_support_at_extreme_uniforms(m):
    q = m.quantile(_U_EDGES)
    assert np.all(np.isfinite(q)) and np.all(q >= 0.0)
    if m.upper_bound is not None:
        assert np.all(q <= m.upper_bound)
    if isinstance(m, Uniform):
        assert np.all(q >= m.low)
    if isinstance(m, Discrete):
        support = {a for a, p in zip(m.atoms, m.probs) if p > 0.0}
        assert set(q.tolist()) <= support


def test_discrete_frequencies():
    m = Discrete((0.5, 1.0, 3.0), (0.2, 0.5, 0.3))
    src = iid_source(Deterministic(1.0), m, Deterministic(0.0), seed=22)
    sigma = src.window_arrays(0, 100_000)[1]
    for atom, p in zip(m.atoms, m.probs):
        freq = float(np.mean(sigma == atom))
        assert freq == pytest.approx(p, abs=5 * math.sqrt(p * (1 - p) / sigma.size))


def _two_state_markov(seed=11, stream=0):
    fast = StateMarginals(Uniform(0.2, 0.6), Uniform(0.0, 0.3), Uniform(0.0, 0.2))
    slow = StateMarginals(Uniform(1.0, 2.0), Uniform(0.0, 0.8), Uniform(0.0, 0.4))
    return markov_source(((0.9, 0.1), (0.4, 0.6)), (fast, slow), seed=seed, stream=stream)


def test_markov_requires_minorization():
    st = StateMarginals(Uniform(0.5, 1.5), Uniform(0, 1), Uniform(0, 1))
    with pytest.raises(ConfigError):
        markov_source(((0.0, 1.0), (1.0, 0.0)), (st, st), seed=1)  # period-2 flip
    with pytest.raises(ConfigError):
        markov_source(((0.5, 0.5),), (st, st), seed=1)  # wrong shape


def test_markov_purity_is_request_order_independent():
    a = _two_state_markov()
    b = _two_state_markov()
    idx = [5, -40, 12, -3, 100, -41, 0, 7, -100]
    got_a = [a.mark_at(i) for i in idx]
    got_b = [b.mark_at(i) for i in sorted(idx)]
    lookup = dict(zip(sorted(idx), got_b))
    assert got_a == [lookup[i] for i in idx]


def test_markov_shift_and_stationary_frequencies():
    src = _two_state_markov(seed=77)
    assert src.shift(5).mark_at(-2) == src.mark_at(3)
    # state frequencies match the exact stationary law: pi = (0.8, 0.2)
    pi = src.stationary_state_probs
    assert pi == pytest.approx([0.8, 0.2], abs=1e-12)
    n = 60_000
    xi = src.window_arrays(0, n - 1)[0]
    fast_freq = float(np.mean(xi <= 0.6))  # fast-state xi never exceeds 0.6
    se = math.sqrt(0.8 * 0.2 / n)
    # correlated draws: generous 10 se
    assert abs(fast_freq - 0.8) <= 10 * se
    # windows far apart agree distributionally
    xi2 = src.window_arrays(10 ** 6, 10 ** 6 + n - 1)[0]
    assert abs(xi.mean() - xi2.mean()) <= 8 * math.sqrt(xi.var() / n + xi2.var() / n)


def test_markov_mean_xi_is_stationary_average():
    # the state means of xi, 0.4 and 1.5, weighted by the stationary law
    src = _two_state_markov()
    mean = float(src.stationary_state_probs @ [0.4, 1.5])
    assert mean == pytest.approx(0.8 * 0.4 + 0.2 * 1.5, abs=1e-12)
    n = 60_000
    xi = src.window_arrays(0, n - 1)[0]
    # correlated draws: generous 10 se
    assert abs(xi.mean() - mean) <= 10 * xi.std() / math.sqrt(n)


def test_source_from_config_roundtrip():
    cfg = {
        "kind": "iid", "seed": 4, "stream": 2,
        "xi": {"dist": "uniform", "low": 0.5, "high": 1.5},
        "sigma": {"dist": "truncated-exponential", "rate": 1.0, "cap": 0.8},
        "dpat": {"dist": "discrete", "atoms": [0.1, 0.4], "probs": [0.5, 0.5]},
    }
    src = source_from_config(cfg)
    assert src.kind == "iid" and src.seed == 4 and src.stream == 2
    assert SIGMA_PLUS_D.bound(src) == pytest.approx(1.2)
    with pytest.raises(ConfigError):
        source_from_config({"kind": "iid", "seed": 1})
    with pytest.raises(ConfigError):
        source_from_config({"kind": "nope", "seed": 1})
    mk = {
        "kind": "markov", "seed": 9,
        "transition": [[0.9, 0.1], [0.4, 0.6]],
        "states": [
            {"xi": {"dist": "uniform", "low": 0.2, "high": 0.6},
             "sigma": {"dist": "uniform", "low": 0.0, "high": 0.3},
             "dpat": {"dist": "uniform", "low": 0.0, "high": 0.2}},
            {"xi": {"dist": "uniform", "low": 1.0, "high": 2.0},
             "sigma": {"dist": "uniform", "low": 0.0, "high": 0.8},
             "dpat": {"dist": "uniform", "low": 0.0, "high": 0.4}},
        ],
    }
    msrc = source_from_config(mk)
    assert msrc.kind == "markov" and D_ONLY.bound(msrc) == 0.4


@pytest.mark.parametrize("seed,stream,g0,count", [
    (0, 0, 0, 1),
    (20081, 7, -3, 6),                     # negative index: the counter wraps past 2**256
    (2**64 + 5, 2**64 - 1, 2**256 - 2, 5),  # key words masked, counter wraps
    (12345, 0, 2**130 + 17, 300),
])
def test_blocks_match_generator_integers(seed, stream, g0, count):
    src = iid_source(Uniform(0.0, 1.0), Uniform(0.0, 1.0), Uniform(0.0, 1.0),
                     seed=seed, stream=stream)
    key = ((seed & (2**64 - 1)) << 64) | (stream & (2**64 - 1))
    gen = np.random.Generator(np.random.Philox(key=key, counter=g0 % 2**256))
    ref = gen.integers(0, 1 << 64, size=4 * count, dtype=np.uint64).reshape(count, 4)
    got = src._blocks(g0, count)
    assert got.dtype == np.uint64 and np.array_equal(got, ref)


_M64 = 2**64 - 1


@pytest.mark.parametrize("seed, rows", [
    # re-keyed rows at one start, as an iid batch reads them, up to stream 2^64 - 1
    (20081, [(s, -31) for s in (0, 1, 2, 2**64 - 2, 2**64 - 1, 2**64, 3)]),
    # one stream at spaced starts, as a Markov batch reads them
    (20082, [(3, g) for g in (-80, 520, 520, 1120, -2)]),
    # starts that wrap 2^256, negative starts, seed 2^64 - 1
    (2**64 - 1, [(5, 2**256 - 2), (5, -(2**256) - 3), (2**64 - 1, -1), (0, 2**256 + 9)]),
])
def test_fetch_rows_match_philox_at_their_counters(seed, rows):
    # each row from a Philox keyed [stream, seed] at counter g mod 2^256, into
    # the first rows of a larger buffer
    src = iid_source(Uniform(0.0, 1.0), Uniform(0.0, 1.0), Uniform(0.0, 1.0), seed=seed)
    count, buffer = 5, np.zeros((len(rows) + 2, 5, 4), dtype=np.uint64)
    got = src._fetch([s for s, _ in rows], [g for _, g in rows], count, buffer)
    assert got.shape == (len(rows), count, 4) and np.shares_memory(got, buffer)
    for (stream, g), words in zip(rows, got):
        key = np.array([stream & _M64, seed & _M64], dtype=np.uint64)
        bg = np.random.Philox(key=key, counter=g % 2**256)
        assert np.array_equal(words, bg.random_raw(4 * count).reshape(count, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g=st.one_of(st.integers(-(2**300), -1), st.integers(2**256, 2**300)))
@example(g=-1)
@example(g=-(2**256))
@example(g=2**256)
def test_counter_words_are_those_of_the_start_mod_2_256(g):
    # _generators takes the four 64-bit words of g by shifts and masks, with no
    # modulo: >> is arithmetic on negative ints, so they are g mod 2^256's
    src = iid_source(Uniform(0.0, 1.0), Uniform(0.0, 1.0), Uniform(0.0, 1.0), seed=7)
    bg = next(src._generators([3], [g]))
    want = [(g % 2**256 >> b) & _M64 for b in (0, 64, 128, 192)]
    assert bg.state["state"]["counter"].tolist() == want


def test_substreams_differ(bounded_src):
    assert bounded_src.substream(1).mark_at(0) != bounded_src.mark_at(0)
    assert bounded_src.substream(0).mark_at(0) == bounded_src.mark_at(0)


def test_shift_and_substream_copy_the_validated_source():
    src = _two_state_markov(seed=11)
    probs, parts = src.stationary_state_probs, src._doeblin_parts
    for moved, rebuilt in ((src.substream(3), dataclasses.replace(src, stream=src.stream + 3)),
                           (src.shift(-7), dataclasses.replace(src, origin=src.origin - 7))):
        assert moved == rebuilt
        assert all(np.array_equal(a, b) for a, b in
                   zip(moved.window_arrays(-40, 40), rebuilt.window_arrays(-40, 40)))
        # the copy carries the cached properties instead of computing them again
        assert moved.__dict__["stationary_state_probs"] is probs
        assert moved.__dict__["_doeblin_parts"] is parts
