import math

import numpy as np
import pytest

from renege import mc_aggregate, wilson

from oracles import (
    OracleSpec,
    TruncationError,
    birth_death_abandonment,
    birth_death_stationary,
    ks_two_sample,
)


def test_mc_aggregate_binary_corners():
    zero = mc_aggregate([0, 0, 0, 0], kind="binary")
    assert zero.point == 0.0 and zero.kind == "wilson"
    assert zero.low == 0.0 and zero.high > 0.0
    one = mc_aggregate([1, 1, 1, 1], kind="binary")
    assert one.point == 1.0 and one.high == 1.0 and one.low < 1.0
    with pytest.raises(ValueError):
        mc_aggregate([], kind="binary")


def test_mc_aggregate_fair_coin():
    rng = np.random.default_rng(8)
    draws = (rng.random(10_000) < 0.5).astype(float)
    est = mc_aggregate(draws.tolist(), kind="binary")
    assert 0.47 <= est.point <= 0.53
    assert est.low <= 0.5 <= est.high


def test_mc_aggregate_permutation_invariant():
    rng = np.random.default_rng(9)
    vals = rng.normal(3.0, 1.0, 500).tolist()
    a = mc_aggregate(vals, kind="real")
    rng.shuffle(vals)
    b = mc_aggregate(vals, kind="real")
    assert (a.point, a.low, a.high) == (b.point, b.low, b.high)


def test_mc_aggregate_real_interval():
    est = mc_aggregate([1.0, 2.0, 3.0], kind="real")
    assert est.point == 2.0 and est.kind == "t"
    assert est.low < 2.0 < est.high
    single = mc_aggregate([5.0], kind="real")
    assert single.point == 5.0 and single.low == -math.inf


def test_wilson_formula_at_zero():
    z = 1.959963984540054
    n = 40
    est = wilson(0, n)
    assert est.point == 0.0 and est.low == 0.0
    assert est.high == pytest.approx(z * z / (n + z * z), rel=1e-12)


def test_ks_two_sample_basics():
    assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_two_sample([0.0], [1.0]) == 1.0
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_two_sample_symmetric_and_transform_invariant():
    rng = np.random.default_rng(10)
    a = rng.normal(size=300)
    b = rng.normal(0.4, 1.2, size=400)
    d1 = ks_two_sample(a, b)
    assert d1 == ks_two_sample(b, a)
    assert d1 == ks_two_sample(np.exp(a), np.exp(b))  # strictly increasing map


def test_ks_two_sample_same_law_is_small():
    rng = np.random.default_rng(11)
    a = rng.exponential(1.0, 10_000)
    b = rng.exponential(1.0, 10_000)
    assert ks_two_sample(a, b) < 0.02


def test_birth_death_blocking_corner():
    loss, blocking = birth_death_abandonment(OracleSpec(lam=1.0, mu=1.0, gamma=1.0))
    assert blocking == 0.5
    assert 0.0 < loss < 1.0


def test_birth_death_stationary_is_a_distribution():
    pi = birth_death_stationary(OracleSpec(lam=0.8, mu=1.0, gamma=0.5))
    assert abs(math.fsum(pi.tolist()) - 1.0) <= 1e-12
    assert (pi >= 0.0).all()


def test_birth_death_flow_balance():
    # abandonment fraction must equal 1 - served throughput / arrival rate
    for lam, mu, gamma in ((0.8, 1.0, 0.5), (1.2, 1.0, 1.0), (2.0, 0.7, 0.3)):
        spec = OracleSpec(lam=lam, mu=mu, gamma=gamma)
        pi = birth_death_stationary(spec)
        loss, _ = birth_death_abandonment(spec)
        served = mu * (1.0 - pi[0])
        assert loss == pytest.approx(1.0 - served / lam, abs=1e-10)


def test_birth_death_gamma_limit_approaches_blocking():
    lam, mu = 1.0, 1.0
    gaps = []
    for gamma in (1.0, 10.0, 100.0, 1000.0):
        loss, blocking = birth_death_abandonment(OracleSpec(lam=lam, mu=mu, gamma=gamma))
        gaps.append(abs(loss - blocking))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))  # monotone approach
    assert gaps[-1] < 2e-3


def test_birth_death_light_traffic_vanishes():
    loss, _ = birth_death_abandonment(OracleSpec(lam=1e-3, mu=1.0, gamma=1.0))
    assert loss < 1e-3


def test_birth_death_no_abandonment():
    loss, _ = birth_death_abandonment(OracleSpec(lam=0.5, mu=1.0, gamma=0.0))
    assert loss == 0.0
    with pytest.raises(TruncationError):
        birth_death_abandonment(OracleSpec(lam=1.0, mu=1.0, gamma=0.0))


def test_oracle_spec_validation():
    with pytest.raises(ValueError):
        OracleSpec(lam=0.0, mu=1.0)
    with pytest.raises(ValueError):
        OracleSpec(lam=1.0, mu=1.0, gamma=-0.1)
