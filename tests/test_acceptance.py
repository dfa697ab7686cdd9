"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed
PASS/FAIL line per criterion alongside the pytest verdicts.
"""

import time

import numpy as np

from renege import (
    Deterministic,
    Exponential,
    SIGMA_PLUS_D,
    Scenario,
    Uniform,
    binomial_se,
    cesaro_distribution,
    cross_validate_recursion,
    forward_samples,
    iid_source,
    invariance_distance,
    loss_metrics_end,
    loss_probability_begin,
    prob_zero_estimate,
    simulate,
)
from renege.fifo import BEGIN, END
from renege.properties import pointwise_inequality_suite

from oracles import (
    OracleSpec,
    birth_death_abandonment,
    compare_disciplines,
    coupling_time,
    exact_sample_rows,
    ks_two_sample,
    sandwich_check,
)


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _random_bounded_source(k: int, rng: np.random.Generator, seed_base: int = 8800):
    """Subcritical bounded scenario with randomized marginal ranges."""
    xi_lo = rng.uniform(0.4, 0.8)
    xi_hi = xi_lo + rng.uniform(0.4, 1.0)
    s_hi = rng.uniform(0.1, 0.7)
    d_hi = rng.uniform(0.1, 0.5)
    return iid_source(Uniform(xi_lo, xi_hi), Uniform(0.0, s_hi), Uniform(0.0, d_hi),
                      seed=seed_base + k)


def test_c01_mm1m_loss_matches_birth_death_oracle():
    details = []
    ok = True
    for lam, mu, gamma in ((0.8, 1.0, 0.5), (1.2, 1.0, 1.0)):
        oracle, _ = birth_death_abandonment(OracleSpec(lam=lam, mu=mu, gamma=gamma))
        src = iid_source(Exponential(lam), Exponential(mu), Exponential(gamma), seed=1001)
        t0 = time.perf_counter()
        rep = loss_probability_begin(src, 1_000_000, mode="approximate", warmup=100_000)
        dt = time.perf_counter() - t0
        tol = max(3.0 * binomial_se(rep.pi_hat.point, rep.pi_hat.n), 0.005)
        diff = abs(rep.pi_hat.point - oracle)
        ok = ok and diff <= tol and dt < 60.0
        details.append(f"(lam={lam},gamma={gamma}) |{rep.pi_hat.point:.5f}-{oracle:.5f}|"
                       f"={diff:.5f}<=tol {tol:.4f}, {dt:.1f}s")
    _criterion(1, ok, "; ".join(details))


def test_c02_gg11_reduction_zero_patience():
    src = iid_source(Exponential(1.0), Exponential(1.0), Deterministic(0.0), seed=1002)
    t0 = time.perf_counter()
    rep = loss_probability_begin(src, 1_000_000, mode="approximate", warmup=100_000)
    dt = time.perf_counter() - t0
    tol = max(3.0 * binomial_se(rep.pi_hat.point, rep.pi_hat.n), 0.005)
    diff = abs(rep.pi_hat.point - 0.5)
    _criterion(2, diff <= tol and dt < 60.0,
               f"P(W>0)={rep.pi_hat.point:.5f} vs 0.5, diff={diff:.5f}<=tol {tol:.4f}, {dt:.1f}s")


def test_c03_exact_sampling_matches_forward_simulation():
    src = iid_source(Uniform(0.5, 1.5), Uniform(0.0, 0.8), Uniform(0.0, 0.4), seed=30303)
    t0 = time.perf_counter()
    exact = np.array([row[1] for row in exact_sample_rows(BEGIN, src, 0, 10_000, 10_000,
                                                              10_000)])
    forward = forward_samples(src.substream(10_000_019), 10_000, warmup=100_000, spacing=10)
    dt = time.perf_counter() - t0
    d = ks_two_sample(exact, forward)
    _criterion(3, d < 0.02 and dt < 300.0, f"two-sample KS={d:.4f}<0.02, {dt:.1f}s")


def test_c04_sandwich_bounds_zero_violations():
    rng = np.random.default_rng(44)
    violations = 0
    for k in range(20):
        src = _random_bounded_source(k, rng)
        violations += sandwich_check(BEGIN, src, range(0, -50, -1), 10_000)
        violations += sandwich_check(END, src, range(0, -50, -1), 10_000)
    _criterion(4, violations == 0,
               f"{violations} violations over 2x1000 certified epochs in 20 scenarios")


def test_c05_loss_bound_bracketing():
    rng = np.random.default_rng(44)
    all_ok = True
    for k in range(20):
        src = _random_bounded_source(k, rng)
        rb = loss_probability_begin(src, 300, mode="exact")
        re = loss_metrics_end(src, 300, mode="exact")
        all_ok = all_ok and rb.bracket_ok and re.bracket_ok
        all_ok = all_ok and rb.lower_bound.point <= rb.pi_hat.point <= rb.upper_bound.point
        all_ok = all_ok and re.lower_bound.point <= re.pi_hat.point <= re.upper_bound.point
    _criterion(5, all_ok, "lower <= pi_hat <= upper in all 20 scenarios, both models")


def test_c06_pointwise_inequality_suites():
    suite = pointwise_inequality_suite(100_000)
    total = sum(suite.values())
    _criterion(6, total == 0,
               f"{total} violations across {len(suite)} inequalities x 4x100000 tuples "
               "(boundary states included)")


def test_c07_des_recursion_cross_validation():
    worst = 0.0
    for model in ("begin", "end"):
        src = iid_source(Uniform(0.5, 1.5), Uniform(0.0, 0.8), Uniform(0.0, 0.4),
                         seed=515151)
        disc = cross_validate_recursion(
            Scenario(servers=1, impatience=model, source=src, horizon_customers=10_000))
        worst = max(worst, disc)
    _criterion(7, worst <= 1e-9, f"max workload discrepancy {worst:.2e} <= 1e-9")


def test_c08_regenerativity_inclusions_and_sojourn_bounds():
    events = 0
    inclusion = 0
    sojourn = 0
    for model in ("begin", "end"):
        for servers in (1, 2, 4):
            src = _random_bounded_source(10 + servers, np.random.default_rng(servers))
            _, stats = simulate(Scenario(servers=servers, impatience=model, source=src,
                                         horizon_customers=20_000))
            events += stats.arrivals + sum(stats.outcome_counts.values())
            inclusion += stats.inclusion_violations
            sojourn += stats.sojourn_violations
    _criterion(8, events >= 100_000 and inclusion == 0 and sojourn == 0,
               f"{events} events, inclusion violations={inclusion}, "
               f"sojourn violations={sojourn}")


def test_c09_weak_stationarity_desk_case():
    src = iid_source(Deterministic(1.0), Deterministic(1.5), Deterministic(0.2), seed=1)
    mu = cesaro_distribution(src, 10_000, "begin")
    vals, masses = mu.grouped()
    target = {0.0: 0.5, 0.5: 0.5}
    tv = 0.5 * (sum(abs(masses[i] - target.get(v, 0.0)) for i, v in enumerate(vals.tolist()))
                + sum(p for v, p in target.items() if v not in vals.tolist()))
    inv = invariance_distance(mu, src)
    _criterion(9, tv <= 1e-3 and inv == 0.0,
               f"TV to (delta_0+delta_0.5)/2 = {tv:.2e} <= 1e-3, invariance distance {inv}")


def test_c10_coupling_on_certified_scenarios():
    rng = np.random.default_rng(99)
    coupled = 0
    for k in range(100):
        src = _random_bounded_source(k, rng, seed_base=7000)
        pz = prob_zero_estimate(SIGMA_PLUS_D, src, 20, 10_000)
        assert pz.exact and pz.estimate.point > 0.0, "scenario must certify P(Y=0)>0"
        _, sigma, dpat = src.window_arrays(0, 9_999)
        z_high = 10.0 * float((sigma + dpat).mean())
        # coupling_time verifies exact agreement to the horizon internally
        t = coupling_time(SIGMA_PLUS_D, src, 0.0, z_high, 100_000)
        coupled += t is not None
    _criterion(10, coupled == 100, f"{coupled}/100 scenarios coupled within 1e5 steps "
               "and agreed exactly to the horizon")


def test_c11_discipline_comparison():
    violations = 0
    ordering_ok = True
    for k in range(10):
        src = _random_bounded_source(k, np.random.default_rng(1234 + k))
        violations += compare_disciplines(src, 100_000)
        rb = loss_probability_begin(src, 400, mode="exact")
        re = loss_metrics_end(src, 400, mode="exact")
        slack = 3.0 * binomial_se(rb.pi_hat.point, 400)
        ordering_ok = ordering_ok and (re.pi_never_reach.point <= rb.pi_hat.point + slack)
    _criterion(11, violations == 0 and ordering_ok,
               f"pathwise S<=W violations={violations} over 10x100000 steps; "
               f"never-reach <= begin-model loss within 3 SE in all pairs")
