import json

import numpy as np
import pytest

from renege import (
    CapabilityError,
    D_ONLY,
    Discrete,
    MarkTriple,
    SIGMA_MIN_D,
    SIGMA_PLUS_D,
    Scenario,
    Uniform,
    cross_validate_recursion,
    deterministic_source,
    iid_source,
    regeneration_stats,
    simulate,
    step,
    workload_before_arrivals,
)
from renege import des
from renege.cli import main
from renege.des import SOJOURN_TIME_TOL, time_tolerance

BOUNDED = iid_source(Uniform(0.5, 1.5), Uniform(0.0, 0.8), Uniform(0.0, 0.4), seed=515151)
# short interarrivals: the dominated chain M (alpha = sigma ^ dpat) leaves 0 too
BUSY = iid_source(Uniform(0.1, 1.0), Uniform(0.0, 0.8), Uniform(0.0, 0.6), seed=525252)


def test_hand_timeline_stable_single_server():
    src = deterministic_source(1.0, 0.6, 0.3, seed=1)
    scn = Scenario(servers=1, impatience="begin", source=src, horizon_customers=20)
    records, stats = simulate(scn)
    assert stats.outcome_counts["served"] == 20
    assert stats.outcome_counts["abandoned_queue"] == 0
    assert stats.empty_epoch_count == 20  # every service completion empties
    assert stats.inclusion_violations == 0 and stats.sojourn_violations == 0
    for r in records:
        assert r.service_start == r.arrival
        assert r.departure == pytest.approx(r.arrival + 0.6)
    # X alternates 1 during service, 0 for the rest of each cycle
    assert stats.time_average_congestion == pytest.approx(0.6, abs=0.02)
    assert stats.l_zero_arrival_freq == 1.0  # 0.9 decays out within each cycle


def test_hand_timeline_end_model_aborts():
    src = deterministic_source(1.0, 1.5, 0.2, seed=1)
    scn = Scenario(servers=1, impatience="end", source=src, horizon_customers=15)
    records, stats = simulate(scn)
    assert stats.outcome_counts["aborted_in_service"] == 15
    assert stats.outcome_counts["served"] == 0
    for r in records:
        assert r.service_start == r.arrival  # server always free at arrivals
        assert r.departure == pytest.approx(r.arrival + 0.2)
    assert stats.inclusion_violations == 0 and stats.sojourn_violations == 0


def test_hand_timeline_two_servers_alternate():
    src = deterministic_source(1.0, 1.5, 10.0, seed=1)
    scn = Scenario(servers=2, impatience="begin", source=src, horizon_customers=12)
    records, stats = simulate(scn)
    assert stats.outcome_counts["served"] == 12
    assert stats.outcome_counts["abandoned_queue"] == 0
    for r in records:
        assert r.service_start == r.arrival  # a server is always free in time
    assert stats.inclusion_violations == 0 and stats.sojourn_violations == 0


def test_overloaded_deterministic_regenerates_without_sufficient_condition():
    src = deterministic_source(1.0, 1.5, 0.2, seed=1)  # sigma+dpat = 1.7 > xi
    scn = Scenario(servers=1, impatience="begin", source=src, horizon_customers=50)
    report = regeneration_stats(scn, replicas=20, max_depth=50)
    assert report.p_zero_sufficient.estimate.point == 0.0  # sufficient condition fails
    assert report.stats.empty_epoch_count > 0              # the path still empties
    assert report.p_zero_necessary.estimate.point == 1.0   # sigma^dpat = 0.2 < 1
    assert report.sufficient_alpha == "sigma_plus_d"


def test_regeneration_report_end_model(bounded_src):
    scn = Scenario(servers=2, impatience="end", source=bounded_src, horizon_customers=2000)
    _, stats = simulate(scn)
    report = regeneration_stats(scn, stats, replicas=50, max_depth=1000)
    assert report.stats is stats  # the statistics given are reported, not re-simulated
    again = regeneration_stats(scn, replicas=50, max_depth=1000)
    assert (report.p_zero_sufficient, report.p_zero_necessary) == \
        (again.p_zero_sufficient, again.p_zero_necessary)
    assert report.sufficient_alpha == "d_only"
    assert report.p_zero_sufficient.exact and report.p_zero_necessary.exact
    assert report.stats.inclusion_violations == 0


@pytest.mark.parametrize("model", ["begin", "end"])
@pytest.mark.parametrize("servers", [1, 2, 4])
def test_inclusions_and_sojourn_bounds(model, servers):
    scn = Scenario(servers=servers, impatience=model, source=BOUNDED.substream(servers),
                   horizon_customers=5000)
    records, stats = simulate(scn)
    assert stats.inclusion_violations == 0
    assert stats.sojourn_violations == 0
    assert stats.arrivals == sum(stats.outcome_counts.values())  # drained system
    if model == "begin":
        assert stats.outcome_counts["aborted_in_service"] == 0
    for r in records:
        if r.service_start is not None:
            assert r.service_start >= r.arrival
            if model == "begin":
                assert r.service_start <= r.arrival + r.dpat + 1e-9


def _chains(n, dominating):
    """L and M before each of the first n arrivals of BUSY, by recursion.step."""
    xi, sigma, dpat = BUSY.window_arrays(0, n - 1)
    l_chain, m_chain = np.zeros((2, n))
    for i in range(n - 1):
        mark = MarkTriple(xi[i], sigma[i], dpat[i])
        l_chain[i + 1] = step(l_chain[i], mark, dominating)
        m_chain[i + 1] = step(m_chain[i], mark, SIGMA_MIN_D)
    return l_chain, m_chain


def test_des_l_chain_matches_recursion_step():
    scn = Scenario(servers=3, impatience="begin", source=BUSY, horizon_customers=3000)
    _, stats = simulate(scn)
    l_chain, m_chain = _chains(3000, SIGMA_PLUS_D)
    assert np.count_nonzero(m_chain) > 100
    # continuous-time and arrival-recursion forms agree up to reassociation
    assert np.max(np.abs(stats.l_before - l_chain)) <= 1e-9
    assert np.max(np.abs(stats.m_before - m_chain)) <= 1e-9


def test_des_l_chain_matches_recursion_step_end_model():
    scn = Scenario(servers=2, impatience="end", source=BUSY, horizon_customers=2000)
    _, stats = simulate(scn)
    l_chain, m_chain = _chains(2000, D_ONLY)
    assert np.count_nonzero(m_chain) > 100
    assert np.max(np.abs(stats.l_before - l_chain)) <= 1e-9
    assert np.max(np.abs(stats.m_before - m_chain)) <= 1e-9


def test_cross_validation_examples():
    det = deterministic_source(1.0, 0.6, 0.3, seed=1)
    assert cross_validate_recursion(
        Scenario(servers=1, impatience="begin", source=det, horizon_customers=100)) == 0.0

    hard = deterministic_source(1.0, 1.5, 0.2, seed=1)
    assert cross_validate_recursion(
        Scenario(servers=1, impatience="end", source=hard, horizon_customers=100)) == 0.0

    for model in ("begin", "end"):
        disc = cross_validate_recursion(
            Scenario(servers=1, impatience=model, source=BOUNDED, horizon_customers=10_000))
        assert disc <= 1e-9


def test_cross_validation_with_batch_arrivals():
    batch = iid_source(Discrete((0.0, 2.0), (0.3, 0.7)), Uniform(0.0, 1.2), Uniform(0.0, 0.6),
                       seed=77)
    for model in ("begin", "end"):
        disc = cross_validate_recursion(
            Scenario(servers=1, impatience=model, source=batch, horizon_customers=5000))
        assert disc <= 1e-9


def test_cross_validation_requires_single_server():
    scn = Scenario(servers=2, impatience="begin", source=BOUNDED, horizon_customers=10)
    with pytest.raises(CapabilityError):
        cross_validate_recursion(scn)


def test_work_conservation_single_server_begin():
    scn = Scenario(servers=1, impatience="begin", source=BOUNDED, horizon_customers=2000)
    records, _ = simulate(scn)
    des_w = workload_before_arrivals(records)
    for r in records:
        if des_w[r.index] > 0.0:
            busy = any(k.service_start is not None and k.service_start <= r.arrival < k.departure
                       for k in records[:r.index])
            assert busy


def test_des_abandonment_matches_birth_death_oracle():
    # independent of the recursion path: the simulator's abandonment fraction
    # against the memoryless birth-death ground truth, plus Little's law
    import math
    from renege import Exponential

    from oracles import OracleSpec, birth_death_abandonment
    lam, mu, gamma = 0.8, 1.0, 0.5
    oracle, _ = birth_death_abandonment(OracleSpec(lam, mu, gamma))
    src = iid_source(Exponential(lam), Exponential(mu), Exponential(gamma), seed=2024)
    records, stats = simulate(Scenario(servers=1, impatience="begin", source=src,
                                       horizon_customers=100_000))
    frac = stats.outcome_counts["abandoned_queue"] / stats.arrivals
    assert abs(frac - oracle) <= 3.0 * math.sqrt(oracle * (1 - oracle) / stats.arrivals)
    mean_sojourn = sum(r.departure - r.arrival for r in records) / len(records)
    lam_emp = stats.arrivals / stats.horizon_time
    assert stats.time_average_congestion == pytest.approx(lam_emp * mean_sojourn, rel=0.02)


def test_scenario_validation(bounded_src):
    with pytest.raises(ValueError):
        Scenario(servers=0, impatience="begin", source=bounded_src, horizon_customers=5)
    with pytest.raises(ValueError):
        Scenario(servers=1, impatience="nope", source=bounded_src, horizon_customers=5)
    with pytest.raises(ValueError):
        Scenario(servers=1, impatience="end", source=bounded_src, horizon_customers=0)


def test_time_tolerance_scales_past_two_to_the_17():
    # below 2^17 the tolerance is 1e-9 itself, so no earlier file changes
    for t in (0.0, 5e-324, 1.0, 4402.5, np.nextafter(2.0 ** 17, 0.0)):
        assert time_tolerance(t) == SOJOURN_TIME_TOL
    for t in (2.0 ** 17, 1e6, 6.6e7, 1e15):
        assert SOJOURN_TIME_TOL < time_tolerance(t) == 64 * np.spacing(t) <= 2 ** -46 * t
    assert time_tolerance(np.array([1.0, 2.0 ** 20])).tolist() == [1e-9, 2.0 ** -26]


# the des benchmark workload's source with every time 10^4 times longer: at
# 20 000 customers the horizon is near 6.6e7, where an absolute 1e-9 is
# below the spacing of the times (1.5e-8)
SCALED = {"kind": "iid", "seed": 20084, "xi": {"dist": "exponential", "rate": 3e-4},
          "sigma": {"dist": "exponential", "rate": 1e-4},
          "dpat": {"dist": "exponential", "rate": 5e-5}}


def _scaled_run(tmp_path, experiment, servers):
    cfg = tmp_path / f"{experiment}.json"
    cfg.write_text(json.dumps({"source": SCALED, "model": {"servers": servers,
                                                           "impatience": "end"},
                               "run": {"customers": 20_000}}))
    out = tmp_path / experiment
    code = main([experiment, "--config", str(cfg), "--out-dir", str(out)])
    return code, json.loads((out / "summary.json").read_text())["results"]


def test_long_times_keep_the_sojourn_and_xval_contracts(tmp_path):
    # with the absolute 1e-9 both broke: 5994 sojourn violations at 4
    # servers, and a discrepancy of 3.8e-8 at one
    code, res = _scaled_run(tmp_path, "des", 4)
    assert code == 0 and res["sojourn_violations"] == res["inclusion_violations"] == 0
    code, res = _scaled_run(tmp_path, "xval", 1)
    assert code == 0 and res["contract_ok"] is True
    assert 1e-8 < res["max_discrepancy"] <= res["tolerance"] == time_tolerance(6.6e7) < 1e-6


def test_a_real_discrepancy_on_long_times_is_flagged(tmp_path, monkeypatch, capsys):
    # the DES workload off by 1e-6 times its arrival time at one customer of
    # each block
    work_before = des._work_before

    def off(records, latest):
        w, latest = work_before(records, latest)
        w[len(w) // 2] += 1e-6 * records.arrival[len(w) // 2]
        return w, latest

    monkeypatch.setattr(des, "_work_before", off)
    code, res = _scaled_run(tmp_path, "xval", 1)
    assert code == 4 and res["contract_ok"] is False
    assert res["max_discrepancy"] > 1e-6 * 6e7 / 2 > res["tolerance"]
    assert "DES/recursion discrepancy" in capsys.readouterr().err
