"""Spaced-epoch (non-iid) replica paths, exercised with a Markov source."""

import json

import pytest

from renege import (
    Scenario,
    StateMarginals,
    Uniform,
    loss_metrics_end,
    loss_probability_begin,
    markov_source,
    regeneration_stats,
    simulate,
)
from renege.cli import main
from renege.fifo import BEGIN

from oracles import exact_sample_rows, sample_stationary

MARKOV_CFG = {
    "kind": "markov", "seed": 909,
    "transition": [[0.9, 0.1], [0.4, 0.6]],
    "states": [
        {"xi": {"dist": "uniform", "low": 0.8, "high": 1.6},
         "sigma": {"dist": "uniform", "low": 0.0, "high": 0.5},
         "dpat": {"dist": "uniform", "low": 0.0, "high": 0.3}},
        {"xi": {"dist": "uniform", "low": 0.5, "high": 1.0},
         "sigma": {"dist": "uniform", "low": 0.0, "high": 0.7},
         "dpat": {"dist": "uniform", "low": 0.0, "high": 0.4}},
    ],
}


def _markov_src():
    states = tuple(
        StateMarginals(Uniform(s["xi"]["low"], s["xi"]["high"]),
                       Uniform(s["sigma"]["low"], s["sigma"]["high"]),
                       Uniform(s["dpat"]["low"], s["dpat"]["high"]))
        for s in MARKOV_CFG["states"])
    return markov_source(MARKOV_CFG["transition"], states, seed=MARKOV_CFG["seed"])


def test_markov_exact_loss_uses_spaced_epochs():
    src = _markov_src()
    rep_b = loss_probability_begin(src, 60, mode="exact", max_depth=200)
    assert rep_b.method == "renovation-exact"
    assert rep_b.lower_bound.point <= rep_b.pi_hat.point <= rep_b.upper_bound.point
    rep_e = loss_metrics_end(src, 60, mode="exact", max_depth=200)
    assert rep_e.lower_bound.point <= rep_e.pi_hat.point <= rep_e.upper_bound.point
    assert rep_e.pi_never_reach.point <= rep_e.pi_hat.point


def test_markov_exact_sampling_and_shift_equivalence():
    src = _markov_src()
    smp = sample_stationary(BEGIN, src, max_depth=200)
    assert smp.method == "renovation-exact" and smp.value >= 0.0
    # sampling after a shift equals sampling the shifted epoch directly: the
    # exact row of replica 1 at spacing 2*max_depth = 400 is the draw at epoch
    # 0 of src.shift(400)
    shifted = sample_stationary(BEGIN, src.shift(400), max_depth=200)
    assert exact_sample_rows(BEGIN, src, 1, 2, 10_000, 200) == [
        (1, shifted.value, "renovation-exact", shifted.renovation_epoch,
         shifted.certificate.depth)]


def test_markov_regen_report():
    scn = Scenario(servers=1, impatience="begin", source=_markov_src(),
                   horizon_customers=1500)
    _, stats = simulate(scn)
    report = regeneration_stats(scn, stats, replicas=30, max_depth=200)
    assert report.stats is stats
    assert report.p_zero_sufficient.exact
    assert report.stats.inclusion_violations == 0
    assert 0.0 <= report.p_zero_sufficient.estimate.point <= 1.0


@pytest.mark.parametrize("experiment", ["sample-w", "loss-begin"])
def test_markov_cli_paths(tmp_path, experiment):
    cfg = {"source": MARKOV_CFG, "run": {"mode": "exact", "samples": 30, "max_depth": 200}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for i, workers in enumerate((1, 2)):
        assert main([experiment, "--config", str(path), "--workers", str(workers),
                     "--out-dir", str(tmp_path / f"out{i}")]) == 0
    a = (tmp_path / "out0" / "summary.json").read_bytes()
    b = (tmp_path / "out1" / "summary.json").read_bytes()
    assert a == b  # worker count never changes results
