import numpy as np
import pytest

from renege import (
    MarkTriple,
    binomial_se,
    deterministic_source,
    end_step,
    forward_samples_end,
    iid_source,
    loss_metrics_end,
    loss_probability_begin,
    sample_stationary_s,
)
from renege import fifo
from renege.fifo import END
from renege.recursion import MarkWindowCache

from oracles import (
    compare_disciplines,
    exact_loss_rows_end,
    exact_sample_rows,
    exact_triple,
    ks_two_sample,
    loynes_minimal,
    sample_stationary,
    sandwich_check,
)


def test_end_step_examples():
    assert end_step(3.0, MarkTriple(1.0, 4.0, 5.0)) == 4.0
    assert end_step(6.0, MarkTriple(2.0, 1.0, 5.0)) == 4.0
    assert end_step(0.0, MarkTriple(1.0, 0.5, 0.3)) == 0.0  # sigma^dpat <= xi
    for s in (-0.5, np.nan, np.inf):  # a state that is not finite and >= 0
        with pytest.raises(ValueError):
            end_step(s, MarkTriple(1.0, 1.0, 1.0))


def test_end_step_case_table_cases():
    # plenty of patience left: full service joins the workload
    assert end_step(1.0, MarkTriple(0.0, 2.0, 5.0)) == 3.0
    # partial: only the budget D - s fits
    assert end_step(4.0, MarkTriple(0.0, 2.0, 5.0)) == 5.0
    # no patience left on arrival: nothing joins
    assert end_step(6.0, MarkTriple(0.0, 2.0, 5.0)) == 6.0


def test_end_step_monotone_and_lipschitz():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        x = rng.uniform(0, 3)
        y = x + rng.uniform(0, 2)
        m = MarkTriple(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2))
        fx, fy = end_step(x, m), end_step(y, m)
        assert fx <= fy
        assert fy - fx <= (y - x) + 1e-12  # 1-Lipschitz up to float slack


def test_sample_stationary_s_examples():
    hard = deterministic_source(1.0, 1.5, 0.2, seed=3)
    smp = sample_stationary(END, hard)
    assert smp.value == 0.0 and smp.renovation_epoch == -1
    assert smp.certificate.depth == 1

    soft = deterministic_source(1.0, 0.6, 0.3, seed=3)
    assert exact_sample_rows(END, soft, 0, 1, 10_000, 10_000)[0][1] == 0.0
    assert sample_stationary_s(soft, warmup=100) == 0.0


def test_loynes_agrees_with_renovation(bounded_src):
    res = loynes_minimal(bounded_src, epoch=0, max_depth=500)
    smp = sample_stationary(END, bounded_src)
    assert res.converged
    assert res.value == smp.value

    for e in (-3, -11, 4):
        cache = MarkWindowCache(bounded_src)
        res = loynes_minimal(bounded_src, epoch=e, max_depth=500, cache=cache)
        _, s_exact, _ = exact_triple(END, bounded_src, e, 10_000, 10_000, cache)
        assert res.converged and res.value == s_exact


def test_loynes_iterates_nondecreasing(bounded_src):
    vals = [fifo._advance(fifo.END, bounded_src, -k, 0, (0.0,))[0][0] for k in range(1, 40)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_sandwich_end(bounded_src):
    assert sandwich_check(END, bounded_src, range(0, -100, -1), 10_000) == 0
    det = deterministic_source(1.0, 1.5, 0.2, seed=3)
    ym, s, yd = exact_triple(END, det, 0, 10, 10)
    assert (ym, s, yd) == (0.0, 0.0, 0.0)


def test_exact_vs_forward_distribution_end(bounded_src):
    exact = np.array([row[1] for row in
                      exact_sample_rows(END, bounded_src, 0, 2000, 10_000, 10_000)])
    forward = forward_samples_end(bounded_src.substream(977002), 2000,
                                  warmup=10_000, spacing=5)
    assert ks_two_sample(exact, forward) < 0.05


def test_loss_metrics_end_deterministic():
    # service longer than any patience: nobody completes, everybody reaches
    # the server (S stays 0)
    hard = deterministic_source(1.0, 1.5, 0.2, seed=3)
    rep = loss_metrics_end(hard, 20, mode="exact")
    assert rep.pi_hat.point == 1.0          # 0 > 0.2 - 1.5
    assert rep.pi_never_reach.point == 0.0  # 0 > 0.2 is false
    assert rep.lower_bound.point == 1.0 and rep.upper_bound.point == 1.0
    assert rep.bracket_ok

    soft = deterministic_source(1.0, 0.6, 0.3, seed=3)
    rep2 = loss_metrics_end(soft, 20, mode="exact")
    assert rep2.pi_hat.point == 1.0         # 0 > 0.3 - 0.6
    assert rep2.pi_never_reach.point == 0.0


def test_loss_rows_end_ordered(bounded_src):
    rows = exact_loss_rows_end(bounded_src, 0, 400, 10_000, 10_000)
    for _, ym, s, yd, _, _ in rows:
        assert ym <= s <= yd
    rep = loss_metrics_end(bounded_src, 400, mode="exact")
    assert rep.lower_bound.point <= rep.pi_hat.point <= rep.upper_bound.point
    assert rep.bracket_ok


def test_loss_metrics_end_approximate(bounded_src):
    rep = loss_metrics_end(bounded_src, 30_000, mode="approximate", warmup=5_000)
    assert rep.method == "forward-approximate"
    assert rep.lower_bound.point <= rep.pi_hat.point <= rep.upper_bound.point
    assert rep.pi_never_reach.point <= rep.pi_hat.point  # S > D implies S > D - sigma


def test_compare_disciplines_zero_violations(bounded_src):
    assert compare_disciplines(deterministic_source(1.0, 0.6, 0.3, seed=1), 100) == 0
    assert compare_disciplines(deterministic_source(1.0, 1.5, 0.2, seed=1), 100) == 0
    assert compare_disciplines(bounded_src, 100_000) == 0
    from renege import Exponential
    heavy = iid_source(Exponential(1.0), Exponential(0.8), Exponential(0.5), seed=17)
    assert compare_disciplines(heavy, 100_000) == 0


def test_never_reach_at_most_begin_loss(bounded_src):
    n = 600
    rep_b = loss_probability_begin(bounded_src, n, mode="exact")
    rep_e = loss_metrics_end(bounded_src, n, mode="exact")
    slack = 3.0 * binomial_se(rep_b.pi_hat.point, n)
    assert rep_e.pi_never_reach.point <= rep_b.pi_hat.point + slack
