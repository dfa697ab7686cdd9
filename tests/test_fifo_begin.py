import numpy as np
import pytest

from renege import (
    MarkTriple,
    RenovationNotFoundError,
    SIGMA_PLUS_D,
    Deterministic,
    Uniform,
    deterministic_source,
    fifo_step,
    forward_samples,
    iid_source,
    loss_probability_begin,
    sample_stationary_w,
)
from renege import fifo
from renege.fifo import BEGIN, exact_sample_rows
from renege.fifo_begin import exact_loss_rows
from renege.recursion import MarkWindowCache

import oracles
from oracles import backward_supremum, exact_triple, ks_two_sample, sandwich_check

DET_STABLE = deterministic_source(1.0, 0.6, 0.3, seed=2)


def test_fifo_step_examples():
    assert fifo_step(3.0, MarkTriple(1.0, 2.0, 5.0)) == 4.0
    assert fifo_step(3.0, MarkTriple(4.0, 2.0, 2.0)) == 0.0
    assert fifo_step(0.0, MarkTriple(1.0, 0.5, 7.0)) == 0.0
    # boundary: w exactly equal to the patience counts as served
    assert fifo_step(2.0, MarkTriple(0.0, 1.0, 2.0)) == 3.0
    with pytest.raises(ValueError):
        fifo_step(-1e-9, MarkTriple(1.0, 1.0, 1.0))


def find_renovation_epoch(src, max_epochs, max_depth, cache=None):
    return oracles.find_renovation_epoch(BEGIN, src, max_epochs, max_depth, cache)


def test_find_renovation_epoch_deterministic():
    epoch, cert = find_renovation_epoch(DET_STABLE, 10, 10)
    assert epoch == -1 and cert.depth == 1 and cert.epoch == -1

    overloaded = deterministic_source(1.0, 1.4, 0.3, seed=2)  # sigma+dpat = 1.7
    with pytest.raises(RenovationNotFoundError):
        find_renovation_epoch(overloaded, 500, 100)


def test_find_renovation_epoch_dominated_iid():
    src = iid_source(Deterministic(1.0), Uniform(0.0, 0.25), Uniform(0.0, 0.25), seed=9)
    epoch, cert = find_renovation_epoch(src, 10, 10)
    assert epoch == -1 and cert.depth == 1


def test_sample_stationary_w_examples():
    smp = oracles.sample_stationary(BEGIN, DET_STABLE)
    assert smp.value == 0.0 and smp.method == "renovation-exact"
    assert smp.renovation_epoch == -1 and smp.certificate.epoch == -1
    assert exact_sample_rows(BEGIN, DET_STABLE, 0, 1, 10_000, 10_000) == \
        [(0, 0.0, "renovation-exact", -1, 1)]

    eager = deterministic_source(1.0, 0.4, 2.0, seed=3)
    approx = sample_stationary_w(eager, warmup=50)
    assert approx == 0.0


def test_exact_sample_stability(bounded_src):
    epoch, _ = find_renovation_epoch(bounded_src, 10_000, 10_000)
    (w_near,), _ = fifo._advance(fifo.BEGIN, bounded_src, epoch, 0, (0.0,))
    # replaying from any deeper certified epoch gives the identical draw
    deeper = bounded_src.shift(epoch)
    e2, _ = find_renovation_epoch(deeper, 10_000, 10_000)
    (w_deep,), _ = fifo._advance(fifo.BEGIN, bounded_src, epoch + e2, 0, (0.0,))
    assert epoch + e2 < epoch
    assert w_deep == w_near


def test_renovation_correctness_forward_coupling(bounded_src):
    cache = MarkWindowCache(bounded_src)
    epoch, _ = find_renovation_epoch(bounded_src, 10_000, 10_000, cache)
    start = epoch - 30
    y_start = backward_supremum(SIGMA_PLUS_D, bounded_src, start, 10_000, cache=cache).value
    xi, sigma, dpat = bounded_src.window_arrays(start, -1)
    marks = list(zip(xi.tolist(), sigma.tolist(), dpat.tolist()))
    for z in (0.0, 0.5 * y_start, y_start):
        w, w0 = z, 0.0
        hit_zero_at_epoch = False
        for k, (x, s, d) in enumerate(marks):
            idx = start + k
            if idx == epoch:
                hit_zero_at_epoch = w == 0.0
            w = fifo_step(w, MarkTriple(x, s, d))
            w0 = fifo_step(w0, MarkTriple(x, s, d))
        assert hit_zero_at_epoch
        assert w == w0  # strong backwards coupling: all starts below Y agree


def test_sandwich_examples(bounded_src):
    cache = MarkWindowCache(DET_STABLE)
    ym, w, yp = exact_triple(BEGIN, DET_STABLE, 0, 10, 10, cache)
    assert (ym, w, yp) == (0.0, 0.0, 0.0)

    dominated = iid_source(Deterministic(1.0), Uniform(0.0, 0.25), Uniform(0.0, 0.25), seed=9)
    assert sandwich_check(BEGIN, dominated, range(0, -20, -1), 100) == 0

    assert sandwich_check(BEGIN, bounded_src, range(0, -100, -1), 10_000) == 0


def test_exact_w_matches_triple(bounded_src):
    # W of the triple at e is the exact draw at epoch 0 of the source shifted
    # by e, whose search starts one epoch further back
    cache = MarkWindowCache(bounded_src)
    for e in range(0, -25, -1):
        w = exact_triple(BEGIN, bounded_src, e, 10_000, 10_000, cache)[1]
        assert w == oracles.sample_stationary(BEGIN, bounded_src.shift(e)).value


def test_forward_samples_manual_orbit():
    cyc = deterministic_source(1.0, 1.5, 0.2, seed=4)
    vals = forward_samples(cyc, 4, warmup=0, spacing=1)
    assert vals.tolist() == [0.0, 0.5, 0.0, 0.5]
    spaced = forward_samples(cyc, 3, warmup=1, spacing=2)
    assert spaced.tolist() == [0.5, 0.5, 0.5]


def test_exact_vs_forward_distribution(bounded_src):
    exact = np.array([row[1] for row in
                      exact_sample_rows(BEGIN, bounded_src, 0, 2000, 10_000, 10_000)])
    forward = forward_samples(bounded_src.substream(977001), 2000, warmup=10_000, spacing=5)
    assert ks_two_sample(exact, forward) < 0.05


def test_loss_probability_deterministic_zero():
    rep = loss_probability_begin(DET_STABLE, 50, mode="exact")
    assert rep.pi_hat.point == 0.0
    assert rep.lower_bound.point == 0.0 and rep.upper_bound.point == 0.0
    assert rep.bracket_ok and rep.method == "renovation-exact"


def test_loss_rows_are_pathwise_ordered(bounded_src):
    rows = exact_loss_rows(bounded_src, 0, 400, 10_000, 10_000)
    for _, ym, w, yp, d in rows:
        assert ym <= w <= yp
    rep = loss_probability_begin(bounded_src, 400, mode="exact")
    assert rep.lower_bound.point <= rep.pi_hat.point <= rep.upper_bound.point
    assert rep.bracket_ok


def test_positive_service_fraction(bounded_src):
    rows = exact_loss_rows(bounded_src, 0, 300, 10_000, 10_000)
    assert sum(w <= d for _, _, w, _, d in rows) > 0


def test_loss_probability_mm11_corner():
    # zero patience, lam = mu = 1: every arrival finding work is lost; the
    # long-run loss fraction is rho/(1+rho) = 1/2
    from renege import Exponential
    src = iid_source(Exponential(1.0), Exponential(1.0), Deterministic(0.0), seed=31)
    rep = loss_probability_begin(src, 200_000, mode="approximate", warmup=20_000)
    assert rep.method == "forward-approximate"
    assert rep.pi_hat.point == pytest.approx(0.5, abs=0.01)
    assert rep.lower_bound.point <= rep.pi_hat.point <= rep.upper_bound.point


def test_approximate_loss_bracket(bounded_src):
    rep = loss_probability_begin(bounded_src, 50_000, mode="approximate", warmup=5_000)
    assert rep.lower_bound.point <= rep.pi_hat.point <= rep.upper_bound.point
    assert rep.bracket_ok
