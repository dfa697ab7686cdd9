import math

import numpy as np
import pytest

from renege import (
    EmpiricalMeasure,
    Exponential,
    boundary_mass,
    cesaro_distribution,
    deterministic_source,
    iid_source,
    invariance_distance,
    kolmogorov_distance,
    source_from_config,
    tightness_report,
)
from renege.cesaro import _PUSH_STREAM
from renege.fifo import BEGIN, MODELS
from renege.recursion import y_path

from test_golden import BOUNDED, MARKOV

PERIOD2 = deterministic_source(1.0, 1.5, 0.2, seed=6)   # orbit 0 -> 0.5 -> 0
FIXED = deterministic_source(1.0, 0.6, 0.3, seed=6)     # fixed point 0
DOMINATED = deterministic_source(1.0, 0.2, 0.1, seed=6)


def test_cesaro_period_two_orbit():
    mu = cesaro_distribution(PERIOD2, 10, "begin")
    vals, masses = mu.grouped()
    assert vals.tolist() == [0.0, 0.5]
    assert masses.tolist() == [0.5, 0.5]


def test_cesaro_fixed_point_is_point_mass():
    mu = cesaro_distribution(FIXED, 50, "begin")
    vals, masses = mu.grouped()
    assert vals.tolist() == [0.0] and masses.tolist() == [1.0]
    mu1 = cesaro_distribution(DOMINATED, 1, "begin")
    assert mu1.values.tolist() == [0.0]


def test_invariance_distance_examples():
    mu = cesaro_distribution(PERIOD2, 10, "begin")
    assert invariance_distance(mu, PERIOD2) == 0.0

    delta0 = EmpiricalMeasure(values=np.zeros(4), model="begin")
    assert invariance_distance(delta0, DOMINATED) == 0.0
    # the period-2 map sends 0 to 0.5, so delta_0 is half a cycle off
    assert invariance_distance(delta0, PERIOD2) == 0.5


def test_replica_mode_cross_check(bounded_src):
    # the mixture matched literally: n independent trajectories, trajectory i
    # contributing its step-i state, O(n^2) steps
    n = 60
    traj = cesaro_distribution(bounded_src, n, "begin")
    values = np.array([BEGIN.w_path(0.0, *bounded_src.substream(i).window_arrays(0, i - 1))[-1]
                       for i in range(1, n + 1)])
    repl = EmpiricalMeasure(values=values, model="begin")
    assert kolmogorov_distance(traj, repl) < 0.25  # both estimate the same mixture


def _path(src, n):
    return cesaro_distribution(src, n, "begin")


def test_tightness_quantiles_ordered(bounded_src):
    rep = tightness_report(_path(bounded_src, 20_000), bounded_src)
    assert rep.ordered_ok
    assert all(a <= b for a, b in zip(rep.w_quantiles, rep.l_quantiles))
    dom = tightness_report(_path(DOMINATED, 100), DOMINATED)
    assert dom.w_quantiles == dom.l_quantiles == (0.0,) * len(dom.levels)
    # with xi >= 0.5 a.s. and sigma+dpat <= 1.2 a.s., the dominating value is
    # capped at 1.2 - 0.5, which caps every workload quantile too
    cap = bounded_src.alpha_bound_for("sigma_plus_d") - 0.5
    assert max(rep.w_quantiles) <= cap and max(rep.l_quantiles) <= cap


def test_pathwise_domination_along_trajectory(bounded_src):
    # the tightness report relies on W <= L pathwise; recompute directly
    xi, sigma, dpat = bounded_src.window_arrays(0, 5000)
    w = lv = 0.0
    for x, s, d in zip(xi.tolist(), sigma.tolist(), dpat.tolist()):
        inner = w + s if w <= d else w
        w = max(inner - x, 0.0)
        lv = max(max(lv, s + d) - x, 0.0)
        assert w <= lv


def test_boundary_mass_examples(bounded_src):
    for p in (2, 5, 10):
        assert boundary_mass(_path(PERIOD2, 100), PERIOD2, p) == 0.0
    assert boundary_mass(_path(DOMINATED, 100), DOMINATED, 3) == 0.0
    edge = deterministic_source(1.0, 1.5, 0.25, seed=6)  # orbit 0 -> 0.5 = d + 2^-2 -> 0
    assert boundary_mass(_path(edge, 100), edge, 2) == 0.0  # the interval is open
    assert boundary_mass(_path(edge, 100), edge, 1) == 0.5
    n = 40_000
    mu = _path(bounded_src, n)
    wide = boundary_mass(mu, bounded_src, 1)
    narrow = boundary_mass(mu, bounded_src, 10)
    se = 2.0 * math.sqrt(max(wide, 1e-6) / n)
    assert narrow <= wide + se


def test_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(values=np.array([-1.0]), model="begin")
    with pytest.raises(ValueError):
        EmpiricalMeasure(values=np.array([]), model="begin")


def _fsum_masses(values, weights):
    """(unique sorted values, per-value masses), each mass the math.fsum of
    its atoms' weights."""
    order = np.argsort(values, kind="mergesort")
    v, w = values[order], weights[order]
    uniq, starts = np.unique(v, return_index=True)
    bounds = [*starts.tolist(), v.size]
    return uniq, np.array([math.fsum(w[a:b].tolist()) for a, b in zip(bounds, bounds[1:])])


def test_grouped_masses_equal_the_fsum_masses():
    # k * (1/n) is one IEEE multiply of exact operands, so it rounds the exact
    # sum of k copies of 1/n as fsum does; the mixture's atoms weigh
    # (1/n) * 0.5 = 1/(2n) exactly
    src = iid_source(Exponential(0.9), Exponential(1.0), Exponential(0.5), seed=20083)
    n = 200_000
    mu = cesaro_distribution(src, n, "begin")
    pushed = BEGIN.step_array(mu.values, *src.substream(_PUSH_STREAM).window_arrays(0, n - 1))
    half = EmpiricalMeasure(values=np.concatenate([mu.values, pushed]), model="begin")
    for measure, weights in ((mu, np.full(n, 1.0 / n)),
                             (half, np.concatenate([mu.weights, mu.weights]) * 0.5)):
        assert measure.weights.tolist() == weights.tolist()
        (got_v, got_m), (want_v, want_m) = measure.grouped(), _fsum_masses(measure.values, weights)
        assert np.unique(got_m).size > 1  # atoms of several multiplicities
        assert [v.hex() for v in got_v.tolist()] == [v.hex() for v in want_v.tolist()]
        assert [m.hex() for m in got_m.tolist()] == [m.hex() for m in want_m.tolist()]


def test_kolmogorov_distance_weighted():
    a = EmpiricalMeasure(values=np.array([0.0]), model="begin")
    b = EmpiricalMeasure(values=np.array([1.0]), model="begin")
    assert kolmogorov_distance(a, b) == 1.0
    assert kolmogorov_distance(a, a) == 0.0


def test_end_model_trajectory():
    mu = cesaro_distribution(PERIOD2, 10, "end")
    # end model with sigma=1.5 > dpat=0.2: inner caps at 0.2, decays to 0
    vals, masses = mu.grouped()
    assert vals.tolist() == [0.0] and masses.tolist() == [1.0]


def old_boundary_mass(src, n, p, model):
    """boundary_mass as it was, on its own walk of W over the window 0..n."""
    xi, sigma, dpat = src.window_arrays(0, n)
    w = np.array(MODELS[model].w_path(0.0, xi[:n], sigma[:n], dpat[:n]))
    d = dpat[1:]
    return int(np.count_nonzero((d < w) & (w < d + 2.0 ** (-p)))) / n


def old_tightness_quantiles(src, n, levels):
    """tightness_report's quantiles as they were, on their own walk of W."""
    xi, sigma, dpat = src.window_arrays(0, n - 1)
    w_traj = BEGIN.w_path(0.0, xi, sigma, dpat)
    l_traj = y_path(0.0, BEGIN.dominating.alpha_array(sigma, dpat), xi)
    return [float(q) for q in np.quantile(w_traj, levels)], \
        [float(q) for q in np.quantile(l_traj, levels)]


ONE_WALK = {"iid": source_from_config(BOUNDED), "markov": source_from_config(MARKOV),
            "deterministic": deterministic_source(1.0, 1.5, 0.25, seed=6)}


@pytest.mark.parametrize("kind", sorted(ONE_WALK))
@pytest.mark.parametrize("n", [1, 777, 20_011])  # no chunk size divides them
def test_one_walk_matches_the_whole_window_walks(kind, n):
    # boundary_mass and tightness_report read the path of cesaro_distribution
    # and give, bit for bit, what their own walks gave
    src, levels = ONE_WALK[kind], (0.0, 0.5, 0.9, 0.999, 1.0)
    for model in sorted(MODELS):
        mu = cesaro_distribution(src, n, model)
        for p in (1, 3, 10):
            assert boundary_mass(mu, src, p).hex() == old_boundary_mass(src, n, p, model).hex()
    rep = tightness_report(cesaro_distribution(src, n, "begin"), src, levels)
    wq, lq = old_tightness_quantiles(src, n, levels)
    assert [q.hex() for q in rep.w_quantiles] == [q.hex() for q in wq]
    assert [q.hex() for q in rep.l_quantiles] == [q.hex() for q in lq]


def test_tightness_needs_the_begin_path():
    with pytest.raises(ValueError, match="begin"):
        tightness_report(cesaro_distribution(PERIOD2, 10, "end"), PERIOD2)
