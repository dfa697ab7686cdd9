"""Pointwise inequality and inclusion suites.

These back both the property tests and the `props` CLI subcommand.  All the
single-step inequalities hold exactly in floating point (not just up to
rounding) because every compared pair is evaluated through expressions whose
orderings survive IEEE rounding; the suites therefore count strict
violations and the contract is zero.
"""

from __future__ import annotations

import numpy as np

from .des import Scenario, simulate_blocks
from .fifo import BEGIN, END
from .marks import Uniform, iid_source
from .recursion import clip, step_array


def _tuples(count: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 3.0, count)
    s = rng.uniform(0.0, 2.0, count)
    d = rng.uniform(0.0, 2.0, count)
    xi = rng.uniform(0.0, 2.0, count)
    return x, s, d, xi


def pointwise_inequality_suite(count: int = 100_000, seed: int = 20240811) -> dict[str, int]:
    """Violation counts for the five step-level inequalities.

    Each inequality is evaluated on `count` random tuples (x, sigma, dpat, xi)
    and again on the boundary states x in {0, dpat, dpat+sigma} for the same
    mark tuples.
    """
    x, s, d, xi = _tuples(count, seed)
    variants = (x, np.zeros_like(x), d.copy(), d + s)
    out = {
        "served_indicator_vs_envelope": 0,   # x + s*1{x<=d}  <=  x v (d+s)
        "end_inner_vs_capped_fifo": 0,       # end inner  <=  (x v d) ^ fifo inner
        "floor_vs_end_inner": 0,             # x v (d ^ s)  <=  end inner
        "step_envelope_sandwich": 0,         # step(s^d) <= fifo_step <= step(s+d)
        "end_step_vs_fifo_step": 0,          # end_step  <=  fifo_step
    }
    for xv in variants:
        fifo_in = BEGIN.inner(xv, s, d)
        end_in = END.inner(xv, s, d)
        out["served_indicator_vs_envelope"] += int(np.sum(fifo_in > np.maximum(xv, d + s)))
        out["end_inner_vs_capped_fifo"] += int(np.sum(end_in > np.minimum(np.maximum(xv, d), fifo_in)))
        out["floor_vs_end_inner"] += int(np.sum(np.maximum(xv, np.minimum(d, s)) > end_in))
        fifo_step = clip(fifo_in - xi)
        low = step_array(xv, np.minimum(s, d), xi)
        high = step_array(xv, s + d, xi)
        out["step_envelope_sandwich"] += int(np.sum(low > fifo_step) + np.sum(fifo_step > high))
        out["end_step_vs_fifo_step"] += int(np.sum(clip(end_in - xi) > fifo_step))
    return out


def step_monotonicity_violations(count: int = 100_000, seed: int = 20240812) -> int:
    """step is nondecreasing in the state, for every alpha kind."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 3.0, count)
    y = x + rng.uniform(0.0, 3.0, count)
    s = rng.uniform(0.0, 2.0, count)
    d = rng.uniform(0.0, 2.0, count)
    xi = rng.uniform(0.0, 2.0, count)
    bad = 0
    for alpha in (np.minimum(s, d), d, s + d):
        bad += int(np.sum(step_array(x, alpha, xi) > step_array(y, alpha, xi)))
    return bad


def end_case_table_mismatches(count: int = 100_000, seed: int = 20240813) -> int:
    """The compact end-model inner term vs its three-case form, exact equality.

    Case form by post-addition level: x+sigma below the capacity threshold,
    the plateau dpat while the deadline truncates, x untouched past it.  (At
    the corner x=0, sigma>dpat the added work is dpat, not sigma: the plateau
    case applies whenever sigma exceeds the remaining budget.)
    """
    x, s, d, _ = _tuples(count, seed)
    case = np.where((s <= d) & (x <= d - s), x + s, np.where(x <= d, d, x))
    return int(np.sum(case != END.inner(x, s, d)))


def des_inclusion_suite(seed: int = 20240814, customers: int = 4000) -> dict[str, int]:
    """Inclusion and sojourn-bound violations over a grid of bounded scenarios."""
    out = {}
    for model in ("begin", "end"):
        for servers in (1, 2, 4):
            src = iid_source(Uniform(0.0, 2.0), Uniform(0.0, 1.6), Uniform(0.0, 1.0),
                             seed=seed, stream=servers)
            stats = simulate_blocks(Scenario(servers=servers, impatience=model, source=src,
                                             horizon_customers=customers), lambda block: None)
            out[f"{model}_s{servers}_inclusion"] = stats.inclusion_violations
            out[f"{model}_s{servers}_sojourn"] = stats.sojourn_violations
    return out
