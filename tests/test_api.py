"""Pinned parameter names of every function renege exports.

Callers, and tools that bind arguments by name (epoch, mode, warmup,
samples), rely on them; many exports are the model-generic drivers of
renege.fifo bound to one model, whose signatures must match these."""

import inspect

import renege

PARAMETERS = {
    "binomial_se": ("p", "n"),
    "birth_death_abandonment": ("oracle",),
    "birth_death_stationary": ("oracle",),
    "boundary_mass": ("src", "n", "p", "model"),
    "cesaro_distribution": ("src", "n", "model"),
    "compare_disciplines": ("src", "horizon"),
    "coupling_time": ("spec", "src", "z1", "z2", "horizon"),
    "cross_validate_recursion": ("scn",),
    "deterministic_source": ("xi", "sigma", "dpat", "seed", "stream"),
    "end_step": ("s", "mark"),
    "fifo_step": ("w", "mark"),
    "forward_samples": ("src", "count", "warmup", "spacing", "with_marks"),
    "forward_samples_end": ("src", "count", "warmup", "spacing"),
    "iid_source": ("xi", "sigma", "dpat", "seed", "stream", "alpha_bound"),
    "invariance_distance": ("mu", "src", "model"),
    "kolmogorov_distance": ("a", "b"),
    "ks_two_sample": ("a", "b"),
    "loss_metrics_end": ("src", "samples", "mode", "max_epochs", "max_depth", "warmup"),
    "loss_probability_begin": ("src", "samples", "mode", "max_epochs", "max_depth", "warmup"),
    "markov_source": ("transition", "states", "seed", "stream", "alpha_bound"),
    "mc_aggregate": ("values", "kind"),
    "prob_zero_estimate": ("spec", "src", "replicas", "max_depth"),
    "regeneration_stats": ("scn", "sim", "replicas", "max_depth"),
    "sample_stationary_s": ("src", "warmup"),
    "sample_stationary_w": ("src", "warmup"),
    "simulate": ("scn",),
    "source_from_config": ("cfg",),
    "step": ("y", "mark", "spec"),
    "tightness_report": ("src", "n", "levels"),
    "wilson": ("successes", "n"),
    "workload_before_arrivals": ("records",),
}


def test_exported_function_parameters_are_unchanged():
    got = {name: tuple(inspect.signature(getattr(renege, name)).parameters)
           for name in PARAMETERS}
    assert got == PARAMETERS



# the scalar renovation search and what it served, now test oracles (tests/oracles.py)
MOVED = ("backward_supremum", "certified_zero", "exact_triple_at", "exact_triple_end",
         "find_renovation_epoch", "find_renovation_epoch_end", "loynes_backward",
         "loynes_minimal", "LoynesResult", "MarkWindowCache", "RecursionValue",
         "renovation_search", "sandwich_check", "sandwich_check_end", "ZeroCertificate")


def test_scalar_oracles_are_not_exported():
    assert [name for name in MOVED if hasattr(renege, name)] == []
