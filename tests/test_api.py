"""Pinned parameter names of every function renege exports.

Callers, and tools that bind arguments by name (epoch, mode, warmup,
samples), rely on them; many exports are the model-generic drivers of
renege.fifo bound to one model, whose signatures must match these."""

import inspect

import renege

PARAMETERS = {
    "backward_supremum": ("spec", "src", "epoch", "max_depth", "exact", "cache"),
    "binomial_se": ("p", "n"),
    "birth_death_abandonment": ("oracle",),
    "birth_death_stationary": ("oracle",),
    "boundary_mass": ("src", "n", "p", "model"),
    "certified_zero": ("spec", "src", "epoch", "max_depth", "cache"),
    "cesaro_distribution": ("src", "n", "model"),
    "compare_disciplines": ("src", "horizon"),
    "coupling_time": ("spec", "src", "z1", "z2", "horizon"),
    "cross_validate_recursion": ("scn",),
    "deterministic_source": ("xi", "sigma", "dpat", "seed", "stream"),
    "end_step": ("s", "mark"),
    "exact_triple_at": ("src", "epoch", "max_epochs", "max_depth", "cache"),
    "exact_triple_end": ("src", "epoch", "max_epochs", "max_depth", "cache"),
    "fifo_step": ("w", "mark"),
    "find_renovation_epoch": ("src", "max_epochs", "max_depth", "cache"),
    "find_renovation_epoch_end": ("src", "max_epochs", "max_depth", "cache"),
    "forward_samples": ("src", "count", "warmup", "spacing", "with_marks"),
    "forward_samples_end": ("src", "count", "warmup", "spacing"),
    "iid_source": ("xi", "sigma", "dpat", "seed", "stream", "alpha_bound"),
    "invariance_distance": ("mu", "src", "model"),
    "kolmogorov_distance": ("a", "b"),
    "ks_two_sample": ("a", "b"),
    "loss_metrics_end": ("src", "samples", "mode", "max_epochs", "max_depth", "warmup"),
    "loss_probability_begin": ("src", "samples", "mode", "max_epochs", "max_depth", "warmup"),
    "loynes_backward": ("spec", "src", "epoch", "depth", "cache"),
    "loynes_minimal": ("src", "epoch", "max_depth", "cache"),
    "markov_source": ("transition", "states", "seed", "stream", "alpha_bound"),
    "mc_aggregate": ("values", "kind"),
    "prob_zero_estimate": ("spec", "src", "replicas", "max_depth", "exact"),
    "regeneration_stats": ("scn", "sim", "replicas", "max_depth"),
    "renovation_search": ("spec", "src", "epoch", "max_epochs", "max_depth", "cache", "first"),
    "sample_stationary_s": ("src", "max_epochs", "max_depth", "mode", "warmup"),
    "sample_stationary_w": ("src", "max_epochs", "max_depth", "mode", "warmup"),
    "sandwich_check": ("src", "epochs", "max_depth", "max_epochs"),
    "sandwich_check_end": ("src", "epochs", "max_depth", "max_epochs"),
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

