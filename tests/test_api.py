"""Pinned names renege exports, and the parameter names of its functions.

Callers, and tools that bind arguments by name (epoch, mode, warmup,
samples), rely on them; many exports are the model-generic drivers of
renege.fifo bound to one model, whose signatures must match these."""

import importlib
import inspect
import pkgutil
import types

import numpy as np

import renege

# every public name of the package that is not a module: a new export, or one
# removed without a named API change, fails test_exported_names_are_pinned
EXPORTS = frozenset({
    "CapabilityError", "ConfigError", "CustomerRecord", "D_ONLY", "DepthExhaustedError",
    "Deterministic", "Discrete", "EmpiricalMeasure", "Estimate", "Exponential", "LossReport",
    "MarkSource", "MarkTriple", "PathStatistics", "ProbZero", "RecursionSpec", "RegenReport",
    "RenovationNotFoundError", "SIGMA_MIN_D", "SIGMA_PLUS_D", "Scenario", "StateMarginals",
    "TightnessReport", "TruncatedExponential", "Uniform", "binomial_se", "boundary_mass",
    "cesaro_distribution", "cross_validate_recursion", "deterministic_source", "end_step",
    "fifo_step", "forward_samples", "forward_samples_end", "iid_source", "invariance_distance",
    "kolmogorov_distance", "loss_metrics_end", "loss_probability_begin", "markov_source",
    "mc_aggregate", "prob_zero_estimate", "regeneration_stats", "sample_stationary_s",
    "sample_stationary_w", "simulate", "source_from_config", "step", "tightness_report",
    "wilson", "workload_before_arrivals",
})


def test_exported_names_are_pinned():
    got = {name for name, value in vars(renege).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(EXPORTS) == 51
    assert got == EXPORTS

PARAMETERS = {
    "binomial_se": ("p", "n"),
    "boundary_mass": ("mu", "src", "p"),
    "cesaro_distribution": ("src", "n", "model"),
    "cross_validate_recursion": ("scn",),
    "deterministic_source": ("xi", "sigma", "dpat", "seed", "stream"),
    "end_step": ("s", "mark"),
    "fifo_step": ("w", "mark"),
    "forward_samples": ("src", "count", "warmup", "spacing"),
    "forward_samples_end": ("src", "count", "warmup", "spacing"),
    "iid_source": ("xi", "sigma", "dpat", "seed", "stream"),
    "invariance_distance": ("mu", "src"),
    "kolmogorov_distance": ("a", "b"),
    "loss_metrics_end": ("src", "samples", "mode", "max_epochs", "max_depth", "warmup"),
    "loss_probability_begin": ("src", "samples", "mode", "max_epochs", "max_depth", "warmup"),
    "markov_source": ("transition", "states", "seed", "stream"),
    "mc_aggregate": ("values", "kind"),
    "prob_zero_estimate": ("spec", "src", "replicas", "max_depth"),
    "regeneration_stats": ("scn", "sim", "replicas", "max_depth"),
    "sample_stationary_s": ("src", "warmup"),
    "sample_stationary_w": ("src", "warmup"),
    "simulate": ("scn",),
    "source_from_config": ("cfg",),
    "step": ("y", "mark", "spec"),
    "tightness_report": ("mu", "src", "levels"),
    "wilson": ("successes", "n"),
    "workload_before_arrivals": ("records",),
}


def test_exported_function_parameters_are_unchanged():
    got = {name: tuple(inspect.signature(getattr(renege, name)).parameters)
           for name in PARAMETERS}
    assert got == PARAMETERS


def test_aggregation_kind_is_required():
    # no "auto" kind: each caller names binary or real data
    kind = inspect.signature(renege.mc_aggregate).parameters["kind"]
    assert kind.default is inspect.Parameter.empty


# now test oracles (tests/oracles.py): the scalar renovation search and what it
# served; then the checks and ground truths only tests called (coalescence, the
# begin/end comparison, the non-monotonicity witness, the birth-death chain and
# the two-sample KS statistic)
MOVED = ("backward_supremum", "certified_zero", "exact_triple_at", "exact_triple_end",
         "find_renovation_epoch", "find_renovation_epoch_end", "loynes_backward",
         "loynes_minimal", "LoynesResult", "MarkWindowCache", "RecursionValue",
         "renovation_search", "sandwich_check", "sandwich_check_end", "ZeroCertificate",
         "coupling_time", "compare_disciplines", "fifo_nonmonotonicity_witness", "OracleSpec",
         "TruncationError", "birth_death_stationary", "birth_death_abandonment", "ks_two_sample")


def test_scalar_oracles_are_not_exported():
    assert [name for name in MOVED if hasattr(renege, name)] == []


def test_moved_names_are_not_defined_in_the_package():
    # MarkWindowCache stays in recursion: the benchmark tracer wraps its range method there
    modules = [importlib.import_module(f"renege.{m.name}")
               for m in pkgutil.iter_modules(renege.__path__)]
    assert [(m.__name__, name) for m in modules for name in MOVED
            if hasattr(m, name)] == [("renege.recursion", "MarkWindowCache")]


# fields and records with one value or no reader, deleted
REMOVED = ("StationarySample",)


def test_removed_names_are_not_exported():
    assert [name for name in REMOVED if hasattr(renege, name)] == []
    assert not {"l_zero_freq", "m_zero_freq"} & set(renege.RegenReport.__dataclass_fields__)
    assert "replicas" not in renege.ProbZero.__dataclass_fields__


def test_measure_steps_are_its_points():
    # n_steps is read from the values, not set beside them
    assert tuple(inspect.signature(renege.EmpiricalMeasure).parameters) == ("values", "model")
    assert renege.EmpiricalMeasure(values=np.zeros(3), model="begin").n_steps == 3
