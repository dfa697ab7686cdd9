"""Simulation and exact-sampling toolkit for queues with impatient customers.

Single- and multi-server queues where customers either abandon the queue at
a deadline (begin-of-service impatience) or leave even mid-service (end-of-
service impatience): workload recursions at arrival epochs, exact stationary
sampling by replaying from renovation epochs of a dominating monotone
recursion, loss-probability estimation with computable bounds, an
event-driven simulator for cross-validation, and birth-death oracles for the
memoryless special cases.
"""

__version__ = "0.1.0"

from .marks import (
    ConfigError,
    Deterministic,
    Discrete,
    Exponential,
    MarkSource,
    MarkTriple,
    StateMarginals,
    TruncatedExponential,
    Uniform,
    deterministic_source,
    iid_source,
    markov_source,
    source_from_config,
)
from .recursion import (
    D_ONLY,
    SIGMA_MIN_D,
    SIGMA_PLUS_D,
    CapabilityError,
    DepthExhaustedError,
    MarkWindowCache,
    ProbZero,
    RecursionSpec,
    RecursionValue,
    RenovationNotFoundError,
    ZeroCertificate,
    backward_supremum,
    certified_zero,
    coupling_time,
    loynes_backward,
    prob_zero_estimate,
    renovation_search,
    step,
)
from .fifo_begin import (
    StationarySample,
    exact_triple_at,
    fifo_step,
    find_renovation_epoch,
    forward_samples,
    loss_probability_begin,
    sample_stationary_w,
    sandwich_check,
)
from .fifo_end import (
    LoynesResult,
    compare_disciplines,
    end_step,
    exact_triple_end,
    find_renovation_epoch_end,
    forward_samples_end,
    loss_metrics_end,
    loynes_minimal,
    sample_stationary_s,
    sandwich_check_end,
)
from .des import (
    CustomerRecord,
    PathStatistics,
    RegenReport,
    Scenario,
    cross_validate_recursion,
    regeneration_stats,
    simulate,
    workload_before_arrivals,
)
from .cesaro import (
    EmpiricalMeasure,
    TightnessReport,
    boundary_mass,
    cesaro_distribution,
    invariance_distance,
    kolmogorov_distance,
    tightness_report,
)
from .estimation import (
    Estimate,
    LossReport,
    OracleSpec,
    TruncationError,
    birth_death_abandonment,
    birth_death_stationary,
    binomial_se,
    ks_two_sample,
    mc_aggregate,
    wilson,
)
