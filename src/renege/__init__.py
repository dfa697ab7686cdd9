"""Simulation and exact-sampling toolkit for queues with impatient customers.

Single- and multi-server queues where customers either abandon the queue at
a deadline (begin-of-service impatience) or leave even mid-service (end-of-
service impatience): workload recursions at arrival epochs, exact stationary
sampling by replaying from renovation epochs of a dominating monotone
recursion, loss-probability estimation with computable bounds, and an
s-server simulator for cross-validation.
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
    ProbZero,
    RecursionSpec,
    RenovationNotFoundError,
    prob_zero_estimate,
    step,
)
from .fifo_begin import (
    fifo_step,
    forward_samples,
    loss_probability_begin,
    sample_stationary_w,
)
from .fifo_end import (
    end_step,
    forward_samples_end,
    loss_metrics_end,
    sample_stationary_s,
)
from .des import (
    PathStatistics,
    RegenReport,
    Scenario,
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
    binomial_se,
    mc_aggregate,
    wilson,
)
