"""Single-server FIFO queue, impatience until the end of service.

Customers leave at their deadline even mid-service, so the work a customer
adds is sigma truncated to the patience budget left when it reaches the
server:

    S' = [ S + (sigma - (S + sigma - D)+)+ - xi ]+

whose inner term equals (S + sigma) ^ D when S <= D and S otherwise; that is
the form computed here (it is exact at the plateau D, where the naive
difference form drifts by one ulp).  The map is nondecreasing and continuous
in S, so both the plain backward scheme and renovation via the dominating
recursion with alpha = dpat apply; the two constructions cross-check each
other.

The drivers are the model-generic ones of renege.fifo bound to fifo.END.
Exact loss rows are (replica, Y(sigma^dpat), S, Y(dpat), sigma, D); the loss
report's pi_hat estimates P(S > D - sigma), the observing customer's service
cannot complete by its deadline, and pi_never_reach estimates P(S > D), it
never reaches the server at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import fifo
from .fifo import DEFAULT_WARMUP, END, compare_disciplines  # noqa: F401  (public names)
from .marks import MarkSource, MarkTriple
from .recursion import MarkWindowCache

find_renovation_epoch_end = partial(fifo.find_renovation_epoch, END)
exact_triple_end = partial(fifo.exact_triple, END)
sample_stationary_s = partial(fifo.sample_stationary, END)
sandwich_check_end = partial(fifo.sandwich_check, END)
exact_loss_rows_end = partial(fifo.exact_loss_rows, END)
loss_report_from_rows_end = partial(fifo.loss_report_from_rows, END)
loss_metrics_end = partial(fifo.loss_probability, END)


def end_step(s: float, mark: MarkTriple) -> float:
    """One arrival of the end-impatience workload; nondecreasing and
    1-Lipschitz in s."""
    return END.mark_step(s, mark)


def forward_samples_end(src: MarkSource, count: int, warmup: int = DEFAULT_WARMUP,
                        spacing: int = 1):
    """End-model analog of fifo_begin.forward_samples (values only)."""
    return fifo.forward_samples(END, src, count, warmup, spacing)


@dataclass(frozen=True)
class LoynesResult:
    """Minimal stationary solution as the limit of backward iterates from 0."""

    value: float
    depth: int
    converged: bool


def loynes_minimal(src: MarkSource, epoch: int = 0, max_depth: int = 1000,
                   cache: MarkWindowCache | None = None) -> LoynesResult:
    """Backward iterates of end_step from 0 at increasingly remote epochs.

    end_step is nondecreasing and continuous, so the iterates increase to the
    minimal stationary solution.  Iteration stops when two consecutive depths
    agree exactly (a heuristic, confirmed against renovation replay in tests),
    or reports converged=False at max_depth.  Each depth replays from scratch,
    O(max_depth^2) worst case; keep max_depth moderate.
    """
    if cache is None:
        cache = MarkWindowCache(src)
    (prev,), _ = fifo._advance(END, src, epoch - 1, epoch, (0.0,), cache)
    for k in range(2, max_depth + 1):
        (cur,), _ = fifo._advance(END, src, epoch - k, epoch, (0.0,), cache)
        if cur == prev:
            return LoynesResult(cur, k, True)
        prev = cur
    return LoynesResult(prev, max_depth, False)
