"""Single-server FIFO queue, impatience until the end of service.

Customers leave at their deadline even mid-service, so the work a customer
adds is sigma truncated to the patience budget left when it reaches the
server:

    S' = [ S + (sigma - (S + sigma - D)+)+ - xi ]+

whose inner term equals (S + sigma) ^ D when S <= D and S otherwise; that is
the form computed here (it is exact at the plateau D, where the naive
difference form drifts by one ulp).  The map is nondecreasing and continuous
in S, so both the plain backward scheme and renovation via the dominating
recursion with alpha = dpat apply; the tests cross-check the two.

The drivers are the model-generic ones of renege.fifo bound to fifo.END.
The columns of its exact loss rows (fifo.exact_rows) are replica,
Y(sigma^dpat), S, Y(dpat), sigma and D; the loss report's pi_hat estimates
P(S > D - sigma), the observing customer's service cannot complete by its
deadline, and pi_never_reach estimates P(S > D), it never reaches the server
at all.
"""

from __future__ import annotations

from functools import partial

from . import fifo
from .fifo import DEFAULT_WARMUP, END  # noqa: F401  (public names)
from .marks import MarkTriple

sample_stationary_s = partial(fifo.sample_stationary, END)
forward_samples_end = partial(fifo.forward_samples, END)
loss_metrics_end = partial(fifo.loss_probability, END)


def end_step(s: float, mark: MarkTriple) -> float:
    """One arrival of the end-impatience workload; nondecreasing and
    1-Lipschitz in s."""
    return END.mark_step(s, mark)
