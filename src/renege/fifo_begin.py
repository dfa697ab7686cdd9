"""Single-server FIFO queue, impatience until the beginning of service.

The workload seen by arriving customers obeys

    W' = [ W + sigma * 1{W <= D} - xi ]+        (W = D counts as served)

which is not monotone in W, so the plain backward scheme does not apply.
Stationarity instead comes from domination: the monotone recursion with
alpha = sigma + dpat bounds W from above pathwise, every epoch where that
dominating value is certifiably 0 forces W = 0 there too, and replaying the
workload forward from such an epoch gives an exact draw of the unique
stationary workload (strong backwards coupling).  alpha = sigma ^ dpat
dominates from below, giving computable bounds on the loss probability
P(W > D).

The drivers are the model-generic ones of renege.fifo bound to fifo.BEGIN;
the columns of its exact loss rows (fifo.exact_rows) are replica,
Y(sigma^dpat), W, Y(sigma+dpat) and D.
"""

from __future__ import annotations

from functools import partial

from . import fifo
from .fifo import BEGIN, DEFAULT_WARMUP  # noqa: F401  (public names)

fifo_step = BEGIN.mark_step
sample_stationary_w = partial(fifo.sample_stationary, BEGIN)
forward_samples = partial(fifo.forward_samples, BEGIN)
loss_probability_begin = partial(fifo.loss_probability, BEGIN)
