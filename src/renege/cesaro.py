"""Empirical stand-ins for the averaged (weakly stationary) workload law.

When no renovation structure is available the workload started from 0 still
admits a stationary law in the averaged sense: the uniform mixture of the
first n step laws converges along subsequences, being tight under the
dominating recursion.  This module estimates that mixture as the occupation
measure of a trajectory, measures how close a measure is to one-step
invariance, reports tightness via quantiles against the dominating sequence,
and tracks the mass the trajectory puts just above the patience mark, which
is the quantity whose vanishing drives the continuity argument.  A measure
is n equal atoms, one per sample point, so each distinct value's mass is its
count times 1/n; the trajectory's measure holds the path itself, which the
boundary mass and the tightness report read instead of walking it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fifo import BEGIN, MODELS, Model, forward_samples
from .marks import MarkSource
from .recursion import y_path

_PUSH_STREAM = 0x70757368  # dedicated substream for pushforward marks


def _model(name: str) -> Model:
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}")
    return MODELS[name]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Sample points of equal mass 1/n, n = values.size = n_steps."""

    values: np.ndarray
    model: str

    def __post_init__(self):
        if self.values.size == 0:
            raise ValueError("values must be nonempty")
        if np.any(self.values < 0.0):
            raise ValueError("values must be >= 0")

    @property
    def n_steps(self) -> int:
        return self.values.size

    @property
    def weights(self) -> np.ndarray:
        """Each point's mass, 1/n."""
        return np.full(self.values.size, 1.0 / self.values.size)

    def grouped(self) -> tuple[np.ndarray, np.ndarray]:
        """(unique sorted values, per-value masses): k atoms weigh k * (1/n),
        one IEEE multiply of exact operands, which is the correctly rounded sum
        of k copies of 1/n (math.fsum's)."""
        uniq, counts = np.unique(self.values, return_counts=True)
        return uniq, counts * (1.0 / self.values.size)


def kolmogorov_distance(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """sup_x |F_a(x) - F_b(x)| for atomic measures."""
    (va, ma), (vb, mb) = a.grouped(), b.grouped()
    pooled = np.union1d(va, vb)
    ia, ib = np.searchsorted(va, pooled, side="right"), np.searchsorted(vb, pooled, side="right")
    fa = np.where(ia > 0, np.cumsum(ma)[ia - 1], 0.0)
    fb = np.where(ib > 0, np.cumsum(mb)[ib - 1], 0.0)
    return float(np.abs(fa - fb).max())


def cesaro_distribution(src: MarkSource, n: int, model: str) -> EmpiricalMeasure:
    """Uniform mixture of the laws of the first n workload states from 0,
    realized as the occupation measure of a single trajectory (ergodic
    surrogate): values are w_1..w_n in order, the path that boundary_mass and
    tightness_report read, walked a window at a time by fifo.forward_samples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    values = forward_samples(_model(model), src, n, warmup=1)  # seen by customers 1..n
    return EmpiricalMeasure(values=values, model=model)


def invariance_distance(mu: EmpiricalMeasure, src: MarkSource) -> float:
    """Distance of mu from one-step invariance under the random map of its model.

    Each sample point is pushed one step with a fresh independent mark, and
    the result is the Kolmogorov distance between mu and the equal mixture of
    mu with its pushforward (so an exactly invariant measure scores 0).  A
    diagnostic, not a contract, except in deterministic periodic cases where
    it must vanish.
    """
    marks = src.substream(_PUSH_STREAM).window_arrays(0, mu.values.size - 1)
    pushed = _model(mu.model).step_array(mu.values, *marks)
    half = EmpiricalMeasure(values=np.concatenate([mu.values, pushed]), model=mu.model)
    return kolmogorov_distance(mu, half)


@dataclass(frozen=True)
class TightnessReport:
    """Quantiles of the workload trajectory against the dominating sequence."""

    levels: tuple[float, ...]
    w_quantiles: tuple[float, ...]
    l_quantiles: tuple[float, ...]
    ordered_ok: bool


def tightness_report(mu: EmpiricalMeasure, src: MarkSource,
                     levels=(0.5, 0.9, 0.99, 0.999)) -> TightnessReport:
    """Per-level quantiles of W, the begin-model path of cesaro_distribution,
    and of the dominating recursion L (alpha = sigma+dpat, same marks, from
    0); ValueError for a measure of another model.

    W <= L pathwise, so every quantile row must be ordered; uniform control
    of the L quantiles is what makes the averaged law tight.
    """
    if mu.model != BEGIN.name:
        raise ValueError(f"tightness needs the begin model's path, got model {mu.model!r}")
    xi, sigma, dpat = src.window_arrays(0, mu.values.size - 1)
    l_traj = y_path(0.0, BEGIN.dominating.alpha_array(sigma, dpat), xi)
    wq = tuple(float(q) for q in np.quantile(mu.values, levels))
    lq = tuple(float(q) for q in np.quantile(l_traj, levels))
    ordered = all(a <= b for a, b in zip(wq, lq))
    return TightnessReport(levels=tuple(levels), w_quantiles=wq, l_quantiles=lq,
                           ordered_ok=ordered)


def boundary_mass(mu: EmpiricalMeasure, src: MarkSource, p: int) -> float:
    """Fraction of the steps of mu's path w_1..w_n (cesaro_distribution) with
    the workload strictly inside (D_i, D_i + 2^-p), D_i the patience of the
    customer observing w_i.

    The trend in p (nonincreasing at fixed large n) is the empirical shadow
    of the vanishing boundary mass that the averaged construction needs; it
    is reported, not asserted pointwise.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    w = mu.values
    d = src.window_arrays(1, w.size)[2]
    return int(np.count_nonzero((d < w) & (w < d + 2.0 ** (-p)))) / w.size
