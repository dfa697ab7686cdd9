"""Two-sided stationary mark sequences with index-addressable randomness.

Every customer n (any integer, negative allowed) carries a triple
(xi, sigma, dpat): interarrival time to the next customer, requested service
duration, and initial patience.  A MarkSource produces these triples as a
pure function of (seed, stream, index) via the counter-based Philox
generator: index n consumes exactly one 4x64-bit Philox block, so backward
constructions can address arbitrarily remote past indices without stored
history, and shifting the whole sequence is just an index offset.

Block layout per index: word 0 drives the modulating chain (markov kind),
words 1..3 drive xi, sigma, dpat through inverse CDFs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
# numpy loads numpy.random on first use; loading it here keeps that out of
# every process-pool worker, which is forked afresh for each CLI call
from numpy.random import Philox

_MASK64 = (1 << 64) - 1
_U53 = 2.0 ** -53
# Blocks per Philox read of a window: 64 KB of raw words, which the heap hands
# back for the next read instead of mapping fresh pages.  A Markov window reads
# 4x as many: its chain composition costs per call, and an approximate
# end-model run on a two-state source was 15-20 % slower with one _CHUNK
# (in-process).
_CHUNK = 1 << 11
# Blocks fetched before a Markov window to find the regeneration its first
# state descends from, doubled until one turns up (replica windows: _lookback).
_CHAIN_LOOKBACK = 64
# Replicas per Philox read of a batch of replica windows (replica_windows).
_REPLICA_BLOCK = 128
# One level of the chain-state scan costs about as much as one doubling pass
# over this many successor-table entries (indices x states); _compose_states
# takes whichever costs less by the longest regeneration gap.
_SCAN_LEVEL = 500
# Probability of no chain regeneration over this many steps is (1-delta)^n;
# hitting the guard means the transition matrix is effectively degenerate.
_MAX_CHAIN_LOOKBACK = 1 << 20


class ConfigError(ValueError):
    """Invalid source or distribution parameters."""


class CapabilityError(RuntimeError):
    """Exact mode requested without the capability it needs (an a.s. alpha bound)."""


class ChainRegenerationError(CapabilityError):
    """No chain regeneration in _MAX_CHAIN_LOOKBACK steps: a near-degenerate chain."""


@dataclass(frozen=True)
class Deterministic:
    """Point mass at a fixed nonnegative value."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ConfigError(f"deterministic value must be finite and >= 0, got {self.value}")

    @property
    def upper_bound(self) -> float:
        return self.value

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(u, self.value)


@dataclass(frozen=True)
class Uniform:
    """Uniform on [low, high]."""

    low: float
    high: float

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ConfigError("uniform bounds must be finite")
        if not (0.0 <= self.low <= self.high):
            raise ConfigError(f"uniform requires 0 <= low <= high, got [{self.low}, {self.high}]")

    @property
    def upper_bound(self) -> float:
        return self.high

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return self.low + (self.high - self.low) * u


@dataclass(frozen=True)
class Exponential:
    """Exponential with the given rate; unbounded support."""

    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ConfigError(f"exponential rate must be finite and > 0, got {self.rate}")

    @property
    def upper_bound(self) -> None:
        return None

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-u) / self.rate


@dataclass(frozen=True)
class TruncatedExponential:
    """Exponential(rate) conditioned on being <= cap; support [0, cap]."""

    rate: float
    cap: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ConfigError(f"truncated-exponential rate must be > 0, got {self.rate}")
        if not (math.isfinite(self.cap) and self.cap > 0.0):
            raise ConfigError(f"truncated-exponential cap must be > 0, got {self.cap}")

    @property
    def upper_bound(self) -> float:
        return self.cap

    def quantile(self, u: np.ndarray) -> np.ndarray:
        total = -math.expm1(-self.rate * self.cap)
        # rounding can carry u near 1 one ulp past cap
        return np.minimum(-np.log1p(-u * total) / self.rate, self.cap)


@dataclass(frozen=True)
class Discrete:
    """Finite support distribution given by atoms and probabilities."""

    atoms: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) == 0 or len(self.atoms) != len(self.probs):
            raise ConfigError("discrete needs matching nonempty atoms and probs")
        if any(not math.isfinite(a) or a < 0.0 for a in self.atoms):
            raise ConfigError("discrete atoms must be finite and >= 0")
        if not all(p >= 0.0 for p in self.probs):  # NaN included
            raise ConfigError("discrete probs must be >= 0")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ConfigError(f"discrete probs must sum to 1, got {sum(self.probs)}")

    @property
    def upper_bound(self) -> float:
        return max(a for a, p in zip(self.atoms, self.probs) if p > 0.0)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        cum = np.cumsum(self.probs)
        # 1.0 from the last atom with positive mass on: no u < 1 selects a zero-mass atom
        cum[np.flatnonzero(self.probs)[-1]:] = 1.0
        idx = np.searchsorted(cum, u, side="right")
        return np.asarray(self.atoms, dtype=float)[idx]


Marginal = Union[Deterministic, Uniform, Exponential, TruncatedExponential, Discrete]


# Class and parameters, in constructor order, of each marginal dist.
_MARGINALS = {
    "deterministic": (Deterministic, ("value",)),
    "uniform": (Uniform, ("low", "high")),
    "exponential": (Exponential, ("rate",)),
    "truncated-exponential": (TruncatedExponential, ("rate", "cap")),
    "discrete": (Discrete, ("atoms", "probs")),
}
# Keys of every source kind, besides its marginals or its chain.
_SOURCE_KEYS = ("kind", "seed", "stream")
_TRIPLE_KEYS = ("xi", "sigma", "dpat")


def check_keys(cfg: dict, allowed, where: str) -> None:
    """Reject a config object holding a key outside `allowed`: a misspelt key
    would otherwise be ignored and its default used silently."""
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}; allowed keys: {sorted(allowed)}")


def _cast(value, caster, what: str):
    """caster(value); a value of the wrong type or form raises ConfigError
    naming `what`."""
    try:
        return caster(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} is invalid: {exc}") from exc


def strict_float(value) -> float:
    """A number as a float; a string or a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def strict_int(value) -> int:
    """An integral number as an int: a fraction is refused, not truncated."""
    if strict_float(value) % 1:  # NaN and infinities included
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _floats(values) -> tuple[float, ...]:
    """A list of numbers as floats; a string is not one."""
    if isinstance(values, str):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return tuple(map(strict_float, values))


def marginal_from_config(cfg: dict) -> Marginal:
    """Build a marginal from its JSON description ({"dist": ..., params})."""
    if not isinstance(cfg, dict) or "dist" not in cfg:
        raise ConfigError(f"marginal config must be a dict with a 'dist' key, got {cfg!r}")
    kind = cfg["dist"]
    if not isinstance(kind, str) or kind not in _MARGINALS:
        raise ConfigError(f"unknown marginal dist {kind!r}")
    cls, params = _MARGINALS[kind]
    check_keys(cfg, ("dist",) + params, f"marginal '{kind}'")
    missing = [p for p in params if p not in cfg]
    if missing:
        raise ConfigError(f"marginal '{kind}' is missing parameter {missing[0]!r}")
    caster = _floats if cls is Discrete else strict_float
    return cls(*(_cast(cfg[p], caster, f"marginal '{kind}' parameter {p!r}") for p in params))


@dataclass(frozen=True)
class MarkTriple:
    """One customer's marks: interarrival xi, service sigma, patience dpat."""

    xi: float
    sigma: float
    dpat: float

    def __post_init__(self):
        for name in ("xi", "sigma", "dpat"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"mark {name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class StateMarginals:
    """Per-state marginals of the three marks."""

    xi: Marginal
    sigma: Marginal
    dpat: Marginal


@dataclass(frozen=True)
class MarkSource:
    """Two-sided stationary ergodic sequence of mark triples.

    kind "deterministic" and "iid" use states[0]; kind "markov" modulates the
    per-state marginals by a finite ergodic chain.  The chain states of a
    window descend from the most recent regeneration of a Doeblin split of the
    transition matrix at or before its first index, and are composed forward
    from there (_compose_states): for a batch of replica windows
    (replica_windows) in one composition with a replica axis, over blocks
    fetched by one Philox generator re-positioned per replica.  This makes
    the realized sequence exactly stationary and every window a pure function
    of (seed, stream, index), whatever the order of the requests.

    Instances are immutable and memoize no marks or states, so memory stays
    flat however many windows are resolved.
    """

    kind: str
    states: tuple[StateMarginals, ...]
    transition: tuple[tuple[float, ...], ...] | None
    seed: int
    stream: int = 0
    origin: int = 0

    def __post_init__(self):
        if self.kind not in ("deterministic", "iid", "markov"):
            raise ConfigError(f"unknown source kind {self.kind!r}")
        if not self.states:
            raise ConfigError("source needs at least one state")
        if self.kind in ("deterministic", "iid"):
            if len(self.states) != 1 or self.transition is not None:
                raise ConfigError(f"{self.kind} source takes exactly one state and no transition matrix")
            if self.kind == "deterministic":
                for m in (self.states[0].xi, self.states[0].sigma, self.states[0].dpat):
                    if not isinstance(m, Deterministic):
                        raise ConfigError("deterministic source requires deterministic marginals")
        else:
            self._validate_transition()
        # a marginal's mean is positive exactly when its support bound is not 0
        if not any(p > 0.0 and st.xi.upper_bound != 0.0
                   for p, st in zip(self.stationary_state_probs, self.states)):
            raise ConfigError("source must have E[xi] > 0")

    def _validate_transition(self):
        p = self.transition
        k = len(self.states)
        if p is None or len(p) != k or any(len(row) != k for row in p):
            raise ConfigError(f"transition matrix must be {k}x{k}")
        for row in p:
            if not all(q >= 0.0 for q in row):  # NaN included
                raise ConfigError("transition probabilities must be >= 0")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ConfigError("transition rows must sum to 1")
        if np.min(np.asarray(p, dtype=float), axis=0).sum() <= 0.0:
            raise ConfigError(
                "markov source needs a one-step minorization: some state must be "
                "reachable from every state in one step (a strictly positive column)")

    # -- chain machinery (markov kind) ------------------------------------

    @cached_property
    def _doeblin_parts(self):
        """(delta, cum nu, cum residual rows) of the split P = delta*nu + (1-delta)*Q."""
        p = np.asarray(self.transition, dtype=float)
        col_min = np.min(p, axis=0)
        delta = float(col_min.sum())
        nu = col_min / delta
        if delta < 1.0:
            q = (p - col_min[None, :]) / (1.0 - delta)
        else:
            q = np.full_like(p, 1.0 / p.shape[0])
        nu_cum = np.cumsum(nu)
        nu_cum[-1] = 1.0
        q_cum = np.cumsum(q, axis=1)
        q_cum[:, -1] = 1.0
        return delta, nu_cum, q_cum

    @cached_property
    def _lookback(self) -> int:
        """Lookback blocks of a replica window: the least power of two, up to
        _CHAIN_LOOKBACK, that misses a regeneration w.p. (1-delta)^(look+1) <= 2^-9."""
        look, miss = 1, 1.0 - self._doeblin_parts[0]
        while look < _CHAIN_LOOKBACK and miss ** (look + 1) > 2.0 ** -9:
            look *= 2
        return look

    @cached_property
    def stationary_state_probs(self) -> np.ndarray:
        """Stationary law of the modulating chain (single state for iid)."""
        if self.kind != "markov":
            return np.ones(1)
        p = np.asarray(self.transition, dtype=float)
        k = p.shape[0]
        a = np.vstack([p.T - np.eye(k), np.ones((1, k))])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    def _chain_before(self, g0: int) -> int:
        """Chain state at index g0 - 1, composed from the last regeneration at
        or before g0 (0 when that is g0 itself, whose state does not depend on
        it), in a lookback doubled until a regeneration turns up."""
        delta = self._doeblin_parts[0]
        look = _CHAIN_LOOKBACK
        chain = (self._blocks(g0 - look, look + 1)[:, 0] >> np.uint64(11)) * _U53  # g0 - look..g0
        while not (regen := np.flatnonzero(chain < delta)).size:
            if look >= _MAX_CHAIN_LOOKBACK:
                raise ChainRegenerationError(
                    f"no chain regeneration found in the {look} indices before index {g0}; "
                    "transition matrix is near-degenerate")
            earlier = (self._blocks(g0 - 2 * look, look)[:, 0] >> np.uint64(11)) * _U53
            chain = np.concatenate([earlier, chain])
            look *= 2
        start = int(regen[-1])
        return int(self._compose_states(chain[None, start:look])[0, -1]) if start < look else 0

    def _compose_states(self, chain: np.ndarray, state: int = 0) -> np.ndarray:
        """States along chain uniforms (replicas x indices), read as one
        sequence after chain state `state`; rows that each start at a
        regeneration therefore compose without mixing.

        A regeneration takes its state from nu, and every other index steps
        through Q from the state before it.  A uniform whose residual rounds
        to 1.0 stands for the largest one below it, so it selects the last
        state with positive mass.  The states come from one scan
        (_scanned_states) or, when the longest regeneration gap makes that
        dearer, from pointer doubling (_doubled_states); both give the same.
        """
        delta = self._doeblin_parts[0]
        flat = chain.ravel()
        regen = flat < delta
        # delta = 1 steps no index, so its residual divisor only has to be nonzero
        v = np.where(regen, flat / delta, (flat - delta) / ((1.0 - delta) or 1.0))
        np.minimum(v, 1.0 - _U53, out=v)
        # the scan makes one pass per level of the longest gap, the doubling
        # about log2 of it over the whole table, so short chains always double
        table = v.size * len(self.states)
        if table * v.size.bit_length() >= _SCAN_LEVEL:
            # each index's distance from its last regeneration, or from the start
            k = np.arange(1, v.size + 1)
            levels = int((k - np.maximum.accumulate(k * regen)).max(initial=0))
            if levels * _SCAN_LEVEL <= table * levels.bit_length():
                return self._scanned_states(regen, v, state).reshape(chain.shape)
        return self._doubled_states(regen, v, state).reshape(chain.shape)

    def _scanned_states(self, regen, v, state: int) -> np.ndarray:
        """States by one scan, level by level: the regenerations take theirs
        from nu, and level d, every index d steps after its last regeneration
        (or after the start), is stepped from level d-1 at once.  Each index is
        touched once, in one pass per level."""
        _, nu_cum, q_cum = self._doeblin_parts
        # out[-1] holds `state`, which out[pos - 1] reads for pos 0
        out = np.empty(v.size + 1, dtype=np.intp)
        out[-1] = state
        pos = np.flatnonzero(regen)
        # a lookup counts the entries <= its uniform, as searchsorted(side="right")
        # does; no uniform reaches the forced last entry 1.0
        out[pos] = sum(c <= v[pos] for c in nu_cum[:-1].tolist())
        stepped = np.append(~regen, False)
        cum = [np.ascontiguousarray(c) for c in q_cum[:, :-1].T]
        pos = np.append(pos, -1)  # level 0: the regenerations and the start
        while (pos := pos[stepped[pos + 1]] + 1).size:
            out[pos] = sum(c[out[pos - 1]] <= v[pos] for c in cum)
        return out[:-1]

    def _doubled_states(self, regen, v, state: int) -> np.ndarray:
        """States by pointer doubling: entry k of the successor tables
        (indices x states) maps the state at k-1 to the state at k, and is
        composed with the entries before it until its prefix reaches back to a
        regeneration, in about log2 passes of the longest gap."""
        _, nu_cum, q_cum = self._doeblin_parts
        n_states = len(q_cum)
        succ = np.empty((v.size, n_states), dtype=np.intp)
        succ[regen] = np.searchsorted(nu_cum, v[regen], side="right")[:, None]
        stepped = ~regen
        w = v[stepped]
        for s, cum in enumerate(q_cum):
            succ[stepped, s] = np.searchsorted(cum, w, side="right")
        k = np.arange(v.size)
        reach = k - np.maximum.accumulate(np.where(regen, k, 0))
        step = 1
        while (k := np.flatnonzero(reach >= step)).size:
            succ[k] = succ.ravel()[k[:, None] * n_states + succ[k - step]]
            step *= 2
        return succ[:, state]

    # -- raw generation ----------------------------------------------------

    def _generators(self, streams, starts):
        """One Philox generator, yielded keyed to (seed, streams[i]) with index
        starts[i]'s block next, for each i; random_raw calls go on from there."""
        bg = Philox(0)
        # plain ints: the setter reads them 2-3x faster than bg.state's arrays
        key, counter = [0, self.seed & _MASK64], [0] * 4
        state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        at = None
        for stream, g in zip(streams, starts):
            key[0] = stream & _MASK64
            if g != at:  # re-keyed rows share one start: set it once
                at = g
                # the words of g mod 2^256: >> is arithmetic on negative ints
                counter[:] = [g & _MASK64, (g >> 64) & _MASK64, (g >> 128) & _MASK64,
                              (g >> 192) & _MASK64]
            bg.state = state
            yield bg

    def _fetch(self, streams, starts, count: int, raw: np.ndarray | None = None) -> np.ndarray:
        """Raw Philox words (rows, count, 4), into the first rows of `raw` when
        given: row i holds one 4-word block per index from starts[i] on, on
        stream streams[i] (the words that Generator.integers(0, 2**64,
        dtype=uint64) would return)."""
        rows = len(starts)
        raw = np.empty((rows, count, 4), dtype=np.uint64) if raw is None else raw[:rows]
        for i, bg in enumerate(self._generators(streams, starts)):
            raw[i] = bg.random_raw(4 * count).reshape(count, 4)
        return raw

    def _blocks(self, g0: int, count: int) -> np.ndarray:
        """Raw Philox words of indices g0..g0+count-1 (see _fetch)."""
        return self._fetch((self.stream,), (g0,), count)[0]

    def window_arrays(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Marks (3, n), rows xi, sigma, dpat, of the n indices lo..hi
        inclusive; into the first n columns of `out` when given.  A window is
        read in chunks (_CHUNK), so its temporaries are a chunk's: the words
        are shifted in place, a Markov chunk's chain states are composed on from
        the state before it (found once per window by _chain_before), and each
        used column is scaled into a contiguous row before its quantile (numpy
        may take other code paths for strided input)."""
        if lo > hi:
            raise ValueError(f"window requires lo <= hi, got [{lo}, {hi}]")
        g0 = self.origin + lo
        count = hi - lo + 1
        out = np.empty((3, count)) if out is None else out[:, :count]
        state, before = None, self._chain_before(g0) if self.kind == "markov" else None
        bg = next(self._generators((self.stream,), (g0,)))
        chunk = _CHUNK if before is None else 4 * _CHUNK
        for a in range(0, count, chunk):
            raw = bg.random_raw(4 * min(chunk, count - a)).reshape(-1, 4)
            np.right_shift(raw, 11, out=raw)
            if before is not None:
                state = self._compose_states(np.multiply(raw[None, :, 0], _U53), before)[0]
                before = state[-1]
            self._quantiles([np.multiply(raw[:, j], _U53) for j in (1, 2, 3)], state,
                            out[:, a:a + len(raw)])
        return out

    def _quantiles(self, u, state=None, out=None) -> np.ndarray:
        """Marks (3, *shape), into `out` when given, from the uniforms u[0..2] of
        xi, sigma and dpat, by chain state (0 throughout when `state` is None):
        each state's quantiles run once, over a mask of the whole array."""
        out = np.empty((3,) + u[0].shape) if out is None else out
        for s, sm in enumerate(self.states):
            m = Ellipsis if state is None else state == s
            for j, marginal in enumerate((sm.xi, sm.sigma, sm.dpat)):
                out[j][m] = marginal.quantile(u[j][m])
        return out

    def replica_windows(self, rows, spacing: int, width: int) -> np.ndarray:
        """Marks (3, len(rows), width): row i holds what window_arrays gives for
        the `width` indices ending at replica rows[i]'s epoch (see replica).

        One Philox generator is re-positioned per replica: re-keyed (iid), or
        moved to the start of the replica's _lookback (markov).  The replicas
        are read _REPLICA_BLOCK at a time into one buffer of words, shifted in
        place and scaled into preallocated uniform rows, whose quantiles
        overwrite them.  A block's Markov states come from one composition
        with a replica axis, from the earliest of the rows' last lookback
        regenerations on; each row is forced to regenerate before its own, so
        the gaps stay short.  A Markov replica with no regeneration in its
        lookback takes window_arrays, which looks further back.
        """
        rows = list(rows)
        look = 0 if self.is_iid else self._lookback
        raw = np.empty((min(len(rows), _REPLICA_BLOCK), look + width, 4), dtype=np.uint64)
        out = np.empty((3, len(rows), width))
        for a in range(0, len(rows), _REPLICA_BLOCK):
            block = rows[a:a + _REPLICA_BLOCK]
            u = out[:, a:a + len(block)]
            if self.is_iid:
                streams = [self.stream + r for r in block]
                starts = [self.origin - width + 1] * len(block)
            else:
                streams = [self.stream] * len(block)
                starts = [self.origin + r * spacing - width + 1 - look for r in block]
            words = self._fetch(streams, starts, look + width, raw)
            np.right_shift(words, 11, out=words)
            for j in (1, 2, 3):
                np.multiply(words[:, look:, j], _U53, out=u[j - 1])
            if self.is_iid:
                self._quantiles(u, out=u)
                continue
            chain = np.multiply(words[:, :, 0], _U53)
            regen = chain[:, :look + 1] < self._doeblin_parts[0]
            # forced regenerations before each row's last one keep gaps short
            last = look - np.argmax(regen[:, ::-1], axis=1)
            chain[np.arange(look + width) < last[:, None]] = 0.0
            first = int(last.min(initial=look))
            self._quantiles(u, self._compose_states(chain[:, first:])[:, look - first:], u)
            # rows with none in the lookback were composed from a forced one
            for i in np.flatnonzero(~regen.any(axis=1)).tolist():
                e = block[i] * spacing
                u[:, i] = self.window_arrays(e - width + 1, e)
        return out

    # -- public mark access --------------------------------------------------

    def mark_at(self, n: int) -> MarkTriple:
        """Mark triple of customer n; pure in (seed, stream, n)."""
        xi, sigma, dpat = self.window_arrays(n, n)
        return MarkTriple(float(xi[0]), float(sigma[0]), float(dpat[0]))

    def _moved(self, **where) -> "MarkSource":
        """Copy with another stream or origin.  Validation and the cached
        properties depend on neither, so the copy keeps them."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **where)
        return out

    def shift(self, k: int) -> "MarkSource":
        """Source advanced by k customers: mark_at(shifted, n) == mark_at(self, n+k)."""
        return self._moved(origin=self.origin + k)

    def substream(self, r: int) -> "MarkSource":
        """Independent replica source on stream+r (fresh chain realization)."""
        return self._moved(stream=(self.stream + r) & _MASK64)

    def replica(self, r: int, spacing: int) -> tuple["MarkSource", int]:
        """(source, epoch) of replica r: epoch 0 of stream+r for iid sources,
        epoch r*spacing of this one realization otherwise."""
        return (self.substream(r), 0) if self.is_iid else (self, r * spacing)

    # -- derived scalar facts -------------------------------------------------

    @property
    def is_iid(self) -> bool:
        return self.kind in ("deterministic", "iid")


def deterministic_source(xi: float, sigma: float, dpat: float,
                         seed: int = 0, stream: int = 0) -> MarkSource:
    """All customers share the constant triple (xi, sigma, dpat)."""
    st = StateMarginals(Deterministic(xi), Deterministic(sigma), Deterministic(dpat))
    return MarkSource(kind="deterministic", states=(st,), transition=None,
                      seed=seed, stream=stream)


def iid_source(xi: Marginal, sigma: Marginal, dpat: Marginal,
               seed: int, stream: int = 0) -> MarkSource:
    """Independent marks drawn from the three marginals at every index."""
    return MarkSource(kind="iid", states=(StateMarginals(xi, sigma, dpat),), transition=None,
                      seed=seed, stream=stream)


def markov_source(transition, states: tuple[StateMarginals, ...],
                  seed: int, stream: int = 0) -> MarkSource:
    """Marks modulated by a finite ergodic chain in its stationary regime."""
    trans = _cast(transition, lambda rows: tuple(map(_floats, rows)), "transition matrix")
    return MarkSource(kind="markov", states=tuple(states), transition=trans,
                      seed=seed, stream=stream)


def _marginals_from_config(cfg, allowed, where: str) -> StateMarginals:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} config must be a dict")
    check_keys(cfg, allowed, where)
    missing = [k for k in _TRIPLE_KEYS if k not in cfg]
    if missing:
        raise ConfigError(f"{where} config missing marginals: {missing}")
    return StateMarginals(*(marginal_from_config(cfg[k]) for k in _TRIPLE_KEYS))


def source_from_config(cfg: dict) -> MarkSource:
    """Build a MarkSource from its JSON description."""
    if not isinstance(cfg, dict):
        raise ConfigError("source config must be a dict")
    kind = cfg.get("kind")
    seed = _cast(cfg.get("seed", 0), strict_int, "source key 'seed'")
    stream = _cast(cfg.get("stream", 0), strict_int, "source key 'stream'")
    if kind in ("deterministic", "iid"):
        st = _marginals_from_config(cfg, _SOURCE_KEYS + _TRIPLE_KEYS, "source")
        return MarkSource(kind=kind, states=(st,), transition=None, seed=seed, stream=stream)
    if kind == "markov":
        check_keys(cfg, _SOURCE_KEYS + ("transition", "states"), "markov source")
        if "transition" not in cfg or "states" not in cfg:
            raise ConfigError("markov source config needs 'transition' and 'states'")
        if not isinstance(cfg["states"], list):
            raise ConfigError(f"markov source 'states' must be a list, got {cfg['states']!r}")
        states = tuple(_marginals_from_config(st, _TRIPLE_KEYS, f"markov state {i}")
                       for i, st in enumerate(cfg["states"]))
        return markov_source(cfg["transition"], states, seed=seed, stream=stream)
    raise ConfigError(f"unknown source kind {kind!r}")
