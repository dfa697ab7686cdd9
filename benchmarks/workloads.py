"""The four benchmark workloads, the reason each was chosen, and how each run's
outputs are checked.

Each workload is one renege CLI config run through renege.cli.main.  Its
source seed is the benchmark's --seed; at the workload's default seed every
output file must match the SHA-256 pinned below.  At any other seed the
outputs are checked against the run's contracts instead (exit status 0,
bracket_ok, zero inclusion and sojourn violations), and every repeat of one
run must write the same bytes.

The layer splits quoted in the notes are self-time shares measured with
cProfile on the initial code (2 cores, Python 3.11.7, numpy 2.4.6).  They say
which workload a change to one layer should move, and which it should leave
alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    workers: int
    item: str          # what one unit of throughput counts
    source: dict       # source section of the config, without its seed
    model: dict
    run: dict
    default_seed: int
    pinned: dict       # output file -> SHA-256 at the default seed
    why: str

    def config(self, seed: int) -> dict:
        return {"experiment": self.experiment,
                "source": {**self.source, "seed": seed},
                "model": dict(self.model),
                "run": dict(self.run)}

    @property
    def items(self) -> int:
        if self.experiment == "des":
            return self.run["customers"]
        if self.run["mode"] == "approximate":
            return self.run["warmup"] + self.run["samples"]
        return self.run["samples"]


def _u(low, high):
    return {"dist": "uniform", "low": low, "high": high}


def _texp(rate, cap):
    return {"dist": "truncated-exponential", "rate": rate, "cap": cap}


def _exp(rate):
    return {"dist": "exponential", "rate": rate}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="exact-iid",
        experiment="loss-begin",
        workers=2,
        item="rows",
        source={"kind": "iid", "xi": _u(0.2, 1.0), "sigma": _texp(1.5, 2.0),
                "dpat": _u(0.0, 1.5)},
        model={"servers": 1, "impatience": "begin"},
        run={"mode": "exact", "samples": 4000},
        default_seed=20081,
        pinned={"detail.csv": "6f5a2feb95226040c9fef074d5451f3ae13c128e5d77eb1e60ff9b28755ccf41",
                "summary.json": "ea9e8921f6927aa3bbceddb32067123a4bc44cfbb6d90ad56aa7a02ac122ebaa"},
        why=("Heavy bounded iid source, exact begin-model loss rows over the process "
             "pool: the only workload that exercises --workers 2 and the deepest "
             "renovation searches.  Seed split: recursion 51% of self time (16.5 "
             "certified_zero calls per row, 6% hit rate), marks per-call set-up 39% "
             "(about 990 marks generated per row).  Moves with recursion and per-call "
             "marks changes; forward is its bypass."),
    ),
    Workload(
        name="exact-markov",
        experiment="loss-end",
        workers=1,
        item="rows",
        source={"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]],
                "states": [{"xi": _u(0.5, 1.5), "sigma": _u(0.0, 0.8), "dpat": _u(0.0, 1.0)},
                           {"xi": _u(0.1, 0.7), "sigma": _texp(1.0, 3.0),
                            "dpat": _u(0.5, 3.0)}]},
        model={"servers": 1, "impatience": "end"},
        run={"mode": "exact", "samples": 600},
        default_seed=20082,
        pinned={"detail.csv": "62e6d52d92df8412d68309d3687656691614113a4fb8462f9019cc66783b71cb",
                "summary.json": "ddf725cca5dbc4bc3561f570be7a3ede5905ad60740b109f088d629c410f1c55"},
        why=("Two-state Markov source, exact end-model loss rows: covers the end "
             "model, the spaced-epoch replica placement and the unbounded chain-state "
             "cache, whose memory grows with the rows (peak RSS about 116 MB at 600 "
             "rows).  Seed split: "
             "marks chain-state resolution 95% of self time, recursion 4%.  Moves with "
             "Markov mark and memory changes."),
    ),
    Workload(
        name="forward",
        experiment="loss-begin",
        workers=1,
        item="arrivals",
        source={"kind": "iid", "xi": _exp(0.9), "sigma": _exp(1.0), "dpat": _exp(0.5)},
        model={"servers": 1, "impatience": "begin"},
        run={"mode": "approximate", "samples": 3_000_000, "warmup": 100_000},
        default_seed=20083,
        pinned={"summary.json": "24509208c8e71d212b29f6018ca96151ebcdb01a107940999d310f1181137c2a"},
        why=("The paper's M/M/1+M case (lambda 0.9, mu 1, gamma 0.5, unbounded), "
             "approximate begin-model loss along one forward path.  Seed split: "
             "fifo_begin step loop 76% of self time, bulk marks 24%, no certification: "
             "the bypass workload for any recursion or per-call marks change."),
    ),
    Workload(
        name="des",
        experiment="des",
        workers=1,
        item="customers",
        source={"kind": "iid", "xi": _exp(3.0), "sigma": _exp(1.0), "dpat": _exp(0.5)},
        model={"servers": 4, "impatience": "end"},
        run={"customers": 100_000},
        default_seed=20084,
        pinned={"customers.csv": "be31c9769bbd5e7b31f63849989351f69efcd6ec99710ba7bb393d8b1558e79f",
                "summary.json": "e821aa3310c581594e09f5e632f5d121a214e1517579a93bba4c1e56163fa244"},
        why=("Four-server end-model event simulation (lambda 3, mu 1, gamma 0.5) "
             "with its per-customer CSV.  Seed split: des.simulate 47% of self time, "
             "cli writing customers.csv 52% (22 MB per 200k customers), marks 1%.  "
             "Moves with DES and output-writing changes; every other workload is its "
             "bypass."),
    ),
)}


def contract_problems(workload: Workload, summary: dict) -> list[str]:
    """Contract breaches recorded in a run's summary.json (empty when none)."""
    results = summary.get("results", {})
    if workload.experiment == "des":
        return [f"{key} = {results.get(key)}"
                for key in ("inclusion_violations", "sojourn_violations")
                if results.get(key) != 0]
    return [] if results.get("bracket_ok") is True else ["bracket_ok is not true"]
