import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renege
from renege import Scenario, cli, simulate, source_from_config
from renege.cli import _cells, _float_cells, main, run_scenario
from renege.marks import ConfigError

from test_golden import CASES, MARKOV

DET_STABLE_SOURCE = {
    "kind": "deterministic", "seed": 1,
    "xi": {"dist": "deterministic", "value": 1.0},
    "sigma": {"dist": "deterministic", "value": 0.6},
    "dpat": {"dist": "deterministic", "value": 0.3},
}

BOUNDED_SOURCE = {
    "kind": "iid", "seed": 321,
    "xi": {"dist": "uniform", "low": 0.5, "high": 1.5},
    "sigma": {"dist": "uniform", "low": 0.0, "high": 0.8},
    "dpat": {"dist": "uniform", "low": 0.0, "high": 0.4},
}

def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def test_loss_begin_deterministic_example(tmp_path):
    cfg = {"source": DET_STABLE_SOURCE, "run": {"mode": "exact", "samples": 20}}
    code = main(["loss-begin", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    res = _summary(tmp_path / "out")["results"]
    assert res["pi_hat"]["point"] == 0.0
    assert res["lower_bound"]["point"] == 0.0 and res["upper_bound"]["point"] == 0.0
    assert res["bracket_ok"] is True


# the forward benchmark workload's source: the paper's M/M/1+M case, unbounded
FORWARD_SOURCE = {"kind": "iid", "seed": 20083, "xi": {"dist": "exponential", "rate": 0.9},
                  "sigma": {"dist": "exponential", "rate": 1.0},
                  "dpat": {"dist": "exponential", "rate": 0.5}}


def test_exact_mode_without_bound_exits_3(tmp_path, capsys):
    # the screen raises the missing-bound error in every range, in-process at
    # one worker and in the pool's workers at two
    cfg = {"source": FORWARD_SOURCE, "run": {"mode": "exact", "samples": 1000}}
    errs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code = main(["sample-w", "--config", _write(tmp_path, cfg), "--workers", str(workers),
                     "--out-dir", str(out)])
        assert code == 3
        assert not (out / "summary.json").exists()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("capability error: exact mode needs an a.s. bound on alpha "
                              "(sigma_plus_d)")
    assert "truncated-exponential" in errs[0]


@pytest.mark.parametrize("kind", ["iid", "markov"])
def test_alpha_bound_key_exits_2_as_unknown(tmp_path, capsys, kind):
    # sources carry no declared bound: their marginals give it
    source = dict(BOUNDED_SOURCE if kind == "iid" else MARKOV_SOURCE, alpha_bound=2.0)
    cfg = {"source": source, "run": {"mode": "exact", "samples": 5}}
    out = tmp_path / "out"
    assert main(["loss-begin", "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err and "keys ['alpha_bound']" in err
    assert not out.exists()


def test_config_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["sample-w", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert main(["sample-w", "--config", _write(tmp_path, {"run": {}}, "m.json"),
                 "--out-dir", str(tmp_path / "o2")]) == 2
    declared = {"experiment": "loss-end", "source": DET_STABLE_SOURCE}
    with pytest.raises(ConfigError):
        run_scenario(declared, "loss-begin", tmp_path / "o3")


def test_replay_determinism_and_worker_independence(tmp_path):
    cfg = {"source": BOUNDED_SOURCE, "run": {"mode": "exact", "samples": 60}}
    path = _write(tmp_path, cfg)
    for i, workers in enumerate((1, 1, 3)):
        code = main(["loss-begin", "--config", path, "--workers", str(workers),
                     "--out-dir", str(tmp_path / f"out{i}")])
        assert code == 0
    blobs = [(tmp_path / f"out{i}" / "summary.json").read_bytes() for i in range(3)]
    details = [(tmp_path / f"out{i}" / "detail.csv").read_bytes() for i in range(3)]
    assert blobs[0] == blobs[1] == blobs[2]
    assert details[0] == details[1] == details[2]


def test_sample_w_detail_and_summary(tmp_path):
    cfg = {"source": BOUNDED_SOURCE, "run": {"mode": "exact", "samples": 25}}
    code = main(["sample-w", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    summary = _summary(tmp_path / "out")
    assert summary["experiment"] == "sample-w"
    assert summary["results"]["method"] == "renovation-exact"
    with open(tmp_path / "out" / "detail.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    vals = [float(r["value"]) for r in rows]
    assert all(v >= 0.0 for v in vals)
    assert all(int(r["renovation_epoch"]) <= -1 for r in rows)


def test_sample_s_runs(tmp_path):
    cfg = {"source": BOUNDED_SOURCE, "run": {"mode": "exact", "samples": 10}}
    assert main(["sample-s", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert _summary(tmp_path / "out")["results"]["model"] == "end"


@pytest.mark.parametrize("experiment", ["sample-w", "sample-s"])
def test_exact_markov_draws_ignore_the_warmup(tmp_path, experiment):
    # exact replicas of a non-iid source sit 2*max_depth apart whatever
    # run.warmup says: the key only spaces approximate draws
    details = []
    for warmup in (1000, 100_000):
        cfg = {"source": MARKOV,
               "run": {"mode": "exact", "samples": 30, "max_depth": 300, "warmup": warmup}}
        out = tmp_path / f"{experiment}-{warmup}"
        assert main([experiment, "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 0
        details.append((out / "detail.csv").read_bytes())
    assert details[0] == details[1]


def test_loss_end_approximate(tmp_path):
    cfg = {"source": BOUNDED_SOURCE,
           "run": {"mode": "approximate", "samples": 5000, "warmup": 1000}}
    assert main(["loss-end", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    res = _summary(tmp_path / "out")["results"]
    assert res["method"] == "forward-approximate"
    assert "pi_never_reach" in res


def test_des_writes_customers_csv(tmp_path):
    cfg = {"source": DET_STABLE_SOURCE, "model": {"servers": 1, "impatience": "begin"},
           "run": {"customers": 30}}
    assert main(["des", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "customers.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["index", "arrival", "sigma", "dpat", "service_start",
                      "departure", "outcome"]
    assert len(rows) == 30
    assert all(r[6] == "served" for r in rows)
    res = _summary(tmp_path / "out")["results"]
    assert res["inclusion_violations"] == 0


def test_regen_summary(tmp_path):
    cfg = {"source": BOUNDED_SOURCE, "model": {"servers": 2, "impatience": "begin"},
           "run": {"customers": 800, "replicas": 30, "max_depth": 500}}
    assert main(["regen", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    res = _summary(tmp_path / "out")["results"]
    assert res["p_zero_sufficient"]["exact"] is True
    assert 0.0 <= res["p_zero_sufficient"]["point"] <= 1.0
    assert res["sufficient_alpha"] == "sigma_plus_d"


def test_regen_decides_replicas_the_depth_cuts_short(tmp_path):
    # replica 0 of this source has a positive dominating term within 3 lags,
    # before the cumulative beta reaches the bound 6: P(Y = 0) is estimated
    # exactly, with that replica counted as positive
    deep = {"kind": "iid", "seed": 4405, "xi": {"dist": "uniform", "low": 0.1, "high": 0.9},
            "sigma": {"dist": "uniform", "low": 0.0, "high": 1.0},
            "dpat": {"dist": "truncated-exponential", "rate": 0.5, "cap": 6.0}}
    cfg = {"source": deep, "model": {"servers": 1, "impatience": "end"},
           "run": {"customers": 200, "replicas": 1, "max_depth": 3}}
    assert main(["regen", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    res = _summary(tmp_path / "out")["results"]
    assert res["p_zero_sufficient"]["exact"] is True
    assert res["p_zero_sufficient"]["point"] == 0.0


@pytest.mark.parametrize("experiment", ["sample-w", "sample-s", "loss-begin", "loss-end",
                                        "cesaro"])
def test_single_server_experiments_refuse_more_servers(tmp_path, capsys, experiment):
    cfg = {"source": BOUNDED_SOURCE, "model": {"servers": 2},
           "run": {"mode": "exact", "samples": 5} if experiment != "cesaro" else {"steps": 50}}
    out = tmp_path / "out"
    assert main([experiment, "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert "model.servers" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("experiment,impatience", [("sample-w", "sideways"),
                                                   ("sample-s", "begin"),
                                                   ("loss-begin", "end"),
                                                   ("loss-end", "begin")])
def test_single_model_experiments_refuse_another_impatience(tmp_path, capsys, experiment,
                                                            impatience):
    cfg = {"source": BOUNDED_SOURCE, "model": {"impatience": impatience},
           "run": {"mode": "exact", "samples": 5}}
    out = tmp_path / "out"
    assert main([experiment, "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert "model.impatience" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment,impatience", [("sample-w", "begin"), ("sample-s", "end"),
                                                   ("loss-begin", "begin"),
                                                   ("loss-end", "end")])
def test_single_model_experiments_accept_their_own_impatience(tmp_path, experiment,
                                                              impatience):
    run = {"mode": "exact", "samples": 5}
    details = []
    for i, cfg in enumerate(({"source": BOUNDED_SOURCE, "run": run},
                             {"source": BOUNDED_SOURCE, "model": {"impatience": impatience},
                              "run": run})):
        out = tmp_path / f"out{i}"
        assert main([experiment, "--config", _write(tmp_path, cfg, f"c{i}.json"),
                     "--out-dir", str(out)]) == 0
        details.append((out / "detail.csv").read_bytes())
    assert details[0] == details[1]


def test_xval_contract(tmp_path):
    # 5000 begin-model customers produce a nonzero (reassociation-level)
    # discrepancy, exercising the numpy-to-JSON path in the summary
    for i, model in enumerate(("begin", "end")):
        cfg = {"source": BOUNDED_SOURCE, "model": {"servers": 1, "impatience": model},
               "run": {"customers": 5000}}
        assert main(["xval", "--config", _write(tmp_path, cfg, f"c{i}.json"),
                     "--out-dir", str(tmp_path / f"out{i}")]) == 0
        res = _summary(tmp_path / f"out{i}")["results"]
        assert res["contract_ok"] is True
        assert isinstance(res["max_discrepancy"], float)
        assert res["max_discrepancy"] <= 1e-9


def test_cesaro_outputs(tmp_path):
    cfg = {"source": {
        "kind": "deterministic", "seed": 1,
        "xi": {"dist": "deterministic", "value": 1.0},
        "sigma": {"dist": "deterministic", "value": 1.5},
        "dpat": {"dist": "deterministic", "value": 0.2}},
        "model": {"impatience": "begin"},
        "run": {"steps": 100, "boundary_p": 3}}
    assert main(["cesaro", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    res = _summary(tmp_path / "out")["results"]
    assert res["invariance_distance"] == 0.0
    assert res["boundary_mass"] == 0.0
    assert res["tightness"]["ordered_ok"] is True
    lines = (tmp_path / "out" / "detail.csv").read_text().splitlines()
    assert lines[0].startswith("#") and lines[1] == "value,weight"
    assert len(lines) == 102


def test_props_subcommand(tmp_path):
    cfg = {"source": DET_STABLE_SOURCE, "run": {"tuples": 2000}}
    assert main(["props", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    res = _summary(tmp_path / "out")["results"]
    assert res["total_violations"] == 0


def test_summary_carries_provenance_fields(tmp_path):
    import hashlib
    cfg = {"source": BOUNDED_SOURCE, "run": {"mode": "exact", "samples": 12}}
    assert main(["sample-w", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    summary = _summary(tmp_path / "out")
    assert summary["tool"] == "renege"
    import renege
    assert summary["version"] == renege.__version__
    blob = json.dumps(summary["config"], sort_keys=True, separators=(",", ":")).encode()
    assert summary["config_sha256"] == hashlib.sha256(blob).hexdigest()
    assert summary["seeds"]["seed"] == 321 and summary["seeds"]["stream"] == 0
    assert summary["results"]["method"] in ("renovation-exact", "forward-approximate")


def test_detail_csv_roundtrips_exact_floats(tmp_path):
    from oracles import sample_stationary
    from renege import source_from_config
    from renege.fifo import BEGIN
    cfg = {"source": BOUNDED_SOURCE, "run": {"mode": "exact", "samples": 15}}
    assert main(["sample-w", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "detail.csv") as fh:
        rows = list(csv.DictReader(fh))
    src = source_from_config(BOUNDED_SOURCE)
    for row in rows:
        expected = sample_stationary(BEGIN, src.substream(int(row["replica"])))
        assert float(row["value"]) == expected.value  # shortest-roundtrip repr


def test_seed_override(tmp_path):
    cfg = {"source": BOUNDED_SOURCE, "run": {"mode": "exact", "samples": 40}}
    path = _write(tmp_path, cfg)
    assert main(["sample-w", "--config", path, "--seed-override", "777",
                 "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["sample-w", "--config", path, "--out-dir", str(tmp_path / "b")]) == 0
    sa, sb = _summary(tmp_path / "a"), _summary(tmp_path / "b")
    assert sa["seeds"]["seed"] == 777 and sb["seeds"]["seed"] == 321
    assert (tmp_path / "a" / "detail.csv").read_bytes() != (tmp_path / "b" / "detail.csv").read_bytes()


# (key, value, through --seed-override): a Philox key word is 64 bits, and
# seed 0 and seed 2^64 used to write the same files
@pytest.mark.parametrize("key, value, override", [
    ("seed", 2 ** 64, False), ("seed", -1, False), ("stream", 2 ** 64, False),
    ("stream", -1, False), ("seed", 2 ** 64, True), ("seed", -1, True),
])
def test_seeds_and_streams_past_64_bits_exit_2(tmp_path, capsys, key, value, override):
    cfg = {"source": dict(BOUNDED_SOURCE), "model": {"servers": 1}, "run": {"customers": 50}}
    extra = ["--seed-override", str(value)] if override else []
    if not override:
        cfg["source"][key] = value
    out = tmp_path / "out"
    code = main(["des", "--config", _write(tmp_path, cfg), *extra, "--out-dir", str(out)])
    assert code == 2
    assert f"source key {key!r} must lie in [0, 2^64), got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_seeds_and_streams_at_the_64_bit_edges_run(tmp_path):
    cfg = {"source": dict(BOUNDED_SOURCE, seed=2 ** 64 - 1, stream=2 ** 64 - 1),
           "run": {"customers": 50}}
    assert main(["des", "--config", _write(tmp_path, cfg), "--out-dir", str(tmp_path / "a"),
                 "--seed-override", "0"]) == 0
    assert _summary(tmp_path / "a")["seeds"] == {"seed": 0, "stream": 2 ** 64 - 1}


def test_cesaro_steps_past_intp_exit_2(tmp_path, capsys):
    # numpy cannot size an array of 10^30 steps: refused before the out dir
    cfg = {"source": BOUNDED_SOURCE, "run": {"steps": 10 ** 30}}
    out = tmp_path / "out"
    assert main(["cesaro", "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert "run.steps must be <= 384307168202282325" in capsys.readouterr().err
    assert not out.exists()


_EXP = {"kind": "iid", "seed": 9, "xi": {"dist": "exponential", "rate": 3.0},
        "sigma": {"dist": "exponential", "rate": 1.0},
        "dpat": {"dist": "exponential", "rate": 0.5}}


@pytest.mark.parametrize("experiment, source, run, key, value", [
    ("props", BOUNDED_SOURCE, {}, "tuples", 10 ** 30),
    ("regen", BOUNDED_SOURCE, {"customers": 50}, "replicas", 10 ** 30),
    ("regen", _EXP, {"customers": 50}, "replicas", 10 ** 30),
    ("loss-begin", BOUNDED_SOURCE, {"mode": "exact", "samples": 5}, "max_epochs", 10 ** 30),
    ("sample-s", BOUNDED_SOURCE, {"mode": "exact", "samples": 5}, "max_epochs", 2 ** 63),
    ("props", BOUNDED_SOURCE, {}, "tuples", 2 ** 63 - 1),
    ("regen", BOUNDED_SOURCE, {"customers": 50}, "replicas", 2 ** 63 - 1),
    ("cesaro", BOUNDED_SOURCE, {}, "steps", 2 ** 63 - 1),
], ids=["props-tuples", "regen-replicas-bounded", "regen-replicas-exponential",
        "loss-begin-max-epochs", "sample-s-max-epochs-2^63", "props-tuples-2^63-1",
        "regen-replicas-2^63-1", "cesaro-steps-2^63-1"])
def test_counts_numpy_cannot_index_exit_2(tmp_path, capsys, experiment, source, run, key,
                                          value):
    # numpy sizes arrays by tuples, replicas and steps, and takes max_epochs as
    # a C long: a count whose largest array would pass the largest numpy index
    # in bytes (8 a tuple or a replica, 3 float64 rows a step, 1 an epoch) is
    # refused before the out dir is made.  These ran into a numpy ValueError
    # or OverflowError, raised out of main (exit 1), at 2^63 - 1 after cesaro
    # had made its out dir
    most = {"tuples": 2 ** 60 - 1, "replicas": 2 ** 60 - 1, "steps": (2 ** 63 - 1) // 24,
            "max_epochs": 2 ** 63 - 1}[key]
    out = tmp_path / "out"
    cfg = {"source": source, "run": {**run, key: value}}
    assert main([experiment, "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert f"run.{key} must be <= {most}, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_max_epochs_at_the_largest_numpy_index_runs(tmp_path):
    cfg = {"source": BOUNDED_SOURCE,
           "run": {"mode": "exact", "samples": 5, "max_epochs": 2 ** 63 - 1}}
    assert main(["loss-begin", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0


# the exact-iid and exact-markov benchmark configs, each with the experiments
# that screen it: loss rows (first candidate 0) and sample draws (first 1)
SCREENED = {
    "exact-iid": ({"kind": "iid", "seed": 20081,
                   "xi": {"dist": "uniform", "low": 0.2, "high": 1.0},
                   "sigma": {"dist": "truncated-exponential", "rate": 1.5, "cap": 2.0},
                   "dpat": {"dist": "uniform", "low": 0.0, "high": 1.5}},
                  {"servers": 1, "impatience": "begin"}, ("loss-begin", "sample-w")),
    "exact-markov": ({"kind": "markov", "seed": 20082, "transition": [[0.9, 0.1], [0.3, 0.7]],
                      "states": [{"xi": {"dist": "uniform", "low": 0.5, "high": 1.5},
                                  "sigma": {"dist": "uniform", "low": 0.0, "high": 0.8},
                                  "dpat": {"dist": "uniform", "low": 0.0, "high": 1.0}},
                                 {"xi": {"dist": "uniform", "low": 0.1, "high": 0.7},
                                  "sigma": {"dist": "truncated-exponential", "rate": 1.0,
                                            "cap": 3.0},
                                  "dpat": {"dist": "uniform", "low": 0.5, "high": 3.0}}]},
                     {"servers": 1, "impatience": "end"}, ("loss-end", "sample-s")),
}
SCREEN_LIMITS = [0, -1, 1, 2, 2.5, "3", math.nan, 2**63 - 1, 2**64, 10**30]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=st.sampled_from(sorted(SCREENED)), second=st.booleans(),
       key=st.sampled_from(["max_epochs", "max_depth"]), value=st.sampled_from(SCREEN_LIMITS),
       samples=st.integers(1, 50))
def test_screen_limits_exit_cleanly(tmp_path_factory, config, second, key, value, samples):
    # any run.max_epochs or run.max_depth: a run, a config error (2) or a
    # stopped screen (3), never a traceback, and no file left on an error
    source, model, experiments = SCREENED[config]
    tmp = tmp_path_factory.mktemp("limits")
    cfg = {"source": source, "model": model,
           "run": {"mode": "exact", "samples": samples, key: value}}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([experiments[second], "--config", _write(tmp, cfg),
                     "--out-dir", str(tmp / "out")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert not [p for p in tmp.joinpath("out").rglob("*") if not p.is_dir()]


# run keys that size a run: each golden config's value is capped at 2000, and
# none is left out, whose default is a longer run
_SIZES = {"samples", "warmup", "customers", "steps", "tuples", "replicas"}
_MISSING = object()
# a wrong type, NaN, infinities, an integer past any float, a negative, zero;
# 2^64 and 10^30 only where the key's entry refuses them (a valid huge count
# is a long run)
_BAD = ["x", True, None, [1], {"a": 1}, math.nan, math.inf, -math.inf, 10 ** 400, -1, -2.5, 0]
_HUGE = [2 ** 64, 10 ** 30]


def _fuzz_cases() -> list:
    """(golden case, section, key, value) for each model and run key of the
    case's experiment (cli.SCHEMA) and each value it should meet, a key the
    experiment does not take, and each key the golden config sets left out."""
    cases = []
    for name, (experiment, cfg) in sorted(CASES.items()):
        for section, keys in cli.SCHEMA[experiment].items():
            cases.append((name, section, "bogus", 1))
            for key, entry in keys.items():
                refuses_huge = entry.unit or entry.choices or entry.caster is cli._levels
                cases += [(name, section, key, v) for v in _BAD + _HUGE * bool(refuses_huge)]
                if key in cfg.get(section, {}) and key not in _SIZES:
                    cases.append((name, section, key, _MISSING))
    return cases


FUZZ_CASES = _fuzz_cases()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=st.sampled_from(FUZZ_CASES), workers=st.sampled_from([1, 2]))
def test_one_wrong_config_field_exits_cleanly(tmp_path_factory, case, workers):
    # one field of a golden config changed or left out: a run, a config error
    # (2) that leaves no out dir, a stopped run (3) that leaves no file, or a
    # broken contract (4) with only the summary and its CSVs, never a traceback
    name, section, key, value = case
    experiment, golden = CASES[name]
    cfg = json.loads(json.dumps(golden))
    cfg["run"] = {k: min(v, 2000) if k in _SIZES else v for k, v in cfg["run"].items()}
    block = cfg.setdefault(section, {})
    if value is _MISSING:
        del block[key]
    else:
        block[key] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([experiment, "--config", _write(tmp, cfg), "--out-dir", str(out),
                     "--workers", str(workers)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert not out.exists()
    elif code == 3:
        assert not [p for p in out.rglob("*") if not p.is_dir()]
    elif code == 4:
        assert {p.name for p in out.iterdir()} <= {"summary.json", "detail.csv",
                                                   "customers.csv"}


MARKOV_SOURCE = {
    "kind": "markov", "seed": 3, "transition": [[0.9, 0.1], [0.3, 0.7]],
    "states": [{"xi": {"dist": "uniform", "low": 0.5, "high": 1.5},
                "sigma": {"dist": "uniform", "low": 0.0, "high": 0.8},
                "dpat": {"dist": "uniform", "low": 0.0, "high": 1.0}}] * 2,
}


def _with_typo(where):
    cfg = {"source": json.loads(json.dumps(BOUNDED_SOURCE)),
           "model": {"servers": 1, "impatience": "begin"},
           "run": {"mode": "exact", "samples": 5}}
    if where == "top":
        cfg["experimnt"] = "loss-begin"
    elif where == "source":
        cfg["source"]["sead"] = 7
    elif where == "marginal":
        cfg["source"]["xi"]["hihg"] = 2.0
    elif where == "model":
        cfg["model"]["impatiance"] = "end"
    elif where == "run":
        cfg["run"]["sampels"] = 5
    else:
        cfg["source"] = json.loads(json.dumps(MARKOV_SOURCE))
        cfg["source"]["states"][1]["dpatt"] = {"dist": "deterministic", "value": 1.0}
    return cfg


@pytest.mark.parametrize("where", ["top", "source", "marginal", "model", "run", "markov-state"])
def test_unknown_config_keys_exit_2(tmp_path, capsys, where):
    out = tmp_path / "out"
    code = main(["loss-begin", "--config", _write(tmp_path, _with_typo(where)),
                 "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown" in err
    assert any(typo in err for typo in ("experimnt", "sead", "hihg", "impatiance", "sampels",
                                        "dpatt"))
    assert not out.exists()


# (experiment, its run section, the section and name of a key only other
# experiments read): one case per family of experiments that read the same keys
@pytest.mark.parametrize("experiment, run, section, key", [
    ("loss-begin", {"mode": "exact", "samples": 5}, "run", "replicas"),
    ("regen", {"customers": 100, "replicas": 5}, "run", "samples"),
    ("des", {"customers": 100}, "run", "max_depth"),
    ("cesaro", {"steps": 10}, "run", "customers"),
    ("props", {"tuples": 10}, "model", "servers"),
], ids=["sample-loss", "regen", "des-xval", "cesaro", "props"])
def test_keys_the_experiment_does_not_read_exit_2(tmp_path, capsys, experiment, run, section,
                                                  key):
    cfg = {"source": BOUNDED_SOURCE, "run": run}
    cfg[section] = {**cfg.get(section, {}), key: 5}
    out = tmp_path / "out"
    code = main([experiment, "--config", _write(tmp_path, cfg), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown" in err and f"keys [{key!r}]" in err
    assert not out.exists()


DISCRETE = {"dist": "discrete", "atoms": [0.1, 0.3], "probs": [0.5, 0.5]}


# (id, keys down to the bad value in "source", the value, what the error names);
# the ids are explicit, so removing a case renames no other
MALFORMED = [
    ("path0-abc-seed", ("seed",), "abc", "seed"),
    ("path1-None-seed", ("seed",), None, "seed"),
    ("path2-value2-seed", ("seed",), [1], "seed"),
    ("path3-inf-seed", ("seed",), math.inf, "seed"),
    ("path4-x-stream", ("stream",), "x", "stream"),
    ("path5-value5-rate", ("xi",), {"dist": "exponential", "rate": "fast"}, "rate"),
    ("path6-a-low", ("xi", "low"), "a", "low"),
    ("path7-None-high", ("sigma", "high"), None, "high"),
    ("path8-value8-atoms",  # not the atoms 1.0 and 3.0
     ("dpat",), dict(DISCRETE, atoms="13"), "atoms"),
    ("path9-value9-probs", ("dpat",), dict(DISCRETE, probs=[0.5, "x"]), "probs"),
    ("path10-value10-probs", ("dpat",), dict(DISCRETE, probs=0.5), "probs"),
    ("path11-value11-probs", ("dpat",), dict(DISCRETE, probs=[math.nan, 1.0]), "probs"),
    ("path12-value12-transition", ("transition",), [[0.9, "a"], [0.3, 0.7]], "transition"),
    ("path13-5-transition", ("transition",), 5, "transition"),
    ("path14-value14-transition", ("transition",), [[math.nan, 0.1], [0.3, 0.7]], "transition"),
    ("path15-5-states", ("states",), 5, "states"),
    # numbers of the wrong kind: neither truncated nor parsed
    ("path16-4401.9-seed", ("seed",), 4401.9, "seed"),
    ("path17-True-seed", ("seed",), True, "seed"),
    ("path18-4401-seed", ("seed",), "4401", "seed"),
    ("path19-2.5-stream", ("stream",), 2.5, "stream"),
    ("path20-False-stream", ("stream",), False, "stream"),
    ("path21-value21-rate", ("xi",), {"dist": "exponential", "rate": "2.0"}, "rate"),
    ("path22-value22-cap",
     ("sigma",), {"dist": "truncated-exponential", "rate": 1.0, "cap": True}, "cap"),
    ("path23-0.2-low", ("xi", "low"), "0.2", "low"),
    ("path24-True-high", ("sigma", "high"), True, "high"),
    ("path25-value25-atoms", ("dpat",), dict(DISCRETE, atoms=["0.1", 0.3]), "atoms"),
    ("path26-value26-probs", ("dpat",), dict(DISCRETE, probs=[True, False]), "probs"),
    ("path27-value27-transition", ("transition",), [[0.9, "0.1"], [0.3, 0.7]], "transition"),
    ("path28-value28-transition", ("transition",), [[True, False], [0.3, 0.7]], "transition"),
    ("path29-1.0-high", ("states", 1, "dpat", "high"), "1.0", "high"),
]


@pytest.mark.parametrize("path, value, named",
                         [pytest.param(*case, id=name) for name, *case in MALFORMED])
def test_malformed_source_values_exit_2(tmp_path, capsys, path, value, named):
    markov = path[0] in ("transition", "states")
    cfg = {"source": json.loads(json.dumps(MARKOV_SOURCE if markov else BOUNDED_SOURCE)),
           "run": {"mode": "exact", "samples": 5}}
    *parents, key = path
    block = cfg["source"]
    for k in parents:
        block = block[k]
    block[key] = value
    out = tmp_path / "out"
    code = main(["loss-begin", "--config", _write(tmp_path, cfg), "--out-dir", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("levels", [[0.5, 1.5], [-0.1], [math.nan], 0.5, ["a"], ["0.5"],
                                    [True]])
def test_quantile_levels_outside_the_unit_interval_exit_2(tmp_path, capsys, levels):
    cfg = {"source": BOUNDED_SOURCE, "run": {"steps": 10, "quantiles": levels}}
    code = main(["cesaro", "--config", _write(tmp_path, cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "run.quantiles" in capsys.readouterr().err


def test_config_section_must_be_an_object(tmp_path):
    cfg = {"source": BOUNDED_SOURCE, "model": 5, "run": {"mode": "exact", "samples": 5}}
    assert main(["loss-begin", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2


# the model and run keys each experiment takes (cli.SCHEMA)
_REPLICA_KEYS = ({"servers", "impatience"}, {"mode", "samples", "max_epochs", "max_depth",
                                             "warmup"})
TAKES = {
    **dict.fromkeys(("sample-w", "sample-s", "loss-begin", "loss-end"), _REPLICA_KEYS),
    "regen": ({"servers", "impatience"}, {"customers", "replicas", "max_depth"}),
    "des": ({"servers", "impatience"}, {"customers"}),
    "xval": ({"servers", "impatience"}, {"customers"}),
    "cesaro": ({"servers", "impatience"}, {"steps", "boundary_p", "quantiles"}),
    "props": (set(), {"tuples", "prop_seed"}),
}


def test_each_experiment_takes_its_model_and_run_keys():
    assert set(cli.SCHEMA) == set(cli.EXPERIMENTS)
    assert {name: (set(keys["model"]), set(keys["run"]))
            for name, keys in cli.SCHEMA.items()} == TAKES


def test_readme_config_table_matches_the_schema():
    # each row of the README's key table: the key, the experiments taking it
    # with that default and minimum, and the default as JSON
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in map(str.strip, readme.splitlines()):
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith(("| `model.", "| `run.")):
            section, key = cells[0].strip("`").split(".")
            for experiment in cells[1].replace("`", "").split(", "):
                table[experiment, section, key] = (json.loads(cells[2].strip("`")),
                                                   int(cells[3]) if cells[3] else None)
    schema = {(experiment, section, key): (list(e.default) if isinstance(e.default, tuple)
                                           else e.default, e.minimum)
              for experiment, sections in cli.SCHEMA.items()
              for section, keys in sections.items() for key, e in keys.items()}
    assert table == schema


# configs refused with exit 2 after the out dir was made, which was left
# behind empty (and xval at two servers, refused with exit 3 after it)
LATE_REFUSALS = [
    ("loss-begin", "run", "max_depth", 0),
    ("loss-begin", "run", "mode", "fast"),
    ("loss-begin", "run", "samples", 0),
    ("loss-begin", "model", "servers", 2),
    ("sample-w", "run", "warmup", -1),
    ("regen", "run", "max_depth", 0),
    ("des", "model", "servers", 0),
    ("des", "model", "impatience", "sideways"),
    ("des", "run", "customers", 0),
    ("des", "run", "customers", -5),
    ("cesaro", "run", "boundary_p", 0),
    ("cesaro", "model", "impatience", "x"),
    ("cesaro", "run", "quantiles", [2.0]),
    ("props", "run", "prop_seed", -1),
    ("xval", "model", "servers", 2),
]


@pytest.mark.parametrize("experiment, section, key, value", LATE_REFUSALS,
                         ids=[f"{e}-{k}-{v}" for e, _, k, v in LATE_REFUSALS])
def test_refused_values_leave_no_out_dir(tmp_path, capsys, experiment, section, key, value):
    cfg = {"source": BOUNDED_SOURCE, "model": {}, "run": {}}
    cfg[section][key] = value
    out = tmp_path / "out"
    assert main([experiment, "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert f"config key {section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["des", "regen", "xval"])
@pytest.mark.parametrize("section, key", [("run", "customers"), ("model", "servers")])
def test_counts_below_one_name_their_key(tmp_path, capsys, experiment, section, key):
    # these read "horizon_customers must be >= 1" and "servers must be >= 1",
    # from des.Scenario, naming no key of the config
    cfg = {"source": BOUNDED_SOURCE, "model": {}, "run": {}}
    cfg[section][key] = 0
    out = tmp_path / "out"
    assert main([experiment, "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert f"config key {section}.{key} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment,run,args", [
    ("sample-w", {"mode": "exact", "samples": 0}, []),
    ("loss-begin", {"mode": "exact", "samples": -3}, []),
    ("loss-begin", {"mode": "exact", "max_epochs": 0}, []),
    ("sample-w", {"mode": "exact", "max_epochs": 0}, []),
    ("loss-end", {"mode": "exact", "max_depth": 0}, []),
    ("regen", {"replicas": 0}, []),
    ("cesaro", {"steps": 0}, []),
    ("cesaro", {"boundary_p": 0}, []),
    ("loss-begin", {"mode": "approximate", "samples": 5, "warmup": -1}, []),
    ("sample-s", {"mode": "approximate", "samples": 5, "warmup": -1}, []),
    ("props", {"tuples": 0}, []),
    ("loss-begin", {"mode": "exact", "samples": 5}, ["--workers", "0"]),
    ("props", {"prop_seed": -1}, []),
])
def test_out_of_range_run_integers_exit_2(tmp_path, capsys, experiment, run, args):
    cfg = {"source": BOUNDED_SOURCE, "run": run}
    code = main([experiment, "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out"), *args])
    assert code == 2
    assert "must be >= " in capsys.readouterr().err


# (experiment, config section, key, value): integers that are bools,
# strings, fractions or infinite
@pytest.mark.parametrize("experiment, section, key, value", [
    ("loss-begin", "run", "samples", 20.7),
    ("loss-begin", "run", "samples", "20"),
    ("loss-begin", "run", "samples", True),
    ("loss-begin", "run", "samples", math.inf),
    ("loss-begin", "run", "max_epochs", "10"),
    ("loss-end", "run", "max_depth", 300.5),
    ("loss-begin", "run", "warmup", 1.5),
    ("sample-w", "run", "samples", 3.25),
    ("regen", "run", "replicas", False),
    ("regen", "run", "max_depth", "300"),
    ("des", "run", "customers", 100.5),
    ("des", "model", "servers", 2.5),
    ("cesaro", "run", "steps", "10"),
    ("cesaro", "run", "boundary_p", True),
    ("props", "run", "tuples", 10.5),
    ("props", "run", "prop_seed", "7"),
    # past any float: strict_int's float() raised OverflowError, out of main
    pytest.param("loss-begin", "run", "samples", 10 ** 400, id="loss-begin-run-samples-10^400"),
    pytest.param("des", "model", "servers", -10 ** 400, id="des-model-servers--10^400"),
])
def test_non_integer_config_integers_exit_2(tmp_path, capsys, experiment, section, key, value):
    run = {"mode": "approximate", "samples": 5} if key == "warmup" else {}
    cfg = {"source": BOUNDED_SOURCE, "model": {}, "run": run}
    cfg[section][key] = value
    code = main([experiment, "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_integral_floats_are_read_as_integers(tmp_path):
    cfg = {"source": dict(BOUNDED_SOURCE, seed=4401.0, stream=2.0),
           "run": {"mode": "exact", "samples": 5.0, "max_depth": 300.0}}
    out = tmp_path / "out"
    assert main(["loss-begin", "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 0
    summary = _summary(out)
    assert summary["seeds"]["seed"] == 4401 and summary["seeds"]["stream"] == 2
    assert summary["results"]["replicas"] == 5


# delta = 2e-9: the chain is valid, but no regeneration turns up within the
# longest lookback before the first replica's window
DEGENERATE_SOURCE = dict(MARKOV_SOURCE, seed=7, transition=[[1 - 2e-9, 2e-9], [0.0, 1.0]])


@pytest.mark.parametrize("workers", [1, 2])
def test_near_degenerate_chain_exits_3(tmp_path, capsys, workers):
    cfg = {"source": DEGENERATE_SOURCE, "run": {"mode": "exact", "samples": 4}}
    code = main(["loss-end", "--config", _write(tmp_path, cfg), "--workers", str(workers),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "capability error: no chain regeneration" in err
    # replica 0's first window, recursion._FIRST_WIDTH = 32 marks, starts at -31: the
    # batch finds no regeneration in its lookback and window_arrays, looking
    # further back from there, raises first
    assert "before index -31;" in err


def test_cli_import_loads_numpy_random_but_not_scipy():
    # scipy.stats takes about a second to import and only t intervals use
    # it; numpy.random is needed by every mark fetch, so it must not be left
    # to each process-pool worker
    src = str(Path(renege.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = "import sys, renege.cli; print('scipy' in sys.modules, 'numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.split() == ["False", "True"]


_RNG = np.random.default_rng(2701)
_FLOAT_COLUMNS = {
    "random": _RNG.standard_normal(700) * 10.0 ** _RNG.integers(-300, 300, 700),
    "signed-zeros": np.array([0.0, -0.0, -0.0, 0.0, -0.0]),
    "all-negative-zero": np.full(300, -0.0),
    "all-zero": np.zeros(300),
    "non-finite": np.array([np.nan, np.inf, -np.inf, 1.0, -np.nan]),
    "all-nan": np.full(3, np.nan),
    "subnormal": np.array([5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]),
    "one": np.array([0.1]),
    "empty": np.empty(0),
    "all-equal": np.full(300, 1 / 3),
    "strided": np.arange(20.0)[::3],
}
_INT_COLUMNS = {
    "random": _RNG.integers(-2 ** 63, 2 ** 63 - 1, 700, dtype=np.int64, endpoint=True),
    "one": np.array([-7], dtype=np.int64),
    "empty": np.empty(0, dtype=np.int64),
    "all-equal": np.full(300, 2 ** 62, dtype=np.int64),
    "all-zero": np.zeros(300, dtype=np.int64),
}


_OTHER_COLUMNS = {
    "range": range(2 ** 62 - 3, 2 ** 62 + 300),
    "empty-range": range(5, 5),
    "text": ["renovation-exact"] * 300,
    "blanks": [""] * 3,
}


@pytest.mark.parametrize("col", [*_FLOAT_COLUMNS.values(), *_INT_COLUMNS.values(),
                                 *_OTHER_COLUMNS.values()],
                         ids=[f"float64-{k}" for k in _FLOAT_COLUMNS] +
                             [f"int64-{k}" for k in _INT_COLUMNS] + list(_OTHER_COLUMNS))
def test_typed_array_columns_keep_their_text(col):
    # float64 and int64 arrays are formatted by their dtype, all-equal ones
    # as one cell repeated, ranges as ints and text lists as they are: the
    # text is repr's of each value (blank for NaN), or the text itself
    values = col.tolist() if isinstance(col, np.ndarray) else col
    assert _cells(col) == [v if isinstance(v, str) else "" if v != v else repr(v)
                           for v in values]


def test_constant_columns_keep_zero_signs_apart():
    # 0.0 == -0.0, but their bits differ: no column mixing them is one cell repeated
    for col in (np.array([0.0] + [-0.0] * 299), np.array([-0.0] * 299 + [0.0])):
        assert _cells(col) == [repr(v) for v in col.tolist()]
        assert set(_cells(col)) == {"0.0", "-0.0"}


_BOUNDARIES = [1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e16,
               np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 5e-324,
               np.finfo(np.float64).max, np.finfo(np.float64).tiny, 1e-5, 2.5e-5, 1e-7,
               1e21, 1e22, 1.2345678901234568e17, 9999999999999998.0, 0.1, 1 / 3]


def _reprs(values):
    """repr of each value, blank for NaN: the one cell rule for floats."""
    return ["" if v != v else repr(float(v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_float_cells_are_repr(values):
    # every float hypothesis draws, NaN, ±inf, ±0.0 and subnormals among them
    assert _float_cells(np.array(values, dtype=np.float64)) == _reprs(values)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_float_cells_at_the_layout_boundaries(sign):
    # orjson writes 0.00001 and 1e16 where repr writes 1e-05 and 1e+16: at and
    # next to each edge of 1e-4 <= |x| < 1e16 the cell is repr's
    values = np.array([sign * v for v in _BOUNDARIES])
    assert _float_cells(values) == _reprs(values)
    assert [_float_cells(values[i:i + 1]) for i in range(values.size)] == \
        [[r] for r in _reprs(values)]


def test_float_cells_of_arrays_of_any_shape():
    assert _float_cells(np.empty(0)) == []
    assert _float_cells(np.array([0.5])) == ["0.5"]
    strided = np.linspace(-3.0, 7.0, 301)[::7]
    assert not strided.flags.c_contiguous
    assert _float_cells(strided) == _reprs(strided)


def test_float_cells_write_nan_as_blank():
    # NaN is a missing value (a start that never came): blank, whatever its
    # sign or payload, where orjson writes null for it and for the infinities
    payload = np.array([0x7FF8_0000_0000_0001, 0xFFF0_0000_0000_0002], dtype=np.uint64)
    values = np.concatenate(([math.nan, 1.5, -math.nan, -math.inf, 2e-9, math.inf],
                             payload.view(np.float64)))
    assert _float_cells(values) == ["", "1.5", "", "-inf", "2e-09", "inf", "", ""]
    assert _cells(np.full(5, math.nan)) == [""] * 5


def test_float_cells_match_repr_on_a_million_bit_patterns():
    # random 64-bit patterns, all but every 16th with the exponent redrawn over
    # 2^-20 .. 2^60, across both edges of orjson's layout; the raw ones are
    # mostly far outside it, NaN payloads, infinities and subnormals among them
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    exponent = rng.integers(1023 - 20, 1023 + 60, bits.size, dtype=np.uint64)
    drawn = np.arange(bits.size) % 16 != 0
    bits[drawn] = (bits[drawn] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent[drawn] <<
                                                                      np.uint64(52))
    values = bits.view(np.float64)
    assert _float_cells(values) == _reprs(values.tolist())


def _customers_reference(path, cols):
    """customers.csv by csv.writer from simulate's columns, floats as repr and
    a NaN service_start (a customer who abandoned) blank."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "arrival", "sigma", "dpat", "service_start", "departure",
                         "outcome"])
        times = (cols.arrival, cols.sigma, cols.dpat, cols.service_start, cols.departure)
        writer.writerows(zip(range(cols.arrival.size), *(_reprs(c.tolist()) for c in times),
                             cols.outcome))


# services of -0.0, so every customer starts and departs on arrival,
# patience of 0 tying deadlines to arrivals, and arrivals tied with each other
_ZERO_SERVICE = {"kind": "iid", "seed": 10,
                 "xi": {"dist": "discrete", "atoms": [0.0, 0.5], "probs": [0.5, 0.5]},
                 "sigma": {"dist": "deterministic", "value": -0.0},
                 "dpat": {"dist": "discrete", "atoms": [0.0, 0.5], "probs": [0.5, 0.5]}}


@pytest.mark.parametrize("servers", [1, 2, 4])
@pytest.mark.parametrize("model", ["begin", "end"])
@pytest.mark.parametrize("source", [_EXP, _ZERO_SERVICE], ids=["exponential", "zero-service"])
def test_customers_csv_matches_csv_writer(tmp_path, source, model, servers):
    # 40 001 customers: ten blocks of simulate_blocks, the last partial, and
    # slices of _CSV_ROWS rows that straddle them
    cfg = {"source": source, "model": {"servers": servers, "impatience": model},
           "run": {"customers": 40_001}}
    assert main(["des", "--config", _write(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    cols, _ = simulate(Scenario(servers=servers, impatience=model,
                                source=source_from_config(source), horizon_customers=40_001))
    _customers_reference(tmp_path / "want.csv", cols)
    assert (tmp_path / "out" / "customers.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()
