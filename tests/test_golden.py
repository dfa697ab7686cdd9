"""Golden outputs: every subcommand on small pinned configs.

Each case runs through the real entry point and compares the SHA-256 of every
file it writes with a stored hash.  The hashes were recorded from the code
before Markov chain states were resolved in vectorised form, so they guard
that and every later speed-up.  Those of loss-end-approx-iid,
loss-begin-approx-heavy and sample-w-approx were recorded from the scalar
forward kernels, before the coupled-segment engine replaced them, and those
of cesaro-iid and xval-end from the per-mark walks in renege.cesaro and
renege.des, before they went through the shared path kernels.  That of
loss-end-markov3-slow was recorded while exact Markov rows still resolved
their windows one replica at a time, before the batched chain composition.
Those of sample-w-markov and sample-s-markov were re-recorded when exact draws
moved to the loss rows' epochs, 2*max_depth apart, from max(2*max_depth,
warmup).  Those of des-long, des-long-markov, regen-long and xval-long, at
40 001 customers (ten DES blocks, the last one partial), were
recorded while the DES still simulated the whole horizon at once.
Change a hash only when a numeric change is intended and named in CHANGES.md.
"""

import csv
import hashlib
import io
import json

import pytest

from renege.cli import main


def _u(low, high):
    return {"dist": "uniform", "low": low, "high": high}


BOUNDED = {"kind": "iid", "seed": 4401, "xi": _u(0.5, 1.5), "sigma": _u(0.0, 0.8),
           "dpat": {"dist": "truncated-exponential", "rate": 2.0, "cap": 0.6}}
EXPO = {"kind": "iid", "seed": 4402, "xi": {"dist": "exponential", "rate": 1.0},
        "sigma": {"dist": "exponential", "rate": 1.2}, "dpat": {"dist": "exponential", "rate": 0.5}}
MARKOV = {"kind": "markov", "seed": 4403, "transition": [[0.9, 0.1], [0.3, 0.7]],
          "states": [{"xi": _u(0.5, 1.5), "sigma": _u(0.0, 0.8), "dpat": _u(0.0, 1.0)},
                     {"xi": _u(0.1, 0.7), "sigma": {"dist": "truncated-exponential",
                                                    "rate": 1.0, "cap": 3.0},
                      "dpat": {"dist": "discrete", "atoms": [0.5, 1.5, 3.0],
                               "probs": [0.3, 0.5, 0.2]}}]}
# a slow-mixing three-state chain (delta = 0.06): long stretches between regenerations
MARKOV3 = {"kind": "markov", "seed": 4404,
           "transition": [[0.9, 0.06, 0.04], [0.05, 0.9, 0.05], [0.03, 0.02, 0.95]],
           "states": [{"xi": _u(0.2, 0.6), "sigma": _u(0.0, 0.3), "dpat": _u(0.0, 0.2)},
                      {"xi": _u(0.8, 1.6), "sigma": _u(0.0, 0.9), "dpat": _u(0.0, 0.5)},
                      {"xi": _u(1.0, 2.0), "sigma": _u(0.2, 1.2), "dpat": _u(0.1, 0.9)}]}
# a three-state chain with delta = 0.03: about one replica window in eight has
# no regeneration in its 64-block lookback and takes the per-window resolver
MARKOV3_SLOW = {"kind": "markov", "seed": 4407,
                "transition": [[0.97, 0.02, 0.01], [0.01, 0.97, 0.02], [0.02, 0.01, 0.97]],
                "states": [{"xi": _u(0.3, 1.1), "sigma": _u(0.0, 0.6), "dpat": _u(0.0, 0.4)},
                           {"xi": _u(0.6, 1.4), "dpat": _u(0.0, 1.2),
                            "sigma": {"dist": "truncated-exponential", "rate": 1.5, "cap": 2.0}},
                           {"xi": _u(0.9, 1.9), "sigma": _u(0.2, 1.0),
                            "dpat": {"dist": "discrete", "atoms": [0.2, 0.8, 1.6],
                                     "probs": [0.5, 0.3, 0.2]}}]}
# heavy end-model dominating recursion (alpha = dpat, up to 6): about one replica
# in six needs more than 128 marks to certify and replay, so the loss rows take
# the scalar path for those
DEEP = {"kind": "iid", "seed": 4405, "xi": _u(0.1, 0.9), "sigma": _u(0.0, 1.0),
        "dpat": {"dist": "truncated-exponential", "rate": 0.5, "cap": 6.0}}
# near-critical begin model (rho = 1, mean patience 5): now and then a segment
# of an approximate run's window does not couple, and the scalar kernels run
# the next segments until one ends on its path from 0
HEAVY = {"kind": "iid", "seed": 4406, "xi": {"dist": "exponential", "rate": 1.0},
         "sigma": {"dist": "exponential", "rate": 1.0},
         "dpat": {"dist": "exponential", "rate": 0.2}}

# the des benchmark workload's source
DES_WORKLOAD = {"kind": "iid", "seed": 20084, "xi": {"dist": "exponential", "rate": 3.0},
                "sigma": {"dist": "exponential", "rate": 1.0},
                "dpat": {"dist": "exponential", "rate": 0.5}}
LONG = 40_001  # customers: past one DES block, and not a multiple of one

# name -> (subcommand, config)
CASES = {
    "sample-w-iid": ("sample-w", {"source": BOUNDED, "run": {"mode": "exact", "samples": 40}}),
    "sample-w-markov": ("sample-w", {"source": MARKOV3,
                                     "run": {"mode": "exact", "samples": 30, "max_depth": 300}}),
    "sample-s-markov": ("sample-s", {"source": MARKOV,
                                     "run": {"mode": "exact", "samples": 30, "max_depth": 300}}),
    "loss-begin-iid": ("loss-begin", {"source": BOUNDED, "run": {"mode": "exact", "samples": 60}}),
    "loss-begin-approx": ("loss-begin", {"source": EXPO, "run": {
        "mode": "approximate", "samples": 20000, "warmup": 2000}}),
    "loss-begin-markov": ("loss-begin", {"source": MARKOV,
                                         "run": {"mode": "exact", "samples": 60}}),
    "loss-end-iid": ("loss-end", {"source": DEEP, "run": {"mode": "exact", "samples": 60}}),
    "loss-end-markov": ("loss-end", {"source": MARKOV, "run": {"mode": "exact", "samples": 60}}),
    "loss-end-markov3": ("loss-end", {"source": MARKOV3, "run": {"mode": "exact", "samples": 40}}),
    "loss-end-markov3-slow": ("loss-end", {"source": MARKOV3_SLOW, "run": {
        "mode": "exact", "samples": 150, "max_depth": 400}}),
    "loss-end-approx-markov": ("loss-end", {"source": MARKOV, "run": {
        "mode": "approximate", "samples": 20000, "warmup": 1000}}),
    # four coupled windows: one of warm-up, three of samples
    "loss-end-approx-iid": ("loss-end", {"source": EXPO, "run": {
        "mode": "approximate", "samples": 150000, "warmup": 50000}}),
    "loss-begin-approx-heavy": ("loss-begin", {"source": HEAVY, "run": {
        "mode": "approximate", "samples": 60000, "warmup": 5000}}),
    "sample-w-approx": ("sample-w", {"source": EXPO, "run": {
        "mode": "approximate", "samples": 12, "warmup": 40000}}),
    "regen-markov": ("regen", {"source": MARKOV3, "model": {"servers": 1, "impatience": "begin"},
                               "run": {"customers": 1500, "replicas": 30, "max_depth": 300}}),
    # unbounded source: prob_zero_estimate takes the truncated walk
    "regen-iid": ("regen", {"source": EXPO, "model": {"servers": 1, "impatience": "begin"},
                            "run": {"customers": 3000, "replicas": 40, "max_depth": 200}}),
    "des-markov": ("des", {"source": MARKOV, "model": {"servers": 2, "impatience": "end"},
                           "run": {"customers": 2000}}),
    "des-iid": ("des", {"source": EXPO, "model": {"servers": 4, "impatience": "begin"},
                        "run": {"customers": 2000}}),
    "des-long": ("des", {"source": DES_WORKLOAD, "model": {"servers": 4, "impatience": "end"},
                         "run": {"customers": LONG}}),
    "des-long-markov": ("des", {"source": MARKOV, "model": {"servers": 2, "impatience": "begin"},
                                "run": {"customers": LONG}}),
    "regen-long": ("regen", {"source": EXPO, "model": {"servers": 1, "impatience": "begin"},
                             "run": {"customers": LONG, "replicas": 40, "max_depth": 200}}),
    "xval-long": ("xval", {"source": EXPO, "model": {"servers": 1, "impatience": "end"},
                           "run": {"customers": LONG}}),
    "cesaro-markov": ("cesaro", {"source": MARKOV, "model": {"impatience": "end"},
                                 "run": {"steps": 3000, "boundary_p": 5}}),
    "cesaro-iid": ("cesaro", {"source": BOUNDED, "model": {"impatience": "begin"},
                              "run": {"steps": 3000, "boundary_p": 5}}),
    "xval-markov": ("xval", {"source": MARKOV3, "model": {"servers": 1, "impatience": "begin"},
                             "run": {"customers": 2000}}),
    "xval-end": ("xval", {"source": EXPO, "model": {"servers": 1, "impatience": "end"},
                          "run": {"customers": 2000}}),
    "props": ("props", {"source": BOUNDED, "run": {"tuples": 2000}}),
}

# name -> {output file: SHA-256}
HASHES = {
    "sample-w-iid": {
        "detail.csv": "28bf23b1bfee991d439caed9cd89679e433a87dac131363d5df496c8761ca1b2",
        "summary.json": "b5af80ae585e890117783a89a3c3cdc52bcc42bfdc1d049de6042f4cd5e204ca",
    },
    "sample-w-markov": {
        "detail.csv": "e5cf6e251b9dbc1231f0b7b9b76c7382a80d882af5b3e64a3d136755b6eb05e8",
        "summary.json": "d900cac11e4f4adce3047ed37b45d3690bd2963a44391b003c46a68b9d39a549",
    },
    "sample-s-markov": {
        "detail.csv": "2c19a9099ba04dd0e8e972851af1d1b1746a856df63a1515ae17a6ab88d1796e",
        "summary.json": "06806b01b868bfe8a257970804cc52244e000eb4ac99c35d08ff78cf8e93c793",
    },
    "loss-begin-iid": {
        "detail.csv": "402a34466266493f1c5eed47978fac4ddf80c818fc119f534b624b8be0087b30",
        "summary.json": "8c731b153e994767d0e67a22ae291d9bebd1e0d30a7e4595d34450f34874070d",
    },
    "loss-begin-approx": {
        "summary.json": "d7910ee48b6ba8364adb701ac0e64dec2eb21310a984c8d7aa3daecb7ca43fdb",
    },
    "loss-begin-markov": {
        "detail.csv": "7103da6c6b4eb046197d6fcd4bd749469baf64ab721006816c5f5759494903d9",
        "summary.json": "ca361fddc0d06e487d88c8a0a603a2e2228aead0879389e5c7860b98a2c156cd",
    },
    "loss-end-iid": {
        "detail.csv": "9bb1590d1683c69996d40c48231c2c8c5e78f73ea2a81ae9e154ee1d46b9b03c",
        "summary.json": "9ddbf4aec4dddd24109ed4a337a1d21dc20bcaba36285b5870ecef7e04a5e1e4",
    },
    "loss-end-markov": {
        "detail.csv": "419bbb6fa541e99449a3c4cbf87a8d5760c28bd9d79e68af3d64341636e68e1c",
        "summary.json": "e27020600678c07ddbbb3eb929da7c91edc807aa260682ab25adfaa038589c3a",
    },
    "loss-end-markov3": {
        "detail.csv": "292b44964cac169317f13cc36e35194e9f164fdd2718200eeb4ada4d77c9c287",
        "summary.json": "d45f3a29e392cdc4777a74bff62a10dede75e29c52bf8062cc18d7c2e25822ad",
    },
    "loss-end-markov3-slow": {
        "detail.csv": "1a69d2ec7ffacf74cdc6fe9226beb1a12472bd1d9541b3c35bedd9f2d3a4198c",
        "summary.json": "715b8cb062b1074f37e863a66def439f0825886f116a95c83cdc4ab940c7df92",
    },
    "loss-end-approx-markov": {
        "summary.json": "8bb24ccb9823e3045e07d2df1c5e8a1db71cd0f0e73c566fcfa50a0f4a8d6bec",
    },
    "loss-end-approx-iid": {
        "summary.json": "9d02212caf52b8fa44093ef86ef6394572ba08612c6b435e5e1201941fb90898",
    },
    "loss-begin-approx-heavy": {
        "summary.json": "fbca56e52716eec91932e07df0fe799a01961e71c2c888477feaeb63c1dc1bc8",
    },
    "sample-w-approx": {
        "detail.csv": "18f73554a0e697dc0e3d3bac9b1dd34f6d4905b489d988ef3d66150f688e87da",
        "summary.json": "b3fb51aeafb4d7ed0a7949f5c5b5e20947054ca5bec4d786d5b898558ece1074",
    },
    "regen-markov": {
        "detail.csv": "b5f26611c78c848d2d84d42ea94233d5005851b43655a001a7c854e7537d80b8",
        "summary.json": "243174bf57248ba65d8cf745bbdcc0af9f0f9c780222e0e7588bebb12d725f62",
    },
    "regen-iid": {
        "detail.csv": "d1075158e3d510e03ec7de447ec737f8a3184be29fa9d3ae3cc3ae7537a11acf",
        "summary.json": "bdade27c7ae4392b0c64f5b2a7547fe4ad2e831622e6b05d88819384bbe0b27c",
    },
    "des-markov": {
        "customers.csv": "4259a7d444ad9c86f6a887bff1fc22c770e4bc88e0c1e0aa50b689b9861788da",
        "summary.json": "e9f3229fc37b7764ccf7010e9e7ea14bc8c883439b5994a91d4cf3d2f099d1f2",
    },
    "des-iid": {
        "customers.csv": "cd71b14b91c0e1a990bfacbddbfdc2e2f197f8cebc704fbdfc143111f89e566a",
        "summary.json": "ed765e28b4f56b974142976973cefdb6de3f5db968cdae74032334fdbd95a89b",
    },
    "des-long": {
        "customers.csv": "1c9b5219ef7c2af1027ccdf48182250be5e98acfac57350da36dc66936f5de1a",
        "summary.json": "ada6e0e06666ee883bebf59092ea4930f610440efe06d91545ff390d826eaae6",
    },
    "des-long-markov": {
        "customers.csv": "28719bccc1b44f1b9cf03eb03e3e75bdab3a22091d54e95c875f39e5c28affe4",
        "summary.json": "970e44c0b5b8cc2e0fe8dcdef10dc84de107df20f06ad70c55aa35ebb1d353e9",
    },
    "regen-long": {
        "detail.csv": "344bed7ba24eaeac23b94ad2f1504d56ecf1e06230e129b1a1dea554775d96db",
        "summary.json": "bb1d76cf23373a8b9511bb13ca3017a6568f4fc227a82944c8deb4a2dc8f478d",
    },
    "xval-long": {
        "summary.json": "30dc575b3701a2458d80f0e449950f80eb6c7a602f51d5cc41c1faafe88dca27",
    },
    "cesaro-markov": {
        "detail.csv": "660de17854812fe9c923490206b73b5766022158786bdf8804b559ea722bfe2a",
        "summary.json": "8d6b267f830814413aee518dd24906025fc01eec4875ac7782799af697198e4e",
    },
    "cesaro-iid": {
        "detail.csv": "fe3a1be0d38bd4f8ab8a413bba997bdd523324d0b833293d532e5d51c743e8f8",
        "summary.json": "0f32020a7eb5a75aa720a8c0fb3cb780d154d0a5ab54c76b9604c5bda29f1bf6",
    },
    "xval-markov": {
        "summary.json": "fcc1df00ff9eff03a3d14dc59705c487c8b9ed88d3375681b41c32938b1d435a",
    },
    "xval-end": {
        "summary.json": "98a794269be475bdf54d7a21ae61c8752485eeff6967a508c0bd11b4189c154a",
    },
    "props": {
        "summary.json": "f2c0dec4d2073b365d6f1c07b1dcc282c2fedfdebba96410733440b12184c749",
    },
}


def run_case(name, tmp_path):
    """Run one golden case; returns {output file: SHA-256}."""
    experiment, cfg = CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert main([experiment, "--config", str(path), "--out-dir", str(out)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    assert run_case(name, tmp_path) == HASHES[name]


@pytest.mark.parametrize("name", [n for n in sorted(CASES)
                                  if any(f.endswith(".csv") for f in HASHES[n])])
def test_golden_csv_files_need_no_quoting(name, tmp_path):
    # the CSV writer joins cells with no quoting scan: every file reads back
    # through csv.reader to the cells of a plain split, a leading "#"
    # preamble line (cesaro's) ended by \n and every other line by \r\n
    run_case(name, tmp_path)
    for path in sorted((tmp_path / name).glob("*.csv")):
        text = path.read_bytes().decode("utf-8")
        preamble, body = text.split("\n", 1) if text.startswith("#") else (None, text)
        lines = body.split("\r\n")
        assert lines.pop() == "" and '"' not in text
        split = [line.split(",") for line in lines]
        assert len({len(row) for row in split}) == 1 and len(split[0]) >= 2
        assert list(csv.reader(io.StringIO(text, newline=""))) == \
            [[preamble]] * (preamble is not None) + split


def _blank_columns(name):
    """customers.csv's service_start, blank for a customer who abandoned, and
    approximate sample rows' renovation_epoch and certificate_depth, which no
    certificate fills: the columns of a case's CSV files that hold blanks."""
    experiment, cfg = CASES[name]
    approximate = experiment.startswith("sample") and cfg["run"]["mode"] == "approximate"
    return {"customers.csv": {"service_start"},
            "detail.csv": {"renovation_epoch", "certificate_depth"} if approximate else set()}


@pytest.mark.parametrize("name", [n for n in sorted(CASES)
                                  if any(f.endswith(".csv") for f in HASHES[n])])
def test_golden_csv_cells_are_blank_only_where_a_value_is_missing(name, tmp_path):
    # a missing float is a blank cell, never nan; no other cell is blank
    run_case(name, tmp_path)
    for path in sorted((tmp_path / name).glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        blank = {h for j, h in enumerate(header) if any(r[j] == "" for r in rows)}
        assert blank == _blank_columns(name)[path.name], path.name
        assert not [c for r in rows for c in r if "nan" in c.lower()], path.name
