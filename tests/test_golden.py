"""Golden outputs: trial-table bytes and gap statistics pinned per config.

The hashes are of ``tables/ss000.json`` written by ``fcmi run --dump-tables``.
They pin every prediction, trial seed, split order and loss of the first
supersample, so any change to learner arithmetic, seed derivation or split
enumeration shows here. The gap statistics are compared by ``repr``.
"""

import hashlib
import json

import pytest

from fcmi.cli import main

THRESHOLD_DATA = {"kind": "threshold_realizable",
                  "params": {"threshold": 0.5, "noise": 0.1}}
GAUSS_DATA = {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}}

GOLDEN = {
    "exact_threshold_erm_n6": (
        dict(data=THRESHOLD_DATA, n=6, k1=2, k2=1,
             learner={"kind": "threshold_erm", "params": {}},
             mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_mn", "cmi_weights"], master_seed=7),
        "abc2d3be9a7ec9d5f188696d6a638aaf8e3297b1cbafa9a020292da3dc46a897",
        "0.09895833333333331", "0.13994821710983749"),
    "mc_knn3_n8": (
        dict(data=GAUSS_DATA, n=8, k1=2, k2=50,
             learner={"kind": "knn", "params": {"k": 3}},
             mode="monte_carlo", bounds=["fcmi_m1"], master_seed=8),
        "119d9755266a8ce67eb8fb399fb1356ccad2f5e498841ef973e5a26fda08cf56",
        "0.06375", "0.07601397897755385"),
    "mc_logistic_prob_n5": (
        dict(data=GAUSS_DATA, n=5, k1=2, k2=20,
             learner={"kind": "logistic_gd",
                      "params": {"output": "prob", "steps": 30}},
             mode="monte_carlo", loss="absolute", bounds=["det_stability"],
             stability={"trials": 3, "gamma": 1.0}, master_seed=9),
        "8826f3eb923cda0afe782e3de065c099b9d5ce752ce4c673adf82b862a49e05a",
        "0.12099090068470245", "0.0659531386634707"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dumped_table_bytes_and_gap(tmp_path, name):
    config, table_sha, gap_mean, gap_std = GOLDEN[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(path), "-o", str(out), "--dump-tables"]) == 0
    table = (out / "tables" / "ss000.json").read_bytes()
    assert hashlib.sha256(table).hexdigest() == table_sha
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert repr(report["gap_mean"]) == gap_mean
    assert repr(report["gap_std"]) == gap_std
