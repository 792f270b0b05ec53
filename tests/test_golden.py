"""Golden outputs: report bytes, trial-table bytes and gap statistics pinned per config.

The table hashes are of ``tables/ss000.json`` written by ``fcmi run
--dump-tables``. They pin every prediction, trial seed, split order and loss
of the first supersample, so any change to learner arithmetic, seed derivation
or split enumeration shows here. The report hashes are of ``report.json`` and
pin every estimate, bound value, bound input and stability constant. The gap
statistics are compared by ``repr``.

Each run works in ``tmp_path`` as its current directory, so the csv entry's
relative pool path is echoed into ``report.json`` the same way every time.
"""

import hashlib
import json

import numpy as np
import pytest

from fcmi.cli import main

THRESHOLD_DATA = {"kind": "threshold_realizable",
                  "params": {"threshold": 0.5, "noise": 0.1}}
GAUSS_DATA = {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}}
CSV_DATA = {"kind": "csv", "params": {"path": "pool.csv"}}

GOLDEN = {
    "exact_threshold_erm_n6": (
        dict(data=THRESHOLD_DATA, n=6, k1=2, k2=1,
             learner={"kind": "threshold_erm", "params": {}},
             mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_mn", "cmi_weights"], master_seed=7),
        "abc2d3be9a7ec9d5f188696d6a638aaf8e3297b1cbafa9a020292da3dc46a897",
        "0.09895833333333331", "0.13994821710983749",
        "8ce842c4cf0deb514d32a12ef2082433d733d22e1741828336cf7239f3c2d8fe"),
    "mc_knn3_n8": (
        dict(data=GAUSS_DATA, n=8, k1=2, k2=50,
             learner={"kind": "knn", "params": {"k": 3}},
             mode="monte_carlo", bounds=["fcmi_m1"], master_seed=8),
        "119d9755266a8ce67eb8fb399fb1356ccad2f5e498841ef973e5a26fda08cf56",
        "0.06375", "0.07601397897755385",
        "727f45f2f2197db18fb69035641877fedba8153bd2711f335a13fbfac003e0e6"),
    "mc_logistic_prob_n5": (
        dict(data=GAUSS_DATA, n=5, k1=2, k2=20,
             learner={"kind": "logistic_gd",
                      "params": {"output": "prob", "steps": 30}},
             mode="monte_carlo", loss="absolute", bounds=["det_stability"],
             stability={"trials": 3, "gamma": 1.0}, master_seed=9),
        "8826f3eb923cda0afe782e3de065c099b9d5ce752ce4c673adf82b862a49e05a",
        "0.12099090068470245", "0.0659531386634707",
        "43bea5dab7d2e114a925c26958d110dd15f3782f5f43e1ff7419df2b68a199e1"),
    "mc_sgld_prob_n5_det_squared": (
        dict(data=GAUSS_DATA, n=5, k1=2, k2=20,
             learner={"kind": "sgld_linear",
                      "params": {"output": "prob", "steps": 40}},
             mode="monte_carlo", loss="absolute", bounds=["det_stability_squared"],
             stability={"trials": 3, "gamma": 1.0}, master_seed=11),
        "f6cae7f29d29bf26f3ffa21449750e52b84ae6397bce1de3742d8845adad9d5e",
        "0.040621370952066436", "0.06182084609102157",
        "fcc9061062189f3f059a5c84e24008a69c93e284c520eb08fbafff0ecf0bc5d2"),
    # 100 trials of 200 training rows span more than one batch of linear fits
    "mc_logistic_label_n200": (
        dict(data=GAUSS_DATA, n=200, k1=2, k2=100,
             learner={"kind": "logistic_gd", "params": {"output": "label"}},
             mode="monte_carlo", bounds=["fcmi_m1"], master_seed=12),
        "bfa24d3f0b7f669a34a999bcdc85d06a9c463a362bb66a1a29435fc6be52c48b",
        "0.002174999999999999", "0.001944543648263006",
        "41ef1b8a7e9ab054cb497d9124b4f20361224cc87c4f9703dcac18e28a773da8"),
    "csv_knn3_n6_jobs2": (
        dict(data=CSV_DATA, n=6, k1=3, k2=30,
             learner={"kind": "knn", "params": {"k": 3}},
             mode="monte_carlo", bounds=["fcmi_m1", "fcmi_subset_m"],
             subset_policy={"m": 2}, master_seed=10, jobs=2),
        "ed2bba1ec1538a37c3759f13dd32d2c2e7c12b0d58f2d6af7410253f9eab0cc8",
        "0.1314814814814815", "0.04018987854483462",
        "53d0ae7090ad3ade53406f65235a3488a1efe3ac9afdde15af92b637d1718a72"),
}


def _write_pool(path) -> None:
    """40 rows of two features and a binary label, fixed to six decimals."""
    rng = np.random.default_rng(2024)
    xs = rng.standard_normal((40, 2))
    ys = (xs[:, 0] + 0.5 * rng.standard_normal(40) > 0).astype(int)
    lines = ["x_0,x_1,y"] + [f"{a:.6f},{b:.6f},{y}" for (a, b), y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dumped_table_bytes_and_gap(tmp_path, monkeypatch, name):
    config, table_sha, gap_mean, gap_std, report_sha = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    if config["data"]["kind"] == "csv":
        _write_pool(tmp_path / "pool.csv")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(path), "-o", str(out), "--dump-tables"]) == 0
    table = (out / "tables" / "ss000.json").read_bytes()
    assert hashlib.sha256(table).hexdigest() == table_sha
    report_bytes = (out / "report.json").read_bytes()
    assert hashlib.sha256(report_bytes).hexdigest() == report_sha
    report = json.loads(report_bytes)
    assert repr(report["gap_mean"]) == gap_mean
    assert repr(report["gap_std"]) == gap_std
