"""Golden outputs: report bytes, trial-table bytes and gap statistics pinned per config.

The table hashes are of ``tables/ss000.json`` written by ``fcmi run
--dump-tables``. They pin every prediction, trial seed, split order and loss
of the first supersample, so any change to learner arithmetic, seed derivation
or split enumeration shows here. The report hashes are of ``report.json`` and
pin every estimate, bound value, bound input and stability constant. The gap
statistics are compared by ``repr``. The config echo leaves out ``jobs``, which
schedules work but changes no result, so a report's bytes do not depend on it.

Each run works in ``tmp_path`` as its current directory, so the csv entries'
relative pool paths are echoed into ``report.json`` the same way every time.

The stability entries pin ``estimate_stability``'s three constants by ``repr``
for wrapper learners, whose inner fits go through the batched fit entry.
"""

import hashlib
import json

import numpy as np
import pytest

from fcmi.cli import main
from fcmi.datagen import GeneratorSpec
from fcmi.learners import LearnerSpec, estimate_stability

THRESHOLD_DATA = {"kind": "threshold_realizable",
                  "params": {"threshold": 0.5, "noise": 0.1}}
GAUSS_DATA = {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}}
CSV_DATA = {"kind": "csv", "params": {"path": "pool.csv"}}
DUP_CSV_DATA = {"kind": "csv", "params": {"path": "dup_pool.csv"}}
GAP_CSV_DATA = {"kind": "csv", "params": {"path": "gap_pool.csv"}}

GOLDEN = {
    "exact_threshold_erm_n6": (
        dict(data=THRESHOLD_DATA, n=6, k1=2, k2=1,
             learner={"kind": "threshold_erm", "params": {}},
             mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_mn", "cmi_weights"], master_seed=7),
        "abc2d3be9a7ec9d5f188696d6a638aaf8e3297b1cbafa9a020292da3dc46a897",
        "0.09895833333333331", "0.13994821710983749",
        "7fd3a3330e18f8e0778a15ede8ad38fa04a3eaae0562cae3fcadafc57820760b"),
    "mc_knn3_n8": (
        dict(data=GAUSS_DATA, n=8, k1=2, k2=50,
             learner={"kind": "knn", "params": {"k": 3}},
             mode="monte_carlo", bounds=["fcmi_m1"], master_seed=8),
        "119d9755266a8ce67eb8fb399fb1356ccad2f5e498841ef973e5a26fda08cf56",
        "0.06375", "0.07601397897755385",
        "8ad1ad51248ed329562d091dde8ce83436a297ed367277ffdf23511f4b903b1e"),
    "mc_logistic_prob_n5": (
        dict(data=GAUSS_DATA, n=5, k1=2, k2=20,
             learner={"kind": "logistic_gd",
                      "params": {"output": "prob", "steps": 30}},
             mode="monte_carlo", loss="absolute", bounds=["det_stability"],
             stability={"trials": 3, "gamma": 1.0}, master_seed=9),
        "8826f3eb923cda0afe782e3de065c099b9d5ce752ce4c673adf82b862a49e05a",
        "0.12099090068470245", "0.0659531386634707",
        "17fc0d471b50a996e7b9c80bee60839347922cb03b3aadffde51721f6e6ce910"),
    "mc_sgld_prob_n5_det_squared": (
        dict(data=GAUSS_DATA, n=5, k1=2, k2=20,
             learner={"kind": "sgld_linear",
                      "params": {"output": "prob", "steps": 40}},
             mode="monte_carlo", loss="absolute", bounds=["det_stability_squared"],
             stability={"trials": 3, "gamma": 1.0}, master_seed=11),
        "f6cae7f29d29bf26f3ffa21449750e52b84ae6397bce1de3742d8845adad9d5e",
        "0.040621370952066436", "0.06182084609102157",
        "785bc2d74395adff284f31b7c1bf7d107ba394e55d92913b109adb6e96b118a8"),
    # 100 trials of 200 training rows span more than one batch of linear fits
    "mc_logistic_label_n200": (
        dict(data=GAUSS_DATA, n=200, k1=2, k2=100,
             learner={"kind": "logistic_gd", "params": {"output": "label"}},
             mode="monte_carlo", bounds=["fcmi_m1"], master_seed=12),
        "bfa24d3f0b7f669a34a999bcdc85d06a9c463a362bb66a1a29435fc6be52c48b",
        "0.002174999999999999", "0.001944543648263006",
        "7044097e9aa6518799a5e951e4d3caba304142743b7df50711857838446f6bd2"),
    "csv_knn3_n6_jobs2": (
        dict(data=CSV_DATA, n=6, k1=3, k2=30,
             learner={"kind": "knn", "params": {"k": 3}},
             mode="monte_carlo", bounds=["fcmi_m1", "fcmi_subset_m"],
             subset_policy={"m": 2}, master_seed=10, jobs=2),
        "ed2bba1ec1538a37c3759f13dd32d2c2e7c12b0d58f2d6af7410253f9eab0cc8",
        "0.1314814814814815", "0.04018987854483462",
        "180e7fe5b32d09a51839117fdd813223b581dc7406df4035e85f098255101807"),
    "exact_knn3_n7_stability": (
        dict(data=GAUSS_DATA, n=7, k1=2, k2=1,
             learner={"kind": "knn", "params": {"k": 3}},
             mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_stability", "fcmi_stability_squared"],
             master_seed=13),
        "c3dd97d9a112967a11def5935d3d6ec664d5ff97b2f4faaacf9b77e4554f659a",
        "0.19308035714285715", "0.16572815184059708",
        "ee56471411457c8fd47950d6fa5d0fa73eda8c90e5e4139ee8630697c682e709"),
    # duplicated inputs with conflicting labels, three classes
    "exact_memorizer_dup_csv_n6": (
        dict(data=DUP_CSV_DATA, n=6, k1=2, k2=1,
             learner={"kind": "memorizer", "params": {}},
             mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_mn", "fcmi_stability"], master_seed=14),
        "5ed510bb31dc4a7d86b7ac8021e140093ab70a895d55e2a03534e138328a1249",
        "0.625", "0.05892556509887899",
        "186f2c02fd293da1cf10f8adb32f89966fc98e90f73311ed5f12529c7c042c9d"),
    "exact_ensemble_n6_seeds2": (
        dict(data=THRESHOLD_DATA, n=6, k1=2, k2=1,
             learner={"kind": "ensemble", "params": {"members": [
                 {"kind": "threshold_erm", "params": {}},
                 {"kind": "knn", "params": {"k": 1}},
                 {"kind": "knn", "params": {"k": 3}}]}},
             mode="exact_enumeration", bounds=["fcmi_m1", "ensemble_mn"],
             exact_seeds=2, master_seed=15),
        "5953d77e23e5ae9f9c1398e620013b80c4a9a97cf641bae320eddb8049bbf631",
        "0.13020833333333331", "0.05155986946151908",
        "383d9406657e28b3333550e501a08f2ba2859b9fe0f749e3591a2536a48dad0e"),
    # a two-word run entropy (2^32 + 7), an odd n and 700 trials whose split
    # masks span more than one block of the array PCG64 stream
    "mc_knn1_n13_two_word_seed": (
        dict(data=GAUSS_DATA, n=13, k1=2, k2=700,
             learner={"kind": "knn", "params": {"k": 1}},
             mode="monte_carlo", bounds=["fcmi_m1"], master_seed=2 ** 32 + 7),
        "2315d21d14212726742fb63821fb7a1f0651d87b2444666fdb35624d3c3f40b1",
        "0.34203296703296704", "0.13264079950389415",
        "6155c81b3f7db4896bdc4dbec3c0cc4c3cfde5d336811a4a1003e86067f73b39"),
    "mc_ensemble_n6": (
        dict(data=THRESHOLD_DATA, n=6, k1=2, k2=60,
             learner={"kind": "ensemble", "params": {"members": [
                 {"kind": "threshold_erm", "params": {}},
                 {"kind": "knn", "params": {"k": 1}},
                 {"kind": "knn", "params": {"k": 3}}]}},
             mode="monte_carlo", bounds=["fcmi_m1"], master_seed=16),
        "399d51268bbcbc2f6e565b59634a1ee068ebf7d8448d05b48f3b750f81adf236",
        "0.08888888888888889", "0.01178511301977581",
        "a88cd182118c1a177dc4ac5eb485ae69b68d182c3920deb8f4d7f2813f0e093f"),
    "mc_memorizer_csv_n7": (
        dict(data=CSV_DATA, n=7, k1=2, k2=80,
             learner={"kind": "memorizer", "params": {}},
             mode="monte_carlo", bounds=["fcmi_m1", "fcmi_subset_m"],
             subset_policy={"m": 2}, master_seed=17),
        "98f1e3bca3d963df5fb4458834ffee828861100e3d94f4c0779b83c7d884665e",
        "0.525892857142857", "0.07197336879934503",
        "560d25a2e2ac35dbd8b40b6d97997883fd71217e13bbb86b79738170364f9053"),
    # C(4, 2) = 6 subsets over an enumerate_limit of 5: a sampled family of 4
    "mc_threshold_erm_n4_squared_vc_sampled_subsets": (
        dict(data=THRESHOLD_DATA, n=4, k1=2, k2=50,
             learner={"kind": "threshold_erm", "params": {}},
             mode="monte_carlo", bounds=["fcmi_squared", "vc", "fcmi_subset_m"],
             subset_policy={"m": 2, "enumerate_limit": 5, "sample_count": 4},
             master_seed=21),
        "20ae8403ccd82bd51ca45e80bec73359124b374caad6857c664887acbaeeb328",
        "0.1125", "0.1025304832720494",
        "1f909a378194b07990d476b9d386e9d00da69fac03f6d80d28cddd325258b7a4"),
    "exact_threshold_erm_n6_vc_squared_subsets": (
        dict(data=THRESHOLD_DATA, n=6, k1=2, k2=1,
             learner={"kind": "threshold_erm", "params": {}},
             mode="exact_enumeration", bounds=["vc", "fcmi_squared", "fcmi_subset_m"],
             subset_policy={"m": 3}, master_seed=22),
        "5842b456577d14587febe896d7e46f03a82e32526730668c9ae525d2d37d7eb7",
        "0.08854166666666667", "0.04419417382415922",
        "3d11cfc7f749b4042b40b548ad38e186ad0d7d5bf2e8d81126de3756ea8100b5"),
    # 8,192 rows of 12 pairs: split CMI with both targets, 66 m=2 subsets
    "exact_knn3_n12_seeds2_subsets": (
        dict(data=GAUSS_DATA, n=12, k1=1, k2=1,
             learner={"kind": "knn", "params": {"k": 3}},
             mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_mn", "fcmi_stability", "fcmi_stability_squared",
                     "fcmi_subset_m"],
             subset_policy={"m": 2}, exact_seeds=2, master_seed=23),
        "ac5af40d425208ced1a6f349ad58f4dce2c909aaa7ccfcf443ca06cb56770a5c",
        "0.11580403645833334", "None",
        "ecdf92295e48297f145372c340d14ca2b662aa27c98cca14233c7d2c7a8b747e"),
    # three classes, 20 subsets of m=3
    "mc_knn3_dup_csv_n6_subsets_m3": (
        dict(data=DUP_CSV_DATA, n=6, k1=2, k2=40,
             learner={"kind": "knn", "params": {"k": 3}},
             mode="monte_carlo", bounds=["fcmi_m1", "fcmi_subset_m"],
             subset_policy={"m": 3}, master_seed=24),
        "96e28d6069b6a9ac24555a00fc339b3fd5e7b43361976ceeec3f829d94ea5258",
        "0.10833333333333334", "0.06481812160876686",
        "f35950ae22273b9dd1e7e37988c61d6c9a88ab408305c75cd5c0a290c5bd5583"),
    # even k over duplicated inputs and labels {0, 2, 5}: the position tie
    # rule among equal distances and the vote tie rule toward the lower label
    "exact_knn4_gap_labels_dup_csv_n8": (
        dict(data=GAP_CSV_DATA, n=8, k1=2, k2=1,
             learner={"kind": "knn", "params": {"k": 4}},
             mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_mn", "fcmi_stability", "fcmi_stability_squared",
                     "fcmi_subset_m"],
             subset_policy={"m": 2}, master_seed=25),
        "290b51f15740075ceda8fd62576bd09ae9f4ae6969bb3baf246ab4cf4e655b6a",
        "0.2724609375", "0.03866990209613932",
        "959fb76cf1d545859b01aefda9dc44f958cb1ec8be119a298cd20fbc6f5b386c"),
}

# name: (learner, generator, n, trials, seed, (beta, beta1, beta2) reprs)
STABILITY_GOLDEN = {
    "ensemble_linear_members": (
        {"kind": "ensemble", "params": {"members": [
            {"kind": "logistic_gd", "params": {"steps": 20, "lr": 5.0}},
            {"kind": "sgld_linear", "params": {"steps": 20}},
            {"kind": "knn", "params": {"k": 3}}]}},
        GAUSS_DATA, 6, 4, 22, ("0.7071067811865476", "0.7071067811865476", "0.5")),
}


def _write_pool(path) -> None:
    """40 rows of two features and a binary label, fixed to six decimals."""
    rng = np.random.default_rng(2024)
    xs = rng.standard_normal((40, 2))
    ys = (xs[:, 0] + 0.5 * rng.standard_normal(40) > 0).astype(int)
    lines = ["x_0,x_1,y"] + [f"{a:.6f},{b:.6f},{y}" for (a, b), y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_dup_pool(path) -> None:
    """Twelve distinct rows of two features, each twice, with labels in {0, 1, 2}."""
    rng = np.random.default_rng(2025)
    xs = np.repeat(rng.standard_normal((12, 2)), 2, axis=0)
    ys = rng.integers(0, 3, 24)
    lines = ["x_0,x_1,y"] + [f"{a:.6f},{b:.6f},{y}" for (a, b), y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_gap_pool(path) -> None:
    """Ten distinct rows of two features, each twice, with labels in {0, 2, 5}."""
    rng = np.random.default_rng(2026)
    xs = np.repeat(rng.standard_normal((10, 2)), 2, axis=0)
    ys = rng.choice([0, 2, 5], 20)
    lines = ["x_0,x_1,y"] + [f"{a:.6f},{b:.6f},{y}" for (a, b), y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


POOLS = {"pool.csv": _write_pool, "dup_pool.csv": _write_dup_pool,
         "gap_pool.csv": _write_gap_pool}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dumped_table_bytes_and_gap(tmp_path, monkeypatch, name):
    config, table_sha, gap_mean, gap_std, report_sha = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    if config["data"]["kind"] == "csv":
        pool = config["data"]["params"]["path"]
        POOLS[pool](tmp_path / pool)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(path), "-o", str(out), "--dump-tables"]) == 0
    table = (out / "tables" / "ss000.json").read_bytes()
    assert hashlib.sha256(table).hexdigest() == table_sha
    report_bytes = (out / "report.json").read_bytes()
    assert hashlib.sha256(report_bytes).hexdigest() == report_sha
    report = json.loads(report_bytes)
    assert all(v is not None for s in report["supersamples"] for v in s.values())
    assert repr(report["gap_mean"]) == gap_mean
    assert repr(report["gap_std"]) == gap_std


@pytest.mark.parametrize("name", sorted(STABILITY_GOLDEN))
def test_stability_constants(name):
    learner, data, n, trials, seed, expected = STABILITY_GOLDEN[name]
    got = estimate_stability(LearnerSpec.from_json_dict(learner),
                             GeneratorSpec.from_json_dict(data), n, trials, seed)
    assert tuple(repr(v) for v in got) == expected
