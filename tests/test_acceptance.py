"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here. Expected values marked as oracle-derived are
computed inside the test by an independent route (closed forms, exhaustive
enumeration, or vectorized resampling), never by the code path under test.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fcmi.core import PredictionSpace, TrialTable, exact_rows
from fcmi.datagen import GeneratorSpec, sample_supersample
from fcmi.harness import BOUNDS, ExperimentConfig, canonical_json, run_experiment
from fcmi.infotheory import subset_mi
from fcmi.learners import LearnerSpec, fill_table
from fcmi.lemma_lab import run_all_verifiers
from oracles import seed_sequence_seed, threshold_erm_fit, verify_monotonicity_in_m


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def _config(**kwargs) -> ExperimentConfig:
    return ExperimentConfig.from_json_dict(kwargs)


def _exact_fcmi(ss, spec, seeds=(0,)) -> float:
    """I(all 2n predictions ; S) over every split of ``ss``."""
    table = fill_table(ss, spec, *exact_rows(ss.n, seeds))
    return float(subset_mi(table, [tuple(range(ss.n))])[0])


def test_c01_lemma_lab_clean_sweep():
    t0 = time.perf_counter()
    reports = run_all_verifiers(instances=1000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (
        len(reports) == 6
        and all(r.instances == 1000 for r in reports)
        and all(r.violations == 0 for r in reports)
        and all(r.min_margin >= -1e-9 for r in reports)
        and elapsed < 60.0
    )
    for r in reports:
        print(f"  {r.lemma}: min_margin={r.min_margin:+.3e}")
    _report("1 lemma-lab clean sweep", ok)


def test_c02_monotonicity_in_m():
    ok = True
    for n in (4, 6, 8):
        for kind, gen in (
            ("threshold_erm", GeneratorSpec("threshold_realizable",
                                            {"threshold": 0.5, "noise": 0.1})),
            ("memorizer", GeneratorSpec("uniform_labels", {"dim": 1})),
        ):
            ss = sample_supersample(gen, n, seed=n)
            table = fill_table(ss, LearnerSpec(kind), *exact_rows(n, (0,)))
            out = verify_monotonicity_in_m(table, tol=1e-9)
            ok = ok and out["non_decreasing"]
            # the m=1 bound is the smallest: sqrt-sequence non-decreasing
            ok = ok and all(out["sqrt"][0] <= v + 1e-9 for v in out["sqrt"][1:])
    _report("2 monotonicity in m (exact mode)", ok)


def test_c03_bound_validity():
    t0 = time.perf_counter()
    cases = [
        ({"kind": "threshold_erm", "params": {}},
         {"kind": "threshold_realizable", "params": {"threshold": 0.5, "noise": 0.1}}),
        ({"kind": "knn", "params": {"k": 3}},
         {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}}),
        ({"kind": "logistic_gd", "params": {}},
         {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}}),
    ]
    ok = True
    for learner, data in cases:
        for n in (10, 25, 50):
            report = run_experiment(_config(
                data=data, n=n, k1=5, k2=200, learner=learner,
                bounds=["fcmi_m1"], master_seed=100))
            bound = report.bounds[0]
            combined = math.sqrt(report.gap_std ** 2 + (bound.spread or 0.0) ** 2)
            valid = abs(report.gap_mean) <= bound.value + 3 * combined
            print(f"  {learner['kind']} n={n}: |gap|={abs(report.gap_mean):.4f} "
                  f"bound={bound.value:.4f} slack={3 * combined:.4f}")
            ok = ok and valid
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report("3 bound validity (|gap| <= fcmi_m1 + 3 sigma)", ok)


def test_c04_data_processing():
    ok = True
    for n in (4, 6, 8):
        report = run_experiment(_config(
            data={"kind": "threshold_realizable",
                  "params": {"threshold": 0.5, "noise": 0.1}},
            n=n, k1=2, k2=1, learner={"kind": "threshold_erm", "params": {}},
            mode="exact_enumeration", bounds=["fcmi_mn", "cmi_weights"],
            master_seed=5))
        for res in report.supersamples:
            for pred_mi, weight_mi in zip(res.mi_per_index, res.weight_mi_per_index):
                ok = ok and pred_mi <= weight_mi + 1e-9
            ok = ok and res.fcmi_full <= res.weight_mi_full + 1e-9
        by_name = {b.name: b.value for b in report.bounds}
        ok = ok and by_name["fcmi_mn"] <= by_name["cmi_weights"] + 1e-9
        print(f"  n={n}: fcmi_mn={by_name['fcmi_mn']:.4f} "
              f"<= cmi_weights={by_name['cmi_weights']:.4f}")
    _report("4 data processing (predictions vs weights)", ok)


def test_c05_memorizer_counterexample():
    report = run_experiment(_config(
        data={"kind": "uniform_labels", "params": {"dim": 1}},
        n=10, k1=3, k2=500, learner={"kind": "memorizer", "params": {}},
        mode="exact_enumeration", bounds=["fcmi_m1"], master_seed=0))
    testslot_mi = max(r.mi_testslots for r in report.supersamples)
    # oracle: the constant class scores the one-label fraction on test slots,
    # and the memorized train half scores zero, so the gap is that fraction
    print(f"  gap={report.gap_mean:.4f} testslot_mi={testslot_mi:.3e}")
    ok = testslot_mi == 0.0 and report.gap_mean >= 0.4
    _report("5 memorizer: zero test-slot MI, large gap", ok)


def test_c06_vc_dominance_and_pattern_count():
    gen = GeneratorSpec("threshold_realizable", {"threshold": 0.5, "noise": 0.1})
    ok = True
    for n in (2, 4, 8):
        config = _config(data={"kind": "threshold_realizable", "params": {}}, n=n, k1=1,
                         k2=1, learner={"kind": "threshold_erm", "params": {}}, bounds=["vc"])
        cap = BOUNDS["vc"].inputs(config, None, {})["fcmi_cap"]
        for seed in range(3):
            ss = sample_supersample(gen, n, seed=seed)
            ok = ok and _exact_fcmi(ss, LearnerSpec("threshold_erm")) <= cap + 1e-9
        # oracle: threshold patterns on 2n sorted distinct points are exactly
        # the 2n+1 suffix patterns; ERM must realize each and nothing more
        rng = np.random.default_rng(n)
        points = np.sort(rng.random(2 * n))
        patterns = set()
        for labels in itertools.product((0, 1), repeat=2 * n):
            w = threshold_erm_fit(points[:, None], np.array(labels))
            patterns.add(tuple(int(x > w) for x in points))
        print(f"  n={n}: fCMI cap={cap:.4f}, patterns={len(patterns)}")
        ok = ok and len(patterns) == 2 * n + 1
    _report("6 VC dominance and 2n+1 pattern count", ok)


def test_c07_plugin_estimator_convergence():
    probs = np.array([3.0, 1.0, 1.0, 3.0]) / 8.0
    # oracle: exact MI of the generating joint by direct evaluation
    exact = sum(p * math.log(p / 0.25) for p in probs)
    assert exact == pytest.approx(0.130812, abs=1e-6)

    rng = np.random.default_rng(2024)
    draws = rng.choice(4, size=10 ** 5, p=probs)
    # a one-pair table with pair code (a, 0) and split bit b: its subset MI
    # is the plug-in I(A; B)
    a, b = draws // 2, draws % 2
    table = TrialTable("ss000", PredictionSpace("finite", 2), b[:, None].astype(np.uint8),
                       np.arange(len(draws)), np.stack([a, np.zeros_like(a)], axis=1),
                       np.zeros(len(draws)), np.zeros(len(draws)))
    err = abs(subset_mi(table, [(0,)])[0] - exact)

    # bias trend: mean plug-in MI over many multinomial resamples, vectorized
    def mean_plugin_mi(k, reps):
        counts = rng.multinomial(k, probs, size=reps).reshape(reps, 2, 2)
        total = counts.sum(axis=(1, 2), keepdims=True).astype(float)
        p = counts / total
        pa = p.sum(axis=2, keepdims=True)
        pb = p.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = p * (np.log(p) - np.log(pa) - np.log(pb))
        return float(np.mean(np.nansum(terms, axis=(1, 2))))

    bias_1e3 = mean_plugin_mi(10 ** 3, 400_000) - exact
    bias_1e4 = mean_plugin_mi(10 ** 4, 400_000) - exact
    ratio = bias_1e3 / bias_1e4
    print(f"  err@1e5={err:.4f} bias@1e3={bias_1e3:.2e} "
          f"bias@1e4={bias_1e4:.2e} ratio={ratio:.1f}")
    ok = err <= 0.01 and 5.0 <= ratio <= 20.0
    _report("7 plug-in convergence and O(1/k2) bias trend", ok)


def test_c08_deterministic_stability_pipeline():
    ok = True
    for n in (25, 50):
        report = run_experiment(_config(
            data={"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}},
            n=n, k1=3, k2=50,
            learner={"kind": "logistic_gd", "params": {"output": "prob"}},
            loss="absolute", bounds=["det_stability"],
            stability={"trials": 20, "gamma": 1.0}, master_seed=31))
        bound = report.bounds[0]
        info = report.estimator_meta["stability"]
        # sigma^2 echo must equal beta / (2 sqrt(d) gamma)
        sigma_ok = info["sigma_sq"] == pytest.approx(
            info["beta"] / (2 * math.sqrt(info["d_out"]) * info["gamma"]), rel=1e-12)
        valid = abs(report.gap_mean) <= bound.value + 3 * (report.gap_std or 0.0)
        print(f"  n={n}: |gap|={abs(report.gap_mean):.4f} beta={info['beta']:.4f} "
              f"bound={bound.value:.4f} sigma_sq={info['sigma_sq']:.5f}")
        ok = ok and sigma_ok and valid
    _report("8 deterministic-stability pipeline", ok)


def test_c09_ensembling():
    members = [{"kind": "knn", "params": {"k": k}} for k in (1, 3, 5)]
    spec = LearnerSpec("ensemble", {"members": members})
    gen = GeneratorSpec("two_gaussians", {"dim": 2, "sep": 0.5})
    ok = True
    for n in (4, 6):
        ss = sample_supersample(gen, n, seed=n + 1)  # both instances non-degenerate
        seeds = (123,)
        combined = _exact_fcmi(ss, spec, seeds)
        member_mis = [
            _exact_fcmi(ss, LearnerSpec.from_json_dict(m),
                        [seed_sequence_seed(s, j) for s in seeds])
            for j, m in enumerate(members)
        ]
        cap = sum(member_mis)
        print(f"  n={n}: combined={combined:.4f} member-sum cap={cap:.4f}")
        ok = ok and combined <= cap + 1e-9
    _report("9 ensembling member-sum cap", ok)


def test_c10_desk_scale_sweep_analog():
    t0 = time.perf_counter()
    rows = []
    for n in (75, 250, 1000):
        report = run_experiment(_config(
            data={"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}},
            n=n, k1=3, k2=100, learner={"kind": "logistic_gd", "params": {}},
            bounds=["fcmi_m1"], master_seed=7))
        rows.append((n, report.gap_mean, report.bounds[0].value))
        print(f"  n={n}: gap={report.gap_mean:.4f} bound={report.bounds[0].value:.4f}")
    elapsed = time.perf_counter() - t0
    gaps = [g for _, g, _ in rows]
    bounds_ = [b for _, _, b in rows]
    ok = (
        all(b < 1.0 for b in bounds_)
        and all(b >= g for _, g, b in rows)
        and gaps[0] >= gaps[1] >= gaps[2]
        and bounds_[0] >= bounds_[1] >= bounds_[2]
        and elapsed < 600.0
    )
    _report("10 desk-scale sweep analog (non-vacuous, dominating, decreasing)", ok)


def test_c11_reproducibility():
    config = {
        "data": {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}},
        "n": 25, "k1": 3, "k2": 50,
        "learner": {"kind": "knn", "params": {"k": 3}},
        "bounds": ["fcmi_m1", "fcmi_squared"],
        "subset_policy": {"m": 2}, "master_seed": 99, "mode": "exact_enumeration",
    }
    config["n"] = 8  # keep exact mode cheap
    a = run_experiment(ExperimentConfig.from_json_dict(config))
    b = run_experiment(ExperimentConfig.from_json_dict(config))
    bytes_a = canonical_json(a.to_json_dict()).encode()
    bytes_b = canonical_json(b.to_json_dict()).encode()
    mc = dict(config, mode="monte_carlo", bounds=["fcmi_m1"])
    c = run_experiment(ExperimentConfig.from_json_dict(mc))
    d = run_experiment(ExperimentConfig.from_json_dict(mc))
    ok = (bytes_a == bytes_b
          and canonical_json(c.to_json_dict()) == canonical_json(d.to_json_dict()))
    print(f"  exact report bytes: {len(bytes_a)}, identical={bytes_a == bytes_b}")
    _report("11 byte-identical reports per master_seed", ok)
