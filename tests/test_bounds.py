import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmi import harness
from fcmi.core import ContractViolation
from fcmi.harness import (
    BOUNDS,
    BoundReport,
    ExperimentConfig,
    SupersampleResult,
    canonical_json,
    load_report,
    persist,
    run_experiment,
)
from oracles import PARENT_TAGS, stability_kl_decomposition, vc_fcmi_cap, wrapper_bound_report
from test_cli import EXAMPLE_RUNS, example_runs  # noqa: F401 (a fixture used below)
from test_golden import GOLDEN, POOLS

LOG2 = math.log(2.0)


def _config(bounds, n, subset_m=None) -> ExperimentConfig:
    """A config built, and so checked, with no bound, then given ``bounds``:
    no one learner and mode admits them all, and assembly reads only the
    config's n, m and digest fields."""
    config = ExperimentConfig.from_json_dict({
        "data": {"kind": "uniform_labels", "params": {"dim": 1}},
        "n": n, "k1": 1, "k2": 10, "learner": {"kind": "memorizer", "params": {}},
        "bounds": [], "subset_policy": {"m": subset_m}})
    config.bounds = tuple(bounds)
    return config


def _results(estimates: dict, k1: int) -> list[SupersampleResult]:
    """``k1`` supersample results holding row ``a`` of each estimate."""
    return [SupersampleResult(f"ss{a:03d}", 0.0, None,
                              **{attr: rows[a] for attr, rows in estimates.items()})
            for a in range(k1)]


def bound_report(name: str, per_ss, n: int, subset_m=None, stab=None) -> BoundReport:
    """The report of bound ``name`` over one supersample per entry of
    ``per_ss``, each that supersample's estimate the bound reads, in a run
    whose stability record is ``stab``."""
    reads = BOUNDS[name].reads
    meta = {"stability": stab}
    if BOUNDS[name].needs_m:
        meta.update(subset_policy="enumerated", subset_count=len(per_ss[0]) if per_ss else 0)
    results = _results({reads: per_ss} if reads else {}, len(per_ss))
    (report,) = harness._assemble_bounds(_config([name], n, subset_m), results, meta)
    return report


def stability(beta, beta1=0.0, beta2=0.0, gamma=1.0, d_out=1) -> dict:
    """The constants of a stability record, as ``estimator_meta`` holds them."""
    return {"beta": beta, "beta1": beta1, "beta2": beta2, "gamma": gamma, "d_out": d_out}


class TestFcmiM1:
    def test_zero_information(self):
        assert bound_report("fcmi_m1", [[0.0, 0.0, 0.0]], 3).value == 0.0

    def test_single_pair_log2(self):
        assert bound_report("fcmi_m1", [[LOG2]], 1).value == pytest.approx(
            math.sqrt(2 * LOG2), abs=1e-12)
        assert bound_report("fcmi_m1", [[LOG2]], 1).value == pytest.approx(1.17741, abs=1e-5)

    def test_two_pairs_hand_value(self):
        # (sqrt(2*0.5) + sqrt(2*0.125)) / 2 = (1 + 0.5) / 2
        assert bound_report("fcmi_m1", [[0.5, 0.125]], 2).value == pytest.approx(
            0.75, abs=1e-12)

    def test_sqrt_applied_per_supersample_then_averaged(self):
        rows = [[0.5, 0.125], [0.0, 0.0]]
        expected = (0.75 + 0.0) / 2
        report = bound_report("fcmi_m1", rows, 2)
        assert report.value == pytest.approx(expected, abs=1e-12)
        assert report.spread == pytest.approx(np.std([0.75, 0.0], ddof=1), abs=1e-12)

    def test_spread_requires_two_supersamples(self):
        assert bound_report("fcmi_m1", [[0.5, 0.125]], 2).spread is None

    def test_negative_input_rejected(self):
        with pytest.raises(ContractViolation):
            bound_report("fcmi_m1", [[-0.1]], 1)


class TestFcmiMn:
    def test_zero(self):
        assert bound_report("fcmi_mn", [0.0], 4).value == 0.0

    def test_hand_value(self):
        assert bound_report("fcmi_mn", [0.5], 4).value == pytest.approx(0.5, abs=1e-12)

    def test_mean_of_per_supersample_roots(self):
        report = bound_report("fcmi_mn", [0.5, 0.0], 4)
        assert report.value == pytest.approx(0.25, abs=1e-12)


class TestFcmiGeneralM:
    def test_zero(self):
        assert bound_report("fcmi_subset_m", [[0.0, 0.0]], 2, subset_m=2).value == 0.0

    def test_single_subset(self):
        assert bound_report("fcmi_subset_m", [[0.5]], 2, subset_m=2).value == pytest.approx(
            math.sqrt(0.5), abs=1e-12)

    def test_m1_specializes_to_fcmi_m1(self):
        vals = [[0.3, 0.01, 0.2]]
        assert bound_report("fcmi_subset_m", vals, 3, subset_m=1).value == pytest.approx(
            bound_report("fcmi_m1", vals, 3).value, abs=1e-12)

    def test_empty_family_rejected(self):
        with pytest.raises(ContractViolation):
            bound_report("fcmi_subset_m", [[]], 2, subset_m=2)


class TestFcmiSquared:
    def test_zero_fcmi(self):
        assert bound_report("fcmi_squared", [0.0], 16).value == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert bound_report("fcmi_squared", [0.5], 10).value == pytest.approx(2.0, abs=1e-12)

    def test_vanishes_with_n(self):
        assert bound_report("fcmi_squared", [0.0], 10 ** 9).value < 1e-6


class TestCmiWeightBound:
    def test_zero(self):
        assert bound_report("cmi_weights", [0.0], 8).value == 0.0

    def test_vacuous_deterministic_case(self):
        n = 6
        assert bound_report("cmi_weights", [n * LOG2], n).value == pytest.approx(
            math.sqrt(2 * LOG2), abs=1e-12)

    def test_hand_value(self):
        assert bound_report("cmi_weights", [1.0], 8).value == pytest.approx(0.5, abs=1e-12)

    def test_mean_of_per_supersample_roots(self):
        # roots first, then the mean, so value and spread describe the same
        # per-supersample numbers; the root of the mean would give 0.79
        got = bound_report("cmi_weights", [0.25, 1.0], 2)
        assert got.value == pytest.approx((0.5 + 1.0) / 2, abs=1e-12)
        assert got.spread == pytest.approx(np.std([0.5, 1.0], ddof=1), abs=1e-12)
        mn = bound_report("fcmi_mn", [0.25, 1.0], 2)
        assert (got.value, got.spread, got.inputs_digest) == (
            mn.value, mn.spread, mn.inputs_digest)
        assert (got.name, got.tag) == ("cmi_weights", "cmi-weights")


class TestStabilityFcmi:
    def test_zero(self):
        assert bound_report("fcmi_stability", [[0.0, 0.0]], 2).value == 0.0

    def test_n1_matches_m1(self):
        assert bound_report("fcmi_stability", [[0.37]], 1).value == pytest.approx(
            bound_report("fcmi_m1", [[0.37]], 1).value, abs=1e-12)

    def test_hand_value(self):
        expected = (math.sqrt(2 * LOG2) + 0.0) / 2
        assert bound_report("fcmi_stability", [[LOG2, 0.0]], 2).value == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(0.58871, abs=1e-5)


class TestVcBound:
    """The cap at VC dimension d = 1, echoed as ``fcmi_cap``."""

    def test_d1_n1(self):
        # max(2 log 2, log 2e) = log 2e
        assert bound_report("vc", [], 1).inputs_digest["fcmi_cap"] == pytest.approx(
            math.log(2 * math.e), abs=1e-12)

    def test_d1_n4(self):
        assert bound_report("vc", [], 4).inputs_digest["fcmi_cap"] == pytest.approx(
            math.log(8 * math.e), abs=1e-12)

    def test_report_is_the_cap_in_the_fcmi_mn_form(self):
        cap = vc_fcmi_cap(1, 4)
        report = bound_report("vc", [], 4)
        assert report.value == math.sqrt(2.0 * cap / 4)
        assert (report.spread, report.tag) == (None, "vc-sauer-shelah")
        assert report.inputs_digest == {"mode": "monte_carlo", "k2": 10, "loss": "zero_one",
                                        "d_vc": 1, "n": 4, "fcmi_cap": cap}


class TestEnsembleMn:
    def test_member_sum_in_the_fcmi_mn_form(self):
        # sqrt(2 * (0.1 + 0.2 + 0.3) / 3), the member MIs summed left to right
        report = bound_report("ensemble_mn", [[0.1, 0.2, 0.3]], 3)
        assert report.value == math.sqrt(2.0 * (0.1 + 0.2 + 0.3) / 3)
        assert report.value == pytest.approx(math.sqrt(0.4), abs=1e-12)
        assert report.inputs_digest["members"] == 3 and "k1" not in report.inputs_digest
        assert report.tag == "ensemble-sum"

    def test_single_member_is_fcmi_mn(self):
        assert bound_report("ensemble_mn", [[0.4], [0.1]], 5).value == bound_report(
            "fcmi_mn", [0.4, 0.1], 5).value


class TestKlDecomposition:
    def test_identical_laws(self):
        assert stability_kl_decomposition([([0.5, 0.5], [0.5, 0.5])]) == 0.0

    def test_deterministic_divergence(self):
        with pytest.raises(ContractViolation):
            stability_kl_decomposition([([1.0, 0.0], [0.0, 1.0])])

    def test_hand_value_single_cell(self):
        # oracle: both KL directions over 2 cells, evaluated directly
        p0, p1 = [0.75, 0.25], [0.25, 0.75]
        kl01 = 0.75 * math.log(3.0) + 0.25 * math.log(1 / 3.0)
        expected = 2 * (kl01 / 4.0)  # symmetric laws: both directions equal
        got = stability_kl_decomposition([(p0, p1)])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.25 * math.log(3.0), abs=1e-12)

    def test_weighted_cells(self):
        cells = [([0.75, 0.25], [0.25, 0.75]), ([0.5, 0.5], [0.5, 0.5])]
        got = stability_kl_decomposition(cells, [0.5, 0.5])
        assert got == pytest.approx(0.5 * 0.25 * math.log(3.0), abs=1e-12)


class TestDeterministicStability:
    def test_perfectly_stable(self):
        c = stability(0.0)
        assert bound_report("det_stability", [], 1, stab=c).value == 0.0

    def test_hand_value_d1(self):
        c = stability(0.01, gamma=1.0, d_out=1)
        assert bound_report("det_stability", [], 1, stab=c).value == pytest.approx(
            2 ** 1.5 * 0.1, abs=1e-12)

    def test_hand_value_d16(self):
        c = stability(1.0, gamma=1.0, d_out=16)
        assert bound_report("det_stability", [], 1, stab=c).value == pytest.approx(
            2 ** 1.5 * 2.0, abs=1e-12)

    def test_squared_all_zero_betas(self):
        c = stability(0.0)
        assert bound_report("det_stability_squared", [], 32, stab=c).value == pytest.approx(
            1.0, abs=1e-12)

    def test_squared_hand_value(self):
        c = stability(0.1, gamma=1.0, d_out=1)
        expected = 32 / 100 + 12 ** 1.5 * math.sqrt(2 * 0.01)
        got = bound_report("det_stability_squared", [], 100, stab=c).value
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(6.1988, abs=1e-3)

    def test_squared_vanishes_asymptotically(self):
        c = stability(0.0)
        assert bound_report("det_stability_squared", [], 10 ** 9, stab=c).value < 1e-6

    def test_optimal_noise_variance(self, monkeypatch):
        """A run's stability record holds sigma^2 = beta / (2 sqrt(d) gamma),
        the noise variance of the smoothed predictions in the paper's proof."""
        monkeypatch.setattr(harness, "estimate_stability", lambda *args: (0.2, 0.1, 0.3))
        config = ExperimentConfig.from_json_dict({
            "data": {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}},
            "n": 4, "k1": 1, "k2": 2, "loss": "absolute",
            "learner": {"kind": "logistic_gd", "params": {"output": "prob", "steps": 2}},
            "bounds": ["det_stability"], "stability": {"trials": 3, "gamma": 2.0}})
        report = run_experiment(config)
        assert report.estimator_meta["stability"] == {
            "beta": 0.2, "beta1": 0.1, "beta2": 0.3, "gamma": 2.0, "d_out": 1,
            "sigma_sq": 0.2 / (2 * 1 * 2.0), "trials": 3}


class TestBoundReport:
    def test_negative_value_rejected(self):
        with pytest.raises(ContractViolation):
            BoundReport("x", -0.1, None, {}, "t")

    def test_json_round_trip(self):
        report = bound_report("fcmi_m1", [[0.5, 0.125], [0.0, 0.0]], 2)
        again = BoundReport.from_json_dict(report.to_json_dict())
        assert again == report


class TestAssembly:
    """The one site that forms a BoundReport: the mean of each bound's
    per-supersample form, and their spread over two or more."""

    @pytest.mark.parametrize("name", ["fcmi_squared", "vc"])
    def test_one_value_per_run_has_no_spread(self, name):
        assert bound_report(name, [0.5, 0.1, 0.3], 4).spread is None

    @pytest.mark.parametrize("name, per_ss", [
        ("fcmi_m1", [[], []]), ("fcmi_m1", []), ("ensemble_mn", [[]])],
        ids=["empty_rows", "no_supersample", "no_member"])
    def test_empty_collection_refused_without_warning(self, name, per_ss):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match="empty"):
                bound_report(name, per_ss, 2)

    @pytest.mark.parametrize("bad", [-1e-300, float("nan")], ids=["negative", "nan"])
    @pytest.mark.parametrize("name", ["fcmi_m1", "fcmi_mn", "fcmi_squared", "ensemble_mn"])
    def test_negative_or_nan_estimate_refused_without_warning(self, name, bad):
        reads = BOUNDS[name].reads
        per_ss = ([[0.1, bad]] if reads in ("mi_per_index", "member_fcmi") else [0.2, bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match="finite and >= 0"):
                bound_report(name, per_ss, 2)

    def test_missing_estimate_refused(self):
        with pytest.raises(ContractViolation, match="missing estimate"):
            harness._assemble_bounds(_config(["fcmi_mn"], 2), _results({}, 2), {})

    def test_tags_follow_the_name_unless_declared(self):
        declared = {name: b.tag for name, b in BOUNDS.items() if b.tag is not None}
        assert declared == {"vc": "vc-sauer-shelah", "ensemble_mn": "ensemble-sum"}
        for name, bound in BOUNDS.items():
            assert (bound.tag or name.replace("_", "-")) == PARENT_TAGS[name], name

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 12))
    def test_every_report_equals_the_wrapper_arithmetic(self, data, k1, n, subsets, members):
        """For k1 1-5, n and subset-family widths 1-12 and 1-12 ensemble
        members, every declared bound's report has the bytes its retired
        wrapper gave."""
        m = data.draw(st.integers(1, n), label="m")
        est = st.floats(0.0, 20.0, allow_nan=False, allow_subnormal=True)

        def rows(width):
            return data.draw(st.lists(st.lists(est, min_size=width, max_size=width),
                                      min_size=k1, max_size=k1))

        estimates = {"mi_per_index": rows(n), "cmi_per_index": rows(n),
                     "cmi_allpairs_per_index": rows(n), "subset_mi": rows(subsets),
                     "member_fcmi": rows(members),
                     "fcmi_full": [r[0] for r in rows(1)],
                     "weight_mi_full": [r[0] for r in rows(1)]}
        stab = stability(data.draw(est), data.draw(est), data.draw(est),
                         data.draw(st.floats(0.1, 4.0)), data.draw(st.integers(1, 16)))
        stab.update(trials=25, sigma_sq=data.draw(est))
        config = _config(BOUNDS, n, m)
        meta = {"subset_policy": "sampled", "subset_count": subsets, "stability": stab}
        got = harness._assemble_bounds(config, _results(estimates, k1), meta)
        for report in got:
            reads = BOUNDS[report.name].reads
            want = wrapper_bound_report(report.name, config,
                                        estimates[reads] if reads else None, meta)
            assert canonical_json(report) == canonical_json(want), report.name


def _reformed(path) -> tuple[list[BoundReport], list[BoundReport]]:
    """The bounds of the report at ``path`` as loaded, and as formed again
    from its config echo, supersample estimates and estimator_meta."""
    report = load_report(path)
    config = ExperimentConfig.from_json_dict(report.config)
    return report.bounds, harness._assemble_bounds(config, report.supersamples,
                                                   report.estimator_meta)


class TestReportRoundTrip:
    """Every bound a report holds follows, bit for bit, from what the report
    records: the golden and example configs together request every bound."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_report(self, tmp_path, monkeypatch, name):
        config = GOLDEN[name][0]
        monkeypatch.chdir(tmp_path)
        if config["data"]["kind"] == "csv":
            pool = config["data"]["params"]["path"]
            POOLS[pool](tmp_path / pool)
        persist(run_experiment(ExperimentConfig.from_json_dict(config)), tmp_path / "report.json")
        loaded, reformed = _reformed(tmp_path / "report.json")
        assert reformed == loaded
        assert canonical_json(reformed) == canonical_json(loaded)

    @pytest.mark.parametrize("name", sorted(EXAMPLE_RUNS))
    def test_example_report(self, example_runs, name):  # noqa: F811
        code, out = example_runs[name]
        assert code == 0
        loaded, reformed = _reformed(out / "report.json")
        assert reformed == loaded
        assert canonical_json(reformed) == canonical_json(loaded)
