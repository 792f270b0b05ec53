import math

import numpy as np
import pytest

from fcmi.bounds import (
    BoundReport,
    StabilityConstants,
    cmi_weight_bound,
    deterministic_stability_bound,
    deterministic_stability_squared_bound,
    ensemble_fcmi_bound,
    fcmi_bound_general_m,
    fcmi_bound_m1,
    fcmi_bound_mn,
    fcmi_squared_bound,
    optimal_noise_variance,
    stability_fcmi_bound,
    vc_fcmi_bound,
)
from fcmi.core import ContractViolation
from fcmi.infotheory import AbsoluteContinuityError
from oracles import stability_kl_decomposition

LOG2 = math.log(2.0)


class TestFcmiM1:
    def test_zero_information(self):
        assert fcmi_bound_m1([0.0, 0.0, 0.0]).value == 0.0

    def test_single_pair_log2(self):
        assert fcmi_bound_m1([LOG2]).value == pytest.approx(
            math.sqrt(2 * LOG2), abs=1e-12)
        assert fcmi_bound_m1([LOG2]).value == pytest.approx(1.17741, abs=1e-5)

    def test_two_pairs_hand_value(self):
        # (sqrt(2*0.5) + sqrt(2*0.125)) / 2 = (1 + 0.5) / 2
        assert fcmi_bound_m1([0.5, 0.125]).value == pytest.approx(0.75, abs=1e-12)

    def test_sqrt_applied_per_supersample_then_averaged(self):
        rows = [[0.5, 0.125], [0.0, 0.0]]
        expected = (0.75 + 0.0) / 2
        report = fcmi_bound_m1(rows)
        assert report.value == pytest.approx(expected, abs=1e-12)
        assert report.spread == pytest.approx(np.std([0.75, 0.0], ddof=1), abs=1e-12)

    def test_spread_requires_two_supersamples(self):
        assert fcmi_bound_m1([0.5, 0.125]).spread is None

    def test_negative_input_rejected(self):
        with pytest.raises(ContractViolation):
            fcmi_bound_m1([-0.1])


class TestFcmiMn:
    def test_zero(self):
        assert fcmi_bound_mn([0.0], 4).value == 0.0

    def test_hand_value(self):
        assert fcmi_bound_mn([0.5], 4).value == pytest.approx(0.5, abs=1e-12)

    def test_mean_of_per_supersample_roots(self):
        report = fcmi_bound_mn([0.5, 0.0], 4)
        assert report.value == pytest.approx(0.25, abs=1e-12)


class TestFcmiGeneralM:
    def test_zero(self):
        assert fcmi_bound_general_m([0.0, 0.0], 2).value == 0.0

    def test_single_subset(self):
        assert fcmi_bound_general_m([0.5], 2).value == pytest.approx(
            math.sqrt(0.5), abs=1e-12)

    def test_m1_specializes_to_fcmi_m1(self):
        vals = [0.3, 0.01, 0.2]
        assert fcmi_bound_general_m(vals, 1).value == pytest.approx(
            fcmi_bound_m1(vals).value, abs=1e-12)

    def test_empty_family_rejected(self):
        with pytest.raises(ContractViolation):
            fcmi_bound_general_m([], 2)


class TestFcmiSquared:
    def test_zero_fcmi(self):
        assert fcmi_squared_bound(0.0, 16).value == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert fcmi_squared_bound(0.5, 10).value == pytest.approx(2.0, abs=1e-12)

    def test_vanishes_with_n(self):
        assert fcmi_squared_bound(0.0, 10 ** 9).value < 1e-6


class TestCmiWeightBound:
    def test_zero(self):
        assert cmi_weight_bound(0.0, 8).value == 0.0

    def test_vacuous_deterministic_case(self):
        n = 6
        assert cmi_weight_bound(n * LOG2, n).value == pytest.approx(
            math.sqrt(2 * LOG2), abs=1e-12)

    def test_hand_value(self):
        assert cmi_weight_bound(1.0, 8).value == pytest.approx(0.5, abs=1e-12)

    def test_mean_of_per_supersample_roots(self):
        # roots first, then the mean, so value and spread describe the same
        # per-supersample numbers; the root of the mean would give 0.79
        got = cmi_weight_bound([0.25, 1.0], 2)
        assert got.value == pytest.approx((0.5 + 1.0) / 2, abs=1e-12)
        assert got.spread == pytest.approx(np.std([0.5, 1.0], ddof=1), abs=1e-12)
        mn = fcmi_bound_mn([0.25, 1.0], 2)
        assert (got.value, got.spread, got.inputs_digest) == (
            mn.value, mn.spread, mn.inputs_digest)
        assert (got.name, got.tag) == ("cmi_weights", "cmi-weights")


class TestStabilityFcmi:
    def test_zero(self):
        assert stability_fcmi_bound([0.0, 0.0]).value == 0.0

    def test_n1_matches_m1(self):
        assert stability_fcmi_bound([0.37]).value == pytest.approx(
            fcmi_bound_m1([0.37]).value, abs=1e-12)

    def test_hand_value(self):
        expected = (math.sqrt(2 * LOG2) + 0.0) / 2
        assert stability_fcmi_bound([LOG2, 0.0]).value == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(0.58871, abs=1e-5)


class TestVcBound:
    def test_d1_n1(self):
        # max(2 log 2, log 2e) = log 2e
        assert vc_fcmi_bound(1, 1) == pytest.approx(math.log(2 * math.e), abs=1e-12)

    def test_d1_n4(self):
        assert vc_fcmi_bound(1, 4) == pytest.approx(math.log(8 * math.e), abs=1e-12)

    def test_d3_n2_small_sample_branch(self):
        # 2n <= d + 1, so both branches are evaluated and the larger one wins
        expected = max(4 * LOG2, 3 * math.log(4 * math.e / 3))
        assert vc_fcmi_bound(3, 2) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractViolation):
            vc_fcmi_bound(0, 5)


class TestEnsembleBound:
    def test_zeros(self):
        assert ensemble_fcmi_bound([0.0, 0.0, 0.0]) == 0.0

    def test_sum(self):
        assert ensemble_fcmi_bound([0.1, 0.2, 0.3]) == pytest.approx(0.6, abs=1e-12)

    def test_single_member_identity(self):
        assert ensemble_fcmi_bound([0.4]) == pytest.approx(0.4, abs=1e-12)


class TestKlDecomposition:
    def test_identical_laws(self):
        assert stability_kl_decomposition([([0.5, 0.5], [0.5, 0.5])]) == 0.0

    def test_deterministic_divergence(self):
        with pytest.raises(AbsoluteContinuityError):
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
        c = StabilityConstants(beta=0.0)
        assert deterministic_stability_bound(c) == 0.0

    def test_hand_value_d1(self):
        c = StabilityConstants(beta=0.01, gamma=1.0, d_out=1)
        assert deterministic_stability_bound(c) == pytest.approx(
            2 ** 1.5 * 0.1, abs=1e-12)

    def test_hand_value_d16(self):
        c = StabilityConstants(beta=1.0, gamma=1.0, d_out=16)
        assert deterministic_stability_bound(c) == pytest.approx(
            2 ** 1.5 * 2.0, abs=1e-12)

    def test_squared_all_zero_betas(self):
        c = StabilityConstants(beta=0.0)
        assert deterministic_stability_squared_bound(c, 32) == pytest.approx(
            1.0, abs=1e-12)

    def test_squared_hand_value(self):
        c = StabilityConstants(beta=0.1, gamma=1.0, d_out=1)
        expected = 32 / 100 + 12 ** 1.5 * math.sqrt(2 * 0.01)
        got = deterministic_stability_squared_bound(c, 100)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(6.1988, abs=1e-3)

    def test_squared_vanishes_asymptotically(self):
        c = StabilityConstants(beta=0.0)
        assert deterministic_stability_squared_bound(c, 10 ** 9) < 1e-6

    def test_optimal_noise_variance(self):
        c = StabilityConstants(beta=0.2, gamma=2.0, d_out=4)
        assert optimal_noise_variance(c) == pytest.approx(
            0.2 / (2 * 2 * 2.0), abs=1e-12)

    def test_negative_constants_rejected(self):
        with pytest.raises(ContractViolation):
            StabilityConstants(beta=-0.1)


class TestBoundReport:
    def test_negative_value_rejected(self):
        with pytest.raises(ContractViolation):
            BoundReport("x", -0.1, None, {}, "t")

    def test_json_round_trip(self):
        report = fcmi_bound_m1([[0.5, 0.125], [0.0, 0.0]], digest={"k2": 10})
        again = BoundReport.from_json_dict(report.to_json_dict())
        assert again == report
