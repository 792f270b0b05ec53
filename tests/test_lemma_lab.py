import itertools
import math

import numpy as np
import pytest

from fcmi.core import ContractViolation, Supersample, exact_rows
from fcmi.learners import LearnerSpec, fill_table
from fcmi.lemma_lab import (
    DiscreteJointInstance,
    MarginReport,
    run_all_verifiers,
    verify_dv_inequality,
    verify_erasure_lemma,
    verify_hans_subset_inequality,
    verify_kl_decomposition,
    verify_monotonicity_in_m,
    verify_squared_inequality,
    verify_subgaussian_square,
)

LOG2 = math.log(2.0)


def product_instance():
    joint = np.outer([0.3, 0.7], [0.25, 0.75])
    g = np.array([[0.2, -0.4], [0.9, 0.1]])
    return DiscreteJointInstance(joint, g)


class TestDvInequality:
    def test_independent_variables(self):
        inst = product_instance()
        # lhs is exactly zero for a product joint
        margin = verify_dv_inequality(inst)
        assert margin >= 0.0

    def test_constant_g(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        inst = DiscreteJointInstance(joint, np.full((2, 2), 0.3))
        assert verify_dv_inequality(inst) >= 0.0

    def test_correlated_hand_instance(self):
        # oracle: both sides computed longhand for the [[3,1],[1,3]]/8 joint
        joint = np.array([[3, 1], [1, 3]]) / 8
        g = np.array([[1.0, -1.0], [-1.0, 1.0]])
        lhs = abs(np.sum(joint * g) - 0.0)  # independent mean is 0 by symmetry
        mi = sum(p * math.log(p / 0.25) for p in (0.375, 0.125, 0.125, 0.375))
        rhs = math.sqrt(2 * 1.0 * mi)
        inst = DiscreteJointInstance(joint, g)
        assert verify_dv_inequality(inst) == pytest.approx(rhs - lhs, abs=1e-12)
        assert rhs - lhs >= 0

    def test_random_sweep_clean(self):
        rng = np.random.default_rng(0)
        from fcmi.lemma_lab import _dv_margin

        margins = [_dv_margin(rng) for _ in range(300)]
        assert min(margins) >= -1e-9


class TestSquaredInequality:
    def test_independent_bounded_by_log3_term(self):
        inst = product_instance()
        assert verify_squared_inequality(inst) >= 0.0

    def test_constant_g(self):
        inst = DiscreteJointInstance(np.full((2, 2), 0.25), np.zeros((2, 2)))
        assert verify_squared_inequality(inst) >= 0.0

    def test_random_sweep_clean(self):
        rng = np.random.default_rng(1)
        from fcmi.lemma_lab import _squared_margin

        margins = [_squared_margin(rng) for _ in range(300)]
        assert min(margins) >= -1e-9


class TestSubgaussianSquare:
    def test_identically_zero(self):
        assert verify_subgaussian_square([0.0, 0.0], [0.5, 0.5]) == 0.0

    def test_rademacher_hand_value(self):
        # oracle at lam = 0.2, sigma = 1: e^0.2 <= 1 + 1.6
        lhs = math.exp(0.2)
        rhs = 1 + 8 * 0.2 * 1.0
        assert lhs <= rhs
        assert verify_subgaussian_square([-1.0, 1.0], [0.5, 0.5]) >= 0.0

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ContractViolation):
            verify_subgaussian_square([0.0, 1.0], [0.5, 0.5])

    def test_random_sweep_clean(self):
        rng = np.random.default_rng(2)
        from fcmi.lemma_lab import _subgaussian_margin

        margins = [_subgaussian_margin(rng) for _ in range(300)]
        assert min(margins) >= -1e-9


class TestErasure:
    def test_independent_phi(self):
        # phi carries no information: every quantity is zero
        joint = np.zeros((2, 2, 2))
        for b1, b2 in itertools.product((0, 1), repeat=2):
            joint[:, b1, b2] = 0.25 * np.array([0.4, 0.6])
        assert verify_erasure_lemma(joint) == pytest.approx(0.0, abs=1e-12)

    def test_xor_hand_values(self):
        # oracle: phi = b1 XOR b2 on uniform bits. I(phi; b_i) = 0 while
        # I(phi; b_i | b_-i) = log 2, so both margins equal log 2.
        joint = np.zeros((2, 2, 2))
        for b1, b2 in itertools.product((0, 1), repeat=2):
            joint[b1 ^ b2, b1, b2] = 0.25
        from fcmi.lemma_lab import _cmi_bit_given_rest, _mi_bits_subset, _mi_nd

        assert _mi_bits_subset(joint, [0]) == pytest.approx(0.0, abs=1e-12)
        assert _cmi_bit_given_rest(joint, 0) == pytest.approx(LOG2, abs=1e-12)
        assert _mi_nd(joint) == pytest.approx(LOG2, abs=1e-12)
        assert verify_erasure_lemma(joint) >= -1e-12

    def test_random_sweep_clean(self):
        rng = np.random.default_rng(3)
        from fcmi.lemma_lab import _erasure_margin

        margins = [_erasure_margin(rng) for _ in range(200)]
        assert min(margins) >= -1e-9


class TestHansSubset:
    def test_independent_phi_zero_both_sides(self):
        joint = np.zeros((2, 2, 2))
        for b1, b2 in itertools.product((0, 1), repeat=2):
            joint[:, b1, b2] = 0.25 * np.array([0.5, 0.5])
        assert verify_hans_subset_inequality(joint) == pytest.approx(0.0, abs=1e-12)

    def test_identity_equality_case(self):
        # phi = (b1, b2, b3): lhs (m+1) log 2 equals rhs for every subset
        n = 3
        joint = np.zeros((2 ** n,) + (2,) * n)
        for bits in itertools.product((0, 1), repeat=n):
            code = sum(b << i for i, b in enumerate(bits))
            joint[(code,) + bits] = 1 / 2 ** n
        assert verify_hans_subset_inequality(joint) == pytest.approx(0.0, abs=1e-10)

    def test_random_sweep_clean(self):
        rng = np.random.default_rng(4)
        from fcmi.lemma_lab import _hans_margin

        margins = [_hans_margin(rng) for _ in range(200)]
        assert min(margins) >= -1e-9


class TestKlDecomposition:
    def test_identical_laws(self):
        assert verify_kl_decomposition([([0.5, 0.5], [0.5, 0.5])]) == pytest.approx(
            0.0, abs=1e-12)

    def test_hand_instance(self):
        # oracle: exact CMI of the [[3,1],[1,3]]/8 joint vs the quarter-KL cap;
        # the two laws are mirror images so both KL directions are equal
        cmi = sum(p * math.log(p / 0.25) for p in (0.375, 0.125, 0.125, 0.375))
        kl01 = 0.75 * math.log(3.0) + 0.25 * math.log(1 / 3.0)
        margin = verify_kl_decomposition([([0.75, 0.25], [0.25, 0.75])])
        assert margin == pytest.approx(2 * kl01 / 4 - cmi, abs=1e-12)
        assert margin > 0

    def test_random_sweep_clean(self):
        rng = np.random.default_rng(5)
        from fcmi.lemma_lab import _kl_margin

        margins = [_kl_margin(rng) for _ in range(300)]
        assert min(margins) >= -1e-9


class TestMonotonicity:
    def _supersample(self, n, seed):
        rng = np.random.default_rng(seed)
        # point by point: feature, then label
        xs, ys = zip(*[(rng.random(), int(rng.integers(2))) for _ in range(2 * n)])
        return Supersample(np.reshape(xs, (-1, 1)), ys)

    def test_constant_learner_all_zero(self):
        ss = Supersample([[0.1], [0.2], [0.6], [0.9]], [0, 0, 0, 0])
        table = fill_table(ss, LearnerSpec("threshold_erm"), *exact_rows(ss.n, (0,)))
        out = verify_monotonicity_in_m(table)
        assert out["non_decreasing"]
        assert out["sqrt"] == [0.0, 0.0]

    def test_threshold_erm_n4(self):
        ss = self._supersample(4, seed=10)
        table = fill_table(ss, LearnerSpec("threshold_erm"), *exact_rows(ss.n, (0,)))
        out = verify_monotonicity_in_m(table)
        assert out["non_decreasing"]
        assert len(out["sqrt"]) == 4

    def test_memorizer_n4(self):
        ss = self._supersample(4, seed=11)
        table = fill_table(ss, LearnerSpec("memorizer"), *exact_rows(ss.n, (0,)))
        assert verify_monotonicity_in_m(table)["non_decreasing"]

    def test_weight_code_variant(self):
        ss = self._supersample(4, seed=12)
        table = fill_table(ss, LearnerSpec("threshold_erm"), *exact_rows(ss.n, (0,)))
        assert verify_monotonicity_in_m(table, use_weights=True)["non_decreasing"]


class TestRunners:
    def test_run_all_verifiers_small(self):
        reports = run_all_verifiers(instances=50, seed=123)
        assert len(reports) == 6
        for r in reports:
            assert isinstance(r, MarginReport)
            assert r.instances == 50
            assert r.violations == 0
            assert r.min_margin >= -1e-9

    def test_report_json(self):
        reports = run_all_verifiers(instances=5, seed=1)
        d = reports[0].to_json_dict()
        assert set(d) == {"lemma", "instances", "min_margin", "violations"}
