import hashlib
import itertools
import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmi.cli import main
from fcmi.core import ContractViolation, Supersample, exact_rows
from fcmi.infotheory import AbsoluteContinuityError
from fcmi.learners import LearnerSpec, fill_table
from fcmi.lemma_lab import (
    VERIFIERS,
    MarginReport,
    _dirichlet,
    _dv_margins,
    _sweep_margins,
    run_all_verifiers,
)
from oracles import (
    SAMPLERS,
    conditional_mutual_information,
    mutual_information,
    stability_kl_decomposition,
    verify_monotonicity_in_m,
)

LOG2 = math.log(2.0)


def margin(name, *parts):
    """The margin of one instance: verifier ``name``'s margins step on a stack
    of one."""
    return float(VERIFIERS[name][1](*(np.asarray(p, dtype=float)[None] for p in parts))[0])


def dv_margin(joint, g, center_per_phi=False):
    """The plain or the per-phi-centered DV margin of one instance."""
    return float(_dv_margins(joint[None], g[None], center_per_phi)[0])


def kl_margin(cells, weights=None):
    """The KL-cap margin of one list of (law under bit 0, law under bit 1)
    cells, equally weighted unless ``weights`` is given."""
    if weights is None:
        weights = [1.0 / len(cells)] * len(cells)
    return margin("kl_decomposition", cells, weights)


def product_instance():
    joint = np.outer([0.3, 0.7], [0.25, 0.75])
    g = np.array([[0.2, -0.4], [0.9, 0.1]])
    return joint, g


class TestDvInequality:
    def test_independent_variables(self):
        # lhs is exactly zero for a product joint
        assert dv_margin(*product_instance()) >= 0.0

    def test_constant_g(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert dv_margin(joint, np.full((2, 2), 0.3)) >= 0.0

    def test_correlated_hand_instance(self):
        # oracle: both sides computed longhand for the [[3,1],[1,3]]/8 joint
        joint = np.array([[3, 1], [1, 3]]) / 8
        g = np.array([[1.0, -1.0], [-1.0, 1.0]])
        lhs = abs(np.sum(joint * g) - 0.0)  # independent mean is 0 by symmetry
        mi = sum(p * math.log(p / 0.25) for p in (0.375, 0.125, 0.125, 0.375))
        rhs = math.sqrt(2 * 1.0 * mi)
        assert dv_margin(joint, g) == pytest.approx(rhs - lhs, abs=1e-12)
        assert rhs - lhs >= 0

    def test_random_sweep_clean(self):
        margins = _sweep_margins("dv_inequality", 300, np.random.default_rng(0))
        assert min(margins) >= -1e-9


class TestSquaredInequality:
    def test_independent_bounded_by_log3_term(self):
        assert margin("squared_inequality", *product_instance()) >= 0.0

    def test_constant_g(self):
        assert margin("squared_inequality", np.full((2, 2), 0.25), np.zeros((2, 2))) >= 0.0

    def test_random_sweep_clean(self):
        margins = _sweep_margins("squared_inequality", 300, np.random.default_rng(1))
        assert min(margins) >= -1e-9


class TestSubgaussianSquare:
    def test_identically_zero(self):
        assert margin("subgaussian_square", [0.0, 0.0], [0.5, 0.5]) == 0.0

    def test_rademacher_hand_value(self):
        # oracle at lam = 0.2, sigma = 1: e^0.2 <= 1 + 1.6
        lhs = math.exp(0.2)
        rhs = 1 + 8 * 0.2 * 1.0
        assert lhs <= rhs
        assert margin("subgaussian_square", [-1.0, 1.0], [0.5, 0.5]) >= 0.0

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ContractViolation):
            margin("subgaussian_square", [0.0, 1.0], [0.5, 0.5])

    def test_random_sweep_clean(self):
        margins = _sweep_margins("subgaussian_square", 300, np.random.default_rng(2))
        assert min(margins) >= -1e-9


class TestErasure:
    def test_independent_phi(self):
        # phi carries no information: every quantity is zero
        joint = np.zeros((2, 2, 2))
        for b1, b2 in itertools.product((0, 1), repeat=2):
            joint[:, b1, b2] = 0.25 * np.array([0.4, 0.6])
        assert margin("erasure", joint) == pytest.approx(0.0, abs=1e-12)

    def test_xor_hand_values(self):
        # oracle: phi = b1 XOR b2 on uniform bits. I(phi; b_i) = 0 while
        # I(phi; b_i | b_-i) = log 2, so both margins equal log 2.
        joint = np.zeros((2, 2, 2))
        for b1, b2 in itertools.product((0, 1), repeat=2):
            joint[b1 ^ b2, b1, b2] = 0.25
        from fcmi.lemma_lab import _cmi_bit_given_rest, _mi_bits_subset, _mi_nd

        stack = joint[None]  # the helpers take instances stacked on axis 0
        assert _mi_bits_subset(stack, [0])[0] == pytest.approx(0.0, abs=1e-12)
        assert _cmi_bit_given_rest(stack, 0)[0] == pytest.approx(LOG2, abs=1e-12)
        assert _mi_nd(stack)[0] == pytest.approx(LOG2, abs=1e-12)
        assert margin("erasure", joint) >= -1e-12

    def test_random_sweep_clean(self):
        margins = _sweep_margins("erasure", 200, np.random.default_rng(3))
        assert min(margins) >= -1e-9


class TestHansSubset:
    def test_independent_phi_zero_both_sides(self):
        joint = np.zeros((2, 2, 2))
        for b1, b2 in itertools.product((0, 1), repeat=2):
            joint[:, b1, b2] = 0.25 * np.array([0.5, 0.5])
        assert margin("hans_subset", joint) == pytest.approx(0.0, abs=1e-12)

    def test_identity_equality_case(self):
        # phi = (b1, b2, b3): lhs (m+1) log 2 equals rhs for every subset
        n = 3
        joint = np.zeros((2 ** n,) + (2,) * n)
        for bits in itertools.product((0, 1), repeat=n):
            code = sum(b << i for i, b in enumerate(bits))
            joint[(code,) + bits] = 1 / 2 ** n
        assert margin("hans_subset", joint) == pytest.approx(0.0, abs=1e-10)

    def test_random_sweep_clean(self):
        margins = _sweep_margins("hans_subset", 200, np.random.default_rng(4))
        assert min(margins) >= -1e-9


class TestKlDecomposition:
    def test_identical_laws(self):
        assert kl_margin([([0.5, 0.5], [0.5, 0.5])]) == pytest.approx(
            0.0, abs=1e-12)

    def test_hand_instance(self):
        # oracle: exact CMI of the [[3,1],[1,3]]/8 joint vs the quarter-KL cap;
        # the two laws are mirror images so both KL directions are equal
        cmi = sum(p * math.log(p / 0.25) for p in (0.375, 0.125, 0.125, 0.375))
        kl01 = 0.75 * math.log(3.0) + 0.25 * math.log(1 / 3.0)
        got = kl_margin([([0.75, 0.25], [0.25, 0.75])])
        assert got == pytest.approx(2 * kl01 / 4 - cmi, abs=1e-12)
        assert got > 0

    def test_random_sweep_clean(self):
        margins = _sweep_margins("kl_decomposition", 300, np.random.default_rng(5))
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


# --- scalar oracles -------------------------------------------------------------
# The per-instance verifier bodies as they were before the margins were
# batched, kept verbatim (renamed, and given a joint and payoff table where
# they took an instance) as the reference for the batched kernels.


def _scalar_mi_nd(joint: np.ndarray) -> float:
    """I(axis 0 ; all remaining axes) of an exact joint array."""
    flat = joint.reshape(joint.shape[0], -1)
    return mutual_information(flat)


def _scalar_cmi_bit_given_rest(joint: np.ndarray, i: int) -> float:
    """I(phi ; bit i | other bits) of a joint over (phi, b_1..b_n)."""
    moved = np.moveaxis(joint, i + 1, 1)
    return conditional_mutual_information(moved.reshape(moved.shape[0], 2, -1))


def _scalar_mi_bits_subset(joint: np.ndarray, subset: Sequence[int]) -> float:
    """I(phi ; bits in subset) after marginalizing the other bits out."""
    drop = tuple(ax for ax in range(1, joint.ndim) if ax - 1 not in set(subset))
    marg = joint.sum(axis=drop) if drop else joint
    return _scalar_mi_nd(marg)


def _scalar_dv_inequality(joint: np.ndarray, g: np.ndarray,
                          center_per_phi: bool = False) -> float:
    g = g.copy()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    if center_per_phi:
        row_means = g @ pb
        g = g - row_means[:, None]
        ranges = g.max(axis=1) - g.min(axis=1)
        sigma = float(ranges.max()) / 2.0
    else:
        sigma = (float(g.max()) - float(g.min())) / 2.0  # half the range of g
    lhs = abs(float(np.sum(joint * g)) - float(pa @ g @ pb))
    rhs = math.sqrt(2.0 * sigma ** 2 * mutual_information(joint))
    return rhs - lhs


def _scalar_squared_inequality(joint: np.ndarray, g: np.ndarray) -> float:
    pb = joint.sum(axis=0)
    row_means = g @ pb
    centered = g - row_means[:, None]
    sigma = float((centered.max(axis=1) - centered.min(axis=1)).max()) / 2.0
    lhs = float(np.sum(joint * centered ** 2))
    rhs = 4.0 * sigma ** 2 * (mutual_information(joint) + math.log(3.0))
    return rhs - lhs


def _scalar_subgaussian_square(values: Sequence[float], probs: Sequence[float]) -> float:
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    if abs(float(v @ p)) > 1e-12:
        raise ContractViolation("X must have zero mean")
    sigma = (float(v.max()) - float(v.min())) / 2.0
    if sigma == 0:
        return 0.0  # X identically zero: both sides are 1 at every lam
    lam_max = 1.0 / (4.0 * sigma ** 2)
    margin = math.inf
    for k in range(64):
        lam = lam_max * k / 64
        lhs = float(np.sum(p * np.exp(lam * v ** 2)))
        rhs = 1.0 + 8.0 * lam * sigma ** 2
        margin = min(margin, rhs - lhs)
    return margin


def _scalar_erasure_lemma(joint: np.ndarray) -> float:
    n_bits = joint.ndim - 1
    cmis = [_scalar_cmi_bit_given_rest(joint, i) for i in range(n_bits)]
    margin = sum(cmis) - _scalar_mi_nd(joint)
    for i in range(n_bits):
        margin = min(margin, cmis[i] - _scalar_mi_bits_subset(joint, [i]))
    return margin


def _scalar_hans_subset_inequality(joint: np.ndarray) -> float:
    n_bits = joint.ndim - 1
    margin = math.inf
    for size in range(2, n_bits + 1):
        for u in itertools.combinations(range(n_bits), size):
            lhs = _scalar_mi_bits_subset(joint, u)
            rhs = sum(_scalar_mi_bits_subset(joint, [j for j in u if j != k])
                      for k in u) / (size - 1)
            margin = min(margin, lhs - rhs)
    return margin


def _scalar_kl_decomposition(cells, weights=None) -> float:
    if weights is None:
        weights = [1.0 / len(cells)] * len(cells)
    cmi = 0.0
    for w, (p0, p1) in zip(weights, cells):
        joint = 0.5 * np.stack([np.asarray(p0, float), np.asarray(p1, float)], axis=1)
        cmi += w * mutual_information(joint)
    cap = stability_kl_decomposition(cells, weights)
    return cap - cmi


def _scalar_dv_pair(joint, g):
    return min(_scalar_dv_inequality(joint, g),
               _scalar_dv_inequality(joint, g, center_per_phi=True))


# verifier name -> scalar margin of one drawn instance (the draw's arrays)
ORACLES = {
    "dv_inequality": _scalar_dv_pair,
    "squared_inequality": _scalar_squared_inequality,
    "subgaussian_square": _scalar_subgaussian_square,
    "erasure": _scalar_erasure_lemma,
    "hans_subset": _scalar_hans_subset_inequality,
    "kl_decomposition": lambda laws, w: _scalar_kl_decomposition(
        list(zip(laws[:, 0], laws[:, 1])), w),
}


def _oracle_sweep(name, count, seed):
    """The oracle's margins of the instances ``_sweep_margins`` draws from ``seed``."""
    draw = SAMPLERS[name]
    rng = np.random.default_rng(seed)
    return [ORACLES[name](*draw(rng)) for _ in range(count)]


# run_all_verifiers(1000, seed=0) before the margins were batched, by repr
PINNED_MIN_MARGINS = {
    "dv_inequality": "0.00045631652957626106",
    "squared_inequality": "0.0007883228173527166",
    "subgaussian_square": "-2.220446049250313e-16",
    "erasure": "2.342430210576854e-05",
    "hans_subset": "1.2502799064341343e-06",
    "kl_decomposition": "7.700868846828097e-05",
}

# sha256 of ``_sweep_margins(name, 1000, default_rng(0)).tobytes()``, recorded
# while each instance was drawn by the one-instance samplers
SWEEP_SHA256 = {
    "dv_inequality": "b85d798e463d6d1349aff33eb9453dd162e968b1a8e245e21c7d387d0f8dafc3",
    "squared_inequality": "e743af0b461467c224e6d751786e7fd7f889c465916abfbc57ff74e3dfa35dda",
    "subgaussian_square": "a7e30866a8867165499c3856099af1a3c40346ecf9d25fc510153b97e3ac17e8",
    "erasure": "bbe56b7974acb884f87500759ad7be8eecccf42322f08c0d8948c15a303c5e4f",
    "hans_subset": "63aca051cfd3131096431a7b0831ba6c3a5ca551e7cc8a8653ff862f244be658",
    "kl_decomposition": "5dbc477c8e9d2d2eba13f71c4b910f3d4e47eb80497ba3a9399bf60b74880074",
}

# sha256 of the file ``fcmi verify-lemmas --instances 1000 --seed S -o FILE``
# writes, recorded at the same time
VERIFY_LEMMAS_SHA256 = {
    0: "8b350f0d42108841ccaaaec7a7e6fb8161f359782d47da9e4fb719947bc9b887",
    123: "20d240e0aa216e010f4780d1cff9deb5d4dfea438bfcb402e19e1becc9f0bbf4",
}


def _xor_joint():
    joint = np.zeros((2, 2, 2))
    for b1, b2 in itertools.product((0, 1), repeat=2):
        joint[b1 ^ b2, b1, b2] = 0.25
    return joint


def _identity_joint(n):
    joint = np.zeros((2 ** n,) + (2,) * n)
    for bits in itertools.product((0, 1), repeat=n):
        joint[(sum(b << i for i, b in enumerate(bits)),) + bits] = 1 / 2 ** n
    return joint


def _stuck_bit_joint():
    # bit 2 is always 0: every conditioning cell with b2 = 1 is empty
    joint = np.zeros((3, 2, 2))
    joint[:, :, 0] = [[0.1, 0.2], [0.3, 0.05], [0.15, 0.2]]
    return joint


_SPARSE_JOINT = np.array([[0.2, 0.0, 0.1, 0.0],
                          [0.0, 0.15, 0.0, 0.05],
                          [0.1, 0.0, 0.0, 0.2],
                          [0.0, 0.1, 0.1, 0.0]])
_JOINT_CASES = [
    ("diagonal", np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([[0.3, -0.2], [0.9, 0.1]])),
    ("empty_row", np.array([[0.3, 0.7], [0.0, 0.0]]), np.array([[1.0, -1.0], [0.5, 0.2]])),
    ("sparse_4x4", _SPARSE_JOINT, np.linspace(-1.0, 1.0, 16).reshape(4, 4)),
    ("constant_g", _SPARSE_JOINT, np.full((4, 4), 0.3)),
]


class TestBatchedAgainstScalarOracle:
    @given(name=st.sampled_from(sorted(VERIFIERS)), seed=st.integers(0, 2 ** 32 - 1),
           count=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_sweep_margins_match_oracle(self, name, seed, count):
        # sampled instances have no zero cell, so the batched kernels do the
        # oracle's operations in its order and every margin has its bits
        np.testing.assert_array_equal(
            _sweep_margins(name, count, np.random.default_rng(seed)),
            _oracle_sweep(name, count, seed))

    @pytest.mark.parametrize("name, seed", [("dv_inequality", 4), ("squared_inequality", 2)])
    def test_long_sweep_bit_for_bit(self, name, seed):
        # each of these sweeps has a sigma whose Python ``sigma ** 2`` (libm
        # pow) differs from sigma * sigma in the last bit
        np.testing.assert_array_equal(
            _sweep_margins(name, 1000, np.random.default_rng(seed)),
            _oracle_sweep(name, 1000, seed))

    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    def test_one_sweep_mixes_shapes(self, name):
        groups = VERIFIERS[name][0](np.random.default_rng(0), 40)
        shapes = {tuple(part.shape[1:] for part in parts) for _, parts in groups}
        assert len(shapes) == len(groups) > 1

    @pytest.mark.parametrize("case", _JOINT_CASES, ids=lambda c: c[0])
    def test_hand_joints(self, case):
        _, joint, g = case
        for center in (False, True):
            assert dv_margin(joint, g, center) == pytest.approx(
                _scalar_dv_inequality(joint, g, center), rel=0, abs=1e-14)
        assert margin("squared_inequality", joint, g) == pytest.approx(
            _scalar_squared_inequality(joint, g), rel=0, abs=1e-14)

    @pytest.mark.parametrize("values, probs", [
        ([0.0, 0.0], [0.5, 0.5]),
        ([0.0, 0.0, 0.0], [0.2, 0.3, 0.5]),
        ([-1.0, 1.0], [0.5, 0.5]),
        ([-0.5, 0.5, 3.0], [0.5, 0.5, 0.0]),
    ])
    def test_hand_variables(self, values, probs):
        assert margin("subgaussian_square", values, probs) == pytest.approx(
            _scalar_subgaussian_square(values, probs), rel=0, abs=1e-14)

    @pytest.mark.parametrize("joint", [
        _xor_joint(), _identity_joint(3), _stuck_bit_joint(),
        np.full((2, 2, 2, 2), 1 / 16),
    ], ids=["xor", "identity3", "stuck_bit", "uniform"])
    def test_hand_bit_joints(self, joint):
        assert margin("erasure", joint) == pytest.approx(
            _scalar_erasure_lemma(joint), rel=0, abs=1e-14)
        assert margin("hans_subset", joint) == pytest.approx(
            _scalar_hans_subset_inequality(joint), rel=0, abs=1e-14)

    @pytest.mark.parametrize("cells, weights", [
        # the second cell has weight 0: its laws are not absolutely continuous
        # and are never checked, as the cap skips the cell
        ([([0.5, 0.5], [0.25, 0.75]), ([1.0, 0.0], [0.0, 1.0])], [1.0, 0.0]),
        ([([0.5, 0.5, 0.0], [0.25, 0.75, 0.0])], None),
        ([([0.2, 0.8], [0.6, 0.4]), ([0.5, 0.5], [0.5, 0.5])], [0.3, 0.7]),
    ])
    def test_hand_cells(self, cells, weights):
        assert kl_margin(cells, weights) == pytest.approx(
            _scalar_kl_decomposition(cells, weights), rel=0, abs=1e-14)

    def test_kl_checks_live_cells(self):
        cells = [([0.5, 0.5], [0.25, 0.75]), ([1.0, 0.0], [0.0, 1.0])]
        for fn in (kl_margin, _scalar_kl_decomposition):
            with pytest.raises(AbsoluteContinuityError):
                fn(cells, [0.5, 0.5])
            with pytest.raises(ContractViolation):
                fn(cells, [0.5, 0.6])
            with pytest.raises(ContractViolation):
                fn([([0.5, 0.6], [0.5, 0.5])], [1.0])


class TestDrawAgainstScalarSamplers:
    @given(name=st.sampled_from(sorted(VERIFIERS)), seed=st.integers(0, 2 ** 32 - 1),
           count=st.integers(1, 80))
    @settings(max_examples=100, deadline=None)
    def test_draw_matches_samplers(self, name, seed, count):
        # the batched draw reads the samplers' stream and repeats their
        # arithmetic, so every instance has their bits, a lone one in its
        # group included, and the stream ends where theirs does
        rng = np.random.default_rng(seed)
        expected = [SAMPLERS[name](rng) for _ in range(count)]
        batched_rng = np.random.default_rng(seed)
        groups = VERIFIERS[name][0](batched_rng, count)
        assert batched_rng.random() == rng.random()
        assert sorted(i for rows, _ in groups for i in rows) == list(range(count))
        for rows, parts in groups:
            assert rows == sorted(rows)
            for j, i in enumerate(rows):
                assert len(parts) == len(expected[i])
                for part, want in zip(parts, expected[i]):
                    np.testing.assert_array_equal(part[j], want, strict=True)

    @pytest.mark.parametrize("size", range(1, 17))
    def test_dirichlet_is_normalized_exponentials(self, size):
        # the draw steps read numpy's all-ones Dirichlet as its gamma(1), that
        # is standard exponential, variates scaled by one over their sum in
        # order; a numpy release that changes either fails here
        for seed in range(100):
            rng, exp_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                np.testing.assert_array_equal(
                    rng.dirichlet(np.ones(size)),
                    _dirichlet(exp_rng.standard_exponential(size)), strict=True)
            assert rng.random() == exp_rng.random()


class TestSweepPinned:
    def test_seed0_margins_unchanged(self):
        reports = run_all_verifiers(instances=1000, seed=0)
        assert {r.lemma: repr(r.min_margin) for r in reports} == PINNED_MIN_MARGINS
        assert all(r.instances == 1000 and r.violations == 0 for r in reports)

    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    def test_seed0_margin_bytes(self, name):
        margins = _sweep_margins(name, 1000, np.random.default_rng(0))
        assert hashlib.sha256(margins.tobytes()).hexdigest() == SWEEP_SHA256[name]

    @pytest.mark.parametrize("seed", sorted(VERIFY_LEMMAS_SHA256))
    def test_cli_output_bytes(self, tmp_path, seed):
        out = tmp_path / "lemmas.json"
        assert main(["verify-lemmas", "--instances", "1000", "--seed", str(seed),
                     "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_LEMMAS_SHA256[seed]

    @pytest.mark.parametrize("instances, seed", [(0, 0), (-3, 0), (5, -1)])
    def test_rejects_bad_inputs(self, instances, seed):
        with pytest.raises(ContractViolation):
            run_all_verifiers(instances=instances, seed=seed)
