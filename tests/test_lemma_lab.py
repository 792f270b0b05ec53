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
from fcmi.learners import LearnerSpec, fill_table
from fcmi.lemma_lab import (
    VERIFIERS,
    MarginReport,
    _center_rows,
    _draw_grids,
    _dv_margins,
    _sweep_margins,
    run_all_verifiers,
)
from oracles import (
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
    """The oracle's margins of the instances ``_sweep_margins`` draws from ``seed``,
    evaluated one instance at a time."""
    out = np.empty(count)
    for rows, parts in VERIFIERS[name][0](np.random.default_rng(seed), count):
        for j, i in enumerate(rows):
            out[i] = ORACLES[name](*(part[j] for part in parts))
    return out


def _squared_sigmas(name, count, seed):
    """The sigmas a sweep squares: the half-ranges of g, plain (dv only) and
    centered per phi, or of the values."""
    out = []
    for _, parts in VERIFIERS[name][0](np.random.default_rng(seed), count):
        if name == "subgaussian_square":
            v = parts[0]
            out.extend((v.max(axis=1) - v.min(axis=1)) / 2.0)
            continue
        joint, g = parts
        out.extend(_center_rows(g, joint.sum(axis=1))[1])
        if name == "dv_inequality":
            out.extend((g.max(axis=(1, 2)) - g.min(axis=(1, 2))) / 2.0)
    return [float(s) for s in out]


# run_all_verifiers(1000, seed=0), by repr
PINNED_MIN_MARGINS = {
    "dv_inequality": "0.00037676404018491825",
    "squared_inequality": "0.0013886646970323047",
    "subgaussian_square": "-2.220446049250313e-16",
    "erasure": "3.786057151722311e-05",
    "hans_subset": "3.8812287279921254e-07",
    "kl_decomposition": "2.9264976162426916e-08",
}

# sha256 of ``_sweep_margins(name, 1000, default_rng(0)).tobytes()``, recorded
# when each shape group was first drawn with array calls
SWEEP_SHA256 = {
    "dv_inequality": "c859a43c1fcc8084f884865359c6f5d5e9aadc39e6d2d26217f782abe3ffc951",
    "squared_inequality": "c7b93ee7f2c6a5b4d627bc5721c430dd07e7a748021770711a2172dae9f6d895",
    "subgaussian_square": "8586b1056ea040d10db15787b1fd0ae432d47f696c90517d62a372805ab76590",
    "erasure": "611cedfe9eba57ef0f40cd9da17d24599ea4a97e24bf9a10df4a0a91d2754d20",
    "hans_subset": "350388a3ff04730456d84ed374ba82fd0550d3224c2a522863feac3cfc38fb5c",
    "kl_decomposition": "0a914f80f755ca08348f4dbb000fa3a4cb89afc64302d6029cf2e2b5613e4eb6",
}

# sha256 of the file ``fcmi verify-lemmas --instances 1000 --seed S -o FILE``
# writes, recorded at the same time
VERIFY_LEMMAS_SHA256 = {
    0: "93a6a2df2cf01fa580924a4d753a6b6240d37d8ab5050718e1107a99c0562b9e",
    123: "346c8ead84613986128fa6bc195a101257a14b2835479d33b0372d7400393d99",
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
        # drawn instances have no zero cell, so the batched kernels do the
        # oracle's operations in its order and every margin has its bits
        np.testing.assert_array_equal(
            _sweep_margins(name, count, np.random.default_rng(seed)),
            _oracle_sweep(name, count, seed))

    @pytest.mark.parametrize("name, seed", [("dv_inequality", 4), ("squared_inequality", 1),
                                            ("subgaussian_square", 2)])
    def test_long_sweep_bit_for_bit(self, name, seed):
        # the sweep has a sigma whose Python ``sigma ** 2`` (libm pow) differs
        # from sigma * sigma in the last bit, which ``_py_square`` must keep
        assert any(s ** 2 != s * s for s in _squared_sigmas(name, 1000, seed))
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
            with pytest.raises(ContractViolation):
                fn(cells, [0.5, 0.5])
            with pytest.raises(ContractViolation):
                fn(cells, [0.5, 0.6])
            with pytest.raises(ContractViolation):
                fn([([0.5, 0.6], [0.5, 0.5])], [1.0])


# verifier name -> the shape of one drawn instance, and the range of each dimension
_SHAPE_RANGES = {
    "dv_inequality": (lambda joint, g: joint.shape, [(2, 4), (2, 4)]),
    "squared_inequality": (lambda joint, g: joint.shape, [(2, 4), (2, 4)]),
    "subgaussian_square": (lambda v, p: v.shape, [(2, 5)]),
    "erasure": (lambda joint: (joint.shape[0], joint.ndim - 1), [(2, 4), (2, 3)]),
    "hans_subset": (lambda joint: (joint.shape[0], joint.ndim - 1), [(2, 4), (2, 5)]),
    "kl_decomposition": (lambda laws, w: (laws.shape[0], laws.shape[2]), [(1, 4), (2, 4)]),
}


def _laws(name, parts):
    """The distributions among one group's parts, each flattened to (instances, cells)."""
    if name in ("dv_inequality", "squared_inequality", "erasure", "hans_subset"):
        return [parts[0].reshape(parts[0].shape[0], -1)]
    if name == "subgaussian_square":
        return [parts[1]]
    laws, weights = parts
    return [laws.reshape(-1, laws.shape[-1]), weights]


class TestDraw:
    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    def test_groups_partition_sweep_in_declared_shapes(self, name):
        shape_of, ranges = _SHAPE_RANGES[name]
        groups = VERIFIERS[name][0](np.random.default_rng(0), 500)
        assert sorted(i for rows, _ in groups for i in rows) == list(range(500))
        for rows, parts in groups:
            assert all(part.shape[0] == len(rows) for part in parts)
            shape = shape_of(*(part[0] for part in parts))
            assert all(lo <= d <= hi for d, (lo, hi) in zip(shape, ranges, strict=True))
            for law in _laws(name, parts):
                assert np.all(law > 0)
                np.testing.assert_allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["erasure", "hans_subset"])
    def test_bits_independent_in_declared_range(self, name):
        for _, (joint,) in VERIFIERS[name][0](np.random.default_rng(1), 300):
            bits = joint.sum(axis=1)  # (N, 2, ..., 2)
            n, n_bits = bits.shape[0], bits.ndim - 1
            # P(bit i = 1) of each instance
            ones = [np.moveaxis(bits, i + 1, 1).reshape(n, 2, -1).sum(axis=2)[:, 1]
                    for i in range(n_bits)]
            assert all(np.all((p >= 0.1 - 1e-12) & (p <= 0.9 + 1e-12)) for p in ones)
            product = np.ones_like(bits)
            for i, p in enumerate(ones):
                shape = [-1] + [1] * n_bits
                shape[i + 1] = 2
                product = product * np.stack([1.0 - p, p], axis=1).reshape(shape)
            np.testing.assert_allclose(bits, product, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    def test_same_seed_same_arrays(self, name):
        first, second = (VERIFIERS[name][0](np.random.default_rng(9), 300) for _ in range(2))
        for (rows, parts), (rows2, parts2) in zip(first, second, strict=True):
            np.testing.assert_array_equal(rows, rows2)
            for part, part2 in zip(parts, parts2, strict=True):
                np.testing.assert_array_equal(part, part2, strict=True)

    def test_boundary_mix_share(self):
        # a boosted joint has a cell of at least 0.95; a Dirichlet-uniform
        # joint over 4 or more cells has one with chance at most 4 * 0.05^3
        joints = [parts[0] for _, parts in _draw_grids(np.random.default_rng(0), 4000)]
        boosted = sum(int(np.count_nonzero(j.max(axis=(1, 2)) >= 0.95)) for j in joints)
        assert abs(boosted / 4000 - 0.25) <= 0.03


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
        out = tmp_path / "lemmas" / "deep" / "out.json"  # directories made by the CLI
        assert main(["verify-lemmas", "--instances", "1000", "--seed", str(seed),
                     "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_LEMMAS_SHA256[seed]

    @pytest.mark.parametrize("seed", range(20))
    def test_full_size_sweep_clean(self, seed):
        reports = run_all_verifiers(instances=1000, seed=seed)
        assert all(r.instances == 1000 and r.violations == 0 for r in reports)

    @pytest.mark.parametrize("instances, seed", [(0, 0), (-3, 0), (5, -1)])
    def test_rejects_bad_inputs(self, instances, seed):
        with pytest.raises(ContractViolation):
            run_all_verifiers(instances=instances, seed=seed)
