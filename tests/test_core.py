import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmi.core import (
    ContractViolation,
    PredictionSpace,
    Supersample,
    TrialTable,
    absolute_loss,
    aggregate_gap,
    enumerate_splits,
    split_slots,
    zero_one_loss,
)


def make_supersample(values):
    """One-feature supersample with pairs ``values`` and all labels 0."""
    return Supersample(np.array(values, dtype=float).reshape(-1, 1),
                       np.zeros(2 * len(values), dtype=int))


def train_half(ss, bits):
    return ss.xs[split_slots(np.array(bits))[0], 0].tolist()


def heldout_half(ss, bits):
    return ss.xs[split_slots(np.array(bits))[1], 0].tolist()


def table(masks, preds, train_loss, test_loss, seeds=None):
    masks = np.array(masks)
    return TrialTable("ss000", PredictionSpace("finite", size=2), masks,
                      seeds if seeds is not None else np.zeros(len(masks)), np.array(preds),
                      np.array(train_loss), np.array(test_loss))


class TestSelection:
    def test_select_bit0_takes_first(self):
        ss = make_supersample([(1.0, 2.0)])
        assert train_half(ss, (0,)) == [1.0]

    def test_select_bit1_takes_second(self):
        ss = make_supersample([(1.0, 2.0)])
        assert train_half(ss, (1,)) == [2.0]

    def test_select_componentwise(self):
        ss = make_supersample([(1.0, 2.0), (3.0, 4.0)])
        assert train_half(ss, (1, 0)) == [2.0, 3.0]

    def test_complement_single_pair(self):
        ss = make_supersample([(1.0, 2.0)])
        assert heldout_half(ss, (0,)) == [2.0]
        assert heldout_half(ss, (1,)) == [1.0]

    def test_complement_componentwise(self):
        ss = make_supersample([(1.0, 2.0), (3.0, 4.0)])
        assert heldout_half(ss, (1, 0)) == [1.0, 4.0]

    def test_length_mismatch_rejected(self):
        # masks of n=2 cannot index the 2n=2 predictions of an n=1 supersample
        with pytest.raises(ContractViolation):
            table([[0, 1]], [[0, 0]], [0.0], [0.0])

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_union_is_all_examples(self, n, data):
        ss = make_supersample([(2 * i, 2 * i + 1) for i in range(n)])
        bits = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        both = train_half(ss, bits) + heldout_half(ss, bits)
        assert sorted(both) == [float(v) for v in range(2 * n)]

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_flip_swaps_halves(self, n, data):
        ss = make_supersample([(2 * i, 2 * i + 1) for i in range(n)])
        bits = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        flipped = tuple(1 - b for b in bits)
        assert train_half(ss, flipped) == heldout_half(ss, bits)
        assert heldout_half(ss, flipped) == train_half(ss, bits)


class TestEnumerateSplits:
    def test_n1(self):
        assert enumerate_splits(1).tolist() == [[0], [1]]

    def test_n2_lexicographic(self):
        assert enumerate_splits(2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_n3_first_last(self):
        masks = enumerate_splits(3)
        assert masks.shape == (8, 3)
        assert masks.dtype == np.uint8
        assert masks[0].tolist() == [0, 0, 0]
        assert masks[-1].tolist() == [1, 1, 1]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_no_duplicates(self, n):
        masks = enumerate_splits(n)
        assert len({tuple(m) for m in masks.tolist()}) == 2 ** n

    def test_over_limit_refused(self):
        with pytest.raises(ContractViolation):
            enumerate_splits(21)


class TestGap:
    def _table(self, gaps, train_loss=0.0):
        k = len(gaps)
        return table([[0]] * k, [[0, 0]] * k, [train_loss] * k,
                     [train_loss + g for g in gaps])

    def test_zero_gap(self):
        assert aggregate_gap(self._table([0.0]))[0] == 0.0

    def test_positive_gap(self):
        assert aggregate_gap(self._table([0.5]))[0] == 0.5

    def test_negative_gap_permitted(self):
        gap = aggregate_gap(table([[0]], [[0, 0]], [0.3], [0.2]))[0]
        assert gap == pytest.approx(-0.1)

    def test_antisymmetric_under_swap(self):
        a = aggregate_gap(table([[0]], [[0, 0]], [0.3], [0.8]))[0]
        b = aggregate_gap(table([[0]], [[0, 0]], [0.8], [0.3]))[0]
        assert a == -b

    def test_aggregate_constant(self):
        mean, std = aggregate_gap(self._table([0.1, 0.1, 0.1]))
        assert mean == pytest.approx(0.1)
        assert std == pytest.approx(0.0)

    def test_aggregate_two_values(self):
        # oracle: sample std of [0.0, 0.2] with ddof=1 is sqrt(2 * 0.1^2 / 1)
        expected_std = math.sqrt(((0.0 - 0.1) ** 2 + (0.2 - 0.1) ** 2) / 1)
        mean, std = aggregate_gap(self._table([0.0, 0.2]))
        assert mean == pytest.approx(0.1)
        assert std == pytest.approx(expected_std)
        assert std == pytest.approx(0.1414213562, abs=1e-9)

    def test_aggregate_single_trial_std_undefined(self):
        mean, std = aggregate_gap(self._table([0.3]))
        assert mean == pytest.approx(0.3)
        assert std is None


class TestLosses:
    def test_zero_one(self):
        assert zero_one_loss(1, 1) == 0.0
        assert zero_one_loss(1, 0) == 1.0

    def test_absolute(self):
        assert absolute_loss((0.25,), 1) == pytest.approx(0.75)
        assert absolute_loss((0.25,), 0) == pytest.approx(0.25)

    def test_absolute_rejects_bad_inputs(self):
        with pytest.raises(ContractViolation):
            absolute_loss((1.5,), 0)


class TestTypes:
    def test_supersample_bad_arrays_rejected(self):
        for xs, ys in [
            (np.zeros((3, 1)), np.zeros(3)),  # odd example count
            (np.zeros((0, 1)), np.zeros(0)),  # no pair
            (np.zeros((4, 1)), np.zeros(3)),  # one label short
            (np.zeros((4, 1)), np.zeros((4, 1))),  # labels not 1-D
            (np.zeros(4), np.zeros(4)),  # inputs not 2-D
            (np.zeros((2, 1)), np.array([0, -1])),  # negative label
        ]:
            with pytest.raises(ContractViolation):
                Supersample(xs, ys)

    def test_supersample_stores_read_only_copies(self):
        xs, ys = np.array([[1.0], [2.0]]), np.array([0, 1])
        ss = Supersample(xs, ys)
        xs[0, 0], ys[0] = 9.0, 1
        assert ss.n == 1 and ss.xs[0, 0] == 1.0 and ss.ys[0] == 0
        assert ss.xs.dtype == np.float64 and ss.ys.dtype == np.int64
        assert not ss.xs.flags.writeable and not ss.ys.flags.writeable

    def test_split_mask_bad_bits(self):
        for bad in (2, -1, 0.5):
            with pytest.raises(ContractViolation):
                table([[0, bad]], [[0, 0, 0, 0]], [0.0], [0.0])

    def test_split_bit_check_builds_no_mask_sized_array(self):
        """Integer masks are checked by their min and max, so building a table
        allocates less than one byte per split bit."""
        rows, n = 2 ** 16, 16
        masks = np.random.default_rng(0).integers(0, 2, (rows, n), dtype=np.uint8)
        preds = np.zeros((rows, 2 * n), dtype=np.uint8)
        seeds, loss = np.zeros(rows, dtype=np.uint64), np.zeros(rows)
        tracemalloc.start()
        try:
            TrialTable("ss000", PredictionSpace("finite", size=2), masks, seeds, preds,
                       loss, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * n

    def test_trial_prediction_length_checked(self):
        with pytest.raises(ContractViolation):
            table([[0, 1]], [[0, 0]], [0.0], [0.0])

    def test_trial_loss_range_checked(self):
        with pytest.raises(ContractViolation):
            table([[0]], [[0, 0]], [0.0], [1.5])
        with pytest.raises(ContractViolation):
            table([[0]], [[0, 0]], [float("nan")], [0.0])

    def test_empty_table_rejected(self):
        with pytest.raises(ContractViolation):
            table(np.zeros((0, 1)), np.zeros((0, 2)), [], [])

    def test_negative_finite_prediction_rejected(self):
        """The estimators read finite predictions as nonnegative digits; a
        real-vector prediction may be negative."""
        with pytest.raises(ContractViolation, match=">= 0"):
            table([[0, 1]], [[0, 1, -1, 0]], [0.0], [0.0])
        TrialTable("ss", PredictionSpace("real", dim=1), np.array([[0]]), np.array([1]),
                   np.array([[[-0.5], [0.5]]]), np.array([0.0]), np.array([0.0]))


class TestPredictionTableJson:
    EXPECTED = {
        "supersample_id": "ss000",
        "n": 2,
        "prediction_space": {"kind": "finite", "size": 2},
        "trials": [
            {"split": "01", "seed": 7, "predictions": [0, 1, 1, 0],
             "train_loss": 0.5, "test_loss": 1.0},
            {"split": "11", "seed": 2 ** 64 - 1, "predictions": [1, 1, 0, 0],
             "train_loss": 0.0, "test_loss": 0.25},
        ],
    }

    def _table(self):
        return table([[0, 1], [1, 1]], [[0, 1, 1, 0], [1, 1, 0, 0]], [0.5, 0.0],
                     [1.0, 0.25], seeds=np.array([7, 2 ** 64 - 1], dtype=np.uint64))

    def test_round_trip(self):
        # the dump is plain JSON that reads back to the same trials
        d = self._table().to_json_dict()
        assert json.loads(json.dumps(d)) == self.EXPECTED

    def test_schema_fields(self):
        d = self._table().to_json_dict()
        assert set(d) == {"supersample_id", "n", "prediction_space", "trials"}
        assert d["trials"][0]["split"] == "01"
        assert d["trials"][0]["predictions"] == [0, 1, 1, 0]
        assert type(d["trials"][1]["seed"]) is int
        json.dumps(d)  # JSON-serializable as-is

    def test_real_predictions_round_trip(self):
        real = TrialTable("ss", PredictionSpace("real", dim=1), np.array([[0]]),
                          np.array([1]), np.array([[[0.25], [0.5]]]),
                          np.array([0.25]), np.array([0.5]))
        d = json.loads(json.dumps(real.to_json_dict()))
        assert d["trials"] == [{"split": "0", "seed": 1, "predictions": [[0.25], [0.5]],
                                "train_loss": 0.25, "test_loss": 0.5}]
        assert d["prediction_space"] == {"kind": "real", "dim": 1}
