import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fcmi.infotheory
from fcmi.core import (ENUMERATION_LIMIT, ContractViolation, PredictionSpace, Supersample,
                       TrialTable, exact_rows)
from fcmi.infotheory import (
    all_subsets,
    product_alphabet_size,
    split_cmi,
    subset_mi,
    mi_testslots,
    weight_mi,
)
from fcmi.infotheory import _enumerated, _occupied, _packed_mi, _row_codes
from fcmi.learners import LearnerSpec, fill_table
from oracles import (
    _group_codes,
    conditional_mutual_information,
    entropy,
    gathered_mi_testslots,
    gathered_split_cmi,
    gathered_subset_mi,
    kl_divergence,
    lexsort_plugin_mi,
    mutual_information,
)

LOG2 = math.log(2.0)


def mi_oracle(cells):
    """Brute-force plug-in formula over explicit probability cells."""
    pa, pb = {}, {}
    for (a, b), p in cells.items():
        pa[a] = pa.get(a, 0.0) + p
        pb[b] = pb.get(b, 0.0) + p
    return sum(p * math.log(p / (pa[a] * pb[b]))
               for (a, b), p in cells.items() if p > 0)


class TestEntropy:
    def test_deterministic(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_uniform_binary(self):
        assert entropy([0.5, 0.5]) == pytest.approx(LOG2, abs=1e-12)

    def test_skewed(self):
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert entropy([0.25, 0.75]) == pytest.approx(expected, abs=1e-12)
        assert entropy([0.25, 0.75]) == pytest.approx(0.562335, abs=1e-6)

    def test_invalid_distribution(self):
        with pytest.raises(ContractViolation):
            entropy([0.5, 0.6])
        with pytest.raises(ContractViolation):
            entropy([-0.1, 1.1])


class TestKL:
    def test_identical_is_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(LOG2, abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(ContractViolation):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
            q = q / q.sum()
            assert kl_divergence(p, q) >= -1e-12


class TestMutualInformation:
    def test_product_joint(self):
        assert mutual_information([[25, 25], [25, 25]]) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_dependent(self):
        assert mutual_information([[5, 0], [0, 5]]) == pytest.approx(LOG2, abs=1e-12)

    def test_3113_joint(self):
        cells = {(0, 0): 3 / 8, (0, 1): 1 / 8, (1, 0): 1 / 8, (1, 1): 3 / 8}
        expected = mi_oracle(cells)
        assert mutual_information([[3, 1], [1, 3]]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.130812, abs=1e-6)

    def test_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            joint = rng.integers(0, 20, (3, 4)) + 1
            mi = mutual_information(joint)
            p = joint / joint.sum()
            assert -1e-12 <= mi <= min(entropy(p.sum(1)), entropy(p.sum(0))) + 1e-12

    @given(st.lists(st.lists(st.integers(0, 30), min_size=2, max_size=4),
                    min_size=2, max_size=4).filter(
        lambda rows: len({len(r) for r in rows}) == 1 and sum(map(sum, rows)) > 0))
    @settings(max_examples=200, deadline=None)
    def test_entropy_identity(self, rows):
        joint = np.array(rows, dtype=np.int64)
        p = joint / joint.sum()
        expected = entropy(p.sum(axis=1)) + entropy(p.sum(axis=0)) - entropy(p.ravel())
        assert mutual_information(joint) == pytest.approx(expected, abs=1e-10)


class TestConditionalMutualInformation:
    def test_independent_given_every_cell(self):
        # P(a, b | c) = P(a | c) P(b | c) for both c values
        joint = np.zeros((2, 2, 2))
        joint[:, :, 0] = np.outer([0.3, 0.7], [0.6, 0.4]) * 0.5
        joint[:, :, 1] = np.outer([0.8, 0.2], [0.1, 0.9]) * 0.5
        assert conditional_mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_constant_conditioner_equals_mi(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            flat = rng.dirichlet(np.ones(6)).reshape(2, 3)
            joint = np.zeros((2, 3, 2))
            joint[:, :, 0] = flat
            assert conditional_mutual_information(joint) == pytest.approx(
                mutual_information(flat), abs=1e-12)

    def test_copy_with_independent_conditioner(self):
        # A = B uniform bit, C an independent uniform bit: I(A; B | C) = log 2
        joint = np.zeros((2, 2, 2))
        joint[0, 0, :] = 0.25
        joint[1, 1, :] = 0.25
        assert conditional_mutual_information(joint) == pytest.approx(LOG2, abs=1e-12)

    def test_empty_cell_contributes_zero(self):
        joint = np.zeros((2, 2, 2))
        joint[0, 0, 0] = 0.5
        joint[1, 1, 0] = 0.5
        assert conditional_mutual_information(joint) == pytest.approx(LOG2, abs=1e-12)


def _sparse_mi(weights):
    """Oracle: MI of a joint given as {(a, b): probability} with positive entries.

    Cells are processed in a canonical order so the result is independent of
    sample/insertion order, bit for bit.
    """
    items = sorted(weights.items(), key=lambda kv: repr(kv[0]))
    pa, pb = {}, {}
    for (a, b), w in items:
        pa[a] = pa.get(a, 0.0) + w
        pb[b] = pb.get(b, 0.0) + w
    val = 0.0
    for (a, b), w in items:
        if w > 0:
            val += w * math.log(w / (pa[a] * pb[b]))
    return max(val, 0.0)


def plugin_mi_oracle(pairs):
    """Oracle: dict-counting plug-in MI of (hashable, hashable) samples."""
    n = len(pairs)
    counts = {}
    for key in pairs:
        counts[key] = counts.get(key, 0) + 1
    return _sparse_mi({k: c / n for k, c in counts.items()})


def cmi_oracle(triples):
    """Oracle: plug-in I(A; B | C) grouped by C, each group through _sparse_mi."""
    weight = 1.0 / len(triples)
    groups = {}
    for a, b, c in triples:
        cell = groups.setdefault(c, {})
        cell[(a, b)] = cell.get((a, b), 0.0) + weight
    total = 0.0
    for cell in groups.values():
        w = sum(cell.values())
        total += w * _sparse_mi({k: v / w for k, v in cell.items()})
    return total


def table_of(masks, preds) -> TrialTable:
    """A finite trial table of (T, n) split bits and (T, 2n) predictions."""
    rows = len(masks)
    return TrialTable("ss000", PredictionSpace("finite", 2), np.asarray(masks, dtype=np.uint8),
                      np.arange(rows), preds, np.zeros(rows), np.zeros(rows))


def pair_mi(a, b) -> float:
    """The plug-in I(A; B) of symbols a and split bits b, read through
    ``subset_mi`` from a one-pair table whose pair code is (a, 0)."""
    a = np.asarray(a)
    return float(subset_mi(table_of(np.reshape(b, (-1, 1)),
                                    np.stack([a, np.zeros_like(a)], axis=1)), [(0,)])[0])


def pairs_mi(pairs):
    return pair_mi(*np.array(pairs).T)


class TestPluginEstimator:
    def test_constant_pairs(self):
        assert pairs_mi([(0, 0)] * 100) == 0.0

    def test_deterministic_relation(self):
        pairs = [(0, 0), (1, 1)] * 50
        assert pairs_mi(pairs) == pytest.approx(LOG2, abs=1e-12)

    def test_convergence_to_generating_joint(self):
        exact = mi_oracle({(0, 0): 3 / 8, (0, 1): 1 / 8, (1, 0): 1 / 8, (1, 1): 3 / 8})
        rng = np.random.default_rng(7)
        draws = rng.choice(4, size=10 ** 5, p=[3 / 8, 1 / 8, 1 / 8, 3 / 8])
        assert abs(pair_mi(draws // 2, draws % 2) - exact) <= 0.01

    def test_rounding_below_zero_reads_zero(self):
        # counts (10000, 9999; 10001, 10000): I(A; B) is about 1e-18 nats, and
        # the rounded plug-in sum lands below zero
        a, b = np.repeat([[0, 0, 1, 1], [0, 1, 0, 1]], [10000, 9999, 10001, 10000], axis=1)
        assert pair_mi(a, b) == 0.0

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 3, (500, 2)) % [3, 2]  # the split bit is binary
        shuffled = rng.permutation(pairs)
        assert pairs_mi(pairs) == pairs_mi(shuffled)

    def test_product_alphabet_size(self):
        assert product_alphabet_size(2, 1) == 8
        assert product_alphabet_size(2, 3) == 2 ** 6 * 2 ** 3


# random trial tables: n pairs, k prediction classes, T rows, a data seed
tables = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 40),
                   st.integers(0, 2 ** 32 - 1))


def random_rows(n, k, rows, seed):
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2, (rows, n))
    # predictions lean on the split bits so the MI is not always near zero
    preds = (rng.integers(0, k, (rows, 2 * n)) + np.repeat(masks, 2, axis=1)) % k
    return masks, preds


class TestEstimatorAgainstOracles:
    """The table estimators against the dict-based plug-in, on random tables."""

    @given(tables)
    @settings(max_examples=150, deadline=None)
    def test_per_pair_mi_batched(self, shape):
        n, k, rows, seed = shape
        masks, preds = random_rows(n, k, rows, seed)
        got = subset_mi(table_of(masks, preds), [(i,) for i in range(n)])
        assert got.shape == (n,)
        for i in range(n):
            samples = [((int(p[2 * i]), int(p[2 * i + 1])), int(m[i]))
                       for p, m in zip(preds, masks)]
            expected = plugin_mi_oracle(samples)
            assert got[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(tables)
    @settings(max_examples=150, deadline=None)
    def test_full_tuple_mi(self, shape):
        n, k, rows, seed = shape
        masks, preds = random_rows(n, k, rows, seed)
        got = subset_mi(table_of(masks, preds), [tuple(range(n))])
        samples = [(tuple(p.tolist()), tuple(m.tolist())) for p, m in zip(preds, masks)]
        expected = plugin_mi_oracle(samples)
        assert got[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(tables, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_per_bit_cmi_given_other_bits(self, shape, all_pairs):
        n, k, rows, seed = shape
        masks, preds = random_rows(n, k, rows, seed)
        got = split_cmi(table_of(masks, preds), all_pairs)
        for i in range(n):
            triples = [
                (tuple(p.tolist()) if all_pairs else (int(p[2 * i]), int(p[2 * i + 1])),
                 int(m[i]), tuple(int(b) for j, b in enumerate(m) if j != i))
                for p, m in zip(preds, masks)]
            assert got[i] == pytest.approx(cmi_oracle(triples), rel=1e-12, abs=1e-12)


_INT64 = np.iinfo(np.int64)


class TestRowCodesAgainstLexsortOracle:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 80), st.integers(1, 40),
           st.sampled_from([2, 3, 17, 2 ** 16, 2 ** 31]))
    @example(seed=3, rows=12, columns=38, radix=3)  # 3 distinct rows; a one-column second digit
    @settings(max_examples=100, deadline=None)
    def test_row_codes_are_the_lexsort_order(self, seed, rows, columns, radix):
        """Up to 40 columns, appended as several digits when the radix is
        wide, of rows that may repeat: the codes order the rows as the lexsort
        chain does, and whenever radix^columns exceeds the rows the code is
        the chain's dense rank, so its range is at most the rows."""
        rng = np.random.default_rng(seed)
        symbols = np.unique(np.concatenate([[0, radix - 1], rng.integers(0, radix, 3)]))
        distinct = rng.integers(1, rows + 1)
        x = rng.choice(symbols, (distinct, columns))[rng.integers(0, distinct, rows)]
        expected = np.zeros(rows, dtype=np.int64)
        for j in range(columns):
            expected = _group_codes(expected, x[:, j])
        code, size = _row_codes(lambda j0, j1: x[:, j0:j1], columns, radix, rows)
        assert 0 <= code.min() and code.max() < size
        assert np.array_equal(np.unique(code, return_inverse=True)[1], expected)
        if radix ** columns > rows:
            assert np.array_equal(code, expected) and size == expected.max() + 1 <= rows
        else:
            assert size == radix ** columns


_KNN = [{"kind": "knn", "params": {"k": k}} for k in (1, 3)]
# every learner with a finite prediction space, by the label counts it takes
FINITE_LEARNERS = {
    "memorizer": ({"kind": "memorizer", "params": {}}, (2, 3)),
    "threshold_erm": ({"kind": "threshold_erm", "params": {}}, (2,)),
    "knn1": (_KNN[0], (2, 3)),
    "knn3": (_KNN[1], (2, 3)),
    "logistic_gd": ({"kind": "logistic_gd", "params": {"steps": 5}}, (2,)),
    "sgld_linear": ({"kind": "sgld_linear", "params": {"steps": 5}}, (2,)),
    "ensemble": ({"kind": "ensemble", "params": {"members": [
        {"kind": "threshold_erm", "params": {}}, *_KNN]}}, (2,)),
    "ensemble_knn_memorizer": ({"kind": "ensemble", "params": {"members": [
        {"kind": "memorizer", "params": {}}, *_KNN]}}, (2, 3)),
}
_WIDE_CODES = np.array([_INT64.min, _INT64.min + 1, -1, 0, 1, _INT64.max - 1, _INT64.max])


def _draw_table(data, rng) -> TrialTable:
    """An exact or monte_carlo table of a finite learner, or of random
    nonnegative predictions, spread over more than 2^16 values (which the
    estimates rank) or not."""
    n = data.draw(st.integers(1, 8), label="n")
    learner = data.draw(st.sampled_from(sorted(FINITE_LEARNERS) + ["random"]), label="learner")
    if data.draw(st.booleans(), label="exact"):
        masks, seeds = exact_rows(n, np.arange(data.draw(st.integers(1, 3), label="exact_seeds")))
    else:
        # few pairs and many trials repeat masks
        k2 = data.draw(st.integers(1, 60), label="k2")
        masks, seeds = rng.integers(0, 2, (k2, n)).astype(np.uint8), np.arange(k2)
    rows = len(masks)
    if learner == "random":
        values = (data.draw(st.integers(0, 5), label="lo")
                  + np.arange(data.draw(st.integers(1, 20), label="alphabet")))
        if data.draw(st.booleans(), label="wide"):
            values = values * 2 ** 40
        return TrialTable("ss000", PredictionSpace("finite", 2), masks, seeds,
                          rng.choice(values, (rows, 2 * n)), np.zeros(rows), np.zeros(rows))
    spec, label_counts = FINITE_LEARNERS[learner]
    classes = data.draw(st.sampled_from(label_counts), label="classes")
    xs = rng.random((2 * n, 1))
    return fill_table(Supersample(xs, rng.integers(0, classes, 2 * n)),
                      LearnerSpec.from_json_dict(spec), masks, seeds)


class TestTableCodesAgainstGatheredOracle:
    """The table-code estimates against the gather-and-fold code they
    replaced (``oracles.gathered_*``), bit for bit."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_estimates_equal_gathered_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        table = _draw_table(data, rng)
        n, rows = table.n, len(table.masks)
        codes = data.draw(st.sampled_from(["learner", "wide", "float_bits"]),
                          label="weight_code")
        if codes == "wide" or table.weight_code is None:
            table = dataclasses.replace(table, weight_code=rng.choice(_WIDE_CODES, rows))
        elif codes == "float_bits":
            table = dataclasses.replace(table, weight_code=rng.random(rows).view(np.int64))
        m = data.draw(st.integers(1, n), label="m")
        if data.draw(st.booleans(), label="enumerated"):
            family = all_subsets(n, m)
        else:
            # sampled with repeats, as a sampled subset policy draws them
            family = [tuple(sorted(rng.choice(n, m, replace=False).tolist()))
                      for _ in range(data.draw(st.integers(1, 20), label="count"))]
        for subsets in (family, [(i,) for i in range(n)], [tuple(range(n))]):
            assert np.array_equal(subset_mi(table, subsets), gathered_subset_mi(table, subsets))
            assert np.array_equal(weight_mi(table, subsets),
                                  gathered_subset_mi(table, subsets, use_weights=True))
        for all_pairs in (False, True):
            assert np.array_equal(split_cmi(table, all_pairs),
                                  gathered_split_cmi(table, all_pairs))
        assert np.array_equal(mi_testslots(table), gathered_mi_testslots(table))

    def test_wide_predictions_count_as_their_ranks(self):
        """Predictions spanning more than 2^16 values, up to the int64
        maximum, give the bits of their dense ranks and of the oracle; at
        m = 7 the family's joint code passes int64 and its subsets are
        counted one at a time."""
        rng = np.random.default_rng(13)
        n, rows = 7, 200
        values = np.concatenate([[0, 1], 2 ** 40 + np.arange(17) * 2 ** 20, [_INT64.max]])
        ranks = rng.integers(0, len(values), (rows, 2 * n))
        masks = rng.integers(0, 2, (rows, n)).astype(np.uint8)
        wide, ranked = (TrialTable("ss000", PredictionSpace("finite", 2), masks,
                                   np.arange(rows), preds, np.zeros(rows), np.zeros(rows))
                        for preds in (values[ranks], ranks))
        assert len(values) ** (2 * n) * 2 ** n > _INT64.max
        for m in (1, 2, n):
            family = all_subsets(n, m)
            got = subset_mi(wide, family)
            assert np.array_equal(got, subset_mi(ranked, family))
            assert np.array_equal(got, gathered_subset_mi(wide, family))
        for all_pairs in (False, True):
            got = split_cmi(wide, all_pairs)
            assert np.array_equal(got, split_cmi(ranked, all_pairs))
            assert np.array_equal(got, gathered_split_cmi(wide, all_pairs))
        assert mi_testslots(wide) == mi_testslots(ranked) == gathered_mi_testslots(wide)

    def test_three_class_rows_of_several_digits(self):
        """Three labels over n = 40 pairs: the test-slot row is two digits,
        the full tuple three (counted per subset, its joint code past int64)
        and the all-pair target three; each estimate has the oracle's bits."""
        rng = np.random.default_rng(15)
        n, rows = 40, 300
        ss = Supersample(rng.random((2 * n, 1)), rng.integers(0, 3, 2 * n))
        masks = rng.integers(0, 2, (rows, n)).astype(np.uint8)
        table = fill_table(ss, LearnerSpec("knn", {"k": 1}), masks, np.arange(rows))
        assert table.preds.max() == 2 and 3 ** 39 <= _INT64.max < 3 ** 40
        assert mi_testslots(table) == gathered_mi_testslots(table)
        full = [tuple(range(n))]
        assert np.array_equal(subset_mi(table, full), gathered_subset_mi(table, full))
        assert np.array_equal(split_cmi(table, all_pairs=True),
                              gathered_split_cmi(table, all_pairs=True))

    def test_wide_margins_are_counted_by_rank(self):
        """Margins whose code range exceeds the rows are ranked before they
        are counted, so a few cells of a wide joint take memory by the cells,
        not by the range, and give the oracle's bits."""
        rows, radix = 40, 2 ** 11
        a, b, c = np.random.default_rng(14).choice([0, 7, radix - 1], (3, rows))
        b[:30] = a[:30]  # B leans on A
        cells, counts = _occupied((c * radix + a) * radix + b, radix ** 3)
        tracemalloc.start()
        try:
            got = _packed_mi(cells, counts, (radix, radix, radix), 1, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16  # an unranked (c, a) or (c, b) margin counts 2^22 codes
        assert np.array_equal(got, lexsort_plugin_mi(a, b, c))

    def test_chunks_and_blocks(self):
        """A table of many rows and a family of many subsets spans several
        steps of quantities, each built, counted and summed on its own, which
        move no bit: at the default step, and at steps of one quantity."""
        rng = np.random.default_rng(12)
        masks = rng.integers(0, 2, (3000, 9)).astype(np.uint8)
        table = TrialTable("ss000", PredictionSpace("finite", 3), masks, np.arange(3000),
                           rng.integers(0, 3, (3000, 18)), np.zeros(3000), np.zeros(3000))
        for cells in (fcmi.infotheory._CELLS_PER_CALL, 1, 7):
            with mock.patch.object(fcmi.infotheory, "_CELLS_PER_CALL", cells):
                for m in (1, 2, 3, 9):
                    family = all_subsets(9, m)
                    assert np.array_equal(subset_mi(table, family),
                                          gathered_subset_mi(table, family))
                for all_pairs in (False, True):
                    assert np.array_equal(split_cmi(table, all_pairs),
                                          gathered_split_cmi(table, all_pairs))
                assert np.array_equal(mi_testslots(table), gathered_mi_testslots(table))


def _enumerated_learner(data) -> tuple[LearnerSpec, int]:
    """A finite learner whose split CMI the neighbour count gives, and the
    step between its labels: 1, or 2^20 so the predictions span more than
    2^16 values and are ranked."""
    kind = data.draw(st.sampled_from(["memorizer", "threshold_erm", "knn", "ensemble"]),
                     label="learner")
    knn = lambda: {"kind": "knn", "params": {"k": data.draw(st.integers(1, 5), label="k")}}
    if kind == "knn":
        spec = knn()
    elif kind == "ensemble":
        spec = {"kind": "ensemble", "params": {"members": [
            knn(), {"kind": "memorizer", "params": {}}, knn()]}}
    else:
        spec = {"kind": kind, "params": {}}
    step = 1 if kind == "threshold_erm" else data.draw(st.sampled_from([1, 2 ** 20]),
                                                        label="label step")
    return LearnerSpec.from_json_dict(spec), step


def _assert_oracle_bits(table):
    for all_pairs in (False, True):
        got = split_cmi(table, all_pairs)
        assert np.array_equal(got.view(np.int64),
                              gathered_split_cmi(table, all_pairs).view(np.int64))


class TestNeighbourSplitCmi:
    """A table of every split once in mask-code order counts its neighbouring
    splits for ``split_cmi``; every other table takes the plug-in. Both give
    the gathered plug-in's bits."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_enumerated_tables_equal_gathered_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        n = data.draw(st.integers(1, 10), label="n")
        spec, step = _enumerated_learner(data)
        classes = data.draw(st.integers(2, 4), label="classes") if step > 1 else 2
        ss = Supersample(rng.random((2 * n, 1)), rng.integers(0, classes, 2 * n) * step)
        table = fill_table(ss, spec, *exact_rows(n, [int(rng.integers(2 ** 32))]))
        assert _enumerated(table)
        with mock.patch.object(fcmi.infotheory, "_blocked_mi",
                               side_effect=AssertionError("plug-in path taken")):
            _assert_oracle_bits(table)

    @pytest.mark.parametrize("layout", ["permuted", "two_seeds"])
    @pytest.mark.parametrize("kind", ["knn", "threshold_erm"])
    def test_other_layouts_take_the_plugin(self, layout, kind):
        rng = np.random.default_rng(4)
        n = 6
        ss = Supersample(rng.random((2 * n, 1)), rng.integers(0, 2, 2 * n))
        spec = LearnerSpec(kind, {"k": 3} if kind == "knn" else {})
        if layout == "permuted":
            masks, seeds = exact_rows(n, [0])
            order = rng.permutation(len(masks))
            masks, seeds = masks[order], seeds[order]
        else:
            masks, seeds = exact_rows(n, [0, 1])
        table = fill_table(ss, spec, masks, seeds)
        assert not _enumerated(table)
        with mock.patch.object(fcmi.infotheory, "_neighbour_cmi",
                               side_effect=AssertionError("neighbour path taken")):
            _assert_oracle_bits(table)

    def test_full_split_code_made_once(self):
        """The layout check and the full-tuple, weight and test-slot
        estimates share one split code per table."""
        rng = np.random.default_rng(6)
        ss = Supersample(rng.random((10, 1)), rng.integers(0, 2, 10))
        table = fill_table(ss, LearnerSpec("threshold_erm"), *exact_rows(5, [0]))
        real = fcmi.infotheory._split_code
        with mock.patch.object(fcmi.infotheory, "_split_code", wraps=real) as made:
            split_cmi(table)
            subset_mi(table, [tuple(range(5))])
            weight_mi(table, [tuple(range(5))])
            mi_testslots(table)
        assert made.call_count == 1


def threshold_instance():
    """Fixed separable supersample: pair 0 is two 0-labels, pair 1 two 1-labels."""
    return Supersample([[0.2], [0.4], [0.8], [0.6]], [0, 0, 1, 1])


def random_supersample(rng, n):
    """n pairs of one-feature points in [0, 1) with random binary labels,
    drawn point by point: feature, then label."""
    xs, ys = zip(*[(rng.random(), int(rng.integers(2))) for _ in range(2 * n)])
    return Supersample(np.reshape(xs, (-1, 1)), ys)


def threshold_oracle_tables():
    """Hand simulation of the midpoint-threshold fit over all four splits.

    Returns the four prediction tuples keyed by split bits, computed without
    the library: fit w = (max 0-labeled x + min 1-labeled x) / 2, predict
    1{x > w} on inputs (0.2, 0.4, 0.8, 0.6).
    """
    xs = [0.2, 0.4, 0.8, 0.6]
    data = {(0, 0): ([0.2], [0.8]), (0, 1): ([0.2], [0.6]),
            (1, 0): ([0.4], [0.8]), (1, 1): ([0.4], [0.6])}
    tables = {}
    for bits, (zeros, ones) in data.items():
        w = (max(zeros) + min(ones)) / 2
        tables[bits] = tuple(int(x > w) for x in xs)
    return tables


def exact_table(ss, spec, seeds=(0,)):
    return fill_table(ss, spec, *exact_rows(ss.n, seeds))


class TestExactEnumeration:
    def test_threshold_erm_oracle_values(self):
        tables = threshold_oracle_tables()
        # oracle MI values from explicit 4-split enumeration
        full_cells = {}
        idx1_cells = {}
        for bits, preds in tables.items():
            full_cells[(preds, bits)] = full_cells.get((preds, bits), 0.0) + 0.25
            key = ((preds[2], preds[3]), bits[1])
            idx1_cells[key] = idx1_cells.get(key, 0.0) + 0.25
        expected_full = mi_oracle(full_cells)
        expected_idx1 = mi_oracle(idx1_cells)
        # frozen values from the hand enumeration
        assert expected_full == pytest.approx(0.5623351446, abs=1e-9)
        assert expected_idx1 == pytest.approx(0.2157615543, abs=1e-9)

        table = exact_table(threshold_instance(), LearnerSpec("threshold_erm"))
        assert subset_mi(table, [(0, 1)])[0] == pytest.approx(expected_full, abs=1e-12)
        per_index = subset_mi(table, [(0,), (1,)])
        assert per_index[0] == pytest.approx(0.0, abs=1e-12)
        assert per_index[1] == pytest.approx(expected_idx1, abs=1e-12)

    def test_memorizer_testslot_mi_zero(self):
        rng = np.random.default_rng(5)
        table = exact_table(random_supersample(rng, 5), LearnerSpec("memorizer"))
        assert mi_testslots(table) == 0.0

    def test_constant_learner_zero_everywhere(self):
        # one-class data makes threshold_erm constant: no information anywhere
        ss = Supersample([[0.1], [0.3], [0.5], [0.9]], [0, 0, 0, 0])
        table = exact_table(ss, LearnerSpec("threshold_erm"))
        assert subset_mi(table, [(0,), (1,)]).tolist() == [0.0, 0.0]
        assert split_cmi(table).tolist() == [0.0, 0.0]
        assert subset_mi(table, [(0, 1)])[0] == 0.0

    def test_index_mi_at_most_log2(self):
        table = exact_table(threshold_instance(), LearnerSpec("threshold_erm"))
        assert np.all(subset_mi(table, [(0,), (1,)]) <= LOG2 + 1e-12)
        assert np.all(split_cmi(table) <= LOG2 + 1e-12)

    def test_cmi_with_n1_equals_mi(self):
        ss = Supersample([[0.2], [0.8]], [0, 1])
        table = exact_table(ss, LearnerSpec("memorizer"))
        assert split_cmi(table)[0] == pytest.approx(subset_mi(table, [(0,)])[0], abs=1e-12)

    def test_subset_mi_full_matches_mi_all(self):
        table = exact_table(threshold_instance(), LearnerSpec("threshold_erm"))
        assert subset_mi(table, [(0, 1)])[0] == pytest.approx(
            lexsort_plugin_mi(table.preds[:, None], table.masks[:, None])[0], abs=1e-12)

    def test_size_limit(self):
        # refused before any array is allocated
        with pytest.raises(ContractViolation):
            exact_rows(ENUMERATION_LIMIT + 1, (0,))

    def test_finite_seed_mixture(self):
        # a seed-dependent learner enumerated with two seeds: the split MI is
        # still bounded by the split entropy and reproducible
        rng = np.random.default_rng(9)
        ss = random_supersample(rng, 3)
        spec = LearnerSpec("sgld_linear", {"steps": 20})
        a = subset_mi(exact_table(ss, spec, seeds=(1, 2)), [(0, 1, 2)])[0]
        b = subset_mi(exact_table(ss, spec, seeds=(1, 2)), [(0, 1, 2)])[0]
        assert a == b
        assert 0.0 <= a <= 3 * LOG2 + 1e-12

    def test_weight_mi_needs_a_weight_code(self):
        table = exact_table(threshold_instance(), LearnerSpec("knn", {"k": 1}))
        with pytest.raises(ContractViolation, match="exposes no discrete weight code"):
            weight_mi(table, [(0, 1)])

    def test_empty_seed_policy_rejected(self):
        ss = Supersample([[0.0], [0.1]], [0, 0])
        with pytest.raises(ContractViolation):
            exact_table(ss, LearnerSpec("memorizer"), seeds=())

    def test_all_subsets(self):
        assert all_subsets(3, 2) == [(0, 1), (0, 2), (1, 2)]
        assert len(all_subsets(6, 3)) == 20
        with pytest.raises(ContractViolation):
            all_subsets(3, 0)
