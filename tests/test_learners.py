import itertools
import math
import signal
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmi.core import ConfigError, ContractViolation, Supersample, exact_rows, split_slots
from fcmi.datagen import GeneratorSpec, sample_supersample
import fcmi.learners
from fcmi.learners import (
    LearnerSpec,
    _fit_predict_rows,
    _linear_predict,
    _sigmoid,
    ensemble_combine,
    estimate_stability,
    fill_table,
    label_classes,
    logistic_fit,
    prediction_space,
    sgld_fit,
)
from fcmi.seeding import derive_seeds
from oracles import seed_sequence_seed, threshold_erm_fit, train_predict, where_sigmoid


def mk(x, y=0):
    """A one-feature training point as an (x, label) pair."""
    return float(x), int(y)


def arrays(train):
    """(N, 1) inputs and (N,) labels of a list of (x, label) pairs."""
    xs, ys = zip(*train)
    return np.array(xs, dtype=float).reshape(-1, 1), np.array(ys, dtype=np.int64)


def fit_predict(spec, train, queries, seed=0):
    return train_predict(spec, *arrays(train), np.array(queries, dtype=float), seed)


class TestMemorizer:
    def test_recalls_memorized_label(self):
        out = fit_predict(LearnerSpec("memorizer"), [mk(0.3, 1)], [(0.3,)], 0)
        assert out.predictions.tolist() == [1]

    def test_constant_on_unseen(self):
        out = fit_predict(LearnerSpec("memorizer"), [mk(0.3, 1)], [(0.7,)], 0)
        assert out.predictions.tolist() == [0]

    def test_duplicate_inputs_first_wins(self):
        out = fit_predict(LearnerSpec("memorizer"),
                          [mk(0.3, 1), mk(0.3, 0)], [(0.3,)], 0)
        assert out.predictions.tolist() == [1]


class TestThresholdErm:
    def test_midpoint_of_separating_interval(self):
        assert threshold_erm_fit(*arrays([mk(0.2, 0), mk(0.8, 1)])) == pytest.approx(0.5)

    def test_all_zero_labels(self):
        assert threshold_erm_fit(*arrays([mk(0.2, 0), mk(0.7, 0)])) == 1.0

    def test_all_one_labels(self):
        assert threshold_erm_fit(*arrays([mk(0.2, 1), mk(0.7, 1)])) == 0.0

    def test_query_below_threshold(self):
        out = fit_predict(LearnerSpec("threshold_erm"),
                          [mk(0.2, 0), mk(0.8, 1)], [(0.3,)], 0)
        assert out.predictions.tolist() == [0]

    def test_weight_code_injective_on_threshold(self):
        # equal fitted thresholds share a code; distinct thresholds never do
        a = fit_predict(LearnerSpec("threshold_erm"),
                        [mk(0.2, 0), mk(0.8, 1)], [(0.3,)], 0)
        b = fit_predict(LearnerSpec("threshold_erm"),
                        [mk(0.4, 0), mk(0.6, 1)], [(0.3,)], 0)
        c = fit_predict(LearnerSpec("threshold_erm"),
                        [mk(0.4, 0), mk(0.8, 1)], [(0.3,)], 0)
        assert a.weight_code == b.weight_code  # both fit w = 0.5
        assert a.weight_code != c.weight_code  # c fits w = 0.6

    def test_nonseparable_leftmost_minimum(self):
        # labels reversed: no zero-error cut; error(w) over candidate cuts:
        # w=0.0 -> predicts (1,1): error 1/2; midpoint 0.5 -> (0,1)... both
        # wrong -> error 1; w=1.0 -> (0,0): error 1/2. Leftmost minimum: 0.0.
        assert threshold_erm_fit(*arrays([mk(0.3, 1), mk(0.7, 0)])) == 0.0

    def test_zero_train_error_when_separable(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w_true = rng.uniform(0.1, 0.9)
            xs = rng.random(8)
            train = [mk(x, int(x > w_true)) for x in xs]
            w = threshold_erm_fit(*arrays(train))
            assert all(int(x > w) == int(x > w_true) for x in xs)

    def test_rejects_features_outside_unit_interval(self):
        with pytest.raises(ContractViolation):
            threshold_erm_fit(*arrays([mk(1.2, 0)]))

    def test_pattern_count_is_2n_plus_1(self):
        # distinct prediction patterns over all labelings of 2n distinct points
        points = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85]
        patterns = set()
        for labels in itertools.product((0, 1), repeat=len(points)):
            w = threshold_erm_fit(*arrays([mk(x, y) for x, y in zip(points, labels)]))
            patterns.add(tuple(int(x > w) for x in points))
        assert len(patterns) == len(points) + 1


class TestKnn:
    def test_k1_zero_train_error_on_distinct_points(self):
        train = [mk(0.1, 0), mk(0.4, 1), mk(0.9, 0)]
        out = fit_predict(LearnerSpec("knn", {"k": 1}), train,
                          [(x,) for x, _ in train], 0)
        assert out.predictions.tolist() == [0, 1, 0]

    def test_distance_tie_goes_to_lower_index(self):
        train = [mk(0.4, 1), mk(0.6, 0)]
        out = fit_predict(LearnerSpec("knn", {"k": 1}), train, [(0.5,)], 0)
        assert out.predictions.tolist() == [1]

    def test_vote_tie_goes_to_lower_class(self):
        train = [mk(0.1, 1), mk(0.9, 0)]
        out = fit_predict(LearnerSpec("knn", {"k": 2}), train, [(0.5,)], 0)
        assert out.predictions.tolist() == [0]

    def test_k_larger_than_train_uses_all(self):
        train = [mk(0.1, 1), mk(0.2, 1), mk(0.9, 0)]
        out = fit_predict(LearnerSpec("knn", {"k": 10}), train, [(0.5,)], 0)
        assert out.predictions.tolist() == [1]

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            LearnerSpec("knn", {"k": 0})


class TestLogisticGd:
    def _train(self, rng, n=30):
        labels = rng.integers(0, 2, n)
        xs = rng.normal(0, 1, n) + (2 * labels - 1) * 2.0
        return [mk((x + 6) / 12, y) for x, y in zip(xs, labels)]

    def test_learns_separated_data(self):
        rng = np.random.default_rng(1)
        train = self._train(rng)
        out = fit_predict(LearnerSpec("logistic_gd", {"steps": 200, "lr": 2.0}),
                          train, [(x,) for x, _ in train], 0)
        errors = sum(p != y for p, (_, y) in zip(out.predictions, train))
        assert errors <= 3

    def test_prob_output_in_unit_interval(self):
        rng = np.random.default_rng(2)
        train = self._train(rng)
        out = fit_predict(LearnerSpec("logistic_gd", {"output": "prob"}),
                          train, [(0.5,)], 0)
        (p,) = out.predictions[0]
        assert 0.0 <= p <= 1.0

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ContractViolation):
            fit_predict(LearnerSpec("logistic_gd"), [mk(0.1, 2)], [(0.1,)], 0)

    def test_sgld_rejects_nonbinary_labels(self):
        with pytest.raises(ContractViolation, match="sgld_linear needs binary labels"):
            sgld_fit(np.array([[[0.1], [0.2]]]), np.array([[0, 2]]), [0])


def _sigmoid_oracle(z):
    return 1.0 / (1.0 + math.exp(-z))


def _gd_oracle(train, seed, steps, lr0, lr_decay, lr_decay_every, init_scale=0.01):
    """Noise-free trajectory with the same schedule and init draw as sgld_fit."""
    xs, ys = arrays(train)
    ys = ys.astype(float)
    X = np.hstack([xs, np.ones((len(train), 1))])
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, init_scale, X.shape[1])
    for t in range(steps):
        lr = lr0 * lr_decay ** (t // lr_decay_every)
        p = np.array([_sigmoid_oracle(v) for v in X @ w])
        w = w - 0.5 * lr * (X.T @ (p - ys))
    return w


class TestSgld:
    def test_high_temperature_approaches_gd(self):
        rng = np.random.default_rng(3)
        train = [mk(x, int(x > 0.5)) for x in rng.random(20)]
        kwargs = dict(steps=150, lr0=0.05, lr_decay=0.9, lr_decay_every=50)
        w_gd = _gd_oracle(train, seed=9, **kwargs)
        dists = []
        for temp in (1e2, 1e6, 1e10):
            xs, ys = arrays(train)
            w = sgld_fit(xs[None], ys[None], [9], temp_min=temp, temp_max=temp,
                         **kwargs)[0]
            dists.append(float(np.linalg.norm(w - w_gd)))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 1e-4

    def test_schedule_clamps_inverse_temperature(self):
        # just exercises the default schedule end to end
        rng = np.random.default_rng(4)
        train = [mk(x, int(x > 0.5)) for x in rng.random(10)]
        out = fit_predict(LearnerSpec("sgld_linear", {"steps": 50}), train,
                          [(0.2,), (0.9,)], 5)
        assert all(p in (0, 1) for p in out.predictions)

    def test_schedule_past_the_float_range(self):
        """At temp_scale 1e-300, t / temp_scale passes the exponent math.exp
        takes from t = 1 on; both schedules read temp_min at t = 0 and
        temp_max after, so the weights are those of temp_scale 0.1."""
        rng = np.random.default_rng(4)
        xs, ys = arrays([mk(x, int(x > 0.5)) for x in rng.random(10)])
        tiny = sgld_fit(xs[None], ys[None], [5], steps=50, temp_scale=1e-300)
        assert np.array_equal(tiny, sgld_fit(xs[None], ys[None], [5], steps=50,
                                             temp_scale=0.1))


# The per-fit, per-query linear learners the batched ones replaced, kept
# verbatim (bar the names) as oracles: batching must not move a single bit.


def _scalar_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _scalar_logistic_fit(xs: np.ndarray, ys: np.ndarray, seed: int, steps: int = 100,
                         lr: float = 0.5, init_scale: float = 0.01) -> np.ndarray:
    """Full-batch gradient descent on mean logistic loss; no early stopping."""
    if np.any((ys != 0) & (ys != 1)):
        raise ContractViolation("logistic_gd needs binary labels")
    X = np.hstack([xs, np.ones((xs.shape[0], 1))])
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, init_scale, X.shape[1])
    for _ in range(steps):
        p = _scalar_sigmoid(X @ w)
        w = w - lr * (X.T @ (p - ys)) / X.shape[0]
    return w


def _scalar_sgld_fit(xs: np.ndarray, ys: np.ndarray, seed: int, steps: int = 200,
                     lr0: float = 0.05, lr_decay: float = 0.9, lr_decay_every: int = 100,
                     temp_min: float = 100.0, temp_max: float = 4000.0,
                     temp_scale: float = 100.0, init_scale: float = 0.01) -> np.ndarray:
    """Vanilla SGLD on the summed logistic loss of a linear model.

    Per-step noise variance is lr_t / beta_t with the inverse temperature
    beta_t = min(temp_max, max(temp_min, 10 * exp(t / temp_scale))). The
    standard-normal stream is drawn unconditionally so that runs at different
    temperatures share it.
    """
    if np.any((ys != 0) & (ys != 1)):
        raise ContractViolation("sgld_linear needs binary labels")
    X = np.hstack([xs, np.ones((xs.shape[0], 1))])
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, init_scale, X.shape[1])
    for t in range(steps):
        lr = lr0 * lr_decay ** (t // lr_decay_every)
        beta = min(temp_max, max(temp_min, 10.0 * math.exp(t / temp_scale)))
        grad = X.T @ (_scalar_sigmoid(X @ w) - ys)
        eps = rng.standard_normal(X.shape[1])
        w = w - 0.5 * lr * grad + math.sqrt(lr / beta) * eps
    return w


def _scalar_linear_predict(w: np.ndarray, query_xs: np.ndarray, output: str) -> np.ndarray:
    # one dot product and sigmoid per query: a single matmul over all queries
    # changes the last ulp of some probabilities
    probs = []
    for q in query_xs:
        z = float(np.dot(np.append(q, 1.0), w))
        probs.append(float(_scalar_sigmoid(np.array([z]))[0]))
    probs = np.array(probs)
    return probs[:, None] if output == "prob" else (probs > 0.5).astype(np.int64)


_LINEAR_FITS = {"logistic_gd": (logistic_fit, _scalar_logistic_fit),
                "sgld_linear": (sgld_fit, _scalar_sgld_fit)}


def _check_batch_matches_oracles(kind, output, steps, xs, ys, train_idx, queries,
                                 seeds, cap):
    spec = LearnerSpec(kind, {"steps": steps, "output": output})
    batch_fit, scalar_fit = _LINEAR_FITS[kind]
    with warnings.catch_warnings(), mock.patch.object(fcmi.learners, "_BATCH_CELLS", cap):
        warnings.simplefilter("error")
        weights = batch_fit(xs[train_idx], ys[train_idx], seeds, steps=steps)
        preds, codes = _fit_predict_rows(spec, xs, ys, train_idx, queries, seeds)
    expected = np.stack([scalar_fit(xs[idx], ys[idx], int(s), steps=steps)
                         for idx, s in zip(train_idx, seeds)])
    assert np.array_equal(weights, expected)
    assert np.array_equal(preds, np.stack([_scalar_linear_predict(w, queries, output)
                                           for w in expected]))
    assert codes is None


class TestBatchedLinear:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_batched_fit_and_predict_match_scalar_oracles(self, data):
        kind = data.draw(st.sampled_from(sorted(_LINEAR_FITS)))
        output = data.draw(st.sampled_from(["label", "prob"]))
        n_sets = data.draw(st.integers(1, 6))
        size = data.draw(st.integers(1, 40))
        dim = data.draw(st.integers(1, 4))
        steps = data.draw(st.integers(1, 120))
        scale = data.draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
        # the module cap, or one that splits the sets over several batches
        # and SGLD's noise stream over several blocks of steps
        cap = data.draw(st.sampled_from([fcmi.learners._BATCH_CELLS, 1,
                                         (dim + 1) * size, (dim + 1) * (2 * size + 1),
                                         (dim + 1) * n_sets * 3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        pool = size + 3
        xs = rng.normal(0.0, scale, (pool, dim))
        ys = rng.integers(0, 2, pool)
        train_idx = rng.integers(0, pool, (n_sets, size))
        queries = rng.normal(0.0, scale, (int(rng.integers(1, 30)), dim))
        seeds = rng.integers(0, 2 ** 63, n_sets, dtype=np.uint64)
        _check_batch_matches_oracles(kind, output, steps, xs, ys, train_idx, queries,
                                     seeds, cap)

    @pytest.mark.parametrize("kind", sorted(_LINEAR_FITS))
    def test_batch_crossing_module_cap(self, kind):
        rng = np.random.default_rng(12)
        size = 200
        spec = LearnerSpec(kind, {"steps": 3, "output": "prob"})
        n_sets = fcmi.learners._chunk_rows(size * 3) + 2  # size·(dim + 1) doubles a set
        xs = rng.normal(0.0, 1.0, (2 * size, 2))
        ys = rng.integers(0, 2, 2 * size)
        train_idx = np.stack([rng.permutation(2 * size)[:size] for _ in range(n_sets)])
        seeds = [seed_sequence_seed(12, t) for t in range(n_sets)]
        _check_batch_matches_oracles(kind, "prob", 3, xs, ys, train_idx, xs[:7], seeds,
                                     fcmi.learners._BATCH_CELLS)

    @pytest.mark.parametrize("kind, size, dim, steps, sets", [
        ("sgld_linear", 5, 10, 2000, 1),      # long noise stream: 22,000 doubles a set
        ("sgld_linear", 1, 2, 200, 54),       # tiny sets: the noise stream counts
        ("logistic_gd", 1000, 1000, 100, 1),  # wide inputs: one set at a time
        ("logistic_gd", 1000, 2, 100, 10),    # 3,000 input doubles a set
        ("logistic_gd", 1, 2, 100, 10922),
    ])
    def test_batch_size_counts_doubles(self, kind, size, dim, steps, sets):
        """A batch holds as many sets as keep the stacked inputs, the SGLD noise
        and the predictions within _BATCH_CELLS doubles, and at least one."""
        assert fcmi.learners._BATCH_CELLS == 2 ** 15
        spec = LearnerSpec(kind, {"steps": steps})
        with mock.patch.object(fcmi.learners, "_in_chunks") as chunks:
            _fit_predict_rows(spec, np.zeros((size, dim)), np.zeros(size),
                              np.arange(size)[None], np.broadcast_to(0.0, (2 * size, dim)), [0])
        assert chunks.call_args.args[1:] == (1, sets)

    def test_sgld_noise_blocks_stay_within_cap(self, monkeypatch):
        """One wide set with a long run draws its noise a block of steps at a
        time, and the blocks give the draws of one row per step."""
        monkeypatch.setattr(fcmi.learners, "_BATCH_CELLS", 64)
        shapes = []
        real, make = np.random.Generator.standard_normal, np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = make(seed)

            def normal(self, *args):
                return self.rng.normal(*args)

            def standard_normal(self, shape):
                shapes.append(shape)
                return real(self.rng, shape)

        rng = np.random.default_rng(14)
        xs, ys = rng.normal(0.0, 1.0, (6, 7)), rng.integers(0, 2, 6)
        with mock.patch.object(fcmi.learners.np.random, "default_rng", Recording):
            w = sgld_fit(xs[None], ys[None], [5], steps=30)[0]
        assert all(rows * 8 <= 64 for rows, _ in shapes)
        assert sum(rows for rows, _ in shapes) == 30
        assert np.array_equal(w, _scalar_sgld_fit(xs, ys, 5, steps=30))

    def test_saturated_scores_without_warnings(self):
        w = np.array([1.0, 0.0])
        queries = np.array([[800.0], [-800.0], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = _linear_predict(w, queries, "prob")
            sig = _sigmoid(np.array([800.0, -800.0]))
        assert probs[:, 0].tolist() == [1.0, 0.0, 0.5]
        assert np.array_equal(probs, _scalar_linear_predict(w, queries, "prob"))
        assert sig.tolist() == [1.0, 0.0]

    def test_sigmoid_bits_match_two_division_form(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 709.8, -709.8,
                 745.2, -745.2, 36.8, -36.8]
        rng = np.random.default_rng(17)
        for scale in (1e-300, 1e-10, 1e-3, 1.0, 30.0, 1e3):
            for _ in range(4):
                z = rng.normal(0.0, scale, (10, 1000))
                z.flat[rng.choice(z.size, len(edges), replace=False)] = edges
                with np.errstate(invalid="ignore"):
                    got, want = _sigmoid(z), where_sigmoid(z)
                assert got.dtype == want.dtype
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), scale

    def test_train_predict_is_a_batch_of_one(self):
        rng = np.random.default_rng(13)
        xs, ys = rng.normal(0.0, 1.0, (9, 2)), rng.integers(0, 2, 9)
        for kind, (_, scalar_fit) in _LINEAR_FITS.items():
            out = train_predict(LearnerSpec(kind, {"steps": 25, "output": "prob"}),
                                xs, ys, xs, 77)
            w = scalar_fit(xs, ys, 77, steps=25)
            assert np.array_equal(out.predictions, _scalar_linear_predict(w, xs, "prob"))

    @pytest.mark.parametrize("kind", sorted(_LINEAR_FITS))
    def test_one_generator_per_distinct_seed(self, kind, monkeypatch):
        """Sets that share a seed share one generator, and each set's weights
        stay those of fitting it alone; the labels reach the gradient as floats."""
        made, grads = [], []
        real_rng, real_grad = np.random.default_rng, fcmi.learners._logistic_grad

        def rng(seed):
            made.append(seed)
            return real_rng(seed)

        def grad(X, w, ys):
            grads.append(ys.dtype)
            return real_grad(X, w, ys)

        gen = np.random.default_rng(15)
        xs, ys = gen.normal(0.0, 1.0, (10, 2)), gen.integers(0, 2, 10)
        train_idx = np.stack([gen.permutation(10)[:6] for _ in range(6)])
        monkeypatch.setattr(fcmi.learners.np.random, "default_rng", rng)
        monkeypatch.setattr(fcmi.learners, "_logistic_grad", grad)
        seeds = [5, 2 ** 63 + 9, 5, 5, 2 ** 63 + 9, 1]
        batch_fit, scalar_fit = _LINEAR_FITS[kind]
        weights = batch_fit(xs[train_idx], ys[train_idx], seeds, steps=30)
        assert sorted(made) == [1, 5, 2 ** 63 + 9]
        assert set(grads) == {np.dtype(float)}
        monkeypatch.setattr(fcmi.learners.np.random, "default_rng", real_rng)
        expected = np.stack([scalar_fit(xs[idx], ys[idx], s, steps=30)
                             for idx, s in zip(train_idx, seeds)])
        assert np.array_equal(weights, expected)


# The per-fit label learners the row functions replaced, kept verbatim (bar
# the names) as oracles: fitting a chunk of rows must not move a single bit.


def _scalar_memorize(train_xs: np.ndarray, train_ys: np.ndarray,
                     query_xs: np.ndarray) -> np.ndarray:
    table: dict[tuple, int] = {}
    for x, y in zip(map(tuple, train_xs.tolist()), train_ys.tolist()):
        # first occurrence wins for duplicate inputs
        table.setdefault(x, y)
    return np.array([table.get(q, 0) for q in map(tuple, query_xs.tolist())],
                    dtype=np.int64)


def _scalar_threshold_erm_fit(xs: np.ndarray, ys: np.ndarray) -> float:
    """Empirical-risk-minimizing threshold for 1-D features in [0, 1].

    Separable samples get the midpoint of the zero-error interval; one-class
    samples snap to the domain edge (1.0 for all-zeros, 0.0 for all-ones).
    Otherwise the leftmost minimum-error cut wins.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys)
    x1 = xs[:, 0]
    if xs.shape[1] != 1 or np.any(x1 < 0) or np.any(x1 > 1):
        raise ContractViolation("threshold_erm needs 1-D features in [0, 1]")
    zeros = x1[ys == 0]
    ones = x1[ys == 1]
    if ones.size == 0:
        return 1.0
    if zeros.size == 0:
        return 0.0
    m0, m1 = float(zeros.max()), float(ones.min())
    if m0 < m1:
        return (m0 + m1) / 2.0
    values = np.unique(x1)
    candidates = np.concatenate(([0.0], (values[:-1] + values[1:]) / 2.0, [1.0]))
    errors = np.mean((x1 > candidates[:, None]) != ys, axis=1)
    return float(candidates[np.argmin(errors)])  # argmin keeps the leftmost cut


def _scalar_knn(train_xs: np.ndarray, train_ys: np.ndarray, query_xs: np.ndarray,
                k: int) -> np.ndarray:
    k_eff = min(k, len(train_ys))
    num_classes = int(train_ys.max()) + 1
    d2 = np.sum((train_xs[None, :, :] - query_xs[:, None, :]) ** 2, axis=2)
    order = np.argsort(d2, axis=1, kind="stable")  # distance ties fall to lower index
    nearest = train_ys[order[:, :k_eff]]
    votes = (nearest[:, :, None] == np.arange(num_classes)).sum(axis=1)
    return votes.argmax(axis=1)  # vote ties fall to lower class


def _scalar_fit_predict(spec, train_xs, train_ys, query_xs, seed):
    """One fit of a label learner or an ensemble of them: the scalar bodies
    and the per-kind chain they ran under. Returns the predictions and the
    weight code (or None)."""
    p = spec.params
    if spec.kind == "memorizer":
        return _scalar_memorize(train_xs, train_ys, query_xs), None
    if spec.kind == "threshold_erm":
        w = _scalar_threshold_erm_fit(train_xs, train_ys)
        code = struct.unpack("<q", struct.pack("<d", w))[0]
        return (query_xs[:, 0] > w).astype(np.int64), code
    if spec.kind == "knn":
        return _scalar_knn(train_xs, train_ys, query_xs, int(p.get("k", 1))), None
    members = [LearnerSpec.from_json_dict(m) for m in p["members"]]
    per_member = np.stack([
        _scalar_fit_predict(m, train_xs, train_ys, query_xs, seed_sequence_seed(seed, j))[0]
        for j, m in enumerate(members)
    ])
    return np.array([np.bincount(votes).argmax() for votes in per_member.T],
                    dtype=np.int64), None


_LABEL_KINDS = ["memorizer", "threshold_erm", "knn", "ensemble"]


def _label_spec(data, kind):
    if kind == "knn":
        return {"kind": "knn", "params": {"k": data.draw(st.integers(1, 9), label="k")}}
    if kind == "ensemble":
        count = data.draw(st.integers(1, 4), label="members")
        return {"kind": "ensemble", "params": {"members": [
            _label_spec(data, data.draw(st.sampled_from(_LABEL_KINDS[:3])))
            for _ in range(count)]}}
    return {"kind": kind, "params": {}}


def _label_dtype(spec, ys) -> np.dtype:
    """The narrowest unsigned dtype of a learner's label alphabet: {0, 1} for
    the binary learners, every label up to the largest for the others, and
    int64 past 2^32; an ensemble's is the widest of its members'."""
    if spec.kind == "ensemble":
        return np.result_type(*(_label_dtype(m, ys) for m in fcmi.learners._wrapped(spec)))
    top = 1 if fcmi.learners.needs_binary_labels(spec) else int(np.max(ys))
    return np.dtype(next(t for t in (np.uint8, np.uint16, np.uint32, np.int64)
                         if top <= np.iinfo(t).max))


def _check_rows_match_oracle(spec, xs, ys, train_idx, queries, seeds, cap):
    with mock.patch.object(fcmi.learners, "_BATCH_CELLS", cap):
        preds, codes = _fit_predict_rows(spec, xs, ys, train_idx, queries, seeds)
    for t, (idx, seed) in enumerate(zip(train_idx, seeds)):
        expected, code = _scalar_fit_predict(spec, xs[idx], ys[idx], queries, int(seed))
        assert np.array_equal(preds[t], expected), (t, idx)
        assert (codes is None) == (code is None)
        if code is not None:
            assert codes[t] == code
    assert preds.dtype == _label_dtype(spec, ys)


class TestRowsAgainstScalarOracles:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_label_rows_split_by_split(self, data):
        """Random supersamples with n <= 8 on a coarse grid (duplicate inputs and
        distance ties), one or several classes, exact-mode splits or training
        sets in any order, and a chunk cap that splits the rows."""
        spec = LearnerSpec.from_json_dict(
            _label_spec(data, data.draw(st.sampled_from(_LABEL_KINDS))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n = data.draw(st.integers(1, 8))
        # threshold_erm needs one feature in [0, 1]
        dim = 1 if fcmi.learners.uses_kind(spec, ("threshold_erm",)) else \
            data.draw(st.integers(1, 3))
        grid = data.draw(st.sampled_from([2, 4, 8, 1000]))
        xs = rng.integers(0, grid + 1, (2 * n, dim)) / grid
        classes = data.draw(st.integers(1, 3))
        ys = rng.integers(0, classes, 2 * n)
        if data.draw(st.booleans(), label="exact splits"):
            masks, seeds = exact_rows(n, [int(s) for s in rng.integers(0, 2 ** 32, 2)])
            # the index fill_table passes: built a chunk of rows at a time
            train_idx = fcmi.learners._TrainingSlots(masks)
        else:
            rows, size = int(rng.integers(1, 12)), int(rng.integers(1, 2 * n + 1))
            train_idx = rng.integers(0, 2 * n, (rows, size))
            seeds = rng.integers(0, 2 ** 63, rows, dtype=np.uint64)
        queries = np.concatenate([xs, rng.integers(0, grid + 1, (3, dim)) / grid])
        cap = data.draw(st.sampled_from([fcmi.learners._BATCH_CELLS, 1, 7, 64, 500]))
        _check_rows_match_oracle(spec, xs, ys, train_idx, queries, seeds, cap)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_knn_nan_distances_tie_by_position(self, k):
        # NaN distances sort last in the scalar learner's stable sort, in
        # training order; the batched ranks keep them tied
        xs = np.array([[0.1, np.nan], [0.2, 0.0], [0.3, np.nan], [0.9, 0.5], [0.4, 0.1]])
        ys = np.array([0, 1, 1, 0, 2])
        train_idx = np.array([[2, 0, 1, 3], [0, 2, 4, 3], [3, 4, 2, 0]])
        queries = np.concatenate([xs, [[0.25, np.nan]]])
        _check_rows_match_oracle(LearnerSpec("knn", {"k": k}), xs, ys, train_idx, queries,
                                 [0, 0, 0], fcmi.learners._BATCH_CELLS)

    @pytest.mark.parametrize("cap", [fcmi.learners._BATCH_CELLS, 1, 7, 64])
    @pytest.mark.parametrize("k", [1, 2, 4, 5, 6, 9])
    @pytest.mark.parametrize("layout", ["stability", "any_order"])
    def test_knn_rows_share_one_order(self, layout, k, cap):
        """Labels with gaps, duplicated inputs, a NaN distance, even k (vote
        ties) and k at or past the training-set size of 5. Point 6 is the NaN
        point: with k >= 5 a row holding it at the last position needs the
        last entry of every query's order."""
        n = 5
        xs = np.array([[0.1, 0.2], [0.4, 0.0], [0.1, 0.2], [0.7, 0.3],
                       [0.4, 0.0], [0.2, 0.9], [0.5, np.nan], [0.3, 0.3]])
        ys = np.array([3, 0, 7, 7, 3, 0, 3, 7])
        if layout == "stability":
            # estimate_stability's rows: the base set, then point n swapped in
            # at position i, so position order is not slot order
            train_idx = np.tile(np.arange(n), (n + 1, 1))
            np.fill_diagonal(train_idx[1:], n)
            train_idx = np.concatenate([train_idx, [[0, 1, 2, 3, 6]]])
        else:
            rng = np.random.default_rng(k)
            train_idx = np.concatenate([
                np.stack([rng.permutation(len(xs))[:n] for _ in range(7)]),
                rng.integers(0, len(xs), (3, n)), [[0, 1, 2, 3, 6]]])
        queries = np.concatenate([xs, [[0.25, 0.1], [0.5, np.nan]]])
        # exact equality row by row, in the labels' narrowest dtype
        _check_rows_match_oracle(LearnerSpec("knn", {"k": k}), xs, ys, train_idx, queries,
                                 [0] * len(train_idx), cap)

    def test_separable_midpoint_rounding_to_upper_point(self):
        # adjacent doubles: their midpoint rounds to one of them, so the cut
        # is compared point by point, not by sorted position
        lo = 0.3
        hi = np.nextafter(lo, 1.0)
        xs = np.array([[lo], [hi], [lo], [hi]])
        ys = np.array([1, 0, 0, 1])
        train_idx = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [0, 1, 1, 3]])
        _check_rows_match_oracle(LearnerSpec("threshold_erm"), xs, ys, train_idx, xs,
                                 [0, 0, 0], fcmi.learners._BATCH_CELLS)


class TestThresholdPrefixCounts:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_weights_equal_scalar_oracle(self, data):
        """Rows of points drawn from a few values and their adjacent doubles
        (midpoints that round onto a point), 0.0 and 1.0, with labels 0, 1
        and 2: each row's threshold has the bits of the scalar fit's."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        rows, size = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 14))
        base = rng.choice([0.0, 0.1, 0.3, 0.5, 1.0, 5e-324], 3)
        values = np.unique(np.concatenate(
            [base, np.nextafter(base, 1.0), np.nextafter(base, 0.0), [0.0, 1.0]]))
        x = rng.choice(values, (rows, size))
        y = rng.integers(0, data.draw(st.sampled_from([2, 3])), (rows, size))
        got = fcmi.learners._threshold_weights(x, y)
        want = [_scalar_threshold_erm_fit(x[r, :, None], y[r]) for r in range(rows)]
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


class TestFillTable:
    @pytest.mark.parametrize("width", [0, 4])
    @pytest.mark.parametrize("kind", ["logistic_gd", "knn"])
    def test_rejects_masks_of_another_width(self, kind, width):
        ss = sample_supersample(_GAUSS, 3, 0)
        with pytest.raises(ContractViolation):
            fill_table(ss, LearnerSpec(kind), np.zeros((2, width), dtype=np.uint8), [1, 2])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_zero_one_halves_match_float_means(self, data):
        """The counted half-losses have the bits of the mean over a float 0/1
        loss array, the form they replaced, for n <= 20."""
        n = data.draw(st.integers(1, 20))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        ss = Supersample(rng.integers(0, 4, (2 * n, 1)) / 4, rng.integers(0, 3, 2 * n))
        masks = rng.integers(0, 2, (int(rng.integers(1, 40)), n))
        table = fill_table(ss, LearnerSpec("knn", {"k": data.draw(st.integers(1, 3))}),
                           masks, np.arange(len(masks)))
        pair_loss = (table.preds != ss.ys).astype(float).reshape(len(masks), n, 2)
        in_train = masks.astype(bool)
        train = np.where(in_train, pair_loss[..., 1], pair_loss[..., 0]).mean(axis=1)
        test = np.where(in_train, pair_loss[..., 0], pair_loss[..., 1]).mean(axis=1)
        assert table.train_loss.tobytes() == train.tobytes()
        assert table.test_loss.tobytes() == test.tobytes()

    def test_training_index_built_a_chunk_at_a_time(self, monkeypatch):
        """fill_table never forms the whole (T, n) training-slot index: each
        slot index it builds covers one chunk of rows."""
        built = []
        real = fcmi.learners.split_slots

        def recording(masks):
            built.append(np.shape(masks))
            return real(masks)

        monkeypatch.setattr(fcmi.learners, "split_slots", recording)
        monkeypatch.setattr(fcmi.learners, "_BATCH_CELLS", 256)
        ss = sample_supersample(_GAUSS, 8, 3)
        for spec in (LearnerSpec("knn", {"k": 3}), LearnerSpec("memorizer")):
            built.clear()
            fill_table(ss, spec, *exact_rows(8, [0]))
            assert built and max(shape[0] for shape in built) < 2 ** 8
            assert sum(shape[0] for shape in built) == 2 ** 8

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_held_entries_from_masks_match_the_index(self, data):
        n = data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        masks = rng.integers(0, 2, (int(rng.integers(1, 6)), n)).astype(np.uint8)
        got = fcmi.learners._held(fcmi.learners._TrainingSlots(masks), 2 * n + 1)
        want = fcmi.learners._held(split_slots(masks)[0], 2 * n + 1)
        assert np.array_equal(got, want)


# the narrowest dtype of a label alphabet whose largest label is the key
_NARROW = {1: np.uint8, 255: np.uint8, 256: np.uint16, 2 ** 16 - 1: np.uint16,
           2 ** 16: np.uint32, 2 ** 32 - 1: np.uint32, 2 ** 32: np.int64, 2 ** 40: np.int64}


class TestNarrowPredictions:
    """Every label row function emits the narrowest unsigned dtype of the
    label alphabet, equal in value to the int64 oracle."""

    @staticmethod
    def _data(top):
        rng = np.random.default_rng(top % 1000)
        xs = rng.integers(0, 9, (12, 1)) / 8
        ys = np.array([0, top, 1, top, 0, 0, top, 1, 1, top, 0, 1]) % (top + 1)
        train_idx = np.stack([rng.permutation(12)[:7] for _ in range(5)])
        return xs, ys.astype(np.int64), train_idx, np.concatenate([xs, [[0.3], [0.95]]])

    @pytest.mark.parametrize("top", sorted(_NARROW))
    @pytest.mark.parametrize("spec", [
        LearnerSpec("memorizer"), LearnerSpec("knn", {"k": 3}),
        LearnerSpec("ensemble", {"members": [{"kind": "knn", "params": {"k": 1}},
                                             {"kind": "memorizer"}]})],
        ids=lambda s: s.kind)
    def test_label_alphabet_learners(self, spec, top):
        xs, ys, train_idx, queries = self._data(top)
        preds, _ = _fit_predict_rows(spec, xs, ys, train_idx, queries, [4] * 5)
        assert preds.dtype == _NARROW[top] == _label_dtype(spec, ys)
        # the scalar oracle counts every class up to the largest label, so it
        # fits the labels' ranks (order and the default 0 kept) in int64
        labels, rank = np.unique(ys, return_inverse=True)
        for row, idx in zip(preds, train_idx):
            expected, _ = _scalar_fit_predict(spec, xs[idx], rank[idx], queries, 4)
            assert np.array_equal(row, labels[expected])

    @pytest.mark.parametrize("kind", ["threshold_erm", "logistic_gd", "sgld_linear"])
    def test_binary_learners(self, kind):
        xs, ys, train_idx, queries = self._data(1)
        spec = LearnerSpec(kind, {} if kind == "threshold_erm" else {"steps": 20})
        preds, _ = _fit_predict_rows(spec, xs, ys, train_idx, queries, [4] * 5)
        assert preds.dtype == np.uint8
        for row, idx in zip(preds, train_idx):
            if kind == "threshold_erm":
                expected, _ = _scalar_fit_predict(spec, xs[idx], ys[idx], queries, 4)
            else:
                w = _LINEAR_FITS[kind][1](xs[idx], ys[idx], 4, steps=20)
                expected = _scalar_linear_predict(w, queries, "label")
            assert np.array_equal(row, expected)

    def test_fill_table_keeps_wide_labels(self):
        ss = Supersample(np.arange(8)[:, None] / 8, [0, 2 ** 40, 5, 2 ** 40, 0, 5, 2 ** 40, 0])
        table = fill_table(ss, LearnerSpec("knn", {"k": 1}), *exact_rows(4, [0]))
        assert table.preds.dtype == np.int64 and table.preds.max() == 2 ** 40


class TestEnsemble:
    def test_majority(self):
        assert ensemble_combine([1, 1, 0]) == 1

    def test_tie_breaks_to_smaller_class(self):
        assert ensemble_combine([0, 1]) == 0

    def test_unanimous(self):
        assert ensemble_combine([2, 2, 2]) == 2

    def test_needs_a_member(self):
        with pytest.raises(ContractViolation, match="at least one member"):
            ensemble_combine([])

    def test_cost_does_not_grow_with_label_value(self):
        # one count per distinct label: counting every class index up to
        # 2^40 would not finish, so a second is ample
        def too_slow(signum, frame):
            raise TimeoutError("the vote did not finish within 1 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            got = ensemble_combine([[0, 2 ** 40, 5], [2 ** 40, 2 ** 40, 2 ** 40], [0, 0, 9]])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert got.tolist() == [0, 2 ** 40, 5] and got.dtype == np.int64

    def test_one_dimensional_vote_is_an_int64_scalar(self):
        got = ensemble_combine([7, 3, 7, 3])
        assert type(got) is np.int64 and got == 3

    def test_train_predict_combines_members(self):
        members = [{"kind": "knn", "params": {"k": k}} for k in (1, 3, 5)]
        spec = LearnerSpec("ensemble", {"members": members})
        rng = np.random.default_rng(6)
        train = [mk(x, int(x > 0.5)) for x in rng.random(9)]
        out = fit_predict(spec, train, [(0.05,), (0.95,)], 0)
        assert out.predictions.tolist() == [0, 1]


class TestReproducibility:
    SPECS = [
        LearnerSpec("memorizer"),
        LearnerSpec("threshold_erm"),
        LearnerSpec("knn", {"k": 3}),
        LearnerSpec("logistic_gd", {"steps": 30}),
        LearnerSpec("logistic_gd", {"steps": 30, "output": "prob"}),
        LearnerSpec("sgld_linear", {"steps": 30}),
        LearnerSpec("ensemble", {"members": [
            {"kind": "knn", "params": {"k": 1}},
            {"kind": "knn", "params": {"k": 3}}]}),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + str(
        s.params.get("output", "")))
    def test_identical_seed_identical_output(self, spec):
        rng = np.random.default_rng(8)
        train = [mk(x, int(x > 0.5)) for x in rng.random(12)]
        queries = [(0.15,), (0.5,), (0.85,)]
        a = fit_predict(spec, train, queries, 424242)
        b = fit_predict(spec, train, queries, 424242)
        assert np.array_equal(a.predictions, b.predictions)
        assert a.weight_code == b.weight_code

    def test_derive_seed_is_stable(self):
        assert derive_seeds(1, 2, 3) == derive_seeds(1, 2, 3)
        assert derive_seeds(1, 2, 3) != derive_seeds(1, 3, 2)

    def test_integer_tuning_values_fit_like_floats(self):
        """Tuning values reach the fit function as given; an integer gives
        the bits of the equal float."""
        rng = np.random.default_rng(9)
        train = [mk(x, int(x > 0.5)) for x in rng.random(12)]
        for kind, params in (("logistic_gd", {"lr": 1, "init_scale": 0}),
                             ("sgld_linear", {"lr0": 1, "lr_decay": 1, "temp_max": 4000})):
            as_float = {k: float(v) for k, v in params.items()}
            a = fit_predict(LearnerSpec(kind, {"steps": 20, "output": "prob", **params}),
                            train, [(0.2,), (0.6,)], 5)
            b = fit_predict(LearnerSpec(kind, {"steps": 20, "output": "prob", **as_float}),
                            train, [(0.2,), (0.6,)], 5)
            assert np.array_equal(a.predictions, b.predictions)

    @pytest.mark.parametrize("kind, params", [
        ("knn", {"K": 3}),
        ("knn", {"k": 3.0}),
        ("memorizer", {"k": 1}),
        ("logistic_gd", {"steps": 30.0}),
        ("logistic_gd", {"lr": "0.5"}),
        ("logistic_gd", {"lr": True}),
        ("logistic_gd", {"output": "logit"}),
        ("sgld_linear", {"lr_decay_every": 0}),
        ("ensemble", {"members": [{"kind": "knn"}], "combiner": "mean"}),
        ("ensemble", {"members": []}),
        ("ensemble", {"members": [{"kind": "knn", "param": {"k": 1}}]}),
    ])
    def test_refuses_undeclared_or_mistyped_params(self, kind, params):
        with pytest.raises(ConfigError) as refused:
            LearnerSpec(kind, params)
        # a parameter the kind does not declare, ensemble's combiner among
        # them, is refused by name
        for name in set(params) - set(LearnerSpec.KINDS[kind]):
            assert f"{kind} has no parameter {name!r}" in str(refused.value)

    def test_metadata_helpers(self):
        assert prediction_space(LearnerSpec("logistic_gd",
                                            {"output": "prob"})).kind == "real"
        assert label_classes(np.array([0, 0])) == 2
        assert label_classes(np.array([0, 2, 1])) == 3
        # the distinct labels and the memorizer's default 0 count, not their values
        assert label_classes(np.array([2, 5, 2])) == 3
        assert label_classes(np.array([0, 2 ** 40])) == 2


def _as_vector(pred) -> np.ndarray:
    """Real view of a prediction; class labels embed as 1-D real vectors."""
    if isinstance(pred, (int, np.integer)):
        return np.array([float(pred)])
    return np.asarray(pred, dtype=float)


def _stability_oracle(spec, gen, n, which, trials, seed=0):
    """The earlier one-clause-per-call estimator, kept verbatim as an oracle."""
    from fcmi.datagen import sample_examples

    if which not in ("self", "test", "train"):
        raise ContractViolation(f"unknown stability clause {which!r}")
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    if which == "train" and n < 2:
        raise ContractViolation("train-stability needs n >= 2 (no other index j)")

    acc = np.zeros((n, n)) if which == "train" else np.zeros(n)
    for t in range(trials):
        xs, ys = sample_examples(gen, n + 2, seed_sequence_seed(seed, t, 0))
        base_xs, base_ys = xs[:n], ys[:n]
        queries = xs[n + 1:n + 2] if which == "test" else base_xs
        r = seed_sequence_seed(seed, t, 1)
        base_preds = train_predict(spec, base_xs, base_ys, queries, r).predictions
        for i in range(n):
            swapped_xs, swapped_ys = base_xs.copy(), base_ys.copy()
            swapped_xs[i], swapped_ys[i] = xs[n], ys[n]
            preds = train_predict(spec, swapped_xs, swapped_ys, queries, r).predictions
            if which == "self":
                d = _as_vector(preds[i]) - _as_vector(base_preds[i])
                acc[i] += float(np.dot(d, d))
            elif which == "test":
                d = _as_vector(preds[0]) - _as_vector(base_preds[0])
                acc[i] += float(np.dot(d, d))
            else:
                for j in range(n):
                    if j == i:
                        continue
                    d = _as_vector(preds[j]) - _as_vector(base_preds[j])
                    acc[i, j] += float(np.dot(d, d))
    return float(np.sqrt(acc.max() / trials))


_GAUSS = GeneratorSpec("two_gaussians", {"dim": 2, "sep": 1.0})
_STABILITY_CASES = {
    "logistic_prob": LearnerSpec("logistic_gd", {"output": "prob", "steps": 20}),
    "logistic_label": LearnerSpec("logistic_gd", {"steps": 20, "lr": 5.0}),
    "sgld_prob": LearnerSpec("sgld_linear", {"output": "prob", "steps": 20}),
    "knn3": LearnerSpec("knn", {"k": 3}),
    "memorizer": LearnerSpec("memorizer"),
    "ensemble": LearnerSpec("ensemble", {"members": [
        {"kind": "knn", "params": {"k": 1}}, {"kind": "knn", "params": {"k": 3}},
        {"kind": "memorizer", "params": {}}]}),
}


class TestEstimateStability:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("case", sorted(_STABILITY_CASES))
    def test_one_pass_equals_per_clause_oracle(self, case, n, seed):
        spec = _STABILITY_CASES[case]
        expected = tuple(_stability_oracle(spec, _GAUSS, n, which, 3, seed)
                         for which in ("self", "test", "train"))
        assert estimate_stability(spec, _GAUSS, n, trials=3, seed=seed) == expected

    def test_one_fit_per_training_set(self, monkeypatch):
        calls = []
        real = fcmi.learners._fit_predict_rows

        def counting(spec, xs, ys, train_idx, *args):
            calls.extend(len(row) for row in train_idx)
            return real(spec, xs, ys, train_idx, *args)

        monkeypatch.setattr(fcmi.learners, "_fit_predict_rows", counting)
        n, trials = 4, 3
        estimate_stability(_STABILITY_CASES["logistic_prob"], _GAUSS, n, trials, seed=1)
        assert calls == [n] * (trials * (n + 1))

    def test_constant_learner_zero_for_all_clauses(self):
        # knn on one-class data predicts the same label no matter the input
        gen = GeneratorSpec("threshold_realizable", {"threshold": 1.0})
        spec = LearnerSpec("knn", {"k": 1})
        assert estimate_stability(spec, gen, 3, trials=10, seed=0) == (0.0, 0.0, 0.0)

    def test_memorizer_self_clause_matches_label_marginal(self):
        # oracle: the replaced point's prediction drops to the constant class,
        # so the squared shift is y^2 and its mean is P(y = 1) = 1/2
        gen = GeneratorSpec("uniform_labels", {"dim": 1})
        beta, _, _ = estimate_stability(LearnerSpec("memorizer"), gen, 2,
                                        trials=600, seed=1)
        assert beta ** 2 == pytest.approx(0.5, abs=0.08)

    def test_memorizer_train_clause_zero(self):
        gen = GeneratorSpec("uniform_labels", {"dim": 1})
        _, _, beta2 = estimate_stability(LearnerSpec("memorizer"), gen, 3,
                                         trials=20, seed=2)
        assert beta2 == 0.0

    def test_train_clause_needs_two_points(self):
        # with one training point there is no other index j: the train clause
        # is vacuous and beta2 is 0, while the other two are still measured
        gen = GeneratorSpec("uniform_labels", {"dim": 1})
        beta, beta1, beta2 = estimate_stability(LearnerSpec("memorizer"), gen, 1,
                                                trials=20, seed=0)
        assert beta2 == 0.0
        assert beta > 0.0
        assert beta == _stability_oracle(LearnerSpec("memorizer"), gen, 1, "self", 20, 0)
        assert beta1 == _stability_oracle(LearnerSpec("memorizer"), gen, 1, "test", 20, 0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ContractViolation):
            estimate_stability(LearnerSpec("memorizer"), _GAUSS, 2, trials=0)

    @pytest.mark.parametrize("case", ["logistic_prob", "knn3"])
    def test_rejects_empty_training_set(self, case):
        with pytest.raises(ContractViolation):
            estimate_stability(_STABILITY_CASES[case], _GAUSS, 0, trials=1)
