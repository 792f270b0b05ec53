"""Built-in learning procedures behind one train/predict contract.

Every learner is a pure function of (training arrays, query array, seed):
identical inputs and seed reproduce the output bit for bit. Class-label
learners emit an array of shape (Q,) in the narrowest unsigned dtype that
holds the label alphabet (int64 for labels past 2^32); probability-output
learners emit a float array of shape (Q, d). ``fill_table`` runs a learner
on every (split, seed) row of a trial table. Every learner fits a stack of
training sets at once through one row function per kind, and each set's
predictions are bit for bit those of fitting it alone.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import MISSING

import numpy as np

from .core import (
    LOSSES,
    ConfigError,
    ContractViolation,
    KindSpec,
    PredictionSpace,
    Supersample,
    TrialTable,
    _unsigned,
    split_slots,
)
from .datagen import sample_examples
from .seeding import derive_seeds

# Cells in the largest stacked array of one chunk of fits: the linear
# learners' (B, N, d + 1) inputs, SGLD's (B, steps, d + 1) noise and the
# (B, Q) predictions, and the label learners' (B, Q, N) match arrays,
# (Q, classes, B) vote counts and (B, N + 1) threshold error counts, each
# stay under it, unless a single training set is larger.
_BATCH_CELLS = 2 ** 15


def prediction_space(spec: LearnerSpec, num_classes: int = 2) -> PredictionSpace:
    """Output-space descriptor for a learner on data with the given label count."""
    if spec.kind == "threshold_erm":
        return PredictionSpace("finite", size=2)
    if spec.kind in _LINEAR:
        if spec.param("output") == "prob":
            return PredictionSpace("real", dim=1)
        return PredictionSpace("finite", size=2)
    # memorizer, knn or ensemble: LearnerSpec admits no other kind
    if any(prediction_space(s, num_classes).kind != "finite" for s in _wrapped(spec)):
        raise ConfigError("ensemble members must predict class labels")
    return PredictionSpace("finite", size=num_classes)


def label_classes(ys: np.ndarray) -> int:
    """Size of the class alphabet of the labels ``ys``: their distinct values
    and the memorizer's default 0, at least two."""
    # a set: np.unique's default int64 sort loads more numpy code (peak RSS)
    return max(2, len({0, *ys.tolist()}))


def _wrapped(spec: LearnerSpec) -> list[LearnerSpec]:
    """The members an ensemble fits directly; none for another learner."""
    if spec.kind == "ensemble":
        return [LearnerSpec.from_json_dict(m) for m in spec.params["members"]]
    return []


def uses_kind(spec: LearnerSpec, kinds) -> bool:
    """Whether the learner, or a learner it wraps, is of one of ``kinds``."""
    return spec.kind in kinds or any(uses_kind(s, kinds) for s in _wrapped(spec))


def needs_binary_labels(spec: LearnerSpec) -> bool:
    """Whether the learner, or a learner it wraps, fits and predicts only
    labels in {0, 1}."""
    return uses_kind(spec, {*_LINEAR, "threshold_erm"})


# --- row functions -------------------------------------------------------------
#
# A row function fits one chunk of training sets at a time: row t of
# ``train_idx`` trains on ``xs[train_idx[t]]``, ``ys[train_idx[t]]`` with seed
# ``seeds[t]`` and predicts on every query. It returns the (T, ...)
# predictions and the (T,) int64 weight codes, or None when the learner has
# none. ``train_idx`` is a (T, N) index array or the ``_TrainingSlots`` of
# split masks; a row function reads it a chunk of rows at a time.


class _TrainingSlots:
    """The (T, n) training-slot index of split masks, row t holding slot
    2i + masks[t, i] at position i, built for the rows asked for: the whole
    index never exists."""

    def __init__(self, masks: np.ndarray):
        self.masks = masks
        self.shape = masks.shape

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, rows) -> np.ndarray:
        return split_slots(self.masks[rows])[0]


def _held(train_idx, points: int) -> np.ndarray:
    """(N, points) bool: whether some row holds each point at each position.
    Split masks hold slot 2i + b at position i wherever column i takes the
    bit b."""
    size = train_idx.shape[1]
    held = np.zeros((size, points), dtype=bool)
    pos = np.arange(size)
    if isinstance(train_idx, _TrainingSlots):
        held[pos, 2 * pos] = train_idx.masks.min(axis=0) == 0
        held[pos, 2 * pos + 1] = train_idx.masks.max(axis=0) == 1
    else:
        held[pos, train_idx] = True
    return held


def _chunk_rows(cells_per_row: int) -> int:
    """Rows per chunk whose largest stacked array has ``cells_per_row`` cells a
    row: as many as stay within ``_BATCH_CELLS``, and at least one."""
    return max(1, _BATCH_CELLS // max(1, cells_per_row))


def _in_chunks(fit, rows: int, step: int):
    """Fill (predictions, codes) from ``fit(lo, hi)`` over chunks of ``step`` rows."""
    preds = codes = None
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        chunk, chunk_codes = fit(lo, hi)
        if preds is None:
            preds = np.empty((rows,) + chunk.shape[1:], dtype=chunk.dtype)
            codes = None if chunk_codes is None else np.empty(rows, dtype=np.int64)
        preds[lo:hi] = chunk
        if codes is not None:
            codes[lo:hi] = chunk_codes
    return preds, codes


def _memorizer_rows(spec, xs, ys, train_idx, query_xs, seeds):
    """The label of the first training position whose input equals the
    query; class 0 when none does."""
    same = np.all(query_xs[:, None, :] == xs[None, :, :], axis=2)  # (Q, P)

    def fit(lo, hi):
        idx = train_idx[lo:hi]
        hit = same[:, idx]  # (Q, B, N)
        first = np.take_along_axis(idx, hit.argmax(axis=2).T, axis=1)
        return np.where(hit.any(axis=2).T, ys[first], 0), None

    return _in_chunks(fit, len(train_idx), _chunk_rows(train_idx.shape[1] * len(query_xs)))


def _threshold_weights(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Empirical-risk-minimizing thresholds of (B, N) 1-D features in [0, 1]
    and their (B, N) labels, one per row.

    Separable rows get the midpoint of the zero-error interval; one-class rows
    snap to the domain edge (1.0 without a label 1, else 0.0 without a label
    0). Otherwise the leftmost minimum-error cut among 0.0, the midpoints of
    adjacent distinct values and 1.0 wins; each cut's errors come from
    prefix counts over the row's sorted points, O(N log N) a row.
    """
    if np.any(x < 0) or np.any(x > 1):
        raise ContractViolation("threshold_erm needs 1-D features in [0, 1]")
    # (N, B) copies, so that each reduction over a row's points runs along
    # axis 0, element by element over the rows, not N at a time per row
    xt, yt = x.T.copy(), y.T.copy()
    zeros, ones = yt == 0, yt == 1
    m0 = np.where(zeros, xt, -np.inf).max(axis=0)
    m1 = np.where(ones, xt, np.inf).min(axis=0)
    has0, has1 = zeros.any(axis=0), ones.any(axis=0)
    w = np.where(has1, 0.0, 1.0)
    mixed = has0 & has1
    separable = mixed & (m0 < m1)
    w[separable] = (m0[separable] + m1[separable]) / 2.0
    rest = np.flatnonzero(mixed & ~separable)
    if rest.size:
        rows, size = len(rest), x.shape[1]
        order = np.argsort(x[rest], axis=1)
        s = np.take_along_axis(x[rest], order, axis=1)
        ys = np.take_along_axis(y[rest], order, axis=1)
        cuts = np.concatenate([np.zeros((rows, 1)), (s[:, :-1] + s[:, 1:]) / 2.0,
                               np.ones((rows, 1))], axis=1)
        # a point at or below a cut is wrong unless its label is 0, one
        # above it unless its label is 1: prefix counts over the sorted row,
        # column k holding the errors with the first k points at or below.
        # Cut j has j points at or below it, unless it (0.0, or a midpoint
        # rounded onto its upper value) equals point j: then it has every
        # point up to the end k of point j's run of equal values
        not0 = np.zeros((rows, size + 1), dtype=np.int64)
        not1 = np.zeros((rows, size + 1), dtype=np.int64)
        np.cumsum(ys != 0, axis=1, out=not0[:, 1:])
        np.cumsum(ys != 1, axis=1, out=not1[:, 1:])
        errors = not0 + (not1[:, -1:] - not1)
        onto = cuts[:, :-1] == s
        if onto.any():
            last = np.ones((rows, size), dtype=bool)
            np.not_equal(s[:, 1:], s[:, :-1], out=last[:, :-1])
            run_end = np.where(last, np.arange(1, size + 1), size)
            run_end = np.minimum.accumulate(run_end[:, ::-1], axis=1)[:, ::-1]
            r, j = np.nonzero(onto)
            errors[r, j] = errors[r, run_end[r, j]]
        # a midpoint of equal neighbours is not a candidate
        errors[:, 1:-1][s[:, :-1] == s[:, 1:]] = size + 1
        w[rest] = cuts[np.arange(rows), errors.argmin(axis=1)]  # leftmost minimum
    return w


def _threshold_rows(spec, xs, ys, train_idx, query_xs, seeds):
    """Predict 1 above the fitted threshold. The weight code is the threshold's
    IEEE-754 bit pattern: it is injective, so predictions are a function of
    the code and the weight-level information never undercounts the
    prediction-level one, and any fixed example pool gives a finite code set."""
    if xs.shape[1] != 1:
        raise ContractViolation("threshold_erm needs 1-D features in [0, 1]")
    size = train_idx.shape[1]

    def fit(lo, hi):
        idx = train_idx[lo:hi]
        w = _threshold_weights(xs[idx, 0], ys[idx])
        return (query_xs[None, :, 0] > w[:, None]).astype(np.uint8), w.view(np.int64)

    return _in_chunks(fit, len(train_idx), _chunk_rows(max(size + 1, len(query_xs))))


def _plurality(counts) -> np.ndarray:
    """Cell by cell, the index of the largest of the equal-shape vote counts
    ``counts``, one per class in ascending order: a running maximum in which a
    class takes a cell only with more votes, so ties stay with the lower class,
    as an argmax gives."""
    counts = iter(counts)
    most = next(counts)
    winner = np.zeros(np.shape(most), dtype=np.intp)
    for c, count in enumerate(counts, 1):
        np.copyto(winner, c, where=count > most)
        most = np.maximum(most, count)
    return winner


def _knn_rows(spec, xs, ys, train_idx, query_xs, seeds):
    """Majority label of the k nearest training points; distance ties fall to
    the lower training position and vote ties to the lower class.

    A row holds each training position once, so it is a set of (point,
    position) entries, and its k nearest are its first k entries in the order
    (distance, position). Each query sorts the entries of all rows once;
    a walk along that order with a running member count per row then gives
    every row's k nearest at once.
    """
    size = train_idx.shape[1]
    k = min(spec.param("k"), size)
    labels, classes = np.unique(ys, return_inverse=True)
    pos, point = np.nonzero(_held(train_idx, len(xs)))  # every entry some row holds
    d2 = np.sum((xs[None, :, :] - query_xs[:, None, :]) ** 2, axis=2)[:, point]
    # (Q, E) entries by distance, then position; equal keys are entries at
    # one position, which no row holds together
    order = np.lexsort((np.broadcast_to(pos, d2.shape), d2), axis=-1)
    queries = np.arange(len(query_xs))

    def fit(lo, hi):
        member = (train_idx[lo:hi][:, pos] == point).T  # (E, B)
        found = np.zeros((len(query_xs), hi - lo), dtype=np.int32)
        counts = np.zeros((len(query_xs), len(labels), hi - lo), dtype=np.int32)
        for entry in order.T:  # each query's next entry
            take = member[entry] & (found < k)
            found += take
            counts[queries, classes[point[entry]]] += take
            if found.min() == k:
                break
        return labels[_plurality(counts.swapaxes(0, 1))].T, None

    return _in_chunks(fit, len(train_idx),
                      _chunk_rows(max(len(point), len(query_xs) * len(labels))))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; the numerator is 1 for z >= 0 and e below,
    # the stable form for each sign of z, in one division
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def _design(xs: np.ndarray) -> np.ndarray:
    """Inputs with a trailing bias column: (..., N, d) -> (..., N, d + 1)."""
    return np.concatenate([xs, np.ones(xs.shape[:-1] + (1,))], axis=-1)


def _logistic_grad(X: np.ndarray, w: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Summed logistic-loss gradient X^T (sigmoid(X w) - y) of each stacked set.

    Each product is one stacked matmul, which runs the same BLAS gemv per set
    as a single (N, d + 1) fit, so a set's weights do not depend on its batch.
    """
    residual = _sigmoid(np.matmul(X, w[..., None])[..., 0]) - ys
    return np.matmul(X.transpose(0, 2, 1), residual[..., None])[..., 0]


def _seed_streams(seeds) -> tuple[list[np.random.Generator], np.ndarray]:
    """One generator per distinct seed, and each set's index into them: sets
    that share a seed draw that seed's stream, as a generator each would."""
    distinct, row = np.unique(np.asarray(seeds, dtype=np.uint64), return_inverse=True)
    return [np.random.default_rng(int(s)) for s in distinct], row


def logistic_fit(xs: np.ndarray, ys: np.ndarray, seeds, steps: int = 100,
                 lr: float = 0.5, init_scale: float = 0.01) -> np.ndarray:
    """Full-batch gradient descent on mean logistic loss; no early stopping.

    Fits B training sets at once: (B, N, d) inputs, (B, N) labels and one
    seed per set. Returns the (B, d + 1) weights, bias last.
    """
    if np.any((ys != 0) & (ys != 1)):
        raise ContractViolation("logistic_gd needs binary labels")
    X, ys = _design(xs), ys.astype(float)
    rngs, row = _seed_streams(seeds)
    w = np.stack([rng.normal(0.0, init_scale, X.shape[2]) for rng in rngs])[row]
    for _ in range(steps):
        w = w - lr * _logistic_grad(X, w, ys) / X.shape[1]
    return w


def sgld_fit(xs: np.ndarray, ys: np.ndarray, seeds, steps: int = 200,
             lr0: float = 0.05, lr_decay: float = 0.9, lr_decay_every: int = 100,
             temp_min: float = 100.0, temp_max: float = 4000.0,
             temp_scale: float = 100.0, init_scale: float = 0.01) -> np.ndarray:
    """Vanilla SGLD on the summed logistic loss of a linear model.

    Fits B training sets at once: (B, N, d) inputs, (B, N) labels and one
    seed per set. Returns the (B, d + 1) weights, bias last. Per-step noise
    variance is lr_t / beta_t with the inverse temperature
    beta_t = min(temp_max, max(temp_min, 10 * exp(t / temp_scale))), the
    exponent capped at 709: 10 e^709 is past every float already, so beta_t
    is temp_max there as it would be past it. The standard-normal stream is
    drawn unconditionally so that runs at different temperatures share it.
    """
    if np.any((ys != 0) & (ys != 1)):
        raise ContractViolation("sgld_linear needs binary labels")
    X, ys = _design(xs), ys.astype(float)
    rngs, row = _seed_streams(seeds)
    w = np.stack([rng.normal(0.0, init_scale, X.shape[2]) for rng in rngs])[row]
    # each seed's stream drawn a block of steps at a time is the same draws as
    # one row per step; a block of the whole batch stays within _BATCH_CELLS
    block = max(1, _BATCH_CELLS // (len(row) * X.shape[2]))
    for t in range(steps):
        if t % block == 0:
            eps = np.stack([rng.standard_normal((min(block, steps - t), X.shape[2]))
                            for rng in rngs])
        lr = lr0 * lr_decay ** (t // lr_decay_every)
        beta = min(temp_max, max(temp_min, 10.0 * math.exp(min(t / temp_scale, 709.0))))
        grad = _logistic_grad(X, w, ys)
        w = w - 0.5 * lr * grad + math.sqrt(lr / beta) * eps[row, t % block]
    return w


# --- learner specs -------------------------------------------------------------


_LINEAR = {"logistic_gd": logistic_fit, "sgld_linear": sgld_fit}


# the numeric parameters' ranges: the least admitted value, or > 0
_AT_LEAST = {"k": 1, "steps": 1, "lr_decay_every": 1, "init_scale": 0, "lr_decay": 0}
_POSITIVE = ("lr", "lr0", "temp_min", "temp_max", "temp_scale")


def _tuning(fit) -> dict:
    """A linear learner's tuning parameters: its fit function's keyword defaults."""
    return {name: p.default for name, p in inspect.signature(fit).parameters.items()
            if p.default is not p.empty}


class LearnerSpec(KindSpec):
    """A learner kind and its parameters. A linear learner's tuning defaults
    are stated once, in its fit function's signature."""

    NOUN = "learner"
    KINDS = {
        "memorizer": {},
        "threshold_erm": {},
        "knn": {"k": 1},
        **{kind: {"output": "label", **_tuning(fit)} for kind, fit in _LINEAR.items()},
        "ensemble": {"members": MISSING},
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        # a given value is checked; every default passes
        p = self.params
        for name, value in p.items():
            if name in _AT_LEAST and value < _AT_LEAST[name]:
                raise ConfigError(f"{self.kind} needs {name} >= {_AT_LEAST[name]}")
            if name in _POSITIVE and value <= 0:
                raise ConfigError(f"{self.kind} needs {name} > 0")
        if "output" in p and p["output"] not in ("label", "prob"):
            raise ConfigError("output must be 'label' or 'prob'")
        if "members" in p and not (isinstance(p["members"], list) and p["members"]):
            raise ConfigError("ensemble needs a nonempty list of members")
        _wrapped(self)  # a wrapped learner's spec is checked like this one


def _linear_predict(w: np.ndarray, query_xs: np.ndarray, output: str) -> np.ndarray:
    """Predictions of (..., d + 1) weights on (Q, d) queries: (..., Q) labels
    or (..., Q, 1) probabilities."""
    # vecdot (NumPy 2.0 and later) takes one BLAS ddot per (weights, query)
    # pair, as a per-query np.dot does; a matmul over all queries sums in
    # another order and moves the last ulp of some probabilities
    probs = _sigmoid(np.vecdot(_design(query_xs), w[..., None, :]))
    return probs[..., None] if output == "prob" else (probs > 0.5).astype(np.uint8)


def ensemble_combine(member_predictions) -> np.ndarray:
    """Majority vote over the first axis of (M, ...) class labels, in their
    dtype (int64 for Python ints); ties break toward the smallest class."""
    votes = np.asarray(member_predictions)
    if len(votes) < 1:
        raise ContractViolation("need at least one member prediction")
    # one count per distinct label, in ascending order, so the work grows
    # with the number of labels, not with their values; the counts take the
    # narrowest dtype
    labels = np.unique(votes)
    tally = _unsigned(len(votes) + 1)
    winner = _plurality((votes == label).sum(axis=0, dtype=tally) for label in labels)
    return labels[winner][()]  # a scalar for a 1-D input


def _linear_rows(spec, xs, ys, train_idx, query_xs, seeds):
    # the tuning values go to the fit function as given
    tuning = {name: v for name, v in spec.params.items() if name != "output"}

    def fit(lo, hi):
        idx = train_idx[lo:hi]
        w = _LINEAR[spec.kind](xs[idx], ys[idx], seeds[lo:hi], **tuning)
        return _linear_predict(w, query_xs, spec.param("output")), None

    # the stacked inputs, the predictions and SGLD's noise stream, a training set each
    per_set = [train_idx.shape[1] * (xs.shape[1] + 1), len(query_xs)]
    if spec.kind == "sgld_linear":
        per_set.append(spec.param("steps") * (xs.shape[1] + 1))
    return _in_chunks(fit, len(train_idx), _chunk_rows(max(per_set)))


def _members(spec: LearnerSpec, seeds) -> list[tuple[LearnerSpec, np.ndarray]]:
    """Each member of an ensemble with its row seeds: member j fits row t
    with seed ``derive_seeds(seeds[t], j)``."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    return [(member, derive_seeds(seeds, j)) for j, member in enumerate(_wrapped(spec))]


def _ensemble_rows(spec, xs, ys, train_idx, query_xs, seeds):
    """Majority vote of the members."""
    return ensemble_combine([_fit_predict_rows(member, xs, ys, train_idx, query_xs, s)[0]
                             for member, s in _members(spec, seeds)]), None


_ROWS = {
    "memorizer": _memorizer_rows,
    "threshold_erm": _threshold_rows,
    "knn": _knn_rows,
    "logistic_gd": _linear_rows,
    "sgld_linear": _linear_rows,
    "ensemble": _ensemble_rows,
}


def _fit_predict_rows(spec: LearnerSpec, xs: np.ndarray, ys: np.ndarray,
                      train_idx: np.ndarray, query_xs: np.ndarray, seeds):
    """One fit per row of ``train_idx``, each predicting on every query.

    Row t trains on ``xs[train_idx[t]]``, ``ys[train_idx[t]]`` with seed
    ``seeds[t]``; the learner's row function fits the rows chunk by chunk.
    Returns the (T, ...) predictions and the (T,) weight codes, or None when
    the learner has no weight code. The labels are cast to the narrowest
    unsigned dtype of their alphabet, so label predictions take it on.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=np.int64)
    if not isinstance(train_idx, _TrainingSlots):
        train_idx = np.asarray(train_idx)
    return _ROWS[spec.kind](spec, xs, ys.astype(_unsigned(int(ys.max(initial=0)) + 1)),
                            train_idx, np.asarray(query_xs, dtype=float), seeds)


def fill_table(supersample: Supersample, spec: LearnerSpec, masks, seeds,
               loss_name: str = "zero_one", supersample_id: str = "",
               members: bool = False) -> TrialTable:
    """Run the learner once per (mask, seed) row and score both halves.

    Row t trains on slots 2i + masks[t, i] with seed ``seeds[t]`` and predicts
    on all 2n supersample inputs; losses are scored on the arrays afterwards.
    With ``members``, an ensemble's table also holds each member's table,
    from the fits its vote is taken over.
    """
    masks = np.asarray(masks, dtype=np.uint8)
    if masks.ndim != 2 or masks.shape[0] < 1 or len(seeds) != masks.shape[0]:
        raise ContractViolation("need at least one (mask, seed) row, one seed per mask")
    if masks.shape[1] != supersample.n:
        raise ContractViolation(
            f"masks have {masks.shape[1]} bits for a supersample of {supersample.n} pairs")
    xs, ys = supersample.xs, supersample.ys
    slots, in_train = _TrainingSlots(masks), masks.astype(bool)

    def table(learner, seeds, preds, codes=None, members=None):
        # pair-major slot losses: [..., 0] is slot 2i, [..., 1] is slot 2i + 1
        pair_loss = LOSSES[loss_name](preds, ys).reshape(masks.shape + (2,))
        train = np.where(in_train, pair_loss[..., 1], pair_loss[..., 0])
        if train.dtype == bool:
            # a count of 0/1 losses over n has the bits of their float mean
            wrong = np.count_nonzero(train, axis=1)
            train_loss = wrong / masks.shape[1]
            test_loss = (np.count_nonzero(pair_loss, axis=(1, 2)) - wrong) / masks.shape[1]
        else:
            train_loss = train.mean(axis=1)
            test_loss = np.where(in_train, pair_loss[..., 0], pair_loss[..., 1]).mean(axis=1)
        return TrialTable(
            supersample_id=supersample_id,
            prediction_space=prediction_space(learner, label_classes(ys)),
            masks=masks, seeds=seeds, preds=preds, train_loss=train_loss,
            test_loss=test_loss, weight_code=codes, members=members)

    if members:
        fits = [(member, s, _fit_predict_rows(member, xs, ys, slots, xs, s)[0])
                for member, s in _members(spec, seeds)]
        return table(spec, seeds, ensemble_combine([preds for _, _, preds in fits]),
                     members=tuple(table(*fit) for fit in fits))
    return table(spec, seeds, *_fit_predict_rows(spec, xs, ys, slots, xs, seeds))


# --- functional stability ----------------------------------------------------


def estimate_stability(spec: LearnerSpec, gen, n: int, trials: int,
                       seed: int = 0) -> tuple[float, float, float]:
    """Monte Carlo estimates of the self, test and train stability constants.

    Each trial resamples n training points, a replacement point and a fresh
    test point, fits the base set and the n sets with one point swapped for
    the replacement, and queries every fit on the n base points plus the test
    point. Swap i gives row i of an (n, n + 1) array of squared prediction
    shifts: the diagonal is the shift at the replaced point ("self", beta),
    the last column the shift at the test point ("test", beta1), and the
    off-diagonal n x n part the shift at the other training points ("train",
    beta2). Each constant is the RMS over trials, maximized over the probed
    coordinates to match the for-all quantifier of the definition; with
    n = 1 there is no other training point and beta2 is 0.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    if n < 1:
        raise ContractViolation("stability needs n >= 1 training points")
    # row 0 trains on the base points 0..n-1; row 1 + i swaps point i for
    # the replacement point n
    train = np.tile(np.arange(n), (n + 1, 1))
    np.fill_diagonal(train[1:], n)
    acc = np.zeros((n, n + 1))
    # trial t draws with seed derive_seeds(seed, t, 0) and fits with derive_seeds(seed, t, 1)
    draw_seeds, fit_seeds = derive_seeds(seed, np.arange(trials), np.arange(2)[:, None])
    for t in range(trials):
        xs, ys = sample_examples(gen, n + 2, int(draw_seeds[t]))
        queries = np.concatenate([xs[:n], xs[n + 1:]])
        fits, _ = _fit_predict_rows(spec, xs, ys, train, queries,
                                    [int(fit_seeds[t])] * (n + 1))
        # class labels embed as 1-D real vectors
        preds = np.asarray(fits, dtype=float).reshape(n + 1, n + 1, -1)
        shift = preds[1:] - preds[0]
        acc += np.sum(shift * shift, axis=2)
    train_shift = acc[:, :n][~np.eye(n, dtype=bool)]
    peaks = (acc.diagonal().max(), acc[:, n].max(), train_shift.max(initial=0.0))
    return tuple(float(np.sqrt(p / trials)) for p in peaks)
