"""Built-in learning procedures behind one train/predict contract.

Every learner is a pure function of (training arrays, query array, seed):
identical inputs and seed reproduce the output bit for bit. Class-label
learners emit an int array of shape (Q,); probability-output learners emit a
float array of shape (Q, d). ``fill_table`` runs a learner on every (split,
seed) row of a trial table.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    LOSSES,
    ContractViolation,
    PredictionSpace,
    Supersample,
    TrialTable,
    split_slots,
)
from .datagen import sample_examples

LEARNER_KINDS = (
    "memorizer",
    "threshold_erm",
    "knn",
    "logistic_gd",
    "sgld_linear",
    "noisy_wrapper",
    "ensemble",
)


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in LEARNER_KINDS:
            raise ContractViolation(f"unknown learner kind {self.kind!r}")
        _validate_params(self.kind, self.params)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LearnerSpec":
        return cls(kind=d["kind"], params=dict(d.get("params", {})))


def _validate_params(kind: str, params: dict) -> None:
    if kind == "knn" and params.get("k", 1) < 1:
        raise ContractViolation("knn needs k >= 1")
    if kind in ("logistic_gd", "sgld_linear"):
        if params.get("steps", 1) < 1:
            raise ContractViolation(f"{kind} needs steps >= 1")
        if params.get("output", "label") not in ("label", "prob"):
            raise ContractViolation("output must be 'label' or 'prob'")
    if kind == "noisy_wrapper":
        if params.get("sigma_sq", 1.0) <= 0:
            raise ContractViolation("noisy_wrapper needs sigma_sq > 0")
        if "inner" not in params:
            raise ContractViolation("noisy_wrapper needs an inner learner spec")
    if kind == "ensemble":
        members = params.get("members", [])
        if not members:
            raise ContractViolation("ensemble needs at least one member")
        if params.get("combiner", "majority") != "majority":
            raise ContractViolation("only the majority-vote combiner is implemented")


@dataclass(frozen=True, eq=False)
class LearnerOutput:
    predictions: np.ndarray
    weight_code: int | None = None


def derive_seed(seed: int, *path: int) -> int:
    """Counter-style child seed; stable across platforms and schedules."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def prediction_space(spec: LearnerSpec, num_classes: int = 2) -> PredictionSpace:
    """Output-space descriptor for a learner on data with the given label count."""
    if spec.kind in ("memorizer", "knn"):
        return PredictionSpace("finite", size=num_classes)
    if spec.kind == "threshold_erm":
        return PredictionSpace("finite", size=2)
    if spec.kind in ("logistic_gd", "sgld_linear"):
        if spec.params.get("output", "label") == "prob":
            return PredictionSpace("real", dim=1)
        return PredictionSpace("finite", size=2)
    if spec.kind == "noisy_wrapper":
        inner = LearnerSpec.from_json_dict(spec.params["inner"])
        inner_space = prediction_space(inner, num_classes)
        if inner_space.kind != "real":
            raise ContractViolation(
                "noisy_wrapper needs an inner learner with real-vector output")
        return inner_space
    if spec.kind == "ensemble":
        return PredictionSpace("finite", size=num_classes)
    raise ContractViolation(f"unknown learner kind {spec.kind!r}")


def has_weight_code(spec: LearnerSpec) -> bool:
    return spec.kind == "threshold_erm"


def needs_binary_labels(spec: LearnerSpec) -> bool:
    """Whether the learner, or a learner it wraps, fits only labels in {0, 1}."""
    if spec.kind == "noisy_wrapper":
        return needs_binary_labels(LearnerSpec.from_json_dict(spec.params["inner"]))
    if spec.kind == "ensemble":
        return any(needs_binary_labels(LearnerSpec.from_json_dict(m))
                   for m in spec.params["members"])
    return spec.kind in ("logistic_gd", "sgld_linear")


# --- individual learners ----------------------------------------------------


def _memorize(train_xs: np.ndarray, train_ys: np.ndarray,
              query_xs: np.ndarray) -> np.ndarray:
    table: dict[tuple, int] = {}
    for x, y in zip(map(tuple, train_xs.tolist()), train_ys.tolist()):
        # first occurrence wins for duplicate inputs
        table.setdefault(x, y)
    return np.array([table.get(q, 0) for q in map(tuple, query_xs.tolist())],
                    dtype=np.int64)


def threshold_erm_fit(xs: np.ndarray, ys: np.ndarray) -> float:
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


def _knn(train_xs: np.ndarray, train_ys: np.ndarray, query_xs: np.ndarray,
         k: int) -> np.ndarray:
    k_eff = min(k, len(train_ys))
    num_classes = int(train_ys.max()) + 1
    d2 = np.sum((train_xs[None, :, :] - query_xs[:, None, :]) ** 2, axis=2)
    order = np.argsort(d2, axis=1, kind="stable")  # distance ties fall to lower index
    nearest = train_ys[order[:, :k_eff]]
    votes = (nearest[:, :, None] == np.arange(num_classes)).sum(axis=1)
    return votes.argmax(axis=1)  # vote ties fall to lower class


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_fit(xs: np.ndarray, ys: np.ndarray, seed: int, steps: int = 100,
                 lr: float = 0.5, init_scale: float = 0.01) -> np.ndarray:
    """Full-batch gradient descent on mean logistic loss; no early stopping."""
    if np.any((ys != 0) & (ys != 1)):
        raise ContractViolation("logistic_gd needs binary labels")
    X = np.hstack([xs, np.ones((xs.shape[0], 1))])
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, init_scale, X.shape[1])
    for _ in range(steps):
        p = _sigmoid(X @ w)
        w = w - lr * (X.T @ (p - ys)) / X.shape[0]
    return w


def sgld_fit(xs: np.ndarray, ys: np.ndarray, seed: int, steps: int = 200,
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
        grad = X.T @ (_sigmoid(X @ w) - ys)
        eps = rng.standard_normal(X.shape[1])
        w = w - 0.5 * lr * grad + math.sqrt(lr / beta) * eps
    return w


def _linear_predict(w: np.ndarray, query_xs: np.ndarray, output: str) -> np.ndarray:
    # one dot product and sigmoid per query: a single matmul over all queries
    # changes the last ulp of some probabilities
    probs = []
    for q in query_xs:
        z = float(np.dot(np.append(q, 1.0), w))
        probs.append(float(_sigmoid(np.array([z]))[0]))
    probs = np.array(probs)
    return probs[:, None] if output == "prob" else (probs > 0.5).astype(np.int64)


def _digest(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def noisy_predict(inner_predictions, sigma_sq: float, seed: int, train_digest: int,
                  queries) -> np.ndarray:
    """Add per-(train set, query) Gaussian noise to real-vector predictions.

    The noise stream is keyed on (seed, train digest, query digest): asking
    the same query twice in one trial repeats the noise, while distinct
    queries and distinct trials get independent draws.
    """
    if sigma_sq <= 0:
        raise ContractViolation("sigma_sq must be > 0")
    sigma = math.sqrt(sigma_sq)
    out = np.array(inner_predictions, dtype=float)
    for row, q in zip(out, queries):
        qdig = _digest(np.asarray(q, dtype=float).tobytes())
        rng = np.random.default_rng([seed, train_digest, qdig])
        row += rng.normal(0.0, sigma, len(row))
    return out


def ensemble_combine(member_predictions: Sequence[int]) -> int:
    """Majority vote; ties break toward the smallest class index."""
    if len(member_predictions) < 1:
        raise ContractViolation("need at least one member prediction")
    votes = np.bincount(np.asarray(member_predictions, dtype=np.int64))
    return int(votes.argmax())


def train_predict(spec: LearnerSpec, train_xs, train_ys, query_xs,
                  seed: int) -> LearnerOutput:
    """Train the specified learner on (N, d) inputs and (N,) labels, and
    predict on (Q, d) query inputs."""
    train_xs = np.asarray(train_xs, dtype=float)
    train_ys = np.asarray(train_ys, dtype=np.int64)
    query_xs = np.asarray(query_xs, dtype=float)
    if train_xs.ndim != 2 or train_xs.shape[0] == 0 or train_ys.shape != train_xs.shape[:1]:
        raise ContractViolation("training set must be nonempty (N, d) inputs, N labels")
    if query_xs.ndim != 2 or query_xs.shape[1] != train_xs.shape[1]:
        raise ContractViolation("feature dimensionality mismatch")
    p = spec.params
    if spec.kind == "memorizer":
        return LearnerOutput(_memorize(train_xs, train_ys, query_xs))
    if spec.kind == "threshold_erm":
        w = threshold_erm_fit(train_xs, train_ys)
        # injective encoding keeps predictions a function of the code, so the
        # weight-level information never undercounts the prediction-level one;
        # for any fixed example pool the achievable code set is still finite
        code = struct.unpack("<q", struct.pack("<d", w))[0]
        return LearnerOutput((query_xs[:, 0] > w).astype(np.int64), weight_code=code)
    if spec.kind == "knn":
        return LearnerOutput(_knn(train_xs, train_ys, query_xs, int(p.get("k", 1))))
    if spec.kind == "logistic_gd":
        w = logistic_fit(train_xs, train_ys, seed, steps=int(p.get("steps", 100)),
                         lr=float(p.get("lr", 0.5)),
                         init_scale=float(p.get("init_scale", 0.01)))
        return LearnerOutput(_linear_predict(w, query_xs, p.get("output", "label")))
    if spec.kind == "sgld_linear":
        w = sgld_fit(train_xs, train_ys, seed, steps=int(p.get("steps", 200)),
                     lr0=float(p.get("lr0", 0.05)),
                     lr_decay=float(p.get("lr_decay", 0.9)),
                     lr_decay_every=int(p.get("lr_decay_every", 100)),
                     temp_min=float(p.get("temp_min", 100.0)),
                     temp_max=float(p.get("temp_max", 4000.0)),
                     temp_scale=float(p.get("temp_scale", 100.0)),
                     init_scale=float(p.get("init_scale", 0.01)))
        return LearnerOutput(_linear_predict(w, query_xs, p.get("output", "label")))
    if spec.kind == "noisy_wrapper":
        inner = LearnerSpec.from_json_dict(p["inner"])
        if prediction_space(inner).kind != "real":
            raise ContractViolation(
                "noisy_wrapper needs an inner learner with real-vector output")
        inner_out = train_predict(inner, train_xs, train_ys, query_xs, seed)
        train_digest = _digest(
            np.ascontiguousarray(train_xs).tobytes() + train_ys.tobytes())
        noisy = noisy_predict(inner_out.predictions, float(p["sigma_sq"]), seed,
                              train_digest, query_xs)
        return LearnerOutput(noisy)
    if spec.kind == "ensemble":
        members = [LearnerSpec.from_json_dict(m) for m in p["members"]]
        per_member = np.stack([
            train_predict(m, train_xs, train_ys, query_xs, derive_seed(seed, j)).predictions
            for j, m in enumerate(members)
        ])
        return LearnerOutput(np.array([ensemble_combine(votes) for votes in per_member.T],
                                      dtype=np.int64))
    raise ContractViolation(f"unknown learner kind {spec.kind!r}")


def fill_table(supersample: Supersample, spec: LearnerSpec, masks, seeds,
               loss_name: str = "zero_one", supersample_id: str = "") -> TrialTable:
    """Run the learner once per (mask, seed) row and score both halves.

    Row t trains on slots 2i + masks[t, i] with seed ``seeds[t]`` and predicts
    on all 2n supersample inputs; losses are scored on the arrays afterwards.
    """
    masks = np.asarray(masks, dtype=np.uint8)
    if masks.ndim != 2 or masks.shape[0] < 1 or len(seeds) != masks.shape[0]:
        raise ContractViolation("need at least one (mask, seed) row, one seed per mask")
    xs, ys = supersample.xs, supersample.ys
    rows, n = masks.shape
    preds, codes = None, []
    for t in range(rows):
        train, _ = split_slots(masks[t])
        out = train_predict(spec, xs[train], ys[train], xs, int(seeds[t]))
        if preds is None:
            preds = np.empty((rows,) + out.predictions.shape, dtype=out.predictions.dtype)
        preds[t] = out.predictions
        codes.append(out.weight_code)
    # pair-major slot losses: [..., 0] is slot 2i, [..., 1] is slot 2i + 1
    pair_loss = LOSSES[loss_name](preds, ys).reshape(rows, n, 2)
    in_train = masks.astype(bool)
    return TrialTable(
        supersample_id=supersample_id,
        prediction_space=prediction_space(spec, max(2, int(ys.max()) + 1)),
        masks=masks,
        seeds=seeds,
        preds=preds,
        train_loss=np.where(in_train, pair_loss[..., 1], pair_loss[..., 0]).mean(axis=1),
        test_loss=np.where(in_train, pair_loss[..., 0], pair_loss[..., 1]).mean(axis=1),
        weight_code=None if None in codes else np.array(codes, dtype=np.int64),
    )


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
    acc = np.zeros((n, n + 1))
    for t in range(trials):
        xs, ys = sample_examples(gen, n + 2, derive_seed(seed, t, 0))
        base_xs, base_ys = xs[:n], ys[:n]
        queries = np.concatenate([base_xs, xs[n + 1:]])
        r = derive_seed(seed, t, 1)
        fits = [train_predict(spec, base_xs, base_ys, queries, r).predictions]
        for i in range(n):
            swapped_xs, swapped_ys = base_xs.copy(), base_ys.copy()
            swapped_xs[i], swapped_ys[i] = xs[n], ys[n]
            fits.append(train_predict(spec, swapped_xs, swapped_ys, queries, r).predictions)
        # class labels embed as 1-D real vectors
        preds = np.asarray(fits, dtype=float).reshape(n + 1, n + 1, -1)
        shift = preds[1:] - preds[0]
        acc += np.sum(shift * shift, axis=2)
    train_shift = acc[:, :n][~np.eye(n, dtype=bool)]
    peaks = (acc.diagonal().max(), acc[:, n].max(), train_shift.max(initial=0.0))
    return tuple(float(np.sqrt(p / trials)) for p in peaks)
