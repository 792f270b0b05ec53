"""Scalar, one-instance references for the package's batched paths.

The package computes each of these quantities only in batched form: the
exact information measures of one joint, the symmetrized-KL cap of one set
of cells, the plug-in estimate of gathered symbols and the trial-table
quantities it gives, the subset-size
monotonicity check of one exact trial table, the bound reports the retired
per-bound wrappers formed, one fit of a learner and one counter seed. The tests compare the
batched paths against these references, bit for bit where both do the same
arithmetic in the same order, and use them to build expected values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fcmi.core import ContractViolation, TrialTable, split_slots
from fcmi.harness import BoundReport
from fcmi.infotheory import all_subsets, subset_mi, weight_mi
from fcmi.learners import LearnerSpec, _fit_predict_rows, _threshold_weights

_NEG_TOL = 1e-12


# --- exact information measures of one joint --------------------------------------
#
# The reference for the plug-in estimator and for the stacked measures of
# ``fcmi.lemma_lab``.


def _as_distribution(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float).ravel()
    if arr.size == 0:
        raise ContractViolation("empty distribution")
    if np.any(arr < -_NEG_TOL):
        raise ContractViolation("negative probability entry")
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-12, rel_tol=1e-9):
        raise ContractViolation(f"probabilities sum to {total}, not 1")
    return arr


def entropy(p) -> float:
    """Shannon entropy -sum p log p of a probability vector."""
    arr = _as_distribution(p)
    nz = arr[arr > 0]
    return float(-np.sum(nz * np.log(nz)))


def kl_divergence(p, q) -> float:
    """KL(p || q); raises ContractViolation when the support check fails."""
    pa = _as_distribution(p)
    qa = _as_distribution(q)
    if pa.shape != qa.shape:
        raise ContractViolation("p and q must share one alphabet")
    if np.any((pa > 0) & (qa == 0)):
        raise ContractViolation("p has mass outside the support of q (KL = +inf)")
    mask = pa > 0
    return float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))


def _joint_probs(joint) -> np.ndarray:
    """Accept a count grid or a probability grid; normalize."""
    arr = np.asarray(joint, dtype=float)
    if np.any(arr < 0):
        raise ContractViolation("joint entries must be nonnegative")
    total = arr.sum()
    if total <= 0:
        raise ContractViolation("joint must have positive total mass")
    return arr / total


def mutual_information(joint) -> float:
    """I(A; B) from a 2-D joint (histogram counts or probabilities)."""
    p = _joint_probs(joint)
    if p.ndim != 2:
        raise ContractViolation(f"expected a 2-D joint, got ndim={p.ndim}")
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    mask = p > 0
    outer = np.outer(pa, pb)
    val = float(np.sum(p[mask] * np.log(p[mask] / outer[mask])))
    return max(val, 0.0)


def conditional_mutual_information(joint3) -> float:
    """I(A; B | C) from a 3-D joint over (A, B, C); empty C-cells contribute zero."""
    p = _joint_probs(joint3)
    if p.ndim != 3:
        raise ContractViolation(f"expected a 3-D joint, got ndim={p.ndim}")
    total = 0.0
    for c in range(p.shape[2]):
        w = p[:, :, c].sum()
        if w <= 0:
            continue
        total += w * mutual_information(p[:, :, c] / w)
    return total


# --- the symmetrized-KL cap, the reference for ``lemma_lab._kl_margins`` ----------


def stability_kl_decomposition(
    cells: Sequence[tuple[Sequence[float], Sequence[float]]],
    weights: Sequence[float] | None = None,
) -> float:
    """Symmetrized-KL cap on I(predictions ; S_i | S_-i).

    ``cells`` holds, per value of the conditioning bits, the prediction
    distributions under bit 0 and bit 1. Returns
    (1/4) E[KL(P1 || P0)] + (1/4) E[KL(P0 || P1)]; mutual absolute continuity
    is required (deterministic prediction laws make the cap infinite).
    """
    if not cells:
        raise ContractViolation("need at least one conditioning cell")
    if weights is None:
        w = np.full(len(cells), 1.0 / len(cells))
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(cells),) or np.any(w < 0) or not math.isclose(w.sum(), 1.0,
                                                                         abs_tol=1e-9):
            raise ContractViolation("cell weights must be a distribution over cells")
    total = 0.0
    for wc, (p0, p1) in zip(w, cells):
        if wc == 0:
            continue
        total += wc * 0.25 * (kl_divergence(p1, p0) + kl_divergence(p0, p1))
    return total


# --- the plug-in estimate of gathered symbols, and the trial-table quantities --
#
# The reference for ``fcmi.infotheory``'s ``subset_mi``, ``split_cmi`` and
# ``mi_testslots``, which build their joint codes arithmetically from
# table-wide pair and mask codes: these gather each quantity's symbol columns
# from the table and fold them one column at a time by lexsort. Both count the
# same occupied cells in the same order, so every MI bit agrees.


def _group_codes(prefix: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Dense rank of each row's (prefix, key) pair; equal pairs share a code.

    Codes are ordered by prefix first, so they refine the prefix's grouping.
    """
    order = np.lexsort((key, prefix))
    p, k = prefix[order], key[order]
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    new[1:] = (p[1:] != p[:-1]) | (k[1:] != k[:-1])
    codes = np.empty(order.size, dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes


def lexsort_plugin_mi(a, b, c=None) -> np.ndarray:
    """Plug-in I(A; B), or I(A; B | C) when ``c`` is given, for Q quantities.

    Each argument is a (T,), (T, Q) or (T, Q, k) integer array: entry [t, q]
    is sample t of quantity q's symbol, which spans k integer columns. A (T,)
    array is one symbol shared by every quantity, and the arguments broadcast
    over Q. The T rows are equally weighted. Returns the Q values in nats.
    """
    args = [np.asarray(x) for x in ((a, b) if c is None else (a, b, c))]
    args = [x.reshape(x.shape + (1,) * (3 - x.ndim)) for x in args]
    rows = args[0].shape[0]
    quantities = max(x.shape[1] for x in args)
    q = np.tile(np.arange(quantities), rows)

    def symbol_codes(x: np.ndarray) -> np.ndarray:
        # fold the symbol's columns in one at a time: codes of (q, symbol)
        x = np.broadcast_to(x, (rows, quantities, x.shape[2]))
        codes = q
        for j in range(x.shape[2]):
            codes = _group_codes(codes, x[:, :, j].ravel())
        return codes

    a_codes, b_codes = symbol_codes(args[0]), symbol_codes(args[1])
    cond = symbol_codes(args[2]) if c is not None else q
    ac = _group_codes(cond, a_codes)
    bc = _group_codes(cond, b_codes)
    abc = _group_codes(ac, b_codes)
    rep = np.unique(abc, return_index=True)[1]  # one row of each cell
    n_abc = np.bincount(abc)
    ratio = (n_abc * np.bincount(cond)[cond[rep]]) / (
        np.bincount(ac)[ac[rep]] * np.bincount(bc)[bc[rep]])
    mi = np.bincount(q[rep], weights=n_abc * np.log(ratio), minlength=quantities) / rows
    return np.maximum(mi, 0.0)


# (row, subset) cells per estimator call in ``gathered_subset_mi``
_CELLS_PER_CALL = 2 ** 14


def gathered_subset_mi(table: TrialTable, subsets, use_weights: bool = False) -> np.ndarray:
    """I(target ; S_u) for each pair subset u, batched over subsets.

    The target is the predictions on u's pairs, or the learner's weight code
    when ``use_weights`` is set.
    """
    if use_weights and table.weight_code is None:
        raise ContractViolation("learner exposes no discrete weight code")
    subsets = np.asarray(subsets, dtype=np.int64)
    rows = table.masks.shape[0]
    pair_preds = table.preds.reshape(rows, table.n, 2)
    step = max(1, _CELLS_PER_CALL // rows)
    out = []
    for idx in np.split(subsets, range(step, len(subsets), step)):
        target = (table.weight_code if use_weights
                  else pair_preds[:, idx].reshape(rows, len(idx), -1))
        out.append(lexsort_plugin_mi(target, table.masks[:, idx]))
    return np.concatenate(out)


def gathered_split_cmi(table: TrialTable, all_pairs: bool = False) -> np.ndarray:
    """I(predictions ; S_i | S_-i) for every pair i, with pair-i or all-pair predictions."""
    n, rows = table.n, table.masks.shape[0]
    rest = np.array([[j for j in range(n) if j != i] for i in range(n)],
                    dtype=np.int64).reshape(n, n - 1)
    target = table.preds[:, None] if all_pairs else table.preds.reshape(rows, n, 2)
    return lexsort_plugin_mi(target, table.masks, table.masks[:, rest])


def gathered_mi_testslots(table: TrialTable) -> float:
    """I(predictions on the test slots only ; S)."""
    _, test_slots = split_slots(table.masks)
    test_preds = np.take_along_axis(table.preds, test_slots, axis=1)
    return float(lexsort_plugin_mi(test_preds[:, None], table.masks[:, None])[0])


# --- subset-size monotonicity of the exact subset bounds --------------------------


def verify_monotonicity_in_m(table: TrialTable, use_weights: bool = False,
                             tol: float = 1e-9) -> dict:
    """Subset-size monotonicity of the exact bound sequences.

    For phi(x) = sqrt(x) and phi(x) = x, computes m -> mean over all size-m
    subsets of phi(I(target; S_u) / m) and asserts each sequence is
    non-decreasing. The target is the subset's predictions, or the weight
    code when ``use_weights`` is set. ``table`` holds every split of one
    supersample (see ``fcmi.learners.fill_table``).
    """
    n = table.n
    estimate = weight_mi if use_weights else subset_mi
    sqrt_seq, id_seq = [], []
    for m in range(1, n + 1):
        vals = estimate(table, all_subsets(n, m)) / m
        sqrt_seq.append(float(np.mean(np.sqrt(vals))))
        id_seq.append(float(np.mean(vals)))
    ok = all(b - a >= -tol for a, b in zip(sqrt_seq, sqrt_seq[1:])) and \
        all(b - a >= -tol for a, b in zip(id_seq, id_seq[1:]))
    return {"sqrt": sqrt_seq, "identity": id_seq, "non_decreasing": ok}


# --- the reports of the retired per-bound wrappers -------------------------------
#
# Before each bound was declared whole in ``fcmi.harness.BOUNDS``, one wrapper
# per bound formed its report. This is their arithmetic, in their order:
# estimates to a float array, one form per supersample, then the mean and,
# over two or more supersamples, the standard deviation. The closed forms
# that read no information estimate are written out here as the README's
# bounds table states them.


def vc_fcmi_cap(d_vc: int, n: int) -> float:
    """Growth-function cap on f-CMI: max((d+1) log 2, d log(2 e n / d)) nats."""
    return max((d_vc + 1) * math.log(2.0), d_vc * math.log(2.0 * math.e * n / d_vc))


def det_stability_bound(s: dict) -> float:
    """2^(3/2) d^(1/4) sqrt(gamma beta) of the stability record ``s``."""
    return 2.0 ** 1.5 * s["d_out"] ** 0.25 * math.sqrt(s["gamma"] * s["beta"])


def det_stability_squared_bound(s: dict, n: int) -> float:
    """32/n + 12^(3/2) sqrt(d) gamma sqrt(2 b^2 + n b1^2 + n b2^2)."""
    inner = 2.0 * s["beta"] ** 2 + n * s["beta1"] ** 2 + n * s["beta2"] ** 2
    return 32.0 / n + 12.0 ** 1.5 * math.sqrt(s["d_out"]) * s["gamma"] * math.sqrt(inner)


PARENT_TAGS = {"fcmi_m1": "fcmi-m1", "fcmi_mn": "fcmi-mn", "fcmi_subset_m": "fcmi-subset-m",
               "fcmi_squared": "fcmi-squared", "cmi_weights": "cmi-weights",
               "fcmi_stability": "fcmi-stability",
               "fcmi_stability_squared": "fcmi-stability-squared", "vc": "vc-sauer-shelah",
               "ensemble_mn": "ensemble-sum", "det_stability": "det-stability",
               "det_stability_squared": "det-stability-squared"}


def wrapper_bound_report(name: str, config, values, meta: dict) -> BoundReport:
    """The report the wrapper of bound ``name`` formed from ``values``, the
    per-supersample estimates it reads (lists of floats, or None), and
    ``meta``: the run's estimator meta, with its subset policy and count and
    its stability record."""
    n, digest = config.n, {"mode": config.mode, "k2": config.k2, "loss": config.loss}
    rows = None if values is None else np.asarray(values, dtype=float)
    if name in ("fcmi_m1", "fcmi_stability"):
        per_ss = np.mean(np.sqrt(2.0 * rows), axis=1)
        inputs = {"k1": rows.shape[0], "n": rows.shape[1]}
    elif name in ("fcmi_mn", "cmi_weights"):
        rows = rows.reshape(1, -1).ravel()
        per_ss, inputs = np.sqrt(2.0 * rows / n), {"k1": rows.size, "n": n}
    elif name == "fcmi_subset_m":
        per_ss = np.mean(np.sqrt(2.0 * rows / config.subset_m), axis=1)
        inputs = {"k1": rows.shape[0], "m": config.subset_m, "subsets": rows.shape[1],
                  "subset_policy": meta["subset_policy"],
                  "subset_count": meta["subset_count"]}
    elif name == "fcmi_stability_squared":
        per_ss, inputs = (8.0 / n) * (np.sum(rows, axis=1) + 2.0), {"k1": rows.shape[0], "n": n}
    elif name == "ensemble_mn":
        sums = np.asarray([float(sum(float(v) for v in r)) for r in values])
        per_ss, inputs = np.sqrt(2.0 * sums / n), {"members": len(values[0]), "n": n}
    else:  # one value per run
        if name == "fcmi_squared":
            mean = float(np.mean(values))
            value, inputs = (8.0 / n) * (mean + 2.0), {"n": n, "fcmi_mean": mean}
        elif name == "vc":
            cap = vc_fcmi_cap(1, n)
            value, inputs = math.sqrt(2.0 * cap / n), {"d_vc": 1, "n": n, "fcmi_cap": cap}
        elif name == "det_stability":
            value, inputs = det_stability_bound(meta["stability"]), meta["stability"]
        else:
            value = det_stability_squared_bound(meta["stability"], n)
            inputs = meta["stability"]
        return BoundReport(name, value, None, {**inputs, **digest}, PARENT_TAGS[name])
    spread = float(np.std(per_ss, ddof=1)) if per_ss.size >= 2 else None
    return BoundReport(name, float(np.mean(per_ss)), spread, {**inputs, **digest},
                       PARENT_TAGS[name])


# --- one fit of a learner: one row of ``learners._fit_predict_rows`` --------------


@dataclass(frozen=True, eq=False)
class LearnerOutput:
    predictions: np.ndarray
    weight_code: int | None = None


def threshold_erm_fit(xs: np.ndarray, ys: np.ndarray) -> float:
    """Empirical-risk-minimizing threshold of (N, 1) features in [0, 1] and
    their (N,) labels; see ``_threshold_weights``."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 1:
        raise ContractViolation("threshold_erm needs 1-D features in [0, 1]")
    return float(_threshold_weights(xs.T, np.asarray(ys)[None])[0])


def where_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function in its two-division form: the stable quotient for
    each sign of z, chosen by a select. ``learners._sigmoid`` divides once."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def train_predict(spec: LearnerSpec, train_xs, train_ys, query_xs,
                  seed: int) -> LearnerOutput:
    """Train the specified learner on (N, d) inputs and (N,) labels, and
    predict on (Q, d) query inputs: one row of ``_fit_predict_rows``."""
    train_xs = np.asarray(train_xs, dtype=float)
    train_ys = np.asarray(train_ys, dtype=np.int64)
    query_xs = np.asarray(query_xs, dtype=float)
    if train_xs.ndim != 2 or train_xs.shape[0] == 0 or train_ys.shape != train_xs.shape[:1]:
        raise ContractViolation("training set must be nonempty (N, d) inputs, N labels")
    if query_xs.ndim != 2 or query_xs.shape[1] != train_xs.shape[1]:
        raise ContractViolation("feature dimensionality mismatch")
    preds, codes = _fit_predict_rows(spec, train_xs, train_ys,
                                     np.arange(len(train_ys))[None], query_xs, [seed])
    return LearnerOutput(preds[0], None if codes is None else int(codes[0]))


# --- one counter seed: numpy's own SeedSequence -----------------------------------


def seed_sequence_seed(seed: int, *path: int) -> int:
    """The child seed of ``seed`` at spawn key ``path``, from one SeedSequence:
    the reference for ``seeding.derive_seeds``."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
