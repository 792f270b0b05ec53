"""Closed-form generalization bounds from estimated information quantities.

Each ``*_bound`` function is pure: information estimates (or stability
constants) in, a bound value out. The averaging order matters and is fixed
here once: square roots are applied per (supersample, index/subset) first,
then averaged, which is the tightest stated form of each bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import ContractViolation, JsonFields, or_none


@dataclass(frozen=True)
class BoundReport(JsonFields):
    """A named bound value with its Monte Carlo spread across supersamples."""

    name: str
    value: float
    spread: float | None
    inputs_digest: dict
    tag: str

    PARSE = {"value": float, "spread": or_none(float)}

    def __post_init__(self) -> None:
        if self.value < 0 or math.isnan(self.value):
            raise ContractViolation(f"bound value must be >= 0, got {self.value}")


@dataclass(frozen=True)
class StabilityConstants:
    """Functional-stability constants of a deterministic real-output learner."""

    beta: float  # self-stability: RMS prediction shift at the replaced point
    beta1: float = 0.0  # test-stability: shift at a fresh test point
    beta2: float = 0.0  # train-stability: shift at another training point
    gamma: float = 1.0  # Lipschitz constant of the loss in the prediction
    d_out: int = 1  # prediction-vector dimension

    def __post_init__(self) -> None:
        if min(self.beta, self.beta1, self.beta2, self.gamma) < 0:
            raise ContractViolation("stability constants must be >= 0")
        if self.d_out < 1:
            raise ContractViolation("d_out must be >= 1")


def _rows(values) -> np.ndarray:
    """Normalize to a (k1, width) array: one row per supersample."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ContractViolation("expected scalar, vector, or (k1, width) matrix")
    if arr.size == 0:
        raise ContractViolation("empty estimate collection")
    if np.any(arr < 0) or np.any(np.isnan(arr)):
        raise ContractViolation("information estimates must be finite and >= 0")
    return arr


def _spread(per_supersample: np.ndarray) -> float | None:
    if per_supersample.size < 2:
        return None
    return float(np.std(per_supersample, ddof=1))


def fcmi_bound_m1(mi_per_index, digest: dict | None = None) -> BoundReport:
    """Single-pair bound: mean over pairs (and supersamples) of sqrt(2 * MI_i).

    ``mi_per_index`` is one row of n per-pair MI values per supersample.
    """
    rows = _rows(mi_per_index)
    per_ss = np.mean(np.sqrt(2.0 * rows), axis=1)
    return BoundReport(
        name="fcmi_m1", value=float(np.mean(per_ss)), spread=_spread(per_ss),
        inputs_digest={"k1": rows.shape[0], "n": rows.shape[1], **(digest or {})},
        tag="fcmi-m1")


def fcmi_bound_mn(fcmi_per_supersample, n: int, digest: dict | None = None) -> BoundReport:
    """Full-split bound: mean over supersamples of sqrt(2 * fCMI / n)."""
    rows = _rows(fcmi_per_supersample).ravel()
    per_ss = np.sqrt(2.0 * rows / n)
    return BoundReport(
        name="fcmi_mn", value=float(np.mean(per_ss)), spread=_spread(per_ss),
        inputs_digest={"k1": rows.size, "n": n, **(digest or {})},
        tag="fcmi-mn")


def fcmi_bound_general_m(mi_per_subset, m: int, digest: dict | None = None) -> BoundReport:
    """Size-m subset bound: mean over (supersample, subset) of sqrt(2 * MI / m).

    ``mi_per_subset`` is one row of subset-MI estimates per supersample; the
    subset family (enumerated or sampled) is recorded by the caller's digest.
    """
    if m < 1:
        raise ContractViolation("subset size m must be >= 1")
    rows = _rows(mi_per_subset)
    per_ss = np.mean(np.sqrt(2.0 * rows / m), axis=1)
    return BoundReport(
        name="fcmi_subset_m", value=float(np.mean(per_ss)), spread=_spread(per_ss),
        inputs_digest={"k1": rows.shape[0], "m": m, "subsets": rows.shape[1],
                       **(digest or {})},
        tag="fcmi-subset-m")


def fcmi_squared_bound(fcmi_mean: float, n: int, digest: dict | None = None) -> BoundReport:
    """Squared-gap bound (8 / n) * (mean fCMI + 2)."""
    if fcmi_mean < 0:
        raise ContractViolation("fCMI mean must be >= 0")
    return BoundReport(
        name="fcmi_squared", value=(8.0 / n) * (fcmi_mean + 2.0), spread=None,
        inputs_digest={"n": n, "fcmi_mean": float(fcmi_mean), **(digest or {})},
        tag="fcmi-squared")


def cmi_weight_bound(cmi_estimate, n: int, digest: dict | None = None) -> BoundReport:
    """Weight-level bound: mean over supersamples of sqrt(2 * CMI / n)."""
    return replace(fcmi_bound_mn(cmi_estimate, n, digest), name="cmi_weights",
                   tag="cmi-weights")


def stability_fcmi_bound(cmi_per_index, digest: dict | None = None) -> BoundReport:
    """Conditional single-pair bound: mean over pairs of sqrt(2 * I(.; S_i | S_-i))."""
    return replace(fcmi_bound_m1(cmi_per_index, digest), name="fcmi_stability",
                   tag="fcmi-stability")


def stability_fcmi_squared_bound(
    cmi_allpairs_per_index, n: int, digest: dict | None = None,
) -> BoundReport:
    """Squared-gap conditional bound (8 / n) * (mean_z sum_i CMI_i + 2).

    The per-index conditional MI here is measured with predictions on all
    2n slots, not only pair i.
    """
    rows = _rows(cmi_allpairs_per_index)
    per_ss = (8.0 / n) * (np.sum(rows, axis=1) + 2.0)
    return BoundReport(
        name="fcmi_stability_squared", value=float(np.mean(per_ss)),
        spread=_spread(per_ss),
        inputs_digest={"k1": rows.shape[0], "n": n, **(digest or {})},
        tag="fcmi-stability-squared")


def vc_fcmi_bound(d_vc: int, n: int) -> float:
    """Growth-function cap on f-CMI: max((d+1) log 2, d log(2 e n / d)) nats."""
    if d_vc < 1 or n < 1:
        raise ContractViolation("d_vc and n must be >= 1")
    return max((d_vc + 1) * math.log(2.0), d_vc * math.log(2.0 * math.e * n / d_vc))


def ensemble_fcmi_bound(per_learner_fcmi: Sequence[float]) -> float:
    """Sum of member MIs; bounds the combined predictor's MI with the split.

    Valid when the members use independent randomness, which the caller
    asserts.
    """
    vals = [float(v) for v in per_learner_fcmi]
    if not vals:
        raise ContractViolation("need at least one member estimate")
    if any(v < 0 for v in vals):
        raise ContractViolation("member MI estimates must be >= 0")
    return float(sum(vals))


def deterministic_stability_bound(c: StabilityConstants) -> float:
    """Gap bound 2^(3/2) * d^(1/4) * sqrt(gamma * beta) for a self-stable learner."""
    return 2.0 ** 1.5 * c.d_out ** 0.25 * math.sqrt(c.gamma * c.beta)


def deterministic_stability_squared_bound(c: StabilityConstants, n: int) -> float:
    """Squared-gap bound 32/n + 12^(3/2) sqrt(d) gamma sqrt(2 b^2 + n b1^2 + n b2^2)."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    inner = 2.0 * c.beta ** 2 + n * c.beta1 ** 2 + n * c.beta2 ** 2
    return 32.0 / n + 12.0 ** 1.5 * math.sqrt(c.d_out) * c.gamma * math.sqrt(inner)


def optimal_noise_variance(c: StabilityConstants) -> float:
    """Noise level beta / (2 sqrt(d) gamma) used by the noisy-wrapper analysis."""
    if c.gamma <= 0:
        raise ContractViolation("gamma must be > 0 to pick a noise level")
    return c.beta / (2.0 * math.sqrt(c.d_out) * c.gamma)
