"""The bound report type and the closed forms that read no information estimate.

Each bound is declared whole in ``fcmi.harness.BOUNDS`` (its per-supersample
form, digest inputs and tag), and ``fcmi.harness._assemble_bounds`` forms
every ``BoundReport``. Here are the VC cap on f-CMI and the stability bounds
of a deterministic real-output learner those declarations call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def vc_fcmi_bound(d_vc: int, n: int) -> float:
    """Growth-function cap on f-CMI: max((d+1) log 2, d log(2 e n / d)) nats."""
    if d_vc < 1 or n < 1:
        raise ContractViolation("d_vc and n must be >= 1")
    return max((d_vc + 1) * math.log(2.0), d_vc * math.log(2.0 * math.e * n / d_vc))


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
    """Noise level beta / (2 sqrt(d) gamma) of the Gaussian smoothing that
    the analysis of stable deterministic algorithms adds in its proof."""
    if c.gamma <= 0:
        raise ContractViolation("gamma must be > 0 to pick a noise level")
    return c.beta / (2.0 * math.sqrt(c.d_out) * c.gamma)
