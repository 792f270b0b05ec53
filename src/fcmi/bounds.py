"""The bound report type and the closed forms that read no information estimate.

Each bound is declared whole in ``fcmi.harness.BOUNDS`` (its per-supersample
form, digest inputs and tag), and ``fcmi.harness._assemble_bounds`` forms
every ``BoundReport`` from the config, the supersample estimates and
``estimator_meta``. Here are the VC cap on f-CMI and the stability bounds of
a deterministic real-output learner, which read the run's stability record
``estimator_meta["stability"]``: beta, beta1 and beta2 as
``learners.estimate_stability`` gives them, the loss's Lipschitz constant
gamma and the prediction dimension d_out.
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


def vc_fcmi_bound(d_vc: int, n: int) -> float:
    """Growth-function cap on f-CMI: max((d+1) log 2, d log(2 e n / d)) nats."""
    if d_vc < 1 or n < 1:
        raise ContractViolation("d_vc and n must be >= 1")
    return max((d_vc + 1) * math.log(2.0), d_vc * math.log(2.0 * math.e * n / d_vc))


def deterministic_stability_bound(s: dict) -> float:
    """Gap bound 2^(3/2) * d^(1/4) * sqrt(gamma * beta) for a self-stable learner."""
    return 2.0 ** 1.5 * s["d_out"] ** 0.25 * math.sqrt(s["gamma"] * s["beta"])


def deterministic_stability_squared_bound(s: dict, n: int) -> float:
    """Squared-gap bound 32/n + 12^(3/2) sqrt(d) gamma sqrt(2 b^2 + n b1^2 + n b2^2)."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    inner = 2.0 * s["beta"] ** 2 + n * s["beta1"] ** 2 + n * s["beta2"] ** 2
    return 32.0 / n + 12.0 ** 1.5 * math.sqrt(s["d_out"]) * s["gamma"] * math.sqrt(inner)


def optimal_noise_variance(s: dict) -> float:
    """Noise level beta / (2 sqrt(d) gamma) of the Gaussian smoothing that
    the analysis of stable deterministic algorithms adds in its proof."""
    if s["gamma"] <= 0:
        raise ContractViolation("gamma must be > 0 to pick a noise level")
    return s["beta"] / (2.0 * math.sqrt(s["d_out"]) * s["gamma"])
