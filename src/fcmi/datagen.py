"""Synthetic data sources with known structure, so closed-form oracles exist."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ContractViolation, Supersample

GENERATOR_KINDS = ("two_gaussians", "threshold_realizable", "uniform_labels")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ContractViolation(f"unknown generator kind {self.kind!r}")
        p = self.params
        noise = p.get("noise", 0.0)
        if not 0.0 <= noise <= 0.5:
            raise ContractViolation("label noise rate must be in [0, 0.5]")
        if p.get("dim", 1) < 1:
            raise ContractViolation("dim must be >= 1")
        if self.kind == "threshold_realizable":
            w = p.get("threshold", 0.5)
            if not 0.0 <= w <= 1.0:
                raise ContractViolation("true threshold must be in [0, 1]")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GeneratorSpec":
        return cls(kind=d["kind"], params=dict(d.get("params", {})))


def _flip(labels: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    if noise == 0.0:
        return labels
    flips = rng.random(labels.shape) < noise
    return np.where(flips, 1 - labels, labels)


def sample_examples(gen: GeneratorSpec, count: int,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` i.i.d. draws from the generator, deterministic per seed: inputs
    (count, d) float64 and labels (count,) int64."""
    if count < 1:
        raise ContractViolation("count must be >= 1")
    rng = np.random.default_rng(seed)
    p = gen.params
    if gen.kind == "two_gaussians":
        dim = int(p.get("dim", 2))
        sep = float(p.get("sep", 2.0))
        labels = rng.integers(0, 2, count)
        means = np.zeros((count, dim))
        means[:, 0] = (2 * labels - 1) * (sep / 2.0)  # class means at +/-(sep/2) e1
        xs = means + rng.standard_normal((count, dim))
        ys = _flip(labels, float(p.get("noise", 0.0)), rng)
    elif gen.kind == "threshold_realizable":
        w = float(p.get("threshold", 0.5))
        xs = rng.random((count, 1))
        labels = (xs[:, 0] > w).astype(np.int64)
        ys = _flip(labels, float(p.get("noise", 0.0)), rng)
    elif gen.kind == "uniform_labels":
        dim = int(p.get("dim", 1))
        xs = rng.random((count, dim))
        ys = rng.integers(0, 2, count)
    else:  # pragma: no cover
        raise ContractViolation(f"unknown generator kind {gen.kind!r}")
    return xs, ys


def sample_supersample(gen: GeneratorSpec, n: int, seed: int) -> Supersample:
    """2n i.i.d. draws arranged into n pairs."""
    return Supersample(*sample_examples(gen, 2 * n, seed))


def bayes_error_two_gaussians(sep: float, noise: float = 0.0) -> float:
    """Closed-form optimal error for the two-Gaussians source."""
    base = 0.5 * math.erfc(sep / (2.0 * math.sqrt(2.0)))
    return (1 - noise) * base + noise * (1 - base)
