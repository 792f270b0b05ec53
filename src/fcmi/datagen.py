"""Synthetic data sources with known structure, so closed-form oracles exist."""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, ContractViolation, KindSpec, Supersample

# the closed range of each bounded generator parameter
_RANGES = {"noise": (0.0, 0.5), "dim": (1, math.inf), "threshold": (0.0, 1.0)}


class GeneratorSpec(KindSpec):
    NOUN = "data"
    KINDS = {
        "two_gaussians": {"dim": 2, "sep": 2.0, "noise": 0.0},
        "threshold_realizable": {"threshold": 0.5, "noise": 0.0},
        "uniform_labels": {"dim": 1},
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        for name, value in self.params.items():
            lo, hi = _RANGES.get(name, (-math.inf, math.inf))
            if not lo <= value <= hi:
                raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value!r}")


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
    if gen.kind == "two_gaussians":
        dim, sep = gen.param("dim"), gen.param("sep")
        labels = rng.integers(0, 2, count)
        means = np.zeros((count, dim))
        means[:, 0] = (2 * labels - 1) * (sep / 2.0)  # class means at +/-(sep/2) e1
        xs = means + rng.standard_normal((count, dim))
        ys = _flip(labels, gen.param("noise"), rng)
    elif gen.kind == "threshold_realizable":
        xs = rng.random((count, 1))
        labels = (xs[:, 0] > gen.param("threshold")).astype(np.int64)
        ys = _flip(labels, gen.param("noise"), rng)
    elif gen.kind == "uniform_labels":
        xs = rng.random((count, gen.param("dim")))
        ys = rng.integers(0, 2, count)
    else:  # pragma: no cover
        raise ContractViolation(f"unknown generator kind {gen.kind!r}")
    return xs, ys


def sample_supersample(gen: GeneratorSpec, n: int, seed: int) -> Supersample:
    """2n i.i.d. draws arranged into n pairs."""
    return Supersample(*sample_examples(gen, 2 * n, seed))
