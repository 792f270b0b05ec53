"""Exhaustive numerical verification of the information inequalities.

Every verifier evaluates both sides of its inequality exactly, by enumeration
over small discrete instances (alphabets <= 4, at most 5 independent binary
components), so each reported margin is exact up to float rounding. Instance
samplers mix in boundary mass so near-deterministic corners are covered.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, TrialTable
from .infotheory import (
    all_subsets,
    conditional_mutual_information,
    mutual_information,
    subset_mi,
)

MARGIN_TOL = -1e-9


@dataclass(frozen=True)
class MarginReport:
    """Aggregate outcome of one verifier over many random instances."""

    lemma: str
    instances: int
    min_margin: float
    violations: int

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "instances": self.instances,
            "min_margin": self.min_margin,
            "violations": self.violations,
        }


@dataclass(frozen=True)
class DiscreteJointInstance:
    """A finite joint over (phi, psi) with a bounded payoff table g."""

    joint: np.ndarray  # (A, B) probabilities
    g: np.ndarray  # same shape, finite reals

    def __post_init__(self) -> None:
        joint = np.asarray(self.joint, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if joint.shape != g.shape or joint.ndim != 2:
            raise ContractViolation("joint and g must be matching 2-D tables")
        if np.any(joint < 0) or not math.isclose(joint.sum(), 1.0, abs_tol=1e-12):
            raise ContractViolation("joint must be a probability table")
        if not np.all(np.isfinite(g)):
            raise ContractViolation("g must be finite")

    @property
    def sigma(self) -> float:
        """Half the range of g: the subgaussian constant of a bounded variable."""
        return (float(self.g.max()) - float(self.g.min())) / 2.0


# --- instance samplers --------------------------------------------------------


def _random_probs(rng: np.random.Generator, size: int) -> np.ndarray:
    """Dirichlet-uniform probabilities, occasionally pushed toward the boundary."""
    p = rng.dirichlet(np.ones(size))
    if rng.random() < 0.25:
        # concentrate most mass on one cell to cover near-deterministic corners
        k = rng.integers(size)
        p = 0.05 * p
        p[k] += 0.95
    return p / p.sum()


def _random_instance(rng: np.random.Generator,
                     max_alphabet: int = 4) -> DiscreteJointInstance:
    a = int(rng.integers(2, max_alphabet + 1))
    b = int(rng.integers(2, max_alphabet + 1))
    joint = _random_probs(rng, a * b).reshape(a, b)
    g = rng.uniform(-1.0, 1.0, (a, b))
    return DiscreteJointInstance(joint, g)


def _independent_bits_joint(rng: np.random.Generator, phi_size: int,
                            n_bits: int) -> np.ndarray:
    """Joint over (phi, b_1..b_n) whose bit marginal factorizes by construction."""
    bit_probs = rng.uniform(0.1, 0.9, n_bits)
    joint = np.zeros((phi_size,) + (2,) * n_bits)
    for bits in itertools.product((0, 1), repeat=n_bits):
        w = math.prod(p if s else 1.0 - p for p, s in zip(bit_probs, bits))
        joint[(slice(None),) + bits] = w * _random_probs(rng, phi_size)
    return joint / joint.sum()


# --- exact helpers -------------------------------------------------------------


def _mi_nd(joint: np.ndarray) -> float:
    """I(axis 0 ; all remaining axes) of an exact joint array."""
    flat = joint.reshape(joint.shape[0], -1)
    return mutual_information(flat)


def _cmi_bit_given_rest(joint: np.ndarray, i: int) -> float:
    """I(phi ; bit i | other bits) of a joint over (phi, b_1..b_n)."""
    moved = np.moveaxis(joint, i + 1, 1)
    return conditional_mutual_information(moved.reshape(moved.shape[0], 2, -1))


def _mi_bits_subset(joint: np.ndarray, subset: Sequence[int]) -> float:
    """I(phi ; bits in subset) after marginalizing the other bits out."""
    drop = tuple(ax for ax in range(1, joint.ndim) if ax - 1 not in set(subset))
    marg = joint.sum(axis=drop) if drop else joint
    return _mi_nd(marg)


# --- verifiers ------------------------------------------------------------------


def verify_dv_inequality(inst: DiscreteJointInstance,
                         center_per_phi: bool = False) -> float:
    """Margin of |E g - E_indep g| <= sqrt(2 sigma^2 I(phi; psi)).

    With ``center_per_phi`` the payoff is centered per phi-row first and the
    subgaussian constant tightens to the largest per-row half-range.
    """
    joint = inst.joint
    g = inst.g.copy()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    if center_per_phi:
        row_means = g @ pb
        g = g - row_means[:, None]
        ranges = g.max(axis=1) - g.min(axis=1)
        sigma = float(ranges.max()) / 2.0
    else:
        sigma = inst.sigma
    lhs = abs(float(np.sum(joint * g)) - float(pa @ g @ pb))
    rhs = math.sqrt(2.0 * sigma ** 2 * mutual_information(joint))
    return rhs - lhs


def verify_squared_inequality(inst: DiscreteJointInstance) -> float:
    """Margin of E[(g - E_psi g)^2] <= 4 sigma^2 (I(phi; psi) + log 3).

    sigma is the smallest constant valid uniformly over phi: the largest
    per-row half-range of g.
    """
    joint = inst.joint
    g = inst.g
    pb = joint.sum(axis=0)
    row_means = g @ pb
    centered = g - row_means[:, None]
    sigma = float((centered.max(axis=1) - centered.min(axis=1)).max()) / 2.0
    lhs = float(np.sum(joint * centered ** 2))
    rhs = 4.0 * sigma ** 2 * (mutual_information(joint) + math.log(3.0))
    return rhs - lhs


def verify_subgaussian_square(values: Sequence[float], probs: Sequence[float],
                              grid_points: int = 64) -> float:
    """Margin of E exp(lam X^2) <= 1 + 8 lam sigma^2 over a lam grid.

    X must be a zero-mean bounded discrete variable; sigma is its half-range
    and lam sweeps [0, 1/(4 sigma^2)).
    """
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    if abs(float(v @ p)) > 1e-12:
        raise ContractViolation("X must have zero mean")
    sigma = (float(v.max()) - float(v.min())) / 2.0
    if sigma == 0:
        return 0.0  # X identically zero: both sides are 1 at every lam
    lam_max = 1.0 / (4.0 * sigma ** 2)
    margin = math.inf
    for k in range(grid_points):
        lam = lam_max * k / grid_points
        lhs = float(np.sum(p * np.exp(lam * v ** 2)))
        rhs = 1.0 + 8.0 * lam * sigma ** 2
        margin = min(margin, rhs - lhs)
    return margin


def verify_erasure_lemma(joint: np.ndarray) -> float:
    """Margins of the erasure-information inequalities, for independent bits.

    Checks I(phi; psi) <= sum_i I(phi; psi_i | psi_-i) and, per index,
    I(phi; psi_i) <= I(phi; psi_i | psi_-i). Returns the worst margin.
    """
    n_bits = joint.ndim - 1
    cmis = [_cmi_bit_given_rest(joint, i) for i in range(n_bits)]
    margin = sum(cmis) - _mi_nd(joint)
    for i in range(n_bits):
        margin = min(margin, cmis[i] - _mi_bits_subset(joint, [i]))
    return margin


def verify_hans_subset_inequality(joint: np.ndarray) -> float:
    """Margin of I(phi; S_u') >= (1/m) sum_k I(phi; S_u'\\{k}) over all subsets."""
    n_bits = joint.ndim - 1
    margin = math.inf
    for size in range(2, n_bits + 1):
        for u in itertools.combinations(range(n_bits), size):
            lhs = _mi_bits_subset(joint, u)
            rhs = sum(_mi_bits_subset(joint, [j for j in u if j != k])
                      for k in u) / (size - 1)
            margin = min(margin, lhs - rhs)
    return margin


def verify_kl_decomposition(
    cells: Sequence[tuple[Sequence[float], Sequence[float]]],
    weights: Sequence[float] | None = None,
) -> float:
    """Margin of the symmetrized-KL cap over the exact conditional MI.

    ``cells`` lists, per conditioning value, the prediction laws under bit 0
    and bit 1 (mutually absolutely continuous).
    """
    from .bounds import stability_kl_decomposition

    if weights is None:
        weights = [1.0 / len(cells)] * len(cells)
    cmi = 0.0
    for w, (p0, p1) in zip(weights, cells):
        joint = 0.5 * np.stack([np.asarray(p0, float), np.asarray(p1, float)], axis=1)
        cmi += w * mutual_information(joint)
    cap = stability_kl_decomposition(cells, weights)
    return cap - cmi


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
    sqrt_seq, id_seq = [], []
    for m in range(1, n + 1):
        vals = subset_mi(table, all_subsets(n, m), use_weights) / m
        sqrt_seq.append(float(np.mean(np.sqrt(vals))))
        id_seq.append(float(np.mean(vals)))
    ok = all(b - a >= -tol for a, b in zip(sqrt_seq, sqrt_seq[1:])) and \
        all(b - a >= -tol for a, b in zip(id_seq, id_seq[1:]))
    return {"sqrt": sqrt_seq, "identity": id_seq, "non_decreasing": ok}


# --- batch runners ---------------------------------------------------------------


def _run_many(name: str, count: int, margin_fn: Callable[[np.random.Generator], float],
              seed: int) -> MarginReport:
    rng = np.random.default_rng(seed)
    min_margin = math.inf
    violations = 0
    for _ in range(count):
        margin = margin_fn(rng)
        min_margin = min(min_margin, margin)
        if margin < MARGIN_TOL:
            violations += 1
    return MarginReport(lemma=name, instances=count,
                        min_margin=float(min_margin), violations=violations)


def _dv_margin(rng: np.random.Generator) -> float:
    inst = _random_instance(rng)
    plain = verify_dv_inequality(inst)
    centered = verify_dv_inequality(inst, center_per_phi=True)
    return min(plain, centered)


def _squared_margin(rng: np.random.Generator) -> float:
    return verify_squared_inequality(_random_instance(rng))


def _subgaussian_margin(rng: np.random.Generator) -> float:
    size = int(rng.integers(2, 6))
    v = rng.uniform(-1.0, 1.0, size)
    p = _random_probs(rng, size)
    v = v - float(v @ p)  # center exactly
    return verify_subgaussian_square(v, p)


def _erasure_margin(rng: np.random.Generator) -> float:
    n_bits = int(rng.integers(2, 4))
    phi = int(rng.integers(2, 5))
    return verify_erasure_lemma(_independent_bits_joint(rng, phi, n_bits))


def _hans_margin(rng: np.random.Generator) -> float:
    n_bits = int(rng.integers(2, 6))
    phi = int(rng.integers(2, 5))
    return verify_hans_subset_inequality(_independent_bits_joint(rng, phi, n_bits))


def _kl_margin(rng: np.random.Generator) -> float:
    n_cells = int(rng.integers(1, 5))
    size = int(rng.integers(2, 5))
    cells = []
    for _ in range(n_cells):
        # strictly positive laws keep both KL directions finite
        p0 = rng.dirichlet(np.ones(size)) * 0.9 + 0.1 / size
        p1 = rng.dirichlet(np.ones(size)) * 0.9 + 0.1 / size
        cells.append((p0 / p0.sum(), p1 / p1.sum()))
    w = _random_probs(rng, n_cells)
    return verify_kl_decomposition(cells, w)


VERIFIERS: dict[str, Callable[[np.random.Generator], float]] = {
    "dv_inequality": _dv_margin,
    "squared_inequality": _squared_margin,
    "subgaussian_square": _subgaussian_margin,
    "erasure": _erasure_margin,
    "hans_subset": _hans_margin,
    "kl_decomposition": _kl_margin,
}


def run_all_verifiers(instances: int = 1000, seed: int = 0) -> list[MarginReport]:
    """All inequality verifiers over fresh random instances; one report each."""
    return [
        _run_many(name, instances, fn, seed + idx)
        for idx, (name, fn) in enumerate(VERIFIERS.items())
    ]
