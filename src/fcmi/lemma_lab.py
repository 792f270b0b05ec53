"""Exhaustive numerical verification of the information inequalities.

Every verifier evaluates both sides of its inequality exactly, by enumeration
over small discrete instances (alphabets <= 4, at most 5 independent binary
components), so each reported margin is exact up to float rounding. Instance
samplers mix in boundary mass so near-deterministic corners are covered.

A verifier is a draw step and a margins step. The draw makes one random
instance, a tuple of arrays; the margins step takes instances of one shape
stacked on a leading axis and returns one margin per instance. A sweep draws
all of its instances from one random stream first, then evaluates each group
of equal shapes at once. The margins steps repeat the operations of the
scalar references kept with the tests in their order, so an instance without
zero cells gets the margin a scalar evaluation gives, to the bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, JsonFields
from .infotheory import AbsoluteContinuityError

MARGIN_TOL = -1e-9
# lam values at which the subgaussian-square margin is evaluated
_LAM_GRID = 64


@dataclass(frozen=True)
class MarginReport(JsonFields):
    """Aggregate outcome of one verifier over many random instances."""

    lemma: str
    instances: int
    min_margin: float
    violations: int


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
                     max_alphabet: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """A joint table and a payoff table g over the same (a, b) grid."""
    a = int(rng.integers(2, max_alphabet + 1))
    b = int(rng.integers(2, max_alphabet + 1))
    joint = _random_probs(rng, a * b).reshape(a, b)
    g = rng.uniform(-1.0, 1.0, (a, b))
    return joint, g


def _independent_bits_joint(rng: np.random.Generator, phi_size: int,
                            n_bits: int) -> np.ndarray:
    """Joint over (phi, b_1..b_n) whose bit marginal factorizes by construction."""
    bit_probs = rng.uniform(0.1, 0.9, n_bits)
    joint = np.zeros((phi_size,) + (2,) * n_bits)
    for bits in itertools.product((0, 1), repeat=n_bits):
        w = math.prod(p if s else 1.0 - p for p, s in zip(bit_probs, bits))
        joint[(slice(None),) + bits] = w * _random_probs(rng, phi_size)
    return joint / joint.sum()


def _draw_variable(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Values and probabilities of a zero-mean discrete variable on 2..5 points."""
    size = int(rng.integers(2, 6))
    v = rng.uniform(-1.0, 1.0, size)
    p = _random_probs(rng, size)
    return v - float(v @ p), p  # center exactly


def _draw_bits_joint(max_bits: int) -> Callable[[np.random.Generator], tuple[np.ndarray]]:
    """Sampler of a joint over phi (2..4 values) and 2..max_bits independent bits."""
    def draw(rng: np.random.Generator) -> tuple[np.ndarray]:
        n_bits = int(rng.integers(2, max_bits + 1))
        phi = int(rng.integers(2, 5))
        return (_independent_bits_joint(rng, phi, n_bits),)
    return draw


def _draw_kl_cells(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(cells, 2, size) prediction laws under bit 0 and bit 1, and cell weights."""
    n_cells = int(rng.integers(1, 5))
    size = int(rng.integers(2, 5))
    cells = []
    for _ in range(n_cells):
        # strictly positive laws keep both KL directions finite
        p0 = rng.dirichlet(np.ones(size)) * 0.9 + 0.1 / size
        p1 = rng.dirichlet(np.ones(size)) * 0.9 + 0.1 / size
        cells.append((p0 / p0.sum(), p1 / p1.sum()))
    w = _random_probs(rng, n_cells)
    return np.array(cells), w


# --- exact measures over stacks of joints ----------------------------------------
#
# Each function takes instances stacked on axis 0 and repeats, per instance,
# the operations of its scalar reference in the tests in the same order.
# Only the 0 * log 0 terms differ: they are added as zeros instead of being
# left out, which can move a sum over eight or more cells in its last bit.


def _probs(joint: np.ndarray) -> np.ndarray:
    """Each joint of the stack divided by its total mass.

    The total is reduced over the joint's own memory layout, not a copy in
    index order: a full ``sum`` of one instance adds in that layout's order.
    """
    if np.any(joint < 0):
        raise ContractViolation("joint entries must be nonnegative")
    total = joint.sum(axis=tuple(range(1, joint.ndim)))
    if np.any(total <= 0):
        raise ContractViolation("joint must have positive total mass")
    return joint / total.reshape((-1,) + (1,) * (joint.ndim - 1))


def _xlogy_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p * log(p / q) where p > 0 and q > 0, else 0."""
    ratio = np.divide(p, q, out=np.ones_like(p), where=(p > 0) & (q > 0))
    return p * np.log(ratio)


def _mi(joint: np.ndarray) -> np.ndarray:
    """I(A; B) of each (A, B) joint of an (N, A, B) stack."""
    p = _probs(joint)
    outer = p.sum(axis=2)[:, :, None] * p.sum(axis=1)[:, None, :]
    val = _xlogy_ratio(p, outer).reshape(p.shape[0], -1).sum(axis=1)
    return np.maximum(val, 0.0)


def _cmi(joint3: np.ndarray) -> np.ndarray:
    """I(A; B | C) of each (A, B, C) joint of a stack; empty C-cells add zero."""
    p = _probs(joint3)
    total = 0.0
    for c in range(p.shape[3]):
        cell = p[..., c]
        w = cell.sum(axis=(1, 2))
        # an empty cell is a uniform stand-in of weight w = 0: it adds 0 * I = 0
        given_c = np.divide(cell, w[:, None, None], out=np.ones_like(cell),
                            where=(w > 0)[:, None, None])
        total = total + w * _mi(given_c)
    return total


def _mi_nd(joint: np.ndarray) -> np.ndarray:
    """I(axis 1 ; all remaining axes) of each joint of a stack."""
    return _mi(joint.reshape(joint.shape[0], joint.shape[1], -1))


def _cmi_bit_given_rest(joint: np.ndarray, i: int) -> np.ndarray:
    """I(phi ; bit i | other bits) of each joint over (phi, b_1..b_n) of a stack."""
    moved = np.moveaxis(joint, i + 2, 2)
    return _cmi(moved.reshape(moved.shape[0], moved.shape[1], 2, -1))


def _mi_bits_subset(joint: np.ndarray, subset: Sequence[int]) -> np.ndarray:
    """I(phi ; bits in subset) of each joint of a stack, other bits marginalized out."""
    drop = tuple(ax for ax in range(2, joint.ndim) if ax - 2 not in set(subset))
    marg = joint.sum(axis=drop) if drop else joint
    return _mi_nd(marg)


def _py_square(x: np.ndarray) -> np.ndarray:
    """``s ** 2`` of each entry as a Python float: libm ``pow``.

    ``pow`` rounds differently from ``s * s`` in the last bit for about one
    value in a thousand, and the margins keep the scalar formulas' bits.
    """
    return np.array([s ** 2 for s in x.tolist()])


def _center_rows(g: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g minus its per-row mean under pb, and the largest per-row half-range."""
    centered = g - g @ pb[:, :, None]
    return centered, (centered.max(axis=2) - centered.min(axis=2)).max(axis=1) / 2.0


def _flat_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each stacked instance's entries, as ``np.sum`` of one instance."""
    return x.reshape(x.shape[0], -1).sum(axis=1)


def _isclose_one(total: np.ndarray, rel_tol: float, abs_tol: float) -> np.ndarray:
    """``math.isclose(total, 1.0, rel_tol=rel_tol, abs_tol=abs_tol)`` per entry."""
    return np.abs(total - 1.0) <= np.maximum(rel_tol * np.maximum(np.abs(total), 1.0),
                                             abs_tol)


# --- margins over stacked instances ------------------------------------------------


def _dv_margins(joint: np.ndarray, g: np.ndarray,
                center_per_phi: bool = False) -> np.ndarray:
    """Margins of |E g - E_indep g| <= sqrt(2 sigma^2 I(phi; psi)) over (N, a, b)."""
    pa = joint.sum(axis=2)
    pb = joint.sum(axis=1)
    if center_per_phi:
        g, sigma = _center_rows(g, pb)
    else:
        sigma = (g.max(axis=(1, 2)) - g.min(axis=(1, 2))) / 2.0
    lhs = np.abs(_flat_sum(joint * g) - (pa[:, None, :] @ g @ pb[:, :, None])[:, 0, 0])
    rhs = np.sqrt(2.0 * _py_square(sigma) * _mi(joint))
    return rhs - lhs


def _dv_both_margins(joint: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The worse of the plain and the per-phi-centered DV margins."""
    return np.minimum(_dv_margins(joint, g), _dv_margins(joint, g, center_per_phi=True))


def _squared_margins(joint: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Margins of E[(g - E_psi g)^2] <= 4 sigma^2 (I(phi; psi) + log 3) over (N, a, b)."""
    centered, sigma = _center_rows(g, joint.sum(axis=1))
    lhs = _flat_sum(joint * centered ** 2)
    rhs = 4.0 * _py_square(sigma) * (_mi(joint) + math.log(3.0))
    return rhs - lhs


def _subgaussian_margins(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Margins of E exp(lam X^2) <= 1 + 8 lam sigma^2 for (N, size) values and
    probs, over ``_LAM_GRID`` points of lam in [0, 1/(4 sigma^2))."""
    if np.any(np.abs(np.vecdot(v, p)) > 1e-12):
        raise ContractViolation("X must have zero mean")
    sigma = (v.max(axis=1) - v.min(axis=1)) / 2.0
    zero = sigma == 0  # X identically zero: both sides are 1 at every lam
    sigma_sq = _py_square(np.where(zero, 1.0, sigma))
    lam = (1.0 / (4.0 * sigma_sq))[:, None] * np.arange(_LAM_GRID) / _LAM_GRID
    lhs = np.sum(p[:, None, :] * np.exp(lam[:, :, None] * (v ** 2)[:, None, :]), axis=2)
    rhs = 1.0 + 8.0 * lam * sigma_sq[:, None]
    return np.where(zero, 0.0, (rhs - lhs).min(axis=1))


def _erasure_margins(joint: np.ndarray) -> np.ndarray:
    """Worst erasure-information margin of each joint over (phi, b_1..b_n)."""
    n_bits = joint.ndim - 2
    cmis = [_cmi_bit_given_rest(joint, i) for i in range(n_bits)]
    margin = sum(cmis) - _mi_nd(joint)
    for i in range(n_bits):
        margin = np.minimum(margin, cmis[i] - _mi_bits_subset(joint, [i]))
    return margin


def _hans_margins(joint: np.ndarray) -> np.ndarray:
    """Worst subset-monotonicity margin of each joint over (phi, b_1..b_n)."""
    n_bits = joint.ndim - 2
    # every u below needs the MI of u and of each u \ {k}: compute each once
    mi = {u: _mi_bits_subset(joint, u)
          for size in range(1, n_bits + 1)
          for u in itertools.combinations(range(n_bits), size)}
    margin = np.full(joint.shape[0], math.inf)
    for size in range(2, n_bits + 1):
        for u in itertools.combinations(range(n_bits), size):
            rhs = sum(mi[tuple(j for j in u if j != k)] for k in u) / (size - 1)
            margin = np.minimum(margin, mi[u] - rhs)
    return margin


def _kl_margins(laws: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Margins of the symmetrized-KL cap over the exact conditional MI.

    ``laws`` is (N, cells, 2, size): per cell, the prediction laws under bit 0
    and bit 1; ``weights`` is (N, cells). A cell of weight 0 adds nothing to
    the cap and is not checked.
    """
    n, n_cells, _, size = laws.shape
    p0, p1 = laws[:, :, 0], laws[:, :, 1]
    joint = 0.5 * np.stack([p0, p1], axis=3)  # C order, as the scalar form stacks it
    mi = _mi(joint.reshape(n * n_cells, size, 2)).reshape(n, n_cells)
    if np.any(weights < 0) or not np.all(_isclose_one(weights.sum(axis=1), 1e-9, 1e-9)):
        raise ContractViolation("cell weights must be a distribution over cells")
    live = weights != 0
    totals = laws.sum(axis=3)[live]
    bad = ~_isclose_one(totals, 1e-9, 1e-12)
    if np.any(bad):
        raise ContractViolation(f"probabilities sum to {totals[bad][0]}, not 1")
    if np.any(live[:, :, None] & ((p0 > 0) != (p1 > 0))):
        raise AbsoluteContinuityError("p has mass outside the support of q (KL = +inf)")
    # finite even in an unchecked cell, which then adds 0 * kl_sum = 0 to the cap
    kl_sum = _xlogy_ratio(p1, p0).sum(axis=2) + _xlogy_ratio(p0, p1).sum(axis=2)
    cmi, cap = 0.0, 0.0
    for c in range(n_cells):
        w = weights[:, c]
        cmi = cmi + w * mi[:, c]
        cap = cap + w * 0.25 * kl_sum[:, c]
    return cap - cmi


# --- sweeps ------------------------------------------------------------------------


# name -> (draw one instance, margins of a stack of equally shaped instances)
VERIFIERS: dict[str, tuple[Callable[[np.random.Generator], tuple], Callable]] = {
    "dv_inequality": (_random_instance, _dv_both_margins),
    "squared_inequality": (_random_instance, _squared_margins),
    "subgaussian_square": (_draw_variable, _subgaussian_margins),
    "erasure": (_draw_bits_joint(3), _erasure_margins),
    "hans_subset": (_draw_bits_joint(5), _hans_margins),
    "kl_decomposition": (_draw_kl_cells, _kl_margins),
}


def _sweep_margins(name: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """Margins of ``count`` instances of one verifier, in the order they were drawn.

    Every instance is drawn first, then each group of equal shapes is stacked
    and evaluated in one call of the margins step.
    """
    draw, margins = VERIFIERS[name]
    instances = [draw(rng) for _ in range(count)]
    groups: dict[tuple, list[int]] = {}
    for i, inst in enumerate(instances):
        groups.setdefault(tuple(part.shape for part in inst), []).append(i)
    out = np.empty(count)
    for rows in groups.values():
        out[rows] = margins(*(np.stack(parts) for parts in
                              zip(*(instances[i] for i in rows))))
    return out


def _run_many(name: str, count: int, seed: int) -> MarginReport:
    margins = _sweep_margins(name, count, np.random.default_rng(seed))
    return MarginReport(lemma=name, instances=count, min_margin=float(margins.min()),
                        violations=int(np.count_nonzero(margins < MARGIN_TOL)))


def run_all_verifiers(instances: int = 1000, seed: int = 0) -> list[MarginReport]:
    """All inequality verifiers over fresh random instances; one report each."""
    if instances < 1:
        raise ContractViolation(f"instances must be >= 1, got {instances}")
    if seed < 0:
        raise ContractViolation(f"seed must be >= 0, got {seed}")
    return [_run_many(name, instances, seed + idx) for idx, name in enumerate(VERIFIERS)]
