"""Exhaustive numerical verification of the information inequalities.

Every verifier evaluates both sides of its inequality exactly, by enumeration
over small discrete instances (alphabets <= 4, at most 5 independent binary
components), so each reported margin is exact up to float rounding. Instance
draws mix in boundary mass so near-deterministic corners are covered.

A verifier is a draw step and a margins step. The draw step makes a whole
sweep of instances with array calls, first every instance's shape, then each
part of all instances of one shape, and returns them grouped by shape, each
group's parts stacked on a leading axis. The margins step takes one such group
and returns one margin per instance. It repeats the operations of the
one-instance references kept with the tests in their order, so an instance
without zero cells gets the margin a scalar evaluation gives, to the bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, JsonFields

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


# --- instance draws ------------------------------------------------------------
#
# A draw step makes a whole sweep: ``draw(rng, count)`` draws every instance's
# shape in one call, then, per distinct shape, each part of all its instances
# in one call. It returns the instances grouped by shape, each group as the
# rows of the sweep it holds and its parts stacked on axis 0.

# instances grouped by shape: (rows of the sweep, parts stacked on axis 0)
Draw = list[tuple[np.ndarray, tuple[np.ndarray, ...]]]

# the patterns of 2..5 bits, in ``itertools.product`` order
_BIT_PATTERNS = {n: np.array(list(itertools.product((False, True), repeat=n)))
                 for n in range(2, 6)}


def _shapes(rng: np.random.Generator, count: int,
            *ranges: tuple[int, int]) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The shapes of ``count`` instances, dimension d uniform on
    ``range(*ranges[d])``; per shape drawn, the rows that have it."""
    low, high = np.array(ranges).T
    dims = rng.integers(low, high, (count, len(ranges)))
    return [(shape, rows) for shape in itertools.product(*(range(*r) for r in ranges))
            if (rows := np.flatnonzero((dims == shape).all(axis=1))).size]


def _mixed_probs(rng: np.random.Generator, lead: tuple[int, ...], size: int) -> np.ndarray:
    """A ``lead`` array of Dirichlet-uniform laws over ``size`` cells. With
    chance 1/4 a law keeps 0.05 of its mass and puts 0.95 on one uniformly
    drawn cell, to cover near-deterministic corners."""
    p = rng.dirichlet(np.ones(size), lead)
    boost = (rng.random(lead) < 0.25)[..., None]
    cell = np.arange(size) == rng.integers(size, size=lead)[..., None]
    p = np.where(boost, 0.05 * p + 0.95 * cell, p)
    return p / p.sum(axis=-1, keepdims=True)


def _draw_grids(rng: np.random.Generator, count: int) -> Draw:
    """Joint tables and payoff tables g over random (a, b) grids, 2 <= a, b <= 4."""
    return [(rows, (_mixed_probs(rng, (rows.size,), a * b).reshape(-1, a, b),
                    rng.uniform(-1.0, 1.0, (rows.size, a, b))))
            for (a, b), rows in _shapes(rng, count, (2, 5), (2, 5))]


def _draw_variables(rng: np.random.Generator, count: int) -> Draw:
    """Values and probabilities of zero-mean discrete variables on 2..5 points."""
    out = []
    for (size,), rows in _shapes(rng, count, (2, 6)):
        v = rng.uniform(-1.0, 1.0, (rows.size, size))
        p = _mixed_probs(rng, (rows.size,), size)
        # center exactly; vecdot takes each row's dot product as ``v @ p`` does
        out.append((rows, (v - np.vecdot(v, p)[:, None], p)))
    return out


def _draw_bits_joints(max_bits: int) -> Callable[[np.random.Generator, int], Draw]:
    """Draw step of joints over phi (2..4 values) and 2..max_bits independent
    bits, each 1 with probability in [0.1, 0.9]; the bit marginal factorizes
    by construction."""
    def draw(rng: np.random.Generator, count: int) -> Draw:
        out = []
        for (phi, n_bits), rows in _shapes(rng, count, (2, 5), (2, max_bits + 1)):
            bp = rng.uniform(0.1, 0.9, (rows.size, 1, n_bits))
            # each pattern's weight, multiplied out bit by bit in order
            w = np.where(_BIT_PATTERNS[n_bits], bp, 1.0 - bp).prod(axis=2)
            # one phi law per bit pattern, in product order
            cells = w[:, :, None] * _mixed_probs(rng, (rows.size, 2 ** n_bits), phi)
            # C order over (phi, b_1..b_n), the layout ``_probs`` sums in
            joint = np.ascontiguousarray(cells.transpose(0, 2, 1))
            out.append((rows, (_probs(joint.reshape((-1, phi) + (2,) * n_bits)),)))
        return out
    return draw


def _draw_kl_cells(rng: np.random.Generator, count: int) -> Draw:
    """(cells, 2, size) prediction laws under bit 0 and bit 1, and cell weights."""
    out = []
    for (n_cells, size), rows in _shapes(rng, count, (1, 5), (2, 5)):
        # strictly positive laws keep both KL directions finite
        laws = rng.dirichlet(np.ones(size), (rows.size, n_cells, 2)) * 0.9 + 0.1 / size
        laws = laws / laws.sum(axis=-1, keepdims=True)
        out.append((rows, (laws, _mixed_probs(rng, (rows.size,), n_cells))))
    return out


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
        raise ContractViolation("p has mass outside the support of q (KL = +inf)")
    # finite even in an unchecked cell, which then adds 0 * kl_sum = 0 to the cap
    kl_sum = _xlogy_ratio(p1, p0).sum(axis=2) + _xlogy_ratio(p0, p1).sum(axis=2)
    cmi, cap = 0.0, 0.0
    for c in range(n_cells):
        w = weights[:, c]
        cmi = cmi + w * mi[:, c]
        cap = cap + w * 0.25 * kl_sum[:, c]
    return cap - cmi


# --- sweeps ------------------------------------------------------------------------


# name -> (draw a sweep of instances, margins of a stack of equally shaped instances)
VERIFIERS: dict[str, tuple[Callable[[np.random.Generator, int], Draw], Callable]] = {
    "dv_inequality": (_draw_grids, _dv_both_margins),
    "squared_inequality": (_draw_grids, _squared_margins),
    "subgaussian_square": (_draw_variables, _subgaussian_margins),
    "erasure": (_draw_bits_joints(3), _erasure_margins),
    "hans_subset": (_draw_bits_joints(5), _hans_margins),
    "kl_decomposition": (_draw_kl_cells, _kl_margins),
}


def _sweep_margins(name: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """Margins of ``count`` instances of one verifier, in the order they were drawn.

    The draw step returns the instances grouped by shape; each group is
    evaluated in one call of the margins step.
    """
    draw, margins = VERIFIERS[name]
    out = np.empty(count)
    for rows, parts in draw(rng, count):
        out[rows] = margins(*parts)
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
