"""The plug-in estimator of discrete mutual information, and the quantities
of a trial table it estimates, all in nats.

Conventions: 0 * log 0 = 0, empty conditioning cells contribute zero, and the
plain plug-in estimator is the default (Miller-Madow correction behind a flag).
Exact mode's quantities are the plug-in over every equally weighted split.
Only finite prediction alphabets reach this estimator; real-valued outputs
reach their bounds through the stability constants of
``learners.estimate_stability`` instead.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import ContractViolation, TrialTable, split_slots

_INT64_MAX = np.iinfo(np.int64).max

# Largest product-alphabet size for which a plug-in joint over prediction
# tuples and split bits is still considered estimable at desk-scale k2.
PLUGIN_ALPHABET_LIMIT = 2 ** 16


class AbsoluteContinuityError(ValueError):
    """KL divergence is +inf: p puts mass where q has none."""


def _sorted_rank(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense rank of each integer in ``x``, in value order, and the number of
    distinct values."""
    # any sort gives these ranks; the stable one is the sort the lexsort fold
    # ran, and numpy's default int64 sort loads more library code (peak RSS)
    order = np.argsort(x, kind="stable")
    srt = x[order]
    new = np.empty(x.size, dtype=bool)
    new[0] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    counts = np.cumsum(new)
    rank = np.empty(x.size, dtype=np.int64)
    rank[order] = counts - 1
    return rank, int(counts[-1])


def _dense_rank(code: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Dense rank of nonnegative codes below ``size``, in code order, and the
    number of distinct codes."""
    if size <= code.size:
        # occupancy: a cumulative count over the code range
        seen = np.zeros(size, dtype=bool)
        seen[code] = True
        rank = np.cumsum(seen)
        rank -= 1
        return rank[code], int(rank[-1]) + 1
    return _sorted_rank(code)


def _lex_codes(columns) -> np.ndarray:
    """Dense rank of each row's tuple of integer columns, the first column
    most significant; equal tuples share a code.

    The columns fold in one at a time as digits of an int64 mixed-radix code:
    each is offset by its minimum, with radix max - min + 1. When the next
    digit would overflow int64, the code is re-ranked densely first, which
    keeps its order.
    """
    code, size = None, 1
    for col in columns:
        lo, hi = int(col.min()), int(col.max())
        radix = hi - lo + 1
        if max(hi, radix) > _INT64_MAX:  # not an int64 after the offset
            digit, radix = _sorted_rank(col)
        elif lo == 0 and col.dtype == np.int64:
            digit = col  # read only, never updated in place
        else:
            digit = np.subtract(col, lo, dtype=np.int64)
        if code is None:
            code, size = digit, radix
            continue
        if size * radix > _INT64_MAX:
            code, size = _dense_rank(code, size)
            if size * radix > _INT64_MAX:
                digit, radix = _dense_rank(digit, radix)
        code = code * radix
        code += digit
        size *= radix
    return _dense_rank(code, size)[0]


def _representatives(codes: np.ndarray) -> np.ndarray:
    """One row index per code."""
    rep = np.empty(int(codes.max()) + 1, dtype=np.int64)
    rep[codes] = np.arange(codes.size)
    return rep


def _one_pass_cells(symbols, rows: int, quantities: int):
    """Occupied cells of the joint over (quantity, c, a, b), counted over one
    mixed-radix code of all their columns.

    Each column is offset by its minimum, with radix max - min + 1. Returns
    None when the code's range exceeds the samples (the test ``_dense_rank``
    applies) or a column is not an int64 after its offset; the radices are
    read before any code is built.
    """
    parts, radices, size = [], [], 1
    for x in symbols:
        bounds, radix = [], 1
        for j in range(0 if x is None else x.shape[2]):
            # one column at a time, so a wide joint stops at its first overflow
            lo, hi = int(x[:, :, j].min()), int(x[:, :, j].max())
            radix *= hi - lo + 1
            if hi > _INT64_MAX or size * radix > rows:  # > rows * quantities codes
                return None
            bounds.append((lo, hi))
        parts.append((x, bounds))
        radices.append(radix)
        size *= radix
    code = np.empty((rows, quantities), dtype=np.int64)
    code[:] = np.arange(quantities)
    for x, bounds in parts:
        for j, (lo, hi) in enumerate(bounds):
            code *= hi - lo + 1
            col = x[:, :, j]
            code += (col if lo == 0 and np.can_cast(col.dtype, np.int64)
                     else np.subtract(col, lo, dtype=np.int64))
    rc, ra, rb = radices
    counts = np.bincount(code.ravel())
    cells = np.flatnonzero(counts)
    ac = cells // rb
    qc = ac // ra
    return qc // rc, counts[cells], (qc, ac, qc * rb + cells % rb)


def _folded_cells(symbols, rows: int, quantities: int):
    """Occupied cells of the joint over (quantity, c, a, b), from dense ranks
    of each symbol folded pairwise."""
    q = np.tile(np.arange(quantities), rows)

    def symbol_codes(x: np.ndarray) -> np.ndarray:
        # codes of (q, symbol); the columns are materialized one at a time
        x = np.broadcast_to(x, (rows, quantities, x.shape[2]))
        columns = (x[:, :, j].ravel() for j in range(x.shape[2]))
        return _lex_codes(itertools.chain([q], columns))

    c, a, b = symbols
    a_codes, b_codes = symbol_codes(a), symbol_codes(b)
    cond = q if c is None else symbol_codes(c)
    ac = _lex_codes([cond, a_codes])
    bc = _lex_codes([cond, b_codes])
    abc = _lex_codes([ac, b_codes])
    rep = _representatives(abc)
    return q[rep], np.bincount(abc), (cond[rep], ac[rep], bc[rep])


def plugin_mi(a, b, c=None, bias_correction: bool = False) -> np.ndarray:
    """Plug-in I(A; B), or I(A; B | C) when ``c`` is given, for Q quantities.

    Each argument is a (T,), (T, Q) or (T, Q, k) integer array: entry [t, q]
    is sample t of quantity q's symbol, which spans k integer columns. A (T,)
    array is one symbol shared by every quantity, and the arguments broadcast
    over Q. The T rows are equally weighted. Only occupied cells are counted,
    so alphabet sizes never matter. ``bias_correction`` adds the Miller-Madow
    correction, which is defined for the unconditional form only. Returns the
    Q values in nats.

    The occupied (quantity, c, a, b) cells come in lexicographic order from
    either counting path, so every sum runs in one order and gives the same
    bits.
    """
    args = [np.asarray(x) for x in ((a, b) if c is None else (a, b, c))]
    if any(x.ndim not in (1, 2, 3) or not np.issubdtype(x.dtype, np.integer)
           for x in args):
        raise ContractViolation("symbols must be (T,), (T, Q) or (T, Q, k) integer arrays")
    if bias_correction and c is not None:
        raise ContractViolation("the Miller-Madow correction is for unconditional MI")
    args = [x.reshape(x.shape + (1,) * (3 - x.ndim)) for x in args]
    rows = args[0].shape[0]
    if rows < 1:
        raise ContractViolation("need at least one sample row")
    quantities = max(x.shape[1] for x in args)
    symbols = (args[2] if c is not None else None, args[0], args[1])
    cells = _one_pass_cells(symbols, rows, quantities)
    q, n_abc, margins = cells or _folded_cells(symbols, rows, quantities)
    # each cell's (c), (c, a) and (c, b) margin counts
    n_c, n_ac, n_bc = (np.bincount(m, weights=n_abc).astype(np.int64)[m] for m in margins)
    ratio = (n_abc * n_c) / (n_ac * n_bc)
    mi = np.bincount(q, weights=n_abc * np.log(ratio), minlength=quantities) / rows
    mi = np.maximum(mi, 0.0)
    if bias_correction:
        occ_a, occ_b = (np.bincount(q[np.unique(m, return_index=True)[1]],
                                    minlength=quantities) for m in margins[1:])
        occ_ab = np.bincount(q, minlength=quantities)
        mi = np.maximum(mi + ((occ_a - 1) + (occ_b - 1) - (occ_ab - 1)) / (2 * rows), 0.0)
    return mi


def product_alphabet_size(alphabet_size: int, m: int) -> int:
    """Cells of the (prediction tuple, split bits) joint for an m-pair subset."""
    return alphabet_size ** (2 * m) * 2 ** m


def all_subsets(n: int, m: int) -> list[tuple[int, ...]]:
    """All size-m subsets of range(n), lexicographic."""
    if not 1 <= m <= n:
        raise ContractViolation(f"subset size m={m} outside [1, {n}]")
    return list(itertools.combinations(range(n), m))


# --- quantities of a trial table ----------------------------------------------
#
# Both modes read one table with the same estimator: exact mode's uniform law
# over every split (and seed) is the plug-in over its equally weighted rows.

# (row, subset) cells per estimator call in ``subset_mi``; bounds the scratch
# memory of one call when there are many subsets.
_CELLS_PER_CALL = 2 ** 14


def subset_mi(table: TrialTable, subsets, use_weights: bool = False) -> np.ndarray:
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
        out.append(plugin_mi(target, table.masks[:, idx]))
    return np.concatenate(out)


def split_cmi(table: TrialTable, all_pairs: bool = False) -> np.ndarray:
    """I(predictions ; S_i | S_-i) for every pair i, with pair-i or all-pair predictions."""
    n, rows = table.n, table.masks.shape[0]
    rest = np.array([[j for j in range(n) if j != i] for i in range(n)],
                    dtype=np.int64).reshape(n, n - 1)
    target = table.preds[:, None] if all_pairs else table.preds.reshape(rows, n, 2)
    return plugin_mi(target, table.masks, table.masks[:, rest])


def mi_testslots(table: TrialTable) -> float:
    """I(predictions on the test slots only ; S)."""
    _, test_slots = split_slots(table.masks)
    test_preds = np.take_along_axis(table.preds, test_slots, axis=1)
    return float(plugin_mi(test_preds[:, None], table.masks[:, None])[0])
