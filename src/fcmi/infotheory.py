"""The plug-in estimator of discrete mutual information, and the quantities
of a trial table it estimates, all in nats.

Conventions: 0 * log 0 = 0, empty conditioning cells contribute zero, and the
estimate is the plain plug-in: no bias correction is applied.
Exact mode's quantities are the plug-in over every equally weighted split.
Only finite prediction alphabets reach this estimator; real-valued outputs
reach their bounds through the stability constants of
``learners.estimate_stability`` instead.

Every joint is counted from integer codes. A symbol's code is a number in the
lexicographic order of its columns, and a joint's code appends the quantity
index, the condition's code, the target's and the split's, so the occupied
cells come out in one lexicographic order however they are counted, and the
plug-in's sums run in that order.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import ContractViolation, TrialTable, _unsigned

_INT64_MAX = np.iinfo(np.int64).max

# Largest product-alphabet size for which a plug-in joint over prediction
# tuples and split bits is still considered estimable at desk-scale k2.
PLUGIN_ALPHABET_LIMIT = 2 ** 16


def _rank(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense rank of each integer in ``x``, in value order, and the number of
    distinct values."""
    values, rank = np.unique(x, return_inverse=True)
    return rank, values.size


# --- counting a joint and summing the plug-in --------------------------------


def _occupied(code: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of nonnegative int64 codes below ``size``,
    ascending, and how often each occurs: one ``bincount`` when the range is
    at most four times the codes, one sort otherwise."""
    if size > 4 * code.size:
        return np.unique(code, return_counts=True)
    counts = np.bincount(code)
    cells = np.flatnonzero(counts != 0)  # a bool scan is several times faster
    return cells, counts[cells]


def _packed_mi(cells, n_abc, radices, quantities: int, rows: int) -> np.ndarray:
    """Plug-in MI of each quantity from the occupied cells of the packed
    joint code ((q * rc + c) * ra + a) * rb + b, ascending, and their counts.

    The margins are read back by division; a margin whose code range exceeds
    the samples is re-ranked densely, so its counts take no more memory. The
    (c) and (c, a) margins ascend with the cells and are ranked by their runs.
    """
    rc, ra, rb = radices
    ac = cells // rb
    qc = ac // ra
    margins = [qc, ac, qc * rb + (cells - ac * rb)]
    for j, size in enumerate((rc, rc * ra, rc * rb)):
        if size <= rows:
            continue
        if j < 2:
            step = np.empty(cells.size, dtype=np.int64)
            step[0] = 0
            np.not_equal(margins[j][1:], margins[j][:-1], out=step[1:])
            margins[j] = np.cumsum(step, out=step)
        else:
            margins[j] = _rank(margins[j])[0]
    n_c, n_ac, n_bc = (np.bincount(m, weights=n_abc).astype(np.int64)[m] for m in margins)
    ratio = (n_abc * n_c) / (n_ac * n_bc)
    mi = np.bincount(qc // rc, weights=n_abc * np.log(ratio), minlength=quantities) / rows
    return np.maximum(mi, 0.0)


# int64 entries per code array in a batched count; bounds the scratch memory
# of one estimate when there are many quantities
_CELLS_PER_CALL = 2 ** 16


def _blocked_mi(quantities: int, rows: int, radices, joint) -> np.ndarray:
    """Plug-in MI of each quantity from its packed joint codes over ``rows``
    samples; ``joint(lo, hi)`` returns the int64 codes of quantities lo..hi-1
    with the quantity index counted from lo.

    Codes are built, counted and summed a few quantities at a time, about
    ``_CELLS_PER_CALL`` entries or one quantity's rows; each quantity's sum
    reads only its own cells, so the steps move no bit.
    """
    rc, ra, rb = radices
    step = max(1, _CELLS_PER_CALL // rows)
    out = []
    for lo in range(0, quantities, step):
        hi = min(lo + step, quantities)
        cells, counts = _occupied(joint(lo, hi), (hi - lo) * rc * ra * rb)
        out.append(_packed_mi(cells, counts, radices, hi - lo, rows))
    return np.concatenate(out)


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
# Each quantity's joint code is built arithmetically from codes of the whole
# table: a pair's prediction code (slot 0, slot 1), the split bits, the
# split-mask code and row codes of prediction tuples. The lexicographic order
# of the cells does not depend on which radices the codes use, so these give
# the bits of a plug-in that gathers the same symbols and folds them column by
# column.


# predictions spanning more values than this are replaced by their dense rank
# over the table; a rank keeps their order, and with it every cell's place in
# the lexicographic order and its count
_RANKED_SPAN = 2 ** 16


def _pred_digits(table: TrialTable) -> tuple[np.ndarray, int]:
    """The predictions as digits: a (T, 2n) array and their radix. Finite
    predictions are nonnegative (``TrialTable`` checks it) and are their own
    digits; predictions spanning more than ``_RANKED_SPAN`` values become
    their dense rank, from one sort over the table, so the radix is at most
    their number of distinct values."""
    preds = table.preds
    radix = int(preds.max()) + 1
    if radix <= _RANKED_SPAN:
        return preds, radix
    rank, radix = _rank(preds.ravel())
    return rank.reshape(preds.shape), radix


def _pair_codes(preds: np.ndarray, radix: int, dtype) -> np.ndarray:
    """Each pair's prediction code slot 0 * radix + slot 1, as an (n, T)
    array of ``dtype``."""
    code = np.multiply(preds[:, 0::2].T, radix, dtype=dtype, casting="unsafe", order="C")
    np.add(code, preds[:, 1::2].T, out=code, casting="unsafe")
    return code


def _append_digits(code: np.ndarray, digits: np.ndarray, radix: int) -> np.ndarray:
    """The int64 ``code`` with the columns of ``digits`` appended as
    base-``radix`` digits, in place: a column at a time, so the digits stay
    in their own dtype (a matmul would cast the whole block to int64)."""
    for j in range(digits.shape[1]):
        code *= radix
        code += digits[:, j]
    return code


def _row_codes(columns, k: int, radix: int, rows: int) -> tuple[np.ndarray, int]:
    """A code of each of ``rows`` rows of k integer columns in [0, radix), in
    the rows' lexicographic order, and the code's range: the mixed-radix code
    and radix^k when that is at most the rows, else their dense rank and
    their number of distinct values. ``columns(j0, j1)`` gives columns
    j0..j1-1 as a (T, j1 - j0) array, so a derived row need not exist whole.

    The columns are read a block at a time, as many columns as keep
    rows * radix^width within an int64 (at least one), and appended a digit
    at a time: the code so far times the radix, plus the digit, so a block
    stays in its own dtype. Once the columns so far span more values than
    the rows, the code is replaced by its dense rank, so it stays below the
    rows and the next block fits.
    """
    width = 1
    while width < k and rows * radix ** (width + 1) <= _INT64_MAX:
        width += 1
    code, size = np.zeros(rows, dtype=np.int64), 1
    for j0 in range(0, k, width):
        j1 = min(j0 + width, k)
        code = _append_digits(code, columns(j0, j1), radix)
        size *= radix ** (j1 - j0)
        if radix ** j1 > rows:  # the columns so far span more values than the rows
            code, size = _rank(code)
    return code, size


def _tuple_mi(a: tuple[np.ndarray, int], b: tuple[np.ndarray, int], rows: int) -> float:
    """Plug-in I(A; B) of two row codes with their ranges, each at most the
    rows."""
    code = a[0] * b[1] + b[0]
    return float(_blocked_mi(1, rows, (1, a[1], b[1]), lambda lo, hi: code)[0])


def _split_code(masks: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int]:
    """The row code of the split bits of u's pairs, with its range."""
    return _row_codes(lambda j0, j1: masks[:, u[j0:j1]], len(u), 2, len(masks))


def _full_split_code(table: TrialTable) -> tuple[np.ndarray, int]:
    """The row code of every pair's split bit, pair 0 most significant, with
    its range: made once per table and kept on it."""
    if table.split_code is None:
        object.__setattr__(table, "split_code", _split_code(table.masks, np.arange(table.n)))
    return table.split_code


def _subset_split_code(table: TrialTable, u: np.ndarray) -> tuple[np.ndarray, int]:
    """The row code of u's split bits: the table's full split code when u is
    every pair in order."""
    if len(u) == table.n and np.array_equal(u, np.arange(table.n)):
        return _full_split_code(table)
    return _split_code(table.masks, u)


def _enumerated(table: TrialTable) -> bool:
    """Whether the rows are every split once, in mask-code order: exact mode
    with one seed. Every row's split code is then its row index."""
    rows = len(table.masks)
    return rows == 2 ** table.n and np.array_equal(_full_split_code(table)[0], np.arange(rows))


def subset_mi(table: TrialTable, subsets) -> np.ndarray:
    """I(predictions on u's pairs ; S_u) for each pair subset u, batched over subsets.

    A subset's joint code is its prediction code followed by its split bits,
    a sum of one term per position in the subset: the pair's code and split
    bit, each weighted by its digit's place. The terms are tabled once per
    position for the pairs that occur there, and a block of subsets gathers
    and adds them. A lone subset, whose position tables no other subset
    would share, and subsets whose joint code would not fit an int64 are
    counted one at a time from row codes.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    quantities, m = subsets.shape
    masks = table.masks
    rows = masks.shape[0]
    preds, radix = _pred_digits(table)
    ra = radix ** (2 * m)
    size = ra * 2 ** m
    if quantities == 1 or quantities * size > _INT64_MAX:
        out = []
        for u in subsets:
            columns = np.stack([2 * u, 2 * u + 1], axis=1).ravel()  # u's slots
            target = _row_codes(lambda j0, j1: preds[:, columns[j0:j1]], 2 * m, radix, rows)
            out.append(_tuple_mi(target, _subset_split_code(table, u), rows))
        return np.array(out)
    dtype = _unsigned(size)
    codes = _pair_codes(preds, radix, dtype)
    tables, index = [], subsets.copy()
    for j in range(m):
        pairs = slice(None)
        if m > 1:  # table only the pairs that occur at this position
            seen = np.bincount(subsets[:, j], minlength=table.n) > 0
            index[:, j] = (np.cumsum(seen) - 1)[subsets[:, j]]
            pairs = np.flatnonzero(seen)
        # (code * radix^(2(m-1-j)) 2^(j+1) + bit) * 2^(m-1-j), the place of
        # the pair's split bit, in place; the factor reaches the size only
        # when every code is 0
        terms = codes[pairs]
        terms *= radix ** (2 * (m - 1 - j)) * 2 ** (j + 1) % size
        np.add(terms, masks.T[pairs], out=terms, casting="unsafe")
        terms *= 2 ** (m - 1 - j)
        tables.append(terms)

    def joint(lo, hi):
        code = tables[0][index[lo:hi, 0]]
        for j in range(1, m):
            code += tables[j][index[lo:hi, j]]
        return np.add(code, (np.arange(hi - lo) * size)[:, None], dtype=np.int64).ravel()

    return _blocked_mi(quantities, rows, (1, ra, 2 ** m), joint)


def weight_mi(table: TrialTable, subsets) -> np.ndarray:
    """I(W ; S_u) for each pair subset u, W the learner's weight code: the
    weight code's dense rank over the rows against the row code of u's split
    bits."""
    if table.weight_code is None:
        raise ContractViolation("learner exposes no discrete weight code")
    weights = _rank(table.weight_code)
    return np.array([_tuple_mi(weights, _subset_split_code(table, u), len(table.masks))
                     for u in np.asarray(subsets, dtype=np.int64)])


def _neighbour_cmi(target: np.ndarray, n: int) -> np.ndarray:
    """``split_cmi`` of an enumerated table from the (T,) or (n, T) codes of
    its target: row r's split code is r, so pair i's condition cells are the
    rows r and r XOR 2^(n-1-i). A cell whose two targets differ adds log 2
    for each of its two cells to the plug-in's sum, and one whose targets
    agree adds 0. So pair i's estimate is its k_i differing cells' 2 k_i
    copies of log 2, added one after another as the plug-in adds them, over
    the 2^n rows: the same bits.
    """
    rows = 2 ** n
    differing = np.empty(n, dtype=np.int64)
    for i in range(n):
        # the rows with pair i's bit 0 and 1 are the middle axis' two halves
        halves = (target if target.ndim == 1 else target[i]).reshape(2 ** i, 2, -1)
        differing[i] = np.count_nonzero(halves[:, 0] != halves[:, 1])
    # sums[m] is 0.0 plus m copies of log 2, added in turn
    logs = np.log(np.full(2 * differing.max() + 1, 2.0))
    logs[0] = 0.0
    return np.cumsum(logs)[2 * differing] / rows


def split_cmi(table: TrialTable, all_pairs: bool = False) -> np.ndarray:
    """I(predictions ; S_i | S_-i) for every pair i, with pair-i or all-pair predictions.

    The condition S_-i is one code per row: the split-mask code (pair 0 most
    significant) with bit i taken out, which orders the rows as the tuple
    S_-i does. The all-pair predictions are ranked once over the rows.
    Needs n * 2^n * (target alphabet) cells to fit an int64. The all-pair
    target's alphabet is at most the rows; the pair target's is d^2, where d
    is the predictions' span when that is at most 2^16 and their number of
    distinct values otherwise. At exact mode's n <= 20 this holds for d up
    to about 6.6e5; a finite learner predicts labels of the 2n points or 0.
    A table of every split once in mask-code order counts its pairs of
    neighbouring splits instead (``_neighbour_cmi``), with the same bits.
    """
    n, rows = table.n, table.masks.shape[0]
    preds, radix = _pred_digits(table)
    if all_pairs:
        target, ra = _row_codes(lambda a, b: preds[:, a:b], 2 * n, radix, rows)
    else:
        ra = radix ** 2
    if n * 2 ** n * ra > _INT64_MAX:
        raise ContractViolation(f"split_cmi needs n * 2^n * {ra} codes within int64 (n={n})")
    if not all_pairs:
        target = _pair_codes(preds, radix, _unsigned(ra))
    if _enumerated(table):
        return _neighbour_cmi(target, n)
    mask_code = _append_digits(np.zeros(rows, dtype=np.int64), table.masks, 2)

    def joint(lo, hi):
        # pair i's shift puts its bit last; the bits above it move down one
        shift = n - 1 - np.arange(lo, hi)[:, None]
        code = (np.arange(hi - lo)[:, None] << (n - 1)) + ((mask_code >> (shift + 1)) << shift)
        code += mask_code & ((1 << shift) - 1)
        code *= ra
        code += target if all_pairs else target[lo:hi]
        code *= 2
        code += (mask_code >> shift) & 1
        return code.ravel()

    return _blocked_mi(n, rows, (2 ** (n - 1), ra, 2), joint)


def mi_testslots(table: TrialTable) -> float:
    """I(predictions on the test slots only ; S)."""
    masks = table.masks
    preds, radix = _pred_digits(table)

    def test_slots(a, b):
        # pair i's test slot is slot 1 - S_i
        return np.where(masks[:, a:b].astype(bool), preds[:, 2 * a:2 * b:2],
                        preds[:, 2 * a + 1:2 * b:2])

    rows = len(masks)
    return _tuple_mi(_row_codes(test_slots, table.n, radix, rows), _full_split_code(table), rows)
