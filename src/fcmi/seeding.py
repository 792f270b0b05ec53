"""Counter seeds and split masks: numpy's own seed streams, computed over arrays.

``derive_seeds(seed, *path)`` is, element by element,
``SeedSequence(entropy=seed, spawn_key=path).generate_state(1, np.uint64)``,
and ``split_masks(seeds, n)`` is ``np.random.default_rng(s).integers(0, 2, n)``
for each seed. Neither builds a generator object per element: SeedSequence's
hash is fixed 32-bit integer arithmetic, and PCG64 is a 128-bit linear
congruential generator whose k-th state has a closed form (O'Neill 2014), so
both run as numpy arithmetic over all elements at once and give the same bits.
``Generator.integers`` is not frozen across numpy versions, so the tests pin
these streams against the installed numpy.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import ContractViolation

_MASK32 = 0xFFFFFFFF

# SeedSequence's hashmix/mix constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

# PCG64's 128-bit multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# (row, output) cells per block of PCG64 outputs in ``split_masks``; bounds the
# scratch memory of the 128-bit limb arithmetic
_MASK_BLOCK = 2 ** 12


# SeedSequence works in uint32; here each 32-bit word is held in a uint64
# array and reduced mod 2^32 after every product or difference, which keeps
# all of this module's arithmetic on one integer type.


def _hashmixer(start: int, mult: int):
    """SeedSequence's hashmix as ``calls`` successive calls, one per row of the
    (calls, N) array that ``values`` broadcasts to: the multiplier advances on
    every call, as the one it keeps does."""
    const = start

    def hashmix(values: np.ndarray, calls: int) -> np.ndarray:
        nonlocal const
        consts = [const]
        for _ in range(calls):
            const = (const * mult) & _MASK32
            consts.append(const)
        consts = np.array(consts, dtype=np.uint64)[:, None]
        values = values ^ consts[:-1]
        values *= consts[1:]
        values &= _MASK32
        values ^= values >> _XSHIFT
        return values

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result &= _MASK32
    result ^= result >> _XSHIFT
    return result


def _generate_state(entropy: np.ndarray, count: int) -> np.ndarray:
    """``generate_state(count, np.uint32)`` of the SeedSequences whose
    assembled entropy words are the rows of the (L, N) array ``entropy``:
    a (count, N) array."""
    hashmix = _hashmixer(_INIT_A, _MULT_A)
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint64)
    pool[:len(entropy)] = entropy[:_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    # mix every pool word into every other, then any entropy past the pool; a
    # source word is hashed once per destination, in destination order
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], len(dst)))
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, hashmix(word, _POOL_SIZE))
    return _hashmixer(_INIT_B, _MULT_B)(pool[np.arange(count) % _POOL_SIZE], count)


def _words(x, width: int) -> list:
    """Little-endian 32-bit words of the nonnegative integers ``x``: every
    word of a scalar of any size (0 is one word), or the low ``width`` (1 or
    2) words of each value of an integer array, whose values must fit them."""
    if np.ndim(x) == 0:
        value = int(x)
        if value < 0:
            raise ContractViolation(f"seeds must be nonnegative integers, got {value}")
        words = [value & _MASK32]
        while value >> 32 * len(words):
            words.append((value >> 32 * len(words)) & _MASK32)
        return words
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        raise ContractViolation(f"seed arrays must hold integers below 2^64, got {x.dtype}")
    if x.dtype.kind == "i" and x.size and x.min() < 0:
        raise ContractViolation("seeds must be nonnegative integers")
    x = x.astype(np.uint64)
    if width == 1 and x.size and x.max() > _MASK32:
        raise ContractViolation(f"counter arrays must hold values below 2^32, got {x.max()}")
    return [x & _MASK32, x >> 32][:width]


def _seed_state(args, count: int) -> np.ndarray:
    """``SeedSequence(entropy=args[0], spawn_key=args[1:]).generate_state(count,
    np.uint32)`` for each element of the broadcast ``args``: a (count, *shape)
    uint64 array of 32-bit words.

    Every element's entropy has one layout: an array seed is two words, an
    array counter one and a scalar its own words. A seed below 2^32 keeps
    numpy's bits as two words, because SeedSequence hashes a zero word into
    each pool slot the entropy leaves empty and a spawn key pads the run
    entropy with zero words to the pool size.
    """
    shape = np.broadcast_shapes(*(np.shape(x) for x in args))
    entropy = _words(args[0], 2)
    if len(args) > 1:  # a spawn key pads the run entropy to the pool size
        entropy += [0] * (_POOL_SIZE - len(entropy))
    for x in args[1:]:
        entropy += _words(x, 1)
    stacked = np.empty((len(entropy), 1) + shape, dtype=np.uint64)
    for row, words in zip(stacked, entropy):
        row[...] = words
    return _generate_state(stacked.reshape(len(entropy), -1), count).reshape((count,) + shape)


def derive_seeds(seed, *path) -> np.ndarray:
    """Counter-style child seeds, stable across platforms and schedules.

    Element-wise ``SeedSequence(entropy=seed, spawn_key=path)
    .generate_state(1, np.uint64)[0]`` over the broadcast arguments. Each
    argument is a nonnegative integer of any size or an integer array: an
    array of seeds below 2^64, an array of counters in ``path`` below 2^32.
    Returns uint64 values of the broadcast shape (a numpy scalar when every
    argument is a scalar).
    """
    low, high = _seed_state((seed, *path), 2)
    return low | (high << 32)


# --- PCG64 --------------------------------------------------------------------
#
# A 128-bit value is four 32-bit limbs, least significant first, each held in
# a uint64 array so that a limb product and a few sums fit.


def _limbs(value: int) -> list[int]:
    return [(value >> 32 * i) & _MASK32 for i in range(4)]


def _carry(columns) -> list[np.ndarray]:
    """Column sums of 32-bit digits, reduced mod 2^128 to four limbs."""
    out, carry = [], 0
    for column in columns:
        column = column + carry
        out.append(column & _MASK32)
        carry = column >> 32
    return out


def _mul_add(a, x, b, y) -> list[np.ndarray]:
    """a·x + b·y mod 2^128; the limb arrays broadcast."""
    columns = [0] * 4
    for u, v in ((a, x), (b, y)):
        for i in range(4):
            for j in range(4 - i):
                product = u[i] * v[j]
                if i + j < 3:
                    columns[i + j + 1] += product >> 32
                product &= _MASK32
                columns[i + j] += product
    return _carry(columns)


@functools.lru_cache(maxsize=8)
def _jump_table(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Limbs of M^k and S_k = M^0 + ... + M^(k-1) mod 2^128 for k = 1..steps,
    as two read-only (4, steps) uint64 arrays: k steps take a state s to
    M^k·s + S_k·inc."""
    power, total, values = 1, 0, []
    for _ in range(steps):
        total = (total + power) & ((1 << 128) - 1)
        power = (power * _PCG_MULT) & ((1 << 128) - 1)
        values += [power, total]
    limbs = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), dtype="<u4")
    limbs = limbs.reshape(steps, 2, 4).astype(np.uint64).transpose(1, 2, 0).copy()
    limbs.flags.writeable = False
    return limbs[0], limbs[1]


def split_masks(seeds, n: int) -> np.ndarray:
    """(R, n) uint8 split masks; row r is bit for bit
    ``np.random.default_rng(seeds[r]).integers(0, 2, n)``.

    PCG64 is seeded from ``SeedSequence(s).generate_state(4, np.uint64)``:
    words 0-1 are the initial state and words 2-3 the stream, and output k is
    the XSL-RR permutation of the state k + 1 steps after seeding. A range-2
    draw takes the top bit of a 32-bit half and never rejects, so mask bits
    2k and 2k + 1 are the top bits of output k's low and high halves.
    """
    seeds = np.asarray(seeds)
    if seeds.ndim != 1:
        raise ContractViolation("split_masks needs a (R,) array of seeds")
    if n < 1:
        raise ContractViolation(f"split masks need n >= 1 bits, got {n}")
    words = list(_seed_state((seeds,), 8))
    # generate_state(4, uint64) is words (w0 | w1 << 32, w2 | w3 << 32, ...);
    # the state is the first pair with the first word high, the stream the second
    init_state = words[2:4] + words[0:2]
    init_seq = words[6:8] + words[4:6]
    inc = [(init_seq[0] << 1 | 1) & _MASK32] + [
        ((init_seq[i] << 1) | (init_seq[i - 1] >> 31)) & _MASK32 for i in range(1, 4)]
    # srandom: state = (inc + initstate)·M + inc
    start = _mul_add(_carry([s + i for s, i in zip(init_state, inc)]), _limbs(_PCG_MULT),
                     _limbs(1), inc)
    outputs = (n + 1) // 2
    out_step = min(outputs, _MASK_BLOCK)
    row_step = max(1, _MASK_BLOCK // out_step)
    power, total = _jump_table(out_step)
    masks = np.empty((len(seeds), 2 * outputs), dtype=np.uint8)
    for lo in range(0, len(seeds), row_step):
        rows = slice(lo, lo + row_step)
        base = [s[rows, None] for s in start]
        step = [i[rows, None] for i in inc]
        for k0 in range(0, outputs, out_step):
            kb = min(out_step, outputs - k0)
            state = _mul_add(power[:, :kb], base, total[:, :kb], step)
            # XSL-RR: rotate (high 64 ^ low 64) right by the top 6 state bits;
            # bit b of the output is bit (b + rot) mod 64 of the unrotated word
            folded = ((state[1] ^ state[3]) << 32) | (state[0] ^ state[2])
            rot = state[3] >> 26
            masks[rows, 2 * k0:2 * (k0 + kb):2] = folded >> ((rot + 31) & 63) & 1
            masks[rows, 2 * k0 + 1:2 * (k0 + kb):2] = folded >> ((rot + 63) & 63) & 1
            base = [s[:, -1:] for s in state]
    return np.ascontiguousarray(masks[:, :n])
