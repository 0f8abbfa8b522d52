"""The cold-start initializer: a pure function of ``(seed, key)``.

Algorithm 1 lines 6-12 create an entry on the first pull of an unseen
key. Its weights here are ``uniform(-scale, scale)`` drawn from a
generator seeded by the key itself,

    np.random.default_rng((seed, key)).uniform(-scale, scale, dim)

cast to ``float32`` — so a key's first weights do not depend on which
node creates it, in what order, or after how many crashes, and a serving
replica can state the row of a key it never stored. Everything that
needs those weights calls :func:`key_seeded_rows`; the formula above
occurs in ``src/`` once, below.

Constructing a numpy ``Generator`` costs ~12 us, so a block of keys is
not drawn through numpy's generator: :func:`_block_rows` restates
numpy's own pipeline as array arithmetic over the whole key column and
is **bit-equal** to it (``tests/test_initializer.py`` pins that against
numpy itself, which is what lets trained weights, checkpoints and the
recorded benchmark states survive this module):

1. ``SeedSequence((seed, key))``: seed and key are cut into little-endian
   ``uint32`` words (zero is one word, a key below ``2**32`` one, a wider
   key two), hashed into a four-word pool (``hashmix`` / ``mix``: xor,
   multiply, xor-shift by 16 under a running multiplier), and
   ``generate_state`` hashes the pool out into four ``uint64`` words.
2. ``PCG64``: words 0-1 are the initial state, 2-3 the stream; ``inc =
   stream << 1 | 1``, ``state = (inc + initial) * MULT + inc``, all mod
   ``2**128`` — kept as ``uint64`` high / low limbs, the one full 64 x 64
   product taken in 32-bit halves.
3. Per output word: ``state = state * MULT + inc``; XSL-RR (``high ^
   low`` rotated right by ``high >> 58``); ``(word >> 11) * 2**-53`` is
   the double in ``[0, 1)``; ``low + (high - low) * u``; the ``float32``
   cast.

The array form pays a fixed ~18 us of numpy-call overhead per generator
step — ``dim`` output words plus about six steps' worth of seeding —
whatever the block holds, so blocks below :func:`block_min` keys — the
trickle of a few new ids in a warm pull — keep numpy's generator. Its
constant is read off ``scripts/bench_create.py`` (block vs per-key
microseconds at n = 1, 4, 16, 64, 8192); it selects between two
evaluations of one function and is not configuration.

This module imports neither ``pmem/`` nor ``network/``.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator

import numpy as np

from repro.errors import ConfigError

_KEYS_PER_STEP = 1.5
"""How many of numpy's per-key generators (~12 us each) cost what one
generator step of the array form costs in fixed overhead (~18 us)."""

_SEEDING_STEPS = 6
"""The array form's seeding (SeedSequence + PCG64 ``srandom``), in steps."""

_CHUNK = 8192
"""Keys per pass of the array form: bounds its temporaries (~30 columns
of ``_CHUNK * 8`` bytes) however long the block is."""

# numpy/random/bit_generator.pyx (SeedSequence) and pcg64.h.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = np.uint64(0xFFFFFFFF)
_U32, _U11, _U58, _U63, _ONE = (np.uint64(v) for v in (32, 11, 58, 63, 1))
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO0, _PCG_MULT_LO1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> _U32


def block_min(dim: int) -> int:
    """Fewest keys of one width that are drawn in the array form: where
    its fixed cost, ``dim + 6`` steps, is what that many per-key
    generators cost (33 keys at dim 16, 105 at dim 64)."""
    return math.ceil(_KEYS_PER_STEP * (dim + _SEEDING_STEPS))


def key_seeded_rows(seed: int, keys: np.ndarray, scale: float, dim: int) -> np.ndarray:
    """Initial weights of ``keys``: ``float32[len(keys), dim]``.

    Row ``i`` equals ``np.random.default_rng((seed, keys[i])).uniform(
    -scale, scale, dim).astype(np.float32)`` bit for bit, for any block
    size; a repeated key repeats its row.

    Raises:
        ConfigError: negative ``seed``, or a ``scale`` that is negative,
            not finite, or too large for ``2 * scale`` to be finite.
    """
    if seed < 0:
        raise ConfigError(f"initializer seed must be >= 0, got {seed}")
    if not (scale >= 0 and math.isfinite(2.0 * scale)):
        raise ConfigError(f"initializer scale must be finite and >= 0, got {scale}")
    keys = np.asarray(keys, dtype=np.uint64)
    if scale == 0:
        # uniform(-0, 0) is +0.0 in every word: no draw to make.
        return np.zeros((len(keys), dim), dtype=np.float32)
    fewest = block_min(dim)
    if len(keys) < fewest:
        return _per_key_rows(seed, keys, scale, dim)
    rows = np.empty((len(keys), dim), dtype=np.float32)
    for lo in range(0, len(keys), _CHUNK):
        chunk = keys[lo : lo + _CHUNK]
        # The entropy is one word longer for a wide key: two populations,
        # each drawn in the form its own size calls for.
        wide = chunk > _MASK32
        for part in (np.flatnonzero(~wide), np.flatnonzero(wide)):
            if len(part):
                draw = _per_key_rows if len(part) < fewest else _block_rows
                rows[lo + part] = draw(seed, chunk[part], scale, dim)
    return rows


def _per_key_rows(seed: int, keys: np.ndarray, scale: float, dim: int) -> np.ndarray:
    """The rows of ``keys`` from numpy's generator, built once per key."""
    rows = np.empty((len(keys), dim), dtype=np.float32)
    for i, key in enumerate(keys.tolist()):
        rows[i] = np.random.default_rng((seed, key)).uniform(-scale, scale, dim)
    return rows


def _words(value: int) -> list[int]:
    """``value`` as little-endian ``uint32`` words (zero is one word)."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _hash_consts(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The ``(xor, multiplier)`` pair of each successive ``hashmix``."""
    while True:
        yield init, (init := init * mult & 0xFFFFFFFF)


def _next_consts(consts: Iterator[tuple[int, int]], count: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``count`` constant pairs, as two ``uint32[count, 1]``."""
    pairs = np.array(list(islice(consts, count)), dtype=np.uint32)
    return pairs[:, :1], pairs[:, 1:]


def _hashmix(value, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``value`` (one word, ``uint32[n]`` or ``[k, n]``) under ``k``
    successive constant pairs: ``uint32[k, 1]`` or ``[k, n]``."""
    value = (value ^ consts[0]) * consts[1]
    value ^= value >> _XSHIFT
    return value


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    pool = pool * np.uint32(_MIX_L) - hashed * np.uint32(_MIX_R)
    pool ^= pool >> _XSHIFT
    return pool


def _seed_state(seed_words: list[int], keys: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, key)).generate_state(4, uint64)`` per key:
    ``uint64[4, n]``. ``keys`` are all narrow or all wide."""
    entropy = [*seed_words, (keys & _MASK32).astype(np.uint32)]
    if keys[0] > _MASK32:
        entropy.append((keys >> _U32).astype(np.uint32))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = np.zeros((_POOL, len(keys)), dtype=np.uint32)
    for i, word in enumerate(entropy[:_POOL]):
        pool[i] = word
    pool = _hashmix(pool, _next_consts(consts, _POOL))
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], _next_consts(consts, _POOL - 1)))
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, _next_consts(consts, _POOL)))
    words = _hashmix(
        np.concatenate([pool, pool]), _next_consts(_hash_consts(_INIT_B, _MULT_B), 2 * _POOL)
    ).astype(np.uint64)
    return words[0::2] | words[1::2] << _U32


def _block_rows(seed: int, keys: np.ndarray, scale: float, dim: int) -> np.ndarray:
    """The rows of ``keys`` (at least one; all narrow or all wide) in
    array arithmetic, one output word of every key per pass: temporaries
    are columns of ``n``."""
    out = np.empty((len(keys), dim), dtype=np.float32)
    state_hi, state_lo, seq_hi, seq_lo = _seed_state(_words(seed), keys)
    inc_hi = seq_hi << _ONE | seq_lo >> _U63
    inc_lo = seq_lo << _ONE | _ONE
    # srandom: state = 0; step; state += initial; step.
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < inc_lo)
    low, width, unit = np.float64(-scale), np.float64(scale) - np.float64(-scale), 2.0**-53
    for j in range(-1, dim):
        # state = state * MULT + inc (mod 2**128); the high half of
        # lo * MULT_LO from 32-bit halves.
        lo0, lo1 = lo & _MASK32, lo >> _U32
        p00, p01 = lo0 * _PCG_MULT_LO0, lo0 * _PCG_MULT_LO1
        p10, p11 = lo1 * _PCG_MULT_LO0, lo1 * _PCG_MULT_LO1
        mid = (p00 >> _U32) + (p01 & _MASK32) + (p10 & _MASK32)
        hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
        hi += p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
        lo = lo * _PCG_MULT_LO + inc_lo
        hi += inc_hi + (lo < inc_lo)
        if j < 0:
            continue  # the second seeding step draws nothing
        word = hi ^ lo
        rot = hi >> _U58
        word = word >> rot | word << (-rot & _U63)
        out[:, j] = low + width * ((word >> _U11) * unit)
    return out
