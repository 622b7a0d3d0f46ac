"""Synthetic evaluation pools with controllable difficulty structure.

Each instance gets a latent difficulty d: with probability zero_se_boost it
is exactly 0, otherwise it is drawn from Beta(alpha, beta). Each of the k
surrogate answers is the correct option with probability 1 - d and a
uniformly random distractor otherwise, and the hidden target loss is
Bernoulli(target_link * d). Harder instances therefore carry both higher
surrogate entropy and higher expected target loss, which is the coupling
the stratified estimators exploit. Generation is deterministic given the
seed, with one substream per instance.

Instance i's stream is ``default_rng([seed, i])``, drawn in the order
make_pool lists. make_pool does not run the streams call by call: it
computes the seed states and first doubles of all instances at once, skips
every later draw of an instance with difficulty 0 (none of them can change
its answers or loss), and decodes the other instances' raw words with
numpy's own formulas. The pool is byte-identical to the call-by-call one.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pool import Pool


@dataclass(frozen=True)
class SynthConfig:
    size: int
    generations: int = 10
    options: int = 4
    difficulty_alpha: float = 1.0
    difficulty_beta: float = 3.0
    target_link: float = 0.9
    zero_se_boost: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"pool size must be >= 1, got {self.size}")
        if self.generations < 2:
            raise ConfigError(f"need at least 2 generations, got {self.generations}")
        if self.options < 2:
            raise ConfigError(f"need at least 2 answer options, got {self.options}")
        for name in ("difficulty_alpha", "difficulty_beta"):
            value = getattr(self, name)
            # NaN fails both comparisons
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if not 0.0 <= self.target_link <= 1.0:
            raise ConfigError(f"target_link must lie in [0, 1], got {self.target_link}")
        if not 0.0 <= self.zero_se_boost <= 1.0:
            raise ConfigError(
                f"zero_se_boost must lie in [0, 1], got {self.zero_se_boost}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def option_labels(n_options: int) -> list:
    if n_options <= len(string.ascii_uppercase):
        return list(string.ascii_uppercase[:n_options])
    return [f"opt{j}" for j in range(n_options)]


def make_pool(config: SynthConfig) -> Pool:
    """Generate a pool (with hidden losses) from the configuration.

    Instance i draws from its own stream, ``default_rng([seed, i])``, in a
    fixed order: the zero-difficulty coin, the Beta difficulty when the
    coin fails, k correctness coins, k distractor options, the loss coin.
    ``_draw_instance`` makes exactly these calls; make_pool gets the same
    values with less numpy work per instance:

    * a vectorised PCG64 gives every instance's coin (``_first_doubles``).
      Below zero_se_boost the difficulty is 0, so every correctness coin
      u < 1.0 holds and the loss coin u < 0.0 fails: the answers are all
      correct and the loss is 0 whatever is drawn next, and the instance
      gets no Generator;
    * every other instance builds its Generator, draws its coin (which must
      equal the vectorised one, so each such instance checks that path)
      and its difficulty, and reads the rest of its stream in one
      ``random_raw`` call. A ``random()`` double is the top 53 bits of one
      word (``_doubles``); ``integers`` takes its k 32-bit draws from
      ``ceil(k/2)`` words, low half first, and the loss coin takes the next
      word, not a spare half left when k is odd;
    * the distractors of all rows are decoded at once with numpy's bounded
      rule (``_decode_distractors``). A row where numpy would have rejected
      a draw and drawn again (about 2**-32 per draw) is replayed whole
      through ``_draw_instance``.
    """
    codes, losses = _draw_columns(config)
    ids = [f"synth-{i:06d}" for i in range(config.size)]
    return Pool(ids, codes, option_labels(config.options), losses)


def _draw_columns(config: SynthConfig) -> tuple:
    """The (N, k) answer codes and the N losses of make_pool.

    A function of its own, so that its staging arrays are freed before the
    Pool is built.
    """
    # imported here, not at module level, so that importing the package does
    # not load numpy.random
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StreamSeed)
    n, k = config.size, config.generations
    states = _stream_states(config.seed, n)
    coins = _first_doubles(states)
    beta_rows = np.flatnonzero(coins >= config.zero_se_boost)
    span = config.options - 1  # a distractor is 1 + a bounded draw below span
    n_words = (k + 1) // 2 if 1 < span < 2**32 else 0
    difficulty = np.empty(beta_rows.size)
    raw = np.empty((beta_rows.size, k + n_words + 1), dtype=np.uint64)
    alpha, beta = config.difficulty_alpha, config.difficulty_beta
    for j, (state, coin) in enumerate(zip(states[beta_rows], coins[beta_rows].tolist())):
        rng = np.random.Generator(np.random.PCG64(_StreamSeed(state)))
        first = rng.random()
        if first != coin:
            raise RuntimeError(
                f"vectorised PCG64 gave {coin!r} for instance {beta_rows[j]}, numpy {first!r}"
            )
        difficulty[j] = rng.beta(alpha, beta)
        raw[j] = rng.bit_generator.random_raw(raw.shape[1])
    distractors, replay = _decode_distractors(raw[:, k:k + n_words], span, k)
    distractors[_doubles(raw[:, :k]) < (1.0 - difficulty)[:, np.newaxis]] = 0
    codes = np.zeros((n, k), dtype=np.min_scalar_type(span))
    codes[beta_rows] = distractors
    losses = np.zeros(n)
    losses[beta_rows] = _doubles(raw[:, -1]) < config.target_link * difficulty
    for i in beta_rows[replay].tolist():
        codes[i], losses[i] = _draw_instance(states[i], config)
    return codes, losses


def _draw_instance(state: np.ndarray, config: SynthConfig) -> tuple:
    """One instance's answer codes and loss, drawn call by call from its stream."""
    k = config.generations
    rng = np.random.Generator(np.random.PCG64(_StreamSeed(state)))
    if rng.random() < config.zero_se_boost:
        difficulty = 0.0
    else:
        difficulty = float(rng.beta(config.difficulty_alpha, config.difficulty_beta))
    correct = rng.random(k) < 1.0 - difficulty
    distractors = rng.integers(1, config.options, size=k)
    distractors[correct] = 0
    loss = 1.0 if rng.random() < config.target_link * difficulty else 0.0
    return distractors, loss


def _decode_distractors(words: np.ndarray, span: int, k: int) -> tuple:
    """``rng.integers(1, span + 1, size=k)`` per row from its raw words.

    Returns the (rows, k) distractor options and a mask of the rows whose
    draws this cannot decode. numpy draws below ``span`` with Lemire's rule
    on 32-bit draws, taken low half first from each 64-bit word: draw x
    gives ``x * span >> 32``, unless ``x * span mod 2**32`` is below
    ``(2**32 - span) mod span``, when numpy rejects x and draws again;
    such a row is marked. A span of 1 draws nothing (every option is 1).
    A span of 2**32 or more is not decoded here, so every row is marked.
    """
    rows = words.shape[0]
    if span == 1 or span >= 2**32:
        return np.ones((rows, k), dtype=np.uint64), np.full(rows, span > 1)
    draws = words.astype("<u8", copy=False).view("<u4")[:, :k]
    product = draws * np.uint64(span)
    replay = (product.astype(np.uint32) < (2**32 - span) % span).any(axis=1)
    product >>= np.uint64(32)
    product += np.uint64(1)
    return product, replay


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4


def _stream_states(seed: int, n: int) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for every i < n.

    This is numpy's SeedSequence algorithm run on all n entropy vectors at
    once in uint32 arithmetic (which wraps like the original), so PCG64
    seeded with row i starts where ``default_rng([seed, i])`` does. Hashing
    one SeedSequence per instance cost about 20 us, most of make_pool.
    """
    if n > _MASK32 + 1:
        raise ConfigError(f"pool size {n} exceeds 2**32 instances")
    words = []
    value = seed
    while True:  # a non-negative int is its 32-bit words, low first
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            break
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[j] if j < len(entropy) else zero) for j in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_WORDS, len(entropy)):
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    state = np.empty((n, 2 * _POOL_WORDS), dtype=np.uint32)
    hash_const = _INIT_B
    for j in range(2 * _POOL_WORDS):
        value = pool[j % _POOL_WORDS] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, j] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StreamSeed:
    """Seed sequence that hands PCG64 a precomputed state (see _stream_states).

    make_pool registers it as a numpy ISeedSequence before first use.
    """

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"stream states hold PCG64's 4 uint64 words, not {n_words} {dtype}")
        return self.words


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h) as four
# 32-bit limbs, low first
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LIMBS = tuple(np.uint64((_PCG_MULT >> (32 * j)) & _MASK32) for j in range(4))


def _first_doubles(states: np.ndarray) -> np.ndarray:
    """First ``random()`` of ``Generator(PCG64(_StreamSeed(row)))`` per row of states.

    numpy seeds PCG64 from the four words with ``initstate = w0 << 64 | w1``
    and ``inc = (w2 << 64 | w3) << 1 | 1``: it steps the zero state (to
    inc), adds initstate and steps again. A draw steps the LCG (state =
    state * multiplier + inc mod 2**128) and outputs ``rotr64(hi ^ lo, hi
    >> 58)`` of the new state; a double is that output's top 53 bits times
    2**-53. Each 128-bit value is held as four 32-bit limbs in uint64
    arrays, so every limb product and column sum fits.
    """
    w0, w1, w2, w3 = states.T
    inc = _limbs((w2 << np.uint64(1)) | (w3 >> np.uint64(63)), (w3 << np.uint64(1)) | np.uint64(1))
    state = _carry([a + b for a, b in zip(_limbs(w0, w1), inc)])
    state = _step(_step(state, inc), inc)
    hi = (state[3] << np.uint64(32)) | state[2]
    out = hi ^ ((state[1] << np.uint64(32)) | state[0])
    rot = hi >> np.uint64(58)
    out = (out >> rot) | (out << ((np.uint64(64) - rot) & np.uint64(63)))
    return _doubles(out)


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's ``random()`` doubles from raw 64-bit draws: the top 53 bits times 2**-53."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _limbs(hi: np.ndarray, lo: np.ndarray) -> list:
    """The 128-bit values ``hi << 64 | lo`` as four 32-bit limbs, low first."""
    mask = np.uint64(_MASK32)
    return [lo & mask, lo >> np.uint64(32), hi & mask, hi >> np.uint64(32)]


def _step(state: list, inc: list) -> list:
    """One PCG64 LCG step on limb arrays: state * multiplier + inc mod 2**128."""
    columns = [limb.copy() for limb in inc]
    mask = np.uint64(_MASK32)
    for a, limb in enumerate(state):
        for b in range(4 - a):
            product = limb * _PCG_MULT_LIMBS[b]
            columns[a + b] += product & mask
            if a + b < 3:
                columns[a + b + 1] += product >> np.uint64(32)
    return _carry(columns)


def _carry(columns: list) -> list:
    """Limb columns of at most 35 bits, carried into 32-bit limbs (mod 2**128)."""
    mask = np.uint64(_MASK32)
    for j in range(3):
        columns[j + 1] += columns[j] >> np.uint64(32)
        columns[j] &= mask
    columns[3] &= mask
    return columns


REFERENCE_CONFIG = SynthConfig(
    size=3000,
    generations=10,
    options=4,
    difficulty_alpha=1.0,
    difficulty_beta=3.0,
    target_link=0.9,
    zero_se_boost=0.5,
    seed=20240601,
)


@functools.lru_cache(maxsize=1)
def reference_pool() -> Pool:
    """The canonical fixture pool used throughout the test suite.

    Pools are immutable, so the cached instance is safe to share.
    """
    return make_pool(REFERENCE_CONFIG)
