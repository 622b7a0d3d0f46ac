"""Synthetic evaluation pools with controllable difficulty structure.

Each instance gets a latent difficulty d: with probability zero_se_boost it
is exactly 0, otherwise it is drawn from Beta(alpha, beta). Each of the k
surrogate answers is the correct option with probability 1 - d and a
uniformly random distractor otherwise, and the hidden target loss is
Bernoulli(target_link * d). Harder instances therefore carry both higher
surrogate entropy and higher expected target loss, which is the coupling
the stratified estimators exploit. Generation is deterministic given the
seed, with one substream per instance.
"""

from __future__ import annotations

import functools
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
        if self.difficulty_alpha <= 0 or self.difficulty_beta <= 0:
            raise ConfigError("difficulty shape parameters must be positive")
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
    """
    # imported here, not at module level, so that importing the package does
    # not load numpy.random
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StreamSeed)
    n, k = config.size, config.generations
    codes = np.empty((n, k), dtype=np.int64)
    losses = np.empty(n)
    for i, words in enumerate(_stream_states(config.seed, n)):
        rng = np.random.Generator(np.random.PCG64(_StreamSeed(words)))
        if rng.random() < config.zero_se_boost:
            difficulty = 0.0
        else:
            difficulty = float(
                rng.beta(config.difficulty_alpha, config.difficulty_beta)
            )
        correct = rng.random(k) < 1.0 - difficulty
        distractors = rng.integers(1, config.options, size=k)
        distractors[correct] = 0
        codes[i] = distractors
        losses[i] = 1.0 if rng.random() < config.target_link * difficulty else 0.0
    ids = [f"synth-{i:06d}" for i in range(n)]
    return Pool(ids, codes, option_labels(config.options), losses)


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
