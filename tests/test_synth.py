import hashlib
import json

import numpy as np
import pytest

from active_eval import (
    ConfigError,
    SynthConfig,
    adaptive_se_stratify,
    finite_pool_risk,
    make_pool,
    reference_pool,
    synth,
)
from active_eval.synth import _StreamSeed, _stream_states, option_labels

# regression constants pinned from the fixture's first generation
REFERENCE_RISK = 344 / 3000
REFERENCE_ZERO_SE_COUNT = 1888
# sha256 of the reference pool's columns (see columns_digest), pinned from
# the per-instance generator that make_pool replaced
REFERENCE_COLUMNS_SHA256 = "b62a354edea32ac2f27832450bb0991351680ccae53a83e5dee10e3f47739040"


def oracle_columns(config):
    """make_pool's codes and losses from the per-instance loop it replaced."""
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
    return codes, losses


def columns_digest(pool):
    h = hashlib.sha256()
    h.update(json.dumps([list(pool.ids), list(pool.labels)]).encode())
    h.update(np.ascontiguousarray(pool.codes, dtype="<i4").tobytes())
    h.update(np.ascontiguousarray(pool.loss_vector(), dtype="<f8").tobytes())
    return h.hexdigest()


def assert_matches_oracle(pool, config):
    codes, losses = oracle_columns(config)
    assert pool.ids == tuple(f"synth-{i:06d}" for i in range(config.size))
    assert pool.labels == tuple(option_labels(config.options))
    assert pool.codes.astype("<i8").tobytes() == codes.astype("<i8").tobytes()
    assert pool.loss_vector().astype("<f8").tobytes() == losses.astype("<f8").tobytes()


ORACLE_CONFIGS = [
    SynthConfig(size=1000, options=2, seed=1),
    SynthConfig(size=1000, options=26, seed=2),
    SynthConfig(size=1000, generations=7, seed=3),
    SynthConfig(size=1000, generations=3, options=5, seed=3),
    SynthConfig(size=1000, zero_se_boost=0.0, seed=4),
    SynthConfig(size=500, zero_se_boost=1.0, seed=4),
    SynthConfig(size=1, seed=5),
    SynthConfig(size=1, zero_se_boost=0.0, seed=6),
    SynthConfig(size=1000, generations=11, options=30, seed=6),
    SynthConfig(size=100, generations=200, options=7, seed=7),
    SynthConfig(size=1000, seed=2**32 + 17),
    SynthConfig(size=500, difficulty_alpha=0.3, difficulty_beta=0.7, target_link=1.0,
                seed=2**100 + 9),
    SynthConfig(size=1000, generations=13, options=3, difficulty_alpha=2.5,
                difficulty_beta=0.5, zero_se_boost=0.2, seed=8),
]
ORACLE_IDS = [
    "opt2", "opt26", "k7", "k3-opt5", "boost0", "boost1", "size1", "size1-boost0",
    "opt30-k11", "k200", "seed-2**32", "wide-seed-beta", "k13-opt3",
]


@pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=ORACLE_IDS)
def test_make_pool_equals_per_instance_loop(config):
    assert_matches_oracle(make_pool(config), config)


def test_reference_pool_columns_are_pinned():
    pool = reference_pool()
    assert columns_digest(pool) == REFERENCE_COLUMNS_SHA256
    assert_matches_oracle(pool, synth.REFERENCE_CONFIG)


@pytest.mark.parametrize("config", [
    SynthConfig(size=400, seed=11),
    SynthConfig(size=400, generations=7, options=26, zero_se_boost=0.1, seed=2**40),
], ids=["default", "k7-opt26"])
def test_rejection_replay_gives_the_same_pool(config, monkeypatch):
    """Every decoded row replayed through the per-instance calls."""
    decode, draw = synth._decode_distractors, synth._draw_instance
    replayed = []

    def reject_all(words, span, k):
        distractors, replay = decode(words, span, k)
        return distractors, np.ones_like(replay)

    def counted(state, config):
        replayed.append(state)
        return draw(state, config)

    monkeypatch.setattr(synth, "_decode_distractors", reject_all)
    monkeypatch.setattr(synth, "_draw_instance", counted)
    pool = make_pool(config)
    assert_matches_oracle(pool, config)
    # the instances that make a Beta draw, and only they, were replayed
    coins = synth._first_doubles(_stream_states(config.seed, config.size))
    assert len(replayed) == int((coins >= config.zero_se_boost).sum())


@pytest.mark.parametrize("span", [3, 5, 25, 29])
def test_decode_marks_rows_numpy_would_redraw(span):
    # x = 0 gives x * span mod 2**32 = 0, below numpy's threshold
    # (2**32 - span) mod span, which is positive unless span divides 2**32
    assert (2**32 - span) % span > 0
    words = np.array(
        [[0, 2**63 + 5], [3_000_000_000 << 32 | 4_000_000_000, 1_234_567_890],
         [11 << 32, 2**64 - 1]],
        dtype=np.uint64,
    )
    distractors, replay = synth._decode_distractors(words, span, 3)
    assert replay.tolist() == [True, False, True]
    # accepted draws take the top 32 bits of x * span, plus one
    x = words.view("<u4")[1, :3].astype(object)
    assert distractors[1].tolist() == [1 + (int(v) * span >> 32) for v in x]


@pytest.mark.parametrize("span", [1, 2, 4])
def test_decode_never_redraws_when_span_divides_2_to_32(span):
    words = np.zeros((2, 2), dtype=np.uint64)
    distractors, replay = synth._decode_distractors(words, span, 4)
    assert not replay.any()
    assert (distractors == 1).all()


def test_vectorised_pcg64_first_double_matches_numpy():
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StreamSeed)
    words = np.random.default_rng(2024).integers(
        0, 2**64, size=(100_000, 4), dtype=np.uint64, endpoint=False
    )
    words[:4] = [[0, 0, 0, 0], [2**64 - 1] * 4, [0, 1, 0, 1], [2**63, 0, 2**63, 0]]
    expected = np.array([
        np.random.Generator(np.random.PCG64(_StreamSeed(row))).random() for row in words
    ])
    assert synth._first_doubles(words).tobytes() == expected.tobytes()
    # and on the stream states of a seed of several 32-bit words
    states = _stream_states(2**70 + 3, 2000)
    expected = [np.random.default_rng([2**70 + 3, i]).random() for i in range(2000)]
    assert synth._first_doubles(states).tolist() == expected


def test_same_config_same_pool():
    config = SynthConfig(size=40, seed=99)
    a, b = make_pool(config), make_pool(config)
    assert [i.surrogate_answers for i in a.instances] == [
        i.surrogate_answers for i in b.instances
    ]
    assert np.array_equal(a.loss_vector(), b.loss_vector())
    c = make_pool(SynthConfig(size=40, seed=100))
    assert not np.array_equal(a.loss_vector(), c.loss_vector())


def test_full_zero_boost_forces_degenerate_pool():
    pool = make_pool(SynthConfig(size=30, zero_se_boost=1.0, seed=1))
    assert (pool.se_values == 0).all()
    assert (pool.sc_values == 1).all()
    assert finite_pool_risk(pool, pool.loss_vector()) == 0.0


def test_zero_link_means_zero_losses():
    pool = make_pool(SynthConfig(size=50, target_link=0.0, zero_se_boost=0.0, seed=2))
    assert pool.loss_vector().sum() == 0.0


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(size=0)
    with pytest.raises(ConfigError):
        SynthConfig(size=5, generations=1)
    with pytest.raises(ConfigError):
        SynthConfig(size=5, options=1)
    with pytest.raises(ConfigError):
        SynthConfig(size=5, target_link=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(size=5, zero_se_boost=-0.1)
    with pytest.raises(ConfigError):
        SynthConfig(size=5, difficulty_alpha=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["difficulty_alpha", "difficulty_beta"])
def test_non_finite_beta_shapes_rejected(name, value):
    with pytest.raises(ConfigError, match=name):
        SynthConfig(size=20, **{name: value})


def test_reference_pool_pinned_shape_and_risk():
    pool = reference_pool()
    assert pool.size == 3000
    assert pool.k == 10
    assert finite_pool_risk(pool, pool.loss_vector()) == REFERENCE_RISK
    zero_count = int((pool.se_values == 0).sum())
    assert zero_count == REFERENCE_ZERO_SE_COUNT
    assert zero_count / pool.size >= 0.40


def test_reference_pool_strata_have_monotone_loss():
    pool = reference_pool()
    strat = adaptive_se_stratify(pool.se_values, 5)
    losses = pool.loss_vector()
    means = [losses[strat.members(h)].mean() for h in range(strat.h_eff)]
    assert all(a < b for a, b in zip(means, means[1:]))


def test_surrogate_accuracy_concentrates_with_many_generations():
    # replay the per-instance streams to recover each latent difficulty,
    # then check the realized gold-answer rate against its binomial band
    config = SynthConfig(size=100, generations=200, zero_se_boost=0.3, seed=123)
    pool = make_pool(config)
    k = config.generations
    for i, inst in enumerate(pool.instances):
        rng = np.random.default_rng([config.seed, i])
        if rng.random() < config.zero_se_boost:
            difficulty = 0.0
        else:
            difficulty = float(rng.beta(config.difficulty_alpha, config.difficulty_beta))
        accuracy = sum(a == "A" for a in inst.surrogate_answers) / k
        band = 4 * np.sqrt(difficulty * (1 - difficulty) / k)
        assert abs(accuracy - (1 - difficulty)) <= band + 1e-12
