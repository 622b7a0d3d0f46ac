"""The columnar pool against per-instance references.

Every pool here is checked row by row: the answers against what the
instance's own stream or the file says, and SE/SC against
``answer_signals`` called on that row alone.
"""

import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest

from active_eval import (
    UNPARSED_LABEL,
    DataError,
    ParserSpec,
    Pool,
    PoolInstance,
    SynthConfig,
    export_pool,
    load_pool,
    make_pool,
    parse_answer,
    reference_pool,
)
from active_eval.pool import _profile_signals
from active_eval.signals import answer_signals
from active_eval.stratify import LevelTable
from active_eval.synth import option_labels

# sha256 of json.dumps([[id, answers], ...]) followed by the little-endian
# float64 bytes of SE, SC and loss of the frozen reference pool
REFERENCE_DIGEST = "dd161030a4356efe0804c7ec5988ab7ecf9b45f8801d4379689ca148e032e0af"


def pool_digest(pool):
    h = hashlib.sha256()
    h.update(json.dumps([[i.id, list(i.surrogate_answers)] for i in pool.instances]).encode())
    for values in (pool.se_values, pool.sc_values, pool.loss_vector()):
        h.update(np.asarray(values, dtype="<f8").tobytes())
    return h.hexdigest()


def synth_instance(config, i):
    """Instance i of make_pool, drawn the per-instance way."""
    rng = np.random.default_rng([config.seed, i])
    if rng.random() < config.zero_se_boost:
        difficulty = 0.0
    else:
        difficulty = float(rng.beta(config.difficulty_alpha, config.difficulty_beta))
    correct = rng.random(config.generations) < 1.0 - difficulty
    distractors = rng.integers(1, config.options, size=config.generations)
    labels = option_labels(config.options)
    answers = tuple(
        labels[0] if correct[j] else labels[distractors[j]] for j in range(config.generations)
    )
    loss = 1.0 if rng.random() < config.target_link * difficulty else 0.0
    return answers, loss


def assert_matches_rows(pool, ids, answers, losses, rows=None):
    """Pool columns equal the per-instance reference on the given rows."""
    rows = range(pool.size) if rows is None else rows
    answer_lists = pool.answer_lists()
    for i, expected_id, expected_answers, expected_loss in zip(rows, ids, answers, losses):
        se, sc = answer_signals(list(expected_answers))
        assert pool.ids[i] == expected_id
        assert tuple(answer_lists[i]) == tuple(expected_answers), i
        assert pool.se_values[i] == se and pool.sc_values[i] == sc, i
        assert pool.loss_vector()[i] == expected_loss, i


def assert_signals_per_row(pool):
    """SE/SC of every row equal answer_signals on that row's answers."""
    expected = np.array([answer_signals(row) for row in pool.answer_lists()])
    assert np.array_equal(pool.se_values, expected[:, 0])
    assert np.array_equal(pool.sc_values, expected[:, 1])


def test_reference_pool_is_frozen():
    assert pool_digest(reference_pool()) == REFERENCE_DIGEST


@pytest.mark.parametrize("config", [
    SynthConfig(size=3000, generations=10, options=4, seed=20240601),
    SynthConfig(size=3000, generations=20, options=20, seed=3),
    # a seed of four 32-bit words: SeedSequence then mixes in extra words
    SynthConfig(size=500, generations=3, options=30, zero_se_boost=0.1, seed=2**100 + 9),
], ids=["reference", "k20", "opt30-wide-seed"])
def test_make_pool_matches_per_instance_streams(config):
    pool = make_pool(config)
    reference = [synth_instance(config, i) for i in range(config.size)]
    assert_matches_rows(
        pool,
        [f"synth-{i:06d}" for i in range(config.size)],
        [answers for answers, _ in reference],
        [loss for _, loss in reference],
    )
    assert pool.codes.dtype == np.int32 and pool.codes.shape == (config.size, config.generations)


def test_large_pool_matches_per_instance_reference(large_pool):
    config = SynthConfig(size=100_000, seed=7)
    rows = list(range(0, config.size, 97)) + [config.size - 1]
    reference = [synth_instance(config, i) for i in rows]
    assert_matches_rows(
        large_pool,
        [f"synth-{i:06d}" for i in rows],
        [answers for answers, _ in reference],
        [loss for _, loss in reference],
        rows,
    )
    assert_signals_per_row(large_pool)


def test_exact_match_file_with_many_distinct_labels(tmp_path):
    """More distinct labels than an int16 code could index."""
    rng = np.random.default_rng(11)
    n, k = 4000, 12
    texts = []
    for i in range(n):
        row = []
        for j in range(k):
            pick = rng.random()
            if pick < 0.06:
                row.append(f"  Common {rng.integers(0, 3)} ")  # shared answers
            elif pick < 0.1:
                row.append("   ")  # unparsed
            else:
                row.append(f"Answer\t{i}-{j}")  # unique to this generation
        texts.append(row)
    path = tmp_path / "em.jsonl"
    with open(path, "w") as fh:
        for i, row in enumerate(texts):
            fh.write(json.dumps({"id": f"q{i}", "surrogate_generations": row,
                                 "target_loss": (i % 3) / 2}) + "\n")
    spec = ParserSpec(kind="exact_match")
    pool, stats = load_pool(path, parser=spec)
    answers = [[parse_answer(t, spec) for t in row] for row in texts]
    assert len(pool.labels) > 40_000 and int(pool.codes.max()) > 40_000
    assert stats.parse_failures == sum(row.count(UNPARSED_LABEL) for row in answers)
    assert_matches_rows(pool, [f"q{i}" for i in range(n)], answers, [(i % 3) / 2 for i in range(n)])

    canonical = tmp_path / "canonical.jsonl"
    export_pool(pool, canonical)
    again, again_stats = load_pool(canonical)
    assert again.labels == pool.labels and np.array_equal(again.codes, pool.codes)
    assert again_stats.parse_failures == stats.parse_failures
    assert_matches_rows(again, [f"q{i}" for i in range(n)], answers, [(i % 3) / 2 for i in range(n)])


def test_raw_mc_letter_file_with_unparsed_generations(tmp_path):
    base = reference_pool()
    rng = np.random.default_rng(5)
    answers, records = [], []
    for inst in base.instances:
        texts, labels = [], []
        for a in inst.surrogate_answers:
            if rng.random() < 0.1:
                texts.append("I cannot tell.")
                labels.append(UNPARSED_LABEL)
            else:
                texts.append(f"The answer is ({a}).")
                labels.append(a)
        answers.append(labels)
        records.append({"id": inst.id, "surrogate_generations": texts,
                        "target_loss": inst.target_loss})
    path = tmp_path / "raw.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    pool, stats = load_pool(path, parser=ParserSpec(kind="mc_letter"))
    assert stats.parse_failures == sum(row.count(UNPARSED_LABEL) for row in answers) > 0
    assert stats.generations == base.size * base.k
    assert_matches_rows(pool, base.ids, answers, base.loss_vector().tolist())


def test_instances_are_built_on_first_use():
    pool = make_pool(SynthConfig(size=50, seed=1))
    assert "instances" not in vars(pool)
    rows = pool.instances
    assert rows is pool.instances and len(rows) == 50
    assert all(isinstance(row, PoolInstance) for row in rows)
    assert [row.id for row in rows] == list(pool.ids)
    assert [row.se for row in rows] == pool.se_values.tolist()


def test_columns_are_read_only():
    pool = make_pool(SynthConfig(size=10, seed=1))
    for column in (pool.codes, pool.se_values, pool.sc_values, pool.loss_vector()):
        with pytest.raises(ValueError):
            column[0] = 0
    assert isinstance(pool.ids, tuple) and isinstance(pool.labels, tuple)


@pytest.mark.parametrize("args, message", [
    ((["a"], [[0]], ["A"], [0.0]), "at least 2 surrogate answers, got k=1"),
    ((["a"], [[0, 1]], ["A"], [0.0]), "must index the 1 labels"),
    ((["a"], [[0, -1]], ["A", "B"], [0.0]), "must index the 2 labels"),
    ((["a"], [[0.0, 1.0]], ["A", "B"], [0.0]), "integer matrix"),
    ((["a", "b"], [[0, 1]], ["A", "B"], [0.0, 0.0]), "integer matrix"),
    ((["a"], [[0, 1]], ["A", "A"], [0.0]), "lists a label twice"),
    ((["a"], [[0, 1]], ["A", None], [0.0]), "non-empty strings, got None"),
    ((["a"], [[0, 1]], ["A", ""], [0.0]), "non-empty strings, got ''"),
    ((["a", "a"], [[0, 1], [1, 0]], ["A", "B"], [0.0, 0.0]), "duplicate instance id 'a'"),
    ((["a"], [[0, 1]], ["A", "B"], [float("nan")]), "'a' has target_loss nan outside"),
    ((["a"], [[0, 1]], ["A", "B"], [0.0, 1.0]), "got 2 losses for 1 instances"),
    (([], np.empty((0, 2), dtype=int), ["A"], []), "at least one instance"),
])
def test_constructor_rejects_bad_columns(args, message):
    with pytest.raises(DataError, match=message):
        Pool(*args)


def _profile_signals_int64(codes, labels):
    """The count-profile grouping _profile_signals replaced: int64 run
    indices and counts, grouped by a lexsort over the k columns."""
    n, k = codes.shape
    ordered = np.sort(codes, axis=1)
    starts = np.ones((n, k), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    run = np.cumsum(starts, axis=1)
    run += (np.arange(n) * k - 1)[:, np.newaxis]
    profiles = np.bincount(run.ravel(), minlength=n * k).reshape(n, k)
    profiles.sort(axis=1)
    order = np.lexsort(profiles.T)
    grouped = profiles[order]
    first_of_group = np.ones(n, dtype=bool)
    np.any(grouped[1:] != grouped[:-1], axis=1, out=first_of_group[1:])
    group = np.empty(n, dtype=np.intp)
    group[order] = np.cumsum(first_of_group) - 1
    representatives = order[first_of_group]
    values = np.array([answer_signals([labels[c] for c in codes[row]]) for row in representatives])
    levels, level_of_group = np.unique(values[:, 0], return_inverse=True)
    inverse = level_of_group[group]
    table = LevelTable(
        values=values[group, 0],
        levels=levels,
        counts=np.bincount(inverse, minlength=len(levels)),
        inverse=inverse,
    )
    return table, values[group, 1]


def _signal_codes():
    rng = np.random.default_rng(17)
    yield "reference", reference_pool().codes, reference_pool().labels
    pool = make_pool(SynthConfig(size=3000, generations=20, options=20, seed=3))
    yield "k20", pool.codes, pool.labels
    yield "one-row", np.array([[2, 0, 2]], dtype=np.int32), ("A", "B", "C")
    labels = tuple(f"L{j}" for j in range(300))
    yield "k300", rng.integers(0, 300, size=(200, 300)).astype(np.int32), labels
    codes = rng.integers(0, 3, size=(2000, 6)).astype(np.int32)
    codes[::7] = 1  # repeated all-equal rows
    yield "k6", codes, ("A", "B", "C")


@pytest.mark.parametrize("name, codes, labels", list(_signal_codes()),
                         ids=[case[0] for case in _signal_codes()])
def test_profile_signals_equal_the_int64_grouping(name, codes, labels):
    table, sc = _profile_signals(codes, labels)
    expected_table, expected_sc = _profile_signals_int64(codes, labels)
    for got, expected in zip((*table, sc), (*expected_table, expected_sc)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_profile_signals_use_under_half_the_memory_and_no_more_time(large_pool):
    codes, labels = large_pool.codes[:50_000], large_pool.labels  # N=50k, k=10

    def peak(build):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build(codes, labels)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(_profile_signals) <= peak(_profile_signals_int64) / 2
    best = {_profile_signals: float("inf"), _profile_signals_int64: float("inf")}
    for _ in range(5):
        for build in best:
            start = time.perf_counter()
            build(codes, labels)
            best[build] = min(best[build], time.perf_counter() - start)
    assert best[_profile_signals] <= best[_profile_signals_int64]
