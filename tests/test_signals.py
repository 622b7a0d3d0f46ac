import itertools
import math

import numpy as np
import pytest

from active_eval import (
    DataError,
    Pool,
    answer_histogram,
    self_consistency,
    semantic_entropy,
)
from active_eval import signals


def test_entropy_single_class_is_exactly_zero():
    assert semantic_entropy(["A"] * 10) == 0.0
    assert self_consistency(["A"] * 10) == 1.0


def test_entropy_uniform_two_class():
    assert semantic_entropy(["A"] * 5 + ["B"] * 5) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_hand_computed_mixture():
    answers = ["A"] * 5 + ["B"] * 3 + ["C"] * 2
    assert semantic_entropy(answers) == pytest.approx(1.029653, abs=1e-6)
    assert self_consistency(answers) == 0.5


def test_all_distinct_answers():
    answers = [f"a{i}" for i in range(10)]
    assert semantic_entropy(answers) == pytest.approx(math.log(10), abs=1e-12)
    assert self_consistency(answers) == pytest.approx(0.1)


def test_histogram_counts():
    counts = answer_histogram(["x", "y", "x"])
    assert counts == {"x": 2, "y": 1}


def test_empty_list_rejected():
    with pytest.raises(DataError):
        semantic_entropy([])
    with pytest.raises(DataError):
        self_consistency([])


def test_empty_label_rejected():
    with pytest.raises(DataError):
        semantic_entropy(["A", ""])


def test_permutation_and_relabel_invariance():
    rng = np.random.default_rng(7)
    labels = [f"opt{i}" for i in range(6)]
    for _ in range(100):
        k = int(rng.integers(2, 20))
        answers = [labels[i] for i in rng.integers(0, len(labels), size=k)]
        se, sc = semantic_entropy(answers), self_consistency(answers)
        shuffled = list(answers)
        rng.shuffle(shuffled)
        assert semantic_entropy(shuffled) == pytest.approx(se, abs=1e-12)
        assert self_consistency(shuffled) == sc
        renamed = [f"renamed-{a}" for a in answers]
        assert semantic_entropy(renamed) == pytest.approx(se, abs=1e-12)
        assert self_consistency(renamed) == sc


def test_bounds_and_zero_equivalence_on_random_histograms():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        k = int(rng.integers(2, 30))
        n_labels = int(rng.integers(1, 8))
        answers = [f"c{i}" for i in rng.integers(0, n_labels, size=k)]
        se, sc = semantic_entropy(answers), self_consistency(answers)
        assert 0.0 <= se <= math.log(k) + 1e-12
        assert 1.0 / k <= sc <= 1.0
        # the base-stratum criterion is well defined through either signal
        assert (se == 0.0) == (sc == 1.0)


def _count_profiles(k, largest=None):
    """Every multiset of positive counts summing to k, largest first."""
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _count_profiles(k - first, first):
            yield (first,) + rest


def test_entropy_is_bit_identical_for_one_count_profile():
    # the float must not depend on answer order or label names: equal
    # values must share a stratum downstream
    rng = np.random.default_rng(11)
    for profile in _count_profiles(10):
        orders = {profile, profile[::-1]}
        orders.update(tuple(rng.permutation(profile)) for _ in range(6))
        values = set()
        for order in orders:
            answers = [f"opt{j}" for j, n in enumerate(order) for _ in range(n)]
            shuffled = list(answers)
            rng.shuffle(shuffled)
            for variant in (answers, shuffled, [f"renamed-{a}" for a in shuffled]):
                values.add(semantic_entropy(variant))
        assert len(values) == 1, (profile, values)
    assert len(list(itertools.islice(_count_profiles(10), 100))) == 42


def test_signals_come_from_one_histogram_per_count_profile(monkeypatch):
    calls = []
    histogram = signals.answer_histogram

    def counting(answers):
        calls.append(answers)
        return histogram(answers)

    monkeypatch.setattr(signals, "answer_histogram", counting)
    profiles = list(_count_profiles(10))
    for profile in profiles:
        answers = [f"opt{j}" for j, n in enumerate(profile) for _ in range(n)]
        calls.clear()
        row_signals = signals.answer_signals(answers)
        assert len(calls) == 1
        assert row_signals == (semantic_entropy(answers), self_consistency(answers))
    # a pool holding every profile three times, in shuffled orders and under
    # different label names, builds one histogram per distinct profile
    rng = np.random.default_rng(0)
    rows = []
    for repeat in range(3):
        for profile in profiles:
            part_codes = rng.permutation(10) + 10 * repeat
            rows.append(rng.permutation(
                [part_codes[j] for j, n in enumerate(profile) for _ in range(n)]
            ))
    labels = [f"label{j}" for j in range(30)]
    calls.clear()
    pool = Pool([f"r{i}" for i in range(len(rows))], np.array(rows), labels, np.zeros(len(rows)))
    assert len(calls) == len(profiles) == 42
    for i, row in enumerate(rows):
        answers = [labels[c] for c in row]
        assert (pool.se_values[i], pool.sc_values[i]) == signals.answer_signals(answers)
