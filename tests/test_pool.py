import numpy as np
import pytest

from active_eval import DataError, finite_pool_risk
from conftest import pool_from_rows


def make_pool(losses, k=2):
    return pool_from_rows([["A"] * k for _ in losses], losses)


def test_risk_zero_and_unit_cases():
    assert finite_pool_risk(make_pool([0, 0, 0]), [0, 0, 0]) == 0.0
    assert finite_pool_risk(make_pool([1, 1]), [1, 1]) == 1.0


def test_risk_hand_sum():
    losses = [1, 0, 0, 1, 1, 1]
    pool = make_pool(losses)
    assert finite_pool_risk(pool, losses) == pytest.approx(4 / 6, abs=1e-15)


def test_risk_permutation_invariant():
    rng = np.random.default_rng(3)
    losses = rng.random(50)
    pool = make_pool(losses)
    shuffled = rng.permutation(losses)
    assert finite_pool_risk(pool, losses) == pytest.approx(
        finite_pool_risk(pool, shuffled), abs=1e-12
    )


def test_risk_rejects_bad_vectors():
    pool = make_pool([0, 1])
    with pytest.raises(DataError):
        finite_pool_risk(pool, [0, 1, 0])
    with pytest.raises(DataError):
        finite_pool_risk(pool, [0, float("nan")])


def test_signals_cached_at_construction():
    pool = pool_from_rows([["A", "A", "B", "C"]], [0.0], ids=["x"])
    assert pool.sc_values[0] == 0.5
    assert pool.se_values[0] > 0
    zero = pool_from_rows([["A", "A"]], [0.0], ids=["y"])
    assert zero.se_values[0] == 0.0 and zero.sc_values[0] == 1.0


def test_oracle_reveal_is_idempotent():
    pool = make_pool([0.0, 1.0, 0.5])
    oracle = pool.oracle()
    first = oracle.reveal_rows([[2]])
    second = oracle.reveal_rows([[2]])
    assert first.tolist() == second.tolist() == [[0.5]]


def test_oracle_counts_distinct_reveals():
    pool = make_pool([0.0, 1.0, 0.5])
    oracle = pool.oracle()
    oracle.reveal_rows([[0]])
    oracle.reveal_rows([[1]])
    assert oracle.labels_used.tolist() == [2]


def test_oracle_unknown_id_rejected():
    oracle = make_pool([0.0]).oracle()
    for outside in ([[1]], [[-1]]):
        with pytest.raises(DataError):
            oracle.reveal_rows(outside)
    assert oracle.labels_used.tolist() == [0]


def test_oracle_bulk_reveal_counts_once():
    pool = make_pool([0.0, 1.0, 0.5, 0.25])
    oracle = pool.oracle()
    losses = oracle.reveal_rows(np.array([[1, 3]]))
    assert losses.tolist() == [[1.0, 0.25]]
    assert oracle.labels_used.tolist() == [2]
    with pytest.raises(DataError):
        oracle.reveal_rows(np.array([[99]]))


def test_pool_validation():
    with pytest.raises(DataError):
        pool_from_rows([], [])
    with pytest.raises(DataError):
        pool_from_rows([["A", "A"], ["A", "B"]], [0.0, 0.0], ids=["a", "a"])
    with pytest.raises(DataError):
        pool_from_rows([["A"]], [0.0], ids=["a"])
    with pytest.raises(DataError):
        pool_from_rows([["A", "A"]], [1.5], ids=["a"])


def test_pool_arrays_are_read_only():
    pool = make_pool([0.0, 1.0])
    with pytest.raises(ValueError):
        pool.se_values[0] = 3.0
    with pytest.raises(ValueError):
        pool.loss_vector()[0] = 3.0
