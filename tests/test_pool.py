import numpy as np
import pytest

from active_eval import DataError, Pool, PoolInstance, finite_pool_risk


def make_pool(losses, k=2):
    return Pool.from_instances(
        PoolInstance.from_answers(f"i{j}", ["A"] * k, loss)
        for j, loss in enumerate(losses)
    )


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
    inst = PoolInstance.from_answers("x", ["A", "A", "B", "C"], 0.0)
    assert inst.sc == 0.5
    assert inst.se > 0
    zero = PoolInstance.from_answers("y", ["A", "A"], 0.0)
    assert zero.se == 0.0 and zero.sc == 1.0


def test_oracle_reveal_is_idempotent():
    pool = make_pool([0.0, 1.0, 0.5])
    oracle = pool.oracle()
    first = oracle.reveal("i2")
    second = oracle.reveal("i2")
    assert first == second == 0.5
    assert oracle.labels_used == 1


def test_oracle_counts_distinct_reveals():
    pool = make_pool([0.0, 1.0, 0.5])
    oracle = pool.oracle()
    oracle.reveal("i0")
    oracle.reveal("i1")
    assert oracle.labels_used == 2


def test_oracle_unknown_id_rejected():
    oracle = make_pool([0.0]).oracle()
    with pytest.raises(DataError):
        oracle.reveal("nope")


def test_oracle_bulk_reveal_counts_once():
    pool = make_pool([0.0, 1.0, 0.5, 0.25])
    oracle = pool.oracle()
    losses = oracle.reveal_indices(np.array([1, 3]))
    assert losses.tolist() == [1.0, 0.25]
    assert oracle.labels_used == 2
    oracle.reveal_indices(np.array([1, 2]))
    assert oracle.labels_used == 3
    with pytest.raises(DataError):
        oracle.reveal_indices(np.array([99]))


def test_pool_validation():
    with pytest.raises(DataError):
        Pool.from_instances([])
    with pytest.raises(DataError):
        Pool.from_instances([PoolInstance.from_answers("a", ["A", "A"], 0.0),
                            PoolInstance.from_answers("a", ["A", "B"], 0.0)])
    with pytest.raises(DataError):
        Pool.from_instances([PoolInstance.from_answers("a", ["A", "A"], 0.0),
                            PoolInstance.from_answers("b", ["A", "A", "A"], 0.0)])
    with pytest.raises(DataError):
        Pool.from_instances([PoolInstance.from_answers("a", ["A"], 0.0)])
    with pytest.raises(DataError):
        Pool.from_instances([PoolInstance.from_answers("a", ["A", "A"], 1.5)])


def test_pool_arrays_are_read_only():
    pool = make_pool([0.0, 1.0])
    with pytest.raises(ValueError):
        pool.se_values[0] = 3.0
    with pytest.raises(ValueError):
        pool.loss_vector()[0] = 3.0
