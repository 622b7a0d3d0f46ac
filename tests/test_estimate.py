import itertools
from dataclasses import replace

import numpy as np
import pytest

import active_eval.estimate as estimate_module
from active_eval import (
    AllocationPlan,
    DataError,
    MethodSpec,
    Pool,
    PoolInstance,
    SampleDraw,
    SynthConfig,
    draw_stratified,
    finite_pool_risk,
    ht_estimate,
    make_pool,
    run_trials,
    sample_without_replacement,
    trial_rng,
    uniform_estimate,
)
from active_eval.errors import ConfigError
from active_eval.estimate import BLOCK_TRIALS, sample_rows
from active_eval.harness import prepare_method
from active_eval.pool import BlockOracle


def two_strata_pool(losses=(1, 0, 0, 1, 1, 1)):
    """Six instances; first four form stratum 0, last two stratum 1."""
    instances = [
        PoolInstance.from_answers(f"i{j}", ["A", "A"] if j < 4 else ["A", "B"], loss)
        for j, loss in enumerate(losses)
    ]
    return Pool(instances)


def plan_42():
    return AllocationPlan(m=np.array([2, 1]), budget=3, rule="test")


def test_sampling_census_returns_all_ids():
    rng = trial_rng(0, 0, 0)
    out = sample_without_replacement(["a", "b", "c"], 3, rng)
    assert sorted(out.tolist()) == ["a", "b", "c"]


def test_sampling_determinism_per_address():
    a = sample_without_replacement(np.arange(50), 10, trial_rng(9, 4, 2))
    b = sample_without_replacement(np.arange(50), 10, trial_rng(9, 4, 2))
    c = sample_without_replacement(np.arange(50), 10, trial_rng(9, 4, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_rejects_bad_sizes():
    rng = trial_rng(0, 0, 0)
    with pytest.raises(DataError):
        sample_without_replacement([1, 2], 0, rng)
    with pytest.raises(DataError):
        sample_without_replacement([1, 2], 3, rng)


def test_rng_rejects_negative_address():
    with pytest.raises(ConfigError):
        trial_rng(-1, 0, 0)


def test_single_draw_frequencies():
    # m=1 over two ids: binomial 4-sigma band around 5000 of 10000
    hits = 0
    for t in range(10_000):
        pick = sample_without_replacement(["a", "b"], 1, trial_rng(5, t, 0))
        hits += pick[0] == "a"
    assert abs(hits - 5000) <= 200


def test_subset_uniformity():
    # every size-2 subset of 5 ids should appear ~equally often
    counts = {}
    trials = 20_000
    for t in range(trials):
        pick = sample_without_replacement(np.arange(5), 2, trial_rng(2, t, 0))
        counts[frozenset(pick.tolist())] = counts.get(frozenset(pick.tolist()), 0) + 1
    assert len(counts) == 10
    expected = trials / 10
    band = 4 * np.sqrt(trials * 0.1 * 0.9)
    for subset, count in counts.items():
        assert abs(count - expected) <= band, (subset, count)


def test_ht_census_identity():
    pool = two_strata_pool((1, 0, 0, 1, 0, 0))
    plan = AllocationPlan(m=np.array([4, 2]), budget=6, rule="test")
    draw = draw_stratified([np.arange(4), np.arange(4, 6)], plan, 0, 0)
    est = ht_estimate(draw, plan, np.array([4, 2]), pool.oracle())
    assert est.value == finite_pool_risk(pool, pool.loss_vector())


def test_ht_hand_worked_example():
    pool = two_strata_pool((1, 0, 0, 1, 1, 1))
    draw = SampleDraw(per_stratum=(np.array([0, 1]), np.array([4])))
    est = ht_estimate(draw, plan_42(), np.array([4, 2]), pool.oracle())
    # (4 * 0.5 + 2 * 1) / 6
    assert est.value == pytest.approx(0.666667, abs=1e-6)
    assert est.labels_used == 3


def test_ht_matches_inverse_inclusion_weighted_form():
    pool = two_strata_pool((1, 0, 1, 1, 0, 1))
    sizes = np.array([4, 2])
    plan = plan_42()
    losses = pool.loss_vector()
    for t in range(25):
        draw = draw_stratified([np.arange(4), np.arange(4, 6)], plan, 3, t)
        est = ht_estimate(draw, plan, sizes, pool.oracle())
        weighted = sum(
            losses[i] / (pool.size * plan.m[h] / sizes[h])
            for h, sel in enumerate(draw.per_stratum)
            for i in sel
        )
        assert est.value == pytest.approx(weighted, abs=1e-12)


def test_ht_exhaustive_enumeration_is_unbiased():
    losses = (1, 0, 0, 1, 1, 1)
    pool = two_strata_pool(losses)
    sizes = np.array([4, 2])
    plan = plan_42()
    risk = finite_pool_risk(pool, pool.loss_vector())
    values = []
    for s0 in itertools.combinations(range(4), 2):
        for s1 in itertools.combinations(range(4, 6), 1):
            draw = SampleDraw(per_stratum=(np.array(s0), np.array(s1)))
            values.append(ht_estimate(draw, plan, sizes, pool.oracle()).value)
    assert len(values) == 12
    assert abs(np.mean(values) - risk) < 1e-12


def test_ht_rejects_draw_plan_mismatch():
    pool = two_strata_pool()
    with pytest.raises(DataError):
        ht_estimate(
            SampleDraw(per_stratum=(np.array([0]), np.array([4]))),
            plan_42(),
            np.array([4, 2]),
            pool.oracle(),
        )
    with pytest.raises(DataError):
        ht_estimate(
            SampleDraw(per_stratum=(np.array([0, 0]), np.array([4]))),
            plan_42(),
            np.array([4, 2]),
            pool.oracle(),
        )


def test_ht_consumes_exactly_budget_labels():
    pool = two_strata_pool()
    oracle = pool.oracle()
    draw = draw_stratified([np.arange(4), np.arange(4, 6)], plan_42(), 1, 0)
    est = ht_estimate(draw, plan_42(), np.array([4, 2]), oracle)
    assert oracle.labels_used == 3 == est.labels_used


def test_inclusion_frequencies_match_design():
    pool = two_strata_pool()
    members = [np.arange(4), np.arange(4, 6)]
    plan = plan_42()
    trials = 10_000
    counts = np.zeros(6)
    for t in range(trials):
        draw = draw_stratified(members, plan, 11, t)
        for sel in draw.per_stratum:
            counts[sel] += 1
    for h, mem in enumerate(members):
        pi = plan.m[h] / len(mem)
        band = 4 * np.sqrt(trials * pi * (1 - pi))
        for i in mem:
            assert abs(counts[i] - trials * pi) <= band


def test_draw_ids_resolve_to_instance_ids():
    pool = two_strata_pool()
    draw = SampleDraw(per_stratum=(np.array([0, 2]), np.array([5])))
    assert draw.id_lists(pool) == [["i0", "i2"], ["i5"]]


def test_uniform_estimate_census_and_determinism():
    pool = two_strata_pool((1, 0, 0, 1, 0, 1))
    est = uniform_estimate(pool, 6, trial_rng(0, 0, 0), pool.oracle())
    assert est.value == finite_pool_risk(pool, pool.loss_vector())
    a = uniform_estimate(pool, 3, trial_rng(4, 7, 0), pool.oracle())
    b = uniform_estimate(pool, 3, trial_rng(4, 7, 0), pool.oracle())
    assert a == b
    with pytest.raises(DataError):
        uniform_estimate(pool, 0, trial_rng(0, 0, 0), pool.oracle())
    with pytest.raises(DataError):
        uniform_estimate(pool, 7, trial_rng(0, 0, 0), pool.oracle())


def test_uniform_two_point_support():
    pool = two_strata_pool((0, 1, 0, 1, 0, 1))
    values = {
        uniform_estimate(pool, 1, trial_rng(8, t, 0), pool.oracle()).value
        for t in range(200)
    }
    assert values == {0.0, 1.0}


def _first_distinct(candidates, k):
    """Reference for the block sampler: first k distinct values, in order."""
    kept = []
    for value in candidates:
        if value not in kept:
            kept.append(int(value))
        if len(kept) == k:
            return sorted(kept)
    return None


def test_block_sampler_keeps_first_distinct_candidates(monkeypatch):
    # with no slack, rows of 4 candidates from range(6) often hold fewer
    # than 3 distinct values and take the child-stream fallback
    monkeypatch.setattr(estimate_module, "CANDIDATE_SLACK", 0)
    rows = sample_rows(6, 3, trial_rng(3, 0, 0), 64)
    candidates = trial_rng(3, 0, 0).integers(0, 6, size=(64, 4))
    reference = [_first_distinct(row, 3) for row in candidates]
    assert any(r is None for r in reference) and any(r is not None for r in reference)
    for row, expected in zip(rows.tolist(), reference):
        assert len(set(row)) == 3 and row == sorted(row)
        if expected is not None:
            assert row == expected
    assert np.array_equal(sample_rows(6, 3, trial_rng(3, 0, 0), 10), rows[:10])


def test_block_sampler_subset_uniformity_including_fallback(monkeypatch):
    monkeypatch.setattr(estimate_module, "CANDIDATE_SLACK", 0)
    counts = {}
    blocks = 200
    for b in range(blocks):
        for row in sample_rows(6, 3, trial_rng(8, b, 0), 64).tolist():
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    total = blocks * 64
    assert len(counts) == 20
    band = 4 * np.sqrt(total * 0.05 * 0.95)
    for subset, count in counts.items():
        assert abs(count - total / 20) <= band, (subset, count)


def test_block_sampler_complement_and_census():
    rows = sample_rows(10, 8, trial_rng(1, 0, 0), 50)  # draws the 2 left out
    assert rows.shape == (50, 8)
    assert all(len(set(r)) == 8 and r == sorted(r) for r in rows.tolist())
    assert np.array_equal(sample_rows(5, 5, trial_rng(1, 0, 0), 3), np.tile(np.arange(5), (3, 1)))


def _fractional_pool(size=240, seed=4):
    """Synthetic signals with non-binary losses, so sums round."""
    base = make_pool(SynthConfig(size=size, seed=seed))
    rng = np.random.default_rng(seed)
    return Pool(replace(inst, target_loss=float(rng.random())) for inst in base.instances)


def test_run_trials_equals_single_draw_path_across_block_boundaries():
    pool = _fractional_pool()
    trials = 2 * BLOCK_TRIALS + 5
    for method in (MethodSpec.uniform(), MethodSpec.stratified("proxy_neyman")):
        strat, members, plan = prepare_method(pool, method, 37)
        estimates = run_trials(pool, method, 37, trials, master_seed=12)
        for t in (0, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, trials - 1):
            draw = draw_stratified(members, plan, 12, t)
            single = ht_estimate(draw, plan, strat.sizes, pool.oracle())
            assert single == estimates[t], (method.name, t)
    # uniform_estimate from a block's stream is that block's first trial
    uniform = run_trials(pool, MethodSpec.uniform(), 37, trials, master_seed=12)
    for block in (0, 1, 2):
        single = uniform_estimate(pool, 37, trial_rng(12, block, 0), pool.oracle())
        assert single == uniform[block * BLOCK_TRIALS]


def test_run_trials_prefix_and_workers_over_several_blocks():
    pool = _fractional_pool()
    method = MethodSpec.stratified("proxy_neyman")
    trials = 3 * BLOCK_TRIALS + 7
    full = run_trials(pool, method, 30, trials, master_seed=4)
    assert run_trials(pool, method, 30, BLOCK_TRIALS + 3, master_seed=4) == full[:BLOCK_TRIALS + 3]
    assert run_trials(pool, method, 30, trials, master_seed=4, workers=4) == full
    assert run_trials(pool, method, 30, trials, master_seed=5) != full


def test_block_oracle_meters_rows_and_rejects_bad_ones():
    pool = two_strata_pool((1, 0, 0, 1, 1, 1))
    oracle = BlockOracle(pool, 2)
    losses = oracle.reveal_rows(np.array([[0, 3], [1, 5]]))
    assert losses.tolist() == [[1.0, 1.0], [0.0, 1.0]]
    oracle.reveal_rows(np.array([[4], [2]]))
    assert oracle.labels_used.tolist() == [3, 3]
    for bad in ([[0, 0], [1, 2]], [[1, 0], [2, 3]], [[0, 6], [1, 2]], [[-1, 0], [1, 2]], [[0, 1]]):
        with pytest.raises(DataError):
            BlockOracle(pool, 2).reveal_rows(np.array(bad))
