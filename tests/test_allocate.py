import math

import numpy as np
import pytest

from active_eval import (
    ConfigError,
    DataError,
    baseline_weights,
    oracle_neyman_weights,
    proxy_neyman_weights,
    quantile_stratify,
    round_allocation,
)


def test_proxy_weights_hand_values():
    w = proxy_neyman_weights(np.array([80]), np.array([1.0]), delta=0.75)
    assert w.w.tolist() == [60.0]
    w = proxy_neyman_weights(np.array([20]), np.array([0.5]), delta=0.75)
    assert w.w.tolist() == [25.0]


def test_proxy_weights_equal_p_proportional_to_sizes():
    sizes = np.array([10, 40, 25])
    w = proxy_neyman_weights(sizes, np.full(3, 0.8), delta=0.5)
    ratio = w.w / sizes
    assert np.allclose(ratio, ratio[0])


def test_proxy_weights_rejects_bad_inputs():
    for delta in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="delta must be positive and finite"):
            proxy_neyman_weights(np.array([10]), np.array([0.5]), delta=delta)
    with pytest.raises(DataError):
        proxy_neyman_weights(np.array([10]), np.array([1.5]), delta=0.5)


def test_oracle_weights_population_std():
    strat = quantile_stratify(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]), 2)
    losses = np.array([0, 0, 0, 0, 0, 1, 0, 1], dtype=float)
    w = oracle_neyman_weights(strat, losses)
    assert w.w[0] == 0.0  # constant stratum
    assert w.w[1] == pytest.approx(4 * 0.5)  # Bernoulli(0.5) population std


def test_oracle_weights_all_ones_stratum():
    strat = quantile_stratify(np.array([0.0, 0.0, 1.0, 1.0]), 2)
    w = oracle_neyman_weights(strat, np.array([1, 1, 0, 1], dtype=float))
    assert w.w[0] == 0.0


def test_baseline_weights():
    sizes = np.array([80, 20])
    assert baseline_weights("equal", sizes).w.tolist() == [1, 1]
    assert baseline_weights("proportional", sizes).w.tolist() == [80, 20]
    assert baseline_weights("power", np.array([100, 25])).w.tolist() == [10.0, 5.0]
    with pytest.raises(ConfigError):
        baseline_weights("nope", sizes)


def test_round_allocation_largest_remainder_example():
    w = proxy_neyman_weights(np.array([80, 20]), np.array([1.0, 0.5]), delta=0.75)
    plan = round_allocation(w, 10, np.array([80, 20]))
    assert plan.m.tolist() == [7, 3]


def test_round_allocation_minimum_one_repair():
    w = oracle_neyman_weights(
        quantile_stratify(np.array([0.0] * 4 + [1.0] * 4), 2),
        np.array([0, 0, 0, 0, 0, 1, 0, 1], dtype=float),
    )
    plan = round_allocation(w, 4, np.array([4, 4]))
    assert plan.m.tolist() == [1, 3]


def test_round_allocation_census_binds_all_caps():
    caps = np.array([5, 3, 9])
    w = baseline_weights("equal", caps)
    plan = round_allocation(w, int(caps.sum()), caps)
    assert plan.m.tolist() == caps.tolist()


def test_round_allocation_rejects_infeasible_budgets():
    caps = np.array([4, 4])
    w = baseline_weights("equal", caps)
    with pytest.raises(ConfigError, match="below the stratum count"):
        round_allocation(w, 1, caps)
    with pytest.raises(ConfigError, match="exceeds the pool size"):
        round_allocation(w, 9, caps)


def test_round_allocation_all_zero_weights_falls_back_to_sizes():
    caps = np.array([30, 10])
    plan = round_allocation(
        oracle_neyman_weights(
            quantile_stratify(np.r_[np.zeros(30), np.ones(10)], 2), np.zeros(40)
        ),
        8,
        caps,
    )
    assert plan.m.sum() == 8
    assert plan.m.tolist() == [6, 2]


def _random_config(rng):
    h = int(rng.integers(2, 9))
    sizes = rng.integers(1, 400, size=h)
    total = int(sizes.sum())
    budget = int(rng.integers(h, min(total, 1000) + 1)) if total > h else h
    p = rng.random(h)
    delta = float(rng.uniform(0.05, 5.0))
    return sizes, p, delta, budget


def test_feasibility_properties_on_random_configs():
    rng = np.random.default_rng(123)
    for _ in range(400):
        sizes, p, delta, budget = _random_config(rng)
        for weights in (
            proxy_neyman_weights(sizes, p, delta),
            baseline_weights("equal", sizes),
            baseline_weights("proportional", sizes),
            baseline_weights("power", sizes),
        ):
            plan = round_allocation(weights, budget, sizes)
            assert plan.m.sum() == budget
            assert (plan.m >= 1).all()
            assert (plan.m <= sizes).all()


def test_plan_is_scale_invariant():
    rng = np.random.default_rng(321)
    for _ in range(200):
        sizes, p, delta, budget = _random_config(rng)
        w = proxy_neyman_weights(sizes, p, delta)
        scaled = type(w)(w=w.w * 37.5, rule=w.rule, delta=w.delta)
        a = round_allocation(w, budget, sizes)
        b = round_allocation(scaled, budget, sizes)
        assert np.array_equal(a.m, b.m)


def test_largest_remainder_guarantee_when_no_repair_runs():
    # pick configurations where neither repair can activate, so the plan is
    # the pure largest-remainder apportionment: each m is floor or floor+1
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 200:
        h = int(rng.integers(2, 8))
        sizes = rng.integers(50, 400, size=h)
        budget = int(rng.integers(h * 10, int(sizes.min()) * h))
        w_vec = rng.uniform(0.5, 2.0, size=h)
        weights = baseline_weights("equal", sizes)
        weights = type(weights)(w=w_vec, rule="test")
        raw = budget * w_vec / w_vec.sum()
        if raw.min() < 1.5 or (np.ceil(raw) > sizes).any():
            continue
        plan = round_allocation(weights, budget, sizes)
        assert (np.abs(plan.m - raw) < 1).all()
        checked += 1


def test_proxy_equals_proportional_when_p_constant():
    rng = np.random.default_rng(55)
    for _ in range(300):
        sizes, p, delta, budget = _random_config(rng)
        shared = float(p[0])
        prop = round_allocation(baseline_weights("proportional", sizes), budget, sizes)
        proxy = round_allocation(
            proxy_neyman_weights(sizes, np.full(len(sizes), shared), delta),
            budget,
            sizes,
        )
        assert np.array_equal(prop.m, proxy.m)
