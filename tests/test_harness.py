import math

import numpy as np
import pytest

from active_eval import (
    ConfigError,
    DataError,
    MethodSpec,
    budget_savings,
    finite_pool_risk,
    make_pool,
    mse,
    mse_noise_band,
    reference_pool,
    relative_mse,
    run_trials,
    sem,
    sweep,
    SynthConfig,
)
from active_eval.estimate import BLOCK_TRIALS
from active_eval.harness import method_stratification, method_weights, prepare_method

SMALL = SynthConfig(size=200, seed=31)


@pytest.fixture(scope="module")
def small_pool():
    return make_pool(SMALL)


def test_mse_examples():
    assert mse([0.5, 0.5, 0.5], 0.5) == 0.0
    assert mse([0.4, 0.6], 0.5) == pytest.approx(0.01, abs=1e-15)
    assert mse([0.7], 0.5) == pytest.approx(0.04, abs=1e-15)
    with pytest.raises(DataError):
        mse([], 0.5)


def test_relative_mse_examples():
    assert relative_mse([0.4, 0.6], [0.4, 0.6], 0.5) == 1.0
    assert relative_mse([0.46, 0.54], [0.4, 0.6], 0.5) == pytest.approx(0.16)
    assert relative_mse([0.4], [0.5], 0.5) is None  # census denominator


def test_sem_examples():
    assert sem([0.3, 0.3, 0.3]) == 0.0
    assert sem([0.4, 0.6]) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(DataError):
        sem([0.4])


def test_sem_shrinks_with_replication(small_pool):
    uniform = MethodSpec.uniform()
    small = run_trials(small_pool, uniform, 20, 400, master_seed=5)
    large = run_trials(small_pool, uniform, 20, 1600, master_seed=5)
    ratio = sem(large) / sem(small)
    assert 0.35 <= ratio <= 0.7  # ~1/2 for 4x the trials


def test_method_spec_validation():
    with pytest.raises(ConfigError):
        MethodSpec.stratified("nope")
    with pytest.raises(ConfigError):
        MethodSpec.stratified("proxy_neyman", strata=1)
    with pytest.raises(ConfigError):
        MethodSpec.stratified("proxy_neyman", delta=0.0)
    with pytest.raises(ConfigError):
        MethodSpec.stratified("proxy_neyman", stratification="nope")


def test_run_trials_census_matches_risk(small_pool):
    risk = finite_pool_risk(small_pool, small_pool.loss_vector())
    for method in MethodSpec.canonical_set():
        estimates = run_trials(small_pool, method, small_pool.size, 3, master_seed=0)
        assert all(e.value == risk for e in estimates)
        assert all(e.labels_used == small_pool.size for e in estimates)


def test_run_trials_single_trial(small_pool):
    risk = finite_pool_risk(small_pool, small_pool.loss_vector())
    estimates = run_trials(small_pool, MethodSpec.uniform(), 20, 1, master_seed=3)
    assert len(estimates) == 1
    assert mse(estimates, risk) == (estimates[0].value - risk) ** 2


def test_run_trials_rejects_infeasible_budget(small_pool):
    method = MethodSpec.stratified("proxy_neyman", strata=5)
    with pytest.raises(ConfigError, match="below the stratum count"):
        run_trials(small_pool, method, 3, 5, master_seed=0)
    with pytest.raises(ConfigError, match="out of range"):
        run_trials(small_pool, MethodSpec.uniform(), 0, 5, master_seed=0)
    with pytest.raises(ConfigError, match="at least one trial"):
        run_trials(small_pool, MethodSpec.uniform(), 5, 0, master_seed=0)


def test_run_trials_mean_tracks_risk(small_pool):
    risk = finite_pool_risk(small_pool, small_pool.loss_vector())
    method = MethodSpec.stratified("proxy_neyman")
    estimates = run_trials(small_pool, method, 40, 600, master_seed=13)
    values = [e.value for e in estimates]
    assert abs(np.mean(values) - risk) <= 3 * sem(values)


def test_parallel_run_equals_serial(small_pool):
    method = MethodSpec.stratified("proxy_neyman")
    serial = run_trials(small_pool, method, 30, 40, master_seed=2, workers=1)
    parallel = run_trials(small_pool, method, 30, 40, master_seed=2, workers=4)
    assert [e.value for e in serial] == [e.value for e in parallel]


def test_sweep_grid_and_uniform_baseline(small_pool):
    report = sweep(
        small_pool,
        [MethodSpec.stratified("proxy_neyman"), MethodSpec.stratified("proportional")],
        budgets=[20, 40],
        trials=50,
        master_seed=7,
    )
    methods = report.methods()
    assert "uniform" in methods  # always included as denominator
    assert len(report.rows) == 3 * 2
    uniform_rows = [r for r in report.rows if r.method == "uniform"]
    assert all(r.relative_mse == 1.0 for r in uniform_rows)
    proxy_rows = [r for r in report.rows if r.method == "proxy_neyman"]
    assert {r.budget for r in proxy_rows} == {20, 40}
    assert all(r.h_eff is not None and r.delta == 0.75 for r in proxy_rows)


def test_sweep_records_skipped_cells(small_pool):
    report = sweep(
        small_pool,
        [MethodSpec.stratified("proxy_neyman", strata=5)],
        budgets=[3, 20],
        trials=20,
        master_seed=1,
    )
    skipped = [(c.method, c.budget) for c in report.skipped]
    assert ("proxy_neyman", 3) in skipped
    assert all(r.budget != 3 or r.method == "uniform" for r in report.rows)
    reason = next(c.reason for c in report.skipped if c.budget == 3)
    assert "below the stratum count" in reason


def test_sweep_rerun_is_bit_identical(small_pool):
    methods = [MethodSpec.stratified("proxy_neyman")]
    a = sweep(small_pool, methods, [20, 40], trials=60, master_seed=9)
    b = sweep(small_pool, methods, [20, 40], trials=60, master_seed=9)
    assert a.rows == b.rows


def test_variance_ordering_on_reference_pool():
    pool = reference_pool()
    risk = finite_pool_risk(pool, pool.loss_vector())
    trials = 1500
    for budget in (50, 100, 200):
        by_rule = {}
        for rule in ("uniform", "proxy_neyman", "oracle_neyman"):
            method = MethodSpec.uniform() if rule == "uniform" else MethodSpec.stratified(rule)
            estimates = run_trials(pool, method, budget, trials, master_seed=6)
            by_rule[rule] = np.array([e.value for e in estimates])
        assert mse(by_rule["proxy_neyman"], risk) < mse(by_rule["uniform"], risk)
        band = math.hypot(
            mse_noise_band(by_rule["oracle_neyman"], risk),
            mse_noise_band(by_rule["proxy_neyman"], risk),
        )
        assert mse(by_rule["oracle_neyman"], risk) <= mse(
            by_rule["proxy_neyman"], risk
        ) + 2 * band


def test_sweep_supports_ablation_axes(small_pool):
    # strata-count and smoothing-offset grids run side by side under
    # distinct method names
    methods = [
        MethodSpec.stratified("proxy_neyman", name=f"h{h}", strata=h)
        for h in (2, 3, 5, 8)
    ] + [
        MethodSpec.stratified("proxy_neyman", name=f"d{d}", delta=d)
        for d in (0.5, 0.75, 1.0, 2.0, 5.0)
    ]
    report = sweep(small_pool, methods, [40], trials=25, master_seed=3)
    assert len(report.rows) == 10  # uniform plus nine ablation cells
    by_name = {r.method: r for r in report.rows}
    assert by_name["h2"].strata == 2 and by_name["h8"].strata == 8
    assert by_name["d5.0"].delta == 5.0


def test_sweep_duplicate_method_names_rejected(small_pool):
    with pytest.raises(ConfigError, match="duplicate"):
        sweep(
            small_pool,
            [MethodSpec.stratified("equal"), MethodSpec.stratified("equal")],
            [20],
            trials=5,
            master_seed=0,
        )


def test_sweep_rejects_fewer_than_two_trials(small_pool, monkeypatch):
    # rejected before any cell runs, not after every cell with a failed SE
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("active_eval.harness.run_trials", no_cell)
    monkeypatch.setattr("active_eval.harness._cell_estimates", no_cell)
    for trials in (1, 0):
        with pytest.raises(ConfigError, match="at least two trials"):
            sweep(small_pool, [MethodSpec.stratified("equal")], [20], trials=trials)


@pytest.mark.parametrize("scheme", ["adaptive_se", "quantile", "equal_width", "kmeans"])
def test_weights_once_give_prepare_method_plans(scheme, small_pool, large_pool):
    # sweep rounds one set of weights per method at every budget; each plan
    # must be the one prepare_method computes from scratch for that cell
    for pool in (reference_pool(), small_pool, large_pool):
        methods = [MethodSpec.uniform()] + [
            MethodSpec.stratified(rule, stratification=scheme, strata=strata)
            for rule in ("proxy_neyman", "equal", "proportional", "power", "oracle_neyman")
            for strata in (2, 5)
        ]
        for method in methods:
            strat = method_stratification(pool, method)
            weights = method_weights(pool, method, strat)
            for budget in (1, 7, 50, 200, pool.size):
                try:
                    expected = prepare_method(pool, method, budget)[2]
                except ConfigError:
                    with pytest.raises(ConfigError):
                        prepare_method(pool, method, budget, strat, weights)
                    continue
                plan = prepare_method(pool, method, budget, strat, weights)[2]
                assert np.array_equal(plan.m, expected.m), (method, budget)
                assert plan.m.dtype == expected.m.dtype
                assert (plan.budget, plan.rule, plan.delta) == (
                    expected.budget, expected.rule, expected.delta
                )


def test_sweep_cells_equal_run_trials_from_scratch(small_pool):
    methods = [
        MethodSpec.stratified(rule, name=f"{rule}/{scheme}", stratification=scheme)
        for rule in ("proxy_neyman", "oracle_neyman", "power")
        for scheme in ("adaptive_se", "kmeans")
    ]
    report = sweep(small_pool, methods, [20, 40], trials=30, master_seed=8)
    assert len(report.rows) == 14
    by_name = {m.name: m for m in methods}
    for row in report.rows:
        method = by_name.get(row.method, MethodSpec.uniform())
        values = [e.value for e in run_trials(small_pool, method, row.budget, 30, 8)]
        assert row.mean_estimate == float(np.mean(values))
        assert row.mse == mse(values, row.pool_risk)
        assert row.sem == sem(values)


def test_reducers_take_estimates_floats_or_an_array(small_pool):
    # sweep hands the reducers arrays; callers may hand them estimates or floats
    risk = finite_pool_risk(small_pool, small_pool.loss_vector())
    cells = [
        run_trials(small_pool, method, 20, 50, master_seed=3)
        for method in (MethodSpec.stratified("proxy_neyman"), MethodSpec.uniform())
    ]

    def forms(estimates):
        floats = [e.value for e in estimates]
        return estimates, floats, np.array(floats)

    results = [
        (mse(a, risk), sem(a), mse_noise_band(a, risk), relative_mse(a, b, risk))
        for a, b in zip(*map(forms, cells))
    ]
    assert results[0] == results[1] == results[2]
    assert all(isinstance(x, float) for x in results[2])


def test_budget_savings_table_arithmetic():
    uniform_curve = [(100, 0.02), (200, 0.01)]
    method_curve = [(100, 0.015), (144, 0.01), (200, 0.007)]
    record = budget_savings(uniform_curve, method_curve, 200)
    assert record.resolved
    assert record.matched_m == pytest.approx(144.0)
    assert record.savings_fraction == pytest.approx(0.28, abs=1e-12)


def test_budget_savings_identical_curves():
    curve = [(50, 0.03), (100, 0.02), (200, 0.01)]
    record = budget_savings(curve, curve, 200)
    assert record.matched_m == pytest.approx(200.0)
    assert record.savings_fraction == pytest.approx(0.0, abs=1e-12)


def test_budget_savings_unresolved_when_method_never_reaches_target():
    record = budget_savings(
        [(50, 0.03), (200, 0.01)],
        [(50, 0.05), (200, 0.02)],
        200,
    )
    assert not record.resolved
    assert record.matched_m is None and record.savings_fraction is None


def test_budget_savings_interpolates_crossing():
    record = budget_savings(
        [(100, 0.02), (200, 0.01)],
        [(100, 0.03), (200, 0.005)],
        200,
    )
    # crossing of the segment (100, 0.03) -> (200, 0.005) with 0.01
    assert record.matched_m == pytest.approx(180.0)


def test_budget_savings_rejects_reference_outside_grid():
    with pytest.raises(ConfigError):
        budget_savings([(100, 0.02), (200, 0.01)], [(100, 0.02)], 300)


def _design_variance(losses, member_lists, m):
    """Exact variance of the stratified estimator: sum_h W_h^2 (1 - f_h) S_h^2 / m_h."""
    total = 0.0
    for members, m_h in zip(member_lists, m):
        y = losses[members]
        if len(y) > 1:
            w = len(y) / len(losses)
            total += w * w * (1 - m_h / len(y)) * y.var(ddof=1) / m_h
    return total


def test_mc_mse_matches_exact_design_variance():
    # a biased fast sampler shows up here even when it is deterministic
    pool = reference_pool()
    losses = pool.loss_vector()
    risk = finite_pool_risk(pool, losses)
    for method in MethodSpec.canonical_set():
        for budget in (50, 100, 200):
            _, members, plan = prepare_method(pool, method, budget)
            exact = _design_variance(losses, members, plan.m)
            values = [e.value for e in run_trials(pool, method, budget, 2000, master_seed=21)]
            z = (mse(values, risk) - exact) / mse_noise_band(values, risk)
            assert abs(z) <= 5, (method.name, budget, z)


def test_every_trial_spends_exactly_its_budget(small_pool):
    for method in MethodSpec.canonical_set():
        for budget in (20, 57, small_pool.size):
            estimates = run_trials(small_pool, method, budget, 2 * BLOCK_TRIALS + 1, master_seed=3)
            assert all(e.labels_used == budget for e in estimates), (method.name, budget)
