import math
import os
import pickle

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
    round_allocation,
    run_trials,
    sem,
    sweep,
    SynthConfig,
)
import active_eval.estimate as estimate_module
from active_eval.estimate import (
    BLOCK_TRIALS, draw_stratified, estimate_blocks, ht_estimate, trial_rng,
)
from active_eval.harness import (
    METHOD_TAGS,
    method_stratification,
    method_weights,
    prepare_method,
)
from conftest import reversed_blocks_in_child

SMALL = SynthConfig(size=200, seed=31)


def canonical_methods():
    """Uniform plus the five allocation rules under the default scheme."""
    return [MethodSpec.from_tag(tag) for tag in METHOD_TAGS]


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


def test_strata_must_be_an_integer():
    # 2.5 would run 3 strata and report "strata: 2.5"
    with pytest.raises(ConfigError, match="strata must be an integer"):
        MethodSpec.stratified("proxy_neyman", strata=2.5)
    assert MethodSpec.stratified("proxy_neyman", strata=np.int64(3)).strata == 3


def test_run_trials_census_matches_risk(small_pool):
    risk = finite_pool_risk(small_pool, small_pool.loss_vector())
    for method in canonical_methods():
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
    # uniform sampling is rounded on its one stratum like any other plan
    with pytest.raises(ConfigError, match="below the stratum count 1"):
        run_trials(small_pool, MethodSpec.uniform(), 0, 5, master_seed=0)
    with pytest.raises(ConfigError, match="exceeds the pool size 200"):
        run_trials(small_pool, MethodSpec.uniform(), small_pool.size + 1, 5, master_seed=0)
    with pytest.raises(ConfigError, match="at least one trial"):
        run_trials(small_pool, MethodSpec.uniform(), 5, 0, master_seed=0)


def test_run_trials_mean_tracks_risk(small_pool):
    risk = finite_pool_risk(small_pool, small_pool.loss_vector())
    method = MethodSpec.stratified("proxy_neyman")
    estimates = run_trials(small_pool, method, 40, 600, master_seed=13)
    values = [e.value for e in estimates]
    assert abs(np.mean(values) - risk) <= 3 * sem(values)


def test_parallel_run_equals_serial(small_pool, large_pool, monkeypatch):
    # the blocks drawn one at a time, last first, in another process
    method = MethodSpec.stratified("proxy_neyman")
    serial = run_trials(small_pool, method, 30, 40, master_seed=2)
    values, labels = reversed_blocks_in_child(small_pool, method, 30, 40, 2)
    assert [(e.value, e.labels_used) for e in serial] == list(zip(values.tolist(), labels.tolist()))
    # wide enough windows split the serial run into several groups: the one
    # uniform stratum is summed once per group
    passes = []
    stratum_sums = estimate_module._stratum_sums
    monkeypatch.setattr(
        estimate_module, "_stratum_sums",
        lambda *args: passes.append(args[-1]) or stratum_sums(*args),
    )
    serial = run_trials(large_pool, MethodSpec.uniform(), 5000, 3 * BLOCK_TRIALS, 2)
    assert len(passes) > 1 and sum(passes) == 3 * BLOCK_TRIALS
    monkeypatch.undo()
    values, labels = reversed_blocks_in_child(large_pool, MethodSpec.uniform(), 5000, 3 * BLOCK_TRIALS, 2)
    assert [(e.value, e.labels_used) for e in serial] == list(zip(values.tolist(), labels.tolist()))


def test_sweep_grid_and_uniform_baseline(small_pool):
    report = sweep(
        small_pool,
        [MethodSpec.stratified("proxy_neyman"), MethodSpec.stratified("proportional")],
        budgets=[20, 40],
        trials=50,
        master_seed=7,
    )
    assert "uniform" in {r.method for r in report.rows}  # always included as denominator
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


def test_sweep_skips_every_method_above_the_pool_size(small_pool):
    n = small_pool.size
    methods = [MethodSpec.stratified("proxy_neyman"), MethodSpec.stratified("equal")]
    report = sweep(small_pool, methods, budgets=[20, n + 1], trials=10, master_seed=1)
    assert {r.budget for r in report.rows} == {20}
    assert [(c.method, c.budget) for c in report.skipped] == [
        ("uniform", n + 1), ("proxy_neyman", n + 1), ("equal", n + 1)
    ]
    assert {c.reason for c in report.skipped} == {f"budget {n + 1} exceeds the pool size {n}"}


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
    monkeypatch.setattr("active_eval.harness.estimate_blocks", no_cell)
    for trials in (1, 0):
        with pytest.raises(ConfigError, match="at least two trials"):
            sweep(small_pool, [MethodSpec.stratified("equal")], [20], trials=trials)


def test_sweep_rejects_budgets_below_one(small_pool, monkeypatch):
    # rejected before any cell runs, not recorded as skipped cells
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("active_eval.harness.estimate_blocks", no_cell)
    for budgets in ([0, 20], [-3], [20, 0]):
        with pytest.raises(ConfigError, match="budgets must be positive"):
            sweep(small_pool, [MethodSpec.stratified("equal")], budgets, trials=5)


@pytest.mark.parametrize("scheme", ["adaptive_se", "quantile", "equal_width", "kmeans"])
def test_weights_once_give_prepare_method_plans(scheme, small_pool, large_pool):
    # sweep rounds one set of weights per method at every budget; each plan
    # must be the one prepare_method computes from scratch for that cell
    # (uniform: the proportional rule on one stratum)
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
                        round_allocation(weights, budget, strat.sizes)
                    continue
                plan = round_allocation(weights, budget, strat.sizes)
                if method.allocation is None:
                    assert expected.m.tolist() == [budget] and strat.sizes.tolist() == [pool.size]
                assert np.array_equal(plan.m, expected.m), (method, budget)
                assert plan.m.dtype == expected.m.dtype
                assert (plan.budget, plan.rule, plan.delta) == (
                    expected.budget, expected.rule, expected.delta
                )


def _in_forked_child(fn):
    """fn() computed in a forked child process and sent back pickled."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as out:
                pickle.dump(fn(), out)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as inp:
            return pickle.load(inp)
    finally:
        os.waitpid(pid, 0)


def _assert_sweep_cells_invariant(pool, methods, budgets, trials, seed):
    """Every sweep cell equals its run alone, as a trial prefix, block by
    block in reverse order and in a forked child, and trial by trial."""
    report = sweep(pool, methods, budgets, trials=trials, master_seed=seed)
    by_name = {m.name: m for m in methods}
    partitions = {}
    for row in report.rows:
        method = by_name.get(row.method, MethodSpec.uniform())
        strat, members, plan = prepare_method(pool, method, row.budget)
        partitions.setdefault(method.partition, (strat, members, []))[2].append(
            (method, row, plan)
        )
    blocks = [(b, min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
              for b in range(-(-trials // BLOCK_TRIALS))]
    prefix = BLOCK_TRIALS + 3
    for strat, members, cells in partitions.values():
        plans = [plan for _, _, plan in cells]
        shared = estimate_blocks(pool, members, plans, seed, 0, trials)

        def by_block(order):
            return {
                b: estimate_blocks(pool, members, plans, seed, *blocks[b])
                for b in order
            }

        backwards = by_block(reversed(range(len(blocks))))
        forked = _in_forked_child(lambda: by_block(range(len(blocks))))
        for i, (method, row, plan) in enumerate(cells):
            values, labels = shared[i]
            assert (labels == row.budget).all()
            alone = run_trials(pool, method, row.budget, trials, seed)
            assert values.tolist() == [e.value for e in alone], (row.method, row.budget)
            assert row.mean_estimate == float(np.mean(values))
            assert row.mse == mse(values, row.pool_risk)
            assert row.sem == sem(values)
            head = run_trials(pool, method, row.budget, prefix, seed)
            assert [e.value for e in head] == values[:prefix].tolist()
            for results in (backwards, forked):
                pieces = [results[b][i][0] for b in range(len(blocks))]
                assert np.concatenate(pieces).tolist() == values.tolist()
            for t in (BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1):
                draw = draw_stratified(members, plan, seed, t)
                single = ht_estimate(draw, plan, strat.sizes, pool.oracle())
                assert single.value == values[t] and single.labels_used == row.budget


def test_sweep_cells_equal_run_trials_from_scratch(small_pool, large_pool):
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
    # the cells of one partition share their draws; each must still be the
    # cell run alone, over a trial count that is not a multiple of the
    # block size: here with complement draws (m_h > N_h / 2) and census
    # cells in the same passes, then on the reference pool and on an
    # N=100k pool
    _assert_sweep_cells_invariant(small_pool, methods, [20, 120, 200], 2 * BLOCK_TRIALS + 5, 25)
    _assert_sweep_cells_invariant(
        reference_pool(), canonical_methods(), [50, 100, 200],
        2 * BLOCK_TRIALS + 5, 23,
    )
    large_methods = [MethodSpec.uniform(), MethodSpec.stratified("oracle_neyman")] + [
        MethodSpec.stratified("proxy_neyman", name=f"proxy_neyman/{scheme}",
                              stratification=scheme)
        for scheme in ("adaptive_se", "kmeans")
    ]
    _assert_sweep_cells_invariant(large_pool, large_methods, [1000, 5000],
                                  BLOCK_TRIALS + 5, 24)


def test_fractional_sweep_cells_equal_every_other_path(fractional_pool, monkeypatch):
    # With fractional losses a sum depends on the order of its terms, so
    # every path must add a draw's losses in draw order. Cells that read a
    # prefix of the shared rows, complement cells (m_h > N_h / 2), census
    # cells and cells whose rows fall short and are redrawn share one pass
    # here: without slack, many rows of 120 = N / 2 candidates fall short.
    import active_eval.estimate as estimate_module

    pool = fractional_pool
    n, seed, trials = pool.size, 29, 2 * BLOCK_TRIALS + 5
    methods = [MethodSpec.uniform()] + [
        MethodSpec.stratified(rule) for rule in ("proxy_neyman", "oracle_neyman", "equal")
    ]
    for slack in (estimate_module.CANDIDATE_SLACK, 0):
        monkeypatch.setattr(estimate_module, "CANDIDATE_SLACK", slack)
        width = 120 + 120 * 120 // n + slack
        candidates = [
            np.sort(trial_rng(seed, b, 0).integers(0, n, size=(width, BLOCK_TRIALS)), axis=0)
            for b in range(3)
        ]
        short = sum(int((1 + (np.diff(c, axis=0) != 0).sum(axis=0) < 120).sum())
                    for c in candidates)
        assert (short > 0) == (slack == 0)
        _assert_sweep_cells_invariant(pool, methods, [20, 120, 200, n], trials, seed)


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
    for method in canonical_methods():
        for budget in (50, 100, 200):
            _, members, plan = prepare_method(pool, method, budget)
            exact = _design_variance(losses, members, plan.m)
            values = [e.value for e in run_trials(pool, method, budget, 2000, master_seed=21)]
            z = (mse(values, risk) - exact) / mse_noise_band(values, risk)
            assert abs(z) <= 5, (method.name, budget, z)


def test_every_trial_spends_exactly_its_budget(small_pool):
    for method in canonical_methods():
        for budget in (20, 57, small_pool.size):
            estimates = run_trials(small_pool, method, budget, 2 * BLOCK_TRIALS + 1, master_seed=3)
            assert all(e.labels_used == budget for e in estimates), (method.name, budget)
