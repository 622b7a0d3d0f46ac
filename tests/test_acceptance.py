"""Acceptance suite: one test per criterion, at the stated tolerances.

Statistical criteria run on the frozen reference pool with pinned master
seeds so every run is deterministic. The conftest terminal hook prints one
PASS/FAIL line per criterion."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from active_eval import (
    AllocationPlan,
    DataError,
    DecodingConfig,
    EndpointConfig,
    MethodSpec,
    ParserSpec,
    baseline_weights,
    budget_savings,
    build_pool,
    export_pool,
    finite_pool_risk,
    generate_k,
    ht_estimate,
    load_pool,
    mse,
    mse_noise_band,
    proxy_neyman_weights,
    reference_pool,
    relative_mse,
    round_allocation,
    run_trials,
    self_consistency,
    semantic_entropy,
    sem,
    sweep,
)
from active_eval.stratify import STRATIFIERS
from conftest import pool_from_rows, reversed_blocks_in_child

MC_SEED = 0
MC_TRIALS = 3000
MC_BUDGETS = (50, 100, 200)
METHOD_NAMES = ("uniform", "equal", "proportional", "power", "proxy_neyman", "oracle_neyman")

ABLATION_BUDGETS = (50, 100, 200, 400, 800)
ABLATION_SEEDS = (0, 1, 2, 3, 4)
ABLATION_TRIALS = 1000


@pytest.fixture(scope="module")
def pool():
    return reference_pool()


@pytest.fixture(scope="module")
def pool_risk(pool):
    return finite_pool_risk(pool, pool.loss_vector())


@pytest.fixture(scope="module")
def mc_grid(pool):
    """values[(method, budget)] -> estimate array, shared trial seeds."""
    start = time.perf_counter()
    values = {}
    for name in METHOD_NAMES:
        method = MethodSpec.uniform() if name == "uniform" else MethodSpec.stratified(name)
        for budget in MC_BUDGETS:
            estimates = run_trials(pool, method, budget, MC_TRIALS, MC_SEED)
            values[(name, budget)] = np.array([e.value for e in estimates])
    return values, time.perf_counter() - start


def test_c01_exact_unbiasedness_by_enumeration():
    start = time.perf_counter()
    losses = (1, 0, 0, 1, 1, 1)
    pool6 = pool_from_rows([["A", "A"] if j < 4 else ["A", "B"] for j in range(6)], losses)
    risk = finite_pool_risk(pool6, pool6.loss_vector())
    plan = AllocationPlan(m=np.array([2, 1]), budget=3, rule="enumeration")
    sizes = np.array([4, 2])
    estimates = []
    for s0 in itertools.combinations(range(4), 2):
        for s1 in itertools.combinations(range(4, 6), 1):
            draw = (np.array(s0), np.array(s1))
            estimates.append(ht_estimate(draw, plan, sizes, pool6.oracle()).value)
    assert len(estimates) == 12
    assert abs(np.mean(estimates) - risk) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_c02_monte_carlo_unbiasedness(mc_grid, pool_risk):
    values, elapsed = mc_grid
    for name in METHOD_NAMES:
        for budget in MC_BUDGETS:
            estimates = values[(name, budget)]
            gap = abs(estimates.mean() - pool_risk)
            assert gap <= 3 * sem(estimates), (name, budget, gap)
    assert elapsed < 120.0


def test_c03_variance_ordering(mc_grid, pool_risk):
    values, _ = mc_grid
    for budget in MC_BUDGETS:
        rel = relative_mse(
            values[("proxy_neyman", budget)], values[("uniform", budget)], pool_risk
        )
        assert rel < 1.0, (budget, rel)
        if budget == 100:
            assert rel <= 0.92, rel
    for budget in MC_BUDGETS:
        oracle_mse = mse(values[("oracle_neyman", budget)], pool_risk)
        proxy_mse = mse(values[("proxy_neyman", budget)], pool_risk)
        band = math.hypot(
            mse_noise_band(values[("oracle_neyman", budget)], pool_risk),
            mse_noise_band(values[("proxy_neyman", budget)], pool_risk),
        )
        assert oracle_mse <= proxy_mse + 3 * band, (budget, oracle_mse, proxy_mse)


def test_c04_signal_oracles():
    answers = ["A"] * 5 + ["B"] * 3 + ["C"] * 2
    assert semantic_entropy(answers) == pytest.approx(1.029653, abs=1e-6)
    assert self_consistency(answers) == 0.5
    assert semantic_entropy(["A"] * 10) == 0.0
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        k = int(rng.integers(2, 25))
        labels = rng.integers(0, rng.integers(1, 9), size=k)
        hist = [f"c{v}" for v in labels]
        sc = self_consistency(hist)
        se = semantic_entropy(hist)
        assert 1.0 / k <= sc <= 1.0
        assert 0.0 <= se <= math.log(k) + 1e-12


def test_c05_allocation_feasibility_properties():
    rng = np.random.default_rng(0)
    proportional_checked = 0
    for _ in range(1000):
        h = int(rng.integers(2, 9))
        sizes = rng.choice(np.arange(1, 1001), size=h, replace=False)
        p = rng.random(h)
        delta = float(rng.uniform(0.05, 5.0))
        total = int(sizes.sum())
        budget = int(rng.integers(h, min(total, 160) + 1))

        plan = round_allocation(proxy_neyman_weights(sizes, p, delta), budget, sizes)
        assert plan.m.sum() == budget
        assert (plan.m >= 1).all() and (plan.m <= sizes).all()

        prop = round_allocation(baseline_weights("proportional", sizes), budget, sizes)
        equal_p = round_allocation(
            proxy_neyman_weights(sizes, np.full(h, float(p[0])), delta), budget, sizes
        )
        assert np.array_equal(equal_p.m, prop.m)
        huge_delta = round_allocation(
            proxy_neyman_weights(sizes, p, 1e6), budget, sizes
        )
        assert np.array_equal(huge_delta.m, prop.m)
        proportional_checked += 1
    assert proportional_checked == 1000


def test_c06_worked_allocation_oracle():
    weights = proxy_neyman_weights(np.array([80, 20]), np.array([1.0, 0.5]), delta=0.75)
    plan = round_allocation(weights, 10, np.array([80, 20]))
    assert plan.m.tolist() == [7, 3]


def test_c07_census_identities(pool, pool_risk):
    for name in METHOD_NAMES:
        method = MethodSpec.uniform() if name == "uniform" else MethodSpec.stratified(name)
        values = [
            run_trials(pool, method, pool.size, 1, master_seed=seed)[0].value
            for seed in range(100)
        ]
        assert all(v == pool_risk for v in values), name
        assert np.var(values) == 0.0


def test_c08_metric_arithmetic():
    record = budget_savings(
        [(100, 0.025), (200, 0.01)],
        [(100, 0.02), (144, 0.01), (200, 0.006)],
        200,
    )
    assert record.matched_m == pytest.approx(144.0)
    assert record.savings_fraction == pytest.approx(0.280, abs=1e-12)
    uniform = [0.4, 0.6, 0.5]
    assert relative_mse(uniform, uniform, 0.5) == 1.0
    assert sem([0.4, 0.6]) == pytest.approx(0.1, abs=1e-12)


def test_c09_ablation_trends(pool, pool_risk):
    configs = {
        "d075_h5": MethodSpec.stratified("proxy_neyman", name="d075_h5", delta=0.75, strata=5),
        "d5_h5": MethodSpec.stratified("proxy_neyman", name="d5_h5", delta=5.0, strata=5),
        "d075_h2": MethodSpec.stratified("proxy_neyman", name="d075_h2", delta=0.75, strata=2),
    }
    delta_wins = 0
    strata_wins = 0
    for seed in ABLATION_SEEDS:
        averages = {}
        uniform_values = {
            budget: np.array(
                [e.value for e in run_trials(pool, MethodSpec.uniform(), budget,
                                             ABLATION_TRIALS, seed)]
            )
            for budget in ABLATION_BUDGETS
        }
        for tag, method in configs.items():
            ratios = []
            for budget in ABLATION_BUDGETS:
                estimates = run_trials(pool, method, budget, ABLATION_TRIALS, seed)
                ratios.append(
                    relative_mse([e.value for e in estimates],
                                 uniform_values[budget], pool_risk)
                )
            averages[tag] = float(np.mean(ratios))
        delta_wins += averages["d075_h5"] < averages["d5_h5"]
        strata_wins += averages["d075_h5"] < averages["d075_h2"]
    assert delta_wins >= 4, f"delta ablation held on {delta_wins}/5 seeds"
    assert strata_wins >= 4, f"strata ablation held on {strata_wins}/5 seeds"


def test_c10_determinism_and_parallel_safety(pool):
    methods = [MethodSpec.stratified("proxy_neyman"), MethodSpec.stratified("oracle_neyman")]
    first = sweep(pool, methods, [50, 100], trials=200, master_seed=17)
    second = sweep(pool, methods, [50, 100], trials=200, master_seed=17)
    assert first.rows == second.rows

    # the blocks drawn one at a time, last first, in another process
    serial = run_trials(pool, methods[0], 100, 200, master_seed=17)
    values, labels = reversed_blocks_in_child(pool, methods[0], 100, 200, 17)
    assert [e.value for e in serial] == values.tolist()
    assert [e.labels_used for e in serial] == labels.tolist()


def test_c11_ingestion_round_trip(pool, pool_risk, tmp_path):
    path = tmp_path / "reference.jsonl"
    export_pool(pool, path)
    loaded, stats = load_pool(path)
    assert stats.has_losses
    assert np.array_equal(loaded.se_values, pool.se_values)
    assert np.array_equal(loaded.sc_values, pool.sc_values)
    assert finite_pool_risk(loaded, loaded.loss_vector()) == pool_risk
    for method, fn in STRATIFIERS.items():
        assert np.array_equal(
            fn(loaded.se_values, 5).assignment, fn(pool.se_values, 5).assignment
        ), method

    wrong_k = tmp_path / "wrong_k.jsonl"
    lines = path.read_text().splitlines()
    broken = json.loads(lines[2])
    broken["surrogate_answers"] = broken["surrogate_answers"][:9]
    wrong_k.write_text("\n".join(lines[:2] + [json.dumps(broken)]) + "\n")
    with pytest.raises(DataError, match=":3:"):
        load_pool(wrong_k)

    dup = tmp_path / "dup.jsonl"
    dup.write_text("\n".join(lines[:2] + [lines[0]]) + "\n")
    with pytest.raises(DataError, match=":3:.*duplicate"):
        load_pool(dup)


def test_c12_generation_client(mock_server, tmp_path):
    endpoint = EndpointConfig(
        base_url=mock_server.base_url,
        model="surrogate",
        timeout=5.0,
        max_retries=3,
        retry_backoff=0.001,
        concurrency=1,
    )
    decoding = DecodingConfig()

    # decoding payload carries the pinned sampling configuration bit-exactly
    mock_server.script.append(["gen"] * 10)
    generate_k(endpoint, "prompt", decoding)
    payload = mock_server.requests[-1]["payload"]
    assert payload["n"] == 10
    assert payload["temperature"] == 0.7
    assert payload["top_p"] == 0.8
    assert payload["top_k"] == 20
    assert payload["presence_penalty"] == 1.5
    assert payload["repetition_penalty"] == 1.0
    assert "max_tokens" not in payload

    # two injected rate-limit responses, then success
    before = len(mock_server.requests)
    mock_server.script.extend([429, 429, ["ok"]])
    texts = generate_k(endpoint, "prompt", decoding)
    assert texts == ["ok"] * 10
    assert len(mock_server.requests) - before == 3

    # resume without duplicate requests
    out = tmp_path / "pool.jsonl"
    inputs = [{"id": f"q{i}", "prompt": f"p{i}", "gold_answer": "A"} for i in range(4)]
    build_pool(endpoint, inputs, decoding, out)
    after_first = len(mock_server.requests)
    stats = build_pool(endpoint, inputs, decoding, out)
    assert stats.skipped == 4 and stats.completed == 0
    assert len(mock_server.requests) == after_first
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sorted(r["id"] for r in records) == [f"q{i}" for i in range(4)]
    pool, _ = load_pool(out, parser=ParserSpec(kind="mc_letter"), require_loss=False)
    assert pool.size == 4
    # the mock returns one fixed text per input, so entropy must be zero
    assert (pool.se_values == 0.0).all()
    assert (pool.sc_values == 1.0).all()
