import itertools

import numpy as np
import pytest

import active_eval.estimate as estimate_module
from active_eval import (
    AllocationPlan,
    DataError,
    MethodSpec,
    draw_stratified,
    finite_pool_risk,
    ht_estimate,
    run_trials,
    trial_rng,
    uniform_estimate,
)
from active_eval.errors import ConfigError
from active_eval.estimate import (
    BLOCK_TRIALS,
    CANDIDATE_SLACK,
    _StratumPass,
    _streams,
    draw_block,
    estimate_blocks,
    sample_rows,
)
from active_eval.harness import prepare_method
from active_eval.pool import BlockOracle
from conftest import pool_from_rows, reversed_blocks_in_child


def two_strata_pool(losses=(1, 0, 0, 1, 1, 1)):
    """Six instances; first four form stratum 0, last two stratum 1."""
    return pool_from_rows([["A", "A"] if j < 4 else ["A", "B"] for j in range(6)], losses)


def plan_42():
    return AllocationPlan(m=np.array([2, 1]), budget=3, rule="test")


def test_sampling_census_returns_all_ids():
    rng = trial_rng(0, 0, 0)
    out = np.array(["a", "b", "c"])[sample_rows(3, 3, rng, 1)[0]]
    assert sorted(out.tolist()) == ["a", "b", "c"]


def test_sampling_determinism_per_address():
    a = sample_rows(50, 10, trial_rng(9, 4, 2), 1)[0]
    b = sample_rows(50, 10, trial_rng(9, 4, 2), 1)[0]
    c = sample_rows(50, 10, trial_rng(9, 4, 3), 1)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_rejects_bad_sizes():
    rng = trial_rng(0, 0, 0)
    with pytest.raises(DataError):
        sample_rows(2, 0, rng, 1)
    with pytest.raises(DataError):
        sample_rows(2, 3, rng, 1)


def test_rng_rejects_negative_address():
    with pytest.raises(ConfigError):
        trial_rng(-1, 0, 0)


def test_single_draw_frequencies():
    # m=1 over two ids: binomial 4-sigma band around 5000 of 10000
    hits = 0
    for t in range(10_000):
        pick = np.array(["a", "b"])[sample_rows(2, 1, trial_rng(5, t, 0), 1)[0]]
        hits += pick[0] == "a"
    assert abs(hits - 5000) <= 200


def test_subset_uniformity():
    # every size-2 subset of 5 ids should appear ~equally often
    counts = {}
    trials = 20_000
    for t in range(trials):
        pick = sample_rows(5, 2, trial_rng(2, t, 0), 1)[0]
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
    draw = (np.array([0, 1]), np.array([4]))
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
            for h, sel in enumerate(draw)
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
            draw = (np.array(s0), np.array(s1))
            values.append(ht_estimate(draw, plan, sizes, pool.oracle()).value)
    assert len(values) == 12
    assert abs(np.mean(values) - risk) < 1e-12


def test_ht_rejects_draw_plan_mismatch():
    pool = two_strata_pool()
    with pytest.raises(DataError):
        ht_estimate(
            (np.array([0]), np.array([4])),
            plan_42(),
            np.array([4, 2]),
            pool.oracle(),
        )
    with pytest.raises(DataError):
        ht_estimate(
            (np.array([0, 0]), np.array([4])),
            plan_42(),
            np.array([4, 2]),
            pool.oracle(),
        )


def test_ht_rejects_a_position_drawn_in_two_strata():
    # the whole draw is one trial's row: a position listed in two strata is
    # a repeat, not one label metered once
    pool = two_strata_pool()
    oracle = pool.oracle()
    with pytest.raises(DataError, match="repeats an instance"):
        ht_estimate((np.array([0, 1]), np.array([1])), plan_42(), np.array([4, 2]), oracle)
    assert oracle.labels_used.tolist() == [0]


def test_ht_consumes_exactly_budget_labels():
    pool = two_strata_pool()
    oracle = pool.oracle()
    draw = draw_stratified([np.arange(4), np.arange(4, 6)], plan_42(), 1, 0)
    est = ht_estimate(draw, plan_42(), np.array([4, 2]), oracle)
    assert oracle.labels_used == 3 == est.labels_used


def test_inclusion_frequencies_match_design():
    # whole blocks of draw_block: trial t of these blocks is draw_stratified's t
    members = [np.arange(4), np.arange(4, 6)]
    plan = plan_42()
    trials = 10_000
    counts = np.zeros(6)
    for block in range(-(-trials // BLOCK_TRIALS)):
        rows = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        drawn = draw_block(members, plan, 11, block, rows)
        for stratum_rows in drawn:
            counts += np.bincount(stratum_rows.ravel(), minlength=6)
        if block == 1:
            for r in range(rows):
                single = draw_stratified(members, plan, 11, block * BLOCK_TRIALS + r)
                for h, sel in enumerate(single):
                    assert np.array_equal(sel, drawn[h][r])
    for h, mem in enumerate(members):
        pi = plan.m[h] / len(mem)
        band = 4 * np.sqrt(trials * pi * (1 - pi))
        for i in mem:
            assert abs(counts[i] - trials * pi) <= band


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
    """Reference for the block sampler: first k distinct values, in draw order."""
    kept = []
    for value in candidates:
        if value not in kept:
            kept.append(int(value))
        if len(kept) == k:
            return kept
    return None


def test_block_sampler_keeps_first_distinct_candidates(monkeypatch):
    # with no slack, rows of 4 candidates from range(6) often hold fewer
    # than 3 distinct values and take the child-stream fallback; row r
    # reads column r of the stream's (width, BLOCK_TRIALS) candidates and
    # keeps them in the order they first appear
    monkeypatch.setattr(estimate_module, "CANDIDATE_SLACK", 0)
    rows = sample_rows(6, 3, trial_rng(3, 0, 0), BLOCK_TRIALS)
    candidates = trial_rng(3, 0, 0).integers(0, 6, size=(4, BLOCK_TRIALS)).T
    reference = [_first_distinct(row, 3) for row in candidates]
    assert any(r is None for r in reference) and any(r is not None for r in reference)
    assert any(r is not None and r != sorted(r) for r in reference)
    for row, expected in zip(rows.tolist(), reference):
        assert len(set(row)) == 3
        if expected is not None:
            assert row == expected
    assert np.array_equal(sample_rows(6, 3, trial_rng(3, 0, 0), 10), rows[:10])


def test_block_sampler_subset_uniformity_including_fallback(monkeypatch):
    monkeypatch.setattr(estimate_module, "CANDIDATE_SLACK", 0)
    counts = {}
    blocks = 200 * 64 // BLOCK_TRIALS
    for b in range(blocks):
        for row in sample_rows(6, 3, trial_rng(8, b, 0), BLOCK_TRIALS).tolist():
            subset = tuple(sorted(row))  # rows come in draw order
            counts[subset] = counts.get(subset, 0) + 1
    total = blocks * BLOCK_TRIALS
    assert len(counts) == 20
    band = 4 * np.sqrt(total * 0.05 * 0.95)
    for subset, count in counts.items():
        assert abs(count - total / 20) <= band, (subset, count)


def test_block_sampler_complement_and_census():
    rows = sample_rows(10, 8, trial_rng(1, 0, 0), BLOCK_TRIALS)  # draws the 2 left out
    assert rows.shape == (BLOCK_TRIALS, 8)
    # a complement row lists the values its draw leaves, in increasing
    # order: draw order is that of the 2 values left out
    left_out = sample_rows(10, 2, trial_rng(1, 0, 0), BLOCK_TRIALS)
    for row, out in zip(rows.tolist(), left_out.tolist()):
        assert row == [v for v in range(10) if v not in out]
    assert np.array_equal(sample_rows(5, 5, trial_rng(1, 0, 0), 3), np.tile(np.arange(5), (3, 1)))


def test_run_trials_equals_single_draw_path_across_block_boundaries(fractional_pool):
    pool = fractional_pool
    trials = 2 * BLOCK_TRIALS + 5
    for method in (MethodSpec.uniform(), MethodSpec.stratified("proxy_neyman")):
        strat, members, plan = prepare_method(pool, method, 37)
        estimates = run_trials(pool, method, 37, trials, master_seed=12)
        for t in (0, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, trials - 1):
            draw = draw_stratified(members, plan, 12, t)
            single = ht_estimate(draw, plan, strat.sizes, pool.oracle())
            assert single == estimates[t], (method.name, t)
        # block 1 alone is trials BLOCK_TRIALS to 2 * BLOCK_TRIALS - 1
        [(values, labels)] = estimate_blocks(pool, members, [plan], 12, 1, BLOCK_TRIALS)
        assert [(e.value, e.labels_used) for e in estimates[BLOCK_TRIALS:2 * BLOCK_TRIALS]] == (
            list(zip(values.tolist(), labels.tolist()))
        )
    # uniform_estimate from a block's stream is that block's first trial
    uniform = run_trials(pool, MethodSpec.uniform(), 37, trials, master_seed=12)
    for block in (0, 1, 2):
        single = uniform_estimate(pool, 37, trial_rng(12, block, 0), pool.oracle())
        assert single == uniform[block * BLOCK_TRIALS]
        # which is the first 37 distinct candidates of column 0 of the
        # block's column-major (width, BLOCK_TRIALS) draw
        width = 37 + 37 * 37 // pool.size + CANDIDATE_SLACK
        column = trial_rng(12, block, 0).integers(0, pool.size, size=(width, BLOCK_TRIALS))[:, 0]
        selected = np.array(_first_distinct(column, 37))
        plan = AllocationPlan(m=np.array([37]), budget=37, rule="uniform")
        assert ht_estimate((selected,), plan, [pool.size], pool.oracle()) == single


def test_run_trials_prefix_and_block_order_over_several_blocks(fractional_pool):
    pool = fractional_pool
    method = MethodSpec.stratified("proxy_neyman")
    trials = 3 * BLOCK_TRIALS + 7
    full = run_trials(pool, method, 30, trials, master_seed=4)
    assert run_trials(pool, method, 30, BLOCK_TRIALS + 3, master_seed=4) == full[:BLOCK_TRIALS + 3]
    values, labels = reversed_blocks_in_child(pool, method, 30, trials, 4)
    assert [(e.value, e.labels_used) for e in full] == list(zip(values.tolist(), labels.tolist()))
    assert run_trials(pool, method, 30, trials, master_seed=5) != full


def test_block_oracle_meters_rows_and_rejects_bad_ones():
    pool = two_strata_pool((1, 0, 0, 1, 1, 1))
    oracle = BlockOracle(pool, 2)
    losses = oracle.reveal_rows(np.array([[0, 3], [1, 5]]))
    assert losses.tolist() == [[1.0, 1.0], [0.0, 1.0]]
    oracle.reveal_rows(np.array([[4], [2]]))
    assert oracle.labels_used.tolist() == [3, 3]
    oracle.reveal_rows(np.array([[1, 0], [3, 2]]))  # any order
    assert oracle.labels_used.tolist() == [5, 5]
    for bad in ([[0, 0], [1, 2]], [[1, 0, 1], [2, 3, 4]], [[0, 6], [1, 2]], [[-1, 0], [1, 2]],
                [[0, 1]]):
        with pytest.raises(DataError):
            BlockOracle(pool, 2).reveal_rows(np.array(bad))


def _distinct_rows_int64(n, k, rng, rows, short_rows=None):
    """Reference for the block sampler: int64 sort keys throughout.

    A fixed copy of the one-row-at-a-time sampler before int32 keys, on the
    column-major layout: row r reads column r of a (width, BLOCK_TRIALS)
    draw and keeps its first k distinct values in the order they first
    appear. ``short_rows`` collects the number of rows redrawn from a child
    stream; rng is fresh, so its first spawn is child 0.
    """
    if k == 0:
        return np.empty((rows, 0), dtype=np.int64)
    width = k + k * k // n + CANDIDATE_SLACK
    shift = width.bit_length()
    candidates = rng.integers(0, n, size=(width, BLOCK_TRIALS)).T[:rows]
    keys = candidates << shift
    keys |= np.arange(width)
    keys.sort(axis=1)
    values = keys >> shift
    repeat = np.zeros((rows, width), dtype=bool)
    np.equal(values[:, 1:], values[:, :-1], out=repeat[:, 1:])
    position = keys & ((1 << shift) - 1)
    np.putmask(position, repeat, width)
    short = np.count_nonzero(repeat, axis=1) > width - k
    cutoff = np.partition(position, k - 1, axis=1)[:, k - 1:k]
    cutoff[short] = -1
    out = np.empty((rows, k), dtype=np.int64)
    # the kept positions in increasing order give the values in draw order
    kept = np.sort(np.where(position <= cutoff, position, width), axis=1)[:, :k]
    out[~short] = np.take_along_axis(candidates[~short], kept[~short], axis=1)
    if short.any():
        if short_rows is not None:
            short_rows.append(int(short.sum()))
        out[short] = _distinct_rows_int64(n, k, rng.spawn(1)[0], int(short.sum()), short_rows)
    return out


def _assert_same_draws(n, k, rows, seed, short_rows=None):
    rng, reference_rng = trial_rng(seed, 0, 0), trial_rng(seed, 0, 0)
    got = sample_rows(n, k, rng, rows)
    expected = _distinct_rows_int64(n, k, reference_rng, rows, short_rows)
    assert np.array_equal(got, expected), (n, k, rows, seed)
    # the generator is left where the reference leaves it
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def _first_distinct_pass(n, k, rows, seed):
    """The sampler's key path: its ordered rows come back in the key dtype."""
    return estimate_module._first_distinct(n, [k], [trial_rng(seed, 0, 0)], rows)


def test_bounded_draws_keep_their_leading_rows_at_any_width():
    # the column-major layout relies on this: numpy fills a bounded-integer
    # call in order, so integers(0, n, size=(w, B)) is the first w rows of
    # integers(0, n, size=(W, B)) from the same state, in either dtype
    int32_ns = (1, 2, 7, 280, 3000, 100_000, 2**26 + 3, 2**31 - 1)
    int64_ns = int32_ns + (2**32 + 5, 2**40 + 3, 2**62)
    for dtype, ns in ((np.int32, int32_ns), (np.int64, int64_ns)):
        for n in ns:
            def draw(width):
                rng = trial_rng(n % 1000, 3, 1)
                return rng.integers(0, n, size=(width, BLOCK_TRIALS), dtype=dtype)

            wide = draw(300)
            for w in (1, 17, 299):
                assert np.array_equal(draw(w), wide[:w]), (dtype, n, w)


def _distinct_per_column(candidates):
    ordered = np.sort(candidates, axis=0)
    return 1 + np.count_nonzero(ordered[1:] != ordered[:-1], axis=0)


@pytest.mark.parametrize("n, sizes, slack, both_short", [
    # k = n / 2 near 140 is where rows fall short at the real window
    (280, (130, 140), CANDIDATE_SLACK, False),
    # with no slack rows fall short often enough that both sizes need the
    # child in one block, and some child rows fall short again
    (40, (10, 14), 0, True),
])
def test_shared_draws_redraw_short_rows_from_child_zero(monkeypatch, n, sizes, slack, both_short):
    # Find a block in which a row is short at the window of the smaller size
    # but not at the wider window of the larger one. A shared pass at the
    # wider window must still redraw that row from child 0, exactly as the
    # smaller size does alone.
    monkeypatch.setattr(estimate_module, "CANDIDATE_SLACK", slack)
    widths = [m + m * m // n + slack for m in sizes]
    for seed in range(5000):
        candidates = trial_rng(seed, 0, 0).integers(0, n, size=(max(widths), BLOCK_TRIALS))
        short = [_distinct_per_column(candidates[:w]) < m for m, w in zip(sizes, widths)]
        if (short[0] & ~short[1]).any() and (short[1].any() or not both_short):
            break
    else:
        pytest.fail("no seed with the short rows sought")
    members = np.arange(n) * 3 + 1

    def shared(trials):
        shared_pass = _StratumPass(members, sizes, _streams(seed, 0, 0, trials), trials)
        return {m: shared_pass.rows(m) for m in sizes}

    both = shared(BLOCK_TRIALS)
    for m, w, is_short in zip(sizes, widths, short):
        plan = AllocationPlan(m=np.array([m]), budget=m, rule="test")
        alone = draw_block([members], plan, seed, 0, BLOCK_TRIALS)[0]
        assert np.array_equal(both[m], alone)
        # the i-th short row of the block is row i of child 0, derived anew
        # for every size that needs it
        child = np.random.default_rng(np.random.SeedSequence([seed, 0, 0], spawn_key=(0,)))
        if is_short.any():
            redrawn = sample_rows(n, m, child, int(is_short.sum()))
            assert np.array_equal(alone[is_short], members[redrawn])
        for r in np.flatnonzero(~is_short):
            assert alone[r].tolist() == [3 * v + 1 for v in _first_distinct(candidates[:w, r], m)]
        # nor do the shared rows depend on how many trials are drawn
        last = int(np.flatnonzero(short[0] & ~short[1])[-1])
        assert np.array_equal(shared(last + 1)[m], both[m][:last + 1])
        [single] = draw_stratified([members], plan, seed, last)
        assert np.array_equal(single, both[m][last])


def test_int32_draws_equal_int64_draws_and_state():
    # the int32 keys rely on this: below 2**32 numpy's bounded draws give
    # the same values in either dtype and advance the generator alike
    for n in (1, 2, 7, 280, 3000, 100_000, 2**26 + 3, 2**31 - 1):
        a, b = trial_rng(n, 1, 0), trial_rng(n, 1, 0)
        assert np.array_equal(a.integers(0, n, size=(3, 50)),
                              b.integers(0, n, size=(3, 50), dtype=np.int32)), n
        assert a.bit_generator.state == b.bit_generator.state, n


def test_block_sampler_matches_int64_reference():
    cases = np.random.default_rng(2024)
    for _ in range(400):
        n = int(np.exp(cases.uniform(np.log(2), np.log(20_000))))
        k = int(np.exp(cases.uniform(0, np.log(n // 2))))
        rows = int(cases.integers(1, BLOCK_TRIALS + 1))
        seed = int(cases.integers(2**32))
        _assert_same_draws(n, k, rows, seed)
        assert _first_distinct_pass(n, k, rows, seed)[0].dtype == np.int32
    # k = n / 2 near 140 is where rows most often fall short and are
    # redrawn; 300 * 128 rows, as many as at 128 trials per block
    short_rows = []
    for seed in range(300 * 128 // BLOCK_TRIALS):
        _assert_same_draws(280, 140, BLOCK_TRIALS, seed, short_rows)
    assert sum(short_rows) >= 5
    # keys that do not fit in int32 stay int64; at k = 1 a key takes 5 bits
    # of position, so n = 2**26 is the largest int32 population
    for n, k, dtype in ((3_000_000, 20_000, np.int64), (2**26, 1, np.int32),
                        (2**26 + 1, 1, np.int64), (2**27, 1, np.int64)):
        ordered, short = _first_distinct_pass(n, k, 3, 9)
        assert ordered.dtype == dtype and not short[k].any(), n
        # no row is short, so the first k columns are the draws
        assert np.array_equal(ordered[:, :k], _distinct_rows_int64(n, k, trial_rng(9, 0, 0), 3)), n


def test_complement_rows_match_int64_reference():
    count = BLOCK_TRIALS
    for n, m, seed in ((10, 8, 1), (281, 200, 2), (3000, 2999, 3), (5000, 2600, 4)):
        rows = sample_rows(n, m, trial_rng(seed, 0, 0), count)
        excluded = _distinct_rows_int64(n, n - m, trial_rng(seed, 0, 0), count)
        keep = np.ones((count, n), dtype=bool)
        keep[np.arange(count)[:, np.newaxis], excluded] = False
        assert np.array_equal(rows, np.nonzero(keep)[1].reshape(count, m)), (n, m)


def test_draw_block_keeps_draw_order_for_any_member_order():
    plan = AllocationPlan(m=np.array([7, 3]), budget=10, rule="test")
    ordered = [np.arange(0, 40, 2), np.arange(1, 31, 3)]
    shuffle = np.random.default_rng(0).permutation
    for members in (ordered, [m[::-1] for m in ordered], [shuffle(m) for m in ordered]):
        drawn = draw_block(members, plan, 5, 2, BLOCK_TRIALS)
        for h, rows in enumerate(drawn):
            positions = sample_rows(
                members[h].size, int(plan.m[h]), trial_rng(5, 2, h), BLOCK_TRIALS
            )
            # member h's draw order, whatever the order of the member list
            assert np.array_equal(rows, members[h][positions])
        assert any((rows[:, 1:] < rows[:, :-1]).any() for rows in drawn)
    # the block oracle takes rows in any order, but not a repeated position
    pool = two_strata_pool()
    oracle = BlockOracle(pool, 2)
    assert oracle.reveal_rows(np.array([[2, 0], [3, 1]])).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(DataError, match="trial row 1 repeats"):
        BlockOracle(pool, 2).reveal_rows(np.array([[0, 2, 1], [3, 1, 3]]))
