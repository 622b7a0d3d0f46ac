import numpy as np
import pytest

from active_eval import (
    ConfigError,
    DataError,
    Stratification,
    adaptive_se_stratify,
    equal_width_stratify,
    kmeans_stratify,
    quantile_stratify,
    stratum_mean_sc,
)
from active_eval.harness import MethodSpec, method_stratification
from active_eval.stratify import KMEANS_MAX_ITER, STRATIFIERS, LevelTable, level_table, stratify
from active_eval.synth import SynthConfig, make_pool, reference_pool

ALL_METHODS = sorted(STRATIFIERS)
EQUIVALENCE_STRATA = (2, 3, 5, 8)


def groups(strat, values):
    return [sorted(values[strat.members(h)].tolist()) for h in range(strat.h_eff)]


def test_adaptive_all_zero_collapses_to_base_stratum():
    strat = adaptive_se_stratify(np.zeros(12), 5)
    assert strat.h_eff == 1
    assert strat.sizes.tolist() == [12]


def test_adaptive_base_plus_equal_frequency_bins():
    se = [0, 0, 0, 0, 0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.2, 1.3]
    strat = adaptive_se_stratify(np.array(se), 5)
    assert strat.h_eff == 5
    assert groups(strat, np.array(se)) == [
        [0, 0, 0, 0],
        [0.3, 0.5],
        [0.7, 0.9],
        [1.0, 1.1],
        [1.2, 1.3],
    ]


def test_adaptive_without_zeros_matches_quantile():
    rng = np.random.default_rng(5)
    values = rng.random(40) + 0.01  # distinct, strictly positive
    a = adaptive_se_stratify(values, 5)
    q = quantile_stratify(values, 5)
    assert np.array_equal(a.assignment, q.assignment)
    assert np.array_equal(a.sizes, q.sizes)


def test_quantile_exact_division():
    values = np.linspace(0.1, 1.0, 10)
    strat = quantile_stratify(values, 5)
    assert strat.sizes.tolist() == [2, 2, 2, 2, 2]


def test_quantile_merges_duplicate_edges():
    values = np.array([0, 0, 0, 0, 0, 0, 1, 2, 3, 4], dtype=float)
    strat = quantile_stratify(values, 5)
    assert strat.h_eff == 3
    assert groups(strat, values) == [[0, 0, 0, 0, 0, 0], [1, 2], [3, 4]]


def test_quantile_small_pool_pigeonhole():
    strat = quantile_stratify(np.array([0.1, 0.2, 0.3]), 5)
    assert strat.h_eff <= 3
    assert (strat.sizes >= 1).all()


def test_equal_width_interval_arithmetic():
    values = np.array([0.0, 0.3, 0.6, 0.9, 1.3])
    strat = equal_width_stratify(values, 5)
    # width 0.26: 0.3 lands in [0.26, 0.52)
    by_value = dict(zip(values.tolist(), strat.assignment.tolist()))
    assert by_value[0.0] == 0
    assert by_value[0.3] == 1
    assert by_value[1.3] == strat.h_eff - 1  # right edge closed on the last bin


def test_equal_width_degenerate_and_empty_bins():
    assert equal_width_stratify(np.full(7, 0.4), 5).h_eff == 1
    # values clustered at the ends leave middle bins empty
    values = np.array([0.0, 0.01, 0.99, 1.0])
    strat = equal_width_stratify(values, 5)
    assert strat.h_eff == 2
    assert strat.sizes.tolist() == [2, 2]


def test_kmeans_separated_clusters():
    values = np.array([0, 0, 0, 1, 1, 1], dtype=float)
    strat = kmeans_stratify(values, 2)
    assert groups(strat, values) == [[0, 0, 0], [1, 1, 1]]


def test_kmeans_degenerate_values():
    assert kmeans_stratify(np.full(5, 0.3), 3).h_eff == 1


def test_kmeans_lloyd_fixed_point():
    values = np.array([0.0, 0.1, 0.9, 1.0])
    strat = kmeans_stratify(values, 2)
    assert groups(strat, values) == [[0.0, 0.1], [0.9, 1.0]]


def test_kmeans_reduces_to_distinct_value_count():
    values = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
    strat = kmeans_stratify(values, 4)
    assert strat.h_eff == 3


def test_members_rejects_out_of_range_strata():
    strat = quantile_stratify(np.array([0.0, 0.0, 1.0, 1.0]), 2)
    assert strat.members(1).tolist() == [2, 3]
    for stratum in (-1, -2, 2):
        with pytest.raises(IndexError):
            strat.members(stratum)


def test_stratum_mean_sc():
    strat = quantile_stratify(np.array([0.0, 0.0, 1.0, 1.0]), 2)
    p = stratum_mean_sc(strat, np.array([1.0, 1.0, 1.0, 0.5]))
    assert p.tolist() == [1.0, 0.75]


def test_rejects_bad_configuration():
    with pytest.raises(ConfigError):
        adaptive_se_stratify(np.array([0.1, 0.2]), 1)
    with pytest.raises(ConfigError):
        stratify(np.array([0.1, 0.2]), 5, "nope")
    with pytest.raises(DataError):
        quantile_stratify(np.array([0.1, -0.2]), 2)
    with pytest.raises(DataError):
        quantile_stratify(np.array([0.1, np.nan]), 2)
    with pytest.raises(DataError):
        quantile_stratify(np.array([]), 2)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_partition_invariants_on_random_inputs(method):
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 120))
        n_strata = int(rng.integers(2, 9))
        style = rng.integers(0, 3)
        if style == 0:
            values = rng.random(n) * 2.3
        elif style == 1:  # heavy zero mass plus ties
            values = np.round(rng.random(n) * 1.2, 1)
            values[rng.random(n) < 0.5] = 0.0
        else:  # few distinct values
            values = rng.choice([0.0, 0.1, 0.7], size=n)
        strat = stratify(values, n_strata, method)

        assert strat.sizes.sum() == n
        assert (strat.sizes >= 1).all()
        assert strat.h_eff <= n_strata
        assert strat.assignment.min() == 0
        assert strat.assignment.max() == strat.h_eff - 1
        # SE-ordered and value-disjoint: ties never straddle a boundary
        for h in range(strat.h_eff - 1):
            assert values[strat.members(h)].max() < values[strat.members(h + 1)].min()
        # determinism
        again = stratify(values, n_strata, method)
        assert np.array_equal(again.assignment, strat.assignment)


def test_positive_bin_sizes_differ_by_at_most_one_without_ties():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(10, 200))
        values = rng.permutation(np.linspace(0.01, 3.0, n))  # distinct positive
        n_strata = int(rng.integers(2, 8))
        strat = adaptive_se_stratify(values, n_strata)
        assert strat.sizes.max() - strat.sizes.min() <= 1


# -- per-instance reference implementations ----------------------------------
#
# The schemes bin the distinct values (levels) and map the bins back to the
# instances. These are the per-instance forms they replaced, kept as the
# reference: every scheme must give the same assignment and sizes.


def _reference_finalize(bins):
    used = np.unique(bins)
    remap = np.full(used.max() + 1, -1, dtype=int)
    remap[used] = np.arange(len(used))
    assignment = remap[bins]
    return assignment, np.bincount(assignment, minlength=len(used))


def _reference_equal_frequency_bins(values, n_bins):
    n = len(values)
    order = np.argsort(values, kind="stable")
    edges = (np.arange(n_bins + 1) * n) // n_bins
    bin_by_rank = np.searchsorted(edges, np.arange(n), side="right") - 1
    sorted_values = values[order]
    group_starts = np.flatnonzero(np.r_[True, np.diff(sorted_values) != 0])
    group_min = np.minimum.reduceat(bin_by_rank, group_starts)
    group_lengths = np.diff(np.r_[group_starts, n])
    bins = np.empty(n, dtype=int)
    bins[order] = np.repeat(group_min, group_lengths)
    return bins


def _reference_adaptive_se(values, n_strata):
    zero = values == 0.0
    if zero.all():
        return _reference_finalize(np.zeros(len(values), dtype=int))
    if not zero.any():
        return _reference_finalize(_reference_equal_frequency_bins(values, n_strata))
    bins = np.zeros(len(values), dtype=int)
    positive = np.flatnonzero(~zero)
    bins[positive] = 1 + _reference_equal_frequency_bins(values[positive], n_strata - 1)
    return _reference_finalize(bins)


def _reference_quantile(values, n_strata):
    return _reference_finalize(_reference_equal_frequency_bins(values, n_strata))


def _reference_equal_width(values, n_strata):
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return _reference_finalize(np.zeros(len(values), dtype=int))
    width = (hi - lo) / n_strata
    return _reference_finalize(np.minimum((values - lo) // width, n_strata - 1).astype(int))


def _reference_kmeans(values, n_strata):
    distinct = np.unique(values)
    n_clusters = min(n_strata, len(distinct))
    if n_clusters == 1:
        return _reference_finalize(np.zeros(len(values), dtype=int))
    init_idx = (np.arange(n_clusters) * (len(distinct) - 1)) // (n_clusters - 1)
    centroids = distinct[init_idx].astype(float)
    assignment = None
    previous_k = -1
    for _ in range(KMEANS_MAX_ITER):
        dist = np.abs(values[:, None] - centroids[None, :])
        new_assignment = np.argmin(dist, axis=1)
        occupied = np.unique(new_assignment)
        if len(occupied) < len(centroids):
            centroids = centroids[occupied]
            remap = np.full(occupied.max() + 1, -1, dtype=int)
            remap[occupied] = np.arange(len(occupied))
            new_assignment = remap[new_assignment]
        if len(centroids) == previous_k and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        previous_k = len(centroids)
        sums = np.bincount(assignment, weights=values, minlength=len(centroids))
        counts = np.bincount(assignment, minlength=len(centroids))
        centroids = sums / counts
        order = np.argsort(centroids, kind="stable")
        if not np.array_equal(order, np.arange(len(centroids))):
            centroids = centroids[order]
            relabel = np.empty(len(order), dtype=int)
            relabel[order] = np.arange(len(order))
            assignment = relabel[assignment]
    return _reference_finalize(assignment)


REFERENCE = {
    "adaptive_se": _reference_adaptive_se,
    "quantile": _reference_quantile,
    "equal_width": _reference_equal_width,
    "kmeans": _reference_kmeans,
}


def assert_matches_reference(values, n_strata, method):
    strat = stratify(values, n_strata, method)
    assignment, sizes = REFERENCE[method](np.asarray(values, dtype=float), n_strata)
    assert np.array_equal(strat.assignment, assignment), (method, n_strata)
    assert np.array_equal(strat.sizes, sizes), (method, n_strata)
    assert strat.assignment.dtype == assignment.dtype
    assert strat.sizes.dtype == sizes.dtype


@pytest.fixture(scope="module")
def large_pool_se(large_pool):
    return large_pool.se_values


@pytest.mark.parametrize("method", ALL_METHODS)
def test_levels_match_reference_on_reference_and_large_pools(method, large_pool_se):
    for values in (reference_pool().se_values, large_pool_se):
        for n_strata in EQUIVALENCE_STRATA:
            assert_matches_reference(values, n_strata, method)


@pytest.fixture(scope="module")
def k20_pool_se():
    return [
        make_pool(SynthConfig(size=2000, generations=20, options=options, seed=3)).se_values
        for options in (4, 10)
    ]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_levels_match_reference_on_k20_pools(method, k20_pool_se):
    for values in k20_pool_se:
        for n_strata in EQUIVALENCE_STRATA:
            assert_matches_reference(values, n_strata, method)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_levels_match_reference_on_decimal_ties_and_continuous_values(method):
    # Decimal grids put levels exactly midway between two centroids, where
    # a centroid summed per level (count * level) instead of per instance
    # in pool order rounds to the other side in about 1% of these inputs.
    rng = np.random.default_rng(2024)
    for i in range(400):
        n = int(rng.integers(2, 60))
        style = i % 4
        if style == 0:
            values = rng.integers(0, 25, n) / 10
        elif style == 1:
            values = np.round(rng.random(n) * 2.3, 1)
        elif style == 2:
            values = rng.integers(0, 12, n) * 0.1
        else:  # continuous: every value distinct (D = N)
            values = rng.random(n) * 2.3
        for n_strata in EQUIVALENCE_STRATA:
            assert_matches_reference(values, n_strata, method)
    values = rng.random(5000) * 2.3
    for n_strata in EQUIVALENCE_STRATA:
        assert_matches_reference(values, n_strata, method)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_member_lists_are_read_only_and_computed_once(method):
    values = reference_pool().se_values
    strat = stratify(values, 5, method)
    lists = strat.member_lists()
    assert strat.member_lists() is lists
    assert len(lists) == strat.h_eff
    for h, members in enumerate(lists):
        assert np.array_equal(members, np.flatnonzero(strat.assignment == h))
        assert members.dtype == np.int64
        assert strat.members(h) is members
        assert not members.flags.writeable
        with pytest.raises(ValueError):
            members[0] = 0


def test_member_lists_past_256_strata():
    # assignments too wide for 8-bit sort keys
    assignment = np.random.default_rng(4).permutation(np.arange(3000) % 300)
    strat = Stratification(assignment, np.bincount(assignment), "equal_width")
    lists = strat.member_lists()
    assert len(lists) == 300
    for h, members in enumerate(lists):
        assert np.array_equal(members, np.flatnonzero(assignment == h))
        assert members.dtype == np.int64 and not members.flags.writeable


# -- the pool's level table ---------------------------------------------------
#
# A pool builds its SE level table from its count profiles; the stratifiers
# bin it directly. It must be the table ``level_table`` builds from the
# plain SE array, so both routes give the same partitions.


def _profile_count(pool):
    rows = pool.codes.tolist()
    return len({tuple(sorted(np.unique(row, return_counts=True)[1].tolist())) for row in rows})


@pytest.fixture(scope="module")
def table_pools(large_pool):
    k20 = make_pool(SynthConfig(size=5000, generations=20, options=10, seed=3))
    # at k=20 different count profiles share an SE value, so a level can
    # gather the rows of several profiles
    assert len(k20.se_levels.levels) < _profile_count(k20)
    return {"reference": reference_pool(), "large": large_pool, "k20": k20}


@pytest.mark.parametrize("name", ["reference", "large", "k20"])
def test_pool_level_table_invariants(name, table_pools):
    pool = table_pools[name]
    table = pool.se_levels
    assert isinstance(table, LevelTable)
    assert table.values is pool.se_values
    assert (np.diff(table.levels) > 0).all()
    assert table.counts.sum() == pool.size
    assert np.array_equal(table.counts, np.bincount(table.inverse, minlength=len(table.levels)))
    assert table.levels[table.inverse].tobytes() == pool.se_values.tobytes()
    for column in table:
        assert not column.flags.writeable
    for got, want in zip(table, level_table(pool.se_values)):
        assert np.array_equal(got, want) and got.dtype == want.dtype


@pytest.mark.parametrize("method", ALL_METHODS)
def test_pool_table_route_matches_array_route(method, table_pools):
    for name, pool in table_pools.items():
        for n_strata in range(2, 10):
            want = stratify(pool.se_values, n_strata, method)
            for got in (
                stratify(pool.se_levels, n_strata, method),
                STRATIFIERS[method](pool.se_levels, n_strata),
            ):
                assert np.array_equal(got.assignment, want.assignment), (name, n_strata)
                assert np.array_equal(got.sizes, want.sizes), (name, n_strata)
                assert got.assignment.dtype == want.assignment.dtype
                assert got.sizes.dtype == want.sizes.dtype
                assert got.method == want.method


def test_pool_partitions_go_through_stratify_with_the_pool_table(monkeypatch, tmp_path):
    # the sweep and the stratify command bin the pool's own table, through
    # the name ``stratify`` (which the benchmark's tracer times)
    from active_eval import cli, harness
    from active_eval.ingest import export_pool

    pool = make_pool(SynthConfig(size=300, seed=11))
    seen = []

    def spy(se_values, n_strata, method="adaptive_se"):
        seen.append(se_values)
        return stratify(se_values, n_strata, method)

    monkeypatch.setattr(harness, "stratify", spy)
    monkeypatch.setattr(cli, "stratify", spy)
    method_stratification(pool, MethodSpec.stratified("equal", stratification="kmeans"))
    assert len(seen) == 1 and seen[0] is pool.se_levels
    path = tmp_path / "pool.jsonl"
    export_pool(pool, path)
    assert cli.main(["stratify", "--pool", str(path), "--out", str(tmp_path / "s.json")]) == 0
    assert len(seen) == 2 and isinstance(seen[1], LevelTable)
