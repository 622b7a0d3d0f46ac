"""Within-stratum simple random sampling and the stratified risk estimator.

Sampling is uniform without replacement: ``sample_rows`` draws a block of
size-m subsets of range(n) in O(m) memory per row, and every size-m subset
has probability 1 / C(n, m). Every sampling path goes through it. Its sort
keys are int32 when they fit (in a stratum of 100k, for m up to about 14k)
and int64 otherwise; numpy draws the same candidates in either dtype, so
the key dtype changes no draw. ``draw_block`` sorts a stratum's rows only
when its member list is out of order, since sorted positions into sorted
members are already sorted.

Randomness comes from deterministic streams, one per (master_seed, block,
stratum) address, where block b holds trials b * BLOCK_TRIALS up to
(b + 1) * BLOCK_TRIALS - 1. Within a block the stream of stratum h yields
one draw per trial, in trial order, so trial t takes draw t % BLOCK_TRIALS
of its block's streams. ``draw_block`` draws the leading trials of a block
at once (the Monte Carlo engine); ``draw_stratified`` replays one block up
to the requested trial and returns the same positions bit for bit. A
trial's draw is thus a pure function of (master_seed, trial, plan):
re-running, taking a prefix of the trials, or running blocks in parallel
changes no estimate.

The stratified estimate is R_hat = (1/N) * sum_h N_h * mean-loss(S_h),
the Horvitz-Thompson estimator with inclusion probability m_h / N_h inside
stratum h. With m_h = N_h everywhere it returns the exact pool risk.
Uniform sampling is the one-stratum case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocate import AllocationPlan
from .errors import ConfigError, DataError
from .pool import BlockOracle, LabelOracle, Pool

# Trials per stream block. Fixed so that the draws (and therefore the
# estimates) for a seed never depend on how a run is split up; it also
# bounds the engine's transient memory at O(BLOCK_TRIALS x budget).
BLOCK_TRIALS = 128


def trial_rng(master_seed: int, block_index: int, stratum_index: int) -> np.random.Generator:
    """Independent deterministic stream for one (block of trials, stratum) address."""
    for name, value in (
        ("master_seed", master_seed),
        ("block_index", block_index),
        ("stratum_index", stratum_index),
    ):
        if value < 0:
            raise ConfigError(f"{name} must be non-negative, got {value}")
    return np.random.default_rng([master_seed, block_index, stratum_index])


@dataclass(frozen=True)
class SampleDraw:
    """Selected pool positions per stratum, |S_h| = m_h.

    ``seed`` records the (master_seed, trial_index) stream address when the
    draw came from the seeded sampler; manually constructed draws leave it
    unset.
    """

    per_stratum: tuple
    seed: tuple | None = None

    def id_lists(self, pool: Pool) -> list:
        """Resolve the drawn positions to instance ids."""
        return [[pool.ids[i] for i in np.asarray(sel).tolist()] for sel in self.per_stratum]


@dataclass(frozen=True)
class RiskEstimate:
    value: float
    labels_used: int


# Extra candidates per row of a block draw beyond the expected need; a row
# that still falls short is redrawn from a child stream (see _distinct_rows).
CANDIDATE_SLACK = 16


def sample_rows(n: int, m: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` independent uniform size-m subsets of range(n), one sorted row each.

    Rows are drawn in order from rng's stream, so asking for fewer rows from
    the same stream returns a prefix of the rows. Memory is O(rows * m) for
    m <= n / 2; above that the complement is drawn, which costs O(rows * n),
    at most O(rows * 2m).
    """
    if not 1 <= m <= n:
        raise DataError(f"sample size {m} out of range [1, {n}]")
    if 2 * m <= n:
        return _distinct_rows(n, m, rng, rows)
    excluded = _distinct_rows(n, n - m, rng, rows)
    keep = np.ones((rows, n), dtype=bool)
    keep[np.arange(rows)[:, np.newaxis], excluded] = False
    return np.nonzero(keep)[1].reshape(rows, m)


def _distinct_rows(n: int, k: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Per row, the first k distinct values of iid uniform draws from range(n).

    This is sequential rejection of repeats, done for all rows at once with
    a fixed number of candidates per row. The rule only compares candidates
    for equality, so relabelling the population relabels the result: every
    k-subset is equally likely, and so it is for a row that is short of k
    distinct candidates and is redrawn whole, by the same rule, from a
    child stream. With
    k <= n / 2 a row needs at most n * ln(n / (n - k)) <= 1.39 k candidates
    on average; with the width below at most about one row in 1,400 falls
    short (measured at the worst case, k = n / 2 near k = 140). Keys are
    int32 when every key fits (n << shift <= 2**31) and int64 otherwise, and
    rows come back in the key dtype; below 2**32 numpy's ``integers(0, n)``
    gives the same values and generator state in either dtype.
    """
    if k == 0:
        return np.empty((rows, 0), dtype=np.int64)
    width = k + k * k // n + CANDIDATE_SLACK
    shift = width.bit_length()
    dtype = np.int32 if n << shift <= 2**31 else np.int64
    # key = value << shift | position: sorting a row groups equal values,
    # earliest position first
    keys = rng.integers(0, n, size=(rows, width), dtype=dtype)
    keys <<= shift
    keys |= np.arange(width, dtype=dtype)
    keys.sort(axis=1)
    values = keys >> shift
    repeat = np.zeros((rows, width), dtype=bool)
    np.equal(values[:, 1:], values[:, :-1], out=repeat[:, 1:])
    # position of each value's first appearance; repeats sort last
    position = np.bitwise_and(keys, (1 << shift) - 1, out=keys)
    np.putmask(position, repeat, width)
    short = np.count_nonzero(repeat, axis=1) > width - k
    # the k earliest first appearances of each row, in value order
    cutoff = np.partition(position, k - 1, axis=1)[:, k - 1:k]
    if not short.any():
        return values[position <= cutoff].reshape(rows, k)
    cutoff[short] = -1
    out = np.empty((rows, k), dtype=dtype)
    out[~short] = values[position <= cutoff].reshape(-1, k)
    out[short] = _distinct_rows(n, k, rng.spawn(1)[0], int(short.sum()))
    return out


def sample_without_replacement(ids, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform size-m subset of ids: the one-row case of ``sample_rows``.

    The subset is uniform; it comes back in the order of ids, not shuffled.
    """
    arr = np.asarray(ids)
    if arr.ndim != 1:
        raise DataError("ids must form a 1-D sequence")
    return arr[sample_rows(arr.size, m, rng, 1)[0]]


def draw_block(
    member_lists, plan: AllocationPlan, master_seed: int, block_index: int, trials: int
) -> list:
    """Within-stratum draws of the first ``trials`` trials of one block.

    Returns one (trials, m_h) array of pool positions per stratum, each row
    sorted; row r belongs to trial block_index * BLOCK_TRIALS + r.
    """
    if len(member_lists) != plan.h_eff:
        raise DataError(
            f"{len(member_lists)} strata but the plan covers {plan.h_eff}"
        )
    if not 1 <= trials <= BLOCK_TRIALS:
        raise ConfigError(f"a block holds 1 to {BLOCK_TRIALS} trials, got {trials}")
    drawn = []
    for h, members in enumerate(member_lists):
        members = np.asarray(members)
        if members.ndim != 1:
            raise DataError("member lists must be 1-D")
        rng = trial_rng(master_seed, block_index, h)
        rows = members[sample_rows(members.size, int(plan.m[h]), rng, trials)]
        # sorted rows of positions map to sorted rows through sorted members
        if (members[1:] < members[:-1]).any():
            rows.sort(axis=1)
        drawn.append(rows)
    return drawn


def draw_stratified(
    member_lists, plan: AllocationPlan, master_seed: int, trial_index: int
) -> SampleDraw:
    """One trial's within-stratum draws under the given plan."""
    if trial_index < 0:
        raise ConfigError(f"trial_index must be non-negative, got {trial_index}")
    block, row = divmod(trial_index, BLOCK_TRIALS)
    drawn = draw_block(member_lists, plan, master_seed, block, row + 1)
    return SampleDraw(
        per_stratum=tuple(rows[row] for rows in drawn),
        seed=(master_seed, trial_index),
    )


def ht_estimate(
    draw: SampleDraw, plan: AllocationPlan, sizes, oracle: LabelOracle
) -> RiskEstimate:
    """Stratified estimate of the pool risk from one draw.

    Reveals exactly the drawn instances through the oracle and reports the
    labels it metered. Draws are sorted into pool order before the losses
    are averaged so the estimate depends only on which instances were
    selected, not on draw order.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(draw.per_stratum) != plan.h_eff or len(sizes) != plan.h_eff:
        raise DataError("draw, plan and sizes cover different stratum counts")
    before = oracle.labels_used
    losses = []
    for h, selected in enumerate(draw.per_stratum):
        selected = np.sort(np.asarray(selected))
        m_h = int(plan.m[h])
        if selected.size != m_h:
            raise DataError(
                f"stratum {h} draw has {selected.size} instances, plan says {m_h}"
            )
        if (selected[1:] == selected[:-1]).any():
            raise DataError(f"stratum {h} draw contains duplicate instances")
        losses.append(oracle.reveal_indices(selected)[np.newaxis])
    value = _stratified_means(losses, plan.m, sizes)[0]
    return RiskEstimate(value=float(value), labels_used=oracle.labels_used - before)


def estimate_block(drawn, plan: AllocationPlan, sizes, oracle: BlockOracle) -> list:
    """Block form of ``ht_estimate``: one estimate per row of ``draw_block``.

    Each row's estimate equals ``ht_estimate`` on that row's draw bit for
    bit; its labels are those the block oracle metered for the row.
    """
    return risk_estimates(*block_estimate_arrays(drawn, plan, sizes, oracle))


def block_estimate_arrays(drawn, plan: AllocationPlan, sizes, oracle: BlockOracle) -> tuple:
    """``estimate_block`` as arrays: (values, labels used), one entry per row."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(drawn) != plan.h_eff or len(sizes) != plan.h_eff:
        raise DataError("draws, plan and sizes cover different stratum counts")
    for h, rows in enumerate(drawn):
        if rows.shape[1] != int(plan.m[h]):
            raise DataError(
                f"stratum {h} draws have {rows.shape[1]} instances, plan says {plan.m[h]}"
            )
    values = _stratified_means([oracle.reveal_rows(rows) for rows in drawn], plan.m, sizes)
    return values, oracle.labels_used


def risk_estimates(values, labels) -> list:
    """One ``RiskEstimate`` per entry of the value and label arrays."""
    return [RiskEstimate(v, used) for v, used in zip(values.tolist(), labels.tolist())]


def uniform_estimate(
    pool: Pool, budget: int, rng: np.random.Generator, oracle: LabelOracle
) -> RiskEstimate:
    """Mean loss over a uniform without-replacement subset of the pool.

    The one-stratum case of ``ht_estimate``, drawn with the first draw of
    ``rng``: with rng = trial_rng(master_seed, b, 0) it is trial
    b * BLOCK_TRIALS of a uniform ``run_trials`` cell.
    """
    if not 1 <= budget <= pool.size:
        raise DataError(f"budget {budget} out of range [1, {pool.size}]")
    plan = AllocationPlan(m=np.array([budget]), budget=budget, rule="uniform")
    selected = sample_without_replacement(np.arange(pool.size), budget, rng)
    return ht_estimate(SampleDraw(per_stratum=(selected,)), plan, [pool.size], oracle)


def _stratified_means(losses, m, sizes: np.ndarray) -> np.ndarray:
    """Per-row HT estimate from one (rows, m_h) loss array per stratum."""
    total = 0.0
    for h, stratum_losses in enumerate(losses):
        # multiply before dividing: keeps N_h * sum / m_h exact for 0/1
        # losses at the census budget, where it must equal the pool risk
        total = total + float(sizes[h]) * stratum_losses.sum(axis=1) / int(m[h])
    return total / float(sizes.sum())
