"""Within-stratum simple random sampling and the stratified risk estimator.

Sampling is uniform without replacement: a row's draw is the first m
distinct values of a sequence of iid uniform candidates from range(n),
sorted, and every size-m subset has probability 1 / C(n, m). For
m > n / 2 the n - m values left out are drawn that way instead. Every
sampling path goes through this rule.

Randomness comes from deterministic streams, one per (master_seed, block,
stratum) address, where block b holds trials b * BLOCK_TRIALS up to
(b + 1) * BLOCK_TRIALS - 1. The candidates are laid out column-major: stream
(seed, b, h) makes one call ``integers(0, N_h, size=(width, BLOCK_TRIALS))``
and candidate j of trial row r is its element j * BLOCK_TRIALS + r. numpy
fills a bounded-integer call in order, which gives two prefix properties:

* the first w rows of a (width, B) call do not depend on the width asked
  for, so a row's first w candidates are the same in every call with
  width >= w;
* row r reads column r only, so it does not depend on how many rows are
  used.

A draw of size m reads the first width(m) candidates of its row. When that
window holds fewer than m distinct values the row is short (about one row
in 1,400 at worst); it is redrawn by the same rule from child 0 of the
address's seed sequence, the i-th short row of a block as the child's row
i. So a trial's draw is a pure function of (master_seed, trial, plan):
re-running, taking a prefix of the trials, running blocks in any order or
in parallel, or drawing it together with draws of other sizes changes
nothing. ``estimate_blocks`` uses this: per stratum and group of blocks
it generates the candidates once, at the widest window of every plan it
is given, sorts them once, and cuts each plan's draw from the same sorted
rows. ``draw_block`` draws one plan's block the same way and
``draw_stratified`` replays one trial of it bit for bit.

Sort keys are value << shift | position, int32 when every key fits (in a
stratum of 100k, for windows up to about 14k) and int64 otherwise; below
2**32 numpy's ``integers(0, n)`` gives the same values in either dtype, so
the key dtype changes no draw. Rows are sorted only when a member list is
out of order, since sorted positions into sorted members are already
sorted.

The stratified estimate is R_hat = (1/N) * sum_h N_h * mean-loss(S_h),
the Horvitz-Thompson estimator with inclusion probability m_h / N_h inside
stratum h. With m_h = N_h everywhere it returns the exact pool risk.
Uniform sampling is the one-stratum case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .allocate import AllocationPlan
from .errors import ConfigError, DataError
from .pool import BlockOracle, LabelOracle, Pool

# Trials per stream block: the candidate matrix of a block has one column
# per trial. Fixed so that the draws (and therefore the estimates) for a
# seed never depend on how a run is split up. Every block generates all
# its columns, so a run of fewer trials pays for the rest of its block.
BLOCK_TRIALS = 32

# Elements each array of one ``estimate_blocks`` pass may hold: a group of
# blocks is sized so that its trials times the widest row of the pass (a
# candidate window, a draw, or the stratum size for a complement draw)
# stays within it, whatever the number of trials.
PASS_ELEMENTS = 1 << 18


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


def _child_rng(rng: np.random.Generator) -> np.random.Generator:
    """Child 0 of rng's seed sequence, the same however often it is asked
    for (``rng.spawn`` would count up)."""
    seq = rng.bit_generator.seed_seq
    return np.random.default_rng(np.random.SeedSequence(
        seq.entropy, spawn_key=(*seq.spawn_key, 0), pool_size=seq.pool_size
    ))


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


def _window(n: int, k: int) -> int:
    """Candidates a row reads to find k distinct values of range(n).

    With k <= n / 2 a row needs at most n * ln(n / (n - k)) <= 1.39 k
    candidates on average; with this window at most about one row in 1,400
    falls short (measured at the worst case, k = n / 2 near k = 140).
    """
    return k + k * k // n + CANDIDATE_SLACK


def sample_rows(n: int, m: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` independent uniform size-m subsets of range(n), one sorted row each.

    Row r reads column r of rng's candidate block (see the module
    docstring), so asking for fewer rows from the same stream returns a
    prefix of the rows; a stream holds BLOCK_TRIALS rows. Memory is
    O(BLOCK_TRIALS * m) for m <= n / 2; above that the complement is drawn,
    which costs O(rows * n), at most O(rows * 2m).
    """
    if not 1 <= m <= n:
        raise DataError(f"sample size {m} out of range [1, {n}]")
    if not 1 <= rows <= BLOCK_TRIALS:
        raise ConfigError(f"a stream holds 1 to {BLOCK_TRIALS} rows, got {rows}")
    return _with_complement(n, m, _distinct_rows(n, min(m, n - m), rng, rows))


def _with_complement(n: int, m: int, distinct: np.ndarray) -> np.ndarray:
    """The size-m rows from rows of k = min(m, n - m) distinct values: the
    rows themselves, or for 2m > n the values they leave out."""
    if 2 * m <= n:
        return distinct
    rows = distinct.shape[0]
    keep = np.ones((rows, n), dtype=bool)
    keep[np.arange(rows)[:, np.newaxis], distinct] = False
    return np.nonzero(keep)[1].reshape(rows, m)


def _distinct_rows(n: int, k: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Per row, the first k distinct values of iid uniform draws from range(n):
    the one-stream, one-size case of ``_first_distinct``."""
    if k == 0:
        return np.empty((rows, 0), dtype=np.int64)
    return next(_first_distinct(n, [k], [rng], rows))[1]


def _first_distinct(n: int, ks, rngs, rows: int):
    """Yields (k, rows) for each k in ks: per row, the first k distinct
    values among its first ``_window(n, k)`` candidates, in value order.

    Row r reads column r % BLOCK_TRIALS of stream rngs[r // BLOCK_TRIALS].
    Every stream generates its candidates once, at the widest window, and
    all rows are sorted once. This is sequential rejection of repeats,
    done for all rows at once. The rule only compares candidates for
    equality, so relabelling the population relabels the result: every
    k-subset is equally likely, and so it is for a row that is short of k
    distinct candidates and is redrawn whole, by the same rule, from child
    0 of its stream. Keys are int32 when every key fits (n << shift <=
    2**31) and int64 otherwise, and rows come back in the key dtype.
    """
    width = max(_window(n, k) for k in ks)
    shift = width.bit_length()
    dtype = np.int32 if n << shift <= 2**31 else np.int64
    # C order, one row per trial, so that a row's sort runs over contiguous
    # keys; columns past the last row are not copied
    keys = np.empty((rows, width), dtype=dtype)
    for i, rng in enumerate(rngs):
        block = keys[i * BLOCK_TRIALS:(i + 1) * BLOCK_TRIALS]
        block[:] = rng.integers(0, n, size=(width, BLOCK_TRIALS), dtype=dtype).T[:len(block)]
    # key = value << shift | position: sorting a row groups equal values,
    # earliest position first
    keys <<= shift
    keys |= np.arange(width, dtype=dtype)
    keys.sort(axis=1)
    values = keys >> shift
    repeat = np.zeros((rows, width), dtype=bool)
    np.equal(values[:, 1:], values[:, :-1], out=repeat[:, 1:])
    # position of each value's first appearance; repeats sort last
    position = np.bitwise_and(keys, (1 << shift) - 1, out=keys)
    np.putmask(position, repeat, width)
    del repeat
    # the k-th earliest first appearance of each row, for every k (one sort
    # costs less than a partition per k)
    if len(ks) == 1:
        ranked = np.partition(position, ks[0] - 1, axis=1)
    else:
        ranked = np.sort(position, axis=1)
    cutoffs = ranked[:, [k - 1 for k in ks]]
    del ranked

    def cut(j: int, k: int) -> np.ndarray:
        cutoff = cutoffs[:, j:j + 1]
        short = cutoff[:, 0] >= _window(n, k)
        cutoff[short] = -1
        # np.compress on the flat arrays is about 3x faster than a 2-D mask
        kept = np.compress((position <= cutoff).ravel(), values.ravel())
        if not short.any():
            return kept.reshape(rows, k)
        out = np.empty((rows, k), dtype=dtype)
        out[~short] = kept.reshape(-1, k)
        for i in np.unique(np.flatnonzero(short) // BLOCK_TRIALS).tolist():
            start = i * BLOCK_TRIALS
            redraw = start + np.flatnonzero(short[start:start + BLOCK_TRIALS])
            out[redraw] = _distinct_rows(n, k, _child_rng(rngs[i]), redraw.size)
        return out

    # a draw is handed over without a reference kept here, so that the
    # caller can release it while this pass still holds the sorted rows
    for j, k in enumerate(ks):
        yield k, cut(j, k)


def sample_without_replacement(ids, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform size-m subset of ids: the one-row case of ``sample_rows``.

    The subset is uniform; it comes back in the order of ids, not shuffled.
    """
    arr = np.asarray(ids)
    if arr.ndim != 1:
        raise DataError("ids must form a 1-D sequence")
    return arr[sample_rows(arr.size, m, rng, 1)[0]]


def is_increasing(members) -> bool:
    """Whether a member list is in increasing order (its rows need no sort)."""
    members = np.asarray(members)
    return not (members[1:] < members[:-1]).any()


def _stratum_draws(
    members: np.ndarray, sizes, master_seed: int, stratum: int,
    first_block: int, trials: int, ordered: bool,
):
    """One stratum's draws of every size in ``sizes`` for ``trials`` trials
    from block ``first_block`` on: yields (m, rows) per distinct size, rows a
    (trials, m) array of sorted pool positions, one size at a time.

    One ``_first_distinct`` pass over the blocks' streams serves every
    size; a size m > N_h / 2 takes the complement of its N_h - m.
    """
    n = members.size
    by_k = {}
    for m in sorted(set(sizes)):
        if not 1 <= m <= n:
            raise DataError(f"sample size {m} out of range [1, {n}]")
        by_k.setdefault(min(m, n - m), []).append(m)
    drawn = [(0, np.empty((trials, 0), dtype=np.int64))] if 0 in by_k else []
    needed = sorted(by_k.keys() - {0})
    if needed:
        rngs = [
            trial_rng(master_seed, block, stratum)
            for block in range(first_block, first_block - (-trials // BLOCK_TRIALS))
        ]
        drawn = itertools.chain(drawn, _first_distinct(n, needed, rngs, trials))
    for k, distinct in drawn:
        picked = [members[_with_complement(n, m, distinct)] for m in by_k[k]]
        del distinct  # not held while the caller reveals the rows
        for m, rows in zip(by_k[k], picked):
            # sorted rows of positions map to sorted rows through sorted members
            if not ordered:
                rows.sort(axis=1)
            yield m, rows


def _checked_members(member_lists, plans, first_block: int, trials: int) -> list:
    members = [np.asarray(m) for m in member_lists]
    if any(m.ndim != 1 for m in members):
        raise DataError("member lists must be 1-D")
    for plan in plans:
        if len(members) != plan.h_eff:
            raise DataError(f"{len(members)} strata but the plan covers {plan.h_eff}")
    if first_block < 0 or trials < 1:
        raise ConfigError(
            f"need a block index >= 0 and at least one trial, got {first_block}, {trials}"
        )
    return members


def estimate_blocks(
    pool: Pool, member_lists, ordered, plans, sizes, master_seed: int,
    first_block: int, trials: int,
) -> list:
    """``estimate_block`` for several plans on one partition at once, over
    ``trials`` trials from trial first_block * BLOCK_TRIALS on.

    Per stratum, one pass over the blocks' streams draws every plan's rows
    (see ``_stratum_draws``). Returns one (values, labels used) pair of
    arrays per plan, each row equal to that plan's ``estimate_block`` on
    ``draw_block`` bit for bit; every plan reveals through its own block
    oracle. Strata are drawn and summed one at a time, and each size's rows
    are released once revealed. ``ordered`` holds ``is_increasing`` of
    each member list.
    """
    members = _checked_members(member_lists, plans, first_block, trials)
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(sizes) != len(members):
        raise DataError("member lists and sizes cover different stratum counts")
    oracles = [BlockOracle(pool, trials) for _ in plans]
    totals = [0.0] * len(plans)
    for h, stratum in enumerate(members):
        wanted = [int(plan.m[h]) for plan in plans]
        for m, rows in _stratum_draws(
            stratum, wanted, master_seed, h, first_block, trials, ordered[h]
        ):
            for i in (i for i, w in enumerate(wanted) if w == m):
                totals[i] = totals[i] + _stratum_sum(oracles[i].reveal_rows(rows), m, sizes[h])
    size = float(sizes.sum())
    return [(total / size, oracle.labels_used) for total, oracle in zip(totals, oracles)]


def block_groups(member_lists, plans, trials: int) -> list:
    """(first_block, trials) pieces of ``trials`` trials, whole blocks but
    the last, each small enough that a pass of ``estimate_blocks`` over the
    plans holds arrays of at most about PASS_ELEMENTS elements."""
    widest = 0
    for h, members in enumerate(member_lists):
        n = len(members)
        for m in {int(plan.m[h]) for plan in plans}:
            # a complement draw also holds a (trials, n) mask
            widest = max(widest, _window(n, min(m, n - m)), n if 2 * m > n else m)
    step = max(1, PASS_ELEMENTS // (BLOCK_TRIALS * widest)) * BLOCK_TRIALS
    return [
        (start // BLOCK_TRIALS, min(step, trials - start))
        for start in range(0, trials, step)
    ]


def draw_block(
    member_lists, plan: AllocationPlan, master_seed: int, block_index: int, trials: int
) -> list:
    """Within-stratum draws of the first ``trials`` trials of one block.

    Returns one (trials, m_h) array of pool positions per stratum, each row
    sorted; row r belongs to trial block_index * BLOCK_TRIALS + r.
    """
    if not 1 <= trials <= BLOCK_TRIALS:
        raise ConfigError(f"a block holds 1 to {BLOCK_TRIALS} trials, got {trials}")
    members = _checked_members(member_lists, [plan], block_index, trials)
    return [
        next(_stratum_draws(
            stratum, [int(plan.m[h])], master_seed, h, block_index, trials,
            is_increasing(stratum),
        ))[1]
        for h, stratum in enumerate(members)
    ]


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
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(drawn) != plan.h_eff or len(sizes) != plan.h_eff:
        raise DataError("draws, plan and sizes cover different stratum counts")
    for h, rows in enumerate(drawn):
        if rows.shape[1] != int(plan.m[h]):
            raise DataError(
                f"stratum {h} draws have {rows.shape[1]} instances, plan says {plan.m[h]}"
            )
    values = _stratified_means([oracle.reveal_rows(rows) for rows in drawn], plan.m, sizes)
    return risk_estimates(values, oracle.labels_used)


def risk_estimates(values, labels) -> list:
    """One ``RiskEstimate`` per entry of the value and label arrays."""
    return [RiskEstimate(v, used) for v, used in zip(values.tolist(), labels.tolist())]


def uniform_estimate(
    pool: Pool, budget: int, rng: np.random.Generator, oracle: LabelOracle
) -> RiskEstimate:
    """Mean loss over a uniform without-replacement subset of the pool.

    The one-stratum case of ``ht_estimate``, drawn as row 0 of ``rng``'s
    column-major candidate block: the first ``budget`` distinct values among
    column 0's first width(budget) candidates (of width(pool.size - budget)
    left-out values when budget > pool.size / 2), redrawn from child 0 of
    rng's seed sequence when that window is short. Row 0 reads column 0
    only, whatever width a cell shares its candidates at, so with
    rng = trial_rng(master_seed, b, 0) it is trial b * BLOCK_TRIALS of a
    uniform ``run_trials`` cell and of the uniform row of a ``sweep``.
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
        total = total + _stratum_sum(stratum_losses, m[h], sizes[h])
    return total / float(sizes.sum())


def _stratum_sum(losses: np.ndarray, m_h, size_h) -> np.ndarray:
    """Per row, N_h * mean loss of a (rows, m_h) stratum sample."""
    # multiply before dividing: keeps N_h * sum / m_h exact for 0/1 losses
    # at the census budget, where it must equal the pool risk
    return float(size_h) * losses.sum(axis=1) / int(m_h)
