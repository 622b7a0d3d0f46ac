"""Within-stratum simple random sampling and the stratified risk estimator.

Sampling is uniform without replacement: a row's draw is the first m
distinct values of a sequence of iid uniform candidates from range(n), in
the order they first appear (sequential selection: any prefix of a uniform
random ordering is a uniform subset, Knuth, TAOCP vol. 2, 3.4.2), and every
size-m subset has probability 1 / C(n, m). For m > n / 2 the n - m values
left out are drawn that way instead, and the row lists the values left in
increasing order. Every sampling path goes through this rule.

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
is given, sorts them once to find the repeats, and keeps each row's first
K distinct values in draw order, K the largest size m <= N_h / 2 of the
pass. A draw of size m <= K is the first m of them, so the pass reveals
the K values once, as running sums, and a plan reads column m - 1.
``draw_stratified`` replays one trial of it bit for bit, as a tuple of
per-stratum position arrays. Both, and ``sample_rows``, its one-stream
case over range(n), run the same pass (``_StratumPass``) over the
streams they are given.

Sort keys are value << shift | position, int32 when every key fits (in a
stratum of 100k, for windows up to about 14k) and int64 otherwise; below
2**32 numpy's ``integers(0, n)`` gives the same values in either dtype, so
the key dtype changes no draw.

The stratified estimate is R_hat = (1/N) * sum_h N_h * mean-loss(S_h),
the Horvitz-Thompson estimator with inclusion probability m_h / N_h inside
stratum h. With m_h = N_h everywhere it returns the exact pool risk.
Uniform sampling is the one-stratum case. Every path adds a stratum's
losses left to right in the order its draw lists them, so a running sum
read at m - 1 and ``ht_estimate`` on one trial's draw agree bit for bit,
also for losses that are not 0/1. A stratum's size N_h is the length of
its member list.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocate import AllocationPlan
from .errors import ConfigError, DataError
from .pool import BlockOracle, Pool, reveal_prefix_sums

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
class RiskEstimate:
    value: float
    labels_used: int


# Extra candidates per row of a block draw beyond the expected need; a row
# that still falls short is redrawn from a child stream (see _redrawn).
CANDIDATE_SLACK = 16


def _window(n: int, k: int) -> int:
    """Candidates a row reads to find k distinct values of range(n).

    With k <= n / 2 a row needs at most n * ln(n / (n - k)) <= 1.39 k
    candidates on average; with this window at most about one row in 1,400
    falls short (measured at the worst case, k = n / 2 near k = 140).
    """
    return k + k * k // n + CANDIDATE_SLACK


def sample_rows(n: int, m: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` independent uniform size-m subsets of range(n), one row each,
    in draw order, as int64: the one-stream case of ``_StratumPass`` over
    the members range(n).

    Row r reads column r of rng's candidate block (see the module
    docstring), so asking for fewer rows from the same stream returns a
    prefix of the rows; a stream holds BLOCK_TRIALS rows. Memory is
    O(n + BLOCK_TRIALS * m) for m <= n / 2; above that the complement is
    drawn, which costs O(rows * n), and the row lists the values left in
    increasing order.
    """
    if not 1 <= rows <= BLOCK_TRIALS:
        raise ConfigError(f"a stream holds 1 to {BLOCK_TRIALS} rows, got {rows}")
    return _StratumPass(np.arange(n), [m], [rng], rows).rows(m)


def _with_complement(n: int, m: int, distinct: np.ndarray) -> np.ndarray:
    """The size-m rows from rows of k = min(m, n - m) distinct values: the
    rows themselves, or for 2m > n the values they leave out, increasing."""
    if 2 * m <= n:
        return distinct
    rows = distinct.shape[0]
    keep = np.ones((rows, n), dtype=bool)
    keep[np.arange(rows)[:, np.newaxis], distinct] = False
    return np.nonzero(keep)[1].reshape(rows, m)


def _first_distinct(n: int, ks, rngs, rows: int) -> tuple:
    """Per row, its first max(ks) distinct candidates in draw order, and
    per k in ks the rows short of k.

    Row r reads column r % BLOCK_TRIALS of stream rngs[r // BLOCK_TRIALS].
    Every stream generates its candidates once, at the widest window, and
    all rows are sorted once. This is sequential rejection of repeats,
    done for all rows at once: a candidate is kept when no earlier
    candidate of its row has its value, so a row's first k kept values are
    its first k distinct ones, whatever k. The rule only compares
    candidates for equality, so relabelling the population relabels the
    result: every ordered k-subset is equally likely, and so it is for a
    row that has fewer than k distinct values among its first
    ``_window(n, k)`` candidates (it is short of k) and is redrawn whole,
    by the same rule, from child 0 of its stream (see ``_redrawn``).

    Returns (ordered, short): ordered a (rows, max(ks)) array, in which a
    row with fewer distinct candidates than that in the whole window is
    padded with 0, and short a dict k -> bool array over the rows. Keys are
    int32 when every key fits (n << shift <= 2**31) and int64 otherwise,
    and the values come back in the key dtype.
    """
    width = max(_window(n, k) for k in ks)
    shift = width.bit_length()
    dtype = np.int32 if n << shift <= 2**31 else np.int64
    # C order, one row per trial, so that a row's sort runs over contiguous
    # keys; columns past the last row are not copied
    candidates = np.empty((rows, width), dtype=dtype)
    for i, rng in enumerate(rngs):
        block = candidates[i * BLOCK_TRIALS:(i + 1) * BLOCK_TRIALS]
        block[:] = rng.integers(0, n, size=(width, BLOCK_TRIALS), dtype=dtype).T[:len(block)]
    # key = value << shift | position: sorting a row groups equal values,
    # earliest position first, and two keys of one value differ only in
    # their position bits
    keys = candidates << shift
    keys |= np.arange(width, dtype=dtype)
    keys.sort(axis=1)
    repeat = np.zeros((rows, width), dtype=bool)
    np.less(keys[:, 1:] ^ keys[:, :-1], 1 << shift, out=repeat[:, 1:])
    where = np.flatnonzero(repeat)
    del repeat
    # the repeats (few for k <= n / 2) as row * width + position, in order
    where += (keys.ravel()[where] & ((1 << shift) - 1)) - where % width
    del keys
    where.sort()
    row, position = np.divmod(where, width)
    # the repeats of each row, and each repeat's rank among them
    per_row = np.bincount(row, minlength=rows)
    rank = np.arange(row.size) - (np.cumsum(per_row) - per_row)[row]
    # a row is short of k when over window(k) - k repeats fall in its window
    most = int(per_row.max(initial=0))
    none_short = np.zeros(rows, dtype=bool)
    short = {}
    for k in ks:
        w = _window(n, k)
        short[k] = none_short
        if most > w - k:
            short[k] = np.bincount(row[position < w], minlength=rows) > w - k
    # a row's widest-th distinct value sits at position widest - 1 plus the
    # repeats before it, those with fewer distinct values before them
    widest = max(ks)
    last = widest - 1 + np.bincount(row[position - rank < widest], minlength=rows)
    keep = np.arange(width) <= last[:, np.newaxis]
    keep.ravel()[where] = False
    # np.compress on the flat arrays is about 3x faster than a 2-D mask
    values = np.compress(keep.ravel(), candidates.ravel())
    if (last < width).all():
        return values.reshape(rows, widest), short
    # rows with fewer distinct candidates than widest: pad them with 0
    found = np.count_nonzero(keep, axis=1)
    ordered = np.zeros((rows, widest), dtype=dtype)
    ordered[np.arange(widest) < found[:, np.newaxis]] = values
    return ordered, short


def _redrawn(n: int, k: int, ordered: np.ndarray, short: np.ndarray, rngs) -> np.ndarray:
    """The first k columns of a pass's ordered rows, each row short of k
    replaced: a block's j-th short row becomes row j of child 0 of the
    block's stream, drawn by the same rule."""
    distinct = ordered[:, :k]
    if not short.any():
        return distinct
    distinct = distinct.copy()
    for i in np.unique(np.flatnonzero(short) // BLOCK_TRIALS).tolist():
        start = i * BLOCK_TRIALS
        redraw = start + np.flatnonzero(short[start:start + BLOCK_TRIALS])
        distinct[redraw] = sample_rows(n, k, _child_rng(rngs[i]), redraw.size)
    return distinct


def _streams(master_seed: int, stratum: int, first_block: int, trials: int) -> list:
    """One stratum's streams for ``trials`` trials from block ``first_block`` on."""
    return [
        trial_rng(master_seed, block, stratum)
        for block in range(first_block, first_block - (-trials // BLOCK_TRIALS))
    ]


class _StratumPass:
    """One stratum's shared pass over ``trials`` trials, row r reading
    column r % BLOCK_TRIALS of stream rngs[r // BLOCK_TRIALS], for draws of
    every size in ``sizes``.

    Every size m reads the pass's ordered rows: a size m <= N_h / 2 its
    first m distinct values, a size m > N_h / 2 the N_h - m values it
    leaves out. ``rows(m)`` returns a size's (trials, m) pool positions.
    """

    def __init__(self, members, sizes, rngs, trials):
        n = members.size
        for m in set(sizes):
            if not 1 <= m <= n:
                raise DataError(f"sample size {m} out of range [1, {n}]")
        self.members, self.n, self.trials, self.rngs = members, n, trials, rngs
        ks = sorted({min(m, n - m) for m in sizes} - {0})
        self.short = {}
        if ks:
            self.ordered, self.short = _first_distinct(n, ks, rngs, trials)

    def shares(self, m: int) -> bool:
        """Whether size m's draws are the first m columns of the ordered rows."""
        return 2 * m <= self.n and not self.short[m].any()

    def rows(self, m: int) -> np.ndarray:
        k = min(m, self.n - m)
        if k:
            distinct = _redrawn(self.n, k, self.ordered, self.short[k], self.rngs)
        else:
            distinct = np.empty((self.trials, 0), dtype=np.int64)
        return self.members[_with_complement(self.n, m, distinct)]


def _stratum_sums(members, sizes, oracles, master_seed, stratum, first_block, trials) -> list:
    """Per cell, each trial's loss sum over its draw of size sizes[i] in one
    stratum, revealed through oracles[i] and added left to right in draw
    order.

    The sizes that read a prefix of the pass's ordered rows share one
    reveal of the rows up to the widest of them, as running sums, and read
    column m - 1 (``reveal_prefix_sums``). A size with a short row in the
    pass, or above half the stratum, reveals its own rows.
    """
    rngs = _streams(master_seed, stratum, first_block, trials)
    stratum_pass = _StratumPass(members, sizes, rngs, trials)
    sums = [None] * len(sizes)
    prefix = [i for i, m in enumerate(sizes) if stratum_pass.shares(m)]
    if prefix:
        width = max(sizes[i] for i in prefix)
        shared = reveal_prefix_sums(
            members, stratum_pass.ordered[:, :width], [(oracles[i], sizes[i]) for i in prefix]
        )
        for i, cell_sums in zip(prefix, shared):
            sums[i] = cell_sums
    # one size's rows at a time, released once its cells have revealed them
    for m in sorted({m for m, done in zip(sizes, sums) if done is None}):
        rows = stratum_pass.rows(m)
        for i in [i for i, size in enumerate(sizes) if size == m]:
            sums[i] = _row_sums(oracles[i].reveal_rows(rows))
    return sums


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
    pool: Pool, member_lists, plans, master_seed: int, first_block: int, trials: int,
) -> list:
    """Stratified estimates of several plans on one partition at once, over
    ``trials`` trials from trial first_block * BLOCK_TRIALS on.

    Returns one (values, labels used) pair of arrays per plan, entry t equal
    to ``ht_estimate`` on that plan's ``draw_stratified`` draw of trial
    first_block * BLOCK_TRIALS + t bit for bit. The trials run in groups of
    whole blocks (the last may be partial), one group after another, each
    sized so that its pass holds arrays of at most about PASS_ELEMENTS
    elements whatever the trial count; the groups' results are
    concatenated.
    """
    members = _checked_members(member_lists, plans, first_block, trials)
    widest = 0
    for h, stratum in enumerate(members):
        n = stratum.size
        for m in {int(plan.m[h]) for plan in plans}:
            # a complement draw also holds a (trials, n) mask
            widest = max(widest, _window(n, min(m, n - m)), n if 2 * m > n else m)
    step = max(1, PASS_ELEMENTS // (BLOCK_TRIALS * widest)) * BLOCK_TRIALS
    groups = [
        _estimate_group(pool, members, plans, master_seed,
                        first_block + start // BLOCK_TRIALS, min(step, trials - start))
        for start in range(0, trials, step)
    ]
    return [
        tuple(np.concatenate(parts) for parts in zip(*(group[i] for group in groups)))
        for i in range(len(plans))
    ]


def _estimate_group(pool: Pool, members, plans, master_seed, first_block, trials) -> list:
    """One group's pass of ``estimate_blocks``: per stratum, one pass over
    the blocks' streams draws every plan's rows and one reveal serves every
    plan that reads a prefix of them (see ``_stratum_sums``); every plan is
    metered by its own block oracle. Strata are drawn and summed one at a
    time."""
    oracles = [BlockOracle(pool, trials) for _ in plans]
    totals = [0.0] * len(plans)
    for h, stratum in enumerate(members):
        wanted = [int(plan.m[h]) for plan in plans]
        sums = _stratum_sums(stratum, wanted, oracles, master_seed, h, first_block, trials)
        for i, (m, cell_sums) in enumerate(zip(wanted, sums)):
            totals[i] = totals[i] + _stratum_sum(cell_sums, m, stratum.size)
    size = float(sum(stratum.size for stratum in members))
    return [(total / size, oracle.labels_used) for total, oracle in zip(totals, oracles)]


def draw_stratified(
    member_lists, plan: AllocationPlan, master_seed: int, trial_index: int
) -> tuple:
    """One trial's within-stratum draws under the given plan: a tuple of
    one array of pool positions per stratum, |S_h| = m_h, in draw order."""
    if trial_index < 0:
        raise ConfigError(f"trial_index must be non-negative, got {trial_index}")
    block, row = divmod(trial_index, BLOCK_TRIALS)
    rows = row + 1  # the block's rows up to this trial's; its draw is the last
    members = _checked_members(member_lists, [plan], block, rows)
    return tuple(
        _StratumPass(stratum, [m], _streams(master_seed, h, block, rows), rows).rows(m)[row]
        for h, (stratum, m) in enumerate(zip(members, plan.m.tolist()))
    )


def ht_estimate(draw, plan: AllocationPlan, sizes, oracle: BlockOracle) -> RiskEstimate:
    """Stratified estimate of the pool risk from one draw, a sequence of
    one array of pool positions per stratum.

    Reveals the whole draw as one row through a one-trial oracle (see
    ``Pool.oracle``), so a position listed twice, in one stratum or in two,
    is rejected, and reports the labels it metered. A stratum's losses are
    added left to right in the order the draw lists them, as every path of
    the engine adds them, so a draw of ``draw_stratified`` gives its
    trial's estimate bit for bit.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(draw) != plan.h_eff or len(sizes) != plan.h_eff:
        raise DataError("draw, plan and sizes cover different stratum counts")
    draw = [np.asarray(selected) for selected in draw]
    for h, selected in enumerate(draw):
        if selected.size != plan.m[h]:
            raise DataError(
                f"stratum {h} draw has {selected.size} instances, plan says {int(plan.m[h])}"
            )
    before = int(oracle.labels_used[0])
    losses = oracle.reveal_rows(np.concatenate(draw)[np.newaxis])
    total = 0.0
    stop = 0
    for h, m_h in enumerate(plan.m.tolist()):
        start, stop = stop, stop + m_h
        total = total + _stratum_sum(_row_sums(losses[:, start:stop]), m_h, sizes[h])
    value = total[0] / float(sizes.sum())
    return RiskEstimate(value=float(value), labels_used=int(oracle.labels_used[0]) - before)


def uniform_estimate(
    pool: Pool, budget: int, rng: np.random.Generator, oracle: BlockOracle
) -> RiskEstimate:
    """Mean loss over a uniform without-replacement subset of the pool.

    The one-stratum case of ``ht_estimate``, its losses added in draw
    order. The subset is row 0 of ``rng``'s
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
    selected = sample_rows(pool.size, budget, rng, 1)[0]
    return ht_estimate((selected,), plan, [pool.size], oracle)


def _row_sums(losses: np.ndarray) -> np.ndarray:
    """Per row, its losses added left to right (``sum`` adds pairwise)."""
    return np.cumsum(losses, axis=1)[:, -1]


def _stratum_sum(sums: np.ndarray, m_h, size_h) -> np.ndarray:
    """Per row, N_h * mean loss of a stratum sample of m_h with these sums."""
    # multiply before dividing: keeps N_h * sum / m_h exact for 0/1 losses
    # at the census budget, where it must equal the pool risk
    return float(size_h) * sums / int(m_h)
