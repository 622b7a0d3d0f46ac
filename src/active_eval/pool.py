"""Evaluation-pool data model.

A Pool is an immutable table of evaluation instances stored as columns:
the instance ids, an (N, k) matrix of answer codes with the label table
they index, and read-only per-instance arrays of semantic entropy,
self-consistency and target loss. ``load_pool`` and ``make_pool`` fill the
columns, and so does any caller, through ``Pool(ids, codes, labels,
losses)``; ``Pool.instances`` builds one read-only PoolInstance per row on
first access for readers that want rows. Estimation code must read the
losses through an oracle: a LabelOracle reveals pool positions and meters
how many distinct instances have been revealed; that counter is the
labeling budget actually spent.
The Monte Carlo engine reads losses through BlockOracle, the same metering
for a block of independent trials at once, and through
``reveal_prefix_sums``, which serves several block oracles from one
reveal of draws in draw order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .signals import answer_signals
from .stratify import LevelTable


@dataclass(frozen=True)
class PoolInstance:
    """One evaluation input with its surrogate signals: one row of a Pool."""

    id: str
    surrogate_answers: tuple[str, ...]
    se: float
    sc: float
    target_loss: float


class Pool:
    """Fixed pool of evaluation instances with a uniform generation count k.

    The pool is stored as columns: ``ids`` (a tuple of strings), ``codes``
    (an (N, k) int32 matrix whose row i lists instance i's k surrogate
    answers in generation order as indices into ``labels``, the table of
    distinct answer labels) and the read-only float arrays ``se_values``,
    ``sc_values`` and the target losses. SE and SC are computed here, once
    per distinct count profile of the rows, so they cannot disagree with
    the answers. The same pass builds ``se_levels``, the read-only
    ``LevelTable`` of the SE values (sorted distinct levels, instances per
    level, level index per instance) that the stratifiers bin; rows
    sharing a profile share a level, so it costs one ``np.unique`` over
    the profiles' values and one gather, not a sort of N. Instance order
    is ingestion order and is the tie-breaking order for all downstream
    binning. Pools are immutable after construction and safe to share
    across parallel workers.
    """

    def __init__(self, ids, codes, labels, losses):
        ids = tuple(ids)
        if not ids:
            raise DataError("pool must contain at least one instance")
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[0] != len(ids) or codes.dtype.kind not in "iu":
            raise DataError(
                f"answer codes must be an integer matrix with one row per id, "
                f"got {codes.dtype} of shape {codes.shape} for {len(ids)} ids"
            )
        k = codes.shape[1]
        if k < 2:
            raise DataError(f"instances need at least 2 surrogate answers, got k={k}")
        labels = tuple(labels)
        for label in labels:
            if not isinstance(label, str) or label == "":
                raise DataError(f"answer labels must be non-empty strings, got {label!r}")
        if len(set(labels)) != len(labels):
            raise DataError("the answer label table lists a label twice")
        if codes.min() < 0 or codes.max() >= len(labels):
            raise DataError(f"answer codes must index the {len(labels)} labels")
        if len(set(ids)) != len(ids):
            seen = set()
            for instance_id in ids:
                if instance_id in seen:
                    raise DataError(f"duplicate instance id {instance_id!r}")
                seen.add(instance_id)
        losses = np.array(losses, dtype=float)
        if losses.shape != (len(ids),):
            raise DataError(f"got {losses.size} losses for {len(ids)} instances")
        bad = np.flatnonzero(~((losses >= 0.0) & (losses <= 1.0)))
        if bad.size:
            pos = bad[0]
            raise DataError(
                f"instance {ids[pos]!r} has target_loss {float(losses[pos])!r} "
                "outside [0, 1]"
            )
        self.ids = ids
        self.codes = _frozen(codes.astype(np.int32))
        self.labels = labels
        self.k = k
        self.se_levels, self.sc_values = _profile_signals(self.codes, labels)
        self.se_values = self.se_levels.values
        self._losses = _frozen(losses)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def size(self) -> int:
        return len(self.ids)

    def answer_lists(self) -> list:
        """Each instance's surrogate answer labels, as one list per instance."""
        return np.array(self.labels, dtype=object)[self.codes].tolist()

    @functools.cached_property
    def instances(self) -> tuple:
        """The pool as PoolInstance rows, built on first access."""
        return tuple(
            PoolInstance(id, tuple(answers), se, sc, loss)
            for id, answers, se, sc, loss in zip(
                self.ids,
                self.answer_lists(),
                self.se_values.tolist(),
                self.sc_values.tolist(),
                self._losses.tolist(),
            )
        )

    def loss_vector(self) -> np.ndarray:
        """Full per-instance loss vector.

        Harness-only: used to compute the true pool risk and the
        oracle-side allocation reference, never by the estimators.
        """
        return self._losses

    def oracle(self) -> "LabelOracle":
        """Fresh budget-accounting view of this pool's losses."""
        return LabelOracle(self)


def finite_pool_risk(pool: Pool, losses) -> float:
    """Mean of the full loss vector: the ground-truth pool risk."""
    losses = np.asarray(losses, dtype=float)
    if losses.shape != (pool.size,):
        raise DataError(
            f"loss vector has shape {losses.shape}, expected ({pool.size},)"
        )
    if not np.isfinite(losses).all():
        raise DataError("loss vector contains non-finite values")
    return float(losses.mean())


class LabelOracle:
    """Reveals target losses at pool positions and counts distinct reveals.

    Re-revealing an instance returns the same loss without incrementing the
    counter. ``ht_estimate`` reads one trial's draw through it; the Monte
    Carlo engine meters blocks of trials with BlockOracle instead.
    """

    def __init__(self, pool: Pool):
        self._pool = pool
        self._losses = pool._losses
        self._revealed = np.zeros(pool.size, dtype=bool)
        self._labels_used = 0

    @property
    def labels_used(self) -> int:
        return self._labels_used

    def reveal_indices(self, positions: np.ndarray) -> np.ndarray:
        """Losses for an array of pool positions, each instance counted on
        its first reveal only."""
        positions = np.asarray(positions, dtype=np.intp)
        if positions.size and (positions.min() < 0 or positions.max() >= self._pool.size):
            raise DataError("pool position out of range")
        new = ~self._revealed[positions]
        if new.any():
            self._revealed[positions[new]] = True
            self._labels_used += int(np.count_nonzero(new))
        return self._losses[positions]


class BlockOracle:
    """Block form of LabelOracle: meters a block of independent trials.

    Row t of every reveal belongs to trial t and is counted on that trial's
    own counter. A row lists distinct pool positions in any order, so its
    count of distinct reveals is its length; a row that repeats a position
    or leaves the pool is rejected. No pool-sized mask is kept, so memory
    is that of the rows revealed.
    """

    def __init__(self, pool: Pool, trials: int):
        self._losses = pool._losses
        self.labels_used = np.zeros(trials, dtype=np.int64)

    def _rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 2 or rows.shape[0] != self.labels_used.size:
            raise DataError(
                f"expected {self.labels_used.size} rows of positions, got shape {rows.shape}"
            )
        return rows

    def reveal_rows(self, rows) -> np.ndarray:
        """Losses at an array of pool positions, one row per trial."""
        rows = _in_range(self._rows(rows), self._losses.size, "pool position")
        # an increasing row repeats nothing; any other is checked sorted
        unsorted = np.flatnonzero((rows[:, 1:] <= rows[:, :-1]).any(axis=1))
        if unsorted.size:
            ordered = np.sort(rows[unsorted], axis=1)
            bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
            if bad.size:
                raise DataError(f"trial row {unsorted[bad[0]]} repeats an instance")
        self.labels_used += rows.shape[1]
        return self._losses[rows]


def reveal_prefix_sums(members, draws, readers) -> list:
    """Per (oracle, m) reader, each trial's sum of the losses at the first m
    positions of its draw, added left to right.

    This is how one pass of the Monte Carlo engine serves several cells:
    row t of ``draws`` lists trial t's draw as distinct indices into
    ``members``, the pool positions of one stratum, in draw order, and a
    cell's draw of size m is its first m. The losses are gathered once, as
    running sums, and each cell reads column m - 1; its oracle meters m
    reveals on every trial. The sampler found the indices distinct where
    it held them sorted (``_first_distinct`` in ``estimate``), so only
    their range is checked here; ``reveal_rows`` checks rows of unknown
    origin.
    """
    oracle = readers[0][0]
    losses = oracle._losses
    members = _in_range(np.asarray(members, dtype=np.intp), losses.size, "pool position")
    draws = _in_range(oracle._rows(draws), members.size, "member index")
    if any(o._losses is not losses or o.labels_used.size != draws.shape[0]
           for o, _ in readers):
        raise DataError("the readers of a pass must meter the same pool and trials")
    running = np.cumsum(losses[members][draws], axis=1)
    sums = []
    for reader, m in readers:
        if not 1 <= m <= draws.shape[1]:
            raise DataError(f"prefix of {m} positions out of range [1, {draws.shape[1]}]")
        reader.labels_used += m
        sums.append(running[:, m - 1])
    return sums


def _in_range(indices: np.ndarray, size: int, what: str) -> np.ndarray:
    if indices.size and (indices.min() < 0 or indices.max() >= size):
        raise DataError(f"{what} out of range")
    return indices


def _profile_signals(codes: np.ndarray, labels) -> tuple:
    """The SE level table and the SC of every row, one ``answer_signals``
    call per count profile; every array is read-only.

    A row's count profile is the sorted list of its answers' multiplicities
    (at most 42 distinct profiles at k=10). ``answer_signals`` depends only
    on the profile, so the values of a profile's first row are those of
    every row that shares it. Different profiles can share an SE value
    (at k=20, 627 profiles give 512 values), so the levels are the
    distinct profile values and a level counts every row of its profiles.
    Rows are grouped by one packed key each (``_profile_keys``), so the
    temporaries hold a byte or so per answer, not an int64.
    """
    # np.unique sorts stably when asked for first indices, so each group's
    # representative is the first row of the pool with that profile
    _, first, group = np.unique(_profile_keys(codes), return_index=True, return_inverse=True)
    values = np.array([answer_signals([labels[c] for c in codes[row]]) for row in first])
    levels, level_of_group = np.unique(values[:, 0], return_inverse=True)
    inverse = level_of_group[group]
    table = LevelTable(
        values=_frozen(values[group, 0]),
        levels=_frozen(levels),
        counts=_frozen(np.bincount(inverse, minlength=len(levels))),
        inverse=_frozen(inverse),
    )
    return table, _frozen(values[group, 1])


def _profile_keys(codes: np.ndarray) -> np.ndarray:
    """One key per row, equal for two rows exactly when their count
    profiles are equal: the bytes of the row's sorted run places.

    An answer's run place is its 1-based position in its run of equal
    answers, so a run of length c holds the places 1..c, and place v
    occurs in a row once per run of length v or more. The sorted places
    and the count profile therefore determine each other. They are held
    in the narrowest unsigned dtype that holds k.
    """
    n, k = codes.shape
    place = np.min_scalar_type(k)
    ordered = np.sort(codes, axis=1).T  # column i holds row i's sorted codes
    position = np.arange(k, dtype=place)[:, np.newaxis]
    # the position where each answer's run starts, by a running maximum
    start = np.zeros((k, n), dtype=place)
    np.multiply(ordered[1:] != ordered[:-1], position[1:], out=start[1:])
    np.maximum.accumulate(start, axis=0, out=start)
    places = np.ascontiguousarray((position + 1 - start).T)
    places.sort(axis=1)
    return places.view(np.dtype((np.void, places.itemsize * k))).ravel()


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
