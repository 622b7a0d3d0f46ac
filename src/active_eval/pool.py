"""Evaluation-pool data model.

A Pool is an immutable ordered collection of instances, each carrying its k
surrogate answers and the uncertainty signals cached at construction time.
Target losses live on the instances but estimation code must read them
through a LabelOracle, which meters how many distinct instances have been
revealed; that counter is the labeling budget actually spent. The Monte
Carlo engine reads losses through BlockOracle, the same metering for a
block of independent trials at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .signals import answer_signals


@dataclass(frozen=True)
class PoolInstance:
    """One evaluation input with its cached surrogate signals."""

    id: str
    surrogate_answers: tuple[str, ...]
    se: float
    sc: float
    target_loss: float

    @classmethod
    def from_answers(cls, id: str, answers, target_loss: float) -> "PoolInstance":
        answers = tuple(answers)
        se, sc = answer_signals(answers)
        return cls(
            id=str(id),
            surrogate_answers=answers,
            se=se,
            sc=sc,
            target_loss=float(target_loss),
        )


class Pool:
    """Fixed pool of evaluation instances with a uniform generation count k.

    Instance order is ingestion order and is the tie-breaking order for all
    downstream binning. Pools are immutable after construction and safe to
    share across parallel workers.
    """

    def __init__(self, instances):
        instances = tuple(instances)
        if len(instances) == 0:
            raise DataError("pool must contain at least one instance")
        k = len(instances[0].surrogate_answers)
        if k < 2:
            raise DataError(f"instances need at least 2 surrogate answers, got k={k}")
        index = {}
        for pos, inst in enumerate(instances):
            if len(inst.surrogate_answers) != k:
                raise DataError(
                    f"instance {inst.id!r} has {len(inst.surrogate_answers)} "
                    f"surrogate answers, expected k={k}"
                )
            if inst.id in index:
                raise DataError(f"duplicate instance id {inst.id!r}")
            if not (0.0 <= inst.target_loss <= 1.0) or not np.isfinite(inst.target_loss):
                raise DataError(
                    f"instance {inst.id!r} has target_loss {inst.target_loss!r} "
                    "outside [0, 1]"
                )
            index[inst.id] = pos
        self.instances = instances
        self.k = k
        self._index = index
        self.se_values = _frozen(np.array([i.se for i in instances], dtype=float))
        self.sc_values = _frozen(np.array([i.sc for i in instances], dtype=float))
        self._losses = _frozen(np.array([i.target_loss for i in instances], dtype=float))

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def size(self) -> int:
        return len(self.instances)

    def index_of(self, instance_id: str) -> int:
        try:
            return self._index[instance_id]
        except KeyError:
            raise DataError(f"unknown instance id {instance_id!r}") from None

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
    """Reveals target losses on request and counts distinct reveals.

    Re-revealing an instance returns the same loss without incrementing the
    counter. Each Monte Carlo trial owns its own oracle, so oracles are
    never shared across threads.
    """

    def __init__(self, pool: Pool):
        self._pool = pool
        self._losses = pool._losses
        self._revealed = np.zeros(pool.size, dtype=bool)
        self._labels_used = 0

    @property
    def labels_used(self) -> int:
        return self._labels_used

    def reveal(self, instance_id: str) -> float:
        """Loss of one instance, counting it on first reveal only."""
        pos = self._pool.index_of(instance_id)
        if not self._revealed[pos]:
            self._revealed[pos] = True
            self._labels_used += 1
        return float(self._losses[pos])

    def reveal_indices(self, positions: np.ndarray) -> np.ndarray:
        """Losses for an array of pool positions (bulk form of reveal)."""
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
    own counter. A row must list strictly increasing pool positions (sorted,
    none repeated), so its count of distinct reveals is its length; a row
    that repeats a position or leaves the pool is rejected. No pool-sized
    mask is kept, so memory is that of the rows revealed.
    """

    def __init__(self, pool: Pool, trials: int):
        self._losses = pool._losses
        self.labels_used = np.zeros(trials, dtype=np.int64)

    def reveal_rows(self, rows) -> np.ndarray:
        """Losses at an array of pool positions, one row per trial."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 2 or rows.shape[0] != self.labels_used.size:
            raise DataError(
                f"expected {self.labels_used.size} rows of positions, got shape {rows.shape}"
            )
        if rows.shape[1]:
            if rows[:, 0].min() < 0 or rows[:, -1].max() >= self._losses.size:
                raise DataError("pool position out of range")
            bad = np.flatnonzero((rows[:, 1:] <= rows[:, :-1]).any(axis=1))
            if bad.size:
                raise DataError(
                    f"trial row {bad[0]} repeats an instance or is not sorted"
                )
        self.labels_used += rows.shape[1]
        return self._losses[rows]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
