"""Partition a pool into ordered strata from semantic-entropy values.

Four deterministic schemes:

* ``adaptive_se`` — the default: instances with zero entropy form a base
  stratum and the remaining instances are split into equal-frequency bins.
* ``quantile``    — equal-frequency bins over all values, zeros included.
* ``equal_width`` — equal-width intervals over the observed value range.
* ``kmeans``      — 1-D Lloyd clustering with deterministic quantile
  initialization.

All schemes are pure functions of (se_values, n_strata), where se_values
is a 1-D array or the ``LevelTable`` of one; both give the same partition.
There is no randomness and no hidden state. Bins that end up empty are
dropped and the survivors are reindexed in increasing-entropy order, so
the effective stratum count can be smaller than requested. Instances
sharing an entropy value always land in the same stratum (the lower one),
which keeps strata value-disjoint.

Every scheme bins the distinct values (levels), not the instances. It
reads them from a ``LevelTable``: the N values, their D sorted distinct
levels, the instance count per level and the level index of each
instance. A scheme chooses a non-decreasing bin per level, and one gather
plus a bincount maps the bins back to the instances, so ties share a
stratum by construction. A ``Pool`` builds its table once, from its count
profiles (``Pool.se_levels``); a plain array of values is turned into one
by ``level_table``, whose ``np.unique`` pass is a sort of N. SE from k
answers takes at most p(k) distinct values (42 at k=10), so a call on a
pool's table costs O(D * H), per Lloyd iteration for ``kmeans``, plus the
O(N) gather and bincount; the ``kmeans`` centroid update also sums the
instance values (one O(N) bincount per iteration; see ``kmeans_stratify``
for why). With continuous values (D = N) an array costs one sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError

KMEANS_MAX_ITER = 100


class LevelTable(NamedTuple):
    """SE values as their sorted distinct levels: ``levels[inverse]`` is ``values``."""

    values: np.ndarray  # the N values, in pool order
    levels: np.ndarray  # the D distinct values, strictly increasing
    counts: np.ndarray  # instance count per level
    inverse: np.ndarray  # level index of each instance


def level_table(se_values) -> LevelTable:
    """The checked level table of a plain array of SE values."""
    values = np.asarray(se_values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DataError("se_values must be a non-empty 1-D array")
    if not np.isfinite(values).all() or (values < 0).any():
        raise DataError("se values must be finite and non-negative")
    levels, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return LevelTable(values, levels, counts, inverse)


@dataclass(frozen=True)
class Stratification:
    """A total partition of the pool into SE-ordered, non-empty strata."""

    assignment: np.ndarray  # stratum index per instance, in pool order
    sizes: np.ndarray  # instance count per stratum
    method: str

    @property
    def h_eff(self) -> int:
        return len(self.sizes)

    def members(self, stratum: int) -> np.ndarray:
        """Pool positions of the instances in one stratum, 0 <= stratum < h_eff."""
        if not 0 <= stratum < self.h_eff:
            raise IndexError(f"stratum {stratum} out of range [0, {self.h_eff})")
        return self.member_lists()[stratum]

    def member_lists(self) -> tuple:
        """Pool positions of every stratum's instances, in pool order.

        Computed on first use and kept on this object; the arrays are
        read-only because every caller shares them.
        """
        return self._member_lists

    @cached_property
    def _member_lists(self) -> tuple:
        # one stable sort groups every stratum's positions in pool order;
        # numpy radix-sorts 8-bit keys
        keys = self.assignment.astype(np.uint8) if self.h_eff <= 256 else self.assignment
        order = np.argsort(keys, kind="stable")
        order.setflags(write=False)
        return tuple(np.split(order, np.cumsum(self.sizes)[:-1]))


def adaptive_se_stratify(se_values, n_strata: int) -> Stratification:
    """Base stratum for zero-entropy instances, equal-frequency bins above.

    Instances with SE exactly 0 form stratum 0; the positive-SE instances
    are rank-split into n_strata - 1 equal-frequency bins. When no instance
    has zero entropy the base stratum is skipped and all instances are
    rank-split into n_strata bins (coinciding with quantile binning). When
    every instance has zero entropy there is a single stratum.
    """
    _, levels, counts, inverse = _table(se_values, n_strata)
    if levels[0] != 0.0:
        return _finalize(_rank_bins(counts, n_strata), inverse, "adaptive_se")
    bins = np.zeros(len(levels), dtype=int)
    bins[1:] = 1 + _rank_bins(counts[1:], n_strata - 1)
    return _finalize(bins, inverse, "adaptive_se")


def quantile_stratify(se_values, n_strata: int) -> Stratification:
    """Equal-frequency bins over all values by sorted rank."""
    _, _, counts, inverse = _table(se_values, n_strata)
    return _finalize(_rank_bins(counts, n_strata), inverse, "quantile")


def equal_width_stratify(se_values, n_strata: int) -> Stratification:
    """Equal-width intervals over [min, max], last bin closed on the right."""
    _, levels, _, inverse = _table(se_values, n_strata)
    lo, hi = float(levels[0]), float(levels[-1])
    if hi == lo:
        return _finalize(np.zeros(1, dtype=int), inverse, "equal_width")
    width = (hi - lo) / n_strata
    bins = np.minimum((levels - lo) // width, n_strata - 1).astype(int)
    return _finalize(bins, inverse, "equal_width")


def kmeans_stratify(se_values, n_strata: int) -> Stratification:
    """1-D Lloyd clustering on the values, clusters ordered by centroid.

    Centroids start at equally spaced quantiles of the distinct value set;
    if there are fewer distinct values than requested strata the cluster
    count is reduced to match. Points equidistant from two centroids join
    the lower one. Iterates until the assignment is fixed or
    KMEANS_MAX_ITER passes.

    Instances with equal values are equidistant from every centroid, so
    the assignment step runs on the D distinct levels. The centroid update
    still sums the instance values in pool order: a per-level weighted
    sum (count * level) rounds differently, and at a value exactly
    midway between two centroids that moves a level to the other cluster.
    """
    values, distinct, level_counts, inverse = _table(se_values, n_strata)
    n_clusters = min(n_strata, len(distinct))
    if n_clusters == 1:
        return _finalize(np.zeros(1, dtype=int), inverse, "kmeans")

    init_idx = (np.arange(n_clusters) * (len(distinct) - 1)) // (n_clusters - 1)
    centroids = distinct[init_idx].astype(float)
    assignment = None  # cluster per level
    previous_k = -1
    for _ in range(KMEANS_MAX_ITER):
        # argmin returns the first (lower-centroid) index on distance ties
        dist = np.abs(distinct[:, None] - centroids[None, :])
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
        sums = np.bincount(assignment[inverse], weights=values, minlength=len(centroids))
        counts = np.bincount(assignment, weights=level_counts, minlength=len(centroids))
        centroids = sums / counts
        order = np.argsort(centroids, kind="stable")
        if not np.array_equal(order, np.arange(len(centroids))):
            centroids = centroids[order]
            relabel = np.empty(len(order), dtype=int)
            relabel[order] = np.arange(len(order))
            assignment = relabel[assignment]
    return _finalize(assignment, inverse, "kmeans")


STRATIFIERS = {
    "adaptive_se": adaptive_se_stratify,
    "quantile": quantile_stratify,
    "equal_width": equal_width_stratify,
    "kmeans": kmeans_stratify,
}


def stratify(se_values, n_strata: int, method: str = "adaptive_se") -> Stratification:
    """Dispatch to one of the registered stratification schemes.

    ``se_values`` is a 1-D array of SE values or its ``LevelTable``; a
    pool's own table, ``pool.se_levels``, skips the sort of N values.
    """
    try:
        fn = STRATIFIERS[method]
    except KeyError:
        raise ConfigError(
            f"unknown stratification method {method!r}; "
            f"expected one of {sorted(STRATIFIERS)}"
        ) from None
    return fn(se_values, n_strata)


def stratum_mean_sc(stratification: Stratification, sc_values) -> np.ndarray:
    """Per-stratum mean self-consistency p_h."""
    sc = np.asarray(sc_values, dtype=float)
    if sc.shape != stratification.assignment.shape:
        raise DataError(
            f"sc vector has shape {sc.shape}, expected "
            f"{stratification.assignment.shape}"
        )
    sums = np.bincount(
        stratification.assignment, weights=sc, minlength=stratification.h_eff
    )
    return sums / stratification.sizes


def _table(se_values, n_strata: int) -> LevelTable:
    """The level table to bin: ``se_values`` itself when it is one."""
    if n_strata < 2:
        raise ConfigError(f"need at least 2 strata, got {n_strata}")
    if isinstance(se_values, LevelTable):
        return se_values
    return level_table(se_values)


def _rank_bins(counts: np.ndarray, n_bins: int) -> np.ndarray:
    """Rank-rule equal-frequency bin of each level, ties merged downward.

    Bin b receives sorted ranks [floor(b*n/B), floor((b+1)*n/B)). A level
    takes the bin of its first (lowest) rank, so instances sharing a value
    stay together in the lowest bin any of them would receive. Returned bin
    ids may be sparse; callers compress them via _finalize.
    """
    n = int(counts.sum())
    edges = (np.arange(n_bins + 1) * n) // n_bins
    first_rank = np.cumsum(counts) - counts
    return np.searchsorted(edges, first_rank, side="right") - 1


def _finalize(level_bins: np.ndarray, inverse: np.ndarray, method: str) -> Stratification:
    """Drop empty bins, reindex in order and give each instance its level's bin."""
    used = np.unique(level_bins)
    remap = np.full(used.max() + 1, -1, dtype=int)
    remap[used] = np.arange(len(used))
    assignment = remap[level_bins][inverse]
    sizes = np.bincount(assignment, minlength=len(used))
    assignment.setflags(write=False)
    sizes.setflags(write=False)
    return Stratification(assignment=assignment, sizes=sizes, method=method)
