"""Distribute a label budget over strata.

Weight rules: the smoothed-Bernoulli proxy rule driven by surrogate
self-consistency, three size-only baselines (equal, proportional, power),
and the oracle reference that uses the true within-stratum loss standard
deviations. A shared rounding step turns any weight vector into an integer
plan satisfying sum(m_h) = M and 1 <= m_h <= N_h:

  (a) raw shares M * w_h / sum(w)
  (b) largest-remainder integerization (ties to the lower stratum index)
  (c) strata at zero are raised to one, paid for by the currently largest
      allocation (ties to the lower index)
  (d) allocations above the stratum size are clipped and the excess is
      re-apportioned over the unclipped strata by the same rule as (b)

The plan is invariant to positive rescaling of the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .stratify import Stratification

DEFAULT_DELTA = 0.75

ALLOCATION_RULES = ("proxy_neyman", "equal", "proportional", "power", "oracle_neyman")


@dataclass(frozen=True)
class StratumWeights:
    """Pre-rounding allocation weights, one non-negative real per stratum."""

    w: np.ndarray
    rule: str
    delta: float | None = None


@dataclass(frozen=True)
class AllocationPlan:
    """Integer label counts per stratum for a total budget."""

    m: np.ndarray
    budget: int
    rule: str
    delta: float | None = None

    @property
    def h_eff(self) -> int:
        return len(self.m)


def proxy_neyman_weights(sizes, mean_sc, delta: float = DEFAULT_DELTA) -> StratumWeights:
    """w_h = N_h * (sqrt(p_h (1 - p_h)) + delta).

    p_h is the mean surrogate self-consistency in stratum h; the offset
    delta > 0 keeps strata with p_h near 1 (the zero-entropy base stratum
    in particular) from being starved of labels; it must be finite.
    """
    if not 0 < delta < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"delta must be positive and finite, got {delta}")
    sizes = _checked_sizes(sizes)
    p = np.asarray(mean_sc, dtype=float)
    if p.shape != sizes.shape:
        raise DataError(f"mean_sc has shape {p.shape}, expected {sizes.shape}")
    if ((p < 0) | (p > 1)).any() or not np.isfinite(p).all():
        raise DataError("mean self-consistency values must lie in [0, 1]")
    w = sizes * (np.sqrt(p * (1.0 - p)) + delta)
    return StratumWeights(w=w, rule="proxy_neyman", delta=float(delta))


def oracle_neyman_weights(stratification: Stratification, losses) -> StratumWeights:
    """w_h = N_h * sigma_h with sigma_h the population std of the stratum losses.

    Needs the full loss vector, so this is a harness-only reference rule.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.shape != stratification.assignment.shape:
        raise DataError(
            f"loss vector has shape {losses.shape}, expected "
            f"{stratification.assignment.shape}"
        )
    h_eff = stratification.h_eff
    counts = stratification.sizes
    sums = np.bincount(stratification.assignment, weights=losses, minlength=h_eff)
    sq_sums = np.bincount(
        stratification.assignment, weights=losses * losses, minlength=h_eff
    )
    variances = np.maximum(sq_sums / counts - (sums / counts) ** 2, 0.0)
    return StratumWeights(w=counts * np.sqrt(variances), rule="oracle_neyman")


def baseline_weights(rule: str, sizes) -> StratumWeights:
    """Size-only weights: equal (1), proportional (N_h), power (sqrt N_h)."""
    sizes = _checked_sizes(sizes)
    if rule == "equal":
        w = np.ones_like(sizes)
    elif rule == "proportional":
        w = sizes.copy()
    elif rule == "power":
        w = np.sqrt(sizes)
    else:
        raise ConfigError(
            f"unknown baseline rule {rule!r}; expected equal, proportional or power"
        )
    return StratumWeights(w=w, rule=rule)


def round_allocation(weights: StratumWeights, budget: int, caps) -> AllocationPlan:
    """Integerize weights into a feasible plan for the given budget.

    The budget must be able to give every stratum at least one label and
    must not exceed the pool size. An all-zero weight vector (possible for
    the oracle rule when every stratum has constant losses) falls back to
    size-proportional shares.
    """
    caps = _checked_sizes(caps)
    h_eff = len(caps)
    budget = int(budget)
    if budget < h_eff:
        raise ConfigError(
            f"budget {budget} is below the stratum count {h_eff}; every stratum "
            "needs at least one label"
        )
    total = int(caps.sum())
    if budget > total:
        raise ConfigError(f"budget {budget} exceeds the pool size {total}")
    w = np.asarray(weights.w, dtype=float)
    if w.shape != caps.shape:
        raise DataError(f"weights have shape {w.shape}, expected {caps.shape}")
    if (w < 0).any() or not np.isfinite(w).all():
        raise DataError("weights must be finite and non-negative")
    if w.sum() == 0:
        w = caps.astype(float)

    m = _largest_remainder(w, budget)

    # (c) raise zero strata to one, paying from the largest allocation
    while True:
        deficient = np.flatnonzero(m < 1)
        if deficient.size == 0:
            break
        m[deficient[0]] = 1
        m[np.argmax(m)] -= 1

    # (d) clip overfull strata; re-apportion the excess over the rest
    capped = np.zeros(h_eff, dtype=bool)
    while True:
        over = m > caps
        if not over.any():
            break
        excess = int((m[over] - caps[over]).sum())
        m[over] = caps[over]
        capped |= over
        free = ~capped
        w_free = w[free]
        if w_free.sum() == 0:
            w_free = caps[free].astype(float)
        m[free] += _largest_remainder(w_free, excess)

    return AllocationPlan(
        m=m, budget=budget, rule=weights.rule, delta=weights.delta
    )


def _largest_remainder(w: np.ndarray, total: int) -> np.ndarray:
    """Apportion an integer total proportionally to w, floors plus the
    largest fractional parts; fractional ties go to the lower index.

    Fractional parts are compared after rounding to 3 decimals: integer
    shares put the fractional parts on a coarse lattice where exact ties
    are common, and tiny weight perturbations (rescaling noise, or a huge
    smoothing offset that should reduce to proportional allocation) must
    not reorder effectively tied strata. A sub-0.001 difference in a
    fractional claim on one label carries no allocation signal.
    """
    raw = total * (w / w.sum())
    base = np.floor(raw).astype(int)
    leftover = total - int(base.sum())
    if leftover > 0:
        frac = np.round(raw - base, 3)
        order = np.lexsort((np.arange(len(w)), -frac))
        base[order[:leftover]] += 1
    return base


def _checked_sizes(sizes) -> np.ndarray:
    sizes = np.asarray(sizes)
    if sizes.ndim != 1 or sizes.size == 0:
        raise DataError("stratum sizes must form a non-empty 1-D array")
    if (sizes < 1).any():
        raise DataError("every stratum must contain at least one instance")
    return sizes.astype(np.int64)
