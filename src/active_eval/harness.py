"""Monte Carlo comparison harness.

Runs T estimation trials per (method, budget) cell and reduces them to MSE,
MSE relative to the uniform-sampling baseline, and the standard error of
the estimates. Stratification and allocation weights are deterministic
and do not depend on the budget, so ``sweep`` computes the partition once
per ``MethodSpec.partition`` from the pool's SE level table and the
weights once per method, and only rounds the weights per budget; only the
within-stratum draws differ between trials. Uniform sampling is the
proportional rule on a one-stratum partition (Cochran 1977, 5.3): its plan
is m = [M], rounded like any other, and it runs on the same stratified
engine.

Trials run in blocks of ``BLOCK_TRIALS``: per block and stratum one stream
(master_seed, block, stratum) holds every trial's candidates, one column
per trial, read column-major. A draw of size m_h reads its column's first
width(m_h) candidates, and numpy fills the column's first w candidates
alike whatever width is asked for, so one candidate matrix generated at the
widest window serves every draw that fits in it, and a row never depends
on how many rows are used (see ``estimate``). ``sweep`` therefore runs one
shared pass per (partition, stratum, group of blocks) for every cell on
that partition: the candidates are generated, sorted and scanned for
repeats once, each row's first K distinct values are kept in draw order
(K the largest size m_h <= N_h / 2 of the pass), and their losses are
revealed once, as running sums. A cell of size m_h reads column m_h - 1
and is metered m_h labels per trial by its own block oracle; only a cell
with m_h > N_h / 2, or with a row that fell short in the pass, reveals
rows of its own. ``run_trials`` is the same pass with one cell; both call
``estimate_blocks``, which sizes the groups of blocks and runs them one
after another in the calling thread. Trial t's estimate
equals ``ht_estimate`` on ``draw_stratified(..., t)`` bit for bit, so a
cell is a pure function of its arguments whatever the number of trials,
the order its blocks run in and whatever cells share its pass. All
methods share the stream addresses at a given trial index, which removes
between-method seed noise from the relative-MSE ratios. Cells whose
budget is infeasible for a method are skipped and recorded rather than
silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocate import (
    ALLOCATION_RULES,
    DEFAULT_DELTA,
    StratumWeights,
    baseline_weights,
    oracle_neyman_weights,
    proxy_neyman_weights,
    round_allocation,
)
from .errors import ConfigError, DataError
from .estimate import RiskEstimate, estimate_blocks
from .pool import Pool, finite_pool_risk
from .stratify import STRATIFIERS, Stratification, stratify, stratum_mean_sc

DEFAULT_STRATA = 5
DEFAULT_TRIALS = 3000

UNIFORM = "uniform"
# the method names ``active-eval`` accepts: the baseline and every rule
METHOD_TAGS = (UNIFORM,) + ALLOCATION_RULES


@dataclass(frozen=True)
class MethodSpec:
    """One estimation method: either the flat uniform baseline or a
    stratification scheme paired with an allocation rule."""

    name: str
    allocation: str | None = None  # None marks the uniform baseline
    stratification: str = "adaptive_se"
    strata: int = DEFAULT_STRATA
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if self.allocation is None:
            return
        if self.allocation not in ALLOCATION_RULES:
            raise ConfigError(
                f"unknown allocation rule {self.allocation!r}; "
                f"expected one of {ALLOCATION_RULES}"
            )
        if self.stratification not in STRATIFIERS:
            raise ConfigError(
                f"unknown stratification method {self.stratification!r}; "
                f"expected one of {sorted(STRATIFIERS)}"
            )
        if self.strata < 2:
            raise ConfigError(f"need at least 2 strata, got {self.strata}")
        if not 0 < self.delta < math.inf:  # NaN fails both comparisons
            raise ConfigError(f"delta must be positive and finite, got {self.delta}")

    @property
    def partition(self) -> tuple:
        """(scheme, strata) of the method's partition; the uniform
        baseline's is its one stratum."""
        if self.allocation is None:
            return (UNIFORM, 1)
        return (self.stratification, self.strata)

    @classmethod
    def uniform(cls) -> "MethodSpec":
        return cls(name=UNIFORM)

    @classmethod
    def stratified(cls, allocation: str, **kwargs) -> "MethodSpec":
        name = kwargs.pop("name", allocation)
        return cls(name=name, allocation=allocation, **kwargs)

    @classmethod
    def from_tag(
        cls,
        tag: str,
        stratification: str = "adaptive_se",
        strata: int = DEFAULT_STRATA,
        delta: float = DEFAULT_DELTA,
    ) -> "MethodSpec":
        """The method a tag of METHOD_TAGS names: the uniform baseline, or
        that allocation rule under the given partition."""
        if tag == UNIFORM:
            return cls.uniform()
        if tag not in METHOD_TAGS:
            raise ConfigError(f"unknown method {tag!r}; expected a subset of {METHOD_TAGS}")
        return cls.stratified(tag, stratification=stratification, strata=strata, delta=delta)


def method_stratification(pool: Pool, method: MethodSpec) -> Stratification:
    """The method's partition of the pool; one stratum for the uniform baseline."""
    if method.allocation is None:
        assignment = np.zeros(pool.size, dtype=int)
        sizes = np.array([pool.size])
        assignment.setflags(write=False)
        sizes.setflags(write=False)
        return Stratification(assignment=assignment, sizes=sizes, method=UNIFORM)
    return stratify(pool.se_levels, method.strata, method.stratification)


def method_weights(
    pool: Pool, method: MethodSpec, stratification: Stratification
) -> StratumWeights:
    """The method's allocation weights on its partition; the uniform
    baseline's are the proportional ones on its one stratum.

    They do not depend on the budget, so one set serves every budget.
    """
    if method.allocation is None:
        return baseline_weights("proportional", stratification.sizes)
    if method.allocation == "proxy_neyman":
        p = stratum_mean_sc(stratification, pool.sc_values)
        return proxy_neyman_weights(stratification.sizes, p, method.delta)
    if method.allocation == "oracle_neyman":
        return oracle_neyman_weights(stratification, pool.loss_vector())
    return baseline_weights(method.allocation, stratification.sizes)


def prepare_method(pool: Pool, method: MethodSpec, budget: int):
    """Stratify, weight and round for a (method, budget) cell.

    Returns (stratification, member_lists, plan); the uniform baseline gets
    the one-stratum plan m = [budget]. Raises ConfigError naming the
    violated constraint when the budget is infeasible.
    """
    strat = method_stratification(pool, method)
    plan = round_allocation(method_weights(pool, method, strat), budget, strat.sizes)
    return strat, strat.member_lists(), plan


def run_trials(
    pool: Pool,
    method: MethodSpec,
    budget: int,
    trials: int,
    master_seed: int,
) -> list:
    """T independent risk estimates for one (method, budget) cell.

    Trial t is trial t % BLOCK_TRIALS of block t // BLOCK_TRIALS, drawn
    from streams addressed (master_seed, block, stratum), so the result is
    a pure function of the arguments: re-running, taking a prefix of the
    trials, running the blocks in any order or process, or sharing the
    draws with other cells in ``sweep`` cannot change any estimate.
    """
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    _, members, plan = prepare_method(pool, method, budget)
    [(values, labels)] = estimate_blocks(pool, members, [plan], master_seed, 0, trials)
    return [RiskEstimate(v, used) for v, used in zip(values.tolist(), labels.tolist())]


def mse(estimates, pool_risk: float) -> float:
    """Mean squared error of the estimates against the true pool risk."""
    values = _estimate_values(estimates)
    if values.size == 0:
        raise DataError("need at least one estimate")
    return float(np.mean((values - pool_risk) ** 2))


def relative_mse(method_estimates, uniform_estimates, pool_risk: float) -> float | None:
    """MSE ratio against the uniform baseline on shared trial seeds.

    Returns None when the uniform MSE is zero (census budgets), where the
    ratio is undefined.
    """
    uniform_mse = mse(uniform_estimates, pool_risk)
    if uniform_mse == 0.0:
        return None
    return mse(method_estimates, pool_risk) / uniform_mse


def sem(estimates) -> float:
    """Standard error of the mean estimate (sample std over sqrt T)."""
    values = _estimate_values(estimates)
    if values.size < 2:
        raise DataError("need at least two estimates for a standard error")
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def mse_noise_band(estimates, pool_risk: float) -> float:
    """Monte Carlo standard error of the MSE estimate itself."""
    values = _estimate_values(estimates)
    if values.size < 2:
        raise DataError("need at least two estimates for a noise band")
    squared_errors = (values - pool_risk) ** 2
    return float(np.std(squared_errors, ddof=1) / math.sqrt(values.size))


@dataclass(frozen=True)
class SavingsRecord:
    """Budget needed by a method to match uniform sampling's MSE."""

    m_uniform_ref: float
    matched_m: float | None
    savings_fraction: float | None

    @property
    def resolved(self) -> bool:
        return self.matched_m is not None


def budget_savings(uniform_curve, method_curve, m_ref: float) -> SavingsRecord:
    """Matched-MSE label savings of a method against uniform sampling.

    Both curves are (budget, mse) point lists. The target is the uniform
    curve's MSE at m_ref; the matched budget is the smallest point on the
    method's piecewise-linear curve whose MSE is at or below the target.
    No extrapolation: if the method curve never reaches the target on its
    grid the record is returned unresolved.
    """
    uniform_curve = _checked_curve(uniform_curve)
    method_curve = _checked_curve(method_curve)
    target = _interpolate(uniform_curve, m_ref)
    matched = _first_budget_at_or_below(method_curve, target)
    if matched is None:
        return SavingsRecord(m_uniform_ref=m_ref, matched_m=None, savings_fraction=None)
    return SavingsRecord(
        m_uniform_ref=m_ref,
        matched_m=matched,
        savings_fraction=1.0 - matched / m_ref,
    )


@dataclass(frozen=True)
class ReportRow:
    method: str
    stratification: str | None
    allocation: str | None
    strata: int | None
    h_eff: int | None
    delta: float | None
    budget: int
    trials: int
    seed: int
    mean_estimate: float
    pool_risk: float
    mse: float
    relative_mse: float | None
    sem: float


@dataclass(frozen=True)
class SkippedCell:
    method: str
    budget: int
    reason: str


@dataclass
class ExperimentReport:
    pool_risk: float
    pool_size: int
    trials: int
    master_seed: int
    shared_seeds: bool = True
    rows: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def curve(self, method: str) -> list:
        """(budget, mse) points for one method, ordered by budget."""
        points = [(r.budget, r.mse) for r in self.rows if r.method == method]
        return sorted(points)

    def methods(self) -> list:
        seen = dict.fromkeys(r.method for r in self.rows)
        return list(seen)


def sweep(
    pool: Pool,
    methods,
    budgets,
    trials: int = DEFAULT_TRIALS,
    master_seed: int = 0,
) -> ExperimentReport:
    """Full (method, budget) grid of Monte Carlo cells.

    The uniform baseline is always run (it is the relative-MSE denominator)
    even when absent from the method list. Every row reports a standard
    error, so fewer than two trials are rejected before any cell runs, and
    so are budgets below 1, which no method can spend. A budget above the
    pool size is skipped for every method.
    """
    if trials < 2:
        raise ConfigError(f"need at least two trials for a standard error, got {trials}")
    budgets = sorted(set(int(b) for b in budgets))
    if not budgets:
        raise ConfigError("need at least one budget")
    if budgets[0] < 1:
        raise ConfigError(f"budgets must be positive, got {budgets[0]}")
    methods = list(methods)
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate method names in sweep: {names}")
    if not any(m.allocation is None for m in methods):
        methods.insert(0, MethodSpec.uniform())
    by_name = {m.name: m for m in methods}

    pool_risk = finite_pool_risk(pool, pool.loss_vector())
    # one partition per ``MethodSpec.partition``, shared by every rule and
    # budget, and one set of weights per method, rounded per budget
    partitions = {}
    weights = {}
    for method in methods:
        if method.partition not in partitions:
            partitions[method.partition] = method_stratification(pool, method)
        weights[method.name] = method_weights(pool, method, partitions[method.partition])
    report = ExperimentReport(
        pool_risk=pool_risk,
        pool_size=pool.size,
        trials=trials,
        master_seed=master_seed,
    )

    # every feasible cell's plan first, so that the cells of a partition
    # can share their draws; the one-stratum uniform plan is feasible for
    # every budget in [1, N], which holds every other plan's feasible range,
    # so each budget that has a cell has its uniform cell
    plans = {}
    for budget in budgets:
        for method in methods:
            try:
                plans[method.name, budget] = round_allocation(
                    weights[method.name], budget, partitions[method.partition].sizes
                )
            except ConfigError as exc:
                report.skipped.append(
                    SkippedCell(method=method.name, budget=budget, reason=str(exc))
                )

    values = {}
    for key, strat in partitions.items():
        cells = [cell for cell in plans if by_name[cell[0]].partition == key]
        if not cells:
            continue
        results = estimate_blocks(
            pool, strat.member_lists(), [plans[c] for c in cells], master_seed, 0, trials
        )
        for cell, (cell_values, _) in zip(cells, results):
            values[cell] = cell_values

    uniform_name = next(m.name for m in methods if m.allocation is None)
    for name, budget in plans:
        method = by_name[name]
        report.rows.append(
            _make_row(
                method, partitions[method.partition].h_eff, budget, trials, master_seed,
                values[name, budget], values[uniform_name, budget], pool_risk,
            )
        )
    return report


def _make_row(
    method, h_eff, budget, trials, master_seed, values, uniform_values, pool_risk
) -> ReportRow:
    if method.allocation is None:
        strat_tag = allocation = strata = delta = h_eff = None
    else:
        strat_tag = method.stratification
        allocation = method.allocation
        strata = method.strata
        delta = method.delta if method.allocation == "proxy_neyman" else None
    return ReportRow(
        method=method.name,
        stratification=strat_tag,
        allocation=allocation,
        strata=strata,
        h_eff=h_eff,
        delta=delta,
        budget=budget,
        trials=trials,
        seed=master_seed,
        mean_estimate=float(np.mean(values)),
        pool_risk=pool_risk,
        mse=mse(values, pool_risk),
        relative_mse=relative_mse(values, uniform_values, pool_risk),
        sem=sem(values),
    )


def _estimate_values(estimates) -> np.ndarray:
    if isinstance(estimates, np.ndarray):
        return estimates.astype(float, copy=False)
    return np.asarray(
        [e.value if isinstance(e, RiskEstimate) else float(e) for e in estimates],
        dtype=float,
    )


def _checked_curve(curve) -> list:
    points = sorted((float(m), float(v)) for m, v in curve)
    if not points:
        raise DataError("curve has no points")
    budgets = [m for m, _ in points]
    if len(set(budgets)) != len(budgets):
        raise DataError("curve has duplicate budget points")
    return points


def _interpolate(curve, budget: float) -> float:
    budgets = [m for m, _ in curve]
    if not budgets[0] <= budget <= budgets[-1]:
        raise ConfigError(
            f"reference budget {budget} outside the curve grid "
            f"[{budgets[0]}, {budgets[-1]}]"
        )
    values = [v for _, v in curve]
    return float(np.interp(budget, budgets, values))


def _first_budget_at_or_below(curve, target: float) -> float | None:
    """Smallest budget where the piecewise-linear curve reaches the target."""
    if curve[0][1] <= target:
        return curve[0][0]
    for (m0, v0), (m1, v1) in zip(curve, curve[1:]):
        if v1 <= target:
            if v0 == v1:
                return m1
            # linear crossing inside the segment
            return m0 + (m1 - m0) * (v0 - target) / (v0 - v1)
    return None
