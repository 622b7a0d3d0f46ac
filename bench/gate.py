"""Exact-oracle correctness gate for Monte Carlo sweep cells.

For a stratified design with strata of sizes N_h, m_h labels drawn without
replacement in stratum h and W_h = N_h / N, the estimator
R_hat = sum_h W_h * mean(S_h) is unbiased for the pool risk R, and its
design variance is

    V = sum_h W_h^2 (1 - m_h / N_h) S_h^2 / m_h      (Cochran 1977, 5.3)

with S_h^2 the stratum loss variance on N_h - 1 degrees of freedom; the
uniform baseline is the one-stratum case. The gate also needs the fourth
central moment of R_hat, which sets the Monte Carlo standard error of an
MSE averaged over T trials: sqrt((E[(R_hat - R)^4] - V^2) / T). Strata are
independent, so fourth cumulants add. Both moments depend only on the
design, never on individual draws, so a change to the random-stream layout
passes while a sampler with the wrong inclusion probabilities fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

import active_eval as ae
from active_eval.allocate import ALLOCATION_RULES


def srswor_mean_moments(y: np.ndarray, m: int) -> tuple:
    """Variance and fourth central moment of the mean of a size-m simple
    random sample without replacement from the finite population y."""
    n_pop = len(y)
    if m >= n_pop:
        return 0.0, 0.0
    dev = y - y.mean()
    if n_pop < 4:  # the closed form divides by N - 3; enumerate instead
        means = np.array(
            [y[list(c)].mean() for c in itertools.combinations(range(n_pop), m)]
        ) - y.mean()
        return float(np.mean(means**2)), float(np.mean(means**4))
    mu2 = float(np.mean(dev**2))
    mu4 = float(np.mean(dev**4))
    var = (n_pop - m) / (m * (n_pop - 1)) * mu2
    fourth = (n_pop - m) / ((n_pop - 1) * (n_pop - 2) * (n_pop - 3) * m**3) * (
        (n_pop**2 - 6 * n_pop * m + n_pop + 6 * m * m) * mu4
        + 3 * n_pop * (m - 1) * (n_pop - m - 1) * mu2 * mu2
    )
    return var, fourth


@dataclass(frozen=True)
class CellTruth:
    """Exact design moments of one (method, budget) cell."""

    risk: float
    variance: float
    fourth: float  # E[(R_hat - R)^4]
    plan: tuple  # m_h per stratum


def design_truth(losses: np.ndarray, member_lists, m) -> CellTruth:
    n_pop = len(losses)
    variance = 0.0
    cumulant4 = 0.0
    for members, m_h in zip(member_lists, m):
        w = len(members) / n_pop
        var_h, fourth_h = srswor_mean_moments(losses[members], int(m_h))
        variance += w * w * var_h
        cumulant4 += w**4 * (fourth_h - 3 * var_h * var_h)
    return CellTruth(
        risk=math.fsum(losses) / n_pop,
        variance=variance,
        fourth=cumulant4 + 3 * variance * variance,
        plan=tuple(int(v) for v in m),
    )


def cell_truth(pool, method, budget: int) -> CellTruth:
    """Exact moments for a MethodSpec at a budget, from public functions only."""
    losses = np.asarray(pool.loss_vector(), dtype=float)
    if method.allocation is None:
        return design_truth(losses, [np.arange(pool.size)], [budget])
    strat = ae.stratify(pool.se_values, method.strata, method.stratification)
    if method.allocation == "proxy_neyman":
        p = ae.stratum_mean_sc(strat, pool.sc_values)
        weights = ae.proxy_neyman_weights(strat.sizes, p, method.delta)
    elif method.allocation == "oracle_neyman":
        weights = ae.oracle_neyman_weights(strat, losses)
    else:
        weights = ae.baseline_weights(method.allocation, strat.sizes)
    plan = ae.round_allocation(weights, budget, strat.sizes)
    return design_truth(losses, strat.member_lists(), plan.m)


def canonical_methods() -> list:
    """Uniform plus every allocation rule under the default stratification."""
    return [ae.MethodSpec.uniform()] + [ae.MethodSpec.stratified(r) for r in ALLOCATION_RULES]


class CellGate:
    """Pools every operation's report rows per cell and judges them at the end.

    Each operation runs T trials per cell on its own master seed, so the
    pooled MSE and mean are averages over T * operations independent trials.
    """

    def __init__(self, truths: dict, z: float, rtol: float):
        self.truths = truths  # (method, budget) -> CellTruth
        self.z = z
        self.rtol = rtol
        self.seen: dict = {key: [] for key in truths}

    def add_report(self, rows, skipped, trials: int, tally, label: str):
        """Record one operation's rows; per-row identities are checked here."""
        for cell in skipped:
            tally.check(False, f"{label}: cell {cell} skipped")
        uniform_mse = {r["budget"]: r["mse"] for r in rows if r["allocation"] is None}
        got = set()
        for row in rows:
            key = (row["method"], row["budget"])
            truth = self.truths.get(key)
            ok = truth is not None and row["trials"] == trials
            if ok:
                ok = math.isclose(row["pool_risk"], truth.risk, rel_tol=self.rtol)
                base = uniform_mse.get(row["budget"])
                if base:
                    ok = ok and row["relative_mse"] is not None and math.isclose(
                        row["relative_mse"], row["mse"] / base, rel_tol=self.rtol
                    )
                else:
                    ok = ok and row["relative_mse"] is None
            tally.check(ok, f"{label}: row {key} has wrong identities")
            if ok:
                got.add(key)
                self.seen[key].append((row["mse"], row["mean_estimate"], trials))
        for key in self.truths.keys() - got - set(skipped):
            tally.check(False, f"{label}: cell {key} missing from the report")

    def judge(self, tally):
        """The pooled exact-variance and unbiasedness tests, one per cell."""
        for key, truth in sorted(self.truths.items()):
            runs = self.seen[key]
            if not runs:
                tally.check(False, f"cell {key}: no completed runs to judge")
                continue
            total = sum(t for _, _, t in runs)
            mse_bar = sum(m * t for m, _, t in runs) / total
            mean_bar = sum(e * t for _, e, t in runs) / total
            se_mse = math.sqrt(max(truth.fourth - truth.variance**2, 0.0) / total)
            se_mean = math.sqrt(truth.variance / total)
            z_mse = _z(mse_bar - truth.variance, se_mse)
            z_mean = _z(mean_bar - truth.risk, se_mean)
            tally.check(
                abs(z_mse) <= self.z,
                f"cell {key}: MC MSE {mse_bar:.6g} vs exact {truth.variance:.6g} "
                f"(z={z_mse:.2f}, T={total})",
            )
            tally.check(
                abs(z_mean) <= self.z,
                f"cell {key}: mean estimate {mean_bar:.6g} vs risk {truth.risk:.6g} "
                f"(z={z_mean:.2f}, T={total})",
            )


def _z(diff: float, se: float) -> float:
    if se > 0:
        return diff / se
    # zero-variance design: every estimate must equal the risk exactly
    return 0.0 if abs(diff) <= 1e-12 else math.inf
