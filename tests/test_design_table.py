"""The design's exact quality on the reference pool.

For the six acceptance methods at M = 50/100/200, the per-stratum sample
sizes m_h come from ``prepare_method`` and are pinned exactly; the exact
variance V of the stratified estimator is computed by the test's own
formula (``_design_variance``), never by the package, and V / V_uniform is
pinned to rtol 1e-12. A change to stratification, weights or rounding that
moves any plan or ratio fails here, without Monte Carlo noise.
"""
import pytest

from active_eval import reference_pool
from active_eval.harness import prepare_method
from test_harness import _design_variance, canonical_methods

# method -> budget -> (m_h per stratum, V / V_uniform)
DESIGN_TABLE = {
    "uniform": {
        50: ([50], 1.0),
        100: ([100], 1.0),
        200: ([200], 1.0),
    },
    "proxy_neyman": {
        50: ([26, 6, 7, 6, 5], 0.6141056660999877),
        100: ([52, 13, 14, 12, 9], 0.6154309839630739),
        200: ([104, 25, 28, 24, 19], 0.6073551803138818),
    },
    "equal": {
        50: ([10, 10, 10, 10, 10], 0.5416331277936454),
        100: ([20, 20, 20, 20, 20], 0.5377353136886373),
        200: ([40, 40, 40, 40, 40], 0.5295220625387993),
    },
    "proportional": {
        50: ([32, 5, 5, 4, 4], 0.7842414932832272),
        100: ([63, 11, 11, 8, 7], 0.7747514875976056),
        200: ([126, 21, 22, 17, 14], 0.7685357114340755),
    },
    "power": {
        50: ([20, 8, 8, 7, 7], 0.5351885139289556),
        100: ([40, 16, 16, 15, 13], 0.5296621374163692),
        200: ([79, 33, 33, 29, 26], 0.5197116258642098),
    },
    "oracle_neyman": {
        50: ([15, 8, 10, 9, 8], 0.5091263963136358),
        100: ([30, 17, 20, 18, 15], 0.5042075467563497),
        200: ([59, 34, 40, 36, 31], 0.4947510083437109),
    },
}


@pytest.mark.parametrize("budget", [50, 100, 200])
def test_reference_design_table_is_pinned(budget):
    pool = reference_pool()
    losses = pool.loss_vector()
    methods = canonical_methods()
    assert sorted(m.name for m in methods) == sorted(DESIGN_TABLE)
    variance = {}
    for method in methods:
        _, members, plan = prepare_method(pool, method, budget)
        expected_m, _ = DESIGN_TABLE[method.name][budget]
        assert plan.m.tolist() == expected_m, (method.name, budget)
        variance[method.name] = _design_variance(losses, members, plan.m)
    for name, v in variance.items():
        _, expected_ratio = DESIGN_TABLE[name][budget]
        assert v / variance["uniform"] == pytest.approx(expected_ratio, rel=1e-12, abs=0), (
            name, budget,
        )
