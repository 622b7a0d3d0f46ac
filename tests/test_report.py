import csv
import dataclasses
import io
import json

import pytest

from active_eval import MethodSpec, SynthConfig, make_pool, sweep
from active_eval.errors import DataError
from active_eval.harness import SkippedCell
from active_eval.report import (
    csv_text,
    load_json,
    plot_data,
    report_from_json_obj,
    report_to_json_obj,
    write_json,
)


@pytest.fixture(scope="module")
def report():
    pool = make_pool(SynthConfig(size=120, seed=8))
    return sweep(
        pool,
        [MethodSpec.stratified("proxy_neyman"), MethodSpec.stratified("equal")],
        budgets=[15, 120],  # census budget exercises the None relative_mse
        trials=30,
        master_seed=4,
    )


def test_json_round_trip_is_lossless(report, tmp_path):
    path = tmp_path / "report.json"
    write_json(report, path)
    loaded = load_json(path)
    assert loaded.rows == report.rows
    assert loaded.skipped == report.skipped
    assert loaded.pool_risk == report.pool_risk
    assert loaded.pool_size == report.pool_size
    assert loaded.trials == report.trials
    assert loaded.master_seed == report.master_seed
    assert loaded.shared_seeds == report.shared_seeds


def test_write_json_equals_json_dumps_of_the_asdict_form(report, tmp_path):
    report = dataclasses.replace(
        report, skipped=[SkippedCell(method="power", budget=7, reason="budget \u2264 H")]
    )
    path = tmp_path / "report.json"
    write_json(report, path)
    expected = {
        "pool_risk": report.pool_risk,
        "pool_size": report.pool_size,
        "trials": report.trials,
        "master_seed": report.master_seed,
        "shared_seeds": report.shared_seeds,
        "rows": [dataclasses.asdict(row) for row in report.rows],
        "skipped": [dataclasses.asdict(cell) for cell in report.skipped],
    }
    assert path.read_bytes() == (json.dumps(expected, indent=2) + "\n").encode("utf-8")


def test_json_obj_round_trip_survives_serialization(report):
    text = json.dumps(report_to_json_obj(report))
    assert report_from_json_obj(json.loads(text)).rows == report.rows


def test_census_rows_have_undefined_relative_mse(report):
    census_rows = [r for r in report.rows if r.budget == 120]
    assert census_rows
    assert all(r.relative_mse is None for r in census_rows)


def test_csv_rendering(report):
    text = csv_text(report)
    assert text.splitlines()[0] == (
        "method,stratification,allocation,strata,h_eff,delta,budget,trials,seed,"
        "mean_estimate,pool_risk,mse,relative_mse,sem"
    )
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    assert len(rows) == len(report.rows)
    uniform = next(r for r in rows if r["method"] == "uniform" and r["budget"] == "15")
    assert uniform["relative_mse"] == "1.0"
    assert uniform["stratification"] == ""  # None renders empty
    census = next(r for r in rows if r["budget"] == "120")
    assert census["relative_mse"] == ""


def test_plot_data_curves(report):
    curves = plot_data(report)
    assert set(curves) == {"uniform", "proxy_neyman", "equal"}
    budgets = [point["budget"] for point in curves["proxy_neyman"]]
    assert budgets == sorted(budgets)
    assert {"budget", "mse", "relative_mse", "sem"} == set(curves["uniform"][0])


def test_malformed_report_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        load_json(path)
    with pytest.raises(DataError):
        report_from_json_obj({"rows": []})
