"""Report serialization: CSV and JSON renderings of a sweep, plus the
per-curve point lists used for external figure generation.

The JSON form is the round-trip format; loading it back reproduces the
ExperimentReport losslessly. CSV is a one-way rendering with one row per
(method, budget) cell.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields

from .errors import DataError
from .harness import ExperimentReport, ReportRow, SkippedCell

CSV_COLUMNS = [
    "method",
    "stratification",
    "allocation",
    "strata",
    "h_eff",
    "delta",
    "budget",
    "trials",
    "seed",
    "mean_estimate",
    "pool_risk",
    "mse",
    "relative_mse",
    "sem",
]


def report_to_json_obj(report: ExperimentReport) -> dict:
    return {
        "pool_risk": report.pool_risk,
        "pool_size": report.pool_size,
        "trials": report.trials,
        "master_seed": report.master_seed,
        "shared_seeds": report.shared_seeds,
        "rows": _records(report.rows, ReportRow),
        "skipped": _records(report.skipped, SkippedCell),
    }


def _records(items, cls) -> list:
    """``asdict`` of each flat dataclass item, without its deep copies."""
    names = [f.name for f in fields(cls)]
    return [{name: getattr(item, name) for name in names} for item in items]


def report_from_json_obj(obj: dict) -> ExperimentReport:
    try:
        return ExperimentReport(
            pool_risk=obj["pool_risk"],
            pool_size=obj["pool_size"],
            trials=obj["trials"],
            master_seed=obj["master_seed"],
            shared_seeds=obj["shared_seeds"],
            rows=[ReportRow(**row) for row in obj["rows"]],
            skipped=[SkippedCell(**cell) for cell in obj["skipped"]],
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed report document: {exc}") from exc


def write_json(report: ExperimentReport, path) -> None:
    text = json.dumps(report_to_json_obj(report), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_json(path) -> ExperimentReport:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    return report_from_json_obj(obj)


def csv_text(report: ExperimentReport) -> str:
    """The report's rows as CSV, one line per cell; None renders empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in report.rows:
        writer.writerow({key: _csv_value(getattr(row, key)) for key in CSV_COLUMNS})
    return buf.getvalue()


def plot_data(report: ExperimentReport) -> dict:
    """Per-method curves for external plotting.

    Each method maps to a list of points ordered by budget with the cell's
    mse, relative mse and sem.
    """
    curves: dict = {}
    for row in sorted(report.rows, key=lambda r: (r.method, r.budget)):
        curves.setdefault(row.method, []).append(
            {
                "budget": row.budget,
                "mse": row.mse,
                "relative_mse": row.relative_mse,
                "sem": row.sem,
            }
        )
    return curves


def _csv_value(value):
    if value is None:
        return ""
    return value
