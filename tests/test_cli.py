import csv
import hashlib
import json

import pytest

from active_eval.cli import build_parser, main
from active_eval.report import csv_text, load_json


@pytest.fixture(scope="module")
def pool_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pool.jsonl"
    code = main(["synth", "--out", str(path), "--size", "300", "--seed", "11"])
    assert code == 0
    return path


def test_synth_reference_flag(tmp_path, capsys):
    path = tmp_path / "ref.jsonl"
    assert main(["synth", "--out", str(path), "--reference"]) == 0
    out = capsys.readouterr().out
    assert "3000 instances" in out
    assert path.read_text().count("\n") == 3000


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_synth_non_finite_beta_shape_is_config_error(flag, value, tmp_path, capsys):
    path = tmp_path / "pool.jsonl"
    # "--alpha=-inf", since argparse reads a bare "-inf" as an option
    assert main(["synth", "--out", str(path), "--size", "20", f"{flag}={value}"]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("command", [
    ["estimate", "--budget", "20"],
    ["run", "--budgets", "20", "--trials", "2", "--out"],
], ids=["estimate", "run"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_delta_is_config_error(command, value, pool_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = [*command, str(out)] if command[0] == "run" else command
    # "--delta=-inf", since argparse reads a bare "-inf" as an option
    assert main([*argv, "--pool", str(pool_file), f"--delta={value}"]) == 2
    assert "delta must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_signals_outputs_csv(pool_file, capsys):
    assert main(["signals", "--pool", str(pool_file)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "id,se,sc"
    assert len(lines) == 301


def test_signals_csv_quotes_ids(tmp_path):
    ids = ["a,b", 'say "hi"', "plain"]
    pool = tmp_path / "pool.jsonl"
    pool.write_text("".join(
        json.dumps({"id": id, "surrogate_answers": ["A", "B"]}) + "\n" for id in ids
    ))
    out = tmp_path / "signals.csv"
    assert main(["signals", "--pool", str(pool), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == ["id", *ids]
    assert {len(row) for row in rows} == {3}
    assert out.read_text().splitlines()[3] == f"plain,{rows[3][1]},{rows[3][2]}"


def test_stratify_reports_table(pool_file, capsys):
    assert main(["stratify", "--pool", str(pool_file), "--strata", "5"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["method"] == "adaptive_se"
    assert sum(s["size"] for s in table["strata"]) == 300
    assert table["strata"][0]["mean_sc"] == 1.0  # base stratum


def test_allocate_prints_plan(pool_file, capsys):
    assert main([
        "allocate", "--pool", str(pool_file), "--budget", "30",
        "--alloc-rule", "proxy_neyman",
    ]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert sum(plan["m"]) == 30
    assert plan["rule"] == "proxy_neyman"
    assert all(1 <= m <= n for m, n in zip(plan["m"], plan["sizes"]))


def test_estimate_prints_risk_and_labels(pool_file, capsys):
    assert main([
        "estimate", "--pool", str(pool_file), "--budget", "40", "--seed", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "risk_estimate=" in out and "labels_used=40" in out


def test_estimate_uniform_method(pool_file, capsys):
    assert main([
        "estimate", "--pool", str(pool_file), "--budget", "40",
        "--method", "uniform",
    ]) == 0
    assert "labels_used=40" in capsys.readouterr().out


def test_run_and_report_round_trip(pool_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main([
        "run", "--pool", str(pool_file), "--budgets", "20,40",
        "--trials", "40", "--seed", "5",
        "--methods", "uniform,proxy_neyman", "--out", str(report_path),
    ]) == 0
    assert "cells=4" in capsys.readouterr().out

    assert main(["report", "--report", str(report_path), "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("method,")
    assert "proxy_neyman" in csv_out
    assert csv_out == csv_text(load_json(report_path))
    # --out writes the bytes stdout gets, \r\n line ends included
    written = tmp_path / "report.csv"
    assert main([
        "report", "--report", str(report_path), "--format", "csv", "--out", str(written),
    ]) == 0
    assert written.read_bytes() == csv_out.encode("utf-8")
    assert b"\r\n" in written.read_bytes() and b"\r\r\n" not in written.read_bytes()

    plot_path = tmp_path / "plot.json"
    assert main([
        "report", "--report", str(report_path), "--format", "plot",
        "--out", str(plot_path),
    ]) == 0
    curves = json.loads(plot_path.read_text())
    assert set(curves) == {"uniform", "proxy_neyman"}


# sha256 of the report of `active-eval run` on the reference pool over the
# acceptance grid, at T=200 and seed 0. Every estimate on this pool is an
# exact sum of 0/1 losses, so a change to the sampler, the engine or the
# report writer that keeps each draw's set of instances keeps these bytes.
REFERENCE_RUN_SHA256 = "41e60cfc223fbbeddbff62b4064442f3cbc0262aca1294265197447121685fbe"


def test_reference_run_report_is_pinned(tmp_path, capsys):
    pool, out = tmp_path / "ref.jsonl", tmp_path / "report.json"
    assert main(["synth", "--reference", "--out", str(pool)]) == 0
    assert main([
        "run", "--pool", str(pool), "--budgets", "50,100,200", "--trials", "200",
        "--seed", "0", "--methods", "uniform,proxy_neyman,equal,proportional,power,oracle_neyman",
        "--out", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_RUN_SHA256


def test_report_savings_view(pool_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main([
        "run", "--pool", str(pool_file), "--budgets", "20,40,80",
        "--trials", "120", "--seed", "2",
        "--methods", "uniform,proxy_neyman", "--out", str(report_path),
    ]) == 0
    capsys.readouterr()
    assert main([
        "report", "--report", str(report_path), "--format", "savings",
        "--method", "proxy_neyman", "--m-ref", "80",
    ]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["method"] == "proxy_neyman"
    assert record["m_uniform_ref"] == 80
    if record["resolved"]:
        assert record["matched_m"] <= 80

    assert main([
        "report", "--report", str(report_path), "--format", "savings",
    ]) == 2  # missing --method / --m-ref


def test_run_skips_infeasible_cells(pool_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main([
        "run", "--pool", str(pool_file), "--budgets", "3,30",
        "--trials", "10", "--seed", "1",
        "--methods", "uniform,proxy_neyman", "--out", str(report_path),
    ]) == 0
    err = capsys.readouterr().err
    assert "skipped proxy_neyman at M=3" in err


def test_missing_pool_file_is_data_error(capsys):
    assert main(["signals", "--pool", "/nonexistent/pool.jsonl"]) == 3


def test_infeasible_budget_is_config_error(pool_file, capsys):
    code = main([
        "estimate", "--pool", str(pool_file), "--budget", "2", "--strata", "5",
    ])
    assert code == 2
    assert "below the stratum count" in capsys.readouterr().err


def test_unknown_method_is_config_error(pool_file, tmp_path, capsys):
    code = main([
        "run", "--pool", str(pool_file), "--budgets", "20", "--trials", "5",
        "--methods", "nope", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_run_rejects_a_budget_below_one(pool_file, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code = main([
        "run", "--pool", str(pool_file), "--budgets", "50,-3", "--trials", "5",
        "--methods", "uniform,proxy_neyman", "--out", str(report_path),
    ])
    assert code == 2
    assert "--budgets must be positive, got -3" in capsys.readouterr().err
    assert not report_path.exists()


def test_run_rejects_an_empty_method_list(pool_file, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code = main([
        "run", "--pool", str(pool_file), "--budgets", "20", "--trials", "5",
        "--methods", ",", "--out", str(report_path),
    ])
    assert code == 2
    assert "--methods is empty" in capsys.readouterr().err
    assert not report_path.exists()


def test_run_rejects_one_trial_before_any_cell(pool_file, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code = main([
        "run", "--pool", str(pool_file), "--budgets", "20,40", "--trials", "1",
        "--methods", "uniform,proxy_neyman", "--out", str(report_path),
    ])
    assert code == 2
    assert "need at least two trials" in capsys.readouterr().err
    assert not report_path.exists()


def test_argparse_rejects_unknown_flags(capsys):
    for argv in (["estimate", "--bogus"],
                 ["run", "--pool", "p", "--budgets", "5", "--out", "r", "--workers", "2"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_run_rejects_an_unknown_method_before_any_cell(pool_file, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code = main([
        "run", "--pool", str(pool_file), "--budgets", "20", "--trials", "5",
        "--methods", "uniform,bogus", "--out", str(report_path),
    ])
    assert code == 2
    assert "unknown method 'bogus'; expected a subset of ('uniform', " in capsys.readouterr().err
    assert not report_path.exists()


def test_malformed_pool_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "surrogate_answers": ["A"], "target_loss": 0}\n')
    assert main(["signals", "--pool", str(bad)]) == 3


def test_non_utf8_report_is_data_error(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_bytes(b'{"rows": "\xff"}')
    assert main(["report", "--report", str(bad)]) == 3
    assert "report.json: not valid JSON" in capsys.readouterr().err


# the required arguments of each subcommand
_REQUIRED = {
    "synth": ["--out", "x"],
    "signals": ["--pool", "x"],
    "stratify": ["--pool", "x"],
    "allocate": ["--pool", "x", "--budget", "1"],
    "estimate": ["--pool", "x", "--budget", "1"],
    "run": ["--pool", "x", "--budgets", "1", "--out", "x"],
    "report": ["--report", "x"],
}


def _exit(parse, argv, capsys):
    """What parsing ``argv`` prints and exits with."""
    with pytest.raises(SystemExit) as info:
        parse(argv)
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


def test_cached_parser_prints_what_a_fresh_parser_prints(capsys):
    # main parses with one parser per process: its help and errors must not
    # change by a byte from one call to the next, nor from a fresh parser's
    fresh = build_parser.__wrapped__().parse_args
    for name, required in _REQUIRED.items():
        for argv in ([name, "--help"], [name], [name, *required, "stray"]):
            expected = _exit(fresh, argv, capsys)
            assert expected[0] in (0, 2) and expected[1] + expected[2]
            assert _exit(main, argv, capsys) == expected, argv
            assert _exit(main, argv, capsys) == expected, argv
    for argv in (["--help"], ["bogus"], [], ["--bogus", "run"]):
        assert _exit(main, argv, capsys) == _exit(fresh, argv, capsys), argv
    assert "{" + ",".join(_REQUIRED) + "}" in _exit(main, ["--help"], capsys)[1]
    assert build_parser() is build_parser()
