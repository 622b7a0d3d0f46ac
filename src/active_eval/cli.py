"""Command-line interface.

Subcommands: ``synth`` (emit a synthetic pool), ``signals`` (per-instance
entropy and self-consistency), ``stratify``, ``allocate``, ``estimate``
(one real estimation run that spends a budget), ``run`` (Monte Carlo
sweep) and ``report`` (render a saved sweep as CSV/JSON/plot data or a
matched-precision budget-savings summary).

Exit codes: 0 success, 2 configuration error, 3 input-data error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import report as report_io
from .allocate import ALLOCATION_RULES, DEFAULT_DELTA
from .errors import ConfigError, DataError
from .harness import (
    DEFAULT_STRATA,
    DEFAULT_TRIALS,
    METHOD_TAGS,
    MethodSpec,
    budget_savings,
    prepare_method,
    run_trials,
    sweep,
)
from .ingest import PARSER_KINDS, ParserSpec, export_pool, load_pool
from .stratify import STRATIFIERS, stratify, stratum_mean_sc
from .synth import SynthConfig, make_pool, reference_pool

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared, so callers
    must not change it.

    ``main`` parses with it on every call, so a process that calls ``main``
    once per command line builds every subcommand's parser only once.
    """
    parser = argparse.ArgumentParser(
        prog="active-eval",
        description="Label-efficient benchmark risk estimation via "
        "semantic-entropy stratified sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic pool file")
    p.add_argument("--out", required=True, help="output pool JSONL path")
    p.add_argument("--reference", action="store_true",
                   help="emit the canonical reference pool")
    p.add_argument("--size", type=int, default=3000)
    p.add_argument("--gens", type=int, default=10, help="generations per instance")
    p.add_argument("--options", type=int, default=4, help="answer option count")
    p.add_argument("--alpha", type=float, default=1.0, help="difficulty Beta alpha")
    p.add_argument("--beta", type=float, default=3.0, help="difficulty Beta beta")
    p.add_argument("--link", type=float, default=0.9,
                   help="coupling of target error to difficulty")
    p.add_argument("--zero-boost", type=float, default=0.5,
                   help="probability mass forced to difficulty zero")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("signals", help="per-instance SE and SC values")
    _pool_options(p)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(handler=cmd_signals)

    p = sub.add_parser("stratify", help="stratum table for a pool")
    _pool_options(p)
    _strat_options(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(handler=cmd_stratify)

    p = sub.add_parser("allocate", help="label counts per stratum for a budget")
    _pool_options(p)
    _strat_options(p)
    _alloc_options(p)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(handler=cmd_allocate)

    p = sub.add_parser("estimate", help="one estimation run against a budget")
    _pool_options(p)
    _strat_options(p)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=METHOD_TAGS, default="proxy_neyman")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("run", help="Monte Carlo sweep over methods and budgets")
    _pool_options(p)
    _strat_options(p)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--budgets", required=True,
                   help="comma-separated budgets, e.g. 50,100,200")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", default="uniform,proportional,proxy_neyman,oracle_neyman",
                   help=f"comma-separated subset of {','.join(METHOD_TAGS)}")
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="only 1: trials run serially; kept because the benchmark's "
                   "mc_ref workload (bench/workloads.py) passes --workers 1")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("report", help="render a saved sweep report")
    p.add_argument("--report", required=True, help="report JSON produced by run")
    p.add_argument("--format", choices=("csv", "json", "plot", "savings"),
                   default="csv")
    p.add_argument("--method", help="method for --format savings")
    p.add_argument("--m-ref", type=int,
                   help="uniform reference budget for --format savings")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(handler=cmd_report)

    return parser


def _pool_options(p):
    p.add_argument("--pool", required=True, help="pool JSONL path")
    p.add_argument("--parser", choices=PARSER_KINDS,
                   help="parser for raw surrogate_generations")


def _strat_options(p):
    p.add_argument("--strata", type=int, default=DEFAULT_STRATA, metavar="H")
    p.add_argument("--stratify-method", choices=sorted(STRATIFIERS),
                   default="adaptive_se")


def _alloc_options(p):
    p.add_argument("--alloc-rule", choices=ALLOCATION_RULES, default="proxy_neyman")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)


def _load(args, require_loss: bool = True):
    spec = ParserSpec(kind=args.parser) if args.parser else None
    pool, stats = load_pool(args.pool, parser=spec, require_loss=require_loss)
    if stats.parse_failures:
        print(
            f"note: {stats.parse_failures}/{stats.generations} generations "
            f"unparsed ({stats.failure_fraction:.2%})",
            file=sys.stderr,
        )
    return pool


def cmd_synth(args) -> int:
    if args.reference:
        pool = reference_pool()
    else:
        config = SynthConfig(
            size=args.size,
            generations=args.gens,
            options=args.options,
            difficulty_alpha=args.alpha,
            difficulty_beta=args.beta,
            target_link=args.link,
            zero_se_boost=args.zero_boost,
            seed=args.seed,
        )
        pool = make_pool(config)
    export_pool(pool, args.out)
    print(f"wrote {pool.size} instances (k={pool.k}) to {args.out}")
    return EXIT_OK


def cmd_signals(args) -> int:
    pool = _load(args, require_loss=False)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("id", "se", "sc"))
    writer.writerows(
        (id, f"{se:.6f}", f"{sc:.6f}")
        for id, se, sc in zip(pool.ids, pool.se_values.tolist(), pool.sc_values.tolist())
    )
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_stratify(args) -> int:
    pool = _load(args, require_loss=False)
    strat = stratify(pool.se_levels, args.strata, args.stratify_method)
    mean_sc = stratum_mean_sc(strat, pool.sc_values)
    table = {
        "method": strat.method,
        "requested_strata": args.strata,
        "h_eff": strat.h_eff,
        "strata": [
            {
                "stratum": h,
                "size": int(strat.sizes[h]),
                "se_min": float(pool.se_values[strat.members(h)].min()),
                "se_max": float(pool.se_values[strat.members(h)].max()),
                "mean_sc": float(mean_sc[h]),
            }
            for h in range(strat.h_eff)
        ],
    }
    _emit(json.dumps(table, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_allocate(args) -> int:
    pool = _load(args, require_loss=args.alloc_rule == "oracle_neyman")
    method = MethodSpec.stratified(
        args.alloc_rule,
        stratification=args.stratify_method,
        strata=args.strata,
        delta=args.delta,
    )
    strat, _, plan = prepare_method(pool, method, args.budget)
    table = {
        "rule": plan.rule,
        "budget": plan.budget,
        "delta": plan.delta,
        "h_eff": strat.h_eff,
        "m": [int(v) for v in plan.m],
        "sizes": [int(v) for v in strat.sizes],
    }
    _emit(json.dumps(table, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    pool = _load(args)
    method = MethodSpec.from_tag(
        args.method, stratification=args.stratify_method, strata=args.strata, delta=args.delta
    )
    [estimate] = run_trials(pool, method, args.budget, 1, args.seed)
    print(f"risk_estimate={estimate.value:.6f} labels_used={estimate.labels_used}")
    return EXIT_OK


def cmd_run(args) -> int:
    pool = _load(args)
    budgets = _parse_int_list(args.budgets, "budgets")
    methods = [
        MethodSpec.from_tag(
            tag, stratification=args.stratify_method, strata=args.strata, delta=args.delta
        )
        for tag in _parse_list(args.methods, "methods")
    ]
    result = sweep(pool, methods, budgets, trials=args.trials, master_seed=args.seed)
    report_io.write_json(result, args.out)
    print(
        f"pool_risk={result.pool_risk:.6f} cells={len(result.rows)} "
        f"skipped={len(result.skipped)} -> {args.out}"
    )
    for cell in result.skipped:
        print(f"skipped {cell.method} at M={cell.budget}: {cell.reason}",
              file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    result = report_io.load_json(args.report)
    if args.format == "csv":
        text = report_io.csv_text(result)
    elif args.format == "json":
        text = json.dumps(report_io.report_to_json_obj(result), indent=2) + "\n"
    elif args.format == "savings":
        text = _savings_text(result, args)
    else:
        text = json.dumps(report_io.plot_data(result), indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _savings_text(result, args) -> str:
    if not args.method or args.m_ref is None:
        raise ConfigError("--format savings needs --method and --m-ref")
    uniform_curve = result.curve("uniform")
    method_curve = result.curve(args.method)
    if not uniform_curve or not method_curve:
        raise DataError(
            f"report has no curve for {'uniform' if not uniform_curve else args.method}"
        )
    record = budget_savings(uniform_curve, method_curve, args.m_ref)
    payload = {
        "method": args.method,
        "m_uniform_ref": record.m_uniform_ref,
        "matched_m": record.matched_m,
        "savings_fraction": record.savings_fraction,
        "resolved": record.resolved,
    }
    return json.dumps(payload, indent=2) + "\n"


def _parse_list(text: str, name: str) -> list:
    """The non-blank comma-separated parts of ``text``, stripped; an empty
    list is a ConfigError."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ConfigError(f"--{name} is empty")
    return parts


def _parse_int_list(text: str, name: str) -> list:
    try:
        values = [int(part) for part in _parse_list(text, name)]
    except ValueError:
        raise ConfigError(f"--{name} must be a comma-separated integer list") from None
    if min(values) < 1:
        raise ConfigError(f"--{name} must be positive, got {min(values)}")
    return values


def _emit(text: str, out_path) -> None:
    if out_path:
        # newline="" writes the text as it is: text mode would turn a CSV's
        # \r\n line ends into \r\r\n on Windows
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
