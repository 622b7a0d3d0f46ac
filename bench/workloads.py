"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``), precomputes its oracles in ``prepare``, and then repeats one
operation. ``op`` is the only timed call; ``check_op`` verifies its output
outside the timed region and returns the number of items it completed.

* mc_ref   - ``active-eval run`` in process on the frozen reference pool
  (N=3000, H=5): six methods x M=50/100/200. The per-trial engine does the
  work, so engine and harness changes show here.
* mc_large - ``sweep`` on a synthetic N=100k pool: uniform, proxy-Neyman
  under each stratifier and oracle-Neyman at 1% and 5% of N. Per-trial
  cost is O(N) today (whole-stratum permutations, an N-sized oracle mask),
  so O(m) draws and stratify-once show here and barely on mc_ref.
* real_run - one real estimate from a raw-text pool file (N=50k, k=10):
  parse-load, export, canonical re-load, four stratifiers, five rules, one
  draw and estimate per rule. Ingest, signals and pool construction work.
* collect  - ``build_pool`` against a loopback mock endpoint in a child
  process, a fresh call over part of the inputs then a resuming call over
  all of them. The only workload that runs ``genclient``.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import requests

import active_eval as ae
import active_eval.cli
import active_eval.report  # noqa: F401  (imported so the tracer can wrap it)
from active_eval.allocate import ALLOCATION_RULES
from active_eval.stratify import STRATIFIERS
from active_eval.synth import REFERENCE_CONFIG

import gate
import inputs
import mockserver

HERE = Path(__file__).resolve().parent


class Tally:
    """Operations attempted and failed; the first few failures are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def op_seed(seed: int, index: int) -> int:
    """Master seed of one operation: distinct operations draw independent trials."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Workload:
    def __init__(self, params: dict, gate_params: dict, seed: int, workdir: Path):
        self.params = params
        self.gate_params = gate_params
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def prepare(self, tally: Tally):
        pass

    def op(self, index: int):
        raise NotImplementedError

    def check_op(self, index: int, result, tally: Tally) -> int:
        raise NotImplementedError

    def finish(self, tally: Tally):
        pass

    def layer_extra(self, indices) -> dict:
        """Per-layer metrics the workload measures itself, over the given ops."""
        return {
            "genclient.requests_per_input": 0.0,
            "genclient.connections_per_request": 0.0,
            "genclient.retries": 0.0,
        }

    def close(self):
        """Stop what set-up started; called before a repeated set-up and at the end."""


class _MonteCarlo(Workload):
    """Shared gate handling for the two sweep workloads."""

    def methods(self) -> list:
        raise NotImplementedError

    def gate_pool(self):
        raise NotImplementedError

    def prepare(self, tally):
        pool = self.gate_pool()
        budgets = self.params["budgets"]
        truths = {
            (m.name, b): gate.cell_truth(pool, m, b)
            for m in self.methods()
            for b in budgets
        }
        self.gate = gate.CellGate(
            truths, self.gate_params["z"], self.gate_params["identity_rtol"]
        )
        # determinism and label accounting, through the library entry point
        trials = self.gate_params["side_check_trials"]
        for method in self.methods():
            for budget in budgets:
                first = ae.run_trials(pool, method, budget, trials, self.seed)
                again = ae.run_trials(pool, method, budget, trials, self.seed)
                tally.check(
                    [e.value for e in first] == [e.value for e in again],
                    f"{method.name} M={budget}: re-run is not bit-identical",
                )
                tally.check(
                    all(e.labels_used == budget for e in first),
                    f"{method.name} M={budget}: labels_used differs from the budget",
                )

    def finish(self, tally):
        self.gate.judge(tally)


class McRef(_MonteCarlo):
    def setup(self):
        self.pool_path = self.workdir / "reference.jsonl"
        ae.export_pool(ae.make_pool(REFERENCE_CONFIG), self.pool_path)

    def methods(self):
        return gate.canonical_methods()

    def gate_pool(self):
        # the gate reads the same file the CLI reads
        return ae.load_pool(self.pool_path)[0]

    def op(self, index):
        out = self.workdir / f"report-{index}.json"
        argv = [
            "run", "--pool", str(self.pool_path),
            "--budgets", ",".join(map(str, self.params["budgets"])),
            "--trials", str(self.params["trials"]),
            "--seed", str(op_seed(self.seed, index)),
            "--methods", ",".join(m.name for m in self.methods()),
            "--workers", "1",
            "--out", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = active_eval.cli.main(argv)
        return code, out

    def check_op(self, index, result, tally):
        code, out = result
        if not tally.check(code == 0, f"op {index}: active-eval run exited {code}"):
            return 0
        report = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        skipped = [(c["method"], c["budget"]) for c in report["skipped"]]
        trials = self.params["trials"]
        self.gate.add_report(report["rows"], skipped, trials, tally, f"op {index}")
        return len(report["rows"]) * trials


class McLarge(_MonteCarlo):
    def setup(self):
        self.pool = None  # release the previous repeat's pool first
        self.pool = ae.make_pool(ae.SynthConfig(size=self.params["size"], seed=self.seed))

    def methods(self):
        methods = [ae.MethodSpec.uniform()]
        for scheme in self.params["stratifiers"]:
            methods.append(ae.MethodSpec.stratified(
                "proxy_neyman", stratification=scheme, name=f"proxy_neyman/{scheme}"
            ))
        methods.append(ae.MethodSpec.stratified("oracle_neyman"))
        return methods

    def gate_pool(self):
        return self.pool

    def op(self, index):
        return ae.sweep(
            self.pool, self.methods(), self.params["budgets"],
            trials=self.params["trials"], master_seed=op_seed(self.seed, index),
        )

    def check_op(self, index, report, tally):
        rows = [dataclasses.asdict(r) for r in report.rows]
        skipped = [(c.method, c.budget) for c in report.skipped]
        trials = self.params["trials"]
        self.gate.add_report(rows, skipped, trials, tally, f"op {index}")
        return len(rows) * trials


class RealRun(Workload):
    def setup(self):
        self.raw_path = self.workdir / "raw_pool.jsonl"
        self.canonical_path = self.workdir / "canonical_pool.jsonl"
        self.truth = None
        pool = ae.make_pool(ae.SynthConfig(size=self.params["size"], seed=self.seed))
        self.truth = inputs.write_raw_pool(
            pool, self.raw_path, self.seed, self.params["unparsed_share"],
            ae.UNPARSED_LABEL,
        )

    def op(self, index):
        strata = self.params["strata"]
        budget = self.params["budget"]
        raw, stats = ae.load_pool(self.raw_path, parser=ae.ParserSpec(kind="mc_letter"))
        ae.export_pool(raw, self.canonical_path)
        pool, _ = ae.load_pool(self.canonical_path)
        losses = pool.loss_vector()
        schemes = {}
        for scheme in sorted(STRATIFIERS):
            strat = ae.stratify(pool.se_values, strata, scheme)
            schemes[scheme] = (strat, ae.stratum_mean_sc(strat, pool.sc_values))
        strat, mean_sc = schemes["adaptive_se"]
        members = strat.member_lists()
        estimates = {}
        for rule in ALLOCATION_RULES:
            weights = _rule_weights(rule, strat, mean_sc, losses)
            plan = ae.round_allocation(weights, budget, strat.sizes)
            draw = ae.draw_stratified(members, plan, op_seed(self.seed, index), 0)
            estimates[rule] = ae.ht_estimate(draw, plan, strat.sizes, pool.oracle())
        return raw, stats, pool, schemes, estimates

    def check_op(self, index, result, tally):
        raw, stats, pool, schemes, estimates = result
        truth = self.truth
        n = self.params["size"]
        label = f"op {index}"
        tally.check(stats.records == n, f"{label}: loaded {stats.records} of {n} records")
        tally.check(
            stats.parse_failures == truth.unparsed,
            f"{label}: ingest reports {stats.parse_failures} unparsed generations, "
            f"{truth.unparsed} were injected",
        )
        tally.check(
            [inst.surrogate_answers for inst in raw.instances] == truth.answers,
            f"{label}: parsed answers differ from the generated ones",
        )
        tally.check(
            np.array_equal(raw.loss_vector(), truth.losses)
            and np.array_equal(pool.loss_vector(), truth.losses),
            f"{label}: exact-match losses differ from the generated ones",
        )
        tally.check(
            np.array_equal(raw.se_values, pool.se_values)
            and np.array_equal(raw.sc_values, pool.sc_values),
            f"{label}: canonical re-load changed the SE/SC vectors",
        )
        for scheme, (strat, _) in schemes.items():
            tally.check(
                int(strat.sizes.sum()) == n and strat.h_eff >= 2,
                f"{label}: {scheme} strata do not partition the pool",
            )
        for rule, estimate in estimates.items():
            tally.check(
                estimate.labels_used == self.params["budget"]
                and 0.0 <= estimate.value <= 1.0,
                f"{label}: {rule} estimate {estimate} is out of range",
            )
        self.last = pool, schemes["adaptive_se"][0]
        return stats.records

    def finish(self, tally):
        # a census budget returns the exact pool risk
        pool, strat = self.last
        weights = ae.baseline_weights("proportional", strat.sizes)
        plan = ae.round_allocation(weights, pool.size, strat.sizes)
        draw = ae.draw_stratified(strat.member_lists(), plan, self.seed, 0)
        census = ae.ht_estimate(draw, plan, strat.sizes, pool.oracle())
        risk = math.fsum(self.truth.losses) / len(self.truth.losses)
        tally.check(
            census.value == risk == ae.finite_pool_risk(pool, pool.loss_vector())
            and census.labels_used == pool.size,
            f"census estimate {census.value!r} differs from the pool risk {risk!r}",
        )


def _rule_weights(rule, strat, mean_sc, losses):
    if rule == "proxy_neyman":
        return ae.proxy_neyman_weights(strat.sizes, mean_sc)
    if rule == "oracle_neyman":
        return ae.oracle_neyman_weights(strat, losses)
    return ae.baseline_weights(rule, strat.sizes)


class Collect(Workload):
    def setup(self):
        # the endpoint is loopback-only; keep any proxy settings away from it
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
        # Client and endpoint share one CPU (the endpoint inherits the
        # affinity). Across two vCPUs the request ping-pong made run-to-run
        # throughput vary by over 30%; on one it varies by a few percent.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "mockserver.py"),
             "--seed", str(self.seed), "--error-share", str(self.params["error_share"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError(f"mock endpoint failed to start: {line!r}")
        self.base_url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.endpoint = ae.EndpointConfig(
            base_url=self.base_url + "/v1",
            model="mock-surrogate",
            timeout=30.0,
            max_retries=self.params["max_retries"],
            retry_backoff=self.params["retry_backoff_s"],
            concurrency=self.params["concurrency"],
        )
        self.decoding = ae.DecodingConfig(generations=self.params["generations"])

    def prepare(self, tally):
        self.op_stats = {}
        self.last_counts = self._server_counts()

    def _server_counts(self) -> collections.Counter:
        response = requests.get(self.base_url + "/stats", timeout=10)
        response.raise_for_status()
        return collections.Counter(response.json())

    def op(self, index):
        items = inputs.collect_inputs(index, self.params["inputs"])
        first_count = int(len(items) * self.params["first_call_share"])
        out = self.workdir / f"collect-{index}.jsonl"
        first = ae.build_pool(self.endpoint, items[:first_count], self.decoding, out)
        second = ae.build_pool(self.endpoint, items, self.decoding, out)
        return items, out, first_count, first, second

    def check_op(self, index, result, tally):
        items, out, first_count, first, second = result
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        out.unlink()
        Path(f"{out}.journal").unlink()
        label = f"op {index}"
        n = len(items)
        tally.check(
            first == ae.BuildStats(completed=first_count, failed=0, skipped=0)
            and second == ae.BuildStats(completed=n - first_count, failed=0, skipped=first_count),
            f"{label}: build stats {first} then {second}",
        )
        seen = collections.Counter(r.get("id") for r in records)
        by_id = {r.get("id"): r for r in records}
        k = self.params["generations"]
        collected = 0
        for item in items:
            record = by_id.get(item["id"])
            collected += tally.check(
                record is not None
                and seen[item["id"]] == 1
                and record.get("surrogate_generations")
                == mockserver.choices_for(self.seed, item["prompt"], k)
                and record.get("gold_answer") == item["gold_answer"],
                f"{label}: input {item['id']} missing, duplicated or altered",
            )
        tally.check(len(records) == n, f"{label}: {len(records)} records for {n} inputs")
        counts = self._server_counts()
        self.op_stats[index] = (n, counts - self.last_counts)
        self.last_counts = counts
        return collected

    def layer_extra(self, indices):
        inputs_total = sum(self.op_stats[i][0] for i in indices)
        totals = sum((self.op_stats[i][1] for i in indices), collections.Counter())
        return {
            "genclient.requests_per_input": totals["requests"] / inputs_total,
            "genclient.connections_per_request": totals["connections"] / totals["requests"],
            "genclient.retries": totals["errors"] / len(indices),
        }

    def close(self):
        server = getattr(self, "server", None)
        if server is None:
            return
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdin.close()
        server.stdout.close()
        self.server = None


WORKLOADS = {
    "mc_ref": McRef,
    "mc_large": McLarge,
    "real_run": RealRun,
    "collect": Collect,
}
