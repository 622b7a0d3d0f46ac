"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``active_eval`` where their calling
modules bind them (``active_eval.harness.stratify``,
``active_eval.pool.semantic_entropy``, ...) and methods on their classes
(``LabelOracle.reveal_indices``). Nothing under ``src/`` changes; the
wrappers are installed for the traced operations and removed afterwards.

Three kinds of wrapper:

* span: records (id, name, layer, start, end, parent span, operation id)
  in memory, for calls made at most a few thousand times per operation;
* hot: counts calls and accumulates self time without a record, for
  callees made per instance or per stratum (``semantic_entropy``, ...);
* count: only counts calls (and times every SAMPLE_EVERY-th call when a
  percentile is reported), for the hottest callees (``trial_rng``,
  ``parse_answer``). Their time stays in the caller's self time.

Self time is a call's duration minus the part covered by its children.
Children on the caller's thread are nested, so their time is summed as they
return; children on other threads (collection workers) may overlap, so the
union of their intervals is subtracted when the spans are reduced.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "synth", "ingest", "signals", "pool", "stratify", "allocate",
    "estimate", "harness", "report", "cli", "genclient",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _load_pool_name(args, kwargs):
    raw = _arg(args, kwargs, 1, "parser") is not None
    return "ingest.load_pool_raw" if raw else "ingest.load_pool_canonical"


def _stratify_name(args, kwargs):
    return "stratify." + str(_arg(args, kwargs, 2, "method", "adaptive_se"))


# the metric-name prefix a namer's spans share, for reporting them missing
_load_pool_name.prefix = "ingest.load_pool"
_stratify_name.prefix = "stratify."


def _on_sweep(tracer, args, kwargs, result, before):
    tracer.count("cells_skipped", len(result.skipped))


def _on_load_pool(tracer, args, kwargs, result, before):
    if _arg(args, kwargs, 1, "parser") is not None:
        stats = result[1]
        tracer.count("parse_failures", stats.parse_failures)
        tracer.count("generations", stats.generations)


def _on_ht_estimate(tracer, args, kwargs, result, before):
    tracer.count("budget_drawn", _arg(args, kwargs, 1, "plan").budget)


def _on_uniform_estimate(tracer, args, kwargs, result, before):
    tracer.count("budget_drawn", _arg(args, kwargs, 1, "budget"))


def _on_sample(tracer, args, kwargs, result, before):
    tracer.count("permuted", len(_arg(args, kwargs, 0, "ids")))
    tracer.count("drawn", _arg(args, kwargs, 1, "m"))


def _labels_before(args, kwargs):
    return args[0].labels_used


def _on_reveal(tracer, args, kwargs, result, before):
    tracer.count("labels_revealed", args[0].labels_used - before)


def _on_oracle(tracer, args, kwargs, result, before):
    tracer.count("mask_bytes", args[0].size)


def _on_make_pool(tracer, args, kwargs, result, before):
    tracer.count("synth_instances", _arg(args, kwargs, 0, "config").size)


def _on_build_pool(tracer, args, kwargs, result, before):
    tracer.count("quarantined", result.failed)


# (module, attribute path, kind, span name or namer, pre hook, post hook)
TARGETS = (
    ("cli", "main", "span", None, None, None),
    ("harness", "sweep", "span", None, None, _on_sweep),
    ("harness", "run_trials", "span", None, None, None),
    ("harness", "prepare_method", "span", None, None, None),
    ("harness", "mse", "span", None, None, None),
    ("harness", "sem", "span", None, None, None),
    ("stratify", "stratify", "span", _stratify_name, None, None),
    ("stratify", "stratum_mean_sc", "span", None, None, None),
    ("allocate", "round_allocation", "span", None, None, None),
    ("allocate", "proxy_neyman_weights", "span", None, None, None),
    ("allocate", "oracle_neyman_weights", "span", None, None, None),
    ("allocate", "baseline_weights", "span", None, None, None),
    ("estimate", "draw_stratified", "span", None, None, None),
    ("estimate", "ht_estimate", "span", None, None, _on_ht_estimate),
    ("estimate", "uniform_estimate", "span", None, None, _on_uniform_estimate),
    ("estimate", "trial_rng", "count", None, None, None),
    ("estimate", "sample_without_replacement", "hot", None, None, _on_sample),
    ("ingest", "load_pool", "span", _load_pool_name, None, _on_load_pool),
    ("ingest", "export_pool", "span", None, None, None),
    ("ingest", "parse_answer", "count", None, None, None),
    ("pool", "Pool.__init__", "span", "pool.build", None, None),
    ("pool", "Pool.oracle", "hot", "pool.oracle", None, _on_oracle),
    ("pool", "LabelOracle.reveal_indices", "hot", None, _labels_before, _on_reveal),
    ("pool", "PoolInstance.from_answers", "hot", None, None, None),
    ("pool", "finite_pool_risk", "span", None, None, None),
    ("signals", "semantic_entropy", "hot", None, None, None),
    ("signals", "self_consistency", "hot", None, None, None),
    ("signals", "answer_histogram", "count", None, None, None),
    ("synth", "make_pool", "span", None, None, _on_make_pool),
    ("report", "write_json", "span", None, None, None),
    ("genclient", "build_pool", "span", None, None, _on_build_pool),
    ("genclient", "generate_k", "span", None, None, None),
)
# callees whose per-call durations are kept for percentiles
SAMPLED = frozenset({"ingest.parse_answer"})
SAMPLE_EVERY = 8


class Tracer:
    def __init__(self):
        self.records = []  # (id, name, layer, start, end, parent, op, child_s, thread)
        self.hot = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.samples = {name: array("d") for name in SAMPLED}
        self.counters = defaultdict(float)
        self.missing = []
        self.op = "setup"
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        self.missing = []
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "active_eval" or name.startswith("active_eval.")
        ]
        for layer, path, kind, name, pre, post in TARGETS:
            module = sys.modules.get(f"active_eval.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            name = name or f"{layer}.{attr}"
            if owner is None or attr not in vars(owner):
                self.missing.append(getattr(name, "prefix", name))
                continue
            original = vars(owner)[attr]
            if owner_name:
                fn = original.__func__ if isinstance(original, classmethod) else original
                wrapped = self._wrap(fn, kind, layer, name, pre, post)
                if isinstance(original, classmethod):
                    wrapped = classmethod(wrapped)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, original))
                continue
            wrapped = self._wrap(original, kind, layer, name, pre, post)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapped)
                        self._patches.append((mod, binding, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def count(self, key: str, amount=1):
        with self._lock:
            self.counters[key] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        for frame in reversed(stack or self._main_stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def _wrap(self, fn, kind, layer, name, pre, post):
        tracer = self
        clock = time.perf_counter
        if kind == "count":
            stats = self.hot[name]
            samples = self.samples.get(name)

            def count(*args, **kwargs):
                with tracer._lock:
                    stats[0] += 1
                    timed = samples is not None and stats[0] % SAMPLE_EVERY == 0
                if not timed:
                    return fn(*args, **kwargs)
                start = clock()
                result = fn(*args, **kwargs)
                samples.append(clock() - start)
                return result

            return count

        if kind == "hot":
            stats = self.hot[name]

            def hot(*args, **kwargs):
                before = pre(args, kwargs) if pre else None
                stack = tracer._stack()
                frame = [None, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                    with tracer._lock:
                        stats[0] += 1
                        stats[1] += duration
                        stats[2] += duration - frame[1]
                if post:
                    post(tracer, args, kwargs, result, before)
                return result

            return hot

        namer = name if callable(name) else (lambda args, kwargs: name)

        def span(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            stack = tracer._stack()
            parent = tracer._parent(stack)
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.records.append((
                    frame[0], namer(args, kwargs), layer, start, end, parent,
                    tracer.op, frame[1], threading.get_ident(),
                ))
            if post:
                post(tracer, args, kwargs, result, before)
            return result

        return span

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> self time in seconds."""
        by_id = {r[0]: r for r in self.records}
        foreign = defaultdict(list)  # parent id -> child intervals on other threads
        for r in self.records:
            parent = by_id.get(r[5])
            if parent is not None and parent[8] != r[8]:
                foreign[r[5]].append((r[3], r[4]))
        result = {}
        for r in self.records:
            covered = _union_length(foreign.get(r[0], ()), r[3], r[4])
            result[r[0]] = max(r[4] - r[3] - r[7] - covered, 0.0)
        return result

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.records:
                fh.write(json.dumps({
                    "id": r[0], "name": r[1], "layer": r[2], "start": r[3],
                    "end": r[4], "parent": r[5], "op": r[6],
                }) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _durations(tracer: Tracer) -> dict:
    durations = defaultdict(list)
    for r in tracer.records:
        durations[r[1]].append(r[4] - r[3])
    return durations


def layer_metrics(ops: Tracer, setup: Tracer, n_ops: int) -> dict:
    """Per-layer metric values from the traced operations and the traced set-up.

    Totals are per workload operation. A metric whose function was never
    called in this workload reads 0; one whose function no longer exists
    reads None.
    """
    self_s = ops.self_times()
    durations = _durations(ops)
    setup_durations = _durations(setup)
    self_by_name = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for r in ops.records:
        self_by_name[r[1]] += self_s[r[0]]
        layer_self[r[2]] += self_s[r[0]]
    for name, (_, _, hot_self) in ops.hot.items():
        layer_self[name.partition(".")[0]] += hot_self
    c = ops.counters

    def per_op(value):
        return value / n_ops

    def calls(name):
        return per_op(len(durations[name]) if name not in ops.hot else ops.hot[name][0])

    def pct(name, q, scale, source=durations):
        values = source.get(name) or ops.samples.get(name)
        return float(np.percentile(values, q)) * scale if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    stratify_calls = sum(
        len(v) for k, v in durations.items()
        if k.startswith("stratify.") and k != "stratify.stratum_mean_sc"
    )
    signals_s = sum(ops.hot[n][2] for n in ops.hot if n.startswith("signals."))
    make_pool_s = sum(setup_durations.get("synth.make_pool", ()))
    values = {
        "harness.run_trials.self_s": per_op(self_by_name["harness.run_trials"]),
        "harness.prepare_method.calls": calls("harness.prepare_method"),
        "harness.cells_skipped": per_op(c["cells_skipped"]),
        "estimate.draw_stratified.calls": calls("estimate.draw_stratified"),
        "estimate.draw_stratified.p50_us": pct("estimate.draw_stratified", 50, 1e6),
        "estimate.draw_stratified.p99_us": pct("estimate.draw_stratified", 99, 1e6),
        "estimate.ht_estimate.p50_us": pct("estimate.ht_estimate", 50, 1e6),
        "estimate.ht_estimate.p99_us": pct("estimate.ht_estimate", 99, 1e6),
        "estimate.uniform_estimate.p50_us": pct("estimate.uniform_estimate", 50, 1e6),
        "estimate.uniform_estimate.p99_us": pct("estimate.uniform_estimate", 99, 1e6),
        "estimate.trial_rng.calls": calls("estimate.trial_rng"),
        "estimate.permuted_per_label": ratio(c["permuted"], c["drawn"]),
        "pool.oracle.calls": calls("pool.oracle"),
        "pool.oracle.mask_bytes": per_op(c["mask_bytes"]),
        "pool.labels_revealed_per_budget": ratio(c["labels_revealed"], c["budget_drawn"]),
        "pool.build.self_s": per_op(self_by_name["pool.build"]),
        "signals.answer_histogram.calls": calls("signals.answer_histogram"),
        "signals.per_instance_us": ratio(signals_s, ops.hot["pool.from_answers"][0]) * 1e6,
        "ingest.load_pool_raw.self_s": per_op(self_by_name["ingest.load_pool_raw"]),
        "ingest.load_pool_canonical.self_s": per_op(self_by_name["ingest.load_pool_canonical"]),
        "ingest.parse_answer.calls": calls("ingest.parse_answer"),
        "ingest.parse_answer.p50_us": pct("ingest.parse_answer", 50, 1e6),
        "ingest.parse_failure_frac": ratio(c["parse_failures"], c["generations"]),
        "ingest.export_pool.s": (
            pct("ingest.export_pool", 50, 1.0)
            or pct("ingest.export_pool", 50, 1.0, setup_durations)
        ),
        "stratify.adaptive_se.ms": pct("stratify.adaptive_se", 50, 1e3),
        "stratify.quantile.ms": pct("stratify.quantile", 50, 1e3),
        "stratify.equal_width.ms": pct("stratify.equal_width", 50, 1e3),
        "stratify.kmeans.ms": pct("stratify.kmeans", 50, 1e3),
        "stratify.calls": per_op(stratify_calls),
        "allocate.round_allocation.calls": calls("allocate.round_allocation"),
        "allocate.round_allocation.p50_us": pct("allocate.round_allocation", 50, 1e6),
        "synth.make_pool.us_per_instance": ratio(make_pool_s, setup.counters["synth_instances"]) * 1e6,
        "report.write_json.ms": pct("report.write_json", 50, 1e3),
        "cli.main.self_s": per_op(self_by_name["cli.main"]),
        "genclient.generate_k.calls": calls("genclient.generate_k"),
        "genclient.generate_k.p50_ms": pct("genclient.generate_k", 50, 1e3),
        "genclient.generate_k.p99_ms": pct("genclient.generate_k", 99, 1e3),
        "genclient.build_pool.self_s": per_op(self_by_name["genclient.build_pool"]),
        "genclient.quarantined": per_op(c["quarantined"]),
    }
    for layer in LAYERS[1:]:  # synth runs only in set-up
        values[f"layer.{layer}.self_s"] = per_op(layer_self[layer])
    # metrics of functions a later change removed are reported missing
    missing = tuple(ops.missing)
    for key in values:
        if missing and key.startswith(missing):
            values[key] = None
    return values
