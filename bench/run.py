"""Benchmark for the active-eval package: one workload per run, or all of them.

    python3 bench/run.py --workload mc_ref --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

Run from a checkout root; the package is imported from ``src/`` of the
checkout this file sits in, never from an installed copy. The last stdout
line of a single-workload run is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("mc_ref", "mc_large", "real_run", "collect")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="active-eval benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "active_eval" / "__init__.py"
    if not package.is_file():
        print(f"error: no package source at {package.parent}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    undocumented = {m["name"] for m in bench["per_layer"]} ^ set(spec["per_layer_moves"])
    if undocumented:
        print(f"error: per-layer metrics out of step with spec.json: {sorted(undocumented)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, args.trace)

    sys.path.insert(0, str(ROOT / "src"))
    import active_eval

    if Path(active_eval.__file__).resolve().parent != package.parent.resolve():
        print(f"error: imported active_eval from {active_eval.__file__}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    result, summary = run_workload(args.workload, args.seed, seconds, args.trace, bench, spec)
    print(summary)
    print(json.dumps(result))
    return 0


def environment() -> dict:
    """Informational fields recorded beside the results (not gated)."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
    }


def run_workload(name, seed, seconds, trace, bench, spec):
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, Tally

    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](spec["workloads"][name], spec["gate"], seed, workdir)
    tally = Tally()
    min_ops = spec["min_ops"]
    try:
        setup_times = []
        setup_tracer = Tracer()
        if trace:
            with setup_tracer:
                workload.setup()
        else:
            # a fast set-up repeats until it has run setup_min_s in total
            while (len(setup_times) < spec["setup_repeats"]
                   or sum(setup_times) < spec["setup_min_s"]):
                if setup_times:
                    workload.close()
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
        workload.prepare(tally)
        if trace:
            plain = measure(workload, seconds / 2, min_ops, tally, 0)
            tracer = Tracer()
            traced = measure(workload, seconds / 2, min_ops, tally, len(plain[0]), tracer)
        else:
            walls, items = measure(workload, seconds, min_ops, tally, 0)
        workload.finish(tally)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for message in tally.messages:
        print(f"FAIL {name}: {message}", file=sys.stderr)
    item = spec["workloads"][name]["item"]
    if trace:
        n_plain, n_traced = len(plain[0]), len(traced[0])
        values = layer_metrics(tracer, setup_tracer, n_traced)
        values.update(workload.layer_extra(range(n_plain, n_plain + n_traced)))
        traced_rate = _median_rate(traced)
        values["trace.overhead_frac"] = (
            _median_rate(plain) / traced_rate - 1.0 if traced_rate else None
        )
        trace_path = ROOT / ".bench_work" / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        specs = bench["per_layer"]
        top = max((k for k in values if k.startswith("layer.")), key=lambda k: values[k] or 0.0)
        summary = (
            f"{name}: traced {n_traced} ops (untraced {n_plain}); most self time in "
            f"{top.split('.')[1]} ({values[top]:.4f} s/op); spans in {trace_path.name}"
        )
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": _median_rate((walls, items)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = bench["end_to_end"]
        summary = (
            f"{name}: setup_s={values['setup_s']:.4f} s  "
            f"{item}_per_s={values['items_per_s']:.2f} 1/s  "
            f"peak_rss_mb={values['peak_rss_mb']:.1f} MB  "
            f"failed_frac={tally.failed / max(tally.attempted, 1):.4g} "
            f"({tally.failed}/{tally.attempted})  ops={len(walls)}"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, summary


def measure(workload, seconds, min_ops, tally, first_index, tracer=None):
    """Repeat the workload's operation until ``seconds`` of it have been timed.

    Only ``op`` is inside the timed region; the tracer, when given, is
    installed around it and removed before the output is checked.
    """
    walls, items = [], []
    index = first_index
    while len(walls) < min_ops or sum(walls) < seconds:
        gc.collect()
        if tracer is not None:
            tracer.op = index
            tracer.install()
        start = time.perf_counter()
        try:
            result = workload.op(index)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        items.append(workload.check_op(index, result, tally))
        walls.append(wall)
        del result
        index += 1
    return walls, items


def _median_rate(measured):
    """Median over operations of items completed per second."""
    walls, items = measured
    return statistics.median(n / w for w, n in zip(walls, items))


def run_all(seed, seconds, trace) -> int:
    """Run every workload in its own process and print one summary line each."""
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            ok = False
            continue
        if name == WORKLOAD_NAMES[0]:
            print(lines[0])  # env line
        print(lines[-2])
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        if trace:
            for metric, entry in result["metrics"].items():
                print(f"  {metric} = {entry['value']} {entry['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
