#!/usr/bin/env python3
"""Benchmark of the reldistill pipeline.

Usage, from the root of the repository:

    python3 bench/run.py --workload {scale,extract} --seed N \\
        --seconds S --trace {0,1}

Generates the workload's inputs from the seed in a child process, sets
up several times, then runs passes back to back in this one process (a
closed loop with one client and one worker) for about S seconds, at
least two, and checks every pass's outputs. With --trace 0 it reports
the end-to-end metrics, times as medians over the passes on the scale
of a reference loop timed around each pass (see reference.py); with
--trace 1 it runs one pass untraced and then traced passes, and
reports the per-layer metrics from the spans. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when a correctness
check fails.

Writes its working files under bench/work (removed at exit) and the
result, environment and spans of each run under bench/out.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

sys.dont_write_bytecode = True  # leaves the checkout as it was

import layers  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Seeds 0-55 tuned this benchmark; a claimed gain must also hold on this one.
HELD_OUT_SEED = 1009
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "docs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "micro_f1": "ratio",
    "macro_f1": "ratio",
    "mrr": "ratio",
    "map": "ratio",
}


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def generate(workload, seed: int, workdir: Path) -> dict:
    from reldistill.synthetic import BenchmarkPaths

    inputs = {}
    for key, spec in workload.inputs.items():
        sizes = dict(spec)
        key_seed = sizes.pop("seed", seed)
        out = subprocess.run(
            [sys.executable, "-B", str(BENCH / "gen.py"), str(workdir / key), str(key_seed),
             json.dumps(sizes)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        inputs[key] = BenchmarkPaths(**json.loads(out.stdout))
    return inputs


def import_once() -> None:
    """Start a fresh interpreter that imports numpy, scipy and the
    program's modules."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}
    subprocess.run(
        [sys.executable, "-B", "-c", "import numpy, scipy, workloads"],
        env=env, check=True, timeout=120,
    )


def timed_reps(fn, reps: int):
    """Calls fn `reps` times, each between two runs of the reference
    loop; returns the wall times as timed, the same on the reference
    scale, and fn's last result."""
    raw, scaled, result = [], [], None
    before = reference.measure()
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        raw.append(time.perf_counter() - t0)
        after = reference.measure()
        scaled.append(reference.scaled(raw[-1], before, after))
        before = after
    return raw, scaled, result


def fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def run_pass(wl, seed, before, tracer=None):
    """One timed pass, after the reference loop gave `before`; runs the
    loop again after the pass. Returns (wall s, cpu s, the same two on
    the reference scale, the loop's times after the pass, result, root
    span or None)."""
    gc.collect()
    root = tracer.open("bench.pass") if tracer is not None else None
    w0, c0 = time.perf_counter(), time.process_time()
    out = wl.run()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if tracer is not None:
        tracer.close(root)
    after = reference.measure()
    result = wl.finish(out, seed)
    scaled = (
        reference.scaled(wall, before, after),
        reference.scaled(cpu, before, after, cpu=True),
    )
    return wall, cpu, scaled, after, result, root


def layer_metrics(tracer, roots) -> dict[str, float]:
    """Per-layer times of the traced passes, each the median over the
    passes. A pass is its root span and every span opened after it up to
    the next pass's root."""
    per_pass = []
    for first, stop in zip(roots, [*roots[1:], tracer.n_spans]):
        self_t = tracer.self_times(first, stop)
        incl_t = tracer.inclusive_times(first, stop)
        m = {}
        for metric, fns in layers.SELF_TIME.items():
            m[metric] = sum(self_t.get(fn, 0.0) for fn in fns)
        for metric, fn in layers.INCLUSIVE_TIME.items():
            m[metric] = incl_t.get(fn, 0.0)
        for layer in layers.LAYERS:
            m[f"{layer}.self_s"] = sum(
                (t for name, t in self_t.items() if name.split(".", 1)[0] == layer), 0.0
            )
        m["trace.glue_s"] = self_t["bench.pass"]
        m["trace.run_s"] = tracer.duration(first)
        m["trace.spans"] = float(stop - first)
        per_pass.append(m)
    return {k: median([m[k] for m in per_pass]) for k in per_pass[0]}


def install_tracer(package) -> Tracer:
    tracer = Tracer()
    tracer.install(
        [getattr(package, name) for name in layers.LAYERS],
        [m for n, m in sys.modules.items() if n.split(".")[0] in ("reldistill", "workloads")],
        layers.PER_ITEM,
        layers.COUNTERS,
    )
    missing = sorted(
        fn for fns in layers.SELF_TIME.values() for fn in fns if fn not in tracer.wrapped
    )
    if missing:
        print(f"warning: not in the program, reported as 0: {missing}", file=sys.stderr)
    return tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nproc = cap_threads()
    src = ROOT / "src"
    if not (src / "reldistill" / "__init__.py").is_file():
        print(f"error: no reldistill sources under {src}", file=sys.stderr)
        return 1
    if not (ROOT / "results" / "sweep.csv").is_file():
        print("error: results/sweep.csv, the extract model's reference, is missing",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))

    import numpy
    import scipy

    import reldistill
    import workloads

    if Path(reldistill.__file__).resolve().parent != (src / "reldistill").resolve():
        print(f"error: imported reldistill from {reldistill.__file__}", file=sys.stderr)
        return 1
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    cls = workloads.WORKLOADS[args.workload]

    (BENCH / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{cls.name}-{args.seed}-", dir=BENCH / "work"))
    try:
        inputs = generate(cls, args.seed, workdir)
        wl = cls(inputs, workdir, ROOT)

        imports, imports_scaled, _ = timed_reps(import_once, 0 if args.trace else 5)
        setup_times, setup_scaled, triples = timed_reps(
            wl.setup, 1 if args.trace else cls.setup_reps
        )
        setup_errors = wl.check()

        walls, cpus, scaled, results, roots = [], [], [], [], []
        tracer = None
        t_start = time.perf_counter()
        ref = reference.measure()
        while True:
            if args.trace and results:
                if tracer is None:
                    tracer = install_tracer(reldistill)
                tracer.sums.clear()
            wall, cpu, scale, ref, result, root = run_pass(wl, args.seed, ref, tracer)
            walls.append(wall)
            cpus.append(cpu)
            scaled.append(scale)
            results.append(result)
            roots.append(root)
            # at least two passes, the second traced in a traced run
            elapsed = time.perf_counter() - t_start
            if len(walls) >= 2 and elapsed + median(walls) > args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # -- correctness ---------------------------------------------------------
    errors = [f"set-up: {e}" for e in setup_errors]
    for i, r in enumerate(results):
        errors += [f"pass {i}: {e}" for e in r.errors]
        if r.quality is None:
            errors.append(f"pass {i}: produced no predictions to score")
    digests = {r.digest for r in results}
    if len(digests) != 1:
        errors.append(f"passes disagree on their outputs: {len(digests)} digests")
    qualities = {dataclasses.astuple(r.quality) for r in results if r.quality}
    if len(qualities) > 1:
        errors.append(f"passes disagree on quality: {sorted(qualities)}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = not errors

    # -- metrics -------------------------------------------------------------
    first = results[0]
    env = {
        "workload": cls.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "inputs": {
            "docs": wl.docs,
            "triples": triples,
            "mentions": first.mentions,
            "generated": {key: cls.inputs[key] for key in cls.inputs},
        },
        "passes": len(walls),
        "setups": len(setup_times),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "pass_scaled_s": scaled,
    }
    if args.trace:
        untraced = walls[0]
        metrics = layer_metrics(tracer, roots[1:])
        metrics["trace.untraced_run_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced
        metrics["trace.span_cost_s"] = tracer.span_cost()
        metrics["trace.overhead_est_s"] = metrics["trace.span_cost_s"] * metrics["trace.spans"]
        metrics["trace.passes"] = float(len(roots) - 1)
        for key in layers.SUM_COUNTS:
            metrics[key] = float(tracer.sums.get(key, 0.0))
        for key in layers.LAST_COUNTS:
            metrics[key] = float(tracer.last.get(key, 0.0))
        for key, (num, den) in layers.RATIOS.items():
            d = tracer.sums.get(den, 0.0)
            metrics[key] = tracer.sums.get(num, 0.0) / d if d else 0.0
        metrics["pipeline.artifact_mb"] = float(results[-1].extra.get("pipeline.artifact_mb", 0.0))
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        run_s = median(s[0] for s in scaled)
        q = first.quality
        metrics = {
            "setup_s": median(imports_scaled) + median(setup_scaled),
            "run_s": run_s,
            "cpu_s": median(s[1] for s in scaled),
            "docs_per_s": wl.docs / run_s,
            "peak_rss_mb": peak_rss_mb,
            "micro_f1": q.micro_f1 if q else 0.0,
            "macro_f1": q.macro_f1 if q else 0.0,
            "mrr": q.mrr if q else 0.0,
            "map": q.map if q else 0.0,
        }
        units = END_TO_END_UNITS

    # -- report --------------------------------------------------------------
    print(f"workload {cls.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(walls)} passes in {sum(walls):.1f} s, {len(setup_times)} set-ups")
    print("env " + json.dumps(env, sort_keys=True))
    for e in errors:
        print(f"CHECK FAILED: {e}")
    if args.trace:
        print_layers(metrics)
    else:
        print(f"setup_s = {fmt(metrics['setup_s'])} s on the reference scale (as timed, "
              f"median of {len(imports)} imports {median(imports):.3f} s + median of "
              f"{len(setup_times)} set-ups {median(setup_times):.3f} s)")
        print(f"run_s = {fmt(metrics['run_s'])} s (median of {len(walls)} passes on the "
              f"reference scale; as timed {min(walls):.3f} to {max(walls):.3f} s, "
              f"median {median(walls):.3f} s)")
        for key in list(END_TO_END_UNITS)[2:]:
            print(f"{key} = {fmt(metrics[key])} {units[key]}")
    print(f"attempted {attempted} operations, {failed} failed; correct: {correct}")

    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (BENCH / "out").mkdir(exist_ok=True)
    stem = BENCH / "out" / f"{cls.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({**out, "env": env, "errors": errors}, indent=1, sort_keys=True) + "\n"
    )
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.tsv"))
    print(json.dumps(out))
    return 0 if correct else 1


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_yield")):
        return "ratio"
    return "count"


def print_layers(m: dict) -> None:
    for metric, counts in layers.REPORT_ROWS:
        line = f"{metric} = {m[metric]:.4f} s"
        if counts:
            line += "   " + ", ".join(f"{c} = {fmt(m[c])}" for c in counts)
        print(line)
    selfs = [f"{layer}.self_s" for layer in layers.LAYERS]
    print("layer self times: " + ", ".join(f"{k} = {m[k]:.4f}" for k in selfs))
    total = sum(m[k] for k in selfs) + m["trace.glue_s"]
    # within one pass the two sums are equal; these are medians over passes
    print(f"layer self times {sum(m[k] for k in selfs):.4f} s + benchmark glue "
          f"{m['trace.glue_s']:.4f} s = {total:.4f} s; traced run_s "
          f"{m['trace.run_s']:.4f} s; untraced run_s {m['trace.untraced_run_s']:.4f} s; "
          f"tracing overhead {m['trace.overhead_s']:.4f} s measured, "
          f"{m['trace.overhead_est_s']:.4f} s from {m['trace.spans']:.0f} spans per pass "
          f"at {m['trace.span_cost_s'] * 1e6:.2f} us each; {m['trace.passes']:.0f} traced passes")
    print(f"pipeline.artifact_mb = {m['pipeline.artifact_mb']:.3f} MB")


if __name__ == "__main__":
    sys.exit(main())
