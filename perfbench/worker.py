"""One workload run in a fresh process; prints one JSON document.

Started by run.py with a fixed BLAS thread count in its environment, so the
process's peak memory and set-up time belong to this workload alone. It
imports capbound from the checkout's own `src/` and refuses to run without
it. Usage (normally through run.py):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
IMPORT_SAMPLES = 3   # import timings per run: this process plus fresh ones
SETUP_SAMPLES = 3    # data and fixture set-ups per run
IMPORT_SNIPPET = ("import sys, time; t = time.perf_counter(); "
                  "sys.path.insert(0, sys.argv[1]); import numpy, capbound.cli; "
                  "print(time.perf_counter() - t)")

# The end-to-end metrics, in report order, with their units.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cell_s": "s",
             "final_loss": "nats", "project_s": "s", "measure_s": "s",
             "peak_rss_mib": "MiB", "fail_ratio": "ratio"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last == "gflop":
        return "GFLOP"
    if last == "bytes":
        return "B"
    if last.endswith(("ratio", "residual", "share_of_cell",
                      "share_of_project")):
        return "ratio"
    return "count"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(np, seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def fresh_import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, SRC],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "capbound", "__init__.py")):
        print(f"error: no capbound package under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy as np
    import capbound
    import capbound.cli
    own_import = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(capbound.__file__)) != SRC:
        print(f"error: imported capbound from {capbound.__file__}",
              file=sys.stderr)
        return 2

    from types import SimpleNamespace

    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cb = SimpleNamespace(**{name: sys.modules[f"capbound.{name}"] for name in (
        "capacity", "cli", "convop", "lipschitz", "project", "tensors",
        "traindemo")})

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        doc = run(args, np, cb, tracing, workloads, workdir, own_import)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


def run(args, np, cb, tracing, workloads, workdir, own_import) -> dict:
    imports = [own_import] + [fresh_import_seconds()
                              for _ in range(IMPORT_SAMPLES - 1)]
    workload = workloads.WORKLOADS[args.workload](cb, args.seed, workdir)
    setups = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    checks = workloads.Checks()
    untraced, traced = [], []      # PassResults
    bounds = []                    # (lo, hi) span slices of traced passes
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes
        tracing_now = bool(args.trace) and len(untraced) > len(traced)
        lo = len(tracer.spans)
        tracer.on = tracing_now
        result = workload.run_pass(tracer)
        tracer.on = False
        if tracing_now:
            traced.append(result)
            bounds.append((lo, len(tracer.spans)))
        else:
            untraced.append(result)
        workload.check(result.outputs, checks)
        result.outputs = None
        elapsed = time.perf_counter() - start
        passes = len(untraced) + len(traced)
        if args.trace and not traced:
            continue
        if elapsed * (passes + 1) / passes > args.seconds:
            break

    layers = None
    if args.trace:
        layers = traced_metrics(tracer, tracing, workload, untraced, traced,
                                bounds, checks)
    doc = {"workload": args.workload, "seed": args.seed,
           "trace": args.trace, "seconds": args.seconds,
           "provenance": provenance(np, args.seed),
           "passes": len(untraced), "traced_passes": len(traced),
           "attempted": checks.attempted, "failed": checks.failed,
           "failures": checks.failures}

    def med(key):
        vals = [v for r in untraced for v in r.samples.get(key, [])]
        return statistics.median(vals) if vals else None

    e2e = {"wall_s": statistics.median(r.wall_s for r in untraced),
           "setup_s": statistics.median(imports) + statistics.median(setups),
           "peak_rss_mib": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "fail_ratio": checks.failed / checks.attempted}
    for key in ("cell_s", "final_loss", "project_s", "measure_s"):
        value = med(key)
        if value is not None:
            e2e[key] = value
    doc["e2e"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                  for k, v in e2e.items()}
    doc["setup_samples"] = {"imports": imports, "setups": setups}
    doc["pass_wall_s"] = [r.wall_s for r in untraced]

    if args.trace:
        doc["layers"] = layers
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path)
        doc["trace_file"] = os.path.relpath(path, ROOT)
    return doc


def traced_metrics(tracer, tracing, workload, untraced, traced, bounds,
                   checks) -> dict:
    per_pass = [tracing.layer_metrics(tracer.spans, lo, hi,
                                      workload.batch_size)
                for lo, hi in bounds]
    layers = {name: statistics.median_low(p[name] for p in per_pass)
              for name in per_pass[0]}
    wall_traced = statistics.median(r.wall_s for r in traced)
    wall_plain = statistics.median(r.wall_s for r in untraced)
    layers["trace.overhead_ratio"] = wall_traced / wall_plain - 1.0
    layers["trace.overhead_est_ratio"] = (
        layers["trace.spans"] * tracer.span_cost() / wall_plain)
    project_s = statistics.median(
        sum(r.samples.get("project_s", [0.0])) for r in traced)
    layers["trace.dykstra_share_of_project"] = (
        layers["project.dykstra.s"] / project_s if project_s else 0.0)
    residual = max(tracing.self_time_residual(
        tracer.spans, lo, hi, "traindemo.train_projected")
        for lo, hi in bounds)
    checks.record("self times sum to each train_projected span",
                  [f"residual {residual:.3g}"] if residual > 1e-9 else [])
    layers["trace.self_time_residual"] = residual
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
