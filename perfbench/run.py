"""capbound benchmark: closed-loop workloads, end-to-end and per-layer metrics.

One run of one workload (the form BENCHMARK.json names; the last line of
stdout is the JSON result):

    python3 perfbench/run.py --workload train-rings --seed 1 --seconds 35 --trace 0

Every workload, each in a fresh process, with every end-to-end metric printed
by name and unit (`--trace 1` adds one traced run per workload and prints
the per-layer split; `--out` appends every run to a result file):

    python3 perfbench/run.py --all --seed 1 --repeat 10 --out new.json

Compare two result files (medians, quartiles, ratio and a verdict for each
workload and metric; runs are paired in file order, so record them
alternating between the two versions):

    python3 perfbench/run.py --compare old.json new.json

Each workload runs in a child process (perfbench/worker.py) whose
environment fixes the BLAS thread count, so its peak memory and set-up time
are its own. The benchmark is single-threaded and closed-loop: one client,
each operation issued after the previous one returned.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True   # leave no __pycache__ in the checkout
from worker import E2E_UNITS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
E2E_ORDER = tuple(E2E_UNITS)
BLAS_THREADS = 1        # single-threaded benchmark; never above nproc
CHILD_TIMEOUT_S = 170
MIN_PAIRS = 10          # a verdict needs at least this many paired runs
WIN_SHARE = 0.9         # ... and one side winning this share of them


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process and return its document."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload} did not finish in "
                           f"{CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {done.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def describe(doc: dict) -> list:
    lines = [f"{doc['workload']}  seed={doc['seed']}  trace={doc['trace']}  "
             f"passes={doc['passes']}+{doc['traced_passes']} traced  "
             f"checks {doc['attempted'] - doc['failed']}/{doc['attempted']} "
             f"passed"]
    lines += [f"  FAILED {f}" for f in doc["failures"]]
    metrics = {**doc["e2e"], **doc.get("layers", {})}
    lines += [f"  {name:<42}{_fmt(m['value']):>14} {m['unit']}"
              for name, m in metrics.items()]
    prov = doc["provenance"]
    lines.append("  provenance: " + ", ".join(f"{k}={v}"
                                              for k, v in prov.items()))
    return lines


def result_line(doc: dict, bench: dict) -> dict:
    """The one-line result: the end-to-end metrics untraced, the per-layer
    metrics traced, exactly as BENCHMARK.json lists them."""
    source = doc["layers"] if doc["trace"] else doc["e2e"]
    names = bench["per_layer" if doc["trace"] else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in source]
    if missing:
        raise RuntimeError(f"{doc['workload']} did not report {missing}")
    return {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {m["name"]: {"value": source[m["name"]]["value"],
                                    "unit": m["unit"]} for m in names}}


def run_one(args, bench) -> int:
    doc = run_worker(args.workload, args.seed, args.seconds, args.trace)
    for line in describe(doc):
        print(line)
    print(json.dumps(result_line(doc, bench)))
    return 0


def append_runs(path: str, docs: list) -> None:
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs + docs}, fh, indent=1)


def workload_names(bench) -> list:
    return [w["name"] for w in bench["workloads"]]


def run_all(args, bench) -> int:
    docs = []
    workloads = workload_names(bench)
    for workload in workloads:
        for i in range(args.repeat):
            docs.append(run_worker(workload, args.seed + i, args.seconds, 0))
            print("\n".join(describe(docs[-1])), file=sys.stderr)
        if args.trace:
            docs.append(run_worker(workload, args.seed, args.seconds, 1))
    if args.out:
        append_runs(args.out, docs)

    def cell(workload, trace, name):
        vals = _series(docs, workload, trace, name)
        if not vals:
            return "-"
        med = statistics.median(vals)
        if len(vals) < 2 or not med:
            return _fmt(med)
        q1, q3 = _quartiles(vals)
        return f"{_fmt(med)} ({(q3 - q1) / abs(med):.1%})"

    width = 22
    print(f"{'metric':<42}{'unit':<8}"
          + "".join(f"{w:>{width}}" for w in workloads))
    units = {k: v["unit"] for d in docs for sec in ("e2e", "layers")
             for k, v in d.get(sec, {}).items()}
    for trace, names in ((0, E2E_ORDER), (1, sorted(
            {k for d in docs for k in d.get("layers", {})}))):
        for name in names:
            print(f"{name:<42}{units.get(name, '-'):<8}"
                  + "".join(f"{cell(w, trace, name):>{width}}"
                            for w in workloads))
    print(f"median (interquartile spread / median) of {args.repeat} run(s) "
          f"per workload, seeds {args.seed}..{args.seed + args.repeat - 1}; "
          f"{docs[0]['provenance']}")
    failed = sum(d["failed"] for d in docs)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# compare


def lower_is_better(name: str) -> bool:
    return not name.endswith("converged_ratio")


def verdict(old, new, lower: bool) -> str:
    """choosing-metrics rule: the change wins at least 9 in 10 pairs (ties
    count for neither side) and the medians differ by more than the
    parent's own interquartile spread."""
    pairs = list(zip(old, new))
    if len(pairs) < MIN_PAIRS:
        return f"unresolved ({len(pairs)} pairs < {MIN_PAIRS})"
    sign = 1 if lower else -1
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) > 0)
    q1, _, q3 = statistics.quantiles(old, n=4)
    gap = statistics.median(new) - statistics.median(old)
    if abs(gap) > q3 - q1:
        if wins >= WIN_SHARE * len(pairs) and sign * gap < 0:
            return "improved"
        if losses >= WIN_SHARE * len(pairs) and sign * gap > 0:
            return "worse"
    return "unresolved"


def _series(docs, workload, trace, name):
    return [d[section][name]["value"] for d in docs
            if d["workload"] == workload and d["trace"] == trace
            for section in ("e2e", "layers") if name in d.get(section, {})]


def _quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3


def compare(args, bench) -> int:
    with open(args.compare[0], encoding="utf-8") as fh:
        old_docs = json.load(fh)["runs"]
    with open(args.compare[1], encoding="utf-8") as fh:
        new_docs = json.load(fh)["runs"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<16}{'metric':<40}{'old med':>12}{'old q1..q3':>26}"
          f"{'new med':>12}{'new q1..q3':>26}{'ratio':>8}  verdict")
    for workload in workload_names(bench):
        for trace in (0, 1):
            names = sorted({k for d in old_docs
                            if d["workload"] == workload and d["trace"] == trace
                            for sec in ("e2e", "layers")
                            for k in d.get(sec, {})},
                           key=lambda n: (n not in E2E_ORDER,
                                          E2E_ORDER.index(n)
                                          if n in E2E_ORDER else 0, n))
            for name in names:
                old = _series(old_docs, workload, trace, name)
                new = _series(new_docs, workload, trace, name)
                if not old or not new:
                    continue
                mo, mn = statistics.median(old), statistics.median(new)
                ratio = mn / mo if mo else float("nan")
                text = verdict(old, new, lower_is_better(name))
                if name in bounds and mn > mo * (1 + bounds[name]):
                    text += f"; beyond bound {bounds[name]:g}"
                lo_o, hi_o = _quartiles(old)
                lo_n, hi_n = _quartiles(new)
                print(f"{workload:<16}{name:<40}{_fmt(mo):>12}"
                      f"{_fmt(lo_o) + '..' + _fmt(hi_o):>26}{_fmt(mn):>12}"
                      f"{_fmt(lo_n) + '..' + _fmt(hi_n):>26}{ratio:>8.3f}"
                      f"  {text}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload (names in "
                                         "BENCHMARK.json)")
    mode.add_argument("--all", action="store_true",
                      help="run every workload and print one table")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="compare two --out result files")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--repeat", type=int, default=1,
                    help="--all: untraced runs per workload, seeds seed+i")
    ap.add_argument("--out", default=None,
                    help="--all: append every run's document to this file")
    args = ap.parse_args(argv)
    try:
        bench = load_benchmark()
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.compare:
            return compare(args, bench)
        if args.all:
            return run_all(args, bench)
        if args.workload not in workload_names(bench):
            raise ValueError(f"unknown workload {args.workload!r}; one of "
                             f"{workload_names(bench)}")
        return run_one(args, bench)
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
