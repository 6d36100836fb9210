#!/usr/bin/env python3
"""Accuracy over a grid of (Lipschitz, distance) constraint pairs.

Trains the stock two-block net once per grid cell with projected SGD and
prints train/test accuracy tables, plus the unconstrained run's measured
per-layer Lipschitz constants and reference distances for context. The
tightest pair whose test error stays within the slack of the unconstrained
run is reported as the operating point.
"""

import argparse
import json
import math
import sys

sys.path.insert(0, "src")

from capbound import formats  # noqa: E402
from capbound.cli import _parse_grid  # noqa: E402
from capbound.errors import UsageError  # noqa: E402
from capbound.traindemo import (  # noqa: E402
    TrainConfig,
    synth_data,
    train_projected,
)


def run_cell(graph, batch, labels, test_batch, test_labels, config, s, b):
    """One cell's TrainResult. Its errors are the returned net's, measured
    after the post pass, and NaN when the run diverged."""
    net = graph.new_net(config.seed)
    return train_projected(net, batch, labels, config, lip_bound=s,
                           dist_bound=b, test_batch=test_batch,
                           test_labels=test_labels)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--task", choices=("blobs", "rings"), default="blobs")
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--data-seed", type=int, default=2)
    ap.add_argument("--lip-grid", default="1.5,2,4,inf")
    ap.add_argument("--dist-grid", default="0.5,1,2,inf")
    ap.add_argument("--slack", type=float, default=0.02,
                    help="test-error slack defining accuracy preservation")
    args = ap.parse_args()
    try:    # refuse a bad grid before any training
        lips = _parse_grid(args.lip_grid, "--lip-grid")
        dists = _parse_grid(args.dist_grid, "--dist-grid")
    except UsageError as exc:
        ap.error(str(exc))

    graph = formats.parse_archdoc(json.dumps(formats.default_arch_doc()))
    batch, labels = synth_data(args.task, args.n, seed=args.data_seed)
    test_batch, test_labels = synth_data(args.task, args.n,
                                         seed=args.data_seed + 1)
    config = TrainConfig(epochs=args.epochs, seed=args.seed)

    base = run_cell(graph, batch, labels, test_batch, test_labels, config,
                    math.inf, math.inf)
    base_err = base.test_error
    if base.diverged:
        print("unconstrained: diverged")
    else:
        lip = base.net.lipschitz()
        dist = base.net.distances(base.references)
        print(f"unconstrained: test error {base_err:.3f}, "
              f"lip {tuple(round(v, 2) for v in lip)}, "
              f"dist {tuple(round(v, 2) for v in dist)}")
    print()

    header = "        " + "".join(f"{'b=' + format(b, 'g'):>10}" for b in dists)
    print("test error per cell")
    print(header)
    table = {}
    for s in lips:
        row = [f"s={s:<6g}"]
        for b in dists:
            # the unconstrained cell is the run `base` already made
            res = base if math.isinf(s) and math.isinf(b) else run_cell(
                graph, batch, labels, test_batch, test_labels, config, s, b)
            te = res.test_error
            table[(s, b)] = te
            mark = "" if res.feasible else "*"
            row.append(f"{te:>9.3f}{mark}" if math.isfinite(te)
                       else f"{'diverged':>10}")
        print("".join(row))
    print("(* = projection tolerance not reached)")
    print()

    keeping = [(s, b) for (s, b), te in table.items()
               if te <= base_err + args.slack]
    if base.diverged:
        print("no operating point: the unconstrained run diverged")
    elif keeping:
        s_star, b_star = min(keeping, key=lambda sb: (sb[0], sb[1]))
        print(f"operating point: s={s_star:g}, b={b_star:g} "
              f"(test error {table[(s_star, b_star)]:.3f} vs "
              f"{base_err:.3f} unconstrained)")
    else:
        print("no cell preserved accuracy at the given slack")
    return 0


if __name__ == "__main__":
    sys.exit(main())
