#!/usr/bin/env python3
"""Relative ordering of capacity bounds on one trained deeper net.

Trains a six-block net (two identity shortcuts, one doubling shortcut, one
pooling stage) under a mild constraint pair, evaluates every bound in the
comparison suite on the same measured statistics, and prints them sorted by
log10 value. Absolute numbers are vacuous at this scale; the point is which
bound sits where.
"""

import argparse
import math
import sys

sys.path.insert(0, "src")

from capbound.capacity import comparison_suite  # noqa: E402
from capbound.tensors import data_norm  # noqa: E402
from capbound.traindemo import (  # noqa: E402
    BlockSpec,
    TinyNet,
    TrainConfig,
    comparison_stats_from_net,
    synth_data,
    train_projected,
)

SIX_BLOCKS = [
    BlockSpec(1, 4, 3),
    BlockSpec(4, 4, 3, shortcut="identity"),
    BlockSpec(4, 8, 3, pool="max3", shortcut="double"),
    BlockSpec(8, 8, 3, shortcut="identity"),
    BlockSpec(8, 8, 3),
    BlockSpec(8, 4, 3),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--data-seed", type=int, default=2)
    ap.add_argument("--lip", type=float, default=2.0)
    ap.add_argument("--dist", type=float, default=3.0)
    ap.add_argument("--gamma", type=float, default=0.5)
    args = ap.parse_args()

    batch, labels = synth_data("blobs", args.n, seed=args.data_seed)
    net = TinyNet(SIX_BLOCKS, seed=args.seed)
    config = TrainConfig(epochs=args.epochs, seed=args.seed)
    result = train_projected(net, batch, labels, config,
                             lip_bound=args.lip, dist_bound=args.dist)
    if result.diverged:
        raise SystemExit("training diverged; lower the learning rate")
    final = result.trajectory[-1]
    print(f"trained {len(SIX_BLOCKS)} blocks on blobs: "
          f"train error {final.train_error:.3f}, "
          f"feasible={result.feasible}, ||X||={data_norm(batch):.2f}")
    print(f"per-layer lip:  "
          f"{[round(v, 2) for v in result.net.lipschitz()]}")
    print(f"per-layer dist: "
          f"{[round(v, 2) for v in result.net.distances(result.references)]}")
    print()

    stats, dstats = comparison_stats_from_net(net, result.references, batch)
    rows = comparison_suite(stats, dstats, batch.n, args.gamma, net.kappa)
    present = sorted((r for r in rows.values() if not r.absent),
                     key=lambda r: r.log10_value)
    width = max(len(r.name) for r in present)
    print(f"{'bound':<{width}}  log10")
    for r in present:
        tag = " (saturated)" if r.saturated else ""
        val = r.log10_value
        print(f"{r.name:<{width}}  {val:7.2f}{tag}"
              if math.isfinite(val) else f"{r.name:<{width}}     -inf")
    for r in rows.values():
        if r.absent:
            print(f"{r.name:<{width}}  absent: {r.reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
