#!/usr/bin/env python3
"""Capacity drop from constrained training, end to end through the CLI.

Trains the stock two-block net twice on the same data — once unconstrained,
once under a (lip, dist) constraint pair — writes both runs out as
checkpoints plus an architecture doc, then invokes `analyze` on each pair of
artifacts and prints the resulting capacity numbers side by side.
"""

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

from capbound import formats  # noqa: E402
from capbound.cli import main as cli_main  # noqa: E402
from capbound.traindemo import (  # noqa: E402
    TrainConfig,
    synth_data,
    train_projected,
)


def train_and_save(graph, batch, labels, config, s, b, out_dir, tag):
    net = graph.new_net(config.seed)
    result = train_projected(net, batch, labels, config,
                             lip_bound=s, dist_bound=b)
    if result.diverged:
        raise SystemExit(f"{tag} run diverged; lower the learning rate")
    names = [layer.name for layer in graph.layers]
    path = Path(out_dir) / f"{tag}.ckpt"
    formats.write_checkpoint(path,
                             {n: k for n, k in zip(names, net.kernels)},
                             {n: r for n, r in zip(names, result.references)})
    print(f"{tag}: train error {result.train_error:.3f}, "
          f"feasible={result.feasible}")
    return path


def analyze(ckpt, arch, gamma):
    import contextlib
    import io
    buf = io.StringIO()
    argv = ["analyze", str(ckpt), str(arch), "--gamma", str(gamma), "--json"]
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"analyze failed with exit code {rc}")
    return json.loads(buf.getvalue())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--task", choices=("blobs", "rings"), default="blobs")
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--data-seed", type=int, default=2)
    ap.add_argument("--lip", type=float, default=2.0)
    ap.add_argument("--dist", type=float, default=2.0)
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--keep", metavar="DIR",
                    help="write artifacts here instead of a temp dir")
    args = ap.parse_args()

    graph = formats.parse_archdoc(json.dumps(formats.default_arch_doc()))
    batch, labels = synth_data(args.task, args.n, seed=args.data_seed)
    config = TrainConfig(epochs=args.epochs, seed=args.seed)

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(args.keep) if args.keep else Path(tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        arch_path = out_dir / "arch.json"
        arch_path.write_text(json.dumps(formats.default_arch_doc(), indent=2))

        runs = {}
        for tag, (s, b) in (("free", (math.inf, math.inf)),
                            ("constrained", (args.lip, args.dist))):
            ckpt = train_and_save(graph, batch, labels, config, s, b,
                                  out_dir, tag)
            runs[tag] = analyze(ckpt, arch_path, args.gamma)

        print()
        print(f"{'':14}{'free':>14}{'constrained':>14}")
        for key in ("lip_median", "dist_median", "margin_median", "error"):
            print(f"{key:<14}{runs['free'][key]:>14.4f}"
                  f"{runs['constrained'][key]:>14.4f}")
        for key in ("clubs", "spades"):
            a = runs["free"][key]["value"]
            c = runs["constrained"][key]["value"]
            print(f"{key:<14}{a:>14.4g}{c:>14.4g}")
            if c > 0:
                print(f"{'  ratio':<14}{a / c:>28.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
