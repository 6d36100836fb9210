"""Command-line surface of the capacity toolbox.

Four commands operate on a checkpoint plus the architecture document that
describes its network (both formats live in `capbound.formats`): `analyze`
measures capacity statistics and bounds, `project` enforces constraints,
`train-demo` runs the constrained trainer over a bounds grid, and `spectra`
dumps exact singular-value summaries.

All reports are JSON when --json is passed, fixed-width text otherwise.
Non-finite numbers serialize as the Infinity/NaN literals Python's json
module emits and re-reads losslessly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import NumericalError, ResourceError, UsageError
from .tensors import KernelTensor, group_norm_21
from .lipschitz import fft_exact_spectrum, operator_norm
from .project import (
    DEFAULT_BUDGETS,
    DEFAULT_TOL,
    ConstraintSet,
    admm,
    alternating_projections,
    project_l21_ball,
    radial_cycle,
)
from .capacity import (
    BoundReport,
    CapacityInput,
    capacity_terms,
    comparison_suite,
    generalization_bound,
    margin_for_equal_ramp_loss,
    rademacher_clubs,
    rademacher_spades,
    whole_network_cover_bound,
)
from .formats import (
    ARCH_VERSION,
    ArchLayer,
    build_net,
    default_arch_doc,
    load_archdoc,
    parse_archdoc,
    read_archdoc_text,
    read_checkpoint,
    read_logit_record,
    resolve_tensors,
    write_checkpoint,
    write_logit_record,
)
from .traindemo import (
    TrainConfig,
    comparison_stats_and_logits,
    margin_values,
    ramp_risk,
    synth_data,
    train_projected,
    zero_one_error,
)

# ARCH_VERSION is re-exported: perfbench writes arch docs through this module
__all__ = ["ARCH_VERSION", "build_parser", "main"]


# ---------------------------------------------------------------------------
# shared report plumbing


def _tolist(value):
    """json's fallback for numpy scalars and arrays (a np.float64 is a float
    and needs none)."""
    return value.tolist()


def _report_dict(report: BoundReport) -> dict:
    out = {"value": report.value, "log10": report.log10_value,
           "absent": report.absent}
    if report.reason:
        out["reason"] = report.reason
    if report.breakdown:
        out["breakdown"] = report.breakdown
    return out


def _emit(doc: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, default=_tolist))
    else:
        for line in lines:
            print(line)


def _fmt(x, width: int = 11) -> str:
    if x is None:
        return "-".rjust(width)
    if isinstance(x, float) and not math.isfinite(x):
        return str(x).rjust(width)
    return f"{x:.5g}".rjust(width)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    ckpt = read_checkpoint(args.checkpoint)
    graph = load_archdoc(args.archdoc)
    graph.check_batch(args.n, "--n")
    net, references = build_net(graph, ckpt)
    batch, labels = synth_data(args.task, args.n, seed=args.data_seed)

    stats, dstats, logits = comparison_stats_and_logits(net, references,
                                                        batch)
    margins = margin_values(logits, labels)
    error = zero_one_error(logits, labels)

    if args.equal_ramp_to is not None:
        ref_logits, ref_labels, ref_gamma = read_logit_record(args.equal_ramp_to)
        search = margin_for_equal_ramp_loss(
            ref_logits, ref_labels, ref_gamma, logits, labels, tol=args.tol)
        if not search.found:
            raise NumericalError(
                f"no margin matches the reference ramp risk "
                f"{search.target_risk:.6g} (achieved {search.achieved_risk:.6g})")
        gamma = search.gamma
        gamma_source = {"mode": "equal_ramp", "reference": args.equal_ramp_to,
                        "reference_gamma": ref_gamma,
                        "target_risk": search.target_risk}
    else:
        gamma = args.gamma
        gamma_source = {"mode": "flag"}

    ramp = ramp_risk(logits, labels, gamma)
    if args.dump_logits is not None:
        write_logit_record(args.dump_logits, logits, labels, gamma)

    inp = CapacityInput(dstats.blocks, batch.n, dstats.data_norm, gamma)
    terms = capacity_terms(inp)
    clubs = rademacher_clubs(inp)
    spades = rademacher_spades(inp)
    comparison = comparison_suite(stats, dstats, batch.n, gamma, graph.kappa)
    gen = {which: generalization_bound(inp, ramp, args.delta, which)
           for which in ("clubs", "spades")}

    layer_rows = []
    for layer, blk, entry in zip(graph.layers, inp.blocks, terms.entries):
        record = blk.layers[0]
        layer_rows.append({
            "name": layer.name,
            "lip": record.lip,
            "lip_method": "fft_exact",   # build_net admits circular stride 1
            "dist": record.dist,
            "rho": record.rho,
            "w": record.w,
            "capacity_c": entry.c,
            "lip_bound": layer.lip_bound,
            "dist_bound": layer.dist_bound,
        })

    doc = {
        "command": "analyze",
        "n": batch.n,
        "kappa": graph.kappa,
        "gamma": gamma,
        "gamma_source": gamma_source,
        "delta": args.delta,
        "data_norm": inp.data_norm,
        "layers": layer_rows,
        "lip_median": float(np.median([r["lip"] for r in layer_rows])),
        "dist_median": float(np.median([r["dist"] for r in layer_rows])),
        "margin_median": float(np.median(margins)),
        "error": error,
        "ramp_risk": ramp,
        "clubs": _report_dict(clubs),
        "spades": _report_dict(spades),
        "generalization": {k: _report_dict(v) for k, v in gen.items()},
        "comparison": {k: _report_dict(v) for k, v in comparison.items()},
    }
    if args.epsilon is not None:
        doc["cover"] = {
            "epsilon": args.epsilon,
            "norms": _report_dict(whole_network_cover_bound(
                inp, args.epsilon, variant="norms")),
            "params": _report_dict(whole_network_cover_bound(
                inp, args.epsilon, variant="params")),
        }

    lines = [
        f"analyze  n={batch.n}  task={args.task}  gamma={gamma:.6g}  "
        f"delta={args.delta:g}",
        "",
        f"{'layer':<12}{'lip':>11}{'dist':>11}{'rho':>7}{'w':>7}"
        f"{'s-bound':>11}{'b-bound':>11}",
    ]
    for r in layer_rows:
        lines.append(
            f"{r['name']:<12}{_fmt(r['lip'])}{_fmt(r['dist'])}"
            f"{r['rho']:>7.3g}{r['w']:>7d}"
            f"{_fmt(r['lip_bound'])}{_fmt(r['dist_bound'])}")
    lines += [
        "",
        f"lip med {doc['lip_median']:.4g} | dist med {doc['dist_median']:.4g}"
        f" | mar {doc['margin_median']:.4g} | err {error:.4g}"
        f" | clubs {clubs.value:.4g} (log10 {_fmt(clubs.log10_value, 8).strip()})"
        f" | spades {spades.value:.4g} (log10 {_fmt(spades.log10_value, 8).strip()})",
        "",
        "comparison (log10):",
    ]
    for name, row in comparison.items():
        if row.absent:
            lines.append(f"  {name:<22} absent: {row.reason}")
        else:
            lines.append(f"  {name:<22} {row.log10_value:12.4f}")
    lines += [
        "",
        f"generalization at delta={args.delta:g}: "
        f"clubs {gen['clubs'].value:.6g}, spades {gen['spades'].value:.6g}",
    ]
    if args.epsilon is not None:
        lines.append(
            f"log cover at eps={args.epsilon:g}: "
            f"norms {doc['cover']['norms']['value']:.6g}, "
            f"params {doc['cover']['params']['value']:.6g}")
    _emit(doc, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# project


def _measure_layer(weight: np.ndarray, reference: np.ndarray,
                   layer: ArchLayer):
    """The layer's (2,1) distance and its `SpectralEstimate`."""
    dist = group_norm_21(KernelTensor(weight - reference))
    return dist, operator_norm(KernelTensor(weight), layer.spec)


def _lip_fields(when: str, estimate) -> dict:
    """A row's lip_before/lip_after, with the power iteration's iterations
    and residual: its value is a lower estimate, not an exact norm."""
    fields = {f"lip_{when}": estimate.value}
    if estimate.method == "power_iteration":
        fields[f"lip_iterations_{when}"] = estimate.iterations_used
        fields[f"lip_residual_{when}"] = estimate.residual
    return fields


def cmd_project(args) -> int:
    rounds = (DEFAULT_BUDGETS[args.scheme] if args.max_iters is None
              else args.max_iters)
    if rounds < 1:
        raise UsageError("--max-iters must be >= 1")
    ckpt = read_checkpoint(args.checkpoint)
    graph = load_archdoc(args.archdoc)
    resolved = resolve_tensors(graph, ckpt)
    # built per call, so a rebinding of these module names is honoured
    run = {"alternating": alternating_projections, "dykstra": admm,
           "radial": radial_cycle}[args.scheme]

    out_weights = {}
    out_references = {}
    rows = []
    for layer, weight, reference in resolved:
        passthrough, out_references[layer.name] = ckpt.stored(layer.name)
        row = {"name": layer.name, "scheme": args.scheme,
               "lip_bound": layer.lip_bound, "dist_bound": layer.dist_bound,
               "error": None, "projected": False, "converged": True,
               "rounds_run": 0, "clip_svds": 0}
        dist0, estimate0 = _measure_layer(weight, reference, layer)
        row.update(dist_before=dist0, lip_method=estimate0.method,
                   **_lip_fields("before", estimate0))

        needs_spectral = math.isfinite(layer.lip_bound)
        geometry = layer.geometry_reason if needs_spectral else None
        feasible = (dist0 <= layer.dist_bound
                    and estimate0.value <= layer.lip_bound)
        if feasible or geometry is not None:
            if not feasible:
                row["error"] = f"spectral projection needs {geometry}"
            out_weights[layer.name] = passthrough
            row.update(dist_after=dist0, **_lip_fields("after", estimate0))
            rows.append(row)
            continue

        row["projected"] = True
        if not needs_spectral:
            projected = project_l21_ball(
                KernelTensor(weight), KernelTensor(reference),
                layer.dist_bound)
            dist1, estimate1 = _measure_layer(projected.entries, reference,
                                              layer)
            after = _lip_fields("after", estimate1)
            row.update(rounds_run=1, converged=True)
        else:
            cs = ConstraintSet(reference=KernelTensor(reference),
                               distance_bound=layer.dist_bound,
                               lipschitz_bound=layer.lip_bound,
                               conv=layer.spec)
            projected, rep = run(KernelTensor(weight), cs, rounds,
                                 tol=args.tol)
            # the geometry is fft-eligible, so the report's lip is exact
            dist1, after = rep.final_dist, {"lip_after": rep.final_lip}
            row.update(rounds_run=rep.rounds_run, converged=rep.converged,
                       clip_svds=rep.clip_svds)
        out_weights[layer.name] = projected.entries
        row.update(dist_after=dist1, **after)
        rows.append(row)

    write_checkpoint(args.out, out_weights, out_references)
    doc = {"command": "project", "scheme": args.scheme, "rounds": rounds,
           "tol": args.tol, "output": args.out, "layers": rows}
    lines = [f"project  scheme={args.scheme}  rounds={rounds}  -> {args.out}",
             "",
             f"{'layer':<12}{'dist':>11}{'lip':>11}{'dist(out)':>11}"
             f"{'lip(out)':>11}{'b':>9}{'s':>9}  note"]
    for r in rows:
        note = r["error"] or ("projected" if r["projected"] else "feasible")
        if r["projected"] and not r["converged"]:
            note += " (tolerance not reached)"
        lines.append(
            f"{r['name']:<12}{_fmt(r['dist_before'])}{_fmt(r['lip_before'])}"
            f"{_fmt(r['dist_after'])}{_fmt(r['lip_after'])}"
            f"{_fmt(r['dist_bound'], 9)}{_fmt(r['lip_bound'], 9)}  {note}")
    _emit(doc, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# train-demo


def _parse_grid(text: str, flag: str):
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = math.inf if token in ("inf", "Infinity") else float(token)
        except ValueError as exc:
            raise UsageError(f"{flag}: cannot parse {token!r}") from exc
        if not value > 0:
            raise UsageError(f"{flag}: bounds must be > 0, got {token}")
        values.append(value)
    if not values:
        raise UsageError(f"{flag} lists no values")
    return values


def cmd_train_demo(args) -> int:
    if args.arch is not None:
        arch_text = read_archdoc_text(args.arch)
    else:
        arch_text = json.dumps(default_arch_doc(), indent=2)
    graph = parse_archdoc(arch_text)
    reason = graph.executable_reason()
    if reason is not None:   # reject before any data or files are made
        raise UsageError(reason)
    names = [layer.name for layer in graph.layers]
    graph.check_batch(args.n, "--n")
    graph.check_batch(args.n_test, "--n-test")

    batch, labels = synth_data(args.task, args.n, seed=args.data_seed)
    test_batch, test_labels = synth_data(args.task, args.n_test,
                                         seed=args.data_seed + 1)
    lip_grid = _parse_grid(args.lip_grid, "--lip-grid")
    dist_grid = _parse_grid(args.dist_grid, "--dist-grid")
    config = TrainConfig(lr=args.lr, batch_size=args.batch_size,
                         epochs=args.epochs, cadence=args.cadence,
                         seed=args.seed)

    if args.save_dir is not None:
        os.makedirs(args.save_dir, exist_ok=True)
        with open(f"{args.save_dir}/arch.json", "w", encoding="utf-8") as fh:
            fh.write(arch_text)

    cells = []
    for lip_bound in lip_grid:
        for dist_bound in dist_grid:
            net = graph.new_net(args.seed)
            result = train_projected(net, batch, labels, config,
                                     lip_bound=lip_bound,
                                     dist_bound=dist_bound,
                                     test_batch=test_batch,
                                     test_labels=test_labels)
            train_error, test_error = result.train_error, result.test_error
            cell = {
                "lip_bound": lip_bound,
                "dist_bound": dist_bound,
                "diverged": result.diverged,
                "feasible": result.feasible,
                "post_rounds_used": result.post_rounds_used,
                "cap_hit": result.cap_hit,
                "train_error": train_error,
                "test_error": test_error,
                "train_accuracy": 1.0 - train_error,
                "test_accuracy": 1.0 - test_error,
                "trajectory": [asdict(s) for s in result.trajectory],
            }
            cells.append(cell)
            if args.save_dir is not None:
                tag = (f"s{_grid_tag(lip_bound)}_b{_grid_tag(dist_bound)}")
                write_checkpoint(
                    f"{args.save_dir}/cell_{tag}.ckpt",
                    {n: k for n, k in zip(names, result.net.kernels)},
                    {n: r for n, r in zip(names, result.references)})
                with open(f"{args.save_dir}/cell_{tag}.jsonl", "w",
                          encoding="utf-8") as fh:
                    for rec in cell["trajectory"]:
                        fh.write(json.dumps(rec, default=_tolist) + "\n")

    doc = {"command": "train-demo", "task": args.task, "n": args.n,
           "n_test": args.n_test, "seed": args.seed,
           "data_seed": args.data_seed, "epochs": args.epochs,
           "cadence": args.cadence, "lip_grid": lip_grid,
           "dist_grid": dist_grid, "cells": cells}
    lines = [f"train-demo  task={args.task}  n={args.n}  seed={args.seed}  "
             f"epochs={args.epochs}",
             "",
             "test accuracy per (s, b) cell:",
             "  " + "".join(f"{'b=' + f'{b:g}':>12}" for b in dist_grid)]
    i = 0
    for lip_bound in lip_grid:
        row = [f"s={lip_bound:g}".ljust(10)]
        for _ in dist_grid:
            cell = cells[i]
            label = ("diverged" if cell["diverged"]
                     else f"{cell['test_accuracy']:.3f}")
            if not cell["feasible"] and not cell["diverged"]:
                label += "*"
            row.append(label.rjust(12))
            i += 1
        lines.append("  " + "".join(row))
    lines.append("")
    lines.append("(* = constraint tolerance not reached)")
    _emit(doc, args.json, lines)
    return 0


def _grid_tag(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:g}"


# ---------------------------------------------------------------------------
# spectra


def cmd_spectra(args) -> int:
    ckpt = read_checkpoint(args.checkpoint)
    graph = load_archdoc(args.archdoc)
    resolved = resolve_tensors(graph, ckpt)
    rows = []
    for layer, weight, _ in resolved:
        geometry = layer.geometry_reason
        if geometry is not None:
            rows.append({"name": layer.name, "skipped": True,
                         "reason": f"exact spectra need {geometry}"})
            continue
        report = fft_exact_spectrum(KernelTensor(weight), layer.spec)
        qs = np.quantile(report.values, [0.0, 0.25, 0.5, 0.75, 1.0])
        rows.append({
            "name": layer.name, "skipped": False,
            "count": int(report.values.size),
            "min": float(qs[0]), "q25": float(qs[1]), "median": float(qs[2]),
            "q75": float(qs[3]), "max": float(qs[4])})
    doc = {"command": "spectra", "layers": rows}
    lines = ["spectra", "",
             f"{'layer':<12}{'count':>7}{'min':>11}{'q25':>11}{'median':>11}"
             f"{'q75':>11}{'max':>11}"]
    for r in rows:
        if r["skipped"]:
            lines.append(f"{r['name']:<12} skipped: {r['reason']}")
        else:
            lines.append(
                f"{r['name']:<12}{r['count']:>7d}{_fmt(r['min'])}"
                f"{_fmt(r['q25'])}{_fmt(r['median'])}{_fmt(r['q75'])}"
                f"{_fmt(r['max'])}")
    _emit(doc, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number(check, requirement: str, kind=float):
    """An argparse type: a `kind` (float or int) that passes `check`, else
    the usage error "must be <requirement>"."""
    def number(text: str):
        value = kind(text)
        if not check(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}")
        return value
    return number


_tolerance = _number(lambda v: math.isfinite(v) and v >= 0,
                     "a finite number >= 0")
_positive = _number(lambda v: math.isfinite(v) and v > 0,
                    "a finite number > 0")
_probability = _number(lambda v: 0 < v < 1, "in (0, 1)")
_seed = _number(lambda v: v >= 0, "an int >= 0", int)   # as default_rng asks


def _add_common(sub) -> None:
    sub.add_argument("--json", action="store_true",
                     help="emit a JSON document instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="capbound",
                     description="capacity bounds and constraint tooling "
                                 "for small conv/residual nets")
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("analyze", help="measure a checkpoint's capacity")
    p.add_argument("checkpoint")
    p.add_argument("archdoc")
    p.add_argument("--task", choices=("blobs", "rings"), default="blobs")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--data-seed", type=_seed, default=0)
    p.add_argument("--gamma", type=_positive, default=1.0,
                   help="ramp-loss margin scale")
    p.add_argument("--equal-ramp-to", default=None, metavar="NPZ",
                   help="pick gamma so ramp risk matches this logit record")
    p.add_argument("--dump-logits", default=None, metavar="NPZ",
                   help="save this run's logits for later --equal-ramp-to")
    p.add_argument("--delta", type=_probability, default=0.01,
                   help="confidence level for the generalization bound")
    p.add_argument("--epsilon", type=_positive, default=None,
                   help="also report log covering numbers at this radius")
    p.add_argument("--tol", type=_tolerance, default=1e-3,
                   help="ramp-risk tolerance of the --equal-ramp-to search")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("project", help="project weights onto constraints")
    p.add_argument("checkpoint")
    p.add_argument("archdoc")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--scheme", choices=tuple(DEFAULT_BUDGETS),
                   default="alternating",
                   help="alternating cycles, the nearest point (dykstra: "
                        "ADMM with a residual stop) or radial rescaling")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                   help="relative excess a converged layer may keep")
    budgets = ", ".join(f"{k} {v}" for k, v in DEFAULT_BUDGETS.items())
    p.add_argument("--max-iters", type=int, default=None,
                   help=f"rounds or iterations; for dykstra a cap, and "
                        f"rounds_run reports the iterations used "
                        f"(default: {budgets})")
    _add_common(p)
    p.set_defaults(func=cmd_project)

    p = subs.add_parser("train-demo",
                        help="train over a grid of (s, b) constraint pairs")
    p.add_argument("--task", choices=("blobs", "rings"), default="blobs")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--n-test", type=int, default=128)
    p.add_argument("--data-seed", type=_seed, default=2)
    p.add_argument("--lip-grid", default="inf",
                   help="comma list of spectral bounds s (inf allowed)")
    p.add_argument("--dist-grid", default="inf",
                   help="comma list of (2,1)-distance bounds b (inf allowed)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--cadence", type=int, default=TrainConfig.cadence,
                   help="project every this many SGD steps")
    p.add_argument("--arch", default=None,
                   help="architecture document (default: built-in demo net)")
    p.add_argument("--save-dir", default=None,
                   help="write per-cell checkpoints and trajectory logs here")
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed of the nets' initial weights and SGD order")
    _add_common(p)
    p.set_defaults(func=cmd_train_demo)

    p = subs.add_parser("spectra",
                        help="exact singular-value summaries per layer")
    p.add_argument("checkpoint")
    p.add_argument("archdoc")
    _add_common(p)
    p.set_defaults(func=cmd_spectra)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on the first `main` call: argparse
    keeps no state between parses, and building it costs more than most
    parses."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ResourceError, MemoryError) as exc:
        # MemoryError: an input whose arrays do not fit, e.g. a huge grid
        print(f"resource failure: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
