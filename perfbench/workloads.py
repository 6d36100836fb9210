"""The benchmark's three closed-loop workloads.

Each workload builds every input from the run seed in `setup`, runs one pass
in `run_pass` (a single client: each operation starts only after the
previous one returns), and checks that pass's outputs in `check` with
invariants that public capbound functions re-measure independently. Every
pass of a run repeats the same operations on the same inputs.

- train-rings: projected-SGD cells on the stock 2-block net, rings task.
  Batched conv forward/adjoint, the weight gradient and max-pool dominate.
- train-residual: a six-block residual net on blobs, then the comparison
  statistics, the comparison suite and both Rademacher bounds. Small arrays
  and six projected layers per cadence, so per-call overhead shows.
- tooling: `project` (all three schemes on the README demo net, Dykstra on
  a wider net), `spectra` and `analyze --epsilon` through
  `capbound.cli.main` on two fixture checkpoints. Per-frequency SVDs
  and power iteration dominate; batched conv barely runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

# The relative tolerance train_projected and the CLI's --tol default use to
# call a projection converged or a cell feasible.
PROJECTION_TOL = 1e-3
# Re-measuring a printed or returned number must agree this closely.
REMEASURE_RTOL = 1e-6
GAMMA = 0.5


def subseeds(seed: int, count: int):
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REMEASURE_RTOL * max(abs(a), abs(b), 1e-12)


@dataclass
class Checks:
    """Operations attempted and the ones whose outputs failed a check."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, op: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op}: {'; '.join(problems)}")


@dataclass
class PassResult:
    wall_s: float
    samples: dict        # metric name -> its values in this pass
    outputs: object      # what `check` inspects


class _Workload:
    batch_size = 16      # TrainConfig's minibatch size; larger forwards are
                         # full-set evaluations in the per-layer split

    def __init__(self, cb, seed: int, workdir: str):
        self.cb = cb
        self.seed = seed
        self.workdir = workdir

    def _kernel(self, array):
        return self.cb.tensors.KernelTensor(array)

    def _lip(self, array, spec) -> float:
        return self.cb.lipschitz.operator_norm(self._kernel(array), spec).value

    def _dist(self, array, reference) -> float:
        return self.cb.tensors.group_norm_21(self._kernel(array - reference))

    def _bound_problems(self, what, lip, dist, s, b):
        problems = []
        if lip > s * (1 + PROJECTION_TOL):
            problems.append(f"{what}: lip {lip:.6g} > s {s:g}")
        if dist > b * (1 + PROJECTION_TOL):
            problems.append(f"{what}: dist {dist:.6g} > b {b:g}")
        return problems


# ---------------------------------------------------------------------------
# training workloads


@dataclass(frozen=True)
class _Cell:
    batch: object
    labels: object
    test_batch: object
    test_labels: object
    config: object
    init_seed: int


class _Training(_Workload):
    """One projected-SGD cell per pass, then `after_training`."""

    task = ""
    n = n_test = epochs = 0
    lip_bound = dist_bound = 0.0

    def blocks(self):
        raise NotImplementedError

    def setup(self) -> None:
        td = self.cb.traindemo
        data_seed, test_seed, init_seed, sgd_seed = subseeds(self.seed, 4)
        batch, labels = td.synth_data(self.task, self.n, seed=data_seed)
        test_batch = test_labels = None
        if self.n_test:
            test_batch, test_labels = td.synth_data(
                self.task, self.n_test, seed=test_seed)
        config = td.TrainConfig(epochs=self.epochs,
                                batch_size=self.batch_size, seed=sgd_seed)
        self.cell = _Cell(batch, labels, test_batch, test_labels, config,
                          init_seed)

    def after_training(self, result, cell):
        """Work a user runs on the trained net; returns what to check."""
        return None

    def run_pass(self, tracer) -> PassResult:
        td, cell = self.cb.traindemo, self.cell
        start = time.perf_counter()
        net = td.TinyNet(self.blocks(), seed=cell.init_seed)
        with tracer.span("bench.cell"):
            t0 = time.perf_counter()
            result = td.train_projected(
                net, cell.batch, cell.labels, cell.config,
                lip_bound=self.lip_bound, dist_bound=self.dist_bound,
                test_batch=cell.test_batch, test_labels=cell.test_labels)
            cell_s = time.perf_counter() - t0
        with tracer.span("bench.after_training"):
            extra = self.after_training(result, cell)
        wall = time.perf_counter() - start
        losses = [result.final.mean_loss] if result.trajectory else []
        return PassResult(wall, {"cell_s": [cell_s], "final_loss": losses},
                          (result, extra))

    def check(self, outputs, checks: Checks) -> None:
        result, extra = outputs
        checks.record("train_projected", self._cell_problems(result))
        if extra is not None:
            checks.record("bounds", self._bounds_problems(extra))

    def _cell_problems(self, result):
        if result.diverged:
            return ["diverged"]
        problems = []
        if len(result.trajectory) != self.epochs:
            problems.append(f"{len(result.trajectory)} epochs logged")
        elif not math.isfinite(result.final.mean_loss):
            problems.append("final loss is not finite")
        if not result.feasible:
            return problems     # reported as infeasible: no claim to check
        for i, (blk, ref) in enumerate(zip(result.net.blocks,
                                           result.references)):
            lip = self.cb.lipschitz.fft_exact_norm(
                self._kernel(blk.conv.kernel), blk.conv.spec).value
            problems += self._bound_problems(
                f"block{i}", lip, self._dist(blk.conv.kernel, ref),
                self.lip_bound, self.dist_bound)
        return problems

    def _bounds_problems(self, extra):
        return []


class TrainRings(_Training):
    task, n, n_test, epochs = "rings", 128, 128, 60
    lip_bound, dist_bound = 2.0, 1.0

    def blocks(self):
        bs = self.cb.traindemo.BlockSpec
        return [bs(1, 8, 3, pool="max3"), bs(8, 8, 3)]


class TrainResidual(_Training):
    task, n, n_test, epochs = "blobs", 64, 0, 30
    lip_bound, dist_bound = 2.0, 3.0

    def blocks(self):
        bs = self.cb.traindemo.BlockSpec
        return [bs(1, 4, 3),
                bs(4, 4, 3, shortcut="identity"),
                bs(4, 8, 3, pool="max3", shortcut="double"),
                bs(8, 8, 3, shortcut="identity"),
                bs(8, 8, 3),
                bs(8, 4, 3)]

    def after_training(self, result, cell):
        td, cap = self.cb.traindemo, self.cb.capacity
        stats, dstats = td.comparison_stats_from_net(
            result.net, result.references, cell.batch)
        rows = cap.comparison_suite(stats, dstats, cell.batch.n, GAMMA, 2)
        inp = td.capacity_input_from_net(
            result.net, result.references, cell.batch.n,
            self.cb.tensors.data_norm(cell.batch), GAMMA)
        return {"clubs": cap.rademacher_clubs(inp),
                "spades": cap.rademacher_spades(inp), "comparison": rows}

    def _bounds_problems(self, extra):
        problems = []
        for name in ("clubs", "spades"):
            value = extra[name].value
            if not (math.isfinite(value) and value > 0):
                problems.append(f"{name} = {value}")
        # The suite marks rows absent (with a reason) or saturated (value
        # inf) by design; a present row's log10 must match its value.
        for name, row in extra["comparison"].items():
            if row.absent:
                if not row.reason:
                    problems.append(f"comparison {name}: absent, no reason")
            elif row.saturated:
                if row.value != math.inf:
                    problems.append(f"comparison {name}: saturated at "
                                    f"{row.value}")
            elif not (math.isfinite(row.value) and row.value >= 0
                      and (row.value == 0 or _close(math.log10(row.value),
                                                    row.log10_value))):
                problems.append(f"comparison {name}: value {row.value}, "
                                f"log10 {row.log10_value}")
        return problems


# ---------------------------------------------------------------------------
# tooling


@dataclass(frozen=True)
class _Fixture:
    name: str
    checkpoint: str
    archdoc: str
    schemes: tuple      # `project --scheme` values run on this fixture


class Tooling(_Workload):
    epsilon = 0.1

    def setup(self) -> None:
        cli = self.cb.cli
        rng = np.random.default_rng(self.seed)
        self.data_seed = int(rng.integers(2**31))
        demo = cli.default_arch_doc()
        wide = {"format_version": cli.ARCH_VERSION, "input": [8, 16, 16],
                "kappa": 2, "blocks": [
                    {"name": "wide0", "c_out": 16, "k": 3},
                    {"name": "wide1", "c_out": 16, "k": 3},
                    {"name": "wide2", "c_out": 4, "k": 3,
                     "padding": "zero_same"},
                    {"name": "wide3", "c_out": 4, "k": 3, "stride": 2}]}
        # demo: the distance projection alone lands inside the spectral
        # ball, so every scheme converges and its bound claims are checked.
        # wide: both balls bind at the solution, the slow case that spends
        # every Dykstra cycle on real SVD clipping. Its zero_same and
        # stride-2 layers go through power iteration, whose iteration count
        # swings 2-3x between random kernels; running one scheme there keeps
        # that swing a small share of the pass.
        self.fixtures = [
            self._write_fixture("demo", demo, rng, 1.0, 2.0,
                                ("alternating", "dykstra", "radial")),
            self._write_fixture("wide", wide, rng, 1.5, 1.6, ("dykstra",))]
        self._power_lips = {}

    def _write_fixture(self, name, doc, rng, ref_lip, stretch,
                       schemes) -> _Fixture:
        """Weights `stretch * reference + noise` against s = 1.8 on circular
        stride-1 layers (reference rescaled to operator norm `ref_lip`), and
        `reference + noise` on the others; b is half the weight's distance.
        The reference meets both bounds, so the intersection is never
        empty."""
        cli, proj = self.cb.cli, self.cb.project
        graph = cli.parse_archdoc(json.dumps(doc))
        weights, references = {}, {}
        for layer, block in zip(graph.layers, doc["blocks"]):
            shape = layer.kernel_shape
            fan_in = shape[1] * shape[2] * shape[3]
            ref = rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)
            noise = rng.standard_normal(shape) * (0.2 * np.linalg.norm(ref)
                                                  / math.sqrt(ref.size))
            if self.cb.lipschitz.fft_eligible(layer.spec):
                ref = proj.init_scale_to_feasible(
                    self._kernel(ref), layer.spec, ref_lip).entries
                weight = stretch * ref + noise
                block["s"] = 1.8
            else:
                weight = ref + noise
            block["b"] = 0.5 * self._dist(weight, ref)
            weights[layer.name], references[layer.name] = weight, ref
        archdoc = os.path.join(self.workdir, f"{name}.arch.json")
        with open(archdoc, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        checkpoint = os.path.join(self.workdir, f"{name}.ckpt")
        cli.write_checkpoint(checkpoint, weights, references)
        return _Fixture(name, checkpoint, archdoc, schemes)

    def _lip(self, array, spec) -> float:
        """Power iteration is deterministic for a given kernel, so each
        distinct kernel is re-measured once per run."""
        if self.cb.lipschitz.fft_eligible(spec):
            return super()._lip(array, spec)
        key = (array.tobytes(), spec)
        if key not in self._power_lips:
            self._power_lips[key] = super()._lip(array, spec)
        return self._power_lips[key]

    def _cli(self, tracer, argv):
        """Run one subcommand; returns (exit code, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span(f"bench.{argv[0]}"):
                t0 = time.perf_counter()
                code = self.cb.cli.main(argv)
                seconds = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), seconds

    def run_pass(self, tracer) -> PassResult:
        project_s = measure_s = 0.0
        outputs = []
        start = time.perf_counter()
        for fx in self.fixtures:
            for scheme in fx.schemes:
                out = os.path.join(self.workdir, f"{fx.name}-{scheme}.ckpt")
                code, stdout, stderr, dt = self._cli(tracer, [
                    "project", fx.checkpoint, fx.archdoc, "--out", out,
                    "--scheme", scheme, "--json"])
                project_s += dt
                outputs.append(("project", fx, code, stdout, stderr, out))
            code, stdout, stderr, dt = self._cli(tracer, [
                "spectra", fx.checkpoint, fx.archdoc, "--json"])
            measure_s += dt
            outputs.append(("spectra", fx, code, stdout, stderr, None))
        fx = self.fixtures[0]
        code, stdout, stderr, dt = self._cli(tracer, [
            "analyze", fx.checkpoint, fx.archdoc, "--task", "blobs",
            "--data-seed", str(self.data_seed), "--gamma", str(GAMMA),
            "--epsilon", str(self.epsilon), "--json"])
        measure_s += dt
        outputs.append(("analyze", fx, code, stdout, stderr, None))
        wall = time.perf_counter() - start
        return PassResult(wall, {"project_s": [project_s],
                                 "measure_s": [measure_s]}, outputs)

    def check(self, outputs, checks: Checks) -> None:
        for command, fx, code, stdout, stderr, out in outputs:
            op = f"{command} {fx.name}"
            if code != 0:
                checks.record(op, [f"exit {code}: {stderr.strip()}"])
                continue
            check = getattr(self, f"_check_{command}")
            try:
                problems = check(fx, json.loads(stdout), out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            checks.record(op, problems)

    def _layers(self, fx, checkpoint):
        cli = self.cb.cli
        ckpt = cli.read_checkpoint(checkpoint)
        return [(layer, ckpt.weight(layer.name), ckpt.reference_for(layer.name))
                for layer in cli.load_archdoc(fx.archdoc).layers]

    def _check_project(self, fx, doc, out):
        layers = self._layers(fx, out)
        problems = []
        if len(doc["layers"]) != len(layers):
            problems.append(f"{len(doc['layers'])} rows, {len(layers)} layers")
        for row, (layer, weight, ref) in zip(doc["layers"], layers):
            lip, dist = self._lip(weight, layer.spec), self._dist(weight, ref)
            if row["error"] is not None:
                problems.append(f"{layer.name}: {row['error']}")
            if not (_close(lip, row["lip_after"])
                    and _close(dist, row["dist_after"])):
                problems.append(
                    f"{layer.name}: re-measured lip {lip:.9g} dist "
                    f"{dist:.9g}, printed {row['lip_after']:.9g} "
                    f"{row['dist_after']:.9g}")
            if row["converged"]:
                problems += self._bound_problems(
                    layer.name, lip, dist, layer.lip_bound, layer.dist_bound)
        return problems

    def _check_spectra(self, fx, doc, out):
        problems = []
        for row, (layer, weight, _) in zip(doc["layers"],
                                            self._layers(fx, fx.checkpoint)):
            eligible = self.cb.lipschitz.fft_eligible(layer.spec)
            if row["skipped"] == eligible:
                problems.append(f"{layer.name}: skipped={row['skipped']}")
                continue
            if row["skipped"]:
                continue
            c_in, h, w = layer.spec.input_shape
            if row["count"] != h * w * min(c_in, layer.c_out):
                problems.append(f"{layer.name}: {row['count']} values")
            lip = self._lip(weight, layer.spec)
            if not _close(lip, row["max"]):
                problems.append(f"{layer.name}: max {row['max']:.9g} != "
                                f"re-measured {lip:.9g}")
        return problems

    def _check_analyze(self, fx, doc, out):
        problems = []
        bounds = {"clubs": doc["clubs"], "spades": doc["spades"],
                  **{f"cover.{k}": doc["cover"][k] for k in ("norms",
                                                              "params")}}
        for name, report in bounds.items():
            if not math.isfinite(report["value"]):
                problems.append(f"{name} = {report['value']}")
        for row, (layer, weight, ref) in zip(doc["layers"],
                                              self._layers(fx, fx.checkpoint)):
            if not (_close(self._lip(weight, layer.spec), row["lip"])
                    and _close(self._dist(weight, ref), row["dist"])):
                problems.append(f"{layer.name}: lip/dist do not re-measure")
        return problems


WORKLOADS = {"train-rings": TrainRings, "train-residual": TrainResidual,
             "tooling": Tooling}
