"""In-memory span tracer that wraps capbound's public functions from outside.

The package itself is not modified. `Tracer.install` replaces each traced
function under every name it is looked up by: the defining module and every
capbound module that imported it with a `from` import (traindemo binds
`conv_forward_batch`, `alternating_projections` and `group_norm_21` that
way, cli binds `fft_exact_spectrum`, `dykstra` and more). Methods are
replaced on their class. The benchmark calls capbound through module
attributes, so its own calls are seen too. While the tracer is off a wrapper
is one flag test and a call.

A span is [name, start, end, parent, attrs]; the parent is the index of the
enclosing span, or -1 for a root. Spans stay in memory and are written once,
by `Tracer.dump`, when the run ends. A span's self time is its duration minus
the part of it that its child spans cover (single-threaded, so children nest
without overlap and their durations simply add up).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, ATTRS = range(5)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _conv_gflop(batch_axis):
    """Computed work of one conv call: 2 n c_out c_in k_h k_w out_h out_w."""
    def attrs(args, kwargs, result):
        kernel, spec, data = args[0], args[1], args[2]
        c_out, c_in, k_h, k_w = kernel.entries.shape
        out_h, out_w = spec.out_spatial
        n = data.shape[0] if batch_axis else 1
        return {"gflop": 2e-9 * n * c_out * c_in * k_h * k_w * out_h * out_w}
    return attrs


def _grid_cells(cs):
    _, h, w = cs.conv.input_shape
    return h * w


def _cycle_attrs(args, kwargs, result):
    """Rounds, convergence and computed SVD count of a projection cycle.

    Each cycle clips every frequency once when the spectral bound is finite
    and measures the spectrum once; the final report measures it once more.
    Every clip or measurement is one small SVD per grid frequency.
    """
    cs = _arg(args, kwargs, 1, "cs")
    report = result[1]
    clips = report.rounds_run if math.isfinite(cs.lipschitz_bound) else 0
    return {"rounds": report.rounds_run, "converged": report.converged,
            "svds": (clips + report.rounds_run + 1) * _grid_cells(cs)}


def _spectrum_attrs(args, kwargs, result):
    _, h, w = _arg(args, kwargs, 1, "spec").input_shape
    return {"svds": h * w}


def _train_attrs(args, kwargs, result):
    net, config = args[0], _arg(args, kwargs, 3, "config")
    return {"layers": len(net.blocks), "post_rounds": config.post_rounds}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute, span name, attrs callback). "Class.method" patches the
# class; a plain name patches the function under every name bound to it.
TARGETS = (
    ("capbound.convop", "conv_forward_batch", "convop.forward_batch",
     _conv_gflop(True)),
    ("capbound.convop", "conv_adjoint_batch", "convop.adjoint_batch",
     _conv_gflop(True)),
    ("capbound.convop", "conv_forward", "convop.forward", _conv_gflop(False)),
    ("capbound.convop", "conv_adjoint", "convop.adjoint", _conv_gflop(False)),
    ("capbound.traindemo", "ConvLayer.backward", "traindemo.conv_backward",
     None),
    ("capbound.traindemo", "MaxPool.forward", "traindemo.maxpool_forward",
     None),
    ("capbound.traindemo", "MaxPool.backward", "traindemo.maxpool_backward",
     None),
    ("capbound.traindemo", "TinyNet.forward", "traindemo.net_forward",
     lambda args, kwargs, result: {"samples": len(args[1])}),
    ("capbound.traindemo", "train_projected", "traindemo.train_projected",
     _train_attrs),
    ("capbound.project", "alternating_projections", "project.alternating",
     _cycle_attrs),
    ("capbound.project", "dykstra", "project.dykstra", _cycle_attrs),
    ("capbound.project", "radial_project", "project.radial", None),
    ("capbound.project", "project_l21_ball", "project.l21", None),
    ("capbound.lipschitz", "fft_exact_spectrum", "lipschitz.fft_exact",
     _spectrum_attrs),
    ("capbound.lipschitz", "power_iteration", "lipschitz.power_iteration",
     lambda args, kwargs, result: {"iters": result.iterations_used}),
    ("capbound.tensors", "group_norm_21", "tensors.group_norm_21", None),
    ("capbound.capacity", "capacity_terms", "capacity.bounds", None),
    ("capbound.capacity", "rademacher_clubs", "capacity.bounds", None),
    ("capbound.capacity", "rademacher_spades", "capacity.bounds", None),
    ("capbound.capacity", "generalization_bound", "capacity.bounds", None),
    ("capbound.capacity", "whole_network_cover_bound", "capacity.bounds",
     None),
    ("capbound.capacity", "comparison_suite", "capacity.comparison", None),
    ("capbound.cli", "read_checkpoint", "cli.checkpoint_read", _file_bytes),
    ("capbound.cli", "write_checkpoint", "cli.checkpoint_write", _file_bytes),
    ("capbound.cli", "parse_archdoc", "cli.archdoc_parse", None),
)


class Tracer:
    """Collects spans while `on` is true; does nothing otherwise."""

    def __init__(self):
        self.spans = []
        self.on = False
        self._stack = []

    def _enter(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _exit(self, idx) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around one of the benchmark's own operations."""
        if not self.on:
            yield
            return
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if attrs is not None:
                tracer.spans[idx][ATTRS] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target under every name bound to it in a capbound
        module."""
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "capbound" or key.startswith("capbound.")]
        for module_name, attr, span_name, attrs in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth,
                        self._wrap(span_name, cls.__dict__[meth], attrs))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, attrs)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one traced call adds over an untraced one, measured on a
        no-op; spans recorded here are discarded."""
        noop = self._wrap("noop", lambda: None, None)
        saved, self.spans, self.on = self.spans, [], False
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - t0
        self.on = True
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        traced = time.perf_counter() - t0
        self.spans, self.on = saved, False
        return max(0.0, traced - plain) / calls

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


def self_times(spans, lo: int, hi: int):
    """Self time of spans[lo:hi]; parents of a slice's spans lie in it or
    before it, so a slice that starts at a root is closed."""
    own = [s[END] - s[START] for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i][PARENT]
        if parent >= lo:
            own[parent - lo] -= spans[i][END] - spans[i][START]
    return own


def _ancestors(spans, i):
    parent = spans[i][PARENT]
    while parent >= 0:
        yield parent
        parent = spans[parent][PARENT]


def layer_metrics(spans, lo: int, hi: int, batch_size: int) -> dict:
    """Per-layer numbers of one traced pass, from the spans in [lo, hi).

    TinyNet.forward calls on more than `batch_size` samples are full-set
    evaluation passes; the others are SGD minibatches. Module totals
    (`convop.s`, `project.s`, `lipschitz.s`) and `capacity.bounds.s` count
    only outermost spans, so a call nested in another of the same kind is
    not counted twice.
    """
    own = self_times(spans, lo, hi)
    calls, incl, selfs, attr_sum = {}, {}, {}, {}
    bounds_outer = 0.0          # outermost capacity.bounds spans
    module_outer = {}           # module -> time of its outermost spans
    eval_s = train_s = 0.0
    eval_n = train_n = 0
    conv_in_train = 0.0
    post_rounds_used = 0.0
    converged = {"project.alternating": [], "project.dykstra": []}
    # attrs holding a bool are convergence flags; the rest are summed
    for i in range(lo, hi):
        name, start, end, _, attrs = spans[i]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        selfs[name] = selfs.get(name, 0.0) + own[i - lo]
        ups = list(_ancestors(spans, i))
        if name == "capacity.bounds" and not any(
                spans[j][NAME] == name for j in ups):
            bounds_outer += dur
        module = name.split(".")[0]
        if not any(spans[j][NAME].split(".")[0] == module for j in ups):
            module_outer[module] = module_outer.get(module, 0.0) + dur
        for key, value in (attrs or {}).items():
            if isinstance(value, bool):
                converged[name].append(value)
            else:
                attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value
        if name == "traindemo.net_forward":
            if attrs["samples"] > batch_size:
                eval_s += dur
                eval_n += attrs["samples"]
            else:
                train_s += dur
                train_n += attrs["samples"]
        if name == "project.alternating":
            cell = next((spans[j] for j in ups
                         if spans[j][NAME] == "traindemo.train_projected"),
                        None)
            if cell is not None and attrs["rounds"] > 1:
                # _project_all runs every layer once per post pass
                post_rounds_used += attrs["rounds"] / cell[ATTRS]["layers"]
        in_cell = any(spans[j][NAME] == "traindemo.train_projected"
                      for j in ups)
        if in_cell and name in ("convop.forward_batch",
                                "convop.adjoint_batch"):
            conv_in_train += dur
        if in_cell and name == "traindemo.conv_backward":
            conv_in_train += own[i - lo]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    def a(name, key):
        return attr_sum.get((name, key), 0)

    def ratio(name):
        flags = converged[name]
        return sum(flags) / len(flags) if flags else 0.0

    cell_s = s("traindemo.train_projected")
    out = {f"{module}.s": module_outer.get(module, 0.0)
           for module in ("convop", "project", "lipschitz")}
    for short in ("forward_batch", "adjoint_batch", "forward", "adjoint"):
        name = f"convop.{short}"
        out[f"{name}.calls"] = c(name)
        out[f"{name}.s"] = s(name)
        if short.endswith("batch"):
            out[f"{name}.gflop"] = a(name, "gflop")
    out["traindemo.weight_grad.s"] = selfs.get("traindemo.conv_backward", 0.0)
    for short in ("maxpool_forward", "maxpool_backward"):
        out[f"traindemo.{short}.calls"] = c(f"traindemo.{short}")
        out[f"traindemo.{short}.s"] = s(f"traindemo.{short}")
    out["traindemo.eval_forward.samples"] = eval_n
    out["traindemo.eval_forward.s"] = eval_s
    out["traindemo.train_forward.samples"] = train_n
    out["traindemo.train_forward.s"] = train_s
    out["traindemo.sgd.self_s"] = selfs.get("traindemo.train_projected", 0.0)
    out["project.alternating.calls"] = c("project.alternating")
    out["project.alternating.rounds"] = a("project.alternating", "rounds")
    out["project.alternating.s"] = s("project.alternating")
    out["project.alternating.converged_ratio"] = ratio("project.alternating")
    out["project.post_rounds_used"] = post_rounds_used
    out["project.dykstra.calls"] = c("project.dykstra")
    out["project.dykstra.iterations"] = a("project.dykstra", "rounds")
    out["project.dykstra.s"] = s("project.dykstra")
    out["project.dykstra.converged_ratio"] = ratio("project.dykstra")
    for short in ("radial", "l21"):
        out[f"project.{short}.calls"] = c(f"project.{short}")
        out[f"project.{short}.s"] = s(f"project.{short}")
    out["project.svds"] = (a("project.alternating", "svds")
                           + a("project.dykstra", "svds"))
    out["lipschitz.fft_exact.calls"] = c("lipschitz.fft_exact")
    out["lipschitz.fft_exact.s"] = s("lipschitz.fft_exact")
    out["lipschitz.fft_exact.svds"] = a("lipschitz.fft_exact", "svds")
    out["lipschitz.power_iteration.calls"] = c("lipschitz.power_iteration")
    out["lipschitz.power_iteration.iters"] = a("lipschitz.power_iteration",
                                               "iters")
    out["lipschitz.power_iteration.s"] = s("lipschitz.power_iteration")
    out["tensors.group_norm_21.calls"] = c("tensors.group_norm_21")
    out["tensors.group_norm_21.s"] = s("tensors.group_norm_21")
    out["capacity.bounds.s"] = bounds_outer
    out["capacity.comparison.s"] = s("capacity.comparison")
    for short in ("checkpoint_read", "checkpoint_write"):
        out[f"cli.{short}.calls"] = c(f"cli.{short}")
        out[f"cli.{short}.bytes"] = a(f"cli.{short}", "bytes")
        out[f"cli.{short}.s"] = s(f"cli.{short}")
    out["cli.archdoc_parse.s"] = s("cli.archdoc_parse")
    out["trace.conv_share_of_cell"] = conv_in_train / cell_s if cell_s else 0.0
    out["trace.spans"] = hi - lo
    return out


def self_time_residual(spans, lo: int, hi: int, root: str) -> float:
    """Largest |sum of self times in a `root` span's subtree - its duration|,
    relative to that duration; 0 when no such span exists."""
    own = self_times(spans, lo, hi)
    totals = {}
    for i in range(lo, hi):
        for j in [i] + list(_ancestors(spans, i)):
            if spans[j][NAME] == root and j >= lo:
                totals[j] = totals.get(j, 0.0) + own[i - lo]
    worst = 0.0
    for j, total in totals.items():
        dur = spans[j][END] - spans[j][START]
        worst = max(worst, abs(total - dur) / dur)
    return worst
