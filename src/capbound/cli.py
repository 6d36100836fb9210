"""Command-line surface and on-disk formats for the capacity toolbox.

One file format ties the pipeline together: a checkpoint container holding a
human-readable manifest followed by raw little-endian tensor payloads, plus a
JSON architecture document describing the network the tensors parameterize.
Four commands operate on the pair: `analyze` measures capacity statistics and
bounds, `project` enforces constraints, `train-demo` runs the constrained
trainer over a bounds grid, and `spectra` dumps exact singular-value
summaries.

All reports are JSON when --json is passed, fixed-width text otherwise.
Non-finite numbers serialize as the Infinity/NaN literals Python's json
module emits and re-reads losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import zipfile
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from .errors import NumericalError, ResourceError, UsageError
from .tensors import KernelTensor, group_norm_21
from .convop import ConvSpec
from .lipschitz import fft_eligible, fft_exact_spectrum, operator_norm
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
from .traindemo import (
    BlockSpec,
    TinyNet,
    TrainConfig,
    comparison_stats_from_net,
    margin_values,
    ramp_risk,
    synth_data,
    train_projected,
    zero_one_error,
)


# ---------------------------------------------------------------------------
# checkpoint container
#
# Layout: one ASCII header line `CAPBOUND-CKPT v1 manifest_bytes=<N>`, then
# exactly N bytes of JSON manifest, then the payload. Tensors live in the
# payload as contiguous little-endian row-major (o, i, a, b) arrays at the
# offsets the manifest declares.

CKPT_MAGIC = "CAPBOUND-CKPT"
CKPT_VERSION = 1
# bounded digit runs: int() refuses strings past 4300 digits
_HEADER_RE = re.compile(
    r"^CAPBOUND-CKPT v(\d{1,9}) manifest_bytes=(\d{1,18})$")
_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_NP_TO_DTYPE = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
ZERO_REFERENCE = "zero"
# What json.loads raises on malformed text: ValueError covers bad UTF-8,
# bad syntax and integers past int()'s digit limit; RecursionError deep
# nesting.
_JSON_ERRORS = (ValueError, RecursionError)


@dataclass(frozen=True)
class TensorEntry:
    name: str
    role: str                      # weight | reference
    shape: tuple
    dtype: str                     # f32 | f64
    byte_offset: int
    byte_length: int
    reference: str | None = None   # weights only: entry name or "zero"


@dataclass(frozen=True)
class Checkpoint:
    entries: tuple
    arrays: dict                   # name -> ndarray in the stored dtype

    def entry(self, name: str) -> TensorEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise UsageError(f"checkpoint has no tensor named {name!r}")

    def weight_names(self):
        return [e.name for e in self.entries if e.role == "weight"]

    def weight(self, name: str) -> np.ndarray:
        e = self.entry(name)
        if e.role != "weight":
            raise UsageError(f"tensor {name!r} has role {e.role!r}, not weight")
        return np.asarray(self.arrays[name], dtype=np.float64)

    def reference_for(self, name: str) -> np.ndarray:
        e = self.entry(name)
        if e.reference == ZERO_REFERENCE:
            return np.zeros(e.shape, dtype=np.float64)
        return np.asarray(self.arrays[e.reference], dtype=np.float64)


def _as_stored(array: np.ndarray, dtype: str | None, name: str) -> np.ndarray:
    arr = np.asarray(array)
    key = dtype
    if key is None:
        key = _NP_TO_DTYPE.get(np.dtype(arr.dtype.newbyteorder("=")))
        if key is None:
            raise UsageError(
                f"tensor {name!r} has dtype {arr.dtype}, "
                f"checkpoints hold f32/f64")
    return np.ascontiguousarray(arr.astype(_DTYPES[key]))


def write_checkpoint(path: str, weights: dict, references: dict,
                     dtype: str | None = None) -> None:
    """Write weights plus their references into one container file.

    `weights` maps tensor name -> array; `references` maps the same names to
    either a same-shape array or the string "zero". Arrays keep their own
    f32/f64 dtype unless `dtype` forces one. Entry order follows dict order,
    so output files are deterministic.
    """
    if dtype is not None and dtype not in _DTYPES:
        raise UsageError(f"dtype must be one of {sorted(_DTYPES)}")
    if set(weights) != set(references):
        raise UsageError("weights and references must cover the same names")
    entries = []
    chunks = []
    offset = 0

    def push(name, role, array, reference=None):
        nonlocal offset
        stored = _as_stored(array, dtype, name)
        raw = stored.tobytes(order="C")
        entries.append({
            "name": name,
            "role": role,
            "shape": list(stored.shape),
            "dtype": _NP_TO_DTYPE[stored.dtype.newbyteorder("=")],
            "byte_offset": offset,
            "byte_length": len(raw),
            **({"reference": reference} if reference is not None else {}),
        })
        chunks.append(raw)
        offset += len(raw)

    for name, array in weights.items():
        ref = references[name]
        if isinstance(ref, str):
            if ref != ZERO_REFERENCE:
                raise UsageError(
                    f"reference for {name!r} must be an array or "
                    f"{ZERO_REFERENCE!r}, got {ref!r}")
            push(name, "weight", array, reference=ZERO_REFERENCE)
        else:
            if np.asarray(ref).shape != np.asarray(array).shape:
                raise UsageError(
                    f"reference for {name!r} has shape "
                    f"{np.asarray(ref).shape}, weight has "
                    f"{np.asarray(array).shape}")
            push(name, "weight", array, reference=f"{name}.ref")
            push(f"{name}.ref", "reference", ref)

    manifest = json.dumps(
        {"format_version": CKPT_VERSION, "tensors": entries},
        indent=1).encode("ascii")
    header = f"{CKPT_MAGIC} v{CKPT_VERSION} manifest_bytes={len(manifest)}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(manifest)
        fh.write(b"".join(chunks))


def _is_int(value) -> bool:
    """JSON integer; JSON true/false parse as Python bools, which are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _manifest_entry(raw: dict, index: int) -> TensorEntry:
    where = f"manifest tensor #{index}"
    if not isinstance(raw, dict):
        raise UsageError(f"{where} must be a JSON object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise UsageError(f"{where} has no usable name")
    where = f"tensor {name!r}"
    role = raw.get("role")
    if role not in ("weight", "reference"):
        raise UsageError(f"{where}: role must be weight or reference, got {role!r}")
    dtype = raw.get("dtype")
    if dtype not in _DTYPES:
        raise UsageError(f"{where}: dtype must be f32 or f64, got {dtype!r}")
    shape = raw.get("shape")
    if (not isinstance(shape, list) or not shape
            or any(not _is_int(v) or v < 1 for v in shape)):
        raise UsageError(f"{where}: shape must be a list of positive ints")
    off, length = raw.get("byte_offset"), raw.get("byte_length")
    if not _is_int(off) or off < 0:
        raise UsageError(f"{where}: byte_offset must be a non-negative int")
    expected = math.prod(shape) * _DTYPES[dtype].itemsize
    if not _is_int(length) or length != expected:
        raise UsageError(
            f"{where}: byte_length {length} != product(shape)*itemsize {expected}")
    reference = raw.get("reference")
    if role == "weight":
        if not isinstance(reference, str) or not reference:
            raise UsageError(
                f"{where}: weight entries need a reference name or "
                f"the {ZERO_REFERENCE!r} marker")
    elif reference is not None:
        raise UsageError(f"{where}: reference entries cannot themselves refer")
    return TensorEntry(name, role, tuple(shape), dtype, off, expected, reference)


def read_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.find(b"\n")
    if newline < 0:
        raise UsageError("checkpoint has no header line")
    try:
        header = blob[:newline].decode("ascii")
    except UnicodeDecodeError as exc:
        raise UsageError("checkpoint header is not ASCII") from exc
    match = _HEADER_RE.match(header)
    if not match:
        raise UsageError(f"unrecognized checkpoint header {header!r}")
    if int(match.group(1)) != CKPT_VERSION:
        raise UsageError(f"unsupported checkpoint version {match.group(1)}")
    manifest_bytes = int(match.group(2))
    body = blob[newline + 1:]
    if len(body) < manifest_bytes:
        raise UsageError("checkpoint shorter than the declared manifest")
    try:
        manifest = json.loads(body[:manifest_bytes].decode("utf-8"))
    except _JSON_ERRORS as exc:
        raise UsageError(f"manifest does not parse: {exc}") from exc
    if not isinstance(manifest, dict):
        raise UsageError("manifest must be a JSON object")
    version = manifest.get("format_version")
    if not _is_int(version) or version != CKPT_VERSION:
        raise UsageError("manifest format_version mismatch")
    raw_entries = manifest.get("tensors")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise UsageError("manifest lists no tensors")
    entries = tuple(_manifest_entry(raw, i) for i, raw in enumerate(raw_entries))

    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})[0]
        raise UsageError(f"tensor {dup!r} appears twice in the manifest")

    payload = body[manifest_bytes:]
    spans = sorted(entries, key=lambda e: e.byte_offset)
    prev_end, prev_name = 0, None
    for e in spans:
        if e.byte_offset < prev_end:
            raise UsageError(
                f"tensor {e.name!r} overlaps tensor {prev_name!r} in the payload")
        end = e.byte_offset + e.byte_length
        if end > len(payload):
            raise UsageError(f"tensor {e.name!r} extends past the payload end")
        prev_end, prev_name = end, e.name

    by_name = {e.name: e for e in entries}
    for e in entries:
        if e.role != "weight" or e.reference == ZERO_REFERENCE:
            continue
        target = by_name.get(e.reference)
        if target is None:
            raise UsageError(
                f"tensor {e.name!r} references missing tensor {e.reference!r}")
        if target.role != "reference":
            raise UsageError(
                f"tensor {e.name!r} references {e.reference!r}, "
                f"whose role is {target.role!r}")
        if target.shape != e.shape:
            raise UsageError(
                f"reference {e.reference!r} shape {target.shape} differs "
                f"from weight {e.name!r} shape {e.shape}")

    arrays = {}
    for e in entries:
        flat = np.frombuffer(payload, dtype=_DTYPES[e.dtype],
                             count=math.prod(e.shape), offset=e.byte_offset)
        arrays[e.name] = flat.reshape(e.shape).copy()
    return Checkpoint(entries=entries, arrays=arrays)


# ---------------------------------------------------------------------------
# architecture documents
#
# JSON: {"format_version": 1, "input": [c, h, w], "kappa": 2, "blocks":
# [{"name", "c_out", "k", "stride", "padding", "pool", "shortcut", "s", "b"}]}
# Each block is a conv layer (named after its checkpoint tensor), a ReLU, an
# optional 3x3/2 max pool, and an optional additive shortcut from the block
# input. s and b are the per-layer Lipschitz and (2,1)-distance constraints;
# absent means unconstrained.

ARCH_VERSION = 1
# Largest grid a layer may have, in elements (c_out * c_in * h * w; 2**27
# float64 values are 1 GiB). The exact spectral routes build each kernel's
# frequency stack, c_out * c_in * h * (w//2 + 1) complex values, about that
# size, and the cap bounds the layer's input (c_in * h * w) and output
# (c_out * out_h * out_w) activations per sample too. A layer past the cap
# is refused while the doc is parsed, before anything of its size exists;
# a batch of n samples is refused (`ArchGraph.check_batch`) when n times a
# layer's largest per-sample array passes the cap.
MAX_LAYER_ELEMENTS = 2**27


@dataclass(frozen=True)
class ArchLayer:
    name: str
    spec: ConvSpec
    block: BlockSpec               # channels, pool and shortcut, validated
    lip_bound: float
    dist_bound: float
    in_shape: tuple
    out_shape: tuple

    @property
    def c_out(self) -> int:
        return self.block.c_out

    @property
    def post_lip(self) -> float:
        return self.block.post_lip

    @property
    def kernel_shape(self) -> tuple:
        k_h, k_w = self.spec.kernel_shape
        return (self.c_out, self.in_shape[0], k_h, k_w)


@dataclass(frozen=True)
class ArchGraph:
    input_shape: tuple
    kappa: int
    layers: tuple

    @property
    def feature_dim(self) -> int:
        c, h, w = self.layers[-1].out_shape
        return c * h * w

    def check_batch(self, n: int, flag: str) -> None:
        """Refuse a batch of n samples before any of it exists, when n times
        some layer's largest per-sample array (its input, its conv output,
        or its (c_in k_h k_w, out_h out_w) window matrix) passes
        MAX_LAYER_ELEMENTS."""
        per_sample = max(
            max(math.prod(layer.in_shape),
                (layer.c_out + math.prod(layer.kernel_shape[1:]))
                * math.prod(layer.spec.out_spatial))
            for layer in self.layers)
        if n * per_sample > MAX_LAYER_ELEMENTS:
            raise ResourceError(
                f"{flag} {n}: {n * per_sample} batch elements exceed the cap "
                f"of {MAX_LAYER_ELEMENTS}")

    def executable_reason(self) -> str | None:
        """Why the graph cannot be run as a TinyNet, or None if it can."""
        for layer in self.layers:
            if layer.spec.strides != (1, 1):
                return (f"layer {layer.name!r} has strides "
                        f"{layer.spec.strides}; execution needs stride 1")
            if layer.spec.padding != "circular":
                return (f"layer {layer.name!r} has {layer.spec.padding} "
                        f"padding; execution needs circular")
        return None

    def new_net(self, seed: int) -> TinyNet:
        """A freshly initialized TinyNet of this architecture."""
        reason = self.executable_reason()
        if reason is not None:
            raise UsageError(reason)
        _, h, w = self.input_shape
        return TinyNet([layer.block for layer in self.layers],
                       kappa=self.kappa, h=h, w=w, seed=seed)


def _bound(raw, name: str, field: str) -> float:
    if raw is None:
        return math.inf
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise UsageError(f"block {name!r}: {field} must be a number")
    try:
        value = float(raw)
    except OverflowError as exc:   # a JSON integer past the float range
        raise UsageError(f"block {name!r}: {field} is out of range") from exc
    if not value > 0:
        raise UsageError(f"block {name!r}: {field} must be > 0 when given")
    return value


def parse_archdoc(text: str) -> ArchGraph:
    try:
        doc = json.loads(text)
    except _JSON_ERRORS as exc:
        raise UsageError(f"architecture document does not parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("architecture document must be a JSON object")
    version = doc.get("format_version")
    if not _is_int(version) or version != ARCH_VERSION:
        raise UsageError("architecture document format_version mismatch")
    inp = doc.get("input")
    if (not isinstance(inp, list) or len(inp) != 3
            or any(not _is_int(v) or v < 1 for v in inp)):
        raise UsageError("input must be [channels, height, width], all >= 1")
    kappa = doc.get("kappa")
    if not _is_int(kappa) or kappa < 2:
        raise UsageError("kappa must be an int >= 2")
    raw_blocks = doc.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise UsageError("blocks must be a non-empty list")

    layers = []
    seen = set()
    c, h, w = inp
    for idx, raw in enumerate(raw_blocks):
        if not isinstance(raw, dict):
            raise UsageError(f"block #{idx} must be a JSON object")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise UsageError(f"block #{idx} has no usable name")
        if name in seen:
            raise UsageError(f"block name {name!r} repeats")
        seen.add(name)
        c_out = raw.get("c_out")
        k = raw.get("k")
        if not _is_int(c_out) or c_out < 1:
            raise UsageError(f"block {name!r}: c_out must be an int >= 1")
        if not _is_int(k) or k < 1:
            raise UsageError(f"block {name!r}: k must be an int >= 1")
        stride = raw.get("stride", 1)
        if _is_int(stride):
            strides = (stride, stride)
        elif (isinstance(stride, list) and len(stride) == 2
              and all(_is_int(v) for v in stride)):
            strides = tuple(stride)
        else:
            raise UsageError(f"block {name!r}: stride must be an int or [sh, sw]")
        padding = raw.get("padding", "circular")
        pool = raw.get("pool", "none")
        shortcut = raw.get("shortcut", "none")
        try:
            block = BlockSpec(c, c_out, k, pool=pool, shortcut=shortcut)
            spec = ConvSpec(input_shape=(c, h, w), kernel_shape=(k, k),
                            strides=strides, padding=padding)
        except UsageError as exc:
            raise UsageError(f"block {name!r}: {exc}") from exc

        # BlockSpec holds the pool/shortcut/channel rules; these need shapes
        oh, ow = spec.out_spatial
        if c_out * c * h * w > MAX_LAYER_ELEMENTS:
            raise ResourceError(
                f"block {name!r}: {c_out * c * h * w} grid elements exceed "
                f"the cap of {MAX_LAYER_ELEMENTS}")
        if pool == "max3":
            if min(oh, ow) < 3:
                raise UsageError(
                    f"block {name!r}: max3 pool needs spatial dims >= 3, "
                    f"conv output is {oh}x{ow}")
            ph, pw = -(-oh // 2), -(-ow // 2)
        else:
            ph, pw = oh, ow
        if shortcut == "identity" and (c_out, ph, pw) != (c, h, w):
            raise UsageError(
                f"block {name!r}: identity shortcut needs matching "
                f"shapes, got {(c, h, w)} -> {(c_out, ph, pw)}")
        if shortcut == "double" and (strides != (1, 1) or h % 2 or w % 2):
            raise UsageError(
                f"block {name!r}: double shortcut needs stride 1 and "
                f"even input dims")
        layers.append(ArchLayer(
            name=name, spec=spec, block=block,
            lip_bound=_bound(raw.get("s"), name, "s"),
            dist_bound=_bound(raw.get("b"), name, "b"),
            in_shape=(c, h, w), out_shape=(c_out, ph, pw)))
        c, h, w = c_out, ph, pw

    graph = ArchGraph(input_shape=tuple(inp), kappa=kappa, layers=tuple(layers))
    if graph.feature_dim < kappa - 1:
        raise UsageError(
            f"final feature dimension {graph.feature_dim} cannot host a "
            f"{kappa}-class simplex classifier")
    return graph


def _read_archdoc_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"architecture document {path!r} is not UTF-8: {exc}") from exc


def load_archdoc(path: str) -> ArchGraph:
    return parse_archdoc(_read_archdoc_text(path))


def arch_doc_dict(input_shape, kappa: int, blocks) -> dict:
    """Plain JSON-ready dict for a list of (name, BlockSpec) pairs."""
    return {
        "format_version": ARCH_VERSION,
        "input": list(input_shape),
        "kappa": kappa,
        "blocks": [
            {"name": name, "c_out": spec.c_out, "k": spec.k, "stride": 1,
             "padding": "circular", "pool": spec.pool,
             "shortcut": spec.shortcut}
            for name, spec in blocks
        ],
    }


def default_arch_doc() -> dict:
    """The stock demo net: pooled 8-channel stage then a plain 3x3 stage."""
    return arch_doc_dict((1, 8, 8), 2, [
        ("block0", BlockSpec(1, 8, 3, pool="max3")),
        ("block1", BlockSpec(8, 8, 3)),
    ])


def resolve_tensors(graph: ArchGraph, ckpt: Checkpoint):
    """Pair each arch layer with its checkpoint weight and reference."""
    resolved = []
    by_name = {e.name: e for e in ckpt.entries}
    for layer in graph.layers:
        entry = by_name.get(layer.name)
        if entry is None:
            raise UsageError(
                f"architecture layer {layer.name!r} resolves to no "
                f"checkpoint tensor")
        if entry.role != "weight":
            raise UsageError(
                f"tensor {layer.name!r} has role {entry.role!r}; "
                f"architecture layers need weights")
        if entry.shape != layer.kernel_shape:
            raise UsageError(
                f"tensor {layer.name!r} has shape {entry.shape}, "
                f"architecture expects {layer.kernel_shape}")
        resolved.append((layer, ckpt.weight(layer.name),
                         ckpt.reference_for(layer.name)))
    return resolved


def build_net(graph: ArchGraph, ckpt: Checkpoint):
    """Instantiate the TinyNet a (checkpoint, archdoc) pair describes."""
    net = graph.new_net(seed=0)
    resolved = resolve_tensors(graph, ckpt)
    net.set_kernels([weight for _, weight, _ in resolved])
    references = [ref for _, _, ref in resolved]
    return net, references


# ---------------------------------------------------------------------------
# shared report plumbing


def _clean(value):
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    return value


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
        print(json.dumps(_clean(doc), indent=2))
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


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _load_logit_record(path: str):
    """(logits, labels, gamma) of a `--dump-logits` record.

    Any file that is not such a record raises UsageError. Each member's
    header is read first, and one that declares more than 1 GiB (the bytes
    of MAX_LAYER_ELEMENTS float64 values) raises ResourceError before
    anything of that size is allocated.
    """
    def bad(why):
        return UsageError(f"logit record {path!r} {why}")

    def read(zf, field):
        name = f"{field}.npy"
        if name not in zf.namelist():
            raise bad(f"is missing field {field!r}")
        with zf.open(name) as fp:
            version = np.lib.format.read_magic(fp)
            if version not in _NPY_HEADERS:
                raise bad(f"field {field!r} has .npy version {version}")
            shape, _, dtype = _NPY_HEADERS[version](fp)
            size = math.prod(shape) * dtype.itemsize
            if size > 8 * MAX_LAYER_ELEMENTS:
                raise ResourceError(
                    f"logit record {path!r} field {field!r} declares {size} "
                    f"bytes, past the cap of {8 * MAX_LAYER_ELEMENTS}")
            fp.seek(0)
            return np.lib.format.read_array(fp, allow_pickle=False)

    # zipfile raises RuntimeError/NotImplementedError for encrypted members
    # or unknown compression, zlib.error for a corrupt deflate stream
    unreadable = (OSError, ValueError, EOFError, RuntimeError,
                  zipfile.BadZipFile, zlib.error)
    try:
        with zipfile.ZipFile(path) as zf:
            logits, labels, gamma = [read(zf, field) for field in
                                     ("logits", "labels", "gamma")]
    except (UsageError, ResourceError):
        raise
    except unreadable as exc:
        raise bad(f"cannot be read: {exc}") from exc
    if logits.dtype.kind not in "iuf" or logits.ndim != 2:
        raise bad("needs real (n, kappa) logits")
    if not np.all(np.isfinite(logits)):
        raise bad("has non-finite logits")
    if labels.dtype.kind not in "iu" or labels.size == 0:
        raise bad("needs at least one integer label")
    if gamma.dtype.kind not in "iuf" or gamma.shape != ():
        raise bad("needs a real scalar gamma")
    return logits.astype(np.float64), labels, float(gamma)


def cmd_analyze(args) -> int:
    ckpt = read_checkpoint(args.checkpoint)
    graph = load_archdoc(args.archdoc)
    graph.check_batch(args.n, "--n")
    net, references = build_net(graph, ckpt)
    batch, labels = synth_data(args.task, args.n, seed=args.data_seed)

    logits = net.forward(batch.samples)
    margins = margin_values(logits, labels)
    error = zero_one_error(logits, labels)

    if args.equal_ramp_to is not None:
        ref_logits, ref_labels, ref_gamma = _load_logit_record(args.equal_ramp_to)
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
    if not gamma > 0:
        raise UsageError("gamma must be > 0")

    ramp = ramp_risk(logits, labels, gamma)
    if args.dump_logits is not None:
        # through a handle: given a name, np.savez would append ".npz"
        with open(args.dump_logits, "wb") as fh:
            np.savez(fh, logits=logits, labels=labels, gamma=gamma)

    stats, dstats = comparison_stats_from_net(net, references, batch)
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
    dist = group_norm_21(KernelTensor(weight - reference))
    lip = operator_norm(KernelTensor(weight), layer.spec).value
    return dist, lip


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
        entry = ckpt.entry(layer.name)
        out_references[layer.name] = (
            ZERO_REFERENCE if entry.reference == ZERO_REFERENCE
            else ckpt.arrays[entry.reference])
        passthrough = ckpt.arrays[layer.name]
        row = {"name": layer.name, "scheme": args.scheme,
               "lip_bound": layer.lip_bound, "dist_bound": layer.dist_bound,
               "error": None, "projected": False, "converged": True,
               "rounds_run": 0, "clip_svds": 0}
        dist0, lip0 = _measure_layer(weight, reference, layer)
        row["dist_before"], row["lip_before"] = dist0, lip0

        needs_spectral = math.isfinite(layer.lip_bound)
        spectral_ok = fft_eligible(layer.spec)
        feasible = (dist0 <= layer.dist_bound and lip0 <= layer.lip_bound)
        if feasible:
            out_weights[layer.name] = passthrough
            row["dist_after"], row["lip_after"] = dist0, lip0
            rows.append(row)
            continue
        if needs_spectral and not spectral_ok:
            out_weights[layer.name] = passthrough
            row["error"] = (
                f"spectral projection needs stride-1 circular geometry; "
                f"layer has strides {layer.spec.strides}, "
                f"{layer.spec.padding} padding")
            row["dist_after"], row["lip_after"] = dist0, lip0
            rows.append(row)
            continue

        row["projected"] = True
        if not needs_spectral:
            projected = project_l21_ball(
                KernelTensor(weight), KernelTensor(reference),
                layer.dist_bound)
            dist1, lip1 = _measure_layer(projected.entries, reference, layer)
            row.update(rounds_run=1, converged=True)
        else:
            cs = ConstraintSet(reference=KernelTensor(reference),
                               distance_bound=layer.dist_bound,
                               lipschitz_bound=layer.lip_bound,
                               conv=layer.spec)
            projected, rep = run(KernelTensor(weight), cs, rounds,
                                 tol=args.tol)
            dist1, lip1 = rep.final_dist, rep.final_lip
            row.update(rounds_run=rep.rounds_run, converged=rep.converged,
                       clip_svds=rep.clip_svds)
        out_weights[layer.name] = projected.entries
        row["dist_after"], row["lip_after"] = dist1, lip1
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


def _epoch_record(stats) -> dict:
    rec = asdict(stats)
    rec["lips"] = list(rec["lips"])
    rec["dists"] = list(rec["dists"])
    return rec


def cmd_train_demo(args) -> int:
    if args.arch is not None:
        arch_text = _read_archdoc_text(args.arch)
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
            if result.trajectory:
                final = result.trajectory[-1]
                train_error, test_error = final.train_error, final.test_error
            else:
                train_error = test_error = math.nan
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
                "trajectory": [_epoch_record(s) for s in result.trajectory],
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
                        fh.write(json.dumps(_clean(rec)) + "\n")

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
        if not fft_eligible(layer.spec):
            rows.append({
                "name": layer.name, "skipped": True,
                "reason": (f"exact spectra need stride-1 circular geometry; "
                           f"layer has strides {layer.spec.strides}, "
                           f"{layer.spec.padding} padding")})
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


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}")
    return value


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
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="ramp-loss margin scale")
    p.add_argument("--equal-ramp-to", default=None, metavar="NPZ",
                   help="pick gamma so ramp risk matches this logit record")
    p.add_argument("--dump-logits", default=None, metavar="NPZ",
                   help="save this run's logits for later --equal-ramp-to")
    p.add_argument("--delta", type=float, default=0.01,
                   help="confidence level for the generalization bound")
    p.add_argument("--epsilon", type=float, default=None,
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
    p.add_argument("--data-seed", type=int, default=2)
    p.add_argument("--lip-grid", default="inf",
                   help="comma list of spectral bounds s (inf allowed)")
    p.add_argument("--dist-grid", default="inf",
                   help="comma list of (2,1)-distance bounds b (inf allowed)")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--cadence", type=int, default=15,
                   help="project every this many SGD steps")
    p.add_argument("--arch", default=None,
                   help="architecture document (default: built-in demo net)")
    p.add_argument("--save-dir", default=None,
                   help="write per-cell checkpoints and trajectory logs here")
    p.add_argument("--seed", type=int, default=0,
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
