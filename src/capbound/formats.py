"""On-disk formats: the checkpoint container, the architecture document and
the `analyze --dump-logits` record. Each reader turns malformed input into
UsageError, and input whose arrays would pass the size cap into
ResourceError before anything of that size is allocated.
"""

from __future__ import annotations

import json
import math
import re
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .convop import ConvSpec
from .errors import ResourceError, UsageError
from .lipschitz import fft_eligible
from .traindemo import BlockSpec, TinyNet


# What json.loads raises on malformed text: ValueError covers bad UTF-8,
# bad syntax and integers past int()'s digit limit; RecursionError deep
# nesting.
_JSON_ERRORS = (ValueError, RecursionError)
# Largest grid a layer may have, in elements (c_out * c_in * h * w; 2**27
# float64 values are 1 GiB). The exact spectral routes build each kernel's
# frequency stack, c_out * c_in * h * (w//2 + 1) complex values, about that
# size, and the cap bounds the layer's input (c_in * h * w) and output
# (c_out * out_h * out_w) activations per sample too. A layer past the cap
# is refused while the doc is parsed, before anything of its size exists;
# a batch of n samples is refused (`ArchGraph.check_batch`) when n times a
# layer's largest per-sample array passes the cap.
MAX_LAYER_ELEMENTS = 2**27


def _is_int(value) -> bool:
    """JSON integer; JSON true/false parse as Python bools, which are not."""
    return isinstance(value, int) and not isinstance(value, bool)


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

    def stored(self, name: str):
        """(weight, reference) as stored: `write_checkpoint` writes them
        back byte for byte (arrays in their dtype, or the zero marker)."""
        e = self.entry(name)
        reference = (ZERO_REFERENCE if e.reference == ZERO_REFERENCE
                     else self.arrays[e.reference])
        return self.arrays[name], reference


def _as_stored(array: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(array)
    key = _NP_TO_DTYPE.get(np.dtype(arr.dtype.newbyteorder("=")))
    if key is None:
        raise UsageError(
            f"tensor {name!r} has dtype {arr.dtype}, checkpoints hold f32/f64")
    return np.ascontiguousarray(arr.astype(_DTYPES[key]))


def write_checkpoint(path: str, weights: dict, references: dict) -> None:
    """Write weights plus their references into one container file.

    `weights` maps tensor name -> array; `references` maps the same names to
    either a same-shape array or the string "zero". Each array is stored in
    its own dtype, which must be f32 or f64. Entry order follows dict order,
    so output files are deterministic.
    """
    if set(weights) != set(references):
        raise UsageError("weights and references must cover the same names")
    entries = []
    chunks = []
    offset = 0

    def push(name, role, array, reference=None):
        nonlocal offset
        stored = _as_stored(array, name)
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


@dataclass(frozen=True)
class ArchLayer:
    name: str
    spec: ConvSpec
    block: BlockSpec               # channels, pool and shortcut, validated
    lip_bound: float
    dist_bound: float
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
        return (self.c_out, self.spec.input_shape[0], k_h, k_w)

    @property
    def geometry_reason(self) -> str | None:
        """None for circular stride 1, which exact spectra, the spectral
        projection and execution need; else that need and what it has."""
        if fft_eligible(self.spec):
            return None
        return (f"stride-1 circular geometry; layer has strides "
                f"{self.spec.strides}, {self.spec.padding} padding")


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
            max(math.prod(layer.spec.input_shape),
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
            reason = layer.geometry_reason
            if reason is not None:
                return f"layer {layer.name!r}: execution needs {reason}"
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
            out_shape=(c_out, ph, pw)))
        c, h, w = c_out, ph, pw

    graph = ArchGraph(input_shape=tuple(inp), kappa=kappa, layers=tuple(layers))
    if graph.feature_dim < kappa - 1:
        raise UsageError(
            f"final feature dimension {graph.feature_dim} cannot host a "
            f"{kappa}-class simplex classifier")
    return graph


def read_archdoc_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"architecture document {path!r} is not UTF-8: {exc}") from exc


def load_archdoc(path: str) -> ArchGraph:
    return parse_archdoc(read_archdoc_text(path))


def default_arch_doc() -> dict:
    """The stock demo net: pooled 8-channel stage then a plain 3x3 stage."""
    return {
        "format_version": ARCH_VERSION,
        "input": [1, 8, 8],
        "kappa": 2,
        "blocks": [
            {"name": "block0", "c_out": 8, "k": 3, "stride": 1,
             "padding": "circular", "pool": "max3", "shortcut": "none"},
            {"name": "block1", "c_out": 8, "k": 3, "stride": 1,
             "padding": "circular", "pool": "none", "shortcut": "none"},
        ],
    }


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
# logit records: an `.npz` of (n, kappa) real logits, integer labels and a
# real scalar gamma

_LOGIT_FIELDS = ("logits", "labels", "gamma")
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def write_logit_record(path: str, logits, labels, gamma: float) -> None:
    """Save one run's logits, labels and margin scale for `read_logit_record`."""
    # through a handle: given a name, np.savez would append ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, **dict(zip(_LOGIT_FIELDS, (logits, labels, gamma))))


def read_logit_record(path: str):
    """(logits, labels, gamma) of a `write_logit_record` file.

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
            logits, labels, gamma = [read(zf, field) for field in _LOGIT_FIELDS]
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
