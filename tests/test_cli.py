"""Checkpoint container, architecture documents, and the four commands."""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from capbound import cli
from capbound.cli import build_parser, main
from capbound.formats import (
    MAX_LAYER_ELEMENTS,
    ZERO_REFERENCE,
    ArchGraph,
    Checkpoint,
    build_net,
    default_arch_doc,
    parse_archdoc,
    read_checkpoint,
    resolve_tensors,
    write_checkpoint,
)
from capbound.convop import ConvSpec, materialize
from capbound.errors import ResourceError, UsageError
from capbound.lipschitz import operator_norm, power_iteration
from capbound.project import (
    DEFAULT_TOL,
    ConstraintSet,
    admm,
    alternating_projections,
    init_scale_to_feasible,
    radial_cycle,
)
from capbound.tensors import KernelTensor, group_norm_21
from capbound.traindemo import (
    Block,
    BlockSpec,
    TinyNet,
    TrainConfig,
    synth_data,
    train_projected,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def demo_net(seed=3):
    return TinyNet([BlockSpec(1, 8, 3, pool="max3"), BlockSpec(8, 8, 3)],
                   seed=seed)


def write_demo_pair(tmp_path, seed=3, ref_scale=0.9, bounds=None):
    """Checkpoint + archdoc for the stock two-block net."""
    net = demo_net(seed)
    names = ["block0", "block1"]
    weights = {n: k for n, k in zip(names, net.kernels)}
    refs = {n: k * ref_scale for n, k in zip(names, net.kernels)}
    ckpt = tmp_path / "demo.ckpt"
    write_checkpoint(str(ckpt), weights, refs)
    arch = default_arch_doc()
    if bounds is not None:
        for blk in arch["blocks"]:
            blk["s"], blk["b"] = bounds
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps(arch))
    return str(ckpt), str(arch_path), weights, refs


# ---------------------------------------------------------------------------
# checkpoint container


def test_checkpoint_round_trip_f64(tmp_path):
    rng = np.random.default_rng(0)
    w = {"a": rng.standard_normal((4, 2, 3, 3)),
         "b": rng.standard_normal((2, 4, 1, 1))}
    refs = {"a": rng.standard_normal((4, 2, 3, 3)), "b": ZERO_REFERENCE}
    path = tmp_path / "t.ckpt"
    write_checkpoint(str(path), w, refs)
    ck = read_checkpoint(str(path))
    assert np.array_equal(ck.weight("a"), w["a"])
    assert np.array_equal(ck.weight("b"), w["b"])
    assert np.array_equal(ck.reference_for("a"), refs["a"])
    assert not ck.reference_for("b").any()
    assert ck.entry("a").dtype == "f64"
    assert ck.entry("b").reference == ZERO_REFERENCE
    assert ck.weight_names() == ["a", "b"]


def test_checkpoint_f32_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    w = {"k": rng.standard_normal((3, 2, 3, 3)).astype(np.float32)}
    path = tmp_path / "t.ckpt"
    write_checkpoint(str(path), w, {"k": w["k"] * np.float32(0.5)})
    ck = read_checkpoint(str(path))
    assert ck.arrays["k"].dtype == np.float32
    assert ck.arrays["k"].tobytes() == w["k"].tobytes()
    assert ck.arrays["k.ref"].tobytes() == (w["k"] * np.float32(0.5)).tobytes()
    # a second write of what was read reproduces the file byte for byte
    path2 = tmp_path / "t2.ckpt"
    write_checkpoint(str(path2), {"k": ck.arrays["k"]},
                     {"k": ck.arrays["k.ref"]})
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_writer_rejects_bad_inputs(tmp_path):
    path = str(tmp_path / "t.ckpt")
    good = np.ones((1, 1, 1, 1))
    with pytest.raises(UsageError):
        write_checkpoint(path, {"a": good}, {"b": good})   # name sets differ
    with pytest.raises(UsageError):
        write_checkpoint(path, {"a": good}, {"a": np.ones((2, 1, 1, 1))})
    with pytest.raises(UsageError):
        write_checkpoint(path, {"a": good}, {"a": "null"})  # bad marker
    with pytest.raises(UsageError):
        write_checkpoint(path, {"a": good.astype(np.int32)},
                         {"a": ZERO_REFERENCE})


def _raw_ckpt(path, entries, payload: bytes, doc=None):
    if doc is None:
        doc = {"format_version": 1, "tensors": entries}
    manifest = json.dumps(doc).encode()
    with open(path, "wb") as fh:
        fh.write(f"CAPBOUND-CKPT v1 manifest_bytes={len(manifest)}\n".encode())
        fh.write(manifest)
        fh.write(payload)


def _entry(name, role="weight", shape=(1, 1, 1, 1), dtype="f64", off=0,
           length=8, reference=ZERO_REFERENCE):
    e = {"name": name, "role": role, "shape": list(shape), "dtype": dtype,
         "byte_offset": off, "byte_length": length}
    if role == "weight":
        e["reference"] = reference
    return e


def test_checkpoint_reader_diagnostics_name_the_tensor(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    eight = bytes(8)

    _raw_ckpt(path, [_entry("w", length=16)], eight * 2)
    with pytest.raises(UsageError, match="'w'"):
        read_checkpoint(path)   # length != product(shape) * itemsize

    _raw_ckpt(path, [_entry("w"), _entry("x", off=4)], eight * 2)
    with pytest.raises(UsageError, match="overlaps"):
        read_checkpoint(path)

    _raw_ckpt(path, [_entry("w", off=8)], eight)
    with pytest.raises(UsageError, match="past the payload"):
        read_checkpoint(path)

    _raw_ckpt(path, [_entry("w", reference="ghost")], eight)
    with pytest.raises(UsageError, match="ghost"):
        read_checkpoint(path)

    _raw_ckpt(path, [_entry("w", reference="x"),
                     _entry("x", off=8)], eight * 2)
    with pytest.raises(UsageError, match="role"):
        read_checkpoint(path)   # reference target is itself a weight

    _raw_ckpt(path, [_entry("w", reference="x"),
                     _entry("x", role="reference", shape=(2, 1, 1, 1),
                            off=8, length=16)], eight * 3)
    with pytest.raises(UsageError, match="shape"):
        read_checkpoint(path)

    _raw_ckpt(path, [_entry("w"), _entry("w", off=8)], eight * 2)
    with pytest.raises(UsageError, match="twice"):
        read_checkpoint(path)

    _raw_ckpt(path, [_entry("w", dtype="f19")], eight)
    with pytest.raises(UsageError, match="dtype"):
        read_checkpoint(path)


def test_checkpoint_reader_rejects_bad_json_types(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    eight = bytes(8)
    cases = [
        [_entry("w", shape=(True,))],                  # bool as a dimension
        [_entry("w", shape=(1, True, 1, 1))],
        [_entry("w", off=False)],
        [_entry("w", length=8.0)],
        # 2**64 elements wrap to 0 in a fixed-width product
        [_entry("w", shape=(2**32, 2**32), length=0)],
        [["w", "weight"]],                             # entry not an object
    ]
    for entries in cases:
        _raw_ckpt(path, entries, eight)
        with pytest.raises(UsageError):
            read_checkpoint(path)
        rc, _, err = run_cli(["spectra", path, path])
        assert rc == 1 and err.startswith("error:"), entries
    _raw_ckpt(path, [_entry("w", shape=(2**32, 2**32), length=8 * 2**64)],
              eight)
    with pytest.raises(UsageError, match="past the payload"):
        read_checkpoint(path)
    _raw_ckpt(path, None, b"", doc=[1])
    with pytest.raises(UsageError, match="object"):
        read_checkpoint(path)
    _raw_ckpt(path, None, eight,
              doc={"format_version": True, "tensors": [_entry("w")]})
    with pytest.raises(UsageError, match="format_version"):
        read_checkpoint(path)


def test_checkpoint_reader_rejects_broken_headers(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(UsageError):
        read_checkpoint(str(path))
    path.write_bytes(b"CAPBOUND-CKPT v9 manifest_bytes=2\n{}")
    with pytest.raises(UsageError, match="version"):
        read_checkpoint(str(path))
    path.write_bytes(b"CAPBOUND-CKPT v1 manifest_bytes=999\n{}")
    with pytest.raises(UsageError, match="shorter"):
        read_checkpoint(str(path))
    path.write_bytes(b"CAPBOUND-CKPT v1 manifest_bytes=5\n{not}")
    with pytest.raises(UsageError, match="parse"):
        read_checkpoint(str(path))


def _valid_checkpoint_bytes() -> bytes:
    rng = np.random.default_rng(9)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.ckpt")
        write_checkpoint(path, {"a": rng.standard_normal((2, 1, 3, 3)),
                                "b": rng.standard_normal((1, 2, 1, 1))},
                         {"a": rng.standard_normal((2, 1, 3, 3)),
                          "b": ZERO_REFERENCE})
        with open(path, "rb") as fh:
            return fh.read()


VALID_CKPT = _valid_checkpoint_bytes()
_HEADER = b"CAPBOUND-CKPT v1 manifest_bytes="


def _with_manifest(text: bytes) -> bytes:
    return _HEADER + str(len(text)).encode() + b"\n" + text


def checkpoint_blobs():
    """Arbitrary bytes, truncations and single-byte changes of a valid
    checkpoint."""
    size = len(VALID_CKPT)
    truncated = st.integers(0, size).map(lambda n: VALID_CKPT[:n])
    changed = st.tuples(st.integers(0, size - 1), st.integers(0, 255)).map(
        lambda at: VALID_CKPT[:at[0]] + bytes([at[1]]) + VALID_CKPT[at[0] + 1:])
    return st.one_of(st.binary(max_size=300), truncated, changed)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(checkpoint_blobs())
@example(VALID_CKPT)
@example(_HEADER + b"9" * 5000 + b"\n{}")       # past int()'s digit limit
@example(_with_manifest(b"[" * 100000))           # nests past the recursion limit
@example(_with_manifest(b'{"format_version": 1' + b"0" * 5000 + b"}"))
def test_read_checkpoint_fuzz_yields_checkpoint_or_input_error(tmp_path,
                                                               blob):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        ckpt = read_checkpoint(str(path))
    except (UsageError, ResourceError):
        return
    assert isinstance(ckpt, Checkpoint)


# ---------------------------------------------------------------------------
# architecture documents


def test_archdoc_default_parses_and_chains():
    graph = parse_archdoc(json.dumps(default_arch_doc()))
    assert graph.input_shape == (1, 8, 8)
    assert [l.out_shape for l in graph.layers] == [(8, 4, 4), (8, 4, 4)]
    assert graph.layers[0].post_lip == 2.0
    assert graph.layers[1].post_lip == 1.0
    assert graph.feature_dim == 8 * 4 * 4
    assert graph.executable_reason() is None
    assert graph.layers[0].lip_bound == math.inf


def test_archdoc_constraints_and_strides():
    doc = {"format_version": 1, "input": [2, 8, 8], "kappa": 3, "blocks": [
        {"name": "a", "c_out": 4, "k": 3, "stride": 2,
         "padding": "zero_same", "s": 1.5, "b": 0.25}]}
    graph = parse_archdoc(json.dumps(doc))
    layer = graph.layers[0]
    assert layer.spec.strides == (2, 2)
    assert layer.out_shape == (4, 4, 4)
    assert (layer.lip_bound, layer.dist_bound) == (1.5, 0.25)
    assert "stride" in graph.executable_reason()
    doc["blocks"][0]["stride"] = [1, 2]
    assert parse_archdoc(json.dumps(doc)).layers[0].spec.strides == (1, 2)


def test_archdoc_validation():
    base = {"format_version": 1, "input": [1, 8, 8], "kappa": 2,
            "blocks": [{"name": "a", "c_out": 2, "k": 3}]}

    def reject(**patch):
        doc = {**base, **patch}
        with pytest.raises(UsageError):
            parse_archdoc(json.dumps(doc))

    reject(format_version=2)
    reject(input=[1, 8])
    reject(input=[0, 8, 8])
    reject(kappa=1)
    reject(blocks=[])
    reject(blocks=[{"name": "", "c_out": 2, "k": 3}])
    reject(blocks=[{"name": "a", "c_out": 2, "k": 3},
                   {"name": "a", "c_out": 2, "k": 3}])
    reject(blocks=[{"name": "a", "c_out": 2, "k": 3, "pool": "avg"}])
    reject(blocks=[{"name": "a", "c_out": 2, "k": 3, "shortcut": "conv"}])
    reject(blocks=[{"name": "a", "c_out": 2, "k": 3, "s": 0.0}])
    reject(blocks=[{"name": "a", "c_out": 2, "k": 3, "b": -1.0}])
    reject(blocks=[{"name": "a", "c_out": 2, "k": 9}])      # k > spatial
    reject(blocks=[{"name": "a", "c_out": 2, "k": 3, "shortcut": "identity"}])
    reject(blocks=[{"name": "a", "c_out": 3, "k": 3, "pool": "max3",
                    "shortcut": "double"}])                  # c_out != 2c_in
    reject(blocks=[{"name": "a", "c_out": 2, "k": 3, "stride": 4,
                    "pool": "max3"}])                        # 2x2 conv out
    with pytest.raises(UsageError):
        parse_archdoc("[1, 2]")
    with pytest.raises(UsageError):
        parse_archdoc("{bad")
    # kappa too large for the final features
    tiny = {"format_version": 1, "input": [1, 3, 3], "kappa": 12,
            "blocks": [{"name": "a", "c_out": 1, "k": 3}]}
    with pytest.raises(UsageError, match="simplex"):
        parse_archdoc(json.dumps(tiny))


def test_archdoc_rejects_json_booleans_and_non_numbers(tmp_path):
    base = {"format_version": 1, "input": [1, 8, 8], "kappa": 2,
            "blocks": [{"name": "a", "c_out": 2, "k": 3}]}
    block = base["blocks"][0]
    bad_docs = [
        {**base, "format_version": True},
        {**base, "input": [True, 8, 8]},
        {**base, "kappa": True},
        {**base, "blocks": [{**block, "k": True}]},
        {**base, "blocks": [{**block, "c_out": True}]},
        {**base, "blocks": [{**block, "stride": True}]},
        {**base, "blocks": [{**block, "stride": [1, False]}]},
        {**base, "blocks": [{**block, "s": True}]},
        {**base, "blocks": [{**block, "b": "wide"}]},
        {**base, "blocks": [{**block, "s": [2.0]}]},
    ]
    ckpt, _, _, _ = write_demo_pair(tmp_path)
    arch = tmp_path / "bad_arch.json"
    for doc in bad_docs:
        with pytest.raises(UsageError):
            parse_archdoc(json.dumps(doc))
        arch.write_text(json.dumps(doc))
        rc, _, err = run_cli(["spectra", ckpt, str(arch)])
        assert rc == 1 and err.startswith("error:"), doc


def arch_blocks():
    """Block dicts near the valid set: small shapes, mostly legal values."""
    return st.fixed_dictionaries(
        {"name": st.text("abc", min_size=1, max_size=2),
         "c_out": st.integers(1, 4), "k": st.integers(1, 4)},
        optional={"stride": st.sampled_from([1, 1, 2, [1, 2]]),
                  "padding": st.sampled_from(["circular", "circular",
                                              "zero_same", "mirror"]),
                  "pool": st.sampled_from(["none", "max3", "max3", "avg"]),
                  "shortcut": st.sampled_from(["none", "identity",
                                               "double", "conv"]),
                  "s": st.floats(0.5, 4.0), "b": st.floats(0.5, 4.0)})


def arch_docs():
    return st.fixed_dictionaries({
        "format_version": st.just(1),
        "input": st.tuples(st.integers(1, 3), st.integers(1, 9),
                           st.integers(1, 9)).map(list),
        "kappa": st.integers(2, 4),
        "blocks": st.lists(arch_blocks(), min_size=1, max_size=4)})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


@st.composite
def mutated_arch_docs(draw):
    """A near-valid doc with one field, top-level or in one block,
    replaced by an arbitrary JSON value or dropped."""
    doc = draw(arch_docs())
    target = draw(st.sampled_from([doc] + doc["blocks"]))
    key = draw(st.sampled_from(sorted(target) + ["s", "stride", "pool"]))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=200, deadline=None)
@given(st.one_of(JSON_VALUES, arch_docs(), mutated_arch_docs()))
@example({"format_version": 1, "input": [1, 8, 8], "kappa": 2,
          "blocks": [{"name": "a", "c_out": 2, "k": 3, "s": 10**400}]})
@example({"format_version": 1, "input": [1, 8, 8], "kappa": 2,
          "blocks": [{"name": "a", "c_out": 2**64, "k": 3}]})
def test_parse_archdoc_fuzz_yields_graph_or_usage_error(doc):
    """A graph, a UsageError, or a ResourceError for a layer past the size
    cap."""
    try:
        graph = parse_archdoc(json.dumps(doc))
    except (UsageError, ResourceError):
        return
    assert isinstance(graph, ArchGraph)


@pytest.mark.parametrize("text", [
    '{"format_version": 1' + "0" * 5000 + "}",   # past int()'s digit limit
    "[" * 100000,                                 # past the recursion limit
])
def test_archdoc_text_that_json_cannot_read_is_a_usage_error(text):
    with pytest.raises(UsageError, match="does not parse"):
        parse_archdoc(text)


def _one_layer_doc(c, h, w, c_out=1):
    return {"format_version": 1, "input": [c, h, w], "kappa": 2,
            "blocks": [{"name": "a", "c_out": c_out, "k": 3, "s": 1.0}]}


def test_archdoc_size_cap():
    """The cap admits a layer whose grid has exactly MAX_LAYER_ELEMENTS
    elements, far above the 16 x 16 x 16 x 16 grid of the benchmark's
    widest layer, and refuses one more row of it."""
    assert MAX_LAYER_ELEMENTS >= 1000 * 16**4
    c, w = 2, MAX_LAYER_ELEMENTS // 2**10 // 4
    assert 2 * c * 2**10 * w == MAX_LAYER_ELEMENTS
    fits = _one_layer_doc(c, 2**10, w, c_out=2)
    assert parse_archdoc(json.dumps(fits)).layers[0].kernel_shape == (
        2, 2, 3, 3)
    over = _one_layer_doc(c, 2**10 + 1, w, c_out=2)
    with pytest.raises(ResourceError, match="grid elements exceed the cap"):
        parse_archdoc(json.dumps(over))


@pytest.mark.parametrize("command", ["spectra", "project"])
def test_oversized_arch_doc_exits_2_before_allocating(tmp_path, command):
    """"input": [1, 200000, 200000] would embed a 1 -> 1 3x3 kernel on a
    grid of 4e10 elements; the run is refused, and the arrays it allocates
    on the way stay small."""
    ckpt = str(tmp_path / "tiny.ckpt")
    write_checkpoint(ckpt, {"a": np.ones((1, 1, 3, 3))}, {"a": ZERO_REFERENCE})
    arch = tmp_path / "huge.json"
    arch.write_text(json.dumps(_one_layer_doc(1, 200000, 200000)))
    tracemalloc.start()
    try:
        rc, _, err = run_cli(_subcommand_argv(command, ckpt, str(arch),
                                              tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert err.startswith("resource failure: block 'a': 40000000000 grid "
                          "elements exceed the cap")
    assert peak < 2**20


def test_batch_flags_are_capped_before_allocating(tmp_path):
    """n samples are refused when n times a layer's largest per-sample
    array passes the cap; on the stock net that is block1's 4x4 output and
    window matrix, (8 + 8*3*3) * 16 = 1280 elements."""
    graph = parse_archdoc(json.dumps(default_arch_doc()))
    graph.check_batch(MAX_LAYER_ELEMENTS // 1280, "--n")
    with pytest.raises(ResourceError, match="batch elements exceed the cap"):
        graph.check_batch(MAX_LAYER_ELEMENTS // 1280 + 1, "--n")
    ckpt, arch, _, _ = write_demo_pair(tmp_path)
    huge = str(10**12)
    for flag, argv in [("--n", ["analyze", ckpt, arch, "--n", huge]),
                       ("--n", ["train-demo", "--n", huge]),
                       ("--n-test", ["train-demo", "--n-test", huge])]:
        tracemalloc.start()
        try:
            rc, _, err = run_cli(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert err.startswith(f"resource failure: {flag} {huge}: "), err
        assert peak < 2**20


@settings(max_examples=100, deadline=None)
@given(arch_docs())
@example({"format_version": 1, "input": [1, 5, 5], "kappa": 2, "blocks": [
    {"name": "a", "c_out": 2, "k": 1, "pool": "max3", "shortcut": "double"}]})
@example({"format_version": 1, "input": [1, 2, 2], "kappa": 2, "blocks": [
    {"name": "a", "c_out": 1, "k": 1, "pool": "max3"}]})
def test_accepted_executable_arch_docs_build_a_tinynet(doc):
    try:
        graph = parse_archdoc(json.dumps(doc))
    except UsageError:
        return
    if graph.executable_reason() is not None:
        return
    net = graph.new_net(seed=0)
    assert net.feature_dim == graph.feature_dim
    assert net.forward(np.zeros((1, *graph.input_shape))).shape == (
        1, graph.kappa)


def test_resolve_tensors_diagnostics(tmp_path):
    ckpt, arch, weights, _ = write_demo_pair(tmp_path)
    graph = parse_archdoc((tmp_path / "arch.json").read_text())
    ck = read_checkpoint(ckpt)
    resolved = resolve_tensors(graph, ck)
    assert [layer.name for layer, _, _ in resolved] == ["block0", "block1"]

    missing = json.loads((tmp_path / "arch.json").read_text())
    missing["blocks"][1]["name"] = "blockX"
    with pytest.raises(UsageError, match="blockX"):
        resolve_tensors(parse_archdoc(json.dumps(missing)), ck)

    wrong_role = json.loads((tmp_path / "arch.json").read_text())
    wrong_role["blocks"][1]["name"] = "block1.ref"
    with pytest.raises(UsageError, match="role"):
        resolve_tensors(parse_archdoc(json.dumps(wrong_role)), ck)

    wrong_shape = json.loads((tmp_path / "arch.json").read_text())
    wrong_shape["blocks"][1]["c_out"] = 4
    with pytest.raises(UsageError, match="block1"):
        resolve_tensors(parse_archdoc(json.dumps(wrong_shape)), ck)


def test_build_net_reproduces_forward(tmp_path):
    ckpt, arch, weights, _ = write_demo_pair(tmp_path, seed=11)
    graph = parse_archdoc((tmp_path / "arch.json").read_text())
    net, refs = build_net(graph, read_checkpoint(ckpt))
    direct = demo_net(seed=11)
    batch, _ = synth_data("blobs", 16, seed=0)
    assert np.array_equal(net.forward(batch.samples),
                          direct.forward(batch.samples))
    assert np.allclose(refs[0], weights["block0"] * 0.9)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_reports_finite_fields_and_is_pure(tmp_path):
    ckpt, arch, _, _ = write_demo_pair(tmp_path)
    argv = ["analyze", ckpt, arch, "--n", "48", "--gamma", "0.5", "--json",
            "--epsilon", "0.1"]
    rc, out, err = run_cli(argv)
    assert rc == 0 and err == ""
    doc = json.loads(out)
    for field in ("lip_median", "dist_median", "margin_median", "error",
                  "ramp_risk", "data_norm"):
        assert math.isfinite(doc[field]), field
    assert math.isfinite(doc["clubs"]["value"])
    assert math.isfinite(doc["clubs"]["log10"])
    assert math.isfinite(doc["spades"]["value"])
    for row in doc["layers"]:
        assert row["lip_method"] == "fft_exact"
        assert math.isfinite(row["lip"]) and math.isfinite(row["dist"])
    for which in ("clubs", "spades"):
        assert math.isfinite(doc["generalization"][which]["value"])
    present = [r for r in doc["comparison"].values() if not r["absent"]]
    assert len(present) == len(doc["comparison"])
    assert math.isfinite(doc["cover"]["norms"]["value"])
    assert math.isfinite(doc["cover"]["params"]["value"])

    rc2, out2, _ = run_cli(argv)
    assert rc2 == 0 and out2 == out   # pure function of inputs and flags

    rc3, text, _ = run_cli(argv[:-3])  # human-readable variant
    assert rc3 == 0
    assert "lip med" in text and "comparison (log10)" in text


def test_analyze_cover_matches_library(tmp_path):
    from capbound.capacity import whole_network_cover_bound
    from capbound.tensors import data_norm
    from capbound.traindemo import capacity_input_from_net

    ckpt, arch, _, _ = write_demo_pair(tmp_path)
    rc, out, _ = run_cli(["analyze", ckpt, arch, "--n", "32",
                          "--gamma", "0.5", "--epsilon", "0.25", "--json"])
    assert rc == 0
    doc = json.loads(out)
    graph = parse_archdoc((tmp_path / "arch.json").read_text())
    net, refs = build_net(graph, read_checkpoint(ckpt))
    batch, _ = synth_data("blobs", 32, seed=0)
    inp = capacity_input_from_net(net, refs, 32, data_norm(batch), 0.5)
    for variant in ("norms", "params"):
        expected = whole_network_cover_bound(inp, 0.25, variant=variant)
        assert doc["cover"][variant]["value"] == expected.value


def test_analyze_reference_equal_checkpoint(tmp_path):
    ckpt, arch, _, _ = write_demo_pair(tmp_path, ref_scale=1.0)
    rc, out, _ = run_cli(["analyze", ckpt, arch, "--n", "64", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["clubs"]["value"] == 4.0 / 64.0
    assert doc["spades"]["value"] == 0.0


def test_analyze_equal_ramp_flow(tmp_path):
    ckpt, arch, _, _ = write_demo_pair(tmp_path)
    record = str(tmp_path / "ref.npz")
    rc, out, _ = run_cli(["analyze", ckpt, arch, "--n", "64",
                          "--gamma", "0.8", "--dump-logits", record, "--json"])
    ramp_ref = json.loads(out)["ramp_risk"]
    rc, out, _ = run_cli(["analyze", ckpt, arch, "--n", "64",
                          "--equal-ramp-to", record, "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["gamma_source"]["mode"] == "equal_ramp"
    assert abs(doc["ramp_risk"] - ramp_ref) <= 1e-3

    # reference risk of ~0 is unattainable for a model with errors
    impossible = str(tmp_path / "imp.npz")
    np.savez(impossible, logits=np.array([[10.0, -10.0]]),
             labels=np.array([0]), gamma=0.1)
    rc, _, err = run_cli(["analyze", ckpt, arch, "--n", "64",
                          "--equal-ramp-to", impossible])
    assert rc == 2
    assert "numerical failure" in err


def test_analyze_dump_logits_writes_the_name_it_is_given(tmp_path):
    """A record name without ".npz" is written as given and reads back."""
    ckpt, arch, _, _ = write_demo_pair(tmp_path)
    record = str(tmp_path / "rec")
    rc, out, _ = run_cli(["analyze", ckpt, arch, "--n", "64", "--gamma",
                          "0.8", "--dump-logits", record, "--json"])
    assert rc == 0 and os.path.isfile(record)
    assert not os.path.exists(record + ".npz")
    rc, again, err = run_cli(["analyze", ckpt, arch, "--n", "64",
                              "--equal-ramp-to", record, "--json"])
    assert rc == 0, err
    doc = json.loads(again)
    assert doc["gamma_source"]["reference"] == record
    assert abs(doc["ramp_risk"] - json.loads(out)["ramp_risk"]) <= 1e-3


GOOD_RECORD = {"logits": np.array([[1.0, 0.0]]), "labels": np.array([0]),
               "gamma": 0.5}


@pytest.mark.parametrize("malformed", [
    "object array", "plain npy", "vector gamma", "string gamma",
    "corrupt zip", "missing field", "float labels", "no samples",
    "empty file", "nan logits"])
def test_analyze_rejects_malformed_logit_records(tmp_path, malformed):
    path = str(tmp_path / "record.npz")
    fields = dict(GOOD_RECORD)
    if malformed == "object array":
        fields["logits"] = np.array([[1.0, 0.0]], dtype=object)
    elif malformed == "vector gamma":
        fields["gamma"] = np.array([0.5, 0.5])
    elif malformed == "string gamma":
        fields["gamma"] = "abc"
    elif malformed == "missing field":
        del fields["gamma"]
    elif malformed == "float labels":
        fields["labels"] = np.array([0.0])
    elif malformed == "no samples":
        fields.update(logits=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
    elif malformed == "nan logits":
        fields["logits"] = np.array([[np.nan, 0.0]])
    np.savez(path, **fields)
    if malformed == "plain npy":
        path = str(tmp_path / "record.npy")
        np.save(path, GOOD_RECORD["logits"])
    elif malformed == "corrupt zip":
        with open(path, "r+b") as fh:
            fh.truncate(40)
    elif malformed == "empty file":
        open(path, "wb").close()
    ckpt, arch, _, _ = write_demo_pair(tmp_path)
    rc, _, err = run_cli(["analyze", ckpt, arch, "--n", "16",
                          "--equal-ramp-to", path])
    assert rc == 1 and err.startswith("error: logit record"), err


def _npy_member(header: dict, data: bytes = b"") -> bytes:
    """A version 1.0 .npy member whose header says `header` and whose data
    is `data`, however many bytes the header asks for."""
    fp = io.BytesIO()
    np.lib.format.write_array_header_1_0(fp, header)
    return fp.getvalue() + data


def _logit_record_bytes(**members) -> bytes:
    """An .npz archive of GOOD_RECORD with some members' bytes replaced."""
    fp = io.BytesIO()
    np.savez(fp, **GOOD_RECORD)
    if not members:
        return fp.getvalue()
    out = io.BytesIO()
    with zipfile.ZipFile(fp) as src, zipfile.ZipFile(out, "w") as dst:
        for name in src.namelist():
            dst.writestr(name, members.get(name[:-4], src.read(name)))
    return out.getvalue()


VALID_RECORD = _logit_record_bytes()
HUGE_SHAPE_RECORD = _logit_record_bytes(logits=_npy_member(
    {"descr": "<f8", "fortran_order": False, "shape": (10**12, 2)}))
WIDE_DTYPE_RECORD = _logit_record_bytes(gamma=_npy_member(
    {"descr": "|V1000000000000", "fortran_order": False, "shape": ()}))


def logit_record_blobs():
    """Arbitrary bytes, truncations and single-byte changes of a valid
    logit record."""
    size = len(VALID_RECORD)
    truncated = st.integers(0, size).map(lambda n: VALID_RECORD[:n])
    changed = st.tuples(st.integers(0, size - 1), st.integers(0, 255)).map(
        lambda at: (VALID_RECORD[:at[0]] + bytes([at[1]])
                    + VALID_RECORD[at[0] + 1:]))
    return st.one_of(st.binary(max_size=300), truncated, changed)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(logit_record_blobs())
@example(VALID_RECORD)
@example(HUGE_SHAPE_RECORD)
@example(WIDE_DTYPE_RECORD)
@example(_logit_record_bytes(gamma=b"not an npy member"))
def test_logit_record_fuzz_exits_cleanly(tmp_path, blob):
    """Every record `analyze --equal-ramp-to` reads either loads or is
    refused as bad input or as too large, before anything of its declared
    size is allocated."""
    demo = tmp_path / "demo"
    if not demo.exists():
        demo.mkdir()
        write_demo_pair(demo)
    path = tmp_path / "fuzz.npz"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        rc, _, err = run_cli(["analyze", str(demo / "demo.ckpt"),
                              str(demo / "arch.json"), "--n", "2",
                              "--equal-ramp-to", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**24
    assert rc == 0 or err.startswith(("error: logit record",
                                      "resource failure: logit record",
                                      "numerical failure: no margin")), err


def test_analyze_measures_each_block_once(tmp_path, monkeypatch):
    import capbound.cli as cli_module
    import capbound.traindemo as traindemo_module

    calls = {"fft_exact_norm": 0, "group_norm_21": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (cli_module, traindemo_module):
        for name in calls:
            if hasattr(module, name):
                counted(module, name)
    ckpt, arch, weights, _ = write_demo_pair(tmp_path)
    rc, _, _ = run_cli(["analyze", ckpt, arch, "--n", "16", "--json"])
    assert rc == 0
    assert calls == {"fft_exact_norm": len(weights),
                     "group_norm_21": len(weights)}


def test_analyze_forwards_each_sample_once_a_minibatch_at_a_time(
        tmp_path, monkeypatch):
    seen = {}
    forward = Block.forward
    monkeypatch.setattr(Block, "forward",
                        lambda blk, x: seen.setdefault(blk, []).append(
                            x.shape[-1]) or forward(blk, x))
    ckpt, arch, weights, _ = write_demo_pair(tmp_path)
    rc, _, _ = run_cli(["analyze", ckpt, arch, "--n", "40", "--json"])
    assert rc == 0
    assert len(seen) == len(weights)
    for samples in seen.values():
        assert sum(samples) == 40
        assert max(samples) <= TrainConfig().batch_size


@pytest.mark.parametrize("argv", [
    ["analyze", "--seed", "1"], ["analyze", "--max-iters", "5"],
    ["spectra", "--tol", "1e-3"], ["spectra", "--seed", "1"],
    ["train-demo", "--tol", "1e-3"],
])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, argv):
    ckpt, arch, _, _ = write_demo_pair(tmp_path)
    command, *flag = argv
    files = [] if command == "train-demo" else [ckpt, arch]
    rc, _, err = run_cli([command, *files, *flag])
    assert rc == 1
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command,flag,value", [
    ("project", "--max-iters", "0"), ("project", "--max-iters", "-2"),
    ("project", "--tol", "inf"), ("project", "--tol", "nan"),
    ("project", "--tol", "-1e-3"), ("analyze", "--tol", "inf"),
    ("analyze", "--tol", "nan"), ("analyze", "--tol", "-1"),
    ("analyze", "--data-seed", "-1"), ("train-demo", "--seed", "-3"),
    ("train-demo", "--data-seed", "-1"),
])
def test_subcommands_reject_bad_budget_and_tolerance(tmp_path, command, flag,
                                                     value):
    ckpt, arch, _, _ = write_demo_pair(tmp_path, bounds=(1.0, 1.0))
    out = tmp_path / "out.ckpt"
    files = [] if command == "train-demo" else [ckpt, arch]
    extra = ["--out", str(out)] if command == "project" else []
    rc, _, err = run_cli([command, *files, *extra, f"{flag}={value}"])
    assert rc == 1
    assert flag in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--gamma", "0"), ("--gamma", "inf"), ("--gamma", "-1"),
    ("--delta", "1.5"), ("--delta", "0"), ("--delta", "1"),
    ("--delta", "nan"), ("--epsilon", "0"), ("--epsilon", "-1"),
    ("--epsilon", "nan"), ("--epsilon", "inf"),
])
def test_analyze_rejects_bad_numbers_before_any_forward(tmp_path, monkeypatch,
                                                        flag, value):
    def refuse(*args):
        raise AssertionError("analyze forwarded a batch")

    monkeypatch.setattr(Block, "forward", refuse)
    ckpt, arch, _, _ = write_demo_pair(tmp_path)
    rc, _, err = run_cli(["analyze", ckpt, arch, f"{flag}={value}"])
    assert rc == 1
    assert flag in err


def test_analyze_shape_mismatch_names_tensor(tmp_path):
    ckpt, _, _, _ = write_demo_pair(tmp_path)
    arch = default_arch_doc()
    arch["blocks"][0]["c_out"] = 4
    bad = tmp_path / "bad_arch.json"
    bad.write_text(json.dumps(arch))
    rc, _, err = run_cli(["analyze", ckpt, str(bad)])
    assert rc == 1
    assert "block0" in err


@pytest.mark.parametrize("input_shape", [[2, 8, 8], [1, 4, 16]])
def test_analyze_refuses_data_of_another_shape_than_the_arch(
        tmp_path, input_shape):
    """The tasks' samples are (1, 8, 8); [1, 4, 16] has as many entries."""
    _, _, weights, _ = write_demo_pair(tmp_path)
    rng = np.random.default_rng(0)
    weights["block0"] = rng.standard_normal((8, input_shape[0], 3, 3))
    ckpt = str(tmp_path / "other.ckpt")
    write_checkpoint(ckpt, weights, {n: ZERO_REFERENCE for n in weights})
    arch = default_arch_doc()
    arch["input"] = input_shape
    arch["blocks"][0]["pool"] = "none"     # a pooled 4x16 grid is too thin
    path = tmp_path / "other.json"
    path.write_text(json.dumps(arch))
    rc, text, err = run_cli(["analyze", ckpt, str(path), "--n", "20"])
    assert rc == 1 and text == ""
    assert f"batch shape (20, 1, 8, 8) != (n,)+{tuple(input_shape)}" in err


def test_cli_usage_exit_codes(tmp_path):
    rc, _, _ = run_cli(["analyze", str(tmp_path / "ghost.ckpt"),
                        str(tmp_path / "ghost.json")])
    assert rc == 1
    rc, _, _ = run_cli(["analyze", "--bogus-flag"])
    assert rc == 1
    rc, _, _ = run_cli(["project", "a", "b"])   # --out missing
    assert rc == 1


def _subcommand_argv(command, ckpt, arch, tmp_path):
    if command == "train-demo":
        return [command, "--arch", arch, "--n", "16", "--epochs", "1"]
    extra = {"analyze": ["--n", "16"], "spectra": [],
             "project": ["--out", str(tmp_path / "out.ckpt")]}[command]
    return [command, ckpt, arch] + extra


@pytest.mark.parametrize("broken,command", [
    *itertools.product(["truncated checkpoint", "non-object arch doc"],
                       ["analyze", "spectra", "project"]),
    ("non-object arch doc", "train-demo"),
    ("non-UTF-8 arch doc", "spectra"),
    ("non-UTF-8 arch doc", "train-demo"),
])
def test_subcommands_reject_malformed_inputs(tmp_path, command, broken):
    ckpt, arch, _, _ = write_demo_pair(tmp_path, bounds=(1.5, 1.5))
    if broken == "truncated checkpoint":
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(blob[:-8])
    elif broken == "non-UTF-8 arch doc":
        with open(arch, "wb") as fh:
            fh.write(b'\xff\xfe{"format_version": 1}')
    else:
        with open(arch, "w", encoding="utf-8") as fh:
            json.dump(default_arch_doc()["blocks"], fh)
    rc, _, err = run_cli(_subcommand_argv(command, ckpt, arch, tmp_path))
    assert rc == 1 and err.startswith("error:"), err


@pytest.mark.parametrize("command,callee,message", [
    ("analyze", "build_net", "Unable to allocate 2.33 TiB for an array"),
    ("spectra", "fft_exact_spectrum", "Unable to allocate 2.33 TiB"),
    ("project", "operator_norm", ""),
])
def test_out_of_memory_is_a_resource_failure(tmp_path, monkeypatch, command,
                                             callee, message):
    """An input whose arrays do not fit (say "input": [1, 200000, 200000])
    ends in exit 2; the allocation failure is simulated, never attempted."""
    ckpt, arch, _, _ = write_demo_pair(tmp_path, bounds=(1.5, 1.5))

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"capbound.cli.{callee}", out_of_memory)
    rc, _, err = run_cli(_subcommand_argv(command, ckpt, arch, tmp_path))
    assert rc == 2
    assert err == f"resource failure: {message or 'out of memory'}\n"


# ---------------------------------------------------------------------------
# project


def write_slater_pair(tmp_path, seed=7):
    """Toy 4x4 checkpoint: references strictly inside both balls, weights
    outside. Bounds scale with the perturbation so the intersection is
    comfortably nonempty and 15 orthogonal cycles converge well past 1e-3.
    """
    rng = np.random.default_rng(seed)
    geometry = {"a": ConvSpec((1, 4, 4), (3, 3)),
                "b": ConvSpec((2, 4, 4), (3, 3))}
    weights, refs, bounds = {}, {}, {}
    for name, spec in geometry.items():
        shape = (2, spec.input_shape[0], 3, 3)
        noise = rng.standard_normal(shape)
        lip_noise = operator_norm(KernelTensor(noise), spec).value
        ref = init_scale_to_feasible(
            KernelTensor(rng.standard_normal(shape)), spec,
            0.2 * lip_noise).entries
        refs[name] = ref
        weights[name] = ref + noise
        bounds[name] = (0.5 * lip_noise,
                        0.5 * group_norm_21(KernelTensor(noise)))
    ckpt = tmp_path / "slater.ckpt"
    write_checkpoint(str(ckpt), weights, refs)
    arch = {"format_version": 1, "input": [1, 4, 4], "kappa": 2, "blocks": [
        {"name": "a", "c_out": 2, "k": 3,
         "s": bounds["a"][0], "b": bounds["a"][1]},
        {"name": "b", "c_out": 2, "k": 3,
         "s": bounds["b"][0], "b": bounds["b"][1]}]}
    arch_path = tmp_path / "arch_slater.json"
    arch_path.write_text(json.dumps(arch))
    return str(ckpt), str(arch_path), weights, refs, bounds


@pytest.mark.parametrize("scheme", ["alternating", "dykstra"])
def test_project_overflowing_fibers_exit_1(tmp_path, scheme):
    ckpt, arch, weights, refs, _ = write_slater_pair(tmp_path)
    huge = str(tmp_path / "huge.ckpt")
    # layer b's offsets from its reference have fibers past the float range
    # (two entries of 1.5e308), so its (2,1) shrink turns NaN
    refs = dict(refs, b=np.sign(refs["b"]) * 1.5e308)
    write_checkpoint(huge, weights, refs)
    with np.errstate(over="ignore", invalid="ignore"):
        rc, _, err = run_cli(["project", huge, arch, "--out",
                              str(tmp_path / "out.ckpt"), "--scheme", scheme])
    assert rc == 1
    assert err == "error: kernel contains non-finite entries\n"


@pytest.mark.parametrize("scheme", ["alternating", "dykstra", "radial"])
def test_project_weights_past_the_square_range(tmp_path, scheme):
    """Weights near 1e160 square past the float range, yet their (2,1)
    distances are finite, so every scheme projects them into both balls."""
    ckpt, arch, weights, refs, _ = write_slater_pair(tmp_path)
    huge = str(tmp_path / "huge.ckpt")
    write_checkpoint(huge, {n: w * 1e160 for n, w in weights.items()}, refs)
    out = str(tmp_path / "out.ckpt")
    with np.errstate(over="ignore"):
        rc, text, err = run_cli(["project", huge, arch, "--out", out,
                                 "--scheme", scheme, "--json"])
    assert rc == 0, err
    for row in json.loads(text)["layers"]:
        assert 1e160 < row["dist_before"] < math.inf and row["converged"]
        assert row["dist_after"] <= row["dist_bound"] * (1 + DEFAULT_TOL)
        assert row["lip_after"] <= row["lip_bound"] * (1 + DEFAULT_TOL)
    assert all(np.all(np.isfinite(a)) for a in read_checkpoint(out).arrays.values())


@pytest.mark.parametrize("command", [
    ["project", "--scheme", "alternating"], ["project", "--scheme", "dykstra"],
    ["project", "--scheme", "radial"], ["spectra"]])
def test_overflowing_frequency_stacks_exit_2(tmp_path, command):
    """Weights of 1.5e308 are finite, but their frequency stack overflows;
    every exact measurement refuses it with one line, not a traceback."""
    ckpt, arch, weights, refs, _ = write_slater_pair(tmp_path)
    huge = str(tmp_path / "huge.ckpt")
    write_checkpoint(huge, dict(weights, a=np.sign(weights["a"]) * 1.5e308),
                     refs)
    argv = [command[0], huge, arch] + command[1:]
    if command[0] == "project":
        argv += ["--out", str(tmp_path / "out.ckpt")]
    with np.errstate(over="ignore", invalid="ignore"):
        rc, _, err = run_cli(argv)
    assert rc == 2
    assert err.startswith("numerical failure: frequency stack has "
                          "non-finite entries") and err.count("\n") == 1


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    """A failing call and a valid one after it share one parser, and each
    gives the exit code and output it gives on a fresh parser."""
    ckpt, arch, _, _ = write_demo_pair(tmp_path)
    argvs = (["project", ckpt, arch], ["spectra", ckpt, arch, "--json"])
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run_cli(argv))
    assert fresh[0] == (1, "", "error: the following arguments are "
                                "required: --out\n")
    assert fresh[1][0] == 0 and json.loads(fresh[1][1])["layers"]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    cli._parser.cache_clear()
    assert [run_cli(argv) for argv in argvs] == fresh
    assert len(built) == 1


def test_project_tol_default_is_the_projection_tolerance():
    args = build_parser().parse_args(["project", "c", "a", "--out", "o"])
    assert args.tol == DEFAULT_TOL


def test_project_feasible_checkpoint_is_byte_identical(tmp_path):
    ckpt, arch, _, _ = write_demo_pair(tmp_path)   # unconstrained arch
    out = str(tmp_path / "out.ckpt")
    rc, text, _ = run_cli(["project", ckpt, arch, "--out", out, "--json"])
    assert rc == 0
    assert open(ckpt, "rb").read() == open(out, "rb").read()
    doc = json.loads(text)
    assert all(not r["projected"] for r in doc["layers"])


def test_project_alternating_reaches_tolerance(tmp_path):
    ckpt, arch, weights, refs, bounds = write_slater_pair(tmp_path)
    out = str(tmp_path / "alt.ckpt")
    rc, text, _ = run_cli(["project", ckpt, arch, "--out", out, "--json"])
    assert rc == 0
    doc = json.loads(text)
    assert doc["scheme"] == "alternating" and doc["rounds"] == 15
    for row in doc["layers"]:
        s, b = bounds[row["name"]]
        assert row["projected"] and row["error"] is None
        assert row["dist_before"] > b and row["lip_before"] > s
        assert row["dist_after"] <= b * (1 + 1e-3)
        assert row["lip_after"] <= s * (1 + 1e-3)
        assert row["converged"]
    ck = read_checkpoint(out)
    for name in bounds:
        moved = ck.weight(name)
        _, b = bounds[name]
        assert group_norm_21(KernelTensor(moved - refs[name])) <= b * (1 + 1e-3)


def test_project_dykstra_within_set_and_no_farther(tmp_path):
    ckpt, arch, weights, _, bounds = write_slater_pair(tmp_path)
    alt, dyk = str(tmp_path / "alt.ckpt"), str(tmp_path / "dyk.ckpt")
    rc1, _, _ = run_cli(["project", ckpt, arch, "--out", alt,
                         "--scheme", "alternating", "--max-iters", "60"])
    rc2, text, _ = run_cli(["project", ckpt, arch, "--out", dyk,
                            "--scheme", "dykstra", "--max-iters", "400",
                            "--json"])
    assert rc1 == 0 and rc2 == 0
    doc = json.loads(text)
    for row in doc["layers"]:
        s, b = bounds[row["name"]]
        assert row["dist_after"] <= b * (1 + 1e-3)
        assert row["lip_after"] <= s * (1 + 1e-3)
    ck_alt, ck_dyk = read_checkpoint(alt), read_checkpoint(dyk)
    for name in bounds:
        move_alt = np.linalg.norm(ck_alt.weight(name) - weights[name])
        move_dyk = np.linalg.norm(ck_dyk.weight(name) - weights[name])
        assert move_dyk <= move_alt + 1e-6


def test_project_radial_scales_onto_bounds(tmp_path):
    ckpt, arch, weights, refs, bounds = write_slater_pair(tmp_path)
    out = str(tmp_path / "rad.ckpt")
    rc, text, _ = run_cli(["project", ckpt, arch, "--out", out,
                           "--scheme", "radial", "--max-iters", "50", "--json"])
    assert rc == 0
    doc = json.loads(text)
    for row in doc["layers"]:
        s, b = bounds[row["name"]]
        assert row["lip_after"] <= s * (1 + 1e-3)
        assert row["dist_after"] <= b * (1 + 1e-3)
    # radial moves at least as far as the orthogonal route
    alt_out = str(tmp_path / "alt_for_radial.ckpt")
    run_cli(["project", ckpt, arch, "--out", alt_out, "--max-iters", "60"])
    ck_rad, ck_alt = read_checkpoint(out), read_checkpoint(alt_out)
    for name in bounds:
        move_rad = np.linalg.norm(ck_rad.weight(name) - weights[name])
        move_alt = np.linalg.norm(ck_alt.weight(name) - weights[name])
        assert move_rad >= move_alt - 1e-6


def test_project_ineligible_layer_reported_run_continues(tmp_path):
    rng = np.random.default_rng(3)
    w_strided = rng.standard_normal((4, 1, 3, 3))
    spec_ok = ConvSpec((4, 4, 4), (3, 3))
    ref_ok = init_scale_to_feasible(
        KernelTensor(rng.standard_normal((4, 4, 3, 3))), spec_ok, 2.0).entries
    w_ok = ref_ok + rng.standard_normal(ref_ok.shape)
    ckpt = str(tmp_path / "mix.ckpt")
    write_checkpoint(ckpt, {"strided": w_strided, "plain": w_ok},
                     {"strided": ZERO_REFERENCE, "plain": ref_ok})
    arch = {"format_version": 1, "input": [1, 8, 8], "kappa": 2, "blocks": [
        {"name": "strided", "c_out": 4, "k": 3, "stride": 2,
         "s": 2.0, "b": 1.5},
        {"name": "plain", "c_out": 4, "k": 3, "s": 2.0, "b": 1.5}]}
    arch_path = tmp_path / "mix.json"
    arch_path.write_text(json.dumps(arch))
    out = str(tmp_path / "mix_out.ckpt")
    rc, text, _ = run_cli(["project", ckpt, str(arch_path), "--out", out,
                           "--json"])
    assert rc == 0
    doc = json.loads(text)
    rows = {r["name"]: r for r in doc["layers"]}
    assert rows["strided"]["error"] is not None
    assert "stride-1 circular" in rows["strided"]["error"]
    assert not rows["strided"]["projected"]
    assert rows["plain"]["error"] is None and rows["plain"]["projected"]
    ck = read_checkpoint(out)
    assert np.array_equal(ck.weight("strided"), w_strided)  # copied untouched
    assert not np.array_equal(ck.weight("plain"), w_ok)


def test_project_distance_only_constraint_works_on_strided_layer(tmp_path):
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 1, 3, 3)) * 3.0
    ckpt = str(tmp_path / "d.ckpt")
    write_checkpoint(ckpt, {"a": w}, {"a": ZERO_REFERENCE})
    arch = {"format_version": 1, "input": [1, 8, 8], "kappa": 2, "blocks": [
        {"name": "a", "c_out": 4, "k": 3, "stride": 2, "b": 1.0}]}
    arch_path = tmp_path / "d.json"
    arch_path.write_text(json.dumps(arch))
    out = str(tmp_path / "d_out.ckpt")
    rc, text, _ = run_cli(["project", ckpt, str(arch_path), "--out", out,
                           "--json"])
    assert rc == 0
    row = json.loads(text)["layers"][0]
    assert row["projected"] and row["error"] is None
    projected = read_checkpoint(out).weight("a")
    assert group_norm_21(KernelTensor(projected)) <= 1.0 + 1e-9
    # the stride divides the grid: both measurements are exact (polyphase),
    # so the row carries no power iteration fields
    spec = ConvSpec((1, 8, 8), (3, 3), (2, 2))
    assert row["lip_method"] == "polyphase_exact"
    assert not any(key.startswith(("lip_iterations", "lip_residual"))
                   for key in row)
    for when, weight in (("before", w), ("after", projected)):
        dense = materialize(KernelTensor(weight), spec).entries
        assert row[f"lip_{when}"] == pytest.approx(
            np.linalg.svd(dense, compute_uv=False)[0], rel=1e-12)


def test_project_json_rows_count_the_clip_svds(tmp_path):
    """Each projected row carries its run's `clip_svds`: positive for the
    clipping schemes, 0 for radial moves; the text report is unchanged."""
    ckpt, arch, weights, refs, _ = write_slater_pair(tmp_path)
    graph = parse_archdoc(open(arch, encoding="utf-8").read())
    out = str(tmp_path / "out.ckpt")
    for scheme, run in (("alternating", alternating_projections),
                        ("dykstra", admm), ("radial", radial_cycle)):
        rc, text, _ = run_cli(["project", ckpt, arch, "--out", out,
                               "--scheme", scheme, "--json"])
        assert rc == 0
        for row, layer in zip(json.loads(text)["layers"], graph.layers):
            cs = ConstraintSet(KernelTensor(refs[layer.name]),
                               layer.dist_bound, layer.lip_bound, layer.spec)
            want = run(KernelTensor(weights[layer.name]), cs)[1].clip_svds
            assert row["projected"] and row["clip_svds"] == want
            assert (want > 0) == (scheme != "radial")
        rc, text, _ = run_cli(["project", ckpt, arch, "--out", out,
                               "--scheme", scheme])
        assert rc == 0 and "svd" not in text


def test_project_json_rows_say_how_each_lip_was_measured(tmp_path):
    """A zero_same layer has no exact route: its rows carry the power
    iteration's iterations and residual, before and after; an exact row
    carries neither."""
    rng = np.random.default_rng(11)
    w_zs = rng.standard_normal((4, 1, 3, 3)) * 3.0
    spec_ok = ConvSpec((4, 8, 8), (3, 3))
    ref_ok = init_scale_to_feasible(
        KernelTensor(rng.standard_normal((4, 4, 3, 3))), spec_ok, 2.0).entries
    w_ok = ref_ok + rng.standard_normal(ref_ok.shape)
    ckpt = str(tmp_path / "zs.ckpt")
    write_checkpoint(ckpt, {"zs": w_zs, "plain": w_ok},
                     {"zs": ZERO_REFERENCE, "plain": ref_ok})
    doc = {"format_version": 1, "input": [1, 8, 8], "kappa": 2, "blocks": [
        {"name": "zs", "c_out": 4, "k": 3, "padding": "zero_same", "b": 1.0},
        {"name": "plain", "c_out": 4, "k": 3, "s": 2.0, "b": 1.5}]}
    arch = tmp_path / "zs.json"
    arch.write_text(json.dumps(doc))
    out = str(tmp_path / "zs_out.ckpt")
    rc, text, _ = run_cli(["project", ckpt, str(arch), "--out", out,
                           "--json"])
    assert rc == 0
    zs, plain = json.loads(text)["layers"]
    spec = parse_archdoc(json.dumps(doc)).layers[0].spec
    assert zs["projected"] and zs["lip_method"] == "power_iteration"
    projected = read_checkpoint(out).weight("zs")
    for when, weight in (("before", w_zs), ("after", projected)):
        want = power_iteration(KernelTensor(weight), spec)
        assert zs[f"lip_{when}"] == want.value
        assert zs[f"lip_iterations_{when}"] == want.iterations_used > 1
        assert zs[f"lip_residual_{when}"] == want.residual < 1e-6
    assert plain["projected"] and plain["lip_method"] == "fft_exact"
    assert not any(key.startswith(("lip_iterations", "lip_residual"))
                   for key in plain)


def test_project_nearest_point_max_iters_is_a_cap(tmp_path):
    """For the nearest-point scheme --max-iters caps the iterations, and
    `rounds_run` reports the ones used: all 5 here, fewer than the default
    cap of 100 without the flag."""
    ckpt, arch, _, _, _ = write_slater_pair(tmp_path)
    out = str(tmp_path / "out.ckpt")
    for extra, check in ((["--max-iters", "5"], lambda n: n == 5),
                         ([], lambda n: 5 < n < 100)):
        rc, text, _ = run_cli(["project", ckpt, arch, "--out", out,
                               "--scheme", "dykstra", "--json", *extra])
        assert rc == 0
        rows = json.loads(text)["layers"]
        assert all(r["projected"] and check(r["rounds_run"]) for r in rows)


@pytest.mark.parametrize("scheme", ["alternating", "dykstra", "radial"])
def test_project_survives_weights_far_from_reference(tmp_path, scheme):
    """Weights about 1e18 from their reference against b = 3: the (2,1)
    threshold cancels at that scale, and the run still exits 0 with finite
    measurements of every projected layer."""
    _, arch, _, refs = write_demo_pair(tmp_path, ref_scale=1.0,
                                       bounds=(2.0, 3.0))
    far = {name: ref + 1e18 for name, ref in refs.items()}
    ckpt, out = str(tmp_path / "far.ckpt"), str(tmp_path / "far_out.ckpt")
    write_checkpoint(ckpt, far, refs)
    rc, text, _ = run_cli(["project", ckpt, arch, "--out", out,
                           "--scheme", scheme, "--json"])
    assert rc == 0
    for row in json.loads(text)["layers"]:
        assert row["projected"] and row["dist_before"] > 1e18
        assert math.isfinite(row["dist_after"]) and row["dist_after"] < 1e3
        assert math.isfinite(row["lip_after"])


# ---------------------------------------------------------------------------
# train-demo


def test_train_demo_unconstrained_cell_equals_plain_sgd(tmp_path):
    rc, out, _ = run_cli(["train-demo", "--task", "blobs", "--n", "48",
                          "--n-test", "32", "--epochs", "3", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["cells"]) == 1
    cell = doc["cells"][0]
    assert cell["lip_bound"] == math.inf and cell["dist_bound"] == math.inf

    batch, labels = synth_data("blobs", 48, seed=2)
    test_batch, test_labels = synth_data("blobs", 32, seed=3)
    net = demo_net(seed=0)
    config = TrainConfig(epochs=3, seed=0)
    result = train_projected(net, batch, labels, config,
                             test_batch=test_batch, test_labels=test_labels)
    assert cell["train_error"] == result.trajectory[-1].train_error
    assert cell["test_error"] == result.trajectory[-1].test_error
    assert [t["mean_loss"] for t in cell["trajectory"]] == [
        s.mean_loss for s in result.trajectory]


def test_train_demo_grid_round_trip_and_determinism(tmp_path):
    argv = ["train-demo", "--task", "blobs", "--n", "32", "--n-test", "32",
            "--epochs", "2", "--lip-grid", "2.0,inf",
            "--dist-grid", "1.0,inf", "--json"]
    rc, out, _ = run_cli(argv)
    assert rc == 0
    doc = json.loads(out)
    assert [(c["lip_bound"], c["dist_bound"]) for c in doc["cells"]] == [
        (2.0, 1.0), (2.0, math.inf), (math.inf, 1.0), (math.inf, math.inf)]
    for cell in doc["cells"]:
        assert not cell["diverged"]
        assert len(cell["trajectory"]) == 2
    # losslessly re-serializable
    assert json.loads(json.dumps(doc)) == doc
    rc2, out2, _ = run_cli(argv)
    assert out2 == out

    rc3, text, _ = run_cli(argv[:-1])
    assert rc3 == 0 and "test accuracy per (s, b) cell" in text


def test_train_demo_divergent_cell_marked_run_continues():
    with np.errstate(over="ignore", invalid="ignore"):
        rc, out, _ = run_cli(["train-demo", "--task", "blobs", "--n", "32",
                              "--epochs", "2", "--lr", "1e80",
                              "--lip-grid", "inf", "--dist-grid", "1.0,inf",
                              "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["cells"]) == 2
    assert all(c["diverged"] for c in doc["cells"])


def test_train_demo_diverged_cell_is_not_feasible():
    with np.errstate(over="ignore", invalid="ignore"):
        rc, out, _ = run_cli(["train-demo", "--task", "blobs", "--n", "32",
                              "--epochs", "2", "--lr", "1e150",
                              "--lip-grid", "2", "--dist-grid", "1",
                              "--json"])
    assert rc == 0
    [cell] = json.loads(out)["cells"]
    assert cell["diverged"]
    assert not cell["feasible"] and not cell["cap_hit"]


def test_train_demo_save_dir_artifacts(tmp_path):
    save = tmp_path / "runs"
    rc, out, _ = run_cli(["train-demo", "--task", "blobs", "--n", "32",
                          "--epochs", "2", "--lip-grid", "2.0",
                          "--dist-grid", "inf", "--save-dir", str(save),
                          "--json"])
    assert rc == 0
    arch_path = save / "arch.json"
    ckpt_path = save / "cell_s2_binf.ckpt"
    log_path = save / "cell_s2_binf.jsonl"
    assert arch_path.exists() and ckpt_path.exists() and log_path.exists()
    graph = parse_archdoc(arch_path.read_text())
    ck = read_checkpoint(str(ckpt_path))
    net, refs = build_net(graph, ck)   # saved artifacts analyze cleanly
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(lines) == 2 and "train_error" in lines[0]
    rc, _, _ = run_cli(["analyze", str(ckpt_path), str(arch_path),
                        "--n", "32", "--json"])
    assert rc == 0


def test_train_demo_reports_the_saved_nets_errors(tmp_path):
    # the post pass moves this cell's training error from 0.03125 (the
    # last epoch's) to 0.25; the cell reports the saved net's, as analyze
    # measures it on the same data
    save = tmp_path / "runs"
    rc, out, _ = run_cli(["train-demo", "--task", "rings", "--n", "32",
                          "--n-test", "16", "--epochs", "4", "--seed", "3",
                          "--lip-grid", "2", "--dist-grid", "1",
                          "--save-dir", str(save), "--json"])
    assert rc == 0
    [cell] = json.loads(out)["cells"]
    assert cell["train_error"] != cell["trajectory"][-1]["train_error"]
    assert cell["train_accuracy"] == 1.0 - cell["train_error"]
    ckpt, arch = str(save / "cell_s2_b1.ckpt"), str(save / "arch.json")
    for n, data_seed, key in ((32, 2, "train_error"), (16, 3, "test_error")):
        rc, text, _ = run_cli(["analyze", ckpt, arch, "--task", "rings",
                               "--n", str(n), "--data-seed", str(data_seed),
                               "--json"])
        assert rc == 0
        assert json.loads(text)["error"] == cell[key]


def test_analyze_refuses_a_net_whose_activations_overflow(tmp_path):
    ckpt, arch, weights, refs = write_demo_pair(tmp_path)
    big = str(tmp_path / "big.ckpt")
    write_checkpoint(big, {n: k * 1e200 for n, k in weights.items()}, refs)
    with np.errstate(over="ignore", invalid="ignore"):
        rc, _, err = run_cli(["analyze", big, arch, "--n", "16"])
    assert rc == 1
    assert "activations overflowed: block 1 " in err


@pytest.mark.parametrize("scale, flags", [
    (1.0, ["--epsilon", "1e-200"]),
    (1.0, ["--epsilon", "1e200"]),
    (1e80, ["--epsilon", "0.1"]),
    (1.0, ["--gamma", "1e-320"]),
])
def test_analyze_saturates_instead_of_raising(tmp_path, scale, flags):
    # each case once ended in a traceback: n/eps^2 dividing by an eps^2
    # that underflowed to 0, an eps^2 or a cover term past the float range,
    # and a saturated row's log10 of None in the text table
    ckpt, arch, weights, refs = write_demo_pair(tmp_path)
    if scale != 1.0:
        ckpt = str(tmp_path / "scaled.ckpt")
        write_checkpoint(ckpt, {n: k * scale for n, k in weights.items()},
                         refs)
    argv = ["analyze", ckpt, arch, "--n", "16", *flags]
    with np.errstate(over="ignore", invalid="ignore"):
        rc, text, _ = run_cli(argv)
        rc_json, out, _ = run_cli([*argv, "--json"])
    assert rc == 0 and rc_json == 0
    doc = json.loads(out)
    if "--gamma" in flags:
        rows = [doc["clubs"], doc["spades"], doc["comparison"]["ours_clubs"],
                doc["comparison"]["ours_spades"]]
        assert "ours_spades                     inf" in text
    else:
        rows = [doc["cover"]["norms"], doc["cover"]["params"]]
    for row in rows:
        if flags[1] == "1e200":
            assert math.isfinite(row["value"]) and math.isfinite(row["log10"])
        else:
            assert row["value"] == math.inf and row["log10"] == math.inf


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_analyze_measures_weights_whose_squares_overflow(tmp_path, scale):
    """One block whose weights' squares overflow while its activations stay
    finite: every comparison row's log10 is a number, and no numpy warning
    is raised on the way."""
    rng = np.random.default_rng(5)
    ref = 0.3 * rng.standard_normal((4, 1, 3, 3))
    weight = (ref + 0.1 * rng.standard_normal(ref.shape)) * scale
    ckpt = str(tmp_path / "huge.ckpt")
    write_checkpoint(ckpt, {"b0": weight}, {"b0": ref})
    arch = tmp_path / "huge.json"
    arch.write_text(json.dumps({"format_version": 1, "input": [1, 8, 8],
                                "kappa": 2, "blocks": [
                                    {"name": "b0", "c_out": 4, "k": 3}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(["analyze", ckpt, str(arch), "--n", "16",
                                "--json"])
    assert rc == 0 and err == "" and caught == []
    rows = json.loads(out)["comparison"]
    assert rows and all(math.isfinite(row["log10"]) for row in rows.values())


def test_train_demo_rejects_bad_grid():
    rc, _, err = run_cli(["train-demo", "--lip-grid", "2.0,zero"])
    assert rc == 1 and "zero" in err
    rc, _, _ = run_cli(["train-demo", "--lip-grid", "-1"])
    assert rc == 1
    rc, _, _ = run_cli(["train-demo", "--lip-grid", ","])
    assert rc == 1


# ---------------------------------------------------------------------------
# spectra


def test_spectra_identity_and_zero(tmp_path):
    ident = np.zeros((2, 2, 1, 1))
    ident[0, 0, 0, 0] = 1.0
    ident[1, 1, 0, 0] = 1.0
    zero = np.zeros((2, 2, 3, 3))
    ckpt = str(tmp_path / "idz.ckpt")
    write_checkpoint(ckpt, {"ident": ident, "zero": zero},
                     {"ident": ZERO_REFERENCE, "zero": ZERO_REFERENCE})
    arch = {"format_version": 1, "input": [2, 6, 6], "kappa": 2, "blocks": [
        {"name": "ident", "c_out": 2, "k": 1},
        {"name": "zero", "c_out": 2, "k": 3}]}
    arch_path = tmp_path / "idz.json"
    arch_path.write_text(json.dumps(arch))
    rc, out, _ = run_cli(["spectra", ckpt, str(arch_path), "--json"])
    assert rc == 0
    rows = {r["name"]: r for r in json.loads(out)["layers"]}
    assert rows["ident"]["min"] == 1.0 and rows["ident"]["max"] == 1.0
    assert rows["zero"]["min"] == 0.0 and rows["zero"]["max"] == 0.0
    assert rows["ident"]["count"] == 2 * 36


def test_spectra_max_matches_power_iteration(tmp_path):
    ckpt, arch, weights, _ = write_demo_pair(tmp_path, seed=21)
    rc, out, _ = run_cli(["spectra", ckpt, arch, "--json"])
    assert rc == 0
    rows = {r["name"]: r for r in json.loads(out)["layers"]}
    specs = {"block0": ConvSpec((1, 8, 8), (3, 3)),
             "block1": ConvSpec((8, 4, 4), (3, 3))}
    for name, spec in specs.items():
        est = power_iteration(KernelTensor(weights[name]), spec,
                              tol=1e-10, max_iters=5000)
        assert rows[name]["max"] == pytest.approx(est.value, rel=1e-4)
    for r in rows.values():
        assert r["min"] <= r["q25"] <= r["median"] <= r["q75"] <= r["max"]


def test_spectra_skips_ineligible_with_reason(tmp_path):
    rng = np.random.default_rng(9)
    ckpt = str(tmp_path / "mix.ckpt")
    write_checkpoint(ckpt, {"strided": rng.standard_normal((2, 1, 3, 3)),
                            "plain": rng.standard_normal((2, 2, 3, 3))},
                     {"strided": ZERO_REFERENCE, "plain": ZERO_REFERENCE})
    arch = {"format_version": 1, "input": [1, 8, 8], "kappa": 2, "blocks": [
        {"name": "strided", "c_out": 2, "k": 3, "stride": 2},
        {"name": "plain", "c_out": 2, "k": 3}]}
    arch_path = tmp_path / "mix.json"
    arch_path.write_text(json.dumps(arch))
    rc, out, _ = run_cli(["spectra", ckpt, str(arch_path), "--json"])
    assert rc == 0
    rows = {r["name"]: r for r in json.loads(out)["layers"]}
    assert rows["strided"]["skipped"]
    assert "stride-1 circular" in rows["strided"]["reason"]
    assert not rows["plain"]["skipped"]
    assert math.isfinite(rows["plain"]["max"])
