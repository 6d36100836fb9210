import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capbound import convop
from capbound.convop import (
    ConvSpec,
    conv_adjoint,
    conv_adjoint_batch,
    conv_forward,
    conv_forward_batch,
    materialize,
    mk_norm_identities,
)
from capbound.errors import ResourceError, UsageError
from capbound.tensors import KernelTensor, batch_last, window_columns
from capbound.traindemo import ConvLayer

from oracles import loop_conv


def random_case(rng, padding=None, stride=None):
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 4))
    h = int(rng.integers(2, 7))
    w = int(rng.integers(2, 7))
    k_h = int(rng.integers(1, min(4, h + 1)))
    k_w = int(rng.integers(1, min(4, w + 1)))
    s = stride if stride is not None else int(rng.integers(1, 3))
    pad = padding or ("circular" if rng.random() < 0.5 else "zero_same")
    spec = ConvSpec((c_in, h, w), (k_h, k_w), (s, s), pad)
    k = KernelTensor(rng.standard_normal((c_out, c_in, k_h, k_w)))
    x = rng.standard_normal((c_in, h, w))
    return spec, k, x


def test_forward_matches_scalar_loop():
    rng = np.random.default_rng(0)
    for _ in range(40):
        spec, k, x = random_case(rng)
        got = conv_forward(k, spec, x)
        want = loop_conv(k.entries, x, *spec.strides, spec.padding)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_forward_frozen_1d_style_example():
    # single row, kernel 3 wide, circular: plain circular correlation
    spec = ConvSpec((1, 1, 5), (1, 3), (1, 1), "circular")
    k = KernelTensor(np.arange(1.0, 4.0).reshape(1, 1, 1, 3))  # taps 1,2,3
    x = np.arange(5.0).reshape(1, 1, 5)
    got = conv_forward(k, spec, x)
    # out[nu] = 1*x[nu-1] + 2*x[nu] + 3*x[nu+1] (circular)
    want = np.array([4.0 + 0.0 + 3.0, 0.0 + 2.0 + 6.0, 1.0 + 4.0 + 9.0,
                     2.0 + 6.0 + 12.0, 3.0 + 8.0 + 0.0]).reshape(1, 1, 5)
    np.testing.assert_allclose(got, want)


def test_even_kernel_offsets_reach_back_one():
    # k=2 has offsets {-1, 0}: output at position 0 must read input at h-1
    spec = ConvSpec((1, 4, 1), (2, 1), (1, 1), "circular")
    k = KernelTensor(np.array([[1.0], [0.0]]).reshape(1, 1, 2, 1))
    x = np.arange(4.0).reshape(1, 4, 1)
    got = conv_forward(k, spec, x)[0, :, 0]
    np.testing.assert_allclose(got, [3.0, 0.0, 1.0, 2.0])


def test_strided_output_shape_is_ceil():
    spec = ConvSpec((1, 5, 5), (3, 3), (2, 2), "zero_same")
    assert spec.out_spatial == (3, 3)
    spec2 = ConvSpec((1, 6, 4), (3, 3), (2, 3), "circular")
    assert spec2.out_spatial == (3, 2)


def test_batch_forward_matches_single():
    rng = np.random.default_rng(2)
    spec, k, _ = random_case(rng)
    xs = rng.standard_normal((5,) + spec.input_shape)
    got = conv_forward_batch(k, spec, xs)
    for t in range(5):
        np.testing.assert_allclose(got[t], conv_forward(k, spec, xs[t]), atol=1e-12)


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        spec, k, x = random_case(rng)
        out_h, out_w = spec.out_spatial
        y = rng.standard_normal((k.c_out, out_h, out_w))
        lhs = float(np.sum(conv_forward(k, spec, x) * y))
        rhs = float(np.sum(x * conv_adjoint(k, spec, y)))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


def test_linearity_in_kernel_and_input():
    rng = np.random.default_rng(4)
    spec, k1, x = random_case(rng)
    k2 = KernelTensor(rng.standard_normal(k1.shape))
    both = conv_forward(KernelTensor(k1.entries + k2.entries), spec, x)
    np.testing.assert_allclose(
        both, conv_forward(k1, spec, x) + conv_forward(k2, spec, x), atol=1e-11
    )
    np.testing.assert_allclose(
        conv_forward(k1, spec, 2.5 * x), 2.5 * conv_forward(k1, spec, x), atol=1e-11
    )


def test_zero_input_maps_to_zero():
    rng = np.random.default_rng(5)
    spec, k, _ = random_case(rng)
    out = conv_forward(k, spec, np.zeros(spec.input_shape))
    assert np.all(out == 0)


def test_materialize_columns_match_basis_probes():
    rng = np.random.default_rng(6)
    for _ in range(10):
        spec, k, _ = random_case(rng)
        m = materialize(k, spec).entries
        c_in, h, w = spec.input_shape
        dim = c_in * h * w
        for col in range(dim):
            e = np.zeros(dim)
            e[col] = 1.0
            probe = conv_forward(k, spec, e.reshape(c_in, h, w)).ravel()
            np.testing.assert_allclose(m[:, col], probe, atol=1e-12)


def test_materialize_applies_like_forward():
    rng = np.random.default_rng(7)
    spec, k, x = random_case(rng)
    m = materialize(k, spec).entries
    np.testing.assert_allclose(
        m @ x.ravel(), conv_forward(k, spec, x).ravel(), atol=1e-11
    )


def test_materialize_cap(monkeypatch):
    monkeypatch.setattr(convop, "MATERIALIZE_CAP", 10)
    spec = ConvSpec((1, 3, 3), (1, 1))
    k = KernelTensor(np.ones((1, 1, 1, 1)))
    with pytest.raises(ResourceError):
        materialize(k, spec)
    monkeypatch.setattr(convop, "MATERIALIZE_CAP", 1000)
    materialize(k, spec)


def test_forward_norm_bounded_by_dense_spectral_norm():
    rng = np.random.default_rng(8)
    for _ in range(10):
        spec, k, x = random_case(rng)
        m = materialize(k, spec).entries
        sigma = np.linalg.svd(m, compute_uv=False)[0]
        lhs = np.sqrt((conv_forward(k, spec, x) ** 2).sum())
        rhs = sigma * np.sqrt((x**2).sum())
        assert lhs <= rhs * (1 + 1e-10) + 1e-12


def test_shape_mismatch_raises():
    spec = ConvSpec((2, 4, 4), (3, 3))
    k = KernelTensor(np.ones((1, 2, 3, 3)))
    with pytest.raises(UsageError):
        conv_forward(k, spec, np.zeros((2, 5, 4)))
    with pytest.raises(UsageError):
        conv_forward(KernelTensor(np.ones((1, 3, 3, 3))), spec, np.zeros((2, 4, 4)))
    with pytest.raises(UsageError):
        ConvSpec((1, 2, 2), (3, 3), (1, 1), "circular")
    with pytest.raises(UsageError):
        ConvSpec((1, 4, 4), (3, 3), (0, 1))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adjoint_identity_property(seed):
    rng = np.random.default_rng(seed)
    spec, k, x = random_case(rng)
    out_h, out_w = spec.out_spatial
    y = rng.standard_normal((k.c_out, out_h, out_w))
    lhs = float(np.sum(conv_forward(k, spec, x) * y))
    rhs = float(np.sum(x * conv_adjoint(k, spec, y)))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def grid_case(rng, d_choices=(2, 4, 6)):
    d = int(rng.choice(d_choices))
    t = int(rng.choice([tt for tt in (1, 2) if d % tt == 0]))
    k = int(rng.integers(1, d + 1))
    c_in = int(rng.integers(1, 3))
    c_out = int(rng.integers(1, 3))
    spec = ConvSpec((c_in, d, d), (k, k), (t, t), "circular")
    kern = KernelTensor(rng.standard_normal((c_out, c_in, k, k)))
    return spec, kern


def test_norm_identities_hold_on_random_grids():
    rng = np.random.default_rng(9)
    for _ in range(25):
        spec, kern = grid_case(rng)
        rep = mk_norm_identities(kern, spec, pq_pairs=((3.0, 2.0),))
        assert rep.ok, (rep.measured, rep.predicted)
        assert rep.max_rel_error <= 1e-8
        assert rep.inequality_ok


def test_norm_identities_frozen_single_tap():
    # 1x1 kernel with value 2 on a 4x4 grid, stride 2: d/t = 2
    spec = ConvSpec((1, 4, 4), (1, 1), (2, 2), "circular")
    kern = KernelTensor(np.full((1, 1, 1, 1), 2.0))
    rep = mk_norm_identities(kern, spec)
    assert rep.predicted["l21"] == pytest.approx(4 * 2.0)
    assert rep.predicted["frobenius"] == pytest.approx(2 * 2.0)
    assert rep.predicted["l1_inf"] == pytest.approx(2.0)
    assert rep.ok


def test_norm_identities_reject_bad_geometry():
    kern = KernelTensor(np.ones((1, 1, 2, 2)))
    with pytest.raises(UsageError):
        mk_norm_identities(kern, ConvSpec((1, 4, 4), (2, 2), (1, 1), "zero_same"))
    with pytest.raises(UsageError):
        mk_norm_identities(kern, ConvSpec((1, 4, 6), (2, 2), (1, 1), "circular"))
    with pytest.raises(UsageError):
        mk_norm_identities(kern, ConvSpec((1, 6, 6), (2, 2), (4, 4), "circular"))


@st.composite
def geometries(draw):
    padding = draw(st.sampled_from(["circular", "zero_same"]))
    h = draw(st.integers(1, 7))
    w = draw(st.integers(1, 7))
    k_cap = (h, w) if padding == "circular" else (5, 5)
    k_h = draw(st.integers(1, k_cap[0]))
    k_w = draw(st.integers(1, k_cap[1]))
    strides = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]))
    c_in = draw(st.integers(1, 3))
    c_out = draw(st.integers(1, 3))
    return (padding, (c_in, h, w), (k_h, k_w), strides, c_out,
            draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(geometries())
@example(("zero_same", (1, 5, 5), (3, 3), (2, 2), 2, 2, 1))
@example(("zero_same", (2, 3, 6), (4, 2), (1, 2), 1, 3, 2))      # k > h
@example(("circular", (1, 6, 4), (2, 4), (2, 1), 3, 2, 3))       # even, k == w
@example(("circular", (3, 4, 4), (4, 4), (1, 1), 2, 2, 4))       # k == h
@example(("circular", (1, 5, 7), (3, 2), (2, 2), 2, 3, 5))       # c_in 1
def test_windowed_route_matches_dense_operator(case):
    padding, shape, kshape, strides, c_out, n, seed = case
    rng = np.random.default_rng(seed)
    spec = ConvSpec(shape, kshape, strides, padding)
    kern = KernelTensor(rng.standard_normal((c_out, shape[0]) + kshape))
    m = materialize(kern, spec).entries
    xs = rng.standard_normal((n,) + shape)
    ys = rng.standard_normal((n, c_out) + spec.out_spatial)
    flat_x, flat_y = xs.reshape(n, -1), ys.reshape(n, -1)
    tol = dict(rtol=1e-12, atol=1e-12)

    fwd = conv_forward_batch(kern, spec, xs)
    np.testing.assert_allclose(fwd.reshape(n, -1), flat_x @ m.T, **tol)
    adj = conv_adjoint_batch(kern, spec, ys)
    np.testing.assert_allclose(adj.reshape(n, -1), flat_y @ m, **tol)
    for t in range(n):
        np.testing.assert_allclose(conv_forward(kern, spec, xs[t]).ravel(),
                                   m @ flat_x[t], **tol)
        single = conv_adjoint(kern, spec, ys[t])
        np.testing.assert_allclose(single.ravel(), m.T @ flat_y[t], **tol)
        np.testing.assert_allclose(adj[t], single, **tol)

    # d <ys, conv(K, xs)> / dK: the operator of a one-tap kernel, densely
    want = np.zeros(kern.shape)
    for idx in np.ndindex(kern.shape):
        unit = np.zeros(kern.shape)
        unit[idx] = 1.0
        tap = materialize(KernelTensor(unit), spec).entries
        want[idx] = np.einsum("np,pq,nq->", flat_y, tap, flat_x)
    cols = window_columns(batch_last(xs), kshape, strides, padding)
    got = (batch_last(ys).reshape(c_out, -1) @ cols.T).reshape(kern.shape)
    np.testing.assert_allclose(got, want, **tol)
    if padding == "circular" and strides == (1, 1):
        # the training layer runs the same batch-last (c, h, w, n) route
        layer = ConvLayer(kern.entries, spec)
        bl_fwd = layer.forward(batch_last(xs))
        np.testing.assert_array_equal(np.moveaxis(bl_fwd, -1, 0), fwd)
        bl_adj = layer.backward(batch_last(ys))
        np.testing.assert_array_equal(np.moveaxis(bl_adj, -1, 0), adj)
        np.testing.assert_array_equal(layer.grad, got)


@pytest.mark.parametrize("seed", range(6))
def test_batch_last_conv_layer_matches_the_batch_operators(seed):
    """ConvLayer runs batch-last (c, h, w, n); its forward, kernel gradient
    and input gradient are the (n, c, h, w) batch operators transposed, bit
    for bit: both run convop's one batch-last route."""
    rng = np.random.default_rng(100 + seed)
    c_in, c_out, n = (int(v) for v in rng.integers(1, 5, size=3))
    h, w = (int(v) for v in rng.integers(2, 9, size=2))
    kshape = (int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1)))
    spec = ConvSpec((c_in, h, w), kshape)
    kern = KernelTensor(rng.standard_normal((c_out, c_in) + kshape))
    xs = rng.standard_normal((n, c_in, h, w))
    ys = rng.standard_normal((n, c_out, h, w))
    layer = ConvLayer(kern.entries, spec)
    out = layer.forward(batch_last(xs))
    np.testing.assert_array_equal(np.moveaxis(out, -1, 0),
                                  conv_forward_batch(kern, spec, xs))
    dx = layer.backward(batch_last(ys))
    np.testing.assert_array_equal(np.moveaxis(dx, -1, 0),
                                  conv_adjoint_batch(kern, spec, ys))
    cols = window_columns(batch_last(xs), kshape)
    want = (batch_last(ys).reshape(c_out, -1) @ cols.T).reshape(kern.shape)
    np.testing.assert_array_equal(layer.grad, want)
