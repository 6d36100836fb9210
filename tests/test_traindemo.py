import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbound import UsageError, cli, convop, project, traindemo
from capbound.capacity import (
    capacity_terms,
    comparison_suite,
    margin_for_equal_ramp_loss,
    rademacher_clubs,
    rademacher_spades,
)
from capbound.tensors import DataBatch, KernelTensor, batch_last, data_norm
from capbound.traindemo import (
    Block,
    BlockSpec,
    DoublingShortcut,
    MaxPool,
    TinyNet,
    TrainConfig,
    capacity_input_from_net,
    comparison_stats_from_net,
    margin_values,
    pixel_mean_threshold_error,
    ramp_loss,
    ramp_risk,
    simplex_classifier,
    softmax_cross_entropy,
    synth_data,
    train_projected,
    zero_one_error,
)

from oracles import central_difference_grads, loop_maxpool_backward, \
    loop_patch_max_norm, measured_project_all, whole_batch_patch_norms


# ---------------------------------------------------------------------------
# margins and the ramp


def test_margin_hand_values():
    logits = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 5.0]])
    got = margin_values(logits, np.array([0, 1]))
    assert got[0] == 1.0   # own 2 vs best other 1
    assert got[1] == -2.0
    with pytest.raises(UsageError):
        margin_values(logits, np.array([0]))
    with pytest.raises(UsageError):
        margin_values(logits, np.array([0, 3]))
    with pytest.raises(UsageError):
        margin_values(logits[:, :1], np.array([0, 0]))


def test_margin_past_the_float_range_is_inf_without_a_warning():
    logits = np.array([[1e308, -1e308], [0.2, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = margin_values(logits, np.array([0, 1]))
    assert got[0] == math.inf
    assert got[1] == pytest.approx(0.3, rel=1e-15)


def test_ramp_loss_frozen_points():
    gamma = 0.7
    assert ramp_loss(-gamma / 2, gamma) == 0.5
    assert ramp_loss(-2 * gamma, gamma) == 0.0
    assert ramp_loss(0.1, gamma) == 1.0
    assert ramp_loss(0.0, gamma) == 1.0
    assert ramp_loss(-gamma, gamma) == 0.0
    np.testing.assert_allclose(ramp_loss(np.array([-0.35, 0.1]), 0.7),
                               [0.5, 1.0])
    with pytest.raises(UsageError):
        ramp_loss(0.0, 0.0)


def test_ramp_risk_all_correct_is_zero():
    logits = np.array([[3.0, 0.0], [0.0, 2.5], [4.0, 1.0]])
    labels = np.array([0, 1, 0])
    assert ramp_risk(logits, labels, 1.0) == 0.0
    # margin 1.5 under gamma 2 leaves a margin deficit of 0.25
    assert ramp_risk(np.array([[1.5, 0.0]]), np.array([0]), 2.0) == 0.25


def test_ramp_risk_at_a_subnormal_gamma_clips_without_a_warning():
    # margin / 1e-320 passes the float range; the clipped loss is exact
    logits = np.array([[3.0, 0.0], [0.0, 2.5], [4.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ramp_risk(logits, np.array([0, 1, 1]), 1e-320) == 1.0 / 3.0


@given(st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 20.0), st.floats(1.001, 4.0))
@settings(max_examples=40, deadline=None)
def test_ramp_risk_nondecreasing_in_gamma(seed, gamma, factor):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((12, 3)) * 2.0
    labels = rng.integers(0, 3, size=12)
    assert (ramp_risk(logits, labels, gamma)
            <= ramp_risk(logits, labels, gamma * factor) + 1e-12)


def test_zero_one_error():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
    assert zero_one_error(logits, np.array([0, 1, 0])) == pytest.approx(1 / 3)


def test_softmax_cross_entropy_values_and_grad():
    logits = np.array([[0.0, 0.0], [2.0, 0.0]])
    labels = np.array([0, 1])
    loss, grad = softmax_cross_entropy(logits, labels)
    expected = 0.5 * (math.log(2.0) + math.log(1.0 + math.exp(2.0)))
    assert loss == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)
    # perturbation check against the definition
    rng = np.random.default_rng(0)
    base = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, size=4)
    _, grad = softmax_cross_entropy(base, labels)
    direction = rng.standard_normal(base.shape)
    eps = 1e-6
    up, _ = softmax_cross_entropy(base + eps * direction, labels)
    down, _ = softmax_cross_entropy(base - eps * direction, labels)
    assert (up - down) / (2 * eps) == pytest.approx(
        float((grad * direction).sum()), rel=1e-6)


# ---------------------------------------------------------------------------
# fixed simplex head


@pytest.mark.parametrize("kappa,dim", [(2, 1), (2, 64), (3, 2), (3, 16),
                                       (5, 4), (5, 128)])
def test_simplex_classifier_geometry(kappa, dim):
    s = simplex_classifier(kappa, dim)
    assert s.shape == (kappa, dim)
    gram = s @ s.T
    np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-10)
    off = gram[~np.eye(kappa, dtype=bool)]
    np.testing.assert_allclose(off, -1.0 / (kappa - 1), atol=1e-10)
    assert np.linalg.norm(s, 2) == pytest.approx(
        math.sqrt(kappa / (kappa - 1)), abs=1e-10)


def test_simplex_classifier_touches_every_coordinate():
    s = simplex_classifier(3, 32)
    assert (np.abs(s).max(axis=0) > 1e-6).all()


def test_simplex_classifier_validation():
    with pytest.raises(UsageError):
        simplex_classifier(1, 4)
    with pytest.raises(UsageError):
        simplex_classifier(4, 2)


# ---------------------------------------------------------------------------
# pooling ops (batch-last (c, h, w, n) inside the net; the loop oracles and
# random draws stay (n, c, h, w), moved at the op boundary)


def batch_first(y):
    return np.moveaxis(y, -1, 0)


def pool_forward(op, x):
    """An op's forward on an (n, c, h, w) batch, returned (n, c, h', w')."""
    return batch_first(op.forward(batch_last(x)))


def pool_backward(op, g):
    return batch_first(op.backward(batch_last(g)))


def loop_maxpool(x, size, stride, centered):
    """Circular max pooling window by window, offsets 0..size-1, less
    size//2 when centered."""
    n, c, h, w = x.shape
    oh, ow = -(-h // stride), -(-w // stride)
    shift = size // 2 if centered else 0
    out = np.full((n, c, oh, ow), -np.inf)
    for p in range(oh):
        for q in range(ow):
            for a in range(size):
                for b in range(size):
                    val = x[:, :, (stride * p + a - shift) % h,
                            (stride * q + b - shift) % w]
                    out[:, :, p, q] = np.maximum(out[:, :, p, q], val)
    return out


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2, 8, 8))
    pool = MaxPool(8, 8, 3, 2)
    np.testing.assert_array_equal(pool_forward(pool, x),
                                  loop_maxpool(x, 3, 2, True))
    x = rng.standard_normal((2, 1, 6, 6))
    pool = MaxPool(6, 6, 3, 2)
    np.testing.assert_array_equal(pool_forward(pool, x),
                                  loop_maxpool(x, 3, 2, True))
    # the uncentered 2x2/2 windows of the doubling shortcut
    for h, w in ((8, 8), (6, 4), (5, 7)):
        x = rng.standard_normal((2, 3, h, w))
        pool = MaxPool(h, w, 2, 2, centered=False)
        np.testing.assert_array_equal(pool_forward(pool, x),
                                      loop_maxpool(x, 2, 2, False))


def test_maxpool_backward_is_argmax_scatter():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 2, 4, 4))
    pool = MaxPool(4, 4, 3, 2)
    out = pool_forward(pool, x)
    assert pool.kink_margin > 1e-6
    weights = rng.standard_normal(out.shape)
    dx = pool_backward(pool, weights)
    eps = 1e-6
    direction = rng.standard_normal(x.shape)
    up = (loop_maxpool(x + eps * direction, 3, 2, True) * weights).sum()
    down = (loop_maxpool(x - eps * direction, 3, 2, True) * weights).sum()
    assert (up - down) / (2 * eps) == pytest.approx(
        float((dx * direction).sum()), rel=1e-6)


def test_maxpool_lipschitz_under_two():
    rng = np.random.default_rng(3)
    pool = MaxPool(8, 8, 3, 2)
    for _ in range(50):
        a = rng.standard_normal((1, 3, 8, 8))
        b = a + 0.3 * rng.standard_normal(a.shape)
        num = np.linalg.norm(pool_forward(pool, a) - pool_forward(pool, b))
        assert num <= 2.0 * np.linalg.norm(a - b) + 1e-12


def test_maxpool_rejects_oversized_window():
    with pytest.raises(UsageError):
        MaxPool(2, 2, 3, 2)
    with pytest.raises(UsageError, match="uncentered"):
        MaxPool(8, 8, 3, 2, centered=False)


@pytest.mark.parametrize("size, centered", [(3, True), (2, False)])
def test_pool_backward_sends_a_constant_window_to_its_first_tap(size,
                                                                centered):
    # every tap ties, so each window's gradient lands on its row-major
    # first tap: offset (-1, -1) centered, (0, 0) uncentered
    pool = MaxPool(6, 6, size, 2, centered)
    x = np.ones((2, 3, 6, 6))
    g = np.random.default_rng(size).standard_normal(
        pool_forward(pool, x).shape)
    first = (2 * np.arange(3) - (size // 2 if centered else 0)) % 6
    want = np.zeros_like(x)
    want[:, :, first[:, None], first[None, :]] = g
    np.testing.assert_array_equal(pool_backward(pool, g), want)


def test_doubling_shortcut_shape_and_lipschitz():
    rng = np.random.default_rng(4)
    short = DoublingShortcut(8, 8)
    x = rng.standard_normal((3, 2, 8, 8))
    y = pool_forward(short, x)
    assert y.shape == (3, 4, 4, 4)
    # first half pools in place, second half pools the one-pixel shift
    np.testing.assert_array_equal(y[:, :2], loop_maxpool(x, 2, 2, False))
    rolled = np.roll(x, (1, 1), axis=(2, 3))
    np.testing.assert_array_equal(y[:, 2:], loop_maxpool(rolled, 2, 2, False))
    for _ in range(50):
        a = rng.standard_normal((1, 2, 8, 8))
        b = a + 0.2 * rng.standard_normal(a.shape)
        num = np.linalg.norm(pool_forward(short, a) - pool_forward(short, b))
        assert num <= math.sqrt(2.0) * np.linalg.norm(a - b) + 1e-12
    with pytest.raises(UsageError):
        DoublingShortcut(7, 8)


def test_doubling_shortcut_backward():
    rng = np.random.default_rng(5)
    short = DoublingShortcut(4, 4)
    x = rng.standard_normal((2, 1, 4, 4))
    out = pool_forward(short, x)
    assert short.kink_margin > 1e-6
    weights = rng.standard_normal(out.shape)
    dx = pool_backward(short, weights)
    eps = 1e-6
    direction = rng.standard_normal(x.shape)
    up = (pool_forward(short, x + eps * direction) * weights).sum()
    down = (pool_forward(short, x - eps * direction) * weights).sum()
    assert (up - down) / (2 * eps) == pytest.approx(
        float((dx * direction).sum()), rel=1e-6)


@pytest.mark.parametrize("h, w", [(8, 8), (6, 6), (4, 6), (5, 7)])
def test_pool_backward_routes_ties_to_the_first_tap(h, w):
    # small integers put equal maxima in most windows
    rng = np.random.default_rng(h * 10 + w)
    x = rng.integers(-2, 3, size=(3, 2, h, w)).astype(float)
    pool = MaxPool(h, w, 3, 2)
    g = rng.standard_normal(pool_forward(pool, x).shape)
    np.testing.assert_array_equal(pool_backward(pool, g),
                                  loop_maxpool_backward(x, g, 3, 2, True))
    if h % 2 or w % 2:
        return
    short = DoublingShortcut(h, w)
    g = rng.standard_normal(pool_forward(short, x).shape)
    rolled = np.roll(x, (1, 1), axis=(2, 3))
    want = (loop_maxpool_backward(x, g[:, :2], 2, 2, False)
            + np.roll(loop_maxpool_backward(rolled, g[:, 2:], 2, 2, False),
                      (-1, -1), axis=(2, 3)))
    np.testing.assert_array_equal(pool_backward(short, g), want)


# ---------------------------------------------------------------------------
# block and net assembly


def test_block_spec_validation():
    with pytest.raises(UsageError):
        BlockSpec(1, 1, 3, pool="avg")
    with pytest.raises(UsageError):
        BlockSpec(1, 1, 3, shortcut="conv")
    with pytest.raises(UsageError):
        BlockSpec(1, 2, 3, shortcut="identity")        # channels change
    with pytest.raises(UsageError):
        BlockSpec(1, 1, 3, pool="max3", shortcut="identity")
    with pytest.raises(UsageError):
        BlockSpec(1, 3, 3, pool="max3", shortcut="double")  # not doubling
    with pytest.raises(UsageError):
        BlockSpec(1, 2, 3, shortcut="double")          # needs the pool
    assert BlockSpec(1, 2, 3, pool="max3").post_lip == 2.0
    assert BlockSpec(2, 2, 3).post_lip == 1.0


def test_tinynet_validation():
    with pytest.raises(UsageError):
        TinyNet(())
    with pytest.raises(UsageError):
        TinyNet((BlockSpec(1, 4, 3), BlockSpec(8, 8, 3)))   # channels break
    with pytest.raises(UsageError):
        # 3x3 kernel cannot sit on the 2x2 post-pool grid
        TinyNet((BlockSpec(1, 2, 3, pool="max3"), BlockSpec(2, 2, 3)),
                h=4, w=4)
    net = TinyNet((BlockSpec(1, 2, 3),), h=4, w=4)
    with pytest.raises(UsageError):
        net.forward(np.zeros((2, 1, 8, 8)))
    with pytest.raises(UsageError):
        net.set_kernels([np.zeros((2, 1, 3, 3)), np.zeros((1, 1, 1, 1))])


def test_tinynet_deterministic_and_zero():
    a = TinyNet((BlockSpec(1, 3, 3),), seed=9)
    b = TinyNet((BlockSpec(1, 3, 3),), seed=9)
    for ka, kb in zip(a.kernels, b.kernels):
        np.testing.assert_array_equal(ka, kb)
    a.set_kernels([np.zeros_like(k) for k in a.kernels])
    logits = a.forward(np.zeros((2, 1, 8, 8)))
    # batch-last inside, (n, kappa) C-contiguous at the boundary
    assert logits.shape == (2, 2) and logits.flags["C_CONTIGUOUS"]
    assert not logits.any()


def test_single_linear_layer_gradient_is_outer_product():
    # positive 1x1 kernel on positive inputs keeps ReLU in its linear range,
    # so the conv gradient reduces to the plain correlation formula
    net = TinyNet((BlockSpec(1, 1, 1),), h=2, w=2, seed=0)
    net.set_kernels([np.array([[[[0.8]]]])])
    rng = np.random.default_rng(6)
    xs = rng.uniform(0.5, 2.0, size=(4, 1, 2, 2))
    labels = np.array([0, 1, 0, 1])
    net.zero_grads()
    logits = net.forward(xs)
    _, g_logits = softmax_cross_entropy(logits, labels)
    net.backward(g_logits)
    g_feat = (g_logits @ net.classifier).reshape(xs.shape)
    expected = float((g_feat * xs).sum())
    assert net.grads()[0][0, 0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_gradients_match_central_differences_pool_free():
    net = TinyNet((BlockSpec(1, 2, 3), BlockSpec(2, 2, 3, shortcut="identity")),
                  kappa=3, h=4, w=4, seed=9)
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((5, 1, 4, 4))
    labels = rng.integers(0, 3, size=5)
    assert sum(k.size for k in net.kernels) <= 200

    def loss_fn(params):
        net.set_kernels(params)
        return softmax_cross_entropy(net.forward(xs), labels)[0]

    params = [k.copy() for k in net.kernels]
    loss_fn(params)
    assert net.kink_margin() > 1e-2   # far from every ReLU kink
    net.zero_grads()
    _, g_logits = softmax_cross_entropy(net.forward(xs), labels)
    net.backward(g_logits)
    analytic = [g.copy() for g in net.grads()]
    numeric = central_difference_grads(loss_fn, params, step=1e-4)
    for a, m in zip(analytic, numeric):
        np.testing.assert_allclose(a, m, rtol=1e-4, atol=1e-8)


def test_gradients_match_central_differences_with_pools():
    # pool windows tie only between ReLU-clamped zeros here, where the map
    # is locally constant, so the finite-difference comparison stays valid
    net = TinyNet((BlockSpec(1, 1, 3, shortcut="identity"),
                   BlockSpec(1, 2, 3, pool="max3", shortcut="double")),
                  kappa=3, h=4, w=4, seed=7)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((5, 1, 4, 4))
    labels = rng.integers(0, 3, size=5)

    def loss_fn(params):
        net.set_kernels(params)
        return softmax_cross_entropy(net.forward(xs), labels)[0]

    params = [k.copy() for k in net.kernels]
    net.zero_grads()
    _, g_logits = softmax_cross_entropy(net.forward(xs), labels)
    net.backward(g_logits)
    analytic = [g.copy() for g in net.grads()]
    numeric = central_difference_grads(loss_fn, params, step=1e-4)
    for a, m in zip(analytic, numeric):
        np.testing.assert_allclose(a, m, rtol=1e-4, atol=1e-8)


@pytest.mark.parametrize("first", [
    BlockSpec(1, 1, 3, shortcut="identity"),
    BlockSpec(1, 2, 3, pool="max3", shortcut="double"),
])
def test_gradients_without_the_first_block_input_gradient(first, monkeypatch):
    # the first block's input gradient is never formed: one adjoint per
    # later block, and every kernel gradient still matches the loss
    net = TinyNet((first, BlockSpec(first.c_out, 2, 3)), kappa=3, h=6, w=6,
                  seed=11)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((5, 1, 6, 6))
    labels = rng.integers(0, 3, size=5)

    def loss_fn(params):
        net.set_kernels(params)
        return softmax_cross_entropy(net.forward(xs), labels)[0]

    params = [k.copy() for k in net.kernels]
    adjoints = []
    real_adjoint = traindemo.ConvLayer.adjoint
    monkeypatch.setattr(traindemo.ConvLayer, "adjoint",
                        lambda *a: adjoints.append(1) or real_adjoint(*a))
    net.zero_grads()
    _, g_logits = softmax_cross_entropy(net.forward(xs), labels)
    net.backward(g_logits)
    assert len(adjoints) == len(net.blocks) - 1
    analytic = [g.copy() for g in net.grads()]
    numeric = central_difference_grads(loss_fn, params, step=1e-4)
    for a, m in zip(analytic, numeric):
        np.testing.assert_allclose(a, m, rtol=1e-4, atol=1e-8)


def test_training_calls_no_batch_conv_operator(monkeypatch):
    # the net calls convop's unchecked batch-last core; the checked
    # (n, c, h, w) batch operators serve the measurements and the oracles
    def refuse(*args, **kwargs):
        raise AssertionError("training called a convop batch operator")

    for name in ("conv_forward_batch", "conv_adjoint_batch"):
        assert not hasattr(traindemo, name)
        monkeypatch.setattr(convop, name, refuse)
    batch, labels = synth_data("rings", 32, seed=2)
    net = TinyNet((BlockSpec(1, 4, 3, pool="max3"),
                   BlockSpec(4, 8, 3, pool="max3", shortcut="double")),
                  seed=2)
    res = train_projected(net, batch, labels,
                          TrainConfig(epochs=1, cadence=1, post_rounds=1),
                          lip_bound=2.0, dist_bound=1.0)
    assert len(res.trajectory) == 1 and not res.diverged


# ---------------------------------------------------------------------------
# synthetic tasks


def test_synth_data_deterministic():
    a, la = synth_data("blobs", 32, seed=5)
    b, lb = synth_data("blobs", 32, seed=5)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(la, lb)
    c, _ = synth_data("blobs", 32, seed=6)
    assert not np.array_equal(a.samples, c.samples)
    with pytest.raises(UsageError):
        synth_data("blobs", 1)
    with pytest.raises(UsageError):
        synth_data("stripes", 8)


def test_blobs_zero_threshold_separates():
    batch, labels = synth_data("blobs", 256, seed=2)
    feats = batch.samples.mean(axis=(1, 2, 3))
    assert float(np.mean((feats > 0).astype(int) != labels)) == 0.0
    assert abs(float(labels.mean()) - 0.5) <= 1.0 / 256


def test_rings_defeat_the_pixel_mean():
    batch, labels = synth_data("rings", 256, seed=0)
    assert pixel_mean_threshold_error(batch, labels) >= 0.4
    # class-conditional pixel means coincide by construction
    feats = batch.samples.mean(axis=(1, 2, 3))
    gap = abs(feats[labels == 0].mean() - feats[labels == 1].mean())
    assert gap < 0.02


def test_pixel_mean_threshold_error_hand_cases():
    def batch_from(feats):
        xs = np.zeros((len(feats), 1, 8, 8)) + np.asarray(feats)[:, None, None, None]
        return DataBatch(xs)

    assert pixel_mean_threshold_error(batch_from([0, 1, 2, 3]),
                                      np.array([0, 0, 1, 1])) == 0.0
    assert pixel_mean_threshold_error(batch_from([0, 1, 2, 3]),
                                      np.array([1, 1, 0, 0])) == 0.0
    assert pixel_mean_threshold_error(batch_from([0, 1, 2, 3]),
                                      np.array([0, 1, 0, 1])) == 0.25


# ---------------------------------------------------------------------------
# training


BLOCKS = (BlockSpec(1, 8, 3, pool="max3"), BlockSpec(8, 8, 3))


def test_infinite_bounds_match_plain_sgd_bitwise():
    # both bounds infinite is plain SGD; a (2,1) ball of radius 1e300 is
    # projected onto at every cadence and after training, and never binds
    batch, labels = synth_data("blobs", 48, seed=1)
    test_b, test_l = synth_data("blobs", 16, seed=9)
    cfg = TrainConfig(epochs=3, seed=2, batch_size=16)
    net_a = TinyNet(BLOCKS, seed=4)
    net_b = TinyNet(BLOCKS, seed=4)
    res_a = train_projected(net_a, batch, labels, cfg,
                            test_batch=test_b, test_labels=test_l)
    res_b = train_projected(net_b, batch, labels, cfg, dist_bound=1e300,
                            test_batch=test_b, test_labels=test_l)
    assert res_a.trajectory == res_b.trajectory
    for ka, kb in zip(net_a.kernels, net_b.kernels):
        np.testing.assert_array_equal(ka, kb)
    assert res_a.feasible and not res_a.diverged
    assert res_b.post_rounds_used == 1


def test_projected_run_meets_constraints_and_learns():
    batch, labels = synth_data("blobs", 128, seed=2)
    net = TinyNet(BLOCKS, seed=0)
    res = train_projected(net, batch, labels, TrainConfig(epochs=30, seed=0),
                          lip_bound=2.0, dist_bound=2.0)
    assert res.feasible and not res.diverged
    assert res.final.train_error <= 0.05
    for lip in res.net.lipschitz():
        assert lip <= 2.0 * (1 + 1e-3)
    for dist in res.net.distances(res.references):
        assert dist <= 2.0 * (1 + 1e-3)
    # trajectory carries the measurement series
    assert len(res.trajectory) == 30
    assert all(0.0 <= st.ramp <= 1.0 for st in res.trajectory)


def test_zero_distance_bound_pins_model_to_init():
    batch, labels = synth_data("rings", 128, seed=2)
    net = TinyNet(BLOCKS, seed=0)
    res = train_projected(net, batch, labels, TrainConfig(epochs=3, seed=0),
                          lip_bound=1.0, dist_bound=0.0)
    assert max(res.net.distances(res.references)) <= 1e-9
    assert res.final.train_error == 0.5   # untrained net is at chance here


def test_divergence_is_reported_not_raised():
    batch, labels = synth_data("blobs", 32, seed=3)
    net = TinyNet(BLOCKS, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        res = train_projected(net, batch, labels,
                              TrainConfig(epochs=4, lr=1e80, seed=0))
    assert res.diverged


def test_a_diverged_projected_run_is_not_feasible():
    # the loss turns non-finite, so the post loop never runs; the verdict
    # must not default to feasible
    batch, labels = synth_data("blobs", 32, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        res = train_projected(TinyNet(BLOCKS, seed=1), batch, labels,
                              TrainConfig(epochs=4, lr=1e150, seed=0),
                              lip_bound=2.0, dist_bound=1.0)
    assert res.diverged
    assert not res.feasible and not res.cap_hit
    assert res.post_rounds_used == 0
    assert math.isnan(res.train_error) and math.isnan(res.test_error)


@pytest.mark.parametrize("n,cadence,bounds", [
    (32, 1, (2.0, 1.0)),             # a kernel is inf at a cadence step
    (16, 1000, (2.0, 1.0)),          # kernels near 9e307 at the epoch's end
    (16, 1000, (math.inf, math.inf)),
])
def test_an_overflowing_update_is_reported_as_diverged(n, cadence, bounds):
    # the update overflows before the loss does: the cadence pass would
    # refuse the inf kernel, and the epoch's measurements the kernels whose
    # logits are no longer finite
    batch, labels = synth_data("blobs", n, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        res = train_projected(TinyNet(BLOCKS, seed=1), batch, labels,
                              TrainConfig(epochs=2, lr=1e308, cadence=cadence),
                              lip_bound=bounds[0], dist_bound=bounds[1])
    assert res.diverged and not res.feasible and not res.cap_hit
    assert res.trajectory == () and res.post_rounds_used == 0


def test_train_demo_reports_a_cadence_overflow_as_diverged(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["train-demo", "--n", "32", "--n-test", "16",
                       "--epochs", "2", "--lr", "1e308", "--cadence", "1",
                       "--lip-grid", "2", "--dist-grid", "1", "--json"])
    assert rc == 0
    [cell] = json.loads(capsys.readouterr().out)["cells"]
    assert cell["diverged"] and not cell["feasible"]


def test_a_kernel_made_non_finite_after_construction_trains_to_diverged():
    # layers validate their kernels once (construction, set_kernels) and
    # then read them as they are: a non-finite entry set afterwards shows
    # up as a non-finite loss, which training reports instead of raising
    batch, labels = synth_data("blobs", 32, seed=3)
    net = TinyNet(BLOCKS, seed=1)
    net.blocks[1].conv.kernel[0, 0, 1, 1] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        res = train_projected(net, batch, labels, TrainConfig(epochs=2))
    assert res.diverged and not res.feasible
    assert res.trajectory == () and res.post_rounds_used == 0
    with pytest.raises(UsageError, match="non-finite"):
        net.set_kernels([np.full(k.shape, np.nan) for k in net.kernels])


def test_train_projected_validation():
    batch, labels = synth_data("blobs", 16, seed=0)
    net = TinyNet(BLOCKS, seed=0)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(UsageError):
        train_projected(net, batch, labels[:-1], cfg)
    with pytest.raises(UsageError):
        train_projected(net, batch, labels, cfg, lip_bound=0.0)
    with pytest.raises(UsageError):
        train_projected(net, batch, labels, cfg, dist_bound=-1.0)
    with pytest.raises(UsageError):
        TrainConfig(cadence=0)
    with pytest.raises(UsageError):
        TrainConfig(momentum=1.0)


def test_lr_decay_schedule_applies():
    # without momentum, a huge decay at epoch 1 freezes the weights there
    batch, labels = synth_data("blobs", 32, seed=4)
    two = TrainConfig(epochs=2, seed=0, momentum=0.0,
                      decay_epochs=(1,), decay_factor=1e12)
    net_a = TinyNet(BLOCKS, seed=2)
    train_projected(net_a, batch, labels, two)
    net_b = TinyNet(BLOCKS, seed=2)
    one = TrainConfig(epochs=1, seed=0, momentum=0.0)
    train_projected(net_b, batch, labels, one)
    for ka, kb in zip(net_a.kernels, net_b.kernels):
        np.testing.assert_allclose(ka, kb, atol=1e-9)


RESIDUAL = (BlockSpec(1, 4, 3), BlockSpec(4, 4, 3, shortcut="identity"),
            BlockSpec(4, 8, 3, pool="max3", shortcut="double"))
POST_ROUNDS = project.DEFAULT_BUDGETS["dykstra"]
# (task, blocks, net seed, s, b, post_rounds). The slowest layer's ADMM runs
# 39, 35, 42 and 48 iterations in the first four cells. In the fifth every
# layer's (2,1) shrink already lies in the spectral ball, so each stops
# after one; the last stops at its 1-iteration cap.
PROJECTED_CELLS = [
    ("rings", BLOCKS, 0, 1.0, 0.5, POST_ROUNDS),
    ("rings", BLOCKS, 1, 1.5, 3.0, POST_ROUNDS),
    ("blobs", RESIDUAL, 1, 1.5, 3.0, POST_ROUNDS),
    ("blobs", RESIDUAL, 0, 1.0, 0.5, POST_ROUNDS),
    ("rings", BLOCKS, 0, 4.0, 0.5, POST_ROUNDS),
    ("blobs", RESIDUAL, 0, 1.0, 0.5, 1),
]


def projected_cell(task, blocks, seed, s, b, post_rounds):
    batch, labels = synth_data(task, 48, seed=1)
    config = TrainConfig(epochs=4, seed=seed, cadence=3,
                         post_rounds=post_rounds)
    return (TinyNet(blocks, seed=seed), batch, labels, config,
            dict(lip_bound=s, dist_bound=b))


@pytest.mark.parametrize("cell", PROJECTED_CELLS)
def test_projection_schedule_matches_the_measured_oracle(cell, monkeypatch):
    # Training cycles unmeasured at each cadence and ends in one `admm` run
    # per layer; the oracle measures every cadence cycle, skips the post
    # pass and then runs `admm` on each layer itself.
    net, batch, labels, config, bounds = projected_cell(*cell)
    res = train_projected(net, batch, labels, config, **bounds)

    oracle_net, *_ = projected_cell(*cell)
    with monkeypatch.context() as patch:
        patch.setattr(traindemo, "_project_all", measured_project_all)
        oracle = train_projected(oracle_net, batch, labels,
                                 replace(config, post_rounds=0), **bounds)
    assert oracle.post_rounds_used == 0
    sets = traindemo._constraint_sets(oracle_net, oracle.references,
                                      bounds["lip_bound"],
                                      bounds["dist_bound"])
    reports = []
    for blk, cs in zip(oracle_net.blocks, sets):
        kernel, report = project.admm(KernelTensor(blk.conv.kernel), cs,
                                      config.post_rounds)
        blk.conv.kernel = kernel.entries
        reports.append(report)
    feasible = all(report.converged for report in reports)
    used = max(report.rounds_run for report in reports)

    assert res.trajectory == oracle.trajectory
    for got, want in zip(net.kernels, oracle_net.kernels):
        np.testing.assert_array_equal(got, want)
    assert res.feasible == feasible
    assert res.post_rounds_used == used
    assert res.cap_hit == (not feasible)
    if cell == PROJECTED_CELLS[4]:
        assert used == 1 and feasible
    elif cell != PROJECTED_CELLS[-1]:
        assert used > 30 and feasible


SIX_BLOCK_RESIDUAL = (BlockSpec(1, 4, 3),
                      BlockSpec(4, 4, 3, shortcut="identity"),
                      BlockSpec(4, 8, 3, pool="max3", shortcut="double"),
                      BlockSpec(8, 8, 3, shortcut="identity"),
                      BlockSpec(8, 8, 3),
                      BlockSpec(8, 4, 3))


@pytest.mark.parametrize("blocks", [BLOCKS, SIX_BLOCK_RESIDUAL])
@pytest.mark.parametrize("n", [100, 33])     # last slice 4, a lone sample
def test_sliced_evaluation_equals_the_whole_set_forward(blocks, n):
    batch, labels = synth_data("rings", n, seed=5)
    net = TinyNet(blocks, seed=3)
    train_projected(net, batch, labels, TrainConfig(epochs=1, seed=1),
                    lip_bound=2.0, dist_bound=1.0)
    np.testing.assert_array_equal(
        traindemo._evaluate(net, batch.samples, 16),
        net.forward(batch.samples))


def test_training_forwards_no_more_than_a_minibatch(monkeypatch):
    seen = []
    forward = TinyNet.forward
    monkeypatch.setattr(TinyNet, "forward",
                        lambda net, xs: seen.append(len(xs)) or
                        forward(net, xs))
    batch, labels = synth_data("rings", 100, seed=5)
    test_batch, test_labels = synth_data("rings", 37, seed=6)
    config = TrainConfig(epochs=2, seed=1, batch_size=16)
    res = train_projected(TinyNet(BLOCKS, seed=3), batch, labels, config,
                          lip_bound=2.0, dist_bound=1.0,
                          test_batch=test_batch, test_labels=test_labels)
    assert not res.diverged
    assert max(seen) == config.batch_size
    # SGD steps, then each epoch's and the result's evaluations
    assert sum(seen) == config.epochs * 100 + (config.epochs + 1) * 137


def test_result_errors_are_the_returned_nets():
    # the post pass moves this cell's kernels far enough to change its
    # errors: the last epoch reads 0.0625 on the training set
    batch, labels = synth_data("rings", 48, seed=1)
    test_batch, test_labels = synth_data("rings", 32, seed=2)
    config = TrainConfig(epochs=6, seed=2)
    cell = dict(lip_bound=2.0, dist_bound=1.0, test_batch=test_batch,
                test_labels=test_labels)
    res = train_projected(TinyNet(BLOCKS, seed=2), batch, labels, config,
                          **cell)
    unposted = train_projected(TinyNet(BLOCKS, seed=2), batch, labels,
                               replace(config, post_rounds=0), **cell)
    assert res.post_rounds_used > 0
    assert any(not np.array_equal(a, b)
               for a, b in zip(res.net.kernels, unposted.net.kernels))
    assert res.trajectory == unposted.trajectory
    assert res.train_error == zero_one_error(
        res.net.forward(batch.samples), labels)
    assert res.test_error == zero_one_error(
        res.net.forward(test_batch.samples), test_labels)
    assert res.train_error != res.final.train_error
    assert unposted.train_error == unposted.final.train_error
    assert unposted.test_error == unposted.final.test_error
    no_test = train_projected(TinyNet(BLOCKS, seed=2), batch, labels,
                              config, lip_bound=2.0, dist_bound=1.0)
    assert no_test.train_error == res.train_error
    assert math.isnan(no_test.test_error)


def test_post_pass_reports_the_cap():
    # the capped cell's (2,1) shrinks lie outside the spectral ball, so one
    # ADMM iteration leaves them infeasible
    net, batch, labels, config, bounds = projected_cell(*PROJECTED_CELLS[-1])
    res = train_projected(net, batch, labels, config, **bounds)
    assert res.post_rounds_used == config.post_rounds == 1
    assert res.cap_hit and not res.feasible
    unprojected = train_projected(*projected_cell(*PROJECTED_CELLS[0])[:4])
    assert unprojected.post_rounds_used == 0
    assert unprojected.feasible and not unprojected.cap_hit


def test_infinite_bounds_run_no_projection(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("projected under infinite bounds")

    monkeypatch.setattr(traindemo, "alternate", refuse)
    monkeypatch.setattr(traindemo, "admm", refuse)
    net, batch, labels, config, _ = projected_cell(*PROJECTED_CELLS[0])
    res = train_projected(net, batch, labels, config)
    assert res.post_rounds_used == 0
    assert res.feasible and not res.cap_hit and not res.diverged


def test_projection_measures_each_layer_once_after_training(monkeypatch):
    measured = []
    real_norm = project.stack_norm
    monkeypatch.setattr(project, "stack_norm",
                        lambda stack: measured.append(1) or real_norm(stack))
    calls = []                          # (pass, measurements during it)

    def counted(name, run):
        def wrapped(*args):
            before = len(measured)
            out = run(*args)
            calls.append((name, len(measured) - before))
            return out
        return wrapped

    monkeypatch.setattr(traindemo, "_project_all",
                        counted("cadence", traindemo._project_all))
    monkeypatch.setattr(traindemo, "admm", counted("post", project.admm))
    net, batch, labels, config, bounds = projected_cell(*PROJECTED_CELLS[0])
    train_projected(net, batch, labels, config, **bounds)

    steps = config.epochs * math.ceil(batch.n / config.batch_size)
    layers = len(net.blocks)
    # cadence passes measure nothing; after the last update each layer's
    # `admm` run measures the kernel it returns, once
    assert calls == [("cadence", 0)] * (steps // config.cadence) + \
        [("post", 1)] * layers
    assert len(measured) == layers


def test_overflowing_fibers_stop_a_training_projection_pass():
    net = TinyNet(BLOCKS, seed=0)
    sets = traindemo._constraint_sets(net, [k.copy() for k in net.kernels],
                                      2.0, 1.0)
    # fibers past the float range: the (2,1) shrink turns NaN
    net.blocks[1].conv.kernel = np.sign(net.blocks[1].conv.kernel) * 1.5e308
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(UsageError, match="non-finite"):
        traindemo._project_all(net, sets)


# ---------------------------------------------------------------------------
# bridges into the capacity calculus


def trained_toy():
    batch, labels = synth_data("blobs", 64, seed=2)
    net = TinyNet((BlockSpec(1, 4, 3, pool="max3"),
                   BlockSpec(4, 8, 3, shortcut="none"),
                   BlockSpec(8, 8, 3, shortcut="identity")), seed=0)
    res = train_projected(net, batch, labels, TrainConfig(epochs=4, seed=0),
                          lip_bound=2.0, dist_bound=2.0)
    return res, batch, labels


def test_capacity_input_from_net_structure():
    res, batch, _ = trained_toy()
    inp = capacity_input_from_net(res.net, res.references, batch.n,
                                  data_norm(batch), gamma=0.5)
    assert inp.n == batch.n and inp.gamma == 0.5
    assert len(inp.blocks) == 3
    assert inp.blocks[0].shortcut == "zero"
    assert inp.blocks[2].shortcut == "identity"
    assert inp.blocks[0].layers[0].rho == 2.0          # pooled block
    assert inp.blocks[1].layers[0].rho == 1.0
    assert inp.blocks[2].rho == res.net.classifier_lip
    lips = res.net.lipschitz()
    dists = res.net.distances(res.references)
    for block, lip, dist in zip(inp.blocks, lips, dists):
        assert block.layers[0].lip == lip
        assert block.layers[0].dist == dist
    assert inp.blocks[0].layers[0].w == 4 * 1 * 9


def test_untrained_net_reports_minimal_capacity():
    net = TinyNet(BLOCKS, seed=3)
    refs = tuple(k.copy() for k in net.kernels)
    batch, _ = synth_data("blobs", 50, seed=1)
    inp = capacity_input_from_net(net, refs, 50, data_norm(batch), 1.0)
    assert rademacher_clubs(inp).value == 4.0 / 50


def test_comparison_stats_from_net():
    res, batch, _ = trained_toy()
    stats, data = comparison_stats_from_net(res.net, res.references, batch)
    assert len(stats) == 4              # three convs plus the fixed head
    assert len(data.patch_norms) == 5   # input, per-layer, post-head
    head = stats[-1]
    assert head.frob_diff == head.sum_out_l2_diff == head.max_out_l1_diff == 0.0
    assert head.d == head.k == head.t == 1
    assert head.c_out == res.net.kappa
    assert head.lip == res.net.classifier_lip
    # the pool factor folds into the pooled block's lip
    from capbound.lipschitz import fft_exact_norm
    blk = res.net.blocks[0]
    raw_lip = fft_exact_norm(KernelTensor(blk.conv.kernel), blk.conv.spec).value
    assert stats[0].lip == raw_lip * 2.0
    assert stats[1].lip == res.net.lipschitz()[1]
    assert data.patch_norms[0] == pytest.approx(
        loop_patch_max_norm(batch.samples, 3, 3, 1, 1, "circular"), rel=1e-12)
    suite = comparison_suite(stats, data, batch.n, 0.5, res.net.kappa)
    for name, report in suite.items():
        assert not report.absent, name
        assert math.isfinite(report.log10_value), name


def test_comparison_stats_name_the_block_whose_activations_overflow():
    # kernels scaled by 1e200: block 0's outputs reach about 1e200, and
    # block 1's pass the float range
    res, batch, _ = trained_toy()
    res.net.set_kernels([k * 1e200 for k in res.net.kernels])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(UsageError,
                          match=r"activations overflowed: block 1 "):
        comparison_stats_from_net(res.net, res.references, batch)


def test_comparison_stats_measure_finite_activations_finite():
    # kernels x 1e80 on a plain chain: block i's input and the features
    # scale by 1e80 ** i (ReLU is positively homogeneous), so from block 2
    # on the squares of the patch, feature and logit norms pass the range
    net = TinyNet((BlockSpec(1, 4, 3), BlockSpec(4, 4, 3),
                   BlockSpec(4, 4, 3)), seed=3)
    references = tuple(k.copy() for k in net.kernels)
    batch, _ = synth_data("rings", 20, seed=5)
    _, plain = comparison_stats_from_net(net, references, batch)
    net.set_kernels([k * 1e80 for k in net.kernels])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats, data = comparison_stats_from_net(net, references, batch)
    scales = [1e80 ** i for i in (0, 1, 2, 3, 3)]
    np.testing.assert_allclose(
        data.patch_norms, [b * s for b, s in zip(plain.patch_norms, scales)],
        rtol=1e-12)
    ledent = comparison_suite(stats, data, batch.n, 0.5, net.kappa)["ledent_main"]
    assert not ledent.absent and math.isfinite(ledent.log10_value)


@pytest.mark.parametrize("blocks", [BLOCKS, SIX_BLOCK_RESIDUAL])
@pytest.mark.parametrize("n", [2, 3, 17, 33, 64])   # 17, 33: a lone sample
def test_sliced_comparison_stats_equal_the_whole_batch_pass(blocks, n):
    batch, labels = synth_data("rings", n, seed=5)
    net = TinyNet(blocks, seed=3)
    res = train_projected(net, batch, labels, TrainConfig(epochs=1, seed=1),
                          lip_bound=2.0, dist_bound=1.0)
    stats, data, logits = traindemo.comparison_stats_and_logits(
        net, res.references, batch)
    assert data.patch_norms == whole_batch_patch_norms(net, batch)
    np.testing.assert_array_equal(logits, net.forward(batch.samples))
    assert comparison_stats_from_net(net, res.references, batch)[0] == stats


def test_comparison_stats_name_the_smallest_overflowing_block():
    # kernels x 1e110: a plain sample's activations reach about 1e110 and
    # 1e220, then overflow in block 2; sample 20, scaled by 1e100, already
    # overflows in block 1, in the second 16-sample slice
    net = TinyNet((BlockSpec(1, 4, 3), BlockSpec(4, 4, 3),
                   BlockSpec(4, 4, 3)), seed=3)
    references = tuple(k.copy() for k in net.kernels)
    net.set_kernels([k * 1e110 for k in net.kernels])
    samples = synth_data("rings", 33, seed=5)[0].samples.copy()
    samples[20] *= 1e100
    first, whole = DataBatch(samples[:16]), DataBatch(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for batch, block in ((first, 2), (whole, 1)):
            for refused in (
                    lambda: comparison_stats_from_net(net, references, batch),
                    lambda: whole_batch_patch_norms(net, batch)):
                with pytest.raises(
                        UsageError,
                        match=rf"activations overflowed: block {block} "):
                    refused()


def test_comparison_ours_rows_equal_headline_bounds():
    # one 1->1 k=1 block on 8x8: the fixed head (w = 2 * 64) outweighs the
    # conv (w = 1), so counting the head in Lbar or W_max would show
    batch, labels = synth_data("blobs", 32, seed=2)
    net = TinyNet((BlockSpec(1, 1, 1),), seed=0)
    res = train_projected(net, batch, labels, TrainConfig(epochs=3, seed=0))
    gamma = 0.05
    inp = capacity_input_from_net(res.net, res.references, batch.n,
                                  data_norm(batch), gamma)
    c_tilde = capacity_terms(inp).entries[0].c_tilde
    for x in (c_tilde ** (2.0 / 3.0), c_tilde ** 2):   # away from ceilings
        assert x > 1.0 and abs(x - round(x)) > 0.05, x
    stats, data = comparison_stats_from_net(res.net, res.references, batch)
    assert stats[-1].w > stats[0].w
    rows = comparison_suite(stats, data, batch.n, gamma, res.net.kappa)
    assert rows["ours_clubs"].value == pytest.approx(
        rademacher_clubs(inp).value, rel=1e-9)
    assert rows["ours_spades"].value == pytest.approx(
        rademacher_spades(inp).value, rel=1e-9)


def test_comparison_ours_rows_keep_the_shortcuts():
    # identity and doubling shortcuts add to each block's Lipschitz factor;
    # the ours_* rows must read the same records as the headline bounds
    batch, labels = synth_data("blobs", 32, seed=2)
    net = TinyNet((BlockSpec(1, 2, 3),
                   BlockSpec(2, 2, 3, shortcut="identity"),
                   BlockSpec(2, 4, 3, pool="max3", shortcut="double")), seed=0)
    res = train_projected(net, batch, labels, TrainConfig(epochs=2, seed=0),
                          lip_bound=2.0, dist_bound=2.0)
    gamma = 0.5
    inp = capacity_input_from_net(res.net, res.references, batch.n,
                                  data_norm(batch), gamma)
    stats, data = comparison_stats_from_net(res.net, res.references, batch)
    assert [b.shortcut for b in data.blocks] == ["zero", "identity", "fixed"]
    rows = comparison_suite(stats, data, batch.n, gamma, res.net.kappa)
    for name, bound in (("ours_clubs", rademacher_clubs),
                        ("ours_spades", rademacher_spades)):
        want = bound(inp)
        assert want.value > 0 and not want.saturated
        assert rows[name].value == pytest.approx(want.value, rel=1e-12)
        assert rows[name].log10_value == pytest.approx(want.log10_value,
                                                       rel=1e-12)


def test_equal_ramp_margin_search_against_trained_logits():
    res, batch, labels = trained_toy()
    logits = res.net.forward(batch.samples)
    margins = margin_values(logits, labels)
    gamma_ref = float(2.0 * np.median(np.abs(margins)))  # nonzero target risk
    assert ramp_risk(logits, labels, gamma_ref) > 0
    found = margin_for_equal_ramp_loss(logits, labels, gamma_ref,
                                       2.0 * logits, labels)
    assert found.found
    assert abs(found.achieved_risk - found.target_risk) <= 1e-6
    # doubled logits double every margin, so the matching gamma doubles too
    assert found.gamma == pytest.approx(2.0 * gamma_ref, rel=0.05)
