import math

import numpy as np
import pytest

from capbound import ResourceError, UsageError
from capbound.capacity import (
    BlockRecord,
    CapacityInput,
    LayerRecord,
    capacity_terms,
    non_residual_cover_bound,
    single_layer_cover_bound,
    whole_network_cover_bound,
)
from capbound.convop import ConvSpec
from capbound.covercalc import (
    Allocation,
    Compose,
    Concat,
    FixedNode,
    LayerNode,
    Sum,
    allocate_radii,
    cover_tree,
    evaluate_tree,
    is_singleton,
    leaf_contexts,
    maurey_cover,
    minimal_cover_size,
    plain_chain_tree,
    residual_chain_tree,
    sampled_rademacher,
    tree_lipschitz,
    tree_log10_lipschitz,
)
from capbound.tensors import DataBatch, KernelTensor, group_norm_21

from oracles import set_cover_minimum


def random_capacity_input(rng, allow_zero_dist=True):
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        layers = []
        for _ in range(int(rng.integers(1, 4))):
            b = float(rng.uniform(0.0, 3.0))
            if not allow_zero_dist:
                b = max(b, 0.05)
            elif rng.uniform() < 0.15:
                b = 0.0
            layers.append(LayerRecord(
                lip=float(rng.uniform(0.4, 2.2)),
                dist=b,
                rho=float(rng.uniform(0.5, 1.5)),
                param_count=int(rng.integers(1, 60)),
            ))
        kind = ("zero", "identity", "fixed")[int(rng.integers(0, 3))]
        blocks.append(BlockRecord(
            layers=tuple(layers),
            shortcut=kind,
            shortcut_lip=float(rng.uniform(0.1, 1.5)) if kind == "fixed" else None,
            rho=float(rng.uniform(0.5, 1.5)),
        ))
    return CapacityInput(
        blocks=tuple(blocks),
        n=int(rng.integers(2, 200)),
        data_norm=float(rng.uniform(0.2, 8.0)),
        gamma=float(rng.uniform(0.1, 2.0)),
    )


# ---------------------------------------------------------------------------
# nodes


def test_node_validation():
    with pytest.raises(UsageError):
        FixedNode(-1.0)
    with pytest.raises(UsageError):
        FixedNode(math.inf)
    with pytest.raises(UsageError):
        LayerNode(lip=0.0, dist=1.0, w=1)
    with pytest.raises(UsageError):
        LayerNode(lip=1.0, dist=-1.0, w=1)
    with pytest.raises(UsageError):
        LayerNode(lip=1.0, dist=1.0, w=0)
    with pytest.raises(UsageError):
        Compose(())
    with pytest.raises(UsageError):
        Sum((FixedNode(1.0), "not a node"))


def test_tree_lipschitz_rules():
    lay = LayerNode(lip=3.0, dist=1.0, w=1)
    assert tree_lipschitz(Compose((lay, FixedNode(2.0)))) == 6.0
    assert tree_lipschitz(Sum((FixedNode(1.0), lay))) == 4.0
    assert tree_lipschitz(Concat((FixedNode(3.0), FixedNode(4.0)))) == 5.0
    assert tree_log10_lipschitz(Compose((lay, FixedNode(2.0)))) == \
        math.log10(6.0)
    # past the float range the log10 route combines the children's logs
    big = LayerNode(lip=1e200, dist=1.0, w=1)
    assert tree_lipschitz(Compose((big, big))) == math.inf
    cases = [(Compose((big, FixedNode(0.5), big)), 400.0 - math.log10(2.0)),
             (Sum((FixedNode(0.0), Compose((big, big)))), 400.0),
             (Sum((Compose((big, big)),) * 2), 400.0 + math.log10(2.0)),
             (Concat((Compose((big, big)),) * 2), 400.0 + math.log10(2) / 2)]
    for node, want in cases:
        assert tree_log10_lipschitz(node) == pytest.approx(want, rel=1e-14)
    assert tree_log10_lipschitz(Compose((big, big, FixedNode(0.0)))) == \
        -math.inf


def test_singleton_detection():
    assert is_singleton(FixedNode(2.0))
    assert is_singleton(Compose((FixedNode(1.0), FixedNode(0.5))))
    lay = LayerNode(lip=1.0, dist=0.0, w=1)
    # a layer ball is a class even at distance zero
    assert not is_singleton(lay)
    assert not is_singleton(Sum((FixedNode(1.0), lay)))


# ---------------------------------------------------------------------------
# leaf contexts mirror the record route


def test_leaf_contexts_match_capacity_terms_exactly():
    rng = np.random.default_rng(50)
    for _ in range(10):
        inp = random_capacity_input(rng)
        terms = capacity_terms(inp)
        contexts = leaf_contexts(residual_chain_tree(inp))
        assert len(contexts) == len(terms.entries)
        for ctx, entry in zip(contexts, terms.entries):
            assert ctx.prefix == entry.prefix
            assert ctx.trailing == entry.trailing
            assert ctx.leaf.w == entry.w


def test_leaf_contexts_hand_tree():
    lay0 = LayerNode(lip=2.0, dist=1.0, w=4)
    lay1 = LayerNode(lip=3.0, dist=2.0, w=9)
    tree = Compose((lay0, FixedNode(5.0), Sum((FixedNode(1.0), lay1)), FixedNode(7.0)))
    ctxs = leaf_contexts(tree)
    assert len(ctxs) == 2
    assert ctxs[0].prefix == ()
    assert ctxs[0].trailing == (5.0, 1.0 + 3.0, 7.0)
    assert ctxs[1].prefix == (2.0, 5.0)
    assert ctxs[1].trailing == (7.0,)


def test_parallel_branches_add_no_factors():
    lay = LayerNode(lip=2.0, dist=1.0, w=1)
    for combiner in (Sum, Concat):
        tree = combiner((lay, FixedNode(9.0)))
        ctx = leaf_contexts(tree)[0]
        assert ctx.prefix == ()
        assert ctx.trailing == ()


# ---------------------------------------------------------------------------
# closed form against the record route, to the bit


def test_evaluate_tree_equals_whole_network_bound():
    rng = np.random.default_rng(51)
    for _ in range(20):
        inp = random_capacity_input(rng)
        tree = residual_chain_tree(inp)
        eps = float(rng.uniform(0.05, 2.0))
        for variant in ("norms", "params"):
            via_tree = evaluate_tree(tree, inp.n, inp.data_norm, eps, variant)
            via_records = whole_network_cover_bound(inp, eps, variant)
            assert via_tree.value == via_records.value, variant


def test_plain_chain_tree_equals_direct_chain_bound():
    rng = np.random.default_rng(52)
    for _ in range(10):
        layers = tuple(
            LayerRecord(lip=float(rng.uniform(0.4, 2.0)),
                        dist=float(rng.uniform(0.0, 2.5)),
                        rho=float(rng.uniform(0.5, 1.4)),
                        param_count=int(rng.integers(1, 30)))
            for _ in range(int(rng.integers(1, 5)))
        )
        n = int(rng.integers(1, 80))
        x = float(rng.uniform(0.2, 5.0))
        eps = float(rng.uniform(0.05, 1.5))
        tree = plain_chain_tree(layers)
        for variant in ("norms", "params"):
            via_tree = evaluate_tree(tree, n, x, eps, variant).value
            direct = non_residual_cover_bound(layers, n, x, eps, variant).value
            assert via_tree == direct


def test_identity_fixed_nodes_change_nothing():
    lay = LayerNode(lip=1.7, dist=0.9, w=12)
    plain = Compose((lay, FixedNode(0.8)))
    padded = Compose((FixedNode(1.0), lay, FixedNode(1.0),
                      FixedNode(0.8), FixedNode(1.0)))
    for variant in ("norms", "params"):
        a = evaluate_tree(plain, 30, 2.0, 0.3, variant).value
        b = evaluate_tree(padded, 30, 2.0, 0.3, variant).value
        assert a == b


def test_fixed_only_tree_costs_nothing():
    tree = Compose((FixedNode(2.0), Sum((FixedNode(1.0), FixedNode(0.5)))))
    for variant in ("norms", "params"):
        assert evaluate_tree(tree, 10, 3.0, 0.1, variant).value == 0.0


def test_evaluate_tree_validation():
    lay = LayerNode(lip=1.0, dist=1.0, w=1)
    with pytest.raises(UsageError):
        evaluate_tree(lay, 10, 1.0, 0.0)
    with pytest.raises(UsageError):
        evaluate_tree(lay, 0, 1.0, 0.1)
    with pytest.raises(UsageError):
        evaluate_tree(lay, 10, 1.0, 0.1, "other")


def resnet_like_tree(dist=0.5):
    blocks = []
    for stage in range(4):
        for _ in range(2):
            chain = Compose((
                LayerNode(lip=1.2, dist=dist, w=9 * 16 * 16),
                FixedNode(1.0),
                LayerNode(lip=1.2, dist=dist, w=9 * 16 * 16),
                FixedNode(1.0),
            ))
            blocks.append(Sum((FixedNode(1.0), chain)))
            blocks.append(FixedNode(1.0))
    blocks.append(LayerNode(lip=1.0, dist=dist, w=16 * 10))
    blocks.append(FixedNode(1.0))
    return Compose(tuple(blocks))


def test_deep_residual_tree_is_finite_and_monotone():
    small = evaluate_tree(resnet_like_tree(0.3), 512, 40.0, 0.5).value
    large = evaluate_tree(resnet_like_tree(0.9), 512, 40.0, 0.5).value
    assert math.isfinite(small) and small > 0
    assert large >= small


# ---------------------------------------------------------------------------
# allocations and the mechanical rules


def test_allocation_two_leaf_hand_split():
    tree = Compose((
        LayerNode(lip=1.0, dist=1.0, w=1), FixedNode(2.0),
        LayerNode(lip=3.0, dist=2.0, w=1), FixedNode(1.0),
    ))
    # c0 = 2*(1/2)*1*(2*3*1) = 6 with trailing product 6
    # c1 = 2*(1/2)*(1*2)*2*1 = 4 with trailing product 1
    alloc = allocate_radii(tree, 4, 1.0, 1.0, "norm_weighted")
    a0, a1 = 6.0 ** (2 / 3), 4.0 ** (2 / 3)
    assert alloc.alphas == pytest.approx((a0, a1), rel=1e-12)
    assert alloc.eps_by_leaf[0] == pytest.approx(a0 / (6.0 * (a0 + a1)), rel=1e-12)
    assert alloc.eps_by_leaf[1] == pytest.approx(a1 / (a0 + a1), rel=1e-12)

    uniform = allocate_radii(tree, 4, 1.0, 1.0, "uniform")
    assert uniform.eps_by_leaf == pytest.approx((1 / 12, 1 / 2), rel=1e-12)
    with pytest.raises(UsageError):
        allocate_radii(tree, 4, 1.0, 1.0, "best")
    with pytest.raises(UsageError):
        allocate_radii(tree, 4, 1.0, 0.0)


def random_tree(rng, depth=0):
    roll = rng.uniform()
    if depth >= 2 or roll < 0.35:
        if rng.uniform() < 0.25:
            return FixedNode(float(rng.uniform(0.3, 1.8)))
        return LayerNode(lip=float(rng.uniform(0.4, 1.8)),
                         dist=float(rng.uniform(0.0, 2.0)),
                         w=int(rng.integers(1, 25)))
    kids = tuple(random_tree(rng, depth + 1)
                 for _ in range(int(rng.integers(1, 4))))
    return (Compose, Sum, Concat)[int(rng.integers(0, 3))](kids)


def test_mechanical_rules_stay_under_closed_form():
    rng = np.random.default_rng(53)
    kept = 0
    while kept < 25:
        tree = Compose((random_tree(rng), random_tree(rng)))
        if not leaf_contexts(tree):
            continue
        kept += 1
        n = int(rng.integers(2, 100))
        x = float(rng.uniform(0.3, 6.0))
        eps = float(rng.uniform(0.05, 1.5))
        for variant, scheme in (("norms", "norm_weighted"), ("params", "uniform")):
            alloc = allocate_radii(tree, n, x, eps, scheme)
            got = cover_tree(tree, alloc.eps_by_leaf, x, variant)
            assert got.radius <= eps * (1 + 1e-9)
            closed = evaluate_tree(tree, n, x, eps, variant).value
            assert got.log_cover <= closed * (1 + 1e-12) + 1e-9


def test_cover_tree_needs_matching_allocation_length():
    lay = LayerNode(lip=1.0, dist=1.0, w=1)
    with pytest.raises(UsageError):
        cover_tree(Compose((lay,)), (0.1, 0.2), 1.0)
    with pytest.raises(UsageError):
        cover_tree(Compose((lay,)), (0.0,), 1.0)


def test_cover_tree_zero_dist_leaf_is_free():
    lay = LayerNode(lip=1.0, dist=0.0, w=5)
    got = cover_tree(Compose((lay,)), (0.0,), 4.0)
    assert got.radius == 0.0
    assert got.log_cover == 0.0


@pytest.mark.parametrize("variant", ["norms", "params"])
@pytest.mark.parametrize("dist", [0.7, 3.1, 1e160])
def test_single_leaf_cover_is_the_single_layer_bound(variant, dist):
    # 1e160 squares past the float range: both saturate to inf
    lay = LayerNode(lip=1.3, dist=dist, w=12)
    got = cover_tree(Compose((lay,)), (0.25,), 2.5, variant)
    assert got.radius == 0.25
    assert got.log_cover == single_layer_cover_bound(12, 2.5, dist, 0.25,
                                                     variant)


# ---------------------------------------------------------------------------
# exhaustive covers


def test_minimal_cover_line_points():
    pts = np.array([[0.0], [1.0], [2.0]])
    assert minimal_cover_size(pts, 1.0) == 1
    assert minimal_cover_size(pts, 0.4) == 3
    far = np.array([[10.0]])
    assert minimal_cover_size(pts, 1.0, candidates=far) is None
    assert minimal_cover_size(pts[:0], 1.0) == 0
    with pytest.raises(ResourceError):
        minimal_cover_size(np.zeros((13, 1)), 1.0)
    with pytest.raises(UsageError):
        minimal_cover_size(np.zeros((2, 1)), -1.0)


def test_minimal_cover_matches_oracle_and_chain():
    rng = np.random.default_rng(54)
    for _ in range(8):
        pts = rng.uniform(-1, 1, size=(int(rng.integers(2, 7)), 2))
        extra = rng.uniform(-1, 1, size=(3, 2))
        cands = np.vstack([pts, extra])
        eps = float(rng.uniform(0.3, 1.2))
        internal = minimal_cover_size(pts, eps)
        assert internal == set_cover_minimum(pts, pts, eps)
        external = minimal_cover_size(pts, eps, candidates=cands)
        external_half = minimal_cover_size(pts, eps / 2, candidates=cands)
        assert external <= internal
        if external_half is not None:
            assert internal <= external_half


# ---------------------------------------------------------------------------
# sparsified single-layer cover


def tiny_batch(rng, c=1, h=2, w=2, n=2):
    return DataBatch(rng.standard_normal((n, c, h, w)))


def test_maurey_zero_radius_gives_zero_point():
    rng = np.random.default_rng(55)
    spec = ConvSpec((1, 2, 2), (1, 1))
    cover = maurey_cover((1, 1, 1, 1), spec, tiny_batch(rng), 0.0, 0.5)
    assert cover.m == 0
    assert cover.cardinality == 1
    assert cover.points.shape[0] == 1
    assert not cover.points.any()
    assert cover.bound_norms == 1 and cover.bound_params == 1


def test_maurey_cardinality_and_bounds():
    rng = np.random.default_rng(56)
    spec = ConvSpec((1, 2, 2), (1, 1))
    batch = tiny_batch(rng)
    cover = maurey_cover((1, 1, 1, 1), spec, batch, 0.8, 0.6)
    two_w = 2
    assert cover.points.shape[0] == cover.cardinality
    assert cover.cardinality == math.comb(cover.m + two_w - 1, two_w - 1)
    assert cover.cardinality <= cover.bound_norms
    assert cover.cardinality <= cover.bound_params


def test_maurey_covers_random_feasible_kernels():
    rng = np.random.default_rng(57)
    for trial in range(6):
        c_in = int(rng.integers(1, 3))
        c_out = 1
        k = int(rng.integers(1, 3))
        h = max(2, k)
        spec = ConvSpec((c_in, h, h), (k, k))
        if c_out * c_in * k * k > 6:
            continue
        batch = tiny_batch(rng, c=c_in, h=h, w=h, n=2)
        b = float(rng.uniform(0.3, 1.2))
        eps = float(rng.uniform(0.6, 1.4)) * b
        cover = maurey_cover((c_out, c_in, k, k), spec, batch, b, eps)
        from capbound.convop import conv_forward_batch
        for _ in range(40):
            raw = rng.standard_normal((c_out, c_in, k, k))
            norm = group_norm_21(KernelTensor(raw))
            kt = KernelTensor(raw * (b * rng.uniform() / norm))
            flat = conv_forward_batch(kt, spec, batch.samples).ravel()
            assert cover.min_distance(flat) <= eps * (1 + 1e-9)


def test_maurey_untouched_channel_still_covered():
    rng = np.random.default_rng(58)
    xs = rng.standard_normal((2, 2, 2, 2))
    xs[:, 1] = 0.0  # second input channel carries nothing
    batch = DataBatch(xs)
    spec = ConvSpec((2, 2, 2), (1, 1))
    b = 0.9
    cover = maurey_cover((1, 2, 1, 1), spec, batch, b, 0.7)
    from capbound.convop import conv_forward_batch
    raw = np.zeros((1, 2, 1, 1))
    raw[0, 1, 0, 0] = b  # all mass on the dead channel
    flat = conv_forward_batch(KernelTensor(raw), spec, batch.samples).ravel()
    assert cover.min_distance(flat) <= 0.7 * (1 + 1e-9)


def test_maurey_resource_guards():
    rng = np.random.default_rng(59)
    spec_big = ConvSpec((2, 3, 3), (2, 2))
    with pytest.raises(ResourceError):
        maurey_cover((1, 2, 2, 2), spec_big, tiny_batch(rng, c=2, h=3, w=3), 1.0, 1.0)
    spec = ConvSpec((1, 2, 2), (1, 1))
    with pytest.raises(ResourceError):
        maurey_cover((1, 1, 1, 1), spec, tiny_batch(rng, n=5), 1.0, 1.0)
    with pytest.raises(ResourceError):
        maurey_cover((1, 1, 1, 1), spec, tiny_batch(rng), 100.0, 1e-4)
    with pytest.raises(UsageError):
        maurey_cover((1, 1, 1, 1), spec, tiny_batch(rng), 1.0, 0.0)
    with pytest.raises(UsageError):
        maurey_cover((1, 2, 1, 1), spec, tiny_batch(rng), 1.0, 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo Rademacher


def test_sampled_rademacher_sign_family_is_exactly_one():
    values = np.array([[1.0], [-1.0]])
    got = sampled_rademacher(values, trials=64, seed=3)
    assert got.mean == 1.0
    assert got.std_error == 0.0


def test_sampled_rademacher_scales_linearly():
    rng = np.random.default_rng(60)
    values = rng.standard_normal((5, 12))
    a = sampled_rademacher(values, trials=500, seed=1)
    b = sampled_rademacher(2.0 * values, trials=500, seed=1)
    assert b.mean == pytest.approx(2 * a.mean, rel=1e-12)
    again = sampled_rademacher(values, trials=500, seed=1)
    assert again.mean == a.mean


def test_sampled_rademacher_validation():
    with pytest.raises(UsageError):
        sampled_rademacher(np.zeros((0, 3)))
    with pytest.raises(UsageError):
        sampled_rademacher(np.zeros((2, 3)), trials=1)
