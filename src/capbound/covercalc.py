"""Compositional covering-number calculus over network trees.

A network is a tree of nodes: LayerNode leaves (a norm-ball of trainable
maps around a reference, with a Lipschitz bound), FixedNode leaves (one
fixed Lipschitz map, a singleton class), and Compose / Sum / Concat
combinators. Compose children apply first-to-last. The calculus propagates
cover radii and log-cardinalities mechanically:

    compose:  radius = sum_t (prod of later children's Lipschitz) * r_t,
              log covers add
    sum:      radii add, log covers add
    concat:   radius = sqrt(sum r_t^2), log covers add, Lipschitz likewise

Singleton subtrees contribute zero radius and zero log-cardinality.

evaluate_tree assembles the closed-form upper bound on the mechanical
result from per-leaf coefficients with capacity.cover_value, the one
assembly every cover bound uses. leaf_contexts is the only code that builds
prefix/trailing factor lists: capacity_terms reads them off
residual_chain_tree, so on that tree evaluate_tree reproduces
whole_network_cover_bound bit for bit rather than merely approximately.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import (
    BoundReport,
    binomial_bound_check,
    _lg,
    _lg_add,
    _lg_sum,
    cover_value,
    leaf_coefficient,
    safe_ceil,
    single_layer_cover_bound,
)
from .convop import ConvSpec, conv_forward_batch
from .errors import ResourceError, UsageError
from .tensors import DataBatch, KernelTensor, data_norm

__all__ = [
    "FixedNode",
    "LayerNode",
    "Compose",
    "Sum",
    "Concat",
    "LeafContext",
    "leaf_contexts",
    "tree_lipschitz",
    "tree_log10_lipschitz",
    "evaluate_tree",
    "allocate_radii",
    "Allocation",
    "cover_tree",
    "CoverEvaluation",
    "residual_chain_tree",
    "plain_chain_tree",
    "minimal_cover_size",
    "MaureyCover",
    "maurey_cover",
    "RademacherEstimate",
    "sampled_rademacher",
]


# ---------------------------------------------------------------------------
# nodes


@dataclass(frozen=True)
class FixedNode:
    lip: float

    def __post_init__(self):
        if self.lip < 0 or not math.isfinite(self.lip):
            raise UsageError("fixed map needs a finite lipschitz >= 0")


@dataclass(frozen=True)
class LayerNode:
    lip: float            # Lipschitz bound s over the whole ball
    dist: float           # reference-distance bound b
    w: int                # parameter count

    def __post_init__(self):
        if not (self.lip > 0) or not math.isfinite(self.lip):
            raise UsageError("layer needs a finite lipschitz > 0")
        if self.dist < 0 or not math.isfinite(self.dist):
            raise UsageError(
                f"layer distance to the reference (measured, or its bound) "
                f"must be finite and >= 0, got {self.dist!r}")
        if self.w < 1:
            raise UsageError("layer needs w >= 1 parameters")


def _check_children(children):
    children = tuple(children)
    if not children:
        raise UsageError("combinator needs at least one child")
    for c in children:
        if not isinstance(c, (FixedNode, LayerNode, Compose, Sum, Concat)):
            raise UsageError(f"not a tree node: {c!r}")
    return children


@dataclass(frozen=True)
class Compose:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", _check_children(self.children))


@dataclass(frozen=True)
class Sum:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", _check_children(self.children))


@dataclass(frozen=True)
class Concat:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", _check_children(self.children))


def tree_lipschitz(node) -> float:
    if isinstance(node, (FixedNode, LayerNode)):
        return node.lip
    if isinstance(node, Compose):
        p = 1.0
        for c in node.children:
            p = p * tree_lipschitz(c)
        return p
    if isinstance(node, Sum):
        t = 0.0
        for c in node.children:
            t += tree_lipschitz(c)
        return t
    if isinstance(node, Concat):
        sq = 0.0
        for c in node.children:
            sq += tree_lipschitz(c) ** 2
        return math.sqrt(sq)
    raise UsageError(f"not a tree node: {node!r}")


def tree_log10_lipschitz(node) -> float:
    """log10 of tree_lipschitz(node). Where that float overflows (or
    underflows), the node combines its children's logs instead."""
    lg = _lg(tree_lipschitz(node))
    if math.isfinite(lg) or isinstance(node, (FixedNode, LayerNode)):
        return lg
    lgs = [tree_log10_lipschitz(c) for c in node.children]
    if isinstance(node, Compose):
        return _lg_sum(lgs)
    p = 2.0 if isinstance(node, Concat) else 1.0   # Concat adds squares
    return functools.reduce(_lg_add, [p * v for v in lgs]) / p


def is_singleton(node) -> bool:
    if isinstance(node, FixedNode):
        return True
    if isinstance(node, LayerNode):
        return False
    return all(is_singleton(c) for c in node.children)


# ---------------------------------------------------------------------------
# leaf contexts


@dataclass(frozen=True)
class LeafContext:
    leaf: LayerNode
    prefix: tuple        # Lipschitz factors of everything applied before
    trailing: tuple      # Lipschitz factors of everything applied after
    log10_prefix: tuple  # their log10s, finite where a factor overflows
    log10_trailing: tuple


def leaf_contexts(root) -> list:
    """LayerNode leaves in traversal order with their factor lists.

    Siblings in a Compose contribute one factor each, in child order;
    parallel branches (Sum, Concat) contribute nothing: a perturbation in
    one branch passes through them with factor one.
    """
    found: list[LeafContext] = []

    def rec(node, prefix, trailing, lg_prefix, lg_trailing):
        if isinstance(node, FixedNode):
            return
        if isinstance(node, LayerNode):
            found.append(LeafContext(node, tuple(prefix), tuple(trailing),
                                     tuple(lg_prefix), tuple(lg_trailing)))
            return
        if isinstance(node, Compose):
            lips = [tree_lipschitz(c) for c in node.children]
            lgs = [tree_log10_lipschitz(c) for c in node.children]
            for t, child in enumerate(node.children):
                rec(child, prefix + lips[:t], lips[t + 1:] + trailing,
                    lg_prefix + lgs[:t], lgs[t + 1:] + lg_trailing)
            return
        for child in node.children:  # Sum, Concat
            rec(child, prefix, trailing, lg_prefix, lg_trailing)

    rec(root, [], [], [], [])
    return found


# ---------------------------------------------------------------------------
# closed-form evaluation


def evaluate_tree(root, n: int, data_norm_value: float, eps: float,
                  variant: str = "norms") -> BoundReport:
    """Closed-form log-cover bound assembled from per-leaf coefficients.

    norms  : log(2 W_max) * (sum_leaf ceil(c^{2/3}))^3 * ceil(n/eps^2)
    params : sum_leaf 2 W log(1 + ceil((Lbar c)^2) ceil(n/eps^2))
    """
    if eps <= 0:
        raise UsageError("eps must be > 0")
    if n < 1 or data_norm_value < 0:
        raise UsageError("need n >= 1 and a nonnegative data norm")
    contexts = leaf_contexts(root)
    if not contexts:
        return BoundReport.of(f"tree_cover_{variant}", 0.0, {})
    cs = [
        leaf_coefficient(data_norm_value, n, ctx.prefix, ctx.leaf.dist,
                         ctx.trailing)
        for ctx in contexts
    ]
    value = cover_value(cs, [ctx.leaf.w for ctx in contexts], n, eps, variant)
    breakdown = {f"c[{i}]": c for i, c in enumerate(cs)}
    return BoundReport.of(f"tree_cover_{variant}", value, breakdown)


# ---------------------------------------------------------------------------
# explicit allocations and mechanical evaluation


@dataclass(frozen=True)
class Allocation:
    eps_by_leaf: tuple
    alphas: tuple
    scheme: str


def allocate_radii(root, n: int, data_norm_value: float, eps: float,
                   scheme: str = "norm_weighted") -> Allocation:
    """Split a target output radius eps across the leaves.

    norm_weighted uses alpha = c^{2/3} (c the leaf coefficient), uniform
    uses alpha = 1. Leaf radius is eps * alpha / (T * sum alpha) with T the
    product of the leaf's trailing factors, so the mechanically propagated
    output radius is at most eps.
    """
    if eps <= 0:
        raise UsageError("eps must be > 0")
    contexts = leaf_contexts(root)
    if scheme == "norm_weighted":
        alphas = [
            leaf_coefficient(data_norm_value, n, ctx.prefix, ctx.leaf.dist,
                             ctx.trailing) ** (2.0 / 3.0)
            for ctx in contexts
        ]
    elif scheme == "uniform":
        alphas = [1.0 for _ in contexts]
    else:
        raise UsageError(f"unknown scheme {scheme!r}")
    total = math.fsum(alphas)
    radii = []
    for ctx, alpha in zip(contexts, alphas):
        if alpha == 0.0 or total == 0.0:
            radii.append(0.0)
            continue
        t = 1.0
        for v in ctx.trailing:
            t = t * v
        if t == 0.0:
            # a zero factor downstream kills the leaf's influence entirely
            radii.append(math.inf)
            continue
        radii.append(eps * alpha / (t * total))
    return Allocation(tuple(radii), tuple(alphas), scheme)


@dataclass(frozen=True)
class CoverEvaluation:
    radius: float
    log_cover: float


def cover_tree(root, eps_by_leaf, data_norm_value: float,
               variant: str = "norms") -> CoverEvaluation:
    """Run the mechanical radius/log-cover rules for a given allocation.

    eps_by_leaf lists one radius per LayerNode in leaf_contexts order. Each
    leaf is covered on inputs of norm at most data_norm * (product of
    Lipschitz factors before it), which the recursion tracks as `scale`;
    its log cover is capacity.single_layer_cover_bound at that norm.
    """
    if variant not in ("norms", "params"):
        raise UsageError(f"unknown variant {variant!r}")
    if data_norm_value < 0:
        raise UsageError("data norm must be >= 0")
    leaves = leaf_contexts(root)
    if len(eps_by_leaf) != len(leaves):
        raise UsageError(
            f"allocation has {len(eps_by_leaf)} radii for {len(leaves)} leaves")
    queue = iter(list(eps_by_leaf))

    def rec(node, scale):
        if isinstance(node, FixedNode):
            return 0.0, 0.0
        if isinstance(node, LayerNode):
            eps = float(next(queue))
            if node.dist == 0.0:
                return 0.0, 0.0
            if not (eps > 0):
                raise UsageError("a leaf with dist > 0 needs a radius > 0")
            if eps == math.inf:
                return math.inf, 0.0
            return eps, single_layer_cover_bound(node.w, scale, node.dist,
                                                 eps, variant)
        if isinstance(node, Compose):
            lips = [tree_lipschitz(c) for c in node.children]
            parts = []
            lg_total = 0.0
            s = scale
            for t, child in enumerate(node.children):
                r, lg = rec(child, s)
                tail = 1.0
                for v in lips[t + 1:]:
                    tail = tail * v
                parts.append(tail * r if (r != 0.0 and tail != 0.0) else 0.0)
                lg_total += lg
                s = s * lips[t]
            return math.fsum(parts), lg_total
        if isinstance(node, Sum):
            rs, lg_total = [], 0.0
            for child in node.children:
                r, lg = rec(child, scale)
                rs.append(r)
                lg_total += lg
            return math.fsum(rs), lg_total
        if isinstance(node, Concat):
            sq, lg_total = [], 0.0
            for child in node.children:
                r, lg = rec(child, scale)
                sq.append(r * r)
                lg_total += lg
            return math.sqrt(math.fsum(sq)), lg_total
        raise UsageError(f"not a tree node: {node!r}")

    radius, log_cover = rec(root, data_norm_value)
    return CoverEvaluation(radius=radius, log_cover=log_cover)


# ---------------------------------------------------------------------------
# builders


def residual_chain_tree(inp) -> Compose:
    """The tree of a CapacityInput: shortcut-plus-chain blocks in sequence.

    capacity_terms reads its factor lists off this tree's leaf contexts:
    Sum children are [shortcut, chain]; each layer is followed by a
    FixedNode for its rho, each block by one for the block rho.
    """
    top: list = []
    for blk in inp.blocks:
        inner: list = []
        for layer in blk.layers:
            inner.append(LayerNode(lip=layer.lip, dist=layer.dist, w=layer.w))
            inner.append(FixedNode(lip=layer.rho))
        top.append(Sum((FixedNode(lip=blk.shortcut_lip), Compose(tuple(inner)))))
        top.append(FixedNode(lip=blk.rho))
    return Compose(tuple(top))


def plain_chain_tree(layers) -> Compose:
    """A chain network as a tree: layer, its rho, layer, its rho, ..."""
    nodes: list = []
    for layer in layers:
        nodes.append(LayerNode(lip=layer.lip, dist=layer.dist, w=layer.w))
        nodes.append(FixedNode(lip=layer.rho))
    nodes.append(FixedNode(lip=1.0))
    return Compose(tuple(nodes))


# ---------------------------------------------------------------------------
# exhaustive covers on point sets


def minimal_cover_size(points: np.ndarray, eps: float,
                       candidates: np.ndarray | None = None) -> int | None:
    """Smallest number of eps-balls centered at candidates covering points.

    candidates=None means internal covering (centers drawn from the points
    themselves). Exhaustive search, so both sets are capped small. Returns
    None when no candidate subset covers (possible only for external
    centers that are all far away).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise UsageError("points must be a 2d array (count, dim)")
    if eps < 0:
        raise UsageError("eps must be >= 0")
    internal = candidates is None
    cand = points if internal else np.asarray(candidates, dtype=np.float64)
    if cand.ndim != 2 or cand.shape[1] != points.shape[1]:
        raise UsageError("candidates must match the points' dimension")
    if points.shape[0] > 12 or cand.shape[0] > 14:
        raise ResourceError("exhaustive cover search capped at 12/14 elements")
    if points.shape[0] == 0:
        return 0
    d = np.linalg.norm(points[:, None, :] - cand[None, :, :], axis=2)
    near = d <= eps * (1 + 1e-12)
    if internal and not np.all(np.diagonal(near)):
        raise AssertionError("a point does not cover itself")
    for k in range(0, cand.shape[0] + 1):
        for combo in itertools.combinations(range(cand.shape[0]), k):
            if k == 0:
                continue
            if np.all(np.any(near[:, list(combo)], axis=1)):
                return k
    return None


# ---------------------------------------------------------------------------
# sparsification cover for a single conv layer


@dataclass(frozen=True)
class MaureyCover:
    """Explicit cover of a (2,1)-ball conv layer's outputs on a batch.

    Elements are the 2W signed scaled atom outputs; points are every
    empirical average of m draws from them (multisets, enumerated exactly),
    flattened over (sample, channel, row, column).
    """

    m: int
    eps: float
    b: float
    elements: np.ndarray
    points: np.ndarray
    cardinality: int
    bound_norms: int
    bound_params: int

    def min_distance(self, flat_output: np.ndarray) -> float:
        f = np.asarray(flat_output, dtype=np.float64).ravel()
        if f.shape[0] != self.points.shape[1]:
            raise UsageError("output length does not match the cover points")
        return float(np.min(np.linalg.norm(self.points - f[None, :], axis=1)))


def maurey_cover(kernel_shape, spec: ConvSpec, batch: DataBatch, b: float,
                 eps: float) -> MaureyCover:
    """Enumerate the sparsified cover at radius eps.

    m = ceil(|X|^2 b^2 / eps^2); atoms are single-entry kernels scaled by
    +-(b |X| / |X restricted to the entry's input channel|); a channel the
    batch never touches gets scale zero. Cardinality is the exact multiset
    count C(m + 2W - 1, 2W - 1), checked against both closed-form bounds.
    """
    c_out, c_in, k_h, k_w = map(int, kernel_shape)
    if min(c_out, c_in, k_h, k_w) < 1:
        raise UsageError("kernel shape entries must be >= 1")
    if (c_in,) != (spec.input_shape[0],):
        raise UsageError("kernel input channels disagree with the conv spec")
    if (k_h, k_w) != spec.kernel_shape:
        raise UsageError("kernel window disagrees with the conv spec")
    if eps <= 0:
        raise UsageError("eps must be > 0")
    if b < 0:
        raise UsageError("b must be >= 0")
    w = c_out * c_in * k_h * k_w
    if w > 6:
        raise ResourceError("atom enumeration capped at W <= 6")
    if batch.n > 4:
        raise ResourceError("atom enumeration capped at 4 samples")

    x_norm = data_norm(batch)
    m = safe_ceil((x_norm * b / eps) ** 2)
    two_w = 2 * w
    check = binomial_bound_check(m, two_w - 1)
    cardinality = check["exact"]
    if cardinality > 500_000 or cardinality * two_w > 50_000_000:
        raise ResourceError(
            f"cover of {cardinality} points is too large to enumerate")

    chan_sq = np.sum(batch.samples**2, axis=(0, 2, 3))
    out_h, out_w = spec.out_spatial
    dim = batch.n * c_out * out_h * out_w
    elements = np.zeros((two_w, dim))
    for idx, (o, r, a, bb) in enumerate(np.ndindex(c_out, c_in, k_h, k_w)):
        e = np.zeros((c_out, c_in, k_h, k_w))
        e[o, r, a, bb] = 1.0
        out = conv_forward_batch(KernelTensor(e), spec, batch.samples).ravel()
        scale = b * x_norm / math.sqrt(chan_sq[r]) if chan_sq[r] > 0 else 0.0
        elements[2 * idx] = scale * out
        elements[2 * idx + 1] = -scale * out

    if m == 0:
        points = np.zeros((1, dim))
    else:
        counts = np.empty((cardinality, two_w))
        stars = m + two_w - 1
        for row, bars in enumerate(
                itertools.combinations(range(stars), two_w - 1)):
            edges = (-1, *bars, stars)
            counts[row] = [edges[i + 1] - edges[i] - 1 for i in range(two_w)]
        points = counts @ elements / m
    return MaureyCover(
        m=int(m), eps=eps, b=b, elements=elements, points=points,
        cardinality=cardinality,
        bound_norms=two_w**m,
        bound_params=(1 + m) ** (two_w - 1),
    )


# ---------------------------------------------------------------------------
# Monte Carlo Rademacher estimates


@dataclass(frozen=True)
class RademacherEstimate:
    mean: float
    std_error: float
    trials: int


def sampled_rademacher(values: np.ndarray, trials: int = 10_000,
                       seed: int = 0) -> RademacherEstimate:
    """Monte Carlo estimate of E sup_f (1/n) sum_i sigma_i f(x_i).

    values holds one row per function, one column per sample. Estimates over
    a finite sub-family lower-bound the full class's complexity.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise UsageError("values must be a nonempty (functions, samples) array")
    if trials < 2:
        raise UsageError("need at least 2 trials for a standard error")
    n = values.shape[1]
    rng = np.random.default_rng(seed)
    sups = np.empty(trials)
    chunk = max(1, min(trials, 8_388_608 // max(1, values.shape[0] * n)))
    done = 0
    while done < trials:
        take = min(chunk, trials - done)
        sigma = rng.integers(0, 2, size=(take, n)) * 2.0 - 1.0
        corr = values @ sigma.T / n
        sups[done:done + take] = np.max(corr, axis=0)
        done += take
    mean = float(np.mean(sups))
    sem = float(np.std(sups, ddof=1) / math.sqrt(trials))
    return RademacherEstimate(mean=mean, std_error=sem, trials=trials)
