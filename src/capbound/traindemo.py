"""Projected-SGD training of tiny conv nets on synthetic 8x8 tasks.

Desk-scale stand-in for the full pipeline: small circular stride-1 conv
nets with max-pool blocks, optional residual shortcuts, and a fixed
simplex classifier, trained under per-layer Lipschitz and distance
constraints: alternating projections during training, and the nearest
point of both constraint sets after it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .capacity import BlockRecord, CapacityInput, ComparisonDataStats, \
    ComparisonLayerStats, LayerRecord
from .convop import ConvSpec, adjoint_last, forward_last
from .errors import UsageError
from .lipschitz import fft_eligible, fft_exact_norm
from .project import DEFAULT_BUDGETS, ConstraintSet, admm, alternate, \
    init_scale_to_feasible
from .tensors import DataBatch, KernelTensor, batch_last, data_norm, \
    fiber_norms, group_norm_21, l2_norm, max_patch_norm, window_columns, \
    window_index

GRID_SIDE = 8
MAXPOOL_LIP = 2.0       # 3x3 windows at stride 2: every input feeds <= 4
SHORTCUT_LIP = math.sqrt(2.0)   # two disjoint 1-Lipschitz pooled halves


# ---------------------------------------------------------------------------
# margins and the ramp


def margin_values(logits, labels) -> np.ndarray:
    """Per-sample margin: own logit minus the best competing logit."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise UsageError("logits must be (n, kappa) with kappa >= 2")
    if labels.shape != (logits.shape[0],):
        raise UsageError("labels must be one integer per row of logits")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise UsageError("label out of range")
    idx = np.arange(logits.shape[0])
    own = logits[idx, labels]
    rest = logits.copy()
    rest[idx, labels] = -np.inf
    # logits of opposite sign near the float limit have an inf margin
    with np.errstate(over="ignore"):
        return own - rest.max(axis=1)


def ramp_loss(r, gamma: float):
    """Piecewise-linear ramp: 0 below -gamma, 1 above 0, linear between."""
    if not (gamma > 0):
        raise UsageError("gamma must be > 0")
    with np.errstate(over="ignore"):    # r / gamma past the float range
        out = np.clip(1.0 + np.asarray(r, dtype=np.float64) / gamma, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def ramp_risk(logits, labels, gamma: float) -> float:
    return float(np.mean(ramp_loss(-margin_values(logits, labels), gamma)))


def zero_one_error(logits, labels) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    return float(np.mean(logits.argmax(axis=1) != labels))


def softmax_cross_entropy(logits, labels):
    """Mean CE loss and its gradient with respect to the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    idx = np.arange(logits.shape[0])
    loss = float(np.mean(log_norm[idx, 0] - z[idx, labels]))
    grad = np.exp(z - log_norm)
    grad[idx, labels] -= 1.0
    grad /= logits.shape[0]
    return loss, grad


# ---------------------------------------------------------------------------
# fixed simplex classifier


def _helmert_basis(kappa: int) -> np.ndarray:
    """(kappa-1, kappa) orthonormal rows, all orthogonal to the ones vector."""
    basis = np.zeros((kappa - 1, kappa))
    for k in range(1, kappa):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -float(k)
        basis[k - 1] /= math.sqrt(k * (k + 1))
    return basis


def _spread_basis(rows: int, dim: int) -> np.ndarray:
    """(rows, dim) orthonormal rows that touch every coordinate.

    Cosine rows are orthogonal already; the QR pass just cleans them up to
    machine precision and keeps the construction deterministic.
    """
    if rows == dim:
        return np.eye(dim)
    grid = np.arange(dim)
    raw = np.stack([np.cos(math.pi * (2 * grid + 1) * (k + 1) / (2 * dim))
                    for k in range(rows)])
    q, _ = np.linalg.qr(raw.T)
    return q.T


def simplex_classifier(kappa: int, dim: int) -> np.ndarray:
    """(kappa, dim) fixed classifier: rows are regular-simplex vertices.

    Rows are unit norm with pairwise inner products -1/(kappa-1); the
    operator norm is sqrt(kappa/(kappa-1)).
    """
    if kappa < 2:
        raise UsageError("need at least two classes")
    if dim < kappa - 1:
        raise UsageError(f"{kappa} simplex vertices need dim >= {kappa - 1}")
    centered = np.eye(kappa) - 1.0 / kappa
    vertices = centered / math.sqrt(1.0 - 1.0 / kappa)
    coords = vertices @ _helmert_basis(kappa).T
    return coords @ _spread_basis(kappa - 1, dim)


# ---------------------------------------------------------------------------
# ops with backward caches


class Relu:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x * (x > 0)

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g * (self._x > 0)

    @property
    def kink_margin(self) -> float:
        """Smallest |preactivation| of the last forward (computed on read)."""
        return float(np.abs(self._x).min()) if self._x.size else math.inf


class MaxPool:
    """Max pooling with circular wrap on batch-last (c, h, w, n) activations
    over the conv's windows (`tensors.window_index`), reduced tap by tap in
    row-major order, one contiguous (c, cells, n) slab per tap. An uncentered
    window (offsets 0 and 1) is the conv's at negated offsets, reversed."""

    def __init__(self, h: int, w: int, size: int, stride: int,
                 centered: bool = True):
        if size > min(h, w):
            raise UsageError("pool window larger than the input")
        if not (centered or size <= 2):
            raise UsageError("an uncentered pool window is at most 2 wide")
        self._h, self._w = h, w
        self.out_h, self.out_w = -(-h // stride), -(-w // stride)
        taps = window_index((1, h, w), (size, size), (stride, stride),
                            "circular", not centered)
        # a writable copy: np.take copies a read-only index on every call
        self._taps = np.array(taps if centered else taps[::-1])

    def _slabs(self, taps):
        """Each tap's (c, cells, n) slab of the last forward's input, for
        the given rows of the tap plan."""
        flat = self._x.reshape(self._x.shape[0], self._h * self._w, -1)
        for pixels in taps:
            yield flat.take(pixels, axis=1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        slabs = self._slabs(self._taps)
        out = next(slabs)
        for slab in slabs:
            np.maximum(out, slab, out=out)
        self._out = out     # read by backward: callers leave the output as is
        return out.reshape(x.shape[0], self.out_h, self.out_w, x.shape[-1])

    @property
    def kink_margin(self) -> float:
        """Smallest gap between a window's top two entries in the last
        forward (computed on read)."""
        slabs = self._slabs(self._taps)
        top = next(slabs)
        second = np.full_like(top, -np.inf)
        for slab in slabs:
            np.maximum(second, np.minimum(top, slab), out=second)
            np.maximum(top, slab, out=top)
        return float((top - second).min())

    def backward(self, g: np.ndarray) -> np.ndarray:
        # Only training reads the winners, so forward does not locate them.
        # A window's winner is its first tap equal to the forward's max: the
        # taps are visited last to first, so the first match is set last.
        out = self._out
        winner = np.zeros(out.shape, dtype=np.intp)
        last = len(self._taps) - 1
        for tap, slab in enumerate(self._slabs(self._taps[::-1])):
            np.putmask(winner, slab == out, last - tap)
        c, cells, n = out.shape
        size = self._h * self._w
        # each winner's index in the flat (c * h * w * n) input gradient;
        # bincount adds a pixel's windows in cell order, as a loop would
        winner *= cells
        winner += np.arange(cells)[:, None]
        pos = self._taps.take(winner)
        pos += size * np.arange(c)[:, None, None]
        pos *= n
        pos += np.arange(n)
        dx = np.bincount(pos.ravel(), weights=g.ravel(), minlength=c * size * n)
        return dx.reshape(self._x.shape)


class DoublingShortcut:
    """Fixed channel-doubling map: plain and one-pixel-shifted 2x2/2 pools.

    The shifted half pools the input rolled one pixel down and right, i.e.
    the 2x2 windows at offsets (-1, 0) of the input itself, so neither pass
    rolls anything."""

    def __init__(self, h: int, w: int):
        if h % 2 or w % 2:
            raise UsageError("doubling shortcut needs even spatial dims")
        self._plain = MaxPool(h, w, 2, 2, centered=False)
        self._shifted = MaxPool(h, w, 2, 2, centered=True)

    @property
    def kink_margin(self) -> float:
        return min(self._plain.kink_margin, self._shifted.kink_margin)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._c = x.shape[0]
        return np.concatenate([self._plain.forward(x),
                               self._shifted.forward(x)])

    def backward(self, g: np.ndarray) -> np.ndarray:
        return (self._plain.backward(g[:self._c])
                + self._shifted.backward(g[self._c:]))


class ConvLayer:
    """Trainable circular stride-1 convolution on batch-last (c, h, w, n)
    activations; gradients accumulate. Each product (forward, kernel
    gradient, input gradient) is one matrix product over the whole batch.

    The kernel is validated here and by `TinyNet.set_kernels`; the updates
    training assigns are read as they are, so a non-finite kernel shows as
    a non-finite loss."""

    def __init__(self, kernel: np.ndarray, spec: ConvSpec):
        if not fft_eligible(spec):
            raise UsageError("trainable convolutions are circular, stride 1")
        kernel = KernelTensor(kernel)
        spec.check_kernel(kernel)
        self.kernel = np.array(kernel.entries)
        self.spec = spec
        self.grad = np.zeros_like(self.kernel)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return forward_last(self.kernel, self.spec, x)

    def backward(self, g: np.ndarray, input_grad: bool = True):
        """Accumulate the kernel gradient; return the input gradient, or
        None when input_grad is False (nothing upstream reads it)."""
        # The output is linear in the kernel, with the input's columns as
        # coefficients: grad[o, (i,a,b)] = sum_{p,t} g[o,p,t] cols[(i,a,b),p,t].
        # The columns are gathered again: keeping them from forward would
        # hold k_h*k_w times each layer's input alive between the passes.
        cols = window_columns(self._x, self.spec.kernel_shape)
        grad = g.reshape(len(self.kernel), -1) @ cols.T
        self.grad += grad.reshape(self.kernel.shape)
        return self.adjoint(g) if input_grad else None

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """The input gradient, `convop.adjoint_last` of g."""
        return adjoint_last(self.kernel, self.spec, g)


# ---------------------------------------------------------------------------
# net assembly


@dataclass(frozen=True)
class BlockSpec:
    """One block: conv + ReLU, optional 3x3/2 max-pool, optional shortcut.

    shortcut "identity" needs matching shapes (same channels, no pool);
    "double" pairs the pooled main path with the fixed channel-doubling map,
    so it needs pool == "max3" and c_out == 2 * c_in.
    """

    c_in: int
    c_out: int
    k: int
    pool: str = "none"
    shortcut: str = "none"

    def __post_init__(self):
        if min(self.c_in, self.c_out, self.k) < 1:
            raise UsageError("block shape fields must be >= 1")
        if self.pool not in ("none", "max3"):
            raise UsageError(f"unknown pool {self.pool!r}")
        if self.shortcut not in ("none", "identity", "double"):
            raise UsageError(f"unknown shortcut {self.shortcut!r}")
        if self.shortcut == "identity" and (self.pool != "none"
                                            or self.c_in != self.c_out):
            raise UsageError("identity shortcut needs unchanged shapes")
        if self.shortcut == "double" and (self.pool != "max3"
                                          or self.c_out != 2 * self.c_in):
            raise UsageError(
                "doubling shortcut needs max3 pool and c_out == 2 c_in")

    @property
    def post_lip(self) -> float:
        """Lipschitz factor of the fixed tail after the conv (ReLU, pool)."""
        return MAXPOOL_LIP if self.pool == "max3" else 1.0


class Block:
    def __init__(self, spec: BlockSpec, h: int, w: int, kernel: np.ndarray):
        self.spec = spec
        self.conv = ConvLayer(kernel, ConvSpec((spec.c_in, h, w),
                                               (spec.k, spec.k)))
        self.relu = Relu()
        self.pool = MaxPool(h, w, 3, 2) if spec.pool == "max3" else None
        self.shortcut = (DoublingShortcut(h, w) if spec.shortcut == "double"
                         else None)
        if spec.pool == "max3":
            self.out_h, self.out_w = self.pool.out_h, self.pool.out_w
        else:
            self.out_h, self.out_w = h, w

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.relu.forward(self.conv.forward(x))
        if self.pool is not None:
            y = self.pool.forward(y)
        if self.spec.shortcut == "identity":
            y = y + x
        elif self.spec.shortcut == "double":
            y = y + self.shortcut.forward(x)
        return y

    def backward(self, g: np.ndarray, input_grad: bool = True):
        """Accumulate the conv's kernel gradient; return the block's input
        gradient, or None when input_grad is False."""
        gm = self.pool.backward(g) if self.pool is not None else g
        dx = self.conv.backward(self.relu.backward(gm), input_grad)
        if not input_grad:
            return None
        if self.spec.shortcut == "identity":
            dx = dx + g
        elif self.spec.shortcut == "double":
            dx = dx + self.shortcut.backward(g)
        return dx

    def kink_margin(self) -> float:
        margin = self.relu.kink_margin
        if self.pool is not None:
            margin = min(margin, self.pool.kink_margin)
        if self.shortcut is not None:
            margin = min(margin, self.shortcut.kink_margin)
        return margin


class TinyNet:
    """Small conv net with a fixed simplex head on flattened features.

    `forward` takes (n, c, h, w) samples and returns (n, kappa) logits;
    inside, the blocks run on batch-last (c, h, w, n) activations, so every
    conv product covers the whole batch in one matrix product."""

    def __init__(self, blocks, kappa: int = 2, h: int = GRID_SIDE,
                 w: int = GRID_SIDE, seed: int = 0):
        if not blocks:
            raise UsageError("need at least one block")
        rng = np.random.default_rng(seed)
        self.kappa = kappa
        self.input_shape = (blocks[0].c_in, h, w)
        self.blocks = []
        for spec in blocks:
            if self.blocks and spec.c_in != self.blocks[-1].spec.c_out:
                raise UsageError("block channel counts do not chain")
            fan_in = spec.c_in * spec.k * spec.k
            kernel = rng.standard_normal(
                (spec.c_out, spec.c_in, spec.k, spec.k)
            ) * math.sqrt(2.0 / fan_in)
            self.blocks.append(Block(spec, h, w, kernel))
            h, w = self.blocks[-1].out_h, self.blocks[-1].out_w
        self.feature_dim = self.blocks[-1].spec.c_out * h * w
        self.classifier = simplex_classifier(kappa, self.feature_dim)

    @property
    def classifier_lip(self) -> float:
        return math.sqrt(self.kappa / (self.kappa - 1.0))

    @property
    def kernels(self):
        return [blk.conv.kernel for blk in self.blocks]

    def set_kernels(self, kernels) -> None:
        if len(kernels) != len(self.blocks):
            raise UsageError("kernel count does not match block count")
        for blk, kernel in zip(self.blocks, kernels):
            if kernel.shape != blk.conv.kernel.shape:
                raise UsageError("kernel shape changed")
            blk.conv.kernel = np.array(KernelTensor(kernel).entries)

    def zero_grads(self) -> None:
        for blk in self.blocks:
            blk.conv.grad = np.zeros_like(blk.conv.kernel)

    def grads(self):
        return [blk.conv.grad for blk in self.blocks]

    def check_input(self, xs: np.ndarray) -> np.ndarray:
        """xs as float64 (n, c, h, w) samples of the net's input shape."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 4 or xs.shape[1:] != self.input_shape:
            raise UsageError(
                f"batch shape {xs.shape} != (n,)+{self.input_shape}")
        return xs

    def activations(self, xs: np.ndarray):
        """Each block's batch-last input in order, then the last block's
        output; a block runs only when its output is asked for."""
        y = batch_last(self.check_input(xs))
        yield y
        for blk in self.blocks:
            y = blk.forward(y)
            yield y

    def forward(self, xs: np.ndarray) -> np.ndarray:
        for y in self.activations(xs):
            pass
        self._feat_shape = y.shape
        return self.head(y)

    def head(self, features: np.ndarray) -> np.ndarray:
        """(n, kappa) logits of the last block's batch-last outputs."""
        return features.reshape(self.feature_dim, -1).T @ self.classifier.T

    def backward(self, g_logits: np.ndarray) -> None:
        g = (self.classifier.T @ np.asarray(g_logits).T).reshape(
            self._feat_shape)
        for blk in reversed(self.blocks[1:]):
            g = blk.backward(g)
        # The input gradient of the first block feeds nothing trainable.
        self.blocks[0].backward(g, input_grad=False)

    def kink_margin(self) -> float:
        """Smallest ReLU preactivation / pool runner-up gap last forward."""
        return min(blk.kink_margin() for blk in self.blocks)

    def lipschitz(self):
        return tuple(
            fft_exact_norm(KernelTensor(blk.conv.kernel), blk.conv.spec).value
            for blk in self.blocks)

    def distances(self, references):
        return tuple(
            group_norm_21(KernelTensor(blk.conv.kernel - ref))
            for blk, ref in zip(self.blocks, references))


# ---------------------------------------------------------------------------
# training


WEIGHT_DECAY = 1e-4     # SGD's L2 weight decay
LOG_GAMMA = 1.0         # gamma of the ramp risk each epoch records
# A kernel entry past this means the run diverged. Below it, projections
# and spectral measurements stay far inside the float range (their
# intermediates grow by layer extents, at most 2**54 under the arch doc's
# size cap); at 1e307 they overflow.
KERNEL_RANGE = 2.0 ** 500


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 30
    cadence: int = 15       # SGD steps between projection cycles
    # ADMM iteration cap per layer after the last update; 0 skips the pass
    post_rounds: int = DEFAULT_BUDGETS["dykstra"]
    seed: int = 0
    decay_epochs: tuple = ()
    decay_factor: float = 5.0

    def __post_init__(self):
        if not (self.lr > 0) or not (0 <= self.momentum < 1):
            raise UsageError("need lr > 0 and momentum in [0, 1)")
        if min(self.batch_size, self.epochs, self.cadence) < 1:
            raise UsageError("batch size, epochs and cadence must be >= 1")
        if self.post_rounds < 0 or self.decay_factor <= 0:
            raise UsageError("bad post_rounds or decay_factor")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_error: float
    test_error: float
    mean_loss: float
    ramp: float
    lips: tuple
    dists: tuple


@dataclass(frozen=True)
class TrainResult:
    """A trained net and what training did. post_rounds_used counts the
    iterations the slowest layer's nearest-point pass ran after the last
    update, and is 0 when both bounds are infinite, because no pass runs;
    cap_hit says a layer's pass stopped at its post_rounds cap before
    converging. A diverged run is never feasible, and its post pass never
    runs, so it never hits the cap.

    train_error and test_error are the returned net's, measured after the
    post pass; the trajectory's last epoch measured the net before it. Both
    are NaN when the run diverged, and test_error when there is no test
    set."""

    net: TinyNet
    references: tuple
    trajectory: tuple
    diverged: bool
    feasible: bool
    post_rounds_used: int
    cap_hit: bool
    train_error: float
    test_error: float

    @property
    def final(self) -> EpochStats:
        return self.trajectory[-1]


def _constraint_sets(net: TinyNet, references, lip_bound, dist_bound):
    return [ConstraintSet(KernelTensor(ref), dist_bound, lip_bound,
                          blk.conv.spec)
            for blk, ref in zip(net.blocks, references)]


def _project_all(net: TinyNet, sets) -> None:
    """One alternating cycle per layer; measures nothing."""
    for blk, cs in zip(net.blocks, sets):
        blk.conv.kernel = alternate(KernelTensor(blk.conv.kernel), cs,
                                    1).entries


def _slices(n: int, batch_size: int):
    """The slices in which n samples are forwarded, batch_size (at least
    two) at a time, each with the number of leading rows that an earlier
    slice already covered. A lone last sample is forwarded with its
    neighbour: a one-row head product is a vector-matrix product, whose
    sums differ in the last bits from the whole batch's."""
    step = max(batch_size, 2)
    for lo in range(0, n, step):
        start = lo - 1 if lo == n - 1 and lo > 0 else lo
        yield slice(start, lo + step), lo - start


def _evaluate(net: TinyNet, samples: np.ndarray,
              batch_size: int) -> np.ndarray:
    """`net.forward(samples)`, bit for bit, run in `_slices`, so an
    evaluation allocates no more than a training step does."""
    return np.concatenate([net.forward(samples[rows])[seen:]
                           for rows, seen in _slices(len(samples),
                                                     batch_size)])


class _Diverged(Exception):
    """A training phase saw the run diverge."""


def _check_range(net: TinyNet, logits=None) -> None:
    """Raise _Diverged on a kernel entry past KERNEL_RANGE (or NaN), or on
    non-finite logits."""
    if not (all(np.max(np.abs(k)) <= KERNEL_RANGE for k in net.kernels)
            and (logits is None or np.all(np.isfinite(logits)))):
        raise _Diverged


def _step(net: TinyNet, velocity, xs, ys, lr, momentum) -> float:
    """One SGD step with momentum on the minibatch (xs, ys); returns its
    loss, or raises _Diverged before the update if that is not finite."""
    loss, g_logits = softmax_cross_entropy(net.forward(xs), ys)
    if not math.isfinite(loss):
        raise _Diverged
    net.zero_grads()
    net.backward(g_logits)
    for blk, vel in zip(net.blocks, velocity):
        vel *= momentum
        vel -= lr * (blk.conv.grad + WEIGHT_DECAY * blk.conv.kernel)
        blk.conv.kernel = blk.conv.kernel + vel
    return loss


def _error(net: TinyNet, batch, labels, batch_size: int) -> float:
    """The net's 0-1 error on a batch, NaN without one."""
    if batch is None:
        return math.nan
    return zero_one_error(_evaluate(net, batch.samples, batch_size), labels)


def _epoch_stats(net: TinyNet, epoch: int, losses, references, train, test,
                 batch_size: int) -> EpochStats:
    """The epoch's record; train and test are (batch, labels) pairs. Its
    measurements run only if `_check_range` passes the training logits."""
    batch, labels = train
    logits = _evaluate(net, batch.samples, batch_size)
    _check_range(net, logits)
    return EpochStats(
        epoch=epoch,
        train_error=zero_one_error(logits, labels),
        test_error=_error(net, *test, batch_size),
        mean_loss=float(np.mean(losses)),
        ramp=ramp_risk(logits, labels, LOG_GAMMA),
        lips=net.lipschitz(),
        dists=net.distances(references),
    )


def _post_pass(net: TinyNet, sets, rounds: int):
    """One `admm` run per layer, capped at `rounds` iterations; returns
    whether every layer converged to `project.DEFAULT_TOL` and the slowest
    layer's iterations."""
    feasible, used = True, 0
    for blk, cs in zip(net.blocks, sets):
        kernel, report = admm(KernelTensor(blk.conv.kernel), cs, rounds)
        blk.conv.kernel = kernel.entries
        feasible = feasible and report.converged
        used = max(used, report.rounds_run)
    return feasible, used


def train_projected(net: TinyNet, batch: DataBatch, labels: np.ndarray,
                    config: TrainConfig, lip_bound: float = math.inf,
                    dist_bound: float = math.inf, test_batch=None,
                    test_labels=None) -> TrainResult:
    """SGD with momentum under per-layer distance/Lipschitz constraints.

    Kernels are first rescaled so every layer meets the Lipschitz bound
    exactly (making the constraint intersection nonempty around the start).
    Then `_step` runs on each minibatch, `_project_all` every `cadence`
    steps, `_epoch_stats` after each epoch and `_post_pass` after the last
    update. With both bounds infinite nothing is projected: the run is
    plain SGD, and `post_rounds_used` is 0. A phase that sees the run
    diverge ends it; the result reports that, never raises.
    """
    labels = np.asarray(labels)
    if labels.shape != (batch.n,):
        raise UsageError("labels must be one integer per sample")
    if lip_bound <= 0 or dist_bound < 0:
        raise UsageError("need lip_bound > 0 and dist_bound >= 0")
    if math.isfinite(lip_bound):
        for blk in net.blocks:
            blk.conv.kernel = init_scale_to_feasible(
                KernelTensor(blk.conv.kernel), blk.conv.spec,
                lip_bound).entries
    references = tuple(blk.conv.kernel.copy() for blk in net.blocks)
    sets = _constraint_sets(net, references, lip_bound, dist_bound) \
        if math.isfinite(lip_bound) or math.isfinite(dist_bound) else ()
    train, test = (batch, labels), (test_batch, test_labels)
    rng = np.random.default_rng(config.seed)
    velocity = [np.zeros_like(k) for k in net.kernels]
    lr, step = config.lr, 0
    diverged = False
    trajectory = []
    try:
        for epoch in range(config.epochs):
            if epoch in config.decay_epochs:
                lr /= config.decay_factor
            order = rng.permutation(batch.n)
            losses = []
            for lo in range(0, batch.n, config.batch_size):
                take = order[lo:lo + config.batch_size]
                losses.append(_step(net, velocity, batch.samples[take],
                                    labels[take], lr, config.momentum))
                step += 1
                if step % config.cadence == 0:
                    _check_range(net)
                    _project_all(net, sets)
            trajectory.append(_epoch_stats(net, epoch, losses, references,
                                           train, test, config.batch_size))
    except _Diverged:
        diverged = True
        train = test = (None, None)     # a diverged net's errors are NaN
    feasible, used = not diverged, 0
    if feasible and config.post_rounds > 0:
        feasible, used = _post_pass(net, sets, config.post_rounds)
    return TrainResult(net=net, references=references,
                       trajectory=tuple(trajectory), diverged=diverged,
                       feasible=feasible, post_rounds_used=used,
                       cap_hit=not (feasible or diverged),
                       train_error=_error(net, *train, config.batch_size),
                       test_error=_error(net, *test, config.batch_size))


# ---------------------------------------------------------------------------
# synthetic tasks


def synth_data(task: str, n: int, seed: int = 0):
    """Deterministic 8x8 single-channel tasks: easy blobs, harder rings.

    Blobs put the class into the pixel mean (+-0.3 under noise 0.4), so a
    zero threshold on the mean separates them. Rings use a disk against an
    annulus scaled to the same total mass, which leaves the pixel mean
    uninformative.
    """
    if n < 2:
        raise UsageError("need n >= 2 samples")
    rng = np.random.default_rng(seed)
    labels = rng.permutation(n) % 2
    side = GRID_SIDE
    if task == "blobs":
        means = np.where(labels == 1, 0.3, -0.3)[:, None, None, None]
        xs = means + 0.4 * rng.standard_normal((n, 1, side, side))
    elif task == "rings":
        ii, jj = np.mgrid[0:side, 0:side]
        rho = np.hypot(ii - (side - 1) / 2.0, jj - (side - 1) / 2.0)
        disk = (rho <= 2.0).astype(np.float64)
        ring = ((rho > 2.0) & (rho <= 3.6)).astype(np.float64)
        ring *= disk.sum() / ring.sum()
        base = np.where(labels[:, None, None, None] == 1,
                        ring[None, None], disk[None, None])
        xs = base + 0.2 * rng.standard_normal((n, 1, side, side))
    else:
        raise UsageError(f"unknown task {task!r}")
    return DataBatch(xs), labels.astype(np.int64)


def pixel_mean_threshold_error(batch: DataBatch, labels: np.ndarray) -> float:
    """Best achievable error of a threshold on the per-sample pixel mean."""
    feats = batch.samples.mean(axis=(1, 2, 3))
    order = np.argsort(feats)
    sorted_labels = np.asarray(labels)[order]
    n = len(sorted_labels)
    ones_left = np.concatenate([[0], np.cumsum(sorted_labels == 1)])
    zeros_left = np.arange(n + 1) - ones_left
    # cut after position i, both orientations
    errs_up = ones_left + (zeros_left[-1] - zeros_left)
    errs_down = zeros_left + (ones_left[-1] - ones_left)
    return float(min(errs_up.min(), errs_down.min())) / n


# ---------------------------------------------------------------------------
# bridges into the capacity calculus


def _block_records(net: TinyNet, references) -> tuple:
    """The net's blocks as capacity records, each conv measured once.

    Each block contributes one conv layer whose post-conv factor covers the
    ReLU and any pool; the fixed classifier folds into the last block's
    scale. Lipschitz constants are exact circular-operator norms.
    """
    shortcut_kind = {"none": "zero", "identity": "identity",
                     "double": "fixed"}
    records = []
    for blk, lip, dist in zip(net.blocks, net.lipschitz(),
                              net.distances(references)):
        layer = LayerRecord(lip=lip, dist=dist, rho=blk.spec.post_lip,
                            param_count=blk.conv.kernel.size)
        kind = shortcut_kind[blk.spec.shortcut]
        records.append(BlockRecord(
            layers=(layer,),
            shortcut=kind,
            shortcut_lip=SHORTCUT_LIP if kind == "fixed" else None,
        ))
    records[-1] = replace(records[-1], rho=net.classifier_lip)
    return tuple(records)


def capacity_input_from_net(net: TinyNet, references, n: int,
                            data_norm_value: float,
                            gamma: float) -> CapacityInput:
    """Measure the trained net into per-layer capacity records."""
    return CapacityInput(blocks=_block_records(net, references), n=n,
                         data_norm=data_norm_value, gamma=gamma)


def _sliced_forward(net: TinyNet, samples: np.ndarray):
    """`net.forward(samples)`, bit for bit, and the largest l2 norm of a
    patch at each block's input, of a feature vector and of a logit
    vector, from one forward run in `_slices` of a training step's size
    (`TrainConfig.batch_size`), so no transient grows with the sample
    count. Finite activations measure finite (`fiber_norms`,
    `max_patch_norm`). Samples of another shape than the net's input are
    refused as `TinyNet.forward` refuses them, and so is (UsageError) a net
    whose activations overflow, naming the smallest block whose outputs are
    not finite on some sample."""
    blocks = net.blocks
    overflow = len(blocks)      # the smallest block with non-finite outputs
    maxima = [0.0] * (len(blocks) + 2)
    logits = []
    samples = net.check_input(samples)
    for rows, seen in _slices(len(samples), TrainConfig.batch_size):
        for i, y in enumerate(net.activations(samples[rows])):
            if i > 0 and not np.all(np.isfinite(y)):
                overflow = i - 1
                break
            if i == overflow:   # the net's output, or an overflowed block
                break
            k = blocks[i].spec.k
            maxima[i] = max(maxima[i], max_patch_norm(y, (k, k)))
        if overflow < len(blocks):
            continue    # a later slice may still overflow at a smaller block
        part = net.head(y)
        features = y.transpose(3, 0, 1, 2).reshape(y.shape[-1], -1)
        maxima[-2] = max(maxima[-2], float(fiber_norms(features).max()))
        maxima[-1] = max(maxima[-1], float(fiber_norms(part).max()))
        logits.append(part[seen:])
    if overflow < len(blocks):
        raise UsageError(
            f"the net's activations overflowed: block {overflow} (counting "
            f"from 0) has non-finite outputs on this batch")
    return maxima, np.concatenate(logits)


def comparison_stats_from_net(net: TinyNet, references, batch: DataBatch):
    """Per-layer and data statistics for the published-bound comparison.

    Layers are the composite conv + fixed tail maps of a plain chain, so a
    block's pool factor folds into its Lipschitz constant. Kernel norm
    statistics stay raw measurements. The fixed simplex head enters as a
    terminal dense layer with zero change, so every row sees the same
    end-to-end function. The data stats carry the net's block records (the
    one measurement of each conv), on which the ours_* rows evaluate the
    headline bounds, shortcuts included.

    The batch is forwarded once, a training step's worth of samples at a
    time (`_sliced_forward`), so the working memory does not grow with the
    batch beyond the batch itself and its logits. A net whose activations
    overflow on the batch is refused (UsageError), naming the smallest
    block whose outputs are not finite on some sample.
    """
    return comparison_stats_and_logits(net, references, batch)[:2]


def _layer_stats(kernel: np.ndarray, diff: np.ndarray,
                 **fields) -> ComparisonLayerStats:
    """A layer's comparison stats: `fields` (its Lipschitz constant and
    geometry) and the norms of its kernel and of the kernel's change
    `diff`, over each output's slice (axis 0) and the whole."""
    rows = kernel.reshape(kernel.shape[0], -1)
    rows_diff = diff.reshape(diff.shape[0], -1)
    return ComparisonLayerStats(
        w=kernel.size,
        sum_out_l2_diff=float(l2_norm(rows_diff, axis=1).sum()),
        max_out_l1=float(np.abs(rows).sum(axis=1).max()),
        max_out_l1_diff=float(np.abs(rows_diff).sum(axis=1).max()),
        max_out_l2=float(l2_norm(rows, axis=1).max()),
        frob=float(l2_norm(kernel)),
        frob_diff=float(l2_norm(diff)),
        **fields)


def comparison_stats_and_logits(net: TinyNet, references, batch: DataBatch):
    """`comparison_stats_from_net`'s (stats, dstats), and the batch's
    logits (`net.forward(batch.samples)` bit for bit) from the same one
    forward."""
    b_vals, logits = _sliced_forward(net, batch.samples)
    records = _block_records(net, references)
    stats = []
    for blk, ref, record in zip(net.blocks, references, records):
        layer = record.layers[0]
        stats.append(_layer_stats(
            blk.conv.kernel, blk.conv.kernel - ref, lip=layer.lip * layer.rho,
            d=blk.conv.spec.input_shape[1], t=1, k=blk.spec.k,
            c_in=blk.spec.c_in, c_out=blk.spec.c_out))
    head = net.classifier
    stats.append(_layer_stats(head, np.zeros_like(head),
                              lip=net.classifier_lip, d=1, t=1, k=1,
                              c_in=net.feature_dim, c_out=net.kappa))
    data = ComparisonDataStats(
        data_norm=data_norm(batch),
        max_linf=float(np.abs(batch.samples).max()),
        max_coord_sq_sum=float((batch.samples ** 2).sum(axis=0).max()),
        patch_norms=tuple(b_vals),
        blocks=records,
    )
    return tuple(stats), data, logits
