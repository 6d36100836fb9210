"""Strided 2D convolution as an explicit linear operator.

The op is cross-correlation with kernel array index a at spatial offset
a - k//2 (see tensors.offsets), output position mu reading input row
s_h*mu + offset. Output spatial extent is ceil(h/s_h) x ceil(w/s_w) for both
padding modes. No dilation, no channel groups, no bias.

Every executable operator runs one im2col route (Chellapilla et al., 2006)
on batch-last (c, h, w, n) arrays, the layout training's activations keep:
`forward_last` and `adjoint_last`, each one gather and one matrix product
over the whole batch. The gather is precomputed: tensors.window_index
caches, per geometry, the flat index of every pixel each window reads in
the unpadded input (the circular wrap folded in, zero_same taps off the grid
pointed at one appended zero row), so a batch's column matrix is one
np.take. The adjoint is the same route with the channel-transposed kernel
read at negated tap offsets, applied to the output scattered back onto the
input grid (zeros between strided samples). Results are deterministic; they
differ from a per-offset sum only in float rounding. The public operators
check their arguments and move the batch axis around the two unchecked
functions, which training (`traindemo.ConvLayer`) calls directly.
`materialize` builds the dense matrix tap by tap through its own plan
instead and stays the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceError, UsageError
from .tensors import DenseMatrix, KernelTensor, batch_last, group_norm_21, \
    offsets, window_columns

__all__ = [
    "ConvSpec",
    "conv_forward",
    "conv_forward_batch",
    "conv_adjoint",
    "conv_adjoint_batch",
    "forward_last",
    "adjoint_last",
    "materialize",
    "MATERIALIZE_CAP",
    "NormIdentityReport",
    "mk_norm_identities",
]

_PADDINGS = ("zero_same", "circular")


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one conv layer: strides, padding, and shapes."""

    input_shape: tuple[int, int, int]   # (c_in, h, w)
    kernel_shape: tuple[int, int]       # (k_h, k_w)
    strides: tuple[int, int] = (1, 1)
    padding: str = "circular"

    def __post_init__(self):
        c, h, w = self.input_shape
        k_h, k_w = self.kernel_shape
        s_h, s_w = self.strides
        if min(c, h, w, k_h, k_w) < 1:
            raise UsageError("shapes must be positive")
        if s_h < 1 or s_w < 1:
            raise UsageError("strides must be >= 1")
        if self.padding not in _PADDINGS:
            raise UsageError(f"padding must be one of {_PADDINGS}")
        if self.padding == "circular" and (k_h > h or k_w > w):
            raise UsageError(
                "circular padding requires kernel extents <= spatial dims"
            )

    @property
    def out_spatial(self) -> tuple[int, int]:
        c, h, w = self.input_shape
        s_h, s_w = self.strides
        return (-(-h // s_h), -(-w // s_w))

    def check_kernel(self, kernel: KernelTensor) -> None:
        if kernel.c_in != self.input_shape[0]:
            raise UsageError(
                f"kernel expects {kernel.c_in} input channels, spec has "
                f"{self.input_shape[0]}"
            )
        if (kernel.k_h, kernel.k_w) != self.kernel_shape:
            raise UsageError(
                f"kernel spatial extents {(kernel.k_h, kernel.k_w)} do not "
                f"match spec {self.kernel_shape}"
            )


def _gather_plan(spec: ConvSpec):
    """Per-offset index arrays of the dense oracle `materialize`."""
    _, h, w = spec.input_shape
    k_h, k_w = spec.kernel_shape
    s_h, s_w = spec.strides
    out_h, out_w = spec.out_spatial
    d_h = offsets(k_h)
    d_w = offsets(k_w)
    plan = []
    for a in range(k_h):
        rows = s_h * np.arange(out_h) + d_h[a]
        for b in range(k_w):
            cols = s_w * np.arange(out_w) + d_w[b]
            if spec.padding == "circular":
                plan.append((a, b, rows % h, cols % w,
                             np.arange(out_h), np.arange(out_w)))
            else:
                rok = (rows >= 0) & (rows < h)
                cok = (cols >= 0) & (cols < w)
                if not rok.any() or not cok.any():
                    continue
                plan.append((a, b, rows[rok], cols[cok],
                             np.arange(out_h)[rok], np.arange(out_w)[cok]))
    return plan


def forward_last(entries: np.ndarray, spec: ConvSpec,
                 x: np.ndarray) -> np.ndarray:
    """The conv operator of (c_out, c_in, k_h, k_w) `entries` on a
    batch-last (c_in, h, w, n) array, unchecked: one window_columns gather
    and one (c_out, c_in*k_h*k_w) by (c_in*k_h*k_w, out_h*out_w*n) product.
    Returns (c_out, out_h, out_w, n)."""
    cols = window_columns(x, spec.kernel_shape, spec.strides, spec.padding)
    out = entries.reshape(len(entries), -1) @ cols
    return out.reshape((len(entries),) + spec.out_spatial + x.shape[-1:])


def adjoint_last(entries: np.ndarray, spec: ConvSpec,
                 y: np.ndarray) -> np.ndarray:
    """`forward_last`'s adjoint on a batch-last (c_out, out_h, out_w, n)
    array, unchecked, returning (c_in, h, w, n): the correlation at negated
    offsets of the outputs placed on the input grid.

    In one dimension adj[i, u] sums K[o, i, a] * y[o, mu] over the (o, a, mu)
    with s*mu + d[a] = u (mod h for circular), d = offsets(k). Writing y[mu]
    to input pixel s*mu of a zero grid z (s*mu < h, since out extents are
    ceil(h/s)) turns that into adj[i, u] = sum_{o,a} K[o, i, a] * z[o, u - d[a]]:
    a stride-1 window route over z with every tap offset negated and the
    kernel's channel axes swapped.
    """
    s_h, s_w = spec.strides
    grid_shape = (len(y),) + spec.input_shape[1:] + y.shape[-1:]
    if (s_h, s_w) != (1, 1):
        grid = np.zeros(grid_shape)
        grid[:, ::s_h, ::s_w] = y
        y = grid
    cols = window_columns(y, spec.kernel_shape, (1, 1), spec.padding,
                          negate=True)
    swapped = entries.transpose(1, 0, 2, 3)
    out = swapped.reshape(len(swapped), -1) @ cols
    return out.reshape((len(swapped),) + grid_shape[1:])


def conv_forward(kernel: KernelTensor, spec: ConvSpec, x: np.ndarray) -> np.ndarray:
    """Apply the conv operator to a single (c_in, h, w) input."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != spec.input_shape:
        raise UsageError(f"input shape {x.shape} != spec {spec.input_shape}")
    spec.check_kernel(kernel)
    return forward_last(kernel.entries, spec, x[..., None])[..., 0]


def conv_forward_batch(kernel: KernelTensor, spec: ConvSpec, xs: np.ndarray) -> np.ndarray:
    """Apply the conv operator to a stack of inputs (n, c_in, h, w)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 4 or xs.shape[1:] != spec.input_shape:
        raise UsageError(f"batch shape {xs.shape} != (n,)+{spec.input_shape}")
    spec.check_kernel(kernel)
    return forward_last(kernel.entries, spec,
                        batch_last(xs)).transpose(3, 0, 1, 2)


def conv_adjoint(kernel: KernelTensor, spec: ConvSpec, y: np.ndarray) -> np.ndarray:
    """Adjoint operator: <conv(x), y> == <x, adjoint(y)> up to rounding."""
    y = np.asarray(y, dtype=np.float64)
    out_h, out_w = spec.out_spatial
    spec.check_kernel(kernel)
    if y.shape != (kernel.c_out, out_h, out_w):
        raise UsageError(
            f"adjoint input shape {y.shape} != {(kernel.c_out, out_h, out_w)}"
        )
    return adjoint_last(kernel.entries, spec, y[..., None])[..., 0]


def conv_adjoint_batch(kernel: KernelTensor, spec: ConvSpec, ys: np.ndarray) -> np.ndarray:
    """Adjoint operator on a stack of outputs (n, c_out, out_h, out_w)."""
    ys = np.asarray(ys, dtype=np.float64)
    out_h, out_w = spec.out_spatial
    spec.check_kernel(kernel)
    if ys.ndim != 4 or ys.shape[1:] != (kernel.c_out, out_h, out_w):
        raise UsageError("bad adjoint batch shape")
    return adjoint_last(kernel.entries, spec,
                        batch_last(ys)).transpose(3, 0, 1, 2)


MATERIALIZE_CAP = 10**7


def materialize(kernel: KernelTensor, spec: ConvSpec) -> DenseMatrix:
    """Dense matrix of the conv operator acting on row-major flattened input.

    Row index is the row-major flattening of (c_out, out_h, out_w), column
    index of (c_in, h, w), so materialize(K) @ x.ravel() reproduces
    conv_forward(K, x).ravel(). Refuses to build more than MATERIALIZE_CAP
    entries.
    """
    spec.check_kernel(kernel)
    c_in, h, w = spec.input_shape
    out_h, out_w = spec.out_spatial
    n_rows = kernel.c_out * out_h * out_w
    n_cols = c_in * h * w
    if n_rows * n_cols > MATERIALIZE_CAP:
        raise ResourceError(
            f"materialized matrix would hold {n_rows * n_cols} entries, "
            f"cap is {MATERIALIZE_CAP}"
        )
    k = kernel.entries
    m6 = np.zeros((kernel.c_out, c_in, out_h, out_w, h, w))
    for a, b, rows, cols, mus, nus in _gather_plan(spec):
        m6[:, :, mus[:, None], nus[None, :], rows[:, None], cols[None, :]] += (
            k[:, :, a, b][:, :, None, None]
        )
    m = np.transpose(m6, (0, 2, 3, 1, 4, 5)).reshape(n_rows, n_cols)
    return DenseMatrix(m)


def _vec_pnorm(v: np.ndarray, p: float) -> np.ndarray:
    if np.isinf(p):
        return np.max(np.abs(v), axis=-1)
    return np.sum(np.abs(v) ** p, axis=-1) ** (1.0 / p)


def _rows_pq(m: np.ndarray, p: float, q: float) -> float:
    row_p = _vec_pnorm(m, p)
    if np.isinf(q):
        return float(np.max(row_p))
    return float(np.sum(row_p**q) ** (1.0 / q))


@dataclass(frozen=True)
class NormIdentityReport:
    """Measured vs predicted grid-operator norms for one kernel.

    measured/predicted are keyed by norm name; identities are exact for the
    circular, square, stride-dividing geometry this report requires.
    ok is True when every relative disagreement is <= 1e-8. The (2,1)
    lower-bound inequality against the kernel group norm is reported
    separately. (Striding also shrinks these norms by 1/(s_h*s_w) versus the
    unstrided operator; that ratio is visible here as a diagnostic but feeds
    no bound.)
    """

    measured: dict
    predicted: dict
    max_rel_error: float
    ok: bool
    inequality_lhs: float
    inequality_rhs: float
    inequality_ok: bool


def mk_norm_identities(kernel: KernelTensor, spec: ConvSpec,
                       pq_pairs: tuple = ()) -> NormIdentityReport:
    """Check the closed-form (p,q) norms of the materialized operator.

    Requires circular padding, square input h == w == d, equal strides t
    dividing d, and square kernel k <= d. Always checks (2,1), Frobenius,
    and (1,inf); extra (p,q) pairs may be passed and are checked against the
    general closed form (d/t)^(2/q) * (sum_o |K_o|_p^q)^(1/q).
    """
    c_in, h, w = spec.input_shape
    k_h, k_w = spec.kernel_shape
    s_h, s_w = spec.strides
    if spec.padding != "circular":
        raise UsageError("norm identities require circular padding")
    if h != w:
        raise UsageError("norm identities require square inputs")
    if s_h != s_w:
        raise UsageError("norm identities require equal strides")
    if h % s_h != 0:
        raise UsageError("norm identities require stride dividing the width")
    if k_h != k_w:
        raise UsageError("norm identities require square kernels")
    spec.check_kernel(kernel)

    d, t, k = h, s_h, k_h
    m = materialize(kernel, spec).entries
    kk = kernel.entries

    def predicted_pq(p: float, q: float) -> float:
        slice_p = _vec_pnorm(kk.reshape(kernel.c_out, -1), p)
        if np.isinf(q):
            return float(np.max(slice_p))
        return float((d / t) ** (2.0 / q) * np.sum(slice_p**q) ** (1.0 / q))

    pairs = [("l21", 2.0, 1.0), ("frobenius", 2.0, 2.0), ("l1_inf", 1.0, np.inf)]
    for p, q in pq_pairs:
        pairs.append((f"pq_{p}_{q}", float(p), float(q)))

    measured, predicted = {}, {}
    worst = 0.0
    for name, p, q in pairs:
        got = _rows_pq(m, p, q)
        want = predicted_pq(p, q)
        measured[name] = got
        predicted[name] = want
        rel = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, rel)

    # Lower bound: |M^T|_{2,1} >= (d/(t*k))^2 * k * |K|_{2,1}.
    lhs = measured["l21"]
    rhs = (d / (t * k)) ** 2 * k * group_norm_21(kernel)
    return NormIdentityReport(
        measured=measured,
        predicted=predicted,
        max_rel_error=worst,
        ok=worst <= 1e-8,
        inequality_lhs=lhs,
        inequality_rhs=rhs,
        inequality_ok=lhs >= rhs * (1.0 - 1e-12),
    )
