"""Core tensor containers and the norms the bounds are built from.

Conventions used everywhere downstream:

- Kernels are (c_out, c_in, k_h, k_w) arrays. A "fiber" is the vector of
  entries along the input-channel axis at one (output-channel, row, col)
  position; the grouped (2,1) norm sums the Euclidean lengths of all fibers.
- Data batches are (n, c, h, w). The batch norm |X| is the Euclidean norm of
  the whole stack, i.e. sqrt(sum_i |x_i|^2).
- Everything is accumulated in float64 regardless of input dtype.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

__all__ = [
    "KernelTensor",
    "DenseMatrix",
    "DataBatch",
    "fiber_norms",
    "l2_norm",
    "norm_21",
    "group_norm_21",
    "group_norm_matrix_21",
    "data_norm",
    "patch_norms",
    "max_patch_norm",
    "batch_last",
    "window_columns",
    "window_index",
]

def _as_f64(values, what: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise UsageError(f"{what} must have {ndim} axes, got shape {arr.shape}")
    if arr.size == 0:
        raise UsageError(f"{what} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{what} contains non-finite entries")
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class KernelTensor:
    """Convolution kernel, axes (c_out, c_in, k_h, k_w)."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_f64(self.entries, "kernel", 4))

    @property
    def c_out(self) -> int:
        return self.entries.shape[0]

    @property
    def c_in(self) -> int:
        return self.entries.shape[1]

    @property
    def k_h(self) -> int:
        return self.entries.shape[2]

    @property
    def k_w(self) -> int:
        return self.entries.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class DenseMatrix:
    """Plain (out_features, in_features) matrix for fully-connected layers."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_f64(self.entries, "matrix", 2))

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class DataBatch:
    """Input batch, axes (n, c, h, w), with its Euclidean norm computed once
    when the batch is built: the length of the whole stack as one fiber
    (`fiber_norms`), so a finite batch measures finite at any scale."""

    samples: np.ndarray
    cached_norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_f64(self.samples, "batch", 4))
        object.__setattr__(self, "cached_norm", float(
            fiber_norms(self.samples.reshape(1, -1))[0]))

    @property
    def n(self) -> int:
        return self.samples.shape[0]


def fiber_norms(k: np.ndarray) -> np.ndarray:
    """l2 length of every fiber (axis 1) of a kernel-shaped or grid array;
    on a 2-D (out, in) matrix these are the row lengths (`l2_norm`)."""
    return l2_norm(k, axis=1)


def l2_norm(a: np.ndarray, axis: int | None = None):
    """`np.linalg.norm(a, axis=axis)` of a real or complex array: its
    Euclidean norm, or the norm of each line along `axis`, bit for bit.

    The one place a length is measured at unit peak (Blue 1978): a finite,
    nonzero norm outside [1e-125, 1e125], whose squares overflow or lose
    digits to underflow, is measured again with its line scaled by a power
    of two to unit peak, which is exact. So a finite line measures finite
    and nonzero unless its length leaves the float range, and a line with
    a non-finite entry measures non-finite."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=axis)
        if (norms.min(initial=1.0) >= 1e-125
                and norms.max(initial=1.0) <= 1e125):
            return norms
        norms = np.asarray(norms)
        odd = ~((norms >= 1e-125) & (norms <= 1e125))
        lines = (np.reshape(a, (1, -1)) if axis is None
                 else np.moveaxis(a, axis, -1)[odd])
        if np.iscomplexobj(lines):  # ldexp scales real parts only
            lines = np.concatenate((lines.real, lines.imag), axis=1)
        peak = np.max(np.abs(lines), axis=1)
        fine = (peak > 0) & (peak < np.inf)
        exp = np.frexp(peak[fine])[1]
        redone = norms[odd]
        redone[fine] = np.ldexp(np.linalg.norm(
            np.ldexp(lines[fine], -exp[:, None]), axis=1), exp)
        norms[odd] = redone
    return norms[()]


def norm_21(k: np.ndarray) -> float:
    """Grouped (2,1) norm of an array: the sum of its fiber_norms."""
    return float(np.sum(fiber_norms(k), dtype=np.float64))


def group_norm_21(kernel: KernelTensor) -> float:
    """Grouped (2,1) kernel norm: sum over (o, a, b) of fiber l2 lengths.

    Fibers run along the input-channel axis.
    """
    return norm_21(kernel.entries)


def group_norm_matrix_21(matrix: DenseMatrix) -> float:
    """Transposed (2,1) norm of a dense matrix: sum of row l2 lengths.

    Rows index outputs, so this matches group_norm_21 on a 1x1-kernel
    reshaped to a matrix.
    """
    return norm_21(matrix.entries)


def data_norm(batch: DataBatch) -> float:
    return batch.cached_norm


def offsets(k: int) -> np.ndarray:
    """Spatial offsets covered by a kernel extent k.

    Array index a corresponds to offset a - k//2, i.e. the zero offset sits
    at index k//2 (for k=3: -1,0,1; for k=2: -1,0).
    """
    return np.arange(k) - k // 2


@functools.lru_cache(maxsize=64)
def window_index(shape, kernel_shape, strides=(1, 1), padding="circular",
                 negate=False) -> np.ndarray:
    """Flat gather plan of every conv window of one (c, h, w) sample.

    A read-only (c*k_h*k_w, out_h*out_w) int array: row (i, a, b) and column
    (mu, nu) hold the row-major flat index into the unpadded sample of the
    pixel that tap (a, b) reads at output (mu, nu), i.e. channel i at row
    s_h*mu + d_h[a] and column s_w*nu + d_w[b] with d = offsets(k) (or -d
    when negate, the reversed taps of the adjoint). Circular padding folds
    the wrap into the index; under zero_same a tap off the grid points at
    c*h*w, one zero row appended after the flattened sample (see
    window_columns).
    Cached per geometry, so the arrays are shared and must stay read-only.
    """
    c, h, w = shape
    (k_h, k_w), (s_h, s_w) = kernel_shape, strides
    sign = -1 if negate else 1
    rows = s_h * np.arange(-(-h // s_h)) + sign * offsets(k_h)[:, None]
    cols = s_w * np.arange(-(-w // s_w)) + sign * offsets(k_w)[:, None]
    flat = ((np.arange(c)[:, None, None, None, None] * h
             + (rows % h)[:, None, :, None]) * w
            + (cols % w)[None, :, None, :])
    if padding == "zero_same":
        inside = (((rows >= 0) & (rows < h))[:, None, :, None]
                  & ((cols >= 0) & (cols < w))[None, :, None, :])
        flat = np.where(inside, flat, c * h * w)
    flat = flat.reshape(c * k_h * k_w, -1)
    flat.setflags(write=False)
    return flat


def batch_last(xs: np.ndarray) -> np.ndarray:
    """(n, c, h, w) samples -> contiguous batch-last (c, h, w, n), the
    layout every window gather reads."""
    return np.ascontiguousarray(xs.transpose(1, 2, 3, 0))


def window_columns(x: np.ndarray, kernel_shape, strides=(1, 1),
                   padding="circular", negate=False) -> np.ndarray:
    """(c*k_h*k_w, out_h*out_w*n) im2col matrix of a batch-last (c, h, w, n)
    array.

    Entry [(i, a, b), (mu, nu, t)] is the pixel of sample t that tap (a, b)
    of channel i reads at output (mu, nu) under window_index, zero where a
    zero_same tap falls off the grid. One gather; no padded image is built
    (zero_same only appends the one zero row).
    """
    idx = window_index(x.shape[:3], tuple(kernel_shape), tuple(strides),
                       padding, negate)
    flat = x.reshape(-1, x.shape[-1])
    if padding == "zero_same":
        flat = np.concatenate([flat, np.zeros((1, flat.shape[1]))])
    return flat.take(idx, axis=0).reshape(len(idx), -1)


def max_patch_norm(x: np.ndarray, kernel_shape, strides=(1, 1),
                   padding="circular") -> float:
    """`patch_norms` of a batch-last (c, h, w, n) array, unchecked; where
    the largest square leaves [1e-250, 1e250], the patches are measured by
    `l2_norm`."""
    cols = window_columns(x, kernel_shape, strides, padding)
    top = np.max(np.einsum("pq,pq->q", cols, cols))
    if not 1e-250 <= top <= 1e250:
        return float(l2_norm(cols, axis=0).max())
    return float(np.sqrt(top))


def patch_norms(
    batch: DataBatch,
    k_h: int,
    k_w: int,
    s_h: int = 1,
    s_w: int = 1,
    padding: str = "zero_same",
) -> float:
    """Largest l2 norm over all channel-stack patches seen by a conv layer.

    A patch is the (c, k_h, k_w) window gathered at one output position,
    using the same offset/stride geometry as the conv op (one gather through
    window_index). Zero padding contributes zeros (so it never increases a
    patch norm); circular padding wraps indices.
    """
    if padding not in ("zero_same", "circular"):
        raise UsageError(f"unknown padding {padding!r}")
    n, c, h, w = batch.samples.shape
    if k_h < 1 or k_w < 1 or s_h < 1 or s_w < 1:
        raise UsageError("kernel extents and strides must be >= 1")
    if padding == "circular" and (k_h > h or k_w > w):
        raise UsageError(
            f"circular padding requires kernel <= spatial dims, got "
            f"({k_h},{k_w}) on ({h},{w})"
        )
    return max_patch_norm(batch_last(batch.samples), (k_h, k_w), (s_h, s_w),
                          padding)
