"""Spectral norms of conv operators: iterative, exact, and dense routes.

The exact route only exists for circular padding at stride 1 (the operator
is then block-circulant and a 2D DFT block-diagonalizes it, one small
c_out x c_in matrix per frequency). Kernels are real, so the DFT is
conjugate-symmetric, F(-u, -v) = conj F(u, v), and conjugate matrices share
their singular values: `frequency_matrices` takes the rfft2 half of the
grid, h * (w//2 + 1) matrices, and counts how often each one occurs in the
full h x w grid. Every exact spectral computation, here and in the
projections, starts from that half stack. A Gram screen
(`top_singular_estimates`, eigenvalues of each matrix's smaller Gram
matrix) picks the frequencies whose top singular value can matter, so the
spectral norm (`grid_norm`) and the spectral clip SVD only those; a
projection run screens only its first clip this way (see `project`).
Everything else falls back to
power iteration on the forward/adjoint pair, or a dense SVD of an
operator materialized with `convop.materialize` (`dense_spectral_norm`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convop import ConvSpec, conv_adjoint, conv_forward
from .errors import UsageError
from .tensors import DenseMatrix, KernelTensor, offsets

__all__ = [
    "SpectralEstimate",
    "SpectrumReport",
    "power_iteration",
    "frequency_matrices",
    "top_singular_estimates",
    "may_reach",
    "grid_norm",
    "grid_spectrum",
    "fft_exact_spectrum",
    "fft_exact_norm",
    "dense_spectral_norm",
    "operator_norm",
    "embed_kernel_grid",
    "extract_kernel_grid",
]


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    method: str  # power_iteration | fft_exact | dense_svd
    iterations_used: int
    residual: float  # last relative change (power iteration) or 0.0


@dataclass(frozen=True)
class SpectrumReport:
    """Full singular-value multiset of the conv operator, sorted descending."""

    values: np.ndarray
    max_value: float


def power_iteration(kernel: KernelTensor, spec: ConvSpec, tol: float = 1e-6,
                    max_iters: int = 1000, seed: int = 0) -> SpectralEstimate:
    """Largest singular value via forward/adjoint alternation.

    Stops when the relative change of the norm estimate drops below tol.
    Deterministic for a given seed. A zero kernel reports 0 after one step.
    """
    if tol <= 0 or max_iters < 1:
        raise UsageError("tol must be > 0 and max_iters >= 1")
    spec.check_kernel(kernel)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(spec.input_shape)
    v /= np.sqrt(np.sum(v * v))
    sigma_prev = None
    sigma = 0.0
    rel = np.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        u = conv_forward(kernel, spec, v)
        sigma = float(np.sqrt(np.sum(u * u)))
        if sigma == 0.0:
            return SpectralEstimate(0.0, "power_iteration", iters, 0.0)
        if sigma_prev is not None:
            rel = abs(sigma - sigma_prev) / sigma
            if rel < tol:
                break
        sigma_prev = sigma
        w = conv_adjoint(kernel, spec, u / sigma)
        nw = float(np.sqrt(np.sum(w * w)))
        if nw == 0.0:
            break
        v = w / nw
    return SpectralEstimate(sigma, "power_iteration", iters,
                            0.0 if np.isinf(rel) else rel)


def _require_fft_eligible(kernel: KernelTensor, spec: ConvSpec) -> None:
    if spec.padding != "circular":
        raise UsageError("exact spectra require circular padding")
    if spec.strides != (1, 1):
        raise UsageError("exact spectra require stride 1")
    spec.check_kernel(kernel)


def fft_eligible(spec: ConvSpec) -> bool:
    return spec.padding == "circular" and spec.strides == (1, 1)


def embed_kernel_grid(kernel: KernelTensor, spec: ConvSpec) -> np.ndarray:
    """Place kernel taps on the full (c_out, c_in, h, w) circular grid.

    Array index a lands on grid row (a - k//2) mod h, matching the conv
    op's offsets, so the embedded grid kernel realizes the identical
    operator.
    """
    _require_fft_eligible(kernel, spec)
    _, h, w = spec.input_shape
    rows = offsets(kernel.k_h) % h
    cols = offsets(kernel.k_w) % w
    grid = np.zeros((kernel.c_out, kernel.c_in, h, w))
    grid[:, :, rows[:, None], cols[None, :]] = kernel.entries
    return grid


def extract_kernel_grid(grid: np.ndarray, k_h: int, k_w: int) -> np.ndarray:
    """Inverse of embed_kernel_grid on the support window (values only)."""
    h, w = grid.shape[2], grid.shape[3]
    rows = offsets(k_h) % h
    cols = offsets(k_w) % w
    return grid[:, :, rows[:, None], cols[None, :]].copy()


def frequency_matrices(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct c_out x c_in DFT matrices of a real (c_out, c_in, h, w)
    grid kernel, and how often each occurs in the full h x w grid.

    Returns the rfft2 half, stacked (h * (w//2 + 1), c_out, c_in) in
    row-major (u, v) order, and the multiplicity of each matrix: 1 in column
    0 and, for even w, column w/2 (their conjugate partners lie in the same
    column and are stacked themselves), 2 in every other column (the
    partner, column w - v, is left out).
    """
    c_out, c_in, h, w = grid.shape
    f = np.fft.rfft2(grid, axes=(2, 3))
    half = f.shape[3]
    stacked = np.moveaxis(f, (2, 3), (0, 1)).reshape(h * half, c_out, c_in)
    column = np.full(half, 2)
    column[0] = 1
    if w % 2 == 0:
        column[-1] = 1
    return stacked, np.tile(column, h)


# Relative margin of the screens. Forming and diagonalizing a matrix's
# Gram matrix moves its top singular value estimate by about n * eps relative
# (n the channel count, 4e-15 at 16 channels), far inside this margin, so a
# matrix the screen leaves out provably has a top singular value below the
# level it was screened against. The same margin covers the rounding of the
# projections' remembered Weyl bound (see `project`): an SVD's top value plus
# one rounded Frobenius norm per clip since, each off by at most about
# m * eps relative (m the matrix's real entries, 512 at 16 x 16 channels),
# so under 1e-11 of the bound after a hundred clips.
SCREEN_MARGIN = 1e-10


def top_singular_estimates(stacked: np.ndarray) -> np.ndarray:
    """Each matrix's largest singular value, from `eigvalsh` of its smaller
    Gram matrix. Each matrix is first scaled to unit peak, so its Gram
    matrix neither overflows nor underflows at its own scale; the estimate
    carries the scale back. Only a screen: reported values come from the
    SVD."""
    peak = np.max(np.abs(stacked), axis=(1, 2))
    unit = stacked / np.where(peak > 0, peak, 1.0)[:, None, None]
    adjoint = unit.conj().swapaxes(1, 2)
    gram = unit @ adjoint if unit.shape[1] <= unit.shape[2] else adjoint @ unit
    top = np.linalg.eigvalsh(gram)[:, -1]
    return peak * np.sqrt(np.maximum(top, 0.0))


def may_reach(estimates: np.ndarray, level: float) -> np.ndarray:
    """Mask of the matrices whose top singular value may be >= level.

    NaN estimates (non-finite input) are kept, so the SVD still sees and
    reports them.
    """
    return ~(estimates < (1.0 - SCREEN_MARGIN) * level)


def grid_norm(grid: np.ndarray) -> float:
    """Spectral norm of the circular stride-1 operator whose kernel is the
    full (c_out, c_in, h, w) grid: the SVD runs only on the frequencies the
    screen places within SCREEN_MARGIN of the largest estimate, which
    always include the arg-max frequency."""
    stacked, _ = frequency_matrices(grid)
    estimates = top_singular_estimates(stacked)
    candidates = stacked[may_reach(estimates, np.max(estimates))]
    return float(np.max(np.linalg.svd(candidates, compute_uv=False)[:, 0]))


def grid_spectrum(grid: np.ndarray) -> SpectrumReport:
    """All singular values of the circular stride-1 operator whose kernel
    is the full (c_out, c_in, h, w) grid: one SVD per distinct frequency,
    each repeated by its multiplicity (h * w * min(c_out, c_in) values)."""
    stacked, multiplicity = frequency_matrices(grid)
    sv = np.linalg.svd(stacked, compute_uv=False)
    values = np.sort(np.repeat(sv, multiplicity, axis=0), axis=None)[::-1]
    return SpectrumReport(values=values, max_value=float(values[0]))


def fft_exact_spectrum(kernel: KernelTensor, spec: ConvSpec) -> SpectrumReport:
    """All singular values of the circular stride-1 operator, exactly.

    The union over the h*w frequency matrices' singular values is the
    operator's full multiset (up to padding zeros when channel counts
    differ, which the dense operator also has).
    """
    return grid_spectrum(embed_kernel_grid(kernel, spec))


def fft_exact_norm(kernel: KernelTensor, spec: ConvSpec) -> SpectralEstimate:
    value = grid_norm(embed_kernel_grid(kernel, spec))
    return SpectralEstimate(value, "fft_exact", 0, 0.0)


def dense_spectral_norm(matrix: DenseMatrix) -> SpectralEstimate:
    value = float(np.linalg.svd(matrix.entries, compute_uv=False)[0])
    return SpectralEstimate(value, "dense_svd", 0, 0.0)


def operator_norm(kernel: KernelTensor, spec: ConvSpec, tol: float = 1e-6,
                  max_iters: int = 1000, seed: int = 0) -> SpectralEstimate:
    """Exact spectral norm where available, power iteration otherwise."""
    if fft_eligible(spec):
        return fft_exact_norm(kernel, spec)
    return power_iteration(kernel, spec, tol=tol, max_iters=max_iters, seed=seed)
