"""Spectral norms of conv operators: iterative, exact, and dense routes.

The exact route exists for circular padding at stride 1 (the operator
is then block-circulant and a 2D DFT block-diagonalizes it, one small
c_out x c_in matrix per frequency). Kernels are real, so the DFT is
conjugate-symmetric, F(-u, -v) = conj F(u, v), and conjugate matrices share
their singular values: every exact spectral computation, here and in the
projections, works on the rfft2 half, h * (w//2 + 1) matrices, each counted
by how often it occurs in the full h x w grid. A kernel's half stack comes
straight from its taps and goes straight back to them (`taps_to_stack`,
`stack_to_taps`: per-axis DFT factors cached per geometry, no grid, no
FFT); a kernel that fills the grid is the h x w tap window. The inverse
drops the imaginary part of the self-conjugate columns only below 1e-9 of
max(1, the inverted stack's peak, the input scale of the clip that made
it) (`_require_real`). Every exact measurement is one batched SVD of one
stack (`_singular_values`): `stack_norm` reports the largest value and
`fft_exact_spectrum` all of them. A decomposition that fails on a stack, or
returns a non-finite value from it, raises NumericalError naming the
stack's non-finite matrices (finite taps whose transform overflowed).

A circular layer whose strides divide the grid has an exact norm too, by
the polyphase split (Vaidyanathan 1993; Sedghi, Gupta and Long 2019 for
stride 1): each input axis splits into its s phases, tap offset
d = s q + r reading phase r at offset q, so the layer is a stride-1
circular conv from s_h * s_w * c_in phase channels on the (h/s_h) x (w/s_w)
grid (`_polyphase_taps`, the taps themselves at stride 1), whose stack
(`_exact_stack`) `stack_norm` measures. Everything else falls back to power
iteration on the forward/adjoint pair, or a dense SVD of an operator
materialized with `convop.materialize` (`dense_spectral_norm`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .convop import ConvSpec, conv_adjoint, conv_forward
from .errors import NumericalError, UsageError
from .tensors import DenseMatrix, KernelTensor, offsets

__all__ = [
    "SpectralEstimate",
    "SpectrumReport",
    "power_iteration",
    "taps_to_stack",
    "stack_to_taps",
    "stack_norm",
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
    method: str  # power_iteration | fft_exact | polyphase_exact | dense_svd
    iterations_used: int
    # power iteration's last relative change, a stopping statistic and not
    # an error bound; 0.0 for the exact routes
    residual: float


@dataclass(frozen=True)
class SpectrumReport:
    """Full singular-value multiset of the conv operator, sorted descending."""

    values: np.ndarray
    max_value: float


def power_iteration(kernel: KernelTensor, spec: ConvSpec, tol: float = 1e-6,
                    max_iters: int = 1000, seed: int = 0) -> SpectralEstimate:
    """Largest singular value via forward/adjoint alternation.

    Stops when the relative change of the norm estimate drops below tol.
    That change is a stopping statistic, not an error bound: the estimate
    approaches the norm from below and may stop further below it than tol.
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
    if not fft_eligible(spec):
        raise UsageError("exact spectra require circular padding, stride 1")
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


def _columns(w: int) -> np.ndarray:
    """Multiplicity of each rfft2 column: 1 for the self-conjugate columns
    0 and (w even) w/2, 2 for the others, whose partner w - v is left out."""
    column = np.full(w // 2 + 1, 2)
    column[0] = 1
    if w % 2 == 0:
        column[-1] = 1
    return column


@functools.lru_cache(maxsize=64)
def _dft_factors(h: int, w: int, k_h: int, k_w: int):
    """Per-axis DFT factors between a k_h x k_w tap window and the rfft2
    half of the h x w grid, cached per geometry and read-only.

    Forward, rows[u, a] = exp(-2 pi i (r_a u mod h) / h) for tap row a at
    grid row r_a = (a - k_h//2) mod h (as `embed_kernel_grid` places it),
    and cols[v, b] the same over the w//2 + 1 half columns. Inverse, their
    conjugates transposed, over h, and over w weighted by `_columns`.
    """
    def factor(n, k, freqs):
        phase = (offsets(k) % n)[:, None] * np.arange(freqs) % n
        return np.exp(-2j * np.pi * phase / n)

    rows = factor(h, k_h, h)
    cols = factor(w, k_w, w // 2 + 1)
    factors = (rows.T.copy(), cols.T.copy(), rows.conj() / h,
               cols.conj() * (_columns(w) / w))
    for f in factors:
        f.setflags(write=False)
    return factors


def taps_to_stack(taps: np.ndarray, h: int, w: int) -> np.ndarray:
    """The rfft2 half of a (c_out, c_in, k_h, k_w) tap window on the
    circular h x w grid, stacked (h * (w//2 + 1), c_out, c_in) in row-major
    (u, v) order: one product along w, one along h."""
    c_out, c_in, k_h, k_w = taps.shape
    rows, cols, _, _ = _dft_factors(h, w, k_h, k_w)
    flat = taps.transpose(2, 3, 0, 1).reshape(k_h, k_w, c_out * c_in)
    half = cols @ flat                                # (k_h, w//2 + 1, m)
    return (rows @ half.reshape(k_h, -1)).reshape(-1, c_out, c_in)


def _require_real(rows: np.ndarray, stacked: np.ndarray, w: int,
                  scale: float) -> None:
    """After `stack_to_taps`' inverse along h (rows, columns on axis 1), a
    self-conjugate column's imaginary part is dropped, not implied by a
    partner: refuse one above 1e-9 of max(scale, peak |entry| of the stack
    inverted)."""
    worst = float(np.max(np.abs(rows[:, _columns(w) == 1].imag)))
    if (worst > 1e-9 * scale
            and worst > 1e-9 * float(np.max(np.abs(stacked)))):
        raise NumericalError(
            f"frequency stack has imaginary residue {worst}")


def stack_to_taps(stacked: np.ndarray, h: int, w: int, k_h: int,
                  k_w: int, scale: float = 1.0) -> np.ndarray:
    """The k_h x k_w tap window of the real grid whose rfft2 half is
    `stacked`, inverted only at the taps (the inverse, then C3). `scale`
    (at least 1) is the magnitude the stack's rounding is relative to when
    that exceeds the stack's own, as for a clip's output far below its
    input: conjugate partners clipped apart round apart."""
    _, c_out, c_in = stacked.shape
    _, _, rows, cols = _dft_factors(h, w, k_h, k_w)
    half = (rows @ stacked.reshape(h, -1)).reshape(k_h, -1, c_out * c_in)
    _require_real(half, stacked, w, scale)
    taps = (cols @ half).real.reshape(k_h, k_w, c_out, c_in)
    return np.ascontiguousarray(taps.transpose(2, 3, 0, 1))


def _require_finite_stack(stacked: np.ndarray, exc=None) -> None:
    """Raise NumericalError naming a frequency stack's non-finite matrices
    (finite taps whose transform overflowed), or the decomposition failure
    `exc` on a finite stack; return if the stack is finite and no failure
    is given. Callers check only after a decomposition failed or returned
    a non-finite value, so a finite stack pays nothing."""
    bad = int(np.count_nonzero(~np.isfinite(stacked).all(axis=(1, 2))))
    if bad:
        raise NumericalError(
            f"frequency stack has non-finite entries in {bad} of "
            f"{len(stacked)} matrices") from exc
    if exc is not None:
        raise NumericalError(
            f"frequency stack decomposition failed: {exc}") from exc


def _singular_values(stacked: np.ndarray) -> np.ndarray:
    """Every matrix's singular values, descending, from one batched SVD of
    the stack."""
    try:
        sv = np.linalg.svd(stacked, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        _require_finite_stack(stacked, exc)
    if not np.all(np.isfinite(sv)):
        _require_finite_stack(stacked)
    return sv


def stack_norm(stacked: np.ndarray) -> float:
    """Largest singular value over a frequency stack."""
    return float(np.max(_singular_values(stacked)[:, 0]))


def fft_exact_spectrum(kernel: KernelTensor, spec: ConvSpec) -> SpectrumReport:
    """All singular values of the circular stride-1 operator, exactly.

    The union over the h*w frequency matrices' singular values is the
    operator's full multiset (up to padding zeros when channel counts
    differ, which the dense operator also has).
    """
    _require_fft_eligible(kernel, spec)
    _, h, w = spec.input_shape
    sv = _singular_values(_exact_stack(kernel, spec))
    multiplicity = np.tile(_columns(w), h)
    values = np.sort(np.repeat(sv, multiplicity, axis=0), axis=None)[::-1]
    return SpectrumReport(values=values, max_value=float(values[0]))


def fft_exact_norm(kernel: KernelTensor, spec: ConvSpec) -> SpectralEstimate:
    """`operator_norm` of a circular stride-1 layer; other layers raise."""
    _require_fft_eligible(kernel, spec)
    return operator_norm(kernel, spec)


def dense_spectral_norm(matrix: DenseMatrix) -> SpectralEstimate:
    value = float(np.linalg.svd(matrix.entries, compute_uv=False)[0])
    return SpectralEstimate(value, "dense_svd", 0, 0.0)


def _polyphase_taps(taps: np.ndarray, strides) -> np.ndarray:
    """The taps of the stride-1 operator a circular stride-(s_h, s_w) conv
    is once each input axis is split into its phases, input row s p + r
    becoming row p of phase r: tap offset d = s q + r (0 <= r < s) reads
    phase r at offset q. Returns (c_out, s_h * s_w * c_in, k'_h, k'_w), its
    input channels in (r_h, r_w, c_in) order. Along each axis the q run
    from floor(-(k//2) / s) to floor((k - 1 - k//2) / s), which are the
    offsets of a window of k' = q[-1] - q[0] + 1 taps (`offsets(k')`). At
    stride 1 the split is the identity and the taps come back as they are."""
    c_out, c_in, k_h, k_w = taps.shape
    s_h, s_w = strides
    if s_h == s_w == 1:
        return taps
    (q_h, r_h), (q_w, r_w) = (np.divmod(offsets(k), s)
                              for k, s in ((k_h, s_h), (k_w, s_w)))
    q_h, q_w = q_h - q_h[0], q_w - q_w[0]
    phases = np.zeros((s_h, q_h[-1] + 1, s_w, q_w[-1] + 1, c_out, c_in))
    phases[r_h[:, None], q_h[:, None], r_w, q_w] = taps.transpose(2, 3, 0, 1)
    return phases.transpose(4, 0, 2, 5, 1, 3).reshape(
        c_out, s_h * s_w * c_in, q_h[-1] + 1, q_w[-1] + 1)


def _exact_stack(kernel: KernelTensor, spec: ConvSpec):
    """The frequency stack of a circular layer whose strides divide h and
    w: its polyphase taps' (`_polyphase_taps`) on the (h/s_h) x (w/s_w)
    grid, which at stride 1 is the taps' own on the h x w grid. None for
    any other layer."""
    _, h, w = spec.input_shape
    s_h, s_w = spec.strides
    if spec.padding != "circular" or h % s_h or w % s_w:
        return None
    spec.check_kernel(kernel)
    return taps_to_stack(_polyphase_taps(kernel.entries, spec.strides),
                         h // s_h, w // s_w)


def operator_norm(kernel: KernelTensor, spec: ConvSpec) -> SpectralEstimate:
    """The operator's spectral norm by the best route its geometry has:

    - circular, strides dividing h and w: the largest singular value of its
      exact stack (`_exact_stack`), reported as `fft_exact` at stride 1 and
      `polyphase_exact` otherwise, with 0 iterations and residual 0.0;
    - otherwise `power_iteration` at its default tolerance, cap and seed, a
      lower estimate.
    """
    stacked = _exact_stack(kernel, spec)
    if stacked is None:
        return power_iteration(kernel, spec)
    method = "fft_exact" if fft_eligible(spec) else "polyphase_exact"
    return SpectralEstimate(stack_norm(stacked), method, 0, 0.0)
