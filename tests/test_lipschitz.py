import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capbound.convop import ConvSpec, materialize
from capbound.errors import NumericalError, UsageError
from capbound.lipschitz import (
    dense_spectral_norm,
    embed_kernel_grid,
    extract_kernel_grid,
    fft_exact_norm,
    fft_exact_spectrum,
    operator_norm,
    power_iteration,
    stack_norm,
    stack_to_taps,
    taps_to_stack,
)
from capbound.project import _RunClip
from capbound.tensors import KernelTensor

from oracles import dft_spectrum, irfft2_grid, rfft2_stack


def circular_case(rng, max_c=3, max_hw=6, max_k=3):
    c_in = int(rng.integers(1, max_c + 1))
    c_out = int(rng.integers(1, max_c + 1))
    h = int(rng.integers(2, max_hw + 1))
    w = int(rng.integers(2, max_hw + 1))
    k_h = int(rng.integers(1, min(max_k, h) + 1))
    k_w = int(rng.integers(1, min(max_k, w) + 1))
    spec = ConvSpec((c_in, h, w), (k_h, k_w), (1, 1), "circular")
    kern = KernelTensor(rng.standard_normal((c_out, c_in, k_h, k_w)))
    return spec, kern


def test_embed_extract_round_trip():
    rng = np.random.default_rng(0)
    spec, kern = circular_case(rng)
    grid = embed_kernel_grid(kern, spec)
    back = extract_kernel_grid(grid, kern.k_h, kern.k_w)
    np.testing.assert_array_equal(back, kern.entries)
    # everything outside the support window is zero
    assert np.count_nonzero(grid) <= kern.entries.size


@st.composite
def tap_geometries(draw):
    c_out, c_in = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k_h, k_w = draw(st.integers(1, h)), draw(st.integers(1, w))
    return c_out, c_in, h, w, k_h, k_w, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(tap_geometries())
@example((3, 2, 5, 7, 3, 3, 1))        # odd h and w
@example((2, 4, 6, 4, 3, 2, 2))        # even h and w
@example((2, 3, 1, 4, 1, 3, 3))        # h = 1
@example((3, 2, 4, 1, 2, 1, 4))        # w = 1
@example((1, 1, 5, 6, 5, 6, 5))        # k = h and k = w, c_in = c_out = 1
@example((16, 16, 16, 16, 3, 3, 6))
def test_tap_transform_matches_the_grid_route(case):
    """taps_to_stack is the FFT stack of the embedded grid, stack_to_taps
    takes either stack back to the taps, and at the full h x w window it
    inverts to the grid the inverse FFT gives, in tap order."""
    c_out, c_in, h, w, k_h, k_w, seed = case
    taps = np.random.default_rng(seed).standard_normal((c_out, c_in, k_h, k_w))
    grid = embed_kernel_grid(KernelTensor(taps), ConvSpec((c_in, h, w),
                                                          (k_h, k_w)))
    want = rfft2_stack(grid)
    stacked = taps_to_stack(taps, h, w)
    assert stacked.shape == want.shape == (h * (w // 2 + 1), c_out, c_in)
    atol = 1e-14 * max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(stacked, want, rtol=0, atol=atol)
    for route in (stacked, want):
        np.testing.assert_allclose(stack_to_taps(route, h, w, k_h, k_w), taps,
                                   rtol=0, atol=atol)
    window = stack_to_taps(stacked, h, w, h, w)
    for reference in (irfft2_grid(stacked, h, w), grid):
        np.testing.assert_allclose(window, extract_kernel_grid(reference, h, w),
                                   rtol=0, atol=atol)


@pytest.mark.parametrize("w,column", [(6, 0), (6, 3), (5, 0)])
def test_tap_inverse_guard_sees_self_conjugate_residue(w, column):
    """Frequency (1, column) and its partner (h - 1, column) share a
    self-conjugate column; tilting one of them alone leaves an imaginary
    part there after the inverse along h, which must raise, however large
    the stack, while the untilted stack inverts at any scale."""
    h, k = 4, 3
    taps = np.random.default_rng(5).standard_normal((2, 2, k, k))
    for scale in (1e-12, 1.0, 1e18):
        stacked = taps_to_stack(taps * scale, h, w)
        np.testing.assert_allclose(stack_to_taps(stacked, h, w, k, k),
                                   taps * scale, rtol=0, atol=1e-14 * scale)
        if scale < 1:
            continue    # the guard is absolute below unit scale
        stacked[w // 2 + 1 + column] *= 1 + 1e-6j
        with pytest.raises(NumericalError, match="imaginary residue"):
            stack_to_taps(stacked, h, w, k, k)


def test_fft_spectrum_matches_direct_dft_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        spec, kern = circular_case(rng)
        got = fft_exact_spectrum(kern, spec).values
        want = dft_spectrum(kern.entries, spec.input_shape[1], spec.input_shape[2])
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_fft_spectrum_matches_dense_svd_multiset():
    rng = np.random.default_rng(2)
    for _ in range(10):
        spec, kern = circular_case(rng)
        got = np.sort(fft_exact_spectrum(kern, spec).values)[::-1]
        m = materialize(kern, spec).entries
        want = np.linalg.svd(m, compute_uv=False)
        want = np.sort(want)[::-1][: got.size]
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_identity_kernel_spectrum_is_ones():
    spec = ConvSpec((2, 4, 4), (1, 1), (1, 1), "circular")
    k = np.zeros((2, 2, 1, 1))
    k[0, 0] = 1.0
    k[1, 1] = 1.0
    rep = fft_exact_spectrum(KernelTensor(k), spec)
    np.testing.assert_allclose(rep.values, np.ones(2 * 16))
    assert rep.max_value == pytest.approx(1.0)


def test_power_iteration_reaches_exact_max():
    rng = np.random.default_rng(3)
    for _ in range(15):
        spec, kern = circular_case(rng)
        exact = fft_exact_norm(kern, spec).value
        est = power_iteration(kern, spec, tol=1e-10, max_iters=5000)
        assert est.value == pytest.approx(exact, rel=1e-4)
        assert est.value <= exact * (1 + 1e-9)
        assert est.method == "power_iteration"
        assert est.iterations_used >= 1


def test_power_iteration_zero_kernel():
    spec = ConvSpec((1, 3, 3), (1, 1), (1, 1), "circular")
    est = power_iteration(KernelTensor(np.zeros((1, 1, 1, 1))), spec)
    assert est.value == 0.0


def test_power_iteration_deterministic_given_seed():
    rng = np.random.default_rng(4)
    spec, kern = circular_case(rng)
    a = power_iteration(kern, spec, seed=123)
    b = power_iteration(kern, spec, seed=123)
    assert a == b


def test_power_iteration_handles_strided_and_zero_padded():
    rng = np.random.default_rng(5)
    spec = ConvSpec((2, 6, 6), (3, 3), (2, 2), "zero_same")
    kern = KernelTensor(rng.standard_normal((2, 2, 3, 3)))
    exact = dense_spectral_norm(materialize(kern, spec)).value
    est = power_iteration(kern, spec, tol=1e-12, max_iters=5000)
    assert est.value == pytest.approx(exact, rel=1e-6)


def test_spectral_norm_homogeneity():
    rng = np.random.default_rng(6)
    spec, kern = circular_case(rng)
    base = fft_exact_norm(kern, spec).value
    scaled = fft_exact_norm(KernelTensor(3.5 * kern.entries), spec).value
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_operator_submultiplicativity_via_composition():
    # |M_K2 @ M_K1|_2 <= |M_K2|_2 |M_K1|_2 on compatible circular layers
    rng = np.random.default_rng(7)
    spec1 = ConvSpec((2, 5, 5), (3, 3), (1, 1), "circular")
    spec2 = ConvSpec((3, 5, 5), (3, 3), (1, 1), "circular")
    k1 = KernelTensor(rng.standard_normal((3, 2, 3, 3)))
    k2 = KernelTensor(rng.standard_normal((2, 3, 3, 3)))
    m1 = materialize(k1, spec1).entries
    m2 = materialize(k2, spec2).entries
    combined = np.linalg.svd(m2 @ m1, compute_uv=False)[0]
    assert combined <= (
        fft_exact_norm(k1, spec1).value * fft_exact_norm(k2, spec2).value
    ) * (1 + 1e-10)


def test_fft_rejects_ineligible_specs():
    k = KernelTensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(UsageError):
        fft_exact_spectrum(k, ConvSpec((1, 4, 4), (3, 3), (2, 2), "circular"))
    with pytest.raises(UsageError):
        fft_exact_spectrum(k, ConvSpec((1, 4, 4), (3, 3), (1, 1), "zero_same"))


def test_operator_norm_dispatch():
    rng = np.random.default_rng(8)
    spec, kern = circular_case(rng)
    assert operator_norm(kern, spec).method == "fft_exact"
    zp = ConvSpec(spec.input_shape, spec.kernel_shape, (1, 1), "zero_same")
    assert operator_norm(kern, zp).method == "power_iteration"
    # a circular stride that divides the grid has the exact polyphase
    # route; one that does not keeps power iteration
    kern = KernelTensor(rng.standard_normal((2, 3, 3, 3)))
    halved = operator_norm(kern, ConvSpec((3, 8, 8), (3, 3), (2, 2)))
    assert (halved.method, halved.iterations_used, halved.residual) == (
        "polyphase_exact", 0, 0.0)
    thirds = ConvSpec((3, 8, 8), (3, 3), (3, 3))
    assert operator_norm(kern, thirds).method == "power_iteration"


@st.composite
def strided_geometries(draw):
    s_h, s_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = s_h * draw(st.integers(1, 4)), s_w * draw(st.integers(1, 4))
    k_h, k_w = draw(st.integers(1, min(3, h))), draw(st.integers(1, min(3, w)))
    c_out, c_in = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return (c_out, c_in, h, w, k_h, k_w, s_h, s_w,
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(strided_geometries())
@example((2, 3, 8, 8, 3, 3, 2, 2, 1))      # even grid, stride 2
@example((3, 2, 9, 6, 3, 2, 3, 2, 2))      # odd h at stride 3, even w
@example((1, 4, 3, 9, 3, 3, 3, 3, 3))      # odd grid, one phase row
@example((4, 1, 2, 4, 2, 1, 2, 1, 4))      # k = h, stride in h only
@example((2, 2, 6, 3, 1, 3, 3, 1, 5))      # 1 x k kernel, stride in h
def test_circular_operator_norm_matches_the_dense_svd(case):
    """Every circular layer whose strides divide the grid is measured
    exactly (stride 1 by `fft_exact`, others by `polyphase_exact`): within
    1e-12 of the largest singular value of its materialized operator."""
    c_out, c_in, h, w, k_h, k_w, s_h, s_w, seed = case
    taps = np.random.default_rng(seed).standard_normal((c_out, c_in, k_h, k_w))
    spec = ConvSpec((c_in, h, w), (k_h, k_w), (s_h, s_w))
    got = operator_norm(KernelTensor(taps), spec)
    want = dense_spectral_norm(materialize(KernelTensor(taps), spec)).value
    assert got.method == ("fft_exact" if (s_h, s_w) == (1, 1)
                          else "polyphase_exact")
    assert got.value == pytest.approx(want, rel=1e-12)


def test_power_iteration_below_exact_spectral_norm():
    rng = np.random.default_rng(9)
    for _ in range(10):
        spec, kern = circular_case(rng)
        est = power_iteration(kern, spec, tol=1e-8)
        exact = fft_exact_norm(kern, spec).value
        assert est.value <= exact * (1 + 1e-8)


def overflowing_stack():
    """Finite taps whose transform overflows: three entries of 1.5e308 sum
    past the float range at frequency 0."""
    taps = np.zeros((2, 2, 3, 3))
    taps[0, 0, 0, :] = 1.5e308
    taps[1, 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return taps, taps_to_stack(taps, 4, 4)


def test_non_finite_stacks_raise_numerical_error():
    taps, stacked = overflowing_stack()
    assert not np.all(np.isfinite(stacked))
    spec = ConvSpec((2, 4, 4), (3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for measure in (lambda: stack_norm(stacked),
                        lambda: fft_exact_norm(KernelTensor(taps), spec),
                        lambda: fft_exact_spectrum(KernelTensor(taps), spec),
                        lambda: _RunClip(1.0).clip(stacked.copy())):
            with pytest.raises(NumericalError, match="non-finite entries"):
                measure()


@pytest.mark.parametrize("exponent", [-1030, 950])
def test_stacks_far_from_unit_scale_measure_and_clip_like_unit_scale(exponent):
    """At peak ~5e-310 (2^-1030) every entry of a stack is subnormal, and the
    Gram screen divides by that peak without overflow; at ~1e286 (2^950) the
    clip's products stay in range. The norm and the clip match those of the
    stack brought back to unit scale by an exact power of two, to 1e-9 of
    the result's scale."""
    def back(x):
        return x * 2.0**(-exponent / 2) * 2.0**(-exponent / 2)

    rng = np.random.default_rng(11)
    far = taps_to_stack(rng.standard_normal((3, 2, 3, 3)), 4, 4) \
        * 2.0**exponent
    stacked = back(far)
    # at the median singular value, matrices move along 0, 1 and 2 directions
    s = float(np.median(np.linalg.svd(stacked, compute_uv=False)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = back(stack_norm(far))
        clipped = back(_RunClip(s * 2.0**exponent).clip(far))
    assert norm == pytest.approx(stack_norm(stacked), rel=1e-9)
    expected = _RunClip(s).clip(stacked)
    np.testing.assert_allclose(clipped, expected, rtol=0,
                               atol=1e-9 * np.abs(expected).max())


def test_a_failed_gram_screen_raises_numerical_error(monkeypatch):
    _, stacked = overflowing_stack()

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite entries in"):
            _RunClip(1.0).clip(stacked)
    with pytest.raises(NumericalError, match="did not converge"):
        _RunClip(1.0).clip(np.ones((3, 2, 2), dtype=complex))


@pytest.mark.parametrize("strides", [(1, 1), (2, 2)])
def test_exact_norms_run_one_svd_and_no_gram_screen(monkeypatch, strides):
    """A circular layer's exact norm, at stride 1 and through the polyphase
    split, decomposes its stack by the SVD alone: no Gram eigenvalues."""
    def fail(_):
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    taps = np.random.default_rng(12).standard_normal((3, 2, 3, 3))
    spec = ConvSpec((2, 8, 8), (3, 3), strides)
    got = operator_norm(KernelTensor(taps), spec)
    want = dense_spectral_norm(materialize(KernelTensor(taps), spec)).value
    assert got.value == pytest.approx(want, rel=1e-12)
