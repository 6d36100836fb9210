import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capbound.errors import UsageError
from capbound.tensors import (
    DataBatch,
    DenseMatrix,
    KernelTensor,
    batch_last,
    data_norm,
    fiber_norms,
    group_norm_21,
    group_norm_matrix_21,
    max_patch_norm,
    patch_norms,
    window_index,
)

from capbound.project import project_l21_ball

from oracles import loop_group_norm_21, loop_matrix_row_norm_sum, loop_patch_max_norm


def small_kernels(max_c=3, max_k=3):
    shapes = st.tuples(
        st.integers(1, max_c), st.integers(1, max_c),
        st.integers(1, max_k), st.integers(1, max_k),
    )
    return shapes.flatmap(
        lambda s: arrays(np.float64, s,
                         elements=st.floats(-5, 5, allow_nan=False, width=64))
    )


def test_group_norm_21_matches_scalar_loop():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = rng.standard_normal((3, 2, 3, 3))
        got = group_norm_21(KernelTensor(k))
        want = loop_group_norm_21(k)
        assert abs(got - want) <= 1e-10 * max(1.0, want)


def test_norms_past_the_square_range_stay_finite():
    """Entries near 1e200 square past the float range: the distance is
    still 1e200 times the unit-scale one, and the (2,1) shrink of such a
    kernel is finite, without a warning."""
    k = np.random.default_rng(12).standard_normal((4, 4, 3, 3))
    unit = group_norm_21(KernelTensor(k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = group_norm_21(KernelTensor(k * 1e200))
        assert np.isfinite(big)
        assert abs(big - 1e200 * unit) <= 1e-14 * (1e200 * unit)
        center = KernelTensor(np.zeros_like(k))
        got = project_l21_ball(KernelTensor(k * 1e200), center, 0.5 * big)
    assert np.all(np.isfinite(got.entries))
    assert group_norm_21(got) <= 0.5 * big * (1 + 1e-12)


def test_fiber_norms_rescale_only_what_overflowed():
    """In-range fibers keep the plain sqrt(sum(k * k)) bit for bit, and a
    fiber with a non-finite entry still measures non-finite."""
    k = np.random.default_rng(13).standard_normal((3, 4, 2, 2))
    k[0, :, 0, 0] *= 1e300
    k[1, 2, 0, 0] = np.inf
    k[2, 1, 1, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fiber_norms(k)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = np.sqrt(np.sum(k * k, axis=1))
    assert np.isinf(plain[0, 0, 0]) and np.isfinite(got[0, 0, 0])
    assert got[1, 0, 0] == np.inf and np.isnan(got[2, 1, 1])
    np.testing.assert_array_equal(got.ravel()[1:], plain.ravel()[1:])
    rows = np.array([[1e200, 1e200], [3.0, 4.0]])
    np.testing.assert_allclose(fiber_norms(rows), [np.sqrt(2) * 1e200, 5.0],
                               rtol=1e-15)


def test_group_norm_21_frozen_value():
    # fibers (3,4) and (0, 12.0) -> 5 + 12
    k = np.zeros((2, 2, 1, 1))
    k[0, 0, 0, 0] = 3.0
    k[0, 1, 0, 0] = 4.0
    k[1, 1, 0, 0] = 12.0
    assert group_norm_21(KernelTensor(k)) == pytest.approx(17.0, abs=1e-12)


def test_matrix_norm_21_identity_is_two():
    assert group_norm_matrix_21(DenseMatrix(np.eye(2))) == pytest.approx(2.0)


def test_matrix_norm_matches_loop():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 7))
    assert group_norm_matrix_21(DenseMatrix(a)) == pytest.approx(
        loop_matrix_row_norm_sum(a), rel=1e-12
    )


def test_one_by_one_kernel_agrees_with_matrix_norm():
    rng = np.random.default_rng(11)
    k = rng.standard_normal((4, 3, 1, 1))
    as_matrix = DenseMatrix(k[:, :, 0, 0])
    assert group_norm_21(KernelTensor(k)) == pytest.approx(
        group_norm_matrix_21(as_matrix), rel=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(small_kernels(), st.floats(-3, 3, allow_nan=False))
def test_norm_homogeneity(k, c):
    base = group_norm_21(KernelTensor(k))
    scaled = group_norm_21(KernelTensor(c * k))
    assert abs(scaled - abs(c) * base) <= 1e-10 * max(1.0, base)


@settings(max_examples=60, deadline=None)
@given(small_kernels())
def test_norm_triangle(k):
    other = np.ones_like(k)
    lhs = group_norm_21(KernelTensor(k + other))
    rhs = group_norm_21(KernelTensor(k)) + group_norm_21(KernelTensor(other))
    assert lhs <= rhs + 1e-10 * max(1.0, rhs)


def test_data_batch_norm_and_cache_check():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2, 3, 3))
    b = DataBatch(x)
    assert data_norm(b) == pytest.approx(np.sqrt((x**2).sum()), rel=1e-14)


def test_data_norm_additivity_over_disjoint_stacks():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 2, 4, 4))
    whole = data_norm(DataBatch(x)) ** 2
    parts = data_norm(DataBatch(x[:2])) ** 2 + data_norm(DataBatch(x[2:])) ** 2
    assert whole == pytest.approx(parts, rel=1e-12)


def test_data_norm_survives_squares_past_the_float_range():
    """Entries of 1e160 square past the float range; the batch is measured
    at unit peak instead, finite and with no warning, like the kernels'
    fiber norms."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = data_norm(DataBatch(np.full((2, 1, 2, 2), 1e160)))
    assert norm == pytest.approx(1e160 * np.sqrt(8), rel=1e-15)


def test_batch_rejects_nan():
    x = np.zeros((1, 1, 2, 2))
    x[0, 0, 0, 0] = np.nan
    with pytest.raises(UsageError):
        DataBatch(x)


@pytest.mark.parametrize("padding", ["zero_same", "circular"])
@pytest.mark.parametrize("stride", [1, 2])
def test_patch_norms_match_loop(padding, stride):
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((3, 2, 5, 5))
    got = patch_norms(DataBatch(xs), 3, 3, stride, stride, padding)
    want = loop_patch_max_norm(xs, 3, 3, stride, stride, padding)
    assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["zero_same", "circular"]), st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]),
       st.integers(0, 2**32 - 1))
@example("zero_same", 2, 5, 4, 3, (1, 1), 0)      # k > h
@example("zero_same", 5, 6, 2, 4, (3, 2), 1)      # even kernels, strides 3,2
@example("circular", 4, 6, 4, 2, (3, 2), 2)       # k == h, even kernel
def test_patch_norms_match_loop_any_geometry(padding, h, w, k_h, k_w, strides,
                                             seed):
    if padding == "circular":
        k_h, k_w = min(k_h, h), min(k_w, w)
    xs = np.random.default_rng(seed).standard_normal((3, 2, h, w))
    got = patch_norms(DataBatch(xs), k_h, k_w, *strides, padding)
    want = loop_patch_max_norm(xs, k_h, k_w, *strides, padding)
    assert got == pytest.approx(want, rel=1e-12)


def test_window_index_is_cached_and_read_only():
    idx = window_index((2, 5, 4), (3, 2), (2, 1), "zero_same")
    assert idx is window_index((2, 5, 4), (3, 2), (2, 1), "zero_same")
    assert idx.shape == (2 * 3 * 2, 3 * 4)
    with pytest.raises(ValueError):
        idx[0, 0] = 0


@pytest.mark.parametrize("padding", ["circular", "zero_same"])
def test_max_patch_norm_stays_finite_past_the_square_range(padding):
    """Patches whose squares overflow (entries near 1e200) are measured
    again at unit peak: the norm scales with the entries, without a
    warning."""
    xs = np.random.default_rng(17).standard_normal((3, 2, 5, 5))
    plain = max_patch_norm(batch_last(xs), (3, 3), padding=padding)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = max_patch_norm(batch_last(xs * 1e200), (3, 3), padding=padding)
    assert big == pytest.approx(plain * 1e200, rel=1e-13)


def test_patch_norms_whole_image_window():
    # k = h = w at stride h: the single patch is the largest sample stack
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((4, 2, 3, 3))
    got = patch_norms(DataBatch(xs), 3, 3, 3, 3, "circular")
    per_sample = np.sqrt((xs**2).sum(axis=(1, 2, 3)))
    assert got == pytest.approx(per_sample.max(), rel=1e-12)


def test_patch_norms_rejects_bad_geometry():
    xs = np.zeros((1, 1, 3, 3))
    with pytest.raises(UsageError):
        patch_norms(DataBatch(xs), 5, 5, 1, 1, "circular")
    with pytest.raises(UsageError):
        patch_norms(DataBatch(xs), 0, 1, 1, 1, "zero_same")
