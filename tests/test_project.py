import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capbound import NumericalError, UsageError
from capbound import project as project_module
from capbound.convop import ConvSpec, materialize
from capbound.lipschitz import (
    embed_kernel_grid,
    extract_kernel_grid,
    fft_exact_norm,
    fft_exact_spectrum,
    operator_norm,
    stack_norm,
    stack_to_taps,
    taps_to_stack,
)
from capbound.project import (
    DEFAULT_TOL,
    SCREEN_MARGIN,
    ConstraintSet,
    _RunClip,
    _change_norms,
    _unit_gram,
    admm,
    alternate,
    alternating_projections,
    dykstra,
    dykstra_iterate,
    init_scale_to_feasible,
    project_l21_ball,
    project_spectral,
    project_support,
    radial_cycle,
    radial_project,
)
from capbound.tensors import KernelTensor, group_norm_21

from oracles import (
    bisect_l21_shrinkage,
    cold_clip_cycle,
    full_frequency_svd,
    full_spectrum_clip,
    scaled_change_norms,
    svd_clip,
    textbook_projection_cycle,
)


def rand_kernel(rng, shape, scale=1.0):
    return KernelTensor(rng.standard_normal(shape) * scale)


def exact_lip(kernel, spec):
    return fft_exact_norm(kernel, spec).value


def circ_spec(rng):
    c_in = int(rng.integers(1, 4))
    h = int(rng.integers(2, 6))
    w = int(rng.integers(2, 6))
    k_h = int(rng.integers(1, min(3, h) + 1))
    k_w = int(rng.integers(1, min(3, w) + 1))
    return ConvSpec((c_in, h, w), (k_h, k_w))


def grid_spec(spec):
    c_in, h, w = spec.input_shape
    return ConvSpec((c_in, h, w), (h, w))


def window_grid(window):
    """The grid of a (c_out, c_in, h, w) tap window on the h x w grid."""
    c_in, h, w = window.shape[1:]
    return embed_kernel_grid(KernelTensor(window), ConvSpec((c_in, h, w),
                                                            (h, w)))


def clip_window(window, s):
    """A full h x w tap window clipped at s by a fresh run clip, inverted at
    every position (tap order)."""
    h, w = window.shape[2:]
    clip = _RunClip(s)
    clipped = clip.clip(taps_to_stack(window, h, w))
    return stack_to_taps(clipped, h, w, h, w, clip.scale)


# ---------------------------------------------------------------------------
# grouped-norm ball


def test_l21_matches_bisection_oracle():
    rng = np.random.default_rng(7)
    for trial in range(30):
        c_out = int(rng.integers(1, 4))
        c_in = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        kernel = rand_kernel(rng, (c_out, c_in, k, k))
        center = rand_kernel(rng, (c_out, c_in, k, k), 0.5)
        diff = kernel.entries - center.entries
        dist = group_norm_21(KernelTensor(diff))
        b = float(rng.uniform(0.2, 1.3)) * dist
        got = project_l21_ball(kernel, center, b)
        fibers = np.sqrt(np.sum(diff * diff, axis=1))
        lam = bisect_l21_shrinkage(fibers.ravel(), b)
        scale = np.maximum(0.0, 1.0 - lam / np.maximum(fibers, 1e-300))
        want = center.entries + diff * scale[:, None, :, :]
        np.testing.assert_allclose(got.entries, want, atol=1e-8)


def test_l21_projection_survives_extreme_scale():
    """Fiber norms far above the budget cancel the threshold test for every
    index; the projection still returns a finite kernel inside the ball."""
    fibers = np.array([5e18, 4e18, 1.0, 0.0])   # lam / 0 must not overflow
    diff = np.zeros((1, 2, 4, 1))
    diff[0, 0, :, 0] = fibers
    center = KernelTensor(np.zeros_like(diff))
    with np.errstate(all="raise"):
        got = project_l21_ball(KernelTensor(diff), center, 3.0)
    assert np.all(np.isfinite(got.entries))
    assert group_norm_21(KernelTensor(got.entries)) <= 3.0


def test_l21_zero_radius_returns_center():
    rng = np.random.default_rng(8)
    kernel = rand_kernel(rng, (2, 2, 3, 3))
    center = rand_kernel(rng, (2, 2, 3, 3))
    got = project_l21_ball(kernel, center, 0.0)
    np.testing.assert_array_equal(got.entries, center.entries)


def test_l21_feasible_point_is_unchanged():
    rng = np.random.default_rng(9)
    center = rand_kernel(rng, (1, 2, 2, 2))
    kernel = KernelTensor(center.entries + 0.01)
    d = group_norm_21(KernelTensor(kernel.entries - center.entries))
    got = project_l21_ball(kernel, center, d * 2)
    np.testing.assert_array_equal(got.entries, kernel.entries)


def test_l21_beats_random_candidates():
    rng = np.random.default_rng(10)
    for trial in range(5):
        shape = (2, 2, 2, 2)
        kernel = rand_kernel(rng, shape, 2.0)
        center = rand_kernel(rng, shape, 0.3)
        b = 0.4 * group_norm_21(KernelTensor(kernel.entries - center.entries))
        proj = project_l21_ball(kernel, center, b)
        best = np.linalg.norm(kernel.entries - proj.entries)
        for _ in range(2000):
            direction = rng.standard_normal(shape)
            norm = group_norm_21(KernelTensor(direction))
            cand = center.entries + direction * (b * rng.uniform() / norm)
            assert best <= np.linalg.norm(kernel.entries - cand) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 3.0))
def test_l21_result_always_inside_ball(seed, b):
    rng = np.random.default_rng(seed)
    kernel = rand_kernel(rng, (2, 3, 2, 2), 2.0)
    center = rand_kernel(rng, (2, 3, 2, 2))
    got = project_l21_ball(kernel, center, b)
    d = group_norm_21(KernelTensor(got.entries - center.entries))
    assert d <= b * (1 + 1e-9)


def test_l21_idempotent_and_nonexpansive():
    rng = np.random.default_rng(11)
    shape = (2, 2, 3, 3)
    center = rand_kernel(rng, shape, 0.2)
    for _ in range(10):
        x = rand_kernel(rng, shape, 1.5)
        y = rand_kernel(rng, shape, 1.5)
        b = float(rng.uniform(0.1, 2.0))
        px = project_l21_ball(x, center, b)
        py = project_l21_ball(y, center, b)
        pp = project_l21_ball(px, center, b)
        assert np.max(np.abs(pp.entries - px.entries)) <= 1e-10
        move = np.linalg.norm(px.entries - py.entries)
        gap = np.linalg.norm(x.entries - y.entries)
        assert move <= gap * (1 + 1e-10) + 1e-12


def test_l21_shape_mismatch_rejected():
    rng = np.random.default_rng(12)
    with pytest.raises(UsageError):
        project_l21_ball(rand_kernel(rng, (1, 1, 2, 2)),
                         rand_kernel(rng, (1, 1, 3, 3)), 1.0)
    with pytest.raises(UsageError):
        k = rand_kernel(rng, (1, 1, 2, 2))
        project_l21_ball(k, k, -1.0)


# ---------------------------------------------------------------------------
# spectral ball


def dense_clip_oracle(kernel, spec, s):
    """Clip the materialized operator's singular values, read the grid back.

    Rows of the clipped matrix at output position (o, 0, 0) are exactly the
    grid entries, because out[o,0,0] = sum_{r,p,q} G[o,r,p,q] x[r,p,q] for a
    circular stride-1 operator.
    """
    c_in, h, w = spec.input_shape
    m = materialize(kernel, spec).entries
    u, sv, vh = np.linalg.svd(m, full_matrices=False)
    clipped = u @ np.diag(np.minimum(sv, s)) @ vh
    rows = [clipped[o * h * w].reshape(c_in, h, w) for o in range(kernel.c_out)]
    return np.stack(rows)


def test_spectral_matches_dense_clip_oracle():
    rng = np.random.default_rng(13)
    for trial in range(12):
        spec = circ_spec(rng)
        kernel = rand_kernel(rng, (int(rng.integers(1, 4)),) + (spec.input_shape[0],) + spec.kernel_shape)
        pre = exact_lip(kernel, spec)
        s = float(rng.uniform(0.2, 1.1)) * max(pre, 1e-6)
        got = project_spectral(kernel, spec, s)
        want = dense_clip_oracle(kernel, spec, s)
        np.testing.assert_allclose(got.entries, want, atol=1e-8)


def test_spectral_post_clip_norm_is_min():
    rng = np.random.default_rng(14)
    for trial in range(12):
        spec = circ_spec(rng)
        kernel = rand_kernel(rng, (2, spec.input_shape[0]) + spec.kernel_shape)
        pre = exact_lip(kernel, spec)
        for s in (0.3 * pre, pre, 2.0 * pre):
            got = project_spectral(kernel, spec, s)
            post = exact_lip(got, grid_spec(spec))
            want = min(s, pre)
            assert post == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_spectral_idempotent_and_nonexpansive():
    rng = np.random.default_rng(15)
    spec = ConvSpec((2, 4, 4), (3, 3))
    gspec = grid_spec(spec)
    for _ in range(6):
        x = rand_kernel(rng, (2, 2, 3, 3))
        y = rand_kernel(rng, (2, 2, 3, 3))
        s = float(rng.uniform(0.2, 2.0))
        px = project_spectral(x, spec, s)
        py = project_spectral(y, spec, s)
        # re-projecting the full-grid result embeds it again, which rolls
        # the taps; extract undoes the roll before comparing
        pp = project_spectral(px, gspec, s)
        pp_taps = extract_kernel_grid(pp.entries, 4, 4)
        assert np.max(np.abs(pp_taps - px.entries)) <= 1e-10
        move = np.linalg.norm(px.entries - py.entries)
        gap = np.linalg.norm(embed_kernel_grid(x, spec) - embed_kernel_grid(y, spec))
        assert move <= gap * (1 + 1e-10) + 1e-12


def test_spectral_feasible_kernel_keeps_taps():
    rng = np.random.default_rng(16)
    spec = ConvSpec((1, 4, 4), (2, 2))
    kernel = rand_kernel(rng, (1, 1, 2, 2))
    pre = exact_lip(kernel, spec)
    got = project_spectral(kernel, spec, pre * 1.5)
    np.testing.assert_allclose(got.entries, embed_kernel_grid(kernel, spec),
                               atol=1e-12)


@st.composite
def half_spectrum_cases(draw):
    c_out, c_in = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k_h, k_w = draw(st.integers(1, h)), draw(st.integers(1, w))
    clip = draw(st.sampled_from(["zero", "inside", "at_max", "above"]))
    return c_out, c_in, h, w, k_h, k_w, clip, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(half_spectrum_cases())
@example((3, 2, 5, 7, 3, 3, "inside", 1))     # odd h and w, c_out > c_in
@example((2, 4, 6, 4, 3, 2, "inside", 2))     # even h and w, c_out < c_in
@example((2, 1, 1, 4, 1, 3, "zero", 3))       # h = 1, c_in = 1, s = 0
@example((1, 3, 2, 1, 2, 1, "above", 4))      # h = 2, w = 1, s > max
@example((3, 1, 2, 2, 2, 2, "at_max", 5))     # h = w = 2, s = max
@example((2, 3, 1, 2, 1, 2, "inside", 6))     # h = 1, w = 2
@example((4, 4, 8, 8, 3, 3, "inside", 7))
def test_half_spectrum_route_matches_full_spectrum(case):
    """The rfft2-half route (clip, max singular value, full spectrum)
    against every fft2 frequency and against the dense materialized
    operator."""
    c_out, c_in, h, w, k_h, k_w, clip, seed = case
    rng = np.random.default_rng(seed)
    spec = ConvSpec((c_in, h, w), (k_h, k_w))
    kernel = rand_kernel(rng, (c_out, c_in, k_h, k_w))
    grid = embed_kernel_grid(kernel, spec)
    scale = max(1.0, float(np.max(np.abs(grid))))

    dense = np.linalg.svd(materialize(kernel, spec).entries, compute_uv=False)
    full = np.sort(full_frequency_svd(grid)[1], axis=None)[::-1]
    values = fft_exact_spectrum(kernel, spec).values
    assert values.shape == (h * w * min(c_out, c_in),)
    np.testing.assert_allclose(values, full, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(values, dense[: values.size], rtol=0,
                               atol=1e-10 * scale)
    lip = exact_lip(kernel, spec)
    assert lip == values[0]
    assert lip == pytest.approx(dense[0], rel=1e-12, abs=1e-12)

    s = {"zero": 0.0, "inside": float(rng.uniform(0.1, 0.9)) * lip,
         "at_max": lip, "above": 1.5 * lip}[clip]
    got = project_spectral(kernel, spec, s).entries
    np.testing.assert_allclose(got, full_spectrum_clip(grid, s), rtol=0,
                               atol=1e-12 * scale)
    if s >= lip:
        np.testing.assert_allclose(got, grid, rtol=0, atol=1e-12 * scale)


@st.composite
def screen_cases(draw):
    c_out, c_in = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    level = draw(st.sampled_from(["zero", "inside", "at_frequency", "at_max",
                                  "above"]))
    magnitude = draw(st.sampled_from([1.0, 1e160, 1e-160, 0.0]))
    return c_out, c_in, h, w, level, magnitude, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(screen_cases())
@example((3, 2, 5, 7, "inside", 1.0, 1))           # odd h and w, c_out > c_in
@example((2, 4, 6, 4, "at_frequency", 1.0, 2))     # even h and w, c_out < c_in
@example((2, 1, 1, 4, "zero", 1.0, 3))             # h = 1, c_in = 1, s = 0
@example((1, 3, 2, 1, "above", 1.0, 4))            # h = 2, w = 1, s > max
@example((3, 3, 2, 2, "at_max", 1.0, 5))           # h = w = 2, s = max
@example((4, 2, 3, 5, "at_frequency", 1.0, 6))
@example((3, 4, 4, 6, "inside", 0.0, 7))           # zero grid
@example((3, 4, 4, 6, "inside", 1e160, 8))         # unscaled Gram overflows
@example((4, 3, 5, 4, "at_frequency", 1e-160, 9))  # unscaled Gram underflows
@example((1, 1, 3, 1, "zero", 1e160, 0))           # output is rounding alone
def test_gram_screen_decomposes_every_frequency_that_matters(case):
    """The screened clip of a random full h x w tap window against the
    fft2 oracle that clips every frequency of its grid, and the spectral
    norm against the largest value of the full spectrum, bit for bit; the
    clip's Gram estimates stay within a tenth of its screen's margin of the
    SVD's top singular values."""
    c_out, c_in, h, w, level, magnitude, seed = case
    rng = np.random.default_rng(seed)
    window = rng.standard_normal((c_out, c_in, h, w)) * magnitude
    stacked = taps_to_stack(window, h, w)
    top = np.linalg.svd(stacked, compute_uv=False)[:, 0]
    peak, gram, _ = _unit_gram(stacked)
    estimates = peak * np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0))
    np.testing.assert_allclose(estimates, top, rtol=0.1 * SCREEN_MARGIN,
                               atol=0)
    spec = ConvSpec((c_in, h, w), (h, w))
    lip = fft_exact_spectrum(KernelTensor(window), spec).max_value
    assert stack_norm(stacked) == lip == float(np.max(top))

    s = {"zero": 0.0, "inside": float(rng.uniform(0.1, 0.9)) * lip,
         "at_frequency": float(top[rng.integers(top.size)]), "at_max": lip,
         "above": 1.5 * lip}[level]
    atol = 1e-12 * float(np.max(np.abs(window)))
    grid = window_grid(window)
    got = window_grid(clip_window(window, s))
    np.testing.assert_allclose(got, full_spectrum_clip(grid, s), rtol=0,
                               atol=atol)
    if s >= lip:
        np.testing.assert_allclose(got, grid, rtol=0, atol=atol)


def test_screen_sends_non_finite_input_to_the_svd():
    """NaN estimates select their frequencies, so the SVD still sees a NaN
    stack instead of the screen passing it through, and its failure is
    reported as the stack's."""
    window = np.ones((2, 2, 3, 4))
    window[0, 1, 2, 3] = np.nan
    stacked = taps_to_stack(window, 3, 4)
    for route in (stack_norm, _RunClip(1.0).clip):
        with pytest.raises(NumericalError, match="non-finite entries"):
            route(stacked)


@pytest.mark.parametrize("w,column,route", [
    pytest.param(w, column, route,
                 id=f"{w}-{column}" + ("" if route == "eigh" else "-solve"))
    for route in ("eigh", "solve") for w, column in ((6, 0), (6, 3), (5, 0))])
def test_spectral_clip_guard_sees_self_conjugate_residue(monkeypatch, w,
                                                         column, route):
    """A frequency in column 0 (or w/2, w even) is its own conjugate
    partner, so after clipping it must invert to a real window; an
    imaginary tilt planted in its decomposition must raise instead of
    being dropped by the inverse, on both of the clip's routes. With s
    below every frequency's smaller singular value, every frequency has two
    directions above s and the whole half stack goes to `eigh`; with a
    window near rank one at a single tap and s at half its top singular
    value, every frequency has one and the whole half stack goes to the
    inverse iteration's `solve`. Either way row [column] of the batch is
    frequency (0, column). Tilting the first entry of each of its vectors
    (a phase per whole vector would cancel in V f V^H) makes its clipped
    matrix complex."""
    rng = np.random.default_rng(32)
    window = rng.standard_normal((2, 2, 4, w))
    if route == "solve":
        window *= 1e-3
        window[:, :, 0, 0] += np.outer(rng.standard_normal(2),
                                       rng.standard_normal(2))
    sv = np.linalg.svd(taps_to_stack(window, 4, w), compute_uv=False)
    s = 0.5 * float(np.min(sv[:, -1] if route == "eigh" else sv[:, 0]))
    assert np.all((sv > s).sum(axis=1) == (2 if route == "eigh" else 1))
    true_route = getattr(np.linalg, route)

    def tilted(*args, **kwargs):
        out = true_route(*args, **kwargs)
        vectors = (out[1] if route == "eigh" else out).copy()
        vectors[column, 0] *= 1j   # frequency (0, column) of the half stack
        return (out[0], vectors) if route == "eigh" else vectors

    monkeypatch.setattr(np.linalg, route, tilted)
    with pytest.raises(NumericalError, match="imaginary residue"):
        clip_window(window, s)


def test_clip_far_below_its_input_inverts():
    """A clip's output is rounded at its input's scale, and conjugate
    partners in a self-conjugate column round apart: an s far below the
    kernel leaves an imaginary residue far above 1e-9 of the output, which
    the inverse must not refuse, on any route that clips."""
    rng = np.random.default_rng(34)
    spec = ConvSpec((2, 5, 5), (3, 3))
    kernel = rand_kernel(rng, (2, 2, 3, 3), scale=1e10)
    # no distance ball, so the kernel reaches the clip at its own scale
    cs = ConstraintSet(reference=rand_kernel(rng, (2, 2, 3, 3)),
                       distance_bound=math.inf, lipschitz_bound=1.0,
                       conv=spec)
    got = project_spectral(kernel, spec, 1.0)
    assert exact_lip(got, grid_spec(spec)) == pytest.approx(1.0, rel=1e-4)
    for run in (alternating_projections, dykstra, admm):
        assert np.all(np.isfinite(run(kernel, cs)[0].entries))
    assert np.all(np.isfinite(alternate(kernel, cs, 3).entries))


@st.composite
def clip_sequences(draw):
    c_out, c_in = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    jumps = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.0, 10.0]),
                          min_size=1, max_size=6))
    magnitude = draw(st.sampled_from([1.0, 1e150, 1e-150]))
    return c_out, c_in, h, w, jumps, magnitude, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(clip_sequences())
@example((1, 1, 4, 4, [0.3, 0.3, 0.3], 1.0, 2))       # scalar frequencies
@example((2, 2, 4, 4, [0.3, 0.3, 0.3], 1.0, 3))       # steps with |D|_F < 1
@example((3, 2, 4, 3, [10.0, 0.0, 1.0], 1e-150, 3))
@example((4, 4, 6, 6, [1e-3, 0.5, 10.0], 1e150, 4))
def test_remembered_screen_clips_like_the_cold_screen(case):
    """Clip inputs that jump at random, by steps small and large against
    s: after every clip of one run each frequency's top singular value is
    at most s, and the output equals the cold clip's bit for bit."""
    c_out, c_in, h, w, jumps, magnitude, seed = case
    rng = np.random.default_rng(seed)
    s = magnitude

    def spectral_noise(scale):
        """The stack of a Gaussian h x w tap window whose largest frequency
        has top singular value scale."""
        noise = taps_to_stack(rng.standard_normal((c_out, c_in, h, w)), h, w)
        return noise * (scale / stack_norm(noise))

    stacked = spectral_noise(0.9 * s)
    clip = _RunClip(s)
    for jump in jumps:
        stacked = stacked + spectral_noise(jump * s)
        got = clip.clip(stacked)
        np.testing.assert_array_equal(got, _RunClip(s).clip(stacked))
        top = np.linalg.svd(got, compute_uv=False)
        assert np.all(top[:, 0] <= s * (1 + 1e-12))
    assert clip.svds <= len(jumps) * h * (w // 2 + 1)


@st.composite
def clip_stacks(draw):
    small = draw(st.integers(1, 4))
    c_out, c_in = draw(st.sampled_from([
        (small, small + draw(st.integers(1, 3))),   # c_out < c_in
        (small, small),
        (small + draw(st.integers(1, 3)), small)]))
    spectrum = draw(st.sampled_from(["distinct", "rank_deficient",
                                     "repeated"]))
    level = draw(st.sampled_from(["zero", "inside", "near"]))
    magnitude = draw(st.sampled_from([1.0, 1e150, 1e-150]))
    return (c_out, c_in, draw(st.integers(1, 5)), spectrum, level,
            magnitude, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(clip_stacks())
@example((2, 5, 3, "distinct", "near", 1.0, 1))          # c_out < c_in
@example((4, 4, 4, "repeated", "near", 1e150, 2))
@example((5, 2, 3, "rank_deficient", "inside", 1e-150, 3))
@example((3, 3, 2, "rank_deficient", "zero", 1.0, 4))
@example((1, 1, 5, "distinct", "near", 1e-150, 5))        # scalar matrices
def test_clip_matches_the_svd_clip(case):
    """The clip of stacks built from chosen singular values, against
    U min(sigma, s) V^H from the SVD: within 1e-12 of each matrix's peak
    entry, and no singular value of the output above s (1 + 1e-12). The
    spectra are distinct, rank-deficient or repeated, and s is 0, between
    them, or within 1e-8 (relative) of one of them."""
    c_out, c_in, count, spectrum, level, magnitude, seed = case
    rng = np.random.default_rng(seed)
    rank = min(c_out, c_in)

    def orthonormal(rows):
        gauss = rng.standard_normal((rows, rank, 2)).view(complex)[..., 0]
        return np.linalg.qr(gauss)[0]

    sigmas = rng.uniform(0.1, 1.0, (count, rank))
    if spectrum == "rank_deficient":
        sigmas[:, :int(rng.integers(1, rank + 1))] = 0.0
    elif spectrum == "repeated":
        sigmas[:] = rng.choice(sigmas[0, :2], (count, rank))
    sigmas *= magnitude
    stacked = np.stack([orthonormal(c_out) * sv @ orthonormal(c_in).conj().T
                        for sv in sigmas])
    positive = sigmas[sigmas > 0]
    if level == "zero" or positive.size == 0:
        s = 0.0
    elif level == "inside":
        s = float(rng.uniform(positive.min(), positive.max()))
    else:
        s = float(rng.choice(positive)) * (1 + float(rng.choice(
            [-1e-8, -1e-12, 0.0, 1e-12, 1e-8])))

    got = _RunClip(s).clip(stacked)
    want = svd_clip(stacked, s)
    peak = np.max(np.abs(stacked), axis=(1, 2))
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-12 * peak)
    if s > 0:
        top = np.linalg.svd(got, compute_uv=False)[:, 0]
        assert np.all(top <= s * (1 + 1e-12))


def chosen_spectra(rng, c_out, c_in, sigmas):
    """A stack of c_out x c_in complex matrices with the given singular
    values (one row of `sigmas` per matrix) and random singular vectors."""
    rank = min(c_out, c_in)

    def orthonormal(rows):
        gauss = rng.standard_normal((rows, rank, 2)).view(complex)[..., 0]
        return np.linalg.qr(gauss)[0]

    return np.stack([orthonormal(c_out) * sv @ orthonormal(c_in).conj().T
                     for sv in sigmas])


@st.composite
def one_direction_stacks(draw):
    c_out, c_in = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    gap = draw(st.sampled_from(["wide", "straddle", "near"]))
    offset = draw(st.sampled_from([1e-3, 1e-8, 1e-12]))
    magnitude = draw(st.sampled_from([1.0, 1e150, 1e-150]))
    return (c_out, c_in, draw(st.integers(1, 5)), gap, offset, magnitude,
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(one_direction_stacks())
@example((3, 3, 4, "straddle", 1e-8, 1.0, 1))       # square, both sides
@example((2, 5, 3, "straddle", 1e-12, 1e150, 2))    # c_out < c_in
@example((5, 2, 3, "near", 1e-8, 1e-150, 3))        # c_out > c_in
@example((1, 4, 2, "wide", 1e-3, 1.0, 4))           # one row
@example((4, 1, 2, "near", 1e-12, 1.0, 5))          # one column
def test_one_direction_clip_matches_the_svd_clip(case):
    """Stacks whose every matrix has exactly one singular value above s,
    so the clip moves each along that one direction only: the rest of the
    spectrum lies well below s ("wide"), a cluster straddles s, its top
    at s (1 + offset) and the next at s (1 - offset) ("straddle"), or the
    top sits within offset of s ("near"). Within 1e-12 of each matrix's
    peak entry of U min(sigma, s) V^H from the SVD, and no singular value
    of the output above s (1 + 1e-12)."""
    c_out, c_in, count, gap, offset, magnitude, seed = case
    rng = np.random.default_rng(seed)
    rank = min(c_out, c_in)
    s = magnitude
    sigmas = rng.uniform(0.05, 0.9, (count, rank)) * s
    if gap == "straddle" and rank > 1:
        sigmas[:, 1] = s * (1 - offset)
    sigmas[:, 0] = s * (1 + (offset if gap != "wide"
                             else rng.uniform(0.1, 2.0)))
    stacked = chosen_spectra(rng, c_out, c_in, sigmas)
    got = _RunClip(s).clip(stacked)
    peak = np.max(np.abs(stacked), axis=(1, 2))
    assert np.all(np.max(np.abs(got - svd_clip(stacked, s)), axis=(1, 2))
                  <= 1e-12 * peak)
    top = np.linalg.svd(got, compute_uv=False)[:, 0]
    assert np.all(top <= s * (1 + 1e-12))


def test_eigh_runs_only_where_several_directions_exceed_s(monkeypatch):
    """A stack mixing matrices with no, one, two and three singular values
    above s: `eigh` decomposes exactly the ones with two or more, the
    inverse iteration's `solve` sees exactly the ones with one, the rest
    come back untouched, and the clip matches the SVD clip."""
    rng = np.random.default_rng(40)
    s = 1.0
    above = np.array([0, 1, 2, 3, 1, 0, 2, 1])
    sigmas = rng.uniform(0.1, 0.9, (len(above), 4))
    for row, count in zip(sigmas, above):
        row[:count] = rng.uniform(1.1, 3.0, count)
    stacked = chosen_spectra(rng, 4, 6, sigmas)
    seen = {"eigh": [], "solve": []}
    for name in seen:
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *rest, real=real, name=name:
                            seen[name].append(len(a)) or real(a, *rest))
    clip = _RunClip(s)
    got = clip.clip(stacked)
    assert seen == {"eigh": [int(np.sum(above > 1))],
                    "solve": [int(np.sum(above == 1))] * 2}
    np.testing.assert_array_equal(got[above == 0], stacked[above == 0])
    peak = np.max(np.abs(stacked), axis=(1, 2))
    assert np.all(np.max(np.abs(got - svd_clip(stacked, s)), axis=(1, 2))
                  <= 1e-12 * peak)
    assert clip.svds == int(np.sum(above > 0))   # the screen keeps these


def test_change_norms_match_the_scaled_form():
    """The one-pass norms of each matrix's change against the norms at
    unit peak: changes at 1e200 and 1e-200, whose squares overflow or
    underflow, zero changes, and changes whose entries mix scales, all in
    one stack, with no warning."""
    rng = np.random.default_rng(38)

    def gauss(*shape):
        return rng.standard_normal(shape + (2,)).view(complex)[..., 0]

    prior = gauss(10, 3, 4)
    change = gauss(10, 3, 4)
    change *= np.array([1.0, 1e200, 1e-200, 0.0, 1e150, 1e-150, 1e120,
                        1e-120, 1.0, 1.0])[:, None, None]
    change[8, 0] *= 1e-170      # mixed: most entries at 1, one row at 1e-170
    change[9, 1:] *= 1e170      # mixed: one row at 1, the rest at 1e170
    stack = prior + change
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _change_norms(stack - prior)
    assert got[3] == 0.0
    np.testing.assert_allclose(got, scaled_change_norms(stack, prior),
                               rtol=1e-14, atol=0)
    np.testing.assert_array_equal(_change_norms(prior - prior), 0.0)


def test_spectral_rejects_strided_spec():
    rng = np.random.default_rng(17)
    spec = ConvSpec((1, 4, 4), (2, 2), strides=(2, 2))
    with pytest.raises(UsageError):
        project_spectral(rand_kernel(rng, (1, 1, 2, 2)), spec, 1.0)


# ---------------------------------------------------------------------------
# support window


def test_support_keeps_embedded_taps():
    rng = np.random.default_rng(18)
    spec = ConvSpec((2, 5, 5), (3, 2))
    kernel = rand_kernel(rng, (2, 2, 3, 2))
    grid = KernelTensor(embed_kernel_grid(kernel, spec))
    got = project_support(grid, 3, 2)
    np.testing.assert_array_equal(got.entries, grid.entries)


def test_support_zeroes_everything_else():
    rng = np.random.default_rng(19)
    full = rand_kernel(rng, (1, 1, 5, 5))
    got = project_support(full, 2, 3)
    kept = int(np.count_nonzero(got.entries))
    assert kept <= 2 * 3
    again = project_support(got, 2, 3)
    np.testing.assert_array_equal(again.entries, got.entries)
    with pytest.raises(UsageError):
        project_support(full, 6, 2)


# ---------------------------------------------------------------------------
# joint feasibility


def infeasible_case(rng, h=4):
    """Start violating both balls while the reference sits strictly inside.

    The reference is rescaled well under the Lipschitz bound, so it is a
    point in all three sets and the intersection cannot be empty; the
    perturbed start then violates both bounds by construction.
    """
    c = int(rng.integers(1, 3))
    k = int(rng.integers(1, 4))
    spec = ConvSpec((c, h, h), (k, k))
    noise = rng.standard_normal((c, c, k, k))
    lip_noise = exact_lip(KernelTensor(noise), spec)
    reference = init_scale_to_feasible(
        rand_kernel(rng, (c, c, k, k)), spec, 0.2 * lip_noise)
    kernel = KernelTensor(reference.entries + noise)
    b = 0.5 * group_norm_21(KernelTensor(noise))
    s = 0.5 * lip_noise
    assert group_norm_21(KernelTensor(kernel.entries - reference.entries)) > b
    assert exact_lip(kernel, spec) > s
    cs = ConstraintSet(reference=reference, distance_bound=b,
                       lipschitz_bound=s, conv=spec)
    return kernel, cs


def test_alternating_converges_on_infeasible_starts():
    rng = np.random.default_rng(20)
    for trial in range(12):
        kernel, cs = infeasible_case(rng)
        out, report = alternating_projections(kernel, cs)
        assert report.converged, (trial, report.trajectory[-1])
        assert report.rounds_run == 15
        assert len(report.trajectory) == 15
        first = max(report.trajectory[0])
        last = max(report.trajectory[-1])
        assert last <= first + 1e-12
        assert out.shape == kernel.shape


def test_dykstra_converges_on_infeasible_starts():
    rng = np.random.default_rng(21)
    for trial in range(8):
        kernel, cs = infeasible_case(rng)
        out, report = dykstra(kernel, cs)
        assert report.converged, (trial, report.trajectory[-1])
        assert report.rounds_run == 100
        assert out.shape == kernel.shape


def test_projection_report_measures_the_returned_kernel():
    rng = np.random.default_rng(25)
    for run in (alternating_projections, dykstra):
        kernel, cs = infeasible_case(rng)
        out, report = run(kernel, cs, 3)
        dist = group_norm_21(KernelTensor(out.entries - cs.reference.entries))
        assert report.final_lip == pytest.approx(exact_lip(out, cs.conv),
                                                 rel=1e-12)
        assert report.final_dist == pytest.approx(dist, rel=1e-12)
        # Dykstra measures only the kernel it returns
        measured = 3 if run is alternating_projections else 1
        assert report.rounds_run == 3 and len(report.trajectory) == measured
    with pytest.raises(UsageError):
        dykstra(kernel, cs, iterations=0)


def _relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _textbook(kernel, cs, cycles, corrected=True):
    _, h, w = cs.conv.input_shape
    return textbook_projection_cycle(
        kernel.entries, cs.reference.entries, h, w, cs.lipschitz_bound,
        cs.distance_bound, cycles, corrected)


def test_cycles_match_the_textbook_three_set_cycle():
    # The package cycles two closed-form sets and drops the tap window's
    # Dykstra correction; the oracle keeps all three sets and corrections.
    rng = np.random.default_rng(26)
    for trial in range(8):
        kernel, cs = infeasible_case(rng)
        runs = [
            (dykstra(kernel, cs, 3), _textbook(kernel, cs, 3)),
            (dykstra(kernel, cs, 100), _textbook(kernel, cs, 100)),
            (alternating_projections(kernel, cs),
             _textbook(kernel, cs, 15, corrected=False)),
        ]
        for (out, report), want in runs:
            assert _relative_gap(out.entries, want) <= 1e-12, trial
            dist = group_norm_21(
                KernelTensor(out.entries - cs.reference.entries))
            assert report.final_dist == pytest.approx(dist, rel=1e-12)
            assert report.final_lip == pytest.approx(exact_lip(out, cs.conv),
                                                     rel=1e-12)


def test_dykstra_lands_on_the_long_run_projection():
    rng = np.random.default_rng(27)
    for trial in range(3):
        kernel, cs = infeasible_case(rng)
        out, _ = dykstra(kernel, cs, 400)
        want = _textbook(kernel, cs, 3000)
        assert _relative_gap(out.entries, want) <= 1e-6, trial


def binding_case(rng, c_in, c_out, h):
    """A 3x3 layer whose projection lies on both balls: the reference sits
    at operator norm 1.5 inside s = 1.8, the kernel is 1.6 times it plus
    noise, and b is half the kernel's distance."""
    spec = ConvSpec((c_in, h, h), (3, 3))
    shape = (c_out, c_in, 3, 3)
    ref = rng.standard_normal(shape) * math.sqrt(2.0 / (c_in * 9))
    noise = rng.standard_normal(shape) * (0.2 * np.linalg.norm(ref)
                                          / math.sqrt(ref.size))
    ref = init_scale_to_feasible(KernelTensor(ref), spec, 1.5)
    kernel = KernelTensor(1.6 * ref.entries + noise)
    b = 0.5 * group_norm_21(KernelTensor(kernel.entries - ref.entries))
    return kernel, ConstraintSet(ref, b, 1.8, spec)


@pytest.mark.parametrize("c_in,c_out,h", [(16, 16, 8), (2, 3, 5), (1, 1, 6)])
def test_remembered_clips_match_the_cold_clip_cycle(c_in, c_out, h):
    rng = np.random.default_rng(30 + c_in)
    kernel, cs = binding_case(rng, c_in, c_out, h)
    out, report = dykstra(kernel, cs, 60)
    np.testing.assert_array_equal(
        out.entries, cold_clip_cycle(kernel, cs, 60, corrected=True))
    # both balls bind at the projection
    assert report.final_dist == pytest.approx(cs.distance_bound, rel=1e-2)
    assert report.final_lip == pytest.approx(cs.lipschitz_bound, rel=1e-2)
    # the remembered bound skipped some frequencies
    assert 0 < report.clip_svds < 60 * h * (h // 2 + 1)
    want = cold_clip_cycle(kernel, cs, 15, corrected=False)
    out, report = alternating_projections(kernel, cs, 15)
    np.testing.assert_array_equal(out.entries, want)
    np.testing.assert_array_equal(alternate(kernel, cs, 15).entries, want)


def test_a_run_screens_cold_once(monkeypatch):
    """Only a run's first clip runs the Gram screen, over the whole stack;
    every later clip screens by the bound it remembers and forms Gram
    matrices only for the frequencies that bound keeps, which the run's
    `clip_svds` counts."""
    rng = np.random.default_rng(31)
    kernel, cs = binding_case(rng, 4, 4, 6)
    frequencies = 6 * (6 // 2 + 1)
    sizes = []
    real = project_module._unit_gram
    monkeypatch.setattr(project_module, "_unit_gram",
                        lambda picked: sizes.append(len(picked))
                        or real(picked))
    for run, cycles in ((dykstra, 20), (alternating_projections, 5)):
        first = run(kernel, cs, 1)[1].clip_svds
        sizes.clear()
        report = run(kernel, cs, cycles)[1]
        assert sizes[0] == frequencies
        assert sum(sizes[1:]) == report.clip_svds - first
        assert sum(sizes[1:]) < (cycles - 1) * frequencies


def test_clip_svds_counts_the_decomposed_frequencies():
    """At s = 0 every frequency of every clip reaches s and is decomposed;
    radial moves clip nothing."""
    rng = np.random.default_rng(32)
    kernel, cs = binding_case(rng, 2, 3, 5)
    zero = ConstraintSet(cs.reference, cs.distance_bound, 0.0, cs.conv)
    for run in (alternating_projections, dykstra):
        assert run(kernel, zero, 4)[1].clip_svds == 4 * 5 * 3
    assert radial_cycle(kernel, cs)[1].clip_svds == 0


def test_admm_lands_near_the_long_run_projection():
    """Stopped at tol, ADMM lands within 1e-2 of the distance from the
    start to the nearest point, on layers where both balls bind. On the
    last layer the primal test alone would stop at 5 iterations, 1.4e-2
    away; the dual-residual test keeps the run going."""
    rng = np.random.default_rng(34)
    cases = [binding_case(rng, 2, 3, 5), binding_case(rng, 1, 1, 6),
             infeasible_case(rng), infeasible_case(rng),
             binding_case(np.random.default_rng(41), 3, 2, 5)]
    for trial, (kernel, cs) in enumerate(cases):
        out, report = admm(kernel, cs)
        assert report.converged and report.rounds_run < 100, trial
        want = _textbook(kernel, cs, 3000)
        gap = (np.linalg.norm(out.entries - want)
               / np.linalg.norm(kernel.entries - want))
        assert gap <= 1e-2, trial


def test_admm_stops_only_on_a_certified_kernel():
    """A run that stops before its cap has reached the residual test, so
    its kernel meets the (2,1) ball and lip <= s (1 + tol / 2)."""
    rng = np.random.default_rng(35)
    cases = [binding_case(rng, c_in, c_out, h) for c_in, c_out, h in
             ((16, 16, 8), (2, 3, 5), (1, 8, 10), (4, 4, 6))]
    cases += [infeasible_case(rng) for _ in range(6)]
    stopped = 0
    for (kernel, cs), tol in zip(cases, [1e-3, 1e-2] * len(cases)):
        for cap in (10, 100):
            out, report = admm(kernel, cs, cap, tol)
            if report.rounds_run == cap:
                continue
            stopped += 1
            assert report.converged
            s, b = cs.lipschitz_bound, cs.distance_bound
            assert exact_lip(out, cs.conv) <= s * (1 + tol / 2) * (1 + 1e-12)
            dist = group_norm_21(
                KernelTensor(out.entries - cs.reference.entries))
            assert dist <= b * (1 + 1e-12)
    assert stopped >= len(cases)


def test_admm_stops_as_at_unit_scale_past_the_square_range():
    """Scaled by 2**530, every square in the dual-residual test overflows.
    Measured at unit peak instead, the run stops at the unit-scale
    iteration with the scaled kernel (within 1e-12 relative) and warns of
    nothing. The first case is the one whose dual-residual test outlasts
    its primal test (see above)."""
    scale = 2.0 ** 530
    cases = [binding_case(np.random.default_rng(41), 3, 2, 5),
             binding_case(np.random.default_rng(30), 1, 1, 6)]
    for kernel, cs in cases:
        out, report = admm(kernel, cs)
        big = ConstraintSet(KernelTensor(cs.reference.entries * scale),
                            cs.distance_bound * scale,
                            cs.lipschitz_bound * scale, cs.conv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big_out, big_report = admm(KernelTensor(kernel.entries * scale),
                                       big)
        assert big_report.rounds_run == report.rounds_run
        assert big_report.converged
        assert _relative_gap(big_out.entries / scale, out.entries) <= 1e-12


def test_admm_box_only_input_stops_at_the_shrink():
    """When the (2,1) shrink alone lands inside the spectral ball, ADMM
    stops within 2 iterations on that shrink; without a spectral bound it
    returns the shrink after one."""
    rng = np.random.default_rng(36)
    for _ in range(4):
        kernel, cs = binding_case(rng, int(rng.integers(1, 5)),
                                  int(rng.integers(1, 5)), 6)
        want = project_l21_ball(kernel, cs.reference, cs.distance_bound)
        for s in (4 * exact_lip(want, cs.conv), math.inf):
            box = ConstraintSet(cs.reference, cs.distance_bound, s, cs.conv)
            out, report = admm(kernel, box)
            assert report.converged
            assert report.rounds_run <= (2 if math.isfinite(s) else 1)
            assert _relative_gap(out.entries, want.entries) <= 1e-15
    with pytest.raises(UsageError):
        admm(kernel, cs, iterations=0)


def test_admm_returns_a_projection_already_in_the_spectral_ball_at_once():
    """A kernel inside both balls comes back bit for bit, and one whose
    (2,1) shrink lands inside the spectral ball comes back as that shrink,
    each after one iteration."""
    rng = np.random.default_rng(37)
    for _ in range(3):
        kernel, cs = binding_case(rng, int(rng.integers(1, 5)),
                                  int(rng.integers(1, 5)), 6)
        shrink = project_l21_ball(kernel, cs.reference, cs.distance_bound)
        inside = KernelTensor(0.5 * (kernel.entries + cs.reference.entries))
        roomy = ConstraintSet(cs.reference, cs.distance_bound,
                              4 * exact_lip(shrink, cs.conv), cs.conv)
        for start, want in ((inside, inside), (kernel, shrink)):
            out, report = admm(start, roomy)
            np.testing.assert_array_equal(out.entries, want.entries)
            assert report.rounds_run == 1 and report.converged


def test_overflowing_fibers_raise_before_the_clip(monkeypatch):
    # fibers of two entries at 1.5e308 are longer than the float range, so
    # the (2,1) shrink turns NaN; the cycle must stop there, not hand NaN
    # to the clip's SVD
    rng = np.random.default_rng(28)
    spec = ConvSpec((2, 4, 4), (3, 3))
    reference = rand_kernel(rng, (2, 2, 3, 3))
    kernel = KernelTensor(np.sign(rng.standard_normal((2, 2, 3, 3))) * 1.5e308)
    cs = ConstraintSet(reference=reference, distance_bound=1.0,
                       lipschitz_bound=2.0, conv=spec)
    clips = []
    real_clip = project_module._RunClip.clip
    monkeypatch.setattr(
        project_module._RunClip, "clip",
        lambda self, x: clips.append(1) or real_clip(self, x))
    for run in (alternating_projections, dykstra):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(UsageError, match="non-finite"):
            run(kernel, cs)
    assert clips == []


def test_cycles_and_measurements_run_no_fft(monkeypatch):
    """The projection cycles, Dykstra and the exact measurements build
    their frequency stacks from the taps: no grid transform runs."""
    rng = np.random.default_rng(33)
    kernel, cs = binding_case(rng, 3, 2, 5)

    def no_fft(*args, **kwargs):
        raise AssertionError("a grid FFT ran")

    for name in ("rfft2", "ifft", "irfft"):
        monkeypatch.setattr(np.fft, name, no_fft)
    out = alternate(kernel, cs, 3)
    assert alternating_projections(kernel, cs, 3)[1].rounds_run == 3
    assert dykstra(kernel, cs, 3)[1].rounds_run == 3
    assert fft_exact_norm(out, cs.conv).value == \
        fft_exact_spectrum(out, cs.conv).max_value


def test_defaults_share_one_tolerance():
    for run in (alternating_projections, dykstra, radial_cycle):
        assert inspect.signature(run).parameters["tol"].default == DEFAULT_TOL
    assert DEFAULT_TOL == 1e-3


def test_alternate_returns_the_measured_cycle_kernel():
    rng = np.random.default_rng(29)
    for rounds in (1, 4):
        kernel, cs = infeasible_case(rng)
        out, _ = alternating_projections(kernel, cs, rounds)
        np.testing.assert_array_equal(alternate(kernel, cs, rounds).entries,
                                      out.entries)
    with pytest.raises(UsageError):
        alternate(kernel, cs, 0)


def test_infinite_bounds_leave_kernel_alone():
    rng = np.random.default_rng(22)
    spec = ConvSpec((2, 4, 4), (3, 3))
    reference = rand_kernel(rng, (2, 2, 3, 3))
    kernel = rand_kernel(rng, (2, 2, 3, 3))
    cs = ConstraintSet(reference=reference, distance_bound=math.inf,
                       lipschitz_bound=math.inf, conv=spec)
    out, report = alternating_projections(kernel, cs, rounds=1)
    np.testing.assert_array_equal(out.entries, kernel.entries)
    assert report.converged


def test_projection_cycle_rejects_unknown_names():
    rng = np.random.default_rng(23)
    kernel, cs = infeasible_case(rng)
    with pytest.raises(UsageError):
        alternating_projections(kernel, cs, rounds=0)


def test_constraint_set_validation():
    rng = np.random.default_rng(24)
    spec = ConvSpec((1, 4, 4), (3, 3))
    ref = rand_kernel(rng, (1, 1, 3, 3))
    with pytest.raises(UsageError):
        ConstraintSet(ref, -1.0, 1.0, spec)
    with pytest.raises(UsageError):
        ConstraintSet(ref, 1.0, -1.0, spec)
    with pytest.raises(UsageError):
        ConstraintSet(rand_kernel(rng, (1, 1, 2, 2)), 1.0, 1.0, spec)


# ---------------------------------------------------------------------------
# Dykstra against an analytic two-disc projection


def disc_projection(center, radius):
    c = np.asarray(center, dtype=float)

    def p(x):
        d = np.linalg.norm(x - c)
        if d <= radius:
            return x
        return c + (x - c) * (radius / d)

    return p


def test_dykstra_two_disc_lens():
    # unit discs at (0,0) and (1.5,0); the projection of (0.75, 2) onto the
    # lens is its upper corner, where the circles intersect
    p1 = disc_projection((0.0, 0.0), 1.0)
    p2 = disc_projection((1.5, 0.0), 1.0)
    x0 = np.array([0.75, 2.0])
    want = np.array([0.75, math.sqrt(1.0 - 0.75**2)])
    assert np.linalg.norm(p1(x0) - want) > 1e-2  # single projections miss
    assert np.linalg.norm(p2(x0) - want) > 1e-2
    got = dykstra_iterate(x0, [p1, p2], 4000)
    assert np.linalg.norm(got - want) <= 1e-6


def test_dykstra_iterate_validates():
    with pytest.raises(UsageError):
        dykstra_iterate(np.zeros(2), [lambda x: x], 0)


def test_dykstra_iterate_keeps_a_complex_start_complex():
    # frequency stacks are complex; a float iterate would drop their
    # imaginary parts
    x0 = np.array([1.0 + 2.0j, -3.0j])
    np.testing.assert_array_equal(dykstra_iterate(x0, [lambda x: x], 2), x0)
    got = dykstra_iterate([1, 2], [lambda x: x / 2], 1)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, [0.5, 1.0])


# ---------------------------------------------------------------------------
# radial projections


def test_radial_l21_never_shorter_than_orthogonal():
    rng = np.random.default_rng(25)
    for _ in range(15):
        shape = (2, 2, 2, 2)
        kernel = rand_kernel(rng, shape, 2.0)
        center = rand_kernel(rng, shape, 0.3)
        b = 0.5 * group_norm_21(KernelTensor(kernel.entries - center.entries))
        rad = radial_project(kernel, center, b, "l21")
        orth = project_l21_ball(kernel, center, b)
        move_rad = np.linalg.norm(kernel.entries - rad.entries)
        move_orth = np.linalg.norm(kernel.entries - orth.entries)
        assert move_rad >= move_orth - 1e-10
        assert group_norm_21(KernelTensor(rad.entries - center.entries)) <= b * (1 + 1e-9)


def test_radial_spectral_never_shorter_than_orthogonal():
    rng = np.random.default_rng(26)
    spec = ConvSpec((2, 4, 4), (3, 3))
    zero = KernelTensor(np.zeros((2, 2, 3, 3)))
    for _ in range(8):
        kernel = rand_kernel(rng, (2, 2, 3, 3), 1.5)
        s = 0.5 * exact_lip(kernel, spec)
        rad = radial_project(kernel, zero, s, "spectral", spec=spec)
        orth = project_spectral(kernel, spec, s)
        move_rad = np.linalg.norm(kernel.entries - rad.entries)
        move_orth = np.linalg.norm(embed_kernel_grid(kernel, spec) - orth.entries)
        assert move_rad >= move_orth - 1e-10
        assert exact_lip(rad, spec) <= s * (1 + 1e-9)


def test_radial_inside_ball_is_identity():
    rng = np.random.default_rng(27)
    kernel = rand_kernel(rng, (1, 1, 2, 2))
    center = KernelTensor(kernel.entries.copy())
    got = radial_project(kernel, center, 0.1, "l21")
    np.testing.assert_array_equal(got.entries, kernel.entries)
    with pytest.raises(UsageError):
        radial_project(kernel, center, 1.0, "spectral")  # spec missing
    with pytest.raises(UsageError):
        radial_project(kernel, center, 1.0, "frobenius")


# ---------------------------------------------------------------------------
# feasible initialization


def test_init_scale_hits_target_exactly():
    rng = np.random.default_rng(28)
    spec = ConvSpec((2, 5, 5), (3, 3))
    kernel = rand_kernel(rng, (3, 2, 3, 3), 4.0)
    for s in (0.5, 1.0, 7.0):
        scaled = init_scale_to_feasible(kernel, spec, s)
        assert operator_norm(scaled, spec).value == pytest.approx(s, rel=1e-10)


def test_init_scale_rejects_degenerate_inputs():
    spec = ConvSpec((1, 4, 4), (2, 2))
    zero = KernelTensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(UsageError):
        init_scale_to_feasible(zero, spec, 1.0)
    one = KernelTensor(np.ones((1, 1, 2, 2)))
    with pytest.raises(UsageError):
        init_scale_to_feasible(one, spec, 0.0)
