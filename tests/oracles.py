"""Independent scalar-loop reference implementations used only by tests.

Everything here is written for obviousness, not speed: plain Python loops,
no shared helpers with the package under test. The exceptions are at the
end: the measured cadence pass, which pins training's cadence projections
to `alternating_projections`; the cold-clip cycle, which pins the
projection cycles' remembered clip screen to the package's own cold clip,
bit for bit; and the whole-batch comparison pass, which pins the sliced
forward of `comparison_stats_from_net` to one forward of the whole batch,
bit for bit.
"""

import math

import numpy as np

from capbound.lipschitz import stack_to_taps, taps_to_stack
from capbound.project import (
    _RunClip,
    alternating_projections,
    project_l21_ball,
)
from capbound.errors import UsageError
from capbound.tensors import DataBatch, KernelTensor, patch_norms


def loop_group_norm_21(k):
    """Sum over (o,a,b) of the l2 length of the input-channel fiber."""
    k = np.asarray(k, dtype=float)
    total = 0.0
    for o in range(k.shape[0]):
        for a in range(k.shape[2]):
            for b in range(k.shape[3]):
                s = 0.0
                for i in range(k.shape[1]):
                    s += k[o, i, a, b] ** 2
                total += math.sqrt(s)
    return total


def loop_matrix_row_norm_sum(m):
    m = np.asarray(m, dtype=float)
    total = 0.0
    for r in range(m.shape[0]):
        s = 0.0
        for c in range(m.shape[1]):
            s += m[r, c] ** 2
        total += math.sqrt(s)
    return total


def loop_conv(k, x, s_h, s_w, padding):
    """Direct five-loop conv with offset a - k//2 and ceil output extents."""
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    c_out, c_in, k_h, k_w = k.shape
    _, h, w = x.shape
    out_h = math.ceil(h / s_h)
    out_w = math.ceil(w / s_w)
    out = np.zeros((c_out, out_h, out_w))
    for o in range(c_out):
        for mu in range(out_h):
            for nu in range(out_w):
                acc = 0.0
                for i in range(c_in):
                    for a in range(k_h):
                        for b in range(k_w):
                            p = s_h * mu + (a - k_h // 2)
                            q = s_w * nu + (b - k_w // 2)
                            if padding == "circular":
                                acc += k[o, i, a, b] * x[i, p % h, q % w]
                            elif 0 <= p < h and 0 <= q < w:
                                acc += k[o, i, a, b] * x[i, p, q]
                out[o, mu, nu] = acc
    return out


def loop_patch_max_norm(xs, k_h, k_w, s_h, s_w, padding):
    xs = np.asarray(xs, dtype=float)
    n, c, h, w = xs.shape
    out_h = math.ceil(h / s_h)
    out_w = math.ceil(w / s_w)
    best = 0.0
    for t in range(n):
        for mu in range(out_h):
            for nu in range(out_w):
                acc = 0.0
                for i in range(c):
                    for a in range(k_h):
                        for b in range(k_w):
                            p = s_h * mu + (a - k_h // 2)
                            q = s_w * nu + (b - k_w // 2)
                            if padding == "circular":
                                acc += xs[t, i, p % h, q % w] ** 2
                            elif 0 <= p < h and 0 <= q < w:
                                acc += xs[t, i, p, q] ** 2
                best = max(best, acc)
    return math.sqrt(best)


def loop_maxpool_backward(x, g, size, stride, centered):
    """Input gradient of circular max pooling, window by window: each
    window's output gradient goes to its first maximum in tap order (taps
    row-major, offsets 0..size-1, less size//2 when centered)."""
    x = np.asarray(x, dtype=float)
    n, c, h, w = x.shape
    shift = size // 2 if centered else 0
    dx = np.zeros_like(x)
    for t in range(n):
        for i in range(c):
            for p in range(g.shape[2]):
                for q in range(g.shape[3]):
                    best = None
                    for a in range(size):
                        for b in range(size):
                            r = (stride * p + a - shift) % h
                            s = (stride * q + b - shift) % w
                            if best is None or x[t, i, r, s] > best:
                                best, at = x[t, i, r, s], (r, s)
                    dx[t, i, at[0], at[1]] += g[t, i, p, q]
    return dx


def dft_spectrum(k, h, w):
    """Singular values of the circular stride-1 operator via explicit DFT.

    Builds each frequency matrix by direct summation of exp terms (no fft
    call), then takes its singular values.
    """
    k = np.asarray(k, dtype=float)
    c_out, c_in, k_h, k_w = k.shape
    values = []
    for u in range(h):
        for v in range(w):
            a_mat = np.zeros((c_out, c_in), dtype=complex)
            for a in range(k_h):
                for b in range(k_w):
                    p = (a - k_h // 2) % h
                    q = (b - k_w // 2) % w
                    phase = np.exp(-2j * math.pi * (u * p / h + v * q / w))
                    a_mat += k[:, :, a, b] * phase
            values.extend(np.linalg.svd(a_mat, compute_uv=False).tolist())
    return np.sort(np.asarray(values))[::-1]


def full_frequency_svd(grid):
    """SVD of every one of the h*w fft2 frequency matrices of a
    (c_out, c_in, h, w) grid, with no conjugate-symmetry shortcut."""
    grid = np.asarray(grid, dtype=float)
    c_out, c_in, h, w = grid.shape
    f = np.fft.fft2(grid, axes=(2, 3))
    stacked = np.moveaxis(f, (2, 3), (0, 1)).reshape(h * w, c_out, c_in)
    return np.linalg.svd(stacked, full_matrices=False)


def rfft2_stack(grid):
    """The rfft2 half of a real (c_out, c_in, h, w) grid's frequency
    matrices, stacked (h * (w//2 + 1), c_out, c_in) in row-major (u, v)
    order, by FFT: the reference for `taps_to_stack`."""
    c_out, c_in, h, w = np.shape(grid)
    f = np.fft.rfft2(np.asarray(grid, dtype=float), axes=(2, 3))
    return np.moveaxis(f, (2, 3), (0, 1)).reshape(-1, c_out, c_in)


def irfft2_grid(stacked, h, w):
    """The real (c_out, c_in, h, w) grid whose rfft2 half is `stacked`, by
    ifft along h and irfft along w: the reference for `stack_to_taps` at
    the full h x w window."""
    _, c_out, c_in = stacked.shape
    rows = np.fft.ifft(stacked.reshape(h, -1, c_out, c_in), axis=0)
    out = np.fft.irfft(rows, n=w, axis=1)
    return np.moveaxis(out, (0, 1), (2, 3))


def full_spectrum_clip(grid, s):
    """Clip every frequency matrix's singular values at s and invert with
    ifft2, keeping the real part."""
    c_out, c_in, h, w = np.shape(grid)
    u, sv, vh = full_frequency_svd(grid)
    rebuilt = np.einsum("fij,fj,fjk->fik", u, np.minimum(sv, s), vh)
    f_new = np.moveaxis(rebuilt.reshape(h, w, c_out, c_in), (0, 1), (2, 3))
    return np.fft.ifft2(f_new, axes=(2, 3)).real


def svd_clip(stacked, s):
    """Clip the singular values of every matrix of a stack at s:
    U min(sigma, s) V^H from one SVD per matrix."""
    u, sv, vh = np.linalg.svd(stacked, full_matrices=False)
    return np.einsum("fij,fj,fjk->fik", u, np.minimum(sv, s), vh)


def scaled_change_norms(stack, prior):
    """Frobenius norm of each matrix of stack - prior, measured with the
    matrix's real and imaginary parts scaled to unit peak, so no square
    overflows or underflows."""
    norms = []
    for change in np.subtract(stack, prior):
        parts = np.abs(np.concatenate([change.real.ravel(),
                                       change.imag.ravel()]))
        peak = float(np.max(parts))
        norms.append(0.0 if peak == 0 else
                     peak * math.sqrt(sum((x / peak) ** 2 for x in parts)))
    return np.array(norms)


def bisect_l21_shrinkage(fiber_norms, budget, iters=200):
    """Threshold lam so that sum(max(0, v - lam)) == budget, by bisection."""
    v = np.asarray(fiber_norms, dtype=float)
    if v.sum() <= budget:
        return 0.0
    lo, hi = 0.0, float(v.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(0.0, v - mid).sum() > budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def textbook_projection_cycle(kernel, reference, h, w, s, b, cycles,
                              corrected=True):
    """Cycle a (c_out, c_in, k_h, k_w) kernel, embedded on the circular
    h x w grid, through the (2,1) ball of radius b around `reference`, the
    spectral ball of radius s and the tap window, in that order.

    corrected=True is Dykstra's cycle: every set, the tap window included,
    keeps its own correction. corrected=False is plain alternation. Returns
    the taps of the last iterate.
    """
    kernel = np.asarray(kernel, dtype=float)
    c_out, c_in, k_h, k_w = kernel.shape
    rows = [(a - k_h // 2) % h for a in range(k_h)]
    cols = [(q - k_w // 2) % w for q in range(k_w)]

    def embed(k):
        grid = np.zeros((c_out, c_in, h, w))
        for a, p in enumerate(rows):
            for q, r in enumerate(cols):
                grid[:, :, p, r] = k[:, :, a, q]
        return grid

    center = embed(np.asarray(reference, dtype=float))
    mask = embed(np.ones_like(kernel)) != 0

    def ball(y):
        diff = y - center
        norms = np.sqrt((diff * diff).sum(axis=1, keepdims=True))
        # 64 halvings of [0, max norm] narrow lam below one ulp of the max
        lam = bisect_l21_shrinkage(norms, b, iters=64)
        shrink = np.maximum(0.0, 1.0 - lam / np.maximum(norms, 1e-300))
        return center + diff * shrink

    sets = [ball, lambda y: full_spectrum_clip(y, s),
            lambda y: np.where(mask, y, 0.0)]
    x = embed(kernel)
    corrections = [np.zeros_like(x) for _ in sets]
    for _ in range(cycles):
        for i, p in enumerate(sets):
            y = p(x + corrections[i])
            if corrected:
                corrections[i] = x + corrections[i] - y
            x = y
    out = np.empty_like(kernel)
    for a, p in enumerate(rows):
        for q, r in enumerate(cols):
            out[:, :, a, q] = x[:, :, p, r]
    return out


def central_difference_grads(loss_fn, params, step=1e-4):
    """Gradient of loss_fn(params) by central differences, one entry at a time."""
    grads = []
    for idx in range(len(params)):
        g = np.zeros_like(params[idx])
        flat = g.reshape(-1)
        base = params[idx].reshape(-1)
        for j in range(base.size):
            orig = base[j]
            base[j] = orig + step
            up = loss_fn(params)
            base[j] = orig - step
            down = loss_fn(params)
            base[j] = orig
            flat[j] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def crude_hurwitz_zeta(s, q, terms=2_000_000):
    """Partial sum plus integral bracket midpoint; error <= first tail term."""
    total = 0.0
    for n in range(terms):
        total += (q + n) ** (-s)
    tail_low = (q + terms) ** (1 - s) / (s - 1)
    first = (q + terms) ** (-s)
    return total + tail_low + first / 2.0


def set_cover_minimum(points, centers, eps):
    """Smallest number of eps-balls centered on `centers` covering `points`.

    Exhaustive over subset sizes; None when even all centers fail.
    """
    from itertools import combinations

    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    d = np.sqrt(((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1))
    covered_by = d <= eps + 1e-12
    if not covered_by.any(axis=1).all():
        return None
    for size in range(1, len(centers) + 1):
        for subset in combinations(range(len(centers)), size):
            if covered_by[:, list(subset)].any(axis=1).all():
                return size
    return None


def measured_project_all(net, sets):
    """Cadence pass that measures its cycle: one round of
    `alternating_projections` on each layer in turn."""
    for blk, cs in zip(net.blocks, sets):
        projected, _ = alternating_projections(
            KernelTensor(blk.conv.kernel), cs, rounds=1)
        blk.conv.kernel = projected.entries


def cold_clip_cycle(kernel, cs, rounds, corrected):
    """The projection cycle over C1 & C3 and C2 on the package's own
    tap/stack route, with every spectral clip screened cold, by a fresh
    clip memory: Dykstra's two-set cycle on the frequency stack when
    corrected, else plain alternation on the taps. Returns the taps of the
    last iterate."""
    _, h, w = cs.conv.input_shape
    k_h, k_w = cs.support

    def p_box(taps):
        return project_l21_ball(KernelTensor(taps), cs.reference,
                                cs.distance_bound).entries

    def p_spec(stacked):
        return _RunClip(cs.lipschitz_bound).clip(stacked)

    def to_taps(stacked):
        return stack_to_taps(stacked, h, w, k_h, k_w)

    taps = kernel.entries
    if not corrected:
        for _ in range(rounds):
            taps = to_taps(p_spec(taps_to_stack(p_box(taps), h, w)))
        return taps
    sets = (lambda x: taps_to_stack(p_box(to_taps(x)), h, w), p_spec)
    x = taps_to_stack(taps, h, w)
    corrections = [np.zeros_like(x), np.zeros_like(x)]
    for _ in range(rounds):
        for i, p in enumerate(sets):
            y = p(x + corrections[i])
            corrections[i] = x + corrections[i] - y
            x = y
    return to_taps(x)


def whole_batch_patch_norms(net, batch):
    """The batch statistics of `comparison_stats_from_net` from one forward
    of the whole batch: the largest patch norm at each block's input, then
    the largest feature and logit norms. A net whose activations overflow
    is refused, naming the first block with a non-finite output."""
    acts = [batch.samples]
    y = np.ascontiguousarray(batch.samples.transpose(1, 2, 3, 0))
    for i, blk in enumerate(net.blocks):
        y = blk.forward(y)
        if not np.all(np.isfinite(y)):
            raise UsageError(f"activations overflowed: block {i} ")
        acts.append(y.transpose(3, 0, 1, 2))
    norms = [patch_norms(DataBatch(act), blk.spec.k, blk.spec.k,
                         padding="circular")
             for blk, act in zip(net.blocks, acts)]
    flat = acts[-1].reshape(acts[-1].shape[0], -1)
    norms.append(float(np.linalg.norm(flat, axis=1).max()))
    logits = flat @ net.classifier.T
    norms.append(float(np.linalg.norm(logits, axis=1).max()))
    return tuple(norms)
