"""Projections onto the three constraint sets and their combinations.

The sets, for one layer with reference kernel K0 on an h x w circular grid:

  C1: kernels within grouped (2,1) distance b of K0,
  C2: kernels whose conv operator has spectral norm <= s (full grid),
  C3: kernels supported on the k_h x k_w tap window.

C1 and C3 are exact orthogonal projections in the Frobenius geometry; C2 is
exact for circular stride-1 operators via per-frequency singular value
clipping (the DFT is a scaled isometry, so clipping each frequency's matrix
is the orthogonal projection onto the full-grid Lipschitz ball). The clip
reads each matrix's singular values from `eigvalsh` of its smaller Gram
matrix at unit peak (`_unit_gram`), not from an SVD as the measurements
(`lipschitz.stack_norm`) do. A matrix with none above s clips
to itself and passes through untouched. One with exactly one moves along
that direction alone: a rank-one update whose direction comes from two
steps of inverse iteration on the Gram matrix already formed
(`_top_direction`). Only a matrix with several goes through `eigh`
(`_directions_above`). Only the rfft2 half of
the frequencies is clipped: the grid is real, clipping commutes with
conjugation, and the inverse real transform restores each left-out
conjugate partner. Of those, only the frequencies the screen
(`may_reach`) cannot place below s are decomposed; the rest clip to
themselves and pass through. Strides above 1 are rejected.

The screen is cold or warm. A cold clip takes the Gram eigenvalues of
the whole stack as its decomposition. Each projection run's clips share a
memory (`_RunClip`): the last clip input's frequency stack and an upper
bound on each of its matrices' top singular value. Every clip after the
first bounds a frequency by that bound plus the Frobenius norm of the
frequency's change, by Weyl's inequality
sigma_max(A + D) <= sigma_max(A) + |D|_2 <= sigma_max(A) + |D|_F, and a
decomposed frequency's bound resets to its top singular value,
peak sqrt(lambda_max) from the Gram eigenvalues. Both screens skip only
frequencies whose clip is the identity, so the warm screen decomposes a
different set but returns the same bits.

Alternation, Dykstra and ADMM run two closed-form steps and never build a
grid: the exact projection onto C1 & C3, the (2,1) shrink of the taps
around the reference taps (`_p_box`), and the clip onto C2, made fresh for
each run, on the taps' frequency stack (`lipschitz.taps_to_stack`). An
alternating round is taps -> p_box -> stack -> clip -> taps, where
inverting only at the taps (`lipschitz.stack_to_taps`) is the projection
onto C3. Dykstra iterates on the stack itself (see `dykstra`) for a fixed
count. `admm` splits the same two steps for the same nearest point and
stops once a residual test certifies both bounds to tol; it is the
nearest-point scheme behind `capbound project` and training's post pass.
`project_spectral`, whose result fills the grid, clips the same stack
and inverts it at all h x w positions. No step runs an FFT.
`alternating_projections` measures every cycle; `alternate` runs the same
cycles and measures nothing. `radial_cycle` instead rescales straight onto
each ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convop import ConvSpec
from .errors import UsageError
from .lipschitz import (
    _require_fft_eligible,
    _require_finite_stack,
    embed_kernel_grid,
    operator_norm,
    stack_norm,
    stack_to_taps,
    taps_to_stack,
)
from .tensors import KernelTensor, fiber_norms, l2_norm, norm_21

__all__ = [
    "ConstraintSet",
    "FeasibilityReport",
    "project_l21_ball",
    "project_spectral",
    "project_support",
    "alternating_projections",
    "alternate",
    "dykstra",
    "dykstra_iterate",
    "admm",
    "radial_project",
    "radial_cycle",
    "init_scale_to_feasible",
    "DEFAULT_BUDGETS",
    "DEFAULT_TOL",
]

# Default budget of each scheme: cycles for alternation and radial moves,
# iterations for Dykstra, and the iteration cap of ADMM, which serves the
# "dykstra" (nearest-point) scheme of `capbound project` and, per layer,
# training's post pass (`TrainConfig.post_rounds`).
DEFAULT_BUDGETS = {"alternating": 15, "dykstra": 100, "radial": 15}
# Relative excess over each bound that a converged projection (and a
# feasible trained layer) may keep.
DEFAULT_TOL = 1e-3
# Relative margin of the clip's screens. Forming and diagonalizing a
# matrix's Gram matrix moves its top singular value estimate by about n * eps
# relative (n the channel count, 4e-15 at 16 channels). The run's remembered
# Weyl bound is such a top value plus one rounded Frobenius norm per clip
# since, each off by at most about m * eps relative (m the matrix's real
# entries, 512 at 16 x 16 channels), so under 1e-11 of the bound after a
# hundred clips. Both are far inside this margin, so a matrix either screen
# leaves out provably has no singular value above s.
SCREEN_MARGIN = 1e-10


@dataclass(frozen=True)
class ConstraintSet:
    """One layer's constraint data: reference kernel, radii, and geometry."""

    reference: KernelTensor
    distance_bound: float
    lipschitz_bound: float
    conv: ConvSpec

    def __post_init__(self):
        if self.distance_bound < 0:
            raise UsageError("distance bound must be >= 0")
        if self.lipschitz_bound < 0:
            raise UsageError("lipschitz bound must be >= 0")
        self.conv.check_kernel(self.reference)

    @property
    def support(self) -> tuple[int, int]:
        return self.conv.kernel_shape


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint violations along a projection run.

    trajectory holds (dist_rel_violation, lip_rel_violation) pairs; relative
    means excess over the bound divided by the bound. Alternating and radial
    cycles log one pair per completed cycle; Dykstra and ADMM measure only
    their last iterate, so their trajectory is that one pair while
    `rounds_run` counts the iterations run (for ADMM, the ones used before
    its residual stop or its cap). The last pair always measures the
    returned kernel.
    Non-convergence is reported through `converged`, never raised.
    clip_svds counts the frequency matrices the run's spectral clips
    decomposed, each by `eigvalsh` of its Gram matrix and, where it has a
    singular value above s, the route that clips it (0 for runs that do
    not clip). A cold clip counts the frequencies its screen keeps.
    """

    rounds_run: int
    trajectory: list
    final_dist: float
    final_lip: float
    converged: bool
    clip_svds: int = 0


def _l1_ball_threshold(v: np.ndarray, budget: float) -> float:
    """Sort-and-threshold lam with sum(max(0, v - lam)) == budget.

    Ties in v need no care: the threshold depends only on the sorted values,
    and equal fiber norms receive equal shrinkage.
    """
    u = np.sort(v.ravel())[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    mask = u - (css - budget) / j > 0
    # Index 0 always qualifies (u0 - (u0 - budget) = budget > 0), but at
    # fiber norms far above the budget u0 - budget rounds to u0 and the
    # test cancels to 0 for every index.
    mask[0] = True
    rho = int(np.nonzero(mask)[0][-1])
    return float((css[rho] - budget) / (rho + 1))


def _l21_shrink(entries: np.ndarray, center: np.ndarray,
                b: float) -> np.ndarray:
    """Orthogonal projection of an array onto {K : |K - center|_{2,1} <= b}.

    Shift by the center, shrink each fiber's length by the l1-ball
    threshold of the fiber-norm vector (factor max(0, 1 - lam/|v|)), shift
    back. b = 0 returns a copy of the center; a point inside the ball comes
    back as it is. Fiber norms that overflow make the result NaN, which
    every caller rejects.
    """
    if b == 0:
        return center.copy()
    diff = entries - center
    v = fiber_norms(diff)
    if float(v.sum()) <= b:
        return entries
    lam = _l1_ball_threshold(v, b)
    # fibers no longer than lam shrink to 0; the floor keeps lam / v finite
    scale = 1.0 - lam / np.maximum(v, max(lam, 1e-300))
    return center + diff * scale[:, None, :, :]


def project_l21_ball(kernel: KernelTensor, center: KernelTensor, b: float) -> KernelTensor:
    """Orthogonal projection onto {K : |K - center|_{2,1} <= b}, fibers
    along the input-channel axis (see `_l21_shrink`)."""
    if b < 0:
        raise UsageError("radius must be >= 0")
    if kernel.shape != center.shape:
        raise UsageError("kernel and center shapes differ")
    return KernelTensor(_l21_shrink(kernel.entries, center.entries, b))


def project_spectral(kernel: KernelTensor, spec: ConvSpec, s: float) -> KernelTensor:
    """Orthogonal projection onto the full-grid spectral ball Lip <= s.

    Clips every frequency matrix of the kernel's stack at s and inverts at
    all h x w positions. The result generally has full grid support (no
    re-restriction to the tap window here) and comes back in grid order,
    as `lipschitz.embed_kernel_grid` lays a kernel out. Circular stride-1
    only.
    """
    if s < 0:
        raise UsageError("lipschitz bound must be >= 0")
    _require_fft_eligible(kernel, spec)
    c_in, h, w = spec.input_shape
    clip = _RunClip(s)
    clipped = clip.clip(taps_to_stack(kernel.entries, h, w))
    window = KernelTensor(stack_to_taps(clipped, h, w, h, w, clip.scale))
    return KernelTensor(embed_kernel_grid(window, ConvSpec((c_in, h, w),
                                                           (h, w))))


def _unit_gram(stacked: np.ndarray):
    """Each matrix's peak |entry|, the smaller Gram matrix of the matrix
    scaled to unit peak, and whether that is the left one: A A^H if the
    matrices have no more rows than columns (`left`), else A^H A. The
    scaling keeps the Gram matrix from overflowing or underflowing at the
    matrix's own scale; its eigenvalues are the squared singular values
    over the squared peak."""
    left = stacked.shape[1] <= stacked.shape[2]
    peak = np.max(np.abs(stacked), axis=(1, 2))
    divisor = np.where(peak > 0, peak, 1.0)
    # Complex division forms 1 / divisor, which overflows when the peak is
    # subnormal (below 2^-1022): those matrices alone are first scaled by
    # 2^64, exactly.
    if divisor.min(initial=1.0) < 2.0**-1022:
        subnormal = divisor < 2.0**-1022
        stacked = stacked.copy()
        stacked[subnormal] *= 2.0**64
        divisor[subnormal] *= 2.0**64
    unit = stacked / divisor[:, None, None]
    adjoint = unit.conj().swapaxes(1, 2)
    return peak, unit @ adjoint if left else adjoint @ unit, left


def may_reach(estimates: np.ndarray, level: float) -> np.ndarray:
    """Mask of the matrices whose top singular value may be >= level.

    NaN estimates (non-finite input) are kept, so the decomposition still
    sees and reports them.
    """
    return ~(estimates < (1.0 - SCREEN_MARGIN) * level)


class _RunClip:
    """The clip onto C2 for one projection run, with the run's screen
    memory (see the module docstring). Never shared between runs. It takes
    the eigenvalues of each screened frequency's smaller Gram matrix at
    unit peak and moves only the matrices with a singular value above s;
    no SVD runs here."""

    def __init__(self, s: float):
        self.s = s
        self.stack = None   # the last clip input's frequency stack
        self.bound = None   # per frequency, >= that input's sigma_max
        self.svds = 0       # frequency matrices decomposed
        # max(1, the largest bound after the last clip): the input's scale,
        # which bounds the rounding of the clip's output at any s
        self.scale = 1.0

    def clip(self, stacked: np.ndarray) -> np.ndarray:
        """Clip every matrix of a frequency stack at s. The run's first
        clip screens cold: the screen's Gram eigenvalues of the whole stack
        are its decomposition. Later clips screen by and update the run's
        bound, and decompose only what it keeps. Returns a new stack and
        keeps the input as the memory."""
        if math.isinf(self.s):
            return stacked
        cold = self.stack is None
        if cold:
            picked = stacked
        else:
            bound = self.bound + _change_norms(
                np.subtract(stacked, self.stack, order="C"))
            hot = may_reach(bound, self.s)
            picked = stacked[hot]
        # Taking the memory first frees the last clip's stack, and the Gram
        # stack goes before the products, so a warm clip's peak memory
        # stays at a cold clip's.
        self.stack = stacked
        peak, gram, left = _unit_gram(picked)
        try:
            squares = np.linalg.eigvalsh(gram)
        except np.linalg.LinAlgError as exc:
            _require_finite_stack(stacked, exc)
        sv = peak[:, None] * np.sqrt(np.maximum(squares, 0.0))
        if cold:
            bound = sv[:, -1]
            hot = may_reach(bound, self.s)
        else:
            bound[hot] = sv[:, -1]
        self.bound = bound
        self.svds += int(np.count_nonzero(hot))
        top = float(bound.max())
        if not math.isfinite(top):
            _require_finite_stack(stacked)
        self.scale = max(1.0, top)
        # A matrix with no singular value above s clips to itself and
        # passes through untouched. One with exactly one loses the share
        # 1 - s / sigma of its length along that direction alone; one with
        # several goes through `eigh`.
        moves = np.count_nonzero(sv > self.s, axis=1)
        bases = []
        one = moves == 1
        if one.any():
            bases.append((one, *_top_direction(gram[one], squares[one, -1],
                                               1.0 - self.s / sv[one, -1])))
        several = moves > 1
        if several.any():
            bases.append((several, *_directions_above(
                gram[several], peak[several], self.s)))
        del gram
        if cold:
            picked = stacked.copy()
        for mask, vectors, share in bases:
            picked[mask] = _shrink(picked[mask], vectors, share, left)
        if cold:
            return picked
        out = stacked.copy()
        out[hot] = picked
        return out


def _top_direction(gram: np.ndarray, squares: np.ndarray,
                   share: np.ndarray):
    """The top eigenvector v of each unit-peak Gram matrix (which it
    overwrites), given its top eigenvalue, as a one-column `_shrink` basis
    with the share 1 - s / sigma of a matrix with one singular value sigma
    above s, divided by |v|^2 to make up for v's length.

    v comes from two steps of inverse iteration (Golub and Van Loan, 8.2)
    shifted past the top eigenvalue lambda to lambda (1 + 1e-14), which
    eigvalsh places within a few n * eps of it: each step shrinks every
    other direction against v's by at least 1e-14 lambda / (lambda -
    lambda_2). A direction left in v moves the matrix by share times its
    weight, and share is at most the relative gap below s, so the clip
    stays within rounding of the SVD clip however close the second
    singular value sits to s. The start, cos(1), ..., cos(n), has no
    structure in common with a kernel's frequency matrices, so it is
    orthogonal to none of their top eigenvectors but by accident."""
    n = gram.shape[1]
    gram.reshape(len(gram), n * n)[:, ::n + 1] -= squares[:, None] * (
        1 + 1e-14)
    # Each step multiplies v's length by about 1 / (1e-14 lambda), so a
    # start 2^-93 (~1e-28) long gives v about 1 / lambda^2 long (lambda >= 1
    # at unit peak), which keeps `_shrink`'s products in range at any matrix
    # scale; a power of two leaves the bits of every in-range product alone.
    start = np.cos(np.arange(1.0, n + 1))[:, None] * 2.0**-93
    try:
        v = np.linalg.solve(gram, np.linalg.solve(gram, start))
    except np.linalg.LinAlgError as exc:
        _require_finite_stack(gram, exc)
    return v, (share / np.einsum("kij,kij->k", v.conj(), v).real)[:, None]


def _directions_above(gram: np.ndarray, peak: np.ndarray, s: float):
    """Every eigenvector of each unit-peak Gram matrix (`eigh`), as a
    `_shrink` basis, with the share 1 - s / sigma of each singular value
    sigma above s and 0 for the others."""
    try:
        squares, vectors = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        _require_finite_stack(gram, exc)
    sv = peak[:, None] * np.sqrt(np.maximum(squares, 0.0))
    return vectors, np.divide(np.maximum(sv - s, 0.0), sv,
                              out=np.zeros_like(sv), where=sv > 0)


def _shrink(picked: np.ndarray, vectors: np.ndarray, share: np.ndarray,
            left: bool) -> np.ndarray:
    """Take from each matrix W, in place, the given share of its length
    along each column of its basis V: W -= W V diag(share) V^H, with V in
    W's input space, or, `left`, W -= V diag(share) V^H W, in its output
    space. The basis may be overwritten."""
    if left:
        part = np.conj(vectors).swapaxes(1, 2) @ picked
        part *= share[:, :, None]
        picked -= vectors @ part
    else:
        part = picked @ vectors
        part *= share[:, None, :]
        # V^H in place: one stack fewer alive at the last product
        np.conj(vectors, out=vectors)
        picked -= part @ vectors.swapaxes(1, 2)
    return picked


def _change_norms(change: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-ordered stack of changes, which
    it may overwrite, from one einsum. A nonzero change whose sum of squares
    leaves [1e-250, 1e250], where squares may overflow or lose digits to
    underflow, is measured again by `l2_norm`."""
    change = change.view(np.float64).reshape(len(change), -1)
    squares = np.einsum("ij,ij->i", change, change)
    norms = np.sqrt(squares)
    odd = ~((squares >= 1e-250) & (squares <= 1e250))
    if np.any(odd):
        # in place: ADMM's unclipped frequencies change by exactly 0 on
        # every iteration, and a stack-sized temporary per call costs more
        # in page faults than the arithmetic
        np.abs(change, out=change)
        redo = odd & (np.max(change, axis=1) > 0)
        norms[redo] = l2_norm(change[redo], axis=1)
    return norms


def project_support(grid_kernel: KernelTensor, k_h: int, k_w: int) -> KernelTensor:
    """Zero all grid entries outside the k_h x k_w tap window."""
    g = grid_kernel.entries
    h, w = g.shape[2:]
    if k_h > h or k_w > w:
        raise UsageError("support window exceeds the grid")
    rows = (np.arange(k_h) - k_h // 2) % h
    cols = (np.arange(k_w) - k_w // 2) % w
    mask = np.zeros((h, w), dtype=bool)
    mask[rows[:, None], cols[None, :]] = True
    return KernelTensor(np.where(mask, g, 0.0))


def _to_stack(taps: np.ndarray, cs: ConstraintSet) -> np.ndarray:
    return taps_to_stack(taps, *cs.conv.input_shape[1:])


def _to_taps(stacked: np.ndarray, cs: ConstraintSet,
             clip: _RunClip) -> np.ndarray:
    """The taps of a stack the run's `clip` has touched, guarded at the
    clip's input scale."""
    return stack_to_taps(stacked, *cs.conv.input_shape[1:], *cs.support,
                         clip.scale)


def _p_box(taps: np.ndarray, cs: ConstraintSet) -> np.ndarray:
    """The exact projection onto C1 & C3 of a tap-window kernel: its (2,1)
    shrink around the reference taps. Every cycle passes it once, so its
    finiteness check is the cycle's: a NaN from an overflowing shrink stops
    there, before the clip's decomposition."""
    if not math.isinf(cs.distance_bound):
        taps = _l21_shrink(taps, cs.reference.entries, cs.distance_bound)
    if not np.all(np.isfinite(taps)):
        raise UsageError("kernel contains non-finite entries")
    return taps


def _measure(taps: np.ndarray, cs: ConstraintSet) -> tuple[float, float]:
    return (norm_21(taps - cs.reference.entries),
            stack_norm(_to_stack(taps, cs)))


def _rel_excess(value: float, bound: float) -> float:
    excess = max(0.0, value - bound)
    if excess == 0.0:
        return 0.0
    if bound <= 0.0:
        return math.inf
    return excess / bound


def _prepare(kernel: KernelTensor, cs: ConstraintSet) -> np.ndarray:
    _require_fft_eligible(kernel, cs.conv)
    if kernel.c_out != cs.reference.c_out:
        raise UsageError("kernel and reference output channels differ")
    return kernel.entries


def _excess(dist: float, lip: float, cs: ConstraintSet) -> tuple[float, float]:
    return (_rel_excess(dist, cs.distance_bound),
            _rel_excess(lip, cs.lipschitz_bound))


def _report(rounds_run: int, trajectory: list, dist: float, lip: float,
            tol: float, clip_svds: int = 0) -> FeasibilityReport:
    """Report on a run whose last trajectory entry measured the returned
    kernel at (dist, lip)."""
    return FeasibilityReport(
        rounds_run=rounds_run,
        trajectory=trajectory,
        final_dist=dist,
        final_lip=lip,
        converged=max(trajectory[-1]) <= tol,
        clip_svds=clip_svds,
    )


def _cycles(kernel: KernelTensor, cs: ConstraintSet, rounds: int,
            clip: _RunClip):
    """Yield the taps after each of `rounds` cycles C1 & C3 -> C2 -> C3,
    clipping with the run's `clip`: taps -> p_box -> stack -> clip -> taps,
    where inverting only at the taps is the projection onto C3. Without a
    spectral bound the cycle is p_box alone."""
    if rounds < 1:
        raise UsageError("rounds must be >= 1")
    taps = _prepare(kernel, cs)
    for _ in range(rounds):
        taps = _p_box(taps, cs)
        if not math.isinf(clip.s):
            taps = _to_taps(clip.clip(_to_stack(taps, cs)), cs, clip)
        yield taps


def alternating_projections(kernel: KernelTensor, cs: ConstraintSet,
                            rounds: int = DEFAULT_BUDGETS["alternating"],
                            tol: float = DEFAULT_TOL):
    """Cyclic projections C1 & C3 -> C2 -> C3.

    Violations are measured at the end of each full cycle; the support
    constraint holds exactly after its projection, the other two are
    approached. Returns the support-restricted iterate and a report.
    """
    clip = _RunClip(cs.lipschitz_bound)
    trajectory = []
    for taps in _cycles(kernel, cs, rounds, clip):
        dist, lip = _measure(taps, cs)
        trajectory.append(_excess(dist, lip, cs))
    return KernelTensor(taps), _report(rounds, trajectory, dist, lip, tol,
                                       clip.svds)


def alternate(kernel: KernelTensor, cs: ConstraintSet,
              rounds: int) -> KernelTensor:
    """The kernel `alternating_projections` returns, without measuring any
    cycle."""
    for taps in _cycles(kernel, cs, rounds, _RunClip(cs.lipschitz_bound)):
        pass
    return KernelTensor(taps)


def dykstra_iterate(x0: np.ndarray, projections, iterations: int) -> np.ndarray:
    """Generic Dykstra cycle over any list of projection callables.

    Converges to the orthogonal projection of x0 onto the intersection of
    the (convex) sets, unlike plain alternation which only reaches some
    intersection point. Iterates in x0's dtype, promoted to at least float
    (a complex x0 stays complex).
    """
    if iterations < 1:
        raise UsageError("iterations must be >= 1")
    x = np.asarray(x0)
    x = x.astype(np.result_type(x.dtype, float))
    corrections = [np.zeros_like(x) for _ in projections]
    for _ in range(iterations):
        for i, p in enumerate(projections):
            shifted = x + corrections[i]
            x = p(shifted)
            corrections[i] = shifted - x
    return x


def dykstra(kernel: KernelTensor, cs: ConstraintSet,
            iterations: int = DEFAULT_BUDGETS["dykstra"],
            tol: float = DEFAULT_TOL):
    """Dykstra's corrected cycle over C1 & C3 and C2, in stack space.

    Two sets suffice: C3 is a subspace, so a correction for it would never
    move the projected point (Boyle & Dykstra 1986). The iterate is the
    frequency stack: the box step maps it to taps, projects, and maps back;
    the clip step clips it. Stack and real grid are linear images of each
    other and p_box reads only the taps, so this is the grid cycle, with no
    transform of the grid. Only the returned kernel is measured; Dykstra
    iterates are not Fejer monotone, so the iterates before it say little.
    """
    clip = _RunClip(cs.lipschitz_bound)

    def box(stacked):
        return _to_stack(_p_box(_to_taps(stacked, cs, clip), cs), cs)

    stacked = dykstra_iterate(_to_stack(_prepare(kernel, cs), cs),
                              [box, clip.clip], iterations)
    taps = _to_taps(stacked, cs, clip)
    dist, lip = _measure(taps, cs)
    return KernelTensor(taps), _report(
        iterations, [_excess(dist, lip, cs)], dist, lip, tol, clip.svds)


def admm(kernel: KernelTensor, cs: ConstraintSet,
         iterations: int = DEFAULT_BUDGETS["dykstra"],
         tol: float = DEFAULT_TOL):
    """Scaled-form ADMM (Boyd et al. 2011, section 3.1.1) over the two steps
    of `dykstra`: the same nearest point of C1 & C3 and C2, stopped by a
    residual test instead of a fixed count. `iterations` is a cap.

    With t0 the input's taps and x0 = T(t0) their stack, start at z = x0,
    u = 0 and repeat
      p = p_box((t0 + rho T+(z - u)) / (1 + rho)),   z = clip(T(p) + u),
      u += T(p) - z,
    where T is `_to_stack`, T+ is `_to_taps` and rho is the number of
    frequency matrices over 5. The x-update runs on the taps: T is a scaled
    isometry onto them and p_box reads only the taps. The run stops once
    every frequency's |T(p)_f - z_f|_F is at most s tol / 2, which by Weyl's
    inequality certifies lip(p) <= s (1 + tol / 2) while p meets C1 & C3
    exactly, and the relative dual residual rho |z_k - z_{k-1}| is at most
    10 tol |T(p) - x0| (Boyd et al. section 3.3), or after the first
    iteration, p = p_box(t0), if the clip leaves it as it is: it is then the
    nearest point of the intersection. Only the returned p is measured, and
    `rounds_run` counts the iterations used.
    """
    if iterations < 1:
        raise UsageError("iterations must be >= 1")
    taps = _prepare(kernel, cs)
    clip = _RunClip(cs.lipschitz_bound)
    s, rounds = cs.lipschitz_bound, 1
    if math.isinf(s):
        p = _p_box(taps, cs)
    else:
        _, h, w = cs.conv.input_shape
        rho = h * (w // 2 + 1) / 5
        x0 = z = _to_stack(taps, cs)
        u = np.zeros_like(x0)
        for rounds in range(1, iterations + 1):
            p = _p_box(taps if rounds == 1 else   # T+(z - u) = t0 there
                       (taps + rho * _to_taps(z - u, cs, clip)) / (1 + rho),
                       cs)
            stacked = _to_stack(p, cs)
            z_prev, z = z, clip.clip(stacked + u)
            change = np.subtract(stacked, z, order="C")
            u += change     # before the norms, which may overwrite it
            primal = np.max(_change_norms(change))
            del change      # a stack fewer alive through the next clip
            if rounds == 1 and primal == 0:
                break   # the C1 & C3 projection already lies in C2
            if (primal <= 0.5 * tol * s
                    and rho * l2_norm(z - z_prev)
                    <= 10 * tol * l2_norm(stacked - x0)):
                break
    dist, lip = _measure(p, cs)
    return KernelTensor(p), _report(
        rounds, [_excess(dist, lip, cs)], dist, lip, tol, clip.svds)


def radial_project(kernel: KernelTensor, center: KernelTensor, radius: float,
                   norm: str, spec: ConvSpec | None = None) -> KernelTensor:
    """Scale the offset from the center straight onto the ball surface.

    norm is 'l21' (grouped kernel norm) or 'spectral' (conv operator norm,
    needs `spec`). Never closer to the ball than the orthogonal projection,
    and never a shorter move.
    """
    if radius < 0:
        raise UsageError("radius must be >= 0")
    if kernel.shape != center.shape:
        raise UsageError("kernel and center shapes differ")
    diff = kernel.entries - center.entries
    if norm == "l21":
        dist = norm_21(diff) if np.any(diff) else 0.0
    elif norm == "spectral":
        if spec is None:
            raise UsageError("spectral radial projection needs a ConvSpec")
        dist = operator_norm(KernelTensor(diff), spec).value if np.any(diff) else 0.0
    else:
        raise UsageError(f"unknown norm {norm!r}")
    if dist <= radius:
        return kernel
    return KernelTensor(center.entries + diff * (radius / dist))


def radial_cycle(kernel: KernelTensor, cs: ConstraintSet,
                 rounds: int = DEFAULT_BUDGETS["radial"],
                 tol: float = DEFAULT_TOL):
    """Alternate radial moves onto the two balls until both hold.

    The (2,1) ball is centered on the reference, the spectral ball on the
    origin. Returns the last iterate and a report whose `converged` says
    whether both relative excesses fell to tol.
    """
    if rounds < 1:
        raise UsageError("rounds must be >= 1")
    reference = cs.reference.entries
    origin = KernelTensor(np.zeros_like(reference))
    cur = kernel
    trajectory = []
    for _ in range(rounds):
        cur = radial_project(cur, cs.reference, cs.distance_bound, "l21")
        if math.isfinite(cs.lipschitz_bound):
            cur = radial_project(cur, origin, cs.lipschitz_bound, "spectral",
                                 cs.conv)
        dist = norm_21(cur.entries - reference)
        lip = operator_norm(cur, cs.conv).value
        trajectory.append(_excess(dist, lip, cs))
        if max(trajectory[-1]) <= tol:
            break
    return cur, _report(len(trajectory), trajectory, dist, lip, tol)


def init_scale_to_feasible(kernel: KernelTensor, spec: ConvSpec, s: float) -> KernelTensor:
    """Rescale a start kernel so its operator norm equals s exactly.

    The rescaled kernel then sits inside C2, and C1 centered on it holds
    with distance zero. Zero kernels cannot be rescaled.
    """
    if s <= 0:
        raise UsageError("target lipschitz bound must be > 0")
    lip = operator_norm(kernel, spec).value
    if lip == 0.0:
        raise UsageError("cannot rescale a zero kernel to a spectral target")
    return KernelTensor(kernel.entries * (s / lip))
