"""Covering-number and Rademacher capacity bounds for residual conv nets.

Layer (i,j) of block i carries a Lipschitz bound s_ij, a reference-distance
bound b_ij, a following fixed map of Lipschitz rho_ij, and a parameter count
W_ij; block i carries a shortcut Lipschitz g_i and an outer fixed map rho_i.
The per-layer capacity coefficient is

    C_ij = 2 (|X|/sqrt(n)) * (all Lipschitz factors strictly before the
           layer) * b_ij * (rho_ij and all factors strictly after,
           including rho_i)

which telescopes to the familiar product-over-everything divided by the
layer's own s_ij and its block's s_i. The telescoped form is computed here
(no cancellation in floating point) from the factor lists of the network's
covercalc tree, the one route for every coefficient, so the record and
tree routes agree to the bit. Margin-scaled coefficients are
C~_ij = 2 C_ij / gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ResourceError, UsageError

__all__ = [
    "LayerRecord",
    "BlockRecord",
    "CapacityInput",
    "CapacityTerms",
    "BoundReport",
    "capacity_terms",
    "single_layer_cover_bound",
    "whole_network_cover_bound",
    "non_residual_cover_bound",
    "rademacher_clubs",
    "rademacher_spades",
    "generalization_bound",
    "harmonic_number",
    "hurwitz_zeta",
    "psi_correction",
    "binomial_bound_check",
    "cover_value",
    "margin_for_equal_ramp_loss",
    "MarginSearchResult",
    "ComparisonLayerStats",
    "ComparisonDataStats",
    "comparison_suite",
    "leaf_coefficient",
    "safe_ceil",
]

_SHORTCUTS = ("zero", "identity", "fixed")
_GAMMA_MAX = 1e9   # the margin search's upward bracket stops here


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class LayerRecord:
    """A trainable layer's capacity inputs: s_ij, b_ij, rho_ij and W_ij."""

    lip: float                     # s_ij > 0
    dist: float                    # b_ij >= 0
    rho: float = 1.0               # Lipschitz of the following fixed map
    param_count: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lip) and self.lip > 0):
            raise UsageError("layer lipschitz bound must be finite and > 0")
        if not (math.isfinite(self.dist) and self.dist >= 0):
            raise UsageError(
                f"layer distance to the reference (measured, or its bound) "
                f"must be finite and >= 0, got {self.dist!r}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise UsageError("layer rho must be finite and > 0")
        if self.param_count is None or self.param_count < 1:
            raise UsageError("param_count required (>= 1)")

    @property
    def w(self) -> int:
        return int(self.param_count)


@dataclass(frozen=True)
class BlockRecord:
    layers: tuple
    shortcut: str = "zero"         # zero | identity | fixed
    shortcut_lip: float | None = None
    rho: float = 1.0               # Lipschitz of the block's outer fixed map

    def __post_init__(self):
        if not self.layers:
            raise UsageError("a block needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.shortcut not in _SHORTCUTS:
            raise UsageError(f"shortcut must be one of {_SHORTCUTS}")
        if self.shortcut == "zero":
            lip = 0.0
        elif self.shortcut == "identity":
            lip = 1.0
        else:
            if self.shortcut_lip is None or not (
                    math.isfinite(self.shortcut_lip) and self.shortcut_lip >= 0):
                raise UsageError(
                    "fixed shortcut needs a finite nonnegative lipschitz")
            lip = float(self.shortcut_lip)
        if self.shortcut_lip is not None and self.shortcut_lip != lip:
            raise UsageError("shortcut_lip inconsistent with shortcut kind")
        object.__setattr__(self, "shortcut_lip", lip)
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise UsageError("block rho must be finite and > 0")

    def chain_lip(self) -> float:
        """Product of per-layer (s, rho) factors, left to right."""
        p = 1.0
        for layer in self.layers:
            p = p * layer.lip
            p = p * layer.rho
        return p

    def block_lip(self) -> float:
        return self.shortcut_lip + self.chain_lip()


@dataclass(frozen=True)
class CapacityInput:
    blocks: tuple
    n: int
    data_norm: float
    gamma: float

    def __post_init__(self):
        if not self.blocks:
            raise UsageError("need at least one block")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.n < 1:
            raise UsageError("n must be >= 1")
        if not (math.isfinite(self.data_norm) and self.data_norm >= 0):
            raise UsageError("data norm must be finite and >= 0")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise UsageError("gamma must be finite and > 0")

    @property
    def l_bar(self) -> int:
        return sum(len(b.layers) for b in self.blocks)

    @property
    def w_max(self) -> int:
        return max(layer.w for b in self.blocks for layer in b.layers)


# ---------------------------------------------------------------------------
# canonical coefficient machinery (shared with covercalc)


def leaf_coefficient(data_norm: float, n: int, prefix_lips, b: float,
                     trailing_lips) -> float:
    """2 (|X|/sqrt(n)) * prefix * b * trailing, multiplied left to right.

    Factor order is part of the contract: every caller passes the
    leaf_contexts lists of a covercalc tree, so the record and tree routes
    produce identical floats, not just mathematically equal ones.
    """
    c = 2.0 * data_norm / math.sqrt(n)
    for v in prefix_lips:
        c = c * v
    c = c * b
    for v in trailing_lips:
        c = c * v
    return c


_NEG_INF = -math.inf


def _lg(x: float) -> float:
    if x < 0:
        raise UsageError("log10 of a negative factor")
    return math.log10(x) if x > 0 else _NEG_INF


def _lg_add(a: float, b: float) -> float:
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    if lo == math.inf:  # inf - inf would make the sum NaN
        return lo
    return hi + math.log10(1.0 + 10.0 ** (lo - hi))


def _lg_sum(lgs) -> float:
    """log10 of a product given its factors' log10s; it cannot overflow."""
    return _NEG_INF if _NEG_INF in lgs else math.fsum(lgs)


def _lg_ceil(x: float, x_log10: float, power: float):
    """(ceil(x**power), its log10) for x >= 0 given with its log10 x_log10.

    Up to 1e15 the ceiling is an exact int, from x unless x overflowed, and
    at least 1 for x > 0 even where x**power underflows; past 1e15 it no
    longer shows (error < 1e-15) and comes back as None.
    """
    lg = power * x_log10
    if lg > 15.0 or lg == _NEG_INF:
        return (None if lg > 15.0 else 0), lg
    a = max(1, math.ceil(x ** power if x < math.inf else 10.0 ** lg))
    return a, math.log10(a)


def _pow10(x_log10: float) -> float:
    return 10.0 ** x_log10 if x_log10 <= 308 else math.inf


def _report_from_log10(name: str, value_log10: float, extra=None) -> BoundReport:
    if value_log10 == _NEG_INF:
        return BoundReport.of(name, 0.0, extra, log10_value=_NEG_INF)
    value = _pow10(value_log10)
    return BoundReport(name=name, value=value, log10_value=value_log10,
                       breakdown=extra, saturated=not math.isfinite(value))


def _power(x: float, p: float) -> float:
    """x ** p for x >= 0, inf where the result passes the float range
    (Python raises OverflowError there)."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def safe_ceil(x: float):
    """Ceiling that tolerates infinities and rejects NaN."""
    if isinstance(x, float) and math.isnan(x):
        raise UsageError("cannot take the ceiling of NaN")
    if x == math.inf:
        return math.inf
    return math.ceil(x)


def cover_value(coefficients, ws, n: int, eps: float, variant: str) -> float:
    """The closed-form log cover every cover bound assembles from its leaves.

    coefficients and ws list each trainable layer's C and W, in one order:
    norms  : log(2 W_max) * (sum ceil(C^{2/3}))^3 * ceil(n/eps^2)
    params : sum 2 W log(1 + ceil((Lbar C)^2) ceil(n/eps^2)), Lbar the
             number of layers

    A term past the float range saturates the value to inf; every finite
    value is the plain formula's.
    """
    if eps <= 0:
        raise UsageError("eps must be > 0")
    eps_sq = _power(eps, 2)
    # n/eps^2 > 0, so its ceiling is 1 where the quotient underflows
    n_ceil = max(1, safe_ceil(n / eps_sq)) if eps_sq > 0 else math.inf
    if variant == "norms":
        total = 0
        for t in [safe_ceil(c ** (2.0 / 3.0)) for c in coefficients]:
            if t == math.inf:
                return math.inf
            total += t
        if n_ceil == math.inf:
            return math.inf if total > 0 else 0.0
        return math.log(2 * max(ws)) * _power(float(total), 3) * float(n_ceil)
    if variant != "params":
        raise UsageError(f"unknown variant {variant!r}")
    l_bar = float(len(coefficients))
    total = 0.0
    for w, a in [(w, safe_ceil(_power(l_bar * c, 2)))
                 for c, w in zip(coefficients, ws)]:
        if a == math.inf or n_ceil == math.inf:
            if a == 0:
                continue
            return math.inf
        total += 2.0 * w * math.log(1 + a * n_ceil)
    return total


# ---------------------------------------------------------------------------
# capacity terms


@dataclass(frozen=True)
class LayerCapacity:
    block_index: int
    layer_index: int
    c: float
    c_tilde: float
    w: int
    prefix: tuple
    trailing: tuple
    log10_c: float   # log10 of c, finite where c itself overflows


@dataclass(frozen=True)
class CapacityTerms:
    entries: tuple
    l_bar: int
    w_max: int


def capacity_terms(inp: CapacityInput) -> CapacityTerms:
    """Per-layer coefficients C_ij and margin-scaled C~_ij = 2 C_ij / gamma.

    The factor lists are the leaf contexts of residual_chain_tree(inp), so
    this route and the tree calculus share one traversal. log10 C_ij, the
    fsum of the same factors' logs, stays finite where C_ij overflows.
    """
    # local import: covercalc imports this module, and loading it only when
    # a bound is computed keeps it out of every CLI start-up
    from .covercalc import leaf_contexts, residual_chain_tree

    positions = [(i, j) for i, blk in enumerate(inp.blocks)
                 for j in range(len(blk.layers))]
    entries = []
    tree = residual_chain_tree(inp)
    for (i, j), ctx in zip(positions, leaf_contexts(tree)):
        c = leaf_coefficient(inp.data_norm, inp.n, ctx.prefix, ctx.leaf.dist,
                             ctx.trailing)
        log10_c = _lg_sum([_lg(2.0), _lg(inp.data_norm),
                           _lg(1.0 / math.sqrt(inp.n)), *ctx.log10_prefix,
                           _lg(ctx.leaf.dist), *ctx.log10_trailing])
        entries.append(LayerCapacity(i, j, c, (2.0 * c) / inp.gamma,
                                     ctx.leaf.w, ctx.prefix, ctx.trailing,
                                     log10_c))
    return CapacityTerms(tuple(entries), inp.l_bar, inp.w_max)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: float
    log10_value: float | None = None
    breakdown: dict | None = None
    saturated: bool = False
    absent: bool = False
    reason: str | None = None

    @staticmethod
    def of(name: str, value: float, breakdown: dict | None = None,
           log10_value: float | None = None) -> "BoundReport":
        if log10_value is None:
            if value > 0:  # log10 of a saturated (inf) value is inf
                log10_value = math.log10(value)
            elif value == 0:
                log10_value = -math.inf
        return BoundReport(name=name, value=value, log10_value=log10_value,
                           breakdown=breakdown,
                           saturated=not math.isfinite(value))

    @staticmethod
    def missing(name: str, reason: str) -> "BoundReport":
        return BoundReport(name=name, value=math.nan, log10_value=None,
                           absent=True, reason=reason)


# ---------------------------------------------------------------------------
# covering bounds


def single_layer_cover_bound(w: int, data_norm: float, b: float, eps: float,
                             variant: str = "norms") -> float:
    """Log covering number of one norm-ball conv layer on a fixed batch.

    variant 'norms'  : ceil(|X|^2 b^2 / eps^2) * log(2W)
    variant 'params' : 2W * log(1 + ceil(...))
    variant 'params_appendix' : (2W - 1) * log(1 + ceil(...))
    """
    if eps <= 0:
        raise UsageError("eps must be > 0")
    if w < 1:
        raise UsageError("W must be >= 1")
    if b < 0 or data_norm < 0:
        raise UsageError("b and |X| must be >= 0")
    m = safe_ceil(_power((data_norm * b) / eps, 2))
    if variant == "norms":
        if m == math.inf:
            return math.inf
        return float(m) * math.log(2 * w)
    if variant == "params":
        return 2.0 * w * (math.inf if m == math.inf else math.log(1 + m))
    if variant == "params_appendix":
        return (2.0 * w - 1.0) * (math.inf if m == math.inf else math.log(1 + m))
    raise UsageError(f"unknown variant {variant!r}")


def whole_network_cover_bound(inp: CapacityInput, eps: float,
                              variant: str = "norms") -> BoundReport:
    """Log covering number of the whole residual network at radius eps.

    'norms'  : log(2 W_max) * (sum_ij ceil(C_ij^{2/3}))^3 * ceil(n/eps^2)
    'params' : sum_ij 2 W_ij log(1 + ceil(Lbar^2 C_ij^2) ceil(n/eps^2))
    """
    terms = capacity_terms(inp)
    value = cover_value([e.c for e in terms.entries],
                        [e.w for e in terms.entries], inp.n, eps, variant)
    breakdown = {
        f"C[{e.block_index}][{e.layer_index}]": e.c for e in terms.entries
    }
    return BoundReport.of(f"cover_{variant}", value, breakdown)


def non_residual_cover_bound(layers, n: int, data_norm: float, eps: float,
                             variant: str = "norms") -> BoundReport:
    """Chain-network special case: the tree bound of plain_chain_tree(layers).

    That tree ends with the trivial outer factor 1.0, so it agrees
    bit-for-bit with whole_network_cover_bound on a single zero-shortcut
    block. The params variant keeps the Lbar^2 factor of the general
    theorem.
    """
    from .covercalc import evaluate_tree, plain_chain_tree  # see capacity_terms

    layers = tuple(layers)
    if not layers:
        raise UsageError("need at least one layer")
    tree = evaluate_tree(plain_chain_tree(layers), n, data_norm, eps, variant)
    return BoundReport.of(f"chain_cover_{variant}", tree.value, {
        f"C[{j}]": c for j, c in enumerate(tree.breakdown.values())})


# ---------------------------------------------------------------------------
# special functions


def harmonic_number(m: int) -> float:
    """H_m as a plain float sum (H_0 = 0)."""
    if m < 0:
        raise UsageError("harmonic_number needs m >= 0")
    if m == 0:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, m + 1, dtype=np.float64)))


def hurwitz_zeta(s: float, q: float, tol: float = 1e-12) -> float:
    """sum_{n>=0} (q+n)^{-s} by direct summation plus a tail estimate.

    The tail past N is replaced by its integral plus half the first term
    plus the first Euler-Maclaurin correction; the error of that estimate
    is below the next correction's magnitude, which is driven under tol by
    doubling N. Needs s > 1 and q > 0.
    """
    if s <= 1:
        raise UsageError("hurwitz_zeta needs s > 1")
    if q <= 0:
        raise UsageError("hurwitz_zeta needs q > 0")
    if tol <= 0:
        raise UsageError("tol must be > 0")
    n_terms = 16
    while True:
        edge = q + n_terms
        err = s * (s + 1) * (s + 2) / 720.0 * edge ** (-s - 3)
        if err <= tol or n_terms >= 1 << 24:
            break
        n_terms *= 2
    grid = q + np.arange(n_terms, dtype=np.float64)
    partial = float(math.fsum((grid ** (-s)).tolist()))
    edge = q + n_terms
    tail = edge ** (1 - s) / (s - 1) + 0.5 * edge ** (-s) + s / 12.0 * edge ** (-s - 1)
    return partial + tail


_ZETA_32_AT_1 = None


def _zeta_32() -> float:
    global _ZETA_32_AT_1
    if _ZETA_32_AT_1 is None:
        _ZETA_32_AT_1 = hurwitz_zeta(1.5, 1.0)
    return _ZETA_32_AT_1


def psi_correction(x) -> float:
    """zeta(3/2,1)^{1/3} zeta(3/2, 1+1/x)^{2/3} for x > 0, with psi(0) = 0.

    Monotone increasing in x and bounded by zeta(3/2) < 2.7; accepts the
    ceiling integers the bounds produce, including math.inf.
    """
    if x == 0:
        return 0.0
    if x < 0:
        raise UsageError("psi_correction needs x >= 0")
    q = 1.0 if x == math.inf else 1.0 + 1.0 / float(x)
    return _zeta_32() ** (1.0 / 3.0) * hurwitz_zeta(1.5, q) ** (2.0 / 3.0)


def binomial_bound_check(n: int, k: int):
    """Exact C(n+k, k) against its two closed-form upper bounds."""
    if n < 0 or k < 0:
        raise UsageError("need n, k >= 0")
    if n + k > 100_000:
        raise ResourceError("binomial check capped at n + k <= 100000")
    exact = math.comb(n + k, k)
    bound_norms = (k + 1) ** n
    bound_params = (n + 1) ** k
    return {
        "exact": exact,
        "bound_norms": bound_norms,
        "bound_params": bound_params,
        "ok": exact <= min(bound_norms, bound_params),
    }


# ---------------------------------------------------------------------------
# Rademacher bounds


def rademacher_clubs(inp: CapacityInput) -> BoundReport:
    """4/n + 12 H_{n-1}/sqrt(n) * sqrt(log 2W) * (sum ceil(C~^{2/3}))^{3/2}.

    The tail is assembled in log10 and evaluated as 10**log10, so a tail
    past the float range saturates (value inf, finite log10), and zero
    distances give exactly 4/n. The ceiling sum is an exact int unless a
    term is past 1e15.
    """
    if inp.n < 2:
        raise UsageError("the harmonic-number route needs n >= 2")
    terms = capacity_terms(inp)
    lg_scale = _lg(2.0 / inp.gamma)
    total, lg_rest = 0, _NEG_INF
    for e in terms.entries:
        a, lg_a = _lg_ceil(e.c_tilde, e.log10_c + lg_scale, 2.0 / 3.0)
        if a is None:
            lg_rest = _lg_add(lg_rest, lg_a)
        else:
            total += a
    lg_sum = _lg_add(_lg(total), lg_rest)
    h = harmonic_number(inp.n - 1)
    lg_tail = (_lg(12.0 * h) + 1.5 * lg_sum
               + 0.5 * (_lg(math.log(2 * terms.w_max)) - _lg(inp.n)))
    breakdown = {"harmonic": h, "w_max": terms.w_max,
                 "ceil_sum": total if lg_rest == _NEG_INF else _pow10(lg_sum)}
    if lg_tail > 308:  # 4/n no longer shows
        return _report_from_log10("clubs", lg_tail, breakdown)
    return BoundReport.of("clubs", 4.0 / inp.n + 10.0 ** lg_tail, breakdown)


def rademacher_spades(inp: CapacityInput, appendix_counts: bool = False) -> BoundReport:
    """12/sqrt(n) * sqrt(sum 2W (log(1 + ceil((Lbar C~)^2)) + psi(...))).

    appendix_counts swaps the per-layer 2W for 2W - 1. A ceiling past 1e15
    enters through its log10, with psi at its limit.
    """
    terms = capacity_terms(inp)
    l_bar = float(terms.l_bar)
    lg_scale = _lg(2.0 * l_bar / inp.gamma)
    total = 0.0
    per_layer = {}
    for e in terms.entries:
        a, lg_a = _lg_ceil(l_bar * e.c_tilde, e.log10_c + lg_scale, 2.0)
        w_coef = 2.0 * e.w - 1.0 if appendix_counts else 2.0 * e.w
        if a is None:
            contrib = w_coef * (lg_a * math.log(10.0)
                                + psi_correction(math.inf))
        else:
            contrib = w_coef * (math.log(1 + a) + psi_correction(a))
        per_layer[f"[{e.block_index}][{e.layer_index}]"] = contrib
        total += contrib
    value = 12.0 / math.sqrt(inp.n) * math.sqrt(total)
    return BoundReport.of("spades", value, per_layer)


def generalization_bound(inp: CapacityInput, ramp_risk_value: float,
                         delta: float, which: str = "clubs") -> BoundReport:
    """Test-error bound: ramp risk + 2 Rad + 3 sqrt(log(2/delta) / (2n))."""
    if not (0 < delta < 1):
        raise UsageError("delta must lie in (0, 1)")
    if not (0 <= ramp_risk_value <= 1):
        raise UsageError("ramp risk must lie in [0, 1]")
    if which == "clubs":
        rad = rademacher_clubs(inp)
    elif which == "spades":
        rad = rademacher_spades(inp)
    else:
        raise UsageError(f"unknown Rademacher choice {which!r}")
    conf = 3.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * inp.n))
    value = ramp_risk_value + 2.0 * rad.value + conf
    return BoundReport.of(f"generalization_{which}", value, {
        "ramp_risk": ramp_risk_value,
        "rademacher": rad.value,
        "confidence": conf,
    })


# ---------------------------------------------------------------------------
# margin search


@dataclass(frozen=True)
class MarginSearchResult:
    found: bool
    gamma: float
    achieved_risk: float
    target_risk: float


def margin_for_equal_ramp_loss(logits_ref: np.ndarray, labels_ref: np.ndarray,
                               gamma_ref: float, logits_new: np.ndarray,
                               labels_new: np.ndarray,
                               tol: float = 1e-6) -> MarginSearchResult:
    """Find gamma so the new model's ramp risk equals the reference's.

    The target is the reference model's ramp risk at gamma_ref. Ramp risk is
    nondecreasing and continuous in gamma, so bisection applies once gamma
    is bracketed by doubling up to _GAMMA_MAX or halving down to 1e-12; an
    unattainable target is reported through found=False, never raised.
    """
    from .traindemo import ramp_risk  # local import, traindemo sits above

    if not (gamma_ref > 0):
        raise UsageError("gamma_ref must be > 0")
    target = ramp_risk(logits_ref, labels_ref, gamma_ref)

    def risk(g: float) -> float:
        return ramp_risk(logits_new, labels_new, g)

    if abs(risk(gamma_ref) - target) <= tol:
        return MarginSearchResult(True, gamma_ref, risk(gamma_ref), target)

    lo, hi = None, None
    g = gamma_ref
    if risk(g) < target:
        while g < _GAMMA_MAX:
            nxt = min(g * 2.0, _GAMMA_MAX)
            if risk(nxt) >= target:
                lo, hi = g, nxt
                break
            g = nxt
        if lo is None:
            return MarginSearchResult(False, math.nan, risk(_GAMMA_MAX), target)
    else:
        while g > 1e-12:
            nxt = g / 2.0
            if risk(nxt) <= target:
                lo, hi = nxt, g
                break
            g = nxt
        if lo is None:
            return MarginSearchResult(False, math.nan, risk(1e-12), target)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = risk(mid)
        if abs(r - target) <= tol:
            return MarginSearchResult(True, mid, r, target)
        if r < target:
            lo = mid
        else:
            hi = mid
    r = risk(0.5 * (lo + hi))
    return MarginSearchResult(abs(r - target) <= 10 * tol, 0.5 * (lo + hi), r, target)


# ---------------------------------------------------------------------------
# published-bound comparison table


@dataclass(frozen=True)
class ComparisonLayerStats:
    """Measured statistics of one layer of a plain chain, for the comparison
    rows.

    Kernel statistics are raw; the *_diff ones are of the change from the
    layer's reference kernel. A layer that is not trained, such as the
    fixed classifier head, has zero change and still enters every row's
    end-to-end function.
    """

    lip: float
    w: int
    d: int
    t: int
    k: int
    c_in: int
    c_out: int
    sum_out_l2_diff: float
    max_out_l1: float
    max_out_l1_diff: float
    max_out_l2: float
    frob: float
    frob_diff: float

    def __post_init__(self):
        if not (self.lip > 0):
            raise UsageError("layer lip must be > 0")
        if min(self.w, self.d, self.t, self.k, self.c_in, self.c_out) < 1:
            raise UsageError("geometry fields must be >= 1")


@dataclass(frozen=True)
class ComparisonDataStats:
    """Data statistics for the comparison rows, plus the network's own
    BlockRecords, shortcuts included, on which the ours_* rows run."""

    data_norm: float
    max_linf: float
    max_coord_sq_sum: float
    patch_norms: tuple  # B_0 (the input's) .. B_L from a forward pass
    blocks: tuple

    def __post_init__(self):
        if not self.patch_norms:
            raise UsageError("need at least the input's patch norm")


def comparison_suite(stats, data: ComparisonDataStats, n: int, gamma: float,
                     kappa: int) -> dict:
    """Every published bound evaluated on the same measured statistics.

    Returns a name -> BoundReport dict. The ours_* rows are
    rademacher_clubs and rademacher_spades themselves on data.blocks (the
    network's own records, shortcuts included). The other rows run in
    log10 space so products of many layer norms cannot overflow; ledent_main
    is marked absent, with the reason, when the patch norms do not match
    the layers or one after the input is zero.
    """
    stats = tuple(stats)
    if not stats:
        raise UsageError("need at least one layer of statistics")
    if n < 2 or kappa < 2 or not (gamma > 0):
        raise UsageError("need n >= 2, kappa >= 2, gamma > 0")
    big_l = len(stats)
    lg_n = _lg(float(n))
    lg_x = _lg(data.data_norm)
    lg_prod_s = math.fsum(_lg(st.lip) for st in stats)
    rows: dict[str, BoundReport] = {}

    def d_next(i: int) -> int:
        if i + 1 < big_l:
            return stats[i + 1].d
        return max(1, stats[i].d // stats[i].t)

    # ---- ours: the headline bounds on the network's records ---------------
    inp = CapacityInput(data.blocks, n, data.data_norm, gamma)
    for name, bound in (("ours_clubs", rademacher_clubs),
                        ("ours_spades", rademacher_spades)):
        rows[name] = replace(bound(inp), name=name, breakdown=None)

    # ---- Bartlett-style spectral product ----------------------------------
    ssum = _NEG_INF
    for st in stats:
        if st.sum_out_l2_diff == 0:
            continue
        width_factor = 2.0 * st.w * st.d**2 / (st.t**2 * st.k**2)
        term = (_lg(math.log(width_factor)) + 4.0 * _lg(float(st.d))
                - 4.0 * _lg(float(st.t)) + 2.0 * _lg(st.sum_out_l2_diff)
                - 2.0 * _lg(st.lip))
        ssum = _lg_add(ssum, (1.0 / 3.0) * term)
    tail = (_lg(48.0) - _lg(gamma) + lg_x - 0.5 * lg_n + lg_prod_s
            + 1.5 * ssum + _lg(math.log(n)) - 0.5 * lg_n)
    rows["bartlett"] = _report_from_log10(
        "bartlett", _lg_add(_lg(4.0) - lg_n, tail))

    # ---- Ledent-style patch rows ------------------------------------------
    def ledent_tail(lg_r_terms, r_linear_max_parts):
        lg_big_r = _NEG_INF
        for lr in lg_r_terms:
            lg_big_r = _lg_add(lg_big_r, (2.0 / 3.0) * lr)
        lg_big_r *= 1.5
        lg_gamma_max = _NEG_INF
        for lr, dn, co in r_linear_max_parts:
            lg_gamma_max = max(lg_gamma_max, lr + 2.0 * _lg(float(dn)) + _lg(float(co)))
        w_bar = max(st.d**2 * st.c_in for st in stats)
        lg_log_arg = _lg_add(_lg(32.0) + lg_gamma_max + 2.0 * lg_n,
                             _lg(7.0 * w_bar) + lg_n)
        # sqrt(log2(arg)): arg >= 7 here, safe in linear space via log10
        log2_arg = lg_log_arg / math.log10(2.0)
        return (_lg(768.0) + lg_big_r + 0.5 * _lg(log2_arg)
                + _lg(math.log(n)) - 0.5 * lg_n)

    b_vals = data.patch_norms
    if len(b_vals) != big_l + 1:
        rows["ledent_main"] = BoundReport.missing(
            "ledent_main", f"needs {big_l + 1} patch norms, got {len(b_vals)}")
    elif big_l > 1 and min(b_vals[1:]) == 0:
        # A dead layer (all activations zero) leaves 0 * inf terms: the
        # bound divides by every patch norm after the input.
        dead = b_vals.index(0.0, 1)
        rows["ledent_main"] = BoundReport.missing(
            "ledent_main", f"patch norm {dead} is zero and the bound "
            "divides by it")
    else:
        lg_r, parts = [], []
        for i, st in enumerate(stats):
            a_i = st.frob_diff if i == big_l - 1 else st.sum_out_l2_diff
            if i == big_l - 1:
                lg_rho = -_lg(gamma)
            else:
                best = _NEG_INF
                run = 0.0
                for u in range(i, big_l):
                    if u > i:
                        run += _lg(stats[u].lip)
                    best = max(best, run - _lg(b_vals[u + 1]))
                lg_rho = _lg(float(d_next(i))) + best
            lr = _lg(a_i) + _lg(b_vals[i]) + lg_rho
            lg_r.append(lr)
            parts.append((lr, d_next(i), st.c_out))
        rows["ledent_main"] = _report_from_log10(
            "ledent_main", ledent_tail(lg_r, parts))

    lg_front = (_lg(b_vals[0]) - _lg(gamma) + _lg(stats[-1].max_out_l2)
                + math.fsum(_lg(st.lip) for st in stats[:-1]))
    lg_r, parts = [], []
    for i, st in enumerate(stats):
        lr = (lg_front + _lg(float(d_next(i)))
              + _lg(st.sum_out_l2_diff) - _lg(st.lip))
        lg_r.append(lr)
        parts.append((lr, d_next(i), st.c_out))
    rows["ledent_fixed"] = _report_from_log10(
        "ledent_fixed", _lg_add(_lg(4.0) - lg_n, ledent_tail(lg_r, parts)))

    # ---- Lin-style fourth root --------------------------------------------
    inner = _NEG_INF
    for st in stats:
        inner = _lg_add(inner, 2.0 * _lg(float(st.w)) + _lg(float(st.d))
                        - _lg(float(st.t)) + _lg(st.frob) - _lg(st.lip))
    inner = (_lg(2.0) - _lg(gamma) + lg_x - 0.5 * lg_n
             + 2.0 * _lg(float(big_l)) + lg_prod_s + inner)
    rows["lin"] = _report_from_log10(
        "lin", _lg(16.0) + 0.25 * inner - 0.5 * lg_n)

    # ---- layer-peeling group, (1, inf) flavor ------------------------------
    c1d1 = stats[0].c_in * stats[0].d ** 2
    lg_prod_l1 = math.fsum(_lg(st.max_out_l1) for st in stats)
    rows["neyshabur_l1inf"] = _report_from_log10(
        "neyshabur_l1inf",
        big_l * _lg(2.0) + _lg(float(kappa)) + lg_prod_l1
        + _lg(math.log(2 * c1d1)) + _lg(data.max_linf) - 0.5 * lg_n)
    rows["golowich_l1inf"] = _report_from_log10(
        "golowich_l1inf",
        _lg(2.0) + _lg(float(kappa))
        + 0.5 * _lg(big_l + 1 + math.log(c1d1)) + lg_prod_l1
        + 0.5 * (_lg(data.max_coord_sq_sum) - lg_n) - 0.5 * lg_n)
    ratio = _NEG_INF
    for st in stats:
        if st.max_out_l1_diff == 0:
            continue
        if st.max_out_l1 == 0:
            ratio = math.inf
            break
        ratio = _lg_add(ratio, _lg(st.max_out_l1_diff) - _lg(st.max_out_l1))
    rows["gouk_l1inf"] = _report_from_log10(
        "gouk_l1inf",
        (big_l + 1) * _lg(2.0) + _lg(float(kappa))
        + 0.5 * _lg(math.log(2 * c1d1)) + lg_prod_l1 + ratio
        + _lg(data.max_linf) - 0.5 * lg_n)

    # ---- layer-peeling group, Frobenius flavor ------------------------------
    lg_prod_frob = math.fsum(
        _lg(float(st.d) / st.t) + _lg(st.frob) for st in stats)
    rows["neyshabur_l2"] = _report_from_log10(
        "neyshabur_l2",
        (big_l - 1) * _lg(2.0) + _lg(float(kappa)) + lg_x - 0.5 * lg_n
        + lg_prod_frob - 0.5 * lg_n)
    rows["golowich_l2"] = _report_from_log10(
        "golowich_l2",
        _lg(float(kappa)) + lg_x - 0.5 * lg_n + lg_prod_frob
        + _lg(math.sqrt(2.0 * math.log(2.0) * big_l) + 1.0) - 0.5 * lg_n)
    lg_prod_wide = math.fsum(
        2.0 * _lg(float(st.d)) - _lg(float(st.t))
        + 0.5 * _lg(float(st.c_in)) + _lg(st.frob) for st in stats)
    ratio = _NEG_INF
    run = 0.0
    for st in stats:
        run += _lg(float(st.d)) + 0.5 * _lg(float(st.c_in))
        if st.frob_diff == 0:
            continue
        if st.frob == 0:
            ratio = math.inf
            break
        ratio = _lg_add(ratio, _lg(st.frob_diff) - _lg(st.frob) - run)
    rows["gouk_l2"] = _report_from_log10(
        "gouk_l2",
        big_l * _lg(2.0) + 0.5 * _lg(2.0) + _lg(float(kappa))
        + lg_x - 0.5 * lg_n + lg_prod_wide + ratio - 0.5 * lg_n)
    return rows
