import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbound import ResourceError, UsageError
from capbound.capacity import (
    BlockRecord,
    BoundReport,
    CapacityInput,
    ComparisonDataStats,
    ComparisonLayerStats,
    LayerRecord,
    binomial_bound_check,
    capacity_terms,
    comparison_suite,
    generalization_bound,
    harmonic_number,
    hurwitz_zeta,
    non_residual_cover_bound,
    psi_correction,
    rademacher_clubs,
    rademacher_spades,
    single_layer_cover_bound,
    whole_network_cover_bound,
)

from oracles import crude_hurwitz_zeta

# mpmath, 30 digits
ZETA_32_1 = 2.61237534868548834334856756792
ZETA_32_2 = 1.61237534868548834334856756792
ZETA_32_15 = 1.94811082280864315097325022094
ZETA_52_325 = 0.14333130965938579096997822148
PSI_AT_1 = 1.89374991100769714159332313516


def layer(s=1.0, b=1.0, rho=1.0, w=1):
    return LayerRecord(lip=s, dist=b, rho=rho, param_count=w)


def chain_input(layers, n=4, data_norm=1.0, gamma=2.0):
    block = BlockRecord(layers=tuple(layers), shortcut="zero", rho=1.0)
    return CapacityInput(blocks=(block,), n=n, data_norm=data_norm, gamma=gamma)


# ---------------------------------------------------------------------------
# special functions


def test_hurwitz_zeta_frozen_values():
    assert hurwitz_zeta(1.5, 1.0) == pytest.approx(ZETA_32_1, abs=1e-11)
    assert hurwitz_zeta(1.5, 2.0) == pytest.approx(ZETA_32_2, abs=1e-11)
    assert hurwitz_zeta(1.5, 1.5) == pytest.approx(ZETA_32_15, abs=1e-11)
    assert hurwitz_zeta(2.5, 3.25) == pytest.approx(ZETA_52_325, abs=1e-11)


def test_hurwitz_zeta_against_crude_oracle():
    for s, q in [(1.5, 1.0), (1.7, 0.4), (3.0, 2.5)]:
        want = crude_hurwitz_zeta(s, q, terms=300_000)
        assert hurwitz_zeta(s, q) == pytest.approx(want, abs=1e-7)


def test_hurwitz_zeta_rejects_bad_arguments():
    with pytest.raises(UsageError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(UsageError):
        hurwitz_zeta(0.5, 1.0)
    with pytest.raises(UsageError):
        hurwitz_zeta(1.5, 0.0)
    with pytest.raises(UsageError):
        hurwitz_zeta(1.5, 1.0, tol=0.0)


def test_psi_correction_values_and_bounds():
    assert psi_correction(0) == 0.0
    assert psi_correction(1) == pytest.approx(PSI_AT_1, abs=1e-11)
    assert psi_correction(math.inf) == pytest.approx(ZETA_32_1, abs=1e-11)
    xs = [1e-6, 1e-3, 0.5, 1.0, 3.0, 1e2, 1e6, 1e12]
    vals = [psi_correction(x) for x in xs]
    for v in vals:
        assert 0 < v < 2.7
    for lo, hi in zip(vals, vals[1:]):
        assert lo < hi
    with pytest.raises(UsageError):
        psi_correction(-1.0)


def test_harmonic_number_values():
    assert harmonic_number(0) == 0.0
    assert harmonic_number(1) == 1.0
    assert harmonic_number(3) == pytest.approx(11 / 6, abs=1e-15)
    with pytest.raises(UsageError):
        harmonic_number(-1)


def test_harmonic_log_gap_spot_checks():
    for n in (2, 10, 1000, 100_000):
        assert harmonic_number(n - 1) < math.log(n) + 0.58


# ---------------------------------------------------------------------------
# single layer


def test_single_layer_frozen_unit_case():
    assert single_layer_cover_bound(1, 1.0, 1.0, 1.0) == math.log(2)
    assert single_layer_cover_bound(1, 1.0, 1.0, 1.0, "params") == 2 * math.log(2)
    got = single_layer_cover_bound(1, 1.0, 1.0, 1.0, "params_appendix")
    assert got == math.log(2)


def test_single_layer_zero_ball_is_free():
    assert single_layer_cover_bound(5, 2.0, 0.0, 0.1) == 0.0
    assert single_layer_cover_bound(5, 2.0, 0.0, 0.1, "params") == 0.0


def test_single_layer_validation():
    with pytest.raises(UsageError):
        single_layer_cover_bound(1, 1.0, 1.0, 0.0)
    with pytest.raises(UsageError):
        single_layer_cover_bound(0, 1.0, 1.0, 1.0)
    with pytest.raises(UsageError):
        single_layer_cover_bound(1, 1.0, -1.0, 1.0)
    with pytest.raises(UsageError):
        single_layer_cover_bound(1, 1.0, 1.0, 1.0, "nope")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.floats(0.01, 50.0),
    st.floats(0.0, 50.0),
    st.floats(0.01, 10.0),
    st.floats(0.01, 10.0),
)
def test_single_layer_monotone_in_radius(w, x, b, e1, e2):
    lo, hi = min(e1, e2), max(e1, e2)
    for variant in ("norms", "params"):
        wide = single_layer_cover_bound(w, x, b, hi, variant)
        tight = single_layer_cover_bound(w, x, b, lo, variant)
        assert tight >= wide


# ---------------------------------------------------------------------------
# records and per-layer coefficients


def test_record_validation():
    with pytest.raises(UsageError):
        LayerRecord(lip=0.0, dist=0.0, param_count=1)
    with pytest.raises(UsageError):
        LayerRecord(lip=1.0, dist=-1.0, param_count=1)
    with pytest.raises(UsageError):
        LayerRecord(lip=1.0, dist=0.0, rho=0.0, param_count=1)
    with pytest.raises(UsageError):
        LayerRecord(lip=1.0, dist=0.0)  # no param count
    with pytest.raises(UsageError):
        BlockRecord(layers=())
    with pytest.raises(UsageError):
        BlockRecord(layers=(layer(),), shortcut="skip")
    with pytest.raises(UsageError):
        BlockRecord(layers=(layer(),), shortcut="fixed")  # lip missing
    with pytest.raises(UsageError):
        BlockRecord(layers=(layer(),), shortcut="identity", shortcut_lip=3.0)
    with pytest.raises(UsageError):
        CapacityInput(blocks=(), n=4, data_norm=1.0, gamma=1.0)
    with pytest.raises(UsageError):
        chain_input([layer()], n=0)
    with pytest.raises(UsageError):
        chain_input([layer()], gamma=0.0)


@pytest.mark.parametrize("build", [
    lambda bad: layer(s=bad),
    lambda bad: layer(b=bad),
    lambda bad: layer(rho=bad),
    lambda bad: BlockRecord(layers=(layer(),), shortcut="fixed",
                            shortcut_lip=bad),
    lambda bad: BlockRecord(layers=(layer(),), rho=bad),
    lambda bad: chain_input([layer()], data_norm=bad),
    lambda bad: chain_input([layer()], gamma=bad),
], ids=["lip", "dist", "rho", "shortcut_lip", "block rho", "data_norm",
        "gamma"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_records_reject_non_finite_numbers(build, bad):
    with pytest.raises(UsageError):
        build(bad)


def test_shortcut_kinds_resolve_lipschitz():
    assert BlockRecord(layers=(layer(),), shortcut="zero").shortcut_lip == 0.0
    assert BlockRecord(layers=(layer(),), shortcut="identity").shortcut_lip == 1.0
    blk = BlockRecord(layers=(layer(),), shortcut="fixed", shortcut_lip=2.5)
    assert blk.shortcut_lip == 2.5
    assert blk.block_lip() == 2.5 + 1.0


def test_capacity_terms_hand_example():
    block = BlockRecord(
        layers=(layer(s=2.0, b=3.0, rho=5.0), layer(s=7.0, b=11.0, rho=13.0)),
        shortcut="identity",
        rho=17.0,
    )
    inp = CapacityInput(blocks=(block,), n=4, data_norm=3.0, gamma=2.0)
    terms = capacity_terms(inp)
    # 2 * 3/sqrt(4) = 3; own s and the block lip never enter
    assert terms.entries[0].c == 3.0 * 3.0 * 5.0 * 7.0 * 13.0 * 17.0
    assert terms.entries[1].c == 3.0 * 2.0 * 5.0 * 11.0 * 13.0 * 17.0
    assert terms.entries[0].c_tilde == terms.entries[0].c
    assert terms.l_bar == 2


def test_capacity_terms_cross_block_prefix():
    b0 = BlockRecord(layers=(layer(s=2.0, b=1.0, rho=3.0),),
                     shortcut="identity", rho=5.0)
    b1 = BlockRecord(layers=(layer(s=1.0, b=7.0, rho=1.0),),
                     shortcut="zero", rho=1.0)
    inp = CapacityInput(blocks=(b0, b1), n=1, data_norm=1.0, gamma=1.0)
    terms = capacity_terms(inp)
    lip0 = 1.0 + 2.0 * 3.0
    assert terms.entries[0].c == 2.0 * 1.0 * 3.0 * 5.0 * (0.0 + 1.0) * 1.0
    assert terms.entries[1].c == 2.0 * lip0 * 5.0 * 7.0 * 1.0 * 1.0


def test_capacity_terms_match_independent_recomputation():
    rng = np.random.default_rng(40)
    for _ in range(10):
        blocks = []
        for _ in range(int(rng.integers(1, 4))):
            layers = tuple(
                layer(s=float(rng.uniform(0.5, 2.0)),
                      b=float(rng.uniform(0.0, 3.0)),
                      rho=float(rng.uniform(0.5, 1.5)),
                      w=int(rng.integers(1, 50)))
                for _ in range(int(rng.integers(1, 4)))
            )
            kind = ("zero", "identity", "fixed")[int(rng.integers(0, 3))]
            blocks.append(BlockRecord(
                layers=layers, shortcut=kind,
                shortcut_lip=float(rng.uniform(0.1, 2.0)) if kind == "fixed" else None,
                rho=float(rng.uniform(0.5, 1.5))))
        inp = CapacityInput(blocks=tuple(blocks), n=int(rng.integers(1, 100)),
                            data_norm=float(rng.uniform(0.1, 5.0)),
                            gamma=float(rng.uniform(0.1, 3.0)))
        terms = capacity_terms(inp)
        pos = 0
        for i, blk in enumerate(blocks):
            for j, lay in enumerate(blk.layers):
                whole = 2.0 * inp.data_norm / math.sqrt(inp.n) * lay.dist
                for l, other in enumerate(blocks):
                    if l != i:
                        whole *= other.block_lip() * other.rho
                whole *= blk.rho
                for k, other_layer in enumerate(blk.layers):
                    if k != j:
                        whole *= other_layer.lip * other_layer.rho
                whole *= lay.rho
                got = terms.entries[pos]
                assert got.c == pytest.approx(whole, rel=1e-12)
                assert got.c_tilde == pytest.approx(2 * whole / inp.gamma, rel=1e-12)
                pos += 1


def test_blocks_of_uneven_depth_enumerate_all_layers():
    b0 = BlockRecord(layers=(layer(),), shortcut="identity")
    b1 = BlockRecord(layers=(layer(), layer(), layer()), shortcut="identity")
    inp = CapacityInput(blocks=(b0, b1), n=4, data_norm=1.0, gamma=1.0)
    terms = capacity_terms(inp)
    assert len(terms.entries) == 4
    assert terms.l_bar == 4


# ---------------------------------------------------------------------------
# whole-network covers


def test_chain_reduction_is_bitwise_equal():
    rng = np.random.default_rng(41)
    for _ in range(10):
        layers = tuple(
            layer(s=float(rng.uniform(0.5, 2.0)),
                  b=float(rng.uniform(0.0, 3.0)),
                  rho=float(rng.uniform(0.5, 1.5)),
                  w=int(rng.integers(1, 40)))
            for _ in range(int(rng.integers(1, 5)))
        )
        n = int(rng.integers(1, 50))
        x = float(rng.uniform(0.1, 4.0))
        eps = float(rng.uniform(0.05, 2.0))
        blk = BlockRecord(layers=layers, shortcut="zero", rho=1.0)
        inp = CapacityInput(blocks=(blk,), n=n, data_norm=x, gamma=1.0)
        for variant in ("norms", "params"):
            via_net = whole_network_cover_bound(inp, eps, variant).value
            direct = non_residual_cover_bound(layers, n, x, eps, variant).value
            assert via_net == direct


def test_non_residual_hand_example():
    lay = layer(s=1.0, b=1.0, rho=1.0, w=1)
    got = non_residual_cover_bound((lay,), 1, 1.0, 1.0, "norms").value
    # c = 2, ceil(2^{2/3}) = 2, so log(2) * 8 * 1
    assert got == math.log(2) * 8.0
    got_p = non_residual_cover_bound((lay,), 1, 1.0, 1.0, "params").value
    assert got_p == 2.0 * math.log(1 + 4)


def test_cover_bounds_shrink_with_radius():
    inp = chain_input([layer(s=1.5, b=2.0, w=9), layer(s=0.5, b=1.0, w=4)],
                      n=64, data_norm=8.0)
    for variant in ("norms", "params"):
        values = [whole_network_cover_bound(inp, e, variant).value
                  for e in (0.1, 0.5, 1.0, 2.0)]
        assert values == sorted(values, reverse=True)


def test_cover_bounds_saturate_past_the_float_range():
    # C is about 1e160: (sum ceil(C^{2/3}))^3 and (Lbar C)^2 pass the float
    # range, and at eps 1e-200 so does n/eps^2 (eps^2 underflows to 0)
    big = chain_input([layer(b=1e160, w=9), layer(b=1.0, w=4)], n=64,
                      data_norm=8.0)
    small = chain_input([layer(s=1.5, b=2.0, w=9)], n=64, data_norm=8.0)
    for inp, eps in ((big, 0.1), (big, 1e-200), (small, 1e-200)):
        for variant in ("norms", "params"):
            rep = whole_network_cover_bound(inp, eps, variant)
            assert rep.value == math.inf and rep.saturated, (eps, variant)
            assert rep.log10_value == math.inf
    for variant in ("norms", "params", "params_appendix"):
        assert single_layer_cover_bound(9, 8.0, 1e160, 0.1, variant) == math.inf
        assert single_layer_cover_bound(9, 8.0, 1.0, 1e-200, variant) == math.inf
    # past eps 1e154, eps^2 overflows; ceil(n/eps^2) is 1 from eps = 8 on
    for variant in ("norms", "params"):
        assert (whole_network_cover_bound(small, 1e200, variant).value
                == whole_network_cover_bound(small, 8.0, variant).value)


def test_saturated_bounds_report_an_infinite_log10():
    assert BoundReport.of("x", math.inf).log10_value == math.inf
    # gamma 1e-320: 2/gamma overflows, so every C~ is inf and both
    # Rademacher bounds and the generalization bound saturate
    inp = chain_input([layer(s=1.5, b=2.0, w=9), layer(b=1.0, w=4)], n=64,
                      data_norm=8.0, gamma=1e-320)
    reports = [rademacher_clubs(inp), rademacher_spades(inp),
               generalization_bound(inp, 0.0, 0.01, "clubs")]
    for rep in reports:
        assert rep.value == math.inf and rep.log10_value == math.inf, rep.name


def test_cover_bound_validation():
    inp = chain_input([layer()])
    with pytest.raises(UsageError):
        whole_network_cover_bound(inp, 0.0)
    with pytest.raises(UsageError):
        whole_network_cover_bound(inp, 1.0, "other")
    with pytest.raises(UsageError):
        non_residual_cover_bound((), 4, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Rademacher bounds


def test_clubs_frozen_unit_case():
    inp = chain_input([layer(s=1.0, b=1.0, rho=1.0, w=2)],
                      n=4, data_norm=1.0, gamma=2.0)
    got = rademacher_clubs(inp)
    want = 1.0 + 11.0 * math.sqrt(math.log(4))
    assert got.value == pytest.approx(want, abs=1e-12)
    assert got.breakdown["harmonic"] == pytest.approx(11 / 6, abs=1e-15)


def test_spades_frozen_unit_case():
    inp = chain_input([layer(s=1.0, b=1.0, rho=1.0, w=2)],
                      n=4, data_norm=1.0, gamma=2.0)
    got = rademacher_spades(inp)
    want = 6.0 * math.sqrt(4.0 * (math.log(2) + PSI_AT_1))
    assert got.value == pytest.approx(want, abs=1e-10)
    smaller = rademacher_spades(inp, appendix_counts=True)
    want_appendix = 6.0 * math.sqrt(3.0 * (math.log(2) + PSI_AT_1))
    assert smaller.value == pytest.approx(want_appendix, abs=1e-10)
    assert smaller.value < got.value


def test_zero_distance_network_collapses():
    inp = CapacityInput(
        blocks=(
            BlockRecord(layers=(layer(s=1.3, b=0.0, w=30),
                                layer(s=0.8, b=0.0, w=12)),
                        shortcut="identity", rho=1.1),
            BlockRecord(layers=(layer(s=2.0, b=0.0, w=7),),
                        shortcut="zero"),
        ),
        n=50, data_norm=13.0, gamma=0.05,
    )
    assert rademacher_clubs(inp).value == 4.0 / 50
    assert rademacher_spades(inp).value == 0.0


def test_rademacher_monotonicity_spot_checks():
    base = [dict(s=1.2, b=0.7, w=20), dict(s=0.9, b=1.4, w=35)]

    def build(i=None, **override):
        rows = [dict(r) for r in base]
        if i is not None:
            rows[i].update(override)
        layers = [layer(s=r["s"], b=r["b"], w=r["w"]) for r in rows]
        return chain_input(layers, n=32, data_norm=5.0, gamma=0.7)

    for fn in (rademacher_clubs, rademacher_spades):
        v0 = fn(build()).value
        assert fn(build(0, b=1.4)).value >= v0
        assert fn(build(1, s=2.0)).value >= v0  # other layer's lip grows
        g_tighter = chain_input(
            [layer(s=r["s"], b=r["b"], w=r["w"]) for r in base],
            n=32, data_norm=5.0, gamma=0.35)
        assert fn(g_tighter).value >= v0
        x_bigger = chain_input(
            [layer(s=r["s"], b=r["b"], w=r["w"]) for r in base],
            n=32, data_norm=10.0, gamma=0.7)
        assert fn(x_bigger).value >= v0


def test_bounds_survive_coefficients_past_the_float_range():
    # C~ of each layer is about 1e320: clubs saturates with its log10 kept,
    # spades charges log(1 + ceil((Lbar C~)^2)) ~ 1500 per layer and stays finite
    inp = chain_input([layer(s=1e160, b=0.9, w=36) for _ in range(3)],
                      n=1000, data_norm=20.0, gamma=1e-3)
    clubs = rademacher_clubs(inp)
    assert clubs.saturated and clubs.value == math.inf
    lg_ctilde = math.log10(4.0 / 1e-3 * 20.0 / math.sqrt(1000) * 0.9) + 320.0
    lg_tail = (math.log10(12.0 * harmonic_number(999) / math.sqrt(1000))
               + 0.5 * math.log10(math.log(72.0))
               + 1.5 * (math.log10(3.0) + 2.0 / 3.0 * lg_ctilde))
    assert clubs.log10_value == pytest.approx(lg_tail, rel=1e-12)
    spades = rademacher_spades(inp)
    assert not spades.saturated
    assert math.isfinite(spades.log10_value)
    per_layer = 72.0 * (2.0 * (math.log(3.0) + lg_ctilde * math.log(10.0))
                        + psi_correction(math.inf))
    want = 12.0 / math.sqrt(1000) * math.sqrt(3 * per_layer)
    assert spades.value == pytest.approx(want, rel=1e-12)
    # a block Lipschitz of 1e320 is an inf prefix factor of the next block's
    # layer; its log10 C is still the sum of the factors' logs
    big = BlockRecord(layers=(layer(s=1e160, b=0.9, w=36),) * 2)
    unit = BlockRecord(layers=(layer(b=0.9, w=36),))
    inp = CapacityInput(blocks=(big, unit), n=1000, data_norm=20.0,
                        gamma=1e-3)
    last = capacity_terms(inp).entries[-1]
    assert last.c == math.inf
    assert last.log10_c == pytest.approx(
        320.0 + math.log10(40.0 / math.sqrt(1000) * 0.9), rel=1e-12)
    clubs = rademacher_clubs(inp)
    assert clubs.saturated and math.isfinite(clubs.log10_value)
    spades = rademacher_spades(inp)
    assert not spades.saturated and math.isfinite(spades.value)


def test_clubs_needs_two_samples():
    with pytest.raises(UsageError):
        rademacher_clubs(chain_input([layer()], n=1))


# ---------------------------------------------------------------------------
# binomial guard and generalization assembly


def test_binomial_check_frozen_and_grid():
    got = binomial_bound_check(2, 3)
    assert got == {"exact": 10, "bound_norms": 16, "bound_params": 27, "ok": True}
    for n in range(9):
        for k in range(9):
            assert binomial_bound_check(n, k)["ok"]
    with pytest.raises(ResourceError):
        binomial_bound_check(99_000, 2_000)
    with pytest.raises(UsageError):
        binomial_bound_check(-1, 2)


def test_generalization_bound_assembles_parts():
    inp = chain_input([layer(w=2)], n=4, data_norm=1.0, gamma=2.0)
    rad = rademacher_clubs(inp).value
    got = generalization_bound(inp, 0.25, 0.05)
    conf = 3.0 * math.sqrt(math.log(2 / 0.05) / 8.0)
    assert got.value == pytest.approx(0.25 + 2 * rad + conf, rel=1e-14)
    via_spades = generalization_bound(inp, 0.25, 0.05, "spades")
    assert via_spades.breakdown["rademacher"] == rademacher_spades(inp).value
    with pytest.raises(UsageError):
        generalization_bound(inp, 0.25, 0.0)
    with pytest.raises(UsageError):
        generalization_bound(inp, 1.5, 0.5)
    with pytest.raises(UsageError):
        generalization_bound(inp, 0.2, 0.5, "hearts")


# ---------------------------------------------------------------------------
# published-bound comparison


def full_stats(lip=1.5, w=36, d=8, t=1, k=3, c_in=2, c_out=2, **overrides):
    fields = dict(
        lip=lip, w=w, d=d, t=t, k=k, c_in=c_in, c_out=c_out,
        sum_out_l2_diff=0.8,
        max_out_l1=3.0, max_out_l1_diff=0.7, max_out_l2=2.2,
        frob=2.0, frob_diff=0.5,
    )
    fields.update(overrides)
    return ComparisonLayerStats(**fields)


def full_data(n_layers, records=None):
    """Data stats whose blocks are the plain chain of `records`, by default
    n_layers records shaped as full_stats' defaults."""
    if records is None:
        records = [layer(s=1.5, b=0.9, w=36)] * n_layers
    return ComparisonDataStats(
        data_norm=20.0, max_linf=1.0, max_coord_sq_sum=30.0,
        patch_norms=tuple(5.0 + i for i in range(n_layers + 1)),
        blocks=chain_input(records).blocks,
    )


ALL_ROWS = [
    "ours_clubs", "ours_spades", "bartlett", "ledent_main", "ledent_fixed",
    "lin", "neyshabur_l1inf", "golowich_l1inf", "gouk_l1inf",
    "neyshabur_l2", "golowich_l2", "gouk_l2",
]


def test_comparison_rows_all_present_and_finite():
    stats = [full_stats(), full_stats(lip=1.1, d=8), full_stats(lip=0.9)]
    rows = comparison_suite(stats, full_data(3), n=1000, gamma=0.5, kappa=10)
    assert sorted(rows) == sorted(ALL_ROWS)
    for name, rep in rows.items():
        assert not rep.absent, name
        assert math.isfinite(rep.log10_value), name
        assert rep.value > 0, name


def test_comparison_neyshabur_l2_hand_value():
    stats = [full_stats(), full_stats(lip=1.1)]
    rows = comparison_suite(stats, full_data(2), n=100, gamma=0.5, kappa=4)
    want = (2.0 ** 1 * 4 * (20.0 / 10.0)
            * (8 / 1 * 2.0) * (8 / 1 * 2.0) / 10.0)
    assert rows["neyshabur_l2"].value == pytest.approx(want, rel=1e-10)


def test_comparison_bartlett_hand_value():
    st1 = full_stats()
    rows = comparison_suite([st1], full_data(1), n=400, gamma=0.25, kappa=3)
    inner = (math.log(2 * st1.w * st1.d**2 / (st1.t**2 * st1.k**2))
             * st1.d**4 / st1.t**4 * st1.sum_out_l2_diff**2 / st1.lip**2)
    want = 4 / 400 + (48 / 0.25) * (20.0 / 20.0) * st1.lip \
        * inner ** 0.5 * math.log(400) / 20.0
    assert rows["bartlett"].value == pytest.approx(want, rel=1e-9)


def test_comparison_ours_clubs_matches_capacity_route():
    # coefficients chosen away from integer ceiling boundaries, where the
    # log10-space row and the linear-space route may round differently
    stats = [full_stats(lip=1.37), full_stats(lip=0.81)]
    layers = [layer(s=s.lip, b=0.93, rho=1.0, w=s.w) for s in stats]
    data = full_data(2, layers)
    n, gamma = 256, 0.4
    rows = comparison_suite(stats, data, n=n, gamma=gamma, kappa=5)
    inp = chain_input(layers, n=n, data_norm=data.data_norm, gamma=gamma)
    want = rademacher_clubs(inp).value
    assert rows["ours_clubs"].value == pytest.approx(want, rel=1e-9)
    want_spades = rademacher_spades(inp).value
    assert rows["ours_spades"].value == pytest.approx(want_spades, rel=1e-9)


def test_comparison_survives_extreme_magnitudes():
    stats = [full_stats(lip=1e160, frob=1e160) for _ in range(3)]
    data = full_data(3, [layer(s=1e160, b=0.9, w=36)] * 3)
    rows = comparison_suite(stats, data, n=1000, gamma=1e-3, kappa=10)
    ney = rows["neyshabur_l2"]
    assert ney.saturated
    assert ney.value == math.inf
    assert ney.log10_value > 400
    assert math.isfinite(rows["ours_clubs"].log10_value)


def row_is_consistent(rep):
    if rep.absent:
        return bool(rep.reason) and rep.log10_value is None
    if rep.saturated:
        return rep.value == math.inf and rep.log10_value == math.inf
    if rep.value == 0:
        return rep.log10_value == -math.inf
    return math.log10(rep.value) == pytest.approx(rep.log10_value, rel=1e-12)


def test_comparison_dead_layer_zero_patch_norm():
    # A dead net: the last conv block and the logits are all zero, and the
    # head sits at its reference (frob_diff 0), as a collapsed training run
    # leaves them. The patch-norm row must not turn 0 * inf into a NaN.
    stats = [full_stats(), full_stats(lip=1.1),
             full_stats(sum_out_l2_diff=0.0, frob_diff=0.0)]
    data = replace(full_data(3), patch_norms=(5.0, 6.0, 0.0, 0.0))
    rows = comparison_suite(stats, data, n=1000, gamma=0.5, kappa=10)
    for name, rep in rows.items():
        assert rep.log10_value is None or not math.isnan(rep.log10_value), name
        assert row_is_consistent(rep), name
    assert rows["ledent_main"].absent
    assert "patch norm 2 is zero" in rows["ledent_main"].reason
    assert not rows["ledent_fixed"].absent
    assert math.isfinite(rows["ledent_fixed"].log10_value)


def test_comparison_wrong_patch_norm_count_marks_ledent_main_absent():
    stats = [full_stats(), full_stats(lip=1.1)]
    data = replace(full_data(2), patch_norms=(5.0, 6.0))
    rows = comparison_suite(stats, data, n=1000, gamma=0.5, kappa=10)
    assert rows["ledent_main"].absent
    assert rows["ledent_main"].reason == "needs 3 patch norms, got 2"
    assert not rows["ledent_fixed"].absent
    assert all(row_is_consistent(rep) for rep in rows.values())


def test_comparison_validation():
    with pytest.raises(UsageError):
        comparison_suite([], full_data(1), n=10, gamma=1.0, kappa=2)
    with pytest.raises(UsageError):
        comparison_suite([full_stats()], full_data(1), n=1, gamma=1.0, kappa=2)
    with pytest.raises(UsageError):
        full_stats(lip=0.0)
    with pytest.raises(UsageError):
        replace(full_data(1), patch_norms=())


def test_bound_report_helpers():
    rep = BoundReport.of("x", 100.0)
    assert rep.log10_value == pytest.approx(2.0)
    assert BoundReport.of("x", 0.0).log10_value == -math.inf
    assert BoundReport.of("x", math.inf).saturated
    missing = BoundReport.missing("y", "no stats")
    assert missing.absent and math.isnan(missing.value)
