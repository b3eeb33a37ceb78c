"""Fairness and efficiency checkers against naive brute-force re-statements."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from fairdiv import (
    AdditiveValuation,
    Allocation,
    Bundle,
    CapacityError,
    Instance,
    budget_additive,
    efx_violation,
    example1,
    is_alpha_efx,
    is_alpha_gmms,
    is_alpha_mms,
    is_alpha_pmms,
    is_beta_mnw,
    is_ef1,
    is_gamma_separated,
    mms_share,
    verify,
    random_additive,
    within_golden_threshold,
)


def small_instances() -> st.SearchStrategy:
    """Random additive instances with n in 2..3 and m in 2..5, values 0..6."""

    def build(draw_values, n, m):
        vals = tuple(
            AdditiveValuation(tuple(draw_values[i * m : (i + 1) * m]))
            for i in range(n)
        )
        return Instance(n, m, vals, "additive")

    return st.integers(2, 3).flatmap(
        lambda n: st.integers(2, 5).flatmap(
            lambda m: st.lists(
                st.integers(0, 6), min_size=n * m, max_size=n * m
            ).map(lambda values: build(values, n, m))
        )
    )


def partial_masks_for(instance) -> st.SearchStrategy:
    """A (possibly partial) allocation for `instance` as a mask tuple."""
    n, m = instance.n, instance.m

    def to_masks(assignment):
        masks = [0] * n
        for g, owner in enumerate(assignment):
            if owner < n:
                masks[owner] |= 1 << g
        return tuple(masks)

    return st.lists(
        st.integers(0, n), min_size=m, max_size=m
    ).map(to_masks)


instance_and_masks = small_instances().flatmap(
    lambda inst: st.tuples(st.just(inst), partial_masks_for(inst))
)

alphas = st.sampled_from(
    [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 5), Fraction(1)]
)


# ---------------------------------------------------------------------------
# threshold helper

def test_within_golden_threshold_boundary():
    # alpha^2 + alpha <= 1 holds at 3/5 (24/25 <= 1) and fails at 5/8 (65/64)
    assert within_golden_threshold(Fraction(3, 5))
    assert not within_golden_threshold(Fraction(5, 8))
    assert within_golden_threshold(Fraction(0))
    assert not within_golden_threshold(Fraction(1))


# ---------------------------------------------------------------------------
# EFX / EF1 / separation vs naive

@given(instance_and_masks, alphas)
def test_efx_matches_naive(pair, alpha):
    instance, masks = pair
    allocation = Allocation.from_masks(masks, instance.m)
    report = is_alpha_efx(instance, allocation, alpha)
    assert report.passed == naive.naive_efx_ok(instance, masks, alpha)
    assert report.verdict == ("pass" if report.passed else "fail")
    if not report.passed:
        w = report.witness
        i, j, g = w["i"], w["j"], w["removed_item"]
        own = instance.value_mask(i, masks[i])
        other = instance.value_mask(j, masks[j] & ~(1 << g))  # noqa: F841
        assert w["own_value"] == own
        assert own < alpha * instance.value_mask(i, masks[j] & ~(1 << g))


@given(instance_and_masks)
def test_ef1_matches_naive(pair):
    instance, masks = pair
    allocation = Allocation.from_masks(masks, instance.m)
    report = is_ef1(instance, allocation)
    assert report.passed == naive.naive_ef1_ok(instance, masks)
    if not report.passed:
        w = report.witness
        i, j = w["i"], w["j"]
        own = instance.value_mask(i, masks[i])
        # even the best removal leaves envy
        best = min(
            instance.value_mask(i, masks[j] & ~(1 << g))
            for g in naive.mask_items(masks[j])
        )
        assert own < best
        assert w["other_value_less_best_item"] == best


@given(instance_and_masks, alphas)
def test_separation_matches_naive(pair, gamma):
    instance, masks = pair
    allocation = Allocation.from_masks(masks, instance.m)
    report = is_gamma_separated(instance, allocation, gamma)
    assert report.passed == naive.naive_separated_ok(instance, masks, gamma)
    if not report.passed:
        w = report.witness
        assert gamma * w["own_value"] < w["item_value"]
        assert not allocation.union_mask >> w["item"] & 1


def test_efx_violation_scan_order():
    # agent 0 envies agent 1's pair beyond any removal at alpha=1
    inst = Instance(
        2,
        3,
        (AdditiveValuation((0, 5, 5)), AdditiveValuation((1, 1, 1))),
        "additive",
    )
    masks = (0b001, 0b110)
    assert naive.naive_efx_ok(inst, masks, Fraction(1)) is False
    assert efx_violation(inst, masks, Fraction(1)) == (0, 1, 1)
    assert efx_violation(inst, masks, Fraction(0)) is None


def test_empty_bundles_pass_vacuously():
    inst = example1()
    nothing = Allocation.from_masks((0, 0), 3)
    assert is_alpha_efx(inst, nothing, Fraction(1)).passed
    assert is_ef1(inst, nothing).passed
    # but an unallocated pool can still break separation
    assert not is_gamma_separated(inst, nothing, Fraction(1)).passed


def test_separation_holds_when_gamma_times_own_equals_the_item():
    inst = example1()  # both agents value (1, 1, 2)
    allocation = Allocation.from_masks((0b001, 0b100), 3)  # item 1 (worth 1) left over
    # agent 0: gamma * v_0({0}) = 1 * 1 = v_0({1}), the equality case
    assert is_gamma_separated(inst, allocation, Fraction(1)).passed
    assert naive.naive_separated_ok(inst, allocation.masks(), Fraction(1))
    report = is_gamma_separated(inst, allocation, Fraction(99, 100))
    assert (report.passed, report.witness["i"], report.witness["item"]) == (False, 0, 1)


def test_alpha_validation():
    inst = example1()
    allocation = Allocation.from_masks((0b011, 0b100), 3)
    for check in (is_alpha_efx, is_alpha_mms, is_alpha_pmms, is_alpha_gmms):
        with pytest.raises(ValueError):
            check(inst, allocation, Fraction(3, 2))
        with pytest.raises(ValueError):
            check(inst, allocation, Fraction(-1, 2))
    with pytest.raises(ValueError):
        is_gamma_separated(inst, allocation, Fraction(3, 2))
    with pytest.raises(ValueError):
        is_beta_mnw(inst, allocation, Fraction(0), Fraction(4))


def test_shape_validation():
    inst = example1()
    with pytest.raises(ValueError):
        is_alpha_efx(inst, Allocation.from_masks((0b1, 0b10), 2), Fraction(1))


# ---------------------------------------------------------------------------
# product bound

def test_beta_mnw_is_an_exact_product_comparison():
    inst = example1()
    allocation = Allocation.from_masks((0b011, 0b100), 3)  # product 2*2 = 4
    assert is_beta_mnw(inst, allocation, Fraction(1), Fraction(4)).passed
    report = is_beta_mnw(inst, allocation, Fraction(1), Fraction(4) + Fraction(1, 10**12))
    assert not report.passed
    assert report.witness["achieved_product"] == 4
    # beta^n scaling: product 2 vs reference 4 needs beta <= 1/sqrt(2); at
    # beta = 1/2 the bound is 4/4 = 1 <= 2
    skew = Allocation.from_masks((0b001, 0b110), 3)
    assert is_beta_mnw(inst, skew, Fraction(1, 2), Fraction(4)).passed
    assert not is_beta_mnw(inst, skew, Fraction(9, 10), Fraction(4)).passed


# ---------------------------------------------------------------------------
# maximin shares

def test_mms_share_hand_computed():
    inst = Instance(1, 5, (AdditiveValuation((7, 5, 4, 3, 1)),), "additive")
    pool = Bundle((1 << 5) - 1)
    assert mms_share(inst, 0, 1, pool) == 20
    assert mms_share(inst, 0, 2, pool) == 10  # {7,3} / {5,4,1}
    assert mms_share(inst, 0, 3, pool) == 6   # {7} / {5,1} / {4,3}
    assert mms_share(inst, 0, 4, pool) == 4  # {7} / {5} / {4} / {3,1}
    assert mms_share(inst, 0, 5, pool) == 1
    assert mms_share(inst, 0, 6, pool) == 0   # more parts than items


def test_mms_share_respects_the_pool():
    inst = Instance(1, 4, (AdditiveValuation((10, 1, 2, 3)),), "additive")
    assert mms_share(inst, 0, 2, Bundle(0b1110)) == 3


@given(st.data())
def test_mms_share_matches_naive(data):
    instance = data.draw(small_instances())
    agent = data.draw(st.integers(0, instance.n - 1))
    k = data.draw(st.integers(1, 3))
    pool_mask = data.draw(st.integers(0, (1 << instance.m) - 1))
    share = mms_share(instance, agent, k, Bundle(pool_mask))
    assert share == naive.naive_mms(instance, agent, k, naive.mask_items(pool_mask))


def test_mms_share_matches_naive_on_unequal_denominators():
    # item denominators differ within and across agents; the pools run from
    # empty through fewer items than k to all six
    inst = Instance(
        2,
        6,
        (
            AdditiveValuation(("1/2", "2/3", 0, "5/7", 3, "1/9")),
            AdditiveValuation(("4/5", 0, "7/4", "1/3", "2/11", 1)),
        ),
        "additive",
    )
    for agent in range(inst.n):
        for pool_mask in (0, 0b1, 0b100100, 0b111, 0b101011, 0b111111):
            for k in (1, 2, 3):
                share = mms_share(inst, agent, k, Bundle(pool_mask))
                assert share == naive.naive_mms(inst, agent, k, naive.mask_items(pool_mask))


def test_mms_share_matches_naive_on_a_table():
    inst = budget_additive(2, 5, cap=9, seed=1)
    for agent in range(inst.n):
        for pool_mask in (0b11, 0b10110, 0b11111):
            for k in (1, 2, 3):
                share = mms_share(inst, agent, k, Bundle(pool_mask))
                assert share == naive.naive_mms(inst, agent, k, naive.mask_items(pool_mask))


def test_mms_share_validation_and_caps():
    inst = example1()
    with pytest.raises(ValueError):
        mms_share(inst, 2, 1, Bundle(0))
    with pytest.raises(ValueError):
        mms_share(inst, 0, 0, Bundle(0))
    with pytest.raises(ValueError):
        mms_share(inst, 0, 1, Bundle(1 << 3))
    with pytest.raises(CapacityError):
        mms_share(inst, 0, 3, Bundle(0b111), 8)


def test_mms_family_on_example1():
    inst = example1()
    # both agents value (1, 1, 2); the fair split gives {2} / {0, 1}
    allocation = Allocation.from_masks((0b100, 0b011), 3)
    assert is_alpha_mms(inst, allocation, Fraction(1)).passed
    assert is_alpha_pmms(inst, allocation, Fraction(1)).passed
    assert is_alpha_gmms(inst, allocation, Fraction(1)).passed
    lopsided = Allocation.from_masks((0b111, 0), 3)
    for check in (is_alpha_mms, is_alpha_pmms, is_alpha_gmms):
        report = check(inst, lopsided, Fraction(1))
        assert not report.passed
        assert report.witness["i"] == 1
        assert report.witness["own_value"] == 0


def test_pmms_uses_pairwise_pools():
    # agent 0's own bundle is tiny next to what a 2-split of (X_0 u X_1) gives
    inst = Instance(
        2,
        4,
        (AdditiveValuation((1, 4, 4, 0)), AdditiveValuation((0, 0, 0, 1))),
        "additive",
    )
    allocation = Allocation.from_masks((0b0001, 0b1110), 4)
    report = is_alpha_pmms(inst, allocation, Fraction(1))
    assert not report.passed
    assert report.witness == {
        "i": 0,
        "j": 1,
        "own_value": Fraction(1),
        "pair_share": Fraction(4),
    }
    assert is_alpha_pmms(inst, allocation, Fraction(1, 4)).passed


def test_gmms_interpolates_mms_and_pmms():
    rng_inst = random_additive(3, 5, 8, seed=77)
    allocation = Allocation.from_masks((0b00011, 0b01100, 0b10000), 5)
    gmms = is_alpha_gmms(rng_inst, allocation, Fraction(1))
    if gmms.passed:
        # groupwise at alpha=1 implies both endpoints
        assert is_alpha_mms(rng_inst, allocation, Fraction(1)).passed
        assert is_alpha_pmms(rng_inst, allocation, Fraction(1)).passed


def test_gmms_agent_count_cap():
    inst = random_additive(7, 3, 5, seed=1)
    allocation = Allocation.from_masks((0b001, 0b010, 0b100, 0, 0, 0, 0), 3)
    message = "group-share check over 7 agents exceeds the agent cap 6"
    with pytest.raises(CapacityError, match=f"^{message}$"):
        is_alpha_gmms(inst, allocation, Fraction(1))
    # six agents are within the cap
    six = Instance(6, 3, inst.valuations[:6], "additive")
    report = is_alpha_gmms(six, Allocation.from_masks(allocation.masks()[:6], 3), Fraction(1))
    assert report.prop == "alpha_gmms"


def test_guarantee_report_json():
    inst = example1()
    report = is_alpha_efx(inst, Allocation.from_masks((0b110, 0b001), 3), Fraction(1))
    data = report.to_json_dict()
    assert data["property"] == "alpha_efx"
    assert data["params"] == {"alpha": "1"}
    assert data["verdict"] in ("pass", "fail")


def test_check_runs_the_checker_behind_each_name():
    instance = example1()
    allocation = Allocation.from_masks((0b100, 0b011), 3)
    alpha = Fraction(1, 2)
    expected = {
        "efx": is_alpha_efx(instance, allocation, alpha),
        "ef1": is_ef1(instance, allocation),
        "mnw": is_beta_mnw(instance, allocation, alpha, Fraction(5)),
        "separated": is_gamma_separated(instance, allocation, alpha),
        "mms": is_alpha_mms(instance, allocation, alpha),
        "pmms": is_alpha_pmms(instance, allocation, alpha),
        "gmms": is_alpha_gmms(instance, allocation, alpha),
    }
    assert verify.CHECK_NAMES == tuple(expected)
    for name, report in expected.items():
        reference = Fraction(5) if name == "mnw" else None
        assert verify.check(name, instance, allocation, alpha, reference) == report
    with pytest.raises(CapacityError):
        verify.check("pmms", instance, allocation, alpha, cap=3)
