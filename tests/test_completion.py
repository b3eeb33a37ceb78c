"""Tests for completion procedures and the end-to-end pipelines."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import naive
from fairdiv import (
    AdditiveValuation,
    Allocation,
    Bundle,
    Instance,
    envy_cycles,
    envy_edges,
    example1,
    exact_mnw,
    pipeline_additive,
    pipeline_subadditive,
    random_additive,
    singleton_swaps,
    xos,
)
from fairdiv import completion
from fairdiv.completion import run

HALF = Fraction(1, 2)


def additive_instance(rows):
    return Instance(
        len(rows),
        len(rows[0]),
        tuple(AdditiveValuation(tuple(r)) for r in rows),
        "additive",
    )


def test_envy_edges_directed():
    instance = additive_instance([(1, 5, 0), (5, 1, 0)])
    assert envy_edges(instance, (0b001, 0b010)) == [(0, 1), (1, 0)]
    assert envy_edges(instance, (0b010, 0b001)) == []
    one_way = additive_instance([(1, 5), (1, 5)])
    assert envy_edges(one_way, (0b01, 0b10)) == [(0, 1)]


def test_envy_cycles_rotates_before_placing():
    instance = additive_instance([(1, 5, 0), (5, 1, 0)])
    start = Allocation.from_masks((0b001, 0b010), 3)
    result = envy_cycles(instance, start)
    assert result.events == (("rotation", (0, 1)), ("place", 2, 0))
    assert tuple(result.allocation.masks()) == (0b110, 0b001)
    assert naive.naive_ef1_ok(instance, list(result.allocation.masks()))


def test_envy_cycles_places_on_unenvied_agent():
    instance = example1()
    start = Allocation.from_masks((0b100, 0b000), 3)
    result = envy_cycles(instance, start)
    assert result.events == (("place", 0, 1), ("place", 1, 1))
    assert tuple(result.allocation.masks()) == (0b100, 0b011)
    assert result.allocation.complete


def test_envy_cycles_explicit_pool():
    instance = example1()
    start = Allocation.from_masks((0b100, 0b010), 3)
    result = envy_cycles(instance, start, Bundle(0b001))
    assert result.allocation.complete
    assert result.events == (("place", 0, 1),)


def test_envy_cycles_rejects_overlapping_pool():
    instance = example1()
    start = Allocation.from_masks((0b100, 0b010), 3)
    with pytest.raises(ValueError, match="overlaps"):
        envy_cycles(instance, start, Bundle(0b110))


def test_envy_cycles_preserves_ef1_and_efx_on_random_partials():
    for seed in range(8):
        rng = random.Random(900 + seed)
        instance = random_additive(2 + seed % 2, 5 + seed % 3, 8, seed=300 + seed)
        masks = [0] * instance.n
        for g in range(instance.m):
            owner = rng.randrange(instance.n + 2)
            if owner < instance.n:
                masks[owner] |= 1 << g
        start = Allocation.from_masks(masks, instance.m)
        result = envy_cycles(instance, start)
        assert result.allocation.complete
        final = list(result.allocation.masks())
        if naive.naive_ef1_ok(instance, masks):
            assert naive.naive_ef1_ok(instance, final)
        for alpha in (Fraction(0), Fraction(1, 4), HALF):
            if naive.naive_efx_ok(instance, masks, alpha) and \
                    naive.naive_separated_ok(instance, masks, alpha):
                assert naive.naive_efx_ok(instance, final, alpha)


def test_singleton_swaps_picks_best_item_for_lowest_agent():
    instance = additive_instance([(1, 0, 5, 9), (0, 3, 4, 0)])
    start = Allocation.from_masks((0b0001, 0b0010), 4)
    result = singleton_swaps(instance, start, Bundle(0b1100))
    assert result.swaps == ((0, 3), (1, 2))
    assert tuple(result.allocation.masks()) == (0b1000, 0b0100)
    assert result.unallocated.mask == 0b0011


def test_singleton_swaps_breaks_value_ties_on_lower_item():
    instance = additive_instance([(1, 0, 5, 5), (9, 9, 0, 0)])
    start = Allocation.from_masks((0b0001, 0b0010), 4)
    result = singleton_swaps(instance, start, Bundle(0b1100))
    assert result.swaps == ((0, 2),)
    assert tuple(result.allocation.masks()) == (0b0100, 0b0010)
    assert result.unallocated.mask == 0b1001


def test_singleton_swaps_idle_when_nobody_prefers_a_leftover():
    instance = additive_instance([(5, 1, 1), (5, 1, 1)])
    start = Allocation.from_masks((0b001, 0b010), 3)
    result = singleton_swaps(instance, start, Bundle(0b100))
    assert result.swaps == ()
    assert tuple(result.allocation.masks()) == (0b001, 0b010)
    assert result.unallocated.mask == 0b100


def test_singleton_swaps_rejects_overlapping_pool():
    instance = example1()
    start = Allocation.from_masks((0b100, 0b010), 3)
    with pytest.raises(ValueError, match="overlaps"):
        singleton_swaps(instance, start, Bundle(0b010))


def test_singleton_swaps_end_state_and_efx_preservation():
    for seed in range(8):
        rng = random.Random(40 + seed)
        instance = random_additive(2 + seed % 2, 5 + seed % 3, 8, seed=70 + seed)
        masks = [0] * instance.n
        pool = 0
        for g in range(instance.m):
            owner = rng.randrange(instance.n + 1)
            if owner < instance.n:
                masks[owner] |= 1 << g
            else:
                pool |= 1 << g
        start = Allocation.from_masks(masks, instance.m)
        result = singleton_swaps(instance, start, Bundle(pool))
        final = list(result.allocation.masks())
        for i in range(instance.n):
            own = instance.valuations[i].value_mask(final[i])
            for x in result.unallocated.items():
                assert own >= instance.valuations[i].value_mask(1 << x)
        for alpha in (Fraction(0), Fraction(1, 4), HALF):
            if naive.naive_efx_ok(instance, masks, alpha):
                assert naive.naive_efx_ok(instance, final, alpha)


def test_pipeline_additive_smoke():
    instance = example1()
    result = pipeline_additive(instance, HALF)
    assert result.ok
    assert result.alpha == HALF
    assert result.mnw.product == 4
    assert result.allocation.complete
    assert [r.prop for r in result.reports] == [
        "alpha_efx", "ef1", "beta_mnw", "alpha_gmms", "alpha_pmms",
    ]
    assert result.reports[3].params["alpha"] == HALF / (HALF**2 + 1)
    assert result.reports[4].params["alpha"] == HALF
    assert result.swaps == ()
    assert result.state is not None and hasattr(result.state, "trace")


def test_pipeline_additive_rejects_alpha_past_threshold():
    with pytest.raises(ValueError, match="alpha"):
        pipeline_additive(example1(), Fraction(7, 8))
    # 3/5 satisfies alpha**2 + alpha <= 1 and must be accepted
    assert pipeline_additive(example1(), Fraction(3, 5)).ok


def test_pipeline_additive_guarantees_on_random_instances():
    for seed in range(4):
        instance = random_additive(2 + seed % 2, 4 + seed % 3, 10, seed=500 + seed)
        result = pipeline_additive(instance, HALF)
        final = list(result.allocation.masks())
        assert result.allocation.complete
        assert naive.naive_efx_ok(instance, final, HALF)
        assert naive.naive_ef1_ok(instance, final)
        lhs = naive.product_of(instance, final)
        assert lhs * (HALF + 1) ** instance.n >= result.mnw.product


def test_pipeline_subadditive_smoke():
    instance = xos(2, 5, clauses=3, seed=9)
    result = pipeline_subadditive(instance, HALF)
    assert result.ok
    assert result.allocation.complete
    assert [r.prop for r in result.reports] == ["alpha_efx", "beta_mnw"]
    assert result.state is not None and hasattr(result.state, "trace")
    final = list(result.allocation.masks())
    assert naive.naive_efx_ok(instance, final, HALF)
    lhs = naive.product_of(instance, final)
    assert lhs * (HALF + 1) ** instance.n >= result.mnw.product


def test_pipeline_subadditive_rejects_alpha_past_half():
    with pytest.raises(ValueError, match="alpha"):
        pipeline_subadditive(xos(2, 4, clauses=3, seed=3), Fraction(3, 5))


def test_run_claims_without_checking_and_checks_on_first_access(monkeypatch):
    calls = []
    real_check = completion.check

    def counting(name, *args, **kwargs):
        calls.append(name)
        return real_check(name, *args, **kwargs)

    monkeypatch.setattr(completion, "check", counting)
    third = Fraction(1, 3)
    result = run("additive", random_additive(3, 5, 10, seed=8), third, True)
    assert calls == []
    assert result.claims == {
        "efx": third, "ef1": None, "mnw": Fraction(3, 4),
        "gmms": Fraction(3, 10), "pmms": third,
    }
    assert result.report("ef1").prop == "ef1" and calls == ["ef1"]
    reports = result.reports
    assert result.ok and result.reports is reports
    assert calls == ["ef1", "efx", "ef1", "mnw", "gmms", "pmms"]
    assert run("additive", example1(), HALF, False).claims == {
        "efx": HALF, "mnw": Fraction(2, 3), "separated": HALF,
    }
    # the pipelines return results whose reports are already checked
    calls.clear()
    result = pipeline_subadditive(xos(2, 5, clauses=3, seed=9), HALF)
    assert calls == ["efx", "mnw"] and result.ok and calls == ["efx", "mnw"]


def _no_optimum():
    raise AssertionError("the optimum must not be computed")


def test_run_checks_its_preconditions_before_the_optimum():
    instance = example1()
    with pytest.raises(ValueError, match="too large"):
        run("additive", instance, Fraction(7, 8), True, optimum=_no_optimum)
    with pytest.raises(ValueError, match="unknown algorithm"):
        run("additive-complete", instance, HALF, False, optimum=_no_optimum)
    start = Allocation.from_masks((0b001, 0b110), 3)
    with pytest.raises(ValueError, match="given start"):
        run("subadditive", instance, HALF, False, optimum=_no_optimum, start=start)


def test_run_polynomial_from_a_given_start():
    instance = example1()
    start = Allocation.from_masks((0b001, 0b110), 3)
    result = run(
        "additive-poly", instance, Fraction(1), True,
        optimum=_no_optimum, start=start, beta=Fraction(3, 4),
    )
    assert result.ok and result.allocation.complete
    assert result.mnw is None
    assert result.start_product == 3
    assert result.restart is not None and result.restart.rounds >= 0
    # a completed restart run claims at most 1/2-EFX
    assert [(r.prop, r.params.get("alpha")) for r in result.reports] == [
        ("alpha_efx", HALF), ("beta_mnw", None),
    ]


def test_run_uses_the_optimum_it_is_given():
    instance = random_additive(3, 5, 10, seed=8)
    calls = []

    def optimum():
        calls.append(1)
        return exact_mnw(instance)

    for algorithm in ("additive", "subadditive", "additive-poly"):
        for complete in (False, True):
            result = run(algorithm, instance, Fraction(1, 4), complete, optimum=optimum)
            assert result.ok, (algorithm, complete)
            assert result.start_product == result.mnw.product
            assert result.allocation.complete or not complete
    assert len(calls) == 6
