"""Matching-based partial allocations and the restart loop (additive case)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import naive
from fairdiv import (
    AdditiveValuation,
    Allocation,
    Instance,
    IterationBoundError,
    additive_efx_matching,
    example1,
    improving_sequence,
    match_or_improve,
    matching_with_restarts,
    nash_product,
    xos,
)
from fairdiv.additive_alg import _envy_target

ALPHAS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 5), Fraction(1)]


def improvement_fixture():
    """Start where agent 1 repeatedly raids agent 0's bundle; at alpha=1 the
    raids drive agent 0's core below the witness threshold and the run must
    return a strictly better complete allocation instead of a matching."""
    inst = Instance(
        2,
        6,
        (
            AdditiveValuation((10, 1, 1, 1, 1, 0)),
            AdditiveValuation((0, 10, 10, 10, 10, 1)),
        ),
        "additive",
    )
    start = Allocation.from_masks((0b011111, 0b100000), 6)
    return inst, start


# ---------------------------------------------------------------------------
# the matching loop

def test_matching_on_example1_self_matches_both_agents():
    inst = example1()
    start = Allocation.from_masks((0b011, 0b100), 3)  # the max-product split
    result, state = additive_efx_matching(inst, start, Fraction(1))
    assert result.masks() == start.masks()
    assert [step.branch for step in state.trace] == ["self", "self"]
    assert state.matches == (0, 1)


def test_matching_output_is_the_matched_z_slots():
    inst, start = improvement_fixture()
    result, state = additive_efx_matching(inst, start, Fraction(1))
    for i, slot in enumerate(state.matches):
        assert result.masks()[i] == state.z_masks[slot]
    # z only ever shrinks
    for z, x in zip(state.z_masks, state.x_masks):
        assert z & ~x == 0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_matching_never_exceeds_its_iteration_bound(alpha, corpus1, mnw_for):
    for idx in range(0, 40, 4):
        inst = corpus1[idx]
        start = mnw_for(("c1", idx), inst).allocation
        _, state = additive_efx_matching(inst, start, alpha)
        assert len(state.trace) <= (inst.m + 1) * inst.n


def test_matching_guarantees_on_max_product_starts(corpus1, mnw_for):
    for idx in range(24):
        inst = corpus1[idx]
        alpha = ALPHAS[idx % len(ALPHAS)]
        mnw = mnw_for(("c1", idx), inst)
        result, _ = additive_efx_matching(inst, mnw.allocation, alpha)
        masks = result.masks()
        assert naive.naive_efx_ok(inst, masks, alpha)
        assert naive.naive_ef1_ok(inst, masks)
        assert naive.naive_separated_ok(inst, masks, alpha)
        # product within (1/(alpha+1))^n of the optimum
        achieved = naive.product_of(inst, masks)
        assert achieved * (alpha + 1) ** inst.n >= mnw.product


def test_at_alpha_zero_everyone_keeps_their_bundle(corpus1):
    inst = corpus1[0]
    start = Allocation.from_masks(
        tuple(
            sum(1 << g for g in range(inst.m) if g % inst.n == i)
            for i in range(inst.n)
        ),
        inst.m,
    )
    result, state = additive_efx_matching(inst, start, Fraction(0))
    assert result.masks() == start.masks()
    assert all(step.branch == "self" for step in state.trace)


def test_matching_rejects_bad_inputs():
    inst = example1()
    complete = Allocation.from_masks((0b011, 0b100), 3)
    with pytest.raises(ValueError):
        additive_efx_matching(inst, complete, Fraction(3, 2))
    with pytest.raises(ValueError):
        additive_efx_matching(inst, Allocation.from_masks((0b001, 0b100), 3), Fraction(1))
    with pytest.raises(ValueError):
        additive_efx_matching(
            xos(2, 3, clauses=2, seed=0),
            Allocation.from_masks((0b011, 0b100), 3),
            Fraction(1, 2),
        )
    with pytest.raises(ValueError):
        additive_efx_matching(
            inst, Allocation.from_masks((0b01, 0b10), 2), Fraction(1)
        )


def random_envy_state(rng: random.Random):
    """(instance, z, x, i, alpha): an additive instance with per-agent
    denominators and values 0..3 (zeros and ties are common), a random
    complete x, and z_j a subset of x_j (often x_j itself, sometimes empty)."""
    n, m = rng.randint(1, 5), rng.randint(0, 8)
    inst = Instance(n, m, tuple(
        AdditiveValuation(tuple(Fraction(rng.randint(0, 3), den) for _ in range(m)))
        for den in (rng.choice((1, 2, 3)) for _ in range(n))
    ), "additive")
    x = [0] * n
    for g in range(m):
        x[rng.randrange(n)] |= 1 << g
    z = [xj if rng.random() < 0.4 else xj & rng.getrandbits(max(m, 1)) for xj in x]
    alpha = rng.choice((Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1)))
    return inst, z, x, rng.randrange(n), alpha


def test_envy_target_matches_the_definition():
    rng = random.Random(7)
    for _ in range(3000):
        inst, z, x, i, alpha = random_envy_state(rng)
        assert _envy_target(inst, z, x, i, alpha) == naive.naive_envy_step(inst, z, x, i, alpha)


def test_envy_target_breaks_ties_and_keeps_on_equality():
    inst = Instance(3, 5, (
        AdditiveValuation((1, 2, 2, 2, 2)),
        AdditiveValuation((0, 0, 0, 0, 0)),
        AdditiveValuation((1, 1, 1, 1, 1)),
    ), "additive")
    x = [0b00001, 0b00110, 0b11000]
    # agent 0 values every z_j - g with j >= 1 at 2: the lowest j wins, then
    # the lowest g
    assert _envy_target(inst, x, x, 0, Fraction(1)) == (1, 1)
    # equal values keep the bundle: 1 >= 1/2 * 2
    assert _envy_target(inst, x, x, 0, Fraction(1, 2)) is None
    # once z_0 is shrunk the factor is 1, whatever alpha is
    assert _envy_target(inst, [0, 0b00110, 0b11000], x, 0, Fraction(0)) == (1, 1)
    # nobody to envy: no pair (j, g) exists
    assert _envy_target(inst, [0, 0, 0], x, 1, Fraction(1)) is None
    assert _envy_target(inst, [0b00001, 0, 0], x, 2, Fraction(1)) is None


# ---------------------------------------------------------------------------
# holder chains

def test_improving_sequence_walks_holders():
    assert improving_sequence([None, 0, 1], 0) == ((0, 1, 2), "unmatched")
    assert improving_sequence([1, 0], 1) == ((1, 0), "cycle")
    assert improving_sequence([None, None], 0) == ((0,), "unmatched")
    assert improving_sequence([0, None], 0) == ((0,), "cycle")


# ---------------------------------------------------------------------------
# the polynomial variant

def test_match_or_improve_returns_a_strict_improvement():
    inst, start = improvement_fixture()
    outcome = match_or_improve(inst, start, Fraction(1))
    assert outcome.kind == "improved"
    assert outcome.allocation.complete
    assert outcome.allocation.masks() == (0b000011, 0b111100)
    assert nash_product(inst, start) == 14
    assert nash_product(inst, outcome.allocation) == Fraction(11) * Fraction(31)
    # the run stopped on a removal that crossed the witness threshold
    last = outcome.state.trace[-1]
    assert last.branch == "steal" and last.removed
    assert last.sequence_end == "unmatched"


def test_match_or_improve_take_branch_leaves_items_in_place():
    # a take (grabbing an unheld bundle) must not remove any item
    inst, start = improvement_fixture()
    outcome = match_or_improve(inst, start, Fraction(1))
    for step in outcome.state.trace:
        if step.branch == "take":
            assert step.removed is False


def test_matching_with_restarts_on_the_improvement_fixture():
    inst, start = improvement_fixture()
    ratio = Fraction(14, 410)  # start product over the true optimum
    result = matching_with_restarts(inst, start, Fraction(1), ratio)
    assert result.rounds == 1
    assert result.branches == ("improved",)
    # the improved allocation is already envy-free up to any item, so the
    # loop stops after the improvement round; its trace is kept
    assert result.state is not None
    assert result.state.trace[-1].removed
    assert result.allocation.masks() == (0b000011, 0b111100)
    assert naive.naive_efx_ok(inst, result.allocation.masks(), Fraction(1))


def test_matching_with_restarts_reaches_a_matching(corpus1, mnw_for):
    for idx in range(6):
        inst = corpus1[idx]
        alpha = ALPHAS[idx % len(ALPHAS)]
        start = mnw_for(("c1", idx), inst).allocation
        result = matching_with_restarts(inst, start, alpha, Fraction(1))
        assert naive.naive_efx_ok(inst, result.allocation.masks(), alpha)
        bound = inst.n * (inst.n - 1) * (alpha + 1)
        assert result.rounds <= bound
        # a max-product start never triggers the improvement branch
        assert all(kind == "matched" for kind in result.branches)


def test_matching_with_restarts_validates_beta():
    inst, start = improvement_fixture()
    for bad in (Fraction(0), Fraction(2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            matching_with_restarts(inst, start, Fraction(1), bad)


def test_matching_with_restarts_honors_its_bound():
    # beta so tiny that the bound is generous, and a fake beta of 1 on a bad
    # start: the loop must either finish or abort with the bound error
    inst, start = improvement_fixture()
    try:
        result = matching_with_restarts(inst, start, Fraction(1), Fraction(1))
        assert naive.naive_efx_ok(inst, result.allocation.masks(), Fraction(1))
        assert result.rounds <= inst.n * (inst.n - 1) * 2
    except IterationBoundError:
        pass
