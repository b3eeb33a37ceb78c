"""Tests for the matching-based partial allocator for subadditive instances.

The replay helper re-derives, from each trace snapshot, what every case of
the main loop is supposed to do to the white/red/blue bundle families, and
checks the per-agent value-share guarantee after every iteration.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import naive
from fairdiv import (
    AdditiveValuation,
    Allocation,
    AvailableBundle,
    Instance,
    available_bundles,
    budget_additive,
    example1,
    monotone_gap_instance,
    random_additive,
    subadditive_efx_matching,
    xos,
)
from naive import chain_cycle_decomposition

HALF = Fraction(1, 2)


def additive_instance(rows):
    return Instance(
        len(rows),
        len(rows[0]),
        tuple(AdditiveValuation(tuple(r)) for r in rows),
        "additive",
    )


def random_complete(instance, seed):
    rng = random.Random(seed)
    masks = [0] * instance.n
    for g in range(instance.m):
        masks[rng.randrange(instance.n)] |= 1 << g
    return Allocation.from_masks(masks, instance.m)


# Fixtures that drive the matching through every split case.  The two-item
# starting bundle of agent 0 in the thin-core fixture is split early, which
# lowers that agent's kept value and later lets a combined red-plus-white
# item pair attract it away from its shrunken core (case 2.6).
SEEKER_FIXTURES = {
    "keep-grabbed-part": (  # case 2.4 inside
        [(3, 0, 2, 2, 2), (2, 3, 5, 3, 0), (0, 0, 12, 1, 0)],
        (4, 0, 27),
        ["2.2", "2.2", "1", "1", "2.4", "1", "4", "1"],
    ),
    "keep-seeker-set": (  # case 2.5 inside
        [(5, 1, 0, 3, 0, 3), (2, 12, 12, 5, 3, 8), (12, 5, 12, 1, 3, 8)],
        (16, 4, 43),
        ["2.2", "1", "1", "2.2", "1", "2.5", "1"],
    ),
    "keep-leftover-minus-seeker-set": (  # case 2.6 inside
        [(6, 1, 3, 1, 0, 1, 4), (0, 2, 2, 3, 0, 0, 0), (0, 2, 3, 9, 1, 0, 13)],
        (96, 15, 16),
        ["1", "1", "2.2", "1", "2.2", "1", "2.2", "1", "2.6", "1"],
    ),
}

# Corpus-style instances whose runs exercise the remaining cases.
CORPUS_FIXTURES = {
    "single-item-core": (  # case 2.1
        lambda: xos(2 + 1 % 2, 4 + 1 % 3, clauses=3, seed=1),
        7013,
        {"2.1"},
    ),
    "grabbed-vs-leftover-cores": (  # cases 2.2 and 2.3
        lambda: xos(2 + 2 % 2, 4 + 2 % 3, clauses=3, seed=2),
        7026,
        {"2.2", "2.3"},
    ),
    "leftover-grab": (  # case 3
        lambda: budget_additive(2 + 5 % 2, 4 + (5 + 1) % 3, cap=15, seed=105),
        8068,
        {"3"},
    ),
    "frozen-bundle-grab": (  # case 4
        lambda: xos(2 + 8 % 2, 4 + 8 % 3, clauses=3, seed=8),
        7104,
        {"4"},
    ),
}


def replay_and_check(instance, start, alpha):
    """Run the matching and re-verify every trace snapshot semantically."""
    out, state = subadditive_efx_matching(instance, start, alpha)
    n, m = instance.n, instance.m
    vals = instance.valuations
    everything = (1 << m) - 1
    share = Fraction(1) / (alpha + 1)

    prev_x = list(start.masks())
    prev_z = list(start.masks())
    prev_matches = [None] * n
    prev_deleted = 0
    for step in state.trace:
        # Bundle families: cores sit inside their original bundles, frozen
        # bundles are disjoint from everything else, and the deleted items
        # are exactly those no family covers any more.
        whites = 0
        reds = 0
        for a in range(n):
            assert step.z_masks[a] & ~step.x_masks[a] == 0
            whites |= step.z_masks[a]
            reds |= step.x_masks[a] & ~step.z_masks[a]
        blues = 0
        for entry in step.matches:
            if entry is not None and entry[0] == "blue":
                for a in range(n):
                    assert entry[1] & step.x_masks[a] == 0
                assert entry[1] & blues == 0
                blues |= entry[1]
        residual = everything & ~(whites | reds | blues)
        assert step.deleted_mask == residual
        assert step.deleted_mask.bit_count() == step.phi[0]
        assert step.phi == (
            residual.bit_count(),
            blues.bit_count(),
            reds.bit_count(),
        )

        # Per-agent guarantees after every iteration: the kept core is worth
        # at least a 1/(alpha+1) share of the current bundle, and core value
        # never grows from one iteration to the next.
        for a in range(n):
            assert vals[a].value_mask(step.z_masks[a]) >= share * vals[a].value_mask(
                step.x_masks[a]
            )
            assert vals[a].value_mask(step.z_masks[a]) <= vals[a].value_mask(
                prev_z[a]
            )

        # Case-by-case post-state.
        i, j, k, g = step.i, step.j, step.k, step.g
        if step.case == "1":
            assert j is None and step.j_mask is None
            assert step.matches[i] == ("white", i)
            assert step.x_masks == tuple(prev_x)
            assert step.z_masks == tuple(prev_z)
        elif step.case == "3":
            assert step.j_mask == prev_x[j] & ~prev_z[j]
            assert step.x_masks[j] == step.z_masks[j] == prev_z[j]
            assert step.matches[i] == ("blue", step.j_mask)
        elif step.case == "4":
            assert prev_matches[j] == ("blue", step.j_mask | (1 << g))
            assert step.matches[j] is None
            assert step.matches[i] == ("blue", step.j_mask)
            assert step.deleted_mask == prev_deleted | (1 << g)
        else:
            assert step.case.startswith("2.")
            assert step.j_mask == prev_z[j] & ~(1 << g)
            assert step.r_mask == prev_x[j] & ~step.j_mask
            if step.case == "2.1":
                assert step.z_masks[j] == step.x_masks[j] == 1 << g
                assert step.matches[i] == ("blue", step.j_mask)
            elif step.case == "2.2":
                assert step.z_masks[j] == step.j_mask
                assert step.x_masks[j] == prev_x[j]
                assert step.matches[i] == ("white", j)
            elif step.case == "2.3":
                assert step.z_masks[j] == step.x_masks[j] == step.r_mask
                assert step.matches[i] == ("blue", step.j_mask)
            else:
                assert step.s_mask and step.s_mask & ~step.r_mask == 0
                if step.case == "2.4":
                    assert step.z_masks[j] == step.x_masks[j] == step.j_mask
                    assert step.matches[k] == ("blue", step.s_mask)
                    assert step.matches[i] == ("white", j)
                elif step.case == "2.5":
                    assert step.z_masks[j] == step.x_masks[j] == step.s_mask
                    assert step.matches[i] == ("blue", step.j_mask)
                else:
                    assert step.case == "2.6"
                    leftover = step.r_mask & ~step.s_mask
                    assert leftover != 0
                    assert step.z_masks[j] == step.x_masks[j] == leftover
                    assert step.matches[k] == ("blue", step.s_mask)
                    assert step.matches[i] == ("blue", step.j_mask)
        prev_x = list(step.x_masks)
        prev_z = list(step.z_masks)
        prev_matches = list(step.matches)
        prev_deleted = step.deleted_mask

    assert len(state.trace) <= (m + 1) ** 3
    assert naive.naive_efx_ok(instance, list(out.masks()), alpha)
    start_product = naive.product_of(instance, list(start.masks()))
    out_product = naive.product_of(instance, list(out.masks()))
    assert out_product >= start_product / (alpha + 1) ** n
    return out, state


def test_available_bundles_scan_order():
    x = [0b0111, 0b1000]
    z = [0b0011, 0b1000]
    matches = [None, ("blue", 0b1100)]
    assert available_bundles(2, x, z, matches) == [
        AvailableBundle("white", 0, 0, 0b0010),
        AvailableBundle("white", 0, 1, 0b0001),
        AvailableBundle("white", 1, 3, 0),
        AvailableBundle("red", 0, None, 0b0100),
        AvailableBundle("red", 1, None, 0),
        AvailableBundle("blue", 1, 2, 0b1000),
        AvailableBundle("blue", 1, 3, 0b0100),
    ]


def test_balanced_start_self_matches():
    instance = example1()
    start = Allocation.from_masks((0b011, 0b100), 3)
    out, state = replay_and_check(instance, start, HALF)
    assert [s.case for s in state.trace] == ["1", "1"]
    assert state.matches == (("white", 0), ("white", 1))
    assert tuple(out.masks()) == (0b011, 0b100)
    assert state.z_masks == state.x_masks == (0b011, 0b100)


@pytest.mark.parametrize("name", sorted(SEEKER_FIXTURES))
def test_seeker_split_cases_fire(name):
    rows, masks, expected_cases = SEEKER_FIXTURES[name]
    instance = additive_instance(rows)
    start = Allocation.from_masks(masks, instance.m)
    _, state = replay_and_check(instance, start, HALF)
    assert [s.case for s in state.trace] == expected_cases


def test_thin_core_fixture_final_state():
    rows, masks, _ = SEEKER_FIXTURES["keep-leftover-minus-seeker-set"]
    instance = additive_instance(rows)
    start = Allocation.from_masks(masks, instance.m)
    out, state = replay_and_check(instance, start, HALF)
    split = next(s for s in state.trace if s.case == "2.6")
    assert (split.i, split.j, split.k, split.g) == (2, 1, 0, 2)
    assert split.j_mask == 0b1000
    assert split.r_mask == 0b0111
    assert split.s_mask == 0b0101
    assert state.matches == (("blue", 0b101), ("white", 1), ("blue", 0b1000))
    assert state.resolved_masks() == (0b0000101, 0b0000010, 0b0001000)
    assert tuple(out.masks()) == state.resolved_masks()


@pytest.mark.parametrize("name", sorted(CORPUS_FIXTURES))
def test_remaining_cases_on_generated_instances(name):
    build, seed, expected_cases = CORPUS_FIXTURES[name]
    instance = build()
    start = random_complete(instance, seed)
    _, state = replay_and_check(instance, start, HALF)
    assert expected_cases <= {s.case for s in state.trace}


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 4), HALF])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_starts_keep_guarantees(alpha, seed):
    instance = random_additive(2 + seed % 2, 5 + seed % 2, 9, seed=40 + seed)
    start = random_complete(instance, 600 + seed)
    replay_and_check(instance, start, alpha)


def test_zero_alpha_accepts_every_start_as_is():
    instance = random_additive(3, 6, 9, seed=77)
    start = random_complete(instance, 78)
    out, state = subadditive_efx_matching(instance, start, Fraction(0))
    assert [s.case for s in state.trace] == ["1"] * 3
    assert state.matches == tuple(("white", a) for a in range(3))
    assert tuple(out.masks()) == tuple(start.masks())


def test_resolved_allocation_reads_matches():
    rows, masks, _ = SEEKER_FIXTURES["keep-grabbed-part"]
    instance = additive_instance(rows)
    start = Allocation.from_masks(masks, instance.m)
    out, state = subadditive_efx_matching(instance, start, HALF)
    resolved = state.resolved_allocation(instance.m)
    assert tuple(resolved.masks()) == state.resolved_masks()
    assert tuple(out.masks()) == state.resolved_masks()
    for tag, ref in state.matches:
        if tag == "white":
            assert state.z_masks[ref] in state.resolved_masks()
        else:
            assert ref in state.resolved_masks()


def test_rejects_alpha_outside_range():
    instance = example1()
    start = Allocation.from_masks((0b011, 0b100), 3)
    for alpha in (Fraction(3, 5), Fraction(1), Fraction(-1, 4)):
        with pytest.raises(ValueError, match="alpha"):
            subadditive_efx_matching(instance, start, alpha)


def test_rejects_general_monotone_valuations():
    instance = monotone_gap_instance(4)
    start = random_complete(instance, 5)
    with pytest.raises(ValueError, match="subadditive"):
        subadditive_efx_matching(instance, start, HALF)


def test_rejects_incomplete_start():
    instance = example1()
    start = Allocation.from_masks((0b001, 0b100), 3)
    with pytest.raises(ValueError, match="complete"):
        subadditive_efx_matching(instance, start, HALF)


def test_rejects_shape_mismatch():
    instance = example1()
    start = Allocation.from_masks((0b0011, 0b1100), 4)
    with pytest.raises(ValueError, match="shape"):
        subadditive_efx_matching(instance, start, HALF)


def test_chain_cycle_decomposition_kinds():
    assert chain_cycle_decomposition([("white", 0)]) == [("cycle-self", (0,))]
    assert chain_cycle_decomposition([("white", 1), ("white", 0)]) == [
        ("cycle", (0, 1))
    ]
    assert chain_cycle_decomposition([("white", 1), None]) == [
        ("chain-open", (0, 1))
    ]
    assert chain_cycle_decomposition([("white", 1), ("blue", 5)]) == [
        ("chain-blue", (0, 1))
    ]


def test_chain_cycle_decomposition_partitions_agents():
    matches = [
        ("white", 0),
        ("white", 2),
        ("blue", 3),
        ("white", 4),
        ("white", 3),
    ]
    structures = chain_cycle_decomposition(matches)
    assert structures == [
        ("chain-blue", (1, 2)),
        ("cycle-self", (0,)),
        ("cycle", (3, 4)),
    ]
    covered = sorted(a for _, seq in structures for a in seq)
    assert covered == list(range(5))


def test_chain_cycle_decomposition_rejects_double_holding():
    with pytest.raises(ValueError, match="two agents hold one bundle"):
        chain_cycle_decomposition([("white", 0), ("white", 0)])
