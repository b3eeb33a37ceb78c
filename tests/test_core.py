"""Primitives: rationals, bundles, valuations, instances, allocations."""

from __future__ import annotations

import random
import re
import types
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairdiv import (
    AdditiveValuation,
    Allocation,
    Bundle,
    CapacityError,
    EMPTY_BUNDLE,
    ExplicitValuation,
    Instance,
    IterationBoundError,
    MalformedInstanceError,
    check_class,
    format_ratio,
    full_mask,
    iter_mask,
    mask_of,
    nash_product,
    parse_ratio,
)
from fairdiv.core import ratio_or_int

import fairdiv
import naive


# ---------------------------------------------------------------------------
# rationals

def test_parse_ratio_accepts_ints_strings_and_fractions():
    assert parse_ratio(7) == Fraction(7)
    assert parse_ratio("7") == Fraction(7)
    assert parse_ratio("3/4") == Fraction(3, 4)
    assert parse_ratio("-3/4") == Fraction(-3, 4)
    assert parse_ratio("0.25") == Fraction(1, 4)
    assert parse_ratio(Fraction(2, 6)) == Fraction(1, 3)
    third = Fraction(1, 3)
    assert parse_ratio(third) is third  # immutable, so not copied


def test_parse_ratio_reads_floats_by_their_printed_form():
    assert parse_ratio(0.5) == Fraction(1, 2)
    # repr(0.1) is "0.1", so the decimal string wins over the binary expansion
    assert parse_ratio(0.1) == Fraction(1, 10)
    # a float's repr may carry an exponent, bounded by the float range
    assert parse_ratio(1e300) == 10**300


@pytest.mark.parametrize(
    "bad", [True, False, "three", "1/0", "", None, [1], "1e99999999", "2.5E-3", "1e2/3"]
)
def test_parse_ratio_rejects_non_rationals(bad):
    with pytest.raises(MalformedInstanceError):
        parse_ratio(bad)


def test_format_ratio_round_trips():
    assert format_ratio(Fraction(3, 4)) == "3/4"
    assert format_ratio(Fraction(4)) == "4"
    assert format_ratio(Fraction(-1, 2)) == "-1/2"
    for text in ("3/4", "4", "-1/2", "0"):
        assert format_ratio(parse_ratio(text)) == text


def test_ratio_or_int_keeps_integers_plain():
    assert ratio_or_int(Fraction(4)) == 4
    assert ratio_or_int(Fraction(1, 2)) == "1/2"


# ---------------------------------------------------------------------------
# masks and bundles

def test_mask_of_and_iter_mask():
    assert mask_of([0, 2, 3]) == 0b1101
    assert mask_of([2, 2]) == 0b100
    assert mask_of([]) == 0
    assert list(iter_mask(0b1101)) == [0, 2, 3]
    assert list(iter_mask(0)) == []
    with pytest.raises(ValueError):
        mask_of([1, -1])


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111


def test_bundle_basics():
    b = Bundle(mask_of([3, 1]))
    assert b.mask == 0b1010
    assert b.items() == (1, 3)
    assert list(b) == [1, 3]
    assert len(b) == 2
    assert 1 in b and 0 not in b and -1 not in b
    assert bool(b) and not bool(EMPTY_BUNDLE)
    assert Bundle(0b1010) == b


def test_bundle_remove():
    b = Bundle(0b1010)
    assert b.remove(3) == Bundle(0b0010)
    assert b.remove(2) == b  # removing an absent item is a no-op
    with pytest.raises(ValueError):
        b.remove(-1)
    with pytest.raises(ValueError):
        Bundle(-1)


def test_bundle_set_algebra():
    a = Bundle(0b0111)
    b = Bundle(0b1100)
    assert (a | b) == Bundle(0b1111)
    assert a.union(b) == (a | b)
    assert a.remove(2).remove(3) == Bundle(0b0011)


items_strategy = st.lists(st.integers(min_value=0, max_value=15), max_size=8)


@given(items_strategy, items_strategy)
def test_bundle_algebra_matches_sets(xs, ys):
    a, b = Bundle(mask_of(xs)), Bundle(mask_of(ys))
    sa, sb = set(xs), set(ys)
    assert a.items() == tuple(sorted(sa))
    assert set((a | b).items()) == sa | sb
    for g in ys:
        a = a.remove(g)
    assert set(a.items()) == sa - sb


# ---------------------------------------------------------------------------
# valuations

def test_additive_valuation_values():
    v = AdditiveValuation(("1/2", 2, 0))
    assert v.m == 3
    assert v.item_values == (Fraction(1, 2), Fraction(2), Fraction(0))
    assert v.value_mask(0b011) == Fraction(5, 2)
    assert v.value_mask(0) == 0
    with pytest.raises(ValueError):
        v.value_mask(1 << 3)


MIXED_VALUES = (Fraction(1, 2), Fraction(2, 3), Fraction(0), Fraction(5, 7), Fraction(3), Fraction(0))


def defined_value(item_values, mask: int) -> Fraction:
    """v(S) by its definition: the Fraction sum of the item values in S."""
    items = [g for g in range(len(item_values)) if mask >> g & 1]
    return sum((item_values[g] for g in items), Fraction(0))


def check_value_mask(item_values, mask: int) -> None:
    got = AdditiveValuation(item_values).value_mask(mask)
    assert type(got) is Fraction
    assert got == defined_value(item_values, mask)


@pytest.mark.parametrize("m", range(7))
def test_additive_value_mask_is_the_sum_of_item_values_on_every_mask(m):
    for item_values in (MIXED_VALUES[:m], MIXED_VALUES[::-1][:m], (Fraction(0),) * m):
        for mask in range(1 << m):
            check_value_mask(item_values, mask)


@given(st.data())
def test_additive_value_mask_is_the_sum_of_item_values(data):
    m = data.draw(st.integers(min_value=0, max_value=60))
    values = st.sampled_from(MIXED_VALUES) | st.fractions(min_value=0, max_value=100, max_denominator=30)
    item_values = tuple(data.draw(st.lists(values, min_size=m, max_size=m)))
    # one coin per item, so high items are as likely in the mask as low ones
    bits = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    mask = data.draw(st.sampled_from((0, (1 << m) - 1, sum(1 << g for g in range(m) if bits[g]))))
    check_value_mask(item_values, mask)


@pytest.mark.parametrize("m", [0, 1, 3, 6])
def test_additive_value_mask_names_the_lowest_item_out_of_range(m):
    v = AdditiveValuation(MIXED_VALUES[:m])
    for mask in (1 << m, (1 << m) | 1, (0b101 << m) | 1):
        with pytest.raises(ValueError) as err:
            v.value_mask(mask)
        assert str(err.value) == f"item {m} out of range for m={m}"


def test_additive_valuation_int_form_leaves_equality_hash_and_repr_alone():
    parsed = AdditiveValuation(("1/2", 2))
    given_fractions = AdditiveValuation((Fraction(1, 2), Fraction(2)))
    assert parsed == given_fractions
    assert hash(parsed) == hash(given_fractions)
    assert repr(parsed) == repr(given_fractions) == (
        "AdditiveValuation(item_values=(Fraction(1, 2), Fraction(2, 1)))"
    )
    assert (parsed.den, parsed.nums) == (2, (1, 4))


def test_additive_valuation_rejects_negative_values():
    with pytest.raises(MalformedInstanceError):
        AdditiveValuation((1, -2))


def test_explicit_valuation_table():
    table = {0: 0, 1: 1, 2: 1, 3: "3/2"}
    v = ExplicitValuation(2, table)
    assert v.value_mask(3) == Fraction(3, 2)
    assert v.kind == "explicit"


def test_explicit_valuation_rejects_bad_tables():
    with pytest.raises(MalformedInstanceError):
        ExplicitValuation(1, {0: 0, 1: -1})
    with pytest.raises(MalformedInstanceError):
        ExplicitValuation(1, {0: 0, 5: 1})


@pytest.mark.parametrize("m, table, first_missing", [
    (0, {}, 0),
    (1, {0: 0}, 1),
    (2, {0: 0, 1: 1, 3: 2}, 2),
])
def test_explicit_valuation_refuses_a_partial_table(m, table, first_missing):
    # missing entries are an error, not zero, and the table is refused where it is built
    message = (f"explicit valuation table has {len(table)} entries, needs {1 << m} "
               f"(first missing mask {first_missing})")
    with pytest.raises(MalformedInstanceError, match=rf"^{re.escape(message)}$"):
        ExplicitValuation(m, table)


def test_explicit_valuation_size_cap():
    table = {mask: 0 for mask in range(1 << 17)}
    with pytest.raises(CapacityError, match="m=17 exceeds the table cap 16"):
        ExplicitValuation(17, table)
    # the cap is checked before the table is read or 1 << m is built
    with pytest.raises(CapacityError, match=f"m={10**20} exceeds"):
        ExplicitValuation(10**20, {})


# ---------------------------------------------------------------------------
# instances

def _two_agent_instance() -> Instance:
    return Instance(
        2,
        3,
        (AdditiveValuation((1, 1, 2)), AdditiveValuation((2, 1, 1))),
        "additive",
    )


def test_instance_validation_errors():
    vals = (AdditiveValuation((1,)), AdditiveValuation((1,)))
    with pytest.raises(MalformedInstanceError):
        Instance(0, 1, (), "additive")
    with pytest.raises(MalformedInstanceError):
        Instance(2, 1, vals[:1], "additive")
    with pytest.raises(MalformedInstanceError):
        Instance(2, 1, vals, "supermodular")
    with pytest.raises(MalformedInstanceError):
        Instance(2, 2, vals, "additive")  # m mismatch
    with pytest.raises(MalformedInstanceError):
        Instance(1, 1, (ExplicitValuation(1, {0: 0, 1: 1}),), "additive")


def test_instance_value_lookup():
    inst = _two_agent_instance()
    assert inst.is_additive
    assert inst.value_mask(0, 0b110) == 3
    assert inst.value_mask(1, 0b001) == 2
    with pytest.raises(ValueError):
        inst.value_mask(2, 0)
    with pytest.raises(ValueError):
        inst.value_mask(0, 1 << 3)


# ---------------------------------------------------------------------------
# allocations

def test_allocation_construction_and_views():
    alloc = Allocation.from_masks((0b101, 0b010), 3)
    assert alloc.n == 2 and alloc.m == 3
    assert alloc.masks() == (0b101, 0b010)
    assert alloc.union_mask == 0b111
    assert alloc.complete
    assert alloc.unallocated() == EMPTY_BUNDLE

    partial = Allocation.from_masks((0b001, 0b010), 3)
    assert not partial.complete
    assert partial.unallocated() == Bundle(0b100)


def test_allocation_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        Allocation.from_masks((0b11, 0b10), 2)
    with pytest.raises(ValueError):
        Allocation.from_masks((0b100, 0), 2)


def test_allocation_from_bundles():
    alloc = Allocation((Bundle(0b100), Bundle(mask_of([1]))), 3)
    assert alloc.masks() == (0b100, 0b010)
    with pytest.raises(ValueError):
        Allocation((Bundle(0b001), Bundle(mask_of([0]))), 3)  # would overlap agent 0


def test_nash_product_and_positive_profile():
    inst = _two_agent_instance()
    alloc = Allocation.from_masks((0b100, 0b011), 3)
    assert nash_product(inst, alloc) == Fraction(2) * Fraction(3)

    starved = Allocation.from_masks((0b111, 0), 3)
    assert nash_product(inst, starved) == 0

    with pytest.raises(ValueError):
        nash_product(inst, Allocation.from_masks((0b1,), 1))


# ---------------------------------------------------------------------------
# valuation-class checking

def test_check_class_additive_passes():
    report = check_class(_two_agent_instance())
    assert report.ok and report.verdict == "pass"


def test_check_class_flags_nonzero_empty_set():
    inst = Instance(1, 1, (ExplicitValuation(1, {0: 1, 1: 2}),), "monotone")
    report = check_class(inst)
    assert report.verdict == "malformed"


def test_check_class_flags_monotonicity_violation():
    inst = Instance(1, 2, (ExplicitValuation(2, {0: 0, 1: 2, 2: 1, 3: 1}),), "monotone")
    report = check_class(inst)
    assert report.verdict == "monotonicity"
    # the witness is a replayable pair: v(s) > v(s | {g})
    s, g = report.s.mask, report.g
    assert inst.value_mask(report.agent, s) > inst.value_mask(report.agent, s | (1 << g))


def test_check_class_flags_subadditivity_violation():
    inst = Instance(
        1, 2, (ExplicitValuation(2, {0: 0, 1: 1, 2: 1, 3: 3}),), "subadditive"
    )
    report = check_class(inst)
    assert report.verdict == "subadditivity"
    s, t = report.s.mask, report.t.mask
    assert s & t == 0
    assert inst.value_mask(report.agent, s | t) > (
        inst.value_mask(report.agent, s) + inst.value_mask(report.agent, t)
    )
    # the same table declared merely monotone is fine
    assert check_class(Instance(1, 2, inst.valuations, "monotone")).ok


def test_check_class_caps_the_subadditivity_walk():
    table = {mask: mask.bit_count() for mask in range(8)}
    inst = Instance(1, 3, (ExplicitValuation(3, table),), "subadditive")
    assert check_class(inst, 27).ok
    with pytest.raises(CapacityError, match=r"3\^3"):
        check_class(inst, 26)
    # the cap guards the 3^m walk only: structure and monotonicity come first
    broken = Instance(1, 3, (ExplicitValuation(3, {**table, 0: 1}),), "subadditive")
    assert check_class(broken, 1).verdict == "malformed"
    assert check_class(Instance(1, 3, inst.valuations, "monotone"), 1).ok
    # for every table, so a later agent's dent is found under any cap
    dented = ExplicitValuation(3, {**table, 0b111: 0})
    report = check_class(Instance(2, 3, (inst.valuations[0], dented), "subadditive"), 1)
    assert (report.verdict, report.agent) == ("monotonicity", 1)


def random_class_table(rng: random.Random, m: int, kind: str) -> dict[int, Fraction]:
    """A max of 1-3 additive clauses over mixed denominators, then, by kind:
    "bump" adds to every superset of a random set (monotone, often not
    subadditive), "square" squares every value (monotone, superadditive),
    "dent" lowers one entry (often not monotone)."""
    clauses = [[Fraction(rng.randint(0, 10), rng.randint(1, 6)) for _ in range(m)]
               for _ in range(rng.randint(1, 3))]
    table = {mask: max(sum((row[g] for g in iter_mask(mask)), Fraction(0)) for row in clauses)
             for mask in range(1 << m)}
    if kind == "bump" and m >= 2:
        core = mask_of(rng.sample(range(m), rng.randint(2, m)))
        bump = Fraction(rng.randint(1, 30), rng.randint(1, 4))
        table = {mask: v + bump if mask & core == core else v for mask, v in table.items()}
    elif kind == "square":
        table = {mask: v * v / rng.randint(1, 5) for mask, v in table.items()}
    elif kind == "dent" and m >= 1:
        mask = rng.randrange(1, 1 << m)
        table[mask] *= Fraction(rng.randint(0, 3), 4)
    return table


def test_check_class_matches_the_naive_walk():
    rng = random.Random(2024)
    verdicts = []
    for _ in range(400):
        n, m = rng.randint(1, 3), rng.randint(1, 7)
        tables = [random_class_table(rng, m, rng.choice(("plain", "bump", "bump", "square", "dent")))
                  for _ in range(n)]
        declared = "monotone" if rng.randrange(6) == 0 else "subadditive"
        inst = Instance(n, m, tuple(ExplicitValuation(m, t) for t in tables), declared)
        report = check_class(inst)
        verdict, agent, s, t, g = naive.naive_class_report(inst)
        verdicts.append(verdict)
        assert (report.verdict, report.agent, report.g) == (verdict, agent, g)
        assert report.s == (None if s is None else Bundle(s))
        assert report.t == (None if t is None else Bundle(t))
        v = None if agent is None else tables[agent]
        if verdict == "monotonicity":
            assert report.detail == f"agent {agent}: v(S + item {g}) = {v[s | 1 << g]} < {v[s]} = v(S)"
        elif verdict == "subadditivity":
            assert report.detail == (
                f"agent {agent}: v(S u T) = {v[s | t]} > {v[s]} + {v[t]} = v(S) + v(T)"
            )
    assert verdicts.count("subadditivity") >= 100
    assert verdicts.count("monotonicity") >= 20 and verdicts.count("pass") >= 30


def test_scaled_values_share_one_scale():
    inst = Instance(
        2,
        2,
        (
            AdditiveValuation((Fraction(1, 2), 0)),
            ExplicitValuation(2, {0: 0, 1: Fraction(1, 3), 2: 1, 3: Fraction(5, 4)}),
        ),
        "monotone",
    )
    scale, values = inst.scaled_values
    assert scale == 12
    assert values == ((6, 0), (0, 4, 12, 15))
    assert inst.scaled_values is inst.scaled_values


def test_check_class_json_shape():
    report = check_class(
        Instance(1, 2, (ExplicitValuation(2, {0: 0, 1: 1, 2: 1, 3: 3}),), "subadditive")
    )
    data = report.to_json_dict()
    assert data["verdict"] == "subadditivity"
    assert data["agent"] == 0
    assert sorted(data["s"] + data["t"]) == [0, 1]


# ---------------------------------------------------------------------------
# errors

def test_error_hierarchy():
    for exc in (MalformedInstanceError, CapacityError, IterationBoundError):
        assert issubclass(exc, Exception)
    # malformed input and capacity overruns are distinct failure kinds
    assert not issubclass(CapacityError, MalformedInstanceError)
    assert not issubclass(MalformedInstanceError, CapacityError)


# ---------------------------------------------------------------------------
# package surface

def test_all_lists_exactly_the_public_names():
    bound = {name for name, value in vars(fairdiv).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(fairdiv.__all__) == sorted(bound)
    namespace: dict = {}
    exec("from fairdiv import *", namespace)
    assert set(namespace) - {"__builtins__"} == bound
