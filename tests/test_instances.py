"""Instance generators, generator specs, and the JSON file format."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

import naive
from fairdiv import (
    AdditiveValuation,
    CapacityError,
    ExplicitValuation,
    GeneratorSpec,
    MalformedInstanceError,
    additive_gap_instance,
    budget_additive,
    check_class,
    example1,
    generate,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    monotone_gap_instance,
    random_additive,
    save_instance,
    xos,
)


# ---------------------------------------------------------------------------
# fixed instances

def test_example1_shape():
    inst = example1()
    assert (inst.n, inst.m) == (2, 3)
    assert inst.declared_class == "additive"
    for i in range(2):
        assert inst.valuations[i].item_values == (Fraction(1), Fraction(1), Fraction(2))


def test_additive_gap_instance_structure():
    alpha, eps, n = Fraction(1, 2), Fraction(1, 100), 3
    inst = additive_gap_instance(alpha, eps, n)
    assert (inst.n, inst.m) == (n, 2 * n - 1)
    common = 1 / alpha + eps
    for i in range(n):
        row = inst.valuations[i].item_values
        assert row[: n - 1] == (common,) * (n - 1)
        # one personal unit-value item per agent, disjoint across agents
        personal = row[n - 1 :]
        assert personal[i] == 1
        assert all(v == 0 for k, v in enumerate(personal) if k != i)


def test_additive_gap_instance_rejects_bad_parameters():
    with pytest.raises(ValueError):
        additive_gap_instance(Fraction(0), Fraction(1, 100), 2)
    with pytest.raises(ValueError):
        additive_gap_instance(Fraction(2), Fraction(1, 100), 2)
    with pytest.raises(ValueError):
        additive_gap_instance(Fraction(1, 2), Fraction(0), 2)
    with pytest.raises(ValueError):
        additive_gap_instance(Fraction(1, 2), Fraction(1, 100), 1)


def test_monotone_gap_instance_table():
    inst = monotone_gap_instance(16)
    assert (inst.n, inst.m) == (2, 5)
    assert inst.declared_class == "monotone"
    # value depends only on bundle size: 0, 1, 1, 4, 16, 16
    by_size = (0, 1, 1, 4, 16, 16)
    for i in range(2):
        for mask in range(1 << 5):
            assert inst.value_mask(i, mask) == by_size[mask.bit_count()]
    assert check_class(inst).ok


def test_monotone_gap_instance_requires_square():
    with pytest.raises(ValueError):
        monotone_gap_instance(15)
    with pytest.raises(ValueError):
        monotone_gap_instance(0)


# ---------------------------------------------------------------------------
# random families

def test_random_additive_is_deterministic_and_bounded():
    a = random_additive(3, 6, 10, seed=42)
    b = random_additive(3, 6, 10, seed=42)
    c = random_additive(3, 6, 10, seed=43)
    assert instance_to_dict(a) == instance_to_dict(b)
    assert instance_to_dict(a) != instance_to_dict(c)
    for val in a.valuations:
        assert all(0 <= v <= 10 for v in val.item_values)


def test_xos_declares_and_satisfies_subadditivity():
    inst = xos(2, 4, clauses=3, seed=5)
    assert inst.declared_class == "subadditive"
    assert check_class(inst).ok
    # an XOS table is the max over additive rows, so v(full) <= sum of items
    for val in inst.valuations:
        singles = sum(val.value_mask(1 << g) for g in range(4))
        assert val.value_mask((1 << 4) - 1) <= singles


def test_budget_additive_caps_the_sum():
    cap = 7
    inst = budget_additive(2, 5, cap=cap, seed=3)
    assert inst.declared_class == "subadditive"
    assert check_class(inst).ok
    for val in inst.valuations:
        singles = [val.value_mask(1 << g) for g in range(5)]
        for mask in range(1 << 5):
            expect = min(cap, sum(singles[g] for g in naive.mask_items(mask)))
            assert val.value_mask(mask) == expect


# sha256 of the sort_keys JSON of instance_to_dict over each grid below, in
# grid order; pins the values and the rng draw order of the three random families
XOS_GRID = [(n, m, clauses, seed) for n in (1, 2, 3) for m in (0, 1, 4, 7)
            for clauses in (1, 3) for seed in (0, 5, 11)]
BUDGET_GRID = [(n, m, cap, seed) for n in (1, 2, 3) for m in (0, 1, 4, 7)
               for cap in (0, 7, 25) for seed in (0, 5, 11)]
RANDOM_ADDITIVE_GRID = [(n, m, max_value, seed) for n in (1, 2, 3) for m in (0, 1, 4, 7)
                        for max_value in (0, 10, 100) for seed in (0, 5, 11)]
GENERATOR_DIGESTS = {
    "random_additive": "b041919f72ba97cb91a4efbc7b5cbb987e81332ddf9fba3b0f5a28c638c415ba",
    "xos": "cf86ba14b77342cee7ede0c94470d178d4bd4926f0f11807a5d52fc1ee492dcf",
    "budget_additive": "1b1d838f965abc92204a7e9c7084206bd2f5e87f3ca9b25bfdf705263ab5e8b7",
}


def generator_digest(factory, grid) -> str:
    digest = hashlib.sha256()
    for args in grid:
        digest.update(json.dumps(instance_to_dict(factory(*args)), sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "factory, grid",
    [(random_additive, RANDOM_ADDITIVE_GRID), (xos, XOS_GRID), (budget_additive, BUDGET_GRID)],
    ids=["random_additive", "xos", "budget_additive"],
)
def test_table_generators_match_pinned_digest(factory, grid):
    assert generator_digest(factory, grid) == GENERATOR_DIGESTS[factory.__name__]


@pytest.mark.parametrize("max_value", [0, 1, 10])
def test_random_additive_shares_one_fraction_per_drawn_value(max_value):
    inst = random_additive(4, 12, max_value, seed=2)
    values = [v for val in inst.valuations for v in val.item_values]
    assert len({id(v) for v in values}) == len(set(values)) <= max_value + 1


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        random_additive(0, 3, 10, seed=0)
    with pytest.raises(ValueError):
        xos(2, 3, clauses=0, seed=0)
    with pytest.raises(ValueError):
        budget_additive(2, 3, cap=-1, seed=0)


# ---------------------------------------------------------------------------
# generator specs

def test_generator_spec_round_trip_and_id():
    spec = GeneratorSpec("random_additive", (("seed", 3), ("n", 2), ("m", 4), ("max_value", 10)))
    assert spec.instance_id() == "random_additive(m=4,max_value=10,n=2,seed=3)"
    again = GeneratorSpec.from_dict(spec.to_dict())
    assert again == spec
    inst = generate(spec)
    assert (inst.n, inst.m) == (2, 4)
    assert instance_to_dict(inst) == instance_to_dict(random_additive(2, 4, 10, seed=3))


def test_generator_spec_rejects_unknown_family_and_missing_params():
    with pytest.raises(MalformedInstanceError):
        GeneratorSpec("mystery")
    with pytest.raises(MalformedInstanceError):
        GeneratorSpec.from_dict({"n": 2})
    with pytest.raises(MalformedInstanceError):
        generate(GeneratorSpec("random_additive", (("n", 2),)))


@pytest.mark.parametrize("params, message", [
    ((("n", [2]), ("m", 3), ("max_value", 10), ("seed", 1)),
     "family 'random_additive' parameter 'n' must be an integer, got [2]"),
    ((("n", 2), ("m", "three"), ("max_value", 10), ("seed", 1)),
     "family 'random_additive' parameter 'm' must be an integer, got 'three'"),
    ((("n", 2), ("m", 3), ("seed", 1)), "family 'random_additive' needs parameter 'max_value'"),
    ((("n", 2.9), ("m", 3), ("max_value", 10), ("seed", 1)),
     "family 'random_additive' parameter 'n' must be an integer, got 2.9"),
    ((("n", 2), ("m", 3), ("max_value", True), ("seed", 1)),
     "family 'random_additive' parameter 'max_value' must be an integer, got True"),
])
def test_generator_parameters_are_named_when_wrong(params, message):
    with pytest.raises(MalformedInstanceError) as exc:
        generate(GeneratorSpec("random_additive", params))
    assert str(exc.value) == message


def test_generator_spec_ratio_parameters():
    spec = GeneratorSpec("theorem4", (("alpha", "1/2"), ("eps", "1/100"), ("n", 2)))
    inst = generate(spec)
    assert inst.value_mask(0, 1) == Fraction(201, 100)
    spec5 = GeneratorSpec("theorem5", (("N", 16),))
    assert generate(spec5).m == 5


# ---------------------------------------------------------------------------
# JSON round trips

def test_save_load_round_trip_additive(tmp_path):
    inst = random_additive(3, 5, 10, seed=11)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    again = load_instance(str(path))
    assert instance_to_dict(again) == instance_to_dict(inst)
    assert again.declared_class == inst.declared_class


def test_save_load_round_trip_explicit(tmp_path):
    inst = xos(2, 4, clauses=2, seed=9)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    again = load_instance(str(path))
    for i in range(2):
        for mask in range(1 << 4):
            assert again.value_mask(i, mask) == inst.value_mask(i, mask)


def test_loader_tolerates_extra_keys(tmp_path):
    inst = random_additive(2, 4, 10, seed=1)
    data = instance_to_dict(inst)
    data["generator"] = {"family": "random_additive", "n": 2}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    again = load_instance(str(path))
    assert instance_to_dict(again) == instance_to_dict(inst)


def test_loader_accepts_ratio_strings():
    data = {
        "n": 1,
        "m": 2,
        "class": "additive",
        "valuations": [{"additive": ["1/2", 3]}],
    }
    inst = instance_from_dict(data)
    assert inst.value_mask(0, 0b11) == Fraction(7, 2)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("n"),
        lambda d: d.__setitem__("n", "2"),
        lambda d: d.__setitem__("valuations", []),
        lambda d: d["valuations"].__setitem__(0, {"additive": [1]}),
        lambda d: d["valuations"].__setitem__(0, {}),
        lambda d: d["valuations"].__setitem__(0, {"additive": [1, True, 0, 0]}),
        lambda d: d.__setitem__("class", "convex"),
    ],
)
def test_loader_rejects_malformed_documents(mutate):
    data = instance_to_dict(random_additive(2, 4, 10, seed=1))
    mutate(data)
    with pytest.raises(MalformedInstanceError):
        instance_from_dict(data)


def test_loader_rejects_incomplete_table():
    data = instance_to_dict(xos(2, 3, clauses=2, seed=0))
    del data["valuations"][0]["table"]["0"]
    with pytest.raises(MalformedInstanceError):
        instance_from_dict(data)
    bad_key = instance_to_dict(xos(2, 3, clauses=2, seed=0))
    bad_key["valuations"][0]["table"]["eight"] = bad_key["valuations"][0]["table"].pop("0")
    with pytest.raises(MalformedInstanceError):
        instance_from_dict(bad_key)


def test_loader_honors_explicit_table_cap():
    # the cap is checked before the table's 2^m entries are counted
    data = {"n": 1, "m": 17, "class": "subadditive", "valuations": [{"table": {}}]}
    with pytest.raises(CapacityError, match="m=17 exceeds the table cap 16"):
        instance_from_dict(data)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MalformedInstanceError):
        load_instance(str(path))
