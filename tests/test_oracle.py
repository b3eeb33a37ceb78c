"""Exhaustive-search oracles: max product, best bounded-envy product, gaps."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import naive
from fairdiv import (
    AdditiveValuation,
    Bundle,
    CapacityError,
    GeneratorSpec,
    Instance,
    MalformedInstanceError,
    best_alpha_efx_product,
    certify_impossibility,
    check_class,
    exact_mnw,
    example1,
    budget_additive,
    generate,
    mms_share,
    monotone_gap_instance,
    random_additive,
    xos,
)


def test_exact_mnw_on_example1():
    result = exact_mnw(example1())
    assert result.product == 4
    assert result.positive_agent_count == 2
    assert result.nw_positive
    # lexicographically-first optimum: items {0, 1} to agent 0, {2} to agent 1
    assert result.allocation.masks() == (0b011, 0b100)
    # the mirrored allocation is the only other optimum
    assert result.ties == 2


def test_exact_mnw_matches_naive_best_product():
    for seed in range(6):
        inst = random_additive(2 + seed % 2, 4 + seed % 2, 8, seed=seed)
        result = exact_mnw(inst)
        best = naive.naive_best_product(inst)
        if result.nw_positive:
            assert result.product == best
        else:
            assert best == 0 and result.product == 0
        assert result.allocation.complete


def test_exact_mnw_prefers_more_positive_agents():
    inst = Instance(
        2,
        2,
        (AdditiveValuation((3, 3)), AdditiveValuation((1, 2))),
        "additive",
    )
    result = exact_mnw(inst)
    # both agents positive beats agent 0 grabbing everything (product 6)
    assert result.nw_positive
    assert result.product == Fraction(3) * Fraction(2)

    starved = Instance(
        2,
        2,
        (AdditiveValuation((0, 0)), AdditiveValuation((1, 2))),
        "additive",
    )
    res = exact_mnw(starved)
    assert not res.nw_positive
    assert res.product == 0
    assert res.positive_agent_count == 1
    # within count ties, the product of positive values is still maximized
    assert res.allocation.masks()[1] == 0b11


def fractional_additive(seed: int) -> Instance:
    """Additive values with zeros, each agent drawing from its own denominators."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(0, 6 if n < 4 else 5)
    valuations = []
    for _ in range(n):
        denominators = rng.sample((1, 2, 3, 5, 7, 9), 2)
        valuations.append(AdditiveValuation(tuple(
            Fraction(rng.choice((0, 0, 1, 2, 5, 9)), rng.choice(denominators))
            for _ in range(m)
        )))
    return Instance(n, m, tuple(valuations), "additive")


def assert_matches_naive_mnw(inst, result) -> None:
    masks, (count, positive_product), ties = naive.naive_mnw(inst)
    assert result.allocation.masks() == masks
    assert result.positive_agent_count == count
    assert result.product == (positive_product if count == inst.n else 0)
    assert result.ties == ties


def test_pruned_walk_matches_naive_mnw_exactly():
    for seed in range(10):
        inst = random_additive(2 + seed % 2, 4 + seed % 3, 9, seed=1000 + seed)
        assert_matches_naive_mnw(inst, exact_mnw(inst))  # allocation, product, count, ties


def test_exact_mnw_matches_naive_mnw_on_fractional_values():
    short = 0
    for seed in range(120):
        inst = fractional_additive(seed)
        result = exact_mnw(inst)
        assert_matches_naive_mnw(inst, result)
        short += result.positive_agent_count < inst.n
    assert short >= 20  # the count < n keys, where per-agent scales would go wrong


def test_exact_mnw_compares_partial_products_on_one_scale():
    # no allocation makes all three agents positive; the best pair is {0, 1}
    # (product 1/2), ahead of {1, 2} (1/3) and {0, 2} (1/6)
    inst = Instance(
        3,
        2,
        (
            AdditiveValuation((Fraction(1, 2), Fraction(1, 2))),
            AdditiveValuation((1, 1)),
            AdditiveValuation((Fraction(1, 3), Fraction(1, 3))),
        ),
        "additive",
    )
    result = exact_mnw(inst)
    assert result.positive_agent_count == 2
    assert result.product == 0
    assert result.allocation.masks() == (0b01, 0b10, 0)
    assert result.ties == 2
    assert_matches_naive_mnw(inst, result)


def test_exact_mnw_matches_naive_mnw_on_tables():
    for seed in range(6):
        for inst in (
            xos(2 + seed % 2, 3 + seed % 3, clauses=2 + seed % 2, seed=seed),
            budget_additive(2 + seed % 2, 3 + seed % 3, cap=8 + seed, seed=seed),
        ):
            assert_matches_naive_mnw(inst, exact_mnw(inst))


def test_exact_mnw_one_agent_gets_every_item():
    for m in range(6):
        for inst in (
            random_additive(1, m, 3, seed=m),
            Instance(1, m, (AdditiveValuation((0,) * m),), "additive"),
            xos(1, m, clauses=2, seed=m),
            budget_additive(1, m, cap=4, seed=m),
        ):
            result = exact_mnw(inst)
            assert result.allocation.masks() == ((1 << m) - 1,)
            assert_matches_naive_mnw(inst, result)


def test_exact_mnw_enumeration_cap():
    inst = random_additive(3, 16, 5, seed=0)
    with pytest.raises(CapacityError):
        exact_mnw(inst)  # 3^16 states exceed the default cap
    with pytest.raises(CapacityError):
        exact_mnw(example1(), 7)


# each exhaustive search with its state count on a 2-agent, 3-item instance
CAPPED_SEARCHES = {
    "exact_mnw n^m": (lambda cap: exact_mnw(example1(), cap), 2**3),
    "best_alpha_efx_product (n+1)^m": (
        lambda cap: best_alpha_efx_product(example1(), Fraction(1), cap), 3**3),
    "mms_share k^|pool|": (lambda cap: mms_share(example1(), 0, 3, Bundle(0b111), cap), 3**3),
    "check_class 3^m": (lambda cap: check_class(xos(2, 3, clauses=2, seed=0), cap), 3**3),
}


@pytest.mark.parametrize("name", sorted(CAPPED_SEARCHES))
def test_each_search_runs_at_a_cap_equal_to_its_states(name):
    search, states = CAPPED_SEARCHES[name]
    search(states)
    with pytest.raises(CapacityError, match=f"needs {states} states, over the enumeration "
                                            f"cap {states - 1}$"):
        search(states - 1)


def test_best_alpha_efx_product_on_example1():
    best, allocation = best_alpha_efx_product(example1(), Fraction(1))
    assert best == 4
    assert allocation.masks() == (0b011, 0b100)


def test_best_alpha_efx_product_matches_naive():
    for seed in range(4):
        inst = random_additive(2, 4 + seed % 2, 6, seed=2000 + seed)
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
            best, allocation = best_alpha_efx_product(inst, alpha)
            assert best == naive.naive_best_efx_product(inst, alpha)
            assert naive.naive_efx_ok(inst, allocation.masks(), alpha)
            assert naive.product_of(inst, allocation.masks()) == best


def test_best_alpha_efx_validation_and_cap():
    with pytest.raises(ValueError):
        best_alpha_efx_product(example1(), Fraction(2))
    with pytest.raises(CapacityError):
        best_alpha_efx_product(example1(), Fraction(1), 26)


# ---------------------------------------------------------------------------
# impossibility certificates

def test_additive_gap_certificate_closed_forms():
    alpha, eps = Fraction(1, 2), Fraction(1, 100)
    spec = GeneratorSpec(
        "theorem4", (("alpha", str(alpha)), ("eps", str(eps)), ("n", 2))
    )
    cert = certify_impossibility(spec)
    common = 1 / alpha + eps
    assert cert.verified
    assert cert.best_must_equal_bound
    assert cert.mnw_product == 1 + common == Fraction(301, 100)
    assert cert.best_efx_product == common == Fraction(201, 100)
    assert cert.ratio == Fraction(201, 301)
    # replay the search side with the naive (n+1)^m enumeration
    instance = generate(spec)
    assert naive.naive_best_efx_product(instance, alpha) == cert.best_efx_product
    assert naive.naive_best_product(instance) == cert.mnw_product


def test_monotone_gap_certificate():
    spec = GeneratorSpec("theorem5", (("N", 16),))
    cert = certify_impossibility(spec)
    assert cert.alpha == Fraction(1, 2)
    assert cert.mnw_product == 16
    assert cert.expected_best_bound == 4
    assert cert.best_efx_product <= 4
    assert not cert.best_must_equal_bound
    assert cert.verified
    # the verified optimum really is achievable: a 4/1 item split scores 16
    inst = monotone_gap_instance(16)
    assert naive.product_of(inst, cert.mnw_allocation.masks()) == 16
    assert naive.naive_efx_ok(
        inst, cert.best_allocation.masks(), cert.alpha
    )


def test_certificates_reject_other_families():
    with pytest.raises(ValueError):
        certify_impossibility(GeneratorSpec("example1"))


@pytest.mark.parametrize("spec, message", [
    (GeneratorSpec("theorem5"), "family 'theorem5' needs parameter 'N'"),
    (GeneratorSpec("theorem5", (("N", None),)), "family 'theorem5' needs parameter 'N'"),
    (GeneratorSpec("theorem4", (("alpha", "1/2"), ("n", 2))), "family 'theorem4' needs parameter 'eps'"),
    (GeneratorSpec("theorem4", (("alpha", "1/2"), ("eps", "tiny"), ("n", 2))),
     "family 'theorem4' parameter 'eps' must be a ratio, got 'tiny'"),
    (GeneratorSpec("theorem4", (("alpha", "1/2"), ("eps", "1/10"), ("n", [2]))),
     "family 'theorem4' parameter 'n' must be an integer, got [2]"),
])
def test_certificates_name_a_missing_or_malformed_parameter(spec, message):
    with pytest.raises(MalformedInstanceError) as exc:
        certify_impossibility(spec)
    assert str(exc.value) == message


def test_certificate_json_shape():
    cert = certify_impossibility(GeneratorSpec("theorem5", (("N", 9),)))
    data = cert.to_json_dict()
    assert data["family"] == "theorem5"
    assert data["verified"] is True
    assert data["mnw_product"] == "9"
    assert data["alpha"] == "2/3"
