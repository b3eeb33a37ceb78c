"""Acceptance gate: nine end-to-end guarantees checked at zero tolerance.

Every numeric comparison is exact (integers and Fractions; no floats, no
epsilons). Each test prints one "[criterion N] <label>: PASS/FAIL" line;
wall-clock budgets are asserted inside the same block.

Side checkers come from tests/naive.py, which never calls the library's
verification code, so every guarantee is confirmed by two independent routes.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import conftest
import naive
from fairdiv import (
    Allocation,
    GeneratorSpec,
    additive_efx_matching,
    available_bundles,
    certify_impossibility,
    generate,
    matching_with_restarts,
    pipeline_subadditive,
    subadditive_efx_matching,
)
from naive import chain_cycle_decomposition

WHITE = "white"
BLUE = "blue"

ALPHAS_FIVE = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 5), Fraction(1))
ALPHAS_FOUR = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 5))
ALPHAS_THREE = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
ALPHAS_MMS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 5))
ALPHAS_RESTART = (Fraction(0), Fraction(1, 2), Fraction(1))


class criterion:
    """Context manager printing one PASS/FAIL line per acceptance criterion."""

    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label

    def __enter__(self):
        self.started = time.monotonic()
        return self

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        line = f"[criterion {self.number}] {self.label}: {status}"
        print(line, flush=True)
        conftest.ACCEPTANCE_LINES.append(line)
        return False


def random_complete(instance, seed: int) -> Allocation:
    """Seeded uniformly random complete allocation (same scheme as conftest)."""
    rng = random.Random(seed)
    masks = [0] * instance.n
    for g in range(instance.m):
        masks[rng.randrange(instance.n)] |= 1 << g
    return Allocation.from_masks(masks, instance.m)


def _value(instance, agent: int, mask: int) -> Fraction:
    return instance.valuations[agent].value_mask(mask)


# ---------------------------------------------------------------------------
# criterion 1: matching on a max-product start


def test_partial_matching_guarantees(corpus1, mnw_for):
    with criterion(1, "matching from max-product starts") as c:
        for idx, instance in enumerate(corpus1):
            alpha = ALPHAS_FIVE[idx % 5]
            mnw = mnw_for(("c1", idx), instance)
            assert mnw.nw_positive
            out, _state = additive_efx_matching(instance, mnw.allocation, alpha)
            masks = out.masks()
            assert naive.naive_efx_ok(instance, masks, alpha)
            assert naive.naive_ef1_ok(instance, masks)
            p, q = alpha.numerator, alpha.denominator
            n = instance.n
            achieved = naive.product_of(instance, masks)
            assert q**n * mnw.product <= (p + q) ** n * achieved
        assert c.elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: full additive pipeline


def test_complete_additive_guarantees(corpus1, pipeline_for):
    with criterion(2, "complete additive pipeline") as c:
        for idx, instance in enumerate(corpus1):
            alpha = ALPHAS_FOUR[idx % 4]
            result = pipeline_for(("c1", idx), instance, alpha)
            assert result.ok
            masks = result.allocation.masks()
            allocated = 0
            for mask in masks:
                allocated |= mask
            assert allocated == (1 << instance.m) - 1
            assert naive.naive_efx_ok(instance, masks, alpha)
            assert naive.naive_ef1_ok(instance, masks)
            achieved = naive.product_of(instance, masks)
            n = instance.n
            assert achieved * (alpha + 1) ** n >= result.mnw.product
        assert c.elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 3: subadditive pipeline


def test_subadditive_pipeline_guarantees(corpus3):
    with criterion(3, "subadditive pipeline") as c:
        for idx, instance in enumerate(corpus3):
            alpha = ALPHAS_THREE[idx % 3]
            result = pipeline_subadditive(instance, alpha)
            assert result.ok
            masks = result.allocation.masks()
            allocated = 0
            for mask in masks:
                allocated |= mask
            assert allocated == (1 << instance.m) - 1
            assert naive.naive_efx_ok(instance, masks, alpha)
            best = naive.naive_best_product(instance)
            achieved = naive.product_of(instance, masks)
            assert achieved * (alpha + 1) ** instance.n >= best
        assert c.elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 4: additive gap certificates


def test_tradeoff_gap_certificates():
    with criterion(4, "additive gap certificates") as c:
        eps = Fraction(1, 100)
        for alpha in (Fraction(1, 2), Fraction(1)):
            for n in (2, 3):
                spec = GeneratorSpec(
                    "theorem4",
                    (("alpha", str(alpha)), ("eps", str(eps)), ("n", n)),
                )
                cert = certify_impossibility(spec)
                assert cert.verified
                assert cert.best_must_equal_bound
                expected_mnw = (1 + 1 / alpha + eps) ** (n - 1)
                expected_best = (1 / alpha + eps) ** (n - 1)
                assert cert.mnw_product == expected_mnw
                assert cert.best_efx_product == expected_best
                assert cert.ratio == expected_best / expected_mnw
                instance = generate(spec)
                assert naive.naive_best_product(instance) == expected_mnw
                assert naive.naive_best_efx_product(instance, alpha) == expected_best
        assert c.elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 5: monotone gap certificates


def test_monotone_gap_certificates():
    with criterion(5, "monotone gap certificates") as c:
        for big_n in (16, 25):
            spec = GeneratorSpec("theorem5", (("N", big_n),))
            cert = certify_impossibility(spec)
            assert cert.verified
            root = math.isqrt(big_n)
            assert root * root == big_n
            assert cert.alpha == Fraction(2, root)
            assert cert.mnw_product == big_n
            assert cert.expected_best_bound == root
            assert cert.best_efx_product <= root
            instance = generate(spec)
            assert instance.n == 2 and instance.m == 5
            assert naive.naive_best_product(instance) == big_n
            assert naive.naive_best_efx_product(instance, cert.alpha) == cert.best_efx_product
        assert c.elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 6: maximin-share family guarantees


def test_mms_family_guarantees(corpus1, pipeline_for):
    with criterion(6, "maximin-share family guarantees") as c:
        for idx, instance in enumerate(corpus1):
            alpha = ALPHAS_MMS[idx % 3]
            result = pipeline_for(("c1", idx), instance, alpha)
            assert result.ok
            gmms = result.reports[3]
            pmms = result.reports[4]
            assert gmms.prop == "alpha_gmms"
            assert gmms.params["alpha"] == alpha / (alpha * alpha + 1)
            assert gmms.passed
            assert pmms.prop == "alpha_pmms"
            assert pmms.params["alpha"] == alpha
            assert pmms.passed
        assert c.elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 7: restart loop from a worst positive start


def test_restart_loop_bounds(corpus1, mnw_for):
    with criterion(7, "restart loop round bounds") as c:
        for idx, instance in enumerate(corpus1[:50]):
            alpha = ALPHAS_RESTART[idx % 3]
            n, m = instance.n, instance.m
            worst_masks, worst_product = naive.worst_positive_allocation(instance)
            assert worst_masks is not None and worst_product > 0
            start = Allocation.from_masks(worst_masks, m)
            optimum = mnw_for(("c1", idx), instance).product
            ratio = worst_product / optimum
            assert 0 < ratio <= 1
            result = matching_with_restarts(instance, start, alpha, beta=ratio)
            bound_base = n * (n - 1) * (alpha + 1)
            assert result.rounds**n * ratio <= bound_base**n
            if alpha == 0:
                assert result.rounds == 0
            masks = result.allocation.masks()
            assert naive.naive_efx_ok(instance, masks, alpha)
            achieved = naive.product_of(instance, masks)
            assert achieved * (alpha + 1) ** n >= worst_product
        assert c.elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 8: per-iteration trace invariants


def _replay_matching_trace(instance, start, alpha):
    """Run the additive matching and re-check every per-iteration invariant."""
    out, state = additive_efx_matching(instance, start, alpha)
    n, m = instance.n, instance.m
    x = state.x_masks
    assert x == start.masks()
    assert len(state.trace) <= (m + 1) * n
    previous_potential = (0, 0)
    for step in state.trace:
        z, matches = step.z_masks, step.matches
        held = [slot for slot in matches if slot is not None]
        assert len(held) == len(set(held))
        for a in range(n):
            assert z[a] & ~x[a] == 0
            assert matches[a] is None or 0 <= matches[a] < n
        for a in range(n):
            slot = matches[a]
            if slot is None:
                continue
            va = instance.valuations[a]
            matched_value = va.value_mask(z[slot])
            factor = alpha if z[a] == x[a] else Fraction(1)
            for j in range(n):
                for g in naive.mask_items(z[j]):
                    assert matched_value >= factor * va.value_mask(z[j] & ~(1 << g))
            if slot != a:
                own = va.value_mask(z[a])
                assert matched_value > own
                if z[a] == x[a]:
                    assert alpha > 0
                    assert alpha * matched_value > own
        for a in range(n):
            if z[a] != x[a]:
                assert a in held
        removed = sum((x[a] & ~z[a]).bit_count() for a in range(n))
        self_matched = sum(1 for a, slot in enumerate(matches) if slot == a)
        potential = (removed, self_matched)
        assert potential > previous_potential
        previous_potential = potential
    assert all(slot is not None for slot in state.matches)
    assert naive.naive_efx_ok(instance, out.masks(), alpha)
    if alpha == 0:
        assert len(state.trace) == n
        assert out.masks() == start.masks()


def _matched_mask(z, entry):
    kind, ref = entry
    return z[ref] if kind == WHITE else ref


def _scaled_product(instance, x, matches, alpha) -> Fraction:
    blue_count = sum(1 for e in matches if e is not None and e[0] == BLUE)
    product = Fraction(1)
    for a in range(len(x)):
        product *= _value(instance, a, x[a])
    return ((alpha + 1) / alpha) ** blue_count * product


def _replay_core_trace(instance, start, alpha):
    """Run the subadditive core matching and re-check every invariant."""
    out, state = subadditive_efx_matching(instance, start, alpha)
    n, m = instance.n, instance.m
    full = (1 << m) - 1
    assert len(state.trace) <= (m + 1) ** 3
    share = alpha / (alpha + 1)

    prev_x = start.masks()
    prev_z = start.masks()
    prev_matches = (None,) * n
    prev_bundles = {
        b.mask
        for b in available_bundles(n, list(prev_x), list(prev_z), list(prev_matches))
    }
    prev_potential = None
    if alpha > 0:
        prev_potential = _scaled_product(instance, prev_x, prev_matches, alpha)

    split_cases = {"2.1", "2.2", "2.3", "2.4", "2.5", "2.6"}
    for step in state.trace:
        x, z, matches, case = step.x_masks, step.z_masks, step.matches, step.case

        # every agent keeps a protected share of its slot, and the carved-off
        # part stays below the complementary share
        for a in range(n):
            assert z[a] & ~x[a] == 0
            assert _value(instance, a, x[a] & ~z[a]) <= share * _value(instance, a, x[a])
            assert (alpha + 1) * _value(instance, a, z[a]) >= _value(instance, a, x[a])
        actors = [p for p in (step.i, step.j, step.k) if p is not None]
        assert len(actors) == len(set(actors))
        if case in split_cases or case in ("3", "4"):
            assert step.j_mask
        if case in ("2.4", "2.5", "2.6"):
            assert step.s_mask

        # slots stay pairwise disjoint, and frozen bundles never overlap them
        taken = 0
        for a in range(n):
            assert z[a] & taken == 0
            taken |= z[a]
        ground = 0
        for a in range(n):
            assert x[a] & ground == 0
            ground |= x[a]
        for entry in matches:
            if entry is not None and entry[0] == BLUE:
                assert entry[1] & ground == 0
                ground |= entry[1]

        # an agent keeping the same slot across a step sees the same bundle
        for a in range(n):
            entry = matches[a]
            if entry is not None and entry[0] == WHITE and prev_matches[a] == entry:
                assert z[entry[1]] == prev_z[entry[1]]

        # the holder graph splits into chains and cycles covering everyone,
        # and a chain's head slot is untouched
        parts = chain_cycle_decomposition(matches)
        seen: list[int] = []
        for kind, agents in parts:
            seen.extend(agents)
            if kind in ("chain-open", "chain-blue"):
                assert z[agents[0]] == x[agents[0]]
        assert sorted(seen) == list(range(n))

        # new offers appear only where the step's case carves them out
        bundles = {
            b.mask for b in available_bundles(n, list(x), list(z), list(matches))
        }
        fresh = [
            h for h in bundles if not any(h & ~j == 0 for j in prev_bundles)
        ]
        if case in ("2.2", "2.3"):
            assert all(h & ~step.r_mask == 0 for h in fresh)
        elif case in ("2.4", "2.5", "2.6"):
            leftover = step.r_mask & ~step.s_mask
            assert all(
                (h != step.s_mask and h & ~step.s_mask == 0) or h & ~leftover == 0
                for h in fresh
            )
        else:
            assert fresh == []

        # matched agents dominate every available offer at factor alpha, and
        # anyone matched away from their own slot strictly gained
        for a in range(n):
            entry = matches[a]
            if entry is None:
                continue
            held = _value(instance, a, _matched_mask(z, entry))
            for mask in bundles:
                assert held >= alpha * _value(instance, a, mask)
            if entry != (WHITE, a):
                assert alpha > 0
                assert alpha * held > _value(instance, a, z[a])

        # slot values never rise
        for a in range(n):
            assert _value(instance, a, z[a]) <= _value(instance, a, prev_z[a])

        # the scaled slot product never falls
        if alpha > 0:
            potential = _scaled_product(instance, x, matches, alpha)
            assert potential >= prev_potential
            prev_potential = potential

        # only reclaiming and splitting steps may rewrite slots
        if case in ("1", "2.2", "4"):
            assert x == prev_x

        # deleted items are exactly the ones no slot, leftover, or frozen
        # bundle covers
        whites = 0
        reds = 0
        blues = 0
        for a in range(n):
            whites |= z[a]
            reds |= x[a] & ~z[a]
        for entry in matches:
            if entry is not None and entry[0] == BLUE:
                blues |= entry[1]
        residual = full & ~(whites | reds | blues)
        assert step.deleted_mask == residual
        assert step.deleted_mask.bit_count() == step.phi[0]
        assert step.phi == (residual.bit_count(), blues.bit_count(), reds.bit_count())
        assert step.self_matched_count == sum(
            1 for a, e in enumerate(matches) if e == (WHITE, a)
        )

        prev_x, prev_z, prev_matches, prev_bundles = x, z, matches, bundles

    if alpha == 0:
        assert all(e == (WHITE, a) for a, e in enumerate(state.matches))
        assert len(state.trace) == n
        assert out.masks() == start.masks()
    assert naive.naive_efx_ok(instance, out.masks(), alpha)


def test_trace_invariants(corpus1, corpus3):
    with criterion(8, "per-iteration trace invariants") as c:
        for i in range(250):
            instance = corpus1[i % 200]
            alpha = ALPHAS_FIVE[i % 5]
            start = random_complete(instance, 9000 + i)
            _replay_matching_trace(instance, start, alpha)
        for i in range(250):
            instance = corpus3[i % 100]
            alpha = ALPHAS_THREE[i % 3]
            start = random_complete(instance, 7000 + i)
            _replay_core_trace(instance, start, alpha)
        assert c.elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 9: the exact optimum itself


def test_oracle_sanity(corpus1, mnw_for):
    with criterion(9, "exact optimum sanity") as c:
        for idx, instance in enumerate(corpus1):
            result = mnw_for(("c1", idx), instance)
            assert result.nw_positive
            assert naive.naive_ef1_ok(instance, result.allocation.masks())
        for idx, instance in enumerate(corpus1[:100]):
            result = mnw_for(("c1", idx), instance)
            masks, (count, product), ties = naive.naive_mnw(instance)
            assert (result.allocation.masks(), result.positive_agent_count) == (masks, count)
            assert (result.product, result.ties) == (product, ties)
        assert c.elapsed < 60.0
