"""Brute-force reference searches.

These are the ground truth the algorithms are measured against: exact
max-product allocations by full enumeration (pruned by a sound
branch-and-bound on additive instances), the best product achievable by any
alpha-EFX partial allocation, and certificates for the two hard families
showing the fairness/efficiency gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    AdditiveValuation,
    Allocation,
    DEFAULT_ENUMERATION_CAP,
    Instance,
    check_enumeration,
    format_ratio,
    full_mask,
)
from .instances import GeneratorSpec, generate
from .verify import _check_alpha, efx_violation


@dataclass(frozen=True)
class MnwResult:
    """Lexicographic optimum over complete allocations.

    The objective is (count of agents with positive value, product of the
    positive values); when every agent can be made positive this is the
    max-product allocation. `product` is the plain product over all agents,
    so it is 0 unless nw_positive. Ties counts the optima; the reported
    allocation is the one with the lexicographically smallest assignment
    vector (item 0's agent first).
    """

    allocation: Allocation
    product: Fraction
    positive_agent_count: int
    ties: int

    @property
    def nw_positive(self) -> bool:
        return self.positive_agent_count == self.allocation.n

    def to_json_dict(self) -> dict:
        return {
            "allocation": [list(b.items()) for b in self.allocation.bundles],
            "product": format_ratio(self.product),
            "positive_agent_count": self.positive_agent_count,
            "ties": self.ties,
            "nw_positive": self.nw_positive,
        }


def exact_mnw(instance: Instance, cap: int = DEFAULT_ENUMERATION_CAP) -> MnwResult:
    """Exhaustive n^m search for the lexicographic max-product allocation.

    On additive instances the walk prunes with the optimistic per-agent
    bound (current value plus everything still unassigned), which never
    excludes an optimum or a tie; on any other instance it visits every
    assignment vector.

    The walk compares (positive count, product of positive values) keys on
    `instance.scaled_values`: with one scale L for all agents a key with
    count k is L**k times the true one, so keys order and tie as the true
    keys do, and the optimum's product is the scaled one over L**n.
    """
    n, m = instance.n, instance.m
    check_enumeration(n**m, f"max-product search over n^m = {n}^{m}", cap)
    if n == 1:  # one complete allocation; the walk would recurse m deep to find it
        value = instance.valuations[0].value_mask(full_mask(m))
        return MnwResult(Allocation.from_masks((full_mask(m),), m), value, int(value > 0), 1)
    scale, values = instance.scaled_values
    prune = instance.is_additive
    agents = range(n)
    # explicit agents are read from their tables at the leaves; additive
    # agents keep a running sum, and columns[t][i] is agent i's value for item t
    tables = [
        None if isinstance(val, AdditiveValuation) else values[i]
        for i, val in enumerate(instance.valuations)
    ]
    columns = [
        tuple(0 if table is not None else values[i][t] for i, table in enumerate(tables))
        for t in range(m)
    ]
    # rest[t][i]: agent i's value for all items t..m-1, the pruning bound
    rest = [[0] * n for _ in range(m + 1)]
    for t in range(m - 1, -1, -1):
        for i in agents:
            rest[t][i] = rest[t + 1][i] + columns[t][i]

    best_count = -1
    best_prod = 0
    best_masks: tuple[int, ...] = ()
    ties = 0
    masks = [0] * n
    current = [0] * n

    def walk(t: int) -> None:
        nonlocal best_count, best_prod, best_masks, ties
        if t == m:
            count = 0
            prod = 1
            for i in agents:
                table = tables[i]
                if table is None:
                    v = current[i]
                else:
                    v = table[masks[i]]
                if v:
                    count += 1
                    prod *= v
            if count > best_count or (count == best_count and prod > best_prod):
                best_count, best_prod, best_masks, ties = count, prod, tuple(masks), 1
            elif count == best_count and prod == best_prod:
                ties += 1
            return
        if prune:
            bound_count = 0
            bound_prod = 1
            rest_t = rest[t]
            for i in agents:
                reach = current[i] + rest_t[i]
                if reach:
                    bound_count += 1
                    bound_prod *= reach
            # a completion can only tie the bound, so a strictly worse
            # bound means the subtree holds neither optima nor ties
            if bound_count < best_count or (bound_count == best_count and bound_prod < best_prod):
                return
        bit = 1 << t
        column = columns[t]
        for agent in agents:
            masks[agent] |= bit
            current[agent] += column[agent]
            walk(t + 1)
            current[agent] -= column[agent]
            masks[agent] ^= bit

    walk(0)
    allocation = Allocation.from_masks(best_masks, m)
    product = Fraction(best_prod, scale**n) if best_count == n else Fraction(0)
    return MnwResult(allocation, product, best_count, ties)


def best_alpha_efx_product(
    instance: Instance,
    alpha: Fraction,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Fraction, Allocation]:
    """Maximum product over all alpha-EFX partial allocations, by (n+1)^m search.

    Returns the product and the first maximizing allocation in assignment
    order (per item: agent 0, .., agent n-1, unallocated).
    """
    alpha = _check_alpha(alpha)
    n, m = instance.n, instance.m
    check_enumeration((n + 1) ** m, f"alpha-EFX search over (n+1)^m = {n + 1}^{m}", cap)
    vals = instance.valuations

    best: Fraction | None = None
    best_masks: tuple[int, ...] | None = None
    masks = [0] * n

    def walk(t: int) -> None:
        nonlocal best, best_masks
        if t == m:
            if efx_violation(instance, masks, alpha) is None:
                prod = Fraction(1)
                for i in range(n):
                    prod *= vals[i].value_mask(masks[i])
                if best is None or prod > best:
                    best = prod
                    best_masks = tuple(masks)
            return
        bit = 1 << t
        for agent in range(n):
            masks[agent] |= bit
            walk(t + 1)
            masks[agent] &= ~bit
        walk(t + 1)  # leave item t unallocated

    walk(0)
    assert best is not None and best_masks is not None  # empty allocation always passes
    return best, Allocation.from_masks(best_masks, m)


# ---------------------------------------------------------------------------
# impossibility certificates

@dataclass(frozen=True)
class ImpossibilityCertificate:
    """Exhaustively verified gap between alpha-EFX products and the optimum.

    For the additive gap family the expected values are exact closed forms
    and `verified` demands equality; for the monotone family the optimum must
    equal N and the best alpha-EFX product must not exceed sqrt(N).
    """

    spec: GeneratorSpec
    alpha: Fraction
    mnw_product: Fraction
    best_efx_product: Fraction
    ratio: Fraction
    expected_mnw_product: Fraction
    expected_best_bound: Fraction
    best_must_equal_bound: bool
    verified: bool
    mnw_allocation: Allocation = field(compare=False)
    best_allocation: Allocation = field(compare=False)

    def to_json_dict(self) -> dict:
        return {
            "family": self.spec.family,
            "params": self.spec.to_dict(),
            "alpha": format_ratio(self.alpha),
            "mnw_product": format_ratio(self.mnw_product),
            "best_efx_product": format_ratio(self.best_efx_product),
            "ratio": format_ratio(self.ratio),
            "expected_mnw_product": format_ratio(self.expected_mnw_product),
            "expected_best_bound": format_ratio(self.expected_best_bound),
            "best_must_equal_bound": self.best_must_equal_bound,
            "verified": self.verified,
            "mnw_allocation": [list(b.items()) for b in self.mnw_allocation.bundles],
            "best_efx_allocation": [list(b.items()) for b in self.best_allocation.bundles],
        }


def certify_impossibility(
    spec: GeneratorSpec, cap: int = DEFAULT_ENUMERATION_CAP
) -> ImpossibilityCertificate:
    """Build a gap-family instance and certify its fairness/efficiency gap.

    Only the finite parameterizations named by the spec are certified; this
    is exhaustive search over one concrete instance, not a symbolic proof.
    """
    if spec.family == "theorem4":
        alpha, eps, n = spec.require("alpha", "eps", "n")
        instance = generate(spec)
        expected_mnw = (1 + 1 / alpha + eps) ** (n - 1)
        bound = (1 / alpha + eps) ** (n - 1)
    elif spec.family == "theorem5":
        (big_n,) = spec.require("N")
        instance = generate(spec)  # validates that N is a perfect square
        alpha = Fraction(2, math.isqrt(big_n))
        expected_mnw = Fraction(big_n)
        bound = Fraction(math.isqrt(big_n))
    else:
        raise ValueError(
            f"impossibility certificates exist for the gap families only, got {spec.family!r}"
        )
    # theorem4's bound is attained exactly; theorem5's is only an upper bound
    exact = spec.family == "theorem4"
    mnw = exact_mnw(instance, cap)
    best, best_alloc = best_alpha_efx_product(instance, alpha, cap)
    return ImpossibilityCertificate(
        spec=spec,
        alpha=alpha,
        mnw_product=mnw.product,
        best_efx_product=best,
        ratio=best / mnw.product,
        expected_mnw_product=expected_mnw,
        expected_best_bound=bound,
        best_must_equal_bound=exact,
        verified=mnw.product == expected_mnw and (best == bound if exact else best <= bound),
        mnw_allocation=mnw.allocation,
        best_allocation=best_alloc,
    )
