"""Independent brute-force checkers used to cross-validate the library.

Everything here is written as a direct transcription of the definitions:
plain loops over items and agents, itertools enumeration, exact Fraction
arithmetic. Slow on purpose. One code path is shared with the package:
every bundle value v_i(S) is read through the library's `value_mask`. For
a table that is a lookup; for an additive agent it is an int sum over the
agent's own denominator, pinned against its definition (the Fraction sum
of the item values) by the `value_mask` tests in tests/test_core.py.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def value(instance, agent: int, items) -> Fraction:
    mask = 0
    for g in items:
        mask |= 1 << g
    return instance.valuations[agent].value_mask(mask)


def mask_items(mask: int) -> list[int]:
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


def naive_efx_ok(instance, masks, alpha: Fraction) -> bool:
    """v_i(X_i) >= alpha * v_i(X_j - g) for every i, j and g in X_j."""
    n = instance.n
    for i in range(n):
        own = instance.valuations[i].value_mask(masks[i])
        for j in range(n):
            for g in mask_items(masks[j]):
                other = instance.valuations[i].value_mask(masks[j] & ~(1 << g))
                if own < alpha * other:
                    return False
    return True


def naive_ef1_ok(instance, masks) -> bool:
    """For every i, j: X_j is empty or some g in X_j kills i's envy."""
    n = instance.n
    for i in range(n):
        own = instance.valuations[i].value_mask(masks[i])
        for j in range(n):
            if masks[j] == 0:
                continue
            if not any(
                own >= instance.valuations[i].value_mask(masks[j] & ~(1 << g))
                for g in mask_items(masks[j])
            ):
                return False
    return True


def naive_envy_step(instance, z, x, i: int, alpha: Fraction):
    """Agent i's step in the additive matchings, from the definition.

    None when v_i(z_i) >= factor * v_i(z_j - g) for every j and g in z_j, with
    factor alpha while z_i == x_i and 1 otherwise; else the first (j, g), j
    then g ascending, with the largest v_i(z_j - g).
    """
    v = instance.valuations[i].value_mask
    factor = alpha if z[i] == x[i] else Fraction(1)
    pairs = [(j, g) for j in range(instance.n) for g in mask_items(z[j])]
    if all(v(z[i]) >= factor * v(z[j] & ~(1 << g)) for j, g in pairs):
        return None
    best = None
    for j, g in pairs:
        if best is None or v(z[j] & ~(1 << g)) > v(z[best[0]] & ~(1 << best[1])):
            best = (j, g)
    return best


def naive_separated_ok(instance, masks, gamma: Fraction) -> bool:
    """gamma * v_i(X_i) >= v_i({x}) for every unallocated item x."""
    allocated = 0
    for mask in masks:
        allocated |= mask
    pool = [g for g in range(instance.m) if not allocated >> g & 1]
    for i in range(instance.n):
        own = instance.valuations[i].value_mask(masks[i])
        for x in pool:
            if gamma * own < instance.valuations[i].value_mask(1 << x):
                return False
    return True


def product_of(instance, masks) -> Fraction:
    prod = Fraction(1)
    for i in range(instance.n):
        prod *= instance.valuations[i].value_mask(masks[i])
    return prod


def all_complete_masks(n: int, m: int):
    """Yield every complete allocation as a tuple of bundle masks."""
    for assignment in itertools.product(range(n), repeat=m):
        masks = [0] * n
        for g, agent in enumerate(assignment):
            masks[agent] |= 1 << g
        yield tuple(masks)


def naive_best_product(instance) -> Fraction:
    """Max product over complete allocations, zero allowed."""
    best = Fraction(0)
    for masks in all_complete_masks(instance.n, instance.m):
        prod = product_of(instance, masks)
        if prod > best:
            best = prod
    return best


def naive_mnw(instance):
    """Lexicographic max over complete allocations of (count of agents with
    positive value, product of the positive values), as (masks, key, ties).

    masks is the first optimum in assignment order (item 0's agent first)
    and ties counts the optima.
    """
    best_masks, best_key, ties = None, None, 0
    for masks in all_complete_masks(instance.n, instance.m):
        count, prod = 0, Fraction(1)
        for i in range(instance.n):
            v = instance.valuations[i].value_mask(masks[i])
            if v > 0:
                count += 1
                prod *= v
        key = (count, prod)
        if best_key is None or key > best_key:
            best_masks, best_key, ties = masks, key, 1
        elif key == best_key:
            ties += 1
    return best_masks, best_key, ties


def naive_best_efx_product(instance, alpha: Fraction) -> Fraction:
    """Max product over alpha-EFX partial allocations ((n+1)^m search)."""
    n, m = instance.n, instance.m
    best = Fraction(0)
    for assignment in itertools.product(range(n + 1), repeat=m):
        masks = [0] * n
        for g, agent in enumerate(assignment):
            if agent < n:
                masks[agent] |= 1 << g
        if naive_efx_ok(instance, masks, alpha):
            prod = product_of(instance, masks)
            if prod > best:
                best = prod
    return best


def worst_positive_allocation(instance):
    """Complete allocation minimizing the product over those with a positive
    product, as (masks, product); (None, 0) when no positive one exists."""
    worst_masks = None
    worst = None
    for masks in all_complete_masks(instance.n, instance.m):
        prod = product_of(instance, masks)
        if prod > 0 and (worst is None or prod < worst):
            worst, worst_masks = prod, masks
    if worst_masks is None:
        return None, Fraction(0)
    return worst_masks, worst


def naive_mms(instance, agent: int, k: int, pool_items) -> Fraction:
    """Maximin share by trying every k-labeling of the pool."""
    items = list(pool_items)
    if k == 1:
        return value(instance, agent, items)
    if len(items) < k:
        return Fraction(0)
    best = Fraction(0)
    for labels in itertools.product(range(k), repeat=len(items)):
        if len(set(labels)) < k:
            continue
        parts = [0] * k
        for g, part in zip(items, labels):
            parts[part] |= 1 << g
        worst = min(instance.valuations[agent].value_mask(p) for p in parts)
        if worst > best:
            best = worst
    return best


def naive_class_report(instance):
    """First violation of the declared class, as (verdict, agent, s, t, g)
    with s and t masks; ("pass", None, None, None, None) when there is none.

    Assumes complete tables with v(empty set) = 0. Every agent in turn for
    v(S + g) >= v(S), S ascending, then g ascending; then, when the class is
    subadditive, every agent in turn for v(S u T) <= v(S) + v(T) over the
    pairs of nonempty disjoint S and T in
    `itertools.product(range(3), repeat=m)` order, where digit g (item 0
    first) is 0 when item g is in neither, 1 in S, 2 in T.
    """
    m = instance.m
    values = [val.value_mask for val in instance.valuations]
    for agent, v in enumerate(values):
        for s in range(1 << m):
            for g in range(m):
                if not s >> g & 1 and v(s | 1 << g) < v(s):
                    return ("monotonicity", agent, s, None, g)
    if instance.declared_class == "subadditive":
        for agent, v in enumerate(values):
            for digits in itertools.product(range(3), repeat=m):
                s = sum(1 << g for g, d in enumerate(digits) if d == 1)
                t = sum(1 << g for g, d in enumerate(digits) if d == 2)
                if s and t and v(s | t) > v(s) + v(t):
                    return ("subadditivity", agent, s, t, None)
    return ("pass", None, None, None, None)


def nw_positive_possible(instance) -> bool:
    """True iff some complete allocation gives every agent positive value.

    For additive valuations this reduces to an injective assignment of one
    positively-valued item to each agent.
    """
    n, m = instance.n, instance.m
    for combo in itertools.permutations(range(m), n):
        if all(
            instance.valuations[i].value_mask(1 << combo[i]) > 0
            for i in range(n)
        ):
            return True
    return False


def chain_cycle_decomposition(matches) -> list[tuple[str, tuple[int, ...]]]:
    """Group agents by following white matches from agent to bundle owner.

    matches[a] is None, ("white", j) or ("blue", mask), as in a subadditive
    matching trace. Every agent sits in exactly one structure: a path ending
    at an unmatched agent ("chain-open"), a path ending at a blue-matched
    agent ("chain-blue"), a self-match ("cycle-self"), or a longer white
    cycle ("cycle"). Paths start at agents whose own bundle slot nobody holds.
    """
    n = len(matches)
    succ: list[int | None] = [None] * n
    holder_of: list[int | None] = [None] * n
    for a, entry in enumerate(matches):
        if entry is not None and entry[0] == "white":
            succ[a] = entry[1]
            if holder_of[entry[1]] is not None:
                raise ValueError("two agents hold one bundle")
            holder_of[entry[1]] = a

    out: list[tuple[str, tuple[int, ...]]] = []
    seen = [False] * n
    for start in range(n):
        if seen[start] or holder_of[start] is not None:
            continue
        seq = [start]
        seen[start] = True
        while succ[seq[-1]] is not None:
            seq.append(succ[seq[-1]])
            seen[seq[-1]] = True
        tail = matches[seq[-1]]
        out.append(("chain-open" if tail is None else "chain-blue", tuple(seq)))
    for start in range(n):
        if seen[start]:
            continue
        seq = [start]
        seen[start] = True
        while True:
            nxt = succ[seq[-1]]
            if nxt is None:
                raise ValueError(f"agent {seq[-1]} is on neither a path nor a cycle")
            if nxt == start:
                break
            seq.append(nxt)
            seen[nxt] = True
        out.append(("cycle-self" if len(seq) == 1 else "cycle", tuple(seq)))
    return out
