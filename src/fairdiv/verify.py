"""Exact checkers for fairness and efficiency guarantees.

Every checker returns a GuaranteeReport whose verdict is decided by exact
rational comparisons; a fail verdict always carries a witness that replays
the violated defining inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    AdditiveValuation,
    Allocation,
    Bundle,
    CapacityError,
    DEFAULT_ENUMERATION_CAP,
    Instance,
    check_enumeration,
    format_ratio,
    full_mask,
    iter_mask,
    nash_product,
)


@dataclass(frozen=True)
class GuaranteeReport:
    """Verdict for one property of one allocation."""

    prop: str
    params: dict = field(default_factory=dict, hash=False)
    passed: bool = True
    witness: dict | None = field(default=None, hash=False)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        out: dict = {"property": self.prop, "verdict": self.verdict}
        if self.params:
            out["params"] = {k: _jsonify(v) for k, v in self.params.items()}
        if self.witness is not None:
            out["witness"] = {k: _jsonify(v) for k, v in self.witness.items()}
        return out


def _jsonify(value):
    if isinstance(value, Fraction):
        return format_ratio(value)
    if isinstance(value, Bundle):
        return list(value.items())
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _check_alpha(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def _check_allocation(instance: Instance, allocation: Allocation) -> None:
    if allocation.n != instance.n:
        raise ValueError(
            f"allocation has {allocation.n} bundles, instance has n={instance.n}"
        )
    if allocation.m != instance.m:
        raise ValueError(f"allocation has m={allocation.m}, instance has m={instance.m}")


def within_golden_threshold(alpha: Fraction) -> bool:
    """True iff alpha^2 + alpha <= 1, the exact form of alpha <= (sqrt(5)-1)/2."""
    alpha = Fraction(alpha)
    return alpha * alpha + alpha <= 1


# ---------------------------------------------------------------------------
# envy-based properties

def efx_violation(instance: Instance, masks, alpha: Fraction) -> tuple[int, int, int] | None:
    """First (i, j, g) with v_i(X_i) < alpha * v_i(X_j - g), or None.

    Internal fast path shared with the brute-force searches; masks is a
    sequence of per-agent bundle masks.
    """
    vals = instance.valuations
    own = [vals[i].value_mask(masks[i]) for i in range(instance.n)]
    for i in range(instance.n):
        vi = vals[i]
        for j in range(instance.n):
            if i == j:
                continue
            for g in iter_mask(masks[j]):
                if own[i] < alpha * vi.value_mask(masks[j] & ~(1 << g)):
                    return i, j, g
    return None


def is_alpha_efx(instance: Instance, allocation: Allocation, alpha: Fraction) -> GuaranteeReport:
    """alpha-EFX: v_i(X_i) >= alpha * v_i(X_j - g) for all i, j and g in X_j."""
    alpha = _check_alpha(alpha)
    _check_allocation(instance, allocation)
    hit = efx_violation(instance, allocation.masks(), alpha)
    if hit is None:
        return GuaranteeReport("alpha_efx", {"alpha": alpha})
    i, j, g = hit
    reduced = allocation.bundles[j].remove(g)
    return GuaranteeReport(
        "alpha_efx",
        {"alpha": alpha},
        passed=False,
        witness={
            "i": i,
            "j": j,
            "removed_item": g,
            "own_value": instance.value_mask(i, allocation.bundles[i].mask),
            "other_value_less_item": instance.value_mask(i, reduced.mask),
        },
    )


def is_ef1(instance: Instance, allocation: Allocation) -> GuaranteeReport:
    """EF1: for each i, j with X_j nonempty, some g in X_j kills the envy.

    Empty X_j passes vacuously (values are nonnegative and v(empty) = 0).
    """
    _check_allocation(instance, allocation)
    for i in range(instance.n):
        own = instance.value_mask(i, allocation.bundles[i].mask)
        for j in range(instance.n):
            if i == j or not allocation.bundles[j]:
                continue
            best = None
            best_g = None
            for g in allocation.bundles[j]:
                reduced = instance.value_mask(i, allocation.bundles[j].remove(g).mask)
                if best is None or reduced < best:
                    best, best_g = reduced, g
            if best is not None and own < best:
                return GuaranteeReport(
                    "ef1",
                    passed=False,
                    witness={
                        "i": i,
                        "j": j,
                        "best_removed_item": best_g,
                        "own_value": own,
                        "other_value_less_best_item": best,
                    },
                )
    return GuaranteeReport("ef1")


def is_gamma_separated(
    instance: Instance, allocation: Allocation, gamma: Fraction
) -> GuaranteeReport:
    """gamma-separation: gamma * v_i(Z_i) >= v_i({x}) for every unallocated x."""
    gamma = Fraction(gamma)
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    _check_allocation(instance, allocation)
    pool = allocation.unallocated()
    for i in range(instance.n):
        own = instance.value_mask(i, allocation.bundles[i].mask)
        for x in pool:
            single = instance.value_mask(i, 1 << x)
            if gamma * own < single:
                return GuaranteeReport(
                    "gamma_separated",
                    {"gamma": gamma},
                    passed=False,
                    witness={"i": i, "item": x, "own_value": own, "item_value": single},
                )
    return GuaranteeReport("gamma_separated", {"gamma": gamma})


def is_beta_mnw(
    instance: Instance,
    allocation: Allocation,
    beta: Fraction,
    reference_product: Fraction,
) -> GuaranteeReport:
    """beta-MNW in product form: product(Z) >= beta^n * reference_product.

    reference_product is the exact optimum product (or any caller baseline);
    comparing n-th powers avoids irrational geometric means entirely.
    """
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    _check_allocation(instance, allocation)
    reference_product = Fraction(reference_product)
    achieved = nash_product(instance, allocation)
    bound = beta**instance.n * reference_product
    params = {"beta": beta, "reference_product": reference_product}
    if achieved >= bound:
        return GuaranteeReport("beta_mnw", params)
    return GuaranteeReport(
        "beta_mnw",
        params,
        passed=False,
        witness={"achieved_product": achieved, "required_product": bound},
    )


# ---------------------------------------------------------------------------
# maximin share family

def mms_share(
    instance: Instance,
    agent: int,
    k: int,
    pool: Bundle,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Fraction:
    """Exact k-part maximin share of `pool` for `agent`.

    Maximizes, over all partitions of pool into k (possibly empty) parts, the
    minimum part value. Enumeration walks canonical part labelings (item t
    may only open part u+1 after parts 0..u are in use), which fixes the
    first item's label and prunes the k! part symmetry.
    """
    if not 0 <= agent < instance.n:
        raise ValueError(f"agent {agent} out of range for n={instance.n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if pool.mask & ~full_mask(instance.m):
        raise ValueError(f"pool has items out of range for m={instance.m}")
    items = pool.items()
    check_enumeration(
        k ** len(items), f"maximin share over k^|pool| = {k}^{len(items)} labelings", cap
    )
    val = instance.valuations[agent]
    if k == 1:
        return val.value_mask(pool.mask)
    if len(items) < k:
        # some part is necessarily empty
        return Fraction(0)

    scale, values = instance.scaled_values
    own = values[agent]
    # additive parts keep a running sum; explicit parts are looked up by mask
    additive = isinstance(val, AdditiveValuation)
    gains = [own[g] if additive else 0 for g in items]
    sums = [0] * k
    part_masks = [0] * k
    best = 0
    last = len(items)

    def walk(t: int, used: int) -> None:
        nonlocal best
        if t == last:
            if used == k:
                if additive:
                    worst = min(sums)
                else:
                    worst = min([own[mask] for mask in part_masks])
                if worst > best:
                    best = worst
            return
        # must still be able to open all k parts
        if used + (last - t) < k:
            return
        bit = 1 << items[t]
        gain = gains[t]
        for part in range(min(used + 1, k)):
            part_masks[part] |= bit
            sums[part] += gain
            walk(t + 1, used + 1 if part == used else used)
            sums[part] -= gain
            part_masks[part] ^= bit

    walk(0, 0)
    return Fraction(best, scale)


def is_alpha_mms(
    instance: Instance,
    allocation: Allocation,
    alpha: Fraction,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> GuaranteeReport:
    """alpha-MMS: v_i(X_i) >= alpha * (n-part maximin share of all m items)."""
    alpha = _check_alpha(alpha)
    _check_allocation(instance, allocation)
    everything = Bundle(full_mask(instance.m))
    for i in range(instance.n):
        share = mms_share(instance, i, instance.n, everything, cap)
        own = instance.value_mask(i, allocation.bundles[i].mask)
        if own < alpha * share:
            return GuaranteeReport(
                "alpha_mms",
                {"alpha": alpha},
                passed=False,
                witness={"i": i, "own_value": own, "share": share},
            )
    return GuaranteeReport("alpha_mms", {"alpha": alpha})


def is_alpha_pmms(
    instance: Instance,
    allocation: Allocation,
    alpha: Fraction,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> GuaranteeReport:
    """alpha-PMMS: for every ordered pair (i, j), v_i(X_i) >= alpha * mu_i(2, X_i u X_j)."""
    alpha = _check_alpha(alpha)
    _check_allocation(instance, allocation)
    for i in range(instance.n):
        own = instance.value_mask(i, allocation.bundles[i].mask)
        for j in range(instance.n):
            if i == j:
                continue
            pool = allocation.bundles[i] | allocation.bundles[j]
            share = mms_share(instance, i, 2, pool, cap)
            if own < alpha * share:
                return GuaranteeReport(
                    "alpha_pmms",
                    {"alpha": alpha},
                    passed=False,
                    witness={"i": i, "j": j, "own_value": own, "pair_share": share},
                )
    return GuaranteeReport("alpha_pmms", {"alpha": alpha})


GROUP_SHARE_AGENT_CAP = 6


def is_alpha_gmms(
    instance: Instance,
    allocation: Allocation,
    alpha: Fraction,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> GuaranteeReport:
    """alpha-GMMS: for every nonempty group I and i in I,
    v_i(X_i) >= alpha * mu_i(|I|, union of the group's bundles).

    The group loop is 2^n; refuse n beyond GROUP_SHARE_AGENT_CAP.
    """
    alpha = _check_alpha(alpha)
    _check_allocation(instance, allocation)
    if instance.n > GROUP_SHARE_AGENT_CAP:
        raise CapacityError(
            f"group-share check over {instance.n} agents "
            f"exceeds the agent cap {GROUP_SHARE_AGENT_CAP}"
        )
    for group_mask in range(1, 1 << instance.n):
        members = list(iter_mask(group_mask))
        pool_mask = 0
        for j in members:
            pool_mask |= allocation.bundles[j].mask
        pool = Bundle(pool_mask)
        for i in members:
            share = mms_share(instance, i, len(members), pool, cap)
            own = instance.value_mask(i, allocation.bundles[i].mask)
            if own < alpha * share:
                return GuaranteeReport(
                    "alpha_gmms",
                    {"alpha": alpha},
                    passed=False,
                    witness={
                        "i": i,
                        "group": members,
                        "own_value": own,
                        "group_share": share,
                    },
                )
    return GuaranteeReport("alpha_gmms", {"alpha": alpha})


# check name -> checker(instance, allocation, level, reference, cap); each
# lambda reads its checker from this module when called, so patches apply
_CHECKS = {
    "efx": lambda inst, alloc, level, ref, cap: is_alpha_efx(inst, alloc, level),
    "ef1": lambda inst, alloc, level, ref, cap: is_ef1(inst, alloc),
    "mnw": lambda inst, alloc, level, ref, cap: is_beta_mnw(inst, alloc, level, ref),
    "separated": lambda inst, alloc, level, ref, cap: is_gamma_separated(inst, alloc, level),
    "mms": lambda inst, alloc, level, ref, cap: is_alpha_mms(inst, alloc, level, cap),
    "pmms": lambda inst, alloc, level, ref, cap: is_alpha_pmms(inst, alloc, level, cap),
    "gmms": lambda inst, alloc, level, ref, cap: is_alpha_gmms(inst, alloc, level, cap),
}
CHECK_NAMES = tuple(_CHECKS)


def check(name: str, instance: Instance, allocation: Allocation, level: Fraction | None = None,
          reference: Fraction | None = None,
          cap: int = DEFAULT_ENUMERATION_CAP) -> GuaranteeReport:
    """The report of the check `name`, one of CHECK_NAMES, at `level`: alpha
    for efx and the share checks, gamma for separated, beta against the
    `reference` product for mnw; ef1 takes none."""
    return _CHECKS[name](instance, allocation, level, reference, cap)
