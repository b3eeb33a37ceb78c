"""Matching-based partial allocation for additive instances.

efx_matching starts from a complete allocation and repeatedly either
self-matches an agent to their (possibly shrunk) bundle or lets an unmatched
agent grab someone's bundle minus one item. It terminates with a partial
allocation that is alpha-EFX and, when seeded with a max-product allocation,
loses at most a 1/(alpha+1) factor per agent.

match_or_improve is the polynomial-time variant: it only removes an item
when the chain of bundle holders traced back from the theft ends in an
unmatched bundle, and when a bundle drops below its witness threshold it
stops and returns a strictly better complete allocation instead.
matching_with_restarts loops that until a matching comes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Allocation,
    Instance,
    IterationBoundError,
    iter_mask,
)
from .verify import _check_alpha, efx_violation

SELF = "self"
STEAL = "steal"
TAKE = "take"


@dataclass(frozen=True)
class MatchStep:
    """One iteration of a matching run, with post-iteration snapshots."""

    branch: str                       # "self" | "steal" | "take"
    i_star: int
    j_star: int | None = None
    g: int | None = None
    removed: bool = False
    sequence: tuple[int, ...] | None = None
    sequence_end: str | None = None   # "cycle" | "unmatched"
    z_masks: tuple[int, ...] = ()
    matches: tuple[int | None, ...] = ()


@dataclass
class MatchState:
    """Final state of a matching run over an additive instance.

    matches[i] is the index j of the bundle slot agent i is matched to
    (match by owner index, so shrinking z[j] stays visible), or None.
    """

    x_masks: tuple[int, ...]
    z_masks: tuple[int, ...]
    matches: tuple[int | None, ...]
    alpha: Fraction
    trace: tuple[MatchStep, ...]

    def matched_allocation(self, m: int) -> Allocation:
        assert all(j is not None for j in self.matches)
        return Allocation.from_masks(
            tuple(self.z_masks[j] for j in self.matches), m
        )


@dataclass(frozen=True)
class MatchOutcome:
    """Result of match_or_improve: kind "matched" carries a partial alpha-EFX
    allocation, kind "improved" a complete allocation with a strictly larger
    product than the input."""

    kind: str
    allocation: Allocation
    state: MatchState


@dataclass(frozen=True)
class RestartResult:
    allocation: Allocation
    rounds: int
    branches: tuple[str, ...]
    state: MatchState | None


def _require_additive_complete(instance: Instance, start: Allocation, alpha: Fraction) -> Fraction:
    alpha = _check_alpha(alpha)
    if not instance.is_additive or instance.declared_class != "additive":
        raise ValueError("this matching runs on additive instances only")
    if start.n != instance.n or start.m != instance.m:
        raise ValueError("allocation shape does not match the instance")
    if not start.complete:
        raise ValueError("the starting allocation must be complete")
    return alpha


def _kick_holder(matches: list[int | None], owner: int) -> None:
    # at most one agent holds a given bundle slot
    for u, held in enumerate(matches):
        if held == owner:
            matches[u] = None
            return


def _envy_target(instance, z, x, i, alpha) -> tuple[int, int] | None:
    """Agent i's step: None when i keeps z_i, i.e. v_i(z_i) >= factor *
    v_i(z_j - g) for every j and g in z_j, at factor alpha while z_i is
    untouched and 1 otherwise; else the (j, g) maximizing v_i(z_j - g), ties
    to the lowest j, then the lowest g. Values are additive, so the best g of
    each z_j is its cheapest item."""
    vi = instance.valuations[i]
    item = vi.item_values
    best_val: Fraction | None = None
    best: tuple[int, int] | None = None
    for j, zj in enumerate(z):
        if zj:
            g = min(iter_mask(zj), key=item.__getitem__)
            v = vi.value_mask(zj) - item[g]
            if best_val is None or v > best_val:
                best_val, best = v, (j, g)
    factor = alpha if z[i] == x[i] else 1
    if best is None or vi.value_mask(z[i]) >= factor * best_val:
        return None
    return best


def efx_matching(
    instance: Instance, start: Allocation, alpha: Fraction
) -> tuple[Allocation, MatchState]:
    """Match every agent to a shrunk bundle so the matching is alpha-EFX.

    Output bundles are the surviving z-slots permuted by the final matching;
    items removed along the way are left unallocated. With a max-product
    NW-positive start, every agent keeps at least a 1/(alpha+1) value share
    of their original bundle.
    """
    alpha = _require_additive_complete(instance, start, alpha)
    n, m = instance.n, instance.m
    x = start.masks()
    z = list(x)
    matches: list[int | None] = [None] * n
    trace: list[MatchStep] = []
    max_iterations = (m + 1) * n

    while any(held is None for held in matches):
        if len(trace) >= max_iterations:
            raise IterationBoundError(
                f"matching ran past its proven bound of (m+1)*n = {max_iterations} iterations"
            )
        i = next(a for a in range(n) if matches[a] is None)
        target = _envy_target(instance, z, x, i, alpha)
        if target is None:
            _kick_holder(matches, i)
            matches[i] = i
            trace.append(
                MatchStep(SELF, i, z_masks=tuple(z), matches=tuple(matches))
            )
        else:
            j, g = target
            assert j != i
            _kick_holder(matches, j)
            z[j] &= ~(1 << g)
            matches[i] = j
            trace.append(
                MatchStep(
                    STEAL, i, j_star=j, g=g, removed=True,
                    z_masks=tuple(z), matches=tuple(matches),
                )
            )

    state = MatchState(tuple(x), tuple(z), tuple(matches), alpha, tuple(trace))
    return state.matched_allocation(m), state


# ---------------------------------------------------------------------------
# holder chains

def improving_sequence(
    matches, j_star: int
) -> tuple[tuple[int, ...], str]:
    """Walk holders starting from bundle slot j_star.

    The next agent is whoever holds the current agent's bundle slot; the walk
    ends with "cycle" when j_star itself is the holder and "unmatched" when
    the slot has no holder. Called right after a theft, so the second entry
    is always the thief.
    """
    n = len(matches)
    seq = [j_star]
    while True:
        cur = seq[-1]
        holder = next((u for u in range(n) if matches[u] == cur), None)
        if holder is None:
            return tuple(seq), "unmatched"
        if holder == j_star:
            return tuple(seq), "cycle"
        assert holder not in seq, "holder walk revisited an agent"
        seq.append(holder)
        assert len(seq) <= n


def _below_witness_threshold(
    v_z: Fraction, v_x: Fraction, alpha: Fraction, n: int
) -> bool:
    # v_z < (1/(alpha+1))^(n/(n-1)) * v_x, compared in integer-power form
    assert n >= 2
    return v_z ** (n - 1) * (alpha + 1) ** n < v_x ** (n - 1)


def _build_improved(x: list[int], z: list[int], seq: tuple[int, ...], m: int) -> Allocation:
    j_star = seq[0]
    out = list(x)
    out[j_star] = x[j_star] & ~z[j_star]
    for s in range(1, len(seq) - 1):
        a = seq[s]
        out[a] = (x[a] & ~z[a]) | z[seq[s - 1]]
    last = seq[-1]
    out[last] = x[last] | z[seq[-2]]
    allocation = Allocation.from_masks(out, m)
    assert allocation.complete
    return allocation


def match_or_improve(
    instance: Instance, start: Allocation, alpha: Fraction
) -> MatchOutcome:
    """One pass of the polynomial variant.

    Thefts against an unmatched bundle just take it (no removal). Thefts
    against a held bundle trace the holder chain; only when the chain ends in
    an unmatched bundle is the item removed, and if that leaves the victim's
    bundle below the (1/(alpha+1))^(n/(n-1)) share of their original bundle,
    the run stops and rebuilds a complete allocation along the chain whose
    product strictly beats the input's.
    """
    alpha = _require_additive_complete(instance, start, alpha)
    n, m = instance.n, instance.m
    vals = instance.valuations
    x = list(start.masks())
    z = list(x)
    matches: list[int | None] = [None] * n
    trace: list[MatchStep] = []
    max_iterations = 2 * (m + 1) * (n + 1) ** 3 + n + 4

    while any(held is None for held in matches):
        if len(trace) >= max_iterations:
            raise IterationBoundError(
                f"match_or_improve ran past {max_iterations} iterations"
            )
        i = next(a for a in range(n) if matches[a] is None)
        target = _envy_target(instance, z, x, i, alpha)
        if target is None:
            _kick_holder(matches, i)
            matches[i] = i
            trace.append(MatchStep(SELF, i, z_masks=tuple(z), matches=tuple(matches)))
            continue
        j, g = target
        assert j != i
        holder = next((u for u in range(n) if matches[u] == j), None)
        if holder is None:
            matches[i] = j
            trace.append(
                MatchStep(TAKE, i, j_star=j, g=g, z_masks=tuple(z), matches=tuple(matches))
            )
            continue
        matches[holder] = None
        matches[i] = j
        seq, end = improving_sequence(matches, j)
        removed = end == "unmatched"
        if removed:
            z[j] &= ~(1 << g)
        trace.append(
            MatchStep(
                STEAL, i, j_star=j, g=g, removed=removed,
                sequence=seq, sequence_end=end,
                z_masks=tuple(z), matches=tuple(matches),
            )
        )
        if removed and _below_witness_threshold(
            vals[j].value_mask(z[j]), vals[j].value_mask(x[j]), alpha, n
        ):
            improved = _build_improved(x, z, seq, m)
            state = MatchState(tuple(x), tuple(z), tuple(matches), alpha, tuple(trace))
            old = Fraction(1)
            new = Fraction(1)
            for a in range(n):
                old *= vals[a].value_mask(x[a])
                new *= vals[a].value_mask(improved.bundles[a].mask)
            if old > 0:
                gain = 1 + Fraction(1, (n - 1)) / (alpha + 1)
                assert new > gain * old, "improved allocation gained too little"
            return MatchOutcome("improved", improved, state)

    state = MatchState(tuple(x), tuple(z), tuple(matches), alpha, tuple(trace))
    return MatchOutcome("matched", state.matched_allocation(m), state)


def matching_with_restarts(
    instance: Instance, start: Allocation, alpha: Fraction, beta: Fraction
) -> RestartResult:
    """Run match_or_improve until its matching branch fires.

    beta is the caller's exact lower bound on the welfare ratio of `start`
    (as a plain rational; the true n-th root may be irrational, and any
    rational lower bound keeps the loop bound valid). The loop count may not
    exceed n(n-1)(alpha+1)/beta, or the run aborts loudly.
    """
    alpha = _require_additive_complete(instance, start, alpha)
    beta = Fraction(beta)
    if not 0 < beta <= 1:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    n = instance.n
    bound = n * (n - 1) * (alpha + 1) / beta
    current = start
    rounds = 0
    branches: list[str] = []
    state: MatchState | None = None

    while efx_violation(instance, current.masks(), alpha) is not None:
        rounds += 1
        if rounds > bound:
            raise IterationBoundError(
                f"restart loop exceeded its n(n-1)(alpha+1)/beta = {bound} bound"
            )
        outcome = match_or_improve(instance, current, alpha)
        branches.append(outcome.kind)
        state = outcome.state
        if outcome.kind == "matched":
            assert efx_violation(instance, outcome.allocation.masks(), alpha) is None
            return RestartResult(outcome.allocation, rounds, tuple(branches), state)
        current = outcome.allocation

    return RestartResult(current, rounds, tuple(branches), state)
