"""Turning partial allocations into complete ones, and end-to-end pipelines.

envy_cycles hands each leftover item to an agent nobody envies, rotating
bundles along envy cycles first so such an agent always exists. It preserves
EF1 and, on a separated partial allocation, the EFX level of its input.
singleton_swaps lets any agent trade their bundle for a single leftover item
they like better, which ends with no agent preferring any leftover item.

run chains a start, a matching and an optional completion for each
algorithm, and returns the fairness/efficiency guarantees the run claims,
checked only when their reports are asked for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    Allocation,
    Bundle,
    DEFAULT_ENUMERATION_CAP,
    Instance,
    IterationBoundError,
    iter_mask,
    nash_product,
)
from .oracle import MnwResult, exact_mnw
from .verify import GuaranteeReport, check, within_golden_threshold
from . import additive_alg, subadditive_alg


def envy_edges(instance: Instance, masks) -> list[tuple[int, int]]:
    """Directed envy: (i, j) present iff i strictly prefers j's bundle."""
    n = instance.n
    out = []
    for i in range(n):
        vi = instance.valuations[i]
        own = vi.value_mask(masks[i])
        for j in range(n):
            if i != j and vi.value_mask(masks[j]) > own:
                out.append((i, j))
    return out


def _find_cycle(n: int, edges) -> tuple[int, ...] | None:
    """First cycle by depth-first search from the lowest agent, scanning
    neighbors in ascending order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
    color = [0] * n  # 0 fresh, 1 on path, 2 done
    path: list[int] = []

    def visit(u: int) -> tuple[int, ...] | None:
        color[u] = 1
        path.append(u)
        for w in adj[u]:
            if color[w] == 1:
                return tuple(path[path.index(w):])
            if color[w] == 0:
                found = visit(w)
                if found is not None:
                    return found
        color[u] = 2
        path.pop()
        return None

    for start in range(n):
        if color[start] == 0:
            found = visit(start)
            if found is not None:
                return found
    return None


@dataclass(frozen=True)
class EnvyCyclesResult:
    allocation: Allocation
    events: tuple[tuple, ...]   # ("rotation", agents) and ("place", item, agent)


def envy_cycles(
    instance: Instance,
    allocation: Allocation,
    unallocated: Bundle | None = None,
) -> EnvyCyclesResult:
    """Allocate every item of `unallocated` (default: all items outside the
    allocation), resolving envy cycles before each placement so the receiver
    is never envied."""
    n, m = instance.n, instance.m
    y = list(allocation.masks())
    pool = allocation.unallocated() if unallocated is None else unallocated
    if pool.mask & allocation.union_mask:
        raise ValueError("the pool overlaps the allocation")
    events: list[tuple] = []
    # rotations permute a fixed bundle multiset and strictly raise the value
    # total, so between placements there are fewer than n! of them
    budget = (m + 1) * (math.factorial(n) + 1) + n + 1
    spins = 0

    for x in iter_mask(pool.mask):
        while (cycle := _find_cycle(n, envy_edges(instance, y))) is not None:
            spins += 1
            if spins > budget:
                raise IterationBoundError(
                    f"cycle elimination ran past {budget} rotations"
                )
            rotated = list(y)
            k = len(cycle)
            for s, agent in enumerate(cycle):
                rotated[agent] = y[cycle[(s + 1) % k]]
                assert instance.value_mask(agent, rotated[agent]) > \
                    instance.value_mask(agent, y[agent])
            y = rotated
            events.append(("rotation", cycle))
        envied = {j for _, j in envy_edges(instance, y)}
        receiver = next(a for a in range(n) if a not in envied)
        y[receiver] |= 1 << x
        events.append(("place", x, receiver))

    return EnvyCyclesResult(Allocation.from_masks(y, m), tuple(events))


@dataclass(frozen=True)
class SwapResult:
    allocation: Allocation
    unallocated: Bundle
    swaps: tuple[tuple[int, int], ...]   # (agent, item) in order


def singleton_swaps(
    instance: Instance, allocation: Allocation, unallocated: Bundle
) -> SwapResult:
    """While some agent values a single leftover item above their whole
    bundle, give them that item (their best one, lowest index on ties) and
    release their bundle into the pool. Afterwards no agent prefers any
    leftover item, and each swap preserves the EFX level of the input."""
    n, m = instance.n, instance.m
    z = list(allocation.masks())
    pool = unallocated.mask
    if pool & allocation.union_mask:
        raise ValueError("the pool overlaps the allocation")
    swaps: list[tuple[int, int]] = []
    # after its first swap an agent holds a singleton whose value strictly
    # rises with each later swap, so each agent swaps at most m + 1 times
    budget = n * (m + 1)

    while True:
        chosen: tuple[int, int] | None = None
        for i in range(n):
            vi = instance.valuations[i]
            own = vi.value_mask(z[i])
            best_item = None
            best_value = None
            for x in iter_mask(pool):
                value = vi.value_mask(1 << x)
                if value > own and (best_value is None or value > best_value):
                    best_item, best_value = x, value
            if best_item is not None:
                chosen = (i, best_item)
                break
        if chosen is None:
            break
        if len(swaps) >= budget:
            raise IterationBoundError(f"swapping ran past {budget} iterations")
        agent, item = chosen
        pool = (pool | z[agent]) & ~(1 << item)
        z[agent] = 1 << item
        swaps.append((agent, item))

    return SwapResult(Allocation.from_masks(z, m), Bundle(pool), tuple(swaps))


@dataclass(frozen=True)
class PipelineResult:
    instance: Instance
    alpha: Fraction
    mnw: MnwResult | None   # the optimum; None when the caller gave the start
    partial: Allocation
    allocation: Allocation
    claims: dict   # verify.CHECK_NAMES name -> level, in report order
    swaps: tuple[tuple[int, int], ...]
    events: tuple[tuple, ...]
    state: object = None   # matching-stage trace holder, when kept
    start_product: Fraction | None = None   # the mnw claim's reference
    restart: additive_alg.RestartResult | None = None   # additive-poly only
    cap: int = DEFAULT_ENUMERATION_CAP

    def report(self, name: str) -> GuaranteeReport:
        """Check the claim `name` on the final allocation now."""
        return check(name, self.instance, self.allocation, self.claims[name],
                     self.start_product, self.cap)

    @functools.cached_property
    def reports(self) -> tuple[GuaranteeReport, ...]:
        """Every claim's report, checked on first access."""
        return tuple(self.report(name) for name in self.claims)

    @property
    def ok(self) -> bool:
        return all(report.passed for report in self.reports)


ALGORITHMS = ("additive", "subadditive", "additive-poly")


def run(
    algorithm: str,
    instance: Instance,
    alpha: Fraction,
    complete: bool,
    cap: int = DEFAULT_ENUMERATION_CAP,
    optimum: Callable[[], MnwResult] | None = None,
    start: Allocation | None = None,
    beta: Fraction = Fraction(1),
) -> PipelineResult:
    """Start, matching and optional completion, with the claims they make.

    algorithm is one of ALGORITHMS. The start is the max-product allocation
    from `optimum()` (default: exact_mnw), called only once the run's own
    preconditions hold; additive-poly may instead take any complete `start`
    whose welfare ratio is at least `beta`. Completion is envy cycles, after
    singleton swaps except for additive. Every run claims alpha-EFX (at most
    1/2-EFX for a completed additive-poly) and a (1/(alpha+1))**n product
    bound against the start. additive adds gamma=alpha separation, or once
    completed EF1, alpha/(alpha**2+1) groupwise and alpha pairwise shares;
    completing it requires alpha**2 + alpha <= 1. No claim is checked here:
    the result checks them when its reports are read.
    """
    alpha = Fraction(alpha)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if start is not None and algorithm != "additive-poly":
        raise ValueError("only additive-poly runs from a given start")
    if algorithm == "additive" and complete and not within_golden_threshold(alpha):
        raise ValueError(
            f"alpha={alpha} is too large: alpha**2 + alpha must be at most 1"
        )
    mnw = None
    if start is None:
        mnw = optimum() if optimum is not None else exact_mnw(instance, cap)
        start = mnw.allocation
    restart = None
    if algorithm == "additive":
        partial, state = additive_alg.efx_matching(instance, start, alpha)
    elif algorithm == "subadditive":
        partial, state = subadditive_alg.efx_matching(instance, start, alpha)
    else:
        restart = additive_alg.matching_with_restarts(instance, start, alpha, beta)
        partial, state = restart.allocation, restart.state

    final, swaps, events, efx_level = partial, (), (), alpha
    if complete:
        pool = partial.unallocated()
        if algorithm != "additive":
            swapped = singleton_swaps(instance, partial, pool)
            final, pool, swaps = swapped.allocation, swapped.unallocated, swapped.swaps
        completed = envy_cycles(instance, final, pool)
        final, events = completed.allocation, completed.events
        assert final.complete
        if restart is not None:
            efx_level = min(alpha, Fraction(1, 2))

    if algorithm != "additive":
        claims = {"efx": efx_level, "mnw": 1 / (alpha + 1)}
    elif complete:
        claims = {"efx": alpha, "ef1": None, "mnw": 1 / (alpha + 1),
                  "gmms": alpha / (alpha**2 + 1), "pmms": alpha}
    else:
        claims = {"efx": alpha, "mnw": 1 / (alpha + 1), "separated": alpha}
    return PipelineResult(instance, alpha, mnw, partial, final, claims, swaps, events,
                          state, nash_product(instance, start), restart, cap)


def _checked(result: PipelineResult) -> PipelineResult:
    result.reports  # checks every claim now and caches the reports
    return result


def pipeline_additive(
    instance: Instance, alpha: Fraction, cap: int = DEFAULT_ENUMERATION_CAP
) -> PipelineResult:
    """Max-product start, matching, then envy cycles, for additive instances.

    Requires alpha**2 + alpha <= 1. The complete result is checked for
    alpha-EFX, EF1, a (1/(alpha+1))**n product bound against the optimum,
    alpha/(alpha**2+1) groupwise shares, and alpha pairwise shares.
    """
    return _checked(run("additive", instance, alpha, True, cap))


def pipeline_subadditive(
    instance: Instance, alpha: Fraction, cap: int = DEFAULT_ENUMERATION_CAP
) -> PipelineResult:
    """Max-product start, splitting matching, singleton swaps, then envy
    cycles, for monotone subadditive instances with alpha <= 1/2.

    The complete result is checked for alpha-EFX and a (1/(alpha+1))**n
    product bound against the optimum.
    """
    return _checked(run("subadditive", instance, alpha, True, cap))
