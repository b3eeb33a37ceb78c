"""Matching-based partial allocation for subadditive instances.

The state keeps three families of bundles: white bundles z[j] (a shrinking
core of each agent's original bundle), red bundles x[j] minus z[j], and blue
bundles (frozen item sets handed to agents along the way). An unmatched agent
either accepts their own white bundle or grabs the best available bundle,
and the split procedure rebalances a white bundle that lost an item so that
every agent keeps at least a 1/(alpha+1) value share of x[j].

Works for alpha in [0, 1/2] on instances whose valuations are monotone and
subadditive (additive instances qualify).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Allocation,
    Instance,
    IterationBoundError,
    full_mask,
    iter_mask,
)

WHITE = "white"
RED = "red"
BLUE = "blue"

# match targets: ("white", j) points at the live bundle slot z[j],
# ("blue", mask) is a frozen item set
Match = tuple[str, int] | None


@dataclass(frozen=True)
class AvailableBundle:
    family: str              # "white" | "red" | "blue"
    owner: int
    removed: int | None      # the dropped item for white/blue entries
    mask: int


@dataclass(frozen=True)
class SubStep:
    """One iteration, with post-iteration snapshots."""

    case: str                # "1", "2.1".."2.6", "3", "4"
    i: int
    j: int | None = None
    k: int | None = None
    g: int | None = None
    j_mask: int | None = None       # the chosen bundle
    r_mask: int | None = None
    s_mask: int | None = None
    x_masks: tuple[int, ...] = ()
    z_masks: tuple[int, ...] = ()
    matches: tuple[Match, ...] = ()
    deleted_mask: int = 0
    phi: tuple[int, int, int] = (0, 0, 0)
    self_matched_count: int = 0


@dataclass
class SubState:
    x_masks: tuple[int, ...]
    z_masks: tuple[int, ...]
    matches: tuple[Match, ...]
    deleted_mask: int
    alpha: Fraction
    trace: tuple[SubStep, ...]

    def resolved_masks(self) -> tuple[int, ...]:
        out = []
        for entry in self.matches:
            assert entry is not None
            tag, ref = entry
            out.append(self.z_masks[ref] if tag == WHITE else ref)
        return tuple(out)

    def resolved_allocation(self, m: int) -> Allocation:
        return Allocation.from_masks(self.resolved_masks(), m)


def available_bundles(
    n: int, x: list[int], z: list[int], matches: list[Match]
) -> list[AvailableBundle]:
    """White bundles minus one item, red bundles whole, and matched blue
    bundles minus one item, in that scan order."""
    out: list[AvailableBundle] = []
    for j in range(n):
        zj = z[j]
        for g in iter_mask(zj):
            out.append(AvailableBundle(WHITE, j, g, zj & ~(1 << g)))
    for j in range(n):
        out.append(AvailableBundle(RED, j, None, x[j] & ~z[j]))
    for j in range(n):
        entry = matches[j]
        if entry is not None and entry[0] == BLUE:
            for g in iter_mask(entry[1]):
                out.append(AvailableBundle(BLUE, j, g, entry[1] & ~(1 << g)))
    return out


def _phi(n, m, x, z, matches) -> tuple[int, int, int]:
    """(deleted, blue, red) item counts; strictly lex-increasing on every
    iteration that is not a self-match."""
    white = 0
    red = 0
    for j in range(n):
        white |= z[j]
        red |= x[j] & ~z[j]
    blue = 0
    for entry in matches:
        if entry is not None and entry[0] == BLUE:
            blue |= entry[1]
    residual = full_mask(m) & ~(white | blue | red)
    return (
        residual.bit_count(),
        blue.bit_count(),
        red.bit_count(),
    )


def _self_matched(matches: list[Match]) -> int:
    return sum(
        1
        for a, entry in enumerate(matches)
        if entry is not None and entry == (WHITE, a)
    )


def _unmatch_slot(matches: list[Match], owner: int) -> None:
    for u, entry in enumerate(matches):
        if entry == (WHITE, owner):
            matches[u] = None
            return


def efx_matching(
    instance: Instance, start: Allocation, alpha: Fraction
) -> tuple[Allocation, SubState]:
    """Produce a partial allocation that is alpha-EFX and keeps the product
    of values within a (1/(alpha+1))^n factor of the starting allocation's.

    The starting allocation must be complete. Valuations must be monotone
    and subadditive for the guarantees to hold, so only instances declared
    additive or subadditive are accepted, and alpha may not exceed 1/2.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= Fraction(1, 2):
        raise ValueError(f"alpha must be in [0, 1/2], got {alpha}")
    if instance.declared_class not in ("additive", "subadditive"):
        raise ValueError(
            "this matching needs subadditive valuations; "
            f"the instance is declared {instance.declared_class!r}"
        )
    if start.n != instance.n or start.m != instance.m:
        raise ValueError("allocation shape does not match the instance")
    if not start.complete:
        raise ValueError("the starting allocation must be complete")

    n, m = instance.n, instance.m
    vals = instance.valuations
    x = list(start.masks())
    z = list(x)
    matches: list[Match] = [None] * n
    deleted = 0
    trace: list[SubStep] = []
    # every non-self-match iteration strictly raises the (deleted, blue, red)
    # potential, and self-matches strictly raise the self-matched count,
    # which only split iterations can lower (by at most two)
    max_iterations = n + 3 * (m + 1) ** 3

    def snapshot(case, i, j=None, k=None, g=None, j_mask=None, r_mask=None, s_mask=None):
        trace.append(
            SubStep(
                case, i, j, k, g, j_mask, r_mask, s_mask,
                tuple(x), tuple(z), tuple(matches), deleted,
                _phi(n, m, x, z, matches), _self_matched(matches),
            )
        )

    while any(entry is None for entry in matches):
        if len(trace) >= max_iterations:
            raise IterationBoundError(
                f"matching ran past {max_iterations} iterations"
            )
        i = next(a for a in range(n) if matches[a] is None)
        vi = vals[i]
        own = vi.value_mask(z[i])
        bundles = available_bundles(n, x, z, matches)

        best: AvailableBundle | None = None
        best_val = Fraction(0)
        content = True
        for bundle in bundles:
            v = vi.value_mask(bundle.mask)
            if own < alpha * v:
                content = False
            if best is None or v > best_val:
                best, best_val = bundle, v

        if content:
            _unmatch_slot(matches, i)
            matches[i] = (WHITE, i)
            snapshot("1", i)
            continue

        assert best is not None and best_val > 0
        j = best.owner
        j_mask = best.mask

        if best.family == RED:
            x[j] = z[j]
            matches[i] = (BLUE, j_mask)
            snapshot("3", i, j=j, j_mask=j_mask)
            continue

        if best.family == BLUE:
            g = best.removed
            matches[j] = None
            matches[i] = (BLUE, j_mask)
            deleted |= 1 << g
            snapshot("4", i, j=j, g=g, j_mask=j_mask)
            continue

        # the chosen bundle is white: split j's bundle
        g = best.removed
        _unmatch_slot(matches, j)
        matches[i] = (BLUE, j_mask)
        r_mask = x[j] & ~j_mask
        vj = vals[j]
        vj_x = vj.value_mask(x[j])
        share = alpha / (alpha + 1)

        def seekers(s_mask: int) -> list[int]:
            return [
                k
                for k in range(n)
                if matches[k] == (WHITE, k)
                and vals[k].value_mask(z[k]) < alpha * vals[k].value_mask(s_mask)
            ]

        if vj.value_mask(1 << g) >= share * vj_x:
            # case 2.1: the dropped item alone is a big enough core for j
            deleted |= r_mask & ~(1 << g)
            z[j] = 1 << g
            x[j] = z[j]
            snapshot("2.1", i, j=j, g=g, j_mask=j_mask, r_mask=r_mask)
        elif not seekers(r_mask):
            # monotonicity: no subset of the leftover attracts a
            # self-matched agent either
            if vj.value_mask(r_mask) < share * vj_x:
                # case 2.2: j keeps the grabbed part as its core
                z[j] = j_mask
                matches[i] = (WHITE, j)
                snapshot("2.2", i, j=j, g=g, j_mask=j_mask, r_mask=r_mask)
            else:
                # case 2.3: j keeps the leftover as its core
                z[j] = r_mask
                x[j] = z[j]
                snapshot("2.3", i, j=j, g=g, j_mask=j_mask, r_mask=r_mask)
        else:
            s_mask, k = _minimal_seeker_subset(r_mask, seekers)
            if vj.value_mask(j_mask) >= alpha * vj_x:
                # case 2.4: j keeps the grabbed part, k takes the seeker set
                deleted |= (r_mask & ~s_mask) | (x[k] & ~z[k])
                z[j] = j_mask
                x[j] = z[j]
                x[k] = z[k]
                matches[k] = (BLUE, s_mask)
                matches[i] = (WHITE, j)
                snapshot("2.4", i, j=j, k=k, g=g, j_mask=j_mask, r_mask=r_mask, s_mask=s_mask)
            elif vj.value_mask(s_mask) >= share * vj_x:
                # case 2.5: j keeps the seeker set itself
                deleted |= r_mask & ~s_mask
                z[j] = s_mask
                x[j] = z[j]
                snapshot("2.5", i, j=j, k=k, g=g, j_mask=j_mask, r_mask=r_mask, s_mask=s_mask)
            else:
                # case 2.6: j keeps the leftover minus the seeker set
                deleted |= x[k] & ~z[k]
                z[j] = r_mask & ~s_mask
                x[j] = z[j]
                x[k] = z[k]
                matches[k] = (BLUE, s_mask)
                snapshot("2.6", i, j=j, k=k, g=g, j_mask=j_mask, r_mask=r_mask, s_mask=s_mask)

    state = SubState(
        tuple(x), tuple(z), tuple(matches), deleted, alpha, tuple(trace)
    )
    return state.resolved_allocation(m), state


def _minimal_seeker_subset(r_mask: int, seekers) -> tuple[int, int]:
    """Smallest subset of the leftover bundle that some self-matched agent
    values more than 1/alpha times their own core; ties go to the
    lexicographically first item tuple, then the lowest agent."""
    items = list(iter_mask(r_mask))
    for size in range(1, len(items) + 1):
        for combo in itertools.combinations(items, size):
            s_mask = 0
            for item in combo:
                s_mask |= 1 << item
            found = seekers(s_mask)
            if found:
                return s_mask, found[0]
    raise AssertionError("no seeker subset found although the full set had one")
