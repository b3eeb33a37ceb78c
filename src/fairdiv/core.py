"""Core types for fair-division instances with exact rational arithmetic.

All values are `fractions.Fraction`; nothing in this package ever rounds.
Bundles are bitmasks over item indices, valuations are either additive
(per-item values) or explicit (a full table over all 2^m bundles), and an
allocation is a tuple of pairwise disjoint bundles, one per agent. The
exhaustive searches run on `Instance.scaled_values`: the same values times
one common denominator, as Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple


class MalformedInstanceError(ValueError):
    """Instance data is structurally invalid (bad shapes, incomplete tables)."""


class CapacityError(RuntimeError):
    """An exhaustive search would exceed the configured enumeration cap."""


class IterationBoundError(RuntimeError):
    """An algorithm ran past its proven iteration bound; this is an internal bug."""


# ---------------------------------------------------------------------------
# rationals

def parse_ratio(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q" / "p" string.

    A string with an exponent is refused: "1e99999999" would expand to a
    99999999-digit integer. A finite float's repr keeps its exponent within
    308; an infinite or NaN float is refused.
    """
    if isinstance(value, bool):
        raise MalformedInstanceError(f"not a rational value: {value!r}")
    if isinstance(value, Fraction):
        return value  # immutable, so shared rather than copied
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float) and math.isfinite(value):
        # floats in JSON are read as their decimal literal, not their binary value
        return Fraction(repr(value))
    if isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInstanceError(f"not a rational value: {value!r}") from exc
    raise MalformedInstanceError(f"not a rational value: {value!r}")


def format_ratio(value: Fraction) -> str:
    """Canonical string for a rational: "p" when integral, else "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def ratio_or_int(value: Fraction) -> int | str:
    """JSON-friendly form: plain int when integral, else "p/q"."""
    if value.denominator == 1:
        return value.numerator
    return format_ratio(value)


# ---------------------------------------------------------------------------
# enumeration caps

DEFAULT_ENUMERATION_CAP = 20_000_000  # states of a brute-force loop: n^m, (n+1)^m, k^|pool|, 3^m
EXPLICIT_M_CAP = 16  # an explicit table holds 2^m entries


def check_enumeration(states: int, what: str, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Raise CapacityError when a search of `states` states exceeds the cap."""
    if states > cap:
        raise CapacityError(
            f"{what} needs {states} states, over the enumeration cap {cap}"
        )


def check_explicit_m(m: int) -> None:
    """Raise CapacityError when a table over m items (2^m entries) exceeds the cap."""
    if m > EXPLICIT_M_CAP:
        raise CapacityError(
            f"explicit valuation with m={m} exceeds the table cap {EXPLICIT_M_CAP} "
            "(2^m entries required)"
        )


# ---------------------------------------------------------------------------
# bundles

def mask_of(items) -> int:
    mask = 0
    for g in items:
        if g < 0:
            raise ValueError(f"negative item index: {g}")
        mask |= 1 << g
    return mask


def iter_mask(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, order=True)
class Bundle:
    """An immutable set of item indices with bitmask semantics."""

    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError(f"negative bundle mask: {self.mask}")

    def items(self) -> tuple[int, ...]:
        return tuple(iter_mask(self.mask))

    def __iter__(self) -> Iterator[int]:
        return iter_mask(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, g: int) -> bool:
        return g >= 0 and (self.mask >> g) & 1 == 1

    def remove(self, g: int) -> "Bundle":
        """Bundle minus one item; removing an absent item is a no-op."""
        if g < 0:
            raise ValueError(f"negative item index: {g}")
        return Bundle(self.mask & ~(1 << g))

    def union(self, other: "Bundle") -> "Bundle":
        return Bundle(self.mask | other.mask)

    def __or__(self, other: "Bundle") -> "Bundle":
        return self.union(other)

    def __repr__(self) -> str:
        return f"Bundle{self.items()!r}"


EMPTY_BUNDLE = Bundle(0)


def full_mask(m: int) -> int:
    return (1 << m) - 1


# ---------------------------------------------------------------------------
# valuations

def _check_nonnegative(value: Fraction, where: str) -> Fraction:
    if value < 0:
        raise MalformedInstanceError(f"negative value {value} {where}")
    return value


@dataclass(frozen=True)
class AdditiveValuation:
    """v(S) = sum of nonnegative per-item values over S, summed as ints:
    item_values[g] == Fraction(nums[g], den), den the lcm of their denominators."""

    item_values: tuple[Fraction, ...]
    den: int = field(init=False, repr=False, compare=False)
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    kind = "additive"

    def __post_init__(self) -> None:
        vals = tuple(parse_ratio(v) for v in self.item_values)
        for g, v in enumerate(vals):
            _check_nonnegative(v, f"for item {g}")
        den = math.lcm(*(v.denominator for v in vals))
        object.__setattr__(self, "item_values", vals)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(v.numerator * (den // v.denominator) for v in vals))

    @property
    def m(self) -> int:
        return len(self.item_values)

    def value_mask(self, mask: int) -> Fraction:
        nums, m = self.nums, len(self.nums)
        if high := mask >> m:  # the lowest item out of range is named
            raise ValueError(f"item {m + (high & -high).bit_length() - 1} out of range for m={m}")
        total = 0
        while mask:
            low = mask & -mask
            total += nums[low.bit_length() - 1]
            mask ^= low
        return Fraction(total, self.den)


@dataclass(frozen=True)
class ExplicitValuation:
    """v given by a full table: one value for each of the 2^m bundle masks,
    with m at most EXPLICIT_M_CAP."""

    m: int
    table: dict[int, Fraction] = field(hash=False)

    kind = "explicit"

    def __post_init__(self) -> None:
        if self.m < 0:
            raise MalformedInstanceError(f"negative m: {self.m}")
        check_explicit_m(self.m)
        top = full_mask(self.m)
        clean: dict[int, Fraction] = {}
        for mask, raw in self.table.items():
            if not isinstance(mask, int) or mask < 0 or mask > top:
                raise MalformedInstanceError(f"table mask {mask!r} out of range for m={self.m}")
            clean[mask] = _check_nonnegative(parse_ratio(raw), f"at mask {mask}")
        if len(clean) != top + 1:  # every key is in range, so some mask is missing
            missing = next(mask for mask in range(top + 1) if mask not in clean)
            raise MalformedInstanceError(
                f"explicit valuation table has {len(clean)} entries, needs {top + 1} "
                f"(first missing mask {missing})"
            )
        object.__setattr__(self, "table", clean)

    def value_mask(self, mask: int) -> Fraction:
        return self.table[mask]


Valuation = AdditiveValuation | ExplicitValuation

VALUATION_CLASSES = ("additive", "subadditive", "monotone")


# ---------------------------------------------------------------------------
# instances

class ScaledValues(NamedTuple):
    """Every value of an instance multiplied by one common scale, as ints.

    values[i] is a tuple of per-item ints for an additive agent and, for an
    explicit one, its table as a tuple of 2^m ints indexed by bundle mask.
    The scale is shared by all agents, so a product of k positive values is
    always scale**k times the true one, and products with equal k still
    order and tie as the true ones do.
    """

    scale: int
    values: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Instance:
    """n agents, m items, one valuation per agent, and a declared value class."""

    n: int
    m: int
    valuations: tuple[Valuation, ...]
    declared_class: str = "additive"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise MalformedInstanceError(f"need at least one agent, got n={self.n}")
        if self.m < 0:
            raise MalformedInstanceError(f"negative item count m={self.m}")
        object.__setattr__(self, "valuations", tuple(self.valuations))
        if len(self.valuations) != self.n:
            raise MalformedInstanceError(
                f"expected {self.n} valuations, got {len(self.valuations)}"
            )
        if self.declared_class not in VALUATION_CLASSES:
            raise MalformedInstanceError(
                f"declared_class must be one of {VALUATION_CLASSES}, got {self.declared_class!r}"
            )
        for i, val in enumerate(self.valuations):
            if isinstance(val, AdditiveValuation):
                if val.m != self.m:
                    raise MalformedInstanceError(
                        f"agent {i}: additive valuation has {val.m} items, expected {self.m}"
                    )
            elif isinstance(val, ExplicitValuation):
                if val.m != self.m:
                    raise MalformedInstanceError(
                        f"agent {i}: explicit valuation has m={val.m}, expected {self.m}"
                    )
                if self.declared_class == "additive":
                    raise MalformedInstanceError(
                        f"agent {i}: declared_class additive requires additive valuations"
                    )
            else:
                raise MalformedInstanceError(f"agent {i}: unknown valuation type {type(val)!r}")

    @property
    def is_additive(self) -> bool:
        return all(isinstance(v, AdditiveValuation) for v in self.valuations)

    @cached_property
    def scaled_values(self) -> ScaledValues:
        """All values times the lcm of every value's denominator, over all agents."""
        scale = math.lcm(*(
            val.den if isinstance(val, AdditiveValuation)
            else math.lcm(*{v.denominator for v in val.table.values()})
            for val in self.valuations
        ))

        def up(v: Fraction) -> int:
            return v.numerator * (scale // v.denominator)

        return ScaledValues(scale, tuple(
            tuple(x * (scale // val.den) for x in val.nums) if isinstance(val, AdditiveValuation)
            else tuple(map(up, map(val.table.__getitem__, range(1 << val.m))))
            for val in self.valuations
        ))

    def value_mask(self, agent: int, mask: int) -> Fraction:
        if not 0 <= agent < self.n:
            raise ValueError(f"agent {agent} out of range for n={self.n}")
        if mask < 0 or mask > full_mask(self.m):
            raise ValueError(f"bundle mask {mask} out of range for m={self.m}")
        return self.valuations[agent].value_mask(mask)


# ---------------------------------------------------------------------------
# allocations

@dataclass(frozen=True)
class Allocation:
    """One bundle per agent, pairwise disjoint; may leave items unallocated."""

    bundles: tuple[Bundle, ...]
    m: int

    def __post_init__(self) -> None:
        top = full_mask(self.m)
        seen = 0
        for i, b in enumerate(self.bundles):
            if b.mask & ~top:
                raise ValueError(f"bundle {i} has items out of range for m={self.m}")
            if b.mask & seen:
                raise ValueError(f"bundle {i} overlaps an earlier bundle")
            seen |= b.mask
        object.__setattr__(self, "_union_mask", seen)

    @classmethod
    def from_masks(cls, masks, m: int) -> "Allocation":
        return cls(tuple(Bundle(mask) for mask in masks), m)

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def union_mask(self) -> int:
        return self._union_mask  # type: ignore[attr-defined]

    @property
    def complete(self) -> bool:
        return self.union_mask == full_mask(self.m)

    def unallocated(self) -> Bundle:
        return Bundle(full_mask(self.m) & ~self.union_mask)

    def masks(self) -> tuple[int, ...]:
        return tuple(b.mask for b in self.bundles)


def nash_product(instance: Instance, allocation: Allocation) -> Fraction:
    """Product of every agent's value for their own bundle (the n-th power of
    the geometric-mean welfare; this package always compares products)."""
    if allocation.n != instance.n:
        raise ValueError(f"allocation has {allocation.n} bundles, instance has n={instance.n}")
    prod = Fraction(1)
    for i, b in enumerate(allocation.bundles):
        prod *= instance.value_mask(i, b.mask)
    return prod


# ---------------------------------------------------------------------------
# class checking

@dataclass(frozen=True)
class ClassReport:
    """Outcome of check_class: verdict is "pass", "malformed", or a violation
    kind ("monotonicity" / "subadditivity") with a witness that replays it."""

    verdict: str
    detail: str = ""
    agent: int | None = None
    s: Bundle | None = None
    t: Bundle | None = None
    g: int | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.detail:
            out["detail"] = self.detail
        if self.agent is not None:
            out["agent"] = self.agent
        if self.s is not None:
            out["s"] = list(self.s.items())
        if self.t is not None:
            out["t"] = list(self.t.items())
        if self.g is not None:
            out["item"] = self.g
        return out


def _check_explicit_structure(agent: int, val: ExplicitValuation) -> ClassReport | None:
    empty = val.table[0]
    if empty != 0:
        return ClassReport(
            "malformed",
            f"agent {agent}: v(empty set) = {empty}, must be 0",
            agent=agent,
            s=EMPTY_BUNDLE,
        )
    return None


def _check_monotone(
    agent: int, val: ExplicitValuation, row: tuple[int, ...], m: int
) -> ClassReport | None:
    for mask in range(1 << m):
        base = row[mask]
        for g in range(m):
            grown = mask | (1 << g)
            if grown != mask and row[grown] < base:
                vs, vg = val.table[mask], val.table[grown]
                return ClassReport(
                    "monotonicity",
                    f"agent {agent}: v(S + item {g}) = {vg} < {vs} = v(S)",
                    agent=agent,
                    s=Bundle(mask),
                    g=g,
                )
    return None


def _check_subadditive(
    agent: int, val: ExplicitValuation, row: tuple[int, ...], m: int
) -> ClassReport | None:
    # Under monotonicity it suffices to check disjoint pairs. Each unordered
    # split {S, T} of a union U is visited once, on the scaled ints. The
    # witness is the violation that comes first in the ordered walk over all
    # 3^m (S, T) states: item 0 most significant, each item in neither, S,
    # or T, in that order. With trits[X] the sum of 3^(m-1-g) over items g in
    # X, that walk's key is trits[S] + 2 trits[T], so the witness puts the
    # side with the larger trits in S, and its key is trits[U] + trits[T],
    # between trits[U] and 3^m. Unions are visited by rising trits, so the
    # walk stops at the first U whose trits reach the best key found.
    trits, order = [0], [0]
    for g in range(m):
        trits += [t + 3 ** (m - 1 - g) for t in trits]
        order += [u | 1 << (m - 1 - g) for u in order]
    best, witness = 3**m, None
    for u in order:
        if trits[u] >= best:
            break
        vu = row[u]
        s = (u - 1) & u
        while s > (t := u ^ s):
            if vu > row[s] + row[t]:
                hi, lo = (s, t) if trits[s] > trits[t] else (t, s)
                if trits[u] + trits[lo] < best:
                    best, witness = trits[u] + trits[lo], (hi, lo)
            s = (s - 1) & u
    if witness is None:
        return None
    s, t = witness
    vs, vt, vu = val.table[s], val.table[t], val.table[s | t]
    return ClassReport(
        "subadditivity",
        f"agent {agent}: v(S u T) = {vu} > {vs} + {vt} = v(S) + v(T)",
        agent=agent,
        s=Bundle(s),
        t=Bundle(t),
    )


def check_class(instance: Instance, cap: int = DEFAULT_ENUMERATION_CAP) -> ClassReport:
    """Verify that every valuation satisfies the instance's declared class.

    Additive valuations pass structurally (nonnegative item values imply
    monotonicity and subadditivity). Explicit tables are swept exhaustively:
    for each table in agent order, v(empty) = 0 and then monotonicity for all
    (S, g), uncapped; then, when the declared class is subadditive and every
    table is monotone, v(S u T) <= v(S) + v(T) over all disjoint pairs, on
    `scaled_values` ints, again in agent order. The first violation in that
    order is returned. The disjoint-pair walk visits each unordered pair at
    most once, but its cap still counts all 3^m ordered states per table:
    CapacityError when that exceeds `cap`.
    """
    tables = [
        (agent, val, instance.scaled_values.values[agent])
        for agent, val in enumerate(instance.valuations)
        if isinstance(val, ExplicitValuation)
    ]
    m = instance.m
    for agent, val, row in tables:
        report = _check_explicit_structure(agent, val) or _check_monotone(agent, val, row, m)
        if report is not None:
            return report
    if tables and instance.declared_class == "subadditive":
        check_enumeration(3**m, f"subadditivity check over 3^m = 3^{m} disjoint pairs", cap)
        for agent, val, row in tables:
            report = _check_subadditive(agent, val, row, m)
            if report is not None:
                return report
    return ClassReport("pass", f"declared class {instance.declared_class} verified")
