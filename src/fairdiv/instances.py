"""Instance generators and JSON (de)serialization.

Generators are deterministic: the same GeneratorSpec always produces a
bit-identical instance. Random families draw from `random.Random` seeded
with an explicit 64-bit seed.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    AdditiveValuation,
    ExplicitValuation,
    Instance,
    MalformedInstanceError,
    check_explicit_m,
    parse_ratio,
    ratio_or_int,
)

FAMILIES = ("example1", "theorem4", "theorem5", "random_additive", "xos", "budget_additive")
_RATIO_PARAMS = ("alpha", "eps")   # every other generator parameter is an int


def example1() -> Instance:
    """Two agents with identical additive values (1, 1, 2) over three items.

    The canonical tiny instance: the max-product allocation gives the two
    unit items to one agent and the big item to the other.
    """
    vals = AdditiveValuation((Fraction(1), Fraction(1), Fraction(2)))
    return Instance(2, 3, (vals, vals), "additive")


def additive_gap_instance(alpha: Fraction, eps: Fraction, n: int) -> Instance:
    """Additive family showing the price of exact alpha-EFX.

    2n-1 items: n-1 "common" items worth 1/alpha + eps to everyone (indices
    0..n-2), then n "personal" items (indices n-1..2n-2) where item n-1+i is
    worth 1 to agent i and 0 to everyone else. The max-product allocation
    pairs common item j with personal item j, but no alpha-EFX allocation may
    put a common item next to a positive personal item.
    """
    alpha = Fraction(alpha)
    eps = Fraction(eps)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = 2 * n - 1
    common = 1 / alpha + eps
    valuations = []
    for i in range(n):
        row = [common] * (n - 1) + [Fraction(0)] * n
        row[n - 1 + i] = Fraction(1)
        valuations.append(AdditiveValuation(tuple(row)))
    return Instance(n, m, tuple(valuations), "additive")


def monotone_gap_instance(big_n: int) -> Instance:
    """Two identical agents, five identical items, values by bundle size.

    v(by size) = (0, 1, 1, sqrt(N), N, N) for a perfect square N. Monotone
    but deliberately not subadditive: two 2-item bundles are worth 2 while
    their union is worth N.
    """
    if big_n < 1:
        raise ValueError(f"N must be a positive perfect square, got {big_n}")
    root = math.isqrt(big_n)
    if root * root != big_n:
        raise ValueError(f"N must be a perfect square, got {big_n}")
    by_size = (Fraction(0), Fraction(1), Fraction(1), Fraction(root), Fraction(big_n), Fraction(big_n))
    table = {mask: by_size[mask.bit_count()] for mask in range(1 << 5)}
    val = ExplicitValuation(5, table)
    return Instance(2, 5, (val, ExplicitValuation(5, dict(table))), "monotone")


def random_additive(n: int, m: int, max_value: int, seed: int) -> Instance:
    """Uniform integer item values in [0, max_value]; zeros are allowed."""
    if n < 1 or m < 0 or max_value < 0:
        raise ValueError(f"bad parameters n={n}, m={m}, max_value={max_value}")
    rng = random.Random(seed)
    shared = functools.cache(Fraction)  # one Fraction per distinct drawn value
    valuations = tuple(
        AdditiveValuation(tuple(shared(rng.randint(0, max_value)) for _ in range(m)))
        for _ in range(n)
    )
    return Instance(n, m, valuations, "additive")


_CLAUSE_MAX_WEIGHT = 10


def _mask_sums(weights: list[int]) -> list[int]:
    """sums[mask] = the sum of weights[g] over the items g in mask."""
    sums = [0] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def xos(n: int, m: int, clauses: int = 3, seed: int = 0) -> Instance:
    """Max over `clauses` additive clauses with weights in [0, 10].

    A max of nonnegative additive functions is monotone and subadditive, so
    the instance is declared subadditive and stored as explicit tables.
    """
    if n < 1 or m < 0 or clauses < 1:
        raise ValueError(f"bad parameters n={n}, m={m}, clauses={clauses}")
    check_explicit_m(m)  # before any 2^m table is built
    rng = random.Random(seed)
    valuations = []
    for _ in range(n):
        clause_sums = [
            _mask_sums([rng.randint(0, _CLAUSE_MAX_WEIGHT) for _ in range(m)])
            for _ in range(clauses)
        ]
        table = {mask: Fraction(max(sums)) for mask, sums in enumerate(zip(*clause_sums))}
        valuations.append(ExplicitValuation(m, table))
    return Instance(n, m, tuple(valuations), "subadditive")


def budget_additive(n: int, m: int, cap: int, seed: int) -> Instance:
    """v(S) = min(cap, additive sum) with integer weights in [0, 10]."""
    if n < 1 or m < 0 or cap < 0:
        raise ValueError(f"bad parameters n={n}, m={m}, cap={cap}")
    check_explicit_m(m)  # before any 2^m table is built
    rng = random.Random(seed)
    valuations = []
    for _ in range(n):
        sums = _mask_sums([rng.randint(0, _CLAUSE_MAX_WEIGHT) for _ in range(m)])
        table = {mask: Fraction(min(cap, total)) for mask, total in enumerate(sums)}
        valuations.append(ExplicitValuation(m, table))
    return Instance(n, m, tuple(valuations), "subadditive")


# ---------------------------------------------------------------------------
# generator specs

@dataclass(frozen=True)
class GeneratorSpec:
    """Serializable description of a generated instance.

    family is one of FAMILIES; params carries that family's arguments as a
    sorted tuple of (name, value) pairs so specs are hashable and stable.
    """

    family: str
    params: tuple[tuple[str, int | str], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise MalformedInstanceError(f"unknown generator family {self.family!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        if "family" not in data:
            raise MalformedInstanceError("generator spec needs a 'family' key")
        params = [(k, v) for k, v in data.items() if k != "family"]
        return cls(data["family"], tuple(params))

    def to_dict(self) -> dict:
        out: dict = {"family": self.family}
        out.update({k: v for k, v in self.params})
        return out

    def param(self, name: str, default=None):
        for k, v in self.params:
            if k == name:
                return v
        return default

    def require(self, *names: str, **defaults) -> list:
        """The named parameters as ratios (alpha, eps) or ints; only a name
        given a default may be missing."""
        out = []
        for name in names:
            value = self.param(name, defaults.get(name))
            if value is None:
                raise MalformedInstanceError(f"family {self.family!r} needs parameter {name!r}")
            ratio = name in _RATIO_PARAMS
            try:
                parsed = parse_ratio(value) if ratio else int(value)
            except (TypeError, ValueError, MalformedInstanceError):
                parsed = None
            # int() would truncate a float or a bool instead of rejecting it
            if parsed is None or not ratio and isinstance(value, (bool, float)):
                kind = "a ratio" if ratio else "an integer"
                raise MalformedInstanceError(f"family {self.family!r} parameter {name!r} "
                                             f"must be {kind}, got {value!r}")
            out.append(parsed)
        return out

    def instance_id(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})"


def generate(spec: GeneratorSpec) -> Instance:
    """Build the instance described by a GeneratorSpec."""
    fam = spec.family
    if fam == "example1":
        return example1()
    if fam == "theorem4":
        return additive_gap_instance(*spec.require("alpha", "eps", "n"))
    if fam == "theorem5":
        return monotone_gap_instance(*spec.require("N"))
    if fam == "random_additive":
        return random_additive(*spec.require("n", "m", "max_value", "seed"))
    if fam == "xos":
        return xos(*spec.require("n", "m", "clauses", "seed", clauses=3))
    if fam == "budget_additive":
        return budget_additive(*spec.require("n", "m", "cap", "seed"))
    raise MalformedInstanceError(f"unknown generator family {fam!r}")


# ---------------------------------------------------------------------------
# JSON instance format

def instance_to_dict(instance: Instance) -> dict:
    vals = []
    for val in instance.valuations:
        if isinstance(val, AdditiveValuation):
            vals.append({"additive": [ratio_or_int(v) for v in val.item_values]})
        else:
            vals.append({"table": {str(mask): ratio_or_int(v) for mask, v in sorted(val.table.items())}})
    return {
        "n": instance.n,
        "m": instance.m,
        "class": instance.declared_class,
        "valuations": vals,
    }


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise MalformedInstanceError("instance JSON must be an object")
    for key in ("n", "m", "class", "valuations"):
        if key not in data:
            raise MalformedInstanceError(f"instance JSON is missing key {key!r}")
    n, m = data["n"], data["m"]
    if type(n) is not int or type(m) is not int:  # a bool is an int, but not a count
        raise MalformedInstanceError("n and m must be integers")
    if m < 0:  # before any 1 << m
        raise MalformedInstanceError(f"negative item count m={m}")
    raw_vals = data["valuations"]
    if not isinstance(raw_vals, list) or len(raw_vals) != n:
        raise MalformedInstanceError(f"expected a list of {n} valuations")
    valuations: list = []
    for i, entry in enumerate(raw_vals):
        if not isinstance(entry, dict):
            raise MalformedInstanceError(f"valuation {i} must be an object")
        if "additive" in entry:
            row = entry["additive"]
            if not isinstance(row, list) or len(row) != m:
                raise MalformedInstanceError(f"valuation {i}: expected {m} additive values")
            valuations.append(AdditiveValuation(tuple(parse_ratio(v) for v in row)))
        elif "table" in entry:
            raw_table = entry["table"]
            if not isinstance(raw_table, dict):
                raise MalformedInstanceError(f"valuation {i}: table must be an object")
            table: dict[int, Fraction] = {}
            for key, v in raw_table.items():
                try:
                    mask = int(key)
                except ValueError:
                    raise MalformedInstanceError(
                        f"valuation {i}: table key {key!r} is not a bundle mask"
                    ) from None
                table[mask] = parse_ratio(v)
            check_explicit_m(m)  # before 1 << m is built
            if len(table) != 1 << m:
                raise MalformedInstanceError(
                    f"valuation {i}: table has {len(table)} entries, needs {1 << m} "
                    "(missing entries are an error, not defaulted)"
                )
            valuations.append(ExplicitValuation(m, table))
        else:
            raise MalformedInstanceError(f"valuation {i} needs an 'additive' or 'table' key")
    return Instance(n, m, tuple(valuations), data["class"])


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedInstanceError(f"{path}: invalid JSON ({exc})") from exc
    return instance_from_dict(data)


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


__all__ = [
    "FAMILIES",
    "GeneratorSpec",
    "additive_gap_instance",
    "budget_additive",
    "example1",
    "generate",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "monotone_gap_instance",
    "random_additive",
    "save_instance",
    "xos",
]
