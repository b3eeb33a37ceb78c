"""The four benchmark workloads.

Each workload builds a list of units from a seeded random.Random (set-up),
runs one unit through the library's public API (timed), and checks the
unit's output outside the timed region. A unit is one job, except in
sweep-additive, where one `fairdiv sweep` call over one instance and one
alpha writes three CSV rows and each row is a job. Checks use the
from-definition checkers of tests/naive.py wherever the output carries an
allocation.

Sizes and mixes are fixed per workload; the seed only draws the values.
Each mix is interleaved in a fixed order, so every run holds the same
proportion of job classes and the median and 90th percentile stay inside
one class instead of jumping between two.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass
class Unit:
    kind: str
    jobs: int = 1
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class JobResult:
    ms: float
    ok: bool


def _check_outcome(elapsed_s: float, problems: list[str]) -> list[JobResult]:
    return [JobResult(elapsed_s * 1000, not problems)]


def _masks(allocation) -> list[int]:
    return [bundle.mask for bundle in allocation.bundles]


def _complete(masks, m: int) -> bool:
    """Every item allocated exactly once (disjoint bundles sum to their union)."""
    union = 0
    for mask in masks:
        union |= mask
    return sum(masks) == union == (1 << m) - 1


# ---------------------------------------------------------------------------
# sweep-additive

SWEEP_SIZES = ((3, 7), (4, 6))
SWEEP_ALPHAS = ("0", "1/4", "1/2")
SWEEP_ALGORITHMS = ("additive", "additive-complete", "additive-poly")


class SweepAdditive:
    """`fairdiv sweep --timing` in-process, one random_additive instance and
    one alpha per call, so each call writes three rows (one per algorithm)."""

    name = "sweep-additive"
    pool = 100
    traced_units = 78

    def build(self, lib, rng, work: Path) -> list[Unit]:
        units = []
        out = work / "sweep.csv"
        for k in range(self.pool):
            n, m = SWEEP_SIZES[k % len(SWEEP_SIZES)]
            entry = {"family": "random_additive", "n": n, "m": m, "max_value": 10,
                     "seed": rng.randrange(1 << 30)}
            instance_id = lib.instances.GeneratorSpec.from_dict(entry).instance_id()
            for alpha in SWEEP_ALPHAS:
                spec_path = work / f"sweep-spec-{k}-{alpha.replace('/', '_')}.json"
                spec_path.write_text(json.dumps({"instances": [entry], "alphas": [alpha]}))
                units.append(Unit("sweep", len(SWEEP_ALGORITHMS),
                                  {"spec": str(spec_path), "out": str(out),
                                   "id": instance_id, "alpha": alpha}))
        return units

    def run(self, lib, unit: Unit):
        return lib.cli.main(["sweep", "--timing", "--spec", unit.args["spec"],
                             "--out", unit.args["out"]])

    def check(self, naive, unit: Unit, output, elapsed_s: float) -> tuple[list[JobResult], list[str]]:
        if output != 0:
            return [JobResult(elapsed_s * 1000 / unit.jobs, False)] * unit.jobs, [f"sweep exited {output}"]
        with open(unit.args["out"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        expected = {(unit.args["alpha"], alg) for alg in SWEEP_ALGORITHMS}
        if len(rows) != unit.jobs or {(r["alpha"], r["algorithm"]) for r in rows} != expected:
            problems.append(f"expected {unit.jobs} rows, one per algorithm")
        results = []
        for row in rows:
            bad = []
            if row["instance_id"] != unit.args["id"]:
                bad.append("instance_id")
            if row["error"]:
                bad.append("error " + row["error"])
            if row["efx"] != "pass" or row["mnw_bound"] != "pass":
                bad.append("efx/mnw_bound verdict")
            if row["algorithm"] == "additive-complete" and row["ef1"] != "pass":
                bad.append("ef1 verdict")
            if not row["achieved_ratio"] or Fraction(row["achieved_ratio"]) < Fraction(row["bound_ratio"]):
                bad.append("achieved_ratio below bound_ratio")
            problems += [f"{row['alpha']}/{row['algorithm']}: {b}" for b in bad]
            results.append(JobResult(float(row["wall_ms"]), not bad))
        if len(results) < unit.jobs:
            results += [JobResult(elapsed_s * 1000 / unit.jobs, False)] * (unit.jobs - len(results))
        return results, problems


# ---------------------------------------------------------------------------
# certify-search

CERT_ALPHAS = ("1/4", "1/3", "1/2", "2/3", "3/4", "1")
CERT_EPS = ("1/100", "1/50", "1/10", "1/7", "1/3")
PRICE_SIZES = ((2, 7), (3, 6))
PRICE_ALPHAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
# one theorem4 and one theorem5 certificate per four price-of-EFX jobs; the
# price jobs step through every (size, alpha) pair in turn
CERT_CYCLE = ("theorem4", "price", "price", "theorem5", "price", "price")


class CertifySearch:
    """Gap certificates and best alpha-EFX product ("price of EFX") searches."""

    name = "certify-search"
    pool = 420
    traced_units = 108

    def build(self, lib, rng, work: Path) -> list[Unit]:
        spec = lib.instances.GeneratorSpec
        units = []
        prices = 0
        for k in range(self.pool):
            kind = CERT_CYCLE[k % len(CERT_CYCLE)]
            if kind == "theorem4":
                params = (("alpha", rng.choice(CERT_ALPHAS)), ("eps", rng.choice(CERT_EPS)), ("n", 3))
                units.append(Unit("certify", args={"spec": spec("theorem4", params)}))
            elif kind == "theorem5":
                params = (("N", rng.randint(2, 30) ** 2),)
                units.append(Unit("certify", args={"spec": spec("theorem5", params)}))
            else:
                n, m = PRICE_SIZES[prices % len(PRICE_SIZES)]
                params = (("n", n), ("m", m), ("max_value", 10), ("seed", rng.randrange(1 << 30)))
                instance = lib.instances.generate(spec("random_additive", params))
                alpha = PRICE_ALPHAS[(prices // len(PRICE_SIZES)) % len(PRICE_ALPHAS)]
                units.append(Unit("price", args={"instance": instance, "alpha": alpha}))
                prices += 1
        return units

    def run(self, lib, unit: Unit):
        if unit.kind == "certify":
            return lib.oracle.certify_impossibility(unit.args["spec"])
        instance = unit.args["instance"]
        mnw = lib.oracle.exact_mnw(instance)
        product, allocation = lib.oracle.best_alpha_efx_product(instance, unit.args["alpha"])
        return mnw, product, allocation

    def check(self, naive, unit: Unit, output, elapsed_s: float) -> tuple[list[JobResult], list[str]]:
        problems = []
        if unit.kind == "certify":
            if not output.verified:
                problems.append(f"{output.spec.instance_id()}: certificate not verified")
        else:
            instance, alpha = unit.args["instance"], unit.args["alpha"]
            mnw, product, allocation = output
            masks = _masks(allocation)
            if naive.product_of(instance, masks) != product:
                problems.append("returned product differs from the allocation's product")
            if not naive.naive_efx_ok(instance, masks, alpha):
                problems.append("best allocation is not alpha-EFX")
            if product > mnw.product:
                problems.append("best alpha-EFX product exceeds the exact_mnw product")
            if naive.naive_best_product(instance) != mnw.product:
                problems.append("exact_mnw product differs from the brute-force optimum")
        return _check_outcome(elapsed_s, problems), problems


# ---------------------------------------------------------------------------
# subadditive

# check_class on (2, 10) and the pipelines on (3, 9) are the slow tenth;
# the (3, 8) pipelines hold the median
SUB_SIZES = ((3, 8), (2, 10), (3, 8), (3, 9))
SUB_FAMILIES = ("xos", "budget_additive")
SUB_ALPHAS = (Fraction(1, 4), Fraction(1, 2))


class Subadditive:
    """check_class, then pipeline_subadditive at each alpha, on table valuations."""

    name = "subadditive"
    pool = 88
    traced_units = 72

    def build(self, lib, rng, work: Path) -> list[Unit]:
        spec = lib.instances.GeneratorSpec
        units = []
        for k in range(self.pool):
            n, m = SUB_SIZES[k % len(SUB_SIZES)]
            family = SUB_FAMILIES[(k // len(SUB_SIZES)) % len(SUB_FAMILIES)]
            params = [("n", n), ("m", m), ("seed", rng.randrange(1 << 30))]
            params.append(("cap", rng.randint(15, 30)) if family == "budget_additive"
                          else ("clauses", rng.randint(2, 4)))
            instance = lib.instances.generate(spec(family, tuple(params)))
            units.append(Unit("check_class", args={"instance": instance}))
            units += [Unit("pipeline", args={"instance": instance, "alpha": a}) for a in SUB_ALPHAS]
        return units

    def run(self, lib, unit: Unit):
        if unit.kind == "check_class":
            return lib.core.check_class(unit.args["instance"])
        return lib.completion.pipeline_subadditive(unit.args["instance"], unit.args["alpha"])

    def check(self, naive, unit: Unit, output, elapsed_s: float) -> tuple[list[JobResult], list[str]]:
        problems = []
        if unit.kind == "check_class":
            if not output.ok:
                problems.append(f"check_class: {output.verdict} {output.detail}")
        else:
            instance, alpha = unit.args["instance"], unit.args["alpha"]
            masks = _masks(output.allocation)
            if not output.ok:
                problems.append("pipeline reports a failed guarantee")
            if not _complete(masks, instance.m):
                problems.append("final allocation is not complete")
            if not naive.naive_efx_ok(instance, masks, alpha):
                problems.append("final allocation is not alpha-EFX")
            bound = (1 / (alpha + 1)) ** instance.n * output.mnw.product
            if naive.product_of(instance, masks) < bound:
                problems.append("product below (1/(alpha+1))^n of the optimum")
        return _check_outcome(elapsed_s, problems), problems


# ---------------------------------------------------------------------------
# restart-poly

RESTART_N, RESTART_M = 8, 60
# two alpha=1/2 jobs per alpha=1/4 job, so the median lies inside the slower
# class rather than on the boundary between the two
RESTART_ALPHAS = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2))
BETA_DENOMINATOR = 1000


def start_beta(instance, start_masks) -> Fraction:
    """Largest p/1000 with (p/1000)^n * prod_i v_i(M) <= product of the start.

    prod_i v_i(M) bounds every allocation's product from above, so the result
    is a rational lower bound on the start's welfare ratio (product / optimum)
    ^ (1/n), which keeps the restart loop's round guard n(n-1)(alpha+1)/beta a
    true bound without knowing the optimum.
    """
    everything = (1 << instance.m) - 1
    ceiling = Fraction(1)
    start = Fraction(1)
    for i, val in enumerate(instance.valuations):
        ceiling *= val.value_mask(everything)
        start *= val.value_mask(start_masks[i])
    lo, hi = 0, BETA_DENOMINATOR
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if Fraction(mid, BETA_DENOMINATOR) ** instance.n * ceiling <= start:
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, BETA_DENOMINATOR)


class RestartPoly:
    """matching_with_restarts from a random complete start, then completion."""

    name = "restart-poly"
    pool = 480
    traced_units = 192

    def build(self, lib, rng, work: Path) -> list[Unit]:
        spec = lib.instances.GeneratorSpec
        units = []
        n, m = RESTART_N, RESTART_M
        for k in range(self.pool):
            alpha = RESTART_ALPHAS[k % len(RESTART_ALPHAS)]
            params = (("n", n), ("m", m), ("max_value", 100), ("seed", rng.randrange(1 << 30)))
            instance = lib.instances.generate(spec("random_additive", params))
            beta = Fraction(0)
            while beta == 0:  # a start where some agent values nothing has no ratio
                masks = [0] * n
                for g in range(m):
                    masks[rng.randrange(n)] |= 1 << g
                beta = start_beta(instance, masks)
            start = lib.core.Allocation.from_masks(masks, m)
            units.append(Unit("restart", args={"instance": instance, "start": start,
                                               "alpha": alpha, "beta": beta}))
        return units

    def run(self, lib, unit: Unit):
        instance, alpha = unit.args["instance"], unit.args["alpha"]
        result = lib.additive_alg.matching_with_restarts(
            instance, unit.args["start"], alpha, unit.args["beta"]
        )
        partial = result.allocation
        pool = lib.core.Bundle(lib.core.full_mask(instance.m) & ~partial.union_mask)
        swapped = lib.completion.singleton_swaps(instance, partial, pool)
        return lib.completion.envy_cycles(instance, swapped.allocation, swapped.unallocated)

    def check(self, naive, unit: Unit, output, elapsed_s: float) -> tuple[list[JobResult], list[str]]:
        instance, alpha = unit.args["instance"], unit.args["alpha"]
        masks = _masks(output.allocation)
        problems = []
        if not _complete(masks, instance.m):
            problems.append("final allocation is not complete")
        if not naive.naive_efx_ok(instance, masks, min(alpha, Fraction(1, 2))):
            problems.append("final allocation is not min(alpha, 1/2)-EFX")
        start_product = naive.product_of(instance, _masks(unit.args["start"]))
        if naive.product_of(instance, masks) < (1 / (alpha + 1)) ** instance.n * start_product:
            problems.append("product below (1/(alpha+1))^n of the start's product")
        return _check_outcome(elapsed_s, problems), problems


WORKLOADS = {w.name: w for w in (SweepAdditive(), CertifySearch(), Subadditive(), RestartPoly())}
