"""Command line interface.

Subcommands: gen, check-instance, mnw, solve, verify, sweep,
certify-impossibility. All value comparisons are exact rational arithmetic;
outputs are deterministic unless --timing is requested.

Exit codes: 0 success, 2 malformed input or violated precondition,
3 enumeration capacity exceeded, 4 a guarantee or certificate check failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from fractions import Fraction

from .core import (
    Allocation,
    CapacityError,
    DEFAULT_ENUMERATION_CAP,
    Instance,
    IterationBoundError,
    MalformedInstanceError,
    check_class,
    format_ratio,
    iter_mask,
    mask_of,
    nash_product,
    parse_ratio,
)
from . import additive_alg, completion, instances, oracle, subadditive_alg, verify

ALGORITHMS = ("additive", "additive-complete", "additive-poly",
              "subadditive", "subadditive-complete")
SOLVE_ALGS = completion.ALGORITHMS

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_CAPACITY = 3
EXIT_VIOLATION = 4


def _effective_cap(args) -> int:
    if args.cap <= 0:
        raise MalformedInstanceError("--cap must be a positive integer")
    return args.cap


def _emit(data, out_path: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_allocation(path: str, instance: Instance) -> Allocation:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedInstanceError(f"allocation file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "bundles" not in data:
        raise MalformedInstanceError('allocation JSON must be an object with a "bundles" key')
    bundles = data["bundles"]
    if not isinstance(bundles, list) or len(bundles) != instance.n:
        raise MalformedInstanceError(f"expected a list of {instance.n} bundles")
    masks = []
    for i, row in enumerate(bundles):
        if not isinstance(row, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in row
        ):
            raise MalformedInstanceError("each bundle must be a list of item indices")
        if not all(0 <= x < instance.m for x in row):  # before mask_of builds 1 << x
            raise MalformedInstanceError(f"bundle {i} has items out of range for m={instance.m}")
        if len(set(row)) != len(row):
            raise MalformedInstanceError("a bundle lists the same item twice")
        masks.append(mask_of(row))
    try:
        return Allocation.from_masks(masks, instance.m)
    except (ValueError, MalformedInstanceError) as exc:
        raise MalformedInstanceError(str(exc)) from exc


def _allocation_json(allocation: Allocation) -> list[list[int]]:
    return [sorted(bundle.items()) for bundle in allocation.bundles]


def _items(mask: int) -> list[int]:
    return list(iter_mask(mask))


# ---------------------------------------------------------------------------
# gen

# generator parameter -> the argparse dest of its flag
SPEC_FLAGS = {"alpha": "alpha", "eps": "eps", "n": "n", "m": "m", "N": "big_n", "seed": "seed",
              "max_value": "max_value", "clauses": "clauses", "cap": "budget"}


def _spec_from_flags(args, names=tuple(SPEC_FLAGS)) -> instances.GeneratorSpec:
    """The GeneratorSpec of --family and the given flags; unset flags are left out."""
    params = []
    for name in names:
        value = getattr(args, SPEC_FLAGS[name])
        if value is not None:
            if name in instances._RATIO_PARAMS:
                value = format_ratio(parse_ratio(value))
            params.append((name, value))
    return instances.GeneratorSpec(args.family, tuple(params))


def _cmd_gen(args) -> int:
    spec = _spec_from_flags(args)
    instance = instances.generate(spec)
    data = instances.instance_to_dict(instance)
    data["generator"] = spec.to_dict()
    _emit(data, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-instance

def _cmd_check_instance(args) -> int:
    cap = _effective_cap(args)
    instance = instances.load_instance(args.instance)
    report = check_class(instance, cap)
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK if report.ok else EXIT_MALFORMED


# ---------------------------------------------------------------------------
# mnw

def _cmd_mnw(args) -> int:
    cap = _effective_cap(args)
    instance = instances.load_instance(args.instance)
    result = oracle.exact_mnw(instance, cap)
    _emit(result.to_json_dict(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve

def _solve_trace_json(state) -> list[dict]:
    steps = []
    if isinstance(state, additive_alg.MatchState):
        for step in state.trace:
            steps.append(
                {
                    "branch": step.branch,
                    "agent": step.i_star,
                    "victim": step.j_star,
                    "item": step.g,
                    "removed": step.removed,
                    "sequence": list(step.sequence) if step.sequence else None,
                    "sequence_end": step.sequence_end,
                    "bundles": [_items(mask) for mask in step.z_masks],
                    "matches": list(step.matches),
                }
            )
    elif isinstance(state, subadditive_alg.SubState):
        for step in state.trace:
            steps.append(
                {
                    "case": step.case,
                    "agent": step.i,
                    "victim": step.j,
                    "seeker": step.k,
                    "item": step.g,
                    "chosen": _items(step.j_mask) if step.j_mask is not None else None,
                    "leftover": _items(step.r_mask) if step.r_mask is not None else None,
                    "seeker_set": _items(step.s_mask) if step.s_mask is not None else None,
                    "x": [_items(mask) for mask in step.x_masks],
                    "z": [_items(mask) for mask in step.z_masks],
                    "matches": [
                        None if entry is None
                        else ["white", entry[1]] if entry[0] == "white"
                        else ["blue", _items(entry[1])]
                        for entry in step.matches
                    ],
                    "deleted": _items(step.deleted_mask),
                    "potential": list(step.phi),
                }
            )
    return steps


def _cmd_solve(args) -> int:
    if args.alg != "additive-poly" and (args.x0 is not None or args.beta is not None):
        raise MalformedInstanceError("--x0 and --beta apply to --alg additive-poly only")
    cap = _effective_cap(args)
    instance = instances.load_instance(args.instance)
    alpha = parse_ratio(args.alpha)
    start = None
    if args.x0 is not None:
        start = _load_allocation(args.x0, instance)
        if not start.complete:
            raise MalformedInstanceError("--x0 must be a complete allocation")
    beta = parse_ratio(args.beta) if args.beta is not None else Fraction(1)
    result = completion.run(args.alg, instance, alpha, args.complete, cap, start=start, beta=beta)

    final = result.allocation
    data: dict = {"algorithm": args.alg, "alpha": format_ratio(alpha), "complete": bool(args.complete)}
    if result.restart is not None:
        data["rounds"] = result.restart.rounds
        data["branches"] = list(result.restart.branches)
        data["start_product"] = format_ratio(result.start_product)
    else:
        data["optimal_product"] = format_ratio(result.mnw.product)
    if args.complete:
        if result.restart is None:
            data["partial"] = _allocation_json(result.partial)
        else:
            data["efx_level"] = format_ratio(result.claims["efx"])
        if args.alg != "additive":
            data["swaps"] = [list(s) for s in result.swaps]
    data["allocation"] = _allocation_json(final)
    data["unallocated"] = sorted(final.unallocated().items())
    data["achieved_product"] = format_ratio(nash_product(instance, final))
    if args.verify_all:
        data["reports"] = [report.to_json_dict() for report in result.reports]
        data["ok"] = result.ok
    if args.trace is not None:
        events = [list(event) for event in result.events]
        _emit({"steps": _solve_trace_json(result.state), "events": events}, args.trace)
    _emit(data, args.out)
    return EXIT_VIOLATION if args.verify_all and not result.ok else EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    cap = _effective_cap(args)
    instance = instances.load_instance(args.instance)
    allocation = _load_allocation(args.allocation, instance)
    names = [part.strip() for part in args.checks.split(",") if part.strip()]
    for name in names:
        if name not in verify.CHECK_NAMES:
            raise MalformedInstanceError(
                f"unknown check {name!r}; valid names: {', '.join(verify.CHECK_NAMES)}"
            )
    alpha = parse_ratio(args.alpha)
    reports = []
    for name in names:
        level, reference = alpha, None
        flag = {"mnw": "beta", "separated": "gamma"}.get(name)
        if flag is not None:
            if getattr(args, flag) is None:
                raise MalformedInstanceError(f"the {name} check needs --{flag}")
            level = parse_ratio(getattr(args, flag))
        if name == "mnw":
            if args.reference_product is not None:
                reference = parse_ratio(args.reference_product)
            else:
                reference = oracle.exact_mnw(instance, cap).product
        reports.append(verify.check(name, instance, allocation, level, reference, cap))
    data = {
        "checks": [report.to_json_dict() for report in reports],
        "ok": all(report.passed for report in reports),
    }
    _emit(data, args.out)
    return EXIT_OK if data["ok"] else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# sweep

SWEEP_COLUMNS = (
    "instance_id",
    "family",
    "n",
    "m",
    "alpha",
    "algorithm",
    "efx",
    "ef1",
    "mnw_bound",
    "achieved_ratio",
    "achieved_ratio_float",
    "bound_ratio",
    "error",
)


def _sweep_instances(spec_data) -> list[tuple[str, str, Instance]]:
    raw = spec_data.get("instances")
    if not isinstance(raw, list) or not raw:
        raise MalformedInstanceError('sweep spec needs a non-empty "instances" list')
    out = []
    for entry in raw:
        path = entry.get("file") if isinstance(entry, dict) else entry
        if isinstance(path, str):
            out.append((path, "file", instances.load_instance(path)))
        elif isinstance(entry, dict) and "family" in entry and "file" not in entry:
            spec = instances.GeneratorSpec.from_dict(entry)
            out.append((spec.instance_id(), spec.family, instances.generate(spec)))
        else:
            raise MalformedInstanceError(
                "each sweep instance must be a file path or a generator object"
            )
    return out


def _default_algorithms(instance: Instance) -> list[str]:
    if instance.declared_class == "additive":
        return ["additive", "additive-complete", "additive-poly"]
    if instance.declared_class == "subadditive":
        return ["subadditive", "subadditive-complete"]
    return []


# CSV column -> the claim whose verdict fills it; no other claim is checked
CLAIM_COLUMNS = {"efx": "efx", "ef1": "ef1", "mnw_bound": "mnw"}


def _sweep_row(instance: Instance, alpha: Fraction, algorithm: str, cap: int, optimum) -> dict:
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row["bound_ratio"] = format_ratio((1 / (alpha + 1)) ** instance.n)
    name = algorithm.removesuffix("-complete")
    try:
        result = completion.run(name, instance, alpha, name != algorithm, cap, optimum)
        verdicts = {column: result.report(claim).verdict
                    for column, claim in CLAIM_COLUMNS.items() if claim in result.claims}
    except (ValueError, MalformedInstanceError, CapacityError, IterationBoundError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    row.update(verdicts)
    optimum_product = result.mnw.product
    if optimum_product > 0:
        ratio = nash_product(instance, result.allocation) / optimum_product
        row["achieved_ratio"] = format_ratio(ratio)
        row["achieved_ratio_float"] = repr(float(ratio))
    return row


def _cmd_sweep(args) -> int:
    cap = _effective_cap(args)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec_data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedInstanceError(f"sweep spec is not valid JSON: {exc}") from exc
    if not isinstance(spec_data, dict):
        raise MalformedInstanceError("sweep spec must be a JSON object")
    loaded = _sweep_instances(spec_data)
    alphas = spec_data.get("alphas", ["1/2"])
    if not isinstance(alphas, list) or not alphas:
        raise MalformedInstanceError('"alphas" must be a non-empty list')
    parsed_alphas = [parse_ratio(a) for a in alphas]
    algorithms = spec_data.get("algorithms")
    if algorithms is not None:
        if not isinstance(algorithms, list) or not all(
            a in ALGORITHMS for a in algorithms
        ):
            raise MalformedInstanceError(
                f'"algorithms" must be a list drawn from {ALGORITHMS}'
            )

    tasks = []
    for instance_id, family, instance in loaded:
        algs = algorithms if algorithms is not None else _default_algorithms(instance)
        # solved at most once per instance, inside the first row that needs it
        optimum = functools.cache(functools.partial(oracle.exact_mnw, instance, cap))
        for alpha in parsed_alphas:
            for algorithm in algs:
                tasks.append((instance_id, family, instance, alpha, algorithm, optimum))
    tasks.sort(key=lambda t: (t[0], t[3], t[4]))

    columns = list(SWEEP_COLUMNS)
    if args.timing:
        columns.append("wall_ms")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for instance_id, family, instance, alpha, algorithm, optimum in tasks:
            started = time.perf_counter()
            row = _sweep_row(instance, alpha, algorithm, cap, optimum)
            elapsed_ms = int((time.perf_counter() - started) * 1000)
            row.update(
                {
                    "instance_id": instance_id,
                    "family": family,
                    "n": instance.n,
                    "m": instance.m,
                    "alpha": format_ratio(alpha),
                    "algorithm": algorithm,
                }
            )
            if args.timing:
                row["wall_ms"] = elapsed_ms
            writer.writerow(row)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify-impossibility

def _cmd_certify(args) -> int:
    cap = _effective_cap(args)
    if args.family == "theorem4":
        if args.alpha is None or args.eps is None or args.n is None:
            raise MalformedInstanceError("theorem4 needs --alpha, --eps, and --n")
        spec = _spec_from_flags(args, ("alpha", "eps", "n"))
    else:
        if args.big_n is None:
            raise MalformedInstanceError("theorem5 needs --N")
        spec = _spec_from_flags(args, ("N",))
    certificate = oracle.certify_impossibility(spec, cap)
    _emit(certificate.to_json_dict(), args.out)
    return EXIT_OK if certificate.verified else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fairdiv",
        description=(
            "Allocate indivisible items with exact fairness and efficiency "
            "guarantees, and verify or refute those guarantees."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                       help="enumeration cap on the states of an exhaustive search "
                            "(default %(default)s)")

    def add_common(p):
        add_cap(p)
        p.add_argument("--out", default=None,
                       help="write the result to this file instead of stdout")

    p = sub.add_parser("gen", help="generate an instance as JSON")
    p.add_argument("--family", required=True, choices=instances.FAMILIES)
    p.add_argument("--n", type=int, default=None, help="number of agents")
    p.add_argument("--m", type=int, default=None, help="number of items")
    p.add_argument("--alpha", default=None, help="ratio, e.g. 1/2")
    p.add_argument("--eps", default=None, help="ratio, e.g. 1/100")
    p.add_argument("--N", dest="big_n", type=int, default=None,
                   help="perfect square size parameter")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-value", type=int, default=None)
    p.add_argument("--clauses", type=int, default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="value cap for the budget_additive family")
    p.add_argument("--out", default=None,
                   help="write the instance to this file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check-instance", help="validate a declared valuation class")
    p.add_argument("instance")
    add_common(p)
    p.set_defaults(func=_cmd_check_instance)

    p = sub.add_parser("mnw", help="exact max-product allocation by enumeration")
    p.add_argument("instance")
    add_common(p)
    p.set_defaults(func=_cmd_mnw)

    p = sub.add_parser("solve", help="run an allocation algorithm")
    p.add_argument("instance")
    p.add_argument("--alg", required=True, choices=SOLVE_ALGS)
    p.add_argument("--alpha", required=True, help="EFX strength, a ratio in [0, 1]")
    p.add_argument("--complete", action="store_true",
                   help="extend the partial result to a complete allocation")
    p.add_argument("--x0", default=None,
                   help="starting allocation JSON (additive-poly only)")
    p.add_argument("--beta", default=None,
                   help="claimed welfare ratio of --x0 (additive-poly only)")
    p.add_argument("--trace", default=None, help="write the iteration trace here")
    p.add_argument("--verify-all", action="store_true",
                   help="verify every guarantee the run claims; exit 4 on failure")
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check guarantees of a given allocation")
    p.add_argument("instance")
    p.add_argument("--allocation", required=True, help="allocation JSON file")
    p.add_argument("--checks", default="efx,ef1",
                   help=f"comma list from {{{','.join(verify.CHECK_NAMES)}}}")
    p.add_argument("--alpha", default="1", help="level for efx/mms/pmms/gmms")
    p.add_argument("--beta", default=None, help="level for the mnw check")
    p.add_argument("--reference-product", default=None,
                   help="reference product for the mnw check (default: exact optimum)")
    p.add_argument("--gamma", default=None, help="level for the separated check")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run an algorithm/alpha grid, write CSV")
    p.add_argument("--spec", required=True, help="sweep description JSON")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--timing", action="store_true",
                   help="add a wall_ms column (non-deterministic)")
    add_cap(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("certify-impossibility",
                       help="verify a trade-off gap on a hard instance family")
    p.add_argument("--family", required=True, choices=("theorem4", "theorem5"))
    p.add_argument("--alpha", default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", dest="big_n", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except IterationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (MalformedInstanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    raise SystemExit(main())
