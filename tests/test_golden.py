"""Byte-for-byte replay of captured CLI outputs.

tests/golden/solve.json maps each case of `solve_cases()` to what
`fairdiv solve ... --verify-all --trace FILE` produced: the result JSON, the
trace JSON (null when none was written), the exit code and the stderr text.
The same runs without --verify-all check no claim and must print the same,
minus the result's "reports" and "ok".
tests/golden/sweep_*.csv hold the CSVs of the sweeps in `SWEEPS`. Each sweep
names its instances by generator entry, so `instance_id` does not depend on
file paths. tests/golden/check_instance.json maps each case of
`CHECK_CASES` to what `fairdiv check-instance` printed: the report JSON (null
when none was printed), the exit code and the stderr text.
tests/golden/certify.json does the same for `fairdiv certify-impossibility`
over `CERTIFY_CASES`. tests/golden/restart.json maps each seed of
`RESTART_SEEDS` to the library's additive matchings on `restart_case(seed)`:
the allocation masks, outcome kind, rounds and branches, and each trace as
`solve --trace` writes it.

The files pin the CLI output, error rows and error order included. Refresh
them only for an intended change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from fairdiv import (
    AdditiveValuation,
    Allocation,
    ExplicitValuation,
    Instance,
    additive_efx_matching,
    budget_additive,
    cli,
    example1,
    format_ratio,
    instance_to_dict,
    match_or_improve,
    matching_with_restarts,
    random_additive,
    save_instance,
    xos,
)

GOLDEN = Path(__file__).parent / "golden"

INSTANCES = {
    "example1": ({"family": "example1"}, example1),
    "random_additive_3x6": (
        {"family": "random_additive", "n": 3, "m": 6, "max_value": 10, "seed": 5},
        lambda: random_additive(3, 6, 10, seed=5),
    ),
    "xos_2x5": (
        {"family": "xos", "n": 2, "m": 5, "clauses": 3, "seed": 9},
        lambda: xos(2, 5, clauses=3, seed=9),
    ),
    "budget_additive_3x5": (
        {"family": "budget_additive", "n": 3, "m": 5, "cap": 20, "seed": 4},
        lambda: budget_additive(3, 5, cap=20, seed=4),
    ),
}
SOLVE_ALPHAS = ("0", "1/4", "1/2", "3/5", "1")
SWEEP_ALPHAS = ("0", "1/4", "1/2", "3/5", "1", "7/8", "3/2")
ALL_ALGORITHMS = list(cli.ALGORITHMS)
# name -> (spec "algorithms" entry or None for the per-class default, extra argv)
SWEEPS = {
    "all": (ALL_ALGORITHMS, []),
    "default": (None, []),
    "cap500": (ALL_ALGORITHMS, ["--cap", "500"]),
}
START = [[0], [1, 2]]  # a complete start for example1, with product 3


def with_tables(instance: Instance, edit, declared_class: str | None = None) -> Instance:
    """`instance` with edit(agent, table) applied to a copy of each table."""
    valuations = []
    for agent, val in enumerate(instance.valuations):
        table = dict(val.table)
        edit(agent, table)
        valuations.append(ExplicitValuation(instance.m, table))
    return Instance(instance.n, instance.m, tuple(valuations),
                    declared_class or instance.declared_class)


def bumped(instance: Instance, agent: int, items, bump, declared_class: str | None = None):
    """Add `bump` to agent's value of every superset of `items`. The table
    stays monotone; once `items` has two or more items and the bump is large
    enough, splitting `items` breaks subadditivity."""
    core = sum(1 << g for g in items)

    def edit(i, table):
        if i == agent:
            for mask in table:
                if mask & core == core:
                    table[mask] += bump

    return with_tables(instance, edit, declared_class)


def set_entry(instance: Instance, agent: int, mask: int, value, declared_class=None):
    """Overwrite one table entry of one agent."""

    def edit(i, table):
        if i == agent:
            table[mask] = Fraction(value)

    return with_tables(instance, edit, declared_class)


def without_entry(instance: Instance, agent: int, mask: int) -> dict:
    """The JSON document of `instance` with one table entry of one agent left
    out. No ExplicitValuation holds such a table, so only the loader sees it."""
    doc = instance_to_dict(instance)
    del doc["valuations"][agent]["table"][str(mask)]
    return doc


def rescaled(instance: Instance, factors) -> Instance:
    """Each agent's table times its own factor: mixed denominators."""

    def edit(i, table):
        for mask in table:
            table[mask] *= factors[i]

    return with_tables(instance, edit)


def squares(m: int) -> Instance:
    """v(S) = |S|^2: monotone, and every pair of nonempty disjoint sets breaks
    subadditivity, so only the walk order decides the witness."""
    table = {mask: mask.bit_count() ** 2 for mask in range(1 << m)}
    return Instance(1, m, (ExplicitValuation(m, table),), "subadditive")


# case -> (instance factory, extra argv)
CHECK_CASES = {
    "example1": (example1, []),
    "random_additive_3x6": (INSTANCES["random_additive_3x6"][1], []),
    "xos_2x5": (INSTANCES["xos_2x5"][1], []),
    "xos_3x6": (lambda: xos(3, 6, clauses=4, seed=2), []),
    "budget_additive_3x5": (INSTANCES["budget_additive_3x5"][1], []),
    "budget_additive_2x7": (lambda: budget_additive(2, 7, cap=25, seed=1), []),
    "xos_3x6 mixed denominators": (
        lambda: rescaled(xos(3, 6, clauses=4, seed=2), (Fraction(5, 7), Fraction(1, 3), 1)), []),
    "xos_2x5 bump {0,2} agent 0": (lambda: bumped(xos(2, 5, clauses=3, seed=9), 0, (0, 2), 5), []),
    "xos_3x6 bump {1,4} agent 1": (
        lambda: bumped(xos(3, 6, clauses=4, seed=2), 1, (1, 4), Fraction(7, 2)), []),
    "xos_3x6 bump {2,3,5} agent 2": (
        lambda: bumped(xos(3, 6, clauses=4, seed=2), 2, (2, 3, 5), Fraction(1, 7)), []),
    "budget_additive_3x5 bump {0,4} agent 2": (
        lambda: bumped(budget_additive(3, 5, cap=20, seed=4), 2, (0, 4), 10), []),
    "budget_additive_2x7 bump {3,6} agent 1": (
        lambda: bumped(budget_additive(2, 7, cap=25, seed=1), 1, (3, 6), Fraction(9, 4)), []),
    "xos_2x5 bump {0,2} declared monotone": (
        lambda: bumped(xos(2, 5, clauses=3, seed=9), 0, (0, 2), 5, "monotone"), []),
    "squares_4": (lambda: squares(4), []),
    "xos_2x5 non-monotone agent 1": (
        lambda: set_entry(xos(2, 5, clauses=3, seed=9), 1, 0b10110, 0), []),
    "xos_2x5 non-monotone declared monotone": (
        lambda: set_entry(xos(2, 5, clauses=3, seed=9), 0, 0b01101, Fraction(1, 2), "monotone"),
        []),
    "xos_2x5 bump agent 0, non-monotone agent 1": (
        lambda: set_entry(bumped(xos(2, 5, clauses=3, seed=9), 0, (1, 3), 20), 1, 0b11, 0), []),
    "xos_2x5 missing entry": (lambda: without_entry(xos(2, 5, clauses=3, seed=9), 1, 9), []),
    "xos_2x5 nonzero empty set": (lambda: set_entry(xos(2, 5, clauses=3, seed=9), 1, 0, 1), []),
    "xos_2x5 --cap 243": (INSTANCES["xos_2x5"][1], ["--cap", "243"]),
    "xos_2x5 --cap 242": (INSTANCES["xos_2x5"][1], ["--cap", "242"]),
    # every table's monotonicity sweep runs, uncapped, before the capped walks
    "xos_2x5 non-monotone agent 1 --cap 1": (
        lambda: set_entry(xos(2, 5, clauses=3, seed=9), 1, 0b10110, 0), ["--cap", "1"]),
    "xos_2x5 non-monotone agent 0 --cap 1": (
        lambda: set_entry(xos(2, 5, clauses=3, seed=9), 0, 0b10110, 0), ["--cap", "1"]),
}


CERTIFY_CASES = tuple(
    argv.split()
    for argv in (
        "--family theorem4 --alpha 1/2 --eps 1/10 --n 2",
        "--family theorem4 --alpha 1 --eps 1/100 --n 2",
        "--family theorem4 --alpha 1/3 --eps 1/2 --n 2",
        "--family theorem4 --alpha 1/2 --eps 1/10 --n 3",
        "--family theorem4 --alpha 2/3 --eps 1/7 --n 3",
        "--family theorem5 --N 4",
        "--family theorem5 --N 9",
        "--family theorem5 --N 16",
        "--family theorem4 --alpha 1/2 --eps 1/10",
        "--family theorem4 --eps 1/10 --n 2",
        "--family theorem4 --alpha 1/2 --n 2",
        "--family theorem5",
        "--family theorem5 --N 8",
        "--family theorem4 --alpha 0 --eps 1/10 --n 2",
        "--family theorem4 --alpha 1/2 --eps 1/10 --n 1",
        "--family theorem4 --alpha 1/2 --eps 1/10 --n 3 --cap 100",
        "--family theorem4 --alpha 1/2 --eps 1/10 --n 3 --cap 500",
    )
)
RESTART_SEEDS = range(40)
RESTART_ALPHAS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1))
RESTART_BETA_DENOMINATOR = 1000


def restart_case(seed: int) -> tuple[Instance, Allocation, Fraction, Fraction]:
    """(instance, start, alpha, beta) for one seed of the restart golden.

    n runs 2..5 and m n..12. Each agent draws item values 0..6 over a
    denominator of its own, so zeros, ties and mixed denominators are common.
    The start is a random complete allocation with a positive product, and
    beta is the largest p/1000 with (p/1000)^n * prod_i v_i(M) <= that
    product: a true lower bound on the start's welfare ratio.
    """
    rng = random.Random(seed)
    n = 2 + seed % 4
    m = rng.randint(n, 12)
    valuations = tuple(
        AdditiveValuation(tuple(Fraction(rng.randint(0, 6), den) for _ in range(m)))
        for den in (rng.choice((1, 2, 3, 5, 7)) for _ in range(n))
    )
    instance = Instance(n, m, valuations, "additive")
    ceiling = Fraction(1)
    for val in valuations:
        ceiling *= val.value_mask((1 << m) - 1)
    for _ in range(1000):
        masks = [0] * n
        for g in range(m):
            masks[rng.randrange(n)] |= 1 << g
        product = Fraction(1)
        for val, mask in zip(valuations, masks):
            product *= val.value_mask(mask)
        p = RESTART_BETA_DENOMINATOR
        while p and Fraction(p, RESTART_BETA_DENOMINATOR) ** n * ceiling > product:
            p -= 1
        if p:
            alpha = RESTART_ALPHAS[seed % len(RESTART_ALPHAS)]
            return (instance, Allocation.from_masks(masks, m), alpha,
                    Fraction(p, RESTART_BETA_DENOMINATOR))
    raise AssertionError(f"seed {seed}: no start with a positive product")


def run_restart(seed: int) -> dict:
    """The three additive matchings on restart_case(seed), as JSON data."""
    instance, start, alpha, beta = restart_case(seed)
    partial, state = additive_efx_matching(instance, start, alpha)
    outcome = match_or_improve(instance, start, alpha)
    restart = matching_with_restarts(instance, start, alpha, beta)
    return {
        "n": instance.n,
        "m": instance.m,
        "alpha": format_ratio(alpha),
        "beta": format_ratio(beta),
        "start": list(start.masks()),
        "efx_matching": {
            "allocation": list(partial.masks()),
            "trace": cli._solve_trace_json(state),
        },
        "match_or_improve": {
            "kind": outcome.kind,
            "allocation": list(outcome.allocation.masks()),
            "trace": cli._solve_trace_json(outcome.state),
        },
        "matching_with_restarts": {
            "allocation": list(restart.allocation.masks()),
            "rounds": restart.rounds,
            "branches": list(restart.branches),
            "trace": None if restart.state is None else cli._solve_trace_json(restart.state),
        },
    }


def solve_cases() -> dict[str, tuple[str, list[str]]]:
    """case key -> (instance name, solve argv after the instance path)."""
    cases = {}
    for name in INSTANCES:
        for alg in cli.SOLVE_ALGS:
            for complete in (False, True):
                for alpha in SOLVE_ALPHAS:
                    argv = ["--alg", alg, "--alpha", alpha]
                    if complete:
                        argv.append("--complete")
                    cases[f"{name} {' '.join(argv)}"] = (name, argv)
    argv = ["--alg", "additive-poly", "--alpha", "1/2", "--x0", "START",
            "--beta", "3/4", "--complete"]
    cases[f"example1 {' '.join(argv)}"] = ("example1", argv)
    return cases


def _dump(data) -> str:
    return "" if data is None else json.dumps(data, indent=2, sort_keys=True) + "\n"


def run_solve(work: Path, name: str, argv: list[str], verify_all: bool = True) -> dict:
    """One solve run, as {"code", "result", "trace", "stderr"} with the raw
    result and trace text."""
    instance_path = work / f"{name}.json"
    if not instance_path.exists():
        save_instance(INSTANCES[name][1](), instance_path)
    start_path = work / "start.json"
    start_path.write_text(json.dumps({"bundles": START}))
    trace_path = work / "trace.json"
    if trace_path.exists():
        trace_path.unlink()
    argv = [str(start_path) if arg == "START" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["solve", str(instance_path), *argv, *["--verify-all"] * verify_all,
                         "--trace", str(trace_path)])
    return {
        "code": code,
        "result": out.getvalue(),
        "trace": trace_path.read_text() if trace_path.exists() else "",
        "stderr": err.getvalue(),
    }


def run_sweep(work: Path, name: str) -> bytes:
    algorithms, extra = SWEEPS[name]
    spec = {"instances": [entry for entry, _ in INSTANCES.values()], "alphas": list(SWEEP_ALPHAS)}
    if algorithms is not None:
        spec["algorithms"] = algorithms
    spec_path = work / f"sweep_{name}.json"
    spec_path.write_text(json.dumps(spec))
    out_path = work / f"sweep_{name}.csv"
    assert cli.main(["sweep", "--spec", str(spec_path), "--out", str(out_path), *extra]) == 0
    return out_path.read_bytes()


def run_check_instance(work: Path, case: str) -> dict:
    """One check-instance run, as {"code", "stdout", "stderr"} texts."""
    factory, extra = CHECK_CASES[case]
    instance_path = work / "check.json"
    made = factory()
    if isinstance(made, Instance):
        save_instance(made, instance_path)
    else:  # a JSON document that no Instance can hold
        instance_path.write_text(json.dumps(made))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["check-instance", str(instance_path), *extra])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_certify(argv: list[str]) -> dict:
    """One certify-impossibility run, as {"code", "stdout", "stderr"} texts."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["certify-impossibility", *argv])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden_solve() -> dict:
    return json.loads((GOLDEN / "solve.json").read_text())


def test_golden_covers_every_case(golden_solve):
    assert sorted(golden_solve) == sorted(solve_cases())


@pytest.mark.parametrize("key", sorted(solve_cases()))
def test_solve_matches_golden(key, golden_solve, tmp_path):
    expected = golden_solve[key]
    got = run_solve(tmp_path, *solve_cases()[key])
    assert got["code"] == expected["code"]
    assert got["stderr"] == expected["stderr"]
    assert got["result"] == _dump(expected["result"])
    assert got["trace"] == _dump(expected["trace"])


def unverified(result: dict | None) -> dict | None:
    """A golden solve result as printed without --verify-all."""
    if result is None:
        return None
    return {key: value for key, value in result.items() if key not in ("reports", "ok")}


@pytest.mark.parametrize("key", sorted(solve_cases()))
def test_solve_without_verify_all_matches_golden(key, golden_solve, tmp_path):
    expected = golden_solve[key]
    got = run_solve(tmp_path, *solve_cases()[key], verify_all=False)
    assert got["code"] == expected["code"]
    assert got["stderr"] == expected["stderr"]
    assert got["result"] == _dump(unverified(expected["result"]))
    assert got["trace"] == _dump(expected["trace"])


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name, tmp_path):
    assert run_sweep(tmp_path, name) == (GOLDEN / f"sweep_{name}.csv").read_bytes()


@pytest.fixture(scope="module")
def golden_check() -> dict:
    return json.loads((GOLDEN / "check_instance.json").read_text())


def test_golden_covers_every_check_case(golden_check):
    assert sorted(golden_check) == sorted(CHECK_CASES)


@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_check_instance_matches_golden(case, golden_check, tmp_path):
    expected = golden_check[case]
    got = run_check_instance(tmp_path, case)
    assert got["code"] == expected["code"]
    assert got["stderr"] == expected["stderr"]
    assert got["stdout"] == _dump(expected["stdout"])


@pytest.fixture(scope="module")
def golden_certify() -> dict:
    return json.loads((GOLDEN / "certify.json").read_text())


def test_golden_covers_every_certify_case(golden_certify):
    assert sorted(golden_certify) == sorted(" ".join(argv) for argv in CERTIFY_CASES)


@pytest.mark.parametrize("argv", CERTIFY_CASES, ids=" ".join)
def test_certify_matches_golden(argv, golden_certify):
    expected = golden_certify[" ".join(argv)]
    got = run_certify(argv)
    assert got["code"] == expected["code"]
    assert got["stderr"] == expected["stderr"]
    assert got["stdout"] == _dump(expected["stdout"])


@pytest.fixture(scope="module")
def golden_restart() -> dict:
    return json.loads((GOLDEN / "restart.json").read_text())


def test_golden_restart_covers_every_seed_and_branch(golden_restart):
    assert sorted(golden_restart) == sorted(f"seed {seed}" for seed in RESTART_SEEDS)
    branches = set()
    for case in golden_restart.values():
        branches.update(case["matching_with_restarts"]["branches"])
        for run in ("efx_matching", "match_or_improve", "matching_with_restarts"):
            branches.update(step["branch"] for step in case[run]["trace"] or ())
    assert {"self", "steal", "take", "matched", "improved"} <= branches


@pytest.mark.parametrize("seed", RESTART_SEEDS)
def test_restart_matches_golden(seed, golden_restart):
    assert run_restart(seed) == golden_restart[f"seed {seed}"]


def _parsed(got: dict, key: str, where: str) -> dict:
    """got with got[key] parsed from JSON text (None when empty)."""
    raw = got[key]
    got[key] = json.loads(raw) if raw else None
    assert _dump(got[key]) == raw, f"{where}: {key} does not round-trip"
    return got


def capture() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        solve = {}
        for key, (name, argv) in sorted(solve_cases().items()):
            got = run_solve(work, name, argv)
            solve[key] = _parsed(_parsed(got, "result", key), "trace", key)
        (GOLDEN / "solve.json").write_text(_dump(solve))
        for name in SWEEPS:
            (GOLDEN / f"sweep_{name}.csv").write_bytes(run_sweep(work, name))
        check = {}
        for case in sorted(CHECK_CASES):
            check[case] = _parsed(run_check_instance(work, case), "stdout", case)
        (GOLDEN / "check_instance.json").write_text(_dump(check))
    certify = {}
    for argv in CERTIFY_CASES:
        key = " ".join(argv)
        certify[key] = _parsed(run_certify(argv), "stdout", key)
    (GOLDEN / "certify.json").write_text(_dump(certify))
    restart = {f"seed {seed}": run_restart(seed) for seed in RESTART_SEEDS}
    (GOLDEN / "restart.json").write_text(_dump(restart))


if __name__ == "__main__":
    capture()
