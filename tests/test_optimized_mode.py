"""The CLI under `python -O`, where every `assert` is stripped.

Proof obligations must not live in asserts, so a run with asserts removed
has to print exactly what the golden files pinned: each case runs
`python -O -m fairdiv.cli` in a subprocess and compares its output byte for
byte with tests/golden/solve.json or tests/golden/check_instance.json (a
solve without --verify-all prints the golden result minus its reports). The
additive matchings replay a few seeds of tests/golden/restart.json the same
way, with the steal, take and improved steps among them.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import fairdiv
from fairdiv import cli, save_instance
from test_golden import CHECK_CASES, GOLDEN, INSTANCES, _dump, solve_cases, unverified

SRC = Path(fairdiv.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
CASES = (
    "example1 --alg additive --alpha 1/2 --complete",
    "random_additive_3x6 --alg additive --alpha 3/5 --complete",
    "xos_2x5 --alg subadditive --alpha 1/2 --complete",
    "budget_additive_3x5 --alg subadditive --alpha 1/4 --complete",
)


# seeds whose traces hold steals that remove, steals that close a cycle,
# takes, and improved rounds
RESTART_SEEDS = (9, 18, 34)


def run_optimized(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), str(TESTS), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-O", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.fixture(scope="module")
def golden_solve() -> dict:
    return json.loads((GOLDEN / "solve.json").read_text())


def instance_file(tmp_path: Path, name: str) -> Path:
    path = tmp_path / f"{name}.json"
    save_instance(INSTANCES[name][1](), path)
    return path


@pytest.mark.parametrize("key", CASES)
def test_solve_under_optimize_matches_golden(key, golden_solve, tmp_path):
    name, argv = solve_cases()[key]
    trace = tmp_path / "trace.json"
    got = run_optimized(
        ["-m", "fairdiv.cli", "solve", str(instance_file(tmp_path, name)), *argv,
         "--verify-all", "--trace", str(trace)]
    )
    expected = golden_solve[key]
    assert got.returncode == expected["code"]
    assert got.stderr == expected["stderr"]
    assert got.stdout == _dump(expected["result"])
    assert (trace.read_text() if trace.exists() else "") == _dump(expected["trace"])


def test_solve_without_verify_all_under_optimize_matches_golden(golden_solve, tmp_path):
    key = CASES[1]
    name, argv = solve_cases()[key]
    got = run_optimized(["-m", "fairdiv.cli", "solve", str(instance_file(tmp_path, name)), *argv])
    assert got.returncode == 0 and got.stderr == ""
    assert got.stdout == _dump(unverified(golden_solve[key]["result"]))


@pytest.mark.parametrize("key", CASES[1:3])
def test_mnw_under_optimize_matches_normal_mode(key, golden_solve, tmp_path):
    name, _ = solve_cases()[key]
    argv = ["mnw", str(instance_file(tmp_path, name))]
    got = run_optimized(["-m", "fairdiv.cli", *argv])
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    assert got.returncode == 0 and got.stderr == ""
    assert got.stdout == out.getvalue()
    assert json.loads(got.stdout)["product"] == golden_solve[key]["result"]["optimal_product"]


@pytest.mark.parametrize("case", ["xos_3x6", "xos_3x6 bump {2,3,5} agent 2"])
def test_check_instance_under_optimize_matches_golden(case, tmp_path):
    expected = json.loads((GOLDEN / "check_instance.json").read_text())[case]
    factory, extra = CHECK_CASES[case]
    path = tmp_path / "check.json"
    save_instance(factory(), path)
    got = run_optimized(["-m", "fairdiv.cli", "check-instance", str(path), *extra])
    assert got.returncode == expected["code"]
    assert got.stderr == expected["stderr"]
    assert got.stdout == _dump(expected["stdout"])


def test_restart_under_optimize_matches_golden():
    script = (
        "import json, test_golden; "
        f"print(json.dumps([test_golden.run_restart(seed) for seed in {RESTART_SEEDS!r}]))"
    )
    got = run_optimized(["-c", script])
    assert got.returncode == 0 and got.stderr == ""
    golden = json.loads((GOLDEN / "restart.json").read_text())
    assert json.loads(got.stdout) == [golden[f"seed {seed}"] for seed in RESTART_SEEDS]
