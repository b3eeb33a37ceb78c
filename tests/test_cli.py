"""End-to-end tests of the command line interface.

Every test drives cli.main with an argv list and inspects the JSON/CSV it
writes plus the exit code contract: 0 ok, 2 malformed input, 3 capacity
exceeded, 4 guarantee violated.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fairdiv
from fairdiv import cli, example1, oracle, random_additive, save_instance, verify, xos

CHECKERS = ("is_alpha_efx", "is_ef1", "is_beta_mnw", "is_gamma_separated",
            "is_alpha_mms", "is_alpha_pmms", "is_alpha_gmms")


@pytest.fixture()
def example_path(tmp_path):
    path = tmp_path / "example.json"
    save_instance(example1(), path)
    return str(path)


@pytest.fixture()
def xos_path(tmp_path):
    path = tmp_path / "xos.json"
    save_instance(xos(2, 5, clauses=3, seed=9), path)
    return str(path)


@pytest.fixture()
def seven_agents_path(tmp_path):
    # n = 7 is over the group-share agent cap 6
    path = tmp_path / "seven.json"
    save_instance(random_additive(7, 7, 10, seed=1), path)
    return str(path)


def refuse_checkers(monkeypatch, names=CHECKERS):
    """Make each named checker raise where verify.check looks it up."""
    def refuse(*args, **kwargs):
        raise AssertionError("a checker ran")

    for name in names:
        monkeypatch.setattr(verify, name, refuse)


def write_allocation(tmp_path, bundles, name="alloc.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"bundles": bundles}))
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_instance_with_generator_stamp(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = cli.main([
        "gen", "--family", "random_additive", "--n", "2", "--m", "4",
        "--max-value", "10", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 2 and data["m"] == 4
    assert data["generator"]["family"] == "random_additive"
    # the generated file loads back through the normal loader
    code, doc = run_json(capsys, ["check-instance", str(out)])
    assert code == 0 and doc["verdict"] == "pass"


def test_gen_is_deterministic(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        cli.main([
            "gen", "--family", "xos", "--n", "2", "--m", "5",
            "--clauses", "3", "--seed", "7", "--out", str(out),
        ])
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_gen_hard_instance_families(tmp_path):
    out = tmp_path / "hard.json"
    assert cli.main([
        "gen", "--family", "theorem4", "--alpha", "1/2", "--eps", "1/100",
        "--n", "2", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["n"] == 2
    assert cli.main([
        "gen", "--family", "theorem5", "--N", "9", "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    assert (data["n"], data["m"], data["class"]) == (2, 5, "monotone")


def test_gen_rejects_bad_parameters(capsys):
    assert cli.main(["gen", "--family", "random_additive", "--n", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_takes_no_cap(capsys):
    # gen runs no search, so --cap would be an option that does nothing
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["gen", "--family", "example1", "--cap", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-instance

def test_check_instance_flags_wrong_declaration(tmp_path, capsys):
    # a valuation table with v(union) above the sum of parts is not
    # subadditive, so checking its declared class must fail
    table = {"0": 0, "1": 1, "2": 1, "3": 5}
    doc = {
        "n": 2,
        "m": 2,
        "class": "subadditive",
        "valuations": [
            {"kind": "explicit", "table": table},
            {"kind": "explicit", "table": table},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check-instance", str(path)])
    assert code == 2
    assert report["verdict"] == "subadditivity"
    assert report["agent"] == 0
    assert report["s"] == [0] and report["t"] == [1]


def test_check_instance_caps_the_subadditivity_walk(xos_path, capsys):
    # xos tables are declared subadditive; their pair walk has 3^5 = 243 states
    code, report = run_json(capsys, ["check-instance", xos_path, "--cap", "243"])
    assert code == 0 and report["verdict"] == "pass"
    assert cli.main(["check-instance", xos_path, "--cap", "242"]) == 3
    assert "3^5" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["table", "additive"])
def test_check_instance_rejects_a_negative_item_count(tmp_path, capsys, kind):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(
        {"n": 1, "m": -1, "class": "subadditive", "valuations": [{kind: {} if kind == "table" else []}]}
    ))
    assert cli.main(["check-instance", str(path)]) == 2
    assert capsys.readouterr().err == "error: negative item count m=-1\n"


@pytest.mark.parametrize("m", [17, 10**20])
def test_check_instance_refuses_a_table_over_the_item_cap(tmp_path, capsys, m):
    # the cap is checked before the 2^m entry count is computed, so even an
    # m far too large for 1 << m exits 3 instead of raising OverflowError
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"n": 1, "m": m, "class": "subadditive", "valuations": [{"table": {}}]}
    ))
    assert cli.main(["check-instance", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"error: explicit valuation with m={m} exceeds the table cap 16 (2^m entries required)\n"
    )


def test_check_instance_rejects_missing_file(capsys):
    assert cli.main(["check-instance", "/nonexistent/inst.json"]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mnw

def test_mnw_rejects_a_missing_table_entry(tmp_path, capsys):
    table = {"0": 0, "1": 1, "3": 2}
    doc = {
        "n": 2,
        "m": 2,
        "class": "monotone",
        "valuations": [{"table": table}, {"table": table}],
    }
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["mnw", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_mnw_capacity_exit_code(example_path, capsys):
    assert cli.main(["mnw", example_path, "--cap", "5"]) == 3
    assert "error" in capsys.readouterr().err


def test_one_agent_with_many_items_is_solved_without_a_walk(tmp_path, capsys):
    path = tmp_path / "one.json"
    save_instance(random_additive(1, 3000, 10, seed=1), path)
    code, doc = run_json(capsys, ["mnw", str(path)])
    assert code == 0
    assert doc["allocation"] == [list(range(3000))] and doc["ties"] == 1
    code, doc = run_json(capsys, ["solve", str(path), "--alg", "additive", "--alpha", "1/2"])
    assert code == 0
    assert doc["allocation"] == [list(range(3000))]


def test_nonpositive_cap_is_malformed(example_path):
    assert cli.main(["mnw", example_path, "--cap", "0"]) == 2


# ---------------------------------------------------------------------------
# solve

def test_solve_additive_partial(example_path, capsys):
    code, data = run_json(capsys, [
        "solve", example_path, "--alg", "additive", "--alpha", "1/2",
        "--verify-all",
    ])
    assert code == 0
    assert data["ok"] is True
    assert data["algorithm"] == "additive"
    assert data["complete"] is False
    assert data["optimal_product"] == "4"
    assert [r["property"] for r in data["reports"]] == [
        "alpha_efx", "beta_mnw", "gamma_separated",
    ]


def test_solve_additive_complete(example_path, capsys):
    code, data = run_json(capsys, [
        "solve", example_path, "--alg", "additive", "--alpha", "1/2",
        "--complete", "--verify-all",
    ])
    assert code == 0
    assert data["ok"] is True
    assert data["unallocated"] == []
    assert sorted(g for b in data["allocation"] for g in b) == [0, 1, 2]
    assert [r["property"] for r in data["reports"]] == [
        "alpha_efx", "ef1", "beta_mnw", "alpha_gmms", "alpha_pmms",
    ]


def test_solve_subadditive_complete(xos_path, capsys):
    code, data = run_json(capsys, [
        "solve", xos_path, "--alg", "subadditive", "--alpha", "1/2",
        "--complete", "--verify-all",
    ])
    assert code == 0
    assert data["ok"] is True
    assert data["unallocated"] == []
    assert [r["property"] for r in data["reports"]] == ["alpha_efx", "beta_mnw"]
    assert "swaps" in data and "partial" in data


def test_solve_polynomial_restarts_with_start_file(example_path, tmp_path, capsys):
    x0 = write_allocation(tmp_path, [[0], [1, 2]])
    code, data = run_json(capsys, [
        "solve", example_path, "--alg", "additive-poly", "--alpha", "1/2",
        "--x0", x0, "--beta", "3/4", "--verify-all",
    ])
    assert code == 0
    assert data["ok"] is True
    assert data["rounds"] >= 0
    assert isinstance(data["branches"], list)
    assert data["start_product"] == "3"


def test_solve_polynomial_complete_lowers_efx_level(example_path, tmp_path, capsys):
    code, data = run_json(capsys, [
        "solve", example_path, "--alg", "additive-poly", "--alpha", "1",
        "--complete", "--verify-all",
    ])
    assert code == 0
    assert data["ok"] is True
    assert data["efx_level"] == "1/2"
    assert data["unallocated"] == []


def test_solve_trace_output(example_path, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code = cli.main([
        "solve", example_path, "--alg", "subadditive", "--alpha", "1/2",
        "--trace", str(trace), "--out", str(tmp_path / "result.json"),
    ])
    assert code == 0
    doc = json.loads(trace.read_text())
    assert set(doc) == {"steps", "events"}
    assert doc["steps"], "the matching trace must record its iterations"
    first = doc["steps"][0]
    assert first["case"] == "1"
    assert first["potential"] == [0, 0, 0]


def test_solve_rejects_incomplete_start(example_path, tmp_path):
    x0 = write_allocation(tmp_path, [[0], [1]])
    assert cli.main([
        "solve", example_path, "--alg", "additive-poly", "--alpha", "1/2",
        "--x0", x0,
    ]) == 2


def test_solve_rejects_alpha_past_pipeline_threshold(example_path):
    assert cli.main([
        "solve", example_path, "--alg", "additive", "--alpha", "7/8",
        "--complete",
    ]) == 2


@pytest.mark.parametrize("alg", ["additive", "subadditive"])
@pytest.mark.parametrize("flag", ["--x0", "--beta"])
def test_solve_rejects_start_flags_outside_polynomial(
    alg, flag, example_path, tmp_path, capsys
):
    value = write_allocation(tmp_path, [[0], [1, 2]]) if flag == "--x0" else "3/4"
    assert cli.main([
        "solve", example_path, "--alg", alg, "--alpha", "1/2", flag, value,
    ]) == 2
    assert "additive-poly only" in capsys.readouterr().err


@pytest.mark.parametrize("alg", cli.SOLVE_ALGS)
@pytest.mark.parametrize("complete", [False, True])
def test_solve_checks_nothing_without_verify_all(alg, complete, monkeypatch, example_path, capsys):
    refuse_checkers(monkeypatch)
    argv = ["solve", example_path, "--alg", alg, "--alpha", "1/2"]
    code, data = run_json(capsys, argv + ["--complete"] * complete)
    assert code == 0 and "reports" not in data and "ok" not in data


def test_solve_skips_the_group_share_report_it_does_not_print(seven_agents_path, tmp_path, capsys):
    argv = ["solve", seven_agents_path, "--alg", "additive", "--alpha", "1/2", "--complete"]
    code, data = run_json(capsys, argv)
    assert code == 0 and data["unallocated"] == []
    # --verify-all still checks every claim before it writes anything
    trace = tmp_path / "trace.json"
    assert cli.main(argv + ["--verify-all", "--trace", str(trace)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not trace.exists()
    assert captured.err == (
        "error: group-share check over 7 agents exceeds the agent cap 6\n"
    )


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_fair_allocation(example_path, tmp_path, capsys):
    alloc = write_allocation(tmp_path, [[2], [0, 1]])
    code, data = run_json(capsys, [
        "verify", example_path, "--allocation", alloc,
        "--checks", "efx,ef1,mms,pmms,gmms", "--alpha", "1",
    ])
    assert code == 0
    assert data["ok"] is True
    assert [c["property"] for c in data["checks"]] == [
        "alpha_efx", "ef1", "alpha_mms", "alpha_pmms", "alpha_gmms",
    ]


def test_verify_flags_unfair_allocation(example_path, tmp_path, capsys):
    alloc = write_allocation(tmp_path, [[0, 1, 2], []])
    code, data = run_json(capsys, [
        "verify", example_path, "--allocation", alloc, "--checks", "mms",
        "--alpha", "1",
    ])
    assert code == 4
    assert data["ok"] is False
    witness = data["checks"][0]["witness"]
    assert witness["i"] == 1


def test_verify_mnw_check_with_reference(example_path, tmp_path, capsys):
    alloc = write_allocation(tmp_path, [[2], [0, 1]])
    code, data = run_json(capsys, [
        "verify", example_path, "--allocation", alloc, "--checks", "mnw",
        "--beta", "1", "--reference-product", "4",
    ])
    assert code == 0 and data["ok"] is True
    code, data = run_json(capsys, [
        "verify", example_path, "--allocation", alloc, "--checks", "mnw",
        "--beta", "1",
    ])
    assert code == 0 and data["ok"] is True


def test_verify_separated_needs_gamma(example_path, tmp_path):
    alloc = write_allocation(tmp_path, [[2], [0, 1]])
    assert cli.main([
        "verify", example_path, "--allocation", alloc, "--checks", "separated",
    ]) == 2


def test_verify_rejects_unknown_check(example_path, tmp_path):
    alloc = write_allocation(tmp_path, [[2], [0, 1]])
    assert cli.main([
        "verify", example_path, "--allocation", alloc, "--checks", "efy",
    ]) == 2


def test_verify_rejects_malformed_allocation(example_path, tmp_path):
    dup = write_allocation(tmp_path, [[0, 0], [1]], "dup.json")
    assert cli.main([
        "verify", example_path, "--allocation", dup, "--checks", "ef1",
    ]) == 2
    overlap = write_allocation(tmp_path, [[0, 1], [1, 2]], "overlap.json")
    assert cli.main([
        "verify", example_path, "--allocation", overlap, "--checks", "ef1",
    ]) == 2
    short = write_allocation(tmp_path, [[0, 1, 2]], "short.json")
    assert cli.main([
        "verify", example_path, "--allocation", short, "--checks", "ef1",
    ]) == 2


# ---------------------------------------------------------------------------
# sweep

def sweep_spec(tmp_path, example_path, timing=False):
    spec = {
        "instances": [
            example_path,
            {"family": "random_additive", "n": 2, "m": 4,
             "max_value": 10, "seed": 3},
        ],
        "alphas": ["0", "1/2"],
        "algorithms": ["additive", "additive-complete"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_sweep_writes_deterministic_csv(example_path, tmp_path):
    spec = sweep_spec(tmp_path, example_path)
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert cli.main(["sweep", "--spec", spec, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header, *rows = outs[0].decode().strip().splitlines()
    assert header.split(",") == list(cli.SWEEP_COLUMNS)
    assert len(rows) == 2 * 2 * 2  # instances x alphas x algorithms
    assert all(",pass," in row for row in rows)


def test_sweep_timing_column_is_opt_in(example_path, tmp_path):
    spec = sweep_spec(tmp_path, example_path)
    out = tmp_path / "timed.csv"
    assert cli.main(["sweep", "--spec", spec, "--out", str(out), "--timing"]) == 0
    header = out.read_text().splitlines()[0]
    assert header.split(",")[-1] == "wall_ms"


def test_sweep_rejects_bad_specs(example_path, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"instances": []}))
    assert cli.main(["sweep", "--spec", str(empty), "--out",
                     str(tmp_path / "x.csv")]) == 2
    bad_alg = tmp_path / "badalg.json"
    bad_alg.write_text(json.dumps({
        "instances": [example_path], "algorithms": ["magic"],
    }))
    assert cli.main(["sweep", "--spec", str(bad_alg), "--out",
                     str(tmp_path / "y.csv")]) == 2


def test_sweep_rejects_a_generator_parameter_of_the_wrong_type(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"instances": [
        {"family": "random_additive", "n": [2], "m": 3, "max_value": 10, "seed": 1},
    ]}))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: family 'random_additive' parameter 'n' must be an integer, got [2]\n"
    )


def test_sweep_rejects_a_file_entry_that_is_not_a_path(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"instances": [{"file": None}]}))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: each sweep instance must be a file path or a generator object\n"
    )


def test_sweep_checks_only_the_claims_it_prints(tmp_path, monkeypatch, seven_agents_path):
    refuse_checkers(monkeypatch, ("is_alpha_gmms", "is_alpha_pmms", "is_alpha_mms",
                                  "is_gamma_separated"))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "instances": [seven_agents_path,
                      {"family": "random_additive", "n": 3, "m": 5, "max_value": 10, "seed": 2}],
        "alphas": ["0", "1/2"],
    }))
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open(newline="")))
    assert len(rows) == 2 * 2 * 3 and not any(row["error"] for row in rows)
    for row in rows:
        assert row["efx"] == row["mnw_bound"] == "pass"
        assert row["ef1"] == ("pass" if row["algorithm"] == "additive-complete" else "")


def test_sweep_solves_each_optimum_once(tmp_path, monkeypatch):
    calls = []
    real = oracle.exact_mnw

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "exact_mnw", counting)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "instances": [{"family": "random_additive", "n": 3, "m": 5,
                       "max_value": 10, "seed": 2}],
        "alphas": ["0", "1/2"],
        "algorithms": ["additive", "additive-complete", "additive-poly"],
    }))
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(calls) == 1
    rows = list(csv.DictReader(out.open(newline="")))
    assert len(rows) == 6 and not any(row["error"] for row in rows)

    # a failed search is not cached, so every row reports it
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out), "--cap", "100"]) == 0
    rows = list(csv.DictReader(out.open(newline="")))
    assert len(rows) == 6
    assert all(row["error"].startswith("CapacityError: ") for row in rows)


# ---------------------------------------------------------------------------
# certify-impossibility

def test_certify_tradeoff_family(capsys):
    code, data = run_json(capsys, [
        "certify-impossibility", "--family", "theorem4",
        "--alpha", "1/2", "--eps", "1/100", "--n", "2",
    ])
    assert code == 0
    assert data["verified"] is True


def test_certify_square_family(capsys):
    code, data = run_json(capsys, [
        "certify-impossibility", "--family", "theorem5", "--N", "9",
    ])
    assert code == 0
    assert data["verified"] is True


def test_certify_requires_family_parameters():
    assert cli.main([
        "certify-impossibility", "--family", "theorem4", "--alpha", "1/2",
    ]) == 2
    assert cli.main(["certify-impossibility", "--family", "theorem5"]) == 2


def test_unknown_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_main_builds_the_parser_once_and_prints_the_same(example_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    complete = ["solve", example_path, "--alg", "additive", "--alpha", "1/2", "--complete"]
    partial = complete[:-1]
    runs = []
    for argv in (complete, partial, complete, partial):
        runs.append((cli.main(argv), capsys.readouterr()))
    assert runs[0] == runs[2] and runs[1] == runs[3]
    assert runs[0][1].out != runs[1][1].out  # --complete does not leak into the next call
    # help, usage and error text match a parser built afresh
    fresh = cli.build_parser.__wrapped__()
    for argv in (["--help"], ["solve", "--help"], ["solve", example_path], ["frobnicate"]):
        texts = []
        for parse in (cli.main, fresh.parse_args, cli.main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            texts.append((exc.value.code, capsys.readouterr()))
        assert texts[0] == texts[1] == texts[2]


# ---------------------------------------------------------------------------
# bad input

# documents the cases below name in braces, next to "example" and "out"
BAD_FILES = {
    "sweep": {"instances": [{"family": "budget_additive", "n": 1, "m": 40, "cap": 5, "seed": 1}]},
    "exponent": {"n": 1, "m": 1, "class": "additive", "valuations": [{"additive": ["1e99999999"]}]},
    "far_item": {"bundles": [[0, 1, 2], [100000000000]]},
    "bool_n": {"n": True, "m": 1, "class": "additive", "valuations": [{"additive": [1]}]},
    "bool_m": {"n": 1, "m": True, "class": "additive", "valuations": [{"additive": [1]}]},
    # JSON text, since json.dumps writes no number literal that reads as inf or nan
    "overflow": '{"n": 1, "m": 1, "class": "additive", "valuations": [{"additive": [1e400]}]}',
    "nan": '{"n": 1, "m": 1, "class": "additive", "valuations": [{"additive": [NaN]}]}',
}
# each must be refused before the work it asks for: a 2^m table past the
# table cap, 1 << item for an item past m, an exponent expanded digit by
# digit, a bool read as a count, or a float with no rational value
BAD_INPUT_CASES = {
    "xos table over the cap": "gen --family xos --n 2 --m 20",
    "budget_additive table over the cap":
        "gen --family budget_additive --n 1 --m 40 --budget 5 --seed 1",
    "sweep of a table over the cap": "sweep --spec {sweep} --out {out}",
    "exponent value": "mnw {exponent}",
    "exponent alpha": "solve {example} --alg additive --alpha 1e99999999",
    "item far out of range in --allocation": "verify {example} --allocation {far_item}",
    "item far out of range in --x0":
        "solve {example} --alg additive-poly --alpha 1/2 --x0 {far_item}",
    "bool n": "check-instance {bool_n}",
    "bool m": "check-instance {bool_m}",
    "overflowing float value": "mnw {overflow}",
    "NaN value": "mnw {nan}",
}
CHILD_ADDRESS_SPACE = 1 << 30


@pytest.mark.parametrize("literal, shown", [("1e400", "inf"), ("-1e400", "-inf"), ("NaN", "nan")])
def test_a_json_float_with_no_rational_value_is_malformed(literal, shown, tmp_path, capsys):
    path = tmp_path / "float.json"
    doc = '{"n": 1, "m": 1, "class": "additive", "valuations": [{"additive": [VALUE]}]}'
    path.write_text(doc.replace("VALUE", literal))
    assert cli.main(["mnw", str(path)]) == 2
    assert capsys.readouterr().err == f"error: not a rational value: {shown}\n"


def limit_child_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("command", BAD_INPUT_CASES.values(), ids=BAD_INPUT_CASES)
def test_bad_input_exits_promptly_with_one_error_line(command, example_path, tmp_path):
    paths = {"example": example_path, "out": str(tmp_path / "out.csv")}
    for name, doc in BAD_FILES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    src = str(Path(fairdiv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    started = time.monotonic()
    got = subprocess.run(
        [sys.executable, "-m", "fairdiv.cli", *command.format(**paths).split()],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=limit_child_memory,
    )
    elapsed = time.monotonic() - started
    assert got.returncode in (2, 3), got.stderr
    assert "Traceback" not in got.stderr
    lines = got.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert elapsed < 2
