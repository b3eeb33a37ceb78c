"""Smoke test of the library surface the benchmark calls and traces.

Each perfbench workload is built small (four units from a fixed seed), run
under the benchmark's span tracer, and checked by the workload's own checks
against tests/naive.py. A renamed or removed traced function fails the
tracer's install; a changed signature fails a unit's run or a tracer count.
The perfbench files are only imported, never changed.
"""

from __future__ import annotations

import copy
import importlib
import importlib.util
import random
import sys
import types
from pathlib import Path

import pytest

import naive

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_smoke_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_traced_and_checks_out(name, tmp_path):
    workload = copy.copy(workloads.WORKLOADS[name])
    workload.pool = 4
    modules = {mod: importlib.import_module(f"fairdiv.{mod}") for mod in spans.TRACED}
    lib = types.SimpleNamespace(**modules)
    tracer = spans.Tracer(modules)
    try:
        tracer.install()
        units = workload.build(lib, random.Random(1), tmp_path)
        problems = []
        for job, unit in enumerate(units):
            tracer.job = job
            results, found = workload.check(naive, unit, workload.run(lib, unit), 0.0)
            assert len(results) == unit.jobs
            problems += found + [f"unit {job}: job failed" for r in results if not r.ok]
    finally:
        tracer.uninstall()
    assert units and problems == []
    assert {tracer.span_job[s] for s in range(len(tracer.span_start))} >= set(range(len(units)))
