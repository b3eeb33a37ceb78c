"""fairdiv benchmark: closed-loop batch workloads with one caller.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-additive --seed 1 --seconds 25 --trace 0

With --trace 0 it times jobs back to back for --seconds seconds and prints
the end-to-end metrics; with --trace 1 it runs a fixed job list untraced,
then twice with spans recorded at the library's public functions, and prints
per-layer metrics. Every output is checked outside the timed region. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import COUNT_NAMES, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, JobResult  # noqa: E402

LIBRARY_MODULES = tuple(TRACED)
SETUP_REPEATS = 3
WORK_DIR = ".perfbench-out"
MAX_REPORTED_PROBLEMS = 5


class SetupError(Exception):
    """The checkout lacks the library or the side checkers."""


def load_naive(root: Path):
    """tests/naive.py, imported read-only under a private module name."""
    path = root / "tests" / "naive.py"
    if not path.is_file():
        raise SetupError(f"{path} not found; run from the root of a fairdiv checkout")
    spec = importlib.util.spec_from_file_location("perfbench_naive", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Library:
    """The fairdiv modules of one fresh import, by short name."""

    def __init__(self, src: Path):
        for name in [n for n in sys.modules if n == "fairdiv" or n.startswith("fairdiv.")]:
            del sys.modules[name]
        self.modules = {name: importlib.import_module(f"fairdiv.{name}") for name in LIBRARY_MODULES}
        package = sys.modules["fairdiv"]
        if Path(package.__file__).resolve().parent != (src / "fairdiv").resolve():
            raise SetupError(f"imported fairdiv from {package.__file__}, not from {src}")
        for name, module in self.modules.items():
            setattr(self, name, module)


class HostClock:
    """Wall-clock timing corrected for the speed of a shared host.

    Shared hosts run the same Python code up to twice as slowly for stretches
    of seconds to minutes, while the process keeps its CPU. Around every
    timed call the clock times a fixed reference snippet of exact rational
    arithmetic (the library's own kind of work). A call's corrected time is
    its wall time times REFERENCE_S / (mean of the references just before
    and after it): the time it would take on a host where the snippet takes
    REFERENCE_S, about the fastest a shared 2-core Intel Xeon VM ran it.
    """

    REFERENCE_S = 0.0011

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def _reference() -> Fraction:
        total = Fraction(0)
        for i in range(300):
            total += Fraction(i % 7 + 1, 3) * Fraction(2, i % 5 + 1)
        return total

    def sample(self) -> float:
        started = time.perf_counter()
        self._reference()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def timed(self, fn, *args):
        """(result, wall seconds, reference seconds around the call)."""
        before = self.sample()
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        return result, elapsed, (before + self.sample()) / 2

    def correct(self, seconds: float, reference: float) -> float:
        return seconds * self.REFERENCE_S / reference


def set_up(workload, root: Path, seed: int, trace: bool, clock: HostClock):
    """Import fairdiv afresh and build the workload's units; with `trace`,
    the spans of the build are recorded and the wrappers stay installed.
    Returns the library, the units, the tracer (or None), and the wall and
    reference times of the set-up."""
    src = root / "src"
    if not (src / "fairdiv" / "__init__.py").is_file():
        raise SetupError(f"{src}/fairdiv not found; run from the root of a fairdiv checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)

    def build():
        lib = Library(src)
        tracer = None
        if trace:
            tracer = Tracer(lib.modules)
            tracer.install()
        return lib, tracer, workload.build(lib, random.Random(f"{workload.name}:{seed}"), work)

    (lib, tracer, units), elapsed, reference = clock.timed(build)
    return lib, units, tracer, (elapsed, reference)


class Pass:
    """Per-job outcomes of one pass over a list of units, each job with the
    host reference time around its unit."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.jobs: list[JobResult] = []
        self.references: list[float] = []
        self.corrected_s = 0.0
        self.busy_s = 0.0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return sum(1 for job in self.jobs if not job.ok)

    def run_unit(self, workload, lib, naive, unit) -> None:
        def attempt():
            try:
                return workload.run(lib, unit), None
            except Exception:  # a job that raises is a failed job; keep going
                return None, traceback.format_exc(limit=3)

        (output, error), elapsed, reference = self.clock.timed(attempt)
        self.busy_s += elapsed
        self.corrected_s += self.clock.correct(elapsed, reference)
        failed = [JobResult(elapsed * 1000 / unit.jobs, False)] * unit.jobs
        if error is not None:
            jobs, problems = failed, [error]
        else:
            try:
                jobs, problems = workload.check(naive, unit, output, elapsed)
            except Exception:  # output too malformed to check
                jobs, problems = failed, [traceback.format_exc(limit=3)]
        self.jobs += jobs
        self.references += [reference] * len(jobs)
        self.problems += problems

    def corrected_ms(self) -> list[float]:
        return [self.clock.correct(job.ms, ref) for job, ref in zip(self.jobs, self.references)]


def run_pass(workload, lib, naive, units, clock, tracer=None, seconds=None) -> Pass:
    """Run `units` in order; with `seconds`, stop once that much job time is
    spent, cycling through the units if needed."""
    done = Pass(clock)
    k = 0
    while (k < len(units)) if seconds is None else (done.busy_s < seconds):
        if tracer is not None:
            tracer.job = k
        done.run_unit(workload, lib, naive, units[k % len(units)])
        k += 1
    if tracer is not None:
        tracer.job = -1
    return done


def percentile(values, q: float) -> float:
    """q-th percentile, linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, root, seed, naive, seconds: float):
    clock = HostClock()
    setups = [set_up(workload, root, seed, False, clock) for _ in range(SETUP_REPEATS)]
    lib, units = setups[-1][0], setups[-1][1]
    done = run_pass(workload, lib, naive, units, clock, seconds=seconds)
    times = done.corrected_ms()
    passed = len(times) - done.failed
    p90 = percentile(times, 0.9)
    metrics = {
        "jobs_per_s": (passed / done.corrected_s, "jobs/s"),
        "job_p50_ms": (percentile(times, 0.5), "ms"),
        "job_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(clock.correct(*s[3]) for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [job.ms for job in done.jobs]
    notes = [
        f"jobs: {len(times)} attempted, {done.failed} failed, "
        f"failed_frac = {done.failed / len(times)} ratio",
        f"job_p90_ms from {len(times)} samples, {sum(1 for t in times if t > p90)} beyond it",
        f"uncorrected: jobs_per_s = {passed / done.busy_s} jobs/s, "
        f"job_p50_ms = {percentile(raw, 0.5)} ms, job_p90_ms = {percentile(raw, 0.9)} ms",
        f"host reference: fastest {min(clock.samples) * 1000:.4f} ms, "
        f"median {statistics.median(clock.samples) * 1000:.4f} ms over {len(clock.samples)} samples",
    ]
    return metrics, notes, [done], []


def per_layer(workload, root, seed, naive, work: Path):
    """Untraced, traced and again traced passes over one fixed job list,
    each after a fresh set-up. Spans and counts come from the first traced
    pass; the second must repeat its counts job by job."""
    clock = HostClock()
    passes, tracers = [], []
    for traced in (False, True, True):
        lib, units, tracer, _ = set_up(workload, root, seed, traced, clock)
        try:
            passes.append(run_pass(workload, lib, naive, units[: workload.traced_units], clock, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracers.append(tracer)
    untraced_s = passes[0].corrected_s
    traced_s = passes[1].corrected_s
    first, second = tracers
    problems = []
    if first.job_counts != second.job_counts:
        differ = sorted(k for k in set(first.job_counts) | set(second.job_counts)
                        if first.job_counts.get(k) != second.job_counts.get(k))
        problems.append(f"work counts differ between two traced passes on jobs {differ}")
    first.write(work / f"spans-{workload.name}-{seed}.tsv.gz")

    layers = first.layer_times()
    covered = first.top_level_busy(set(range(workload.traced_units)))
    busy = passes[1].busy_s
    metrics = {}
    for name, entry in layers.items():
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.busy_s"] = (entry["busy_s"], "s")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    for name in COUNT_NAMES:
        count = first.counts[name]
        if name == "oracle.exact_mnw.repeats":
            calls = max(1, layers["oracle.exact_mnw"]["calls"])
            metrics["oracle.exact_mnw.repeat_frac"] = (count / calls, "ratio")
        elif name == "additive_alg.improved":
            calls = max(1, layers["additive_alg.match_or_improve"]["calls"])
            metrics["additive_alg.improved_frac"] = (count / calls, "ratio")
        else:
            metrics[name] = (count, "count")
    jobs = len(passes[1].jobs)
    metrics["trace.jobs"] = (jobs, "count")
    metrics["trace.spans"] = (len(first.span_start), "count")
    metrics["trace.untraced_jobs_per_s"] = (jobs / untraced_s, "jobs/s")
    metrics["trace.traced_jobs_per_s"] = (jobs / traced_s, "jobs/s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    metrics["trace.covered_frac"] = (covered / busy, "ratio")
    metrics["trace.gap_s"] = (busy - covered, "s")
    notes = [
        f"{jobs} jobs per pass; span times are uncorrected wall times; spans written to "
        f"{WORK_DIR}/spans-{workload.name}-{seed}.tsv.gz",
    ]
    return metrics, notes, passes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    try:
        naive = load_naive(root)
        if args.trace:
            metrics, notes, passes, problems = per_layer(workload, root, args.seed, naive, root / WORK_DIR)
        else:
            metrics, notes, passes, problems = end_to_end(workload, root, args.seed, naive, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = problems + [line for p in passes for line in p.problems]
    for line in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"problem: {line}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for line in notes:
        print(line)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
