"""Span recorder for the traced benchmark run.

Spans are taken from outside the library: each traced public function is
replaced, at every module attribute that binds it, by a wrapper that records
(name, start, end, parent span, job id) and derives work counts from the
call's inputs and return value. Nothing inside the library changes, and the
wrappers exist only while a Tracer is installed.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# The public functions timed as layers, by module. A function missing here
# still runs; its time shows up as self time of the traced caller.
TRACED = {
    "cli": ("main",),
    "instances": ("generate",),
    "core": ("check_class",),
    "oracle": ("exact_mnw", "best_alpha_efx_product", "certify_impossibility"),
    "verify": (
        "efx_violation",
        "is_alpha_efx",
        "is_ef1",
        "is_beta_mnw",
        "mms_share",
        "is_alpha_pmms",
        "is_alpha_gmms",
    ),
    "additive_alg": ("efx_matching", "match_or_improve", "matching_with_restarts"),
    "subadditive_alg": ("efx_matching",),
    "completion": (
        "envy_cycles",
        "singleton_swaps",
        "pipeline_additive",
        "pipeline_subadditive",
    ),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Work counts read from inputs or return values, summed over the traced jobs.
COUNT_NAMES = (
    "oracle.exact_mnw.states",
    "oracle.exact_mnw.repeats",
    "oracle.best_alpha_efx_product.states",
    "verify.mms_share.labellings",
    "core.check_class.states",
    "subadditive_alg.steps",
    "additive_alg.steps",
    "additive_alg.improved",
    "completion.events",
    "completion.swaps",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _instance_key(instance) -> tuple:
    """Content of an instance, so equal instances built twice compare equal."""
    vals = []
    for val in instance.valuations:
        table = getattr(val, "table", None)
        vals.append(val.item_values if table is None else tuple(sorted(table.items())))
    return instance.n, instance.m, instance.declared_class, tuple(vals)


class Tracer:
    """Records spans and work counts for the library modules given to it."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.job = -1
        self._name_index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.job_counts: dict[int, dict[str, int]] = {}
        self._solved: set = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        originals = {}
        for mod_name, fn_names in TRACED.items():
            module = self._modules[mod_name]
            for fn_name in fn_names:
                fn = getattr(module, fn_name)
                originals[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        # replace the function wherever a library module binds it, since
        # modules import names such as exact_mnw or efx_violation directly
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fairdiv" or name.startswith("fairdiv.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        index = self._name_index[name]
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.span_start)
            self.span_name.append(index)
            self.span_job.append(self.job)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.span_start[span] = start
                self.span_end[span] = end
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _add(self, name: str, amount: int) -> None:
        self.counts[name] += amount
        per_job = self.job_counts.setdefault(self.job, {})
        per_job[name] = per_job.get(name, 0) + amount

    def _count_oracle_exact_mnw(self, args, kwargs, result) -> None:
        instance = args[0]
        self._add("oracle.exact_mnw.states", instance.n ** instance.m)
        key = (
            _instance_key(instance),
            _arg(args, kwargs, 1, "caps"),
            _arg(args, kwargs, 2, "method", "auto"),
        )
        if key in self._solved:
            self._add("oracle.exact_mnw.repeats", 1)
        self._solved.add(key)

    def _count_oracle_best_alpha_efx_product(self, args, kwargs, result) -> None:
        instance = args[0]
        self._add("oracle.best_alpha_efx_product.states", (instance.n + 1) ** instance.m)

    def _count_verify_mms_share(self, args, kwargs, result) -> None:
        k = _arg(args, kwargs, 2, "k")
        pool = _arg(args, kwargs, 3, "pool")
        self._add("verify.mms_share.labellings", k ** len(pool))

    def _count_core_check_class(self, args, kwargs, result) -> None:
        instance = args[0]
        tables = sum(1 for val in instance.valuations if hasattr(val, "table"))
        if instance.declared_class == "subadditive":
            self._add("core.check_class.states", tables * 3 ** instance.m)

    def _count_subadditive_alg_efx_matching(self, args, kwargs, result) -> None:
        self._add("subadditive_alg.steps", len(result[1].trace))

    def _count_additive_alg_efx_matching(self, args, kwargs, result) -> None:
        self._add("additive_alg.steps", len(result[1].trace))

    def _count_additive_alg_match_or_improve(self, args, kwargs, result) -> None:
        self._add("additive_alg.steps", len(result.state.trace))
        self._add("additive_alg.improved", int(result.kind == "improved"))

    def _count_completion_envy_cycles(self, args, kwargs, result) -> None:
        self._add("completion.events", len(result.events))

    def _count_completion_singleton_swaps(self, args, kwargs, result) -> None:
        self._add("completion.swaps", len(result.swaps))

    # -- results ----------------------------------------------------------

    def layer_times(self, jobs=None) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name, over spans of `jobs`
        (default: every recorded span). Self time is the span's duration
        minus the durations of its direct children."""
        n = len(self.span_start)
        child = [0.0] * n
        for s in range(n):
            parent = self.span_parent[s]
            if parent >= 0:
                child[parent] += self.span_end[s] - self.span_start[s]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for s in range(n):
            if jobs is not None and self.span_job[s] not in jobs:
                continue
            busy = self.span_end[s] - self.span_start[s]
            entry = out[SPAN_NAMES[self.span_name[s]]]
            entry["calls"] += 1
            entry["busy_s"] += busy
            entry["self_s"] += busy - child[s]
        return out

    def top_level_busy(self, jobs) -> float:
        """Wall time covered by spans that have no traced parent."""
        return sum(
            self.span_end[s] - self.span_start[s]
            for s in range(len(self.span_start))
            if self.span_parent[s] < 0 and self.span_job[s] in jobs
        )

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tjob\tname\tparent\tstart_s\tend_s\n")
            for s in range(len(self.span_start)):
                fh.write(
                    f"{s}\t{self.span_job[s]}\t{SPAN_NAMES[self.span_name[s]]}\t"
                    f"{self.span_parent[s]}\t{self.span_start[s]:.9f}\t{self.span_end[s]:.9f}\n"
                )
