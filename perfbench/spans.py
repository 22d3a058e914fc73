"""Outside-in spans for the traced benchmark run.

The program under test is not edited.  Each layer's public entry points
are replaced, from here, by timing wrappers: methods on their class,
module functions at the defining module and at every module that
imported them by name, registry policies in ``POLICIES``.  A wrapper
records one span (name, start, end, parent span, tick index) while the
recorder is active and calls straight through otherwise.  Spans stay in
memory and are written once, at the end.

A layer's self time is its spans' durations minus the time their
direct child spans cover.  ``calls`` counts outermost spans only, so a
``plan`` that delegates to ``plan_prescreened`` counts once.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

# Span record fields.
NAME, START, END, PARENT, TICK = range(5)


class Recorder:
    """In-memory span stack plus the per-layer counters observers add."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.tick = -1
        self.active = False
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args, kwargs, observe):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.tick]
        self.spans.append(record)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record[START] = start
            record[END] = end
        if observe is not None:
            nested = parent >= 0 and self.spans[parent][NAME] == name
            observe(self, result, args, kwargs, nested, end - start)
        return result

    # ------------------------------------------------------------ results
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls", "self_s"}}``."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                child_time[record[PARENT]] += record[END] - record[START]
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for index, record in enumerate(self.spans):
            row = totals[record[NAME]]
            row["self_s"] += record[END] - record[START] - child_time[index]
            parent = record[PARENT]
            if parent < 0 or self.spans[parent][NAME] != record[NAME]:
                row["calls"] += 1
        return dict(totals)

    def top_level_s(self) -> float:
        """Wall time covered by spans that have no parent span."""
        return sum(r[END] - r[START] for r in self.spans if r[PARENT] < 0)

    def write(self, path: str) -> None:
        """Write every span once, as JSON lines, times relative to the
        first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, (name, start, end, parent, tick) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        [index, name, start - origin, end - origin, parent, tick]
                    )
                )
                handle.write("\n")


# ---------------------------------------------------------------- observers
def _plan_counts(moves: str, unmatched: str, dropped_attr: str):
    def observe(rec, result, args, kwargs, nested, _duration):
        if nested:
            return
        rec.counts[moves] += len(result.moves)
        rec.counts[unmatched] += len(getattr(result, dropped_attr))

    return observe


def _observe_ffdlr(rec, result, args, kwargs, nested, _duration):
    items = args[0] if args else kwargs["items"]
    rec.counts["binpack.ffdlr.items"] += len(items)
    rec.counts["binpack.ffdlr.packed"] += len(result.assignment)


def _observe_apply(rec, result, args, kwargs, nested, _duration):
    rec.counts["service.apply.applied"] += bool(result.applied)


def _observe_step(rec, result, args, kwargs, nested, _duration):
    rec.tick += 1


def _observe_save(rec, result, args, kwargs, nested, duration):
    rec.maxima["checkpoint.save.ms_max"] = max(
        rec.maxima["checkpoint.save.ms_max"], duration * 1000.0
    )
    rec.maxima["checkpoint.bytes_max"] = max(
        rec.maxima["checkpoint.bytes_max"], float(os.path.getsize(result))
    )


# ------------------------------------------------------------ entry points
#: (span name, "module:Class.method" or "module:function", observer).
#: Module functions are also rebound in every loaded ``repro`` module
#: that imported them by name; ``BY_NAME`` lists the bindings the
#: workloads call through, which must exist.
METHODS = [
    ("workload.sample", "repro.workload.generator:DemandGenerator.sample_tick_array", None),
    ("workload.sample", "repro.workload.generator:DemandGenerator.sample_tick", None),
    ("core.migration_plan", "repro.core.migration:MigrationPlanner.plan",
     _plan_counts("core.migration_plan.moves", "core.migration_plan.unmatched", "dropped")),
    ("core.migration_plan", "repro.core.migration:MigrationPlanner.plan_prescreened",
     _plan_counts("core.migration_plan.moves", "core.migration_plan.unmatched", "dropped")),
    ("core.consolidation_plan", "repro.core.consolidation:ConsolidationPlanner.plan",
     _plan_counts("core.consolidation_plan.moves", "core.consolidation_plan.sleeps", "to_sleep")),
    ("core.gather", "repro.core.fleet:FleetState.gather", None),
    ("federation.policy", "repro.federation.predictive:PredictivePlanner.plan", None),
    ("federation.forecasts",
     "repro.federation.coordinator:FederationCoordinator.site_forecasts", None),
    ("metrics.summary", "repro.metrics.federation:summarize_federation", None),
    ("metrics.summary", "repro.metrics.summary:summarize_run", None),
    ("checkpoint.save", "repro.checkpoint.store:CheckpointStore.save", _observe_save),
    ("checkpoint.snapshot", "repro.service.simulation:LiveSimulation.snapshot_state", None),
    ("service.submit", "repro.service.gateway:IngestGateway.submit", None),
    ("service.validate", "repro.service.events:validate_event", None),
    ("service.apply", "repro.service.simulation:LiveSimulation.apply", _observe_apply),
    ("service.audit", "repro.service.audit:AuditLog.write_event", None),
    ("service.audit", "repro.service.audit:AuditLog.flush", None),
    ("service.step", "repro.service.simulation:LiveSimulation.step", _observe_step),
    ("power.allocate", "repro.power.budget:allocate_level", None),
    ("power.allocate", "repro.power.budget:allocate_proportional", None),
    ("thermal.step", "repro.thermal.model:temperature_step_arrays", None),
    ("core.fold", "repro.core.fleet:fold_segment_sums", None),
    ("binpack.ffdlr", "repro.binpack.ffdlr:ffdlr_pack", _observe_ffdlr),
]

BY_NAME = {
    "allocate_level": ("repro.federation.vectorized", "repro.core.vectorized"),
    "temperature_step_arrays": ("repro.federation.vectorized", "repro.core.vectorized"),
    "fold_segment_sums": ("repro.federation.vectorized", "repro.core.vectorized"),
    "ffdlr_pack": (
        "repro.core.migration",
        "repro.core.consolidation",
        "repro.federation.coordinator",
        "repro.plant_faults.controller",
    ),
    "validate_event": ("repro.service.gateway",),
    "allocate_proportional": ("repro.core.controller",),
}


def _wrapper(rec: Recorder, name: str, fn: Callable, observe) -> Callable:
    def wrapped(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, observe)

    return functools.update_wrapper(wrapped, fn)


def install(rec: Recorder) -> None:
    """Wrap every entry point in :data:`METHODS` and the registry
    policies.  Raises if an entry point or a by-name binding is gone,
    so a rename fails loudly instead of reading as zero time."""
    for modname in {m for mods in BY_NAME.values() for m in mods}:
        importlib.import_module(modname)
    for name, target, observe in METHODS:
        modname, _, attr = target.partition(":")
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrapper(rec, name, original, observe))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(rec, name, original, observe)
        for modname_by in BY_NAME.get(attr, ()):
            if getattr(sys.modules[modname_by], attr) is not original:
                raise RuntimeError(f"{modname_by}.{attr} is not bound to {target}")
        for loaded_name, loaded in list(sys.modules.items()):
            if (
                (loaded_name == "repro" or loaded_name.startswith("repro."))
                and getattr(loaded, attr, None) is original
            ):
                setattr(loaded, attr, wrapped)

    from repro.federation.policies import POLICIES

    for slug, fn in list(POLICIES.items()):
        POLICIES[slug] = _wrapper(rec, "federation.policy", fn, None)


# ------------------------------------------------------------- call guard
#: Per workload: span names that must record calls, and span names that
#: must record none (the per-layer table in LAYERS.md).
EXERCISED = {
    "fleet-steady": (
        "workload.sample", "power.allocate", "thermal.step",
        "core.consolidation_plan", "core.gather",
    ),
    "solar-churn": (
        "core.migration_plan", "binpack.ffdlr", "federation.policy",
        "federation.forecasts", "metrics.summary",
    ),
    "live-ingest": (
        "checkpoint.save", "service.submit", "service.validate",
        "service.apply", "service.audit", "service.step",
    ),
}
_SERVICE = (
    "checkpoint.save", "checkpoint.snapshot", "service.submit",
    "service.validate", "service.apply", "service.audit", "service.step",
)
UNCALLED = {
    "fleet-steady": _SERVICE + ("metrics.summary",),
    "solar-churn": _SERVICE,
    "live-ingest": ("workload.sample",),
}


def guard(workload: str, totals: Dict[str, Dict[str, float]]) -> List[str]:
    """Violations of the call-count expectations, as messages."""
    problems = []
    for name in EXERCISED[workload]:
        if totals.get(name, {}).get("calls", 0) == 0:
            problems.append(f"{name}: 0 calls on {workload}, expected some")
    for name in UNCALLED[workload]:
        calls = totals.get(name, {}).get("calls", 0)
        if calls:
            problems.append(f"{name}: {calls} calls on {workload}, expected 0")
    return problems


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """The span-derived per-layer metrics (calls, self time, counters)."""
    totals = rec.layer_totals()

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    counts = rec.counts
    offered = counts["binpack.ffdlr.items"]
    applied_of = calls("service.apply")
    return {
        "workload.sample.calls": calls("workload.sample"),
        "workload.sample.self_s": self_s("workload.sample"),
        "power.allocate.calls": calls("power.allocate"),
        "power.allocate.self_s": self_s("power.allocate"),
        "thermal.step.calls": calls("thermal.step"),
        "thermal.step.self_s": self_s("thermal.step"),
        "core.fold.calls": calls("core.fold"),
        "core.fold.self_s": self_s("core.fold"),
        "core.migration_plan.calls": calls("core.migration_plan"),
        "core.migration_plan.self_s": self_s("core.migration_plan"),
        "core.migration_plan.moves": counts["core.migration_plan.moves"],
        "core.migration_plan.unmatched": counts["core.migration_plan.unmatched"],
        "binpack.ffdlr.calls": calls("binpack.ffdlr"),
        "binpack.ffdlr.self_s": self_s("binpack.ffdlr"),
        "binpack.ffdlr.items": offered,
        "binpack.ffdlr.pack_ratio": (
            counts["binpack.ffdlr.packed"] / offered if offered else 0.0
        ),
        "core.consolidation_plan.calls": calls("core.consolidation_plan"),
        "core.consolidation_plan.self_s": self_s("core.consolidation_plan"),
        "core.consolidation_plan.moves": counts["core.consolidation_plan.moves"],
        "core.consolidation_plan.sleeps": counts["core.consolidation_plan.sleeps"],
        "core.gather.self_s": self_s("core.gather"),
        "federation.policy.calls": calls("federation.policy"),
        "federation.policy.self_s": self_s("federation.policy"),
        "federation.forecasts.self_s": self_s("federation.forecasts"),
        "metrics.summary.self_s": self_s("metrics.summary"),
        "checkpoint.save.calls": calls("checkpoint.save"),
        "checkpoint.save.self_s": self_s("checkpoint.save"),
        "checkpoint.save.ms_max": rec.maxima["checkpoint.save.ms_max"],
        "checkpoint.bytes_max": rec.maxima["checkpoint.bytes_max"],
        "checkpoint.snapshot.self_s": self_s("checkpoint.snapshot"),
        "service.submit.calls": calls("service.submit"),
        "service.submit.self_s": self_s("service.submit"),
        "service.validate.self_s": self_s("service.validate"),
        "service.apply.calls": applied_of,
        "service.apply.self_s": self_s("service.apply"),
        "service.apply.applied_ratio": (
            counts["service.apply.applied"] / applied_of if applied_of else 0.0
        ),
        "service.audit.self_s": self_s("service.audit"),
        "service.step.self_s": self_s("service.step"),
    }
