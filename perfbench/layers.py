"""The layer table: which public ``repro`` entry points each span covers.

Span names are ``<layer>.<part>``, where the layer is the ``repro``
module the wrapped code lives in.  The traced run wraps exactly these
callables (see :func:`install`); everything else a workload executes is
either nested inside one of them or shows up as the residual.
"""

from __future__ import annotations

import importlib

from spans import SpanRecorder

#: span name -> methods, as (module, class, attribute names).
METHODS = {
    "kernel.statics.compile": [("repro.kernel.statics", "KernelStatics", ["__init__"])],
    "heuristics.queue": [
        ("repro.heuristics.base", "ReadyQueue",
         ["__init__", "pop", "pop_chunk", "push_back", "complete"]),
    ],
    "heuristics.state_init": [
        ("repro.heuristics.base", "SchedulerState", ["__init__"]),
        ("repro.heuristics.state_cext", "CextSchedulerState", ["__init__"]),
    ],
    "heuristics.sweep": [
        ("repro.heuristics.base", "SchedulerState",
         ["best_candidate", "evaluate", "evaluate_all"]),
        ("repro.heuristics.state_cext", "CextSchedulerState",
         ["best_candidate", "evaluate", "evaluate_all"]),
    ],
    "heuristics.commit": [
        ("repro.heuristics.base", "SchedulerState", ["commit", "schedule_on"]),
        ("repro.heuristics.state_cext", "CextSchedulerState", ["commit", "schedule_on"]),
    ],
    "heuristics.journal": [
        ("repro.heuristics.base", "SchedulerState", ["mark", "restore"]),
        ("repro.heuristics.state_cext", "CextSchedulerState", ["mark", "restore"]),
    ],
    "heuristics.run": [
        ("repro.heuristics.heft", "HEFT", ["run"]),
        ("repro.heuristics.ilha", "ILHA", ["run"]),
        ("repro.heuristics.pct", "PCT", ["run"]),
    ],
    "core.schedule.materialize": [
        ("repro.core.schedule", "Schedule", ["place", "record_comm"]),
    ],
    "kernel.timed.compile": [
        ("repro.kernel.timed", "TimedKernel", ["from_decisions", "from_point"]),
    ],
    "kernel.timed.propagate": [
        ("repro.kernel.timed", "TimedKernel", ["propagate_kahn", "propagate_order"]),
    ],
    "kernel.timed.patch": [("repro.kernel.timed", "TimedKernel", ["patch", "apply"])],
    "search.load": [
        ("repro.search.evaluate", "IncrementalEvaluator", ["load"]),
        ("repro.search.point", "SearchPoint", ["from_schedule"]),
    ],
    "search.preview": [("repro.search.evaluate", "IncrementalEvaluator", ["preview"])],
    "search.commit": [("repro.search.evaluate", "IncrementalEvaluator", ["commit"])],
    "search.critical": [
        ("repro.search.evaluate", "IncrementalEvaluator", ["critical_path_tasks"]),
    ],
    "search.run": [("repro.search.ils", "IteratedLocalSearch", ["run"])],
    "campaign.execute": [
        ("repro.campaign.executors", "ProcessExecutor", ["execute"]),
        ("repro.campaign.executors", "SerialExecutor", ["execute"]),
    ],
    "campaign.cache_put": [("repro.campaign.cache", "ResultCache", ["put"])],
    "campaign.cache_load": [("repro.campaign.cache", "ResultCache", ["__init__"])],
}

#: span name -> module-level functions, as (module, function names).
FUNCTIONS = {
    "graphs.generate": [
        ("repro.graphs.random_dags", ["irregular_testbed", "layered_testbed"]),
        ("repro.graphs.lu", ["lu_graph"]),
        ("repro.online.workload", ["make_workload"]),
    ],
    "kernel.statics.flatten": [("repro.kernel.cext_backend", ["engine_statics"])],
    "core.ranking": [("repro.core.ranking", ["bottom_levels", "top_levels"])],
    "simulate.extract": [("repro.simulate.replay", ["extract_decisions"])],
    "simulate.replay": [("repro.simulate.replay", ["replay", "replay_schedule"])],
    "search.propose": [("repro.search.neighborhood", ["propose"])],
    "online.loop": [("repro.online.engine", ["simulate_online"])],
    "online.replan": [("repro.online.policies", ["replan_job"])],
    "campaign.run": [("repro.campaign.runner", ["run_campaign"])],
    "campaign.triage": [("repro.campaign.triage", ["triage_cells"])],
    "campaign.reassemble": [("repro.campaign.reassembly", ["reassemble"])],
}

#: Layers whose code runs in the benchmark process for each workload.
#: The campaign workload wraps only its own layer: its pool workers are
#: forked from the benchmark process and would inherit every other
#: wrapper, which would skew the cell times they report.
WORKLOAD_LAYERS = {
    "construct": ("graphs", "kernel", "core", "heuristics"),
    "improve": ("graphs", "kernel", "core", "heuristics", "simulate", "search"),
    "online": ("graphs", "kernel", "core", "heuristics", "simulate", "online"),
    "campaign": ("campaign",),
}


def install(recorder: SpanRecorder, workload: str) -> None:
    """Wrap the entry points of ``workload``'s layers into ``recorder``."""
    layers = WORKLOAD_LAYERS[workload]

    def wanted(span: str) -> bool:
        return span.split(".", 1)[0] in layers

    for span, entries in METHODS.items():
        if not wanted(span):
            continue
        for module, cls_name, attrs in entries:
            try:
                cls = getattr(importlib.import_module(module), cls_name)
            except ImportError:  # the compiled engine is not built: none of it runs
                continue
            for attr in attrs:
                recorder.patch_method(cls, attr, span)
    targets = {}
    for span, entries in FUNCTIONS.items():
        if not wanted(span):
            continue
        for module, names in entries:
            mod = importlib.import_module(module)
            for fn_name in names:
                targets[getattr(mod, fn_name)] = span
    recorder.patch_functions(targets)
