"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer of the ``repro`` package
from the benchmark's own files; nothing inside the program changes.  A
wrapped call records a span ``(name, start, end, parent, round)``.
Spans stay in memory until their round ends, when :meth:`Tracer.end_round`
reduces them to per-layer times and counts.

Layer time is either *inclusive* (the outermost span of the layer, with
everything it calls) or *self* (the span minus the part of it that its
child spans cover), as each :class:`Target` declares.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``module.qualname`` in ``layer``."""

    module: str
    qualname: str
    layer: str
    #: Counter bumped once per call, if any.
    calls: str | None = None
    #: ``on_return(tracer, result)`` hook recording counts read off the
    #: call's result.
    on_return: Callable | None = None


def _profiled(tracer: "Tracer", result) -> None:
    tracer.count("core.profiled_signatures", result)


def _sweep_tasks(tracer: "Tracer", result) -> None:
    tracer.count("sweep.tasks", len(result))


def _fleet_result(tracer: "Tracer", result) -> None:
    tracer.count("fleet.events", result.events_processed)
    tracer.count("fleet.rounds", sum(m.rounds for m in result.machine_reports))
    tracer.count("fleet.estimates_requested", result.estimates_requested)
    tracer.count("fleet.estimates_computed", result.estimates_computed)
    tracer.count("fleet.rejections", len(result.rejections))
    tracer.count("fleet.retries", result.retries)
    tracer.peak("fleet.peak_queue_depth", result.peak_queue_depth)


#: Layers whose time is self time; every other layer reports inclusive time.
SELF_TIME_LAYERS = frozenset({"execsim.step", "fleet.loop"})

TARGETS: tuple[Target, ...] = (
    Target("repro.models.registry", "build_model", "graph.build"),
    Target("repro.scenarios", "Workload.build", "graph.build"),
    Target("repro.scenarios", "merge_graphs", "graph.build"),
    Target(
        "repro.core.hill_climbing",
        "HillClimbingModel.profile_graph",
        "core.profile",
        on_return=_profiled,
    ),
    Target("repro.core.scheduler", "RuntimeSchedulerPolicy.on_step_begin", "core.scheduler"),
    Target(
        "repro.core.scheduler",
        "RuntimeSchedulerPolicy.select_launches",
        "core.scheduler",
        calls="core.launch_decisions",
    ),
    Target(
        "repro.core.hill_climbing",
        "HillClimbingModel.top_configurations",
        "core.scheduler",
        calls="core.rankings",
    ),
    Target("repro.execsim.simulator", "StepSimulator.run_step", "execsim.step", calls="execsim.steps"),
    Target("repro.fleet.estimates", "StepTimeEstimator.step_time", "fleet.estimator"),
    Target("repro.fleet.estimates", "StepTimeEstimator.prewarm", "fleet.estimator"),
    Target("repro.fleet.estimates", "corun_step_time", "fleet.estimator"),
    Target("repro.fleet.policies", "FirstFitPolicy.place", "fleet.policy", calls="fleet.policy_calls"),
    Target(
        "repro.fleet.policies", "LoadBalancedPolicy.place", "fleet.policy", calls="fleet.policy_calls"
    ),
    Target(
        "repro.fleet.policies",
        "InterferenceAwarePolicy.place",
        "fleet.policy",
        calls="fleet.policy_calls",
    ),
    Target("repro.fleet.simulator", "FleetSimulator.run", "fleet.loop", on_return=_fleet_result),
    Target("repro.sweep.executor", "SweepExecutor.run", "sweep.run", on_return=_sweep_tasks),
)

#: Every layer, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: Every count a traced round reports (zero when the layer is idle).
COUNTS: tuple[str, ...] = (
    "graph.builds",
    "core.profiled_signatures",
    "core.launch_decisions",
    "core.rankings",
    "execsim.steps",
    "fleet.estimates_requested",
    "fleet.estimates_computed",
    "fleet.policy_calls",
    "fleet.events",
    "fleet.rounds",
    "fleet.rejections",
    "fleet.peak_queue_depth",
    "fleet.retries",
    "sweep.tasks",
)


class Tracer:
    """Records spans around the :data:`TARGETS` while :attr:`active`.

    Use as a context manager: entering patches every target (in its
    defining module and in every loaded module that imported it by
    name), leaving restores the originals.  Patch before the workload
    builds any objects, so no object holds an unwrapped reference.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.active = False
        self.round_id = -1
        #: Spans of the current round: [name, start, end, parent index, round].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, target)
            self._patch(owner, attr, wrapped)
            if not owner_name:
                # Modules that did ``from module import name`` hold their
                # own reference to the function.
                for other in list(sys.modules.values()):
                    if other is not module and getattr(other, attr, None) is original:
                        self._patch(other, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, target: Target):
        tracer = self
        name = target.layer
        calls = target.calls
        on_return = target.on_return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.round_id]
            tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if calls is not None:
                tracer.count(calls)
            if on_return is not None:
                on_return(tracer, result)
            return result

        return wrapper

    # -- counts ---------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    # -- rounds ---------------------------------------------------------------

    def begin_round(self, round_id: int) -> None:
        self.round_id = round_id
        self.spans = []
        self.counts = {}
        self.active = True

    def end_round(self, round_seconds: float) -> dict[str, float]:
        """Stop recording and reduce the round's spans.

        Returns ``{layer_ms: ms}`` for every layer in :data:`LAYERS`,
        every count in :data:`COUNTS`, and ``bench.layer_coverage``: the
        share of the round that top-level spans cover.
        """
        self.active = False
        spans = self.spans
        child_seconds = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        counts = dict.fromkeys(COUNTS, 0)
        counts.update(self.counts)
        covered = 0.0
        for index, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            if parent < 0:
                covered += duration
            if name in SELF_TIME_LAYERS:
                totals[name] += duration - child_seconds[index]
            elif not self._inside_layer(parent, name):
                totals[name] += duration
                if name == "graph.build":
                    counts["graph.builds"] += 1
        out = {f"{layer}_ms": seconds * 1e3 for layer, seconds in totals.items()}
        out.update(counts)
        out["bench.layer_coverage"] = covered / round_seconds if round_seconds > 0 else 0.0
        self.spans = []
        return out

    def _inside_layer(self, parent: int, name: str) -> bool:
        spans = self.spans
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False
