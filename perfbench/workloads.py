"""The benchmark's two workloads.

Each workload is built from the seed in set-up and then runs identical
*rounds*: fixed units of work, called back to back by one caller (a
closed loop).  A round returns the program's output; :meth:`digest`
reduces it to the value every later round must reproduce, and
:meth:`reference_check` compares the fast paths with the reference
paths once per run.

Why these two (README.md has the layer map and the workloads dropped):

* ``paper-runtime`` is the paper's own loop: hill-climb profiling,
  Strategies 1-4 and the TensorFlow-recommended baseline on the four
  paper models on the 68-core KNL.  The fleet layers are idle.
* ``fleet-stream`` is a warm, lightly loaded 100-machine fleet on long
  jobs: round compression batches ~13 gang rounds per event, so the
  round measures the compressible fleet loop; the estimator only answers
  from its memo and first-fit placement is cheap.  Its set-up computes
  all 80 co-run estimates cold (profile, Strategy-3 ranking and step
  simulation of a merged graph per machine and mix), so its ``setup_s``
  measures the cold estimate path, where the paper layers work and the
  fleet loop is idle.

Synthetic job graphs are built from a fixed graph seed; the run's seed
drives the arrivals, job kinds and step counts.  Seeding the graphs too
changes each co-run step time, so the host work of a round and the
fleet's capacity (shed rate 0.49 vs 0.73 between two seeds on an
overloaded fleet) would swing with the seed instead of with the code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

from repro.api import DEFAULT_FLEET, quick_schedule
from repro.core.config import RuntimeConfig
from repro.core.runtime import TrainingRuntime
from repro.execsim.simulator import StepSimulator
from repro.fleet import (
    FleetSimulator,
    PoissonArrivals,
    ReplayArrivals,
    StepTimeEstimator,
)
from repro.fleet.simulator import DEFAULT_MAX_CORUN
from repro.hardware.knl import knl_machine
from repro.models.registry import build_model
from repro.sweep.executor import SweepExecutor

PAPER_MODELS = ("dcgan", "inception_v3", "lstm", "resnet50")

#: Jobs of each fleet input compared against the reference loop.
REFERENCE_JOBS = 300


def serial_executor() -> SweepExecutor:
    """One process, result cache disabled (the executor's default)."""
    return SweepExecutor("serial")


def fixed_graph_trace(arrivals: PoissonArrivals) -> tuple:
    """``arrivals`` with every job's graph seed moved to the seed-0 graphs."""
    return tuple(
        dataclasses.replace(job, graph_seed=job.graph_seed - arrivals.seed)
        for job in arrivals.jobs()
    )


class Workload:
    """Base class: set-up in ``__init__``, then identical rounds."""

    name: str
    #: Operations checked per round (schedules or offered jobs).
    items_per_round: int

    def run_round(self):
        raise NotImplementedError

    def digest(self, output) -> str:
        """The round's deterministic output; raises on a broken invariant."""
        raise NotImplementedError

    def sim_metrics(self, output) -> dict[str, float]:
        """Simulated figures of one round (``sim_makespan_s`` first)."""
        raise NotImplementedError

    def reference_check(self, output) -> bool:
        """Fast path == reference path, on part of the input, once per run."""
        raise NotImplementedError


class PaperRuntime(Workload):
    name = "paper-runtime"

    def __init__(self, seed: int, *, models: tuple[str, ...] = PAPER_MODELS) -> None:
        self.seed = seed
        self.models = models
        self.config = RuntimeConfig(seed=seed)
        self.items_per_round = len(models)

    def run_round(self):
        return [quick_schedule(model, config=self.config) for model in self.models]

    def digest(self, output) -> str:
        return json.dumps(
            [
                [o.model, o.step_time, o.recommendation_time, o.profiling_signatures]
                for o in output
            ]
        )

    def sim_metrics(self, output) -> dict[str, float]:
        speedups = [o.speedup_vs_recommendation for o in output]
        return {
            "sim_makespan_s": sum(o.step_time for o in output),
            "sim_speedup_geomean": math.exp(sum(map(math.log, speedups)) / len(speedups)),
        }

    def reference_check(self, output) -> bool:
        """The incremental step simulator matches the reference within 1e-9
        on the first model, and both match the round's step time."""
        model = self.models[0]
        machine = knl_machine()
        graph = build_model(model)
        runtime = TrainingRuntime(machine, self.config)
        profile = runtime.profile(graph)
        fast = StepSimulator(machine, seed=self.config.seed).run_step(
            graph, runtime.build_policy(profile)
        )
        reference = StepSimulator(machine, seed=self.config.seed, incremental=False).run_step(
            graph, runtime.build_policy(profile)
        )
        expected = output[0].step_time
        return abs(fast.step_time - reference.step_time) <= 1e-9 and abs(
            fast.step_time - expected
        ) <= 1e-9


class FleetStream(Workload):
    """A warm, lightly loaded 100-machine fleet on long jobs.

    A serial, uncached :class:`FleetSimulator` per round; the rounds share
    one step-time estimator whose memo set-up fills with every
    (machine, mix) of up to two jobs, so no round computes an estimate.
    """

    name = "fleet-stream"

    def __init__(
        self, seed: int, *, num_jobs: int = 10_000, machines=DEFAULT_FLEET * 20
    ) -> None:
        self.machines = machines
        arrivals = PoissonArrivals(
            num_jobs=num_jobs, seed=seed, mean_interarrival=1.0, min_steps=30, max_steps=100
        )
        self.trace = fixed_graph_trace(arrivals)
        self.arrivals = ReplayArrivals(self.trace)
        self.items_per_round = num_jobs
        self.estimator = StepTimeEstimator(executor=serial_executor())
        self.estimator.prewarm(machines, self.trace, max_corun=DEFAULT_MAX_CORUN)

    def simulator(self, *, compressed: bool = True) -> FleetSimulator:
        return FleetSimulator(
            self.machines,
            policy="first-fit",
            executor=serial_executor(),
            estimator=self.estimator,
            compressed=compressed,
        )

    def run_round(self):
        return self.simulator().run(self.arrivals)

    def digest(self, output) -> str:
        ended = len(output.completions) + len(output.failures) + len(output.rejections)
        if ended != output.num_jobs or output.num_jobs != self.items_per_round:
            raise AssertionError(
                f"{ended} jobs ended of {output.num_jobs} offered "
                f"({self.items_per_round} in the trace)"
            )
        payload = json.dumps(output.to_dict(include_overhead=False), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def sim_metrics(self, output) -> dict[str, float]:
        return {
            "sim_makespan_s": output.makespan,
            "sim_p99_wait_s": output.wait_percentiles.get("p99", 0.0),
        }

    def reference_check(self, output) -> bool:
        """Compressed and reference loops agree byte for byte on the first
        :data:`REFERENCE_JOBS` jobs."""
        jobs = ReplayArrivals(self.trace[:REFERENCE_JOBS])
        fast = self.simulator().run(jobs)
        reference = self.simulator(compressed=False).run(jobs)
        return fast.to_dict(include_overhead=False) == reference.to_dict(
            include_overhead=False
        )


WORKLOADS: dict[str, type[Workload]] = {cls.name: cls for cls in (PaperRuntime, FleetStream)}

#: Small sizes for the benchmark's self-tests.
TINY: dict[str, dict] = {
    "paper-runtime": {"models": ("dcgan",)},
    "fleet-stream": {"num_jobs": 60, "machines": ("desktop-8c",) * 20},
}
