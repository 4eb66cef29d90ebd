"""Tests for the end-to-end runtime, baselines, profiling views and API."""

from __future__ import annotations

import pytest

from repro.api import available_models, build_model_graph, default_machine, quick_schedule
from repro.baselines.manual_opt import ManualOptimizer
from repro.baselines.tf_default import UniformPolicy, default_policy, recommended_policy
from repro.core.config import RuntimeConfig
from repro.core.hill_climbing import HillClimbingModel
from repro.core.runtime import TrainingRuntime
from repro.execsim.simulator import StepSimulator
from repro.models import build_model
from repro.profiling.profiler import StepProfiler
from repro.profiling.reports import format_op_type_report, format_timeline
from repro.profiling.timeline import Timeline


@pytest.fixture(scope="module")
def reduced_resnet():
    return build_model("resnet50", stage_blocks=(1, 1, 1, 1))


@pytest.fixture(scope="module")
def reduced_lstm():
    return build_model("lstm", num_steps=4)


class TestBaselines:
    def test_recommended_policy_settings(self, knl):
        policy = recommended_policy(knl)
        assert policy.intra_op == 68
        assert policy.inter_op == 1

    def test_default_policy_oversubscribes(self, knl):
        policy = default_policy(knl)
        assert policy.intra_op == 272
        assert policy.inter_op == 272

    def test_tf_default_much_slower_than_recommendation(self, knl, reduced_resnet):
        """The paper notes the out-of-the-box default is far slower."""
        sim = StepSimulator(knl)
        rec = sim.run_step(reduced_resnet, recommended_policy(knl))
        default = sim.run_step(reduced_resnet, default_policy(knl))
        assert default.step_time > rec.step_time * 2

    def test_uniform_policy_validation(self):
        with pytest.raises(ValueError):
            UniformPolicy(0, 1)
        with pytest.raises(ValueError):
            UniformPolicy(1, 0)

    def test_manual_optimizer_finds_no_worse_than_recommendation(self, knl, reduced_resnet):
        sim = StepSimulator(knl)
        rec = sim.run_step(reduced_resnet, recommended_policy(knl))
        optimizer = ManualOptimizer(knl, intra_candidates=(34, 68), inter_candidates=(1, 2))
        search = optimizer.search(reduced_resnet, simulator=sim)
        assert search.best_time <= rec.step_time * 1.001
        assert search.configurations_tried == 4
        best = optimizer.best_step(reduced_resnet, simulator=sim)
        assert best.step_time == pytest.approx(search.best_time, rel=0.05)

    def test_manual_optimizer_validation(self, knl):
        with pytest.raises(ValueError):
            ManualOptimizer(knl, intra_candidates=(), inter_candidates=(1,))
        with pytest.raises(ValueError):
            ManualOptimizer(knl, intra_candidates=(0,), inter_candidates=(1,))


class TestTrainingRuntime:
    def test_report_speedup_over_recommendation(self, knl, reduced_resnet):
        runtime = TrainingRuntime(knl)
        report = runtime.run(reduced_resnet)
        assert report.speedup_vs_recommendation > 1.0
        assert report.profiling_signatures > 10
        assert report.step_time > 0

    def test_strategy_ladder_is_monotone(self, knl, reduced_resnet):
        """Each additional strategy must not slow the step down (much)."""
        runtime = TrainingRuntime(knl)
        comparison = runtime.compare_strategies(reduced_resnet)
        assert comparison.strategies_1_2 <= comparison.recommendation * 1.02
        assert comparison.strategies_1_2_3 <= comparison.strategies_1_2 * 1.02
        assert comparison.all_strategies <= comparison.strategies_1_2_3 * 1.05

    def test_ours_at_least_matches_manual(self, knl, reduced_resnet):
        runtime = TrainingRuntime(knl)
        comparison = runtime.compare_strategies(
            reduced_resnet,
            include_manual=True,
            manual_optimizer=ManualOptimizer(
                knl, intra_candidates=(16, 34, 68), inter_candidates=(1, 2, 4)
            ),
        )
        speedups = comparison.speedups_vs_recommendation()
        assert speedups["all_strategies"] >= speedups["manual"] * 0.95

    def test_lstm_benefits_from_concurrency_control(self, knl, reduced_lstm):
        """LSTM's small ops make per-op thread selection itself valuable."""
        runtime = TrainingRuntime(knl)
        comparison = runtime.compare_strategies(reduced_lstm)
        increments = comparison.incremental_speedups()
        assert increments["strategies_1_2_vs_recommendation"] > 1.1

    def test_num_steps_validation(self, knl, reduced_resnet):
        runtime = TrainingRuntime(knl)
        with pytest.raises(ValueError):
            runtime.run(reduced_resnet, num_steps=0)

    def test_profiling_overhead_is_small(self, knl, reduced_resnet):
        """The profiling steps are a negligible fraction of a real training
        run (the paper: < 0.05% of steps)."""
        runtime = TrainingRuntime(knl)
        model = runtime.profile(reduced_resnet)
        assert model.profiling_steps_used() < 60  # out of thousands of steps


class TestProfilingViews:
    @pytest.fixture(scope="class")
    def trace(self, knl, reduced_resnet):
        sim = StepSimulator(knl)
        return sim.run_step(reduced_resnet, recommended_policy(knl)).trace

    def test_top_op_types_ordering(self, trace):
        profiler = StepProfiler(trace)
        top = profiler.top_op_types(5)
        assert len(top) == 5
        totals = [s.total_time for s in top]
        assert totals == sorted(totals, reverse=True)

    def test_conv_backprop_among_top_ops(self, trace):
        """Table VI: convolution gradients dominate the CNN profiles."""
        profiler = StepProfiler(trace)
        top_names = [s.op_type for s in profiler.top_op_types(5)]
        assert any("Conv2D" in name for name in top_names)

    def test_total_time_of_missing_type(self, trace):
        assert StepProfiler(trace).total_time_of("DoesNotExist") == 0.0

    def test_timeline_lanes_consistent(self, trace):
        timeline = Timeline(trace)
        assert timeline.num_lanes >= 1
        # Entries in one lane never overlap.
        by_lane: dict[int, list] = {}
        for entry in timeline.entries:
            by_lane.setdefault(entry.lane, []).append(entry)
        for entries in by_lane.values():
            entries.sort(key=lambda e: e.start)
            for a, b in zip(entries, entries[1:]):
                assert b.start >= a.end - 1e-12

    def test_timeline_queries(self, trace):
        timeline = Timeline(trace)
        first = timeline.entries[0]
        assert timeline.concurrency_at(first.start + first.duration / 2) >= 1
        assert timeline.between(first.start, first.end)
        with pytest.raises(ValueError):
            timeline.between(1.0, 0.5)

    def test_reports_render(self, trace):
        profiler = StepProfiler(trace)
        report = format_op_type_report(profiler, top=5)
        assert "op type" in report
        timeline_report = format_timeline(Timeline(trace), limit=10)
        assert "lane" in timeline_report


class TestApi:
    def test_available_models(self):
        assert "resnet50" in available_models()

    def test_build_model_graph(self):
        graph = build_model_graph("dcgan", batch_size=8)
        assert len(graph) > 50

    def test_default_machine_is_knl(self):
        assert default_machine().topology.num_cores == 68

    def test_quick_schedule_reduced_model(self):
        outcome = quick_schedule("resnet50", stage_blocks=(1, 1, 1, 1))
        assert outcome.speedup_vs_recommendation > 1.0
        assert "speedup" in str(outcome)


#: ``quick_schedule(m, config=RuntimeConfig(seed=0))`` on the KNL node:
#: (step_time, recommendation_time, profiling_signatures).  The runtime's
#: hot-path memos must not move these.
SCHEDULE_PINS = {
    "dcgan": (1.3357780525940042, 2.0985605152733227, 90),
    "inception_v3": (2.374676769900833, 4.879882808637417, 282),
    "lstm": (0.055500481237185637, 0.14553424794070763, 26),
    "resnet50": (2.104977653829349, 3.9121440596344264, 178),
}


class TestSchedulePins:
    @pytest.mark.parametrize("model", sorted(SCHEDULE_PINS))
    def test_quick_schedule_matches_pinned_figures(self, model):
        step_time, recommendation_time, signatures = SCHEDULE_PINS[model]
        outcome = quick_schedule(model, config=RuntimeConfig(seed=0))
        assert abs(outcome.step_time - step_time) <= 1e-12
        assert abs(outcome.recommendation_time - recommendation_time) <= 1e-12
        assert outcome.profiling_signatures == signatures

    def test_rankings_are_computed_once_per_signature_and_count(self, monkeypatch):
        """One schedule ranks each (signature, k) at most once per runtime."""
        predict_all = HillClimbingModel.predict_all
        top_configurations = HillClimbingModel.top_configurations
        evaluations: dict[tuple[int, object], int] = {}
        counts_asked: dict[tuple[int, object], set[int]] = {}
        rankings = 0

        def counting_predict_all(self, signature):
            key = (id(self), signature)
            evaluations[key] = evaluations.get(key, 0) + 1
            return predict_all(self, signature)

        def counting_top_configurations(self, signature, count):
            nonlocal rankings
            rankings += 1
            counts_asked.setdefault((id(self), signature), set()).add(count)
            return top_configurations(self, signature, count)

        monkeypatch.setattr(HillClimbingModel, "predict_all", counting_predict_all)
        monkeypatch.setattr(HillClimbingModel, "top_configurations", counting_top_configurations)
        quick_schedule("dcgan", config=RuntimeConfig(seed=0))
        assert evaluations
        assert set(evaluations) <= set(counts_asked)
        for key, calls in evaluations.items():
            assert calls <= len(counts_asked[key]), key
        assert rankings > sum(evaluations.values())
