"""Regression tests: bisect-based HillClimbingModel.predict.

``predict`` was rewritten from a per-call dict rebuild plus linear
bracket scan to cached sorted arrays plus ``bisect``.  These tests pin
the new implementation to a verbatim copy of the original algorithm
across every feasible configuration, including the extrapolation band
beyond the climb's stopping point.
"""

from __future__ import annotations

import pytest

from repro.core.hill_climbing import HillClimbingModel, HillClimbingProfile
from repro.execsim.standalone import StandaloneRunner
from repro.graph.synthetic import synthetic_graph
from repro.hardware.affinity import AffinityMode

from tests.conftest import make_conv_op, make_elementwise_op


def _reference_predict(profile: HillClimbingProfile, threads: int, affinity: AffinityMode):
    """Verbatim copy of the seed implementation's interpolation."""
    counts = sorted(t for (t, a) in profile.samples if a is affinity)
    if not counts:
        raise KeyError("no samples")
    times = {c: profile.samples[(c, affinity)] for c in counts}
    if threads in times:
        return times[threads]
    if threads < counts[0]:
        return times[counts[0]]
    if threads > counts[-1]:
        if len(counts) == 1:
            return times[counts[0]]
        tail = counts[-3:] if len(counts) >= 3 else counts[-2:]
        slope = (times[tail[-1]] - times[tail[0]]) / (tail[-1] - tail[0])
        slope = max(slope, 0.0)
        last = times[counts[-1]]
        extrapolated = last + slope * (threads - counts[-1])
        return float(min(max(extrapolated, last * 0.8), last * 2.5))
    for lower, upper in zip(counts, counts[1:]):
        if lower <= threads <= upper:
            weight = (threads - lower) / (upper - lower)
            return times[lower] * (1 - weight) + times[upper] * weight
    raise AssertionError("unreachable")


def _profiled_model(knl, ops, interval=4):
    model = HillClimbingModel(knl, interval=interval)
    runner = StandaloneRunner(knl)
    for op in ops:
        model.profile_operation(op, runner)
    return model


class TestBisectPredictRegression:
    def test_identical_predictions_across_all_cases(self, knl):
        ops = [
            make_conv_op("Conv2D", (32, 8, 8, 384)),
            make_conv_op("Conv2DBackpropFilter", (32, 16, 16, 128)),
            make_elementwise_op("Mul", (32, 8, 8, 384)),
        ]
        model = _profiled_model(knl, ops)
        for op in ops:
            profile = model.profile_for(op.signature)
            for affinity in (AffinityMode.SPREAD, AffinityMode.SHARED):
                for threads in range(1, knl.topology.num_logical_cpus + 1):
                    expected = _reference_predict(profile, threads, affinity)
                    actual = model.predict(op.signature, threads, affinity)
                    assert actual == expected, (op.op_type, threads, affinity)

    def test_identical_on_synthetic_graph_signatures(self, knl):
        graph = synthetic_graph(120, seed=21)
        model = HillClimbingModel(knl, interval=8)
        runner = StandaloneRunner(knl)
        model.profile_graph(graph, runner)
        assert model.signatures
        for signature in model.signatures:
            profile = model.profile_for(signature)
            for affinity in (AffinityMode.SPREAD, AffinityMode.SHARED):
                for threads in (1, 2, 3, 7, 17, 34, 35, 68, 100, 272):
                    expected = _reference_predict(profile, threads, affinity)
                    actual = model.predict(signature, threads, affinity)
                    assert actual == expected, (str(signature), threads, affinity)

    def test_single_sample_profile(self, knl):
        profile = HillClimbingProfile(signature=make_conv_op().signature)
        profile.samples[(4, AffinityMode.SPREAD)] = 2.5
        model = HillClimbingModel(knl)
        model.add_profile(profile)
        sig = make_conv_op().signature
        assert model.predict(sig, 1, AffinityMode.SPREAD) == 2.5
        assert model.predict(sig, 4, AffinityMode.SPREAD) == 2.5
        assert model.predict(sig, 40, AffinityMode.SPREAD) == 2.5
        with pytest.raises(KeyError):
            model.predict(sig, 4, AffinityMode.SHARED)

    def test_table_invalidated_when_samples_grow(self, knl):
        """Profiling after a prediction must not serve a stale table."""
        profile = HillClimbingProfile(signature=make_conv_op().signature)
        profile.samples[(1, AffinityMode.SPREAD)] = 4.0
        profile.samples[(9, AffinityMode.SPREAD)] = 1.0
        model = HillClimbingModel(knl)
        model.add_profile(profile)
        sig = make_conv_op().signature
        assert model.predict(sig, 5, AffinityMode.SPREAD) == pytest.approx(2.5)
        profile.samples[(5, AffinityMode.SPREAD)] = 2.0
        assert model.predict(sig, 5, AffinityMode.SPREAD) == 2.0

    def test_in_place_replacement_needs_invalidate(self, knl):
        """Overwriting a sample's value requires an explicit invalidate."""
        profile = HillClimbingProfile(signature=make_conv_op().signature)
        profile.samples[(1, AffinityMode.SPREAD)] = 4.0
        profile.samples[(9, AffinityMode.SPREAD)] = 1.0
        model = HillClimbingModel(knl)
        model.add_profile(profile)
        sig = make_conv_op().signature
        assert model.predict(sig, 9, AffinityMode.SPREAD) == 1.0
        profile.samples[(9, AffinityMode.SPREAD)] = 3.0
        profile.invalidate_tables()
        assert model.predict(sig, 9, AffinityMode.SPREAD) == 3.0
        assert model.predict(sig, 5, AffinityMode.SPREAD) == pytest.approx(3.5)

    def test_invalid_inputs(self, knl):
        model = HillClimbingModel(knl)
        with pytest.raises(ValueError):
            model.predict(make_conv_op().signature, 0, AffinityMode.SPREAD)
        with pytest.raises(KeyError):
            model.predict(make_conv_op().signature, 4, AffinityMode.SPREAD)


def _fresh_ranking(model: HillClimbingModel, signature, count: int):
    """The ranking recomputed from scratch, bypassing the memo."""
    ranked = sorted(model.predict_all(signature).items(), key=lambda kv: kv[1])[:count]
    return [(t, a, time) for (t, a), time in ranked]


def _as_tuples(top):
    return [(c.threads, c.affinity, c.predicted_time) for c in top]


class TestTopConfigurationsMemo:
    """``top_configurations`` memoises its ranking on the profile."""

    def test_matches_fresh_ranking_after_construction(self, knl):
        ops = [make_conv_op("Conv2D", (32, 8, 8, 384)), make_elementwise_op("Mul", (32, 8, 8, 384))]
        model = _profiled_model(knl, ops)
        for op in ops:
            for k in (1, 3, 8):
                for _ in range(2):  # second call is served from the memo
                    top = model.top_configurations(op.signature, k)
                    assert _as_tuples(top) == _fresh_ranking(model, op.signature, k)

    def test_matches_fresh_ranking_after_samples_added(self, knl):
        profile = HillClimbingProfile(signature=make_conv_op().signature)
        profile.samples[(1, AffinityMode.SPREAD)] = 4.0
        profile.samples[(9, AffinityMode.SPREAD)] = 1.0
        profile.samples[(2, AffinityMode.SHARED)] = 3.0
        model = HillClimbingModel(knl)
        model.add_profile(profile)
        sig = profile.signature
        before = model.top_configurations(sig, 4)
        assert _as_tuples(before) == _fresh_ranking(model, sig, 4)
        profile.samples[(5, AffinityMode.SPREAD)] = 0.5
        after = model.top_configurations(sig, 4)
        assert _as_tuples(after) == _fresh_ranking(model, sig, 4)
        assert after[0].threads == 5 and after[0].predicted_time == 0.5
        assert after != before

    def test_matches_fresh_ranking_after_overwrite_and_invalidate(self, knl):
        profile = HillClimbingProfile(signature=make_conv_op().signature)
        profile.samples[(1, AffinityMode.SPREAD)] = 4.0
        profile.samples[(9, AffinityMode.SPREAD)] = 1.0
        profile.samples[(2, AffinityMode.SHARED)] = 3.0
        model = HillClimbingModel(knl)
        model.add_profile(profile)
        sig = profile.signature
        assert model.top_configurations(sig, 3)[0].threads == 9
        profile.samples[(9, AffinityMode.SPREAD)] = 9.0
        profile.invalidate_tables()
        top = model.top_configurations(sig, 3)
        assert _as_tuples(top) == _fresh_ranking(model, sig, 3)
        assert top[0].predicted_time < 9.0

    def test_returned_list_is_a_copy(self, knl):
        model = _profiled_model(knl, [make_conv_op()])
        sig = make_conv_op().signature
        first = model.top_configurations(sig, 3)
        expected = list(first)
        first.clear()
        assert model.top_configurations(sig, 3) == expected
        second = model.top_configurations(sig, 3)
        second.reverse()
        assert model.top_configurations(sig, 3) == expected

    def test_unknown_signature_and_bad_count(self, knl):
        model = HillClimbingModel(knl)
        with pytest.raises(KeyError):
            model.top_configurations(make_conv_op().signature, 3)
        model = _profiled_model(knl, [make_conv_op()])
        with pytest.raises(ValueError):
            model.top_configurations(make_conv_op().signature, 0)
