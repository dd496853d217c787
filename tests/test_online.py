"""Online subsystem tests: traces, churn scenarios, warm starts, run_trace.

The acceptance bar for the warm-start machinery (pinned here as
property tests): seeded ``search_steps(initial_mapping=...)`` at equal
budget is result-identical to a cold search when seeded with that
search's own elite, and never returns a worse estimated reward than
its seed.
"""

import json

import numpy as np
import pytest

from repro.builder import SystemBuilder
from repro.core import MCTSConfig, MonteCarloTreeSearch, SchedulingEnv
from repro.core.scheduler import OmniBoostScheduler
from repro.evaluation import TimelineReport, write_timeline_json
from repro.fleet import PlacementError
from repro.online import OnlineConfig, OnlineScheduler
from repro.service import SchedulingService
from repro.workloads import (
    ArrivalEvent,
    ArrivalTrace,
    TraceBuilder,
    TraceConfig,
    Workload,
    churn_scenario,
    churn_scenario_names,
    generate_trace,
)
from repro.workloads.generator import random_contiguous_mapping


def _hash_reward(mapping):
    return float(hash(mapping) % 1000) / 1000.0


# ----------------------------------------------------------------------
# ArrivalTrace / TraceBuilder
# ----------------------------------------------------------------------
class TestArrivalTrace:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            ArrivalEvent(1.0, "teleport", "t0", "alexnet")
        with pytest.raises(ValueError):
            ArrivalEvent(-1.0, "arrival", "t0", "alexnet")

    def test_rejects_unordered_events(self):
        with pytest.raises(ValueError, match="time-ordered"):
            ArrivalTrace(
                [
                    ArrivalEvent(5.0, "arrival", "t0", "alexnet"),
                    ArrivalEvent(1.0, "arrival", "t1", "vgg19"),
                ]
            )

    def test_rejects_concurrent_duplicate_models(self):
        with pytest.raises(ValueError, match="already active"):
            ArrivalTrace(
                [
                    ArrivalEvent(0.0, "arrival", "t0", "alexnet"),
                    ArrivalEvent(1.0, "arrival", "t1", "alexnet"),
                ]
            )

    def test_rejects_unmatched_departure(self):
        with pytest.raises(ValueError, match="unknown tenant"):
            ArrivalTrace([ArrivalEvent(0.0, "departure", "ghost", "vgg19")])

    def test_rejects_departure_with_mismatched_model(self):
        """Regression: a hand-edited trace whose departure names a
        different model than the arrival must not pass validation (it
        would silently corrupt every downstream timeline record)."""
        with pytest.raises(ValueError, match="arrived as"):
            ArrivalTrace(
                [
                    ArrivalEvent(0.0, "arrival", "t0", "mobilenet"),
                    ArrivalEvent(1.0, "departure", "t0", "vgg19"),
                ]
            )

    def test_model_reusable_after_departure(self):
        trace = ArrivalTrace(
            [
                ArrivalEvent(0.0, "arrival", "t0", "alexnet"),
                ArrivalEvent(1.0, "departure", "t0", "alexnet"),
                ArrivalEvent(2.0, "arrival", "t1", "alexnet"),
            ]
        )
        assert len(trace) == 3

    def test_grouped_coalesces_identical_timestamps(self):
        builder = TraceBuilder()
        builder.add(0.0, "alexnet", lifetime_s=10.0)
        builder.add(5.0, "vgg19", lifetime_s=10.0)
        builder.add(5.0, "mobilenet", lifetime_s=10.0)
        trace = builder.finish()
        groups = trace.grouped()
        assert [len(group) for group in groups] == [1, 2, 1, 2]
        assert {event.model for event in groups[1]} == {"vgg19", "mobilenet"}

    def test_truncated(self):
        trace = churn_scenario("bursty")
        short = trace.truncated(5)
        assert len(short) == 5
        assert short.events == trace.events[:5]

    def test_json_roundtrip(self, tmp_path):
        trace = churn_scenario("diurnal", seed=3)
        path = str(tmp_path / "trace.json")
        trace.to_json(path)
        assert ArrivalTrace.from_json(path) == trace

    def test_builder_drops_resident_duplicates_and_over_cap(self):
        builder = TraceBuilder(max_concurrent=2)
        assert builder.add(0.0, "alexnet", lifetime_s=10.0) is not None
        assert builder.add(1.0, "alexnet", lifetime_s=10.0) is None
        assert builder.add(2.0, "vgg19", lifetime_s=10.0) is not None
        assert builder.add(3.0, "mobilenet", lifetime_s=10.0) is None


class TestGenerateTrace:
    CONFIG = TraceConfig(
        arrival_rate=0.5,
        min_lifetime_s=3.0,
        max_lifetime_s=12.0,
        horizon_s=50.0,
        max_concurrent=4,
        priorities=(0, 2),
        seed=11,
    )

    def test_deterministic(self):
        assert generate_trace(self.CONFIG) == generate_trace(self.CONFIG)

    def test_config_overrides(self):
        other = generate_trace(self.CONFIG, seed=12)
        assert other != generate_trace(self.CONFIG)

    def test_invariants(self):
        trace = generate_trace(self.CONFIG)
        arrivals = {
            e.tenant_id: e for e in trace if e.kind == "arrival"
        }
        departures = {
            e.tenant_id: e for e in trace if e.kind == "departure"
        }
        # Bounded lifetimes, and every tenant drains out.
        assert set(departures) == set(arrivals)
        for tenant_id, departure in departures.items():
            lifetime = departure.time_s - arrivals[tenant_id].time_s
            assert 3.0 <= lifetime <= 12.0
        assert all(e.priority in (0, 2) for e in trace)
        assert all(
            e.time_s < 50.0 for e in trace if e.kind == "arrival"
        )
        assert trace.max_concurrency <= 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(arrival_rate=0.0)
        with pytest.raises(ValueError):
            TraceConfig(min_lifetime_s=5.0, max_lifetime_s=1.0)
        with pytest.raises(ValueError):
            TraceConfig(priorities=(0,), priority_weights=(0.5, 0.5))


class TestChurnScenarios:
    def test_names(self):
        assert churn_scenario_names() == [
            "bursty",
            "diurnal",
            "priority-inversion",
            "steady-drain",
            "priority-storm",
            "slo-squeeze",
            "estimator-brownout",
        ]

    @pytest.mark.parametrize("name", churn_scenario_names())
    def test_nonempty_and_deterministic(self, name):
        trace = churn_scenario(name, seed=0)
        assert len(trace) > 0
        assert trace == churn_scenario(name, seed=0)
        assert trace.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            churn_scenario("tsunami")

    def test_bursty_has_simultaneous_arrivals(self):
        groups = churn_scenario("bursty").grouped()
        assert any(len(group) >= 2 for group in groups)

    def test_priority_inversion_mixes_priorities(self):
        priorities = {e.priority for e in churn_scenario("priority-inversion")}
        assert priorities == {0, 2}

    def test_steady_drain_ends_empty(self):
        trace = churn_scenario("steady-drain")
        arrivals = [e for e in trace if e.kind == "arrival"]
        assert all(e.time_s < 15.0 for e in arrivals)
        assert len(arrivals) == len(trace) - len(arrivals)  # all drain
        assert trace.events[-1].kind == "departure"


# ----------------------------------------------------------------------
# Warm-started search properties (synthetic deterministic rewards)
# ----------------------------------------------------------------------
class TestWarmStartSearch:
    @pytest.fixture()
    def env(self):
        return SchedulingEnv(Workload.from_names(["alexnet", "mobilenet"]), 3)

    def test_identity_with_cold_elite(self, env):
        """Seeding a search with the cold search's own elite at equal
        budget returns the identical mapping and reward (the budgeted
        loop is step-identical; the seed only raises the incumbent)."""
        for seed in (0, 7, 23):
            config = MCTSConfig(budget=60, seed=seed)
            cold = MonteCarloTreeSearch(env, _hash_reward, config).search()
            warm = MonteCarloTreeSearch(env, _hash_reward, config).search(
                initial_mapping=cold.mapping
            )
            assert warm.mapping == cold.mapping
            assert warm.reward == cold.reward

    def test_never_worse_than_seed(self, env, rng):
        """Even a tiny-budget warm search never returns a reward below
        its seed's — the seed settles as the incumbent first."""
        for trial in range(12):
            seed_mapping = random_contiguous_mapping(
                env.workload.models, 3, rng
            )
            result = MonteCarloTreeSearch(
                env, _hash_reward, MCTSConfig(budget=4, seed=trial)
            ).search(initial_mapping=seed_mapping)
            assert result.reward >= _hash_reward(seed_mapping)
            assert result.seed_reward == _hash_reward(seed_mapping)

    def test_seed_recorded_as_iteration_zero(self, env):
        result = MonteCarloTreeSearch(
            env, _hash_reward, MCTSConfig(budget=10)
        ).search(initial_mapping=Mapping_single(env))
        assert result.improvements[0][0] == 0
        assert result.seed_reward is not None

    def test_seed_counts_one_evaluation(self, env):
        config = MCTSConfig(budget=30, seed=3)
        cold = MonteCarloTreeSearch(env, _hash_reward, config).search()
        warm = MonteCarloTreeSearch(env, _hash_reward, config).search(
            initial_mapping=cold.mapping
        )
        assert warm.evaluations == cold.evaluations + 1

    def test_invalid_seed_rejected(self, env):
        from repro.sim import Mapping

        wrong_rows = Mapping([[0] * 8])  # one row for a two-DNN mix
        with pytest.raises(ValueError):
            MonteCarloTreeSearch(
                env, _hash_reward, MCTSConfig(budget=5)
            ).search(initial_mapping=wrong_rows)

    def test_stage_cap_breaching_seed_rejected(self):
        from repro.sim import Mapping

        env = SchedulingEnv(
            Workload.from_names(["alexnet"]), 3, stage_cap=1
        )
        zigzag = Mapping([[0, 1, 0, 1, 0, 1, 0, 1]])
        with pytest.raises(ValueError, match="stage"):
            MonteCarloTreeSearch(
                env, _hash_reward, MCTSConfig(budget=5)
            ).search(initial_mapping=zigzag)

    def test_patience_stops_early(self, env):
        result = MonteCarloTreeSearch(
            env, lambda m: 0.5, MCTSConfig(budget=300, seed=1)
        ).search(patience=40)
        # Constant rewards: the only improvement is the first
        # evaluation, so the loop stops at iteration 1 + patience.
        assert result.stopped_early
        assert result.iterations < 300
        assert result.iterations <= 41 + 1

    def test_patience_flushes_open_microbatch_before_stopping(self, env):
        """Regression: with a large ``eval_batch_size`` the improving
        rollouts sit unsettled in the open micro-batch; the patience
        check must flush it and keep going, not stop on the stale
        counter while the search is still improving every rollout."""
        calls = {}

        def improving(mapping):  # distinct leaves score ever higher
            calls.setdefault(mapping, len(calls))
            return float(calls[mapping])

        result = MonteCarloTreeSearch(
            env,
            improving,
            MCTSConfig(budget=300, seed=2, eval_batch_size=64),
        ).search(patience=40)
        assert result.iterations == 300
        assert not result.stopped_early

    def test_no_patience_runs_full_budget(self, env):
        result = MonteCarloTreeSearch(
            env, lambda m: 0.5, MCTSConfig(budget=50, seed=1)
        ).search()
        assert result.iterations == 50
        assert not result.stopped_early

    def test_patience_validation(self, env):
        with pytest.raises(ValueError):
            next(
                MonteCarloTreeSearch(
                    env, _hash_reward, MCTSConfig(budget=5)
                ).search_steps(patience=0)
            )


def Mapping_single(env):
    from repro.sim import Mapping

    return Mapping(
        [[0] * model.num_layers for model in env.workload.models]
    )


# ----------------------------------------------------------------------
# OnlineScheduler (real estimator, tiny budget)
# ----------------------------------------------------------------------
class TestOnlineScheduler:
    @pytest.fixture()
    def online(self, trained_estimator):
        scheduler = OmniBoostScheduler(
            trained_estimator, config=MCTSConfig(budget=25, seed=3)
        )
        return OnlineScheduler(
            scheduler, OnlineConfig(warm_patience=10, min_overlap=0.5)
        )

    def test_requires_omniboost(self):
        from repro.baselines.gpu_only import SingleDeviceScheduler

        with pytest.raises(TypeError):
            OnlineScheduler(SingleDeviceScheduler(0))

    def test_empty_board_plans_nothing(self, online):
        assert online.plan() is None

    def test_first_plan_is_cold(self, online):
        online.apply(ArrivalEvent(0.0, "arrival", "t0", "alexnet"))
        outcome = online.plan()
        assert outcome.mode == "cold"
        assert outcome.seed_reward is None
        outcome.mapping.validate(outcome.workload.models, 3)

    def test_arrival_warm_starts_with_completion(self, online):
        online.apply(ArrivalEvent(0.0, "arrival", "t0", "alexnet"))
        online.plan()
        online.apply(ArrivalEvent(1.0, "arrival", "t1", "mobilenet"))
        outcome = online.plan()
        assert outcome.mode == "warm"
        # One greedy completion pass: num_devices candidates.
        assert outcome.completion_evaluations == 3
        assert outcome.seed_reward is not None
        assert outcome.expected_score >= outcome.seed_reward
        outcome.mapping.validate(outcome.workload.models, 3)

    def test_departure_warm_starts_without_completion(self, online):
        online.apply(ArrivalEvent(0.0, "arrival", "t0", "alexnet"))
        online.apply(ArrivalEvent(0.5, "arrival", "t1", "mobilenet"))
        online.plan()
        online.apply(ArrivalEvent(2.0, "departure", "t1", "mobilenet"))
        outcome = online.plan()
        assert outcome.mode == "warm"
        assert outcome.completion_evaluations == 0
        # Freed capacity was re-offered: the greedy refinement rounds
        # ran (at least the seed evaluation plus one neighbourhood).
        assert outcome.refinement_evaluations > 1
        assert outcome.expected_score >= outcome.seed_reward
        cost = outcome.decision.cost
        assert cost["refinement_evaluations"] == outcome.refinement_evaluations
        assert cost["estimator_queries"] >= outcome.refinement_evaluations

    def test_refinement_disabled(self, trained_estimator):
        scheduler = OmniBoostScheduler(
            trained_estimator, config=MCTSConfig(budget=20, seed=3)
        )
        online = OnlineScheduler(
            scheduler, OnlineConfig(warm_patience=10, refine_rounds=0)
        )
        online.apply(ArrivalEvent(0.0, "arrival", "t0", "alexnet"))
        online.plan()
        online.apply(ArrivalEvent(0.5, "arrival", "t1", "mobilenet"))
        outcome = online.plan()
        assert outcome.mode == "warm"
        assert outcome.refinement_evaluations == 0

    def test_low_overlap_falls_back_to_cold(self, online):
        online.apply(ArrivalEvent(0.0, "arrival", "t0", "alexnet"))
        online.plan()
        online.apply(ArrivalEvent(1.0, "departure", "t0", "alexnet"))
        online.apply(ArrivalEvent(2.0, "arrival", "t1", "mobilenet"))
        # No retained row covers the new mix: cold search.
        outcome = online.plan()
        assert outcome.mode == "cold"

    def test_warm_disabled_always_cold(self, trained_estimator):
        scheduler = OmniBoostScheduler(
            trained_estimator, config=MCTSConfig(budget=20, seed=3)
        )
        online = OnlineScheduler(scheduler, OnlineConfig(warm=False))
        online.apply(ArrivalEvent(0.0, "arrival", "t0", "alexnet"))
        online.plan()
        online.apply(ArrivalEvent(1.0, "arrival", "t1", "mobilenet"))
        assert online.plan().mode == "cold"

    def test_apply_rejects_duplicates_and_unknowns(self, online):
        online.apply(ArrivalEvent(0.0, "arrival", "t0", "alexnet"))
        with pytest.raises(ValueError):
            online.apply(ArrivalEvent(1.0, "arrival", "t1", "alexnet"))
        with pytest.raises(KeyError):
            online.apply(ArrivalEvent(1.0, "departure", "ghost", "vgg19"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OnlineConfig(warm_patience=0)
        with pytest.raises(ValueError):
            OnlineConfig(min_overlap=0.0)
        with pytest.raises(ValueError):
            OnlineConfig(warm_budget=0)
        with pytest.raises(ValueError):
            OnlineConfig(refine_rounds=-1)


# ----------------------------------------------------------------------
# SchedulingService.run_trace
# ----------------------------------------------------------------------
def _make_service() -> SchedulingService:
    builder = (
        SystemBuilder(seed=29)
        .with_estimator(num_training_samples=40, epochs=3)
        .with_mcts_config(MCTSConfig(budget=40, seed=13))
    )
    return SchedulingService(builder)


@pytest.fixture(scope="module")
def trace_run():
    service = _make_service()
    trace = churn_scenario("bursty", seed=1).truncated(10)
    report = service.run_trace(
        trace, online=OnlineConfig(warm_patience=15), record_mappings=True
    )
    return service, trace, report


class TestRunTrace:
    def test_one_record_per_event(self, trace_run):
        _, trace, report = trace_run
        assert len(report.records) == len(trace)
        for event, record in zip(trace, report.records):
            assert record.kind == event.kind
            assert record.tenant_id == event.tenant_id
            assert record.model == event.model
            assert record.priority == event.priority

    def test_warm_and_valid_mappings(self, trace_run):
        _, trace, report = trace_run
        modes = {record.mode for record in report.records}
        assert "warm" in modes
        for record in report.records:
            if record.mode == "idle":
                continue
            workload = Workload.from_names(record.active_models)
            from repro.sim import Mapping

            Mapping(list(record.mapping_rows)).validate(workload.models, 3)

    def test_burst_events_each_get_a_record(self, trace_run):
        _, trace, report = trace_run
        groups = trace.grouped()
        burst = next(group for group in groups if len(group) >= 2)
        times = [record.time_s for record in report.records]
        assert times.count(burst[0].time_s) == len(burst)

    def test_service_counters(self, trace_run):
        service, trace, report = trace_run
        stats = service.stats()
        assert stats.trace_events == len(trace)
        assert stats.trace_reschedules > 0
        assert stats.trace_warm_reschedules > 0
        assert stats.pooled_eval_batches > 0
        assert stats.estimator_queries > 0
        assert sum(stats.requests_by_priority.values()) == (
            stats.trace_reschedules
        )
        for priority, count in stats.requests_by_priority.items():
            assert stats.mean_wait_s(priority) > 0
            assert count > 0

    def test_report_aggregates(self, trace_run):
        _, _, report = trace_run
        assert report.warm_fraction > 0
        assert report.total_reschedule_time_s > 0
        assert report.makespan_s >= 0
        assert report.per_priority_latency()
        assert "warm" in report.summary()
        assert report.event_table()

    def test_json_roundtrip(self, trace_run, tmp_path):
        _, trace, report = trace_run
        path = str(tmp_path / "timeline.json")
        write_timeline_json(report, path)
        with open(path) as handle:
            payload = json.load(handle)
        assert len(payload["events"]) == len(trace)
        assert payload["trace_name"] == "bursty"
        assert 0 <= payload["warm_fraction"] <= 1

    def test_run_trace_requires_omniboost(self):
        service = SchedulingService(SystemBuilder(seed=29), scheduler="baseline")
        with pytest.raises(TypeError):
            service.run_trace(churn_scenario("steady-drain").truncated(2))

    def test_over_capacity_trace_raises(self):
        """A sixth concurrent DNN on a five-resident HiKey970 fails
        loudly instead of planning a mix the board cannot hold."""
        names = ["alexnet", "mobilenet", "squeezenet", "resnet34",
                 "resnet50", "vgg13"]
        trace = ArrivalTrace(
            [
                ArrivalEvent(float(index), "arrival", f"t{index}", name)
                for index, name in enumerate(names)
            ]
        )
        with pytest.raises(PlacementError, match="cannot host"):
            _make_service().run_trace(trace)

    def test_drain_to_empty_records_idle(self):
        service = _make_service()
        trace = ArrivalTrace(
            [
                ArrivalEvent(0.0, "arrival", "t0", "alexnet"),
                ArrivalEvent(1.0, "departure", "t0", "alexnet"),
            ]
        )
        report = service.run_trace(trace)
        assert report.records[0].mode == "cold"
        assert report.records[1].mode == "idle"
        assert report.records[1].expected_score is None
