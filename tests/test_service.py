"""SchedulingService tests: cache, batching identity, request knobs.

The acceptance bar for the serving layer: ``schedule_many`` over a
batch of >= 8 mixes (with repeats) returns mappings identical to a
sequential per-request loop on an identically configured service, and
the repeated mixes produce a nonzero decision-cache hit rate.
"""

import dataclasses
import time

import pytest

from repro.builder import SystemBuilder
from repro.core import MCTSConfig, ScheduleRequest, ScheduleResponse
from repro.core.base import ScheduleDecision, Scheduler
from repro.service import SchedulingService, ServiceStats
from repro.sim import Mapping
from repro.workloads import Workload

#: >= 8 mixes, including an exact repeat (#4 of #0), a permuted repeat
#: (#5 of #0) and an exact repeat (#6 of #1).
MIX_NAMES = [
    ["alexnet", "mobilenet", "squeezenet"],
    ["vgg19", "resnet50", "alexnet"],
    ["mobilenet", "vgg16", "inception_v3"],
    ["squeezenet", "resnet34", "vgg13"],
    ["alexnet", "mobilenet", "squeezenet"],
    ["mobilenet", "alexnet", "squeezenet"],
    ["vgg19", "resnet50", "alexnet"],
    ["resnet50", "vgg19", "inception_v4"],
    ["alexnet", "resnet101", "mobilenet"],
]


def _make_service(**kwargs) -> SchedulingService:
    builder = (
        SystemBuilder(seed=29)
        .with_estimator(num_training_samples=40, epochs=3)
        .with_mcts_config(MCTSConfig(budget=50, seed=13))
    )
    return SchedulingService(builder, **kwargs)


def _requests():
    return [
        ScheduleRequest(workload=Workload.from_names(names), request_id=str(i))
        for i, names in enumerate(MIX_NAMES)
    ]


@pytest.fixture(scope="module")
def batch_run():
    """One batched run and one sequential run on twin services."""
    batched_service = _make_service()
    requests = _requests()
    batched = batched_service.schedule_many(requests)
    sequential_service = _make_service()
    sequential = [sequential_service.submit(request) for request in requests]
    return batched_service, requests, batched, sequential


class TestScheduleManyIdentity:
    def test_batch_size_is_at_least_eight(self, batch_run):
        _, requests, _, _ = batch_run
        assert len(requests) >= 8

    def test_mappings_identical_to_sequential_loop(self, batch_run):
        _, _, batched, sequential = batch_run
        for response_a, response_b in zip(batched, sequential):
            assert response_a.mapping == response_b.mapping

    def test_scores_identical_to_sequential_loop(self, batch_run):
        _, _, batched, sequential = batch_run
        for response_a, response_b in zip(batched, sequential):
            assert response_a.expected_score == response_b.expected_score

    def test_nonzero_cache_hit_rate_on_repeats(self, batch_run):
        service, _, batched, _ = batch_run
        stats = service.stats()
        assert stats.cache_hits == 3  # two exact + one permuted repeat
        assert stats.cache_hit_rate > 0
        assert [r.cache_status for r in batched].count("hit") == 3

    def test_responses_align_with_request_order(self, batch_run):
        _, requests, batched, _ = batch_run
        assert [r.request_id for r in batched] == [
            request.request_id for request in requests
        ]

    def test_evaluations_were_pooled(self, batch_run):
        service, _, _, _ = batch_run
        stats = service.stats()
        assert stats.pooled_eval_batches > 0
        # Six distinct searches ran concurrently: far fewer pooled
        # calls than total evaluations.
        assert stats.mean_pooled_batch_size > 1.5

    def test_permuted_repeat_realigns_rows(self, batch_run):
        _, requests, batched, _ = batch_run
        original, permuted = batched[0], batched[5]
        assert permuted.cache_status == "hit"
        permuted.mapping.validate(requests[5].workload.models, 3)
        # Same per-model rows, re-ordered to the permuted mix.
        assert permuted.mapping.assignments[0] == original.mapping.assignments[1]
        assert permuted.mapping.assignments[1] == original.mapping.assignments[0]

    def test_valid_mappings_everywhere(self, batch_run):
        _, requests, batched, _ = batch_run
        for request, response in zip(requests, batched):
            response.mapping.validate(request.workload.models, 3)

    def test_pooled_identical_to_solo_without_cache(self):
        """Pure pooling check: distinct mixes, cache disabled on both
        sides -- concurrent searches must equal standalone searches."""
        distinct = [_requests()[i] for i in (0, 1, 2, 7)]
        batched = _make_service(cache_decisions=False).schedule_many(distinct)
        solo_service = _make_service(cache_decisions=False)
        solo = [solo_service.submit(request) for request in distinct]
        for response_a, response_b in zip(batched, solo):
            assert response_a.mapping == response_b.mapping
            assert response_a.cache_status == "bypass"


class TestDecisionCache:
    def test_repeat_submit_hits(self):
        service = _make_service()
        mix = Workload.from_names(["alexnet", "mobilenet"])
        first = service.submit(mix)
        second = service.submit(mix)
        assert first.cache_status == "miss"
        assert second.cache_status == "hit"
        assert second.mapping == first.mapping
        assert service.stats().cache_hit_rate == 0.5

    def test_budget_is_part_of_the_key(self):
        service = _make_service()
        mix = Workload.from_names(["alexnet", "mobilenet"])
        service.submit(mix, budget=20)
        response = service.submit(mix, budget=30)
        assert response.cache_status == "miss"

    def test_constructor_objective_survives_pooling(self):
        """A scheduler built with an objective must be scored with it in
        the pooled path too -- not silently fall back to mean throughput."""
        from repro.core import OmniBoostScheduler, register_scheduler, unregister_scheduler
        from repro.core.objectives import SchedulingObjective

        class _Negated(SchedulingObjective):
            name = "negated"

            def score(self, workload, mapping, predicted):
                return -float(predicted.mean())

        register_scheduler(
            "negated-omniboost",
            lambda b: OmniBoostScheduler(
                b.estimator, config=b.mcts_config, objective=_Negated()
            ),
        )
        try:
            builder = (
                SystemBuilder(seed=29)
                .with_estimator(num_training_samples=40, epochs=3)
                .with_mcts_config(MCTSConfig(budget=40, seed=13))
            )
            service = SchedulingService(builder, scheduler="negated-omniboost")
            mix = Workload.from_names(["alexnet", "mobilenet"])
            response = service.submit(mix)
            direct = builder.build_scheduler("negated-omniboost").schedule(mix)
            assert response.expected_score < 0  # objective applied
            assert response.mapping == direct.mapping
            assert response.expected_score == direct.expected_score
        finally:
            unregister_scheduler("negated-omniboost")

    def test_objective_override_bypasses_cache(self):
        from repro.core import ThroughputObjective

        service = _make_service()
        mix = Workload.from_names(["alexnet", "mobilenet"])
        response = service.submit(mix, objective=ThroughputObjective())
        assert response.cache_status == "bypass"
        assert service.stats().cache_bypasses == 1

    def test_clear_cache(self):
        service = _make_service()
        mix = Workload.from_names(["alexnet", "mobilenet"])
        service.submit(mix)
        assert service.clear_cache() == 1
        assert service.submit(mix).cache_status == "miss"

    def test_cache_disabled_service_never_hits(self):
        service = _make_service(cache_decisions=False)
        mix = Workload.from_names(["alexnet", "mobilenet"])
        assert service.submit(mix).cache_status == "bypass"
        assert service.submit(mix).cache_status == "bypass"
        assert service.stats().cache_hits == 0


class TestRequestKnobs:
    def test_budget_override_reaches_the_search(self):
        service = _make_service(cache_decisions=False)
        mix = Workload.from_names(["alexnet", "mobilenet"])
        response = service.submit(mix, budget=17)
        assert response.decision.cost["mcts_iterations"] == 17

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ScheduleRequest(
                workload=Workload.from_names(["alexnet"]), budget=0
            )

    def test_priority_does_not_change_results(self):
        requests = _requests()[:4]
        plain = _make_service().schedule_many(requests)
        prioritized = _make_service().schedule_many(
            [
                ScheduleRequest(
                    workload=request.workload,
                    priority=index,  # reversed processing order
                    request_id=request.request_id,
                )
                for index, request in enumerate(requests)
            ]
        )
        for response_a, response_b in zip(plain, prioritized):
            assert response_a.mapping == response_b.mapping

    def test_priority_does_not_change_permuted_duplicate_results(self):
        """A high-priority *permuted* duplicate must not steal the
        search from the first arrival: the job always runs over the
        first-arriving workload order, so results stay identical to
        the sequential loop."""
        plain_requests = [
            ScheduleRequest(workload=Workload.from_names(["alexnet", "mobilenet"])),
            ScheduleRequest(workload=Workload.from_names(["mobilenet", "alexnet"])),
        ]
        prioritized_requests = [
            ScheduleRequest(workload=plain_requests[0].workload),
            ScheduleRequest(workload=plain_requests[1].workload, priority=9),
        ]
        plain = _make_service().schedule_many(plain_requests)
        prioritized = _make_service().schedule_many(prioritized_requests)
        sequential_service = _make_service()
        sequential = [sequential_service.submit(r) for r in plain_requests]
        for a, b, c in zip(plain, prioritized, sequential):
            assert a.mapping == b.mapping == c.mapping
        # The first arrival ran the search either way.
        assert prioritized[0].cache_status == "miss"
        assert prioritized[1].cache_status == "hit"

    def test_request_id_echoed(self):
        service = _make_service()
        response = service.submit(
            Workload.from_names(["alexnet", "mobilenet"]), request_id="abc"
        )
        assert response.request_id == "abc"


class TestPerPriorityStats:
    """Satellite: per-priority service levels are measured, and the
    priority-first drive order can never starve (or change the results
    of) priority-0 requests."""

    def test_mixed_priorities_counted_and_not_starved(self):
        from dataclasses import replace as dc_replace

        priorities = [0, 5, 0, 9]
        requests = [
            ScheduleRequest(
                workload=Workload.from_names(names),
                priority=priority,
                request_id=str(index),
            )
            for index, (names, priority) in enumerate(
                zip(MIX_NAMES[:4], priorities)
            )
        ]
        service = _make_service()
        responses = service.schedule_many(requests)
        # No starvation: every priority-0 request is answered with a
        # valid mapping and its wait is recorded.
        for request, response in zip(requests, responses):
            assert response is not None
            response.mapping.validate(request.workload.models, 3)
        stats = service.stats()
        assert stats.requests_by_priority == {0: 2, 5: 1, 9: 1}
        for priority in (0, 5, 9):
            assert stats.mean_wait_s(priority) > 0
        assert stats.mean_wait_s(42) == 0.0
        # And the sort is cosmetic: identical decisions to an
        # all-priority-0 batch.
        plain = _make_service().schedule_many(
            [dc_replace(request, priority=0) for request in requests]
        )
        for response_a, response_b in zip(responses, plain):
            assert response_a.mapping == response_b.mapping

    def test_follower_priority_inheritance_keeps_results(self):
        """A high-priority duplicate of a low-priority in-flight mix
        lifts that search's drive priority (no inversion) without
        changing any decision."""
        requests = [
            ScheduleRequest(
                workload=Workload.from_names(["alexnet", "mobilenet"]),
                priority=0,
            ),
            ScheduleRequest(
                workload=Workload.from_names(["vgg19", "resnet50"]),
                priority=1,
            ),
            ScheduleRequest(
                workload=Workload.from_names(["mobilenet", "alexnet"]),
                priority=9,  # urgent permuted duplicate of request 0
            ),
        ]
        service = _make_service()
        responses = service.schedule_many(requests)
        assert responses[2].cache_status == "hit"
        sequential_service = _make_service()
        sequential = [sequential_service.submit(r) for r in requests]
        for response_a, response_b in zip(responses, sequential):
            assert response_a.mapping == response_b.mapping
        stats = service.stats()
        assert stats.requests_by_priority == {0: 1, 1: 1, 9: 1}

    def test_stats_snapshot_is_isolated(self):
        service = _make_service()
        service.submit(Workload.from_names(["alexnet", "mobilenet"]))
        snapshot = service.stats()
        snapshot.requests_by_priority[0] = 999
        assert service.stats().requests_by_priority[0] == 1


class TestNonPoolingScheduler:
    def test_baseline_service_with_cache(self):
        service = SchedulingService(SystemBuilder(seed=29), scheduler="baseline")
        mix = Workload.from_names(["alexnet", "mobilenet"])
        first, second = service.schedule_many([mix, mix])
        assert first.cache_status == "miss"
        assert second.cache_status == "hit"
        assert first.scheduler_name == "Baseline"
        # The baseline needs no estimator: nothing was trained.
        assert not service._builder.built("trained")


class TestMeasuredWallTime:
    class _SelfReporting(Scheduler):
        """A scheduler whose self-reported time is deliberately wrong."""

        name = "self-reporting"

        def _decide(self, workload):
            time.sleep(0.01)
            return ScheduleDecision(
                mapping=Mapping.single_device(workload.models, 0),
                expected_score=1.0,
                wall_time_s=1234.5,  # nonzero: the legacy path kept this
            )

    def test_host_measurement_always_recorded(self):
        """Satellite: sub-resolution / self-reported timings are never
        conflated with the host measurement."""
        scheduler = self._SelfReporting()
        response = scheduler.respond(
            ScheduleRequest(workload=Workload.from_names(["alexnet"]))
        )
        assert response.decision.wall_time_s == 1234.5  # self-report kept
        assert 0.005 < response.measured_wall_time_s < 5.0  # host truth

    def test_zero_self_report_backfilled(self):
        service = _make_service()
        response = service.submit(Workload.from_names(["alexnet", "mobilenet"]))
        assert response.decision.wall_time_s > 0
        assert response.measured_wall_time_s > 0

    def test_schedule_shim_matches_legacy_shape(self):
        decision = self._SelfReporting().schedule(
            Workload.from_names(["alexnet"])
        )
        assert isinstance(decision, ScheduleDecision)
        assert decision.wall_time_s == 1234.5


class TestPlumbing:
    def test_empty_batch(self):
        assert _make_service().schedule_many([]) == []

    def test_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            SchedulingService(object())

    def test_rejects_knobs_on_request_objects(self):
        service = _make_service()
        with pytest.raises(TypeError):
            service.submit(
                ScheduleRequest(workload=Workload.from_names(["alexnet"])),
                budget=5,
            )

    def test_service_over_built_system(self):
        system = (
            SystemBuilder(seed=29)
            .with_estimator(num_training_samples=40, epochs=2)
            .build()
        )
        service = SchedulingService(system)
        response = service.submit(Workload.from_names(["alexnet", "mobilenet"]))
        assert isinstance(response, ScheduleResponse)
        assert response.scheduler_name == "OmniBoost"


class TestServiceStatsAbsorb:
    def test_absorb_merges_every_field(self):
        """Absorbing into an empty snapshot reproduces every field, and
        absorbing again doubles it — no counter is left out."""
        full = ServiceStats()
        for value, spec in enumerate(dataclasses.fields(full), start=1):
            current = getattr(full, spec.name)
            if isinstance(current, dict):
                key = "static" if spec.name == "decisions_by_tier" else 2
                setattr(full, spec.name, {key: value})
            else:
                setattr(full, spec.name, type(current)(value))
        total = ServiceStats()
        total.absorb(full)
        assert total == full
        total.absorb(full)
        for spec in dataclasses.fields(full):
            once = getattr(full, spec.name)
            twice = getattr(total, spec.name)
            if isinstance(once, dict):
                assert twice == {key: 2 * count for key, count in once.items()}
            else:
                assert twice == 2 * once, spec.name
