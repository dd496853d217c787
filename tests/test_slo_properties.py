"""Property and regression tests for the SLO enforcement layer.

Three guarantees are pinned here:

1. **Admission monotonicity** — a mix the controller does not admit at
   load L is not admitted at any load >= L, for *any* scorer, because
   the load discount is strictly decreasing and the floor never
   depends on load.
2. **Preemption safety** — :func:`repro.slo.preemption_victims` can
   never name an equal-or-higher-priority resident, by construction,
   over randomized resident sets.
3. **Enforcement-off identity** — a service with ``slo=None`` (and an
   observe-only policy, modulo annotations) serves decisions
   byte-identical to the pre-SLO stack: same mappings, same scores,
   same modes, same count-based stats.  Only host wall-clock fields
   (``reschedule_time_s``, per-priority waits) may differ, per the
   repo's count-based-gates doctrine.

The acceptance gate rides at the bottom: on the ``slo-squeeze``
scenario, enforcement (admission + priority preemption) must *raise*
the p95 SLO-attainment ratio of the high-priority stream relative to
the observe-only replay of the same trace at the same floor.  All
gates compare seeded estimator scores and event counts — never
wall-clock.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro import SystemBuilder
from repro.core import MCTSConfig, SLOTarget
from repro.engine import SchedulingEngine
from repro.evaluation import TimelineRecord, TimelineReport
from repro.fleet import Cluster, FleetService
from repro.models.registry import MODEL_NAMES
from repro.slo import (
    AdmissionController,
    AttainmentTracker,
    SLOPolicy,
    VERDICTS,
    make_estimator_scorer,
    preemption_victims,
)
from repro.workloads import Workload, churn_scenario, generate_trace

_ESTIMATOR = {"num_training_samples": 40, "epochs": 3}
_MCTS = MCTSConfig(budget=40, seed=13)
_LIGHT = ("mobilenet", "squeezenet", "alexnet", "resnet34")


def _builder() -> SystemBuilder:
    return (
        SystemBuilder(seed=29)
        .with_estimator(**_ESTIMATOR)
        .with_mcts_config(_MCTS)
    )


def _stable(record):
    """A record with host wall-clock and SLO annotations neutralized."""
    return dataclasses.replace(
        record, reschedule_time_s=0.0, slo_ratio=None, slo_attained=None
    )


def _assert_enforcement_counted(report, stats):
    """Per-priority enforcement counters equal the report's actions."""
    for action, counters in (
        ("queued", stats.queued_by_priority),
        ("rejected", stats.rejections_by_priority),
        ("preempted", stats.preemptions_by_priority),
    ):
        recorded = Counter(
            record.priority
            for record in report.records
            if record.action == action
        )
        assert counters == dict(recorded), action


def _stable_stats(stats):
    """Stats with wall-clock accumulators neutralized (keys retained)."""
    return dataclasses.replace(
        stats,
        wait_s_by_priority={
            priority: 0.0 for priority in stats.wait_s_by_priority
        },
    )


# ----------------------------------------------------------------------
# Contracts: SLOTarget / SLOPolicy value semantics
# ----------------------------------------------------------------------
class TestAttainmentPercentiles:
    def test_report_and_tracker_rank_exactly(self):
        """Over the ratios 1..100 the 7th-best is 94: a float rank
        ``ceil(7 / 100 * 100)`` is 8 and would answer 93."""
        ratios = [float(ratio) for ratio in range(1, 101)]
        report = TimelineReport(
            records=tuple(
                TimelineRecord(
                    index=index,
                    time_s=float(index),
                    kind="arrival",
                    tenant_id=f"t{index}",
                    model="alexnet",
                    priority=0,
                    active_models=("alexnet",),
                    mode="cold",
                    slo_ratio=ratio,
                )
                for index, ratio in enumerate(ratios)
            )
        )
        tracker = AttainmentTracker(window=len(ratios))
        for ratio in ratios:
            tracker.observe(ratio)
        for percentile, expected in ((7, 94.0), (50, 51.0), (95, 6.0)):
            assert tracker.percentile(percentile) == expected
            assert report.slo_attainment_percentiles((percentile,)) == {
                percentile: expected
            }


class TestSLOTarget:
    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError, match="floor and/or"):
            SLOTarget()

    def test_nonpositive_bounds_rejected(self):
        with pytest.raises(ValueError):
            SLOTarget(min_throughput=0.0)
        with pytest.raises(ValueError):
            SLOTarget(min_throughput=1.0, max_latency_s=-0.1)

    def test_ratio_and_attainment(self):
        target = SLOTarget(min_throughput=2.0)
        assert target.ratio(3.0) == pytest.approx(1.5)
        assert target.attained(2.0, latency_s=100.0)
        assert not target.attained(1.99, latency_s=0.0)

    def test_latency_bound(self):
        target = SLOTarget(min_throughput=1.0, max_latency_s=0.05)
        assert target.attained(1.0, latency_s=0.04)
        assert not target.attained(1.0, latency_s=0.06)
        latency_only = SLOTarget(max_latency_s=0.05)
        assert latency_only.ratio(10.0) is None
        assert latency_only.attained(0.0, latency_s=0.01)


class TestSLOPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="load_penalty"):
            SLOPolicy(load_penalty=-0.1)
        with pytest.raises(ValueError, match="queue_capacity"):
            SLOPolicy(queue_capacity=-1)

    def test_enforced_switches(self):
        assert SLOPolicy().enforced
        assert SLOPolicy(admission=False).enforced
        assert not SLOPolicy(admission=False, preemption=False).enforced

    def test_request_floor_wins(self):
        policy = SLOPolicy(target=SLOTarget(min_throughput=2.0))
        assert policy.floor_for(None) == pytest.approx(2.0)
        assert policy.floor_for(
            SLOTarget(min_throughput=5.0)
        ) == pytest.approx(5.0)
        assert policy.floor_for(
            SLOTarget(max_latency_s=0.1)
        ) == pytest.approx(2.0)
        assert SLOPolicy().floor_for(None) is None


# ----------------------------------------------------------------------
# Property 1: admission is monotone in load
# ----------------------------------------------------------------------
class TestAdmissionMonotonicity:
    def _controller(self, base: float, **policy_knobs):
        policy = SLOPolicy(
            target=SLOTarget(min_throughput=1.0), **policy_knobs
        )
        return AdmissionController(policy, scorer=lambda workload: base)

    @pytest.mark.parametrize("base", [0.4, 0.9, 1.0, 1.3, 2.0, 6.0])
    @pytest.mark.parametrize("penalty", [0.0, 0.25, 1.0, 3.0])
    def test_non_admission_is_absorbing_in_load(self, base, penalty):
        """Rejected/queued at load L => never admitted at any L' >= L."""
        controller = self._controller(base, load_penalty=penalty)
        turned_away = False
        for load in range(0, 25):
            verdict = controller.evaluate(("alexnet",), load=load).verdict
            assert verdict in VERDICTS
            if verdict != "admit":
                turned_away = True
            assert not (turned_away and verdict == "admit"), (
                f"admitted at load {load} after a non-admit verdict "
                f"(base={base}, penalty={penalty})"
            )

    def test_reject_is_load_independent(self):
        """base < floor rejects at *every* load — waiting cannot help."""
        controller = self._controller(0.5)
        for load in range(0, 10):
            assert (
                controller.evaluate(("alexnet",), load=load).verdict
                == "reject"
            )

    def test_queue_crossing_is_exact(self):
        """The verdict flips exactly where base/(1+p*L) crosses the floor."""
        controller = self._controller(2.0, load_penalty=0.25)
        for load in range(0, 10):
            effective = 2.0 / (1.0 + 0.25 * load)
            decision = controller.evaluate(("alexnet",), load=load)
            assert decision.effective_score == pytest.approx(effective)
            expected = "admit" if effective >= 1.0 else "queue"
            assert decision.verdict == expected

    def test_capacity_headroom_is_monotone_too(self):
        controller = self._controller(100.0)
        verdicts = [
            controller.evaluate(
                ("alexnet", "vgg16"), load=load, capacity=5
            ).verdict
            for load in range(0, 8)
        ]
        assert verdicts == ["admit"] * 4 + ["queue"] * 4

    def test_base_scores_cached_per_signature(self):
        calls = []
        policy = SLOPolicy(target=SLOTarget(min_throughput=0.1))
        controller = AdmissionController(
            policy, scorer=lambda w: calls.append(1) or 5.0
        )
        for _ in range(4):
            controller.evaluate(("alexnet", "vgg16"), load=0)
            controller.evaluate(("vgg16", "alexnet"), load=3)
        assert len(calls) == 1, "permuted duplicates must share one score"

    def test_no_floor_degrades_to_capacity_only(self):
        controller = AdmissionController(SLOPolicy(), scorer=None)
        assert controller.evaluate(("x",), load=99).verdict == "admit"
        assert (
            controller.evaluate(("x",), load=5, capacity=5).verdict
            == "queue"
        )


# ----------------------------------------------------------------------
# Property 2: preemption never touches equal-or-higher priority
# ----------------------------------------------------------------------
class TestPreemptionSafety:
    def test_victims_strictly_lower_priority(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            count = int(rng.integers(0, 9))
            residents = {
                f"t{i}": (f"m{i}", int(rng.integers(0, 5)))
                for i in range(count)
            }
            incoming = int(rng.integers(0, 6))
            for _, _, priority in preemption_victims(residents, incoming):
                assert priority < incoming

    def test_eviction_order(self):
        """Lowest priority first; newest arrival first within a level."""
        residents = {
            "old-low": ("vgg19", 0),
            "mid": ("resnet50", 1),
            "new-low": ("alexnet", 0),
        }
        victims = preemption_victims(residents, incoming_priority=2)
        assert [tenant for tenant, _, _ in victims] == [
            "new-low",
            "old-low",
            "mid",
        ]

    def test_no_victims_among_equals_or_betters(self):
        residents = {"a": ("vgg19", 2), "b": ("alexnet", 3)}
        assert preemption_victims(residents, incoming_priority=2) == []
        assert preemption_victims(residents, incoming_priority=0) == []
        assert preemption_victims({}, incoming_priority=5) == []


# ----------------------------------------------------------------------
# Property 3 + acceptance: replay identities and the enforcement gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def slo_builder():
    return _builder()


@pytest.fixture(scope="module")
def squeeze_trace():
    return churn_scenario("slo-squeeze", seed=0).truncated(18)


@pytest.fixture(scope="module")
def light_floor(slo_builder):
    """A floor 60% under the best light model's unloaded admission score.

    Derived adaptively from the trained scorer (not pinned), so the
    gate tracks the estimator instead of a magic constant: the best
    light model admits on an empty board, queues under anchor load,
    and preemption has priority-0 victims to evict.
    """
    engine = SchedulingEngine(slo_builder)
    scorer = make_estimator_scorer(engine.scheduler)
    best = max(
        scorer(Workload.from_names([name])) for name in _LIGHT
    )
    assert best > 0, "estimator gives no light model a positive score"
    return 0.6 * float(best)


class TestEnforcementOffIdentity:
    def test_observe_only_matches_plain_engine(
        self, slo_builder, squeeze_trace, light_floor
    ):
        plain = SchedulingEngine(slo_builder)
        observed = SchedulingEngine(slo_builder)
        report_plain = plain.run_trace(squeeze_trace)
        report_obs = observed.run_trace(
            squeeze_trace,
            slo=SLOPolicy(
                target=SLOTarget(min_throughput=light_floor),
                admission=False,
                preemption=False,
            ),
        )
        assert [_stable(r) for r in report_obs.records] == [
            _stable(r) for r in report_plain.records
        ]
        # Observe-only annotates every admitted arrival; plain none.
        assert report_obs.slo_records
        assert not report_plain.slo_records
        assert not any(r.action for r in report_obs.records)
        # Count-based stats identical; only the SLO accounting differs.
        stats_plain = _stable_stats(plain.stats())
        stats_obs = _stable_stats(observed.stats())
        neutral = dict(slo_requests=0, slo_attained=0)
        assert dataclasses.replace(
            stats_obs, **neutral
        ) == dataclasses.replace(stats_plain, **neutral)
        assert stats_plain.slo_requests == 0
        assert stats_obs.slo_requests == len(report_obs.slo_records)

    def test_slo_none_leaves_no_trace_of_the_layer(
        self, slo_builder, squeeze_trace
    ):
        engine = SchedulingEngine(slo_builder)
        report = engine.run_trace(squeeze_trace)
        assert all(r.action == "" for r in report.records)
        assert all(r.slo_ratio is None for r in report.records)
        assert "slo" not in report.to_dict()
        stats = engine.stats()
        assert stats.slo_requests == 0
        assert stats.rejections_by_priority == {}
        assert stats.preemptions_by_priority == {}
        assert stats.queued_by_priority == {}

    def test_fleet_enforcement_off_byte_identity(self):
        def fleet(slo=None):
            cluster = Cluster.from_presets(
                {"edge0": "hikey970", "edge1": "hikey970_with_npu"},
                seed=0,
                estimator=_ESTIMATOR,
                mcts_config=_MCTS,
            )
            return FleetService(cluster, slo=slo)

        trace = churn_scenario("priority-storm", seed=0).truncated(8)
        plain = fleet()
        observed = fleet(
            SLOPolicy(
                target=SLOTarget(min_throughput=0.05),
                admission=False,
                preemption=False,
            )
        )
        report_plain = plain.run_trace(trace)
        report_obs = observed.run_trace(trace)
        assert [_stable(r) for r in report_obs.records] == [
            _stable(r) for r in report_plain.records
        ]
        combined_plain = _stable_stats(plain.stats().combined)
        combined_obs = _stable_stats(observed.stats().combined)
        neutral = dict(slo_requests=0, slo_attained=0)
        assert dataclasses.replace(
            combined_obs, **neutral
        ) == dataclasses.replace(combined_plain, **neutral)
        assert combined_plain.slo_requests == 0
        assert combined_obs.slo_requests > 0


class TestEnforcementAcceptance:
    """The PR's acceptance gate, on seeded scores and event counts."""

    def test_slo_squeeze_p95_improves_for_high_priority(
        self, slo_builder, squeeze_trace, light_floor
    ):
        policy = SLOPolicy(target=SLOTarget(min_throughput=light_floor))
        observed = SchedulingEngine(slo_builder)
        report_obs = observed.run_trace(
            squeeze_trace,
            slo=dataclasses.replace(
                policy, admission=False, preemption=False
            ),
        )
        enforced = SchedulingEngine(slo_builder)
        report_enf = enforced.run_trace(squeeze_trace, slo=policy)

        p95_obs = report_obs.slo_attainment_percentiles(priority=2)[95]
        p2_enf = report_enf.slo_attainment_percentiles(priority=2)
        assert p2_enf, "no high-priority arrival was admitted"
        assert p2_enf[95] > p95_obs, (
            f"enforcement did not raise p95 attainment for priority 2: "
            f"{p2_enf[95]:.3f} vs observe-only {p95_obs:.3f}"
        )
        # Enforcement actually acted (not a vacuous identical replay).
        actions = {r.action for r in report_enf.records if r.action}
        assert actions & {"preempted", "queued", "rejected"}
        # Safety in vivo: only strictly-lower-priority residents were
        # evicted, and the high-priority stream lost nobody.
        stats = enforced.stats()
        assert all(
            priority < 2 for priority in stats.preemptions_by_priority
        )

    def test_enforced_report_accounts_every_trace_event(
        self, slo_builder, squeeze_trace, light_floor
    ):
        """One record per trace event, plus one per enforcement extra
        (evictions, dequeues) — nothing silently vanishes."""
        engine = SchedulingEngine(slo_builder)
        report = engine.run_trace(
            squeeze_trace,
            slo=SLOPolicy(target=SLOTarget(min_throughput=light_floor)),
        )
        extras = sum(
            1
            for r in report.records
            if r.action in ("preempted", "dequeued")
        )
        assert len(report.records) == len(squeeze_trace) + extras
        assert [r.index for r in report.records] == list(
            range(len(report.records))
        )

    def test_stats_count_every_enforcement_action(self):
        """Queued, rejected and preempted counters equal the records'
        per-priority actions, on one board and rolled up over a
        two-board fleet."""

        def cluster():
            # Seed 3 trains estimators scoring every zoo model above 0.
            return Cluster.from_presets(
                {"edge0": "hikey970", "edge1": "hikey970"},
                seed=3,
                estimator=_ESTIMATOR,
                mcts_config=_MCTS,
            )

        scorer = make_estimator_scorer(
            FleetService(cluster()).engine("edge0").scheduler
        )
        median = sorted(
            scorer(Workload.from_names([name])) for name in MODEL_NAMES
        )[len(MODEL_NAMES) // 2]
        policy = SLOPolicy(
            target=SLOTarget(min_throughput=median), queue_capacity=1
        )
        trace = generate_trace(
            arrival_rate=1.5,
            min_lifetime_s=8,
            max_lifetime_s=30,
            horizon_s=14,
            max_concurrent=11,
            priorities=(0, 1, 2),
            seed=0,
        )
        engine = SchedulingEngine(cluster().board("edge0").source)
        fleet = FleetService(cluster(), slo=policy)
        for report, stats in (
            (engine.run_trace(trace, slo=policy), engine.stats),
            (fleet.run_trace(trace), lambda: fleet.stats().combined),
        ):
            actions = {record.action for record in report.records}
            assert {"queued", "rejected", "preempted"} <= actions, actions
            _assert_enforcement_counted(report, stats())
