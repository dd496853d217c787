"""Distilled fast-path tests: policy, student, certification contract.

The equivalence bar for PR 10's pruning layer: proxy scores may steer
*which* candidates pay a full estimator forward, but the decision the
service returns is always certified by the full estimator — the served
mapping's ``expected_score`` is the teacher's own reward for that
mapping, and it is the maximum over every candidate the teacher
actually scored.  Requests that fall outside the student's contract
(an objective override, a stale teacher) silently drop back to the
exact path.
"""

import numpy as np
import pytest

from repro.builder import SystemBuilder
from repro.core import MCTSConfig, ScheduleRequest
from repro.core.objectives import ThroughputObjective
from repro.estimator import DistilledEstimator, FastPathPolicy
from repro.resilience import FaultPlan, FaultSpec, ResiliencePolicy
from repro.service import SchedulingService
from repro.workloads import Workload

#: Cheap distillation corpus: 4 mixes x 4 mappings = 16 teacher
#: forwards, a 20-epoch head.  The paper-scale defaults live in
#: ``FastPathPolicy()`` and the benchmarks.
TINY_POLICY = FastPathPolicy(
    mixes=4,
    mappings_per_mix=4,
    holdout_mixes=1,
    epochs=20,
    eval_batch_size=10,
    explore_factor=1,
)


def _make_service(**kwargs) -> SchedulingService:
    builder = (
        SystemBuilder(seed=29)
        .with_estimator(num_training_samples=40, epochs=3)
        .with_mcts_config(MCTSConfig(budget=50, seed=13))
    )
    return SchedulingService(builder, **kwargs)


def _mix(names=("alexnet", "mobilenet", "squeezenet")) -> Workload:
    return Workload.from_names(list(names))


# ----------------------------------------------------------------------
# FastPathPolicy
# ----------------------------------------------------------------------
class TestFastPathPolicy:
    def test_defaults_validate(self):
        policy = FastPathPolicy()
        assert policy.keep_fraction == 0.02
        assert policy.explore_factor == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"keep_fraction": 0.0},
            {"keep_fraction": 1.5},
            {"min_keep": 0},
            {"eval_batch_size": 0},
            {"explore_factor": 0},
            {"recertify": -1},
            {"mixes": 1},
            {"mappings_per_mix": 1},
            {"holdout_mixes": 0},
            {"holdout_mixes": 40},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FastPathPolicy(**kwargs)

    def test_keep_count(self):
        policy = FastPathPolicy(keep_fraction=0.02, min_keep=1)
        assert policy.keep_count(50) == 1
        assert policy.keep_count(200) == 4
        assert policy.keep_count(3) == 1  # min_keep floors it
        assert policy.keep_count(0) == 0  # empty batch keeps nothing


# ----------------------------------------------------------------------
# The student
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fast_service():
    service = _make_service(fast_path=TINY_POLICY)
    # One scheduled mix forces estimator build + distillation.
    service.submit(_mix())
    return service


@pytest.fixture(scope="module")
def student(fast_service):
    estimator = fast_service._scheduler_instance().estimator
    return fast_service._student_instance(estimator)


class TestDistilledStudent:
    def test_student_is_distilled_and_tiny(self, student, fast_service):
        estimator = fast_service._scheduler_instance().estimator
        assert isinstance(student, DistilledEstimator)
        assert not student.is_stale(estimator)
        teacher_parameters = sum(
            value.size for value in estimator.network.state_dict().values()
        )
        # An order of magnitude smaller even against this test's
        # deliberately shrunken teacher (the real ResNet9 is ~100x).
        assert student.num_parameters < teacher_parameters / 10

    def test_scores_are_deterministic(self, student):
        from repro.workloads.generator import random_contiguous_mapping

        workload = _mix()
        rng = np.random.default_rng(5)
        mappings = [
            random_contiguous_mapping(workload.models, 3, rng)
            for _ in range(6)
        ]
        before = student.query_count
        first = student.score_candidates(workload, mappings)
        second = student.score_candidates(workload, mappings)
        np.testing.assert_array_equal(first, second)
        assert student.query_count == before + 12  # billed per candidate
        # Scores are batch-centered: relative rank only, mean ~ 0.
        assert abs(float(np.mean(first))) < 1e-9

    def test_alpha_selected_from_grid(self, student):
        from repro.estimator.distill import _ALPHA_GRID

        assert student.alpha in _ALPHA_GRID
        assert np.isfinite(student.holdout_rank_corr)

    def test_stale_after_teacher_weight_change(self, student, fast_service):
        estimator = fast_service._scheduler_instance().estimator
        state = estimator.network.state_dict()
        estimator.network.load_state_dict(state)  # version bump
        try:
            assert student.is_stale(estimator)
            rebuilt = fast_service._student_instance(estimator)
            assert rebuilt is not student
        finally:
            # The module-scoped service is shared; leave a fresh
            # student bound to the current teacher version.
            fast_service._student_instance(estimator)


# ----------------------------------------------------------------------
# Engine integration: pruning + certification
# ----------------------------------------------------------------------
class TestEngineFastPath:
    def test_pruning_skips_full_forwards(self):
        service = _make_service(fast_path=TINY_POLICY)
        response = service.submit(_mix())
        stats = service.stats()
        assert stats.distilled_queries > 0
        assert stats.distilled_pruned > 0
        # Candidates that paid a real forward << candidates considered
        # (estimator_queries is the budget *view*; _actual is paid).
        assert stats.estimator_queries_actual < stats.distilled_queries
        assert response.mapping is not None

    def test_certification_contract(self):
        """The served score is the *teacher's* reward for the served
        mapping — never a proxy number."""
        service = _make_service(fast_path=TINY_POLICY)
        workload = _mix()
        response = service.submit(workload)
        estimator = service._scheduler_instance().estimator
        predictions = estimator.predict_throughput_batch(
            [(workload, response.mapping)]
        )
        assert np.isclose(
            float(np.mean(predictions[0])), response.expected_score
        )

    def test_objective_requests_fall_back_to_exact(self):
        """The student ranks mean-throughput only; an objective
        override must bypass pruning *and* the widened budget."""
        service = _make_service(fast_path=TINY_POLICY)
        request = ScheduleRequest(
            workload=_mix(), objective=ThroughputObjective()
        )
        exact_service = _make_service()
        exact_request = ScheduleRequest(
            workload=_mix(), objective=ThroughputObjective()
        )
        response = service.submit(request)
        exact = exact_service.submit(exact_request)
        assert service.stats().distilled_pruned == 0
        assert service.stats().distilled_queries == 0
        assert response.mapping == exact.mapping
        assert response.expected_score == exact.expected_score

    def test_fast_path_off_is_identity(self):
        """``fast_path=None`` leaves the engine byte-identical to the
        pre-fast-path service."""
        requests = [
            ScheduleRequest(workload=_mix(names), request_id=str(i))
            for i, names in enumerate(
                [
                    ("alexnet", "mobilenet", "squeezenet"),
                    ("vgg19", "resnet50", "alexnet"),
                ]
            )
        ]
        default = _make_service().schedule_many(requests)
        explicit = _make_service(fast_path=None).schedule_many(requests)
        for left, right in zip(default, explicit):
            assert left.mapping == right.mapping
            assert left.expected_score == right.expected_score

    def test_retry_counts_only_the_answering_attempt(self):
        """A fast-path search that faults and is retried on the same
        tier reports the forwards of the attempt that answered, not
        the failed attempt's survivors as well."""
        clean = _make_service(fast_path=TINY_POLICY, cache_decisions=False)
        # Forward calls count from the scheduler's materialization:
        # distillation is call 1, so call 3 faults mid-search; one
        # fault stays below step_down_after, so the retry runs on the
        # same (compiled) tier.
        faulted = _make_service(
            fast_path=TINY_POLICY,
            cache_decisions=False,
            resilience=ResiliencePolicy(
                faults=FaultPlan((FaultSpec("estimator-nan", at_call=3),)),
                step_down_after=2,
            ),
        )
        expected = clean.submit(_mix())
        retried = faulted.submit(_mix())
        assert faulted.stats().faults_detected == 1
        assert faulted.stats().degraded_decisions == 0
        assert retried.expected_score == expected.expected_score
        assert (
            retried.decision.cost["estimator_queries_actual"]
            == expected.decision.cost["estimator_queries_actual"]
        )

    def test_student_reused_across_decisions(self):
        service = _make_service(fast_path=TINY_POLICY)
        service.submit(_mix())
        estimator = service._scheduler_instance().estimator
        first = service._student_instance(estimator)
        service.submit(_mix(("vgg19", "resnet50", "alexnet")))
        assert service._student_instance(estimator) is first
