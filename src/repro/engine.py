"""Per-board scheduling engine: cache + pooled search over ONE system.

:class:`SchedulingEngine` is the board-scoped core extracted from the
original ``SchedulingService``: the decision cache (canonical mix
signature, permuted-duplicate row re-alignment), the pooled concurrent
MCTS drive (every in-flight search's leaf evaluations priced in shared
:meth:`~repro.estimator.model.ThroughputEstimator.predict_throughput_batch`
calls), the per-board steps of the online-trace replay, and the
:class:`ServiceStats` counters.  Everything here assumes exactly one
:class:`~repro.builder.OmniBoostSystem` (one platform, one estimator).

Two front ends sit on top:

* :class:`~repro.service.SchedulingService` — the single-board
  request/response surface (a thin subclass, behaviour unchanged);
* :class:`~repro.fleet.FleetService` — one engine per board of a
  :class:`~repro.fleet.Cluster`, requests fanned out by a placement
  layer, each board's engine pooling its own share of the batch.

The pooling is safe for the same two reasons as always: searches
externalize their evaluation points
(:meth:`~repro.core.mcts.MonteCarloTreeSearch.search_steps`), and
batched inference is bitwise invariant to batch composition (eval-mode
:func:`~repro.nn.functional.linear_rowwise`), so pooled decisions are
identical to a sequential per-request loop.

The trace-replay loop itself lives in
:meth:`repro.fleet.FleetService.run_trace`; an engine replays as a
fleet of one (:meth:`SchedulingEngine.run_trace`).  The loop drives
each board through two steps:
:meth:`SchedulingEngine.stage_trace_event` folds one
:class:`~repro.workloads.trace.ArrivalEvent` into a board's
:class:`~repro.online.OnlineScheduler` and stages its re-planning job;
:meth:`SchedulingEngine.replay_group` drives a coalesced group of
staged jobs concurrently (pooled evaluations) and commits the group's
final decision as the board's warm-start state.

A request's search and a trace event's re-plan are the same kind of
job — a coroutine that yields ``(workload, mappings)`` and returns its
outcome — so one drive (:meth:`SchedulingEngine._drive`), one
degradation ladder and one greedy floor serve both.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .baselines.ga import StaticCostModel
from .builder import OmniBoostSystem, SystemBuilder
from .core.base import ScheduleDecision, ScheduleRequest, ScheduleResponse, Scheduler
from .core.objectives import SchedulingObjective
from .core.scheduler import OmniBoostScheduler
from .estimator.distill import (
    DistilledEstimator,
    FastPathPolicy,
    distill_estimator,
)
from .estimator.model import EstimatorFault
from .frontdoor.cache import ShardedDecisionCache, estimator_cache_token
from .evaluation.timeline import TimelineRecord, TimelineReport
from .nn.inference import PlanExecutionError
from .online import OnlineConfig, OnlineDecision, OnlineScheduler
from .resilience import TIERS, DegradationLadder, FaultInjector, ResiliencePolicy
from .sim.mapping import Mapping
from .slo import SLOPolicy
from .workloads.generator import WorkloadGenerator, random_contiguous_mapping
from .workloads.mix import Workload, canonical_signature
from .workloads.trace import ArrivalEvent, ArrivalTrace

__all__ = ["SchedulingEngine", "ServiceStats"]

#: Cache key: (scheduler name, sorted model names, budget override).
CacheKey = Tuple[str, Tuple[str, ...], Optional[int]]


@dataclass
class ServiceStats:
    """Engine-lifetime counters (monotonic; see :meth:`SchedulingEngine.stats`).

    Every field is a number or a per-key dict of numbers, so
    :meth:`absorb` merges snapshots field by field.
    """

    requests_served: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bypasses: int = 0
    #: Decision-cache bounds and persistence (PR 10): LRU entries
    #: evicted past the cache capacity, and entries written to the
    #: on-disk snapshot — both filled at snapshot time from the
    #: :class:`~repro.frontdoor.cache.ShardedDecisionCache`, so the
    #: old unbounded-growth / silent-restart-drop failure modes are
    #: observable instead of latent.
    cache_evictions: int = 0
    cache_persisted: int = 0
    #: Pooled evaluator calls and the (workload, mapping) pairs they carried.
    pooled_eval_batches: int = 0
    pooled_evaluations: int = 0
    #: Section V-B budget view (one query per scored rollout) and what
    #: the estimator actually paid after transposition-cache savings.
    estimator_queries: float = 0.0
    estimator_queries_actual: float = 0.0
    #: Distilled fast path (:mod:`repro.estimator.distill`): student
    #: forwards performed, and candidates whose full-estimator forward
    #: was pruned away (they back up the student's estimate instead).
    #: Both stay zero without a :class:`FastPathPolicy`.
    distilled_queries: float = 0.0
    distilled_pruned: float = 0.0
    #: Per-priority service levels: how many requests (or trace
    #: events) each priority submitted, and their summed host-measured
    #: wait (latency) — the counters that make priority starvation
    #: visible instead of anecdotal.
    requests_by_priority: Dict[int, int] = field(default_factory=dict)
    wait_s_by_priority: Dict[int, float] = field(default_factory=dict)
    #: Online-trace counters (:meth:`SchedulingEngine.run_trace`).
    trace_events: int = 0
    trace_reschedules: int = 0
    trace_warm_reschedules: int = 0
    #: How many times the estimator (re)compiled its inference plan —
    #: filled at snapshot time; stays 0 while no scheduler (and hence
    #: no estimator) has materialized or compiled inference is off.
    estimator_plan_compiles: int = 0
    #: SLO accounting (:mod:`repro.slo`): how many outcomes were held
    #: against a throughput floor, how many attained it, and the per-
    #: priority enforcement actions.  All stay empty/zero while no SLO
    #: target or policy is in play.  The attainment-ratio percentiles
    #: live on the :class:`~repro.evaluation.TimelineReport`, which
    #: holds one ratio per annotated record.
    slo_requests: int = 0
    slo_attained: int = 0
    rejections_by_priority: Dict[int, int] = field(default_factory=dict)
    preemptions_by_priority: Dict[int, int] = field(default_factory=dict)
    queued_by_priority: Dict[int, int] = field(default_factory=dict)
    #: Resilience accounting (:mod:`repro.resilience`): typed faults
    #: the degradation ladder caught, poisoned decision-cache entries
    #: detected and dropped, decisions made below the normal serving
    #: tier (total and per tier), and the ladder's step-down /
    #: step-up / half-open-probe transition counts (filled at snapshot
    #: time).  All stay zero/empty without a ResiliencePolicy.
    faults_detected: int = 0
    cache_corruptions: int = 0
    degraded_decisions: int = 0
    decisions_by_tier: Dict[str, int] = field(default_factory=dict)
    tier_step_downs: int = 0
    tier_step_ups: int = 0
    tier_probes: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Hits over cache-eligible lookups (0.0 before any lookup)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def mean_pooled_batch_size(self) -> float:
        if not self.pooled_eval_batches:
            return 0.0
        return self.pooled_evaluations / self.pooled_eval_batches

    def mean_wait_s(self, priority: int) -> float:
        """Mean host-measured wait of ``priority`` requests (0 if none)."""
        count = self.requests_by_priority.get(priority, 0)
        if not count:
            return 0.0
        return self.wait_s_by_priority.get(priority, 0.0) / count

    def record_wait(self, priority: int, wait_s: float) -> None:
        """Fold one served request's wait into the per-priority counters."""
        self.requests_by_priority[priority] = (
            self.requests_by_priority.get(priority, 0) + 1
        )
        self.wait_s_by_priority[priority] = (
            self.wait_s_by_priority.get(priority, 0.0) + wait_s
        )

    # -- SLO accounting (no-ops until a target/policy is in play) ------
    @property
    def slo_attainment_rate(self) -> float:
        """Attained over SLO-accounted outcomes (0.0 before any)."""
        if not self.slo_requests:
            return 0.0
        return self.slo_attained / self.slo_requests

    def record_slo(self, attained: bool) -> None:
        """Fold one outcome's contract attainment into the counters."""
        self.slo_requests += 1
        if attained:
            self.slo_attained += 1

    def record_rejection(self, priority: int) -> None:
        self.rejections_by_priority[priority] = (
            self.rejections_by_priority.get(priority, 0) + 1
        )

    def record_preemption(self, priority: int) -> None:
        """Count one eviction, bucketed by the *victim's* priority."""
        self.preemptions_by_priority[priority] = (
            self.preemptions_by_priority.get(priority, 0) + 1
        )

    def record_queued(self, priority: int) -> None:
        self.queued_by_priority[priority] = (
            self.queued_by_priority.get(priority, 0) + 1
        )

    def absorb(self, other: "ServiceStats") -> None:
        """Fold another snapshot's counters into this one, field by field.

        Numbers add; per-key dicts add per key.  The fleet rollup
        (:attr:`repro.fleet.FleetStats.combined`) sums live *and*
        retired boards through this method, so a board drained or
        killed mid-trace keeps contributing its request and wait totals
        instead of vanishing from the aggregate — and a counter added
        to this class is merged without being listed anywhere.
        """
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            else:
                setattr(self, spec.name, mine + theirs)


@dataclass
class _Job:
    """One decision inside a pooled drive.

    A request's search (:meth:`SchedulingEngine.schedule_many`) and a
    trace event's re-plan (:meth:`SchedulingEngine.stage_trace_event`)
    share this shape: ``steps(job)`` builds a coroutine that yields
    ``(workload, mappings)`` evaluation requests, takes their rewards
    via ``send()`` and returns the outcome — a search's
    :class:`~repro.core.mcts.MCTSResult` or a re-plan's
    :class:`~repro.online.OnlineDecision`.  A certified fast-path
    search (:meth:`SchedulingEngine._pruned`) and the ladder's greedy
    floor answer with a :class:`ScheduleDecision` instead, and a
    faulted drive calls ``steps(job)`` again to retry from scratch.
    """

    #: The mix to decide; ``None`` for an idle trace event (the board
    #: emptied, nothing to plan).
    workload: Optional[Workload]
    steps: Callable[["_Job"], Generator]
    #: Host clock when the engine received the job: arrival for a
    #: request, :meth:`SchedulingEngine.replay_group` entry for a
    #: trace event.  Ladder retries keep it.
    started: float = 0.0
    #: The objective rewards are scored with (a request's override,
    #: else the scheduler's; ``None`` is mean predicted throughput).
    objective: Optional[SchedulingObjective] = None
    gen: object = None
    #: The open evaluation request: (workload, mappings) or None.
    pending: Optional[Tuple[Workload, List[Mapping]]] = None
    outcome: object = None
    elapsed: float = 0.0
    #: Request jobs: the request, its batch position and cache key.
    request: Optional[ScheduleRequest] = None
    index: int = 0
    key: Optional[CacheKey] = None
    #: Drive priority: the leader's, raised to any follower's — a
    #: high-priority duplicate of a low-priority in-flight mix must
    #: not wait at low priority (classic priority inversion).
    priority: int = 0
    #: Requests with the same signature arriving after this job was
    #: opened; they reuse its decision as in-flight cache hits.
    followers: List[Tuple[int, ScheduleRequest, float]] = field(default_factory=list)
    #: Trace jobs: the event this re-plan answers.
    event: Optional[ArrivalEvent] = None


class SchedulingEngine:
    """Cache + pooled concurrent search over one board's system.

    Parameters
    ----------
    source:
        A :class:`~repro.builder.SystemBuilder` (nothing is profiled or
        trained until the first request arrives) or an already-built
        :class:`~repro.builder.OmniBoostSystem`.
    scheduler:
        Registry name of the scheduler answering requests; defaults to
        ``"omniboost"``.  Only OmniBoost searches pool across requests
        (the baselines have no estimator loop to pool); other
        schedulers still get the cache/dedupe layer.
    cache_decisions:
        Disable to force every request through the scheduler.
    board:
        Optional board label; a fleet names each engine after its
        board so stats and timeline records carry attribution.  The
        single-board service leaves it empty.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy` arming the
        degradation ladder (and, when the policy carries a fault plan,
        the deterministic fault injector).  ``None`` — the default —
        leaves every code path byte-identical to an engine built before
        the resilience layer existed.
    cache_dir:
        Directory for the persisted snapshot of the bounded decision
        cache (:class:`~repro.frontdoor.cache.ShardedDecisionCache`,
        one LRU of :data:`~repro.frontdoor.cache.CACHE_CAPACITY`
        entries); ``None``
        keeps the cache in-memory only.  Snapshots are keyed by the
        estimator's ``Module.version`` plus a weight digest, so a
        retrained/re-loaded estimator never serves stale decisions.
    fast_path:
        Optional :class:`~repro.estimator.distill.FastPathPolicy`
        arming the distilled pruning fast path.  ``None`` — the
        default — keeps every search exact and byte-identical to an
        engine built before the fast path existed.
    """

    def __init__(
        self,
        source: Union[SystemBuilder, OmniBoostSystem],
        scheduler: str = "omniboost",
        cache_decisions: bool = True,
        board: str = "",
        resilience: Optional[ResiliencePolicy] = None,
        cache_dir: Optional[str] = None,
        fast_path: Optional[FastPathPolicy] = None,
    ) -> None:
        if isinstance(source, SystemBuilder):
            self._builder: Optional[SystemBuilder] = source
            self._system: Optional[OmniBoostSystem] = None
        elif isinstance(source, OmniBoostSystem):
            self._builder = None
            self._system = source
        else:
            raise TypeError(
                "source must be a SystemBuilder or OmniBoostSystem, "
                f"got {type(source).__name__}"
            )
        self.scheduler_name = scheduler.strip().lower()
        self.cache_decisions = cache_decisions
        self.board = board
        self._scheduler: Optional[Scheduler] = None
        self._cache = ShardedDecisionCache(cache_dir=cache_dir)
        self.fast_path = fast_path
        self._student: Optional[DistilledEstimator] = None
        self._cache_token: Optional[Tuple[int, str]] = None
        self._stats = ServiceStats()
        self.resilience = resilience
        self._ladder = (
            DegradationLadder(resilience) if resilience is not None else None
        )
        self._injector = (
            FaultInjector(resilience.faults) if resilience is not None else None
        )
        #: The ladder tier the in-flight pooled drive runs at ("" when
        #: healthy/no policy) — consulted by :meth:`_evaluate_pairs`.
        self._active_tier = ""
        self._static_cost: Optional[StaticCostModel] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Union[ScheduleRequest, Workload],
        **knobs,
    ) -> ScheduleResponse:
        """Answer one request (``knobs`` forward to :class:`ScheduleRequest`)."""
        return self.schedule_many([self._normalize(request, **knobs)])[0]

    def schedule_many(
        self, requests: Sequence[Union[ScheduleRequest, Workload]]
    ) -> List[ScheduleResponse]:
        """Answer a batch of requests; responses align with the input order.

        Repeated mix signatures are served once (later arrivals are
        cache hits, in-flight or stored); the distinct searches run
        concurrently with their leaf evaluations pooled.  Cache and
        search assignment follow *arrival* order — a duplicate's
        search always runs over the first-arriving workload, so
        results match the sequential loop exactly.  ``priority`` only
        reorders which searches are driven first (evaluation is
        bitwise batch-invariant, so that never changes a decision).
        """
        normalized = [self._normalize(request) for request in requests]
        if not normalized:
            return []
        responses: List[Optional[ScheduleResponse]] = [None] * len(normalized)
        scheduler = self._scheduler_instance()
        pooling = isinstance(scheduler, OmniBoostScheduler)

        jobs: List[_Job] = []
        open_jobs: Dict[CacheKey, _Job] = {}
        for i in range(len(normalized)):
            request = normalized[i]
            started = time.perf_counter()  # repro: lint-ignore[RPR002] -- host measurement of per-request latency
            key = self._cache_key(request)
            if key is None:
                self._stats.cache_bypasses += 1
            else:
                cached = self._cache.get(key)
                if (
                    self._injector is not None
                    and self._injector.on_cache_lookup()
                    and cached is not None
                ):
                    # Injected corruption drill: the poisoned entry is
                    # detected, dropped, counted — and the request
                    # falls through to a fresh search.  ``discard``
                    # also rewrites the persisted snapshot, so a
                    # restart cannot resurrect the poisoned entry.
                    self._stats.cache_corruptions += 1
                    self._cache.discard(key)
                    cached = None
                if cached is not None:
                    self._stats.cache_hits += 1
                    responses[i] = self._hit_response(request, cached, started)
                    continue
                in_flight = open_jobs.get(key)
                if in_flight is not None:
                    self._stats.cache_hits += 1
                    in_flight.followers.append((i, request, started))
                    # Priority inheritance: an urgent duplicate lifts
                    # the in-flight search it now depends on.
                    in_flight.priority = max(in_flight.priority, request.priority)
                    continue
                self._stats.cache_misses += 1
            if pooling:
                job = _Job(
                    workload=request.workload,
                    started=started,
                    objective=(
                        request.objective
                        if request.objective is not None
                        else scheduler.objective
                    ),
                    request=request,
                    index=i,
                    key=key,
                    priority=request.priority,
                    steps=partial(self._search_steps, scheduler),
                )
                jobs.append(job)
                if key is not None:
                    open_jobs[key] = job
            else:
                responses[i] = self._respond_direct(scheduler, request)

        if jobs:
            jobs.sort(key=lambda job: (-job.priority, job.index))
            self._resilient_drive(scheduler, jobs)
            for job in jobs:
                decision = job.outcome
                if not isinstance(decision, ScheduleDecision):
                    # A search result (a certified fast-path search and
                    # the greedy floor answer with a decision directly).
                    decision = scheduler.decision_from_result(
                        decision, int(decision.cache_misses)
                    )
                decision = replace(decision, wall_time_s=job.elapsed)
                self._account(decision)
                names = tuple(job.request.workload.model_names)
                if job.key is not None:
                    self._cache.put(job.key, names, decision)
                responses[job.index] = ScheduleResponse(
                    decision=decision,
                    scheduler_name=scheduler.name,
                    cache_status="miss" if job.key is not None else "bypass",
                    measured_wall_time_s=job.elapsed,
                    request_id=job.request.request_id,
                )
                for index, follower, follower_started in job.followers:
                    responses[index] = self._hit_response(
                        follower, (names, decision), follower_started
                    )

        self._stats.requests_served += len(normalized)
        for request, response in zip(normalized, responses):
            self._stats.record_wait(
                request.priority, response.measured_wall_time_s
            )
            if request.slo is not None:
                self._stats.record_slo(
                    request.slo.attained(
                        response.expected_score,
                        response.measured_wall_time_s,
                    )
                )
        return responses  # type: ignore[return-value]

    def stats(self) -> ServiceStats:
        """A snapshot of the engine counters (safe to mutate)."""
        estimator = getattr(self._scheduler, "estimator", None)
        ladder = self._ladder
        return replace(
            copy.deepcopy(self._stats),
            estimator_plan_compiles=getattr(estimator, "plan_compiles", 0),
            cache_evictions=self._cache.evictions,
            cache_persisted=self._cache.persisted,
            tier_step_downs=ladder.step_downs if ladder is not None else 0,
            tier_step_ups=ladder.step_ups if ladder is not None else 0,
            tier_probes=ladder.probes if ladder is not None else 0,
        )

    def run_trace(
        self,
        trace: ArrivalTrace,
        online: Optional[OnlineConfig] = None,
        record_mappings: bool = False,
        slo: Optional[SLOPolicy] = None,
        checkpoint: Optional[str] = None,
    ) -> TimelineReport:
        """Replay an arrival/departure trace, re-planning each change.

        The engine replays as a fleet of one: this delegates to
        :meth:`repro.fleet.FleetService.run_trace` over a one-board
        fleet holding this same engine, so decisions and counters are
        the fleet's and planned records carry this engine's board
        label (events turned away before placement are boardless, as
        in any fleet).  Events are processed in time order; events sharing a
        timestamp coalesce into one *group*.  Every event in a group
        gets its own re-search (over the mix as of that event), and
        the group's searches are driven concurrently with their leaf
        evaluations — and the warm path's arrival-completion
        candidates — pooled into shared ``predict_throughput_batch``
        calls, exactly like a ``schedule_many`` batch.  Within a group
        all searches warm-start from the rows retained *before* the
        group; the group's final decision is then committed as the
        retained state for the next event.  An arrival the board has
        no room for raises :class:`~repro.fleet.PlacementError`.

        ``slo`` attaches an :class:`~repro.slo.SLOPolicy`.  A policy
        with enforcement switched off is *observe-only*: the replay is
        byte-identical to ``slo=None`` and arrival records are merely
        annotated with attainment against the policy target.  With
        ``admission``/``preemption`` on, arrivals the controller turns
        away are queued (retried when a departure frees capacity) or
        rejected, and a non-admittable arrival may first evict
        strictly-lower-priority residents — every enforcement action
        lands in the record's ``action`` field and the engine's
        per-priority counters.

        Returns the per-event :class:`~repro.evaluation.TimelineReport`
        (set ``record_mappings`` to embed each decision's device rows).
        Re-planning costs also land in the engine counters:
        per-priority waits, pooled batches, estimator queries.

        ``checkpoint`` names a crash-consistent journal file
        (:class:`~repro.resilience.TraceJournal`): every committed
        event group is fsynced to it, and :meth:`resume_trace` can
        reconstruct and continue the replay after a crash,
        byte-identically.  Journals cover every policy this method
        takes: none, observe-only and enforcing SLO policies.
        """
        return self._fleet_of_one(slo).run_trace(
            trace, online, record_mappings, checkpoint=checkpoint
        )

    def resume_trace(
        self,
        trace: ArrivalTrace,
        checkpoint: str,
        online: Optional[OnlineConfig] = None,
        record_mappings: bool = False,
        slo: Optional[SLOPolicy] = None,
    ) -> TimelineReport:
        """Continue a journaled :meth:`run_trace` after a crash.

        The journal's completed groups are not re-planned: their
        records are re-emitted verbatim and the serving state (online
        tenancy + warm rows, the SLO enforcement queue, ladder and
        injector counters, cached admission scores) is restored from
        the last committed group, so the remainder of the replay —
        which keeps journaling into the same file — produces a
        :class:`~repro.evaluation.TimelineReport` byte-identical to
        the uninterrupted run.  Arguments must match the original call
        (the journal header pins them); a mismatch raises
        :class:`ValueError`.  Resuming an already-complete journal
        just re-emits the report.
        """
        return self._fleet_of_one(slo).resume_trace(
            trace, checkpoint, online, record_mappings
        )

    def _fleet_of_one(self, slo: Optional[SLOPolicy]):
        from .fleet.service import FleetService  # the fleet imports this module

        return FleetService._of_engine(self, slo)

    @property
    def source(self) -> Union[SystemBuilder, OmniBoostSystem]:
        """The builder or built system this engine serves."""
        return self._builder if self._builder is not None else self._system

    def resilience_state(self) -> Optional[Dict]:
        """Ladder + injector counters for checkpointing (None if unarmed)."""
        if self._ladder is None:
            return None
        return {
            "ladder": self._ladder.export_state(),
            "injector": self._injector.export_state(),
        }

    def restore_resilience_state(self, state: Optional[Dict]) -> None:
        """Restore a :meth:`resilience_state` snapshot."""
        if state is None or self._ladder is None:
            return
        self._ladder.restore_state(state["ladder"])
        self._injector.restore_state(state["injector"])

    def clear_cache(self, persistent: bool = False) -> int:
        """Drop all cached decisions, returning how many were held.

        With ``persistent`` the on-disk snapshot is deleted too
        (``repro cache clear``); without it, a bound snapshot is
        rewritten empty so memory and disk stay in agreement.
        """
        return self._cache.clear(persistent=persistent)

    @property
    def decision_cache(self) -> ShardedDecisionCache:
        """The bounded decision cache (inspection / tests)."""
        return self._cache

    @property
    def scheduler(self) -> Scheduler:
        """The backing scheduler (materializing it if still lazy)."""
        return self._scheduler_instance()

    # ------------------------------------------------------------------
    # Trace replay building blocks (fleet drives these per board)
    # ------------------------------------------------------------------
    def make_online_scheduler(
        self, online: Optional[OnlineConfig] = None
    ) -> OnlineScheduler:
        """A fresh :class:`~repro.online.OnlineScheduler` over this board.

        Raises :class:`TypeError` for non-OmniBoost schedulers — warm
        starts drive the estimator search, so there is nothing to
        re-plan incrementally for the baselines.
        """
        scheduler = self._scheduler_instance()
        if not isinstance(scheduler, OmniBoostScheduler):
            raise TypeError(
                "run_trace requires an OmniBoost scheduler (warm starts "
                f"drive its estimator search); got {scheduler.name!r}"
            )
        return OnlineScheduler(scheduler, online)

    def stage_trace_event(
        self, online_scheduler: OnlineScheduler, event: ArrivalEvent
    ) -> _Job:
        """Fold one event into the tenancy and stage its re-planning job."""
        online_scheduler.apply(event)
        workload = online_scheduler.current_workload()
        return _Job(
            workload=workload,
            steps=lambda job: online_scheduler.plan_steps(job.workload),
            objective=online_scheduler.scheduler.objective,
            event=event,
        )

    def replay_group(
        self,
        online_scheduler: OnlineScheduler,
        jobs: List[_Job],
        start_index: int,
        record_mappings: bool = False,
    ) -> List[TimelineRecord]:
        """Drive one coalesced group of staged jobs; commit the last outcome.

        The group's re-searches run concurrently with pooled
        evaluations; stats and per-priority waits are accounted here.
        Returns the group's timeline records (indices starting at
        ``start_index``).
        """
        scheduler = self._scheduler_instance()
        started = time.perf_counter()  # repro: lint-ignore[RPR002] -- host measurement of trace-step latency
        for job in jobs:
            job.started = started
        tier = self._resilient_drive(scheduler, jobs)
        committed = None
        records: List[TimelineRecord] = []
        index = start_index
        for job in jobs:
            if isinstance(job.outcome, ScheduleDecision):
                job.outcome = OnlineDecision(
                    decision=job.outcome, workload=job.workload, mode="greedy"
                )
            if job.outcome is not None:
                committed = job.outcome
            records.append(
                self._trace_record(index, job, record_mappings, tier)
            )
            self._stats.trace_events += 1
            if job.outcome is not None:
                self._stats.trace_reschedules += 1
                if job.outcome.mode == "warm":
                    self._stats.trace_warm_reschedules += 1
                self._stats.record_wait(job.event.priority, job.elapsed)
                self._account(job.outcome.decision)
            index += 1
        if committed is not None:
            online_scheduler.commit(committed)
        return records

    # ------------------------------------------------------------------
    # Degradation ladder (resilient pooled driving)
    # ------------------------------------------------------------------
    def _resilient_drive(
        self, scheduler: Scheduler, jobs: List[_Job]
    ) -> str:
        """Run one pooled drive under the degradation ladder.

        Without a :class:`~repro.resilience.ResiliencePolicy` this is a
        straight call into :meth:`_drive` — byte-identical behaviour.
        With one, a drive that dies with a typed fault
        (:class:`~repro.estimator.model.EstimatorFault` /
        :class:`~repro.nn.inference.PlanExecutionError`) is counted,
        stepped down, and *retried from scratch* at the new tier — the
        coroutines are recreated deterministically, so the retry is a
        pure function of the tier.  The greedy floor cannot fault, so
        every job is always answered.  Returns the tier that produced
        the decisions, ``""`` for the healthy top tier.
        """
        if self._ladder is None:
            self._drive(scheduler, jobs)
            return ""
        estimator = getattr(scheduler, "estimator", None)
        decisions = sum(1 for job in jobs if job.workload is not None)
        while True:
            tier = self._ladder.begin_attempt()
            try:
                if tier == "greedy":
                    for job in jobs:
                        if job.workload is not None:
                            job.outcome = self._greedy_decision(job.workload)
                            job.elapsed = time.perf_counter() - job.started  # repro: lint-ignore[RPR002] -- host measurement of per-job latency
                else:
                    saved = None
                    if estimator is not None and tier == "interpreter":
                        saved = estimator.use_compiled
                        estimator.use_compiled = False
                    self._active_tier = tier
                    try:
                        self._drive(scheduler, jobs)
                    finally:
                        self._active_tier = ""
                        if saved is not None:
                            estimator.use_compiled = saved
            except (EstimatorFault, PlanExecutionError):
                self._stats.faults_detected += 1
                self._ladder.record_fault()
                for job in jobs:  # rewind so the next tier starts over
                    job.gen = job.pending = job.outcome = None
                continue
            self._ladder.complete_attempt(decisions)
            if tier == TIERS[0]:
                return ""
            if decisions:
                self._stats.degraded_decisions += decisions
                self._stats.decisions_by_tier[tier] = (
                    self._stats.decisions_by_tier.get(tier, 0) + decisions
                )
            return tier

    def _evaluate_pairs(self, estimator, pairs) -> np.ndarray:
        """Price one pooled micro-batch at the active ladder tier.

        The static tier fabricates constant per-device rows from the
        closed-form :class:`~repro.baselines.ga.StaticCostModel` — zero
        estimator forwards — shaped exactly like
        ``predict_throughput_batch`` output so the search machinery is
        none the wiser (``reward_from_predictions`` reduces each row to
        its mean, recovering the static estimate).
        """
        if self._active_tier == "static":
            model = self._static_cost_model()
            num_devices = model.platform.num_devices
            return np.array(
                [
                    [model.estimate(workload, mapping)] * num_devices
                    for workload, mapping in pairs
                ]
            )
        return estimator.predict_throughput_batch(pairs)

    def _static_cost_model(self) -> StaticCostModel:
        if self._static_cost is None:
            if self._builder is not None:
                self._static_cost = self._builder.ga_cost_model
            else:
                self._static_cost = StaticCostModel(
                    self._system.platform,
                    self._system.latency_table,
                    offered_rate=self._system.simulator.config.offered_rate,
                )
        return self._static_cost

    def _greedy_decision(self, workload: Workload) -> ScheduleDecision:
        """The ladder floor: deterministic no-search whole-DNN placement.

        Each DNN lands, in workload order, on the device with the
        least accumulated profiled latency (its own estimated run time
        included; ties break on the lower device id).  Scored by the
        static cost model — zero estimator forwards, zero search
        iterations, always an answer.
        """
        cost_model = self._static_cost_model()
        table = cost_model.latency_table
        num_devices = cost_model.platform.num_devices
        busy = [0.0] * num_devices
        rows = []
        for model in workload.models:
            per_device = table.tables[model.name].sum(axis=1)
            device = min(
                range(num_devices),
                key=lambda d: (busy[d] + float(per_device[d]), d),
            )
            rows.append((device,) * model.num_layers)
            busy[device] += float(per_device[device])
        mapping = Mapping(rows)
        score = float(cost_model.estimate(workload, mapping))
        return ScheduleDecision(
            mapping=mapping,
            expected_score=score,
            wall_time_s=0.0,
            cost={
                "estimator_queries": 0.0,
                "estimator_queries_actual": 0.0,
            },
        )

    # ------------------------------------------------------------------
    # The pooled drive
    # ------------------------------------------------------------------
    def _drive(self, scheduler: OmniBoostScheduler, jobs: List[_Job]) -> None:
        """Advance every job's coroutine, pooling their evaluations.

        Each round collects the open ``(workload, mappings)`` requests
        of all jobs still waiting on rewards, prices them in ONE
        ``predict_throughput_batch`` call, and sends each job its
        slice.  Per-job cadence, reward values and trajectories are
        identical to running the jobs one at a time (see the module
        docstring for why).
        """
        estimator = scheduler.estimator
        for job in jobs:
            if job.workload is not None:
                job.gen = job.steps(job)
                self._advance(job)
        while True:
            waiting = [job for job in jobs if job.pending is not None]
            if not waiting:
                break
            pairs = [
                (workload, mapping)
                for workload, mappings in (job.pending for job in waiting)
                for mapping in mappings
            ]
            rows = self._evaluate_pairs(estimator, pairs)
            self._stats.pooled_eval_batches += 1
            self._stats.pooled_evaluations += len(pairs)
            offset = 0
            for job in waiting:
                workload, mappings = job.pending
                rewards = scheduler.reward_from_predictions(
                    workload,
                    mappings,
                    rows[offset : offset + len(mappings)],
                    job.objective,
                )
                offset += len(mappings)
                self._advance(job, rewards)

    @staticmethod
    def _advance(job: _Job, rewards: Optional[List[float]] = None) -> None:
        """Step one job's coroutine to its next yield (or completion)."""
        try:
            job.pending = job.gen.send(rewards)
        except StopIteration as stop:
            job.pending = None
            job.outcome = stop.value
            job.elapsed = time.perf_counter() - job.started  # repro: lint-ignore[RPR002] -- host measurement of per-job latency

    def _search_steps(self, scheduler: OmniBoostScheduler, job: _Job):
        """A request's MCTS search as a job coroutine.

        :meth:`~repro.online.OnlineScheduler._relay` adapts
        ``search_steps()`` to the ``(workload, mappings)`` protocol;
        on the healthy tiers a fast-path policy puts :meth:`_pruned`
        in front of every mean-throughput search.
        """
        workload = job.workload
        config = scheduler.request_config(job.request)
        prune = self._fast_path_active() and job.objective is None
        if prune:
            # The fast path ranks within rollout micro-batches; at the
            # default eval_batch_size=1 there is nothing to rank, so
            # the policy widens the batch — and multiplies the
            # candidate budget, spending the full forwards it saves on
            # a much wider search (student forwards are ~free).  Only
            # when this job will actually prune: a degraded-tier retry
            # or an objective-scored request (which the student cannot
            # rank) keeps the exact default search, which would
            # otherwise pay the widened budget in full forwards.
            config = replace(
                config,
                eval_batch_size=max(
                    config.eval_batch_size, self.fast_path.eval_batch_size
                ),
                budget=config.budget * self.fast_path.explore_factor,
            )
        search = scheduler.make_search(
            workload, config=config, objective=job.objective
        )
        steps = OnlineScheduler._relay(workload, search.search_steps())
        return self._pruned(scheduler, job, steps) if prune else steps

    def _pruned(self, scheduler: OmniBoostScheduler, job: _Job, steps):
        """The distilled fast path, in front of one search's coroutine.

        Each micro-batch the search yields is ranked by the student and
        only the top ``keep_count`` survivors are yielded on for
        full-estimator rewards.  Ranking stays within this job's own
        micro-batch, never across the pool — otherwise a decision
        would depend on which other requests share the drive, breaking
        the pooled == sequential contract.  The search gets the
        survivors' full rewards back, and the student's centered score
        for every pruned candidate, calibrated onto the reward scale
        with the survivors as anchors (the student only predicts
        within-batch deviations — see its docstring).

        A search that pruned anything is certified when it returns:
        the served mapping's score always comes from the full
        estimator.  One separate full forward, outside the pooled
        rounds, scores the best ``recertify`` proxy-scored candidates
        and — if it only ever carried a proxy — the search's pick; the
        best *fully-scored* candidate is then served.  The student
        therefore only decides evaluation order, never the served
        score, and never a score downgrade.  The answer is a
        :class:`ScheduleDecision` whose ``estimator_queries_actual`` is
        the full forwards this attempt paid (the search's own counter
        believes every reward was one).
        """
        student = self._student_instance(scheduler.estimator)
        full_scores: Dict[Mapping, float] = {}
        proxy_scores: Dict[Mapping, float] = {}
        forwards = 0
        try:
            workload, mappings = next(steps)
            while True:
                keep = self.fast_path.keep_count(len(mappings))
                survivors = list(range(len(mappings)))
                proxy = None
                if keep < len(mappings):
                    proxy = student.score_candidates(workload, mappings)
                    self._stats.distilled_queries += len(mappings)
                    ranked = sorted(survivors, key=lambda i: (-proxy[i], i))
                    survivors = sorted(ranked[:keep])
                    self._stats.distilled_pruned += len(mappings) - keep
                kept = [mappings[i] for i in survivors]
                full_rewards = yield workload, kept
                forwards += len(kept)
                for mapping, reward in zip(kept, full_rewards):
                    full_scores[mapping] = float(reward)
                rewards = list(full_rewards)
                if proxy is not None:
                    anchor = sum(full_rewards) / len(full_rewards)
                    surv_mean = float(np.mean([proxy[i] for i in survivors]))
                    rewards = [
                        anchor + student.reward_scale * (float(p) - surv_mean)
                        for p in proxy
                    ]
                    for index, reward in zip(survivors, full_rewards):
                        rewards[index] = reward
                    cut = set(survivors)
                    for i, mapping in enumerate(mappings):
                        if i not in cut:
                            proxy_scores[mapping] = rewards[i]
                workload, mappings = steps.send(rewards)
        except StopIteration as stop:
            result = stop.value
        if not proxy_scores:
            return result  # nothing pruned: every reward was a full forward
        chosen = result.mapping
        recertify = [
            mapping
            for mapping in sorted(
                proxy_scores, key=proxy_scores.__getitem__, reverse=True
            )[: self.fast_path.recertify]
            if mapping not in full_scores
        ]
        if chosen not in full_scores and chosen not in recertify:
            recertify.append(chosen)
        if recertify:
            forwards += len(recertify)
            rows = self._evaluate_pairs(
                scheduler.estimator,
                [(job.workload, mapping) for mapping in recertify],
            )
            rewards = scheduler.reward_from_predictions(
                job.workload, recertify, rows, job.objective
            )
            for mapping, reward in zip(recertify, rewards):
                full_scores[mapping] = float(reward)
        best_mapping, best_reward = chosen, full_scores[chosen]
        for mapping, reward in full_scores.items():
            if reward > best_reward:
                best_mapping, best_reward = mapping, reward
        return scheduler.decision_from_result(
            replace(result, mapping=best_mapping, reward=best_reward), forwards
        )

    def _trace_record(
        self,
        index: int,
        job: _Job,
        record_mappings: bool,
        tier: str = "",
    ) -> TimelineRecord:
        """Render one trace job as a timeline record."""
        event = job.event
        record = TimelineRecord(
            index=index,
            time_s=event.time_s,
            kind=event.kind,
            tenant_id=event.tenant_id,
            model=event.model,
            priority=event.priority,
            active_models=tuple(
                job.workload.model_names if job.workload is not None else ()
            ),
            mode="idle",
            board=self.board,
        )
        outcome = job.outcome
        if outcome is None:
            return record
        cost = outcome.decision.cost
        return replace(
            record,
            mode=outcome.mode,
            expected_score=outcome.expected_score,
            seed_reward=outcome.seed_reward,
            evaluations=cost.get("estimator_queries", 0.0),
            estimator_queries_actual=cost.get(
                "estimator_queries_actual", 0.0
            ),
            iterations=outcome.iterations,
            stopped_early=outcome.stopped_early,
            reschedule_time_s=job.elapsed,
            mapping_rows=(
                tuple(
                    tuple(row)
                    for row in outcome.decision.mapping.assignments
                )
                if record_mappings
                else None
            ),
            tier=tier,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _scheduler_instance(self) -> Scheduler:
        if self._scheduler is None:
            if self._builder is not None:
                self._scheduler = self._builder.build_scheduler(self.scheduler_name)
            else:
                self._scheduler = self._system.scheduler(self.scheduler_name)
            if self._injector is not None:
                estimator = getattr(self._scheduler, "estimator", None)
                if estimator is not None:
                    estimator.fault_hook = self._injector.on_forward
        self._bind_cache()
        return self._scheduler

    def _bind_cache(self) -> None:
        """Attach the estimator identity to the decision cache.

        Binding loads any persisted snapshot whose token still matches
        (restart warm-up), quarantines corrupt snapshots into
        ``ServiceStats.cache_corruptions``, and — should the estimator
        retrain or re-load mid-process (``Module.version`` bump) —
        drops every now-stale entry rather than serve one.
        """
        estimator = getattr(self._scheduler, "estimator", None)
        if estimator is not None:
            version = int(estimator.network.version)
            if self._cache_token is None or self._cache_token[0] != version:
                self._cache_token = (
                    version,
                    estimator_cache_token(estimator.network),
                )
            token = self._cache_token[1]
        else:
            # Estimator-free baselines: decisions depend only on the
            # (deterministic) cost model, named in the cache key.
            token = f"scheduler:{self.scheduler_name}"
        quarantined = self._cache.bind(token)
        if quarantined:
            self._stats.cache_corruptions += quarantined

    def _student_instance(self, estimator) -> DistilledEstimator:
        """The distilled student, (re)built lazily from the teacher.

        A stale student (the teacher's ``Module.version`` moved since
        distillation — retraining, ``load_state_dict``, an embedding
        swap) is re-distilled rather than consulted: its rankings
        describe a network that no longer exists.
        """
        if self._student is None or self._student.is_stale(estimator):
            self._student = distill_estimator(
                estimator,
                self._distill_groups(),
                self._static_cost_model(),
                self.fast_path,
            )
        return self._student

    def _distill_groups(self) -> List[Tuple[Workload, List[Mapping]]]:
        """Deterministic per-mix distillation groups, fresh generator.

        A dedicated :class:`~repro.workloads.generator.WorkloadGenerator`
        (seeded from the policy) keeps distillation from consuming the
        shared generator's stream — sampling through the system's own
        generator would shift every later seeded draw and change
        decisions elsewhere.  Each group is one mix with several random
        contiguous mappings: the student trains on *within-mix*
        contrast, the only signal pruning ever uses (mix sizes cycle
        1..5 so every workload width the front door serves is
        represented).
        """
        base = self.source.generator
        sampler = WorkloadGenerator(
            model_names=base.model_names,
            num_devices=base.num_devices,
            max_total_weight_bytes=base.max_total_weight_bytes,
            seed=self.fast_path.seed + 11,
        )
        rng = np.random.default_rng(self.fast_path.seed + 13)
        groups: List[Tuple[Workload, List[Mapping]]] = []
        for index in range(self.fast_path.mixes):
            mix = sampler.sample_mix(1 + index % 5)
            mappings = [
                random_contiguous_mapping(
                    mix.models, sampler.num_devices, rng
                )
                for _ in range(self.fast_path.mappings_per_mix)
            ]
            groups.append((mix, mappings))
        return groups

    def _fast_path_active(self) -> bool:
        """Prune only on the healthy (full-estimator) tiers.

        Degraded tiers are the exact-mode fallback: the interpreter
        tier is already answering a fault, and the static/greedy tiers
        never touch the estimator at all — a student trained against
        it would be ranking for the wrong oracle.
        """
        return self.fast_path is not None and self._active_tier in (
            "",
            TIERS[0],
        )

    @staticmethod
    def _normalize(
        request: Union[ScheduleRequest, Workload], **knobs
    ) -> ScheduleRequest:
        if isinstance(request, ScheduleRequest):
            if knobs:
                raise TypeError(
                    "knobs are only accepted with a bare Workload; "
                    "set them on the ScheduleRequest instead"
                )
            return request
        if isinstance(request, Workload):
            return ScheduleRequest(workload=request, **knobs)
        raise TypeError(
            f"expected ScheduleRequest or Workload, got {type(request).__name__}"
        )

    def _cache_key(self, request: ScheduleRequest) -> Optional[CacheKey]:
        if not self.cache_decisions or request.objective is not None:
            return None
        return (
            self.scheduler_name,
            canonical_signature(request.workload.model_names),
            request.budget,
        )

    def _hit_response(
        self,
        request: ScheduleRequest,
        cached: Tuple[Tuple[str, ...], ScheduleDecision],
        started: float,
    ) -> ScheduleResponse:
        names, decision = cached
        decision = self._align_decision(decision, names, request.workload)
        return ScheduleResponse(
            decision=decision,
            scheduler_name=self._scheduler_instance().name,
            cache_status="hit",
            measured_wall_time_s=time.perf_counter() - started,  # repro: lint-ignore[RPR002] -- host measurement of cache-hit latency
            request_id=request.request_id,
        )

    @staticmethod
    def _align_decision(
        decision: ScheduleDecision,
        cached_names: Tuple[str, ...],
        workload: Workload,
    ) -> ScheduleDecision:
        """Re-align a cached mapping's rows to a permuted duplicate mix.

        Workload order carries no semantics (networks run
        concurrently), but mapping rows align positionally — a cached
        decision for ``a+b`` answers ``b+a`` after swapping rows.
        """
        if tuple(workload.model_names) == cached_names:
            return decision
        row_of = {name: index for index, name in enumerate(cached_names)}
        rows = [
            decision.mapping.assignments[row_of[name]]
            for name in workload.model_names
        ]
        return replace(decision, mapping=Mapping(rows))

    def _respond_direct(
        self, scheduler: Scheduler, request: ScheduleRequest
    ) -> ScheduleResponse:
        """Non-pooling fallback: one synchronous scheduler call."""
        response = scheduler.respond(request)
        self._account(response.decision)
        key = self._cache_key(request)
        if key is not None:
            self._cache.put(
                key,
                tuple(request.workload.model_names),
                response.decision,
            )
        return replace(
            response,
            cache_status="miss" if key is not None else "bypass",
        )

    def _account(self, decision: ScheduleDecision) -> None:
        cost = decision.cost
        self._stats.estimator_queries += cost.get("estimator_queries", 0.0)
        self._stats.estimator_queries_actual += cost.get(
            "estimator_queries_actual", cost.get("estimator_queries", 0.0)
        )
