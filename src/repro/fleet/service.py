"""Multi-board serving: the :class:`FleetService`.

One request stream, many boards.  The fleet holds one
:class:`~repro.engine.SchedulingEngine` per :class:`~repro.fleet.Board`
(each engine: its own decision cache, pooled concurrent MCTS drive and
:class:`~repro.engine.ServiceStats`), and a
:class:`~repro.fleet.placement.FleetPlacer` that routes every incoming
mix — or the chunks of a mix too large for any one board — to a board
before any search runs.

``schedule_many`` places the whole batch first, then hands each board
its share *in one call*, so a board's requests pool their MCTS leaf
evaluations through shared
:meth:`~repro.estimator.model.ThroughputEstimator.predict_throughput_batch`
calls exactly like a single-board batch (the per-sample
batch-invariance doctrine makes the pooled decisions identical to a
sequential per-request loop; only the call count drops).  Responses
come back as :class:`FleetResponse` objects carrying board
attribution, aligned with the input order.

``run_trace`` replays an :class:`~repro.workloads.trace.ArrivalTrace`
against the fleet: each arrival is *placed* (same scored/greedy
policy, against live tenancy), each board re-plans its own changes
with warm-started searches, same-timestamp groups drive their
per-board re-searches concurrently, and a departure that leaves the
fleet imbalanced triggers a cross-board re-placement (one tenant
migrates from the most- to the least-loaded board, re-planned warm on
both).  The aggregated :class:`~repro.evaluation.TimelineReport`
interleaves every board's records in event order, each tagged with its
board name.  This is the repo's one trace-replay loop:
:meth:`~repro.engine.SchedulingEngine.run_trace` replays as a fleet of
one board holding that same engine.

:meth:`FleetService.stats` returns the :class:`FleetStats` rollup:
per-board :class:`~repro.engine.ServiceStats` plus fleet-level
placement/migration counters and a combined cross-board summary.

A three-board fleet in four lines::

    >>> from repro.fleet import Cluster, FleetService
    >>> from repro.workloads import fleet_scenario
    >>> cluster = Cluster.from_presets(
    ...     {"edge0": "hikey970", "edge1": "hikey970_with_npu", "edge2": "cpu_only_board"},
    ...     estimator={"num_training_samples": 150, "epochs": 10},
    ... )
    >>> service = FleetService(cluster)
    >>> responses = service.schedule_many(fleet_scenario("request-burst").build_mixes(0))
    >>> print(service.stats().summary())
"""

from __future__ import annotations

import copy
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.base import ScheduleRequest, ScheduleResponse
from ..engine import SchedulingEngine, ServiceStats
from ..estimator.distill import FastPathPolicy
from ..evaluation.timeline import TimelineRecord, TimelineReport
from ..online import OnlineConfig, OnlineScheduler
from ..resilience import ResiliencePolicy, TraceJournal, trace_fingerprint
from ..sim.mapping import Mapping
from ..slo import (
    AdmissionController,
    AttainmentTracker,
    SLOPolicy,
    make_estimator_scorer,
    preemption_victims,
)
from ..workloads.mix import Workload
from ..workloads.trace import ArrivalEvent, ArrivalTrace, ChaosPlan
from .cluster import _SEED_STRIDE, Board, Cluster
from .elastic import Autoscaler, ElasticPolicy
from .placement import BoardPlacement, FleetPlacer, PlacementError

__all__ = ["FleetResponse", "FleetService", "FleetStats"]

#: Load imbalance (in resident DNNs) that triggers a migration.
_REBALANCE_GAP = 2

#: One re-plan of a group: ``(board, event, action)`` to stage on a
#: board, or a ready no-plan record for an event kept off every board.
_Slot = Union[Tuple[str, ArrivalEvent, str], TimelineRecord]


@dataclass
class _ReplayState:
    """Everything one trace replay mutates; :meth:`to_dict` is its journal form.

    Each ``run_trace`` starts from a fresh state (an empty fleet), and
    ``resume_trace`` rebuilds one from the last committed journal line.
    Warm states read from a journal wait in ``warm`` until their
    board's online scheduler is first needed: restoring eagerly would
    train every board's estimator even when no group remains.
    """

    online: Optional[OnlineConfig] = None
    #: Live tenancy: board -> tenant id -> (model, priority), arrival order.
    tenants: Dict[str, Dict[str, Tuple[str, int]]] = field(default_factory=dict)
    tenant_board: Dict[str, str] = field(default_factory=dict)
    onlines: Dict[str, OnlineScheduler] = field(default_factory=dict)
    warm: Dict[str, Dict] = field(default_factory=dict)
    #: SLO enforcement: deferred arrivals in FIFO order, and tenants
    #: (rejected, preempted, expired) whose later departure is a no-op.
    queue: List[ArrivalEvent] = field(default_factory=list)
    ghosts: Set[str] = field(default_factory=set)
    #: Chaos: boards killed so far and how many plan failures fired.
    dead_boards: List[str] = field(default_factory=list)
    failures_fired: int = 0
    #: Report attribution as of the last commit: a resume that finds
    #: every group committed materializes no scheduler to read it from.
    scheduler: str = ""

    def to_dict(self) -> Dict:
        onlines = {
            board: online.export_state()
            for board, online in self.onlines.items()
        }
        for board, pending in self.warm.items():
            # Restored but not touched since: carry it forward so a
            # second crash and resume does not lose it.
            onlines.setdefault(board, pending)
        return {
            "tenants": {
                board: [
                    [tenant_id, model, priority]
                    for tenant_id, (model, priority) in tenants.items()
                ]
                for board, tenants in self.tenants.items()
            },
            "tenant_board": [
                [tenant_id, board]
                for tenant_id, board in self.tenant_board.items()
            ],
            "onlines": onlines,
            "queue": [event.to_dict() for event in self.queue],
            "ghosts": sorted(self.ghosts),
            "dead_boards": list(self.dead_boards),
            "failures_fired": self.failures_fired,
            "scheduler": self.scheduler,
        }

    @classmethod
    def from_dict(
        cls, payload: Dict, online: Optional[OnlineConfig]
    ) -> "_ReplayState":
        return cls(
            online=online,
            tenants={
                board: {
                    tenant_id: (model, int(priority))
                    for tenant_id, model, priority in tenants
                }
                for board, tenants in payload["tenants"].items()
            },
            tenant_board=dict(payload["tenant_board"]),
            warm=dict(payload["onlines"]),
            queue=[ArrivalEvent.from_dict(event) for event in payload["queue"]],
            ghosts=set(payload["ghosts"]),
            dead_boards=list(payload["dead_boards"]),
            failures_fired=int(payload["failures_fired"]),
            scheduler=payload["scheduler"],
        )


@dataclass(frozen=True)
class FleetResponse:
    """One request's fleet answer: board-attributed part responses.

    ``parts`` aligns placements with their per-board
    :class:`~repro.core.base.ScheduleResponse`; an unsplit request has
    exactly one part and the convenience accessors (:attr:`board`,
    :attr:`response`, :attr:`mapping`, :attr:`expected_score`) read
    it directly — they raise on a split response, whose parts must be
    inspected individually.

    ``admission`` is ``"admitted"`` unless a fleet
    :class:`~repro.slo.SLOPolicy` turned the request away
    (``"rejected"`` / ``"queued"``) — a non-admitted response carries
    no parts.
    """

    request_id: str
    parts: Tuple[Tuple[BoardPlacement, ScheduleResponse], ...]
    admission: str = "admitted"

    @property
    def split(self) -> bool:
        return len(self.parts) > 1

    def _single(self) -> Tuple[BoardPlacement, ScheduleResponse]:
        if not self.parts:
            raise ValueError(
                f"request was not admitted ({self.admission}); "
                "it carries no scheduling answer"
            )
        if self.split:
            boards = [placement.board for placement, _ in self.parts]
            raise ValueError(
                f"request was split across boards {boards}; inspect "
                ".parts instead of the single-board accessors"
            )
        return self.parts[0]

    @property
    def board(self) -> str:
        return self._single()[0].board

    @property
    def response(self) -> ScheduleResponse:
        return self._single()[1]

    @property
    def mapping(self) -> Mapping:
        return self.response.mapping

    @property
    def expected_score(self) -> float:
        return self.response.expected_score

    @property
    def aggregate_score(self) -> float:
        """DNN-weighted mean of the part scores (= the paper's mean
        predicted system throughput over the whole original mix)."""
        if not self.parts:
            raise ValueError(
                f"request was not admitted ({self.admission}); "
                "it has no score"
            )
        total = sum(
            response.expected_score * placement.workload.num_dnns
            for placement, response in self.parts
        )
        dnns = sum(
            placement.workload.num_dnns for placement, _ in self.parts
        )
        return total / dnns


@dataclass
class FleetStats:
    """The fleet rollup: per-board engine counters + placement counters."""

    per_board: Dict[str, ServiceStats] = field(default_factory=dict)
    #: Final counter snapshots of boards drained or killed mid-trace —
    #: :attr:`combined` sums these too, so retiring a board never
    #: un-counts the requests and waits it already served.
    retired_boards: Dict[str, ServiceStats] = field(default_factory=dict)
    requests_served: int = 0
    placements: int = 0
    scored_placements: int = 0
    placement_evaluations: int = 0
    greedy_fallbacks: int = 0
    split_requests: int = 0
    migrations: int = 0
    #: Fleet-level enforcement actions (no board involved: the
    #: admission controller turned the request away before placement).
    #: Preemptions always hit a specific board and live in that
    #: board's :class:`~repro.engine.ServiceStats`.
    rejections_by_priority: Dict[int, int] = field(default_factory=dict)
    queued_by_priority: Dict[int, int] = field(default_factory=dict)

    @property
    def combined(self) -> ServiceStats:
        """Every board's :class:`ServiceStats` summed into one view.

        The rollup covers every per-priority counter — request counts,
        waits, SLO attainment, rejections, preemptions, queue deferrals —
        plus the fleet-level admission actions (which have no board to
        live on), so ``combined`` is the one place per-priority
        service levels are complete.  Boards retired mid-trace
        (drained by the autoscaler or killed by a chaos plan) keep
        contributing through :attr:`retired_boards` — totals are
        conserved across fleet-composition changes (pinned in
        ``tests/test_fleet_elastic.py``).
        """
        total = ServiceStats()
        for stats in (
            *self.per_board.values(),
            *self.retired_boards.values(),
            ServiceStats(
                rejections_by_priority=self.rejections_by_priority,
                queued_by_priority=self.queued_by_priority,
            ),
        ):
            total.absorb(stats)
        return total

    def summary(self) -> str:
        """A one-paragraph fleet summary."""
        combined = self.combined
        boards = f"{len(self.per_board)} board(s)"
        if self.retired_boards:
            boards += f" (+{len(self.retired_boards)} retired)"
        text = (
            f"{self.requests_served} requests over "
            f"{boards}: "
            f"{self.placements} placements "
            f"({self.scored_placements} scored, "
            f"{self.placement_evaluations} placement evaluations, "
            f"{self.greedy_fallbacks} greedy fallbacks, "
            f"{self.split_requests} split, "
            f"{self.migrations} migrations); "
            f"cache hit rate {combined.cache_hit_rate:.0%}, "
            f"{combined.pooled_eval_batches} pooled estimator batches "
            f"(mean size {combined.mean_pooled_batch_size:.1f}), "
            f"{combined.estimator_queries_actual:.0f} estimator queries "
            f"paid of {combined.estimator_queries:.0f} budgeted"
        )
        if combined.requests_by_priority:
            waits = ", ".join(
                f"p{priority}: {combined.mean_wait_s(priority) * 1000:.0f}ms"
                f" ({combined.requests_by_priority[priority]})"
                for priority in sorted(combined.requests_by_priority)
            )
            text += f"; mean wait by priority {waits}"
        if combined.slo_requests:
            rejected = sum(combined.rejections_by_priority.values())
            preempted = sum(combined.preemptions_by_priority.values())
            queued = sum(combined.queued_by_priority.values())
            text += (
                f"; SLO attainment {combined.slo_attainment_rate:.0%} "
                f"over {combined.slo_requests} outcomes "
                f"({rejected} rejected, {queued} queued, "
                f"{preempted} preempted)"
            )
        return text


class FleetService:
    """Cross-board scheduling front end over a :class:`~repro.fleet.Cluster`.

    Parameters
    ----------
    cluster:
        The named boards; each gets its own lazy
        :class:`~repro.engine.SchedulingEngine` (nothing trains until
        a request is routed to the board).
    scheduler:
        Registry name answering requests on every board.
    cache_decisions:
        Per-board decision caching (same semantics as the single-board
        service).
    placement:
        ``"estimator"`` (scored candidates, greedy fallback) or
        ``"greedy-load"`` — see :class:`~repro.fleet.placement.FleetPlacer`.
    slo:
        Optional :class:`~repro.slo.SLOPolicy` serving contract.
        ``None`` (the default) keeps the fleet byte-identical to the
        pre-SLO service; an observe-only policy annotates outcomes
        without changing them; an enforcing policy gates admission in
        ``schedule_many`` and drives admission/queueing/preemption in
        ``run_trace``.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy` armed on
        *every* board's engine — each board gets its own independent
        degradation ladder and fault injector (fault call counts are
        per board, matching each board's private estimator).  ``None``
        keeps every path byte-identical to the pre-resilience fleet.
    cache_shards / cache_capacity:
        Per-board decision-cache geometry (forwarded to every engine's
        :class:`~repro.frontdoor.cache.ShardedDecisionCache`).
    cache_dir:
        Root directory for persisted decision caches; each board
        snapshots under ``<cache_dir>/<board name>/`` so a restarted
        fleet replays previously-decided mixes with zero estimator
        forwards.  ``None`` keeps the caches in-memory only.
    fast_path:
        Optional :class:`~repro.estimator.distill.FastPathPolicy`
        arming the distilled pruning fast path on every board's
        engine.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: str = "omniboost",
        cache_decisions: bool = True,
        placement: str = "estimator",
        slo: Optional[SLOPolicy] = None,
        resilience: Optional[ResiliencePolicy] = None,
        cache_shards: int = 4,
        cache_capacity: int = 128,
        cache_dir: Optional[str] = None,
        fast_path: Optional["FastPathPolicy"] = None,
    ) -> None:
        if not isinstance(cluster, Cluster):
            raise TypeError(
                f"cluster must be a Cluster, got {type(cluster).__name__}"
            )
        self.cluster = cluster
        self.scheduler_name = scheduler.strip().lower()
        self._cache_decisions = cache_decisions
        self._cache_shards = cache_shards
        self._cache_capacity = cache_capacity
        self._cache_dir = cache_dir
        self.fast_path = fast_path
        self.resilience = resilience
        self._engines: Dict[str, SchedulingEngine] = {}
        #: Per-replay state, reset at the start of every replay: a
        #: trace starts from an empty fleet.
        self._replay = _ReplayState()
        self.placer = FleetPlacer(
            lambda name: self._engines[name].scheduler,
            order=cluster.board_names,
            mode=placement,
        )
        for board in cluster:
            self._register_board(board)
        self._requests_served = 0
        self._split_requests = 0
        self._migrations = 0
        self.slo = slo
        self._admission: Optional[AdmissionController] = None
        #: Requests the admission controller turned away before
        #: placement (queued and rejected, per priority): no board
        #: hosts them.
        self._turned_away = ServiceStats()
        #: Final counter snapshots of boards retired (drained or
        #: killed) — rolled into :attr:`FleetStats.retired_boards`.
        self._retired: Dict[str, ServiceStats] = {}
        #: Seed-lane bookkeeping for elastically provisioned boards:
        #: board i of the initial fleet sits on lane ``seed + 1000*i``,
        #: so provisioned boards continue at lane ``initial_size +
        #: provisioned`` and never collide with a sibling.
        self._initial_size = len(cluster)
        self._provisioned = 0
        #: Names of live elastically provisioned boards — the only
        #: boards scale-in may retire (the onload tier returns; the
        #: baseline edge fleet stays).
        self._elastic_names: set = set()

    @classmethod
    def _of_engine(
        cls, engine: SchedulingEngine, slo: Optional[SLOPolicy]
    ) -> "FleetService":
        """A one-board fleet holding ``engine`` itself (its trace replays).

        The engine keeps its label, caches and counters.  Arrivals the
        fleet turns away are counted on the engine as well, because a
        single board has no fleet rollup to report them.
        """
        name = engine.board or "board"
        fleet = cls(
            Cluster([Board(name=name, source=engine.source)]),
            scheduler=engine.scheduler_name,
            slo=slo,
            resilience=engine.resilience,
        )
        fleet._engines[name] = engine
        fleet._turned_away = engine._stats
        return fleet

    @property
    def _tenants(self) -> Dict[str, Dict[str, Tuple[str, int]]]:
        """Live tenancy of the current replay (board -> tenant -> entry)."""
        return self._replay.tenants

    # ------------------------------------------------------------------
    # Batch serving
    # ------------------------------------------------------------------
    def engine(self, board: str) -> SchedulingEngine:
        """One board's engine (for stats or direct single-board use)."""
        if board not in self._engines:
            raise KeyError(
                f"fleet has no board {board!r}; boards: "
                f"{', '.join(self._engines)}"
            )
        return self._engines[board]

    def submit(
        self,
        request: Union[ScheduleRequest, Workload],
        **knobs,
    ) -> FleetResponse:
        """Answer one request (``knobs`` forward to :class:`ScheduleRequest`)."""
        return self.schedule_many(
            [SchedulingEngine._normalize(request, **knobs)]
        )[0]

    def schedule_many(
        self, requests: Sequence[Union[ScheduleRequest, Workload]]
    ) -> List[FleetResponse]:
        """Place, fan out and answer a batch; responses align with input.

        Placement runs first for the whole batch (load counts what the
        batch has already routed to each board, so similar boards
        spread); each board then answers its share in ONE
        ``schedule_many`` call, pooling the share's leaf evaluations.
        A board's decisions are byte-identical to serving its share
        sequentially — the fan-out changes call counts, never results.

        With an admission-enabled :class:`~repro.slo.SLOPolicy`, each
        request is first scored against the load the batch has already
        admitted; ``"rejected"`` / ``"queued"`` requests come back
        with no parts (and the matching per-priority counters tick) —
        a queued batch request is the caller's to resubmit, since a
        batch has no later timestamp to defer it to.
        """
        normalized = [SchedulingEngine._normalize(r) for r in requests]
        if not normalized:
            return []
        verdicts = self._admit_batch(normalized)
        capacity = {
            board.name: board.max_residency for board in self.cluster
        }
        load: Dict[str, int] = {name: 0 for name in self._engines}
        #: board -> list of (request position, part position, placement,
        #: sub-request) in arrival order.
        shares: Dict[str, List[Tuple[int, int, BoardPlacement, ScheduleRequest]]] = {
            name: [] for name in self._engines
        }
        placements: List[List[BoardPlacement]] = []
        for position, request in enumerate(normalized):
            if verdicts[position] != "admitted":
                placements.append([])
                continue
            parts = self.placer.place(request.workload, load, capacity)
            placements.append(parts)
            if len(parts) > 1:
                self._split_requests += 1
            for part_position, part in enumerate(parts):
                sub = (
                    request
                    if part.workload is request.workload
                    else replace(request, workload=part.workload)
                )
                shares[part.board].append(
                    (position, part_position, part, sub)
                )
                load[part.board] = load.get(part.board, 0) + part.workload.num_dnns

        answers: Dict[Tuple[int, int], ScheduleResponse] = {}
        for board, share in shares.items():
            if not share:
                continue
            responses = self._engines[board].schedule_many(
                [sub for _, _, _, sub in share]
            )
            for (position, part_position, _, _), response in zip(
                share, responses
            ):
                answers[(position, part_position)] = response

        self._requests_served += len(normalized)
        return [
            FleetResponse(
                request_id=request.request_id,
                parts=tuple(
                    (part, answers[(position, part_position)])
                    for part_position, part in enumerate(parts)
                ),
                admission=verdicts[position],
            )
            for position, (request, parts) in enumerate(
                zip(normalized, placements)
            )
        ]

    def _admit_batch(
        self, normalized: Sequence[ScheduleRequest]
    ) -> List[str]:
        """Batch admission verdicts (all ``"admitted"`` without a policy).

        Load counts what this batch has already admitted against the
        fleet's total residency, so the controller's monotonicity
        applies within a burst: once the batch fills the fleet past a
        mix's floor, every later equivalent mix is turned away too.
        """
        slo = self.slo
        if slo is None or not slo.admission:
            return ["admitted"] * len(normalized)
        controller = self._admission_controller()
        total_capacity = sum(
            board.max_residency for board in self.cluster
        )
        admitted_load = 0
        verdicts: List[str] = []
        for request in normalized:
            names = request.workload.model_names
            decision = controller.evaluate(
                names,
                load=admitted_load,
                capacity=total_capacity,
                floor=slo.floor_for(request.slo),
            )
            if decision.verdict == "admit":
                verdicts.append("admitted")
                admitted_load += len(names)
            elif decision.verdict == "queue":
                verdicts.append("queued")
                self._turned_away.record_queued(request.priority)
            else:
                verdicts.append("rejected")
                self._turned_away.record_rejection(request.priority)
        return verdicts

    def _admission_controller(self) -> AdmissionController:
        """The fleet's (lazy) admission controller.

        The scorer resolves the first estimator-backed board on first
        use — admission scoring is a fleet-level estimate, not a
        per-board one, and stays untouched while no floor applies.
        """
        if self._admission is None:

            def scorer(workload: Workload) -> float:
                for name in self.cluster.board_names:
                    scheduler = self._engines[name].scheduler
                    if getattr(scheduler, "estimator", None) is not None:
                        return make_estimator_scorer(scheduler)(workload)
                raise TypeError(
                    "admission scoring needs at least one "
                    "estimator-backed board"
                )

            self._admission = AdmissionController(self.slo, scorer=scorer)
        return self._admission

    def stats(self) -> FleetStats:
        """The :class:`FleetStats` rollup (snapshot; safe to mutate)."""
        return FleetStats(
            per_board={
                name: engine.stats()
                for name, engine in self._engines.items()
            },
            retired_boards=copy.deepcopy(self._retired),
            requests_served=self._requests_served,
            placements=self.placer.placements,
            scored_placements=self.placer.scored_placements,
            placement_evaluations=self.placer.placement_evaluations,
            greedy_fallbacks=self.placer.greedy_fallbacks,
            split_requests=self._split_requests,
            migrations=self._migrations,
            rejections_by_priority=dict(
                self._turned_away.rejections_by_priority
            ),
            queued_by_priority=dict(self._turned_away.queued_by_priority),
        )

    # ------------------------------------------------------------------
    # Elasticity: boards joining and leaving a live fleet
    # ------------------------------------------------------------------
    def _register_board(self, board: Board) -> None:
        """Wire a cluster board into the fleet (engine, tenancy, order)."""
        self._engines[board.name] = SchedulingEngine(
            board.source,
            scheduler=self.scheduler_name,
            cache_decisions=self._cache_decisions,
            board=board.name,
            resilience=self.resilience,
            cache_shards=self._cache_shards,
            cache_capacity=self._cache_capacity,
            cache_dir=(
                os.path.join(self._cache_dir, board.name)
                if self._cache_dir is not None
                else None
            ),
            fast_path=self.fast_path,
        )
        self._tenants.setdefault(board.name, {})
        self.placer.update_order(self.cluster.board_names)

    def _retire_board(self, name: str) -> ServiceStats:
        """Drop an empty board, archiving its counters for the rollup."""
        if self._tenants.get(name):
            raise ValueError(
                f"board {name!r} still hosts "
                f"{len(self._tenants[name])} tenant(s); drain it first"
            )
        snapshot = self._engines[name].stats()
        if name in self._retired:
            self._retired[name].absorb(snapshot)
        else:
            self._retired[name] = snapshot
        del self._engines[name]
        self._replay.onlines.pop(name, None)
        self._replay.warm.pop(name, None)
        self._tenants.pop(name, None)
        self._elastic_names.discard(name)
        self.cluster.remove_board(name)
        self.placer.update_order(self.cluster.board_names)
        return snapshot

    def provision_board(
        self,
        preset: str,
        seed_base: int = 0,
        name: Optional[str] = None,
    ) -> Board:
        """Scale-out: provision a preset board and join it to the fleet.

        The new board continues the cluster's seed-lane scheme
        (``seed_base + 1000 * lane``, lanes counting past the initial
        fleet), is named ``elastic<N>`` unless overridden, and stays
        lazy — nothing profiles or trains until placement first routes
        a mix there.
        """
        if name is None:
            name = f"elastic{self._provisioned}"
        seed = seed_base + _SEED_STRIDE * (
            self._initial_size + self._provisioned
        )
        board = self.cluster.provision(name, preset, seed)
        self._provisioned += 1
        self._elastic_names.add(board.name)
        self._register_board(board)
        return board

    def drain_board(
        self,
        board: str,
        time_s: float = 0.0,
        record_mappings: bool = False,
    ) -> List[TimelineRecord]:
        """Warm-migrate every resident off ``board``, then retire it.

        Residents move in arrival order to greedy least-loaded feasible
        destinations (the cross-board migration path ``run_trace``'s
        rebalancer uses); each hop re-plans the destination through the
        warm re-search and appends a ``"drained"`` departure/arrival
        pair, followed by a ``"retired"`` marker carrying the new fleet
        size.  The board's counters are archived into
        :attr:`FleetStats.retired_boards`.  Raises
        :class:`~repro.fleet.PlacementError` when the survivors cannot
        host every resident, and ``ValueError`` on the last board.
        """
        if board not in self._engines:
            raise KeyError(
                f"fleet has no board {board!r}; boards: "
                f"{', '.join(self._engines)}"
            )
        return self._drain_and_retire(
            board, time_s, 0, record_mappings, action="retired"
        )

    def _active_models(self) -> Tuple[str, ...]:
        """Fleet-wide resident models, tenant arrival order."""
        return tuple(model for model, _ in self._fleet_residents().values())

    def _fleet_marker(
        self, time_s: float, kind: str, board: str, action: str
    ) -> TimelineRecord:
        """A composition-change marker (failure / scale) record."""
        return TimelineRecord(
            index=0,
            time_s=time_s,
            kind=kind,
            tenant_id="",
            model="",
            priority=0,
            active_models=self._active_models(),
            mode="idle",
            board=board,
            action=action,
            fleet_size=len(self.cluster),
        )

    def _drain_plan(
        self, board: str
    ) -> Optional[List[Tuple[str, str, int, str]]]:
        """Destinations for every resident of ``board``, or ``None``.

        Greedy least-loaded assignment in arrival order (cluster-order
        tie-break), honoring residency caps and the no-duplicate-model
        rule.  Pure planning — no estimator call, no state change — so
        the autoscaler can dry-run it to prove a scale-in is safe
        before committing.
        """
        load = {
            name: len(tenants)
            for name, tenants in self._tenants.items()
            if name != board
        }
        blocked = {
            name: {model for model, _ in tenants.values()}
            for name, tenants in self._tenants.items()
            if name != board
        }
        capacity = {
            entry.name: entry.max_residency
            for entry in self.cluster
            if entry.name != board
        }
        order = [name for name in self.placer.order if name != board]
        plan: List[Tuple[str, str, int, str]] = []
        for tenant_id, (model, priority) in self._tenants[board].items():
            feasible = [
                name
                for name in order
                if load[name] < capacity[name] and model not in blocked[name]
            ]
            if not feasible:
                return None
            dest = min(
                feasible, key=lambda name: (load[name], order.index(name))
            )
            plan.append((tenant_id, model, priority, dest))
            load[dest] += 1
            blocked[dest].add(model)
        return plan

    def _drain_and_retire(
        self,
        board: str,
        time_s: float,
        start_index: int,
        record_mappings: bool,
        action: str,
    ) -> List[TimelineRecord]:
        """Execute a drain plan, retire the board, emit the records."""
        plan = self._drain_plan(board)
        if plan is None:
            raise PlacementError(
                f"cannot drain {board!r}: the surviving boards cannot "
                "host every resident"
            )
        records: List[TimelineRecord] = []
        for tenant_id, model, priority, dest in plan:
            del self._tenants[board][tenant_id]
            self._replay.tenant_board.pop(tenant_id, None)
            departure = self._fleet_noop(
                ArrivalEvent(time_s, "departure", tenant_id, model, priority),
                "drained",
                board,
            )
            arrival = ArrivalEvent(time_s, "arrival", tenant_id, model, priority)
            self._tenants[dest][tenant_id] = (model, priority)
            self._replay.tenant_board[tenant_id] = dest
            records.extend(
                self._replan(
                    [departure, (dest, arrival, "drained")],
                    start_index + len(records),
                    record_mappings,
                )
            )
            self._migrations += 1
        self._retire_board(board)
        records.append(
            replace(
                self._fleet_marker(time_s, "scale", board, action),
                index=start_index + len(records),
            )
        )
        return records

    def _fail_board(
        self, failure, start_index: int, record_mappings: bool
    ) -> List[TimelineRecord]:
        """Kill a board mid-trace and recover its orphaned residents.

        The board vanishes instantly (no drain): its counters are
        archived, its tenants orphaned, and each orphan re-placed as a
        fresh arrival on the survivors via the normal placement path +
        warm re-search, recorded as ``"recovered"`` arrivals after the
        ``"board-failed"`` marker.
        """
        board = failure.board
        if board not in self._engines:
            raise KeyError(
                f"chaos plan kills unknown board {board!r}; live "
                f"boards: {', '.join(self._engines)}"
            )
        if len(self._engines) == 1:
            raise ValueError(
                f"chaos plan kills {board!r}, the last live board; "
                "a fleet cannot recover from losing every board"
            )
        orphans = list(self._tenants[board].items())
        for tenant_id, _ in orphans:
            self._replay.tenant_board.pop(tenant_id, None)
        self._tenants[board].clear()
        self._retire_board(board)
        self._replay.dead_boards.append(board)
        records = [
            replace(
                self._fleet_marker(
                    failure.time_s, "failure", board, "board-failed"
                ),
                index=start_index,
            )
        ]
        for tenant_id, (model, priority) in orphans:
            arrival = ArrivalEvent(
                failure.time_s, "arrival", tenant_id, model, priority
            )
            records.extend(
                self._replan(
                    [(self._route_event(arrival), arrival, "recovered")],
                    start_index + len(records),
                    record_mappings,
                )
            )
        return records

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def run_trace(
        self,
        trace: ArrivalTrace,
        online: Optional[OnlineConfig] = None,
        record_mappings: bool = False,
        rebalance: bool = True,
        chaos: Optional[ChaosPlan] = None,
        elastic: Optional[ElasticPolicy] = None,
        checkpoint: Optional[str] = None,
    ) -> TimelineReport:
        """Replay a churn trace against the fleet.

        This is the one trace-replay loop:
        :meth:`~repro.engine.SchedulingEngine.run_trace` replays as a
        fleet of one board holding that same engine.

        Arrivals are placed against live tenancy (a board never hosts
        two tenants of one model, never exceeds its residency cap;
        :class:`~repro.fleet.PlacementError` when no board can take
        one); each board re-plans its own changes with warm-started
        re-searches, and a same-timestamp group's re-searches run
        concurrently per board with pooled evaluations.  After a group
        containing departures, ``rebalance`` migrates one tenant from
        the most- to the least-loaded board when the gap reaches two
        residents (the migration re-plans both boards warm and appends
        its departure/arrival pair to the timeline).

        Returns the aggregated fleet :class:`TimelineReport` — every
        board's records interleaved in event order, tagged with board
        names (see :attr:`TimelineReport.boards` /
        :meth:`TimelineReport.for_board`).  Each call replays from an
        empty fleet (fresh tenancy, fresh per-board warm state), so
        repeated replays are independent and deterministic.

        A fleet constructed with an enforcing
        :class:`~repro.slo.SLOPolicy` gates every arrival before
        placement: non-admittable arrivals first evict
        strictly-lower-priority residents when preemption is on (the
        evicted board re-plans warm), then are queued (retried after
        departures free capacity) or rejected; departures of tenants
        never admitted become no-op records (``"expired"`` /
        ``"dropped"``).  Observe-only policies annotate arrival records
        with attainment and change nothing else.

        ``chaos`` injects board failures: each
        :class:`~repro.workloads.trace.FailureEvent` fires immediately
        before the first event group whose timestamp reaches it — the
        board vanishes, its counters are archived, and its orphaned
        residents are re-placed on the survivors via warm re-search
        (``"board-failed"`` marker + ``"recovered"`` arrivals).  An
        empty plan (or ``None``) changes nothing, byte-for-byte.

        ``elastic`` attaches an :class:`~repro.fleet.Autoscaler` for
        the replay: after each group (and rebalance), queue depth and
        the windowed p95 attainment feed the policy's thresholds —
        scale-out provisions a preset board before queued arrivals are
        retried, scale-in drains the least-loaded safe board back down
        to the baseline.  Chaos kills, drains, and scale-outs change
        the fleet's composition *persistently*: a later replay (or
        batch call) runs on the evolved fleet, while tenancy and warm
        state still reset per call.

        ``checkpoint`` names a crash-consistent journal file
        (:class:`~repro.resilience.TraceJournal`): every committed
        event group is fsynced to it with the replay state — tenancy,
        each board's warm state, the SLO enforcement queue and ghost
        tenants, fired chaos failures — plus each board's resilience
        counters and the admission controller's cached scores, and
        :meth:`resume_trace` (on a *freshly constructed* equivalent
        fleet) continues the replay byte-identically.  Chaos plans and
        observe-only or enforcing SLO policies are journaled;
        ``elastic`` is not (autoscaler windows and provisioned boards
        are not in the journal), so the two refuse to combine.
        """
        if checkpoint is not None and elastic is not None:
            raise ValueError(
                "checkpointing does not cover elastic fleet-"
                "composition changes; run without an ElasticPolicy"
            )
        self._replay = _ReplayState(
            online=online, tenants={name: {} for name in self._engines}
        )
        journal = None
        if checkpoint is not None:
            journal = TraceJournal.create(
                checkpoint,
                self._journal_header(
                    trace, online, record_mappings, rebalance, chaos
                ),
            )
        return self._replay_trace(
            trace, record_mappings, rebalance, chaos, elastic, journal,
            skip_groups=0, prefix=(),
        )

    def resume_trace(
        self,
        trace: ArrivalTrace,
        checkpoint: str,
        online: Optional[OnlineConfig] = None,
        record_mappings: bool = False,
        rebalance: bool = True,
        chaos: Optional[ChaosPlan] = None,
    ) -> TimelineReport:
        """Continue a journaled fleet :meth:`run_trace` after a crash.

        Call it on a freshly constructed fleet equivalent to the one
        that crashed (same cluster, scheduler, SLO and resilience
        policies): the journal's completed groups are re-emitted
        verbatim, chaos kills that already fired are replayed against
        the fresh fleet (board retired, no records), the replay state,
        resilience counters and admission scores are restored from the
        last committed group, and the remainder — which keeps
        journaling into the same file — reproduces the uninterrupted
        report byte for byte.  Arguments must match the original call
        (the journal header pins them); a mismatch raises
        :class:`ValueError`.
        """
        journal, header, entries = TraceJournal.resume(checkpoint)
        self._replay = _ReplayState(
            online=online, tenants={name: {} for name in self._engines}
        )
        expected = self._journal_header(
            trace, online, record_mappings, rebalance, chaos
        )
        mismatched = [
            key
            for key, value in expected.items()
            if header.get(key) != value
        ]
        if mismatched:
            journal.close()
            raise ValueError(
                f"journal {checkpoint} was written for a different "
                f"replay (mismatched: {', '.join(sorted(mismatched))})"
            )
        records = [
            TimelineRecord.from_dict(record)
            for entry in entries
            for record in entry["records"]
        ]
        if entries:
            state = entries[-1]["state"]
            for name in state["dead_boards"]:
                if name in self._engines:
                    self._retire_board(name)
            self._replay = _ReplayState.from_dict(state, online)
            for board, snapshot in state.get("resilience", {}).items():
                self._engines[board].restore_resilience_state(snapshot)
            if "admission" in state:
                self._admission_controller().restore_state(
                    state["admission"]
                )
        return self._replay_trace(
            trace, record_mappings, rebalance, chaos, None, journal,
            skip_groups=len(entries), prefix=tuple(records),
        )

    def _replay_trace(
        self,
        trace: ArrivalTrace,
        record_mappings: bool,
        rebalance: bool,
        chaos: Optional[ChaosPlan],
        elastic: Optional[ElasticPolicy],
        journal: Optional[TraceJournal],
        skip_groups: int,
        prefix: Tuple[TimelineRecord, ...],
    ) -> TimelineReport:
        enforced = self.slo is not None and self.slo.enforced
        state = self._replay
        records: List[TimelineRecord] = list(prefix)
        #: Failures the journal says already fired are not re-fired —
        #: resume_trace re-retired their boards.
        pending_failures = (
            list(chaos.failures)[state.failures_fired :]
            if chaos is not None
            else []
        )
        scaler = Autoscaler(self, elastic) if elastic is not None else None
        tracker = AttainmentTracker() if scaler is not None else None
        for position, group in enumerate(trace.grouped()):
            if position < skip_groups:
                continue
            group_start = len(records)
            while (
                pending_failures
                and pending_failures[0].time_s <= group[0].time_s
            ):
                state.failures_fired += 1
                records.extend(
                    self._fail_board(
                        pending_failures.pop(0), len(records), record_mappings
                    )
                )
            slots: List[_Slot] = []
            for event in group:
                if enforced:
                    self._enforce(event, slots)
                else:
                    slots.append((self._route_event(event), event, ""))
            records.extend(self._replan(slots, len(records), record_mappings))
            if rebalance and any(e.kind == "departure" for e in group):
                records.extend(
                    self._rebalance(
                        group[-1].time_s, len(records), record_mappings
                    )
                )
            if scaler is not None:
                for record in records[group_start:]:
                    if record.slo_ratio is not None:
                        tracker.observe(record.slo_ratio)
                records.extend(
                    scaler.step(
                        group[-1].time_s,
                        queue_depth=len(state.queue),
                        attainment=tracker,
                        start_index=len(records),
                        record_mappings=record_mappings,
                    )
                )
            # FIFO retry of queued arrivals against the freed capacity.
            for event in list(state.queue):
                if self._fleet_verdict(event) != "admit":
                    continue
                state.queue.remove(event)
                retry = ArrivalEvent(
                    group[-1].time_s, "arrival", event.tenant_id,
                    event.model, event.priority,
                )
                records.extend(
                    self._replan(
                        [(self._route_event(retry), retry, "dequeued")],
                        len(records),
                        record_mappings,
                    )
                )
            if journal is not None:
                journal.append_group(
                    position,
                    len(group),
                    [record.to_dict() for record in records[group_start:]],
                    self._journal_state(),
                )
        if journal is not None:
            journal.close()
        return TimelineReport(
            records=tuple(records),
            trace_name=trace.name,
            scheduler_name=self._report_scheduler_name(),
        )

    def _enforce(self, event: ArrivalEvent, slots: List[_Slot]) -> None:
        """Admission, preemption and queueing for one trace event.

        Appends the event's slot to ``slots``, after the evictions it
        forces, so those re-plan before the arrival.
        """
        slo = self.slo
        state = self._replay
        if event.kind == "departure":
            if any(queued.tenant_id == event.tenant_id for queued in state.queue):
                state.queue = [
                    queued
                    for queued in state.queue
                    if queued.tenant_id != event.tenant_id
                ]
                state.ghosts.add(event.tenant_id)
                slots.append(self._fleet_noop(event, "expired"))
            elif event.tenant_id in state.ghosts:
                slots.append(self._fleet_noop(event, "dropped"))
            else:
                slots.append((self._route_event(event), event, ""))
            return
        verdict = self._fleet_verdict(event)
        # Preemption only answers load ("queue"); a "reject" is
        # load-independent and evictions cannot flip it.
        while verdict == "queue" and slo.preemption:
            victims = preemption_victims(
                self._fleet_residents(), event.priority
            )
            if not victims:
                break
            tenant_id, model, priority = victims[0]
            board = state.tenant_board.pop(tenant_id)
            del state.tenants[board][tenant_id]
            slots.append(
                (
                    board,
                    ArrivalEvent(
                        event.time_s, "departure", tenant_id, model, priority
                    ),
                    "preempted",
                )
            )
            state.ghosts.add(tenant_id)
            self._engines[board]._stats.record_preemption(priority)
            verdict = self._fleet_verdict(event)
        if verdict == "admit" or not slo.admission:
            # Preemption without admission never drops work: eviction
            # is the whole enforcement.
            slots.append((self._route_event(event), event, ""))
        elif verdict == "queue" and len(state.queue) < slo.queue_capacity:
            state.queue.append(event)
            self._turned_away.record_queued(event.priority)
            slots.append(self._fleet_noop(event, "queued"))
        else:
            state.ghosts.add(event.tenant_id)
            self._turned_away.record_rejection(event.priority)
            slots.append(self._fleet_noop(event, "rejected"))

    def _replan(
        self,
        slots: Sequence[_Slot],
        start_index: int,
        record_mappings: bool,
        annotate: bool = True,
    ) -> List[TimelineRecord]:
        """Re-plan one group's slots; records in slot order.

        Each board's staged events run as one pooled
        :meth:`~repro.engine.SchedulingEngine.replay_group`, boards in
        the order they were first staged.  Arrival records are
        annotated against the SLO target (when ``annotate`` and a
        target is set) on the board the event was routed to.
        """
        staged: Dict[str, List] = {}
        for slot in slots:
            if not isinstance(slot, TimelineRecord):
                board, event, _ = slot
                staged.setdefault(board, []).append(
                    self._engines[board].stage_trace_event(
                        self._online(board), event
                    )
                )
        produced = {
            board: iter(
                self._engines[board].replay_group(
                    self._online(board), jobs, 0, record_mappings
                )
            )
            for board, jobs in staged.items()
        }
        target = self.slo.target if self.slo is not None else None
        records: List[TimelineRecord] = []
        for slot in slots:
            if isinstance(slot, TimelineRecord):
                record = slot
            else:
                board, _, action = slot
                record = replace(next(produced[board]), action=action)
                if annotate and target is not None:
                    record = self._annotate_fleet(record, target, board)
            records.append(replace(record, index=start_index + len(records)))
        return records

    # ------------------------------------------------------------------
    # Crash-consistent journaling (checkpoint= / resume_trace)
    # ------------------------------------------------------------------
    def _report_scheduler_name(self) -> str:
        """The report's scheduler attribution.

        The first materialized engine's scheduler, falling back to the
        journaled name — a resume that found every group already
        committed never materializes a scheduler at all.
        """
        for engine in self._engines.values():
            if engine._scheduler is not None:
                return engine._scheduler.name
        return self._replay.scheduler

    def _journal_header(
        self,
        trace: ArrivalTrace,
        online: Optional[OnlineConfig],
        record_mappings: bool,
        rebalance: bool,
        chaos: Optional[ChaosPlan],
    ) -> Dict:
        """What a resume must match for byte-identity to be possible.

        ``boards`` pins the fleet composition *at trace start* — a
        resume therefore needs a freshly constructed fleet, not the
        evolved survivor of the crash (chaos kills from the completed
        groups are replayed against it during restore).
        """
        return {
            "surface": "fleet",
            "boards": sorted(self._engines),
            "scheduler": self.scheduler_name,
            "record_mappings": bool(record_mappings),
            "rebalance": bool(rebalance),
            "online": asdict(online or OnlineConfig()),
            "faults": (
                self.resilience.faults.to_dict()
                if self.resilience is not None
                else None
            ),
            "slo": asdict(self.slo) if self.slo is not None else None,
            "chaos": (
                [failure.to_dict() for failure in chaos.failures]
                if chaos is not None
                else None
            ),
            "trace": trace_fingerprint(trace),
        }

    def _journal_state(self) -> Dict:
        """The replay state plus the engine-lifetime state it depends on.

        Each board's ladder and injector counters, and the admission
        controller's cached base scores: the scorer's forwards go
        through the estimator's fault hook, so re-scoring a mix after
        a resume would shift count-triggered faults.
        """
        self._replay.scheduler = self._report_scheduler_name()
        state = self._replay.to_dict()
        resilience = {}
        for name, engine in self._engines.items():
            snapshot = engine.resilience_state()
            if snapshot is not None:
                resilience[name] = snapshot
        if resilience:
            state["resilience"] = resilience
        if self._admission is not None:
            state["admission"] = self._admission.export_state()
        return state

    # ------------------------------------------------------------------
    # Trace internals
    # ------------------------------------------------------------------
    def _online(self, board: str) -> OnlineScheduler:
        state = self._replay
        if board not in state.onlines:
            state.onlines[board] = self._engines[board].make_online_scheduler(
                state.online
            )
            pending = state.warm.pop(board, None)
            if pending is not None:
                state.onlines[board].restore_state(pending)
        return state.onlines[board]

    def _fleet_verdict(self, event: ArrivalEvent) -> str:
        """Admission verdict for one trace arrival against live tenancy.

        Feasibility (headroom somewhere, model not resident on every
        open board) is the capacity check; the floor check runs
        against the least-loaded feasible board — the board placement
        would favor — keeping the verdict monotone in fleet load.
        """
        load = {
            name: len(tenants) for name, tenants in self._tenants.items()
        }
        feasible = [
            board.name
            for board in self.cluster
            if board.max_residency - load[board.name] >= 1
            and event.model
            not in {
                model
                for model, _ in self._tenants[board.name].values()
            }
        ]
        if not feasible:
            return "queue"
        return self._admission_controller().evaluate(
            (event.model,),
            load=min(load[name] for name in feasible),
            capacity=None,
        ).verdict

    def _fleet_residents(self) -> Dict[str, Tuple[str, int]]:
        """Fleet-wide tenant -> (model, priority), in arrival order."""
        return {
            tenant_id: self._tenants[board][tenant_id]
            for tenant_id, board in self._replay.tenant_board.items()
        }

    def _fleet_noop(
        self, event: ArrivalEvent, action: str, board: str = ""
    ) -> TimelineRecord:
        """A no-plan record: a non-admitted event (boardless) or a drain hop."""
        return TimelineRecord(
            index=0,
            time_s=event.time_s,
            kind=event.kind,
            tenant_id=event.tenant_id,
            model=event.model,
            priority=event.priority,
            active_models=self._active_models(),
            mode="idle",
            board=board,
            action=action,
        )

    def _annotate_fleet(
        self, record: TimelineRecord, target, board: str
    ) -> TimelineRecord:
        """Annotate an admitted arrival against the policy target.

        Attainment is recorded into the counters of ``board``, the
        board the arrival was routed to, so
        :attr:`FleetStats.combined` rolls it up.
        """
        if (
            record.kind != "arrival"
            or record.expected_score is None
            or target.min_throughput is None
        ):
            return record
        ratio = target.ratio(record.expected_score)
        attained = target.attained(
            record.expected_score, record.reschedule_time_s
        )
        self._engines[board]._stats.record_slo(attained)
        return replace(record, slo_ratio=ratio, slo_attained=attained)

    def _route_event(self, event: ArrivalEvent) -> str:
        """Pick (arrival) or look up (departure) the event's board."""
        state = self._replay
        if event.kind == "departure":
            if event.tenant_id not in state.tenant_board:
                raise KeyError(
                    f"departure of unknown tenant {event.tenant_id!r}"
                )
            board = state.tenant_board.pop(event.tenant_id)
            del state.tenants[board][event.tenant_id]
            return board
        load = {
            name: len(tenants) for name, tenants in state.tenants.items()
        }
        capacity = {
            board.name: board.max_residency - load[board.name]
            for board in self.cluster
        }
        blocked = {
            name: {model for model, _ in tenants.values()}
            for name, tenants in state.tenants.items()
        }
        workload = Workload.from_names([event.model])
        parts = self.placer.place(workload, load, capacity, blocked)
        board = parts[0].board
        state.tenants[board][event.tenant_id] = (event.model, event.priority)
        state.tenant_board[event.tenant_id] = board
        return board

    def _rebalance(
        self, time_s: float, start_index: int, record_mappings: bool
    ) -> List[TimelineRecord]:
        """Migrate one tenant from the most- to the least-loaded board.

        Cross-board re-placement on departure: a drained board is free
        capacity the rest of the fleet cannot see — when the resident
        gap reaches ``_REBALANCE_GAP``, the most recently arrived
        migratable tenant of the fullest board moves to the emptiest
        (feasibility: the target must not host its model and must have
        headroom), and both boards re-plan warm.  The migration is
        recorded as a departure/arrival pair at the trigger timestamp.
        """
        load = {
            name: len(tenants) for name, tenants in self._tenants.items()
        }
        if len(load) < 2:
            return []
        source = max(load, key=lambda name: (load[name],
                                             -self.placer.order.index(name)))
        target = min(load, key=lambda name: (load[name],
                                             self.placer.order.index(name)))
        if load[source] - load[target] < _REBALANCE_GAP:
            return []
        headroom = self.cluster.board(target).max_residency - load[target]
        if headroom < 1:
            return []
        target_models = {
            model for model, _ in self._tenants[target].values()
        }
        candidate = None
        for tenant_id in reversed(list(self._tenants[source])):
            model, priority = self._tenants[source][tenant_id]
            if model not in target_models:
                candidate = (tenant_id, model, priority)
                break
        if candidate is None:
            return []
        tenant_id, model, priority = candidate
        del self._tenants[source][tenant_id]
        self._tenants[target][tenant_id] = (model, priority)
        self._replay.tenant_board[tenant_id] = target
        self._migrations += 1
        slots = [
            (board, ArrivalEvent(time_s, kind, tenant_id, model, priority), "")
            for board, kind in ((source, "departure"), (target, "arrival"))
        ]
        return self._replan(
            slots, start_index, record_mappings, annotate=False
        )
