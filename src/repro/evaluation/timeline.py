"""Per-event reporting for online scheduling runs: the TimelineReport.

A static comparison table answers "which scheduler won?"; an online
run needs the *time axis*: what did each tenancy change cost to react
to, how long did urgent events wait, how much of the re-planning ran
warm.  :class:`TimelineRecord` captures one trace event's outcome and
:class:`TimelineReport` aggregates them — makespan, per-priority
re-schedule latency, warm/cold split, estimator-query totals — with a
JSON export (:func:`write_timeline_json`) for CI artifacts and offline
analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import attainment_percentiles
from .reporting import format_table

__all__ = [
    "TimelineRecord",
    "TimelineReport",
    "read_timeline_json",
    "write_timeline_json",
]


@dataclass(frozen=True)
class TimelineRecord:
    """One trace event and the re-scheduling it triggered.

    ``mode`` is ``"warm"``, ``"cold"`` or ``"idle"`` (the board
    emptied; nothing to schedule).  ``evaluations`` is the budget-view
    estimator query count of the re-search (0 when idle),
    ``estimator_queries_actual`` what was actually paid after cache
    savings, ``reschedule_time_s`` the host-measured cost of reacting
    to the event.  Within a coalesced same-timestamp group each event
    carries its own record (and its own concurrently-driven search).
    ``board`` attributes the event to a named board in a fleet replay
    (:meth:`repro.fleet.FleetService.run_trace`); single-board runs
    leave it empty.

    ``action`` is the SLO-enforcement annotation (empty when no
    enforcement ran): ``"rejected"`` / ``"queued"`` for arrivals the
    admission controller turned away, ``"dequeued"`` for a queued
    arrival admitted later, ``"preempted"`` for a resident evicted by
    a higher-priority arrival, ``"expired"`` for a queued tenant whose
    departure arrived before it was ever admitted, and ``"dropped"``
    for the no-op departure of a tenant that was never resident.
    ``slo_ratio`` / ``slo_attained`` annotate an arrival's outcome
    against its throughput floor (``expected_score / floor``; >= 1.0
    attains).  All three serialize only when set, so enforcement-off
    exports stay byte-identical to the pre-SLO format.

    Elastic replays add two more annotation families, serialized only
    when set for the same byte-identity reason: ``fleet_size`` marks a
    fleet-composition change (the size *after* it), and ``action``
    gains ``"board-failed"`` (a :class:`~repro.workloads.trace.ChaosPlan`
    fault, record ``kind="failure"``), ``"recovered"`` (an orphaned
    resident re-placed after a failure), ``"scale-out"`` /
    ``"scale-in"`` (autoscaler moves, record ``kind="scale"``),
    ``"drained"`` (a resident warm-migrated off a retiring board) and
    ``"retired"`` (a manual :meth:`repro.fleet.FleetService.drain_board`).

    ``tier`` is the resilience annotation (:mod:`repro.resilience`):
    the degradation-ladder tier that produced this decision when it was
    *below* the normal serving path — ``"interpreter"``, ``"static"``
    or ``"greedy"`` — and empty for healthy decisions.  Serialized only
    when set, so non-degraded exports stay byte-identical to the
    pre-resilience format.
    """

    index: int
    time_s: float
    kind: str
    tenant_id: str
    model: str
    priority: int
    active_models: Tuple[str, ...]
    mode: str
    expected_score: Optional[float] = None
    seed_reward: Optional[float] = None
    evaluations: float = 0.0
    estimator_queries_actual: float = 0.0
    iterations: int = 0
    stopped_early: bool = False
    reschedule_time_s: float = 0.0
    mapping_rows: Optional[Tuple[Tuple[int, ...], ...]] = None
    board: str = ""
    action: str = ""
    slo_ratio: Optional[float] = None
    slo_attained: Optional[bool] = None
    fleet_size: Optional[int] = None
    tier: str = ""

    def to_dict(self) -> Dict:
        payload = {
            "index": self.index,
            "time_s": self.time_s,
            "kind": self.kind,
            "tenant_id": self.tenant_id,
            "model": self.model,
            "priority": self.priority,
            "active_models": list(self.active_models),
            "mode": self.mode,
            "expected_score": self.expected_score,
            "seed_reward": self.seed_reward,
            "evaluations": self.evaluations,
            "estimator_queries_actual": self.estimator_queries_actual,
            "iterations": self.iterations,
            "stopped_early": self.stopped_early,
            "reschedule_time_s": self.reschedule_time_s,
        }
        if self.mapping_rows is not None:
            payload["mapping_rows"] = [list(row) for row in self.mapping_rows]
        if self.board:
            payload["board"] = self.board
        if self.action:
            payload["action"] = self.action
        if self.slo_ratio is not None:
            payload["slo_ratio"] = self.slo_ratio
            payload["slo_attained"] = self.slo_attained
        if self.fleet_size is not None:
            payload["fleet_size"] = self.fleet_size
        if self.tier:
            payload["tier"] = self.tier
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "TimelineRecord":
        """Inverse of :meth:`to_dict`: ``from_dict(r.to_dict()) == r``.

        This round-trip is the contract the crash-consistent trace
        checkpoint journal (:mod:`repro.resilience.checkpoint`) builds
        on — journaled records must re-serialize byte-identically.
        """
        mapping_rows = payload.get("mapping_rows")
        return cls(
            index=int(payload["index"]),
            time_s=payload["time_s"],
            kind=payload["kind"],
            tenant_id=payload["tenant_id"],
            model=payload["model"],
            priority=int(payload["priority"]),
            active_models=tuple(payload["active_models"]),
            mode=payload["mode"],
            expected_score=payload.get("expected_score"),
            seed_reward=payload.get("seed_reward"),
            evaluations=payload.get("evaluations", 0.0),
            estimator_queries_actual=payload.get(
                "estimator_queries_actual", 0.0
            ),
            iterations=int(payload.get("iterations", 0)),
            stopped_early=bool(payload.get("stopped_early", False)),
            reschedule_time_s=payload.get("reschedule_time_s", 0.0),
            mapping_rows=(
                tuple(tuple(int(d) for d in row) for row in mapping_rows)
                if mapping_rows is not None
                else None
            ),
            board=payload.get("board", ""),
            action=payload.get("action", ""),
            slo_ratio=payload.get("slo_ratio"),
            slo_attained=payload.get("slo_attained"),
            fleet_size=payload.get("fleet_size"),
            tier=payload.get("tier", ""),
        )


@dataclass(frozen=True)
class TimelineReport:
    """The outcome of replaying one trace through a scheduling service."""

    records: Tuple[TimelineRecord, ...]
    trace_name: str = ""
    scheduler_name: str = ""

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def makespan_s(self) -> float:
        """Trace-clock span from the first event to the last."""
        if not self.records:
            return 0.0
        return self.records[-1].time_s - self.records[0].time_s

    @property
    def total_reschedule_time_s(self) -> float:
        """Host seconds spent re-planning across the whole trace."""
        return sum(record.reschedule_time_s for record in self.records)

    @property
    def total_evaluations(self) -> float:
        return sum(record.evaluations for record in self.records)

    @property
    def total_estimator_queries_actual(self) -> float:
        return sum(record.estimator_queries_actual for record in self.records)

    @property
    def warm_fraction(self) -> float:
        """Share of non-idle re-schedules served by the warm path."""
        planned = [r for r in self.records if r.mode != "idle"]
        if not planned:
            return 0.0
        return sum(1 for r in planned if r.mode == "warm") / len(planned)

    @property
    def boards(self) -> Tuple[str, ...]:
        """Board names appearing in the records (fleet replays), sorted."""
        return tuple(sorted({r.board for r in self.records if r.board}))

    def for_board(self, board: str) -> "TimelineReport":
        """The sub-report of one board's events (fleet replays)."""
        return TimelineReport(
            records=tuple(r for r in self.records if r.board == board),
            trace_name=self.trace_name,
            scheduler_name=self.scheduler_name,
        )

    # ------------------------------------------------------------------
    # SLO attainment (records annotated by an SLOPolicy replay)
    # ------------------------------------------------------------------
    @property
    def slo_records(self) -> Tuple[TimelineRecord, ...]:
        """Records carrying an SLO attainment annotation."""
        return tuple(r for r in self.records if r.slo_ratio is not None)

    @property
    def rejected_events(self) -> int:
        return sum(1 for r in self.records if r.action == "rejected")

    @property
    def preempted_events(self) -> int:
        return sum(1 for r in self.records if r.action == "preempted")

    @property
    def queued_events(self) -> int:
        return sum(1 for r in self.records if r.action == "queued")

    # ------------------------------------------------------------------
    # Elastic-fleet annotations (chaos faults and autoscaler moves)
    # ------------------------------------------------------------------
    @property
    def failure_events(self) -> int:
        """Boards killed by a chaos plan during this replay."""
        return sum(1 for r in self.records if r.action == "board-failed")

    @property
    def recovered_events(self) -> int:
        """Orphaned residents re-placed after board failures."""
        return sum(1 for r in self.records if r.action == "recovered")

    @property
    def scale_out_events(self) -> int:
        return sum(1 for r in self.records if r.action == "scale-out")

    @property
    def scale_in_events(self) -> int:
        return sum(1 for r in self.records if r.action == "scale-in")

    @property
    def drained_events(self) -> int:
        """Residents warm-migrated off retiring boards (one per hop)."""
        return sum(
            1
            for r in self.records
            if r.action == "drained" and r.kind == "arrival"
        )

    @property
    def fleet_size_extent(self) -> Optional[Tuple[int, int]]:
        """(min, max) fleet size over the composition-change markers."""
        sizes = [r.fleet_size for r in self.records if r.fleet_size is not None]
        if not sizes:
            return None
        return (min(sizes), max(sizes))

    @property
    def final_fleet_size(self) -> Optional[int]:
        """Fleet size after the last composition change (None if none)."""
        sizes = [r.fleet_size for r in self.records if r.fleet_size is not None]
        return sizes[-1] if sizes else None

    # ------------------------------------------------------------------
    # Resilience annotations (degradation-ladder tiers)
    # ------------------------------------------------------------------
    @property
    def degraded_records(self) -> Tuple[TimelineRecord, ...]:
        """Records whose decision came from a degraded ladder tier."""
        return tuple(r for r in self.records if r.tier)

    @property
    def decisions_by_tier(self) -> Dict[str, int]:
        """Degraded decision counts keyed by ladder tier."""
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.tier:
                counts[record.tier] = counts.get(record.tier, 0) + 1
        return counts

    def slo_attainment_rate(self, priority: Optional[int] = None) -> float:
        """Fraction of SLO-annotated events that attained their target."""
        pool = [
            r
            for r in self.slo_records
            if priority is None or r.priority == priority
        ]
        if not pool:
            return 0.0
        return sum(1 for r in pool if r.slo_attained) / len(pool)

    def slo_attainment_percentiles(
        self,
        percentiles: Sequence[int] = (50, 95, 99),
        priority: Optional[int] = None,
    ) -> Dict[int, float]:
        """pP attainment: the worst ratio among the best P% of events.

        For each requested P, the returned value is the ratio attained
        by the P-th percentile event counted from the *best* — i.e.
        ``p95 >= 1.0`` means 95% of the annotated events met their
        floor.  Exact order statistics (no interpolation), so the
        values are deterministic for seeded replays.  Empty when no
        record carries an annotation (or none matches ``priority``).
        """
        return attainment_percentiles(
            (
                r.slo_ratio
                for r in self.slo_records
                if priority is None or r.priority == priority
            ),
            percentiles,
        )

    def per_priority_latency(self) -> Dict[int, float]:
        """Mean re-schedule latency (seconds) per event priority."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for record in self.records:
            if record.mode == "idle":
                continue
            sums[record.priority] = (
                sums.get(record.priority, 0.0) + record.reschedule_time_s
            )
            counts[record.priority] = counts.get(record.priority, 0) + 1
        return {
            priority: sums[priority] / counts[priority]
            for priority in sorted(sums)
        }

    # ------------------------------------------------------------------
    # Rendering / export
    # ------------------------------------------------------------------
    def event_table(self, max_rows: Optional[int] = None) -> str:
        """A human-readable per-event table."""
        rows: List[List[str]] = []
        records = self.records if max_rows is None else self.records[:max_rows]
        for record in records:
            rows.append(
                [
                    f"{record.time_s:.1f}",
                    record.kind,
                    record.model,
                    str(record.priority),
                    str(len(record.active_models)),
                    record.mode,
                    "-"
                    if record.expected_score is None
                    else f"{record.expected_score:.3f}",
                    f"{record.evaluations:.0f}",
                    f"{record.reschedule_time_s * 1000:.0f}",
                ]
            )
        return format_table(
            [
                "t (s)",
                "event",
                "model",
                "prio",
                "active",
                "mode",
                "score",
                "evals",
                "cost ms",
            ],
            rows,
        )

    def summary(self) -> str:
        """A one-paragraph run summary."""
        latencies = ", ".join(
            f"p{priority}: {latency * 1000:.0f}ms"
            for priority, latency in self.per_priority_latency().items()
        )
        text = (
            f"{len(self.records)} events over {self.makespan_s:.1f}s "
            f"({self.trace_name or 'trace'}): "
            f"{self.warm_fraction:.0%} warm re-schedules, "
            f"{self.total_evaluations:.0f} estimator queries budgeted / "
            f"{self.total_estimator_queries_actual:.0f} paid, "
            f"{self.total_reschedule_time_s:.2f}s total re-planning"
            + (f"; mean latency {latencies}" if latencies else "")
        )
        if self.slo_records:
            marks = ", ".join(
                f"p{p}: {ratio:.2f}"
                for p, ratio in self.slo_attainment_percentiles().items()
            )
            text += (
                f"; SLO attainment {self.slo_attainment_rate():.0%} "
                f"({marks}); {self.rejected_events} rejected, "
                f"{self.queued_events} queued, "
                f"{self.preempted_events} preempted"
            )
        if self.fleet_size_extent is not None:
            low, high = self.fleet_size_extent
            text += (
                f"; fleet {low}-{high} boards "
                f"({self.failure_events} failed, "
                f"{self.recovered_events} recovered, "
                f"{self.scale_out_events} scale-outs, "
                f"{self.scale_in_events} scale-ins)"
            )
        if self.degraded_records:
            tiers = ", ".join(
                f"{tier}: {count}"
                for tier, count in sorted(self.decisions_by_tier.items())
            )
            text += (
                f"; {len(self.degraded_records)} degraded decisions "
                f"({tiers})"
            )
        return text

    def to_dict(self) -> Dict:
        payload = {
            "trace_name": self.trace_name,
            "scheduler_name": self.scheduler_name,
            "makespan_s": self.makespan_s,
            "warm_fraction": self.warm_fraction,
            "total_reschedule_time_s": self.total_reschedule_time_s,
            "total_evaluations": self.total_evaluations,
            "total_estimator_queries_actual": (
                self.total_estimator_queries_actual
            ),
            "per_priority_latency_s": {
                str(priority): latency
                for priority, latency in self.per_priority_latency().items()
            },
            "events": [record.to_dict() for record in self.records],
        }
        if self.slo_records:
            payload["slo"] = {
                "attainment_rate": self.slo_attainment_rate(),
                "attainment_percentiles": {
                    f"p{p}": ratio
                    for p, ratio in (
                        self.slo_attainment_percentiles().items()
                    )
                },
                "rejected": self.rejected_events,
                "queued": self.queued_events,
                "preempted": self.preempted_events,
            }
        if self.fleet_size_extent is not None:
            low, high = self.fleet_size_extent
            payload["elastic"] = {
                "fleet_size_min": low,
                "fleet_size_max": high,
                "final_fleet_size": self.final_fleet_size,
                "failures": self.failure_events,
                "recovered": self.recovered_events,
                "scale_outs": self.scale_out_events,
                "scale_ins": self.scale_in_events,
                "drained": self.drained_events,
            }
        if self.degraded_records:
            payload["resilience"] = {
                "degraded_decisions": len(self.degraded_records),
                "decisions_by_tier": {
                    tier: count
                    for tier, count in sorted(
                        self.decisions_by_tier.items()
                    )
                },
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "TimelineReport":
        """Rebuild a report from its :meth:`to_dict` export.

        Only the ``events`` list and identity fields are read — every
        aggregate (and the ``slo``/``elastic``/``resilience`` blocks)
        is re-derived from the records, so a round-tripped report
        re-exports byte-identically.
        """
        return cls(
            records=tuple(
                TimelineRecord.from_dict(record)
                for record in payload["events"]
            ),
            trace_name=payload.get("trace_name", ""),
            scheduler_name=payload.get("scheduler_name", ""),
        )


def write_timeline_json(report: TimelineReport, path: str) -> None:
    """Serialize a report for CI artifacts / offline analysis."""
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")


def read_timeline_json(path: str) -> TimelineReport:
    """Inverse of :func:`write_timeline_json` (round-trip contract)."""
    with open(path) as handle:
        return TimelineReport.from_dict(json.load(handle))
