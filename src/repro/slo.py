"""SLO enforcement policy: admission control and priority preemption.

The serving stack records priorities and waits; this module is where
they start *meaning* something.  An :class:`SLOPolicy` attaches a
fleet- or board-level :class:`~repro.core.base.SLOTarget` contract to
a service and switches on two enforcement mechanisms:

* **Admission control** — the :class:`AdmissionController` scores an
  incoming mix against the board's current load and returns one of
  three verdicts: ``"admit"``, ``"queue"`` (the load makes the floor
  unattainable *right now*) or ``"reject"`` (the floor is unattainable
  even on an empty board — no amount of waiting helps).  The score is
  the estimator's prediction for the mix over the deterministic
  striped reference mapping (the same proxy
  :class:`~repro.fleet.placement.FleetPlacer` ranks boards with),
  discounted by ``1 / (1 + load_penalty * load)``.  The discount is
  strictly decreasing in load for *any* scorer, which gives admission
  its key property: **monotonicity** — a mix that is not admitted at
  load L is not admitted at any load >= L (see
  ``tests/test_slo_properties.py``).
* **Priority preemption** — when an arrival's verdict is not
  ``"admit"`` and the policy allows it, residents of *strictly lower*
  priority are evicted (lowest priority first, newest arrival first
  within a level) until the verdict flips or no eligible victim
  remains.  :func:`preemption_victims` only ever yields
  strictly-lower-priority residents, so preemption can never evict an
  equal-or-higher-priority tenant *by construction*.  The evicted
  board re-plans through the warm re-search path — shrinking a mix is
  the warm start's best case, so preemption costs a fraction of a
  cold search (pinned in ``benchmarks/test_perf_online.py``).

With ``admission=False`` and ``preemption=False`` the policy is
*observe-only*: outcomes are annotated and counted against the target,
but no request is ever dropped, queued or evicted, and the served
decisions are byte-identical to an un-policied service.

Everything here is deterministic: the scorer runs over seeded,
batch-invariant estimator inference, and no verdict consults a clock.
See ``docs/slo.md`` for the operations guide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping as MappingT,
    Optional,
    Sequence,
    Tuple,
)

from .core.base import SLOTarget
from .estimator.model import EstimatorFault
from .evaluation.metrics import attainment_percentiles
from .sim.mapping import reference_mapping
from .workloads.mix import Workload, canonical_signature

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AttainmentTracker",
    "SLOPolicy",
    "make_estimator_scorer",
    "preemption_victims",
]

#: Admission verdicts, from best to worst.
VERDICTS = ("admit", "queue", "reject")


@dataclass(frozen=True)
class SLOPolicy:
    """A service-level contract plus its enforcement switches.

    Attributes
    ----------
    target:
        The default :class:`~repro.core.base.SLOTarget` applied to
        every request / trace arrival that does not carry its own.
        ``None`` disables floor-based admission (capacity-only) and
        attainment accounting.
    admission:
        Enable the admission controller: non-admitted arrivals are
        queued (retried when capacity frees up) or rejected.
    preemption:
        Enable priority preemption: a non-admittable arrival may evict
        strictly-lower-priority residents before the verdict is final.
    load_penalty:
        Per-resident-DNN discount slope of the admission score; higher
        values make the controller more conservative under load.
    queue_capacity:
        Bound on deferred arrivals; a "queue" verdict with a full
        queue becomes a rejection.
    """

    target: Optional[SLOTarget] = None
    admission: bool = True
    preemption: bool = True
    load_penalty: float = 0.25
    queue_capacity: int = 8

    def __post_init__(self) -> None:
        if self.load_penalty < 0:
            raise ValueError(
                f"load_penalty must be >= 0, got {self.load_penalty}"
            )
        if self.queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0, got {self.queue_capacity}"
            )

    @property
    def enforced(self) -> bool:
        """Does this policy ever change what gets served?"""
        return self.admission or self.preemption

    def floor_for(self, slo: Optional[SLOTarget]) -> Optional[float]:
        """The throughput floor governing one request (its own wins)."""
        if slo is not None and slo.min_throughput is not None:
            return slo.min_throughput
        if self.target is not None:
            return self.target.min_throughput
        return None


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict and how it was reached.

    ``base_score`` is the scorer's undiscounted prediction for the mix
    (``None`` when no floor applies), ``effective_score`` the same
    after the load discount — the value actually held against the
    floor.
    """

    verdict: str
    reason: str
    base_score: Optional[float] = None
    effective_score: Optional[float] = None


class AdmissionController:
    """Scores incoming mixes against load; monotone in load.

    Parameters
    ----------
    policy:
        The :class:`SLOPolicy` supplying the floor, the load penalty
        and the queue bound.
    scorer:
        ``Workload -> float`` predicted-throughput proxy (see
        :func:`make_estimator_scorer`).  ``None`` degrades the
        controller to capacity-only admission (no floor checks) —
        also what happens when the policy has no throughput floor.

    Base scores are cached per canonical mix signature, so a trace
    that re-offers the same model pays one scorer call total.
    """

    def __init__(
        self,
        policy: SLOPolicy,
        scorer: Optional[Callable[[Workload], float]] = None,
    ) -> None:
        self.policy = policy
        self._scorer = scorer
        self._base_scores: Dict[Tuple[str, ...], float] = {}
        #: Estimator faults swallowed by fail-open admission.
        self.scorer_faults = 0

    def base_score(self, names: Sequence[str]) -> float:
        """The undiscounted score of a mix (cached per signature)."""
        if self._scorer is None:
            raise ValueError("controller has no scorer")
        signature = canonical_signature(names)
        if signature not in self._base_scores:
            self._base_scores[signature] = float(
                self._scorer(Workload.from_names(list(names)))
            )
        return self._base_scores[signature]

    def export_state(self) -> Dict:
        """Cached base scores and the fault count, for checkpointing."""
        return {
            "base_scores": [
                [list(signature), score]
                for signature, score in self._base_scores.items()
            ],
            "scorer_faults": self.scorer_faults,
        }

    def restore_state(self, state: Dict) -> None:
        """Restore an :meth:`export_state` snapshot."""
        self._base_scores = {
            tuple(signature): float(score)
            for signature, score in state["base_scores"]
        }
        self.scorer_faults = int(state["scorer_faults"])

    def evaluate(
        self,
        names: Sequence[str],
        load: int,
        capacity: Optional[int] = None,
        floor: Optional[float] = None,
    ) -> AdmissionDecision:
        """Verdict for a mix arriving while ``load`` DNNs are resident.

        ``capacity`` is the board's residency cap (``None`` skips the
        headroom check — the fleet handles feasibility itself);
        ``floor`` overrides the policy target's throughput floor (a
        request-level :class:`~repro.core.base.SLOTarget` wins over
        the policy default).

        Monotone in ``load`` by construction: the headroom check and
        the load discount are both non-increasing in load, and the
        floor itself never depends on it.
        """
        if load < 0:
            raise ValueError(f"load must be >= 0, got {load}")
        if capacity is not None and load + len(names) > capacity:
            return AdmissionDecision(
                verdict="queue",
                reason=(
                    f"no headroom: {load} resident + {len(names)} "
                    f"arriving > capacity {capacity}"
                ),
            )
        if floor is None:
            floor = self.policy.floor_for(None)
        if floor is None or self._scorer is None:
            return AdmissionDecision(verdict="admit", reason="no floor set")
        try:
            base = self.base_score(names)
        except EstimatorFault:
            # Fail open: admission is an optimization, not a safety
            # gate — a faulting scorer must not start rejecting work
            # (the engine's degradation ladder covers the search that
            # follows).  The fault stays visible via the counter.
            self.scorer_faults += 1
            return AdmissionDecision(
                verdict="admit",
                reason="scorer fault: admitting without a floor check",
            )
        effective = base / (1.0 + self.policy.load_penalty * load)
        if base < floor:
            return AdmissionDecision(
                verdict="reject",
                reason=(
                    f"floor {floor:.3f} unattainable even unloaded "
                    f"(base score {base:.3f})"
                ),
                base_score=base,
                effective_score=effective,
            )
        if effective < floor:
            return AdmissionDecision(
                verdict="queue",
                reason=(
                    f"floor {floor:.3f} unmet at load {load} "
                    f"(effective score {effective:.3f})"
                ),
                base_score=base,
                effective_score=effective,
            )
        return AdmissionDecision(
            verdict="admit",
            reason=f"effective score {effective:.3f} >= floor {floor:.3f}",
            base_score=base,
            effective_score=effective,
        )


def make_estimator_scorer(scheduler) -> Callable[[Workload], float]:
    """Estimator-backed admission scorer over one board's scheduler.

    Prices a mix with one ``predict_throughput_batch`` call over the
    deterministic striped reference mapping (each DNN pinned whole to
    one device, round-robin across the board) — the same cheap proxy
    the fleet placer ranks boards with, three orders of magnitude
    cheaper than searching.  Requires an estimator-backed scheduler
    (:class:`~repro.core.scheduler.OmniBoostScheduler`).
    """
    estimator = getattr(scheduler, "estimator", None)
    if estimator is None:
        raise TypeError(
            "admission scoring needs an estimator-backed scheduler; "
            f"{getattr(scheduler, 'name', type(scheduler).__name__)!r} "
            "has none"
        )

    def scorer(workload: Workload) -> float:
        mapping = reference_mapping(workload, estimator.embedding.num_devices)
        predicted = estimator.predict_throughput_batch([(workload, mapping)])
        return float(predicted[0].mean())

    return scorer


def preemption_victims(
    residents: MappingT[str, Tuple[str, int]],
    incoming_priority: int,
) -> List[Tuple[str, str, int]]:
    """Eviction order over a board's (or fleet's) residents.

    ``residents`` maps tenant id -> (model, priority) in *arrival
    order* (both :attr:`~repro.online.OnlineScheduler.active` and the
    fleet tenancy preserve insertion order).  Only residents of
    strictly lower priority than ``incoming_priority`` are ever
    eligible — the safety property — ordered lowest priority first,
    newest arrival first within a level (the cheapest work to redo).
    Returns ``(tenant_id, model, priority)`` triples.
    """
    order = {tenant_id: index for index, tenant_id in enumerate(residents)}
    eligible = sorted(
        (priority, -order[tenant_id], tenant_id, model)
        for tenant_id, (model, priority) in residents.items()
        if priority < incoming_priority
    )
    return [
        (tenant_id, model, priority)
        for priority, _, tenant_id, model in eligible
    ]


class AttainmentTracker:
    """A sliding window of SLO attainment ratios feeding scale decisions.

    The elastic layer (:class:`repro.fleet.Autoscaler`) needs a *live*
    degradation signal, not the end-of-replay percentiles a
    :class:`~repro.evaluation.TimelineReport` computes: the fleet feeds
    every annotated outcome's ratio in as it is produced, and the
    autoscaler reads the windowed p95 after each event group.  The
    window (newest ``window`` observations) keeps the signal recent —
    an early healthy phase must not mask a later squeeze.

    Percentile semantics match the report exactly — both call
    :func:`~repro.evaluation.metrics.attainment_percentiles`:
    ``percentile(95)`` is the worst ratio among the best 95% of
    windowed outcomes.
    """

    def __init__(self, window: int = 32) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._ratios: List[float] = []
        self._observed = 0

    def observe(self, ratio: float) -> None:
        """Fold one outcome's attainment ratio into the window."""
        self._ratios.append(float(ratio))
        if len(self._ratios) > self.window:
            del self._ratios[0]
        self._observed += 1

    def __len__(self) -> int:
        """Observations currently in the window."""
        return len(self._ratios)

    @property
    def observed(self) -> int:
        """Lifetime observation count (window evictions included)."""
        return self._observed

    def percentile(self, percentile: int = 95) -> Optional[float]:
        """pP attainment over the window (``None`` while empty)."""
        return attainment_percentiles(self._ratios, (percentile,)).get(
            percentile
        )
