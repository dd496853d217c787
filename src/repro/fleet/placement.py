"""Cross-board placement: which board serves which mix.

The fleet's throughput lever (RankMap, "Batching or Multi-Tenancy?"):
*where* a mix lands matters as much as how its layers are mapped once
it lands.  :class:`FleetPlacer` makes that call per incoming mix:

* **Estimator-scored candidates** (the default): every feasible board
  prices the mix with its own trained
  :class:`~repro.estimator.model.ThroughputEstimator` — one
  ``predict_throughput_batch`` call over a deterministic round-robin
  *reference mapping* (each DNN pinned whole to one device, striped
  across the board's devices).  The raw score (the paper's mean
  predicted system throughput) is discounted by the board's current
  load, ``score / (1 + load)``, so similar boards spread instead of
  pile; the best effective score wins, ties broken by cluster order.
  Scoring consults the candidates' estimators, so the first
  multi-candidate decision *materializes* (profiles + trains) every
  feasible board; use ``mode="greedy-load"`` to keep boards fully
  lazy until a request actually lands on them.
* **Greedy-load fallback**: boards whose scheduler carries no
  estimator (the baselines), or a placer constructed with
  ``mode="greedy-load"``, place on the feasible board with the least
  load (ties by cluster order) — no estimator queries at all.
* **Splitting**: a mix too large for any single feasible board is
  split into chunks over *distinct* boards (the parts co-reside, so
  they cannot share a board), largest headroom first; the placement
  fails with :class:`PlacementError` only when the fleet as a whole
  cannot host the mix.

A single feasible candidate short-circuits both modes — no scoring,
no estimator touch — which is what keeps a fleet-of-one byte-identical
(decisions *and* stats counters) to a plain
:class:`~repro.service.SchedulingService`.

Feasibility is the caller's context: capacity per board (full
``max_residency`` for stateless batch serving, remaining headroom for
tenancy traces) and per-board blocked models (a model already resident
on a board cannot arrive there again — the embedding representation
requires distinct networks per mix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.scheduler import OmniBoostScheduler
from ..estimator.model import EstimatorFault
from ..sim.mapping import reference_mapping
from ..workloads.mix import Workload

__all__ = ["BoardPlacement", "FleetPlacer", "PlacementError"]

_MODES = ("estimator", "greedy-load")


class PlacementError(RuntimeError):
    """No feasible board (or combination of boards) can host the mix."""


@dataclass(frozen=True)
class BoardPlacement:
    """One placed part of a mix: the board and the part it hosts.

    ``indices`` are the part's positions in the *original* workload
    (so a split response can be reassembled); an unsplit placement
    carries every index in order.
    """

    board: str
    indices: Tuple[int, ...]
    workload: Workload


class FleetPlacer:
    """Scores candidate placements for a fleet of named boards.

    Parameters
    ----------
    schedulers:
        Board name -> materialized-scheduler accessor (the fleet
        passes each engine's lazy ``scheduler`` property bound per
        board); only consulted in estimator mode, and only when more
        than one board is feasible.
    order:
        Cluster board order — the deterministic tie-break.
    mode:
        ``"estimator"`` (scored, with per-decision greedy fallback) or
        ``"greedy-load"`` (never touches an estimator).
    """

    def __init__(
        self,
        schedulers,
        order: Sequence[str],
        mode: str = "estimator",
    ) -> None:
        if mode not in _MODES:
            raise ValueError(
                f"mode must be one of {_MODES}, got {mode!r}"
            )
        self._schedulers = schedulers
        self.order = tuple(order)
        self.mode = mode
        #: Monotonic counters rolled into :class:`~repro.fleet.FleetStats`.
        self.placements = 0
        self.scored_placements = 0
        self.placement_evaluations = 0
        self.greedy_fallbacks = 0
        self.split_mixes = 0

    def update_order(self, order: Sequence[str]) -> None:
        """Track an elastic fleet: reset the candidate/tie-break order.

        Called by the service when a board is provisioned, drained, or
        killed; counters are untouched (they are fleet-lifetime).
        """
        self.order = tuple(order)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def place(
        self,
        workload: Workload,
        load: Dict[str, int],
        capacity: Dict[str, int],
        blocked: Optional[Dict[str, Set[str]]] = None,
    ) -> List[BoardPlacement]:
        """Place one mix: a single board when it fits, chunks otherwise.

        ``load`` drives the spreading discount (and the greedy
        fallback); ``capacity`` is each board's feasibility limit for
        *this* decision; ``blocked`` lists models a board cannot
        accept (already resident there).
        """
        blocked = blocked or {}
        self.placements += 1
        feasible = [
            name
            for name in self.order
            if workload.num_dnns <= capacity.get(name, 0)
            and not (set(workload.model_names) & blocked.get(name, set()))
        ]
        if feasible:
            board = self._choose(workload, feasible, load)
            return [
                BoardPlacement(
                    board=board,
                    indices=tuple(range(workload.num_dnns)),
                    workload=workload,
                )
            ]
        return self._split(workload, load, capacity, blocked)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _choose(
        self,
        workload: Workload,
        feasible: Sequence[str],
        load: Dict[str, int],
    ) -> str:
        """Pick one board among feasible candidates."""
        if len(feasible) == 1:
            # Short-circuit: no choice to make, no estimator to touch
            # (the fleet-of-one equivalence guarantee).
            return feasible[0]
        if self.mode == "greedy-load":
            return self._greedy(feasible, load)
        scores: List[Tuple[float, str]] = []
        for name in feasible:
            scheduler = self._schedulers(name)
            if not isinstance(scheduler, OmniBoostScheduler):
                # No estimator to score with: greedy-load decides.
                self.greedy_fallbacks += 1
                return self._greedy(feasible, load)
            mapping = reference_mapping(
                workload, scheduler.estimator.embedding.num_devices
            )
            try:
                predicted = scheduler.estimator.predict_throughput_batch(
                    [(workload, mapping)]
                )
            except EstimatorFault:
                # A faulting estimator cannot price candidates; degrade
                # this one placement to greedy-load (the board's own
                # engine ladder handles the search that follows).
                self.greedy_fallbacks += 1
                return self._greedy(feasible, load)
            self.placement_evaluations += 1
            raw = float(predicted[0].mean())
            scores.append((raw / (1.0 + load.get(name, 0)), name))
        self.scored_placements += 1
        best = max(scores, key=lambda pair: pair[0])[0]
        # Deterministic tie-break: first board (cluster order) within
        # a hair of the best effective score.
        for score, name in scores:
            if score >= best - 1e-12:
                return name
        return scores[0][1]  # pragma: no cover - unreachable

    def _greedy(self, feasible: Sequence[str], load: Dict[str, int]) -> str:
        """Least-loaded feasible board, cluster order breaking ties."""
        return min(feasible, key=lambda name: (load.get(name, 0),
                                               self.order.index(name)))

    def _split(
        self,
        workload: Workload,
        load: Dict[str, int],
        capacity: Dict[str, int],
        blocked: Dict[str, Set[str]],
    ) -> List[BoardPlacement]:
        """Chunk an oversized mix over distinct boards, headroom first."""
        remaining = list(range(workload.num_dnns))
        boards = sorted(
            self.order,
            key=lambda name: (-capacity.get(name, 0), self.order.index(name)),
        )
        parts: List[BoardPlacement] = []
        for name in boards:
            if not remaining:
                break
            room = capacity.get(name, 0)
            if room <= 0:
                continue
            taken: List[int] = []
            banned = blocked.get(name, set())
            for index in remaining:
                if len(taken) >= room:
                    break
                if workload.models[index].name in banned:
                    continue
                taken.append(index)
            if not taken:
                continue
            remaining = [i for i in remaining if i not in taken]
            parts.append(
                BoardPlacement(
                    board=name,
                    indices=tuple(taken),
                    workload=Workload(
                        [workload.models[i] for i in taken]
                    ),
                )
            )
        if remaining:
            missing = [workload.models[i].name for i in remaining]
            raise PlacementError(
                f"fleet cannot host mix {workload.name!r}: no board has "
                f"room for {missing} (capacities "
                f"{ {n: capacity.get(n, 0) for n in self.order} })"
            )
        self.split_mixes += 1
        return parts
