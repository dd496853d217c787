"""Span recording around the public calls into each layer.

Only the traced run installs a :class:`Tracer`.  It replaces public
methods of the serving stack with thin wrappers (class attributes, or
one instance's attribute for the service the front door fronts) and
restores them on :meth:`Tracer.uninstall`.  Generator methods
(``MonteCarloTreeSearch.search_steps`` and
``OnlineScheduler.plan_steps``) are wrapped by a proxy generator that
opens one span per resumption and forwards ``send()`` and the return
value, so the driving engine sees exactly the coroutine it would have
seen untraced.

A span has a name, start, end, parent, group and size: ``parent`` is
the index of the span open when it started (-1 at top level),
``group`` the front-door window or trace ``replay_group`` call most
recently opened, and ``size`` the batch the call carried (estimator
pairs, plan samples, candidate mappings), 0 when not applicable.
Spans stay in memory, one list per field, until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

SPAN_FIELDS = ("name", "start", "end", "parent", "group", "size")


class Tracer:
    def __init__(self) -> None:
        #: One column per span field: flat lists of numbers keep the
        #: cyclic garbage collector from walking every recorded span.
        self.columns: Dict[str, list] = {name: [] for name in SPAN_FIELDS}
        self.group = 0
        #: Return values of wrapped generators, by span name.
        self.returns: Dict[str, list] = defaultdict(list)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def __len__(self) -> int:
        return len(self.columns["name"])

    # -- recording -----------------------------------------------------
    def _open(self, name: str, size: int = 0) -> int:
        columns = self.columns
        index = len(columns["name"])
        columns["name"].append(name)
        columns["parent"].append(self._stack[-1] if self._stack else -1)
        columns["group"].append(self.group)
        columns["size"].append(size)
        columns["end"].append(0.0)
        self._stack.append(index)
        columns["start"].append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.columns["end"][index] = time.perf_counter()
        self._stack.pop()

    # -- installing ----------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def wrap_call(
        self,
        owner,
        attr: str,
        name: str,
        size: Optional[Callable] = None,
        opens_group: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` as one span."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if opens_group:
                tracer.group += 1
            index = tracer._open(name, size(args) if size else 0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        self._patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time every resumption of the generators ``owner.attr`` returns."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer._proxy(name, original(*args, **kwargs))

        self._patch(owner, attr, traced)

    def _proxy(self, name: str, inner):
        reply = None
        started = False
        while True:
            index = self._open(name)
            try:
                request = inner.send(reply) if started else next(inner)
            except StopIteration as stop:
                self._close(index)
                self.returns[name].append(stop.value)
                return stop.value
            except BaseException:
                self._close(index)
                raise
            self._close(index)
            started = True
            reply = yield request

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    # -- analysis ------------------------------------------------------
    def totals(self, start: int = 0, end: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name over spans ``start:end``: calls, inclusive and
        self seconds, summed size.

        Self time is a span's duration minus the durations of its
        direct children; calls are synchronous, so children never
        overlap each other and always lie inside their parent.
        """
        columns = self.columns
        durations = [b - a for a, b in zip(columns["start"], columns["end"])]
        child_time = [0.0] * len(durations)
        for duration, parent in zip(durations, columns["parent"]):
            if parent >= 0:
                child_time[parent] += duration
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}
        )
        for index in range(start, len(durations) if end is None else end):
            entry = totals[columns["name"][index]]
            entry["calls"] += 1
            entry["total_s"] += durations[index]
            entry["self_s"] += durations[index] - child_time[index]
            entry["size"] += columns["size"][index]
        return dict(totals)

    def starts(self, name: str, end: int) -> List[float]:
        """Start times of the ``name`` spans among the first ``end``."""
        columns = self.columns
        return [columns["start"][i] for i in range(end) if columns["name"][i] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.columns, handle)


def install(tracer: Tracer, service=None) -> None:
    """Wrap the public entry point of every layer the benchmark times.

    ``service`` is the object an :class:`~repro.frontdoor.AsyncFrontDoor`
    fronts; its ``schedule_many`` opens one group per window.
    """
    from repro.core.mcts import MonteCarloTreeSearch
    from repro.engine import SchedulingEngine
    from repro.estimator.distill import DistilledEstimator
    from repro.estimator.embedding import EmbeddingSpace
    from repro.estimator.model import ThroughputEstimator
    from repro.fleet.placement import FleetPlacer
    from repro.frontdoor.cache import ShardedDecisionCache
    from repro.nn.inference import InferencePlan
    from repro.online.scheduler import OnlineScheduler
    from repro.sim.simulator import BoardSimulator
    from repro.slo import AdmissionController

    def pairs(args):
        return len(args[1])

    if service is not None:
        tracer.wrap_call(
            service, "schedule_many", "engine.schedule_many",
            size=lambda args: len(args[0]), opens_group=True,
        )
    tracer.wrap_call(
        SchedulingEngine, "replay_group", "engine.replay_group",
        size=lambda args: len(args[2]), opens_group=True,
    )
    tracer.wrap_call(ShardedDecisionCache, "get", "cache.get")
    tracer.wrap_call(ShardedDecisionCache, "put", "cache.put")
    tracer.wrap_generator(MonteCarloTreeSearch, "search_steps", "mcts.search_steps")
    tracer.wrap_generator(OnlineScheduler, "plan_steps", "online.plan_steps")
    tracer.wrap_call(
        ThroughputEstimator, "predict_throughput_batch",
        "estimator.predict_throughput_batch", size=pairs,
    )
    tracer.wrap_call(EmbeddingSpace, "encode_batch", "estimator.encode_batch", size=pairs)
    tracer.wrap_call(
        InferencePlan, "execute", "nn.execute", size=lambda args: args[1]
    )
    tracer.wrap_call(
        DistilledEstimator, "score_candidates", "distill.score_candidates",
        size=lambda args: len(args[2]),
    )
    tracer.wrap_call(FleetPlacer, "place", "fleet.place")
    tracer.wrap_call(AdmissionController, "evaluate", "slo.evaluate")
    tracer.wrap_call(BoardSimulator, "measure", "sim.measure")
