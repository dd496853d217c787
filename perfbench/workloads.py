"""The three benchmark workloads: inputs, assembly, the closed loop.

Every workload is closed loop with one client on one thread: the
front door decides a window synchronously inside the event loop, and
trace timestamps are simulated seconds, so an open-loop generator in
the same process could not send on schedule anyway.

``--seconds`` sets how much work a run carries, converted to a fixed
input count with the per-unit cost measured on the reference host
(2-core x86 container, BLAS pinned to one thread): the same seed and
seconds always give the same inputs, so counts and delivered metrics
repeat exactly, and a run measures roughly ``--seconds`` there.
"""

from __future__ import annotations

import asyncio
import itertools
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import (
    AsyncFrontDoor,
    Board,
    Cluster,
    FastPathPolicy,
    FleetService,
    MODEL_NAMES,
    ScheduleRequest,
    SchedulingService,
    SLOPolicy,
    SLOTarget,
    SystemBuilder,
    Workload,
    WorkloadGenerator,
    generate_trace,
)
from repro.sim.mapping import Mapping

#: Host seconds per unit of work on the reference host: one 3+4+5-DNN
#: cycle of exact decisions, one 12-request front-door burst, and one
#: simulated trace second of the fleet replay.
FIG5_CYCLE_S = 4.4
BURST_S = 1.1
CHURN_HOST_S_PER_TRACE_S = 0.185

BURST_SIZE = 12
WINDOW_SIZE = 4
FAST_PATH_BUDGET = 120
FLEET_BOARDS = 3
THROUGHPUT_FLOOR = 0.40


@dataclass
class Served:
    """One answered request (or planned trace event), as the client saw it."""

    request_id: str
    names: Tuple[str, ...]
    mapping: Mapping
    score: float
    status: str
    latency_s: float
    #: MCTS iterations of the search behind the answer.
    iterations: float = 0.0
    #: Time the request was due (front-door workloads).
    due: float = 0.0


@dataclass
class Run:
    """What one timed drive produced."""

    wall_s: float
    served: List[Served]
    attempted: int
    failed: int
    #: Work items answered or processed, the ``served_per_s`` numerator.
    processed: int
    extra: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class MixStrata:
    """Distinct feasible mixes, stratified on what drives the results.

    For each size the feasible mixes of the model zoo are cut into
    ``count`` equal strata by total layer count (the MCTS decision
    depth, which sets most of a decision's host time), and each stratum
    into ``count`` equal cells by total FLOPs (heavier mixes gain more
    over GPU-only).  A run draws one mix from each layer stratum, from
    the FLOPs cell a seeded permutation assigns it (a Latin hypercube),
    and serves them in seeded order and seeded model order.  Every seed
    then serves different mixes with the same spread of depth and
    weight, so the spread between seeds measures the system rather
    than the luck of the draw.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.max_weight = WorkloadGenerator().max_total_weight_bytes

    def draw(self, size: int, count: int) -> List[Workload]:
        universe = [
            Workload.from_names(names)
            for names in itertools.combinations(MODEL_NAMES, size)
        ]
        universe = [w for w in universe if w.total_weight_bytes <= self.max_weight]
        universe.sort(key=lambda w: (w.total_layers, w.model_names))
        cells = self.rng.permutation(count)
        picks = []
        for stratum, cell in zip(np.array_split(np.arange(len(universe)), count), cells):
            members = sorted(
                (universe[i] for i in stratum),
                key=lambda w: (sum(m.total_flops for m in w.models), w.model_names),
            )
            choices = np.array_split(np.arange(len(members)), count)[cell]
            if not len(choices):  # fewer mixes in the stratum than cells
                choices = np.arange(len(members))
            picks.append(members[int(self.rng.choice(choices))])
        return [
            Workload.from_names([picks[i].model_names[j] for j in self.rng.permutation(size)])
            for i in self.rng.permutation(count)
        ]


def _warm(estimator) -> None:
    """One forward, so the compiled inference plan is built in set-up."""
    workload = Workload.from_names([MODEL_NAMES[0]])
    mapping = Mapping([[0] * workload.models[0].num_layers])
    estimator.predict_throughput_batch([(workload, mapping)])


def _builder(checkpoint: str, seed: int = 0) -> SystemBuilder:
    return SystemBuilder(seed=seed).from_checkpoint(checkpoint)


async def _answer(door: AsyncFrontDoor, request: ScheduleRequest, due: float):
    try:
        response = await door.submit(request)
    except Exception as error:  # a failed request: counted, reported, not fatal
        return request, error, due, time.perf_counter()
    return request, response, due, time.perf_counter()


def _door_run(requests, results, wall_s: float) -> Run:
    served = []
    errors = []
    for request, response, due, resolved in results:
        if isinstance(response, Exception):
            errors.append(f"{request.request_id}: " + "".join(traceback.format_exception(response)))
            continue
        served.append(
            Served(
                request_id=request.request_id,
                names=tuple(request.workload.model_names),
                mapping=response.mapping,
                score=float(response.expected_score),
                status=response.cache_status,
                latency_s=resolved - due,
                iterations=response.decision.cost.get("mcts_iterations", 0.0),
                due=due,
            )
        )
    return Run(
        wall_s=wall_s,
        served=served,
        attempted=len(requests),
        failed=len(errors),
        processed=len(served),
        extra={"errors": errors},
    )


# ----------------------------------------------------------------------
# fig5-cold: the paper's decision, every mix new
# ----------------------------------------------------------------------
class Fig5Cold:
    name = "fig5-cold"

    def make_inputs(self, seed: int, seconds: float) -> List[ScheduleRequest]:
        cycles = max(1, round(seconds / FIG5_CYCLE_S))
        strata = MixStrata(np.random.default_rng([seed, 5]))
        mixes = {size: strata.draw(size, cycles) for size in (3, 4, 5)}
        return [
            ScheduleRequest(workload=mixes[size][cycle], request_id=f"r{cycle}-{size}")
            for cycle in range(cycles)
            for size in (3, 4, 5)
        ]

    def build(self, checkpoint: str, scratch: str):
        builder = _builder(checkpoint)
        service = SchedulingService(builder)
        _warm(service.scheduler.estimator)
        return {
            "builder": builder,
            "service": service,
            "door": AsyncFrontDoor(service, window_size=1),
            "estimators": [service.scheduler.estimator],
        }

    def drive(self, system, requests: Sequence[ScheduleRequest]) -> Run:
        door = system["door"]

        async def loop():
            results = []
            for request in requests:
                results.append(await _answer(door, request, time.perf_counter()))
            await door.drain()
            return results

        start = time.perf_counter()
        results = asyncio.run(loop())
        return _door_run(requests, results, time.perf_counter() - start)


# ----------------------------------------------------------------------
# frontdoor-dup: bursts of duplicates through windows, fast path, disk cache
# ----------------------------------------------------------------------
class FrontdoorDup:
    name = "frontdoor-dup"

    def make_inputs(self, seed: int, seconds: float) -> List[List[ScheduleRequest]]:
        count = max(3, round(seconds / BURST_S))
        rng = np.random.default_rng([seed, 12])
        # Two of every three new mixes have 3 DNNs: the bursts' search
        # times then cluster so that the median sits inside one cluster.
        sizes = [2 if burst % 3 == 2 else 3 for burst in range(count)]
        strata = MixStrata(rng)
        fresh_mixes = {size: strata.draw(size, sizes.count(size)) for size in (2, 3)}
        catalogue: List[Workload] = []
        bursts = []
        for burst, size in enumerate(sizes):
            fresh = fresh_mixes[size].pop()
            catalogue.append(fresh)
            # Zipf popularity by age: the oldest mix is the most requested.
            weights = 1.0 / np.arange(1, len(catalogue) + 1)
            picks = rng.choice(len(catalogue), size=BURST_SIZE - 1, p=weights / weights.sum())
            repeats = [
                Workload.from_names(
                    [catalogue[pick].model_names[i] for i in rng.permutation(catalogue[pick].num_dnns)]
                )
                for pick in picks
            ]
            # The new mix lands in each of the three windows in turn.
            position = (burst % (BURST_SIZE // WINDOW_SIZE)) * WINDOW_SIZE + int(
                rng.integers(WINDOW_SIZE)
            )
            repeats.insert(position, fresh)
            bursts.append(
                [
                    ScheduleRequest(
                        workload=workload,
                        budget=FAST_PATH_BUDGET,
                        request_id=f"b{burst}-{slot}",
                    )
                    for slot, workload in enumerate(repeats)
                ]
            )
        return bursts

    def build(self, checkpoint: str, scratch: str):
        builder = _builder(checkpoint)
        cache_dir = tempfile.mkdtemp(prefix="decisions-", dir=scratch)
        service = SchedulingService(
            builder, fast_path=FastPathPolicy(), cache_dir=cache_dir
        )
        estimator = service.scheduler.estimator  # binds the cache directory
        _warm(estimator)
        # Distillation is the first miss's lazy stage; pay it in set-up.
        service._student_instance(estimator)
        return {
            "builder": builder,
            "service": service,
            "door": AsyncFrontDoor(service, window_size=WINDOW_SIZE),
            "estimators": [estimator],
        }

    def drive(self, system, bursts: Sequence[Sequence[ScheduleRequest]]) -> Run:
        door = system["door"]

        async def loop():
            results = []
            for burst in bursts:
                due = time.perf_counter()
                results.extend(
                    await asyncio.gather(
                        *(_answer(door, request, due) for request in burst)
                    )
                )
            await door.drain()
            return results

        requests = [request for burst in bursts for request in burst]
        start = time.perf_counter()
        results = asyncio.run(loop())
        return _door_run(requests, results, time.perf_counter() - start)


# ----------------------------------------------------------------------
# fleet-slo-churn: a churn trace over three boards under an enforcing SLO
# ----------------------------------------------------------------------
class FleetSloChurn:
    name = "fleet-slo-churn"

    def make_inputs(self, seed: int, seconds: float):
        return generate_trace(
            arrival_rate=0.7,
            min_lifetime_s=6.0,
            max_lifetime_s=30.0,
            horizon_s=round(seconds / CHURN_HOST_S_PER_TRACE_S),
            max_concurrent=9,
            priorities=(0, 1, 2),
            seed=seed,
            name=f"fleet-slo-churn-{seed}",
        )

    def build(self, checkpoint: str, scratch: str):
        builders = [_builder(checkpoint, seed=1000 * i) for i in range(FLEET_BOARDS)]
        cluster = Cluster(
            [Board(name=f"hikey{i}", source=builder) for i, builder in enumerate(builders)]
        )
        fleet = FleetService(
            cluster, slo=SLOPolicy(target=SLOTarget(min_throughput=THROUGHPUT_FLOOR))
        )
        estimators = [fleet.engine(name).scheduler.estimator for name in cluster.board_names]
        for estimator in estimators:
            _warm(estimator)
        return {
            "builder": builders[0],
            "fleet": fleet,
            "estimators": estimators,
        }

    def drive(self, system, trace) -> Run:
        start = time.perf_counter()
        report = system["fleet"].run_trace(trace, record_mappings=True)
        wall_s = time.perf_counter() - start
        served = [
            Served(
                request_id=f"e{record.index}",
                names=tuple(record.active_models),
                mapping=Mapping(record.mapping_rows),
                score=float(record.expected_score),
                status=record.mode,
                latency_s=record.reschedule_time_s,
                iterations=float(record.iterations),
            )
            for record in report.records
            if record.mode != "idle"
        ]
        arrivals = sum(1 for event in trace.events if event.kind == "arrival")
        failed = sum(1 for r in report.records if r.action in ("rejected", "expired"))
        return Run(
            wall_s=wall_s,
            served=served,
            attempted=arrivals,
            failed=failed,
            processed=len(trace.events),
            extra={"report": report, "trace": trace},
        )


WORKLOADS = {w.name: w for w in (Fig5Cold(), FrontdoorDup(), FleetSloChurn())}
