"""Output checks: every one that fails is listed, and fails the run."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro import Workload, canonical_signature
from repro.models import build_model
from repro.sim.mapping import Mapping


def realign(mapping: Mapping, names: Sequence[str], order: Sequence[str]) -> Mapping:
    """``mapping`` (rows follow ``names``) with its rows in ``order``."""
    row_of = dict(zip(names, mapping.assignments))
    return Mapping([row_of[name] for name in order])


def mapping_shapes(served, num_devices: int) -> List[str]:
    """One row per DNN, that DNN's layer count, devices in range, finite score."""
    problems = []
    for item in served:
        try:
            item.mapping.validate([build_model(n) for n in item.names], num_devices)
        except ValueError as error:
            problems.append(f"{item.request_id}: {error}")
        if not math.isfinite(item.score):
            problems.append(f"{item.request_id}: score {item.score} is not finite")
    return problems


def cache_hits(served) -> List[str]:
    """A hit serves the first answer of its signature, re-aligned.

    ``served`` is in submission order, which is also the order the
    front door's windows decide in, so the first answer of every
    signature must be a miss and every later one a hit.
    """
    problems = []
    first: Dict[Tuple[str, ...], Tuple[Tuple[str, ...], Mapping]] = {}
    for item in served:
        signature = canonical_signature(item.names)
        if signature not in first:
            first[signature] = (item.names, item.mapping)
            if item.status != "miss":
                problems.append(f"{item.request_id}: first answer was a {item.status}")
            continue
        names, mapping = first[signature]
        if item.status != "hit":
            problems.append(f"{item.request_id}: repeat of {'+'.join(signature)} was a {item.status}")
        elif item.mapping != realign(mapping, names, item.names):
            problems.append(f"{item.request_id}: hit differs from the first answer")
    return problems


def certified_scores(served, estimator) -> List[str]:
    """Each searched mix's score is a fresh full-estimator reward."""
    problems = []
    for item in served:
        if item.status != "miss":
            continue
        workload = Workload.from_names(item.names)
        row = estimator.predict_throughput_batch([(workload, item.mapping)])[0]
        if float(row.mean()) != item.score:
            problems.append(
                f"{item.request_id}: served score {item.score!r} != "
                f"full-estimator reward {float(row.mean())!r}"
            )
    return problems


def trace_accounting(trace, report, caps: Dict[str, int]) -> Tuple[List[str], Dict[str, int]]:
    """Every event recorded, every arrival settled, caps held, fleet drained.

    Returns the problems and the arrival outcomes by kind.
    """
    problems = []
    records = report.records
    recorded = {(r.tenant_id, r.kind, r.time_s) for r in records}
    for event in trace.events:
        if (event.tenant_id, event.kind, event.time_s) not in recorded:
            problems.append(f"no record for {event.kind} of {event.tenant_id} at {event.time_s}")

    first_action: Dict[str, str] = {}
    settled: Dict[str, str] = {}
    for record in records:
        if record.kind == "arrival":
            first_action.setdefault(record.tenant_id, record.action)
        if record.action in ("dequeued", "expired"):
            settled[record.tenant_id] = record.action
    outcomes = {"admitted": 0, "dequeued": 0, "expired": 0, "rejected": 0}
    for event in trace.events:
        if event.kind != "arrival":
            continue
        action = first_action.get(event.tenant_id)
        if action == "":
            outcomes["admitted"] += 1
        elif action == "rejected":
            outcomes["rejected"] += 1
        elif action == "queued" and event.tenant_id in settled:
            outcomes[settled[event.tenant_id]] += 1
        else:
            problems.append(f"arrival of {event.tenant_id} never settled ({action!r})")

    # Walk the board-attributed records: the tenancy they imply must
    # match each record's own view, stay within caps, and end empty.
    residents: Dict[str, Dict[str, str]] = {board: {} for board in caps}
    for record in records:
        if not record.board:
            continue
        tenants = residents[record.board]
        if record.kind == "arrival":
            if any(record.tenant_id in other for other in residents.values()):
                problems.append(f"record {record.index}: {record.tenant_id} already resident")
            tenants[record.tenant_id] = record.model
            if len(tenants) > caps[record.board]:
                problems.append(f"record {record.index}: {record.board} over its cap")
        elif record.kind == "departure":
            if tenants.pop(record.tenant_id, None) is None:
                problems.append(f"record {record.index}: {record.tenant_id} not on {record.board}")
        if sorted(tenants.values()) != sorted(record.active_models):
            problems.append(f"record {record.index}: active models disagree with tenancy")
    left = {board: sorted(t) for board, t in residents.items() if t}
    if left:
        problems.append(f"fleet not empty at the end: {left}")
    return problems, outcomes
