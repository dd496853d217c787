"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the lifecycle of a deployment:

* ``models``      -- list the zoo with per-model footprints;
* ``profile``     -- kernel-profile the zoo and print latency tables;
* ``train``       -- run the design-time pipeline and save a checkpoint;
* ``schedule``    -- schedule a mix (optionally from a checkpoint) and
  report measured throughput for every registered scheduler (or the
  ``--scheduler`` selection);
* ``serve-batch`` -- answer a JSON file of mixes through the
  :class:`~repro.service.SchedulingService` (decision cache + pooled
  concurrent MCTS) and report per-request and service statistics;
* ``serve-trace`` -- replay a named churn scenario (or a trace JSON
  file) through the online subsystem: warm-started re-search per
  arrival/departure, per-event timeline, optional JSON report;
* ``fleet-serve`` -- serve a mix burst (or replay a fleet churn trace
  with ``--trace``) across a cluster of named board presets through
  the :class:`~repro.fleet.FleetService`: estimator-scored placement,
  per-board pooled search, fleet stats rollup; ``--chaos BOARD@TIME``
  kills boards mid-replay (orphans recover by warm re-search) and
  ``--elastic`` attaches the policy-driven autoscaler;
* ``lint``        -- doctrine static analysis over the repo's own
  source (:mod:`repro.analysis`): determinism, wall-clock confinement,
  count-based perf gates, batch invariance, canonical cache keys,
  export/docs sync;
* ``motivate``    -- the Fig.-1 motivational sweep;
* ``space``       -- design-space size arithmetic for a mix;
* ``power``       -- throughput-vs-power comparison of the paper objective
  against the energy-aware extension on one mix.

All commands run against the simulated HiKey970 and assemble it
through the lazy :class:`~repro.builder.SystemBuilder`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .analysis.runner import build_arg_parser as lint_arg_parser
from .analysis.runner import run_from_args as lint_run_from_args
from .builder import SystemBuilder
from .core.registry import available_schedulers
from .evaluation import (
    RuntimeCostModel,
    format_table,
    paper_combination_estimate,
    total_contiguous_mappings,
)
from .hw import BIG_CPU_ID, GPU_ID, hikey970
from .models import (
    EXTENSION_MODEL_NAMES,
    MODEL_NAMES,
    build_all_models,
    build_model,
)
from .service import SchedulingService
from .sim import BoardSimulator, KernelProfiler, Mapping
from .workloads import Workload, random_two_stage_mapping

__all__ = ["main"]


def _cmd_models(args: argparse.Namespace) -> int:
    names = list(MODEL_NAMES)
    if args.all:
        names += list(EXTENSION_MODEL_NAMES)
    rows = []
    for name in names:
        graph = build_model(name)
        dataset = "paper" if name in MODEL_NAMES else "extension"
        rows.append(
            [
                name,
                dataset,
                graph.num_layers,
                f"{graph.total_flops / 1e9:.2f}",
                f"{graph.total_weight_bytes / 1e6:.1f}",
                str(graph.input_shape),
            ]
        )
    print(
        format_table(
            ["model", "dataset", "units", "GFLOPs", "weights MB", "input"], rows
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    platform = hikey970()
    profiler = KernelProfiler(platform)
    table = profiler.profile(build_all_models(), seed=args.seed)
    device_names = [device.name for device in platform.devices]
    rows = []
    for name in MODEL_NAMES:
        per_device = table.tables[name].sum(axis=1) * 1000
        rows.append([name] + [f"{value:.1f}" for value in per_device])
    print(format_table(["model (total ms/inference)"] + device_names, rows))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    builder = SystemBuilder(seed=args.seed).with_estimator(
        num_training_samples=args.samples, epochs=args.epochs
    )
    estimator = builder.estimator  # triggers the design-time pipeline
    history = builder.training_history
    print(
        f"trained {estimator.num_parameters}-parameter estimator: "
        f"val L1 {history.final_val_loss:.4f} in {history.wall_time_s:.0f}s"
    )
    estimator.save(args.checkpoint)
    print(f"checkpoint saved to {args.checkpoint}")
    return 0


def _make_builder(args: argparse.Namespace) -> SystemBuilder:
    """A builder from the shared training/search CLI flags."""
    from .core import MCTSConfig

    builder = SystemBuilder(seed=args.seed).with_mcts_config(
        MCTSConfig(
            budget=getattr(args, "budget", None) or MCTSConfig.budget,
            seed=args.seed + 5,
            eval_batch_size=getattr(args, "eval_batch_size", 1),
            use_eval_cache=not getattr(args, "no_eval_cache", False),
        )
    )
    use_compiled = not getattr(args, "no_compiled_inference", False)
    checkpoint = getattr(args, "checkpoint", "")
    if checkpoint and os.path.exists(checkpoint):
        builder.with_estimator(train=False, use_compiled=use_compiled)
        builder.from_checkpoint(checkpoint)
        print(f"loaded estimator checkpoint {checkpoint}")
    else:
        builder.with_estimator(
            num_training_samples=args.samples,
            epochs=args.epochs,
            use_compiled=use_compiled,
        )
    return builder


def _validate_scheduler_names(names) -> list:
    """Fail fast (before any training) on unknown scheduler names."""
    canonical = [name.strip().lower() for name in names]
    known = available_schedulers()
    unknown = [name for name in canonical if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown scheduler(s): {', '.join(unknown)}; "
            f"registered: {', '.join(known)}"
        )
    return canonical


def _cmd_schedule(args: argparse.Namespace) -> int:
    mix = Workload.from_names(args.mix)
    names = (
        _validate_scheduler_names(args.scheduler)
        if args.scheduler
        else list(available_schedulers())
    )
    builder = _make_builder(args)
    cost_model = RuntimeCostModel()
    omniboost = None
    outcomes = []
    for name in names:
        scheduler = builder.build_scheduler(name)
        decision = scheduler.schedule(mix)
        if name == "omniboost":
            omniboost = scheduler
        result = builder.simulator.measure(mix.models, decision.mapping)
        outcomes.append((name, scheduler, decision, result))
    # Normalize against the GPU-only baseline when it is in the
    # selection (whatever its position); the first row otherwise.
    anchor = next(
        (o for o in outcomes if o[0] == "baseline"), outcomes[0]
    )[3].average_throughput
    rows = [
        [
            scheduler.name,
            f"{result.average_throughput:.2f}",
            f"{result.average_throughput / anchor:.2f}",
            f"{cost_model.decision_time(decision.cost):.1f}",
        ]
        for name, scheduler, decision, result in outcomes
    ]
    print(
        format_table(
            ["scheduler", "T (inf/s)", "normalized", "board decision (s)"], rows
        )
    )
    if omniboost is not None and omniboost.last_result is not None:
        cache_hits = omniboost.last_result.cache_hits
        cache_misses = omniboost.last_result.cache_misses
        print(
            f"OmniBoost eval cache: {cache_hits} hits / {cache_misses} misses "
            f"(batch size {args.eval_batch_size})"
        )
    return 0


def _load_mix_file(path: str):
    """Parse a serve-batch JSON file into (model names, knobs) entries.

    Accepted shapes: a top-level list (or ``{"mixes": [...]}``) whose
    entries are either lists of model names or objects
    ``{"models": [...], "budget": int, "priority": int, "id": str}``.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("mixes", payload.get("requests"))
    if not isinstance(payload, list) or not payload:
        raise SystemExit(
            f"{path}: expected a non-empty JSON list of mixes "
            '(or {"mixes": [...]})'
        )
    entries = []
    for index, entry in enumerate(payload):
        if isinstance(entry, list):
            entries.append((entry, {}))
        elif isinstance(entry, dict):
            models = entry.get("models")
            if not models:
                raise SystemExit(f"{path}: mix #{index} has no 'models' list")
            knobs = {}
            if entry.get("budget") is not None:
                budget = int(entry["budget"])
                if budget < 1:
                    raise SystemExit(
                        f"{path}: mix #{index}: budget must be >= 1, got {budget}"
                    )
                knobs["budget"] = budget
            if entry.get("priority") is not None:
                knobs["priority"] = int(entry["priority"])
            knobs["request_id"] = str(entry.get("id", index))
            entries.append((models, knobs))
        else:
            raise SystemExit(f"{path}: mix #{index} must be a list or object")
    return entries


def _frontdoor_kwargs(args: argparse.Namespace) -> dict:
    """Service kwargs of the front-door flags (cache dir, fast path)."""
    kwargs = {}
    if getattr(args, "cache_dir", ""):
        kwargs["cache_dir"] = args.cache_dir
    if getattr(args, "distill", False):
        from .estimator.distill import FastPathPolicy

        kwargs["fast_path"] = FastPathPolicy()
    return kwargs


def _serve_requests(service, requests, args: argparse.Namespace):
    """One batch call, or pooled async windows under ``--window-size``.

    Without the flag the batch goes through ``schedule_many`` whole —
    today's path.  With it, requests stream through the
    :class:`~repro.frontdoor.AsyncFrontDoor` in windows, and
    ``--frontdoor-report`` captures the ingress counters.
    """
    if args.window_size is None:
        responses = service.schedule_many(requests)
        stats = None
    else:
        from .frontdoor import AsyncFrontDoor

        door = AsyncFrontDoor(service, window_size=args.window_size)
        responses = door.serve(requests)
        stats = door.stats
    if getattr(args, "frontdoor_report", ""):
        import json
        from dataclasses import asdict

        report = {
            "window_size": args.window_size,
            "frontdoor": stats.to_dict() if stats is not None else None,
            "service": asdict(service.stats()),
        }
        with open(args.frontdoor_report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"front-door report written to {args.frontdoor_report}")
    return responses


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from .core import ScheduleRequest

    entries = _load_mix_file(args.mix_file)
    (scheduler_name,) = _validate_scheduler_names([args.scheduler])
    builder = _make_builder(args)
    service = SchedulingService(
        builder, scheduler=scheduler_name, **_frontdoor_kwargs(args)
    )
    requests = [
        ScheduleRequest(
            workload=Workload.from_names(models),
            request_id=str(knobs.get("request_id", index)),
            budget=knobs.get("budget"),
            priority=knobs.get("priority", 0),
        )
        for index, (models, knobs) in enumerate(entries)
    ]
    responses = _serve_requests(service, requests, args)
    rows = []
    for request, response in zip(requests, responses):
        row = [
            response.request_id,
            "+".join(request.workload.model_names),
            response.cache_status,
            f"{response.expected_score:.3f}",
            f"{response.measured_wall_time_s * 1000:.0f}",
        ]
        if args.measure:
            measured = builder.simulator.measure(
                request.workload.models, response.mapping
            )
            row.append(f"{measured.average_throughput:.2f}")
        rows.append(row)
    # Latency, not attributable compute: concurrent searches overlap,
    # so per-request latencies do not sum to the batch wall time.
    headers = ["request", "mix", "cache", "score", "latency ms"]
    if args.measure:
        headers.append("T (inf/s)")
    print(format_table(headers, rows))
    stats = service.stats()
    print(
        f"\nservice: {stats.requests_served} requests, "
        f"cache hit rate {stats.cache_hit_rate:.0%} "
        f"({stats.cache_hits} hits / {stats.cache_misses} misses, "
        f"{stats.cache_evictions} evicted, "
        f"{stats.cache_persisted} persisted), "
        f"{stats.pooled_eval_batches} pooled estimator batches "
        f"(mean size {stats.mean_pooled_batch_size:.1f}), "
        f"{stats.estimator_queries_actual:.0f} estimator queries paid "
        f"of {stats.estimator_queries:.0f} budgeted"
    )
    if stats.distilled_queries:
        print(
            f"fast path: {stats.distilled_queries:.0f} student queries, "
            f"{stats.distilled_pruned:.0f} candidates pruned before the "
            "full estimator"
        )
    return 0


#: Label of counters that, after ``--resume``, cover only the groups
#: the resuming process re-planned (the report covers the whole trace).
_RESUMED_SCOPE = "(groups re-planned after resume)"


def _cmd_serve_trace(args: argparse.Namespace) -> int:
    from .evaluation import write_timeline_json
    from .online import OnlineConfig
    from .workloads import ArrivalTrace, churn_scenario, churn_scenario_names

    if args.trace_file:
        trace = ArrivalTrace.from_json(args.trace_file)
    else:
        if args.scenario not in churn_scenario_names():
            raise SystemExit(
                f"unknown churn scenario {args.scenario!r}; available: "
                f"{', '.join(churn_scenario_names())}"
            )
        trace = churn_scenario(args.scenario, seed=args.trace_seed)
    if args.events is not None:
        trace = trace.truncated(args.events)
    if not len(trace):
        raise SystemExit("trace has no events")
    slo = _slo_policy(args)
    journal = _journal_args(args)
    builder = _make_builder(args)
    service = SchedulingService(builder, resilience=_resilience_policy(args))
    online = OnlineConfig(
        warm=not args.no_warm,
        warm_patience=args.warm_patience,
        min_overlap=args.min_overlap,
    )
    report = _replay(
        service, trace, journal, args.resume, online=online, slo=slo
    )
    print(report.event_table())
    print(f"\n{report.summary()}")
    scope = f" {_RESUMED_SCOPE}" if args.resume else ""
    stats = service.stats()
    print(
        f"service{scope}: {stats.trace_reschedules} re-schedules "
        f"({stats.trace_warm_reschedules} warm), "
        f"{stats.pooled_eval_batches} pooled estimator batches, "
        f"{stats.estimator_queries_actual:.0f} estimator queries paid "
        f"of {stats.estimator_queries:.0f} budgeted"
    )
    if stats.faults_detected or stats.degraded_decisions:
        tiers = dict(sorted(stats.decisions_by_tier.items()))
        print(
            f"resilience{scope}: {stats.faults_detected} fault(s) detected, "
            f"{stats.cache_corruptions} cache corruption(s), "
            f"{stats.degraded_decisions} degraded decision(s) {tiers}, "
            f"{stats.tier_step_downs} step-down(s), "
            f"{stats.tier_step_ups} step-up(s), "
            f"{stats.tier_probes} probe(s)"
        )
    if stats.slo_requests:
        print(
            f"slo{scope}: {stats.slo_attained}/{stats.slo_requests} attained; "
            f"rejections {stats.rejections_by_priority}, "
            f"queued {stats.queued_by_priority}, "
            f"preemptions {stats.preemptions_by_priority}"
        )
    if args.report:
        write_timeline_json(report, args.report)
        print(f"timeline report written to {args.report}")
    return 0


def _chaos_plan(args: argparse.Namespace):
    """The :class:`~repro.workloads.ChaosPlan` of the ``--chaos`` flags."""
    from .workloads import ChaosPlan, FailureEvent

    if not args.chaos:
        return None
    if not args.trace:
        raise SystemExit("--chaos only applies to --trace replays")
    failures = []
    for spec in args.chaos:
        board, sep, time_text = spec.rpartition("@")
        try:
            time_s = float(time_text) if sep and board else None
        except ValueError:
            time_s = None
        if time_s is None:
            raise SystemExit(
                f"--chaos expects BOARD@TIME (e.g. edge1@10.0), got {spec!r}"
            )
        try:
            failures.append(FailureEvent(time_s=time_s, board=board))
        except ValueError as error:
            # e.g. a negative timestamp: a usage error, not a traceback.
            raise SystemExit(f"--chaos {spec!r}: {error}") from None
    failures.sort(key=lambda failure: failure.time_s)
    try:
        return ChaosPlan(tuple(failures), name="cli")
    except ValueError as error:
        raise SystemExit(f"--chaos: {error}") from None


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared fault/checkpoint flag group (serve-trace / fleet-serve)."""
    parser.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="KIND@CALL[xN]",
        help="inject a deterministic fault at an estimator call count "
        "(repeatable): estimator-nan, estimator-inf, plan-error at "
        "forward CALL, or cache-corrupt at lookup CALL; xN widens the "
        "window to N calls (e.g. estimator-nan@3x5); arms the "
        "degradation ladder",
    )
    parser.add_argument(
        "--journal",
        type=str,
        default="",
        metavar="PATH",
        help="crash-consistent trace journal: every committed event "
        "group is fsynced here so --resume can continue the replay "
        "byte-identically after a crash",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the replay from --journal instead of starting "
        "over (completed groups are re-emitted, serving state is "
        "restored, the remainder re-plans and keeps journaling)",
    )


def _resilience_policy(args: argparse.Namespace):
    """The :class:`~repro.resilience.ResiliencePolicy` of the flags.

    ``--faults`` specs are parsed and composed into a
    :class:`~repro.resilience.FaultPlan` (sorted by call count; plan
    validation errors become one-line usage errors).  Returns ``None``
    when no fault flag was given — the byte-identical default.
    """
    from .resilience import FaultPlan, FaultSpec, ResiliencePolicy

    if not args.faults:
        return None
    specs = []
    for text in args.faults:
        try:
            specs.append(FaultSpec.parse(text))
        except ValueError as error:
            raise SystemExit(f"--faults {text!r}: {error}") from None
    specs.sort(key=lambda spec: spec.at_call)
    try:
        plan = FaultPlan(tuple(specs), name="cli")
    except ValueError as error:
        raise SystemExit(f"--faults: {error}") from None
    return ResiliencePolicy(faults=plan)


def _journal_args(args: argparse.Namespace) -> Optional[str]:
    """Validate the ``--journal``/``--resume`` combination.

    Returns the journal path (or ``None``) for ``run_trace``; resuming
    without a journal exits with a one-line error instead of surfacing
    as a traceback from the service layer.
    """
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal PATH")
    return args.journal or None


def _replay(service, trace, journal: Optional[str], resume: bool, **kwargs):
    """Run or resume a trace replay; usage faults exit with one line.

    A resume that does not match its journal, and a trace whose
    arrivals no board has room for, are the caller's to fix, not
    tracebacks.
    """
    from .fleet import PlacementError

    try:
        if resume:
            return service.resume_trace(trace, journal, **kwargs)
        return service.run_trace(trace, checkpoint=journal, **kwargs)
    except PlacementError as error:
        raise SystemExit(f"trace exceeds capacity: {error}") from None
    except ValueError as error:
        if not resume:
            raise
        raise SystemExit(f"--resume: {error}") from None


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    from .core import MCTSConfig
    from .evaluation import write_timeline_json
    from .fleet import Cluster, ElasticPolicy, FleetService
    from .online import OnlineConfig
    from .workloads import fleet_scenario, fleet_scenario_names

    (scheduler_name,) = _validate_scheduler_names([args.scheduler])
    chaos = _chaos_plan(args)
    slo = _slo_policy(args)
    journal = _journal_args(args)
    if (args.journal or args.resume) and not args.trace:
        raise SystemExit("--journal/--resume only apply to --trace replays")
    if args.journal and args.elastic:
        raise SystemExit(
            "--journal does not cover elastic fleet-composition "
            "changes; drop --elastic"
        )
    elastic = None
    if args.elastic:
        if not args.trace:
            raise SystemExit("--elastic only applies to --trace replays")
        elastic = ElasticPolicy(
            preset=args.elastic_preset,
            max_boards=args.elastic_max_boards,
            seed=args.seed,
        )
    cluster = Cluster.from_presets(
        [(f"edge{index}", preset) for index, preset in enumerate(args.boards)],
        seed=args.seed,
        estimator={
            "num_training_samples": args.samples,
            "epochs": args.epochs,
        },
        mcts_config=MCTSConfig(
            budget=args.budget or MCTSConfig.budget, seed=args.seed + 5
        ),
    )
    service = FleetService(
        cluster,
        scheduler=scheduler_name,
        placement=args.placement,
        slo=slo,
        resilience=_resilience_policy(args),
        **_frontdoor_kwargs(args),
    )
    boards = ", ".join(
        f"{board.name}={board.preset}" for board in cluster
    )
    print(f"fleet: {boards}\n")

    if args.trace:
        preset = fleet_scenario(args.scenario)
        if preset.build_trace is None:
            raise SystemExit(
                f"fleet scenario {args.scenario!r} has no churn trace; "
                "traced scenarios: "
                + ", ".join(
                    name
                    for name in fleet_scenario_names()
                    if fleet_scenario(name).build_trace is not None
                )
            )
        trace = preset.build_trace(args.trace_seed)
        if args.events is not None:
            trace = trace.truncated(args.events)
        online = OnlineConfig(warm_patience=args.warm_patience)
        kwargs = {"online": online, "chaos": chaos}
        if not args.resume:
            kwargs["elastic"] = elastic
        report = _replay(service, trace, journal, args.resume, **kwargs)
        print(report.event_table())
        print(f"\n{report.summary()}")
        for board in report.boards:
            sub = report.for_board(board)
            print(
                f"  {board}: {len(sub.records)} events, "
                f"{sub.warm_fraction:.0%} warm"
            )
        extent = report.fleet_size_extent
        if extent is not None:
            print(
                f"  fleet size {extent[0]}-{extent[1]} "
                f"(final {report.final_fleet_size}): "
                f"{report.failure_events} failure(s), "
                f"{report.recovered_events} recovered, "
                f"{report.scale_out_events} scale-out(s), "
                f"{report.scale_in_events} scale-in(s), "
                f"{report.drained_events} drained"
            )
        summary = service.stats().summary()
        if args.resume:
            summary = f"stats {_RESUMED_SCOPE}: {summary}"
        print(f"\n{summary}")
        if args.report:
            write_timeline_json(report, args.report)
            print(f"timeline report written to {args.report}")
        return 0

    if args.mix_file:
        entries = _load_mix_file(args.mix_file)
        mixes = [
            (Workload.from_names(models), knobs) for models, knobs in entries
        ]
    else:
        mixes = [
            (workload, {"request_id": str(index)})
            for index, workload in enumerate(
                fleet_scenario(args.scenario).build_mixes(args.seed)
            )
        ]
    from .core import ScheduleRequest

    requests = [
        ScheduleRequest(
            workload=workload,
            request_id=str(knobs.get("request_id", index)),
            budget=knobs.get("budget"),
            priority=knobs.get("priority", 0),
        )
        for index, (workload, knobs) in enumerate(mixes)
    ]
    responses = _serve_requests(service, requests, args)
    rows = []
    for request, response in zip(requests, responses):
        if not response.parts:
            rows.append(
                [
                    response.request_id,
                    "+".join(request.workload.model_names),
                    "-",
                    "no",
                    response.admission,
                    "-",
                    "-",
                ]
            )
            continue
        for placement, part in response.parts:
            rows.append(
                [
                    response.request_id,
                    "+".join(placement.workload.model_names),
                    placement.board,
                    "yes" if response.split else "no",
                    part.cache_status,
                    f"{part.expected_score:.3f}",
                    f"{part.measured_wall_time_s * 1000:.0f}",
                ]
            )
    print(
        format_table(
            [
                "request",
                "mix",
                "board",
                "split",
                "cache",
                "score",
                "latency ms",
            ],
            rows,
        )
    )
    print(f"\n{service.stats().summary()}")
    return 0


def _cmd_motivate(args: argparse.Namespace) -> int:
    platform = hikey970()
    simulator = BoardSimulator(platform)
    mix = Workload.from_names(["alexnet", "mobilenet", "vgg19", "squeezenet"])
    # Continuous benchmark loop (paper Section II): demand unbounded.
    unbounded = [1e9] * mix.num_dnns
    baseline = simulator.simulate(
        mix.models,
        Mapping.single_device(mix.models, GPU_ID),
        offered_rates=unbounded,
    ).average_throughput
    rng = np.random.default_rng(args.seed)
    normalized = []
    for _ in range(args.setups):
        mapping = random_two_stage_mapping(mix.models, rng, (GPU_ID, BIG_CPU_ID))
        measured = simulator.measure(
            mix.models, mapping, rng=rng, offered_rates=unbounded
        )
        normalized.append(measured.average_throughput / baseline)
    values = np.array(normalized)
    print(
        f"{args.setups} random set-ups vs GPU-only baseline: "
        f"best {values.max():.2f}, median {np.median(values):.2f}, "
        f"worst {values.min():.2f}"
    )
    return 0


def _cmd_space(args: argparse.Namespace) -> int:
    mix = Workload.from_names(args.mix)
    total_layers = mix.total_layers
    print(f"mix: {', '.join(mix.model_names)} ({total_layers} layers)")
    print(
        f"paper estimate C({total_layers}, 3) = "
        f"{paper_combination_estimate(total_layers, 3):,}"
    )
    print(
        "exact stage-capped contiguous mappings = "
        f"{total_contiguous_mappings(mix.models, 3, 3):,}"
    )
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from .core import EnergyAwareObjective
    from .hw import hikey970_power

    mix = Workload.from_names(args.mix)
    builder = _make_builder(args)
    service = SchedulingService(builder)
    power_model = hikey970_power()
    energy_objective = EnergyAwareObjective(
        power_model, builder.platform, builder.latency_table
    )
    rows = []
    for label, objective in (
        ("throughput (paper)", None),
        ("inferences/joule", energy_objective),
    ):
        response = service.submit(mix, objective=objective)
        measured = builder.simulator.simulate(mix.models, response.mapping)
        report = power_model.report(builder.platform, measured)
        rows.append(
            [
                label,
                f"{measured.average_throughput:.2f}",
                f"{report.total_w:.2f}",
                f"{report.inferences_per_joule:.3f}",
            ]
        )
    print(format_table(["objective", "T (inf/s)", "power (W)", "inf/J"], rows))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .frontdoor import clear_cache_dir, inspect_cache_dir

    if args.action == "clear":
        removed = clear_cache_dir(args.cache_dir)
        print(f"removed {removed} snapshot file(s) from {args.cache_dir}")
        return 0
    print(json.dumps(inspect_cache_dir(args.cache_dir), indent=2,
                     sort_keys=True))
    return 0


def _add_system_arguments(parser: argparse.ArgumentParser) -> None:
    """The estimator-training and search flags of a system-building command."""
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--eval-batch-size",
        type=_positive_int,
        default=1,
        help="MCTS rollouts scored per vectorized estimator call "
        "(1 = the paper's sequential semantics)",
    )
    parser.add_argument(
        "--no-eval-cache",
        action="store_true",
        help="disable the MCTS transposition cache (re-query repeated "
        "rollout leaves)",
    )
    parser.add_argument(
        "--no-compiled-inference",
        action="store_true",
        help="run estimator queries through the autograd interpreter "
        "instead of the compiled inference plan",
    )


def _add_frontdoor_arguments(parser: argparse.ArgumentParser) -> None:
    """``--window-size``/``--cache-dir``/``--distill`` flag block."""
    group = parser.add_argument_group("front door")
    group.add_argument(
        "--window-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="pool requests through the async front door in windows "
        "of N (1 = identical to the direct batch call; default: "
        "one whole-batch call, no front door)",
    )
    group.add_argument(
        "--cache-dir",
        type=str,
        default="",
        metavar="DIR",
        help="persist the decision cache under DIR and reload it on "
        "the next run (invalidated when the estimator weights move)",
    )
    group.add_argument(
        "--distill",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="prune MCTS candidates with the distilled fast-path "
        "student (--no-distill: every candidate pays the full "
        "estimator)",
    )
    group.add_argument(
        "--frontdoor-report",
        type=str,
        default="",
        metavar="PATH",
        help="write window-size and cache-counter JSON to PATH",
    )


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return number


def _add_slo_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--slo`` flag group (serve-trace / fleet-serve)."""
    parser.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="FLOOR",
        help="per-tenant throughput floor (inf/s); switches on "
        "admission control and priority preemption unless "
        "--slo-observe is also given",
    )
    parser.add_argument(
        "--slo-latency-ms",
        type=float,
        default=None,
        metavar="MS",
        help="decision-latency bound (ms) reported in SLO attainment",
    )
    parser.add_argument(
        "--slo-observe",
        action="store_true",
        help="annotate and count SLO attainment without rejecting, "
        "queueing or preempting anything",
    )


def _slo_policy(args: argparse.Namespace):
    """The :class:`~repro.slo.SLOPolicy` the flags describe (or None)."""
    from .core import SLOTarget
    from .slo import SLOPolicy

    if args.slo is None and args.slo_latency_ms is None:
        return None
    target = SLOTarget(
        min_throughput=args.slo,
        max_latency_s=(
            args.slo_latency_ms / 1000.0
            if args.slo_latency_ms is not None
            else None
        ),
    )
    enforce = not args.slo_observe
    return SLOPolicy(target=target, admission=enforce, preemption=enforce)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro", description="OmniBoost reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser("models", help="list the model zoo")
    models.add_argument(
        "--all", action="store_true", help="include extension models"
    )
    models.set_defaults(fn=_cmd_models)

    profile = sub.add_parser("profile", help="kernel-profile the zoo")
    profile.add_argument("--seed", type=int, default=0)
    profile.set_defaults(fn=_cmd_profile)

    train = sub.add_parser("train", help="train and checkpoint the estimator")
    train.add_argument("--samples", type=int, default=500)
    train.add_argument("--epochs", type=int, default=100)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint", type=str, default="estimator.npz")
    train.set_defaults(fn=_cmd_train)

    schedule = sub.add_parser("schedule", help="schedule a mix, compare schedulers")
    schedule.add_argument("mix", nargs="+", help=f"models: {', '.join(MODEL_NAMES)}")
    schedule.add_argument("--checkpoint", type=str, default="")
    _add_system_arguments(schedule)
    schedule.add_argument(
        "--scheduler",
        action="append",
        metavar="NAME",
        help="compare only the named registered scheduler(s); repeatable "
        f"(registered: {', '.join(available_schedulers())}); "
        "default: every registered scheduler",
    )
    schedule.set_defaults(fn=_cmd_schedule)

    serve = sub.add_parser(
        "serve-batch",
        help="answer a JSON file of mixes through the scheduling service",
    )
    serve.add_argument(
        "mix_file",
        help="JSON: a list of mixes, each a list of model names or an "
        'object {"models": [...], "budget": N, "priority": N, "id": "..."}',
    )
    serve.add_argument("--checkpoint", type=str, default="")
    _add_system_arguments(serve)
    serve.add_argument(
        "--scheduler",
        type=str,
        default="omniboost",
        help="registered scheduler answering the batch",
    )
    serve.add_argument(
        "--measure",
        action="store_true",
        help="also deploy each mapping on the simulated board",
    )
    _add_frontdoor_arguments(serve)
    serve.set_defaults(fn=_cmd_serve_batch)

    trace = sub.add_parser(
        "serve-trace",
        help="replay a churn scenario through the online scheduler",
    )
    trace.add_argument(
        "scenario",
        nargs="?",
        default="bursty",
        help="churn scenario name (bursty, diurnal, priority-inversion, "
        "steady-drain, priority-storm, slo-squeeze, estimator-brownout); "
        "ignored when --trace-file is given",
    )
    trace.add_argument(
        "--trace-file",
        type=str,
        default="",
        help="replay a trace JSON file (ArrivalTrace.to_json format) "
        "instead of a named scenario",
    )
    trace.add_argument(
        "--events",
        type=_positive_int,
        default=None,
        help="truncate the trace to its first N events",
    )
    trace.add_argument("--trace-seed", type=int, default=0)
    trace.add_argument("--checkpoint", type=str, default="")
    _add_system_arguments(trace)
    trace.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help="MCTS iteration budget per re-search (default: paper's 500)",
    )
    trace.add_argument(
        "--warm-patience",
        type=_positive_int,
        default=120,
        help="stop a warm re-search after N non-improving iterations",
    )
    trace.add_argument(
        "--min-overlap",
        type=float,
        default=0.5,
        help="retained-row coverage below which a cold search runs",
    )
    trace.add_argument(
        "--no-warm",
        action="store_true",
        help="disable warm starts (cold full search on every event)",
    )
    trace.add_argument(
        "--report",
        type=str,
        default="",
        help="write the TimelineReport JSON to this path",
    )
    _add_slo_arguments(trace)
    _add_resilience_arguments(trace)
    trace.set_defaults(fn=_cmd_serve_trace)

    fleet = sub.add_parser(
        "fleet-serve",
        help="serve a burst (or replay a churn trace) across a board fleet",
    )
    fleet.add_argument(
        "mix_file",
        nargs="?",
        default="",
        help="optional JSON mix file (serve-batch format); defaults to "
        "the named --scenario's request burst",
    )
    fleet.add_argument(
        "--scenario",
        type=str,
        default="request-burst",
        help="fleet scenario supplying the burst (request-burst, "
        "fleet-churn, heavy-split, priority-storm, slo-squeeze, "
        "board-failure, flash-crowd) or, with --trace, the churn trace",
    )
    fleet.add_argument(
        "--boards",
        nargs="+",
        default=["hikey970", "hikey970_with_npu", "cpu_only_board"],
        metavar="PRESET",
        help="board platform presets, one per board (named edge0..edgeN); "
        "presets: hikey970, hikey970_with_npu, cpu_only_board, "
        "symmetric_board, cloud_tier",
    )
    fleet.add_argument(
        "--placement",
        type=str,
        default="estimator",
        choices=["estimator", "greedy-load"],
        help="placement policy: estimator-scored candidates (default) "
        "or pure greedy-load",
    )
    fleet.add_argument(
        "--trace",
        action="store_true",
        help="replay the scenario's churn trace against the fleet "
        "instead of serving its burst",
    )
    fleet.add_argument("--events", type=_positive_int, default=None)
    fleet.add_argument("--trace-seed", type=int, default=0)
    fleet.add_argument("--warm-patience", type=_positive_int, default=60)
    fleet.add_argument(
        "--chaos",
        action="append",
        default=None,
        metavar="BOARD@TIME",
        help="with --trace: kill the named board when the replay "
        "reaches the timestamp (repeatable); its orphaned tenants "
        "recover onto the survivors by warm re-search",
    )
    fleet.add_argument(
        "--elastic",
        action="store_true",
        help="with --trace: attach the policy-driven autoscaler "
        "(scale-out under queue/attainment pressure, drain-and-retire "
        "back to baseline when load recedes)",
    )
    fleet.add_argument(
        "--elastic-preset",
        type=str,
        default="cloud_tier",
        metavar="PRESET",
        help="board preset scale-outs provision from (default: "
        "cloud_tier, the network-taxed onload tier)",
    )
    fleet.add_argument(
        "--elastic-max-boards",
        type=_positive_int,
        default=4,
        metavar="N",
        help="fleet-size ceiling for scale-out (default: 4)",
    )
    fleet.add_argument(
        "--report",
        type=str,
        default="",
        help="write the aggregated fleet TimelineReport JSON here "
        "(with --trace)",
    )
    fleet.add_argument("--samples", type=int, default=150)
    fleet.add_argument("--epochs", type=int, default=10)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--budget", type=_positive_int, default=None)
    fleet.add_argument(
        "--scheduler",
        type=str,
        default="omniboost",
        help="registered scheduler answering on every board",
    )
    _add_frontdoor_arguments(fleet)
    _add_slo_arguments(fleet)
    _add_resilience_arguments(fleet)
    fleet.set_defaults(fn=_cmd_fleet_serve)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear a persistent decision-cache directory",
    )
    cache.add_argument("action", choices=["inspect", "clear"])
    cache.add_argument(
        "cache_dir", help="directory previously passed as --cache-dir"
    )
    cache.set_defaults(fn=_cmd_cache)

    lint = sub.add_parser(
        "lint",
        help="doctrine static analysis (determinism, batch invariance, "
        "count-based gates) over the repo's own source",
    )
    lint_arg_parser(lint)
    lint.set_defaults(fn=lint_run_from_args)

    motivate = sub.add_parser("motivate", help="run the Fig.-1 sweep")
    motivate.add_argument("--setups", type=int, default=200)
    motivate.add_argument("--seed", type=int, default=0)
    motivate.set_defaults(fn=_cmd_motivate)

    space = sub.add_parser("space", help="design-space size of a mix")
    space.add_argument("mix", nargs="+")
    space.set_defaults(fn=_cmd_space)

    power = sub.add_parser(
        "power", help="throughput-vs-power objectives on one mix"
    )
    power.add_argument("mix", nargs="+")
    _add_system_arguments(power)
    power.set_defaults(fn=_cmd_power)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    sys.exit(main())
