"""One benchmark run: assemble, drive, check, measure, report."""

from __future__ import annotations

import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from typing import Dict, List

import numpy as np

import checks
import tracing
from repro import Workload, canonical_signature
from repro.hw.device import DeviceKind
from workloads import WORKLOADS, Run

SETUP_REPEATS = 3
#: The Fig.-5 harness measures every mapping with this noise seed.
MEASUREMENT_SEED = 500
BASELINES = ("baseline", "mosaic", "ga")
#: Busiest-device buckets for ``sim.bound_*_frac``.
CLUSTERS = {DeviceKind.GPU: "gpu", DeviceKind.BIG_CPU: "big", DeviceKind.LITTLE_CPU: "little"}


# ----------------------------------------------------------------------
# Delivered throughput (benchmark side, outside every timed region)
# ----------------------------------------------------------------------
def delivered(system, served) -> Dict[str, float]:
    """Fig.-5 style: measured throughput over GPU-only and best baseline.

    Averaged over the distinct served mappings: a decision served again
    from the cache counts once, so popular repeats do not drown out the
    rest.  Mixes are measured in canonical model order (mappings are
    re-aligned to it), as are their baseline searches.
    """
    builder = system["builder"]
    simulator = builder.simulator
    schedulers = {name: builder.build_scheduler(name) for name in BASELINES}
    kinds = [device.kind for device in builder.platform.devices]

    def measure(workload, mapping):
        rng = np.random.default_rng(MEASUREMENT_SEED)
        return simulator.measure(workload.models, mapping, rng=rng)

    decisions = {}  # (signature, canonical mapping), in first-served order
    for item in served:
        signature = canonical_signature(item.names)
        decisions[signature, checks.realign(item.mapping, item.names, signature)] = None
    references: Dict[tuple, tuple] = {}
    vs_gpu: List[float] = []
    vs_best: List[float] = []
    busiest = Counter()
    for signature, mapping in decisions:
        workload = Workload.from_names(signature)
        if signature not in references:
            baseline = {
                name: measure(workload, scheduler.schedule(workload).mapping).average_throughput
                for name, scheduler in schedulers.items()
            }
            references[signature] = (baseline["baseline"], max(baseline.values()))
        result = measure(workload, mapping)
        gpu, best = references[signature]
        vs_gpu.append(result.average_throughput / gpu)
        vs_best.append(result.average_throughput / best)
        # Ties in utilization (saturated devices) go to the more inflated one.
        device = int(np.lexsort((result.device_scale, result.device_utilization))[-1])
        busiest[CLUSTERS.get(kinds[device], kinds[device])] += 1
    return {
        "decisions": [["+".join(sig), g, b] for (sig, _m), g, b in zip(decisions, vs_gpu, vs_best)],
        "tput_vs_gpu": float(np.mean(vs_gpu)),
        "tput_vs_best_baseline": float(np.mean(vs_best)),
        **{f"bound_{name}_frac": busiest[name] / len(decisions) for name in CLUSTERS.values()},
    }


# ----------------------------------------------------------------------
# Counters shared by the determinism guard and the per-layer metrics
# ----------------------------------------------------------------------
def service_stats(system):
    if "fleet" in system:
        return system["fleet"].stats().combined
    return system["service"].stats()


def queries(system) -> int:
    return sum(estimator.query_count for estimator in system["estimators"])


def counts(system, run: Run) -> Dict[str, float]:
    """Deterministic counters: cache, SLO outcomes, search iterations."""
    stats = service_stats(system)
    searched = [item for item in run.served if item.status != "hit"]
    values = {
        "cache.lookups": stats.cache_hits + stats.cache_misses,
        "cache.hit_rate": stats.cache_hit_rate,
        "cache.entries_written_per_put": (
            stats.cache_persisted / stats.cache_misses if stats.cache_misses else 0.0
        ),
        "cache.evictions": stats.cache_evictions,
        "mcts.iterations_per_decision": (
            sum(item.iterations for item in searched) / len(searched)
            if searched
            else 0.0
        ),
    }
    actions = Counter()
    if "report" in run.extra:
        actions = Counter(record.action for record in run.extra["report"].records)
        actions["admitted"] = run.extra["outcomes"]["admitted"]
    for action in ("admitted", "queued", "dequeued", "preempted", "expired", "rejected"):
        values[f"slo.{action}"] = actions[action]
    return values


def fingerprint(run: Run) -> str:
    body = [
        [item.request_id, list(item.names), [list(row) for row in item.mapping.assignments],
         repr(item.score), item.status]
        for item in run.served
    ]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


# ----------------------------------------------------------------------
# Output checks and the determinism guard
# ----------------------------------------------------------------------
def check_outputs(name: str, system, run: Run) -> List[str]:
    num_devices = system["builder"].platform.num_devices
    problems = checks.mapping_shapes(run.served, num_devices)
    if name == "fleet-slo-churn":
        caps = {board.name: board.max_residency for board in system["fleet"].cluster}
        found, outcomes = checks.trace_accounting(
            run.extra["trace"], run.extra["report"], caps
        )
        run.extra["outcomes"] = outcomes
        return problems + found
    problems += checks.cache_hits(run.served)
    if name == "frontdoor-dup":
        problems += checks.certified_scores(run.served, system["estimators"][0])
    return problems


def code_digest(root: str, checkpoint: str) -> str:
    """What the program's decisions depend on: its sources and weights."""
    digest = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True))
    paths += sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py")))
    for path in paths + [checkpoint]:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def determinism_guard(path: str, digest: str, record: Dict) -> List[str]:
    """Compare with the first run of this seed, or become that run."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        if earlier["digest"] == digest:
            return [
                f"determinism: {key} is {record[key]!r}, an earlier run of "
                f"this seed gave {earlier['record'].get(key)!r}"
                for key in sorted(record)
                if earlier["record"].get(key) != record[key]
            ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump({"digest": digest, "record": record}, handle, sort_keys=True)
    os.replace(path + ".tmp", path)
    return []


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run, forwards: int, tput: Dict, setup_s: float) -> Dict[str, tuple]:
    latencies_ms = [item.latency_s * 1000.0 for item in run.served]
    return {
        "latency_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
        "latency_ms_p90": (float(np.percentile(latencies_ms, 90)), "ms"),
        "served_per_s": (run.processed / run.wall_s, "1/s"),
        "forwards_per_request": (forwards / len(run.served), "count"),
        "tput_vs_gpu": (tput["tput_vs_gpu"], "ratio"),
        "tput_vs_best_baseline": (tput["tput_vs_best_baseline"], "ratio"),
        "served_frac": (1.0 - run.failed / run.attempted, "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(system, run: Run, tracer, drive_spans: int, tput: Dict,
              counted: Dict, untraced_wall_s: float) -> Dict[str, tuple]:
    wall = run.wall_s
    spans = tracer.totals(0, drive_spans)
    side = tracer.totals(drive_spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}

    def span(name, source=spans):
        return source.get(name, empty)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    stats = service_stats(system)
    metrics: Dict[str, tuple] = {}

    door = system.get("door")
    window_sizes = door.stats.window_sizes if door is not None else []
    waits, latencies = [], []
    window_starts = tracer.starts("engine.schedule_many", drive_spans)
    position = 0
    for start, size in zip(window_starts, window_sizes):
        for item in run.served[position : position + size]:
            waits.append(start - item.due)
            latencies.append(item.latency_s)
        position += size
    metrics["frontdoor.windows"] = (len(window_sizes), "count")
    metrics["frontdoor.window_fill"] = (
        ratio(sum(window_sizes), len(window_sizes) * door.window_size) if door else 0.0,
        "fraction",
    )
    metrics["frontdoor.queue_wait_share"] = (ratio(sum(waits), sum(latencies)), "fraction")

    metrics["cache.lookups"] = (counted["cache.lookups"], "count")
    metrics["cache.hit_rate"] = (counted["cache.hit_rate"], "fraction")
    metrics["cache.get_share"] = (span("cache.get")["total_s"] / wall, "fraction")
    metrics["cache.put_share"] = (span("cache.put")["total_s"] / wall, "fraction")
    metrics["cache.entries_written_per_put"] = (counted["cache.entries_written_per_put"], "count")
    metrics["cache.evictions"] = (counted["cache.evictions"], "count")

    engine = span("engine.schedule_many")["self_s"] + span("engine.replay_group")["self_s"]
    metrics["engine.self_ms_per_request"] = (1000.0 * engine / len(run.served), "ms")
    metrics["engine.pooled_batches"] = (stats.pooled_eval_batches, "count")
    metrics["engine.pooled_batch_mean"] = (stats.mean_pooled_batch_size, "count")

    results = tracer.returns.get("mcts.search_steps", [])
    search = span("mcts.search_steps")["self_s"]
    iterations = sum(result.iterations for result in results)
    evaluations = sum(result.evaluations for result in results)
    metrics["mcts.search_ms_per_decision"] = (1000.0 * ratio(search, len(results)), "ms")
    metrics["mcts.iterations_per_decision"] = (counted["mcts.iterations_per_decision"], "count")
    metrics["mcts.us_per_iteration"] = (1e6 * ratio(search, iterations), "us")
    metrics["mcts.losing_rollout_frac"] = (
        ratio(sum(result.losing_rollouts for result in results), iterations), "fraction"
    )
    metrics["mcts.transposition_hit_rate"] = (
        ratio(sum(result.cache_hits for result in results), evaluations), "fraction"
    )

    report = run.extra.get("report")
    records = [r for r in report.records if r.mode != "idle"] if report else []
    metrics["online.plan_self_share"] = (span("online.plan_steps")["self_s"] / wall, "fraction")
    metrics["online.warm_frac"] = (
        ratio(sum(r.mode == "warm" for r in records), len(records)), "fraction"
    )
    metrics["online.early_stop_frac"] = (
        ratio(sum(r.stopped_early for r in records), len(records)), "fraction"
    )
    metrics["online.forwards_per_event"] = (
        ratio(sum(r.estimator_queries_actual for r in records), len(records)), "count"
    )

    fleet = system["fleet"].stats() if "fleet" in system else None
    metrics["fleet.placements"] = (fleet.placements if fleet else 0, "count")
    metrics["fleet.place_share"] = (span("fleet.place")["total_s"] / wall, "fraction")
    metrics["fleet.placement_forwards"] = (fleet.placement_evaluations if fleet else 0, "count")
    metrics["fleet.migrations"] = (fleet.migrations if fleet else 0, "count")
    metrics["fleet.replay_group_share"] = (
        span("engine.replay_group")["total_s"] / wall, "fraction"
    )

    metrics["slo.evaluations"] = (span("slo.evaluate")["calls"], "count")
    metrics["slo.evaluate_share"] = (span("slo.evaluate")["total_s"] / wall, "fraction")
    for action in ("admitted", "queued", "dequeued", "preempted", "expired", "rejected"):
        metrics[f"slo.{action}"] = (counted[f"slo.{action}"], "count")

    predict = span("estimator.predict_throughput_batch")
    encode = span("estimator.encode_batch")
    metrics["estimator.calls"] = (predict["calls"], "count")
    metrics["estimator.forwards"] = (predict["size"], "count")
    metrics["estimator.batch_mean"] = (ratio(predict["size"], predict["calls"]), "count")
    metrics["estimator.us_per_forward"] = (1e6 * ratio(predict["total_s"], predict["size"]), "us")
    metrics["estimator.encode_ms"] = (1000.0 * ratio(encode["total_s"], encode["calls"]), "ms")
    metrics["estimator.plan_compiles"] = (
        sum(estimator.plan_compiles for estimator in system["estimators"]), "count"
    )

    execute = span("nn.execute")
    metrics["nn.execute_ms"] = (1000.0 * ratio(execute["total_s"], execute["calls"]), "ms")
    metrics["nn.execute_us_per_sample"] = (1e6 * ratio(execute["total_s"], execute["size"]), "us")

    metrics["distill.candidates"] = (stats.distilled_queries, "count")
    metrics["distill.pruned"] = (stats.distilled_pruned, "count")
    metrics["distill.keep_frac"] = (
        ratio(stats.pooled_evaluations, stats.distilled_queries), "fraction"
    )
    metrics["distill.score_share"] = (
        span("distill.score_candidates")["total_s"] / wall, "fraction"
    )
    metrics["distill.recertify_forwards"] = (
        stats.estimator_queries_actual - stats.pooled_evaluations
        if stats.distilled_queries
        else 0.0,
        "count",
    )

    measure = span("sim.measure", side)
    metrics["sim.measure_calls"] = (measure["calls"], "count")
    metrics["sim.measure_ms"] = (1000.0 * ratio(measure["total_s"], measure["calls"]), "ms")
    for name in CLUSTERS.values():
        metrics[f"sim.bound_{name}_frac"] = (tput[f"bound_{name}_frac"], "fraction")

    metrics["bench.trace_overhead_frac"] = (wall / untraced_wall_s - 1.0, "fraction")
    return metrics


# ----------------------------------------------------------------------
# Host record and reporting
# ----------------------------------------------------------------------
def host_record(root: str, checkpoint: str) -> Dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    with open(checkpoint, "rb") as handle:
        checksum = hashlib.sha256(handle.read()).hexdigest()
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "checkpoint_sha256": checksum,
        "src_py_lines": src_lines,
    }


def emit(report: Dict, metrics: Dict[str, tuple], correct: bool,
         attempted: int, failed: int, out: str) -> None:
    for key in ("workload", "seed", "seconds", "trace", "measured_s", "samples"):
        print(f"{key}: {report[key]}")
    for key, value in report["host"].items():
        print(f"host.{key}: {value}")
    print(f"requests: attempted {attempted}, succeeded {attempted - failed}, failed {failed}")
    for error in report["errors"]:
        print(f"REQUEST FAILED: {error.splitlines()[0]}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    path = os.path.join(
        out, f"{report['workload']}-s{report['seed']}-trace{report['trace']}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**report, "metrics": {k: v for k, (v, _u) in metrics.items()}}, handle,
                  indent=1, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def assemble(workload, checkpoint: str, scratch: str):
    """Build the system ``SETUP_REPEATS`` times; keep the last one."""
    build_s = []
    system = None
    for _ in range(SETUP_REPEATS):
        # Free the previous assembly first: the peak RSS should be one
        # system's, not the repeats' sum.
        system = None
        gc.collect()
        started = time.perf_counter()
        system = workload.build(checkpoint, scratch)
        build_s.append(time.perf_counter() - started)
    return system, build_s


def drive(workload, system, inputs):
    """The timed drive, and the full estimator forwards it paid."""
    before = queries(system)
    result = workload.drive(system, inputs)
    return result, queries(system) - before


def run(args, once_s: float, root: str, checkpoint: str) -> int:
    workload = WORKLOADS[args.workload]
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".out")
    os.makedirs(out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out)
    try:
        inputs = workload.make_inputs(args.seed, args.seconds)
        if args.trace:
            untraced, _ = drive(workload, workload.build(checkpoint, scratch), inputs)
            gc.collect()
            system = workload.build(checkpoint, scratch)
            tracer = tracing.Tracer()
            tracing.install(tracer, service=system.get("service"))
            try:
                result, forwards = drive(workload, system, inputs)
                drive_spans = len(tracer)
                tput = delivered(system, result.served)
            finally:
                tracer.uninstall()
        else:
            system, build_s = assemble(workload, checkpoint, scratch)
            result, forwards = drive(workload, system, inputs)
            tput = delivered(system, result.served)
        if not result.served:
            print(f"perfbench: nothing was served: {result.extra.get('errors')}", file=sys.stderr)
            return 1
        problems = check_outputs(workload.name, system, result)
        counted = counts(system, result)
        record = {
            "served": fingerprint(result),
            "forwards_per_request": forwards / len(result.served),
            "tput_vs_gpu": tput["tput_vs_gpu"],
            "tput_vs_best_baseline": tput["tput_vs_best_baseline"],
            "failed_frac": result.failed / result.attempted,
            **counted,
        }
        guard = os.path.join(
            out, "determinism", f"{workload.name}-s{args.seed}-n{args.seconds:g}.json"
        )
        problems += determinism_guard(guard, code_digest(root, checkpoint), record)
        if args.trace:
            if fingerprint(untraced) != record["served"]:
                problems.append("determinism: the traced pass served other mappings")
            metrics = per_layer(system, result, tracer, drive_spans, tput, counted, untraced.wall_s)
            tracer.dump(os.path.join(out, f"spans-{workload.name}-s{args.seed}.json"))
        else:
            metrics = end_to_end(result, forwards, tput, once_s + statistics.median(build_s))
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "measured_s": round(result.wall_s, 3),
            "samples": len(result.served),
            "host": host_record(root, checkpoint),
            "problems": problems,
            "errors": result.extra.get("errors", []),
            "determinism_record": record,
            "served": [
                [item.request_id, "+".join(item.names), item.status, item.latency_s]
                for item in result.served
            ],
            "decisions": tput["decisions"],
        }
        if not args.trace:
            report["setup"] = {"once_s": once_s, "assembly_s": build_s}
        emit(report, metrics, not problems, result.attempted, result.failed, out)
        return 1 if problems else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
