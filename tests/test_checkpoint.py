"""Crash-consistent checkpointing tests: the journal and resume sweeps.

The acceptance bar: a journaled replay SIGKILLed after *any* committed
event group resumes byte-identically to the uninterrupted run — pinned
by resuming from the journal truncated at every group boundary, for
both the single-board engine and a chaos-bearing fleet, and for both
under an enforcing SLO policy.
"""

import json
import time

import pytest

from repro.builder import SystemBuilder
from repro.core import MCTSConfig, SLOTarget
from repro.fleet import Cluster, FleetService
from repro.online import OnlineConfig
from repro.resilience import (
    JOURNAL_FORMAT,
    FaultPlan,
    ResiliencePolicy,
    TraceJournal,
    trace_fingerprint,
)
from repro.service import SchedulingService
from repro.slo import SLOPolicy, make_estimator_scorer
from repro.workloads import (
    ArrivalEvent,
    ArrivalTrace,
    ChaosPlan,
    FailureEvent,
    Workload,
    churn_scenario,
)

_ESTIMATOR = {"num_training_samples": 40, "epochs": 3}
_MCTS = MCTSConfig(budget=20, seed=13)
_ONLINE = OnlineConfig(warm_patience=20)
_EVENTS = 4
_POLICY = ResiliencePolicy(
    faults=FaultPlan.single("estimator-nan", at_call=2)
)


def _trace(events=_EVENTS):
    return churn_scenario("estimator-brownout").truncated(events)


def _builder(seed=29):
    return (
        SystemBuilder(seed=seed)
        .with_estimator(**_ESTIMATOR)
        .with_mcts_config(_MCTS)
    )


def _service():
    return SchedulingService(_builder(), resilience=_POLICY)


def _canonical(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def _pinned(fn, *args, **kwargs):
    """Call with host timers pinned so reports compare byte-for-byte."""
    real = time.perf_counter
    time.perf_counter = lambda: 0.0
    try:
        return fn(*args, **kwargs)
    finally:
        time.perf_counter = real


def _truncate(journal_path, target, keep_groups):
    """Copy a journal keeping the header plus ``keep_groups`` lines."""
    lines = journal_path.read_text().splitlines(keepends=True)
    target.write_text("".join(lines[: 1 + keep_groups]))


def _resume_sweep(run, resume, tmp_path):
    """Journal ``run``, then resume from every group boundary.

    Returns the control report; every resume must reproduce it, and
    the journal it completes, byte for byte (the journal's states
    carry the fault injector's call counts, so a resume that spent
    an extra estimator forward would show there).
    """
    journal_path = tmp_path / "control.journal"
    control = _pinned(run, checkpoint=str(journal_path))
    groups = len(journal_path.read_text().splitlines()) - 1
    assert groups >= 2
    for keep in range(groups + 1):
        partial = tmp_path / f"crash-{keep}.journal"
        _truncate(journal_path, partial, keep)
        report = _pinned(resume, str(partial))
        assert _canonical(report) == _canonical(control), (
            f"diverged at group {keep}"
        )
        assert partial.read_text() == journal_path.read_text(), (
            f"journal diverged at group {keep}"
        )
    return control


#: Under the enforcing policy below a board admits one tenant at a
#: time, so this 8-event trace queues, preempts and dequeues on one
#: board and on two (its models score above zero on both estimators).
_ENFORCING_TRACE = ArrivalTrace(
    [
        ArrivalEvent(0.0, "arrival", "a0", "resnet50", 0),
        ArrivalEvent(0.5, "arrival", "m0", "mobilenet", 0),
        ArrivalEvent(1.0, "arrival", "r1", "resnet34", 1),
        ArrivalEvent(1.5, "departure", "m0", "mobilenet", 0),
        ArrivalEvent(2.0, "arrival", "m2", "mobilenet", 0),
        ArrivalEvent(3.0, "departure", "r1", "resnet34", 1),
        ArrivalEvent(4.0, "departure", "a0", "resnet50", 0),
        ArrivalEvent(5.0, "departure", "m2", "mobilenet", 0),
    ],
    name="enforcing-sweep",
)


def _enforcing_policy(scheduler):
    """A floor every trace model clears on an empty board only.

    The floor is half the weakest model's unloaded admission score,
    and the load penalty is so steep that one resident pushes any
    score under it.
    """
    scorer = make_estimator_scorer(scheduler)
    weakest = min(
        scorer(Workload.from_names([event.model]))
        for event in _ENFORCING_TRACE
    )
    assert weakest > 0, "the estimator scores a trace model at or below 0"
    return SLOPolicy(
        target=SLOTarget(min_throughput=0.5 * weakest), load_penalty=1e6
    )


def _assert_enforcement_fired(report):
    actions = {record.action for record in report.records}
    assert {"queued", "preempted", "dequeued"} <= actions, actions


# ----------------------------------------------------------------------
# TraceJournal (pure file-format properties)
# ----------------------------------------------------------------------
class TestTraceJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = TraceJournal.create(path, {"surface": "test", "trace": "x"})
        journal.append_group(0, 2, [{"event": "arrival"}], {"counter": 1})
        journal.append_group(1, 1, [], {"counter": 2})
        journal.close()
        header, entries, _ = TraceJournal.load(path)
        assert header["format"] == JOURNAL_FORMAT
        assert header["surface"] == "test"
        assert [e["position"] for e in entries] == [0, 1]
        assert entries[0]["records"] == [{"event": "arrival"}]
        assert entries[1]["state"] == {"counter": 2}

    def test_closed_journal_rejects_appends(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = TraceJournal.create(path, {})
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.append_group(0, 1, [], {})

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = TraceJournal.create(str(path), {"trace": "x"})
        journal.append_group(0, 1, [], {"counter": 1})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "group", "position": 1, "rec')  # SIGKILL
        header, entries, _ = TraceJournal.load(str(path))
        assert len(entries) == 1

    def test_resume_truncates_the_torn_tail_on_disk(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = TraceJournal.create(str(path), {"trace": "x"})
        journal.append_group(0, 1, [], {"counter": 1})
        journal.close()
        good_size = path.stat().st_size
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn')
        resumed, header, entries = TraceJournal.resume(str(path))
        assert path.stat().st_size == good_size
        resumed.append_group(1, 1, [], {"counter": 2})
        resumed.close()
        _, entries, _ = TraceJournal.load(str(path))
        assert [e["position"] for e in entries] == [0, 1]

    def test_interior_corruption_is_an_error(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = TraceJournal.create(str(path), {"trace": "x"})
        journal.append_group(0, 1, [], {})
        journal.append_group(1, 1, [], {})
        journal.close()
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = '{"kind": "group", "pos\n'
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="corrupt at line 2"):
            TraceJournal.load(str(path))

    def test_missing_header_is_an_error(self, tmp_path):
        path = tmp_path / "run.journal"
        path.write_text('{"kind": "group", "position": 0}\n')
        with pytest.raises(ValueError, match="no header"):
            TraceJournal.load(str(path))

    def test_format_mismatch_is_an_error(self, tmp_path):
        path = tmp_path / "run.journal"
        path.write_text('{"kind": "header", "format": 999}\n')
        with pytest.raises(ValueError, match="format"):
            TraceJournal.load(str(path))

    def test_out_of_order_entries_are_an_error(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = TraceJournal.create(str(path), {})
        journal.append_group(0, 1, [], {})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {"kind": "group", "position": 5, "events": 1,
                     "records": [], "state": {}}
                )
                + "\n"
            )
        with pytest.raises(ValueError, match="out of order"):
            TraceJournal.load(str(path))

    def test_fingerprint_is_stable_and_content_sensitive(self):
        trace = _trace()
        assert trace_fingerprint(trace) == trace_fingerprint(trace)
        assert trace_fingerprint(trace) != trace_fingerprint(
            trace.truncated(_EVENTS - 1)
        )


# ----------------------------------------------------------------------
# Engine resume sweep (the core acceptance property)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_control(tmp_path_factory):
    """One uninterrupted journaled run: (journal path, canonical report)."""
    root = tmp_path_factory.mktemp("engine-journal")
    path = root / "control.journal"
    report = _pinned(
        _service().run_trace, _trace(), online=_ONLINE, checkpoint=str(path)
    )
    return path, _canonical(report)


class TestEngineResume:
    def test_journaling_does_not_change_the_replay(self, engine_control):
        _, control = engine_control
        report = _pinned(_service().run_trace, _trace(), online=_ONLINE)
        assert _canonical(report) == control

    def test_resume_at_every_group_is_byte_identical(
        self, engine_control, tmp_path
    ):
        journal_path, control = engine_control
        groups = len(journal_path.read_text().splitlines()) - 1
        assert groups >= 2
        for keep in range(groups + 1):
            partial = tmp_path / f"crash-{keep}.journal"
            _truncate(journal_path, partial, keep)
            report = _pinned(
                _service().resume_trace, _trace(), str(partial), online=_ONLINE
            )
            assert _canonical(report) == control, f"diverged at group {keep}"

    def test_resume_rejects_a_different_replay(self, engine_control, tmp_path):
        journal_path, _ = engine_control
        partial = tmp_path / "mismatch.journal"
        _truncate(journal_path, partial, 1)
        with pytest.raises(ValueError, match="different replay"):
            _service().resume_trace(
                _trace(_EVENTS - 1), str(partial), online=_ONLINE
            )

    def test_enforcing_slo_resume_at_every_group_is_byte_identical(
        self, tmp_path
    ):
        slo = _enforcing_policy(SchedulingService(_builder()).scheduler)

        def run(checkpoint):
            return _service().run_trace(
                _ENFORCING_TRACE, online=_ONLINE, slo=slo,
                checkpoint=checkpoint,
            )

        def resume(checkpoint):
            return _service().resume_trace(
                _ENFORCING_TRACE, checkpoint, online=_ONLINE, slo=slo
            )

        _assert_enforcement_fired(_resume_sweep(run, resume, tmp_path))


# ----------------------------------------------------------------------
# Fleet resume sweep (chaos + faults, fresh fleet per resume)
# ----------------------------------------------------------------------
def _cluster():
    return Cluster.from_presets(
        [("edge0", "hikey970"), ("edge1", "hikey970")],
        seed=3,
        estimator=_ESTIMATOR,
        mcts_config=_MCTS,
    )


def _fleet(slo=None):
    return FleetService(_cluster(), slo=slo, resilience=_POLICY)


def _fleet_chaos():
    return ChaosPlan((FailureEvent(time_s=3.0, board="edge1"),))


@pytest.fixture(scope="module")
def fleet_control(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-journal")
    path = root / "control.journal"
    report = _pinned(
        _fleet().run_trace,
        _trace(),
        online=_ONLINE,
        chaos=_fleet_chaos(),
        checkpoint=str(path),
    )
    return path, _canonical(report)


class TestFleetResume:
    def test_journaling_does_not_change_the_replay(self, fleet_control):
        _, control = fleet_control
        report = _pinned(
            _fleet().run_trace, _trace(), online=_ONLINE, chaos=_fleet_chaos()
        )
        assert _canonical(report) == control

    def test_resume_at_every_group_is_byte_identical(
        self, fleet_control, tmp_path
    ):
        journal_path, control = fleet_control
        groups = len(journal_path.read_text().splitlines()) - 1
        assert groups >= 2
        for keep in range(groups + 1):
            partial = tmp_path / f"crash-{keep}.journal"
            _truncate(journal_path, partial, keep)
            report = _pinned(
                _fleet().resume_trace,
                _trace(),
                str(partial),
                online=_ONLINE,
                chaos=_fleet_chaos(),
            )
            assert _canonical(report) == control, f"diverged at group {keep}"

    def test_resume_rejects_mismatched_chaos(self, fleet_control, tmp_path):
        journal_path, _ = fleet_control
        partial = tmp_path / "mismatch.journal"
        _truncate(journal_path, partial, 1)
        with pytest.raises(ValueError, match="different replay"):
            _fleet().resume_trace(
                _trace(), str(partial), online=_ONLINE, chaos=None
            )

    def test_enforcing_slo_resume_at_every_group_is_byte_identical(
        self, tmp_path
    ):
        # The fleet scores admission on its first board.
        edge0 = FleetService(_cluster()).engine("edge0")
        slo = _enforcing_policy(edge0.scheduler)

        def run(checkpoint):
            return _fleet(slo).run_trace(
                _ENFORCING_TRACE, online=_ONLINE, checkpoint=checkpoint
            )

        def resume(checkpoint):
            return _fleet(slo).resume_trace(
                _ENFORCING_TRACE, checkpoint, online=_ONLINE
            )

        _assert_enforcement_fired(_resume_sweep(run, resume, tmp_path))

    def test_elastic_rejects_checkpointing(self, tmp_path):
        from repro.fleet import ElasticPolicy

        with pytest.raises(ValueError, match="elastic"):
            _fleet().run_trace(
                _trace(),
                online=_ONLINE,
                elastic=ElasticPolicy(),
                checkpoint=str(tmp_path / "x.journal"),
            )
