"""Fixture-snippet tests: every doctrine rule fires and stays quiet.

Each rule gets (at least) one positive fixture -- a minimal snippet
that violates the doctrine, placed at a path inside the rule's scope
-- and one negative fixture showing the sanctioned idiom passing.
``docs/linting.md`` points new rules here: a rule without both halves
is either dead or a noise generator.
"""

import textwrap

from repro.analysis import LintConfig, run_lint


def lint_snippet(tmp_path, source, rel_path="src/repro/mod.py", select=None):
    """Write ``source`` at ``rel_path`` under a scratch root and lint it."""
    file = tmp_path / rel_path
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source))
    config = LintConfig(allowlist=())
    if select:
        config = config.with_selection(select=tuple(select))
    return run_lint(paths=[rel_path], config=config, root=tmp_path)


def codes(report):
    return [finding.rule for finding in report.findings]


# ----------------------------------------------------------------------
# RPR001 no-unseeded-rng
# ----------------------------------------------------------------------
class TestNoUnseededRng:
    def test_flags_legacy_np_random(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def sample():
                return np.random.rand(3)
            """,
            select=["RPR001"],
        )
        assert codes(report) == ["RPR001"]
        assert "np.random.rand" in report.findings[0].message

    def test_flags_entropy_seeded_default_rng(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np
            from numpy.random import default_rng

            dotted = np.random.default_rng()
            bare = default_rng()
            """,
            select=["RPR001"],
        )
        assert codes(report) == ["RPR001", "RPR001"]

    def test_flags_stdlib_global_rng(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """,
            select=["RPR001"],
        )
        assert codes(report) == ["RPR001"]

    def test_seeded_generators_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import random

            import numpy as np

            rng = np.random.default_rng(7)
            values = rng.random(3)
            shuffled = rng.permutation(5)
            local = random.Random(7)
            pick = local.choice([1, 2, 3])
            """,
            select=["RPR001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# RPR002 wallclock-confinement
# ----------------------------------------------------------------------
class TestWallclockConfinement:
    def test_flags_bare_perf_counter(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import time

            def decide():
                return time.perf_counter()
            """,
            select=["RPR002"],
        )
        assert codes(report) == ["RPR002"]

    def test_flags_from_import_and_datetime_now(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import datetime
            from time import monotonic

            stamp = datetime.datetime.now()
            tick = monotonic()
            """,
            select=["RPR002"],
        )
        assert codes(report) == ["RPR002", "RPR002"]

    def test_out_of_scope_tests_tree_is_ignored(self, tmp_path):
        # RPR002's committed scope is src/ and benchmarks/ only.
        report = lint_snippet(
            tmp_path,
            """
            import time

            def test_something():
                return time.perf_counter()
            """,
            rel_path="tests/test_mod.py",
            select=["RPR002"],
        )
        assert report.clean

    def test_simulated_time_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def advance(clock_s, step_s):
                return clock_s + step_s
            """,
            select=["RPR002"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# RPR003 count-based-perf-gates
# ----------------------------------------------------------------------
class TestCountBasedPerfGates:
    def test_flags_wall_time_speedup_gate(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import time

            def test_speedup(run_slow, run_fast):
                start = time.perf_counter()
                run_slow()
                slow_s = time.perf_counter() - start
                start = time.perf_counter()
                run_fast()
                fast_s = time.perf_counter() - start
                speedup = slow_s / fast_s
                assert speedup >= 2.0
            """,
            rel_path="benchmarks/test_mod.py",
            select=["RPR003"],
        )
        assert codes(report) == ["RPR003"]
        assert "speedup" in report.findings[0].message

    def test_flags_timed_helper_taint(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def test_gate(fn):
                elapsed_s, result = _timed(fn)
                assert elapsed_s < 1.0
            """,
            rel_path="benchmarks/test_mod.py",
            select=["RPR003"],
        )
        assert codes(report) == ["RPR003"]

    def test_timed_unpack_does_not_taint_result(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def test_gate(fn):
                elapsed_s, result = _timed(fn)
                assert result.mapping == (0, 1)
            """,
            rel_path="benchmarks/test_mod.py",
            select=["RPR003"],
        )
        assert report.clean

    def test_count_gates_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def test_gate(counter):
                sequential_calls = counter()
                batched_calls = counter()
                assert sequential_calls >= 2 * batched_calls
            """,
            rel_path="benchmarks/test_mod.py",
            select=["RPR003"],
        )
        assert report.clean

    def test_modeled_decision_time_is_not_wallclock(self, tmp_path):
        # RuntimeCostModel.decision_time() is a deterministic modeled
        # cost -- a legitimate gate input, not a host-clock read.
        report = lint_snippet(
            tmp_path,
            """
            def test_gate(cost_model):
                cost_500 = cost_model.decision_time({"estimator_queries": 500})
                cost_1500 = cost_model.decision_time({"estimator_queries": 1500})
                assert cost_1500 >= 2.9 * cost_500
            """,
            rel_path="benchmarks/test_mod.py",
            select=["RPR003"],
        )
        assert report.clean

    def test_nested_function_assert_reported_once(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def test_gate(fn):
                def run():
                    elapsed_s, _ = _timed(fn)
                    assert elapsed_s < 1.0
                run()
            """,
            rel_path="benchmarks/test_mod.py",
            select=["RPR003"],
        )
        assert codes(report) == ["RPR003"]


# ----------------------------------------------------------------------
# RPR004 batch-invariance
# ----------------------------------------------------------------------
class TestBatchInvariance:
    REL = "src/repro/nn/functional.py"

    def test_flags_stacked_gemm(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def score(batch, weight):
                return np.matmul(batch, weight)
            """,
            rel_path=self.REL,
            select=["RPR004"],
        )
        assert codes(report) == ["RPR004"]

    def test_flags_matmul_operator(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def affine(x, weight):
                return x @ weight.T
            """,
            rel_path=self.REL,
            select=["RPR004"],
        )
        assert codes(report) == ["RPR004"]

    def test_flags_batch_axis_reduction(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def normalize(x):
                axes = (0, 2, 3)
                return x.mean(axis=axes, keepdims=True)
            """,
            rel_path=self.REL,
            select=["RPR004"],
        )
        assert codes(report) == ["RPR004"]

    def test_broadcast_expansion_is_evidence(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def per_sample(x, weight):
                return np.matmul(x[:, None, :], weight.T)[:, 0, :]
            """,
            rel_path=self.REL,
            select=["RPR004"],
        )
        assert report.clean

    def test_rowwise_function_and_comment_are_evidence(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def linear_rowwise(x, weight):
                return x @ weight.T

            def conv(w_mat, cols):
                # Per-sample batched GEMM: the shared weight broadcasts.
                return np.matmul(w_mat, cols)
            """,
            rel_path=self.REL,
            select=["RPR004"],
        )
        assert report.clean

    def test_backward_closures_and_feature_axes_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def op(x, weight):
                def backward(grad):
                    return grad @ weight
                return x.sum(axis=1), backward
            """,
            rel_path=self.REL,
            select=["RPR004"],
        )
        assert report.clean

    def test_out_of_scope_training_module_is_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def loss(x, w):
                return np.matmul(x, w).mean(axis=0)
            """,
            rel_path="src/repro/estimator/training.py",
            select=["RPR004"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# RPR005 canonical-cache-keys
# ----------------------------------------------------------------------
class TestCanonicalCacheKeys:
    def test_flags_inline_signature_in_serving_stack(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def cache_key(names):
                return tuple(sorted(names))
            """,
            rel_path="src/repro/engine.py",
            select=["RPR005"],
        )
        assert codes(report) == ["RPR005"]
        assert "canonical_signature" in report.findings[0].message

    def test_flags_id_and_inline_tuple_keys(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def lookup(cache, workload, names):
                first = cache[id(workload)]
                second = cache.get(tuple(names))
                return first, second
            """,
            select=["RPR005"],
        )
        assert codes(report) == ["RPR005", "RPR005"]

    def test_canonical_helper_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from .workloads.mix import canonical_signature

            def cache_key(cache, names):
                return cache.get(canonical_signature(names))
            """,
            rel_path="src/repro/engine.py",
            select=["RPR005"],
        )
        assert report.clean

    def test_inline_signature_outside_serving_stack_passes(self, tmp_path):
        # tuple(sorted(...)) is only a *mix signature* by construction
        # inside the serving-stack modules.
        report = lint_snippet(
            tmp_path,
            """
            def stable(values):
                return tuple(sorted(values))
            """,
            rel_path="src/repro/sim/mapping.py",
            select=["RPR005"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# RPR006 export-docs-sync
# ----------------------------------------------------------------------
class TestExportDocsSync:
    def _write(self, tmp_path, exports, doc_text):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        names = ", ".join(f'"{name}"' for name in exports)
        (package / "__init__.py").write_text(f"__all__ = [{names}]\n")
        doc = tmp_path / "docs"
        doc.mkdir()
        (doc / "architecture.md").write_text(doc_text)

    def test_flags_undocumented_export(self, tmp_path):
        self._write(
            tmp_path,
            ["Documented", "Orphan"],
            "API rows: `Documented` does things.\n",
        )
        report = run_lint(
            paths=["src"],
            config=LintConfig().with_selection(select=("RPR006",)),
            root=tmp_path,
        )
        assert codes(report) == ["RPR006"]
        assert "Orphan" in report.findings[0].message

    def test_documented_exports_and_exemptions_pass(self, tmp_path):
        self._write(
            tmp_path,
            ["Documented", "__version__"],
            "API rows: `Documented` does things.\n",
        )
        report = run_lint(
            paths=["src"],
            config=LintConfig().with_selection(select=("RPR006",)),
            root=tmp_path,
        )
        assert report.clean

    def test_missing_api_doc_is_a_finding(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text('__all__ = ["Thing"]\n')
        report = run_lint(
            paths=["src"],
            config=LintConfig().with_selection(select=("RPR006",)),
            root=tmp_path,
        )
        assert codes(report) == ["RPR006"]
        assert "missing" in report.findings[0].message


# ----------------------------------------------------------------------
# RPR007 mutable-default-args
# ----------------------------------------------------------------------
class TestMutableDefaultArgs:
    def test_flags_literal_and_constructor_defaults(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def enqueue(item, queue=[]):
                queue.append(item)
                return queue

            def tally(key, *, counts=dict()):
                return counts.setdefault(key, 0)
            """,
            select=["RPR007"],
        )
        assert codes(report) == ["RPR007", "RPR007"]

    def test_none_and_immutable_defaults_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def enqueue(item, queue=None, limit=8, label=""):
                queue = [] if queue is None else queue
                queue.append(item)
                return queue
            """,
            select=["RPR007"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# RPR008 bare-except
# ----------------------------------------------------------------------
class TestBareExcept:
    def test_flags_bare_except(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """,
            select=["RPR008"],
        )
        assert codes(report) == ["RPR008"]

    def test_named_exception_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def load(path):
                try:
                    return open(path).read()
                except OSError:
                    return None
            """,
            select=["RPR008"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# RPR009 serving-path-fault-visibility
# ----------------------------------------------------------------------
class TestServingPathFaultVisibility:
    def test_flags_silent_swallow_in_serving_module(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def drive(jobs):
                try:
                    return search(jobs)
                except RuntimeError:
                    return None
            """,
            rel_path="src/repro/engine.py",
            select=["RPR009"],
        )
        assert codes(report) == ["RPR009"]

    def test_out_of_scope_module_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def drive(jobs):
                try:
                    return search(jobs)
                except RuntimeError:
                    return None
            """,
            rel_path="src/repro/evaluation/metrics.py",
            select=["RPR009"],
        )
        assert report.clean

    def test_reraise_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def drive(jobs):
                try:
                    return search(jobs)
                except RuntimeError as error:
                    raise ValueError("wrapped") from error
            """,
            rel_path="src/repro/engine.py",
            select=["RPR009"],
        )
        assert report.clean

    def test_record_hook_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def drive(self, jobs):
                try:
                    return search(jobs)
                except RuntimeError:
                    self.ladder.record_fault()
                    return None
            """,
            rel_path="src/repro/engine.py",
            select=["RPR009"],
        )
        assert report.clean

    def test_stats_counter_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def drive(self, jobs):
                try:
                    return search(jobs)
                except RuntimeError:
                    self._stats.faults_detected += 1
                    return None
            """,
            rel_path="src/repro/slo.py",
            select=["RPR009"],
        )
        assert report.clean

    def test_fallback_counter_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def choose(self, feasible, load):
                try:
                    return self.score(feasible)
                except RuntimeError:
                    self.greedy_fallbacks += 1
                    return self.greedy(feasible, load)
            """,
            rel_path="src/repro/fleet/placement.py",
            select=["RPR009"],
        )
        assert report.clean

    def test_unrelated_counter_still_flags(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def drive(self, jobs):
                try:
                    return search(jobs)
                except RuntimeError:
                    self.retries += 1
                    return None
            """,
            rel_path="src/repro/engine.py",
            select=["RPR009"],
        )
        assert codes(report) == ["RPR009"]

    def test_stop_iteration_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def advance(job):
                try:
                    return next(job.gen)
                except StopIteration as stop:
                    return stop.value
            """,
            rel_path="src/repro/engine.py",
            select=["RPR009"],
        )
        assert report.clean

    def test_pragma_suppresses_with_reason(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def load(path):
                try:
                    return parse(path)
                except ValueError:  # repro: lint-ignore[RPR009] -- the swallow is the recovery
                    return None
            """,
            rel_path="src/repro/resilience/checkpoint.py",
            select=["RPR009"],
        )
        assert report.clean
        assert report.suppressed


# ----------------------------------------------------------------------
# RPR010 bounded-serving-caches
# ----------------------------------------------------------------------
class TestBoundedServingCaches:
    def test_flags_dict_literal_cache_in_serving_module(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Engine:
                def __init__(self):
                    self._decision_cache = {}
            """,
            rel_path="src/repro/engine.py",
            select=["RPR010"],
        )
        assert codes(report) == ["RPR010"]
        assert "ShardedDecisionCache" in report.findings[0].message

    def test_flags_constructor_and_list_caches(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from collections import OrderedDict

            class Service:
                def __init__(self):
                    self._eval_cache = OrderedDict()
                    self.result_cache: dict = dict()
                    reply_cache = []
            """,
            rel_path="src/repro/service.py",
            select=["RPR010"],
        )
        assert codes(report) == ["RPR010", "RPR010", "RPR010"]

    def test_bounded_cache_and_non_cache_names_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.frontdoor import ShardedDecisionCache

            class Engine:
                def __init__(self):
                    self._decision_cache = ShardedDecisionCache(
                        cache_dir=None
                    )
                    self._pending = {}
                    self._cache_capacity = 128
            """,
            rel_path="src/repro/engine.py",
            select=["RPR010"],
        )
        assert report.clean

    def test_out_of_scope_module_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Trainer:
                def __init__(self):
                    self._grad_cache = {}
            """,
            rel_path="src/repro/estimator/training.py",
            select=["RPR010"],
        )
        assert report.clean

    def test_pragma_suppresses_with_reason(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Engine:
                def __init__(self):
                    self._probe_cache = {}  # repro: lint-ignore[RPR010] -- bounded by the fixed probe set
            """,
            rel_path="src/repro/engine.py",
            select=["RPR010"],
        )
        assert report.clean
        assert report.suppressed
