"""SystemBuilder tests: laziness, stage caching, checkpoint loading."""

import numpy as np
import pytest

from repro.builder import SystemBuilder
from repro.core import MCTSConfig
from repro.workloads import Workload


def _small_builder(seed=21):
    return SystemBuilder(seed=seed).with_estimator(
        num_training_samples=40, epochs=2
    )


class TestLaziness:
    def test_construction_builds_nothing(self):
        builder = _small_builder()
        assert builder.built_stages == ()

    def test_baseline_scheduler_never_trains(self):
        """The GPU-only baseline needs the platform only -- pulling it
        must not profile the zoo or train the estimator."""
        builder = _small_builder()
        scheduler = builder.build_scheduler("baseline")
        assert scheduler.name == "Baseline"
        assert builder.built("platform")
        assert not builder.built("latency_table")
        assert not builder.built("trained")

    def test_no_training_until_first_schedule(self):
        """Satellite acceptance: a service over the builder does no
        design-time work until the first request forces it."""
        from repro.service import SchedulingService

        builder = _small_builder()
        service = SchedulingService(builder)
        assert not builder.built("trained")
        response = service.submit(Workload.from_names(["alexnet", "mobilenet"]))
        assert builder.built("trained")
        response.mapping.validate(
            Workload.from_names(["alexnet", "mobilenet"]).models, 3
        )

    def test_artifacts_are_cached(self):
        builder = _small_builder()
        assert builder.latency_table is builder.latency_table
        assert builder.estimator is builder.estimator
        assert builder.build_scheduler("omniboost") is builder.build_scheduler(
            "omniboost"
        )

    def test_train_false_skips_training(self):
        builder = SystemBuilder(seed=21).with_estimator(train=False)
        estimator = builder.estimator
        assert builder.training_history is None
        assert builder.built("trained")  # stage ran, produced no history
        assert estimator.num_parameters == 20044


class TestConfigurationGuards:
    def test_reconfigure_after_build_raises(self):
        builder = _small_builder()
        builder.platform
        with pytest.raises(RuntimeError, match="already built"):
            builder.with_platform(builder.platform)

    def test_seed_change_after_artifacts_raises(self):
        builder = _small_builder()
        builder.platform
        with pytest.raises(RuntimeError):
            builder.with_seed(5)

    def test_models_change_after_table_raises(self):
        builder = _small_builder()
        builder.latency_table
        with pytest.raises(RuntimeError):
            builder.with_models(["alexnet"])

    def test_models_change_after_generator_raises(self):
        """The generator samples from the configured names too — a
        later rename must not leave it stale."""
        builder = _small_builder()
        builder.generator
        with pytest.raises(RuntimeError):
            builder.with_models(["alexnet"])

    def test_fluent_chaining_returns_builder(self):
        builder = SystemBuilder()
        assert builder.with_seed(3) is builder
        assert builder.with_mcts_config(MCTSConfig(seed=1)) is builder


class TestCheckpointLoad:
    def test_checkpoint_roundtrip(self, tmp_path):
        built = _small_builder().build()
        path = str(tmp_path / "est.npz")
        built.estimator.save(path)
        loaded = SystemBuilder(seed=21).from_checkpoint(path)
        assert not loaded.built("trained")
        for old, new in zip(
            built.estimator.network.parameters(),
            loaded.estimator.network.parameters(),
        ):
            np.testing.assert_array_equal(old.data, new.data)
        assert loaded.training_history is None
