"""Lazy, composable system assembly: the :class:`SystemBuilder`.

Assembling the system eagerly profiles the zoo and trains the
estimator up front — minutes of work even when the caller only wanted
the GPU-only baseline.  The builder splits assembly into explicit,
individually *lazy* stages::

    from repro import SystemBuilder

    builder = (
        SystemBuilder(seed=0)
        .with_models(["alexnet", "vgg19", "mobilenet"])
        .with_estimator(num_training_samples=300, epochs=20)
    )
    scheduler = builder.build_scheduler("omniboost")   # trains here
    system = builder.build()                           # reuses artifacts

Nothing is profiled, embedded or trained until an artifact is first
touched; every artifact is computed once and cached, so interleaving
``build_scheduler`` calls, direct artifact access and a final
``build()`` never repeats design-time work.  Stage configuration
(``with_*``) is only legal before the stage it feeds has
materialized — reconfiguring a built stage raises instead of silently
returning stale artifacts.

Every stage draws from its own seed lane (profiling ``seed``,
estimator init ``seed+1``, workloads ``seed+2``, measurement
``seed+3``, training ``seed+4``, MCTS ``seed+5``, MOSAIC fit
``seed+6``, GA ``seed+7``).

Schedulers come from the name-based registry
(:mod:`repro.core.registry`): by default a built system carries every
registered scheduler in registration order, so user-registered
schedulers join the paper's comparison set automatically;
:meth:`SystemBuilder.with_scheduler` narrows the selection (and can
register an inline factory in one call).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from .baselines.ga import GAConfig, GeneticScheduler, StaticCostModel
from .baselines.gpu_only import GpuOnlyScheduler
from .baselines.mosaic import LayerLatencyRegression, MosaicScheduler
from .core.base import Scheduler
from .core.mcts import MCTSConfig
from .core.registry import SchedulerFactory, available_schedulers, get_scheduler, register_scheduler
from .core.scheduler import OmniBoostScheduler
from .estimator.embedding import EmbeddingSpace
from .estimator.model import ThroughputEstimator
from .estimator.training import (
    EstimatorDatasetBuilder,
    EstimatorTrainer,
    TrainingHistory,
)
from .hw.platform_ import Platform
from .hw.presets import hikey970
from .models.registry import MODEL_NAMES, build_all_models
from .sim.profiler import KernelProfiler, LatencyTable
from .sim.simulator import BoardSimulator, SimConfig
from .workloads.generator import WorkloadGenerator

__all__ = ["OmniBoostSystem", "SystemBuilder"]


@dataclass
class OmniBoostSystem:
    """Everything assembled: board, estimator, schedulers, generator."""

    platform: Platform
    simulator: BoardSimulator
    profiler: KernelProfiler
    latency_table: LatencyTable
    embedding: EmbeddingSpace
    estimator: ThroughputEstimator
    training_history: Optional[TrainingHistory]
    generator: WorkloadGenerator
    omniboost: Optional[OmniBoostScheduler]
    baseline: Optional[GpuOnlyScheduler]
    mosaic: Optional[MosaicScheduler]
    ga: Optional[GeneticScheduler]
    #: Registry-ordered name -> instance map.  ``None`` only for
    #: systems assembled by hand from the four named fields.
    scheduler_map: Optional[Dict[str, Scheduler]] = field(default=None)

    @property
    def schedulers(self) -> Tuple[Scheduler, ...]:
        """All comparison schedulers, registry order (paper order first).

        Backed by :attr:`scheduler_map`, so any scheduler registered
        via :func:`repro.core.registry.register_scheduler` before the
        system was built is included automatically.
        """
        if self.scheduler_map is not None:
            return tuple(self.scheduler_map.values())
        return tuple(
            scheduler
            for scheduler in (self.baseline, self.mosaic, self.ga, self.omniboost)
            if scheduler is not None
        )

    def scheduler(self, name: str) -> Scheduler:
        """Look up one of this system's schedulers by registry name."""
        canonical = name.strip().lower()
        if self.scheduler_map is not None and canonical in self.scheduler_map:
            return self.scheduler_map[canonical]
        for scheduler in self.schedulers:
            if scheduler.name.lower() == canonical:
                return scheduler
        known = sorted(
            self.scheduler_map if self.scheduler_map is not None
            else [s.name.lower() for s in self.schedulers]
        )
        raise KeyError(f"system has no scheduler {name!r}; known: {known}")


class SystemBuilder:
    """Composable, lazily-evaluated assembly of an :class:`OmniBoostSystem`.

    See the module docstring for the stage model.  All ``with_*``
    methods return ``self`` for chaining.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._platform: Optional[Platform] = None
        self._model_names: Tuple[str, ...] = tuple(MODEL_NAMES)
        self._sim_config: Optional[SimConfig] = None
        self._mcts_config: Optional[MCTSConfig] = None
        self._ga_config: Optional[GAConfig] = None
        self._train = True
        self._num_training_samples = 500
        self._epochs = 100
        self._measurement_repetitions = 3
        self._reserve_layers = 0
        self._reserve_models = 0
        self._use_compiled = True
        self._checkpoint: Optional[str] = None
        self._selected: Optional[list] = None  # None = every registered name
        self._artifacts: Dict[str, Any] = {}
        self._schedulers: Dict[str, Scheduler] = {}

    # ------------------------------------------------------------------
    # Stage configuration (fluent; legal before the stage materializes)
    # ------------------------------------------------------------------
    def _require_unbuilt(self, *stages: str) -> None:
        built = [stage for stage in stages if stage in self._artifacts]
        if built:
            raise RuntimeError(
                f"stage(s) {built} already built; configure the builder "
                "before touching its artifacts"
            )

    def with_seed(self, seed: int) -> "SystemBuilder":
        if self._artifacts:
            raise RuntimeError("seed must be set before any artifact is built")
        self.seed = seed
        return self

    def with_platform(self, platform: Platform) -> "SystemBuilder":
        self._require_unbuilt("platform")
        self._platform = platform
        return self

    def with_models(self, model_names: Sequence[str]) -> "SystemBuilder":
        self._require_unbuilt(
            "models",
            "latency_table",
            "embedding",
            "estimator",
            "generator",
            "mosaic_regression",
            "trained",
        )
        self._model_names = tuple(model_names)
        return self

    def with_sim_config(self, config: SimConfig) -> "SystemBuilder":
        self._require_unbuilt("simulator")
        self._sim_config = config
        return self

    def with_mcts_config(self, config: MCTSConfig) -> "SystemBuilder":
        self._require_unbuilt("mcts_config")
        self._mcts_config = config
        return self

    def with_ga_config(self, config: GAConfig) -> "SystemBuilder":
        self._require_unbuilt("ga_config")
        self._ga_config = config
        return self

    def with_estimator(
        self,
        num_training_samples: int = 500,
        epochs: int = 100,
        measurement_repetitions: int = 3,
        train: bool = True,
        reserve_layers: int = 0,
        reserve_models: int = 0,
        use_compiled: bool = True,
    ) -> "SystemBuilder":
        """Configure the estimator stage (training still deferred).

        ``use_compiled=False`` opts the estimator out of the compiled
        inference plan and back onto the autograd interpreter (the CLI
        exposes this as ``--no-compiled-inference``).
        """
        self._require_unbuilt("embedding", "estimator", "trained")
        self._num_training_samples = num_training_samples
        self._epochs = epochs
        self._measurement_repetitions = measurement_repetitions
        self._train = train
        self._reserve_layers = reserve_layers
        self._reserve_models = reserve_models
        self._use_compiled = use_compiled
        return self

    def from_checkpoint(self, path: str) -> "SystemBuilder":
        """Use saved estimator weights instead of training."""
        self._require_unbuilt("trained")
        self._checkpoint = path
        self._train = False
        return self

    def with_scheduler(
        self, name: str, factory: Optional[SchedulerFactory] = None
    ) -> "SystemBuilder":
        """Select ``name`` for the built system (registering ``factory`` if given).

        The first call switches the builder from "every registered
        scheduler" to an explicit selection; later calls append.  The
        factory, when provided, lands in the global registry so other
        builders see it too.
        """
        if factory is not None:
            register_scheduler(name, factory)
        else:
            get_scheduler(name)  # fail fast on unknown names
        canonical = name.strip().lower()
        if self._selected is None:
            self._selected = []
        if canonical not in self._selected:
            self._selected.append(canonical)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def built(self, stage: str) -> bool:
        """Has ``stage`` materialized?  (``"trained"`` = design-time
        training/checkpoint load has happened.)"""
        return stage in self._artifacts

    @property
    def built_stages(self) -> Tuple[str, ...]:
        """Materialized stages, in build order."""
        return tuple(self._artifacts)

    def _memo(self, stage: str, make) -> Any:
        if stage not in self._artifacts:
            self._artifacts[stage] = make()
        return self._artifacts[stage]

    # ------------------------------------------------------------------
    # Lazy artifacts
    # ------------------------------------------------------------------
    @property
    def platform(self) -> Platform:
        return self._memo("platform", lambda: self._platform or hikey970())

    @property
    def simulator(self) -> BoardSimulator:
        return self._memo(
            "simulator",
            lambda: BoardSimulator(self.platform, config=self._sim_config),
        )

    @property
    def profiler(self) -> KernelProfiler:
        return self._memo("profiler", lambda: KernelProfiler(self.platform))

    @property
    def model_names(self) -> Tuple[str, ...]:
        return self._model_names

    @property
    def models(self) -> Tuple:
        return self._memo("models", lambda: tuple(build_all_models(self._model_names)))

    @property
    def latency_table(self) -> LatencyTable:
        return self._memo(
            "latency_table",
            lambda: self.profiler.profile(list(self.models), seed=self.seed),
        )

    @property
    def embedding(self) -> EmbeddingSpace:
        return self._memo(
            "embedding",
            lambda: EmbeddingSpace(
                self.latency_table,
                self._model_names,
                reserve_layers=self._reserve_layers,
                reserve_models=self._reserve_models,
            ),
        )

    @property
    def generator(self) -> WorkloadGenerator:
        return self._memo(
            "generator",
            lambda: WorkloadGenerator(
                model_names=self._model_names,
                num_devices=self.platform.num_devices,
                seed=self.seed + 2,
            ),
        )

    @property
    def mcts_config(self) -> MCTSConfig:
        return self._memo(
            "mcts_config", lambda: self._mcts_config or MCTSConfig(seed=self.seed + 5)
        )

    @property
    def ga_config(self) -> GAConfig:
        return self._memo(
            "ga_config", lambda: self._ga_config or GAConfig(seed=self.seed + 7)
        )

    @property
    def estimator(self) -> ThroughputEstimator:
        """The ready-to-schedule estimator (trains / loads on first touch)."""
        estimator = self._memo(
            "estimator",
            lambda: ThroughputEstimator(
                self.embedding,
                rng=np.random.default_rng(self.seed + 1),
                use_compiled=self._use_compiled,
            ),
        )
        self._ensure_trained(estimator)
        return estimator

    @property
    def training_history(self) -> Optional[TrainingHistory]:
        """Training history (forces the training stage when enabled)."""
        self.estimator
        return self._artifacts.get("trained")

    @property
    def mosaic_regression(self) -> LayerLatencyRegression:
        return self._memo(
            "mosaic_regression",
            lambda: LayerLatencyRegression(self.platform.num_devices).fit(
                list(self.models), self.profiler, seed=self.seed + 6
            ),
        )

    @property
    def ga_cost_model(self) -> StaticCostModel:
        return self._memo(
            "ga_cost_model",
            lambda: StaticCostModel(
                self.platform,
                self.latency_table,
                offered_rate=self.simulator.config.offered_rate,
            ),
        )

    def _ensure_trained(self, estimator: ThroughputEstimator) -> None:
        """Run deferred design-time training (or checkpoint load) once."""
        if "trained" in self._artifacts:
            return
        history: Optional[TrainingHistory] = None
        if self._checkpoint is not None:
            estimator.load(self._checkpoint)
        elif self._train:
            dataset = EstimatorDatasetBuilder(
                self.simulator, self.generator, estimator
            ).build(
                num_samples=self._num_training_samples,
                measurement_seed=self.seed + 3,
                repetitions=self._measurement_repetitions,
            )
            train_size = max(1, int(round(0.8 * self._num_training_samples)))
            history = EstimatorTrainer(estimator).train(
                dataset,
                epochs=self._epochs,
                train_size=train_size,
                seed=self.seed + 4,
            )
            estimator.reset_query_count()
        self._artifacts["trained"] = history

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def scheduler_names(self) -> Tuple[str, ...]:
        """Names the built system will carry, in comparison order."""
        if self._selected is not None:
            return tuple(self._selected)
        return available_schedulers()

    def build_scheduler(self, name: str) -> Scheduler:
        """Materialize one scheduler by registry name (cached)."""
        canonical = name.strip().lower()
        if canonical not in self._schedulers:
            self._schedulers[canonical] = get_scheduler(canonical)(self)
        return self._schedulers[canonical]

    def build(self) -> OmniBoostSystem:
        """Force every stage and return the assembled system.

        The artifacts are the cached stage outputs, so a system built
        after lazy use shares them.
        """
        scheduler_map = {
            name: self.build_scheduler(name) for name in self.scheduler_names()
        }

        def _named(name: str):
            return scheduler_map.get(name)

        return OmniBoostSystem(
            platform=self.platform,
            simulator=self.simulator,
            profiler=self.profiler,
            latency_table=self.latency_table,
            embedding=self.embedding,
            estimator=self.estimator,
            training_history=self.training_history,
            generator=self.generator,
            omniboost=_named("omniboost"),
            baseline=_named("baseline"),
            mosaic=_named("mosaic"),
            ga=_named("ga"),
            scheduler_map=scheduler_map,
        )
