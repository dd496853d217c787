"""OmniBoost reproduction: multi-DNN scheduling on heterogeneous edge SoCs.

A from-scratch Python implementation of *OmniBoost: Boosting Throughput
of Heterogeneous Embedded Devices under Multi-DNN Workload* (Karatzas &
Anagnostopoulos, DAC 2023), including every substrate the paper relies
on: an analytical HiKey970 board model, the eleven-network model zoo, a
numpy autograd framework for the throughput estimator, the MCTS
scheduler, and the three comparison schedulers.

Quick start::

    from repro import SchedulingService, SystemBuilder, Workload

    builder = SystemBuilder().with_estimator(epochs=20)
    service = SchedulingService(builder)   # lazy: nothing trained yet
    mix = Workload.from_names(["vgg19", "resnet50", "mobilenet", "alexnet"])
    response = service.submit(mix)         # profile + train + search
    result = builder.simulator.measure(mix.models, response.mapping)
    print(result.average_throughput, service.stats().cache_hit_rate)

``SystemBuilder(...).build()`` assembles every stage eagerly and
returns the fully-assembled ``OmniBoostSystem``.
"""

from . import (
    analysis,
    baselines,
    core,
    estimator,
    evaluation,
    fleet,
    frontdoor,
    hw,
    models,
    nn,
    online,
    resilience,
    sim,
    slo,
    workloads,
)
from .builder import OmniBoostSystem, SystemBuilder
from .core import (
    MCTSConfig,
    OmniBoostScheduler,
    ScheduleDecision,
    ScheduleRequest,
    ScheduleResponse,
    Scheduler,
    SLOTarget,
    available_schedulers,
    get_scheduler,
    register_scheduler,
    unregister_scheduler,
)
from .engine import SchedulingEngine
from .estimator import (
    DistilledEstimator,
    EmbeddingSpace,
    EstimatorFault,
    FastPathPolicy,
    ThroughputEstimator,
)
from .evaluation import TimelineReport
from .fleet import (
    Autoscaler,
    Board,
    Cluster,
    ElasticPolicy,
    FleetResponse,
    FleetService,
    FleetStats,
)
from .frontdoor import (
    AsyncFrontDoor,
    FrontDoorStats,
    ShardedDecisionCache,
    clear_cache_dir,
    inspect_cache_dir,
)
from .hw import Platform, cloud_tier, hikey970
from .models import MODEL_NAMES, build_model
from .online import OnlineConfig, OnlineDecision, OnlineScheduler
from .resilience import FaultPlan, FaultSpec, ResiliencePolicy
from .service import SchedulingService, ServiceStats
from .slo import AdmissionController, AdmissionDecision, SLOPolicy
from .sim import BoardSimulator, BoardUnresponsiveError, Mapping, SimConfig
from .workloads import (
    ArrivalEvent,
    ArrivalTrace,
    ChaosPlan,
    FailureEvent,
    TraceConfig,
    Workload,
    WorkloadGenerator,
    canonical_signature,
    churn_scenario,
    churn_scenario_names,
    fleet_scenario,
    fleet_scenario_names,
    generate_trace,
)

__version__ = "2.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ArrivalEvent",
    "ArrivalTrace",
    "AsyncFrontDoor",
    "Autoscaler",
    "Board",
    "BoardSimulator",
    "BoardUnresponsiveError",
    "ChaosPlan",
    "Cluster",
    "DistilledEstimator",
    "ElasticPolicy",
    "EmbeddingSpace",
    "EstimatorFault",
    "FailureEvent",
    "FastPathPolicy",
    "FaultPlan",
    "FaultSpec",
    "FleetResponse",
    "FleetService",
    "FleetStats",
    "FrontDoorStats",
    "MCTSConfig",
    "MODEL_NAMES",
    "Mapping",
    "OmniBoostScheduler",
    "OmniBoostSystem",
    "OnlineConfig",
    "OnlineDecision",
    "OnlineScheduler",
    "Platform",
    "ResiliencePolicy",
    "SLOPolicy",
    "SLOTarget",
    "ScheduleDecision",
    "ScheduleRequest",
    "ScheduleResponse",
    "Scheduler",
    "SchedulingEngine",
    "SchedulingService",
    "ServiceStats",
    "ShardedDecisionCache",
    "SimConfig",
    "SystemBuilder",
    "ThroughputEstimator",
    "TimelineReport",
    "TraceConfig",
    "Workload",
    "WorkloadGenerator",
    "__version__",
    "analysis",
    "available_schedulers",
    "baselines",
    "build_model",
    "canonical_signature",
    "churn_scenario",
    "churn_scenario_names",
    "clear_cache_dir",
    "cloud_tier",
    "core",
    "estimator",
    "evaluation",
    "fleet",
    "fleet_scenario",
    "fleet_scenario_names",
    "frontdoor",
    "generate_trace",
    "get_scheduler",
    "hikey970",
    "hw",
    "inspect_cache_dir",
    "models",
    "nn",
    "online",
    "register_scheduler",
    "resilience",
    "sim",
    "slo",
    "unregister_scheduler",
    "workloads",
]
