"""Four-device generality tests on the NPU-extended HiKey970.

The paper's framework claims extensibility; these tests prove every
layer of the reproduction generalizes past three computing components:
the environment grows a fourth action, the embedding tensor a fourth
channel, the estimator a fourth input/output, and schedulers produce
valid 4-device mappings end to end.
"""

import numpy as np
import pytest

from repro import SystemBuilder
from repro.core import MCTSConfig, SchedulingEnv
from repro.hw import NPU_ID, DeviceKind, hikey970_with_npu
from repro.sim import BoardSimulator, KernelProfiler, Mapping
from repro.workloads import Workload


@pytest.fixture(scope="module")
def npu_platform():
    return hikey970_with_npu()


class TestPlatform:
    def test_four_devices(self, npu_platform):
        assert npu_platform.num_devices == 4
        assert npu_platform.device(NPU_ID).kind == DeviceKind.NPU

    def test_npu_fast_on_conv_slow_to_reach(self, npu_platform):
        simulator = BoardSimulator(npu_platform)
        from repro.models import build_model

        vgg = build_model("vgg16")
        conv_index = 4  # a mid-network conv layer
        npu_latency = simulator.layer_latency(vgg, conv_index, NPU_ID)
        gpu_latency = simulator.layer_latency(vgg, conv_index, 0)
        assert npu_latency < gpu_latency  # raw compute advantage
        # ...but the hop onto it costs milliseconds.
        assert npu_platform.transfer_time(0, NPU_ID, 1 << 20) > 3e-3


class TestFourDeviceStack:
    def test_profiler_and_embedding(self, npu_platform):
        from repro.estimator import EmbeddingSpace
        from repro.models import MODEL_NAMES, build_all_models

        table = KernelProfiler(npu_platform).profile(build_all_models(), seed=1)
        embedding = EmbeddingSpace(table, MODEL_NAMES)
        assert embedding.input_shape == (4, 35, 11)

    def test_environment_has_four_actions(self, npu_platform):
        env = SchedulingEnv(Workload.from_names(["alexnet"]), 4)
        state = env.reset()
        assert env.legal_actions(state) == [0, 1, 2, 3]
        assert env.stage_cap == 4

    def test_simulator_accepts_npu_mappings(self, npu_platform):
        simulator = BoardSimulator(npu_platform)
        mix = Workload.from_names(["vgg16", "mobilenet"])
        mapping = Mapping(
            [[NPU_ID] * 16, [0] * 28]
        )
        result = simulator.simulate(mix.models, mapping)
        assert (result.rates > 0).all()
        assert result.device_utilization.shape == (4,)

    def test_end_to_end_scheduling_on_four_devices(self, npu_platform):
        system = (
            SystemBuilder(seed=11)
            .with_platform(npu_platform)
            .with_estimator(num_training_samples=80, epochs=5)
            .with_mcts_config(MCTSConfig(budget=80, seed=2))
            .build()
        )
        assert system.estimator.network.stem.conv.in_channels == 4
        mix = Workload.from_names(["vgg19", "resnet50", "alexnet"])
        decision = system.omniboost.schedule(mix)
        decision.mapping.validate(mix.models, 4)
        assert decision.mapping.max_stages <= 4
        result = system.simulator.measure(mix.models, decision.mapping)
        assert result.average_throughput > 0
