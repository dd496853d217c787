"""Tests for the processor-sharing rate allocator, incl. properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import processor_sharing_rates

BIG = 1e9  # effectively-unbounded rate cap


class TestValidation:
    def test_work_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            processor_sharing_rates(np.ones(3), np.ones(3))

    def test_cap_shape_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            processor_sharing_rates(np.ones((2, 2)), np.ones(3))

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            processor_sharing_rates(np.array([[-1.0, 0.0]]), np.ones(1))

    def test_nonpositive_caps_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            processor_sharing_rates(np.ones((1, 2)), np.zeros(1))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="positive work"):
            processor_sharing_rates(np.array([[0.0, 0.0]]), np.ones(1))

    def test_memory_work_shape_checked(self):
        with pytest.raises(ValueError, match="memory_work"):
            processor_sharing_rates(
                np.ones((2, 2)), np.ones(2), memory_work=np.ones(3)
            )


class TestClassicCases:
    def test_single_dnn_uses_full_device(self):
        rates = processor_sharing_rates(np.array([[0.5]]), np.array([BIG]))
        assert rates[0] == pytest.approx(2.0)

    def test_equal_time_shares_on_one_device(self):
        """Processor sharing: k DNNs on one device each get 1/k of it,
        so a light DNN completes proportionally more inferences."""
        work = np.array([[0.1], [0.2], [0.4]])
        rates = processor_sharing_rates(work, np.full(3, BIG))
        shares = rates * work[:, 0]
        assert np.allclose(shares, 1 / 3)

    def test_private_devices_full_throughput(self):
        work = np.array([[0.25, 0.0], [0.0, 0.5]])
        rates = processor_sharing_rates(work, np.full(2, BIG))
        assert rates == pytest.approx([4.0, 2.0])

    def test_cap_binds_and_slack_redistributes(self):
        work = np.array([[0.1], [0.1]])
        rates = processor_sharing_rates(work, np.array([2.0, BIG]))
        assert rates[0] == pytest.approx(2.0)
        # DNN 1 gets the remaining capacity: (1 - 2*0.1) / 0.1 = 8.
        assert rates[1] == pytest.approx(8.0)

    def test_memory_as_extra_resource(self):
        work = np.array([[0.0001], [0.0001]])
        memory = np.array([0.5, 0.5])
        rates = processor_sharing_rates(work, np.full(2, BIG), memory)
        # Memory saturates first: r1 + r2 = 2 inferences/s.
        assert rates.sum() * 0.5 == pytest.approx(1.0)

    def test_pipeline_cap_only(self):
        rates = processor_sharing_rates(np.array([[0.001]]), np.array([3.0]))
        assert rates[0] == pytest.approx(3.0)


@st.composite
def _allocation_problem(draw):
    num_dnns = draw(st.integers(1, 5))
    num_devices = draw(st.integers(1, 4))
    work = np.array(
        [
            [
                draw(st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False))
                for _ in range(num_devices)
            ]
            for _ in range(num_dnns)
        ]
    )
    # Ensure every DNN places work somewhere.
    for index in range(num_dnns):
        if work[index].sum() == 0:
            work[index, draw(st.integers(0, num_devices - 1))] = draw(
                st.floats(0.01, 2.0)
            )
    caps = np.array(
        [draw(st.floats(0.01, 100.0, allow_nan=False)) for _ in range(num_dnns)]
    )
    return work, caps


class TestProperties:
    @given(_allocation_problem())
    @settings(max_examples=200, deadline=None)
    def test_feasibility_and_caps(self, problem):
        work, caps = problem
        rates = processor_sharing_rates(work, caps)
        assert (rates >= -1e-9).all()
        assert (rates <= caps + 1e-6 * caps).all()
        usage = rates @ work
        assert (usage <= 1.0 + 1e-6).all()

    @given(_allocation_problem())
    @example(
        # A 1e-12 share of a saturated device must not freeze DNN 1
        # below its cap while the only device it really uses has slack.
        (
            np.array([[0.0, 1.0], [0.5, 1e-12], [0.0, 1.0], [0.0, 1.0]]),
            np.ones(4),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_non_wasteful(self, problem):
        """No DNN can be below its cap while all its resources have
        slack (max-min efficiency)."""
        work, caps = problem
        rates = processor_sharing_rates(work, caps)
        usage = rates @ work
        for index in range(len(caps)):
            if rates[index] < caps[index] - 1e-6 * caps[index]:
                touched = work[index] > 1e-12
                assert (usage[touched] >= 1.0 - 1e-6).any()

    @given(_allocation_problem())
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, problem):
        work, caps = problem
        first = processor_sharing_rates(work, caps)
        second = processor_sharing_rates(work, caps)
        assert np.array_equal(first, second)

    @given(st.integers(2, 6), st.floats(0.05, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_dnns_get_equal_rates(self, count, per_inference):
        work = np.full((count, 1), per_inference)
        rates = processor_sharing_rates(work, np.full(count, BIG))
        assert np.allclose(rates, rates[0])
