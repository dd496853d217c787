"""Steady-state contention model: processor-sharing rate allocation.

With several DNN pipelines running concurrently, each device serves the
stage work of every DNN mapped onto it, and the shared DRAM controller
serves everyone's memory traffic.  In steady state each DNN ``i``
completes inferences at some rate ``r_i`` (inferences/second) subject
to:

* **demand bound** -- ``r_i <= cap_i``: a pipeline cannot outrun its
  slowest stage, nor the rate at which its application offers frames;
* **device capacity** -- ``sum_i r_i * w[i, d] <= 1`` for every device
  ``d``, where ``w[i, d]`` is the occupancy (seconds of service per
  inference) DNN ``i`` places on device ``d``;
* **memory capacity** -- ``sum_i r_i * m[i] <= 1`` where ``m[i]`` is
  the DNN's DRAM-controller occupancy per inference.

The board's schedulers round-robin *time*, not completed inferences:
when ``k`` networks saturate one device, each gets ~``1/k`` of the
device, so a light network completes proportionally more inferences
than a heavy one.  We therefore allocate by *weighted* progressive
filling with weights ``1 / total_work_i``: every active DNN's share of
occupied time grows at the same speed, and a DNN freezes when it hits
its demand bound or any resource it uses saturates.  On a single
shared device this reduces exactly to classic egalitarian processor
sharing (``r_i = 1 / (k * w_i)``), and with per-DNN private devices it
recovers full isolated throughput.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["processor_sharing_rates", "max_min_rates"]

_EPS = 1e-12


def processor_sharing_rates(
    work: np.ndarray,
    rate_caps: np.ndarray,
    memory_work: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Steady-state rates under time-fair processor sharing.

    Parameters
    ----------
    work:
        ``(M, D)`` array; ``work[i, d]`` is seconds of device-``d``
        occupancy one inference of DNN ``i`` requires.  Must be
        non-negative with a positive row sum for every DNN.
    rate_caps:
        ``(M,)`` array of per-DNN rate bounds (pipeline bottleneck and
        offered load combined).  Must be positive.
    memory_work:
        Optional ``(M,)`` array of shared memory-controller occupancy
        per inference; treated as one extra capacity-1 resource.
    weights:
        Optional ``(M,)`` positive fair-share weights (rates grow as
        ``r_i = theta * weights[i]`` while active).  Default: the
        reciprocal of each DNN's total occupancy *as passed in*.  The
        board simulator instead passes weights derived from the
        *uninflated* occupancies, so a DNN's fair share is intrinsic
        to its pipeline and cannot be redistributed by contention
        inflation (see :class:`~repro.sim.simulator.BoardSimulator`).

    Returns
    -------
    ``(M,)`` array of rates at the weighted max-min fair point.
    """
    work = np.asarray(work, dtype=float)
    rate_caps = np.asarray(rate_caps, dtype=float)
    if work.ndim != 2:
        raise ValueError(f"work must be 2-D (M, D), got shape {work.shape}")
    num_dnns = work.shape[0]
    if rate_caps.shape != (num_dnns,):
        raise ValueError(
            f"rate_caps shape {rate_caps.shape} does not match {num_dnns} DNNs"
        )
    if (work < 0).any():
        raise ValueError("work entries must be non-negative")
    if (rate_caps <= 0).any():
        raise ValueError("rate caps must be positive")
    total_work = work.sum(axis=1)
    if memory_work is not None:
        memory_work = np.asarray(memory_work, dtype=float)
        if memory_work.shape != (num_dnns,):
            raise ValueError(
                f"memory_work shape {memory_work.shape} does not match {num_dnns} DNNs"
            )
        if (memory_work < 0).any():
            raise ValueError("memory_work entries must be non-negative")
        work = np.hstack([work, memory_work[:, None]])
        total_work = total_work + memory_work
    if (total_work <= 0).any():
        raise ValueError("every DNN must place positive work somewhere")

    # Rates grow as r_i = theta * weight_i while active; equal growth of
    # theta is equal growth of every DNN's occupied-time share.  The
    # floor guards against subnormal work values (no physical kernel is
    # faster than a picosecond) that would overflow the reciprocal.
    if weights is None:
        weights = 1.0 / np.maximum(total_work, 1e-12)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (num_dnns,):
            raise ValueError(
                f"weights shape {weights.shape} does not match {num_dnns} DNNs"
            )
        if (weights <= 0).any():
            raise ValueError("weights must be positive")
    # Occupancy at or below _EPS ties a DNN to no resource: it neither
    # limits the DNN's growth nor freezes it when that resource fills.
    touches = work > _EPS
    demand_work = np.where(touches, work, 0.0)
    rates = np.zeros(num_dnns)
    active = np.ones(num_dnns, dtype=bool)
    # Each round freezes at least one DNN, so M rounds suffice.
    for _ in range(num_dnns):
        if not active.any():
            break
        usage = rates @ work  # current occupancy of each resource
        active_demand = (weights * active) @ demand_work
        # How far theta can grow before a resource saturates (resources
        # no active DNN uses impose no limit).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            resource_headroom = np.where(
                active_demand > _EPS, (1.0 - usage) / active_demand, np.inf
            )
        cap_headroom = np.where(active, (rate_caps - rates) / weights, np.inf)
        growth = min(resource_headroom.min(), cap_headroom.min())
        growth = max(growth, 0.0)
        rates[active] += growth * weights[active]
        # Freeze DNNs that hit their cap or touch a saturated resource.
        usage = rates @ work
        saturated = usage >= 1.0 - 1e-9
        hit_cap = rates >= rate_caps - 1e-9 * rate_caps
        touches_saturated = touches[:, saturated].any(axis=1)
        newly_frozen = active & (hit_cap | touches_saturated)
        if not newly_frozen.any():
            # Numerical guard: force-freeze the most constrained DNN so
            # the loop always terminates.
            candidates = np.flatnonzero(active)
            newly_frozen = np.zeros_like(active)
            newly_frozen[candidates[0]] = True
        active &= ~newly_frozen
    return rates


#: Backwards-compatible alias; the solver has always been the fair-share
#: allocator described above.
max_min_rates = processor_sharing_rates
