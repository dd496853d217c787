"""Async ingestion windows: concurrent callers share one pooled drive.

:class:`AsyncFrontDoor` sits in front of anything with a
``schedule_many`` batch surface (:class:`~repro.engine.SchedulingEngine`,
:class:`~repro.service.SchedulingService`,
:class:`~repro.fleet.FleetService`) and accumulates concurrently
submitted :class:`~repro.core.base.ScheduleRequest` arrivals into
*decision windows*.  A window closes when either

* it reaches ``window_size`` requests (a **full** flush), or
* the coalescing task has yielded to the event loop
  :data:`COALESCE_TICKS` times since the window opened (a **tick**
  flush of the partial window).

Both triggers are *count-based* -- requests seen, event-loop turns
yielded -- never wall-clock reads, per the repo's determinism doctrine
(RPR002): a loaded CI runner and a fast laptop close windows after the
same number of opportunities for more work to arrive, so the decision
stream (and therefore every decision) is reproducible.

Each closed window becomes exactly one ``schedule_many`` call, so its
requests dedupe through the decision cache together and their MCTS
searches pool leaf evaluations into shared estimator batches.  At
``window_size=1`` every request flushes alone and the front door is
byte-identical to calling ``schedule_many`` directly -- the identity
contract pinned in ``tests/test_frontdoor.py``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.base import ScheduleRequest

__all__ = ["AsyncFrontDoor", "FrontDoorStats"]

#: Event-loop turns a partial window waits for more arrivals before
#: flushing.  Count-based by design; see the module docstring.
COALESCE_TICKS = 16


@dataclass
class FrontDoorStats:
    """Ingress counters (the CI smoke job's window-size artifact)."""

    requests: int = 0
    windows: int = 0
    window_sizes: List[int] = field(default_factory=list)
    flushes: Dict[str, int] = field(
        default_factory=lambda: {"full": 0, "tick": 0, "drain": 0}
    )

    def record(self, size: int, reason: str) -> None:
        self.windows += 1
        self.window_sizes.append(size)
        self.flushes[reason] += 1

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "windows": self.windows,
            "window_sizes": list(self.window_sizes),
            "flushes": dict(self.flushes),
            "mean_window_size": (
                sum(self.window_sizes) / len(self.window_sizes)
                if self.window_sizes
                else 0.0
            ),
        }


class AsyncFrontDoor:
    """Pool concurrent arrivals into shared ``schedule_many`` windows.

    Parameters
    ----------
    service:
        Any scheduler front end exposing
        ``schedule_many(requests) -> responses`` with responses aligned
        to the request order.
    window_size:
        Requests per full window.  ``1`` disables pooling (identity
        with direct ``schedule_many`` calls).
    """

    def __init__(self, service, window_size: int = 4) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.service = service
        self.window_size = int(window_size)
        self.stats = FrontDoorStats()
        self._pending: List[Tuple[ScheduleRequest, "asyncio.Future"]] = []
        self._generation = 0
        self._coalescer: Optional["asyncio.Task"] = None

    # ------------------------------------------------------------------
    async def submit(self, request: ScheduleRequest):
        """Enqueue one request; resolves to its ``ScheduleResponse``."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending.append((request, future))
        self.stats.requests += 1
        if len(self._pending) >= self.window_size:
            self._flush("full")
        elif self._coalescer is None or self._coalescer.done():
            self._coalescer = loop.create_task(self._coalesce())
        return await future

    async def _coalesce(self) -> None:
        """Flush partial windows after :data:`COALESCE_TICKS` loop turns.

        Persistent while work is pending: a window that fills (and
        flushes) mid-wait re-arms the tick counter for the next one,
        so no partial window is ever left uncovered.
        """
        while self._pending:
            generation = self._generation
            ticks = 0
            while ticks < COALESCE_TICKS:
                await asyncio.sleep(0)
                if self._generation != generation:
                    break  # window flushed full; re-arm for the next
                ticks += 1
            else:
                if self._generation == generation and self._pending:
                    self._flush("tick")

    def _flush(self, reason: str) -> None:
        batch = self._pending
        self._pending = []
        self._generation += 1
        if not batch:
            return
        requests = [request for request, _future in batch]
        self.stats.record(len(requests), reason)
        try:
            responses = self.service.schedule_many(requests)
        except BaseException as error:
            for _request, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_request, future), response in zip(batch, responses):
            if not future.done():
                future.set_result(response)

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Flush any partial window immediately (shutdown path)."""
        if self._coalescer is not None and not self._coalescer.done():
            self._coalescer.cancel()
            try:
                await self._coalescer
            except asyncio.CancelledError:
                pass
        if self._pending:
            self._flush("drain")

    async def run(self, requests: Sequence[ScheduleRequest]):
        """Submit ``requests`` concurrently; responses in input order."""
        tasks = [
            asyncio.ensure_future(self.submit(request))
            for request in requests
        ]
        try:
            responses = await asyncio.gather(*tasks)
        finally:
            await self.drain()
        return list(responses)

    def serve(self, requests: Sequence[ScheduleRequest]):
        """Synchronous convenience wrapper around :meth:`run`."""
        return asyncio.run(self.run(requests))

    async def __aenter__(self) -> "AsyncFrontDoor":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.drain()
