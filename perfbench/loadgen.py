"""The benchmark's open-loop arrival driver.

Requests are sent on a seeded Poisson schedule whatever the service is
doing, and each is timed from when it was *due*, not from when the
driver got round to sending it: a stall then shows in the latency of
every request that queued behind it.  How late the driver itself ran
(dispatch time minus due time) is reported separately, as the health
of the measurement.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable

import numpy as np


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> list[float]:
    """Arrival offsets in ``[0, duration)`` of a Poisson process at ``rate``/s.

    The process is conditioned on its expected count (``rate * duration``
    arrivals, placed uniformly at random), so every seed offers exactly
    the same number of requests and seeds differ only in their timing.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError(f"rate and duration must be positive, got {rate!r}, {duration!r}")
    return sorted(float(x) for x in rng.uniform(0.0, duration, round(rate * duration)))


@dataclass(frozen=True)
class Completion:
    """One request's timeline (loop-clock seconds) and outcome."""

    due: float
    dispatched: float
    finished: float
    status: str  # "ok", "rejected" or "error"
    result: object = None

    @property
    def latency(self) -> float:
        return self.finished - self.due

    @property
    def late(self) -> float:
        return self.dispatched - self.due


async def open_loop(
    offsets: list[float],
    call: Callable[[int], Awaitable],
    rejected: type[BaseException],
    lead: float = 0.02,
) -> list[Completion]:
    """Send request ``i`` at ``start + offsets[i]``; return completions in order.

    ``call(i)`` issues request ``i``.  An exception of type ``rejected``
    (admission control) marks the request refused; any other exception
    marks it an error.  Neither stops the schedule.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + lead
    results: list[Completion | None] = [None] * len(offsets)

    async def fire(index: int, due: float, dispatched: float) -> None:
        status, result = "ok", None
        try:
            result = await call(index)
        except rejected as exc:
            status, result = "rejected", exc
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the load
            status, result = "error", exc
        results[index] = Completion(due, dispatched, loop.time(), status, result)

    tasks = []
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(fire(index, due, loop.time())))
    await asyncio.gather(*tasks)
    return results  # type: ignore[return-value]
