"""Deterministic fault injection for the fleet runtime.

A :class:`FaultPlan` is a frozen, picklable schedule of failures to
inject into a fleet watch: kill a shard worker when a given tick
reaches it, delay a shard's tick processing, drop a tick's result on
the floor (the work happens, the reply never arrives), or corrupt
stored customer-state blobs.  The plan is *deterministic* -- faults
fire at exact ``(shard_id, tick_id)`` coordinates, never randomly at
run time -- so a faulted run is reproducible and its output can be
byte-compared against an uninterrupted baseline.  Randomness, when
wanted, belongs in the test that builds the plan.

Plans are consulted by the parent at tick-submission time (one
consultation per ``(shard, tick)``, so a fault fires exactly once even
when the tick is later replayed during recovery) and executed:

* the ``serial`` backend simulates the failure in-process (the shard
  object is discarded);
* the ``process`` backend ships the directive with the tick and the
  worker really dies (``os._exit``), sleeps, or swallows its reply --
  the parent-side supervision machinery sees exactly what a production
  crash looks like.

The default plan is a no-op: supervision code paths check
``plan is None`` or :meth:`FaultPlan.is_noop` and stay out of the hot
path entirely.

Example::

    from repro.faults import FaultPlan
    from repro.fleet import SupervisionConfig, WatchConfig

    plan = FaultPlan(kill_worker=((1, 3),))   # kill shard 1 at tick 3
    config = WatchConfig(
        backend="process",
        supervision=SupervisionConfig(faults=plan),
    )
    updates = list(fleet.watch_fleet(feed, config=config))
    # byte-identical to the unfaulted run: the supervisor restored and
    # replayed shard 1 behind the scenes
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import FleetStore

__all__ = ["FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures.

    Attributes:
        kill_worker: ``(shard_id, tick_id)`` pairs; the shard's worker
            dies the moment that tick reaches it (before processing, so
            the tick's work is lost with the worker).
        delay_shard: ``(shard_id, tick_id, seconds)`` triples; the
            shard sleeps that long before processing the tick --
            combined with a tick deadline this simulates a hung worker.
        drop_result: ``(shard_id, tick_id)`` pairs; the shard processes
            the tick (state advances) but its reply is lost in transit,
            which only a deadline can detect.
        corrupt_snapshots: customer ids whose stored state blobs
            :meth:`corrupt_store` truncates -- the resume/readmission
            corruption-quarantine path's trigger.
    """

    kill_worker: tuple[tuple[int, int], ...] = ()
    delay_shard: tuple[tuple[int, int, float], ...] = ()
    drop_result: tuple[tuple[int, int], ...] = ()
    corrupt_snapshots: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        # Normalize list inputs to tuples so plans built from literals
        # stay hashable and picklable by value.
        object.__setattr__(
            self, "kill_worker", tuple((int(s), int(t)) for s, t in self.kill_worker)
        )
        object.__setattr__(
            self,
            "delay_shard",
            tuple((int(s), int(t), float(d)) for s, t, d in self.delay_shard),
        )
        object.__setattr__(
            self, "drop_result", tuple((int(s), int(t)) for s, t in self.drop_result)
        )
        object.__setattr__(
            self, "corrupt_snapshots", tuple(str(c) for c in self.corrupt_snapshots)
        )
        for shard_id, tick_id in (*self.kill_worker, *self.drop_result):
            if shard_id < 0 or tick_id < 0:
                raise ValueError(
                    f"fault coordinates must be non-negative, got ({shard_id}, {tick_id})"
                )
        for shard_id, tick_id, seconds in self.delay_shard:
            if shard_id < 0 or tick_id < 0:
                raise ValueError(
                    f"fault coordinates must be non-negative, got ({shard_id}, {tick_id})"
                )
            if seconds <= 0:
                raise ValueError(f"delay seconds must be positive, got {seconds!r}")

    def is_noop(self) -> bool:
        """Whether this plan injects nothing at all."""
        return not (
            self.kill_worker or self.delay_shard or self.drop_result or self.corrupt_snapshots
        )

    def kill_at(self, shard_id: int, tick_id: int) -> bool:
        """Whether the shard's worker dies when this tick reaches it."""
        return (shard_id, tick_id) in self.kill_worker

    def delay_at(self, shard_id: int, tick_id: int) -> float:
        """Injected processing delay in seconds (0.0 when none)."""
        for fault_shard, fault_tick, seconds in self.delay_shard:
            if fault_shard == shard_id and fault_tick == tick_id:
                return seconds
        return 0.0

    def drop_at(self, shard_id: int, tick_id: int) -> bool:
        """Whether the shard's reply for this tick is lost in transit."""
        return (shard_id, tick_id) in self.drop_result

    def corrupt_store(self, store: "FleetStore") -> int:
        """Corrupt the scheduled customers' stored state blobs.

        Returns the number of rows actually corrupted (customers with
        no stored state are skipped).
        """
        corrupted = 0
        for customer_id in self.corrupt_snapshots:
            if store.corrupt_customer_state(customer_id):
                corrupted += 1
        return corrupted
