"""Shared-memory data plane for the process backend.

The process backend's dominant cost at fleet scale is data movement:
every chunk of traces used to pickle all of its counter arrays through
the executor's queues, and every worker deserialized private copies.
This module replaces that with POSIX shared memory
(:mod:`multiprocessing.shared_memory`): the parent packs each chunk's
raw series *and* precomputed demand matrices into one arena segment,
publishes the per-deployment capacity matrices once per pass into
shared segments of their own, and only lightweight descriptors (name,
offset, shape, dtype) cross the queues.  Workers map ndarray views
over the segments -- rehydration is zero-copy, since
:class:`~repro.telemetry.timeseries.TimeSeries` passes float64 arrays
through ``np.asarray`` untouched.

Lifecycle contract (the part that keeps ``/dev/shm`` clean):

* The parent owns every segment.  An :class:`ArenaRegistry` refcounts
  them; a chunk segment holds one reference, a capacity segment one
  per chunk that mentions it.  When the last reference is released the
  segment is closed *and unlinked*.
* ``release`` runs as each chunk's result is yielded; ``close`` (from
  the pump's ``finally``) force-releases everything outstanding, so an
  abandoned stream, a worker crash (``BrokenProcessPool``) or a raised
  result all converge to zero leaked segments.  Unlinking while a
  straggler worker still maps a segment is safe on POSIX: the name
  disappears, the mapping survives until the worker drops it.
* Workers never own anything: they attach and close their mappings
  when the chunk is done.  A mapping pinned by a live view
  (``BufferError``) is left attached and retried on the next chunk
  rather than crashing the worker.  Attach-time resource-tracker
  registrations are left alone -- under fork the workers share the
  parent's tracker, whose set-based cache collapses the duplicates
  (see :func:`_attach`).
* If the parent itself dies, its resource tracker unlinks the
  registered segments -- the crash-safe backstop.
"""

from __future__ import annotations

import atexit
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..catalog.models import DeploymentType
from ..telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS, PerfDimension
from ..telemetry.timeseries import TimeSeries
from ..telemetry.trace import PerformanceTrace

if TYPE_CHECKING:
    from ..core.ppm import PricePerformanceModeler
    from .engine import FleetCustomer, FleetRecommendation  # noqa: F401

__all__ = [
    "ArenaRegistry",
    "ArrayDescriptor",
    "ChunkPublisher",
    "ResultFrame",
    "ShmChunk",
    "StateFrame",
    "StateFrameSpec",
    "TickFrame",
    "TickPlane",
    "adopt_state_frame",
    "leaked_segments",
    "pack_state_records",
    "result_nbytes",
    "unpack_state_records",
    "unpack_tick",
    "write_result_columns",
]

#: Prefix of every arena segment name; the leak checks key off it.
SEGMENT_PREFIX = "doppler-arena"

_FLOAT64_ITEMSIZE = 8


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live shared-memory segments under ``prefix``.

    Reads ``/dev/shm`` directly (Linux), so it sees segments regardless
    of which process created them -- the property the kill-mid-chunk
    test needs.  On platforms without ``/dev/shm`` it returns an empty
    list; the lifecycle tests are effectively Linux-only.
    """
    try:
        entries = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


@dataclass(frozen=True)
class ArrayDescriptor:
    """Where one ndarray lives inside a shared segment.

    The only thing that crosses a process queue in place of the array
    itself.  ``segment`` names the shared-memory block; ``offset`` is
    in bytes from its start.  The batch data plane ships only float64
    (the default); the streaming tick plane also ships int64 index
    columns and bool flag columns, hence the ``dtype`` field.
    """

    segment: str
    offset: int
    shape: tuple[int, ...]
    dtype: str = "float64"

    @property
    def nbytes(self) -> int:
        n = int(np.dtype(self.dtype).itemsize)
        for extent in self.shape:
            n *= extent
        return n

    def view(self, buf) -> np.ndarray:
        """A read-write ndarray view over ``buf`` (no copy)."""
        return np.ndarray(
            self.shape, dtype=np.dtype(self.dtype), buffer=buf, offset=self.offset
        )


class ArenaRegistry:
    """Parent-side refcounted owner of shared-memory segments.

    Every segment created through the registry is unlinked exactly
    once: when its refcount drops to zero, or -- whichever comes first
    -- when :meth:`close_all` force-releases the registry.  The
    registry is process-local and not thread-safe; the batch pump
    drives it from a single thread.
    """

    #: Process-wide name counter.  Registries are per-pass, but passes
    #: can coexist in one parent (a watch's tick plane next to a batch
    #: pump, tests building planes back to back); a per-registry
    #: counter would mint colliding names -- and stale entries in the
    #: worker-side attachment cache would silently alias them.
    _name_counter = count(1)

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._refcounts: dict[str, int] = {}
        atexit.register(self.close_all)

    def __len__(self) -> int:
        return len(self._segments)

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """A fresh segment with refcount 1, named for this process."""
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(self._name_counter)}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 1))
        self._segments[segment.name] = segment
        self._refcounts[segment.name] = 1
        return segment

    def acquire(self, name: str) -> None:
        """Add one reference to an owned segment."""
        self._refcounts[name] += 1

    def get(self, name: str) -> shared_memory.SharedMemory | None:
        """The owned segment by name, or None once released.

        The tick plane's staleness check: a reply descriptor naming a
        segment the registry no longer owns (recycled after a slot
        grew, or force-released) must not be mapped.
        """
        return self._segments.get(name)

    def release(self, name: str) -> None:
        """Drop one reference; the last one closes and unlinks."""
        count = self._refcounts.get(name)
        if count is None:
            return  # already force-released by close_all
        if count > 1:
            self._refcounts[name] = count - 1
            return
        self._unlink(name)

    def close_all(self) -> None:
        """Force-release every owned segment (teardown/crash path)."""
        for name in list(self._segments):
            self._unlink(name)
        # Registries are per-pass; drop the atexit hook so finished
        # passes don't pile dead callbacks onto long-lived processes.
        atexit.unregister(self.close_all)

    def _unlink(self, name: str) -> None:
        segment = self._segments.pop(name)
        self._refcounts.pop(name, None)
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass  # e.g. an external cleaner raced us


# ----------------------------------------------------------------------
# Descriptors shipped to workers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SeriesSpec:
    """One dimension's counter series inside the chunk segment."""

    dimension: PerfDimension
    array: ArrayDescriptor
    interval_minutes: float
    start_minute: float


@dataclass(frozen=True)
class _TraceSpec:
    """One trace: raw series plus its pre-exported demand matrix."""

    entity_id: str
    series: tuple[_SeriesSpec, ...]
    demand_dims: tuple[PerfDimension, ...] | None
    demand: ArrayDescriptor | None


@dataclass(frozen=True)
class _RecordSpec:
    """A ``CloudCustomerRecord`` with its trace swapped for a spec."""

    trace: _TraceSpec
    deployment_value: str
    chosen_sku_name: str
    days_on_sku: float


@dataclass(frozen=True)
class _CustomerSpec:
    """A ``FleetCustomer`` with its trace swapped for a spec."""

    customer_id: str
    trace: _TraceSpec
    deployment_value: str
    file_sizes_gib: tuple[float, ...] | None
    current_sku_name: str | None


@dataclass(frozen=True)
class _CapsSpec:
    """One published capacity matrix: adopt into the worker's modeler."""

    deployment_value: str
    dimensions: tuple[PerfDimension, ...]
    array: ArrayDescriptor


def _demand_dimensions(
    trace: PerformanceTrace, deployment: DeploymentType
) -> tuple[PerfDimension, ...]:
    """The dimension tuple the columnar curve kernel will evaluate.

    Must match :meth:`PricePerformanceModeler.build_curves_batch`'s
    grouping exactly -- the pre-exported demand matrix is only adopted
    if the worker asks for this precise tuple.
    """
    base = DB_DIMENSIONS if deployment is DeploymentType.SQL_DB else MI_DIMENSIONS
    return tuple(dim for dim in base if dim in trace)


# ----------------------------------------------------------------------
# Worker-side attachment management
# ----------------------------------------------------------------------
#: Per-process cache of attached segments, by name.  Entries normally
#: live for one chunk; a BufferError-pinned mapping stays until the
#: pin clears (see :func:`_release_attachments`).
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    segment = _ATTACHED.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        # Attaching re-registers the segment with the resource tracker
        # (Python < 3.13 has no track=False).  Under the fork start
        # method -- this data plane's platform -- pool workers share
        # the parent's tracker process, whose cache is a *set*: the
        # duplicate registration collapses and the parent's single
        # ``unlink`` balances it.  Unregistering here instead would
        # strip the parent's crash-safety registration out of the
        # shared cache, so we deliberately leave the tracker alone.
        _ATTACHED[name] = segment
    return segment


def _release_attachments() -> None:
    """Close every attached segment this process can let go of.

    A ``BufferError`` means an ndarray view still points into the
    mapping (something retained chunk data past its lifetime); the
    segment stays attached -- losing a few pages beats corrupting a
    live array -- and the close is retried after the next chunk.
    """
    for name in list(_ATTACHED):
        _close_attachment(name)


def _close_attachment(name: str) -> None:
    """Close one attached segment if this process can let go of it.

    The streaming worker's rotation hook: when the parent grows a slot
    the old segment name stops appearing in frames, and the worker
    drops its mapping so the unlinked pages are actually returned.
    BufferError-pinned mappings stay attached, same as
    :func:`_release_attachments`.
    """
    segment = _ATTACHED.get(name)
    if segment is None:
        return
    try:
        segment.close()
    except BufferError:
        return
    del _ATTACHED[name]


@dataclass(frozen=True)
class ShmChunk:
    """One packed chunk: descriptors only, pickles in microseconds.

    What the process backend ships through the executor queue instead
    of the customer list itself.  ``kind`` selects the rebuild
    (``"fit"`` -> ``CloudCustomerRecord``, ``"recommend"`` ->
    ``FleetCustomer``); ``caps`` carries the capacity matrices the
    chunk's deployments need, for adoption into the worker's modeler.
    """

    kind: str
    items: tuple
    caps: tuple[_CapsSpec, ...]

    def __len__(self) -> int:
        return len(self.items)

    @contextmanager
    def mapped(self, ppm: "PricePerformanceModeler") -> Iterator[list]:
        """Materialize the chunk against this process's modeler.

        Yields the rebuilt customer/record list backed by shm views;
        on exit the local references are dropped and the mappings
        closed.  Results computed inside the block must not retain
        views into the chunk (the fleet result types don't: they carry
        curves, profiles and scalars, never trace arrays).
        """
        for spec in self.caps:
            _adopt_caps(ppm, spec)
        items: list | None = [_rebuild_item(self.kind, item) for item in self.items]
        try:
            yield items
        finally:
            items = None  # noqa: F841 - drop the views before closing mappings
            _release_attachments()


def _adopt_caps(ppm: "PricePerformanceModeler", spec: _CapsSpec) -> None:
    deployment = DeploymentType(spec.deployment_value)
    if ppm.has_capacity_matrix(deployment, spec.dimensions):
        return  # adopted by an earlier chunk; skip the attach entirely
    segment = _attach(spec.array.segment)
    # Adopt a private copy: the modeler's memo outlives this chunk's
    # mapping, and the matrix is tiny (n_skus x n_dims floats).
    ppm.adopt_capacity_matrix(
        deployment, spec.dimensions, spec.array.view(segment.buf).copy()
    )


def _rebuild_trace(spec: _TraceSpec) -> PerformanceTrace:
    series: dict[PerfDimension, TimeSeries] = {}
    for entry in spec.series:
        segment = _attach(entry.array.segment)
        series[entry.dimension] = TimeSeries(
            entry.array.view(segment.buf),
            interval_minutes=entry.interval_minutes,
            start_minute=entry.start_minute,
        )
    trace = PerformanceTrace(series=series, entity_id=spec.entity_id)
    if spec.demand is not None and spec.demand_dims is not None:
        segment = _attach(spec.demand.segment)
        trace.adopt_demand_matrix(spec.demand_dims, spec.demand.view(segment.buf))
    return trace


def _rebuild_item(kind: str, item):
    if kind == "fit":
        from ..core.types import CloudCustomerRecord

        return CloudCustomerRecord(
            trace=_rebuild_trace(item.trace),
            deployment=DeploymentType(item.deployment_value),
            chosen_sku_name=item.chosen_sku_name,
            days_on_sku=item.days_on_sku,
        )
    from .engine import FleetCustomer

    return FleetCustomer(
        customer_id=item.customer_id,
        trace=_rebuild_trace(item.trace),
        deployment=DeploymentType(item.deployment_value),
        file_sizes_gib=item.file_sizes_gib,
        current_sku_name=item.current_sku_name,
    )


# ----------------------------------------------------------------------
# Parent-side packing
# ----------------------------------------------------------------------
class ChunkPublisher:
    """Packs batch chunks into shared memory, one segment per chunk.

    Owned by the parent for the duration of one ``map_chunks`` pass.
    ``pack`` returns the :class:`ShmChunk` payload plus a release
    token; the pump calls ``release(token)`` as each chunk's result is
    yielded and ``close()`` from its ``finally``.  Capacity matrices
    are published once per distinct (deployment, dimension-tuple) and
    refcounted across the chunks that mention them.
    """

    def __init__(self, ppm: "PricePerformanceModeler", task: str) -> None:
        if task not in ("fit", "recommend"):
            raise ValueError(f"unknown batch task {task!r}")
        self.ppm = ppm
        self.task = task
        self.registry = ArenaRegistry()
        self._caps_segments: dict[tuple[str, tuple[PerfDimension, ...]], _CapsSpec] = {}

    # -- lifecycle -----------------------------------------------------
    def release(self, token: tuple[str, ...] | None) -> None:
        """Drop one chunk's references (its segment + its caps)."""
        if token is None:
            return
        for name in token:
            self.registry.release(name)

    def close(self) -> None:
        """Force-release everything (end of pass, error, abandonment)."""
        self._caps_segments.clear()
        self.registry.close_all()

    # -- packing -------------------------------------------------------
    def pack(self, chunk: Sequence) -> tuple[ShmChunk, tuple[str, ...]]:
        """Publish one chunk; returns (payload, release token)."""
        traces, deployments = self._traces_and_deployments(chunk)
        caps_specs = self._publish_caps(traces, deployments)
        demand_dims = [
            _demand_dimensions(trace, deployment)
            for trace, deployment in zip(traces, deployments)
        ]
        nbytes = 0
        for trace, dims in zip(traces, demand_dims):
            nbytes += trace.n_samples * len(trace.series) * _FLOAT64_ITEMSIZE
            nbytes += trace.n_samples * len(dims) * _FLOAT64_ITEMSIZE
        segment = self.registry.create(nbytes)
        offset = 0
        trace_specs: list[_TraceSpec] = []
        for trace, dims in zip(traces, demand_dims):
            series_specs: list[_SeriesSpec] = []
            for dimension in trace.dimensions:
                ts = trace[dimension]
                descriptor = ArrayDescriptor(segment.name, offset, (len(ts),))
                descriptor.view(segment.buf)[:] = ts.values
                series_specs.append(
                    _SeriesSpec(
                        dimension=dimension,
                        array=descriptor,
                        interval_minutes=ts.interval_minutes,
                        start_minute=ts.start_minute,
                    )
                )
                offset += descriptor.nbytes
            demand_descriptor: ArrayDescriptor | None = None
            if dims:
                demand_descriptor = ArrayDescriptor(
                    segment.name, offset, (trace.n_samples, len(dims))
                )
                trace.export_demand_matrix(dims, demand_descriptor.view(segment.buf))
                offset += demand_descriptor.nbytes
            trace_specs.append(
                _TraceSpec(
                    entity_id=trace.entity_id,
                    series=tuple(series_specs),
                    demand_dims=dims if dims else None,
                    demand=demand_descriptor,
                )
            )
        items = tuple(
            self._item_spec(original, spec)
            for original, spec in zip(chunk, trace_specs)
        )
        token = [segment.name]
        for spec in caps_specs:
            self.registry.acquire(spec.array.segment)
            token.append(spec.array.segment)
        return ShmChunk(kind=self.task, items=items, caps=caps_specs), tuple(token)

    def _traces_and_deployments(
        self, chunk: Sequence
    ) -> tuple[list[PerformanceTrace], list[DeploymentType]]:
        return [item.trace for item in chunk], [item.deployment for item in chunk]

    def _publish_caps(
        self, traces: Sequence[PerformanceTrace], deployments: Sequence[DeploymentType]
    ) -> tuple[_CapsSpec, ...]:
        """Capacity matrices for the chunk's (deployment, dims) groups.

        Published lazily, once per pass; the matrices come from the
        parent modeler's own memo (:meth:`capacity_matrix_for`), so worker-adopted
        and worker-built capacities are byte-identical.
        """
        needed: dict[tuple[str, tuple[PerfDimension, ...]], _CapsSpec] = {}
        for trace, deployment in zip(traces, deployments):
            dims = _demand_dimensions(trace, deployment)
            if not dims:
                continue  # the worker raises the no-dimensions error itself
            key = (deployment.value, dims)
            if key in needed:
                continue
            spec = self._caps_segments.get(key)
            if spec is None:
                caps = self.ppm.capacity_matrix_for(deployment, dims)
                segment = self.registry.create(caps.nbytes)
                descriptor = ArrayDescriptor(segment.name, 0, caps.shape)
                descriptor.view(segment.buf)[:] = caps
                spec = _CapsSpec(
                    deployment_value=deployment.value,
                    dimensions=dims,
                    array=descriptor,
                )
                self._caps_segments[key] = spec
            needed[key] = spec
        return tuple(needed.values())

    def _item_spec(self, original, trace_spec: _TraceSpec):
        if self.task == "fit":
            return _RecordSpec(
                trace=trace_spec,
                deployment_value=original.deployment.value,
                chosen_sku_name=original.chosen_sku_name,
                days_on_sku=original.days_on_sku,
            )
        return _CustomerSpec(
            customer_id=original.customer_id,
            trace=trace_spec,
            deployment_value=original.deployment.value,
            file_sizes_gib=original.file_sizes_gib,
            current_sku_name=original.current_sku_name,
        )


# ----------------------------------------------------------------------
# Streaming tick plane
# ----------------------------------------------------------------------
# The batch plane above creates one segment per chunk and unlinks it as
# the result is yielded.  The streaming watch dispatches thousands of
# small microbatches per shard, where per-tick create/unlink would
# dominate; instead each shard gets *double-buffered ring slots*,
# allocated once (lazily, grown in place when a tick outsizes them) and
# reused for the watch's lifetime.  Slot parity follows the tick id:
# with the watch loop's in-flight window of two ticks, tick T's slot is
# never repacked before T has fully drained.  Every slot carries a
# 16-byte header -- ``[generation, payload_bytes]`` as int64 -- whose
# generation (the tick id) is written *last* by the packer and checked
# by every reader, so a slow consumer can never silently read a
# recycled buffer: a mismatch is either rejected loudly (worker side)
# or discarded as a known-stale duplicate (parent side).

#: Slot header: ``generation`` (int64, the commit word, written last)
#: followed by the payload byte count (int64, informational).
_HEADER_BYTES = 16

#: Growth headroom applied when a slot is (re)sized, so one outlier
#: tick does not cause a resize-per-tick treadmill.
_SLOT_HEADROOM = 1.5


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _arrays_nbytes(arrays: Sequence[np.ndarray], offset: int = _HEADER_BYTES) -> int:
    for array in arrays:
        offset = _align8(offset) + array.nbytes
    return _align8(offset)


def _pack_arrays(
    segment_name: str, buf, offset: int, arrays: Sequence[np.ndarray]
) -> tuple[tuple[ArrayDescriptor, ...], int]:
    """Copy ``arrays`` into ``buf`` at 8-aligned offsets; return descriptors."""
    descriptors: list[ArrayDescriptor] = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        offset = _align8(offset)
        descriptor = ArrayDescriptor(
            segment_name, offset, array.shape, str(array.dtype)
        )
        descriptor.view(buf)[...] = array
        descriptors.append(descriptor)
        offset += descriptor.nbytes
    return tuple(descriptors), offset


def _header(buf) -> np.ndarray:
    return np.ndarray((2,), dtype=np.int64, buffer=buf)


@dataclass(frozen=True)
class TickFrame:
    """One packed tick microbatch: the descriptor that crosses the queue.

    Numeric columns live in the shard's tick slot (``segment``);
    strings and enum tables ride here, pickled, because they are tiny
    and interned.  ``irregular`` carries whole sample mappings the
    packer could not reduce to float64 (non-numeric values, non-enum
    keys) verbatim, so the worker reproduces the exact per-customer
    parse error the plain path would have raised.
    """

    segment: str
    generation: int
    n_rows: int
    #: seqs int64 (n,), row_splits int64 (n+1,), dim_idx int64 (total,),
    #: values float64 (total,)
    arrays: tuple[ArrayDescriptor, ...]
    customer_ids: tuple[str, ...]
    deployment_values: tuple[str, ...]
    dim_table: tuple[PerfDimension, ...]
    irregular: tuple[tuple[int, dict], ...]
    result_segment: str
    result_capacity: int


@dataclass(frozen=True)
class ResultFrame:
    """One tick's update columns, written worker-side into a result slot.

    ``sidecar`` holds the per-emission non-numeric fields:
    ``(customer_id, error, worst_sku, rec_token)`` where ``rec_token``
    is ``0`` (no recommendation), ``1`` (unchanged since this worker
    last shipped it -- the parent re-uses its memoized copy), or the
    full recommendation object (shipped once per change).
    """

    segment: str
    generation: int
    n: int
    #: seq i64, n_seen i64, n_window i64, refreshed b, has_update b,
    #: has_drift b, deferred b, drift_max f64, drift_threshold f64
    arrays: tuple[ArrayDescriptor, ...]
    sidecar: tuple[tuple, ...]


@dataclass(frozen=True)
class StateFrameSpec:
    """A parent-created scratch segment offered for a framed reply."""

    segment: str
    capacity: int


@dataclass(frozen=True)
class StateFrame:
    """Framed ``CustomerStateRecord`` payload: arrays in shm, bones pickled.

    ``entries`` is ``(customer_id, quarantined, skeleton_or_None)`` per
    record; skeletons reference ``arrays`` by index (see
    ``repro.streaming.live.flatten_state``).
    """

    segment: str
    entries: tuple[tuple, ...]
    arrays: tuple[ArrayDescriptor, ...]


_RESULT_COLUMNS: tuple[tuple[str, str], ...] = (
    ("seq", "int64"),
    ("n_seen", "int64"),
    ("n_window", "int64"),
    ("refreshed", "bool"),
    ("has_update", "bool"),
    ("has_drift", "bool"),
    ("deferred", "bool"),
    ("drift_max", "float64"),
    ("drift_threshold", "float64"),
)


def result_nbytes(n: int) -> int:
    """Bytes one result slot needs for ``n`` emissions (shared sizing)."""
    offset = _HEADER_BYTES
    for _, dtype in _RESULT_COLUMNS:
        offset = _align8(offset) + np.dtype(dtype).itemsize * n
    return _align8(offset)


def _result_descriptors(
    segment_name: str, n: int
) -> tuple[ArrayDescriptor, ...]:
    offset = _HEADER_BYTES
    descriptors: list[ArrayDescriptor] = []
    for _, dtype in _RESULT_COLUMNS:
        offset = _align8(offset)
        descriptor = ArrayDescriptor(segment_name, offset, (n,), dtype)
        descriptors.append(descriptor)
        offset += descriptor.nbytes
    return tuple(descriptors)


class TickPlane:
    """Parent-owned double-buffered ring arenas for one process watch.

    One tick slot and one result slot per (shard, tick-parity) pair,
    created lazily on first use and grown in place (release + bigger
    replacement) when a tick outsizes them -- never created or
    unlinked per tick.  The parent packs microbatches in, workers map
    views out; workers write result columns in, the parent maps them
    out.  State handoffs (extract/install/delta-snapshot) use one-shot
    scratch segments instead: they only run at drained boundaries, and
    their payload size is data-dependent.

    Everything is owned by the parent through one
    :class:`ArenaRegistry`, so a worker SIGKILL leaks nothing and
    :meth:`close` (plus the registry's atexit backstop) restores a
    clean ``/dev/shm`` after drains, abandonment and crashes alike.
    """

    def __init__(self, window: int) -> None:
        # The plane is built before the watch workers fork.  Starting
        # the resource tracker *now* means every worker inherits the
        # shared tracker, so their attach-time registrations collapse
        # into the parent's (see ``_attach``).  Without this, a worker
        # forked before the first segment exists would lazily spawn
        # its own tracker, which at worker exit would "clean up" --
        # unlink -- segments the parent still owns.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self.registry = ArenaRegistry()
        # Generous framed-handoff bound: ring buffers and deques scale
        # with the window, sketch blocks with window/block_size; the
        # fixed term absorbs per-record skeleton slack.  Oversized
        # states (huge catalogs) fall back to plain pickling.
        self.record_bound = 128 * 1024 + int(window) * 512
        self._tick_slots: dict[int, list] = {}
        self._result_slots: dict[int, list] = {}
        self._rec_memo: dict[str, object] = {}

    # -- slot management -----------------------------------------------
    def _slot(self, slots: dict[int, list], shard_id: int, parity: int, nbytes: int):
        pair = slots.setdefault(shard_id, [None, None])
        segment = pair[parity]
        if segment is None or segment.size < nbytes:
            if segment is not None:
                self.registry.release(segment.name)
            segment = self.registry.create(int(nbytes * _SLOT_HEADROOM) + 64)
            _header(segment.buf)[0] = -1  # never a valid generation
            pair[parity] = segment
        return segment

    def drop_shard(self, shard_id: int) -> None:
        """Release a retired shard's slots."""
        for slots in (self._tick_slots, self._result_slots):
            for segment in slots.pop(shard_id, ()):  # pragma: no branch
                if segment is not None:
                    self.registry.release(segment.name)

    def close(self) -> None:
        """Force-release every slot and scratch segment."""
        self._tick_slots.clear()
        self._result_slots.clear()
        self._rec_memo.clear()
        self.registry.close_all()

    # -- tick direction (parent packs, worker maps) ----------------------
    def pack_tick(self, shard_id: int, tick_id: int, batch: list) -> TickFrame:
        """Publish one shard's microbatch into its tick slot.

        Samples whose values cannot be reduced to float64 (or whose
        keys are not :class:`PerfDimension`) travel verbatim in the
        frame's ``irregular`` sidecar, so worker-side validation
        raises exactly what the plain path would.
        """
        n = len(batch)
        seqs = np.empty(n, dtype=np.int64)
        row_splits = np.zeros(n + 1, dtype=np.int64)
        dim_table: list[PerfDimension] = []
        dim_index: dict[PerfDimension, int] = {}
        dim_idx: list[int] = []
        values: list[float] = []
        customer_ids: list[str] = []
        deployment_values: list[str] = []
        irregular: list[tuple[int, dict]] = []
        for row, (seq, sample) in enumerate(batch):
            seqs[row] = seq
            customer_ids.append(sample.customer_id)
            deployment_values.append(sample.deployment.value)
            packed_row: list[tuple[PerfDimension, float]] = []
            try:
                for dim, value in sample.values.items():
                    if not isinstance(dim, PerfDimension):
                        raise TypeError(dim)
                    packed_row.append((dim, float(value)))
            except (TypeError, ValueError, OverflowError):
                irregular.append((row, dict(sample.values)))
                packed_row = []
            for dim, value in packed_row:
                index = dim_index.get(dim)
                if index is None:
                    index = dim_index[dim] = len(dim_table)
                    dim_table.append(dim)
                dim_idx.append(index)
                values.append(value)
            row_splits[row + 1] = len(values)
        arrays = [
            seqs,
            row_splits,
            np.asarray(dim_idx, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        ]
        parity = tick_id % 2
        segment = self._slot(
            self._tick_slots, shard_id, parity, _arrays_nbytes(arrays)
        )
        header = _header(segment.buf)
        header[0] = -1  # invalidate while repacking
        descriptors, end = _pack_arrays(segment.name, segment.buf, _HEADER_BYTES, arrays)
        header[1] = end
        header[0] = tick_id  # commit
        result = self._slot(
            self._result_slots, shard_id, parity, result_nbytes(n)
        )
        return TickFrame(
            segment=segment.name,
            generation=tick_id,
            n_rows=n,
            arrays=descriptors,
            customer_ids=tuple(customer_ids),
            deployment_values=tuple(deployment_values),
            dim_table=tuple(dim_table),
            irregular=tuple(irregular),
            result_segment=result.name,
            result_capacity=result.size,
        )

    # -- result direction (worker packs, parent maps) --------------------
    def read_results(self, reply: ResultFrame) -> list | None:
        """Decode one tick's emissions from its result slot.

        Returns None for a stale reply -- the slot was recycled (grown,
        dropped, or regenerated) since the worker wrote it.  The caller
        only decodes replies it still owes, so None can only mean a
        replaced incarnation's duplicate, which the reorder buffer
        would discard anyway.
        """
        from ..streaming.drift import DriftReport
        from ..streaming.live import LiveUpdate
        from .engine import FleetLiveUpdate

        segment = self.registry.get(reply.segment)
        if segment is None:
            return None
        buf = segment.buf
        if int(_header(buf)[0]) != reply.generation:
            return None
        (
            seq,
            n_seen,
            n_window,
            refreshed,
            has_update,
            has_drift,
            deferred,
            drift_max,
            drift_threshold,
        ) = (descriptor.view(buf) for descriptor in reply.arrays)
        emissions: list = []
        for i, (customer_id, error, worst_sku, rec_token) in enumerate(reply.sidecar):
            if isinstance(rec_token, int):
                recommendation = (
                    None if rec_token == 0 else self._rec_memo[customer_id]
                )
            else:
                recommendation = rec_token
                self._rec_memo[customer_id] = rec_token
            update = None
            if has_update[i]:
                drift = None
                if has_drift[i]:
                    drift = DriftReport(
                        max_divergence=float(drift_max[i]),
                        worst_sku=worst_sku,
                        threshold=float(drift_threshold[i]),
                    )
                update = LiveUpdate(
                    n_seen=int(n_seen[i]),
                    n_window=int(n_window[i]),
                    refreshed=bool(refreshed[i]),
                    drift=drift,
                    recommendation=recommendation,
                )
            emissions.append(
                (
                    int(seq[i]),
                    FleetLiveUpdate(
                        customer_id=customer_id,
                        update=update,
                        error=error,
                        deferred=bool(deferred[i]),
                    ),
                )
            )
        return emissions

    # -- state handoff (one-shot scratch segments) -----------------------
    def offer_frame(self, n_records: int) -> StateFrameSpec:
        """A scratch segment big enough for ``n_records`` framed states."""
        segment = self.registry.create(
            _HEADER_BYTES + self.record_bound * max(n_records, 1)
        )
        return StateFrameSpec(segment=segment.name, capacity=segment.size)

    def publish_records(self, records: list) -> tuple[StateFrame, str] | None:
        """Frame records into a fresh exactly-sized scratch segment.

        Parent side of the install direction.  Returns None when any
        record resists flattening (future state shapes); the caller
        falls back to plain pickling.
        """
        flattened = _flatten_records(records)
        if flattened is None:
            return None
        entries, arrays = flattened
        segment = self.registry.create(_arrays_nbytes(arrays))
        frame = _write_state_frame(segment.name, segment.buf, entries, arrays)
        return frame, segment.name

    def adopt_records(self, frame: StateFrame) -> list:
        """Decode a framed reply written into a plane-owned segment."""
        segment = self.registry.get(frame.segment)
        if segment is None:  # pragma: no cover - handshakes are synchronous
            raise RuntimeError(
                f"state frame names released segment {frame.segment!r}"
            )
        return unpack_state_records(frame, segment.buf)

    def release(self, name: str) -> None:
        """Drop one scratch segment (handshake finished)."""
        self.registry.release(name)


def unpack_tick(frame: TickFrame) -> list:
    """Worker side: map one tick frame back into ``(seq, FleetSample)``s.

    Raises:
        RuntimeError: If the slot's generation does not match the
            frame -- the buffer was recycled under a slow reader, and
            continuing would assess another tick's bytes.
    """
    from .engine import FleetSample

    segment = _attach(frame.segment)
    generation = int(_header(segment.buf)[0])
    if generation != frame.generation:
        raise RuntimeError(
            f"tick slot {frame.segment} holds generation {generation}, "
            f"frame expects {frame.generation}: buffer recycled under a "
            "slow worker"
        )
    seqs, row_splits, dim_idx, values = (
        descriptor.view(segment.buf) for descriptor in frame.arrays
    )
    irregular = dict(frame.irregular)
    dim_table = frame.dim_table
    batch: list = []
    for row in range(frame.n_rows):
        row_values = irregular.get(row)
        if row_values is None:
            start = int(row_splits[row])
            stop = int(row_splits[row + 1])
            row_values = {
                dim_table[dim_idx[k]]: float(values[k]) for k in range(start, stop)
            }
        batch.append(
            (
                int(seqs[row]),
                FleetSample(
                    customer_id=frame.customer_ids[row],
                    values=row_values,
                    deployment=DeploymentType(frame.deployment_values[row]),
                ),
            )
        )
    return batch


def write_result_columns(
    frame: TickFrame, emissions: list, shipped: dict
) -> ResultFrame | None:
    """Worker side: write one tick's emissions into the result slot.

    ``shipped`` memoizes the last recommendation object shipped per
    customer; unchanged recommendations cross as a one-byte token
    instead of a re-pickled object.  Returns None when the emissions
    outsize the slot (cannot happen for the watch's own dispatches --
    the parent sizes the slot for the batch, and each sample yields at
    most one emission -- but the plain fallback keeps the protocol
    total).
    """
    n = len(emissions)
    if result_nbytes(n) > frame.result_capacity:
        return None
    segment = _attach(frame.result_segment)
    buf = segment.buf
    header = _header(buf)
    header[0] = -1  # invalidate while writing
    descriptors = _result_descriptors(frame.result_segment, n)
    (
        seq,
        n_seen,
        n_window,
        refreshed,
        has_update,
        has_drift,
        deferred,
        drift_max,
        drift_threshold,
    ) = (descriptor.view(buf) for descriptor in descriptors)
    sidecar: list[tuple] = []
    for i, (seq_value, update) in enumerate(emissions):
        seq[i] = seq_value
        deferred[i] = update.deferred
        inner = update.update
        has_update[i] = inner is not None
        worst_sku = None
        rec_token: object = 0
        if inner is None:
            n_seen[i] = 0
            n_window[i] = 0
            refreshed[i] = False
            has_drift[i] = False
            drift_max[i] = 0.0
            drift_threshold[i] = 0.0
        else:
            n_seen[i] = inner.n_seen
            n_window[i] = inner.n_window
            refreshed[i] = inner.refreshed
            drift = inner.drift
            has_drift[i] = drift is not None
            if drift is None:
                drift_max[i] = 0.0
                drift_threshold[i] = 0.0
            else:
                drift_max[i] = drift.max_divergence
                drift_threshold[i] = drift.threshold
                worst_sku = drift.worst_sku
            recommendation = inner.recommendation
            if recommendation is not None:
                if shipped.get(update.customer_id) is recommendation:
                    rec_token = 1
                else:
                    shipped[update.customer_id] = recommendation
                    rec_token = recommendation
        sidecar.append((update.customer_id, update.error, worst_sku, rec_token))
    header[1] = result_nbytes(n)
    header[0] = frame.generation  # commit
    return ResultFrame(
        segment=frame.result_segment,
        generation=frame.generation,
        n=n,
        arrays=descriptors,
        sidecar=tuple(sidecar),
    )


def _flatten_records(records: list) -> tuple[list[tuple], list[np.ndarray]] | None:
    from ..streaming.live import flatten_state

    arrays: list[np.ndarray] = []
    entries: list[tuple] = []
    for record in records:
        if record.state is None:
            entries.append((record.customer_id, record.quarantined, None))
            continue
        try:
            skeleton = flatten_state(record.state, arrays)
        except Exception:  # noqa: BLE001 - unknown state shape: plain fallback
            return None
        entries.append((record.customer_id, record.quarantined, skeleton))
    return entries, arrays


def _write_state_frame(
    segment_name: str, buf, entries: list[tuple], arrays: list[np.ndarray]
) -> StateFrame:
    descriptors, _ = _pack_arrays(segment_name, buf, _HEADER_BYTES, arrays)
    return StateFrame(
        segment=segment_name, entries=tuple(entries), arrays=descriptors
    )


def pack_state_records(records: list, spec: StateFrameSpec) -> StateFrame | None:
    """Worker side: frame records into a parent-offered scratch segment.

    Returns None when the states outsize the offered capacity (or
    resist flattening); the caller replies with plain pickled records
    instead -- correctness never depends on the frame fitting.
    """
    flattened = _flatten_records(records)
    if flattened is None:
        return None
    entries, arrays = flattened
    if _arrays_nbytes(arrays) > spec.capacity:
        return None
    segment = _attach(spec.segment)
    frame = _write_state_frame(spec.segment, segment.buf, entries, arrays)
    _close_attachment(spec.segment)
    return frame


def unpack_state_records(frame: StateFrame, buf) -> list:
    """Rebuild ``CustomerStateRecord``s from a frame (copies out of shm)."""
    from ..store.persistence import CustomerStateRecord
    from ..streaming.live import unflatten_state

    arrays = [descriptor.view(buf) for descriptor in frame.arrays]
    records: list = []
    for customer_id, quarantined, skeleton in frame.entries:
        state = None if skeleton is None else unflatten_state(skeleton, arrays)
        records.append(
            CustomerStateRecord(
                customer_id=customer_id, state=state, quarantined=quarantined
            )
        )
    return records


def adopt_state_frame(frame: StateFrame) -> list:
    """Worker side: decode an install frame and drop the mapping."""
    segment = _attach(frame.segment)
    try:
        return unpack_state_records(frame, segment.buf)
    finally:
        _close_attachment(frame.segment)
