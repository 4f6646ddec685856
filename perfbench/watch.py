"""``watch_durable``: the checkpointed live watch on the process backend, and its resume.

Each timed cycle runs the watch over the feed prefix on a fresh
:class:`~repro.store.FleetStore`, checkpointing every few ticks with
fewer resident customers allowed than the feed holds (so the cold tail
is evicted to the store and readmitted).  Every fourth cycle, the first
included, then resumes from its store over the whole feed (restore, skip
the consumed prefix, run the tail).  Cycles repeat until about
``seconds`` of watching are measured (the run stops at the cycle
boundary nearest to it), and at least ``MIN_EXECUTIONS`` times.

Every cycle watches the same samples, so cycles differ only in how fast
the box ran them.  The feed prefix is cut into windows of ``WINDOW``
samples, and each window's figures come from its slowest third of
executions over the run's cycles, at least two (:func:`slowest_windows`):
throughput is the prefix over the sum of those windows' median times,
and latencies are over their samples.

Correctness, outside the timed region: one uninterrupted watch over the
whole feed is the reference.  Every cycle's prefix stream must equal its
head and every resumed stream its tail from the checkpoint's
``n_emitted``, byte for byte; no shared-memory segment may outlive the
run.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

from repro.fleet import CheckpointConfig, WatchConfig
from repro.fleet.arena import leaked_segments
from repro.store import FleetStore

from inputs import digest, fitted_fleet, sample_line, skewed_feed, update_line
from outcome import Metric, Outcome, peak_rss_mb, recording, slowest, timed_setups
from tracing import median, percentile

N_CUSTOMERS = 120
#: Resident cap below the distinct-customer count: the cold tail cycles
#: through the store (eviction after a checkpoint, readmission on return).
MAX_RESIDENT = 90
PREFIX_SAMPLES = 800
TAIL_SAMPLES = 256
#: Pinned so a tick means the same on every backend (a serial tick is one
#: sample): 16 samples per worker per tick.
TICK_SAMPLES = 16
#: A checkpoint every 4 ticks: six per cycle and dozens per run, not the
#: two that made the checkpoint tax a coin flip.
EVERY_TICKS = 4
#: Cycles that end with a resume: one in this many, the first included.
#: A resume costs about a cycle's watching; resuming less often leaves
#: more cycles, so more executions of each window, in a run.
RESUME_EVERY = 4
#: Samples per window of the prefix, and the share of a window's
#: executions its figures come from (at least two: 1600 latencies, 16
#: beyond the p99).
WINDOW = 100
SLOWEST_SHARE = 1 / 3
MIN_EXECUTIONS = 2


def handover(samples, taken: list[float]):
    """Yield the feed, noting when the watch takes each sample."""
    for index, sample in enumerate(samples):
        taken[index] = time.perf_counter()
        yield sample


def slowest_windows(cycles: list[tuple[list[float], list[list[float]]]]) -> tuple[float, list[float]]:
    """Seconds and latencies of the prefix with each window at its slowest.

    ``cycles`` holds each cycle's window boundaries (``n + 1`` times) and
    the latencies of each window's samples.  Every window keeps its
    slowest executions (:func:`outcome.slowest`): the box runs at a
    steady base speed with bursts up to 1.8x faster lasting seconds, and
    a window is timed at base speed whenever one of its executions in a
    run falls outside a burst.  A change that slows the watch anywhere
    still moves the window that holds it.
    """
    seconds, latencies = 0.0, []
    for k in range(len(cycles[0][1])):
        executions = [(bounds[k + 1] - bounds[k], lats[k]) for bounds, lats in cycles]
        kept = slowest(executions, SLOWEST_SHARE, MIN_EXECUTIONS * len(executions[0][1]))
        seconds += median([s for s, _ in kept])
        latencies += [latency for _, window in kept for latency in window]
    return seconds, latencies


def run(seed: int, seconds: float, tracer=None, setup_repeats: int = 3, tmp: str = ".") -> Outcome:
    (fleet, feed), setup_s = timed_setups(
        lambda: (fitted_fleet(seed), skewed_feed(seed, N_CUSTOMERS, PREFIX_SAMPLES + TAIL_SAMPLES)),
        setup_repeats,
    )
    positions: dict[str, list[int]] = {}
    for index, sample in enumerate(feed):
        positions.setdefault(sample.customer_id, []).append(index)
    base = WatchConfig(
        backend="process", max_workers=os.cpu_count(), tick_samples=TICK_SAMPLES, refreshes_only=False
    )

    def config(store: FleetStore) -> WatchConfig:
        return base.replace(
            checkpoint=CheckpointConfig(store=store, every_ticks=EVERY_TICKS, max_resident=MAX_RESIDENT)
        )

    stores = Path(tempfile.mkdtemp(dir=tmp))  # fresh stores on every run
    shm_before = set(leaked_segments())
    out = Outcome()
    cycles, resumes = [], []  # (window boundaries, latencies per window)
    prefixes, tails = [], []
    hits = misses = evictions = 0
    timed = 0.0
    cycle = 0
    # Stop at the cycle boundary nearest to ``seconds`` of measurement,
    # but not before every window has its minimum of executions.
    while cycle < MIN_EXECUTIONS or timed + 0.5 * timed / cycle < seconds:
        store = FleetStore(str(stores / f"cycle-{cycle}.db"))
        taken = [0.0] * len(feed)
        updates = []
        latencies = [[] for _ in range(PREFIX_SAMPLES // WINDOW)]
        with recording(tracer):
            start = time.perf_counter()
            stream = fleet.watch_fleet(handover(feed[:PREFIX_SAMPLES], taken), config=config(store))
            while True:
                if tracer is None:
                    update = next(stream, None)
                else:
                    update = tracer.run_span("fleet.watch.next", next, stream, None)
                if update is None:
                    break
                now = time.perf_counter()
                updates.append(update)
                if update.update is not None:
                    position = positions[update.customer_id][update.update.n_seen - 1]
                    latencies[position // WINDOW].append(now - taken[position])
            end = time.perf_counter()
            stream_s = end - start
        bounds = [start] + taken[WINDOW:PREFIX_SAMPLES:WINDOW] + [end]
        stats = fleet.watch_cache_stats()
        hits, misses = hits + stats.hits, misses + stats.misses
        resumed = []
        if cycle % RESUME_EVERY == 0:
            checkpoint = store.latest_checkpoint()
            with recording(tracer):
                start = time.perf_counter()
                resumed = list(
                    fleet.watch_fleet(handover(feed, taken), config=config(store), resume_from=store)
                )
                resume_s = time.perf_counter() - start
            timed += resume_s
            resumes.append(resume_s)
            tails.append((checkpoint.n_emitted, len(updates), [update_line(u) for u in resumed]))
        evictions += store.event_counts().get("eviction", 0)
        store.close()
        timed += stream_s
        cycles.append((bounds, latencies))
        prefixes.append([update_line(u) for u in updates])
        out.attempted += len(updates) + len(resumed)
        out.failed += sum(1 for u in updates + resumed if u.update is None)
        cycle += 1

    reference_store = FleetStore(str(stores / "reference.db"))
    reference = [update_line(u) for u in fleet.watch_fleet(feed, config=config(reference_store))]
    reference_store.close()
    prefix_ok = all(lines == reference[: len(lines)] for lines in prefixes)
    tail_ok = all(lines == reference[n_emitted:] for n_emitted, _, lines in tails)
    out.failed += sum(1 for lines in prefixes if lines != reference[: len(lines)])
    out.failed += sum(1 for n_emitted, _, lines in tails if lines != reference[n_emitted:])
    out.checks["prefix_matches_uninterrupted"] = prefix_ok
    out.checks["resumed_tail_matches_uninterrupted"] = tail_ok
    out.checks["checkpoint_emitted_whole_prefix"] = all(
        n_emitted == n_prefix for n_emitted, n_prefix, _ in tails
    )
    out.checks["no_leaked_segments"] = not (set(leaked_segments()) - shm_before)
    out.digests["inputs"] = digest(sample_line(s) for s in feed)
    out.digests["outputs"] = digest(reference)

    slow_s, latencies = slowest_windows(cycles)
    throughput = PREFIX_SAMPLES / slow_s
    rates = [PREFIX_SAMPLES / (bounds[-1] - bounds[0]) for bounds, _ in cycles]
    refreshed = sum(line.split("|")[3] == "True" for lines in prefixes for line in lines)
    n_lines = sum(len(lines) for lines in prefixes)
    out.metrics = {
        "setup_s": Metric(setup_s, "s", setup_repeats),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        "throughput_per_s": Metric(throughput, "1/s", len(cycles)),
        "latency_p50_ms": Metric(percentile(latencies, 50) * 1e3, "ms", len(latencies)),
        "latency_p99_ms": Metric(percentile(latencies, 99) * 1e3, "ms", len(latencies)),
    }
    out.detail = {
        "watch.samples_per_s": out.metrics["throughput_per_s"],
        "watch.samples_per_s_all_cycles": Metric(median(rates), "1/s", len(cycles)),
        "watch.update_p50_ms": out.metrics["latency_p50_ms"],
        "watch.update_p99_ms": out.metrics["latency_p99_ms"],
        "watch.resume_s": Metric(median(resumes), "s", len(resumes)),
        "watch.checkpoints_per_cycle": Metric(float(checkpoint.checkpoint_id), "count", 1),
    }
    out.notes.append(
        "cycles: samples/s " + ", ".join(f"{r:.1f}" for r in rates)
        + "; resume s " + ", ".join(f"{r:.2f}" for r in resumes)
    )
    out.layer["fleet.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out.layer["streaming.refresh_ratio"] = refreshed / n_lines if n_lines else 0.0
    out.layer["store.evictions"] = float(evictions)
    out.cost = 1.0 / throughput
    return out
