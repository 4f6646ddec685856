"""What one workload run reports back to the entry point."""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass, field

from tracing import median


@dataclass(frozen=True)
class Metric:
    """One measured number with its unit and the samples it summarizes."""

    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """A workload run: operations, checks, metrics and input/output digests.

    Attributes:
        attempted: Operations the run issued (timed and checked ones).
        failed: Operations that errored, were refused, or failed a check.
        checks: Correctness checks by name; any False fails the run.
        metrics: The end-to-end metrics in the names ``BENCHMARK.json`` uses.
        detail: The same measurements under workload-specific names, plus
            the ones the shared names cannot carry (nominal and peak rates,
            resume time).
        layer: Per-layer numbers the workload reads from public counters.
        digests: Fingerprints of the generated inputs and the outputs.
        cost: Seconds per operation on the workload's main path; without
            ``pairs``, the traced run's overhead is the ratio of traced to
            untraced cost.
        pairs: (untraced s, traced s, spans, counted calls) of each input
            a traced run ran twice back to back, once with the tracer
            idle and once recording (see :func:`tracing.reconcile_pairs`);
            empty when the workload's timed work is spread over threads and
            processes the tracer cannot see whole.
        notes: Free-text lines for the human-readable report.
    """

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    metrics: dict[str, Metric] = field(default_factory=dict)
    detail: dict[str, Metric] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    cost: float = 0.0
    pairs: list[tuple[float, float, int, int]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def slowest(groups: list[tuple[float, list]], share: float, min_samples: int = 0) -> list[tuple[float, list]]:
    """The slowest ``(slowness, samples)`` groups holding ``share`` of all samples.

    Groups are taken slowest first until they hold ``share`` of the
    samples and at least ``min_samples`` of them (or every group).  The
    box these figures come from has a steady base speed, within about 5%,
    and bursts up to 1.8x faster that last from seconds to a minute.
    How much of a run falls in a burst would decide a figure taken over
    every group.  The slowest tenth reads the base speed whenever a tenth
    of the run falls outside bursts.  A change that slows all of a run,
    or only part of it, still moves it.
    """
    total = sum(len(samples) for _, samples in groups)
    need = max(share * total, min(min_samples, total))
    kept, n = [], 0
    for group in sorted(groups, key=lambda group: group[0], reverse=True):
        if n >= need:
            break
        kept.append(group)
        n += len(group[1])
    return kept


def timed_setups(make, repeats: int = 3):
    """Run ``make()`` ``repeats`` times; return (last result, median seconds)."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    return result, median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def recording(tracer):
    """The tracer's recording block, or a no-op on an untraced run."""
    return tracer.recording() if tracer is not None else contextlib.nullcontext()
