"""``serve_mixed``: the in-process recommendation service under open-loop load.

Set-up fits the engine, starts a :class:`~repro.RecommendationService`
with the default :class:`~repro.ServeConfig` (admission control live)
and warms it with the initial customers at staggered sample counts, so
their first (cadence) refreshes do not fire in lockstep.  The timed
part sends Poisson arrivals at two fixed rates, ``nominal`` then
``peak``, splitting ``seconds`` between them.  Most requests are ``observe``
samples of known customers; a steady share comes from never-seen
customers (first-sight admission); the rest are ``recommend`` calls on
Zipf-skewed targets, so the batch curve cache sees repeats.

Callers follow the service's backpressure contract: a refused request
is retried after the ``retry_after_s`` the refusal carries, a few times,
and is timed from its original due time, so refusals show as latency
and lost goodput, and per lane in ``serve.<lane>.rejected``.

Correctness, outside the timed region: every served ``recommend``
answer must equal :meth:`~repro.FleetEngine.recommend_batch` on the
same customer.  Requests refused on every attempt, error answers and
deferred observes count as failed operations.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import FleetEngine, RecommendationService, ServeConfig
from repro.serve import AdmissionError

from inputs import (
    Population,
    digest,
    estate,
    fitted_fleet,
    recommendation_line,
    rng_for,
    sample_line,
)
from loadgen import Completion, open_loop, poisson_offsets
from outcome import Metric, Outcome, peak_rss_mb, recording
from tracing import covered_length, median, percentile

#: Fixed offered rates (requests/s) and each phase's share of the run.
#: This mix's closed-loop capacity on a 2-core box is about 415 req/s at
#: 8 concurrent callers at the box's fast speed and nearer 300 at its
#: slow one; the box swings between the two within minutes.  Nominal is
#: about half of the fast capacity; peak stays just below the slow one,
#: where 300 req/s refused requests on every attempt (README.md,
#: "Serving rates").
RATES = {"nominal": 200.0, "peak": 250.0}
PHASE_SHARE = {"nominal": 0.8, "peak": 0.2}
#: Callers honour the service's retry-after hint this many times before
#: giving up; a refusal still costs its wait, timed from the due time.
MAX_ATTEMPTS = 4
INITIAL_CUSTOMERS = 100
RECOMMEND_TARGETS = 64
#: The traffic mix (README.md, "Traffic mix").  Neither the paper nor
#: the repository measures a serving mix, so these are assumptions;
#: ``sensitivity.py`` measures what halving and doubling each does.
RECOMMEND_SHARE = 0.10
#: Share of observes that come from a never-seen customer.
NEW_CUSTOMER_SHARE = 0.05
TARGET_ZIPF_S = 1.1
WARMUP_SAMPLES = (12, 25)
WARMUP_CONCURRENCY = 16
#: Never-seen customers a plan may draw (far more than a run uses).
MAX_NEW_CUSTOMERS = 20_000


@dataclass
class Plan:
    """Every input of one run: warm-up samples, then each phase's requests."""

    warmup: list
    offsets: dict[str, list[float]]
    requests: dict[str, list[tuple[str, object]]]

    def lines(self):
        yield from (sample_line(s) for s in self.warmup)
        for phase, requests in self.requests.items():
            yield from (repr(offset) for offset in self.offsets[phase])
            for kind, payload in requests:
                yield sample_line(payload) if kind == "observe" else f"recommend|{payload.customer_id}"


def make_plan(seed: int, seconds: float) -> Plan:
    rng = rng_for(seed, "traffic")
    population = Population.make(INITIAL_CUSTOMERS + MAX_NEW_CUSTOMERS)
    seen = np.zeros(len(population.scale), dtype=np.int64)

    def sample(customer: int):
        seen[customer] += 1
        return population.sample(rng, customer, int(seen[customer]), f"serve-{customer:05d}")

    low, high = WARMUP_SAMPLES
    counts = low + rng.permutation(np.arange(INITIAL_CUSTOMERS) * (high - low) // INITIAL_CUSTOMERS)
    order = rng.permutation(np.repeat(np.arange(INITIAL_CUSTOMERS), counts))
    warmup = [sample(int(c)) for c in order]
    targets = estate(seed, 0, RECOMMEND_TARGETS, days=2.0, interval_minutes=60.0, prefix="target")
    weights = 1.0 / np.arange(1, RECOMMEND_TARGETS + 1) ** TARGET_ZIPF_S
    weights /= weights.sum()
    next_new = INITIAL_CUSTOMERS
    offsets, requests = {}, {}
    for phase, rate in RATES.items():
        offsets[phase] = poisson_offsets(
            rng_for(seed, "arrivals-" + phase), rate, seconds * PHASE_SHARE[phase]
        )
        batch = []
        for _ in offsets[phase]:
            draw = rng.random()
            if draw < RECOMMEND_SHARE:
                batch.append(("recommend", targets[int(rng.choice(RECOMMEND_TARGETS, p=weights))]))
            elif draw < RECOMMEND_SHARE + (1 - RECOMMEND_SHARE) * NEW_CUSTOMER_SHARE:
                batch.append(("observe", sample(next_new)))
                next_new += 1
            else:
                batch.append(("observe", sample(int(rng.integers(INITIAL_CUSTOMERS)))))
        requests[phase] = batch
    return Plan(warmup, offsets, requests)


async def warm_up(service: RecommendationService, samples) -> None:
    """Observe every warm-up sample, retrying admission refusals."""
    gate = asyncio.Semaphore(WARMUP_CONCURRENCY)
    by_customer: dict[str, list] = {}
    for s in samples:
        by_customer.setdefault(s.customer_id, []).append(s)

    async def feed(customer_samples) -> None:
        for s in customer_samples:  # one customer's samples stay in order
            async with gate:
                while True:
                    try:
                        await service.observe(s)
                        break
                    except AdmissionError as exc:
                        await asyncio.sleep(exc.retry_after_s)

    await asyncio.gather(*(feed(v) for v in by_customer.values()))


def lane_totals(stats: dict) -> dict[str, tuple[int, int, int]]:
    """(items, flushes, rejected) per lane from ``RecommendationService.stats()``."""
    observe = stats["observe"]["shards"]
    recommend = stats["recommend"]["lane"]
    return {
        "observe": (
            sum(s["batches"]["n_items"] for s in observe),
            sum(s["batches"]["n_flushes"] for s in observe),
            sum(s["n_rejected"] for s in observe),
        ),
        "recommend": (
            recommend["batches"]["n_items"],
            recommend["batches"]["n_flushes"],
            recommend["n_rejected"],
        ),
    }


def busy_shares(tracer, start_ns: int, end_ns: int) -> dict[str, float]:
    """Share of the load window each lane's executor threads spent in traced calls."""
    names = {t.ident: t.name for t in threading.enumerate()}
    tops: dict[int, list[tuple[int, int]]] = {}
    for span in tracer.spans:
        if span.parent_id is None:
            tops.setdefault(span.thread_id, []).append((span.start_ns, span.end_ns))
    shares = {}
    for lane, prefix in (("observe", "serve-shard-"), ("recommend", "serve-recommend")):
        threads = [ident for ident, name in names.items() if name.startswith(prefix)]
        busy = sum(covered_length(tops.get(ident, ()), start_ns, end_ns) for ident in threads)
        shares[lane] = busy / ((end_ns - start_ns) * len(threads)) if threads else 0.0
    return shares


async def _run(seed: int, seconds: float, tracer, setup_repeats: int) -> Outcome:
    setup_times = []
    service = None
    for _ in range(setup_repeats):
        if service is not None:
            await service.stop()
        start = time.perf_counter()
        fleet = fitted_fleet(seed)
        plan = make_plan(seed, seconds)
        service = RecommendationService(fleet, ServeConfig())
        service.start()
        await warm_up(service, plan.warmup)
        setup_times.append(time.perf_counter() - start)
    assert service is not None
    slo_s = service.config.slo_ms / 1000.0

    out = Outcome()
    done: dict[str, list[Completion]] = {}
    before = lane_totals(service.stats())
    cache_before = fleet.cache_stats()
    with recording(tracer):
        load_start = time.perf_counter_ns()
        for phase, requests in plan.requests.items():

            async def call(index: int, requests=requests):
                kind, payload = requests[index]
                endpoint = service.observe if kind == "observe" else service.recommend
                for attempt in range(1, MAX_ATTEMPTS + 1):
                    try:
                        return await endpoint(payload)
                    except AdmissionError as exc:
                        if attempt == MAX_ATTEMPTS:
                            raise
                        await asyncio.sleep(exc.retry_after_s)

            done[phase] = await open_loop(plan.offsets[phase], call, AdmissionError)
        load_end = time.perf_counter_ns()
    if tracer is not None:
        shares = busy_shares(tracer, load_start, load_end)
    after = lane_totals(service.stats())
    cache_after = fleet.cache_stats()
    await service.stop()

    detail: dict[str, Metric] = {}
    answered: list[tuple[str, str]] = []
    refreshed = observed = 0
    for phase, completions in done.items():
        phase_seconds = seconds * PHASE_SHARE[phase]
        start = completions[0].due - plan.offsets[phase][0]
        latencies = []
        good = 0
        for (kind, payload), c in zip(plan.requests[phase], completions):
            out.attempted += 1
            ok = c.status == "ok"
            if ok and kind == "observe":
                ok = c.result.update is not None and not c.result.deferred
                observed += ok
                refreshed += ok and c.result.update.refreshed
            elif ok:
                ok = c.result.recommendation is not None
                answered.append((payload.customer_id, recommendation_line(c.result)))
            if not ok:
                out.failed += 1
            # A request refused on every attempt, or failed, misses every
            # latency limit: it counts as waiting the whole phase.
            latencies.append(c.latency if ok else phase_seconds)
            good += ok and c.latency <= slo_s
        detail[f"serve.{phase}.p50_ms"] = Metric(percentile(latencies, 50) * 1e3, "ms", len(latencies))
        detail[f"serve.{phase}.p99_ms"] = Metric(percentile(latencies, 99) * 1e3, "ms", len(latencies))
        # Goodput is per second of the phase as it actually ran: from its
        # scheduled start until its last answer.
        elapsed = max(c.finished for c in completions) - start
        detail[f"serve.{phase}.goodput_rps"] = Metric(good / elapsed, "1/s", len(completions))
        detail[f"serve.{phase}.offered_rps"] = Metric(RATES[phase], "1/s", len(completions))

    targets = {
        p.customer_id: p for requests in plan.requests.values() for k, p in requests if k == "recommend"
    }
    reference = FleetEngine(engine=fleet.engine, backend="serial").recommend_batch(list(targets.values()))
    expected = {r.customer_id: recommendation_line(r) for r in reference}
    mismatched = sum(1 for cid, line in answered if expected[cid] != line)
    out.failed += mismatched
    out.checks["recommend_matches_recommend_batch"] = mismatched == 0
    out.digests["inputs"] = digest(plan.lines())
    out.digests["outputs"] = digest(f"{cid}|{line}" for cid, line in sorted(expected.items()))

    out.metrics = {
        "setup_s": Metric(median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        "throughput_per_s": detail["serve.peak.goodput_rps"],
        "latency_p50_ms": detail["serve.nominal.p50_ms"],
        "latency_p99_ms": detail["serve.nominal.p99_ms"],
    }
    out.detail = detail
    late = [c.late * 1e3 for completions in done.values() for c in completions]
    out.layer["loadgen.late_p99_ms"] = percentile(late, 99)
    for lane in ("observe", "recommend"):
        items, flushes, rejected = (a - b for a, b in zip(after[lane], before[lane]))
        out.layer[f"serve.{lane}.batch_mean"] = items / flushes if flushes else 0.0
        out.layer[f"serve.{lane}.rejected"] = float(rejected)
        if tracer is not None:
            out.layer[f"serve.{lane}.busy_share"] = shares[lane]
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    out.layer["fleet.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out.layer["streaming.refresh_ratio"] = refreshed / observed if observed else 0.0
    out.notes.append(
        "loadgen: late p99 {:.2f} ms over {} requests".format(out.layer["loadgen.late_p99_ms"], len(late))
    )
    out.cost = detail["serve.nominal.p50_ms"].value / 1e3
    return out


def run(seed: int, seconds: float, tracer=None, setup_repeats: int = 3) -> Outcome:
    return asyncio.run(_run(seed, seconds, tracer, setup_repeats))
