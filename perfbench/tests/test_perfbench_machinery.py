"""Tests of the benchmark's own machinery (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import contextvars
import json
import os
import threading
import time
from pathlib import Path

import pytest

import layers
import run
from inputs import Population, digest, estate, customer_bytes, rng_for, sample_line, skewed_feed
from loadgen import open_loop, poisson_offsets
from outcome import slowest
from serve import make_plan
from tracing import (
    InsufficientSamples,
    Span,
    Tracer,
    check_metric_name,
    check_unit,
    covered_length,
    percentile,
    reconcile_pairs,
    samples_beyond,
    self_times,
)
from watch import slowest_windows

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- self-time arithmetic ---------------------------------------------------
def test_self_time_of_nested_spans_subtracts_only_direct_children():
    spans = [
        Span("outer", 0, 100, 1, None, 1),
        Span("mid", 10, 40, 2, 1, 1),
        Span("inner", 20, 30, 3, 2, 1),
        Span("mid", 60, 70, 4, 1, 1),
    ]
    assert self_times(spans) == {1: 100 - 30 - 10, 2: 30 - 10, 3: 10, 4: 10}


def test_self_time_of_cross_thread_children_counts_their_union_inside_the_parent():
    # Two children on other threads overlap each other and the second
    # outlives its parent: the parent loses [10, 100], not 50 + 70.
    spans = [
        Span("parent", 0, 100, 1, None, 1),
        Span("child", 10, 60, 2, 1, 2),
        Span("child", 50, 120, 3, 1, 3),
    ]
    own = self_times(spans)
    assert own[1] == 10
    assert own[2] == 50 and own[3] == 70


def test_covered_length_merges_touching_and_disjoint_intervals():
    assert covered_length([(0, 5), (5, 10), (20, 30)], 0, 100) == 20
    assert covered_length([(0, 50)], 10, 20) == 10
    assert covered_length([], 0, 10) == 0


def test_tracer_records_nested_and_cross_thread_spans_with_parents():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.timed("leaf", leaf)

    def branch():
        context = contextvars.copy_context()  # carry the open span to the thread
        worker = threading.Thread(target=context.run, args=(traced_leaf,))
        worker.start()
        traced_leaf()
        worker.join(timeout=5)
        assert not worker.is_alive()

    with tracer.recording():
        tracer.timed("branch", branch)()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["branch"]
    assert root.parent_id is None
    assert {s.parent_id for s in by_name["leaf"]} == {root.span_id}
    assert len({s.thread_id for s in by_name["leaf"]}) == 2
    assert tracer.counters["branch.calls"] == 1 and tracer.counters["leaf.calls"] == 2
    own = self_times(tracer.spans)
    covered = covered_length([(s.start_ns, s.end_ns) for s in by_name["leaf"]], root.start_ns, root.end_ns)
    assert own[root.span_id] == root.end_ns - root.start_ns - covered


def test_nested_calls_of_one_layer_count_once_and_nothing_records_when_inactive():
    tracer = Tracer()
    inner = tracer.timed("layer", lambda: None)
    outer = tracer.timed("layer", lambda: inner())
    outer()
    assert tracer.spans == [] and not tracer.counters
    with tracer.recording():
        outer()
    assert tracer.counters["layer.calls"] == 1
    assert len(tracer.spans) == 2


def test_reconcile_pairs_takes_the_measured_wrapper_cost_off_the_traced_time():
    # (idle s, traced s, spans, counted calls): 1000 spans at 1 ms and
    # 1000 counted calls at 0.1 ms explain 1.1 s of each traced pass.
    # Signed per-pair residuals -5%, 0%, +8%: the median is 0.
    pairs = [(10.0, 10.6, 1000, 1000), (10.0, 11.1, 1000, 1000), (10.0, 11.9, 1000, 1000)]
    overhead, error = reconcile_pairs(pairs, span_ns=1e6, count_ns=1e5)
    assert overhead == pytest.approx(11.0)
    assert error == pytest.approx(0.0, abs=1e-9)
    overhead, error = reconcile_pairs([(10.0, 11.6, 1000, 1000)], span_ns=1e6, count_ns=1e5)
    assert error == pytest.approx(5.0)


def test_calibrate_measures_wrapper_cost_and_keeps_no_records_of_its_own():
    tracer = Tracer()
    with tracer.recording():
        tracer.timed("kept", lambda: None)()
    span_ns, count_ns = tracer.calibrate(calls=2000, rounds=2)
    assert span_ns > 0 and count_ns >= 0
    assert [s.name for s in tracer.spans] == ["kept"]
    assert dict(tracer.counters) == {"kept.calls": 1} and tracer.n_counted == 0
    assert not tracer.active


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_runs_unwrapped_code_and_records_nothing():
    class Layer:
        def work(self):
            return 1

    original = Layer.__dict__["work"]
    tracer = Tracer()
    tracer.patch_method(Layer, "work", lambda fn: tracer.timed("layer", fn))
    read, write = os.pipe()
    with tracer.recording():
        pid = os.fork()
        if pid == 0:  # the child: report what it inherited, then leave at once
            Layer().work()
            state = (Layer.__dict__["work"] is original, tracer.active, len(tracer.spans))
            os.write(write, repr(state).encode())
            os._exit(0)
        os.close(write)
        with os.fdopen(read) as fh:
            child = fh.read()
        os.waitpid(pid, 0)
        Layer().work()
    tracer.restore()
    assert child == "(True, False, 0)"
    assert [s.name for s in tracer.spans] == ["layer"]


def test_stop_processes_reaps_children_and_the_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    tracker_pid = resource_tracker._resource_tracker._pid
    child = multiprocessing.Process(target=time.sleep, args=(60,))
    child.start()
    run.stop_processes()
    assert not child.is_alive() and not multiprocessing.active_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(tracker_pid, 0)


# -- naming and percentile rules ---------------------------------------------
@pytest.mark.parametrize("name", ["setup_s", "core.build_curve.self_ms", "p99", "a-b_c.d"])
def test_metric_names_that_follow_the_rule(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", ".lead", "_lead", "has space", "slash/name", "x" * 65, "naïve"])
def test_metric_names_that_break_the_rule(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_units_follow_the_rule():
    for unit in ("ms", "s", "1/s", "%", "count", "MB"):
        assert check_unit(unit) == unit
    with pytest.raises(ValueError):
        check_unit("per second")


def test_benchmark_json_names_every_reported_metric_with_its_unit():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name, unit, _ in run.END_TO_END + layers.PER_LAYER:
        check_metric_name(name)
        check_unit(unit)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 99)
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 50)


def test_slowest_keeps_the_slowest_groups_until_the_share_and_the_minimum():
    groups = [(1.0, ["fast"]), (3.0, ["a", "b"]), (2.0, ["c", "d", "e"]), (0.5, ["x", "y"])]
    assert slowest(groups, 0.5) == [(3.0, ["a", "b"]), (2.0, ["c", "d", "e"])]
    assert slowest(groups, 0.1) == [(3.0, ["a", "b"])]
    assert slowest(groups, 0.1, min_samples=4) == [(3.0, ["a", "b"]), (2.0, ["c", "d", "e"])]
    assert slowest(groups, 0.1, min_samples=100) == sorted(groups, reverse=True)
    assert slowest([(1.0, [1])], 0.5) == [(1.0, [1])]



def test_slowest_windows_times_each_window_at_its_slowest_executions():
    # Two windows, three cycles: (window boundaries, latencies per window).
    cycles = [
        ([0.0, 1.0, 3.0], [[0.1], [0.2]]),
        ([0.0, 2.0, 3.0], [[0.3], [0.4]]),
        ([0.0, 1.5, 4.0], [[0.5], [0.6]]),
    ]
    seconds, latencies = slowest_windows(cycles)
    # Window 0 keeps 2.0 s and 1.5 s, window 1 keeps 2.5 s and 2.0 s.
    assert seconds == pytest.approx(1.75 + 2.25)
    assert latencies == [0.3, 0.5, 0.6, 0.2]


# -- seeded inputs --------------------------------------------------------------
def test_the_hot_head_of_the_population_holds_every_class():
    population = Population.make(120)
    head = slice(0, 10)
    assert set(population.noise[head]) == {0.02, 0.15}
    assert population.steps[head].any() and not population.steps[head].all()
    assert population.scale[head].min() < 1.0 < population.scale[head].max()


def test_seed_fixes_the_arrival_schedule():
    first = poisson_offsets(rng_for(7, "arrivals-peak"), 300.0, 2.0)
    assert first == poisson_offsets(rng_for(7, "arrivals-peak"), 300.0, 2.0)
    assert first != poisson_offsets(rng_for(8, "arrivals-peak"), 300.0, 2.0)
    assert len(first) == 600 and first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 2.0


def test_seed_fixes_every_workload_input():
    def plan_digest(seed):
        return digest(make_plan(seed, 1.0).lines())

    def feed_digest(seed):
        return digest(sample_line(s) for s in skewed_feed(seed, 20, 60))

    def estate_digest(seed):
        return digest(customer_bytes(c) for c in estate(seed, 0, 4))

    for make in (plan_digest, feed_digest, estate_digest):
        assert make(3) == make(3)
        assert make(3) != make(4)


def test_open_loop_times_requests_from_when_they_were_due():
    async def scenario():
        async def call(index):
            if index == 0:
                time.sleep(0.1)  # a stall that blocks the loop
            return index

        return await open_loop([0.0, 0.01, 0.02], call, RuntimeError)

    done = asyncio.run(scenario())
    assert [c.status for c in done] == ["ok", "ok", "ok"]
    # Requests due during the stall were sent late, and their latency
    # includes the wait the stall imposed on them.
    assert done[1].late > 0.05 and done[2].late > 0.05
    assert done[1].latency >= done[1].late
