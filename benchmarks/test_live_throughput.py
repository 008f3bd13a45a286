"""Live-runtime soak: sustained publish throughput and end-to-end latency.

The acceptance surface for the asyncio runtime — and its perf regression
gate: >=10k publishes pushed through a 4-broker TCP cluster without
deadlock, reporting events/sec and the p50/p99 publish->notify pipeline
latency.  Latencies come from the shared
:class:`~repro.obs.tracing.Tracer`: the router records a ``publish`` span
at the origin broker and a ``notify`` event at each consumer, both keyed
by the (epoch-namespaced, cluster-unique) publish id, so one subtraction
per delivery yields the broker-pipeline latency — ingest, batched match,
BROCLI routing over real sockets, and consumer hand-off.

**Publish model: windowed concurrent producers.**  One producer task per
broker, each alternating ``publish_many(CHUNK)`` with a ``flush()``
barrier every ``WINDOW`` chunks.  The barrier is per-producer flow
control: it bounds cluster-wide in-flight work to roughly
``brokers * WINDOW * CHUNK`` events, which is what bounds the latency
tail — an unwindowed firehose piles hundreds of milliseconds of queued
work in front of every new publish, and p99 measures the pile, not the
pipeline.  Because the producers run concurrently, one producer draining
its barrier never idles the cluster: the other brokers keep chewing.

**GC discipline.**  The harness runs all four brokers in one process, so
the collector sees 4x a single broker's heap; by mid-soak a generation-2
pass takes ~100ms, collects nothing (the heap is caches and live queues),
and lands as a cluster-wide stall — the entire latency tail beyond
~50ms was GC in disguise.  The soak therefore uses the long-running
server recipe: ``gc.collect() + gc.freeze()`` after warm-up (moves the
steady-state heap out of the scanned generations), defer gen-1/gen-2
during the measured window, restore afterwards.  Gen-0 stays at its
default threshold throughout — short-lived garbage is still collected.

**Regression gate.**  ``benchmarks/BENCH_live.json`` holds the committed
baseline.  Each run first compares its throughput against that baseline —
failing on a >30% drop — and then rewrites the file with the fresh
numbers (the working-tree copy doubles as the CI artifact; committing it
updates the baseline).  ``REPRO_FAULT_SEED`` seeds the workload so CI can
sweep seeds without editing the file, and ``REPRO_TRACE_OUT=<path>``
exports the soak's spans as JSONL for the tracer stage table
(``python -m repro.analysis.tracereport <path>``).

Run directly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_live_throughput.py -s
"""

import asyncio
import contextlib
import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.network import Topology
from repro.obs.tracing import Tracer
from repro.runtime.cluster import LocalCluster
from repro.workload.stocks import StockWorkload

EVENTS = 10_000
CHUNK = 64  # events per publish_many burst (one coalesced client write)
WINDOW = 1  # chunks in flight per producer before a flush barrier
SUBS_PER_BROKER = 8
SOAK_TIMEOUT = 300.0  # the no-deadlock guarantee, enforced hard

BENCH_PATH = Path(__file__).parent / "BENCH_live.json"
#: Fail the gate when throughput drops below this fraction of baseline.
REGRESSION_FLOOR = 0.70


def percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


@contextlib.contextmanager
def soak_gc():
    """Freeze the warm heap and defer gen-1/gen-2 for the measured window."""
    gc.collect()
    gc.freeze()
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], 1_000_000, 1_000_000)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        gc.unfreeze()
        gc.collect()


def run_soak(seed: int, tracer: Tracer):
    """The windowed-producer soak body; returns ``(elapsed, notified,
    metrics, dropped)``."""
    topology = Topology.line(4)
    workload = StockWorkload(seed=seed)

    async def soak():
        cluster = LocalCluster(topology, workload.schema, tracer=tracer)
        await cluster.start()
        try:
            for broker_id in topology.brokers:
                subscriber = await cluster.subscriber(broker_id)
                for _ in range(SUBS_PER_BROKER):
                    await subscriber.subscribe(workload.subscription())
            await cluster.run_propagation_period()

            producers = [await cluster.producer(b) for b in topology.brokers]
            # Pre-generate the chunks (workload RNG off the clock) and deal
            # them round-robin so every broker ingests an equal share.
            lanes = [[] for _ in producers]
            sent = 0
            lane = 0
            while sent < EVENTS:
                chunk = workload.ticks(min(CHUNK, EVENTS - sent))
                lanes[lane % len(lanes)].append(chunk)
                sent += len(chunk)
                lane += 1

            async def run_producer(producer, chunks):
                pending = 0
                for chunk in chunks:
                    await producer.publish_many(chunk)
                    pending += 1
                    if pending >= WINDOW:
                        await producer.flush()
                        pending = 0
                await producer.flush()

            with soak_gc():
                started = time.perf_counter()
                await asyncio.gather(
                    *(run_producer(p, c) for p, c in zip(producers, lanes))
                )
                await cluster.settle()
                elapsed = time.perf_counter() - started
            notified = sum(len(s.deliveries) for s in cluster._subscribers)
            metrics = cluster.metrics()
            dropped = sum(r.frames_dropped for r in cluster.runtimes.values())
            return elapsed, notified, metrics, dropped
        finally:
            await cluster.stop(drain=False)

    async def with_deadline():
        return await asyncio.wait_for(soak(), SOAK_TIMEOUT)

    return asyncio.run(with_deadline())


def pipeline_latencies_ms(tracer: Tracer):
    """publish->notify latencies from the shared tracer, validated."""
    publish_starts = {
        span.trace_id: span.t_us for span in tracer.spans_of("publish")
    }
    notify_records = tracer.spans_of("notify")
    assert len(publish_starts) == EVENTS, "a publish vanished"
    assert all(
        record.trace_id in publish_starts for record in notify_records
    ), "orphan notify: no matching publish span"
    # One notify record per (broker, event); ``notified`` counts per-sid
    # hand-offs, so it is at least as large.
    return sorted(
        (record.t_us - publish_starts[record.trace_id]) / 1000.0
        for record in notify_records
    )


@pytest.mark.slow
def test_soak_10k_publishes_4_brokers():
    seed = int(os.environ.get("REPRO_FAULT_SEED", "42"))
    tracer = Tracer()
    elapsed, notified, metrics, dropped = run_soak(seed, tracer)

    latencies_ms = pipeline_latencies_ms(tracer)
    assert notified >= len(latencies_ms) > 0, "soak matched nothing"
    assert latencies_ms[0] >= 0.0
    assert dropped == 0, "live soak dropped frames"

    throughput = EVENTS / elapsed
    p50 = percentile(latencies_ms, 0.50)
    p99 = percentile(latencies_ms, 0.99)
    print(
        f"\nlive soak: {EVENTS} publishes over 4 brokers "
        f"in {elapsed:.2f}s = {throughput:,.0f} events/sec; "
        f"{notified} notifications; publish->notify latency "
        f"p50={p50:.3f}ms p99={p99:.3f}ms; "
        f"{metrics.backpressure_stalls} backpressure stalls; "
        f"mean coalesced batch {metrics.batch_size:.1f}"
    )

    # -- regression gate ----------------------------------------------------
    baseline = None
    if BENCH_PATH.exists():
        baseline = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    result = {
        "benchmark": "live_soak_4_broker_line",
        "events": EVENTS,
        "chunk": CHUNK,
        "window": WINDOW,
        "subs_per_broker": SUBS_PER_BROKER,
        "seed": seed,
        "elapsed_s": round(elapsed, 3),
        "throughput_evps": round(throughput, 1),
        "p50_ms": round(p50, 3),
        "p99_ms": round(p99, 3),
        "notifications": notified,
        "backpressure_stalls": metrics.backpressure_stalls,
        "mean_batch_size": round(metrics.batch_size, 2),
    }
    assert throughput > 100, f"implausibly slow: {throughput:.0f} ev/s"
    if baseline is not None and "throughput_evps" in baseline:
        floor = REGRESSION_FLOOR * float(baseline["throughput_evps"])
        assert throughput >= floor, (
            f"throughput regression: {throughput:,.0f} ev/s is below "
            f"{REGRESSION_FLOOR:.0%} of the committed baseline "
            f"{baseline['throughput_evps']:,.0f} ev/s (floor {floor:,.0f}); "
            f"if the drop is intentional, re-run and commit "
            f"benchmarks/BENCH_live.json"
        )
    # Written only after the gate passes so a failing run leaves the
    # committed baseline intact for the re-run.
    BENCH_PATH.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    trace_out = os.environ.get("REPRO_TRACE_OUT")
    if trace_out:
        tracer.export_jsonl(trace_out)

